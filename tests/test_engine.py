"""Contention engine behavior against hand-computed oracles.

Most tests inject scripted random streams through RandomSource.replaced and
pin exact tick times: with one RA opportunity every 280 ticks (5 ms), Msg1
spans 56, the RAR arrives at Msg1 end + 168 plus 56 per deferred response
subframe, and Msg3/Msg4 each cost 280 per HARQ transmission.
"""

import math
from collections import Counter, defaultdict, deque
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rachsim import engine
from rachsim.config import (
    TopologyConfig,
    apply_overrides,
    build_scenario,
    scenario_with,
)
from rachsim.engine import run
from rachsim.kpi import build_report
from rachsim.reference import REFERENCE_SCENARIOS
from rachsim.rng import RandomSource
from rachsim.timebase import TimingParams, ms_to_ticks, ticks_to_ms
from rachsim.topology import DevicePlacement, build_layout, place_devices
from rachsim.traffic import assign_classes
from stream_stubs import Fixed, Scripted

SINGLE = TopologyConfig(n_macro_cells=1)


class RoundRobin:
    """integers(lo, hi) steps through lo..hi-1 cyclically across calls.

    Forces every simultaneous transmitter onto a distinct preamble, so
    contention outcomes become deterministic.
    """

    def __init__(self):
        self.k = 0

    def integers(self, lo, hi):
        self.k += 1
        return lo + (self.k - 1) % (hi - lo)

    def random(self):
        return 0.0


def scripted_source(seed=1, **streams):
    return RandomSource.from_seed(seed).replaced(**streams)


def mk(text="", **over):
    sc = build_scenario(text)
    return scenario_with(sc, **over) if over else sc


def single_placement(n, femto=None, dist=10.0):
    """Hand placement: everyone served by macro 0 at `dist` meters."""
    femto = [-1] * n if femto is None else femto
    return DevicePlacement(
        positions=np.zeros((n, 2)),
        serving_cell=np.zeros(n, dtype=np.int64),
        femto_cell=np.array(femto, dtype=np.int64),
        serving_dist=np.full(n, dist),
    )


# -- scripted HARQ timelines ------------------------------------------------


@pytest.mark.parametrize(
    "text, script, outcome, end, msg3, msg4, left",
    [
        # A draw at or above harq_fail_prob (0.1) delivers the message.
        ("", (0.5, 0.5), "connected", 224 + 560, 280, 280, 0),
        ("", (0.05, 0.5, 0.5), "connected", 224 + 840, 560, 280, 0),
        ("", (0, 0, 0, 0, 0.99, 0.5), "connected", 224 + 1680, 1400, 280, 0),
        # Msg3 exhausted: fails at RAR + max_harq * t3, no Msg4 draw taken.
        ("", (0, 0, 0, 0, 0, 0.5), "failed", 224 + 5 * 280, None, None, 1),
        # Msg4 exhausted: fails at RAR + t3 + max_harq * t4.
        ("", (0.5, 0, 0, 0, 0, 0, 0.5), "failed", 224 + 6 * 280, None, None,
         1),
        # No losses and one transmission each: even a 0.0 draw delivers.
        ("harq_fail_prob = 0\nmax_harq = 1\n", (0.0, 0.0, 0.5), "connected",
         224 + 560, 280, 280, 1),
        # One transmission each, and Msg3 is lost: fails at RAR + t3.
        ("max_harq = 1\n", (0.05, 0.5), "failed", 224 + 280, None, None, 1),
    ],
    ids=["msg3-tx1", "msg3-tx2", "msg3-tx5", "msg3-exhausted",
         "msg4-exhausted", "no-loss-max-harq-1", "max-harq-1-lost"],
)
def test_scripted_harq_timeline(text, script, outcome, end, msg3, msg4, left):
    # One device, detected at once, with no retry budget: the HARQ draws
    # alone decide when it connects or fails.
    sc = mk("n_devices = 1\nmax_preamble_tx = 1\n" + text, topology=SINGLE)
    harq = Scripted(*script)
    src = scripted_source(
        detection=Fixed(0.0), preamble=RoundRobin(), harq=harq
    )
    res = run(sc, source=src, arrivals=np.array([0]), collect_trace=True)
    rows = [(kind, t) for t, _, kind, *_ in res.trace if kind != "msg1"]
    assert rows == [("rar", 224), (outcome, end)]
    rec = res.records[0]
    assert (rec.msg3_ticks, rec.msg4_ticks) == (msg3, msg4)
    assert rec.success == (outcome == "connected")
    assert len(harq.q) == left


# -- single-device timeline oracles ------------------------------------------


def test_edt_single_device_exact_timeline():
    sc = mk(
        "enhancements = edt\nn_devices = 1\n", topology=SINGLE
    )
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(sc, source=src, arrivals=np.array([0]))
    rec = res.records[0]
    assert rec.success
    # Msg1 at tick 0..56, RAR at 56 + 168 = 224; early-data stops there.
    assert rec.first_attempt_ticks == 0
    assert rec.wait_ticks == 0
    assert rec.msg1_ticks == 56
    assert rec.msg2_ticks == 168
    assert rec.msg3_ticks is None and rec.msg4_ticks is None
    assert rec.completion_ticks == 224
    assert ticks_to_ms(rec.completion_ticks, res.time_scale) == 4.0


def test_offgrid_arrival_waits_for_next_opportunity():
    sc = mk("enhancements = edt\nn_devices = 1\n", topology=SINGLE)
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(sc, source=src, arrivals=np.array([100]))
    rec = res.records[0]
    assert rec.first_attempt_ticks == 280
    assert rec.wait_ticks == 180
    assert rec.completion_ticks == 280 + 224


def test_four_step_single_device_exact_timeline():
    sc = mk("n_devices = 1\n", topology=SINGLE)
    src = scripted_source(
        detection=Fixed(0.0),
        preamble=RoundRobin(),
        harq=Scripted(0.9, 0.9),  # both messages deliver first try
    )
    res = run(sc, source=src, arrivals=np.array([0]))
    rec = res.records[0]
    assert rec.success
    assert rec.msg2_ticks == 168
    assert rec.msg3_ticks == 280 and rec.msg4_ticks == 280
    assert rec.completion_ticks == 224 + 560
    # Decomposition: wait + msg1 + msg2 + msg3 + msg4 == completion - arrival.
    assert (
        rec.wait_ticks
        + rec.msg1_ticks
        + rec.msg2_ticks
        + rec.msg3_ticks
        + rec.msg4_ticks
        == rec.completion_ticks - rec.arrival_ticks
    )


def test_harq_repeats_extend_msg3_and_msg4():
    sc = mk("n_devices = 1\n", topology=SINGLE)
    src = scripted_source(
        detection=Fixed(0.0),
        preamble=RoundRobin(),
        # Msg3 delivers on the 2nd transmission, Msg4 on the 3rd.
        harq=Scripted(0.0, 0.9, 0.0, 0.0, 0.9),
    )
    res = run(sc, source=src, arrivals=np.array([0]))
    rec = res.records[0]
    assert rec.msg3_ticks == 2 * 280
    assert rec.msg4_ticks == 3 * 280
    assert rec.completion_ticks == 224 + 5 * 280


def test_resolution_deadline_boundary():
    # Nine transmissions (2520 ticks) fit inside the 2688-tick deadline;
    # ten (2800) do not and the grant is forfeited.
    fits = mk("n_devices = 1\nmax_preamble_tx = 1\n", topology=SINGLE)
    src = scripted_source(
        detection=Fixed(0.0),
        preamble=RoundRobin(),
        harq=Scripted(0, 0, 0, 0, 0.9, 0, 0, 0, 0.9),  # k3=5, k4=4
    )
    rec = run(fits, source=src, arrivals=np.array([0])).records[0]
    assert rec.success and rec.completion_ticks == 224 + 2520

    src = scripted_source(
        detection=Fixed(0.0),
        preamble=RoundRobin(),
        harq=Scripted(0, 0, 0, 0, 0.9, 0, 0, 0, 0, 0.9),  # k3=5, k4=5
    )
    rec = run(fits, source=src, arrivals=np.array([0])).records[0]
    assert not rec.success


# -- backoff timing ----------------------------------------------------------


def first_msg1_times(result):
    return [t for t, _, kind, _, _, _ in result.trace if kind == "msg1"]


@pytest.mark.parametrize(
    "bi,expected_second",
    [
        (0, 560),  # 56+168+280+0 = 504 -> next opportunity at 560
        (56, 560),  # exactly on the 560 grid point: still eligible
        (57, 840),  # one tick past it: pushed a full period later
    ],
)
def test_backoff_after_missed_rar_is_inclusive(bi, expected_second):
    sc = mk("n_devices = 1\nmax_preamble_tx = 2\n", topology=SINGLE)
    src = scripted_source(
        detection=Fixed(1.0),  # never detected
        preamble=RoundRobin(),
        backoff=Scripted(bi, bi),
    )
    res = run(sc, source=src, arrivals=np.array([0]), collect_trace=True)
    assert not res.records[0].success
    assert first_msg1_times(res) == [0, expected_second]


@pytest.mark.parametrize(
    "harq_script,expected_second",
    [
        # Msg3 never delivers: failure known at RAR + 5*280 = 1624;
        # retry eligible 1624+168+280 = 2072 -> opportunity at 2240.
        ((0, 0, 0, 0, 0, 0.9, 0.9), 2240),
        # Msg3 delivers once, Msg4 never: 224+280+1400 = 1904 -> 2352 -> 2520.
        ((0.9, 0, 0, 0, 0, 0, 0.9, 0.9), 2520),
        # Deadline expiry: failure at RAR + 2688 = 2912 -> 3360 exactly.
        ((0, 0, 0, 0, 0.9, 0, 0, 0, 0, 0.9, 0.9, 0.9), 3360),
    ],
)
def test_backoff_base_per_failure_kind(harq_script, expected_second):
    sc = mk("n_devices = 1\nmax_preamble_tx = 2\n", topology=SINGLE)
    src = scripted_source(
        detection=Fixed(0.0),
        preamble=RoundRobin(),
        harq=Scripted(*harq_script),
        backoff=Scripted(0, 0),
    )
    res = run(sc, source=src, arrivals=np.array([0]), collect_trace=True)
    assert first_msg1_times(res) == [0, expected_second]
    assert res.records[0].success  # second grant completes


def test_budget_exhaustion_consumes_no_backoff_draw():
    sc = mk("n_devices = 1\nmax_preamble_tx = 2\n", topology=SINGLE)
    backoff = Scripted(0)  # exactly one draw available
    src = scripted_source(
        detection=Fixed(1.0), preamble=RoundRobin(), backoff=backoff
    )
    res = run(sc, source=src, arrivals=np.array([0]))
    rec = res.records[0]
    assert not rec.success
    assert rec.msg1_count == 2 and rec.attempt_count == 2
    assert len(backoff.q) == 0  # drawn after attempt 1 only


# -- RAR capacity ------------------------------------------------------------


def test_rar_grants_fill_response_subframes_in_preamble_order():
    # 30 sole detections at one opportunity against 12 grants per subframe:
    # 12 at +0, 12 at +56, 6 at +112.
    sc = mk(
        "enhancements = edt\nn_devices = 30\nmax_preamble_tx = 10\n",
        topology=SINGLE,
    )
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(sc, source=src, arrivals=np.zeros(30, dtype=np.int64))
    assert all(r.success for r in res.records)
    spread = Counter(r.msg2_ticks for r in res.records)
    assert spread == {168: 12, 168 + 56: 12, 168 + 112: 6}


def test_rar_window_overflow_defers_to_next_opportunity():
    # Five response subframes hold 60 grants; transmitters 61..70 behave
    # as undetected and return at the next opportunity.
    sc = mk(
        "enhancements = edt\nn_devices = 70\nn_preambles = 100\n",
        topology=SINGLE,
    )
    src = scripted_source(
        detection=Fixed(0.0), preamble=RoundRobin(), backoff=Fixed(0)
    )
    res = run(sc, source=src, arrivals=np.zeros(70, dtype=np.int64))
    attempts = Counter(r.attempt_count for r in res.records)
    assert attempts == {1: 60, 2: 10}
    assert all(r.success for r in res.records)
    spread = Counter(
        r.msg2_ticks for r in res.records if r.attempt_count == 1
    )
    assert spread == {168 + 56 * s: 12 for s in range(5)}


def test_ebf_single_response_subframe():
    # The focused-beam mode answers in the opportunity subframe only:
    # 12 grants per opportunity, everyone else retries immediately
    # (zero backoff for the priority class).
    sc = mk(
        "enhancements = edt,ebf\nn_devices = 30\n", topology=SINGLE
    )
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(sc, source=src, arrivals=np.zeros(30, dtype=np.int64))
    attempts = Counter(r.attempt_count for r in res.records)
    assert attempts == {1: 12, 2: 12, 3: 6}
    assert all(r.msg2_ticks == 168 for r in res.records)
    delays = Counter(
        r.completion_ticks - r.first_attempt_ticks for r in res.records
    )
    assert delays == {224: 12, 280 + 224: 12, 560 + 224: 6}


def test_rar_capacity_follows_control_channel_parameters():
    # 8 control elements at 4 per message, 2 grants each -> 4 per subframe.
    sc = mk(
        "enhancements = edt\nn_devices = 10\ncce_total = 8\n"
        "cce_per_pdcch = 4\nrar_grants_per_msg = 2\n",
        topology=SINGLE,
    )
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(sc, source=src, arrivals=np.zeros(10, dtype=np.int64))
    spread = Counter(r.msg2_ticks for r in res.records)
    assert spread == {168: 4, 224: 4, 280: 2}


# -- parallel preambles ------------------------------------------------------


def test_parallel_scheme_doubles_transmissions_when_covered():
    sc = mk(
        "enhancements = edt,pp\nn_devices = 1\n",
        topology=TopologyConfig(n_macro_cells=1, n_femto_cells=1),
    )
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(
        sc,
        source=src,
        placement=single_placement(1, femto=[0]),
        arrivals=np.array([0]),
    )
    rec = res.records[0]
    assert rec.msg1_count == 2 and rec.attempt_count == 1
    assert rec.success


def test_parallel_tie_resolves_to_macro():
    sc = mk(
        "enhancements = edt,pp\nn_devices = 1\n",
        topology=TopologyConfig(n_macro_cells=1, n_femto_cells=1),
    )
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(
        sc,
        source=src,
        placement=single_placement(1, femto=[0]),
        arrivals=np.array([0]),
        collect_trace=True,
    )
    rars = [(t, g) for t, _, k, _, g, _ in res.trace if k == "rar"]
    assert rars == [(224, 0)]  # both branches answered at 224; macro kept


def test_parallel_first_rar_wins_when_macro_queues():
    # Thirteen macro transmitters: the 13th lands in the second response
    # subframe on the macro but first on its femto, so the femto answers
    # first and wins.
    n = 13
    sc = mk(
        "enhancements = edt,pp\nn_devices = 13\n",
        topology=TopologyConfig(n_macro_cells=1, n_femto_cells=1),
    )
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(
        sc,
        source=src,
        placement=single_placement(n, femto=[-1] * 12 + [0]),
        arrivals=np.zeros(n, dtype=np.int64),
        collect_trace=True,
    )
    covered = res.records[12]
    assert covered.msg2_ticks == 168  # femto slot 0, not macro slot 1
    rar_gnbs = {d: g for t, d, k, _, g, _ in res.trace if k == "rar"}
    assert rar_gnbs[12] == 1
    assert all(rar_gnbs[d] == 0 for d in range(12))


def test_parallel_uncovered_device_sends_single_copy():
    sc = mk(
        "enhancements = edt,pp\nn_devices = 1\n",
        topology=TopologyConfig(n_macro_cells=1, n_femto_cells=1),
    )
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(
        sc,
        source=src,
        placement=single_placement(1, femto=[-1]),
        arrivals=np.array([0]),
    )
    assert res.records[0].msg1_count == 1


def test_parallel_respects_remaining_budget():
    # With one transmission left, the dual copy is not sent.
    sc = mk(
        "enhancements = pp\nn_devices = 1\nmax_preamble_tx = 3\n",
        topology=TopologyConfig(n_macro_cells=1, n_femto_cells=1),
    )
    src = scripted_source(
        detection=Fixed(1.0), preamble=RoundRobin(), backoff=Fixed(0)
    )
    res = run(
        sc,
        source=src,
        placement=single_placement(1, femto=[0]),
        arrivals=np.array([0]),
    )
    rec = res.records[0]
    assert not rec.success
    assert rec.msg1_count == 3  # 2 (dual) + 1 (single, budget-capped)
    assert rec.attempt_count == 2


# -- dynamic reserved pool ---------------------------------------------------


def drp_scenario(n, **over):
    sc = mk(
        "enhancements = edt,drp\nreserved_r = dynamic\n",
        n_devices=n,
        topology=SINGLE,
        **over,
    )
    return sc


def test_dynamic_pool_tracks_constant_flow():
    # Four new priority arrivals every opportunity: the broadcast pool is 0
    # on the first opportunity (empty window) and 4 afterwards.
    arrivals = np.repeat(np.arange(10) * 280, 4)
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(drp_scenario(40), source=src, arrivals=arrivals)
    assert all(r.success for r in res.records)
    assert res.log.r_max == 4
    assert res.log.n_raos == 11  # opportunities 0..10 (one trailing)
    assert res.log.sum_r == 4 * 10
    assert res.log.sum_pool_urllc == 54 + 4 * 10


def test_dynamic_pool_stays_zero_without_priority_flow():
    # Background devices that never retry contribute nothing to the flow.
    sc = drp_scenario(8, urllc_fraction=0.0)
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(sc, source=src, arrivals=np.arange(8) * 280)
    assert res.log.r_max == 0
    assert res.log.sum_r == 0


def test_dynamic_pool_excludes_current_sample():
    # One background device anchors opportunity 0 (flow sample 0, since new
    # background arrivals are not part of the monitored flow); sixteen
    # priority devices hit opportunity 5. The pool that same opportunity is
    # still 0 because the window holds only the five leading zero samples;
    # one opportunity later it becomes round-half-up(16/6) = 3.
    sc = drp_scenario(17, urllc_fraction=16 / 17)
    arrivals = np.concatenate([np.full(16, 5 * 280), [0]])
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(sc, source=src, arrivals=arrivals)
    assert all(r.success for r in res.records)
    assert res.log.n_raos == 7  # opportunities 0..6
    assert res.log.sum_r == 3  # only opportunity 6 reserves
    assert res.log.r_max == 3


def test_dynamic_pool_rounds_half_up():
    # Window [1, 0] means 0.5: half-up gives 1 reserved preamble, not 0.
    # Timeline: one 4-step device at opportunity 0 completes at 784, so
    # opportunities 0..3 run; pool sizes are 0, 1, 1, 0.
    sc = mk(
        "enhancements = drp\nreserved_r = dynamic\nn_devices = 1\n",
        topology=SINGLE,
    )
    src = scripted_source(
        detection=Fixed(0.0), preamble=RoundRobin(), harq=Scripted(0.9, 0.9)
    )
    res = run(sc, source=src, arrivals=np.array([0]))
    assert res.log.n_raos == 4
    assert res.log.sum_r == 2
    assert res.log.r_max == 1


def test_dynamic_pool_clamps_below_preamble_count():
    # Flow larger than the preamble space: pool saturates at n_pre - 1.
    sc = drp_scenario(40, n_preambles=3)
    arrivals = np.repeat(np.arange(2) * 280, 20)
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(sc, source=src, arrivals=arrivals)
    assert res.log.r_max == 2


def test_dynamic_pool_integer_rounding_equals_float_mean():
    # `simulate` sizes the pool as (2 * sum + k) // (2 * k) for a window of
    # k samples, and skips the division when the sum is 0.
    n_pre = 54
    for k in range(1, 17):
        for total in range(0, 54 * k + 1):
            expect = min(math.floor(total / k + 0.5), n_pre - 1)
            got = min((2 * total + k) // (2 * k), n_pre - 1) if total else 0
            assert got == expect, (k, total)


def replay_pool(sc, res):
    """The pool tallies of a traced `drp` run, replayed from its rows.

    An opportunity's priority count is its URLLC or retrying transmitters,
    and each pool is the float-rounded mean of the window before it. The
    opportunities run from the first Msg1 to the last Msg1 or resolution,
    rounded up to the grid. Priority copies draw from the whole preamble
    range at an opportunity without a pool. Returns (n_raos, sum_r, r_max,
    sum_pool_urllc, sum_pool_non_urllc).
    """
    ra = ms_to_ticks(sc.timing.ra_period_ms)
    n_pre = sc.n_preambles
    prio = defaultdict(set)
    for t, dev, kind, _, _, attempt in res.trace:
        if kind == "msg1" and (res.urllc[dev] or attempt > 1):
            prio[t // ra].add(dev)
    first = int(res.first_attempt_ticks.min()) // ra
    last = max(
        -(-t // ra) for t, _, kind, *_ in res.trace
        if kind in ("msg1", "connected", "failed")
    )
    sib2 = round(sc.timing.sib2_period_ms / sc.timing.ra_period_ms)
    window = deque(maxlen=sib2)
    sum_r = r_max = pool_urllc = pool_non_urllc = 0
    for rao in range(first, last + 1):
        r = 0
        if window:
            r = min(math.floor(sum(window) / len(window) + 0.5), n_pre - 1)
        sum_r, r_max = sum_r + r, max(r_max, r)
        pool_urllc += r or n_pre
        pool_non_urllc += n_pre - r
        window.append(len(prio[rao]))
    return last + 1 - first, sum_r, r_max, pool_urllc, pool_non_urllc


def pool_tallies(log):
    return (
        log.n_raos, log.sum_r, log.r_max, log.sum_pool_urllc,
        log.sum_pool_non_urllc,
    )


def test_dynamic_pool_replays_from_trace():
    # A moving pool: the tallies of the log equal the replayed window's.
    sc = mk(
        OVERLOAD_TEXT + "enhancements = edt,drp\nreserved_r = dynamic\n",
        topology=SINGLE, seed=2,
    )
    res = run(sc, collect_trace=True)
    assert pool_tallies(res.log) == replay_pool(sc, res)
    assert res.log.r_max > 5


def test_dynamic_pool_replays_when_the_window_never_fills():
    # A run shorter than the sib2 window (64 opportunities): the pool
    # divides by the opportunities seen so far, never by the full window.
    # Eight URLLC devices on four preambles collide at opportunity 0, so
    # the pool opens at opportunity 1 and their retries keep it open.
    sc = mk(
        "enhancements = edt,drp\nreserved_r = dynamic\nn_preambles = 4\n"
        "sib2_period_ms = 320\nn_devices = 8\nurllc_fraction = 1\n",
        topology=SINGLE, seed=3,
    )
    src = scripted_source(detection=Fixed(0.0))
    res = run(
        sc, source=src, arrivals=np.zeros(8, dtype=np.int64),
        collect_trace=True,
    )
    sib2 = round(sc.timing.sib2_period_ms / sc.timing.ra_period_ms)
    assert 1 < res.log.n_raos < sib2
    assert res.log.r_max > 0
    assert pool_tallies(res.log) == replay_pool(sc, res)


def test_static_reserved_pool_splits_draws():
    # Priority devices draw inside [0, r), background inside [r, n_pre).
    sc = mk(
        "enhancements = rp\nreserved_r = 3\nn_devices = 40\n"
        "urllc_fraction = 0.5\n",
        topology=SINGLE,
    )
    res = run(
        sc, arrivals=np.repeat(np.arange(10) * 280, 4), collect_trace=True
    )
    n_raos = res.log.n_raos
    assert n_raos >= 10
    assert res.log.sum_r == 3 * n_raos
    assert res.log.r_max == 3
    assert res.log.sum_pool_urllc == 3 * n_raos
    assert res.log.sum_pool_non_urllc == (54 - 3) * n_raos
    for t, dev, kind, pre, gnb, att in res.trace:
        if kind != "msg1":
            continue
        if res.records[dev].urllc:
            assert 0 <= pre < 3
        else:
            assert 3 <= pre < 54


# -- observation period and bookkeeping --------------------------------------


def test_observation_period_spans_first_arrival_to_last_resolution():
    sc = mk("enhancements = edt\nn_devices = 2\n", topology=SINGLE)
    src = scripted_source(detection=Fixed(0.0), preamble=RoundRobin())
    res = run(sc, source=src, arrivals=np.array([0, 100 * 280]))
    # Device 1 completes at 28224; ceil(28224/280) = 101, so opportunities
    # 0..101 are all observed, including the empty middle ones.
    assert res.log.n_raos == 102


def test_collision_bookkeeping_hand_case():
    # Three devices, scripted preambles [0, 0, 1]: one collided cell, one
    # sole detection, budget 1 so the collided pair fails outright.
    sc = mk(
        "enhancements = edt\nn_devices = 3\nmax_preamble_tx = 1\n",
        topology=SINGLE,
    )
    src = scripted_source(
        detection=Fixed(0.0), preamble=Scripted(0, 0, 1)
    )
    res = run(sc, source=src, arrivals=np.zeros(3, dtype=np.int64))
    assert [r.success for r in res.records] == [False, False, True]
    assert res.log.used_cells == 2
    assert res.log.collided_cells == 1
    assert res.log.total_msg1_tx == 3
    assert res.log.used_urllc == 2 and res.log.collided_urllc == 1
    assert res.log.n_raos == 2  # completion at 224 -> one trailing


def _occupancy(cells, k):
    """E[used] and E[collided] cells when k copies pick uniformly among
    `cells` preambles (occupancy analysis of slotted ALOHA)."""
    empty = (1 - 1 / cells) ** k
    sole = (k / cells) * (1 - 1 / cells) ** (k - 1)
    return cells * (1 - empty), cells * (1 - empty - sole)


def _within_clt_band(samples, expected, z=4.5):
    x = np.asarray(samples, dtype=float)
    half = z * x.std(ddof=1) / math.sqrt(len(x))
    return abs(x.mean() - expected) <= half


@pytest.mark.parametrize(
    "text, k, n_ur",
    [
        ("", 20, 0),
        ("n_preambles = 8\n", 8, 0),
        (
            "n_preambles = 16\nenhancements = rp\nreserved_r = 6\n"
            "urllc_fraction = 0.5\n",
            16,
            8,
        ),
    ],
    ids=["baseline", "small-pool", "rp"],
)
def test_contention_occupancy_matches_oracle(text, k, n_ur):
    # k devices at one macro all transmit once at opportunity 0 on real
    # seeded streams. Per pool of c preambles holding m copies, the mean
    # used and collided cell counts over the seeds must match the
    # occupancy expectations: the reserved pool (r preambles, the n_ur
    # priority copies) and the contention pool (N - r, the rest). With
    # N = 8, a draw range one preamble short moves the mean used count by
    # about 8 standard errors; with N = 54 by about one.
    sc = mk(
        text + f"n_devices = {k}\nmax_preamble_tx = 1\n", topology=SINGLE
    )
    r = sc.reserved_r if n_ur else 0
    n_pre = sc.n_preambles
    pools = {"reserved": [], "contention": []}
    for seed in range(600):
        log = run(
            scenario_with(sc, seed=seed), arrivals=np.zeros(k, dtype=np.int64)
        ).log
        assert log.total_msg1_tx == k
        pools["reserved"].append((log.used_reserved, log.collided_reserved))
        pools["contention"].append(
            (log.used_contention, log.collided_cells - log.collided_reserved)
        )
    for name, cells, m in (
        ("reserved", r, n_ur), ("contention", n_pre - r, k - n_ur)
    ):
        used, collided = np.array(pools[name]).T
        if not m:
            assert not used.any() and not collided.any()
            continue
        exp_used, exp_collided = _occupancy(cells, m)
        assert _within_clt_band(used, exp_used), (name, used.mean(), exp_used)
        assert _within_clt_band(collided, exp_collided), (
            name, collided.mean(), exp_collided,
        )


def test_input_validation():
    sc = mk("n_devices = 3\n", topology=SINGLE)
    with pytest.raises(ValueError):
        run(sc, arrivals=np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        run(sc, placement=single_placement(2))


def test_zero_devices_runs_empty():
    res = run(mk("n_devices = 0\n"))
    assert res.records == []
    assert res.log.n_raos == 0


@pytest.mark.parametrize(
    "name", ["baseline-5k", "edt-pp-ebf", "drp-mixed", "numerology-120-2"]
)
def test_first_attempt_is_the_start_opportunity(name):
    # Every device sends its first Msg1 at the first opportunity at or
    # after its arrival, so `simulate` fills the column before the loop.
    sc = REFERENCE_SCENARIOS[name]
    res = run(scenario_with(sc, seed=2), collect_trace=True)
    ra = ms_to_ticks(sc.timing.ra_period_ms)
    expect = -(-res.arrival_ticks // ra) * ra
    assert np.array_equal(res.first_attempt_ticks, expect)
    first_msg1 = {}
    for t, dev, kind, *_ in res.trace:
        if kind == "msg1":
            first_msg1.setdefault(dev, t)
    assert [first_msg1[d] for d in range(sc.n_devices)] == expect.tolist()


def test_first_attempt_column_at_zero_devices():
    res = run(mk("n_devices = 0\n"))
    assert res.first_attempt_ticks.dtype == np.int64
    assert res.first_attempt_ticks.size == 0


def test_columns_and_trace_follow_device_ids_under_reversed_arrivals():
    # Arrivals run against device order, and 60 devices share one
    # opportunity, so the loop's numbering by start opportunity differs
    # from device ids almost everywhere. Every column and trace row must
    # still speak of device ids.
    sc = scenario_with(REFERENCE_SCENARIOS["edt-pp"], n_devices=400)
    n, ra = sc.n_devices, ms_to_ticks(sc.timing.ra_period_ms)
    arrivals = (n - 1 - np.arange(n, dtype=np.int64)) * 37
    arrivals[100:160] = 5 * ra  # one opportunity for 60 devices
    src = RandomSource.from_seed(sc.seed)
    layout = build_layout(sc.topology, src.placement)
    placement = place_devices(n, layout, src.placement)
    given = [arrivals.copy()] + [
        getattr(placement, f.name).copy() for f in fields(placement)
    ]
    res = run(sc, placement=placement, arrivals=arrivals, collect_trace=True)

    assert np.array_equal(arrivals, given[0])
    for f, before in zip(fields(placement), given[1:]):
        assert np.array_equal(getattr(placement, f.name), before), f.name
    serving = placement.serving_cell.tolist()
    femto = placement.femto_cell.tolist()
    msg1 = defaultdict(list)  # device -> its Msg1 rows as (t, gnb, attempt)
    for t, dev, kind, _, gnb, att in res.trace:
        if kind == "msg1":
            assert gnb == serving[dev] or (
                femto[dev] >= 0 and gnb == layout.n_macro + femto[dev]
            )
            msg1[dev].append((t, gnb, att))
    assert sorted(msg1) == list(range(n))
    assert len({d for d, rows in msg1.items() if rows[0][0] == 5 * ra}) >= 50
    assert any(gnb >= layout.n_macro for rows in msg1.values()
               for _, gnb, _ in rows)
    assert res.attempt_count.max() > 1
    for dev, rows in msg1.items():
        assert rows[0][0] == res.first_attempt_ticks[dev]
        attempts = list(dict.fromkeys(att for *_, att in rows))
        assert attempts == list(range(1, res.attempt_count[dev] + 1))
        assert len(rows) == res.msg1_count[dev]


# Start maxima on both sides of the 8-, 16- and 32-bit sort keys.
KEY_EDGES = [0, 1, 255, 256, 65_535, 65_536, 2**32 - 1, 2**32, 2**40]


@given(
    top=st.sampled_from(KEY_EDGES),
    others=st.lists(st.integers(0, 2**40), max_size=3),
    picks=st.lists(st.integers(0, 3), max_size=80),
)
@example(top=0, others=[], picks=[])
@example(top=65_536, others=[65_535, 0, 256], picks=[0, 1, 2, 3] * 20)
def test_order_is_the_stable_argsort_of_the_starts(top, others, picks):
    # The set-up sorts the start opportunities on the narrowest unsigned
    # key that holds them; a stable order is unique, so it must equal the
    # int64 one. A few distinct starts, the largest `top`, give heavy ties.
    pool = [top] + [v % (top + 1) for v in others]
    starts = np.array([pool[i % len(pool)] for i in picks], dtype=np.int64)
    n = len(starts)
    sc = mk(f"n_devices = {n}\n", topology=SINGLE)
    ra = ms_to_ticks(sc.timing.ra_period_ms)
    src = RandomSource.from_seed(1)
    sim = engine._Contention(
        sc, src, build_layout(sc.topology, src.placement),
        single_placement(n), assign_classes(n, 0.5), starts * ra, False,
    )
    assert np.array_equal(sim.order, np.argsort(starts, kind="stable"))


def test_contenders_keep_device_order_past_16_bit_starts():
    # Starts that span more than 65 535 opportunities sort on a 32-bit
    # key. Six starts interleave across the device ids, 50 devices each:
    # each opportunity must still take its arrivals first, in device-id
    # order, each at its own start.
    sc = mk("enhancements = edt\nn_devices = 300\n", topology=SINGLE,
            seed=2)
    ra = ms_to_ticks(sc.timing.ra_period_ms)
    starts = np.array([70_001, 3, 66_000, 70_000, 0, 65_536] * 50)
    arrivals = np.maximum(starts * ra - 7, 0)
    res = run(sc, arrivals=arrivals, collect_trace=True)
    assert np.array_equal(res.first_attempt_ticks, starts * ra)
    rows, seen = defaultdict(list), set()
    for t, dev, kind, *_ in res.trace:
        if kind == "msg1":
            rows[t].append((dev in seen, dev))
            seen.add(dev)
    assert seen == set(range(300))
    assert res.log.n_raos > 70_000
    arrived = {}
    for t, devs in rows.items():
        firsts = [dev for retry, dev in devs if not retry]
        assert devs[:len(firsts)] == [(False, d) for d in firsts]
        assert firsts == sorted(firsts)
        assert all(res.first_attempt_ticks[d] == t for d in firsts)
        if firsts:
            arrived[t // ra] = len(firsts)
    assert arrived == dict.fromkeys([70_001, 3, 66_000, 70_000, 0, 65_536], 50)


TICK_MS = repr(1 / 56)


@pytest.mark.parametrize("ra_ms", [TICK_MS, repr(2 / 56), "1.0", "5.0"])
def test_retries_land_after_their_opportunity_at_extreme_timings(ra_ms):
    # Msg1 and the RAR take one tick each, `ebf` closes the RAR window and
    # gives URLLC devices no backoff: a no-grant URLLC retry is eligible
    # two ticks after its opportunity starts.
    sc = mk(
        f"enhancements = ebf\nt_msg1_ms = {TICK_MS}\nt_msg2_ms = {TICK_MS}\n"
        f"bi_max_ms = 0\nra_period_ms = {ra_ms}\nn_devices = 300\n"
        "urllc_fraction = 0.5\n",
        topology=SINGLE, seed=4,
    )
    arrivals = np.repeat(np.arange(30, dtype=np.int64), 10) * 3
    traced = run(sc, arrivals=arrivals, collect_trace=True)
    plain = run(sc, arrivals=arrivals)  # the closed form, without rows
    for f in fields(plain):
        if isinstance(getattr(plain, f.name), np.ndarray):
            assert np.array_equal(getattr(plain, f.name),
                                  getattr(traced, f.name)), f.name
    assert plain.log == traced.log

    ra = ms_to_ticks(float(ra_ms))
    gap = 1 + 1 + 0 + ra - 1  # t1 + t2 + rar_window + ra - 1
    msg1_at, granted, no_grant = {}, set(), 0
    for t, dev, kind, *_ in traced.trace:
        if kind == "msg1":
            msg1_at[dev] = t
            granted.discard(dev)
        elif kind == "rar":
            granted.add(dev)
        elif kind == "backoff":
            next_rao = -(-t // ra)
            assert next_rao > msg1_at[dev] // ra
            if dev not in granted:
                bi = t - (msg1_at[dev] + 2)
                assert bi == 0 if traced.urllc[dev] else 0 <= bi <= 560
                assert msg1_at[dev] // ra + (gap + bi) // ra == next_rao
                no_grant += 1
    assert no_grant > 100


# -- detection statistics ----------------------------------------------------


def test_first_attempt_detection_rate():
    # Isolated transmitters (one per opportunity, no collisions) with a
    # budget of 1 succeed iff detected: probability 1 - exp(-1) = 0.6321.
    # 12000 fixed-seed trials give a deterministic measurement; the band
    # is ~9 sigma wide.
    n = 12_000
    sc = mk(
        "enhancements = edt\nmax_preamble_tx = 1\n",
        n_devices=n,
        topology=SINGLE,
    )
    res = run(sc, arrivals=np.arange(n, dtype=np.int64) * 280)
    rate = np.mean([r.success for r in res.records])
    assert rate == pytest.approx(1 - np.exp(-1), abs=0.04)


def test_cumulative_detection_ramp_matches_expected_msg1_mean():
    # With retries allowed the expected number of Msg1 transmissions for an
    # isolated device is sum over k of k*P(first detection at attempt k)
    # with p_k = 1 - exp(-k): 1.4202 (HARQ losses add ~5e-5). Zero backoff
    # makes a retry ladder span at most ~19 opportunities, so arrivals 21
    # apart keep every chain isolated.
    n = 6000
    sc = mk("bi_max_ms = 0\n", n_devices=n, topology=SINGLE)
    res = run(sc, arrivals=np.arange(n, dtype=np.int64) * (21 * 280))
    mean_tx = np.mean([r.msg1_count for r in res.records])
    assert mean_tx == pytest.approx(1.4202, abs=0.025)


# -- cross-cutting properties ------------------------------------------------


def mixed_scenario(seed=1):
    return mk(
        "n_devices = 600\nurllc_fraction = 0.3\n"
        "enhancements = edt,drp,ebf,pp\nreserved_r = dynamic\n"
        "n_femto_cells = 12\n",
        seed=seed,
        topology=TopologyConfig(n_macro_cells=3, n_femto_cells=12),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_invariants_on_mixed_runs(seed):
    res = run(scenario_with(mixed_scenario(seed), seed=seed))
    sc = res.scenario
    n_success = sum(r.success for r in res.records)
    n_failed = sum(not r.success for r in res.records)
    assert n_success + n_failed == sc.n_devices
    for rec in res.records:
        assert 1 <= rec.attempt_count <= rec.msg1_count <= sc.max_preamble_tx
        assert rec.first_attempt_ticks >= rec.arrival_ticks
        if rec.success:
            assert rec.completion_ticks > rec.first_attempt_ticks
            parts = (
                rec.wait_ticks
                + rec.msg1_ticks
                + rec.msg2_ticks
                + (rec.msg3_ticks or 0)
                + (rec.msg4_ticks or 0)
            )
            assert parts == rec.completion_ticks - rec.arrival_ticks
        else:
            assert rec.msg1_count == sc.max_preamble_tx
    log = res.log
    assert log.collided_cells <= log.used_cells
    assert log.used_cells <= log.n_raos * log.n_gnbs * log.n_preambles
    assert log.total_msg1_tx == sum(r.msg1_count for r in res.records)


# An odd number of ticks, in ms: on the lattice, off every whole ms.
ODD_TICKS_MS = st.integers(0, 150).map(lambda k: (2 * k + 1) / 56)


@settings(max_examples=60, deadline=None)
@given(
    edt=st.booleans(),
    pp=st.booleans(),
    n_macro=st.integers(1, 3),
    n_femto=st.integers(0, 12),
    harq_fail=st.floats(0.0, 1.0),
    max_harq=st.integers(1, 5),
    max_tx=st.integers(1, 10),
    grants=st.integers(1, 4),
    timing=st.fixed_dictionaries({
        f"{name}_ms": ODD_TICKS_MS for name in (
            "t_msg1", "t_msg2", "t_msg3", "t_msg4", "ra_period",
            "rar_window", "contention_resolution_timer",
        )
    }),
    n=st.integers(0, 300),
    span=st.integers(1, 20_000),
    seed=st.integers(1, 2**16),
)
@example(edt=True, pp=True, n_macro=1, n_femto=12, harq_fail=0.1,
         max_harq=5, max_tx=10, grants=3, timing=dict(
             t_msg1_ms=57 / 56, t_msg2_ms=3 / 56, t_msg3_ms=5 / 56,
             t_msg4_ms=7 / 56, ra_period_ms=281 / 56, rar_window_ms=5 / 56,
             contention_resolution_timer_ms=2689 / 56,
         ), n=300, span=20_000, seed=1)
@example(edt=False, pp=False, n_macro=3, n_femto=0, harq_fail=0.3,
         max_harq=3, max_tx=4, grants=1, timing=dict(
             t_msg1_ms=1 / 56, t_msg2_ms=167 / 56, t_msg3_ms=281 / 56,
             t_msg4_ms=279 / 56, ra_period_ms=1 / 56, rar_window_ms=57 / 56,
             contention_resolution_timer_ms=2689 / 56,
         ), n=300, span=3_000, seed=2)
def test_wait_column_is_the_last_msg1_less_the_arrival(
    edt, pp, n_macro, n_femto, harq_fail, max_harq, max_tx, grants, timing,
    n, span, seed,
):
    # `run` derives `wait_ticks` after the loop; the trace gives it
    # directly, as the start of the device's last Msg1. A failed device
    # has no time in any column of the handshake.
    sc = mk(
        "", n_devices=n, urllc_fraction=0.5, seed=seed,
        enhancements=frozenset(
            flag for flag, on in (("edt", edt), ("pp", pp)) if on
        ),
        harq_fail_prob=harq_fail, max_harq=max_harq, max_preamble_tx=max_tx,
        rar_grants_per_msg=grants, timing=TimingParams(**timing),
        topology=TopologyConfig(
            n_macro_cells=n_macro, n_femto_cells=n_femto
        ),
    )
    arrivals = np.random.default_rng(seed).integers(0, span, n)
    traced = run(sc, arrivals=arrivals, collect_trace=True)
    plain = run(sc, arrivals=arrivals)
    for name in ("urllc",) + engine._TICK_COLUMNS:
        assert np.array_equal(getattr(plain, name),
                              getattr(traced, name)), name
    assert plain.log == traced.log

    last_msg1, connected = {}, {}
    for t, dev, kind, *_ in traced.trace:
        if kind == "msg1":
            last_msg1[dev] = t
        elif kind == "connected":
            connected[dev] = t
    done = traced.completion_ticks.tolist()
    assert {dev for dev, t in enumerate(done) if t >= 0} == set(connected)
    cols = [getattr(traced, name).tolist() for name in (
        "wait_ticks", "msg2_ticks", "msg3_ticks", "msg4_ticks",
    )]
    for dev, (arrival, wait, *legs) in enumerate(
        zip(arrivals.tolist(), *cols)
    ):
        if dev in connected:
            assert done[dev] == connected[dev]
            assert wait == last_msg1[dev] - arrival
        else:
            assert [done[dev], wait, *legs] == [-1] * 5


def fold_records(result):
    """build_report's device counts, folded one AccessRecord at a time."""
    out = dict(n_devices=0, n_urllc=0, total_msg1_tx=0, n_success=0,
               n_success_urllc=0, n_failed=0)
    hists = {"all": Counter(), "urllc": Counter(), "non_urllc": Counter()}
    for rec in result.records:
        out["n_devices"] += 1
        out["n_urllc"] += rec.urllc
        out["total_msg1_tx"] += rec.msg1_count
        if rec.success:
            out["n_success"] += 1
            out["n_success_urllc"] += rec.urllc
            delay = rec.completion_ticks - rec.first_attempt_ticks
            hists["all"][delay] += 1
            hists["urllc" if rec.urllc else "non_urllc"][delay] += 1
        else:
            out["n_failed"] += 1
    return out, hists


def hist_dict(hist):
    """A report histogram, (2, k) ticks over counts, as a tick -> count
    dict."""
    return dict(zip(*hist.tolist()))


OVERLOAD_TEXT = (
    "n_devices = 3000\nurllc_fraction = 0.3\n"
    "urllc_horizon_s = 0.5\nnon_urllc_horizon_s = 1.5\n"
    "rar_window_ms = 1\n"
)


@pytest.mark.parametrize(
    "text, topology",
    [
        ("", SINGLE),
        (
            "enhancements = edt,drp,ebf,pp\nreserved_r = dynamic\n",
            TopologyConfig(n_macro_cells=3, n_femto_cells=12),
        ),
    ],
    ids=["baseline", "edt-drp-ebf-pp"],
)
def test_invariants_under_overload(text, topology):
    # Tens of contenders per opportunity and a one-subframe RAR window:
    # grants overflow and transmission budgets run out.
    sc = mk(OVERLOAD_TEXT + text, topology=topology, seed=5)
    res = run(sc, collect_trace=True)
    log = res.log
    records = res.records
    assert sum(r.attempt_count for r in records) >= 10 * log.n_raos

    rep = build_report(res)
    assert rep.n_success + rep.n_failed == sc.n_devices
    assert 0 < rep.n_failed < sc.n_devices
    assert all(
        r.msg1_count == sc.max_preamble_tx for r in records if not r.success
    )
    assert log.total_msg1_tx == sum(r.msg1_count for r in records)
    assert log.collided_cells <= log.used_cells
    assert log.used_cells <= log.n_raos * log.n_gnbs * log.n_preambles

    # RAR capacity binds: a full window at some gNB, never more than full.
    capacity = (sc.cce_total // sc.cce_per_pdcch) * sc.rar_grants_per_msg
    grants = Counter((t, g) for t, _, k, _, g, _ in res.trace if k == "rar")
    assert max(grants.values()) == capacity

    # The columnar report equals the record-by-record fold.
    counts, hists = fold_records(res)
    assert {k: getattr(rep, k) for k in counts} == counts
    urllc = hist_dict(rep.delay_hist_urllc)
    non_urllc = hist_dict(rep.delay_hist_non_urllc)
    assert Counter(urllc) + Counter(non_urllc) == hists["all"]
    assert urllc == hists["urllc"]
    assert non_urllc == hists["non_urllc"]
    assert all(type(k) is int for k in [*urllc, *non_urllc])


# OpportunityLog's per-cell counters: every used_* and collided_* field.
CELL_COUNTERS = [
    f.name for f in fields(engine.OpportunityLog)
    if f.name.startswith(("used_", "collided_"))
]


def recount_cells(res, reserved_r):
    """The cell counters, recounted from the Msg1 trace rows.

    A cell is one (opportunity, gNB, preamble); it counts for each class
    with a copy in it, and collides with two or more copies. For a static
    pool, preambles below `reserved_r` form the reserved pool, and the
    priority macros of an opportunity serve its URLLC contenders.
    """
    ur = res.urllc.tolist()
    serving = res.placement.serving_cell.tolist()
    cells = defaultdict(list)
    prio_macros = defaultdict(set)
    for t, dev, kind, pre, gnb, _ in res.trace:
        if kind == "msg1":
            cells[t, gnb, pre].append(ur[dev])
            if ur[dev]:
                prio_macros[t].add(serving[dev])
    out = Counter()
    for (t, gnb, pre), classes in cells.items():
        pool = "reserved" if pre < reserved_r else "contention"
        collided = len(classes) >= 2
        out["used_cells"] += 1
        out[f"used_{pool}"] += 1
        out["collided_cells"] += collided
        out["collided_reserved"] += collided and pool == "reserved"
        out["used_reserved_at_prio_macro"] += (
            pool == "reserved" and gnb in prio_macros[t]
        )
        for cls, present in (
            ("urllc", True in classes), ("non_urllc", False in classes)
        ):
            if present:
                out[f"used_{cls}"] += 1
                out[f"used_{pool}_{cls}"] += 1
                out[f"collided_{cls}"] += collided
    return {name: out[name] for name in CELL_COUNTERS}


@pytest.mark.parametrize(
    "text",
    ["", "enhancements = rp\nreserved_r = 3\n", "enhancements = edt,pp\n"],
    ids=["baseline", "rp-r3", "edt-pp"],
)
def test_cell_counters_equal_trace_recount(text):
    # Off the reference loads: tens of contenders per opportunity on three
    # macros, and under `pp` copies to twelve femtos.
    sc = mk(
        OVERLOAD_TEXT + text, seed=5,
        topology=TopologyConfig(n_macro_cells=3, n_femto_cells=12),
    )
    res = run(sc, collect_trace=True)
    static_pool = "rp" in sc.enhancements
    recount = recount_cells(res, sc.reserved_r if static_pool else 0)
    assert len(CELL_COUNTERS) == 14
    assert {name: getattr(res.log, name) for name in CELL_COUNTERS} == recount
    assert recount["collided_urllc"] > 0 and recount["collided_non_urllc"] > 0
    if static_pool:
        assert recount["collided_reserved"] > 0
        assert recount["used_reserved_at_prio_macro"] > 0
    if "pp" in sc.enhancements:
        n_macro = res.layout.n_macro
        assert any(row[4] >= n_macro for row in res.trace if row[2] == "msg1")


def opportunity_groups(trace):
    """Split a trace into opportunities: each opportunity's run of Msg1
    rows, then the outcome rows up to the next opportunity's Msg1 rows."""
    groups = []
    for row in trace:
        if row[2] == "msg1":
            if not groups or groups[-1][1]:
                groups.append(([], []))
            groups[-1][0].append(row)
        else:
            groups[-1][1].append(row)
    return groups


@pytest.mark.parametrize("text", ["", "enhancements = ebf\n"],
                         ids=["baseline", "ebf"])
def test_outcome_rows_follow_contender_order(text):
    # `resolve` settles every contender before it takes the backoff draws
    # in one bulk; the outcome rows must still come out contender by
    # contender, and each backoff inside its bound.
    sc = mk(OVERLOAD_TEXT + text, seed=5)
    res = run(sc, collect_trace=True)
    timing = sc.timing
    t1, t2, t3, t4, cr_timer = (
        ms_to_ticks(v) for v in (
            timing.t_msg1_ms, timing.t_msg2_ms, timing.t_msg3_ms,
            timing.t_msg4_ms, timing.contention_resolution_timer_ms,
        )
    )
    ebf = "ebf" in sc.enhancements
    gap = t2 + (0 if ebf else ms_to_ticks(timing.rar_window_ms))
    bi_max = ms_to_ticks(
        engine.EBF_BACKGROUND_BACKOFF_MS if ebf else timing.bi_max_ms
    )
    ur = res.urllc.tolist()
    groups = opportunity_groups(res.trace)
    assert groups and all(msg1 and outcomes for msg1, outcomes in groups)
    drawn = []
    for msg1, outcomes in groups:
        t = msg1[0][0]
        assert {row[0] for row in msg1} == {t}
        contenders = list(dict.fromkeys(row[1] for row in msg1))
        assert list(dict.fromkeys(row[1] for row in outcomes)) == contenders
        rar, done = {}, set()
        for time, dev, kind, *_ in outcomes:
            assert dev not in done  # a contender's last row ends its rows
            if kind == "rar":
                assert dev not in rar
                rar[dev] = time
                continue
            assert kind in ("connected", "failed", "backoff")
            done.add(dev)
            if kind != "backoff":
                continue
            if dev in rar:  # failed after its grant: HARQ or the timer
                r, h = rar[dev], sc.max_harq
                bases = {r + h * t3, r + cr_timer}
                bases |= {r + k3 * t3 + h * t4 for k3 in range(1, h + 1)}
            else:
                bases = {t + t1}
            delays = [time - b - gap for b in bases]
            bound = 0 if ebf and ur[dev] else bi_max
            assert any(0 <= d <= bound for d in delays), (t, dev)
            if dev not in rar:
                drawn.append((ur[dev], delays[0]))
        assert done == set(contenders)
    # Backoff rows without a grant have an exact base: the draws span
    # their range, and under `ebf` URLLC devices draw none.
    for cls in (False, True):
        delays = [d for u, d in drawn if u == cls]
        assert min(delays) < 0.05 * bi_max
        if ebf and cls:
            assert max(delays) == 0
        else:
            assert max(delays) > 0.95 * bi_max


def test_determinism_same_seed_identical_results():
    a = run(mixed_scenario(7))
    b = run(mixed_scenario(7))
    assert a.records == b.records
    assert a.log == b.log


def test_different_seed_differs():
    a = run(scenario_with(mixed_scenario(), seed=1))
    b = run(scenario_with(mixed_scenario(), seed=2))
    assert a.records != b.records


def test_device_relabeling_leaves_aggregates_unchanged():
    # Permuting which device holds which arrival time must not change any
    # aggregate counter or the delay multiset (single-class scenario).
    from rachsim.traffic import assign_classes, generate_arrivals

    sc = mk("n_devices = 200\n", topology=SINGLE, seed=11)
    src_a = RandomSource.from_seed(11)
    src_b = RandomSource.from_seed(11)
    flags = assign_classes(200, 1.0)
    arrivals = generate_arrivals(flags, sc.traffic, np.random.default_rng(4))
    perm = np.random.default_rng(5).permutation(200)
    a = run(sc, source=src_a, arrivals=arrivals)
    b = run(sc, source=src_b, arrivals=arrivals[perm])
    assert a.log == b.log
    def delays(res):
        return Counter(
            r.completion_ticks - r.first_attempt_ticks
            for r in res.records if r.success
        )

    assert delays(a) == delays(b)


def test_early_data_shifts_every_delay_by_msg34_time():
    # With lossless HARQ the 4-step handshake is exactly Msg3+Msg4 slower
    # per device, and the success sets coincide.
    base = mk(
        "n_devices = 300\nharq_fail_prob = 0\n", topology=SINGLE, seed=3
    )
    edt = scenario_with(base, enhancements=frozenset({"edt"}))
    ra, rb = run(base), run(edt)
    for x, y in zip(ra.records, rb.records):
        assert x.success == y.success
        if x.success:
            assert x.first_attempt_ticks == y.first_attempt_ticks
            assert x.completion_ticks == y.completion_ticks + 560


def test_numerology_only_rescales_reported_times():
    base = mk("n_devices = 300\n", topology=SINGLE, seed=9)
    halved = scenario_with(
        base, numerology=base.numerology.__class__(30, 7)
    )
    ra, rb = run(base), run(halved)
    assert ra.log == rb.log  # identical contention on the tick lattice
    for x, y in zip(ra.records, rb.records):
        assert x.completion_ticks == y.completion_ticks
    half = ticks_to_ms(560, rb.time_scale)
    assert half == ticks_to_ms(560, ra.time_scale) / 2


def test_sinr_gate_blocks_all_when_impossible():
    sc = mk(
        "n_devices = 20\nmax_preamble_tx = 2\n",
        topology=TopologyConfig(n_macro_cells=1, sinr_threshold_db=1000.0),
    )
    res = run(sc, arrivals=np.arange(20, dtype=np.int64) * 280)
    assert all(not r.success for r in res.records)


def test_sinr_gate_disabled_equals_trivial_gate():
    # A gate no transmission can fail changes nothing, draw for draw.
    on = mk(
        "n_devices = 50\n",
        topology=TopologyConfig(n_macro_cells=1, sinr_threshold_db=-1000.0),
    )
    off = mk("n_devices = 50\n", topology=SINGLE)
    assert run(on).records == run(off).records


# -- one-contender path ------------------------------------------------------


def _phases(self, t, devs, r_use):
    """Reference for `_Contention.one_contender`: the three phases that a
    batch of any size runs."""
    cells, base, prio_macros, n_prio = self.draw(t, devs, r_use)
    self.resolve(
        t, devs, self.cell_outcome(t, devs, r_use, cells, base, prio_macros)
    )
    return n_prio


SINR_4DB = (("cell_radius_m", "1000"), ("sinr_threshold_db", "4"))

# case id -> (reference scenario, overrides)
ONE_CONTENDER_CASES = {
    "baseline": ("baseline-mixed", ()),
    "rp-r3": ("rp-r3", ()),
    "drp": ("drp-mixed", (("n_devices", "5000"),)),
    "edt-pp": ("edt-pp", ()),
    "ebf": ("edt-pp-ebf", ()),
    "sinr-4db": ("baseline-mixed", SINR_4DB),
    "sinr-4db-pp": ("edt-pp", SINR_4DB + (("femto_radius_m", "300"),)),
    "pp-max-tx-1": ("edt-pp", (("max_preamble_tx", "1"),)),
    "pp-max-tx-2": ("edt-pp", (("max_preamble_tx", "2"),)),
    "edt-5k": ("edt-5k", ()),
    "rp5-mixed-dense": ("rp5-mixed-dense", ()),
    # Four PDCCHs of one grant: a response subframe grants 4, fewer than
    # the cells of the larger batches with femto copies.
    "capacity": ("edt-pp", (("rar_grants_per_msg", "1"),)),
}


@pytest.mark.parametrize("case", sorted(ONE_CONTENDER_CASES))
def test_one_contender_path_equals_general_phases(case, monkeypatch):
    name, overrides = ONE_CONTENDER_CASES[case]
    sc = apply_overrides(
        REFERENCE_SCENARIOS[name], (("n_devices", "2000"),) + overrides
    )
    fast = run(sc, collect_trace=True)
    untraced = run(sc)
    monkeypatch.setattr(engine._Contention, "one_contender", _phases)
    ref = run(sc, collect_trace=True)

    # Tracing changes no draw and no count, though `draw` and `resolve`
    # write the trace rows inside the loop.
    for other in (ref, untraced):
        for col in ("urllc",) + engine._TICK_COLUMNS:
            assert np.array_equal(getattr(fast, col), getattr(other, col)), col
        assert fast.log == other.log
    assert untraced.trace is None
    assert fast.trace == ref.trace

    # The case holds sole contenders next to larger batches, and a sole
    # contender sends a femto copy wherever the budget allows one.
    copies = defaultdict(list)
    for t, dev, kind, *_ in fast.trace:
        if kind == "msg1":
            copies[t].append(dev)
    sole = [devs for devs in copies.values() if len(set(devs)) == 1]
    assert 0 < len(sole) < len(copies)
    dual = any(len(devs) == 2 for devs in sole)
    assert dual == ("pp" in sc.enhancements and sc.max_preamble_tx >= 2)


# -- plain batch pass --------------------------------------------------------


def _plain_phases(self, t, devs):
    """Reference for `_Contention.plain_cells`: `draw` and `cell_outcome`
    without a pool."""
    cells, base, prio_macros, _ = self.draw(t, devs, 0)
    return self.cell_outcome(t, devs, 0, cells, base, prio_macros)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(1, 2**16),
    n=st.integers(2, 2000),
    span=st.integers(1, 2000),
    n_pre=st.integers(2, 54),
    enh=st.sets(st.sampled_from(("edt", "ebf", "pp"))),
    urllc=st.sampled_from(("0", "1")),
    harq_fail=st.floats(0.0, 1.0),
    max_tx=st.integers(1, 10),
    grants=st.integers(1, 3),
    cce_per_pdcch=st.sampled_from((1, 3, 4, 16)),
    rar_window_ms=st.integers(1, 10),
)
@example(seed=1, n=2000, span=1, n_pre=54, enh=set(), urllc="1",
         harq_fail=0.1, max_tx=10, grants=1, cce_per_pdcch=16,
         rar_window_ms=1)
@example(seed=7, n=1500, span=40, n_pre=2, enh={"edt", "ebf", "pp"},
         urllc="0", harq_fail=1.0, max_tx=1, grants=3, cce_per_pdcch=1,
         rar_window_ms=10)
@example(seed=3, n=2000, span=300, n_pre=12, enh={"pp"}, urllc="0",
         harq_fail=0.6, max_tx=4, grants=2, cce_per_pdcch=3,
         rar_window_ms=4)
def test_plain_pass_equals_general_phases(
    seed, n, span, n_pre, enh, urllc, harq_fail, max_tx, grants,
    cce_per_pdcch, rar_window_ms,
):
    # Runs that take the pass: one macro, no femto, one class, no pool,
    # no SNR gate, untraced. Arrivals over `span` opportunities give
    # batches of every size, and a response capacity as low as one grant.
    sc = apply_overrides(build_scenario(""), (
        ("seed", seed), ("n_devices", n), ("n_preambles", n_pre),
        ("enhancements", ",".join(sorted(enh))), ("urllc_fraction", urllc),
        ("harq_fail_prob", harq_fail), ("max_preamble_tx", max_tx),
        ("rar_grants_per_msg", grants), ("cce_per_pdcch", cce_per_pdcch),
        ("rar_window_ms", rar_window_ms), ("n_macro_cells", 1),
    ))
    ra = ms_to_ticks(sc.timing.ra_period_ms)
    arrivals = np.random.default_rng(seed).integers(0, span * ra, n)
    fast = run(sc, arrivals=arrivals)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Contention, "plain_cells", _plain_phases)
        ref = run(sc, arrivals=arrivals)
    for col in ("urllc",) + engine._TICK_COLUMNS:
        assert np.array_equal(getattr(fast, col), getattr(ref, col)), col
    assert fast.log == ref.log


# case id -> (reference scenario, overrides, traced, whether the pass is
# taken). A case not taken breaks a condition of a plain run; for each
# condition one case breaks it alone.
PLAIN_SELECTION_CASES = {
    "baseline-10k": ("baseline-10k", (), False, True),
    "pp-femto-0": ("pp-femto-0", (), False, True),
    # 0.0002 of 2000 devices rounds to none: one class.
    "one-macro-urllc-0.0002": (
        "baseline-5k", (("urllc_fraction", "0.0002"),), False, True,
    ),
    "drp-mixed": ("drp-mixed", (), False, False),
    "drp-one-class-one-macro": ("drp-mixed", (
        ("urllc_fraction", "1"), ("n_macro_cells", "1"),
        ("n_femto_cells", "0"), ("femto_radius_m", "10"),
    ), False, False),
    "rp-urllc-1": ("rp-r3", (("urllc_fraction", "1"),), False, False),
    "baseline-mixed": ("baseline-mixed", (), False, False),
    "three-macros-one-class": (
        "baseline-mixed", (("urllc_fraction", "0"),), False, False,
    ),
    "pp-femto-5": ("pp-femto-5", (), False, False),
    "one-macro-urllc-0.05": (
        "baseline-5k", (("urllc_fraction", "0.05"),), False, False,
    ),
    "traced": ("baseline-10k", (), True, False),
    "sinr-threshold": (
        "baseline-10k", (("sinr_threshold_db", "-1000"),), False, False,
    ),
}


def _counted(phase, sizes):
    """`_Contention.<phase>`, appending each batch's size to `sizes`."""
    orig = getattr(engine._Contention, phase)

    def counted(self, t, devs, *args):
        sizes.append(len(devs))
        return orig(self, t, devs, *args)

    return counted


@pytest.mark.parametrize("case", PLAIN_SELECTION_CASES)
def test_plain_pass_selection(case, monkeypatch):
    name, overrides, traced, taken = PLAIN_SELECTION_CASES[case]
    sc = apply_overrides(
        REFERENCE_SCENARIOS[name], (("n_devices", "2000"),) + overrides
    )
    plain, general = [], []
    for phase, sizes in (("plain_cells", plain), ("cell_outcome", general)):
        monkeypatch.setattr(engine._Contention, phase, _counted(phase, sizes))
    run(sc, collect_trace=traced)
    # Every batch of two or more takes one path; a sole contender neither.
    assert min(plain + general) >= 2
    assert (plain, general) == ((plain, []) if taken else ([], general))
    assert plain or general


# -- batch grants ------------------------------------------------------------


def test_batch_grants_extend_the_observation_period():
    # Two devices share the only opportunity on distinct preambles and
    # both are detected: their early-data grants at the RAR (t1 + t2 =
    # 224 ticks) are the run's last resolution, so the period runs on to
    # the opportunity at 280 ticks.
    sc = mk("enhancements = edt\nn_devices = 2\n", topology=SINGLE)
    res = run(
        sc, source=scripted_source(preamble=RoundRobin(), detection=Fixed(0)),
        placement=single_placement(2), arrivals=np.zeros(2, dtype=np.int64),
    )
    assert res.completion_ticks.tolist() == [224, 224]
    assert res.wait_ticks.tolist() == [0, 0]
    assert res.msg2_ticks.tolist() == [168, 168]
    assert res.log.n_raos == 2


# -- injected arrivals ------------------------------------------------------


def test_negative_arrivals_are_rejected():
    # A time before 0 could not be told from the -1 of an absent time.
    sc = mk("n_devices = 3\n", topology=SINGLE)
    with pytest.raises(ValueError, match="non-negative"):
        run(sc, arrivals=np.array([0, -560, 280]))
