"""KPI arithmetic on hand-built records and exact multi-seed merging."""

import copy
import math
import pickle
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rachsim.config import build_scenario, scenario_with
from rachsim.engine import OpportunityLog, RunResult, run
from rachsim.reference import replicate
from rachsim.timebase import ticks_to_ms
from rachsim.kpi import (
    DEEP_PERCENTILE_MIN_SAMPLES,
    KpiReport,
    MergeMismatchError,
    PERCENTILE_LEVELS,
    REPORT_COLUMNS,
    build_report,
    csv_header,
    merge,
)


# The RunResult integer columns; -1 marks an absent time.
TICK_COLUMNS = (
    "msg1_count", "attempt_count", "arrival_ticks", "first_attempt_ticks",
    "completion_ticks", "wait_ticks", "msg2_ticks", "msg3_ticks", "msg4_ticks",
)


def record(delay_ticks, urllc=True, arrival=0):
    """A success's columns, with the given first-attempt-to-done delay."""
    return dict(
        urllc=urllc,
        msg1_count=1,
        attempt_count=1,
        arrival_ticks=arrival,
        first_attempt_ticks=arrival,
        completion_ticks=arrival + delay_ticks,
        wait_ticks=0,
        msg2_ticks=168,
        msg3_ticks=-1,
        msg4_ticks=-1,
    )


def failure(urllc=True):
    return dict(
        urllc=urllc,
        msg1_count=10,
        attempt_count=9,
        arrival_ticks=0,
        first_attempt_ticks=0,
        completion_ticks=-1,
        wait_ticks=-1,
        msg2_ticks=-1,
        msg3_ticks=-1,
        msg4_ticks=-1,
    )


def hist_dict(hist):
    """A report histogram, (2, k) ticks over counts, as a tick -> count
    dict."""
    return dict(zip(*hist.tolist()))


def all_dict(rep):
    """The histogram of all a report's successes, as the sum of its class
    histograms."""
    return Counter(hist_dict(rep.delay_hist_urllc)) + Counter(
        hist_dict(rep.delay_hist_non_urllc)
    )


def result_with(records, scenario=None, **log_over):
    """A RunResult whose device columns hold the given records."""
    scenario = scenario or build_scenario("")
    log = OpportunityLog(n_preambles=54, n_gnbs=1, n_macro=1)
    for key, value in log_over.items():
        setattr(log, key, value)
    columns = {
        name: np.array([r[name] for r in records], dtype=np.int64)
        for name in TICK_COLUMNS
    }
    return RunResult(
        log=log,
        scenario=scenario,
        layout=None,
        placement=None,
        urllc=np.array([r["urllc"] for r in records], dtype=bool),
        **columns,
    )


def test_collision_single_cell_hand_case():
    res = result_with(
        [record(280)], n_raos=1, used_cells=2, collided_cells=1
    )
    rep = build_report(res)
    assert rep.collision_probability() == 1 / 54
    util = rep.preamble_utilization()
    assert util["overall"] == 2 / 54
    assert util["reserved"] is None  # no reservation ever active
    assert util["reserved_priority"] is None


def test_ratios_without_observation_are_none():
    rep = build_report(result_with([]))
    for klass in ("overall", "urllc", "non_urllc"):
        assert rep.collision_probability(klass) is None
    assert set(rep.preamble_utilization().values()) == {None}
    with pytest.raises(ValueError):
        rep.collision_probability("martian")


def test_per_class_collision_uses_class_pools():
    res = result_with(
        [record(280)],
        n_raos=2,
        collided_urllc=1,
        collided_non_urllc=2,
        sum_pool_urllc=6,  # 3 reserved per opportunity
        sum_pool_non_urllc=102,
    )
    rep = build_report(res)
    assert rep.collision_probability("urllc") == 1 / 6
    assert rep.collision_probability("non_urllc") == 2 / 102
    with pytest.raises(ValueError):
        rep.collision_probability("martian")


def test_reserved_priority_utilization_conditions_on_active_stations():
    res = result_with(
        [record(280)],
        n_raos=4,
        sum_r=12,
        prio_macro_r_sum=6,  # stations that actually saw priority traffic
        used_reserved_at_prio_macro=3,
        used_reserved=3,
    )
    rep = build_report(res)
    util = rep.preamble_utilization()
    assert util["reserved_priority"] == 0.5
    assert util["reserved"] == 3 / 12


def test_delay_cdf_three_points():
    # Delays 5, 10, 15 ms (280/560/840 ticks).
    rep = build_report(
        result_with([record(280), record(560), record(840)], n_raos=1)
    )
    assert rep.cdf_points() == [
        (5.0, pytest.approx(1 / 3)),
        (10.0, pytest.approx(2 / 3)),
        (15.0, pytest.approx(1.0)),
    ]
    assert rep.mean_access_delay_ms() == pytest.approx(10.0)


def test_percentile_is_step_inverse_not_interpolated():
    rep = build_report(
        result_with(
            [record((i + 1) * 56) for i in range(4)], n_raos=1
        )
    )  # delays 1, 2, 3, 4 ms
    assert rep.delay_percentile_ms(50.0) == 2.0  # ceil(0.5*4)=2nd value
    assert rep.delay_percentile_ms(75.0) == 3.0
    assert rep.delay_percentile_ms(76.0) == 4.0
    assert rep.delay_percentile_ms(25.0) == 1.0
    assert rep.delay_percentile_ms(100.0) == 4.0
    with pytest.raises(ValueError):
        rep.delay_percentile_ms(0.0)
    with pytest.raises(ValueError):
        rep.delay_percentile_ms(101.0)


def test_single_record_percentiles_collapse():
    rep = build_report(result_with([record(392)], n_raos=1))
    pct = rep.delay_percentiles()
    assert pct[50.0] == pct[95.0] == pct[99.0] == 7.0
    assert pct[99.99] is None  # below the deep-tail sample gate


def test_deep_percentile_gate_boundary():
    scenario = build_scenario("")
    below = KpiReport(scenario=scenario, time_scale=Fraction(1))
    below.delay_hist_urllc = np.array([[56], [99_999]])
    assert all_dict(below) == Counter({56: 99_999})
    assert below.delay_percentiles()[99.99] is None
    at = KpiReport(scenario=scenario, time_scale=Fraction(1))
    at.delay_hist_non_urllc = np.array([[56], [100_000]])
    assert all_dict(at) == Counter({56: 100_000})
    assert at.delay_percentiles()[99.99] == 1.0


def test_delay_figures_without_successes_are_none():
    rep = build_report(result_with([failure()], n_raos=1))
    assert rep.mean_access_delay_ms() is None
    assert rep.delay_percentile_ms(50.0) is None
    assert rep.delay_percentiles("urllc") == dict.fromkeys(PERCENTILE_LEVELS)
    assert rep.cdf_points() == []
    assert rep.n_failed == 1
    with pytest.raises(ValueError):
        rep.delay_percentile_ms(0.0)
    with pytest.raises(ValueError):
        rep.mean_access_delay_ms("martian")


def test_class_split_histograms():
    rep = build_report(
        result_with(
            [record(280, urllc=True), record(560, urllc=False)],
            n_raos=1,
        )
    )
    assert rep.mean_access_delay_ms("urllc") == 5.0
    assert rep.mean_access_delay_ms("non_urllc") == 10.0
    assert rep.mean_access_delay_ms("all") == 7.5
    assert rep.n_urllc == 1 and rep.n_success_urllc == 1


def test_report_carries_the_log_counters():
    # Every log field reaches the report under its own name and value.
    log_fields = [f.name for f in fields(OpportunityLog)]
    values = {name: 7 + i for i, name in enumerate(log_fields)}
    rep = build_report(result_with([record(280)], **values))
    assert {name: getattr(rep, name) for name in log_fields} == values


MAX_POOLED = {"n_preambles", "n_gnbs", "n_macro", "r_max"}
FIRST_KEPT = {"scenario", "time_scale"}
HISTOGRAMS = {"delay_hist_urllc", "delay_hist_non_urllc"}


def test_merge_pools_each_field_by_its_rule():
    # Three reports of one scenario whose every counter differs, the
    # largest in the middle: the sizes and the peak pool take the maximum,
    # the scenario fields keep the first report's value (of three equal
    # scenarios, the first object), the histogram counts add, and every
    # other field sums.
    names = [f.name for f in fields(KpiReport)]
    counters = [n for n in names if n not in FIRST_KEPT | HISTOGRAMS]
    assert MAX_POOLED <= set(counters) and HISTOGRAMS <= set(names)
    reports = []
    for j, scale in enumerate((1, 3, 2)):
        rep = KpiReport(
            scenario=scenario_with(build_scenario(""), seed=0),
            time_scale=Fraction(1 + j, 2),
            **{n: scale * (i + 1) for i, n in enumerate(counters)},
        )
        rep.delay_hist_urllc = np.array([[56, 57 + j], [1, 2 + j]])
        rep.delay_hist_non_urllc = np.array([[112 * scale], [scale]])
        reports.append(rep)
    pooled = merge(reports)
    for i, name in enumerate(counters):
        rule = 3 if name in MAX_POOLED else 6
        assert getattr(pooled, name) == rule * (i + 1), name
    assert pooled.scenario is reports[0].scenario
    assert pooled.time_scale == Fraction(1, 2)
    for name in HISTOGRAMS:
        summed = sum(
            (Counter(hist_dict(getattr(r, name))) for r in reports), Counter()
        )
        assert hist_dict(getattr(pooled, name)) == summed, name


# Small runs of one drp scenario with a dense priority burst: the peak
# pool r_max differs by seed (9 to 11), so the property below also
# exercises the max-pooled fields.
MERGE_SCENARIO = build_scenario(
    "n_devices = 60\nurllc_fraction = 0.5\nurllc_horizon_s = 0.02\n"
    "enhancements = drp\nreserved_r = dynamic\n"
)
MERGE_REPORTS = [
    build_report(run(scenario_with(MERGE_SCENARIO, seed=s)))
    for s in range(1, 7)
]


@settings(max_examples=60, deadline=None)
@given(
    order=st.permutations(range(len(MERGE_REPORTS))),
    cuts=st.sets(st.integers(1, len(MERGE_REPORTS) - 1)),
)
def test_merge_is_commutative_and_associative(order, cuts):
    # Any order and any grouping into merged parts pools to the same
    # report as one flat merge: same CSV bytes and counters, and each
    # histogram the sum of the inputs' histograms.
    flat = merge(MERGE_REPORTS)
    shuffled = [MERGE_REPORTS[i] for i in order]
    bounds = [0, *sorted(cuts), len(shuffled)]
    parts = [merge(shuffled[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    pooled = merge(parts[::-1])
    assert pooled.csv_row() == flat.csv_row()
    assert pooled == flat
    for name in ("delay_hist_urllc", "delay_hist_non_urllc"):
        summed = sum(
            (Counter(hist_dict(getattr(r, name))) for r in MERGE_REPORTS),
            Counter(),
        )
        assert hist_dict(getattr(pooled, name)) == summed
    summed = sum((all_dict(r) for r in MERGE_REPORTS), Counter())
    assert pooled.cdf_points() == oracle_cdf_points(summed, pooled.time_scale)


# The parent revision's Counter-based delay readers, kept as an oracle for
# the array histograms: the same walk over a tick -> count dict.
def oracle_percentiles(hist, levels, scale):
    total = sum(hist.values())
    if not total:
        return {}
    ticks = iter(sorted(hist))
    out = {}
    cum = 0
    for p in levels:
        k = max(1, math.ceil(p / 100.0 * total))
        while cum < k:
            tick = next(ticks)
            cum += hist[tick]
        out[p] = ticks_to_ms(tick, scale)
    return out


def oracle_delay_percentiles(hist, scale):
    levels = PERCENTILE_LEVELS
    if sum(hist.values()) < DEEP_PERCENTILE_MIN_SAMPLES:
        levels = levels[:-1]
    found = oracle_percentiles(hist, levels, scale)
    return dict.fromkeys(PERCENTILE_LEVELS) | found


def oracle_mean_ms(hist, scale):
    total = sum(hist.values())
    ticks = sum(t * c for t, c in hist.items())
    return ticks_to_ms(ticks, scale) / total if total else None


def oracle_cdf_points(hist, scale):
    total = sum(hist.values())
    points = []
    cum = 0
    for tick in sorted(hist):
        cum += hist[tick]
        points.append((ticks_to_ms(tick, scale), cum / total))
    return points


# One device: its delay in ticks, its class, and whether it succeeded. A
# few distinct ticks, so that reports share ticks and merges must add.
DEVICES = st.tuples(
    st.sampled_from([0, 1, 56, 57, 280, 281, 2800, 10**9]),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(
    runs=st.lists(st.lists(DEVICES, max_size=12), min_size=1, max_size=6),
    data=st.data(),
)
def test_class_histograms_merge_like_counters(runs, data):
    # Reports built from random per-class samples and merged in a random
    # grouping hold int64 histograms with strictly ascending ticks and
    # positive counts, pool to the summed samples, leave their inputs
    # unchanged, and read every delay figure as the Counter oracle does.
    reports = [
        build_report(result_with([
            record(tick, urllc) if ok else failure(urllc)
            for tick, urllc, ok in devices
        ]))
        for devices in runs
    ]
    order = data.draw(st.permutations(range(len(reports))))
    cuts = data.draw(st.sets(st.integers(1, max(1, len(reports) - 1))))
    shuffled = [reports[i] for i in order]
    bounds = sorted({0, *(c for c in cuts if c < len(reports)), len(reports)})
    before = copy.deepcopy(reports)
    parts = [merge(shuffled[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    pooled = merge(parts)
    assert reports == before
    oracle = {klass: Counter() for klass in ("all", "urllc", "non_urllc")}
    for devices in runs:
        for tick, urllc, ok in devices:
            if ok:
                oracle["all"][tick] += 1
                oracle["urllc" if urllc else "non_urllc"][tick] += 1
    scale = pooled.time_scale
    for rep in [*reports, *parts, pooled]:
        for hist, n in ((rep.delay_hist_urllc, rep.n_success_urllc),
                        (rep.delay_hist_non_urllc,
                         rep.n_success - rep.n_success_urllc)):
            assert hist.dtype == np.int64 and hist.shape[0] == 2
            assert (np.diff(hist[0]) > 0).all() and (hist[1] > 0).all()
            assert hist[1].sum() == n
        summed = all_dict(rep)
        assert rep.cdf_points() == oracle_cdf_points(summed, scale)
        assert rep.mean_access_delay_ms() == oracle_mean_ms(summed, scale)
    assert all_dict(pooled) == oracle["all"]
    for klass, hist in oracle.items():
        if klass != "all":
            assert hist_dict(getattr(pooled, f"delay_hist_{klass}")) == hist
        assert pooled.delay_percentiles(klass) == oracle_delay_percentiles(
            hist, scale
        )
        assert pooled.mean_access_delay_ms(klass) == oracle_mean_ms(
            hist, scale
        )
        assert pooled.cdf_points(klass) == oracle_cdf_points(hist, scale)
        for p in (0.5, 25.0, 50.0, 99.0, 100.0):
            expected = oracle_percentiles(hist, (p,), scale).get(p)
            assert pooled.delay_percentile_ms(p, klass) == expected


def test_merge_self_doubles_counts_keeps_ratios():
    sc = build_scenario("n_devices = 60\n")
    rep = build_report(run(sc))
    doubled = merge([rep, rep])
    assert doubled.n_devices == 2 * rep.n_devices
    assert doubled.n_raos == 2 * rep.n_raos
    for size in ("n_preambles", "n_gnbs", "n_macro", "r_max"):
        assert getattr(doubled, size) == getattr(rep, size)
    assert doubled.collision_probability() == rep.collision_probability()
    assert doubled.mean_access_delay_ms() == pytest.approx(
        rep.mean_access_delay_ms()
    )
    assert doubled.delay_percentiles()[50.0] == rep.delay_percentiles()[50.0]


def test_merge_rejects_different_scenarios():
    a = build_report(run(build_scenario("n_devices = 10\n")))
    b = build_report(run(build_scenario("n_devices = 11\n")))
    with pytest.raises(MergeMismatchError):
        merge([a, b])


def test_merge_accepts_different_seeds():
    sc = build_scenario("n_devices = 10\n")
    a = build_report(run(sc))
    b = build_report(run(scenario_with(sc, seed=99)))
    pooled = merge([a, b])
    assert pooled.n_seeds == 2


def test_merge_does_not_mutate_inputs():
    sc = build_scenario("n_devices = 10\n")
    a = build_report(run(sc))
    before = a.n_devices
    merge([a, a])
    assert a.n_devices == before


def test_histograms_stay_read_only_through_pickle_and_copy():
    # numpy pickles no writeable flag; a report restores it, for the
    # empty histogram too (the default scenario has no non-priority
    # device), and also in the reports of a process pool.
    sc = build_scenario("n_devices = 20\n")
    rep = build_report(run(sc))
    assert rep.delay_hist_urllc.shape[1] and not rep.delay_hist_non_urllc.size
    pooled = replicate([(sc, 1), (sc, 1)], jobs=2)
    copies = [pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep), *pooled]
    for other in copies:
        assert other == rep
        for name in ("delay_hist_urllc", "delay_hist_non_urllc"):
            hist = getattr(other, name)
            assert not hist.flags.writeable
            with pytest.raises(ValueError):
                hist[...] = 0


@pytest.mark.parametrize(
    "other", [None, 0, "report", "log"], ids=["None", "int", "str", "log"]
)
def test_report_is_unequal_to_a_non_report(other):
    rep = build_report(run(build_scenario("n_devices = 10\n")))
    if other == "log":  # the base class, with the same counters
        other = OpportunityLog(
            **{f.name: getattr(rep, f.name) for f in fields(OpportunityLog)}
        )
    assert rep != other and not rep == other
    assert other != rep


def test_merge_empty_rejected():
    with pytest.raises(ValueError):
        merge([])


def test_ratios_bounded_on_real_run():
    rep = build_report(run(build_scenario("n_devices = 400\n")))
    assert 0.0 <= rep.collision_probability() <= 1.0
    for value in rep.preamble_utilization().values():
        if value is not None:
            assert 0.0 <= value <= 1.0
    assert rep.n_success + rep.n_failed == rep.n_devices
    assert rep.collided_cells <= rep.used_cells


def test_csv_row_matches_header_width():
    rep = build_report(run(build_scenario("n_devices = 50\n")))
    row = rep.csv_row()
    assert len(row.split(",")) == len(REPORT_COLUMNS)
    assert csv_header().split(",") == list(REPORT_COLUMNS)


def test_csv_row_on_empty_run_has_blank_kpis():
    rep = build_report(run(build_scenario("n_devices = 0\n")))
    row = rep.csv_row().split(",")
    assert len(row) == len(REPORT_COLUMNS)
    cols = dict(zip(REPORT_COLUMNS, row))
    assert cols["collision_overall"] == ""
    assert cols["mean_delay_ms"] == ""
    assert cols["n_devices"] == "0"


def test_time_scale_propagates_to_ms():
    sc = build_scenario("n_devices = 30\nsubcarrier_spacing_khz = 30\n")
    rep = build_report(run(sc))
    base = build_report(
        run(scenario_with(sc, numerology=build_scenario("").numerology))
    )
    # Same tick histograms at the same seed, reported at half scale.
    assert rep.mean_access_delay_ms() == pytest.approx(
        base.mean_access_delay_ms() / 2
    )


def test_format_table_smoke():
    rep = build_report(run(build_scenario("n_devices = 25\n")))
    text = rep.format_table()
    assert "collision" in text and "mean delay" in text
