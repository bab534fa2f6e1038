"""The contention engine: per-opportunity random access with enhancements.

All scheduling happens on the reference tick lattice (integer 56ths of a
baseline ms) and never consults the numerology; reported times are scaled
afterwards by the exact rational factor. Two consequences worth knowing:
contention dynamics (and thus collision statistics) are identical across
numerologies at a given seed, and every reported delay is an exact multiple
of the scale factor.

Attempt flow per RA opportunity: eligible devices draw preambles (one copy
to the serving macro, plus one to the covering femto under the parallel
scheme while transmission budget remains), cells with two or more copies
collide, sole copies are detected with probability 1 - exp(-i) where i is
the device's cumulative transmission count, detected devices receive RAR
grants subject to per-subframe capacity, and grant holders either finish
immediately (early-data mode) or run the Msg3/Msg4 HARQ exchange under the
contention-resolution deadline. Every failure path goes through the same
backoff formula and returns at a later opportunity until the transmission
budget runs out.

The loop sizes the reserved pool for each opportunity itself. Under `drp`
the window of priority counts is a fixed ring with an integer running
sum, and the pool tallies move only at an opportunity with a non-zero
pool; a static pool's tallies, and the opportunity count, follow after
the loop in closed form. An opportunity with two or more contenders then
runs three phases: preamble draw (one packed int per occupied cell), one
pass over the cells that detects each sole copy and ranks it for an RAR
grant, and resolution (one pass, HARQ legs and backoffs inline). A sole
contender, the most common kind at sparse loads, cannot collide: one
method takes its draws, its copies in one bulk draw, and its counts
without the cell bookkeeping, and settles an early-data grant in place,
calling `resolve` only for the handshake or a miss. Both paths count each
occupied cell under a five-bit code in a histogram that the run folds
into `OpportunityLog` once, at its end.

Per-device state lives in plain lists under an internal numbering: the
devices sorted by their start opportunity, stably, so that internal id i
is device `order[i]` and the loop reads nearby list entries. Set-up
sorts once, and cuts each opportunity's arrivals from the sorted starts
as a range of ids. Ties keep device order, so every opportunity sees its
contenders in the same sequence as under device ids, and every draw is
the same. `run` maps back once, at its end: loop columns to device-id
order, each list freed as its column is built, and trace rows to device
ids, in place. A device first transmits at its arrival's opportunity, so
the arrival and first-attempt columns come from the arrival array, and
`wait_ticks` from completion = arrival + wait + t1 + msg2 + msg3 + msg4
(an absent leg counts 0). `RunResult` is columnar; `records` builds
`AccessRecord`s.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .config import Scenario
from .rng import RandomSource, buffered, bulk_integers, doubles, integers_in
from .timebase import ms_to_ticks, time_scale_fraction
from .topology import (
    CellLayout,
    DevicePlacement,
    build_layout,
    path_loss_db,
    place_devices,
    ramped_tx_power_dbm,
    sinr_db,
)
from .traffic import assign_classes, generate_arrivals

# Background-class backoff bound under `ebf`, in place of `bi_max_ms`.
EBF_BACKGROUND_BACKOFF_MS = 10.0


@dataclass(frozen=True)
class AccessRecord:
    """Outcome of one device's access procedure (times in reference ticks)."""

    device_id: int
    urllc: bool
    success: bool
    msg1_count: int
    attempt_count: int
    arrival_ticks: int
    first_attempt_ticks: int
    completion_ticks: int | None
    wait_ticks: int | None   # arrival -> start of the successful Msg1
    msg1_ticks: int | None
    msg2_ticks: int | None   # Msg1 end -> RAR delivery
    msg3_ticks: int | None   # RAR -> Msg3 delivered, HARQ repeats included
    msg4_ticks: int | None   # None for early-data successes

    @property
    def total_ticks(self) -> int | None:
        """Arrival-anchored total; equals the component sum for successes."""
        if self.completion_ticks is None:
            return None
        return self.completion_ticks - self.arrival_ticks

    @property
    def delay_ticks(self) -> int | None:
        """The KPI delay: first RA attempt to completion."""
        if self.completion_ticks is None:
            return None
        return self.completion_ticks - self.first_attempt_ticks


def pooled_by(rule, **kwargs):
    """A field that `kpi.merge` pools by `rule` of an iterator of the
    reports' values; a field without one pools by `sum`."""
    return field(metadata={"pool": rule}, **kwargs)


def _cell_counter(bits: int, value: int):
    """A counter of the occupied cells whose code c has c & bits == value."""
    codes = tuple(c for c in range(32) if c & bits == value)
    return field(default=0, metadata={"cells": codes})


@dataclass
class OpportunityLog:
    """Aggregated contention statistics for KPI computation.

    The one declaration of the contention counters: `kpi.KpiReport`
    inherits them, so a new counter is one line here, with its rules: the
    cell codes it counts, and a pooling rule where it does not sum.
    """

    n_preambles: int = pooled_by(max, default=0)
    n_gnbs: int = pooled_by(max, default=0)
    n_macro: int = pooled_by(max, default=0)
    n_raos: int = 0
    used_cells: int = _cell_counter(0, 0)
    collided_cells: int = _cell_counter(4, 4)
    used_reserved: int = _cell_counter(8, 8)
    used_contention: int = _cell_counter(8, 0)
    collided_reserved: int = _cell_counter(12, 12)
    used_urllc: int = _cell_counter(1, 1)
    used_non_urllc: int = _cell_counter(2, 2)
    collided_urllc: int = _cell_counter(5, 5)
    collided_non_urllc: int = _cell_counter(6, 6)
    used_reserved_urllc: int = _cell_counter(9, 9)
    used_reserved_non_urllc: int = _cell_counter(10, 10)
    used_contention_urllc: int = _cell_counter(9, 1)
    used_contention_non_urllc: int = _cell_counter(10, 2)
    sum_r: int = 0
    sum_pool_urllc: int = 0
    sum_pool_non_urllc: int = 0
    prio_macro_r_sum: int = 0
    used_reserved_at_prio_macro: int = _cell_counter(16, 16)
    total_msg1_tx: int = 0
    r_max: int = pooled_by(max, default=0)


# Per-device integer columns of RunResult, in AccessRecord field order;
# -1 marks an absent time (failed device, or no Msg3/Msg4 leg).
_TICK_COLUMNS = (
    "msg1_count", "attempt_count", "arrival_ticks", "first_attempt_ticks",
    "completion_ticks", "wait_ticks", "msg2_ticks", "msg3_ticks", "msg4_ticks",
)
# The columns the loop writes; `run` builds the other three.
_LOOP_COLUMNS = ("msg1_count", "attempt_count", "completion_ticks",
                 "msg2_ticks", "msg3_ticks", "msg4_ticks")


def _attempts(copies, dual):
    """Attempts from Msg1 copies (ints or arrays): a `dual` device, one
    with `dual_last >= 0`, sends two per attempt while it can, so its
    attempts are half its copies, rounded up; any other sends one."""
    return copies - copies // 2 * dual


@dataclass
class RunResult:
    """One run: per-device columns indexed by device id, plus the log.

    Times are reference ticks; -1 in a tick column marks an absent value.
    A device succeeded exactly when its `completion_ticks` is set. `run`
    derives `wait_ticks` from the other columns (see the module notes).
    """

    log: OpportunityLog
    scenario: Scenario
    layout: CellLayout
    placement: DevicePlacement
    urllc: np.ndarray
    msg1_count: np.ndarray
    attempt_count: np.ndarray
    arrival_ticks: np.ndarray
    first_attempt_ticks: np.ndarray
    completion_ticks: np.ndarray
    wait_ticks: np.ndarray
    msg2_ticks: np.ndarray
    msg3_ticks: np.ndarray
    msg4_ticks: np.ndarray
    trace: list[tuple] | None = None

    @property
    def records(self) -> list[AccessRecord]:
        """One AccessRecord per device, built from the columns per access."""
        t1 = ms_to_ticks(self.scenario.timing.t_msg1_ms)
        cols = [getattr(self, name).tolist() for name in _TICK_COLUMNS]
        out = []
        for dev, row in enumerate(zip(self.urllc.tolist(), *cols)):
            ur, msg1, att, arr, first, *ts = row
            done, wait, msg2, msg3, msg4 = (v if v >= 0 else None for v in ts)
            ok = done is not None
            out.append(
                AccessRecord(
                    dev, ur, ok, msg1, att, arr, first, done, wait,
                    t1 if ok else None, msg2, msg3, msg4,
                )
            )
        return out

    @property
    def time_scale(self) -> Fraction:
        return time_scale_fraction(self.scenario.numerology)


def run(
    scenario: Scenario,
    *,
    source: RandomSource | None = None,
    placement: DevicePlacement | None = None,
    arrivals: np.ndarray | None = None,
    collect_trace: bool = False,
) -> RunResult:
    """Simulate every device to resolution; deterministic under the seed.

    `source`, `placement` and `arrivals` are injection points for
    deterministic experiments; by default everything derives from the
    scenario seed. The source's four contention streams are read in
    blocks, so those generators end up to one block past the draws the
    run used (see `RandomSource`).

    The loop numbers the devices by start opportunity (see `_Contention`);
    the result's columns and trace rows are in device ids, and `arrivals`
    and `placement` are left as given.
    """
    src = source or RandomSource.from_seed(scenario.seed)
    layout = build_layout(scenario.topology, src.placement)
    n = scenario.n_devices
    if placement is None:
        placement = place_devices(n, layout, src.placement)
    if len(placement) != n:
        raise ValueError("placement size does not match n_devices")
    is_ur = assign_classes(n, scenario.urllc_fraction)
    if arrivals is None:
        arrivals = generate_arrivals(is_ur, scenario.traffic, src.arrivals)
    arrivals = np.asarray(arrivals, dtype=np.int64)
    if arrivals.shape != (n,):
        raise ValueError("arrivals size does not match n_devices")
    if arrivals.min(initial=0) < 0:  # -1 marks an absent time in a column
        raise ValueError("arrivals must be non-negative tick counts")

    sim = _Contention(
        scenario, src, layout, placement, is_ur, arrivals, collect_trace
    )
    sim.simulate()
    del sim.resolve_args
    order = sim.order
    cols = {}
    for name in _LOOP_COLUMNS:  # each list is freed once its column is built
        cols[name] = col = np.empty(n, dtype=np.int64)
        col[order] = getattr(sim, name)
        delattr(sim, name)
    done, msg2, msg3, msg4 = (cols[name] for name in _LOOP_COLUMNS[2:])
    wait = done - arrivals - sim.t1 - msg2 - msg3.clip(0) - msg4.clip(0)
    wait[done < 0] = -1  # an absent leg counts 0; a failure has no wait
    trace = sim.trace
    if trace is not None:
        ids = order.tolist()
        for i, (t, d, k, p, g, a) in enumerate(trace):
            trace[i] = (t, ids[d], k, p, g, a)
    return RunResult(
        log=sim.log,
        scenario=scenario,
        layout=layout,
        placement=placement,
        urllc=np.asarray(is_ur, dtype=bool),
        arrival_ticks=arrivals.copy(),
        first_attempt_ticks=-(-arrivals // sim.ra) * sim.ra,
        wait_ticks=wait,
        trace=trace,
        **cols,
    )


class _Contention:
    """Per-run state of the contention loop and its per-opportunity phases.

    Device state is held in lists indexed by internal id, named after the
    RunResult columns of `_LOOP_COLUMNS`: `msg1_count` and four times, -1
    for a time not (yet) reached; `simulate` adds `attempt_count` as an
    array. Internal id i is device `order[i]`, where `order` is the stable
    argsort of the start opportunities; every per-device list is built in
    that order, and `run` scatters the loop columns and trace rows back to
    device ids. A phase sees the opportunity's contenders as `devs`, and a
    contender's position in it is its local index. `detect()`, `harq()`
    and `backoff()`, in the one range `(0, bi_max + 1)`, are C-level
    `__next__` calls over per-block lists (`rng.doubles`,
    `rng.integers_in`). `draw` takes its preambles with one bulk draw per
    pool range (`rng.bulk_integers`), which gives the values of as many
    scalar draws; copies of one range share a draw.
    The loop counts only `msg1_count`, one write per Msg1 copy;
    `_attempts` derives the attempts from it.

    `simulate` sizes the reserved pool from a ring of the last `sib2`
    priority counts under `drp`, then sends a sole contender to
    `one_contender`, and any larger batch through `draw`, which packs
    each occupied cell into one int, `cell_outcome`, which grants the
    detected copies, and `resolve`. A cell's code is the sum of bits 1 (a
    URLLC copy), 2 (a background copy), 4 (collided), 8 (reserved pool)
    and 16 (reserved pool at a priority macro). Both paths count each
    occupied cell under its code in `hist`, which `simulate` folds into
    the log once per run.
    """

    def __init__(
        self, scenario, src, layout, placement, is_ur, arrivals, collect_trace
    ):
        enh = scenario.enhancements
        timing = scenario.timing
        ebf = "ebf" in enh
        self.scenario = scenario
        self.preamble = buffered(src.preamble)
        self.preambles = bulk_integers(self.preamble)
        self.detect, self.harq = doubles(src.detection), doubles(src.harq)
        self.sinr_gate = scenario.topology.sinr_threshold_db is not None
        self.edt, self.pp, self.drp, self.rp = (
            flag in enh for flag in ("edt", "pp", "drp", "rp")
        )
        self.n_pre = scenario.n_preambles
        self.max_tx = scenario.max_preamble_tx
        self.n_macro = layout.n_macro
        self.ra = ms_to_ticks(timing.ra_period_ms)
        self.t1, self.t2, self.t3, self.t4 = (
            ms_to_ticks(getattr(timing, f"t_msg{k}_ms")) for k in (1, 2, 3, 4)
        )
        self.subframe = ms_to_ticks(1.0)
        self.rar_window = 0 if ebf else ms_to_ticks(timing.rar_window_ms)
        self.n_slots = max(1, self.rar_window // self.subframe)
        self.cr_timer = ms_to_ticks(timing.contention_resolution_timer_ms)
        # The run's one backoff bound: URLLC devices draw none under `ebf`,
        # where background devices use EBF_BACKGROUND_BACKOFF_MS instead.
        self.bi_max = (
            ms_to_ticks(EBF_BACKGROUND_BACKOFF_MS) if ebf
            else ms_to_ticks(timing.bi_max_ms)
        )
        self.grants_per_sf = (scenario.cce_total // scenario.cce_per_pdcch) * (
            scenario.rar_grants_per_msg
        )
        self.sib2 = max(1, round(timing.sib2_period_ms / timing.ra_period_ms))
        self.r_static = scenario.reserved_r if self.rp else 0
        self.backoff = integers_in(src.backoff, 0, self.bi_max + 1)
        self.p_detect = [
            1.0 - math.exp(-float(i)) for i in range(self.max_tx + 1)
        ]

        self.log = OpportunityLog(
            n_preambles=self.n_pre, n_gnbs=layout.n_gnbs, n_macro=self.n_macro
        )
        self.trace: list[tuple] | None = [] if collect_trace else None
        self.last_resolution = 0
        start = -(-arrivals // self.ra)
        # A stable order is unique; numpy radix-sorts 8- and 16-bit keys.
        key = start.astype(np.min_scalar_type(start.max(initial=0)))
        self.order = order = np.argsort(key, kind="stable")
        # Opportunity -> contenders: a range of internal ids per start
        # opportunity, cut wherever the sorted start changes.
        start = start[order]
        firsts = np.flatnonzero(np.diff(start, prepend=start[:1] - 1))
        bounds = firsts.tolist() + [len(start)]
        self.buckets = defaultdict(list, zip(
            start[firsts].tolist(), map(list, map(range, bounds, bounds[1:]))
        ))
        is_ur = is_ur[order]
        self.is_ur = is_ur.tolist()
        self.cls = (2 - is_ur).tolist()  # cell code class bit
        # True for a device that draws a backoff when it retries.
        self.draws_bi = ((self.bi_max > 0) & ~(ebf & is_ur)).tolist()
        self.hist = [0] * 32  # occupied cells per cell code
        self.serving = placement.serving_cell[order].tolist()
        femto = placement.femto_cell[order]
        self.femto = femto.tolist()
        # The femto-copy rule: an attempt that starts with at most
        # `dual_last[d]` Msg1 copies also sends a femto copy (-1: never).
        last = self.max_tx - 2 if self.pp else -1
        self.dual = (femto >= 0) & (last >= 0)
        self.dual_last = np.where(self.dual, last, -1).tolist()
        if self.sinr_gate:  # read only by `_sinr_ok`
            self.serving_dist = placement.serving_dist[order]
        n = len(arrivals)
        self.msg1_count = [0] * n
        for name in _LOOP_COLUMNS[2:]:
            setattr(self, name, [-1] * n)
        # What `resolve` unpacks once per call; the Msg3 and Msg4 leg
        # times of k HARQ transmissions are tables, so successes share ints.
        legs = range(scenario.max_harq + 1)
        self.resolve_args = (
            self.harq, scenario.harq_fail_prob, scenario.max_harq, self.edt,
            self.max_tx, self.t1, [k * self.t3 for k in legs],
            [k * self.t4 for k in legs], self.cr_timer,
            self.t2 + self.rar_window, self.ra, self.draws_bi,
            self.msg1_count, self.completion_ticks, self.msg2_ticks,
            self.msg3_ticks, self.msg4_ticks, self.buckets, self.backoff,
            self.trace,
        )

    def simulate(self) -> None:
        """Run every opportunity from the first arrival to the last resolution.

        Trailing opportunity subframes (after the final Msg 1) still count
        toward KPI denominators and still advance the dynamic-pool window.
        Pool sizing happens here: under `drp` the broadcast size is the
        rounded mean of the prior window, never of the current sample.
        The window is a ring of `sib2` priority counts, slot `rao_index %
        sib2`, with an exact integer running sum; its fill count is the
        number of opportunities run so far, capped at `sib2`, and is read
        only when the sum is non-zero. Under `drp` the tallies `sum_r`,
        `r_max` and the count of pooled opportunities move only when the
        pool is non-zero; a static pool (`rp`, or none) is the same at
        every opportunity, so its tallies are written after the loop.
        `n_raos` is the span from the first opportunity to the last, and
        the opportunities without a pool are `n_raos` less the pooled ones.
        The tallies reach the log once per run, as do the cell counters,
        each folded from `hist` by the codes its `_cell_counter` field of
        `OpportunityLog` names, and `total_msg1_tx`, the sum of the final
        Msg1 counts.

        Once the buckets are empty every arrival has had its opportunity,
        so the loop runs on only to the opportunity of the last resolution.
        """
        buckets = self.buckets
        if not buckets:  # no device: both counts are empty
            self.attempt_count = self.msg1_count
            return
        ra = self.ra
        first_rao = rao_index = min(buckets)
        n_pre, drp, sib2 = self.n_pre, self.drp, self.sib2
        ring = [0] * sib2
        r_use, window_sum = self.r_static, 0
        sum_r = r_max = pooled = 0
        pop = buckets.pop
        one_contender, draw, cell_outcome, resolve = (
            self.one_contender, self.draw, self.cell_outcome, self.resolve
        )
        while buckets or rao_index <= -(-self.last_resolution // ra):
            if drp:
                r_use = 0
                if window_sum:  # the window mean, rounded half up
                    k = rao_index - first_rao
                    if k > sib2:
                        k = sib2
                    r_use = (2 * window_sum + k) // (2 * k)
                    if r_use >= n_pre:
                        r_use = n_pre - 1
                    if r_use:
                        sum_r += r_use
                        pooled += 1
                        if r_use > r_max:
                            r_max = r_use
            devs = pop(rao_index, None)
            n_prio = 0
            if devs:
                t = rao_index * ra
                if len(devs) == 1:
                    n_prio = one_contender(t, devs, r_use)
                else:
                    cells, base, prio_macros, n_prio = draw(t, devs, r_use)
                    resolve(t, devs, cell_outcome(
                        t, devs, r_use, cells, base, prio_macros
                    ))
            if drp:
                slot = rao_index % sib2
                window_sum += n_prio - ring[slot]
                ring[slot] = n_prio
            rao_index += 1
        n_raos = rao_index - first_rao
        if not drp and r_use:
            sum_r, r_max, pooled = r_use * n_raos, r_use, n_raos
        zero_r = n_raos - pooled
        log = self.log
        log.n_raos, log.sum_r, log.r_max = n_raos, sum_r, r_max
        log.sum_pool_urllc = sum_r + n_pre * zero_r
        log.sum_pool_non_urllc = n_pre * n_raos - sum_r
        self.msg1_count = tx = np.array(self.msg1_count, dtype=np.int64)
        log.total_msg1_tx = int(tx.sum())
        self.attempt_count = _attempts(tx, self.dual)
        hist = self.hist
        for f in fields(log):
            if codes := f.metadata.get("cells"):
                setattr(log, f.name, sum(hist[c] for c in codes))

    def _preambles(self, prio: list[bool], r_use: int) -> list[int]:
        """Preambles in copy order under a pool of `r_use` > 0, one bulk
        draw per range: the priority copies first, inside the pool."""
        draw, n_pre = self.preambles, self.n_pre
        n_in = sum(prio)
        inside = iter(draw(0, r_use, n_in))
        outside = iter(draw(r_use, n_pre, len(prio) - n_in))
        return [next(inside) if p else next(outside) for p in prio]

    def draw(self, t: int, devs: list[int], r_use: int):
        """Preamble draw: the serving copies, then the femto copies (`pp`).

        Returns the occupied cells, `base`, the serving macros of the
        priority contenders when a pool is reserved, and the number of
        priority contenders under `drp`, else 0. Without a pool every copy
        draws from the whole preamble range, so the priority lists are
        built only when one is broadcast. `cells` is keyed gnb *
        n_preambles + preamble, so that key order is (gnb, preamble) order.
        Its value packs the cell's first copy as its local index * 16, plus
        8 for a femto copy, with the cell's code bits 1 (a URLLC copy), 2
        (a background copy) and 4 (collided). `base` lists the contenders'
        transmission counts before this opportunity under `pp` or `drp`;
        empty, each copy is numbered by the Msg1 count.
        """
        is_ur, serving, femto = self.is_ur, self.serving, self.femto
        tx_count, cls = self.msg1_count, self.cls
        n_pre = self.n_pre
        base, dual, n_prio = [], [], 0
        if self.pp or self.drp:  # one pass over the counts before the draw
            dual_last = self.dual_last
            for j, d in enumerate(devs):
                b = tx_count[d]
                base.append(b)
                n_prio += is_ur[d] or b > 0
                if b <= dual_last[d]:
                    dual.append(j)
        if r_use:
            if self.drp:
                prio = [is_ur[d] or b > 0 for d, b in zip(devs, base)]
            else:
                prio = [is_ur[d] for d in devs]
            pre1 = self._preambles(prio, r_use)
            pre2 = (
                self._preambles([prio[j] for j in dual], r_use) if dual else []
            )
            prio_macros = {serving[d] for d, p in zip(devs, prio) if p}
            self.log.prio_macro_r_sum += r_use * len(prio_macros)
        else:  # one bulk draw, read by the two copy loops in turn
            k = len(devs) + len(dual)
            pre1 = pre2 = iter(self.preambles(0, n_pre, k))
            prio_macros = ()

        cells: dict[int, int] = {}
        claim = cells.setdefault
        trace = self.trace
        for jj, d, pre in zip(range(0, 16 * len(devs), 16), devs, pre1):
            tx_count[d] += 1
            key = serving[d] * n_pre + pre
            copy = jj | cls[d]
            held = claim(key, copy)
            if held != copy:
                cells[key] = held | cls[d] | 4
            if trace is not None:
                trace.append((t, d, "msg1", pre, serving[d], self._attempt(d)))
        for j, pre in zip(dual, pre2):
            d = devs[j]
            tx_count[d] += 1
            gnb = self.n_macro + femto[d]
            key = gnb * n_pre + pre
            copy = j * 16 | 8 | cls[d]
            held = claim(key, copy)
            if held != copy:
                cells[key] = held | cls[d] | 4
            if trace is not None:
                trace.append((t, d, "msg1", pre, gnb, self._attempt(d)))
        return cells, base, prio_macros, n_prio if self.drp else 0

    def one_contender(self, t: int, devs: list[int], r_use: int) -> int:
        """All phases for an opportunity with one contender; returns 1 if
        it is a priority contender, else 0.

        Nothing can collide: a femto copy goes to another gNB. So each copy
        is a sole copy that takes its detection draw, the macro's first,
        and the earliest grant is the first response subframe at the
        macro if it detected, else at the femto (capacity is at least one
        grant). The draws, cell codes and trace rows are those of `draw`
        and `cell_outcome` for a one-element `devs`.
        """
        (d,) = devs
        ur = self.is_ur[d]
        base = self.msg1_count[d]
        prio = (ur or base > 0) if self.drp else (ur and self.rp)
        lo, hi = 0, self.n_pre
        if r_use > 0:
            lo, hi = (0, r_use) if prio else (r_use, hi)
        femto = self.femto[d]
        dual = base <= self.dual_last[d]
        if dual:
            pre, pre2 = self.preambles(lo, hi, 2)
        else:
            pre = self.preamble.integers(lo, hi)
        self.msg1_count[d] = base + 1 + dual

        macro = self.serving[d]
        trace = self.trace
        if trace is not None:
            attempt = self._attempt(d)
            trace.append((t, d, "msg1", pre, macro, attempt))
            if dual:
                trace.append(
                    (t, d, "msg1", pre2, self.n_macro + femto, attempt)
                )
        code = self.cls[d]
        if pre < r_use:  # priority copies, both in the reserved pool
            self.log.prio_macro_r_sum += r_use
            code |= 8
        # The macro cell; in the reserved pool it is at a priority macro.
        self.hist[code | (code & 8) * 2] += 1
        if dual:
            self.hist[code] += 1

        detect, p_detect = self.detect, self.p_detect
        gnb = -1
        if detect() < p_detect[base + 1] and (
            not self.sinr_gate or self._sinr_ok(d, macro)
        ):
            gnb = macro
        if dual and detect() < p_detect[base + 2] and gnb < 0:
            gnb = self.n_macro + femto
        rar = t + self.t1 + self.t2
        if gnb < 0 or not self.edt or trace is not None:
            self.resolve(t, devs, [(rar, gnb) if gnb >= 0 else None])
        else:  # an early-data grant completes at the RAR, as in `resolve`
            self.completion_ticks[d], self.msg2_ticks[d] = rar, self.t2
            self.last_resolution = max(self.last_resolution, rar)
        return int(prio)

    def cell_outcome(self, t, devs, r_use, cells, base, prio_macros):
        """Count every occupied cell, detect its sole copy and grant it.

        Cells are visited in (gnb, preamble) order and each sole copy takes
        one detection draw. A cell's code adds 8 for the reserved pool and
        16 for the reserved pool at a priority macro to the class and
        collision bits of `draw`, and counts once in the run's histogram.
        A detected copy takes the next place in its gNB's response
        subframes, `grants_per_sf` to each of `n_slots`; one ranked past
        them behaves as undetected. A dual transmitter keeps its earliest
        grant, the macro's on an exact tie (macro gNB indices sort first).
        Returns, by local index, each contender's (RAR time, gnb), or None.
        """
        hist, n_pre, p_detect, draw = (
            self.hist, self.n_pre, self.p_detect, self.detect
        )
        tx_count, sinr_gate = self.msg1_count, self.sinr_gate
        cap, n_slots, sf = self.grants_per_sf, self.n_slots, self.subframe
        first_rar = t + self.t1 + self.t2
        rar_at: list[tuple[int, int] | None] = [None] * len(devs)
        rank, prev_gnb = 0, -1
        for key in sorted(cells):
            packed, gnb = cells[key], key // n_pre
            code = packed & 7
            if r_use and key % n_pre < r_use:
                code |= 24 if gnb in prio_macros else 8
            hist[code] += 1
            if code & 4:
                continue
            j = packed >> 4
            nth = (  # the copy's transmission number
                base[j] + 1 + (packed >> 3 & 1) if base else tx_count[devs[j]]
            )
            if draw() < p_detect[nth] and (
                not sinr_gate or self._sinr_ok(devs[j], gnb)
            ):
                if gnb != prev_gnb:
                    rank, prev_gnb = 0, gnb
                slot = rank // cap
                rank += 1
                if slot < n_slots:
                    grant = (first_rar + slot * sf, gnb)
                    if rar_at[j] is None or grant < rar_at[j]:
                        rar_at[j] = grant
        return rar_at

    def _sinr_ok(self, dev: int, gnb: int) -> bool:
        """Optional macro-side SNR gate (`sinr_threshold_db`, off by
        default); a failed gate behaves exactly like a detection miss."""
        cfg = self.scenario.topology
        if gnb >= self.n_macro:
            return True
        pl = path_loss_db(float(self.serving_dist[dev]), cfg)
        power = ramped_tx_power_dbm(pl, self._attempt(dev), cfg)
        return sinr_db(power - pl, cfg) >= cfg.sinr_threshold_db

    def _attempt(self, dev: int) -> int:
        """The device's attempts so far, from its Msg1 copies."""
        return _attempts(self.msg1_count[dev], self.dual_last[dev] >= 0)

    def resolve(self, t, devs, rar_at) -> None:
        """Resolve each contender: success path, or failure with backoff.

        One pass over `devs`, in order. A grant holder runs its Msg3, then
        Msg4, HARQ draws (up to the first at or above `harq_fail_prob`, at
        most `max_harq` each). A contender that fails with budget left
        takes its backoff draw there and then, and is queued and traced in
        place, at the first opportunity at or after its fail time plus
        `t2 + rar_window` plus its backoff.
        """
        (harq, harq_fail, max_harq, edt, max_tx, t1, legs3, legs4,
         cr_timer, retry_gap, ra, draws_bi, msg1_count, completion, msg2,
         msg3, msg4, buckets, backoff, trace) = self.resolve_args
        last = self.last_resolution
        msg1_end = t + t1
        retry_up = retry_gap + ra - 1  # rounds up to the grid
        for dev, grant in zip(devs, rar_at):
            if grant is None:
                fail_base = msg1_end
            else:
                rar_time, gnb = grant
                if trace is not None:
                    trace.append((rar_time, dev, "rar", -1, gnb, 0))
                if edt:
                    done = rar_time
                else:
                    done, k3 = -1, 1
                    while harq() < harq_fail:  # Msg3 transmission k3 lost
                        if k3 == max_harq:
                            fail_base = rar_time + legs3[k3]
                            break
                        k3 += 1
                    else:
                        k4 = 1
                        while harq() < harq_fail:  # Msg4 transmission k4 lost
                            if k4 == max_harq:
                                fail_base = rar_time + legs3[k3] + legs4[k4]
                                break
                            k4 += 1
                        else:
                            leg3, leg4 = legs3[k3], legs4[k4]
                            if leg3 + leg4 <= cr_timer:
                                done = rar_time + leg3 + leg4
                                msg3[dev], msg4[dev] = leg3, leg4
                            else:
                                fail_base = rar_time + cr_timer
                if done >= 0:
                    completion[dev] = done
                    msg2[dev] = rar_time - msg1_end
                    if done > last:
                        last = done
                    if trace is not None:
                        trace.append((done, dev, "connected", -1, gnb, 0))
                    continue
            if msg1_count[dev] >= max_tx:
                if fail_base > last:
                    last = fail_base
                if trace is not None:
                    trace.append((fail_base, dev, "failed", -1, -1, 0))
                continue
            bi = backoff() if draws_bi[dev] else 0
            buckets[(fail_base + retry_up + bi) // ra].append(dev)
            if trace is not None:
                eligible = fail_base + retry_gap + bi
                trace.append((eligible, dev, "backoff", -1, -1, 0))
        self.last_resolution = last
