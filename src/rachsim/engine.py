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
runs four phases: preamble draw (one packed int per occupied cell), cell
outcome, RAR grants and resolution (HARQ legs inline). One with a single
contender, the most common kind at sparse loads, cannot collide and runs
one method that takes the same draws and makes the same counts without
the cell bookkeeping. Both count each occupied cell under a five-bit code
in a histogram that lives for the run, and the run folds it into the cell
counters of `OpportunityLog` once, at its end.

Per-device state lives in plain lists under an internal numbering: the
devices sorted by their start opportunity, stably, so that internal id i
is device `order[i]`. The loop then reads nearby list entries at each
opportunity rather than ones scattered over the run. Ties keep device
order, so every opportunity sees its contenders in the same sequence as
under device ids, and every draw is the same. `run` maps back once, at
its end: each loop column is scattered into device-id order and each
trace row gets its device id. A device first transmits at its arrival's
opportunity, so `run` takes the arrival and first-attempt columns
straight from the arrival array. `RunResult` is columnar, one numpy array
per device field; `records` builds `AccessRecord`s.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import Scenario
from .rng import RandomSource, buffered, bulk_integers
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


@dataclass
class OpportunityLog:
    """Aggregated contention statistics for KPI computation.

    The one declaration of the contention counters: `kpi.KpiReport`
    inherits them, so a new counter is one line here. Pooled over seeds,
    the sizes `n_preambles`, `n_gnbs` and `n_macro` and the peak `r_max`
    take the maximum; every other counter is summed.
    """

    n_preambles: int = 0
    n_gnbs: int = 0
    n_macro: int = 0
    n_raos: int = 0
    used_cells: int = 0
    collided_cells: int = 0
    used_reserved: int = 0
    used_contention: int = 0
    collided_reserved: int = 0
    used_urllc: int = 0
    used_non_urllc: int = 0
    collided_urllc: int = 0
    collided_non_urllc: int = 0
    used_reserved_urllc: int = 0
    used_reserved_non_urllc: int = 0
    used_contention_urllc: int = 0
    used_contention_non_urllc: int = 0
    sum_r: int = 0
    sum_pool_urllc: int = 0
    sum_pool_non_urllc: int = 0
    prio_macro_r_sum: int = 0
    used_reserved_at_prio_macro: int = 0
    total_msg1_tx: int = 0
    r_max: int = 0


# Cell counters of OpportunityLog as (bits, value): a counter sums the
# cell histogram over the codes with code & bits == value.
_CELL_COUNTERS = dict(
    used_cells=(0, 0), collided_cells=(4, 4), used_reserved=(8, 8),
    used_contention=(8, 0), collided_reserved=(12, 12), used_urllc=(1, 1),
    used_non_urllc=(2, 2), collided_urllc=(5, 5), collided_non_urllc=(6, 6),
    used_reserved_urllc=(9, 9), used_reserved_non_urllc=(10, 10),
    used_contention_urllc=(9, 1), used_contention_non_urllc=(10, 2),
    used_reserved_at_prio_macro=(16, 16),
)

# Per-device integer columns of RunResult, in AccessRecord field order;
# -1 marks an absent time (failed device, or no Msg3/Msg4 leg).
_TICK_COLUMNS = (
    "msg1_count", "attempt_count", "arrival_ticks", "first_attempt_ticks",
    "completion_ticks", "wait_ticks", "msg2_ticks", "msg3_ticks", "msg4_ticks",
)
# The columns the loop writes, held as lists; `run` takes the other two
# from the arrival array.
_LOOP_COLUMNS = _TICK_COLUMNS[:2] + _TICK_COLUMNS[4:]


@dataclass
class RunResult:
    """One run: per-device columns indexed by device id, plus the log.

    Times are reference ticks; -1 in a tick column marks an absent value.
    A device succeeded exactly when its `completion_ticks` is set.
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

    def ticks_to_ms(self, ticks: int | None) -> float | None:
        if ticks is None:
            return None
        return float(Fraction(ticks) * self.time_scale / 56)


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
    scenario seed. The source's four contention streams (preamble,
    detection, harq, backoff) are read in blocks (`rng.BlockStream`), so
    those generators end up to one block past the draws the run used.

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

    sim = _Contention(
        scenario, src, layout, placement, is_ur, arrivals, collect_trace
    )
    sim.simulate()
    order = sim.order
    cols = {}
    for name in _LOOP_COLUMNS:
        cols[name] = col = np.empty(n, dtype=np.int64)
        col[order] = getattr(sim, name)
    trace = sim.trace
    if trace is not None:
        ids = order.tolist()
        trace = [(t, ids[d], k, p, g, a) for t, d, k, p, g, a in trace]
    return RunResult(
        log=sim.log,
        scenario=scenario,
        layout=layout,
        placement=placement,
        urllc=np.asarray(is_ur, dtype=bool),
        arrival_ticks=arrivals.copy(),
        first_attempt_ticks=-(-arrivals // sim.ra) * sim.ra,
        trace=trace,
        **cols,
    )


class _Contention:
    """Per-run state of the contention loop and its per-opportunity phases.

    Device state is held in lists indexed by internal id, named after the
    RunResult columns of `_LOOP_COLUMNS`, plus `arrival_ticks`; -1 marks a
    time not (yet) reached. Internal id i is device `order[i]`, where
    `order` is the stable argsort of the start opportunities; every
    per-device list is built in that order, and `run` scatters the loop
    columns and trace rows back to device ids. A phase sees the
    opportunity's contenders as `devs`, and a contender's position in it
    is its local index. The detection and HARQ draws are scalar `random()`
    calls. `draw` takes its preambles with one bulk draw per pool range
    and `resolve` its backoffs with one bulk draw (`rng.bulk_integers`);
    `one_contender` takes scalar `integers(lo, hi)` draws. A bulk draw
    gives the values of the same number of scalar draws.

    `simulate` sizes the reserved pool from a ring of the last `sib2`
    priority counts under `drp`, then sends a sole contender to
    `one_contender` and any larger batch through `draw`, `cell_outcome`,
    `grants` and `resolve`; `draw` packs each occupied cell into one int.
    A cell's code is the sum of bits 1 (a URLLC copy), 2 (a background
    copy), 4 (collided), 8 (reserved pool) and 16 (reserved pool at a
    priority macro). `one_contender` and `cell_outcome` count each
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
        self.preamble, self.detection, self.harq, self.backoff = (
            buffered(gen)
            for gen in (src.preamble, src.detection, src.harq, src.backoff)
        )
        self.preambles = bulk_integers(self.preamble)
        self.backoffs = bulk_integers(self.backoff)
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
        self.p_detect = [
            1.0 - math.exp(-float(i)) for i in range(self.max_tx + 1)
        ]

        self.log = OpportunityLog(
            n_preambles=self.n_pre, n_gnbs=layout.n_gnbs, n_macro=self.n_macro
        )
        self.trace: list[tuple] | None = [] if collect_trace else None
        self.last_resolution = 0
        start = -(-arrivals // self.ra)
        self.order = order = np.argsort(start, kind="stable")
        # Opportunity -> contenders. Internal ids follow the start
        # opportunity, so each opportunity's arrivals are one `range` of
        # them, in ascending order.
        self.buckets = buckets = defaultdict(list)
        raos, firsts = np.unique(start[order], return_index=True)
        bounds = firsts.tolist() + [len(start)]
        for rao, lo, hi in zip(raos.tolist(), bounds, bounds[1:]):
            buckets[rao] = list(range(lo, hi))
        is_ur = is_ur[order]
        self.is_ur = is_ur.tolist()
        self.cls = [2 - u for u in self.is_ur]  # cell code class bit
        # True for a device that draws a backoff when it retries.
        self.draws_bi = ((self.bi_max > 0) & ~(ebf & is_ur)).tolist()
        self.hist = [0] * 32  # occupied cells per cell code
        self.serving = placement.serving_cell[order].tolist()
        self.femto = placement.femto_cell[order].tolist()
        self.serving_dist = placement.serving_dist[order]
        n = len(arrivals)
        for name in _LOOP_COLUMNS:
            setattr(self, name, [-1] * n)
        self.msg1_count, self.attempt_count = [0] * n, [0] * n
        self.arrival_ticks = arrivals[order].tolist()
        # What `resolve` unpacks once per call.
        retry_gap = self.t2 + self.rar_window
        self.resolve_args = (
            self.harq.random, scenario.harq_fail_prob, scenario.max_harq,
            self.edt, self.max_tx, self.t1, self.t3, self.t4, self.cr_timer,
            retry_gap, self.t1 + retry_gap + self.ra - 1, self.ra,
            self.bi_max, all(self.draws_bi), self.draws_bi, self.msg1_count,
            self.arrival_ticks, self.completion_ticks, self.wait_ticks,
            self.msg2_ticks, self.msg3_ticks, self.msg4_ticks, self.buckets,
            self.backoffs, self.trace,
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
        folded from `hist` by `_CELL_COUNTERS`, and `total_msg1_tx`, the
        sum of the final Msg1 counts.

        Once the buckets are empty every arrival has had its opportunity,
        so the loop runs on only to the opportunity of the last resolution.
        """
        buckets = self.buckets
        if not buckets:
            return
        ra = self.ra
        first_rao = rao_index = min(buckets)
        n_pre, drp, sib2 = self.n_pre, self.drp, self.sib2
        ring = [0] * sib2
        r_use, window_sum = self.r_static, 0
        sum_r = r_max = pooled = 0
        pop = buckets.pop
        one_contender, draw, cell_outcome, grants, resolve = (
            self.one_contender, self.draw, self.cell_outcome, self.grants,
            self.resolve,
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
                    n_prio = one_contender(t, rao_index, devs, r_use)
                else:
                    cells, prio_macros, n_prio = draw(t, devs, r_use)
                    detected = cell_outcome(devs, r_use, cells, prio_macros)
                    resolve(t, rao_index, devs, grants(t, detected))
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
        log.total_msg1_tx = sum(self.msg1_count)
        for name, (bits, value) in _CELL_COUNTERS.items():
            setattr(log, name, sum(
                n for code, n in enumerate(self.hist) if code & bits == value
            ))

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

        Returns the occupied cells as `(cells, base)`; the serving macros
        of the priority contenders when a pool is reserved; and the number
        of priority contenders under `drp`, else 0. Without a pool every
        copy draws from the whole preamble range, so the priority lists
        are built only when one is broadcast. `cells` is keyed gnb *
        n_preambles + preamble, so that key order is (gnb, preamble) order.
        Its value packs the cell's first copy as its local index * 16, plus
        8 for a femto copy, with the cell's code bits 1 (a URLLC copy), 2
        (a background copy) and 4 (collided). `base` lists each
        contender's transmission count before this opportunity.
        """
        is_ur, serving, femto = self.is_ur, self.serving, self.femto
        attempts, tx_count, cls = self.attempt_count, self.msg1_count, self.cls
        n_pre = self.n_pre
        n_prio = 0
        if self.drp:
            prio = [is_ur[d] or attempts[d] > 0 for d in devs]
            n_prio = sum(prio)
        elif r_use:
            prio = [is_ur[d] for d in devs]
        base = [tx_count[d] for d in devs]
        dual = []
        if self.pp:  # a femto copy needs two transmissions of budget left
            last = self.max_tx - 2
            dual = [
                j for j, d in enumerate(devs)
                if femto[d] >= 0 and base[j] <= last
            ]
        if r_use:
            pre1 = self._preambles(prio, r_use)
            pre2 = (
                self._preambles([prio[j] for j in dual], r_use) if dual else []
            )
            prio_macros = {serving[d] for d, p in zip(devs, prio) if p}
            self.log.prio_macro_r_sum += r_use * len(prio_macros)
        else:
            pre1 = self.preambles(0, n_pre, len(devs))
            pre2 = self.preambles(0, n_pre, len(dual)) if dual else []
            prio_macros = ()

        cells: dict[int, int] = {}
        claim = cells.setdefault
        trace = self.trace
        for jj, d, pre in zip(range(0, 16 * len(devs), 16), devs, pre1):
            tx_count[d] += 1
            attempts[d] += 1
            key = serving[d] * n_pre + pre
            copy = jj | cls[d]
            held = claim(key, copy)
            if held != copy:
                cells[key] = held | cls[d] | 4
            if trace is not None:
                trace.append((t, d, "msg1", pre, serving[d], attempts[d]))
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
                trace.append((t, d, "msg1", pre, gnb, attempts[d]))
        return (cells, base), prio_macros, n_prio

    def one_contender(
        self, t: int, rao_index: int, devs: list[int], r_use: int
    ) -> int:
        """All phases for an opportunity with one contender; returns 1 if
        it is a priority contender, else 0.

        Nothing can collide: a femto copy goes to another gNB. So each copy
        is a sole copy that takes its detection draw, the macro's first,
        and the earliest grant is the first response subframe at the
        macro if it detected, else at the femto (capacity is at least one
        grant). The draws, cell codes and trace rows are those of `draw`,
        `cell_outcome` and `grants` for a one-element `devs`.
        """
        (d,) = devs
        ur = self.is_ur[d]
        base = self.msg1_count[d]
        attempt = self.attempt_count[d] + 1
        prio = (ur or attempt > 1) if self.drp else (ur and self.rp)
        n_pre = self.n_pre
        lo, hi = 0, n_pre
        if r_use > 0:
            lo, hi = (0, r_use) if prio else (r_use, n_pre)
        draw = self.preamble.integers
        pre = draw(lo, hi)
        femto = self.femto[d]
        dual = self.pp and femto >= 0 and base <= self.max_tx - 2
        if dual:
            pre2 = draw(lo, hi)
        self.msg1_count[d] = base + 1 + dual
        self.attempt_count[d] = attempt

        macro = self.serving[d]
        trace = self.trace
        if trace is not None:
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

        detect, p_detect = self.detection.random, self.p_detect
        gnb = -1
        if detect() < p_detect[base + 1] and (
            not self.sinr_gate or self._sinr_ok(d, macro)
        ):
            gnb = macro
        if dual and detect() < p_detect[base + 2] and gnb < 0:
            gnb = self.n_macro + femto
        rar_at = {0: (t + self.t1 + self.t2, gnb)} if gnb >= 0 else {}
        self.resolve(t, rao_index, devs, rar_at)
        return int(prio)

    def cell_outcome(self, devs, r_use, cells, prio_macros):
        """Count every occupied cell and detect its sole copy, if any.

        Cells are visited in (gnb, preamble) order and each sole copy takes
        one detection draw. A cell's code adds 8 for the reserved pool and
        16 for the reserved pool at a priority macro to the class and
        collision bits of `draw`, and counts once in the run's histogram.
        Returns the detected copies as (gnb, local index) in that order.
        """
        cells, base = cells
        hist = self.hist
        n_pre = self.n_pre
        p_detect = self.p_detect
        draw = self.detection.random
        sinr_gate = self.sinr_gate
        detected = []
        for key in sorted(cells):
            packed = cells[key]
            code = packed & 7
            if r_use and key % n_pre < r_use:
                code |= 24 if key // n_pre in prio_macros else 8
            hist[code] += 1
            if code & 4:
                continue
            j, gnb = packed >> 4, key // n_pre
            if draw() < p_detect[base[j] + 1 + (packed >> 3 & 1)] and (
                not sinr_gate or self._sinr_ok(devs[j], gnb)
            ):
                detected.append((gnb, j))
        return detected

    def _sinr_ok(self, dev: int, gnb: int) -> bool:
        """Optional macro-side SNR gate (`sinr_threshold_db`, off by
        default); a failed gate behaves exactly like a detection miss."""
        cfg = self.scenario.topology
        if gnb >= self.n_macro:
            return True
        dist = max(float(self.serving_dist[dev]), 1e-9)
        pl = path_loss_db(dist, cfg)
        power = ramped_tx_power_dbm(pl, self.attempt_count[dev], cfg)
        return sinr_db(power - pl, cfg) >= cfg.sinr_threshold_db

    def grants(self, t: int, detected) -> dict[int, tuple[int, int]]:
        """RAR grants: per gNB, capacity-limited response subframes.

        A copy ranked past the window's capacity behaves as undetected. A
        dual transmitter keeps its earliest grant, the macro's on an exact
        tie (macro gNB indices sort first). Returns local index ->
        (RAR time, gnb).
        """
        rar_at: dict[int, tuple[int, int]] = {}
        first_rar = t + self.t1 + self.t2
        rank, prev_gnb = 0, -1
        for gnb, j in detected:
            if gnb != prev_gnb:
                rank, prev_gnb = 0, gnb
            slot = rank // self.grants_per_sf
            rank += 1
            if slot >= self.n_slots:
                continue
            key = (first_rar + slot * self.subframe, gnb)
            if j not in rar_at or key < rar_at[j]:
                rar_at[j] = key
        return rar_at

    def resolve(self, t, rao_index, devs, rar_at) -> None:
        """Resolve each contender: success path, or failure with backoff.

        Two passes. The first settles every contender in `devs` order: its
        Msg3, then Msg4, HARQ draws (up to the first at or above
        `harq_fail_prob`, at most `max_harq` each), the outcome and its
        trace rows, with a slot kept for each backoff row. The second takes
        the backoffs of all retries in one bulk draw, in the same order,
        queues them and fills the rows, as a one-pass loop would. Without a
        grant a retry goes to `rao_index + (t1 + t2 + rar_window + ra - 1 +
        bi) // ra` (`t` is a multiple of `ra`, and `t1` is positive, so it
        lands later); a grant holder's fail base, kept in `based`, is
        rounded up to the grid.
        """
        (harq, harq_fail, max_harq, edt, max_tx, t1, t3, t4, cr_timer,
         retry_gap, no_grant_gap, ra, bi_max, all_bi, draws_bi, msg1_count,
         arrival, completion, wait, msg2, msg3, msg4, buckets, backoffs,
         trace) = self.resolve_args
        last = self.last_resolution
        msg1_end = t + t1
        retry = []  # retrying contenders, in `devs` order
        slots = []  # their trace rows, when tracing
        based = None  # grant holder -> fail base, for those that retry
        for j, dev in enumerate(devs):
            grant = rar_at.get(j)
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
                            fail_base = rar_time + max_harq * t3
                            break
                        k3 += 1
                    else:
                        k4 = 1
                        while harq() < harq_fail:  # Msg4 transmission k4 lost
                            if k4 == max_harq:
                                fail_base = rar_time + k3 * t3 + max_harq * t4
                                break
                            k4 += 1
                        else:
                            if k3 * t3 + k4 * t4 <= cr_timer:
                                done = rar_time + k3 * t3 + k4 * t4
                                msg3[dev], msg4[dev] = k3 * t3, k4 * t4
                            else:
                                fail_base = rar_time + cr_timer
                if done >= 0:
                    completion[dev] = done
                    wait[dev] = t - arrival[dev]
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
            retry.append(dev)
            if grant is not None:
                based = based or {}
                based[dev] = fail_base
            if trace is not None:
                slots.append(len(trace))
                trace.append(None)
        self.last_resolution = last
        if not retry:
            return

        if all_bi:
            bis = backoffs(0, bi_max + 1, len(retry))
        else:
            drawn = iter(backoffs(0, bi_max + 1, sum(
                draws_bi[dev] for dev in retry
            )))
            bis = [next(drawn) if draws_bi[dev] else 0 for dev in retry]
        if based is None and trace is None:
            for dev, bi in zip(retry, bis):
                buckets[rao_index + (no_grant_gap + bi) // ra].append(dev)
            return
        based = based or {}
        for i, (dev, bi) in enumerate(zip(retry, bis)):
            next_eligible = based.get(dev, msg1_end) + retry_gap + bi
            buckets[-(-next_eligible // ra)].append(dev)
            if trace is not None:
                trace[slots[i]] = (next_eligible, dev, "backoff", -1, -1, 0)
