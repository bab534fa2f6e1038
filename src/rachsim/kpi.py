"""KPI computation and multi-seed aggregation.

Three KPI families are derived from a finished run: collision probability
(share of opportunity cells, meaning (RA subframe, gNB, preamble) triples,
hit by two or more devices), preamble utilization (share of opportunity
cells hit by at least one device, per pool and per class), and the access
delay distribution (first RA attempt to completion, successes only).

Reports keep raw counters and integer tick histograms rather than derived
floats, so merging across seeds is exact: every ratio of a pooled report
is the count-weighted ratio of its parts, and deep percentiles are read
from the pooled histogram. The 99.99th percentile is only reported once
the pooled success count reaches 100 000; below that it is absent. The
two class histograms are the stored partition of the successes: the
failure count is derived, and the all-class delay figures read the two
pooled. `kpis()` reads every delay column through its public method.

A figure without a basis is None in every method, as in `kpis()` and the
blank report.csv cells: a ratio over an empty observation period or an
absent pool, or a delay figure of a class with no successes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter

import numpy as np

from .config import Scenario, scenario_with
from .engine import OpportunityLog, RunResult, pooled_by
from .timebase import ticks_to_ms

PERCENTILE_LEVELS = (50.0, 95.0, 99.0, 99.99)
DEEP_PERCENTILE_MIN_SAMPLES = 100_000


class MergeMismatchError(Exception):
    """Reports from differing scenarios cannot be pooled."""


def _ratio(num: float, den: int) -> float | None:
    return num / den if den else None


_EMPTY = np.zeros((2, 0), dtype=np.int64)  # the histogram of no samples
_EMPTY.flags.writeable = False


def _frozen(ticks, counts) -> np.ndarray:
    """The read-only (2, k) int64 histogram of the ascending `ticks` over
    their `counts`; every empty histogram is _EMPTY."""
    if not len(ticks):
        return _EMPTY
    hist = np.array((ticks, counts), dtype=np.int64)
    hist.flags.writeable = False
    return hist


def _histogram(ticks: np.ndarray) -> np.ndarray:
    return _frozen(*np.unique(ticks, return_counts=True))


def _pooled(hists) -> list[list[int]]:
    """The union of the samples of `hists` as two lists, the ascending
    ticks and their counts, in one pass: concatenate, sum the counts of
    each tick, sort the ticks. A lone non-empty histogram is read as it
    is; no input is written."""
    hists = [h for h in hists if h.shape[1]]
    if len(hists) <= 1:
        return (hists[0] if hists else _EMPTY).tolist()
    pooled = {}
    for tick, count in zip(*np.concatenate(hists, axis=1).tolist()):
        pooled[tick] = pooled.get(tick, 0) + count
    ticks = sorted(pooled)
    return [ticks, [pooled[tick] for tick in ticks]]


def _histogram_field():
    """A class histogram: empty by default, pooled through `_pooled`."""
    return pooled_by(
        lambda hists: _frozen(*_pooled(hists)), default_factory=lambda: _EMPTY
    )


@dataclass(kw_only=True, slots=True)
class KpiReport(OpportunityLog):
    """Pooled KPI counters for one scenario across one or more seeds.

    The contention counters are the `OpportunityLog` fields, under the
    log's names; a report adds the per-device counts and the delay
    histograms of the two classes. Each histogram is a (2, k) int64 array,
    read-only as built: the ascending distinct delays in ticks, then their
    positive counts, and stays read-only through pickling and copying.
    The class histograms partition the successes, so `n_failed` is
    derived, not stored. `scenario` is the run's with its seed masked to
    0, the identity that `merge` pools by. Every field, the log's
    included, is a slot and states how `merge` pools it: `scenario` and
    `time_scale` keep the first report's, the histograms pool through
    `_pooled`, the rest sum.
    """

    scenario: Scenario = pooled_by(next)
    time_scale: Fraction = pooled_by(next)
    n_seeds: int = 0
    n_devices: int = 0
    n_urllc: int = 0
    n_success: int = 0
    n_success_urllc: int = 0
    delay_hist_urllc: np.ndarray = _histogram_field()
    delay_hist_non_urllc: np.ndarray = _histogram_field()

    def __eq__(self, other):  # field by field, arrays by their values
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    def __setstate__(self, state):  # numpy pickles no writeable flag
        for name, value in state[1].items():
            setattr(self, name, value)
        self.delay_hist_urllc.flags.writeable = False
        self.delay_hist_non_urllc.flags.writeable = False

    @property
    def n_failed(self) -> int:
        return self.n_devices - self.n_success

    # -- derived ratios -------------------------------------------------

    @property
    def success_rate(self) -> float:
        return self.n_success / self.n_devices if self.n_devices else 0.0

    @property
    def mean_msg1_count(self) -> float:
        return self.total_msg1_tx / self.n_devices if self.n_devices else 0.0

    def _cells_total(self) -> int:
        return self.n_preambles * self.n_raos * self.n_gnbs

    def collision_probability(self, klass: str = "overall") -> float | None:
        """Collided-cell ratio; klass is overall, urllc, or non_urllc.

        Class ratios are normalized to the preamble pool available to
        that class on each subframe (the reserved pool for the priority
        class when a reservation is active, its complement otherwise).
        None over an empty observation period.
        """
        if klass == "overall":
            return _ratio(self.collided_cells, self._cells_total())
        if klass == "urllc":
            return _ratio(
                self.collided_urllc, self.sum_pool_urllc * self.n_gnbs
            )
        if klass == "non_urllc":
            return _ratio(
                self.collided_non_urllc, self.sum_pool_non_urllc * self.n_gnbs
            )
        raise ValueError(f"unknown class {klass!r}")

    def preamble_utilization(self) -> dict[str, float | None]:
        """Used-cell ratios per pool; absent pools, and every pool over an
        empty observation period, map to None.

        reserved / contention split the preamble space by the per-subframe
        reservation size; reserved_priority conditions the reserved-pool
        ratio on (subframe, gNB) pairs where at least one priority device
        actually transmitted to that gNB, which is the serving-side view
        of how full the reserved slice runs under load.
        """
        total = self._cells_total()
        res_slots = self.sum_r * self.n_gnbs
        return {
            "overall": _ratio(self.used_cells, total),
            "reserved": _ratio(self.used_reserved, res_slots),
            "contention": _ratio(self.used_contention, total - res_slots),
            "reserved_priority": _ratio(
                self.used_reserved_at_prio_macro, self.prio_macro_r_sum
            ),
            "urllc": _ratio(
                self.used_urllc, self.sum_pool_urllc * self.n_gnbs
            ),
            "non_urllc": _ratio(
                self.used_non_urllc, self.sum_pool_non_urllc * self.n_gnbs
            ),
        }

    # -- delay statistics -----------------------------------------------

    def _hist(self, klass: str) -> tuple[list[int], list[int], int]:
        """The delay histogram of klass (all, urllc, or non_urllc) as its
        ascending ticks, their counts and the sum of the counts."""
        urllc, non_urllc = self.delay_hist_urllc, self.delay_hist_non_urllc
        hists = {"all": (urllc, non_urllc), "urllc": (urllc,),
                 "non_urllc": (non_urllc,)}.get(klass)
        if hists is None:
            raise ValueError(f"unknown class {klass!r}")
        ticks, counts = _pooled(hists)
        return ticks, counts, sum(counts)

    def _percentiles_ms(self, levels, hist) -> dict[float, float]:
        """The smallest delay whose empirical CDF reaches each of the
        ascending `levels` percent, read in one walk up `hist`; empty when
        it holds no successes."""
        ticks, counts, total = hist
        if not total:
            return {}
        bins = zip(ticks, counts)
        out = {}
        cum = 0
        for p in levels:
            k = max(1, math.ceil(p / 100.0 * total))
            while cum < k:
                tick, count = next(bins)
                cum += count
            out[p] = ticks_to_ms(tick, self.time_scale)
        return out

    def mean_access_delay_ms(self, klass: str = "all") -> float | None:
        """Mean delay of the class's successes; None when it has none."""
        ticks, counts, total = self._hist(klass)
        ticks_sum = sum(t * c for t, c in zip(ticks, counts))
        return _ratio(ticks_to_ms(ticks_sum, self.time_scale), total)

    def delay_percentile_ms(self, p: float, klass: str = "all") -> float | None:
        """Smallest delay whose empirical CDF reaches p percent; None when
        the class has no successes."""
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        return self._percentiles_ms((p,), self._hist(klass)).get(p)

    def delay_percentiles(self, klass: str = "all") -> dict[float, float | None]:
        """The standard percentile map; the 99.99th, the last level, also
        needs DEEP_PERCENTILE_MIN_SAMPLES successes of the class."""
        hist = self._hist(klass)
        levels = PERCENTILE_LEVELS
        if hist[2] < DEEP_PERCENTILE_MIN_SAMPLES:
            levels = levels[:-1]
        found = self._percentiles_ms(levels, hist)
        return dict.fromkeys(PERCENTILE_LEVELS) | found

    def cdf_points(self, klass: str = "all") -> list[tuple[float, float]]:
        """Empirical CDF support points as (delay_ms, cumulative_prob);
        empty when the class has no successes."""
        ticks, counts, total = self._hist(klass)
        return [
            (ticks_to_ms(tick, self.time_scale), cum / total)
            for tick, cum in zip(ticks, accumulate(counts))
        ]

    # -- the report table ------------------------------------------------

    def kpis(self) -> dict[str, int | float | None]:
        """Every reported figure, keyed by its report.csv column, in
        column order.

        A figure is None where the CSV leaves it blank: where its method
        returns None, and for a 99.99th percentile below
        DEEP_PERCENTILE_MIN_SAMPLES pooled successes of its class.
        """
        util = self.preamble_utilization()
        pc = self.delay_percentiles()
        return {
            "n_seeds": self.n_seeds,
            "n_devices": self.n_devices,
            "n_urllc": self.n_urllc,
            "n_success": self.n_success,
            "n_failed": self.n_failed,
            "success_rate": self.success_rate,
            "n_opportunities": self.n_raos,
            "n_gnbs": self.n_gnbs,
            "n_preambles": self.n_preambles,
            "mean_msg1": self.mean_msg1_count,
            "collision_overall": self.collision_probability("overall"),
            "collision_urllc": self.collision_probability("urllc"),
            "collision_non_urllc": self.collision_probability("non_urllc"),
            "util_overall": util["overall"],
            "util_reserved": util["reserved"],
            "util_contention": util["contention"],
            "util_reserved_priority": util["reserved_priority"],
            "mean_delay_ms": self.mean_access_delay_ms(),
            "delay_p50_ms": pc[50.0],
            "delay_p95_ms": pc[95.0],
            "delay_p99_ms": pc[99.0],
            "delay_p9999_ms": pc[99.99],
            "mean_delay_urllc_ms": self.mean_access_delay_ms("urllc"),
            "mean_delay_non_urllc_ms": self.mean_access_delay_ms("non_urllc"),
            "urllc_delay_p9999_ms": self.delay_percentiles("urllc")[99.99],
        }

    def csv_row(self) -> str:
        return ",".join(_fmt(v) for v in self.kpis().values())

    def format_table(self) -> str:
        k = self.kpis()
        lines = [
            f"seeds pooled      : {self.n_seeds}",
            f"devices           : {self.n_devices}"
            f" ({self.n_urllc} priority)",
            f"successes         : {self.n_success}"
            f" (rate {k['success_rate']:.6f})",
            f"failures          : {self.n_failed}",
            f"opportunities     : {self.n_raos}"
            f" x {self.n_gnbs} gNB x {self.n_preambles} preambles",
            f"mean Msg1 per dev : {k['mean_msg1']:.4f}",
        ]
        if not self.n_raos:
            lines.append("collision         : undefined (empty period)")
        else:
            lines.append(
                f"collision         : {k['collision_overall'] * 100:.4f}%"
            )
            for key in ("overall", "reserved", "reserved_priority"):
                v = k[f"util_{key}"]
                shown = "absent" if v is None else f"{v * 100:.2f}%"
                lines.append(f"utilization {key:<17}: {shown}")
        if not self.n_success:
            lines.append("delay             : no successful records")
            return "\n".join(lines)
        lines.append(f"mean delay        : {k['mean_delay_ms']:.3f} ms")
        for p in PERCENTILE_LEVELS:
            # delay_p50_ms ... delay_p9999_ms
            v = k[f"delay_p{p:g}_ms".replace(".", "")]
            shown = (
                "needs 1e5 pooled successes" if v is None else f"{v:.3f} ms"
            )
            lines.append(f"delay p{p:<10}: {shown}")
        return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


# The column names, in order, as `KpiReport.kpis` keys them.
REPORT_COLUMNS = tuple(
    KpiReport(scenario=Scenario(), time_scale=Fraction(1)).kpis()
)


def csv_header() -> str:
    return ",".join(REPORT_COLUMNS)


def build_report(result: RunResult) -> KpiReport:
    """Fold one run's device columns and opportunity log into a report."""
    log = result.log
    urllc = result.urllc
    done = result.completion_ticks
    success = done >= 0
    delay = done - result.first_attempt_ticks
    return KpiReport(
        scenario=scenario_with(result.scenario, seed=0),
        time_scale=result.time_scale,
        n_seeds=1,
        n_devices=len(urllc),
        n_urllc=int(urllc.sum()),
        n_success=int(success.sum()),
        n_success_urllc=int((success & urllc).sum()),
        **{f.name: getattr(log, f.name) for f in fields(OpportunityLog)},
        delay_hist_urllc=_histogram(delay[success & urllc]),
        delay_hist_non_urllc=_histogram(delay[success & ~urllc]),
    )


def merge(reports) -> KpiReport:
    """Pool reports from multiple seeds of the same scenario, each field
    by the rule it declares (`engine.pooled_by`; without one it sums):
    count-weighted, commutative and associative. Merging a report with
    itself doubles every count and leaves every ratio unchanged. No input
    is written. Reports whose seed-masked scenarios differ raise
    `MergeMismatchError`.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    if any(rep.scenario != first.scenario for rep in reports):
        raise MergeMismatchError(
            "cannot pool reports from different scenarios"
        )
    return KpiReport(**{
        f.name: f.metadata.get("pool", sum)(map(attrgetter(f.name), reports))
        for f in fields(KpiReport)
    })
