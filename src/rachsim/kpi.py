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
the pooled success count reaches 100 000; below that it is absent.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .config import scenario_fingerprint
from .engine import OpportunityLog, RunResult

PERCENTILE_LEVELS = (50.0, 95.0, 99.0, 99.99)
DEEP_PERCENTILE_MIN_SAMPLES = 100_000

REPORT_COLUMNS = (
    "n_seeds",
    "n_devices",
    "n_urllc",
    "n_success",
    "n_failed",
    "success_rate",
    "n_opportunities",
    "n_gnbs",
    "n_preambles",
    "mean_msg1",
    "collision_overall",
    "collision_urllc",
    "collision_non_urllc",
    "util_overall",
    "util_reserved",
    "util_contention",
    "util_reserved_priority",
    "mean_delay_ms",
    "delay_p50_ms",
    "delay_p95_ms",
    "delay_p99_ms",
    "delay_p9999_ms",
    "mean_delay_urllc_ms",
    "mean_delay_non_urllc_ms",
    "urllc_delay_p9999_ms",
)


class KpiError(Exception):
    """Base for KPI computation failures."""


class EmptyObservationError(KpiError):
    """Ratio requested over an empty observation period."""


class NoSuccessError(KpiError):
    """Delay statistics requested with zero successful records."""


class MergeMismatchError(KpiError):
    """Reports from differing scenarios cannot be pooled."""


@dataclass
class KpiReport:
    """Pooled KPI counters for one scenario across one or more seeds."""

    fingerprint: str
    time_scale: Fraction
    n_seeds: int = 0
    n_devices: int = 0
    n_urllc: int = 0
    n_success: int = 0
    n_success_urllc: int = 0
    n_failed: int = 0
    n_opportunities: int = 0
    n_gnbs: int = 0
    n_preambles: int = 0
    total_msg1: int = 0
    used_cells: int = 0
    collided_cells: int = 0
    used_urllc: int = 0
    used_non_urllc: int = 0
    collided_urllc: int = 0
    collided_non_urllc: int = 0
    used_reserved: int = 0
    used_contention: int = 0
    collided_reserved: int = 0
    used_reserved_urllc: int = 0
    used_reserved_non_urllc: int = 0
    used_contention_urllc: int = 0
    used_contention_non_urllc: int = 0
    sum_r: int = 0
    sum_pool_urllc: int = 0
    sum_pool_non_urllc: int = 0
    prio_macro_r_sum: int = 0
    used_reserved_at_prio_macro: int = 0
    r_max: int = 0
    delay_hist: Counter = field(default_factory=Counter)
    delay_hist_urllc: Counter = field(default_factory=Counter)
    delay_hist_non_urllc: Counter = field(default_factory=Counter)

    # -- derived ratios -------------------------------------------------

    @property
    def success_rate(self) -> float:
        return self.n_success / self.n_devices if self.n_devices else 0.0

    @property
    def mean_msg1_count(self) -> float:
        return self.total_msg1 / self.n_devices if self.n_devices else 0.0

    def _cells_total(self) -> int:
        return self.n_preambles * self.n_opportunities * self.n_gnbs

    def collision_probability(self, klass: str = "overall") -> float:
        """Collided-cell ratio; klass is overall, urllc, or non_urllc.

        Class ratios are normalized to the preamble pool available to
        that class on each subframe (the reserved pool for the priority
        class when a reservation is active, its complement otherwise).
        """
        if self.n_opportunities == 0:
            raise EmptyObservationError(
                "collision probability is undefined over an empty "
                "observation period"
            )
        if klass == "overall":
            return self.collided_cells / self._cells_total()
        if klass == "urllc":
            denom = self.sum_pool_urllc * self.n_gnbs
            return self.collided_urllc / denom if denom else 0.0
        if klass == "non_urllc":
            denom = self.sum_pool_non_urllc * self.n_gnbs
            return self.collided_non_urllc / denom if denom else 0.0
        raise ValueError(f"unknown class {klass!r}")

    def preamble_utilization(self) -> dict[str, float | None]:
        """Used-cell ratios per pool; absent pools map to None.

        reserved / contention split the preamble space by the per-subframe
        reservation size; reserved_priority conditions the reserved-pool
        ratio on (subframe, gNB) pairs where at least one priority device
        actually transmitted to that gNB, which is the serving-side view
        of how full the reserved slice runs under load.
        """
        if self.n_opportunities == 0:
            raise EmptyObservationError(
                "utilization is undefined over an empty observation period"
            )
        total = self._cells_total()
        res_slots = self.sum_r * self.n_gnbs
        con_slots = total - res_slots
        out: dict[str, float | None] = {
            "overall": self.used_cells / total,
            "reserved": self.used_reserved / res_slots if res_slots else None,
            "contention": (
                self.used_contention / con_slots if con_slots else None
            ),
            "reserved_priority": (
                self.used_reserved_at_prio_macro / self.prio_macro_r_sum
                if self.prio_macro_r_sum
                else None
            ),
            "urllc": (
                self.used_urllc / (self.sum_pool_urllc * self.n_gnbs)
                if self.sum_pool_urllc
                else None
            ),
            "non_urllc": (
                self.used_non_urllc / (self.sum_pool_non_urllc * self.n_gnbs)
                if self.sum_pool_non_urllc
                else None
            ),
        }
        return out

    # -- delay statistics -----------------------------------------------

    def _hist(self, klass: str) -> Counter:
        if klass == "all":
            return self.delay_hist
        if klass == "urllc":
            return self.delay_hist_urllc
        if klass == "non_urllc":
            return self.delay_hist_non_urllc
        raise ValueError(f"unknown class {klass!r}")

    def _ticks_to_ms(self, ticks: int) -> float:
        return float(Fraction(ticks) * self.time_scale / 56)

    def mean_access_delay_ms(self, klass: str = "all") -> float:
        hist = self._hist(klass)
        total = sum(hist.values())
        if total == 0:
            raise NoSuccessError(f"no successful {klass} records")
        ticks = sum(t * c for t, c in hist.items())
        return self._ticks_to_ms(ticks) / total

    def delay_percentile_ms(self, p: float, klass: str = "all") -> float:
        """Smallest delay whose empirical CDF reaches p percent."""
        hist = self._hist(klass)
        total = sum(hist.values())
        if total == 0:
            raise NoSuccessError(f"no successful {klass} records")
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        k = max(1, math.ceil(p / 100.0 * total))
        cum = 0
        for tick in sorted(hist):
            cum += hist[tick]
            if cum >= k:
                return self._ticks_to_ms(tick)
        return self._ticks_to_ms(max(hist))

    def delay_percentiles(self, klass: str = "all") -> dict[float, float | None]:
        """The standard percentile map; the 99.99th gates on sample depth."""
        hist = self._hist(klass)
        total = sum(hist.values())
        if total == 0:
            raise NoSuccessError(f"no successful {klass} records")
        out: dict[float, float | None] = {}
        for p in PERCENTILE_LEVELS:
            if p == 99.99 and total < DEEP_PERCENTILE_MIN_SAMPLES:
                out[p] = None
            else:
                out[p] = self.delay_percentile_ms(p, klass)
        return out

    def cdf_points(self, klass: str = "all") -> list[tuple[float, float]]:
        """Empirical CDF support points as (delay_ms, cumulative_prob)."""
        hist = self._hist(klass)
        total = sum(hist.values())
        if total == 0:
            raise NoSuccessError(f"no successful {klass} records")
        points = []
        cum = 0
        for tick in sorted(hist):
            cum += hist[tick]
            points.append((self._ticks_to_ms(tick), cum / total))
        return points

    # -- serialization ---------------------------------------------------

    def csv_row(self) -> str:
        util = (
            self.preamble_utilization()
            if self.n_opportunities
            else {
                "overall": None,
                "reserved": None,
                "contention": None,
                "reserved_priority": None,
            }
        )
        try:
            coll = {
                "overall": self.collision_probability(),
                "urllc": self.collision_probability("urllc"),
                "non_urllc": self.collision_probability("non_urllc"),
            }
        except EmptyObservationError:
            coll = {"overall": None, "urllc": None, "non_urllc": None}

        def delays(klass: str) -> dict[float, float | None]:
            try:
                return self.delay_percentiles(klass)
            except NoSuccessError:
                return {p: None for p in PERCENTILE_LEVELS}

        def mean(klass: str) -> float | None:
            try:
                return self.mean_access_delay_ms(klass)
            except NoSuccessError:
                return None

        pc = delays("all")
        pc_ur = delays("urllc")
        values = [
            self.n_seeds,
            self.n_devices,
            self.n_urllc,
            self.n_success,
            self.n_failed,
            self.success_rate,
            self.n_opportunities,
            self.n_gnbs,
            self.n_preambles,
            self.mean_msg1_count,
            coll["overall"],
            coll["urllc"],
            coll["non_urllc"],
            util["overall"],
            util["reserved"],
            util["contention"],
            util["reserved_priority"],
            mean("all"),
            pc[50.0],
            pc[95.0],
            pc[99.0],
            pc[99.99],
            mean("urllc"),
            mean("non_urllc"),
            pc_ur[99.99],
        ]
        return ",".join(_fmt(v) for v in values)

    def format_table(self) -> str:
        lines = [
            f"seeds pooled      : {self.n_seeds}",
            f"devices           : {self.n_devices}"
            f" ({self.n_urllc} priority)",
            f"successes         : {self.n_success}"
            f" (rate {self.success_rate:.6f})",
            f"failures          : {self.n_failed}",
            f"opportunities     : {self.n_opportunities}"
            f" x {self.n_gnbs} gNB x {self.n_preambles} preambles",
            f"mean Msg1 per dev : {self.mean_msg1_count:.4f}",
        ]
        try:
            lines.append(
                "collision         : "
                f"{self.collision_probability() * 100:.4f}%"
            )
        except EmptyObservationError:
            lines.append("collision         : undefined (empty period)")
        try:
            util = self.preamble_utilization()
            for key in ("overall", "reserved", "reserved_priority"):
                v = util[key]
                shown = "absent" if v is None else f"{v * 100:.2f}%"
                lines.append(f"utilization {key:<17}: {shown}")
        except EmptyObservationError:
            pass
        try:
            pc = self.delay_percentiles()
            lines.append(
                f"mean delay        : {self.mean_access_delay_ms():.3f} ms"
            )
            for p in PERCENTILE_LEVELS:
                v = pc[p]
                shown = (
                    "needs 1e5 pooled successes"
                    if v is None
                    else f"{v:.3f} ms"
                )
                lines.append(f"delay p{p:<10}: {shown}")
        except NoSuccessError:
            lines.append("delay             : no successful records")
        return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def csv_header() -> str:
    return ",".join(REPORT_COLUMNS)


def build_report(result: RunResult) -> KpiReport:
    """Fold one run's device columns and opportunity log into a report."""
    scenario = result.scenario
    log = result.log
    urllc = result.urllc
    done = result.completion_ticks
    success = done >= 0
    delay = done - result.first_attempt_ticks
    n_success = int(success.sum())
    return KpiReport(
        fingerprint=scenario_fingerprint(scenario),
        time_scale=result.time_scale,
        n_seeds=1,
        n_devices=len(urllc),
        n_urllc=int(urllc.sum()),
        n_success=n_success,
        n_success_urllc=int((success & urllc).sum()),
        n_failed=len(urllc) - n_success,
        total_msg1=int(result.msg1_count.sum()),
        n_opportunities=log.n_raos,
        **{name: getattr(log, name) for name in _LOG_COUNTERS},
        delay_hist=_histogram(delay[success]),
        delay_hist_urllc=_histogram(delay[success & urllc]),
        delay_hist_non_urllc=_histogram(delay[success & ~urllc]),
    )


def _histogram(ticks: np.ndarray) -> Counter:
    """Counter of int tick values."""
    values, counts = np.unique(ticks, return_counts=True)
    return Counter(dict(zip(values.tolist(), counts.tolist())))


def merge(reports) -> KpiReport:
    """Pool reports from multiple seeds of the same scenario.

    Count-weighted, commutative and associative; merging a report with
    itself doubles every count and leaves every ratio unchanged.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    out = None
    for rep in reports:
        out = _merge2(out, rep) if out is not None else _copy(rep)
    return out


def _copy(rep: KpiReport) -> KpiReport:
    dup = KpiReport(fingerprint=rep.fingerprint, time_scale=rep.time_scale)
    _add_into(dup, rep)
    return dup


def _merge2(a: KpiReport, b: KpiReport) -> KpiReport:
    if a.fingerprint != b.fingerprint:
        raise MergeMismatchError(
            "cannot pool reports from different scenarios"
        )
    out = _copy(a)
    _add_into(out, b)
    return out


# Every int counter pools by sum, except these, which pool by max.
_MAX_FIELDS = ("n_gnbs", "n_preambles", "r_max")
_SUM_FIELDS = tuple(
    f.name
    for f in fields(KpiReport)
    if f.type in ("int", int) and f.name not in _MAX_FIELDS
)
# OpportunityLog counters that a report carries under the same name.
_LOG_COUNTERS = tuple(
    f.name
    for f in fields(OpportunityLog)
    if f.name in {g.name for g in fields(KpiReport)}
)


def _add_into(dst: KpiReport, src: KpiReport) -> None:
    for name in _SUM_FIELDS:
        setattr(dst, name, getattr(dst, name) + getattr(src, name))
    for name in _MAX_FIELDS:
        setattr(dst, name, max(getattr(dst, name), getattr(src, name)))
    dst.delay_hist.update(src.delay_hist)
    dst.delay_hist_urllc.update(src.delay_hist_urllc)
    dst.delay_hist_non_urllc.update(src.delay_hist_non_urllc)

