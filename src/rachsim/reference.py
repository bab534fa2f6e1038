"""Reference scenarios, the reference entries as data, and their scoring.

The shipped reference set encodes the target values this simulator is
validated against, grouped by opaque table ids (II through VII plus FIG6).
`ENTRIES` maps each table id to its entries in output order. Most entries
are `Row`s: a frozen scenario and seed list, the report.csv column read
off the pooled report, a check (an absolute or relative band around the
target, or a `<=` / `>=` bound), the value format, a description and
whether the entry is a gate. One scorer turns any row into an
`EntryResult`; adding an entry means adding a row. Deep tail entries
(99.99th percentiles) carry seed lists long enough to pool at least
100 000 successes of the class being measured.

Seven entries read several pooled scenarios at once: the collision
spreads of FIG6 and V, the monotone rows of III and VI, the reduction of
III and the delay grid of V. Each is a small derived check placed in its
table among the rows.

Eight gated entries, across tables II, FIG6, VI and VII, are known to
fail against a faithful implementation of the documented contention
mechanics; they are kept as honest gates rather than being tuned around.
See the validation section of the README for the cause of each.
`run_validation` therefore exits red on the full suite by design, while
the other 27 gates, the group-II collision and delay rows among them,
pass.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass

from .config import (
    Scenario,
    TopologyConfig,
    scenario_with,
)
from .engine import run
from .kpi import KpiReport, build_report, merge
from .timebase import SUBCARRIER_SPACINGS_KHZ, SYMBOLS_PER_SLOT, Numerology

SEEDS_10 = tuple(range(1, 11))
SEEDS_20 = tuple(range(1, 21))
SEEDS_21 = tuple(range(1, 22))
# 405 x ~250 priority successes per run pools >= 1e5 samples for the
# deep-percentile gate, with margin for the rare failed device.
SEEDS_DEEP = tuple(range(1, 406))
GRID_SEEDS = (1, 2, 3)

_SINGLE_MACRO = TopologyConfig(n_macro_cells=1)
# Dense small-cell overlay: three macro cells with enough wide femtos that
# essentially every device has a secondary gNB. Used by the deep-tail
# scenarios, where full dual coverage and burst-splitting across macros
# are both load-bearing.
_DENSE_OVERLAY = TopologyConfig(
    n_macro_cells=3, n_femto_cells=75, femto_radius_m=49.0
)


# (femto count, collision target) of the femto sweep, and the static
# reserved-pool sizes.
_FEMTO_TARGETS = (
    (0, 0.0048), (5, 0.0042), (8, 0.0034), (10, 0.0026), (12, 0.0022)
)
_RESERVED = (1, 2, 3, 4, 5)


def _femto_sweep_topology(n_femto: int) -> TopologyConfig:
    return TopologyConfig(
        n_macro_cells=1, n_femto_cells=n_femto, femto_radius_m=10.0
    )


def _base(**kw) -> Scenario:
    kw.setdefault("n_devices", 5000)
    kw.setdefault("urllc_fraction", 1.0)
    kw.setdefault("topology", _SINGLE_MACRO)
    kw.setdefault("seed", 1)
    return Scenario(**kw)


def _build_scenarios() -> dict[str, Scenario]:
    out: dict[str, Scenario] = {
        "baseline-5k": _base(),
        "baseline-10k": _base(n_devices=10000),
        "edt-5k": _base(enhancements=frozenset({"edt"})),
        "edt-pp": _base(
            enhancements=frozenset({"edt", "pp"}), topology=_DENSE_OVERLAY
        ),
        "edt-pp-ebf": _base(
            enhancements=frozenset({"edt", "pp", "ebf"}),
            topology=_DENSE_OVERLAY,
        ),
        "baseline-mixed": _base(
            urllc_fraction=0.05, topology=TopologyConfig(n_macro_cells=3)
        ),
        "drp-mixed": _base(
            urllc_fraction=0.05,
            enhancements=frozenset({"edt", "drp", "ebf", "pp"}),
            reserved_r="dynamic",
            topology=_DENSE_OVERLAY,
        ),
        "rp5-mixed-dense": _base(
            urllc_fraction=0.05,
            enhancements=frozenset({"edt", "rp", "ebf", "pp"}),
            reserved_r=5,
            topology=_DENSE_OVERLAY,
        ),
    }
    for n_femto, _ in _FEMTO_TARGETS:
        out[f"pp-femto-{n_femto}"] = _base(
            enhancements=frozenset({"pp"}),
            topology=_femto_sweep_topology(n_femto),
        )
    for r in _RESERVED:
        out[f"rp-r{r}"] = _base(
            urllc_fraction=0.05,
            enhancements=frozenset({"rp"}),
            reserved_r=r,
        )
    for scs in SUBCARRIER_SPACINGS_KHZ:
        for sym in SYMBOLS_PER_SLOT:
            out[f"numerology-{scs}-{sym}"] = _base(
                numerology=Numerology(scs, sym)
            )
    return out


REFERENCE_SCENARIOS: dict[str, Scenario] = _build_scenarios()


@dataclass(frozen=True)
class EntryResult:
    entry_id: str
    table: str
    gate: bool
    passed: bool
    measured: str
    expected: str
    description: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        kind = "" if self.gate else " (info)"
        return (
            f"{verdict}{kind:7s} {self.entry_id:<28s} "
            f"measured {self.measured:<14s} expected {self.expected}"
        )


# -- replication machinery ------------------------------------------------


def _report_for(item: tuple[Scenario, int]) -> KpiReport:
    scenario, seed = item
    return build_report(run(scenario_with(scenario, seed=seed)))


def replicate(
    work: list[tuple[Scenario, int]], jobs: int | None = None
) -> list[KpiReport]:
    """One report per (scenario, seed) pair, in the order of `work`.

    The pairs are independent, so they fan out over one process pool of
    `jobs` workers (the CPU count when unset), or run in this process at
    `jobs == 1`. The output order is that of `work` for any job count, so
    every report merged from it is the same to the byte.
    """
    jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
    if jobs == 1 or len(work) <= 1:
        return [_report_for(item) for item in work]
    from concurrent.futures import ProcessPoolExecutor  # ~16 ms to import

    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        return list(pool.map(_report_for, work))


_POOL_CACHE: dict[tuple[str, tuple[int, ...]], KpiReport] = {}


def pooled_report(
    name: str,
    seeds: tuple[int, ...],
    jobs: int | None = None,
    log=None,
) -> KpiReport:
    """Run `name` once per seed and merge; memoized per (name, seeds).

    `log` gets one line when a pool starts and one with its wall time
    when it is merged; a memoized pool logs none.
    """
    key = (name, tuple(seeds))
    if key not in _POOL_CACHE:
        what = f"{name} over {len(seeds)} seed(s)"
        if log:
            log(f"running {what}")
        t0 = time.perf_counter()
        scenario = REFERENCE_SCENARIOS[name]
        work = [(scenario, s) for s in seeds]
        _POOL_CACHE[key] = merge(replicate(work, jobs))
        if log:
            log(f"ran {what} in {time.perf_counter() - t0:.2f} s")
    return _POOL_CACHE[key]


# -- value formats ------------------------------------------------------------


def _pct(x: float | None) -> str:
    return "absent" if x is None else f"{x * 100:.4g}%"


def _pct1(x: float | None) -> str:
    return "absent" if x is None else f"{x * 100:.1f}%"


def _ms(x: float | None) -> str:
    return "absent" if x is None else f"{x:.4g} ms"


def _num(x: float | None) -> str:
    return "absent" if x is None else f"{x:.4g}"


# pool(scenario name, the entry's seed list) -> pooled report
Pool = Callable[[str, tuple[int, ...]], KpiReport]


# -- the entries --------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One reference entry read off one pooled scenario.

    `kpi` names the report.csv column (a `KpiReport.kpis` key) that the
    entry reads. `check` is "abs" (|measured - target| <= tol), "rel"
    (the same with tol a fraction of the target), "<=" or ">=" (tol
    unused).
    """

    entry_id: str
    scenario: str
    seeds: tuple[int, ...]
    kpi: str
    check: str
    target: float
    tol: float | None
    fmt: Callable[[float | None], str]
    description: str
    gate: bool = True


def _score(table: str, row: Row, pool: Pool) -> EntryResult:
    """Measure `row` on its pooled scenario and judge it."""
    measured = pool(row.scenario, row.seeds).kpis()[row.kpi]
    target, tol, fmt = row.target, row.tol, row.fmt
    if row.check in ("<=", ">="):
        ok = measured is not None and (
            measured <= target if row.check == "<=" else measured >= target
        )
        shown = f"{row.check} {fmt(target)}"
    else:
        band = tol if row.check == "abs" else abs(target) * tol
        ok = measured is not None and abs(measured - target) <= band
        shown = (
            f"{fmt(target)} +-{fmt(tol)}"
            if row.check == "abs"
            else f"{fmt(target)} +-{tol * 100:.0f}%"
        )
    return EntryResult(
        row.entry_id, table, row.gate, ok, fmt(measured), shown,
        row.description,
    )


# Derived checks: each reads several pooled scenarios and returns a
# callable (table, pool) -> EntryResult that sits among the rows.


def _collision_spread(entry_id, description, base, others, seeds):
    """Largest |collision(other) - collision(base)|, at most 0.1 pp."""

    def check(table: str, pool: Pool) -> EntryResult:
        ref = pool(base, seeds).kpis()["collision_overall"]
        spread = max(
            abs(pool(name, seeds).kpis()["collision_overall"] - ref)
            for name in others
        )
        return EntryResult(
            entry_id, table, True, spread <= 0.001, _pct(spread),
            f"<= {_pct(0.001)}", description,
        )

    return check


def _non_increasing(entry_id, description, names, seeds, kpi, expected):
    """Column `kpi` over `names` never rises (to within 1e-12)."""

    def check(table: str, pool: Pool) -> EntryResult:
        values = [pool(name, seeds).kpis()[kpi] for name in names]
        ok = None not in values and all(
            b <= a + 1e-12 for a, b in zip(values, values[1:])
        )
        return EntryResult(
            entry_id, table, True, ok, " -> ".join(map(_pct, values)),
            expected, description,
        )

    return check


def _femto_reduction(table: str, pool: Pool) -> EntryResult:
    """Relative collision drop from 0 to 10 femto cells, at least 40%."""
    c0, c10 = (
        pool(f"pp-femto-{n}", SEEDS_20).kpis()["collision_overall"]
        for n in (0, 10)
    )
    reduction = (c0 - c10) / c0 if c0 else 0.0
    return EntryResult(
        "III/reduction-at-10", table, True, reduction >= 0.40,
        _pct1(reduction), f">= {_pct1(0.40)}",
        "relative collision reduction with 10 femto cells",
    )


_GRID = tuple(
    f"numerology-{scs}-{sym}"
    for scs in SUBCARRIER_SPACINGS_KHZ for sym in SYMBOLS_PER_SLOT
)


def _grid_delay_monotone(table: str, pool: Pool) -> EntryResult:
    """Mean delay falls strictly along every row and column of the grid."""
    grid = [
        [pool(f"numerology-{scs}-{sym}", GRID_SEEDS).kpis()["mean_delay_ms"]
         for sym in SYMBOLS_PER_SLOT]
        for scs in SUBCARRIER_SPACINGS_KHZ
    ]
    lines = grid + list(zip(*grid))
    strict = all(b < a for line in lines for a, b in zip(line, line[1:]))
    return EntryResult(
        "V/delay-monotone", table, True, strict,
        "strict" if strict else "violated",
        "strict decrease along rows and columns",
        "mean delay falls with wider spacing and shorter slots",
    )


ENTRIES: dict[str, tuple] = {
    "II": (
        Row("II/5k/collision", "baseline-5k", SEEDS_10, "collision_overall",
            "abs", 0.0048, 0.0015, _pct, "5k baseline collision probability"),
        Row("II/5k/mean-msg1", "baseline-5k", SEEDS_10, "mean_msg1", "abs",
            1.4, 0.15, _num, "5k baseline mean preamble transmissions"),
        Row("II/5k/mean-delay", "baseline-5k", SEEDS_10, "mean_delay_ms",
            "rel", 28.98, 0.15, _ms, "5k baseline mean access delay"),
        Row("II/10k/collision", "baseline-10k", SEEDS_10, "collision_overall",
            "abs", 0.0195, 0.003, _pct, "10k baseline collision probability"),
        Row("II/10k/mean-msg1", "baseline-10k", SEEDS_10, "mean_msg1", "abs",
            1.42, 0.15, _num, "10k baseline mean preamble transmissions"),
        Row("II/10k/mean-delay", "baseline-10k", SEEDS_10, "mean_delay_ms",
            "rel", 33.62, 0.15, _ms, "10k baseline mean access delay"),
    ),
    "FIG6": (
        Row("FIG6/median-baseline", "baseline-5k", SEEDS_10, "delay_p50_ms",
            "abs", 29.0, 1.5, _ms, "baseline median access delay"),
        Row("FIG6/median-edt", "edt-5k", SEEDS_10, "delay_p50_ms", "abs",
            6.0, 1.5, _ms, "early-data median access delay"),
        _collision_spread(
            "FIG6/collision-equal",
            "early-data collision matches baseline (same seeds)",
            "baseline-5k", ("edt-5k",), SEEDS_10,
        ),
    ),
    "III": (
        *(
            Row(f"III/femto-{n}/collision", f"pp-femto-{n}", SEEDS_20,
                "collision_overall", "abs", target, 0.0015, _pct,
                f"collision at {n} femto cells (absolute)", gate=False)
            for n, target in _FEMTO_TARGETS
        ),
        _non_increasing(
            "III/monotone",
            "collision probability falls as femto cells are added",
            [f"pp-femto-{n}" for n, _ in _FEMTO_TARGETS], SEEDS_20,
            "collision_overall", "non-increasing in femto count",
        ),
        _femto_reduction,
    ),
    "IV": (
        Row("IV/edt-pp/mean-delay", "edt-pp", SEEDS_21, "mean_delay_ms", "rel",
            5.8, 0.20, _ms, "early-data + parallel mean delay"),
        Row("IV/edt-pp-ebf/mean-delay", "edt-pp-ebf", SEEDS_21,
            "mean_delay_ms", "rel", 4.47, 0.20, _ms,
            "early-data + parallel + fast-retry mean delay"),
        Row("IV/edt-pp/collision", "edt-pp", SEEDS_21, "collision_overall",
            "abs", 0.0004, 0.0005, _pct,
            "early-data + parallel collision probability"),
        Row("IV/edt-pp-ebf/collision", "edt-pp-ebf", SEEDS_21,
            "collision_overall", "abs", 0.0001, 0.0005, _pct,
            "early-data + parallel + fast-retry collision probability"),
        Row("IV/edt-pp-ebf/p9999", "edt-pp-ebf", SEEDS_21, "delay_p9999_ms",
            "<=", 10.0, None, _ms,
            "pooled 99.99th percentile delay, all enhancements"),
        Row("IV/edt-pp/p9999", "edt-pp", SEEDS_21, "delay_p9999_ms", ">=",
            25.0, None, _ms,
            "pooled 99.99th percentile delay without fast retry"),
    ),
    "V": (
        Row("V/delay-60khz-7sym", "numerology-60-7", SEEDS_10, "mean_delay_ms",
            "rel", 6.0, 0.20, _ms, "mean delay at 60 kHz, 7-symbol slots"),
        Row("V/delay-15khz-2sym", "numerology-15-2", SEEDS_10, "mean_delay_ms",
            "rel", 6.9, 0.20, _ms, "mean delay at 15 kHz, 2-symbol slots"),
        _collision_spread(
            "V/collision-invariance",
            "collision probability identical across the numerology grid",
            "numerology-15-7", _GRID, GRID_SEEDS,
        ),
        _grid_delay_monotone,
    ),
    "VI": (
        Row("VI/r1/collision-urllc", "rp-r1", SEEDS_10, "collision_urllc",
            "abs", 0.33, 0.05, _pct,
            "priority-class collision with 1 reserved preamble"),
        Row("VI/r1/utilization", "rp-r1", SEEDS_10, "util_reserved_priority",
            "abs", 0.83, 0.05, _pct,
            "reserved-pool utilization with 1 reserved preamble"),
        Row("VI/r3/collision-urllc", "rp-r3", SEEDS_10, "collision_urllc",
            "abs", 0.0, 0.05, _pct,
            "priority-class collision with 3 reserved preambles"),
        Row("VI/r3/utilization", "rp-r3", SEEDS_10, "util_reserved_priority",
            "abs", 0.38, 0.05, _pct,
            "reserved-pool utilization with 3 reserved preambles"),
        *(
            Row(f"VI/r{r}/utilization", f"rp-r{r}", SEEDS_10,
                "util_reserved_priority", "abs", target, 0.05, _pct,
                f"reserved-pool utilization with {r} reserved preambles",
                gate=False)
            for r, target in ((2, 0.57), (4, 0.29), (5, 0.23))
        ),
        _non_increasing(
            "VI/monotone-collision",
            "priority collision falls as the reserved pool grows",
            [f"rp-r{r}" for r in _RESERVED], SEEDS_10, "collision_urllc",
            "non-increasing in reservation size",
        ),
        _non_increasing(
            "VI/monotone-utilization",
            "reserved-pool utilization falls as the pool grows",
            [f"rp-r{r}" for r in _RESERVED], SEEDS_10,
            "util_reserved_priority", "non-increasing in reservation size",
        ),
    ),
    "VII": (
        Row("VII/mean-delay", "drp-mixed", SEEDS_DEEP, "mean_delay_ms", "rel",
            4.5, 0.20, _ms,
            "mixed-traffic overall mean delay, all enhancements"),
        Row("VII/mean-delay-baseline", "baseline-mixed", SEEDS_10,
            "mean_delay_ms", "rel", 26.0, 0.20, _ms,
            "mixed-traffic overall mean delay, no enhancements"),
        Row("VII/collision-urllc", "drp-mixed", SEEDS_DEEP,
            "collision_urllc", "<=", 0.0002, None, _pct,
            "priority-class collision, all enhancements"),
        Row("VII/collision-non-urllc", "drp-mixed", SEEDS_DEEP,
            "collision_non_urllc", "<=", 0.0002, None, _pct,
            "background-class collision, all enhancements"),
        Row("VII/utilization-dynamic", "drp-mixed", SEEDS_DEEP,
            "util_reserved_priority", "abs", 0.57, 0.08, _pct,
            "reserved-pool utilization under the dynamic pool"),
        Row("VII/utilization-static-r5", "rp5-mixed-dense", SEEDS_10,
            "util_reserved_priority", "abs", 0.23, 0.08, _pct,
            "reserved-pool utilization under a static 5-preamble pool"),
        Row("VII/p9999-urllc", "drp-mixed", SEEDS_DEEP, "urllc_delay_p9999_ms",
            "<=", 10.0, None, _ms,
            "pooled priority-class 99.99th percentile delay"),
        Row("VII/p9999-overall", "drp-mixed", SEEDS_DEEP, "delay_p9999_ms",
            "<=", 16.0, None, _ms, "pooled overall 99.99th percentile delay"),
    ),
}
TABLES = tuple(ENTRIES)


def run_validation(
    tables=None,
    seeds: tuple[int, ...] | None = None,
    jobs: int | None = None,
    log=None,
) -> list[EntryResult]:
    """Evaluate the reference entries; `seeds` overrides every entry list,
    and None keeps the frozen ones.

    With overridden (short) seed lists the deep-percentile entries report
    insufficient samples and fail; that is intended for smoke runs only.
    `log` gets a line as each table starts, then those of its new pools.
    """
    if seeds is not None and not seeds:
        raise ValueError("empty seed list; pass None for the frozen lists")

    def pool(name: str, default: tuple[int, ...]) -> KpiReport:
        return pooled_report(name, seeds or default, jobs, log)

    chosen = list(tables) if tables else list(TABLES)
    for table in chosen:
        if table.upper() not in ENTRIES:
            raise ValueError(
                f"unknown reference table {table!r}; "
                f"choose from {', '.join(TABLES)}"
            )
    results = []
    for table in dict.fromkeys(map(str.upper, chosen)):  # first-seen order
        if log:
            log(f"scoring table {table}")
        results += [
            _score(table, entry, pool) if isinstance(entry, Row)
            else entry(table, pool)
            for entry in ENTRIES[table]
        ]
    return results


def gates_passed(results) -> bool:
    return all(r.passed for r in results if r.gate)
