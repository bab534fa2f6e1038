"""In-process A/B of `engine.run`, `topology.place_devices` and the report
layer between two revisions of the repository, with an A/A control.

    python3 tools/ab_engine.py --rev HEAD~1 --rev HEAD

Each revision is extracted with `git archive` into a temporary directory.
Its `src/rachsim` is imported under package names of its own, so that
both revisions run in one process on one warm interpreter, and the first
revision is imported a second time, as A', for an A/A control. The three
packages are imported twice over: in the order A, B, A' for the first
half of the seeds, and A', B, A for the second half. So each of A/B and
A/A' has the package imported first on one half of the seeds and last on
the other, which cancels a bias from import order (an A/A run of one
tree imported twice read 2-5% slower for the copy imported second).

For the 30 reference scenarios plus overload-20k (baseline-10k at 20 000
devices) and each of the seeds 1-30, every package times `place_devices`
as the median of PLACE_CALLS calls, each after an untimed layout on a
fresh source of the seed, the calls of the three packages taking turns;
then each builds the arrivals untimed and times `engine.run` as the best
of RUN_CALLS calls, again taking turns. Each package's best is one
sample: A/B divides A's best by B's, and A/A divides it by the best of
A', so every side takes the minimum over the same number of calls. The
turns go A, B, A' on odd seeds and A', B, A on even ones. The placements
must hold the same `serving_cell`, `femto_cell` and `serving_dist` bytes,
and the `RunResult`s identical device columns and `OpportunityLog`s. On
the first seed of each scenario A and B also make one untimed traced run,
whose trace rows must be equal one by one.

After its timed calls, each package makes one more `engine.run` of the
seed, untimed and under `tracemalloc`, taken in turns: the traced peak of
that call, from a fresh source on the same placement and arrivals, is its
memory sample. Tracing slows every allocation, so no timed call runs
under it.

The report layer is timed on each package's own `RunResult` of the seed:
`build_report`, then `csv_row` and `cdf_points` on that report, as the
median of REPORT_CALLS calls taken in turns. Once all seeds of a
scenario are done, each revision's package times `merge` of its 30
reports in MERGE_ROUNDS rounds, again taking turns; each round is one
sample, and the rounds alternate between the two imports of each
revision. The
`csv_row` and `cdf_points` bytes, of each seed's report and of the
merged one, must be equal across the packages. The script stops at the
first difference and names it, for a trace the first row that differs.

It prints five markdown tables, for `engine.run`, `place_devices`, the
report layer, `merge` and the traced peak of `engine.run`: per scenario,
the median ratio A / B (time, or peak bytes) with its quartiles and the
pairs B won, the A/A column (A / A') in the same form, then the total of
each package.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from record_bench import checkout

OVERLOAD = "overload-20k"
# Thirty pairs per scenario, so that the quartiles of the speed-up stand
# clear of run-to-run noise.
SEEDS = range(1, 31)
# `place_devices` takes well under a millisecond without femtos, so one
# call per pair times mostly noise; the median of five calls, taken in
# turns by the two revisions, does not.
PLACE_CALLS = 5
# One `engine.run` per package per seed let an A/A row drift 3-5% from
# 1.0 on this kind of shared 2-core host; the best of three calls per
# package, A and A' alike, damps the slow outliers.
RUN_CALLS = 3
# The report layer takes 0.2-1 ms and a merge of 30 reports about 1 ms, so
# each is timed over several calls taken in turns, as placement is.
REPORT_CALLS = 5
MERGE_ROUNDS = 30


def load(tree: Path, name: str):
    """Import `tree/src/rachsim` as the package `name`."""
    pkg_dir = tree / "src" / "rachsim"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py",
        submodule_search_locations=[str(pkg_dir)],
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("config", "engine", "kpi", "reference", "rng", "topology",
                "traffic"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def scenarios(pkg) -> dict:
    ref = dict(pkg.reference.REFERENCE_SCENARIOS)
    ref[OVERLOAD] = pkg.config.scenario_with(
        ref["baseline-10k"], n_devices=20000
    )
    return ref


# Device fields of a placement that both revisions must give bit for bit.
PLACEMENT_FIELDS = ("serving_cell", "femto_cell", "serving_dist")
TIMED = ("engine.run", "place_devices", "report", "merge")
PEAK = "engine.run peak"
TABLES = TIMED + (PEAK,)
# Packages by index: A, B and A' (the first revision imported again), and
# the import and turn order of the first half of the seeds and odd seeds.
TAGS = ("a", "b", "c")
LOAD_ORDER = (0, 1, 2)


def timed_place(pkg, scenario):
    """(seconds, placement, source) of one place_devices call, after an
    untimed layout on a fresh source of the scenario's seed."""
    source = pkg.rng.RandomSource.from_seed(scenario.seed)
    layout = pkg.topology.build_layout(scenario.topology, source.placement)
    t0 = time.perf_counter()
    placement = pkg.topology.place_devices(
        scenario.n_devices, layout, source.placement
    )
    return time.perf_counter() - t0, placement, source


def arrivals_from(pkg, scenario, source):
    """The run's arrivals, drawn untimed from `source` after placement."""
    is_ur = pkg.traffic.assign_classes(
        scenario.n_devices, scenario.urllc_fraction
    )
    return pkg.traffic.generate_arrivals(
        is_ur, scenario.traffic, source.arrivals
    )


def timed_run(pkg, scenario, placement, arrivals):
    """(seconds, RunResult) of engine.run on `placement`, `arrivals` and
    a fresh source."""
    fresh = pkg.rng.RandomSource.from_seed(scenario.seed)
    gc.collect()
    t0 = time.perf_counter()
    result = pkg.engine.run(
        scenario, source=fresh, placement=placement, arrivals=arrivals
    )
    return time.perf_counter() - t0, result


def traced_peak(pkg, scenario, placement, arrivals) -> int:
    """Peak bytes `tracemalloc` sees during one untimed engine.run on
    `placement`, `arrivals` and a fresh source made before it starts."""
    fresh = pkg.rng.RandomSource.from_seed(scenario.seed)
    gc.collect()
    tracemalloc.start()
    try:
        pkg.engine.run(
            scenario, source=fresh, placement=placement, arrivals=arrivals
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def timed_report(pkg, result):
    """(seconds, (csv_row, cdf_points), report) of the report layer on
    `result`: build_report, then csv_row and cdf_points of that report."""
    t0 = time.perf_counter()
    report = pkg.kpi.build_report(result)
    row = report.csv_row()
    cdf = report.cdf_points()
    return time.perf_counter() - t0, (row, cdf), report


def timed_merge(pkg, reports):
    """(seconds, (csv_row, cdf_points)) of one merge of `reports`."""
    t0 = time.perf_counter()
    merged = pkg.kpi.merge(reports)
    t = time.perf_counter() - t0
    return t, (merged.csv_row(), merged.cdf_points())


def same_placement(a, b) -> str | None:
    """None when both placements hold the same bytes, else the field."""
    for name in PLACEMENT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return name
    return None


def same_result(a, b) -> str | None:
    """None when both runs hold the same columns and log, else the field."""
    for f in dataclasses.fields(a):
        value = getattr(a, f.name)
        if isinstance(value, np.ndarray) and not np.array_equal(
            value, getattr(b, f.name)
        ):
            return f.name
    if dataclasses.asdict(a.log) != dataclasses.asdict(b.log):
        return "log"
    return None


def first_trace_difference(a, b) -> str | None:
    """None when both traced runs hold the same trace rows, else the first
    row that differs (or the first row one trace lacks)."""
    for i, (x, y) in enumerate(zip(a.trace, b.trace)):
        if x != y:
            return f"trace row {i}: {x} != {y}"
    if len(a.trace) != len(b.trace):
        return (f"trace length {len(a.trace)} != {len(b.trace)}, first "
                f"unmatched row {min(len(a.trace), len(b.trace))}")
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(ratios: list[float]) -> str:
    q1, med, q3 = quartiles(ratios)
    return f"{med:.3f} [{q1:.3f}, {q3:.3f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", action="append", required=True,
                    help="git revision to measure (give two)")
    args = ap.parse_args(argv)
    if len(args.rev) != 2:
        ap.error("give --rev twice")

    with tempfile.TemporaryDirectory(prefix="ab-engine-") as tmp:
        trees = [checkout(rev, Path(tmp) / f"tree_{tag}")
                 for rev, tag in zip(args.rev, "ab")]
        trees.append(trees[0])  # A', the first revision imported again
        groups = []
        for half, load_order in enumerate((LOAD_ORDER, LOAD_ORDER[::-1])):
            pkgs = [None] * len(trees)
            for k in load_order:
                pkgs[k] = load(trees[k], f"rachsim_{TAGS[k]}{half}")
            groups.append((pkgs, [scenarios(pkg) for pkg in pkgs]))
        rows = {what: [] for what in TABLES}
        totals = {what: [0.0] * len(trees) for what in TABLES}
        for name in groups[0][1][0]:
            ratios = {what: ([], []) for what in TABLES}
            kept = ([], [], [])  # each package's report of every seed
            for seed in SEEDS:
                pkgs, specs = groups[seed > SEEDS[len(SEEDS) // 2 - 1]]
                order = LOAD_ORDER if seed % 2 else LOAD_ORDER[::-1]
                cases = [pkg.config.scenario_with(spec[name], seed=seed)
                         for pkg, spec in zip(pkgs, specs)]
                calls = ([], [], [])
                gc.collect()
                for _ in range(PLACE_CALLS):
                    for k in order:
                        calls[k].append(timed_place(pkgs[k], cases[k]))
                given = {k: (calls[k][-1][1], arrivals_from(
                    pkgs[k], cases[k], calls[k][-1][2])) for k in order}
                runs = ([], [], [])
                for _ in range(RUN_CALLS):
                    for k in order:
                        runs[k].append(timed_run(pkgs[k], cases[k], *given[k]))
                reports = ([], [], [])
                for _ in range(REPORT_CALLS):
                    for k in order:
                        reports[k].append(
                            timed_report(pkgs[k], runs[k][-1][1]))
                peaks = {k: traced_peak(pkgs[k], cases[k], *given[k])
                         for k in order}
                for k, peak in peaks.items():
                    totals[PEAK][k] += peak / 1e6
                ratios[PEAK][0].append(peaks[0] / peaks[1])
                ratios[PEAK][1].append(peaks[0] / peaks[2])
                out = {}
                for k in order:
                    t_place = statistics.median(c[0] for c in calls[k])
                    t_run = min(r[0] for r in runs[k])
                    t_report = statistics.median(r[0] for r in reports[k])
                    out[k] = ((t_run, runs[k][-1][1]),
                              (t_place, calls[k][-1][1]),
                              (t_report, reports[k][-1][1]))
                    kept[k].append(reports[k][-1][2])
                for k in (1, 2):
                    differs = same_placement(out[0][1][1], out[k][1][1]) or (
                        same_result(out[0][0][1], out[k][0][1])
                    ) or ("report bytes" if out[0][2][1] != out[k][2][1]
                          else None)
                    if differs:
                        print(f"{name} seed {seed}: {TAGS[k]} {differs} "
                              "differs", file=sys.stderr)
                        return 1
                if seed == SEEDS[0]:
                    traced = [pkg.engine.run(case, collect_trace=True)
                              for pkg, case in zip(pkgs[:2], cases)]
                    differs = first_trace_difference(*traced)
                    if differs:
                        print(f"{name} seed {seed}: {differs}",
                              file=sys.stderr)
                        return 1
                for i, what in enumerate(TIMED[:-1]):
                    times = [out[k][i][0] for k in range(len(trees))]
                    for k, t in enumerate(times):
                        totals[what][k] += t
                    ratios[what][0].append(times[0] / times[1])
                    ratios[what][1].append(times[0] / times[2])
            gc.collect()
            for r in range(MERGE_ROUNDS):
                order = LOAD_ORDER if r % 2 else LOAD_ORDER[::-1]
                pkgs = groups[r % 2][0]
                merged = {k: timed_merge(pkgs[k], kept[k]) for k in order}
                if any(merged[k][1] != merged[0][1] for k in (1, 2)):
                    print(f"{name}: merged report bytes differ",
                          file=sys.stderr)
                    return 1
                for k in order:
                    totals["merge"][k] += merged[k][0]
                ratios["merge"][0].append(merged[0][0] / merged[1][0])
                ratios["merge"][1].append(merged[0][0] / merged[2][0])
            for what in TABLES:
                ab, aa = ratios[what]
                won = sum(r > 1.0 for r in ab)
                rows[what].append(f"| {name} | {spread(ab)} | {won}/{len(ab)} "
                                  f"| {spread(aa)} |")
                print(what, rows[what][-1], file=sys.stderr, flush=True)

    print(f"A = {args.rev[0]}, B = {args.rev[1]}, A' = {args.rev[0]} "
          f"imported again; seeds 1-{SEEDS[-1]}, import order swapped "
          "between the halves and turn order between odd and even seeds; "
          "speed-up = time A / time B, A/A = time A / time A', "
          "and the same for the traced peak; median [q1, q3]")
    for what in TABLES:
        a, b, a2 = totals[what]
        label, unit = ("A / B", "MB") if what == PEAK else ("speed-up", "s")
        print()
        print(f"`{what}`:")
        print()
        print(f"| scenario | {label} | pairs B won | A/A |")
        print("| --- | --- | --- | --- |")
        print("\n".join(rows[what]))
        print()
        print(f"Total {what}: A {a:.2f} {unit}, B {b:.2f} {unit} "
              f"({a / b:.3f}x), A' {a2:.2f} {unit} ({a / a2:.3f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
