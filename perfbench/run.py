"""rachsim host-time benchmark: one workload, one seed block, one process.

    python3 perfbench/run.py --workload dense-mixed --seed 3 --seconds 30 --trace 0

Closed loop with jobs=1: the next seed's replication starts only after the
previous one has finished, and one `merge` pools the block at the end.
Replications run until --seconds have passed, and at least MIN_REPS
untraced ones (so the tail percentile exists) or MIN_TRACED_PAIRS traced
pairs. Times are host wall time rescaled by the calibration kernel, and
set-up time by the reference child (calibrate.py); simulated KPIs are
output checks, never metrics.

--trace 0 prints the end-to-end metrics. --trace 1 interleaves untraced and
traced replications of the same seeds and prints per-layer metrics from the
spans. Both check the outputs; the last stdout line is one JSON object.
Exit status: 0 when every check passes, 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

try:
    import numpy
    import rachsim
    from rachsim import merge
except ImportError as exc:
    sys.exit(f"error: cannot import rachsim from {SRC}: {exc}")

from calibrate import REFERENCE_CHILD, REFERENCE_NOMINAL_S, Clock  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from stats import TAIL_MIN_BEYOND, tail_percentile  # noqa: E402
from workloads import (  # noqa: E402
    PINNED_BLOCKS,
    PINNED_SEEDS,
    WORKLOADS,
    Replication,
    block_seed,
    check_counts,
    check_layered_matches_plain,
    load_pins,
    no_span,
    output_digest,
    replicate,
    warm_up,
)

MIN_REPS = max(TAIL_MIN_BEYOND + 1, PINNED_SEEDS)
MIN_TRACED_PAIRS = PINNED_SEEDS
SETUP_PROBES = 11


class Checks:
    """Output checks; each failure marks one operation as failed."""

    def __init__(self) -> None:
        self.failed_ops: set[str] = set()
        self.messages: list[str] = []

    def record(self, op: str, problem: str | None) -> bool:
        if problem is not None:
            self.failed_ops.add(op)
            self.messages.append(problem)
        return problem is None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help=f"picks seed block SEED mod {PINNED_BLOCKS}")
    p.add_argument("--block", type=int, default=None,
                   help="use this seed block instead; blocks past the pinned "
                   "ones are held out and have no pinned digest")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or (args.block is not None and args.block < 0):
        p.error("--seed and --block must be non-negative")
    return args


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_rachsim_lines": sum(
            p.read_bytes().count(b"\n") for p in (SRC / "rachsim").rglob("*.py")
        ),
    }


def child_seconds(child_args: list[str]) -> float:
    """Wall time from starting a Python child until it prints "ready"."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, *child_args], stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{child_args} exited with status {proc.returncode}")
    return elapsed


def setup_samples(workload: str) -> tuple[list[float], list[float]]:
    """Interpreter start to ready, timed from outside around a child process.

    Reference children run before and after each set-up child; each set-up
    time is rescaled by the mean of the two. Returns the rescaled set-up
    times and the reference times.
    """
    probe = [str(BENCH_DIR / "setup_probe.py"), workload]
    refs = [child_seconds(REFERENCE_CHILD)]
    setup = []
    for _ in range(SETUP_PROBES):
        elapsed = child_seconds(probe)
        refs.append(child_seconds(REFERENCE_CHILD))
        setup.append(elapsed * REFERENCE_NOMINAL_S / ((refs[-2] + refs[-1]) / 2))
    return setup, refs


def replicate_or_fail(op, base, seed, checks, span=no_span) -> Replication | None:
    """Replicate one seed; a replication that raises fails its operation."""
    try:
        return replicate(base, seed, span)
    except Exception as exc:  # a failing replication is counted, not fatal
        traceback.print_exc()
        checks.record(op, f"seed {seed}: raised {exc!r}")
        return None


def pooled_checks(pins, block, base, reps, checks) -> str:
    """Pinned digest of the first PINNED_SEEDS, and layered == plain run."""
    first = reps[:PINNED_SEEDS]
    if len(first) < PINNED_SEEDS or any(r is None for r in first):
        checks.record("merge", "pinned seeds did not all replicate")
        return "missing"
    digest = output_digest(merge(r.report for r in first))
    if block < len(pins):
        checks.record(
            "merge",
            None if digest == pins[block]
            else f"block {block}: pooled digest {digest} != pinned {pins[block]}",
        )
        status = "pinned"
    else:
        status = "held-out"
    checks.record(f"seed {first[0].seed}", check_layered_matches_plain(base, first[0]))
    return f"{status} {digest}"


def timed_run(args, base, pins, block, checks) -> tuple[dict, dict]:
    setup, refs = setup_samples(args.workload)
    warm_up(base)
    gc.collect()
    clock = Clock()
    reps: list[Replication | None] = []
    times: list[float] = []  # scaled ms of each successful replication
    raw: list[float] = []
    devices = 0
    t0 = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t0 < args.seconds:
        seed = block_seed(block, len(reps))
        t = time.perf_counter()
        rep = replicate_or_fail(f"seed {seed}", base, seed, checks)
        elapsed = (time.perf_counter() - t) * 1e3
        if rep is not None:
            # Keep memory one replication deep, and out of the kernel's way.
            rep.result = None
        scale = clock.scale()
        if rep is not None:
            times.append(elapsed * scale)
            raw.append(elapsed)
            if checks.record(f"seed {seed}", check_counts(base, rep)):
                devices += rep.report.n_devices
        reps.append(rep)
    t = time.perf_counter()
    try:
        merge(r.report for r in reps if r is not None)
    except Exception as exc:  # counted as the failed merge operation
        checks.record("merge", f"merge raised {exc!r}")
    merge_ms = (time.perf_counter() - t) * 1e3 * clock.scale()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    digest = pooled_checks(pins, block, base, reps, checks)
    level, tail, beyond = tail_percentile(times)
    metrics = {
        "devices_per_s": (devices / ((sum(times) + merge_ms) / 1e3), "devices/s"),
        "rep_ms_p50": (statistics.median(times), "ms"),
        "rep_ms_tail": (tail, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
    }
    details = {
        "replications": len(reps),
        "rep_ms_tail": f"p{level:.1f} of {len(times)} samples, {beyond} beyond",
        "unscaled rep_ms p50": statistics.median(raw),
        "calibration kernel ms p50": statistics.median(clock.kernel_ms),
        "setup_s samples": setup,
        "reference child s p50": statistics.median(refs),
        "digest": digest,
    }
    return metrics, details


def engine_counts(rep: Replication) -> dict[str, int]:
    result = rep.result
    return {
        "opportunities": result.log.n_raos,
        "attempts": sum(r.attempt_count for r in result.records),
        "msg1_tx": result.log.total_msg1_tx,
        "collided_cells": result.log.collided_cells,
        "successes": rep.report.n_success,
        "femto_covered": int((result.placement.femto_cell >= 0).sum()),
    }


def traced_run(args, base, pins, block, checks) -> tuple[dict, dict]:
    warm_up(base)
    gc.collect()
    clock = Clock()
    tracer = Tracer()
    scales: dict[int, float] = {}  # traced replication id (-1: merge) -> scale
    reps: list[Replication | None] = []
    overhead: list[float] = []  # traced / untraced time of each seed
    traced_ms: list[float] = []
    counts: list[dict[str, int]] = []
    t0 = time.perf_counter()
    while len(reps) < MIN_TRACED_PAIRS or time.perf_counter() - t0 < args.seconds:
        i = len(reps)
        seed = block_seed(block, i)
        op = f"seed {seed}"
        pair, pair_ms = {}, {}
        # Alternate which pass goes first so neither always runs warmer.
        for traced in (i % 2 == 1, i % 2 == 0):
            span = tracer.span if traced else no_span
            tracer.rep = i
            t = time.perf_counter()
            with span("replication"):
                rep = replicate_or_fail(op, base, seed, checks, span)
            elapsed = (time.perf_counter() - t) * 1e3
            if rep is not None:
                if traced:
                    counts.append(engine_counts(rep))
                rep.result = None
            scale = clock.scale()
            if traced:
                scales[i] = scale
            pair_ms[traced] = elapsed * scale
            pair[traced] = rep
        tracer.rep = -1
        plain, traced_rep = pair[False], pair[True]
        if plain is not None and traced_rep is not None:
            traced_ms.append(pair_ms[True])
            overhead.append(pair_ms[True] / pair_ms[False])
            checks.record(op, check_counts(base, plain))
            checks.record(
                op,
                None if (plain.csv_row, plain.cdf) == (traced_rep.csv_row, traced_rep.cdf)
                else f"seed {seed}: traced replication differs from untraced",
            )
        reps.append(plain)
    try:
        with tracer.span("kpi.merge"):
            merge(r.report for r in reps if r is not None)
    except Exception as exc:  # counted as the failed merge operation
        checks.record("merge", f"merge raised {exc!r}")
    scales[-1] = clock.scale()
    digest = pooled_checks(pins, block, base, reps, checks)

    per_call: dict[str, list[float]] = {}
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        per_call.setdefault(s.name, []).append(own * 1e3 * scales[s.rep])
    block_counts = {k: sum(c[k] for c in counts[:PINNED_SEEDS]) for k in counts[0]}
    attempts_all = sum(c["attempts"] for c in counts)

    def ms(name):
        return (statistics.median(per_call[name]), "ms")

    metrics = {
        "rng.from_seed_ms": ms("rng.from_seed"),
        "topology.build_layout_ms": ms("topology.build_layout"),
        "topology.place_devices_ms": ms("topology.place_devices"),
        "topology.femto_covered": (block_counts["femto_covered"], "count"),
        "traffic.generate_arrivals_ms": ms("traffic.generate_arrivals"),
        "engine.run_ms": ms("engine.run"),
        "engine.us_per_attempt": (
            sum(per_call["engine.run"]) * 1e3 / attempts_all, "us"),
        "engine.opportunities": (block_counts["opportunities"], "count"),
        "engine.attempts": (block_counts["attempts"], "count"),
        "engine.msg1_tx": (block_counts["msg1_tx"], "count"),
        "engine.collided_cells": (block_counts["collided_cells"], "count"),
        "engine.contenders_per_opportunity": (
            block_counts["attempts"] / block_counts["opportunities"], "ratio"),
        "engine.success_per_attempt": (
            block_counts["successes"] / block_counts["attempts"], "ratio"),
        "kpi.build_report_ms": ms("kpi.build_report"),
        "kpi.merge_ms": ms("kpi.merge"),
        "kpi.csv_row_ms": ms("kpi.csv_row"),
        "kpi.cdf_points_ms": ms("kpi.cdf_points"),
        "trace.overhead_pct": ((statistics.median(overhead) - 1) * 100, "%"),
    }
    rep_ms = statistics.median(traced_ms)
    details = {
        "replications": len(reps),
        "traced replication ms p50": rep_ms,
        "calibration kernel ms p50": statistics.median(clock.kernel_ms),
        "self ms p50, share of traced replication": {
            name: [round(statistics.median(v), 4), round(statistics.median(v) / rep_ms, 4)]
            for name, v in per_call.items()
        },
        "digest": digest,
    }
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_csv(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(rachsim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: rachsim imported from {rachsim.__file__}, not {SRC}")
    pins = load_pins()[args.workload]
    block = args.seed % PINNED_BLOCKS if args.block is None else args.block
    base = WORKLOADS[args.workload]
    checks = Checks()
    run_mode = traced_run if args.trace else timed_run
    metrics, details = run_mode(args, base, pins, block, checks)

    attempted = details["replications"] + 1  # every replication, plus the merge
    failed = len(checks.failed_ops)
    print(f"workload {args.workload}")
    print(f"seed {args.seed} -> block {block}, replication seeds "
          f"{block_seed(block, 0)}..{block_seed(block, details['replications'] - 1)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for key, value in details.items():
        if isinstance(value, dict):
            print(f"  {key}:")
            for k, v in value.items():
                print(f"    {k:32s} {v}")
        elif key != "replications":
            print(f"  {key}: {value}")
    print(f"  op_fail_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for message in checks.messages:
        print(f"  CHECK FAILED: {message}")
    prov = provenance()
    print(f"provenance: {json.dumps(prov)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "block": block, "details": details,
                    "check_failures": checks.messages, "provenance": prov},
                   indent=1) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
