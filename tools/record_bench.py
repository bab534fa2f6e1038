"""Record rows of the benchmark trajectory as BENCH_<nnn>_<short-sha>.json.

    python3 tools/record_bench.py --rev HEAD~1 --rev HEAD

Each revision is extracted with `git archive` into a temporary directory,
so a row measures the committed files only. In each checkout, for every
workload of its BENCHMARK.json and every seed of SEEDS, the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the `run_seconds` of that BENCHMARK.json, and reads the result
from the last stdout line. With several revisions the runs alternate
between them, seed by seed, so a slow minute of a shared machine falls
on both. Then it runs `rachsim validate --jobs 1` VALIDATE_REPEATS
times per revision, alternating between the revisions in the same way,
and stops if one revision's stdout differs between its repeats.

One file per revision is written at the repository root, numbered after
the highest BENCH_<nnn> already there, in the order of the --rev options.
Each --rev gets its own checkout, so one revision given twice (an A/A
control) is measured as two runs, and each file's `paired_with` names the
files of the other runs.
Each holds, per workload, the median and quartiles over the seeds of every
end-to-end metric, with the per-seed values and failed operations; the
sha256 and exit status of the validate stdout, its median wall time with
the samples, and the median wall time of each replication pool, read from
the `ran <pool> in <t> s` lines of its stderr (a CPU-time suffix, which
some earlier revisions log, is ignored). Where the stderr names the
tables (`scoring table <T>`), the row also holds per table the sum of
those medians over the pools the table ran first. Then the line count of
src/rachsim, and provenance. The benchmark itself stays out of tier-1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
# Ten seeds, so that two revisions give the ten pairs of runs a gain is
# judged on.
SEEDS = list(range(1, 11))
# Three paired validate runs per revision: the median is robust to one
# slow minute of a shared machine.
VALIDATE_REPEATS = 3
# The stderr lines `rachsim validate` logs as a table starts and when a
# replication pool is done; older revisions log no table, and some add a
# CPU time to the pool line.
TABLE_LINE = re.compile(r"scoring table (\S+)")
POOL_LINE = re.compile(r"ran (.+) in ([0-9.]+) s(?: \([0-9.]+ s CPU\))?")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def checkout(rev: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench/run.py gave no output:\n{proc.stderr}")
    result = json.loads(lines[-1])
    print(f"  {tree.name} {workload} seed {seed}: "
          f"devices_per_s {result['metrics']['devices_per_s']['value']:.0f}, "
          f"failed {result['failed']} of {result['attempted']}",
          file=sys.stderr, flush=True)
    return result


def pool_times(stderr: str) -> dict:
    """Each pool's (table, wall s) from validate's stderr lines; the table
    is None where the stderr names none."""
    pools, table = {}, None
    for line in stderr.splitlines():
        if m := TABLE_LINE.fullmatch(line):
            table = m.group(1)
        elif m := POOL_LINE.fullmatch(line):
            what, wall = m.groups()
            pools[what] = (table, float(wall))
    return pools


def validate_run(tree: Path) -> dict:
    """One `rachsim validate --jobs 1`: its stdout digest, exit status,
    wall time and the times of each pool."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rachsim", "validate", "--jobs", "1"],
        cwd=tree, env=env, capture_output=True,
    )
    wall = time.perf_counter() - t0
    print(f"  {tree.name} validate: exit {proc.returncode}, {wall:.1f} s",
          file=sys.stderr, flush=True)
    return {
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "exit_status": proc.returncode,
        "wall_s": wall,
        "gates_line": proc.stdout.decode().strip().splitlines()[-1],
        "pools": pool_times(proc.stderr.decode()),
    }


def validate_summary(tree: Path, runs: list[dict]) -> dict:
    """The repeats of one revision, which must agree on every output."""
    outputs = {(r["stdout_sha256"], r["exit_status"], r["gates_line"])
               for r in runs}
    if len(outputs) != 1:
        raise RuntimeError(f"{tree.name}: validate output differs between "
                           f"repeats: {sorted(outputs)}")
    walls = [round(r["wall_s"], 2) for r in runs]
    pools = runs[0]["pools"]

    pool_s = {
        what: round(statistics.median(r["pools"][what][1] for r in runs), 2)
        for what in pools
    }
    tables = {}
    for what, (table, _) in pools.items():
        if table is not None:
            tables[table] = round(tables.get(table, 0.0) + pool_s[what], 2)
    return {
        "stdout_sha256": runs[0]["stdout_sha256"],
        "exit_status": runs[0]["exit_status"],
        "wall_s": statistics.median(walls),
        "wall_s_runs": walls,
        "gates_line": runs[0]["gates_line"],
        "pool_s": pool_s,
        "table_s": tables,
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def line_count(tree: Path) -> int:
    return sum(p.read_bytes().count(b"\n")
               for p in (tree / "src" / "rachsim").rglob("*.py"))


def next_number() -> int:
    found = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.match(r"BENCH_(\d+)_", p.name))]
    return max(found, default=0) + 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", action="append", required=True,
                    help="git revision to measure (repeatable)")
    args = ap.parse_args(argv)
    shas = [git("rev-parse", rev) for rev in args.rev]

    with tempfile.TemporaryDirectory(prefix="record-bench-") as tmp:
        trees = [checkout(sha, Path(tmp) / f"{k}-{sha[:10]}")
                 for k, sha in enumerate(shas)]
        spec = json.loads((trees[0] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        workloads = [w["name"] for w in spec["workloads"]]
        metrics = [m["name"] for m in spec["end_to_end"]]
        results = [{w: [] for w in workloads} for _ in trees]
        for workload in workloads:
            for i, seed in enumerate(SEEDS):
                order = list(range(len(trees)))
                if i % 2:
                    order.reverse()
                for k in order:
                    results[k][workload].append(
                        bench_run(trees[k], workload, seed, seconds))
        runs = [[] for _ in trees]
        for i in range(VALIDATE_REPEATS):
            order = list(range(len(trees)))
            if i % 2:
                order.reverse()
            for k in order:
                runs[k].append(validate_run(trees[k]))
        validation = [validate_summary(tree, r)
                      for tree, r in zip(trees, runs)]
        lines = [line_count(tree) for tree in trees]

    number = next_number()
    names = [f"BENCH_{number + k:03d}_{sha[:7]}.json"
             for k, sha in enumerate(shas)]
    for k, sha in enumerate(shas):
        row = {
            "git_sha": sha,
            "rev": args.rev[k],
            "subject": git("log", "-1", "--format=%s", sha),
            "workloads": {
                w: {
                    "metrics": {
                        m: summary([r["metrics"][m]["value"] for r in runs])
                        for m in metrics
                    },
                    "failed_ops": sum(r["failed"] for r in runs),
                    "attempted_ops": sum(r["attempted"] for r in runs),
                }
                for w, runs in results[k].items()
            },
            "validate": validation[k],
            "src_rachsim_lines": lines[k],
            "provenance": {
                "command": "python3 perfbench/run.py --workload W --seed S "
                           f"--seconds {seconds} --trace 0",
                "seeds": SEEDS,
                "paired_with": [n for n in names if n != names[k]],
                "recorded_utc": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"),
                "nproc": len(os.sched_getaffinity(0)),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
        }
        path = ROOT / names[k]
        path.write_text(json.dumps(row, indent=1) + "\n")
        print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
