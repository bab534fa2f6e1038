"""Run every workload untraced and traced, and print one table of metrics.

    python3 perfbench/all.py [--seed S] [--seconds N]

Runs `run.py` once per workload and trace mode, one after another, and
exits 1 if any run fails an output check or exits with an error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args()
    table: dict[str, dict[str, str]] = {}
    fails = {w: [0, 0] for w in WORKLOADS}  # failed, attempted over both modes
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{workload} trace {trace}: exit {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}", file=sys.stderr)
                if not lines:
                    continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                table.setdefault(f"{name} [{m['unit']}]", {})[workload] = f"{m['value']:.6g}"
            fails[workload][0] += result["failed"]
            fails[workload][1] += result["attempted"]
    table["op_fail_ratio [failed/attempted]"] = {
        w: f"{f}/{a}" for w, (f, a) in fails.items()}
    print(f"{'metric':44s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name, row in table.items():
        print(f"{name:44s}" + "".join(f"{row.get(w, '-'):>16s}" for w in WORKLOADS))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
