"""Child process that `run.py` times for `setup_s`.

Goes from interpreter start to ready: imports rachsim, builds the
workload's scenario, runs the untimed warm-up, then prints "ready".

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, warm_up  # noqa: E402

if __name__ == "__main__":
    warm_up(WORKLOADS[sys.argv[1]])
    print("ready", flush=True)
