"""Sweep the static reservation size under a 5% priority mix.

Shows the trade the reservation makes: priority collisions fall as r
grows while the reserved pool sits increasingly idle.

Usage: python3 demos/reserved_pool_sweep.py [n_seeds]
"""

import sys

from rachsim import apply_overrides, build_scenario, merge
from rachsim.reference import replicate


def main():
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    base = build_scenario(
        "n_devices = 5000\n"
        "urllc_fraction = 0.05\n"
        "enhancements = rp\n"
    )
    print(f"{'r':>2} {'priority collision':>19} {'reserved utilization':>21}")
    for r in range(1, 6):
        sc = apply_overrides(base, [("reserved_r", str(r))])
        rep = merge(replicate([(sc, seed) for seed in range(1, n_seeds + 1)]))
        util = rep.preamble_utilization()["reserved_priority"]
        print(
            f"{r:>2} {rep.collision_probability('urllc') * 100:>18.3f}% "
            f"{util * 100:>20.2f}%"
        )


if __name__ == "__main__":
    main()
