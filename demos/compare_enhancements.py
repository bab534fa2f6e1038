"""Pool a few seeds per enhancement stack and print the headline KPIs.

Usage: python3 demos/compare_enhancements.py [n_devices] [n_seeds]
"""

import sys

from rachsim import build_scenario, merge
from rachsim.reference import replicate

STACKS = [
    ("baseline", ""),
    ("edt", "edt"),
    ("edt+pp", "edt, pp"),
    ("edt+pp+ebf", "edt, pp, ebf"),
]


def main():
    n_devices = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    n_seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    seeds = range(1, n_seeds + 1)

    print(f"{n_devices} devices, {n_seeds} seed(s) pooled")
    print(f"{'stack':<12} {'collision':>10} {'mean delay':>11} "
          f"{'p95 delay':>10} {'success':>8}")
    for label, flags in STACKS:
        base = build_scenario(
            f"n_devices = {n_devices}\n"
            "urllc_fraction = 1.0\n"
            # the parallel scheme needs femtos to transmit toward
            "n_femto_cells = 12\n"
            + (f"enhancements = {flags}\n" if flags else "")
        )
        rep = merge(replicate([(base, seed) for seed in seeds]))
        print(
            f"{label:<12} "
            f"{rep.collision_probability() * 100:>9.3f}% "
            f"{rep.mean_access_delay_ms():>9.2f}ms "
            f"{rep.delay_percentile_ms(95):>8.2f}ms "
            f"{rep.success_rate * 100:>7.2f}%"
        )


if __name__ == "__main__":
    main()
