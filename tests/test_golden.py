"""Golden output bytes: `rachsim run` files pinned for reference scenarios.

Each case runs the command line in-process (`cli.main(["run", ...])`) on a
reference scenario written out as a scenario file, and compares the output
files byte for byte with the copies under `tests/golden/`. The cases cover
every enhancement (edt, pp, ebf, rp, drp), mixed traffic, non-default
numerologies, one Msg1 trace with dual copies, the reserved pool and
backoff, one run where the SINR detection gate rejects some but not all
devices, and one overload run where the dynamic reserved pool grows.

The fixtures pin the model, so a refactor that claims to change nothing
must pass them unchanged. Regenerate them (`python tests/test_golden.py`)
only in a change that alters the model on purpose, and say in CHANGES.md
what changed and why.
"""

import sys
from pathlib import Path

import pytest

from rachsim.cli import EXIT_OK, main
from rachsim.config import serialize_scenario
from rachsim.reference import REFERENCE_SCENARIOS, run_validation

GOLDEN_DIR = Path(__file__).with_name("golden")
# Every column of every reference entry at seeds 1 and 2.
VALIDATION_GOLDEN = GOLDEN_DIR / "validation-seeds-1-2.txt"

SCENARIOS = (
    "baseline-5k",
    "baseline-10k",
    "edt-5k",
    "edt-pp",
    "edt-pp-ebf",
    "baseline-mixed",
    "drp-mixed",
    "rp5-mixed-dense",
    "pp-femto-10",
    "rp-r3",
    "numerology-60-2",
    "numerology-120-7",
)
SEEDS = (1, 2, 3)
REPORT_FILES = ("report.csv", "delay_cdf.csv")

# case id -> (reference scenario, seed, extra argv, pinned files)
CASES = {
    f"{name}/seed{seed}": (name, seed, (), REPORT_FILES)
    for name in SCENARIOS
    for seed in SEEDS
}
CASES["drp-mixed-trace/seed1"] = (
    "drp-mixed",
    1,
    ("--set", "n_devices=300", "--trace"),
    REPORT_FILES + ("trace.csv",),
)
# Open-loop power control puts a first transmission at 3 dB SINR and the
# ramp adds 2 dB per attempt, up to the power cap. With 1 km cells and a
# 4 dB gate, devices beyond about 540 m never pass; the rest pass from
# their second attempt on.
CASES["sinr-gate/seed1"] = (
    "baseline-mixed",
    1,
    (
        "--set", "n_devices=2000",
        "--set", "cell_radius_m=1000",
        "--set", "sinr_threshold_db=4",
    ),
    REPORT_FILES,
)

# The load of test_invariants_under_overload with every enhancement of
# drp-mixed on: the dynamic pool moves (r_max 38 of 54 preambles), which
# the reference loads never make it do.
CASES["drp-overload/seed5"] = (
    "drp-mixed",
    5,
    (
        "--set", "n_devices=3000",
        "--set", "urllc_fraction=0.3",
        "--set", "urllc_horizon_s=0.5",
        "--set", "non_urllc_horizon_s=1.5",
        "--set", "rar_window_ms=1",
        "--set", "n_femto_cells=12",
        "--set", "femto_radius_m=10",
    ),
    REPORT_FILES,
)


def run_case(case: str, out: Path) -> None:
    name, seed, extra, _ = CASES[case]
    cfg = out / "scenario-in.cfg"
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_text(serialize_scenario(REFERENCE_SCENARIOS[name]))
    argv = ["run", "--scenario", str(cfg), "--seed", str(seed)]
    assert main(argv + ["--out", str(out), *extra]) == EXIT_OK


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(case, tmp_path, capsys):
    run_case(case, tmp_path)
    capsys.readouterr()
    for fname in CASES[case][3]:
        golden = (GOLDEN_DIR / case / fname).read_bytes()
        assert (tmp_path / fname).read_bytes() == golden, f"{case}/{fname}"


def test_sinr_case_gates_some_devices(tmp_path, capsys):
    """The SINR case covers both sides of the gate."""
    run_case("sinr-gate/seed1", tmp_path)
    capsys.readouterr()
    header, row = (tmp_path / "report.csv").read_text().splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    assert 0 < int(report["n_failed"]) < int(report["n_devices"])


def validation_text() -> str:
    """One line per reference entry: table, entry id, measured value, the
    printed `validate` line (verdict, gate marker, expected column) and
    the description.

    So a changed target, tolerance, value format or gate flag fails the
    comparison as surely as a changed measurement. Two seeds are too few
    for the deep-percentile entries, and their "absent" value is pinned
    along with the rest.
    """
    return "".join(
        f"{r.table}\t{r.entry_id}\t{r.measured}\t{r.line()}\t"
        f"{r.description}\n"
        for r in run_validation(seeds=(1, 2), jobs=1)
    )


def test_validation_measured_column_matches_golden():
    """Every table's drp, rp, ebf and numerology scenarios, which the
    run cases above only sample, pinned through `run_validation` with
    every column of each entry."""
    assert validation_text() == VALIDATION_GOLDEN.read_text()


def regenerate() -> None:
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            run_case(case, Path(tmp))
            dest = GOLDEN_DIR / case
            dest.mkdir(parents=True, exist_ok=True)
            for fname in CASES[case][3]:
                (dest / fname).write_bytes((Path(tmp) / fname).read_bytes())
        print(f"wrote {GOLDEN_DIR / case}", file=sys.stderr)
    VALIDATION_GOLDEN.write_text(validation_text())
    print(f"wrote {VALIDATION_GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
