"""Golden console bytes: `KpiReport.format_table` and `rachsim sweep`.

The report fixtures of `test_golden.py` pin the CSV files; this file pins
what a user reads on the console. The reports cover every way a figure
can be missing: an empty observation period (no devices), a run with no
successes (every device fails), a run with a reserved pool (the reserved
utilization rows are present) and a pooled report deep enough for the
99.99th percentile. The sweep crosses an empty cell, whose summary line
reads "empty", with a populated one; its stdout and `sweep.csv` are both
pinned.

The same reports feed the agreement test: every `kpis()` value equals
the public method that backs its column, None included, apart from the
99.99th-percentile depth gate.

Regenerate the fixture (`python tests/test_golden_console.py`) only in a
change that alters the model or the console format on purpose, and say
in CHANGES.md what changed and why.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rachsim.cli import EXIT_OK, main
from rachsim.config import build_scenario, scenario_with
from rachsim.engine import run
from rachsim.kpi import (
    DEEP_PERCENTILE_MIN_SAMPLES,
    REPORT_COLUMNS,
    build_report,
    merge,
)
from rachsim.reference import REFERENCE_SCENARIOS

GOLDEN = Path(__file__).with_name("golden") / "console.json"

SWEEP_ARGV = ("sweep", "n_devices=0,50", "seeds=1..2", "--jobs", "1")


@cache
def report(case: str):
    """The pinned report of one case name."""
    if case == "empty":
        return build_report(run(build_scenario("n_devices = 0\n")))
    if case == "all-fail":
        return build_report(run(build_scenario(
            "n_devices = 50\nharq_fail_prob = 1.0\nmax_preamble_tx = 1\n"
        )))
    if case == "rp-r1":
        return build_report(run(REFERENCE_SCENARIOS["rp-r1"]))
    if case == "baseline-10k-x11":
        rep = build_report(run(REFERENCE_SCENARIOS["baseline-10k"]))
        return merge([rep] * 11)
    raise KeyError(case)


CASES = ("empty", "all-fail", "rp-r1", "baseline-10k-x11")


def sweep_output() -> dict[str, str]:
    """stdout and sweep.csv of SWEEP_ARGV, with the output directory
    shown as OUT."""
    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main([*SWEEP_ARGV, "--out", tmp]) == EXIT_OK
        csv = (Path(tmp) / "sweep.csv").read_text()
    return {"stdout": stdout.getvalue().replace(tmp, "OUT"), "csv": csv}


@pytest.mark.parametrize("case", CASES)
def test_format_table_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())["format_table"]
    assert report(case).format_table() == golden[case]


def test_sweep_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())["sweep"]
    assert sweep_output() == golden


def _method_value(rep, column):
    """The public method behind `column`, called as a user would."""
    percentiles = {"delay_p50_ms": 50.0, "delay_p95_ms": 95.0,
                   "delay_p99_ms": 99.0, "delay_p9999_ms": 99.99}
    if column.startswith("collision_"):
        return rep.collision_probability(column.removeprefix("collision_"))
    if column.startswith("util_"):
        return rep.preamble_utilization()[column.removeprefix("util_")]
    if column == "mean_delay_ms":
        return rep.mean_access_delay_ms()
    if column.startswith("mean_delay_"):
        klass = column.removeprefix("mean_delay_").removesuffix("_ms")
        return rep.mean_access_delay_ms(klass)
    if column in percentiles:
        return rep.delay_percentile_ms(percentiles[column])
    if column == "urllc_delay_p9999_ms":
        return rep.delay_percentile_ms(99.99, "urllc")
    return None


def _deep_enough(rep, column) -> bool:
    """Whether the depth gate lets a 99.99th percentile column show."""
    if column == "delay_p9999_ms":
        return rep.n_success >= DEEP_PERCENTILE_MIN_SAMPLES
    if column == "urllc_delay_p9999_ms":
        return rep.n_success_urllc >= DEEP_PERCENTILE_MIN_SAMPLES
    return True


@pytest.mark.parametrize("case", CASES)
def test_kpis_agree_with_the_public_methods(case):
    rep = report(case)
    kpis = rep.kpis()
    assert tuple(kpis) == REPORT_COLUMNS
    for column in REPORT_COLUMNS:
        if column.startswith(("collision_", "util_", "mean_delay", "delay_",
                              "urllc_delay_")):
            want = _method_value(rep, column)
            if not _deep_enough(rep, column):
                want = None
            assert kpis[column] == want, (case, column)
    assert kpis["n_opportunities"] == rep.n_raos
    assert kpis["mean_msg1"] == rep.mean_msg1_count
    assert kpis["success_rate"] == rep.success_rate
    for column in ("n_seeds", "n_devices", "n_urllc", "n_success",
                   "n_failed", "n_gnbs", "n_preambles"):
        assert kpis[column] == getattr(rep, column), (case, column)


@st.composite
def small_scenarios(draw):
    """Small runs across the ways a figure can lack a basis: no devices,
    no priority devices, no successes, and pools that come and go."""
    flags = draw(st.sampled_from(
        ["", "rp", "drp", "pp", "rp,pp", "drp,ebf,pp", "edt,ebf"]
    ))
    return build_scenario(
        f"n_devices = {draw(st.integers(0, 60))}\n"
        f"urllc_fraction = {draw(st.sampled_from([0, 0.05, 1]))}\n"
        f"harq_fail_prob = {draw(st.sampled_from([0.1, 1]))}\n"
        f"n_femto_cells = {draw(st.sampled_from([0, 3]))}\n"
        f"enhancements = {flags}\n"
        + ("reserved_r = dynamic\n" if "drp" in flags else "")
    )


@settings(max_examples=40, deadline=None)
@given(scenario=small_scenarios(), seed=st.integers(1, 2**32))
def test_figure_methods_return_none_where_kpis_do(scenario, seed):
    # One run and its merge with the next seed's run: every figure method
    # agrees with its column, None included, and the collision ratio has
    # no value exactly over an empty observation period.
    one = build_report(run(scenario_with(scenario, seed=seed)))
    two = build_report(run(scenario_with(scenario, seed=seed + 1)))
    for rep in (one, merge([one, two])):
        kpis = rep.kpis()
        for column in REPORT_COLUMNS:
            if column.startswith(("collision_", "util_", "mean_delay",
                                  "delay_", "urllc_delay_")):
                want = _method_value(rep, column)
                if not _deep_enough(rep, column):
                    want = None
                assert kpis[column] == want, column
        assert (kpis["collision_overall"] is None) == (rep.n_raos == 0)
        assert (rep.cdf_points() == []) == (rep.n_success == 0)


def regenerate() -> None:
    data = {
        "format_table": {case: report(case).format_table() for case in CASES},
        "sweep": sweep_output(),
    }
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
