"""Golden per-device columns: `engine.run` pinned column by column.

The report fixtures of `test_golden.py` pin aggregates, which a wrong
value for one device can leave unchanged. Here each case pins the sha256
of every `RunResult` device column (`urllc` and the tick columns) and
every `OpportunityLog` value, so a change that moves one device's
outcome, or files it under another device id, fails the comparison.

The cases are reference scenarios, some with `--set` style overrides,
at seeds 1 and 2. Regenerate the fixture (`python
tests/test_golden_columns.py`) only in a change that alters the model on
purpose, and say in CHANGES.md what changed and why.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rachsim.config import apply_overrides, scenario_with
from rachsim.engine import _TICK_COLUMNS, run
from rachsim.reference import REFERENCE_SCENARIOS

GOLDEN = Path(__file__).with_name("golden") / "columns.json"

COLUMNS = ("urllc",) + _TICK_COLUMNS
SEEDS = (1, 2)
# case name -> (reference scenario, overrides as (key, value) pairs)
CASES = {
    "baseline-10k": ("baseline-10k", ()),
    "overload-20k": ("baseline-10k", (("n_devices", "20000"),)),
    "drp-mixed": ("drp-mixed", ()),
    "edt-pp": ("edt-pp", ()),
    "rp5-mixed-dense": ("rp5-mixed-dense", ()),
    # The overrides of the `sinr-gate` report case in test_golden.py.
    "sinr-gate": ("baseline-mixed", (
        ("n_devices", "2000"),
        ("cell_radius_m", "1000"),
        ("sinr_threshold_db", "4"),
    )),
}
CASE_IDS = [f"{name}/seed{seed}" for name in CASES for seed in SEEDS]


def digest(case: str) -> dict:
    """The column digests and log values of one case id."""
    name, seed = case.rsplit("/seed", 1)
    base, overrides = CASES[name]
    scenario = apply_overrides(REFERENCE_SCENARIOS[base], overrides)
    res = run(scenario_with(scenario, seed=int(seed)))
    columns = {}
    for col in COLUMNS:
        values = np.ascontiguousarray(getattr(res, col))
        sha = hashlib.sha256(values.tobytes()).hexdigest()
        columns[col] = f"{values.dtype.str}:{len(values)}:{sha}"
    return {"columns": columns, "log": dataclasses.asdict(res.log)}


@pytest.mark.parametrize("case", CASE_IDS)
def test_columns_match_golden(case):
    golden = json.loads(GOLDEN.read_text())[case]
    got = digest(case)
    assert got["log"] == golden["log"]
    for col in COLUMNS:
        assert got["columns"][col] == golden["columns"][col], col


def regenerate() -> None:
    GOLDEN.write_text(
        json.dumps({case: digest(case) for case in CASE_IDS}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
