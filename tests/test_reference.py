"""Reference scenario set and validation harness plumbing.

Full-scale scoring runs in the acceptance suite; here we cover the
harness mechanics on reduced seed lists.
"""

import re

import pytest

from rachsim.config import Scenario, scenario_with
from rachsim.reference import (
    REFERENCE_SCENARIOS,
    SEEDS_10,
    SEEDS_20,
    SEEDS_DEEP,
    TABLES,
    _POOL_CACHE,
    EntryResult,
    gates_passed,
    pooled_report,
    run_validation,
)


def test_reference_scenarios_are_valid_and_distinct():
    masked = {}
    for name, sc in REFERENCE_SCENARIOS.items():
        assert isinstance(sc, Scenario)
        masked[name] = scenario_with(sc, seed=0)
    # The reference-frame grid cell is the baseline scenario by another
    # name; every other configuration is unique.
    assert masked["numerology-15-7"] == masked["baseline-5k"]
    assert len(set(masked.values())) == len(masked) - 1


def test_expected_scenario_inventory():
    names = set(REFERENCE_SCENARIOS)
    assert {"baseline-5k", "baseline-10k", "edt-5k", "drp-mixed"} <= names
    assert {f"pp-femto-{k}" for k in (0, 5, 8, 10, 12)} <= names
    assert {f"rp-r{r}" for r in range(1, 6)} <= names
    # One numerology scenario per supported grid cell.
    assert sum(1 for n in names if n.startswith("numerology-")) == 12


def test_seed_lists_are_frozen():
    assert SEEDS_10 == tuple(range(1, 11))
    assert SEEDS_20 == tuple(range(1, 21))
    assert len(SEEDS_DEEP) == 405


def test_pooled_report_memoizes():
    _POOL_CACHE.clear()
    lines = []
    a = pooled_report("baseline-5k", (1,), jobs=1, log=lines.append)
    b = pooled_report("baseline-5k", (1,), jobs=1, log=lines.append)
    assert a is b
    # The pool logs its start, and its wall time, once; the memoized call
    # logs nothing.
    assert len(lines) == 2
    assert lines[0] == "running baseline-5k over 1 seed(s)"
    assert re.fullmatch(r"ran baseline-5k over 1 seed\(s\) in \d+\.\d\d s",
                        lines[1]), lines[1]
    c = pooled_report("baseline-5k", (1, 2), jobs=1)
    assert c is not a and c.n_seeds == 2


def test_run_validation_rejects_unknown_table():
    with pytest.raises(ValueError, match="unknown reference table"):
        run_validation(tables=["XIII"], seeds=(1,), jobs=1)


def test_table_names_cover_evaluators():
    assert TABLES == ("II", "FIG6", "III", "IV", "V", "VI", "VII")


def test_group_ii_entry_shape_and_lines():
    _POOL_CACHE.clear()
    lines = []
    results = run_validation(tables=["II"], seeds=(1,), jobs=1,
                             log=lines.append)
    # The table's line comes first, then the start and end of each pool.
    assert lines[0] == "scoring table II"
    assert len(lines) == 1 + 2 * 2
    assert all(line.startswith(("running ", "ran ")) for line in lines[1:])
    assert len(results) == 6
    for res in results:
        assert isinstance(res, EntryResult)
        assert res.table == "II"
        assert res.entry_id.startswith("II/")
        line = res.line()
        assert line.startswith(("PASS", "FAIL"))
        assert res.entry_id in line
    ids = [r.entry_id for r in results]
    assert "II/5k/collision" in ids and "II/10k/mean-delay" in ids


def test_gates_passed_ignores_informational_rows():
    gate_fail = EntryResult(
        entry_id="x", table="T", gate=True, passed=False,
        measured="1", expected="2", description="",
    )
    info_fail = EntryResult(
        entry_id="y", table="T", gate=False, passed=False,
        measured="1", expected="2", description="",
    )
    ok = EntryResult(
        entry_id="z", table="T", gate=True, passed=True,
        measured="2", expected="2", description="",
    )
    assert gates_passed([ok, info_fail])
    assert not gates_passed([ok, gate_fail])


def test_run_validation_rejects_an_empty_seed_list():
    # An empty override is an error, not a request for the frozen lists;
    # it must fail before any pool runs.
    _POOL_CACHE.clear()
    lines = []
    with pytest.raises(ValueError, match="empty seed list"):
        run_validation(tables=["II"], seeds=(), jobs=1, log=lines.append)
    assert lines == []
