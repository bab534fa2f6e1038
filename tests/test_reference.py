"""Reference scenario set and validation harness plumbing.

Full-scale scoring runs in the acceptance suite; here we cover the
harness mechanics on reduced seed lists.
"""

import re

import pytest

from rachsim.config import Scenario, scenario_with
from rachsim.kpi import REPORT_COLUMNS
from rachsim.reference import (
    ENTRIES,
    REFERENCE_SCENARIOS,
    SEEDS_10,
    SEEDS_20,
    SEEDS_DEEP,
    TABLES,
    _GRID,
    _POOL_CACHE,
    EntryResult,
    Row,
    _ms,
    _num,
    _pct,
    _pct1,
    _score,
    gates_passed,
    pooled_report,
    replicate,
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


def test_table_ids_in_output_order():
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


@pytest.mark.parametrize("jobs", [0, -5])
def test_replicate_rejects_jobs_below_one(jobs):
    work = [(REFERENCE_SCENARIOS["baseline-5k"], s) for s in (1, 2)]
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        replicate(work, jobs=jobs)


def test_run_validation_rejects_jobs_below_one():
    # It fails before any pool runs: no pool is logged or memoized.
    _POOL_CACHE.clear()
    lines = []
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_validation(tables=["II"], seeds=(1,), jobs=0, log=lines.append)
    assert lines == []
    assert not _POOL_CACHE


def test_validation_reads_pools_in_table_order():
    # tools/record_bench.py charges each pool to the table that first
    # logs it, so the order in which the entries read their pools is
    # part of the stderr contract.
    _POOL_CACHE.clear()
    lines = []
    run_validation(tables=["FIG6", "V"], seeds=(1,), jobs=1,
                   log=lines.append)
    first = ["numerology-60-7", "numerology-15-2", "numerology-15-7"]
    grid = first + [name for name in _GRID if name not in first]
    assert [line for line in lines if not line.startswith("ran ")] == [
        "scoring table FIG6",
        "running baseline-5k over 1 seed(s)",
        "running edt-5k over 1 seed(s)",
        "scoring table V",
        *(f"running {name} over 1 seed(s)" for name in grid),
    ]


# -- the entries as data ------------------------------------------------------

_ROWS = [(table, row) for table, rows in ENTRIES.items() for row in rows]
_KINDS = {"abs", "rel", "<=", ">=", "spread", "drop", "falls", "grid"}
# The kinds that read several scenarios, and those judged against text.
_SEVERAL = {"spread", "drop", "falls", "grid"}
_TEXT = {"falls", "grid"}


@pytest.mark.parametrize(
    "table,row", _ROWS, ids=[row.entry_id for _, row in _ROWS]
)
def test_entry_is_well_formed_data(table, row):
    assert isinstance(row, Row)
    assert row.entry_id.startswith(f"{table}/")
    assert set(row.scenarios) <= set(REFERENCE_SCENARIOS)
    assert row.kpi in REPORT_COLUMNS
    assert row.check in _KINDS
    assert (len(row.scenarios) > 1) == (row.check in _SEVERAL)
    assert isinstance(row.target, str) == (row.check in _TEXT)
    assert (row.tol is not None) == (row.check in ("abs", "rel"))
    if row.check == "drop":
        assert len(row.scenarios) == 2
    if row.check == "grid":
        assert row.scenarios == _GRID


def test_entry_ids_are_unique_and_every_kind_is_used():
    ids = [row.entry_id for _, row in _ROWS]
    assert len(ids) == len(set(ids)) == 43
    assert {row.check for _, row in _ROWS} == _KINDS


# -- the one scorer, on stub pools ------------------------------------------


class _StubReport:
    def __init__(self, value):
        self.value = value

    def kpis(self):
        return {"collision_overall": self.value}


def _judge(check, values, target, tol=None, fmt=_pct):
    """Score one row over stub scenarios s0, s1, ... holding `values`."""
    names = tuple(f"s{i}" for i in range(len(values)))
    reports = dict(zip(names, map(_StubReport, values)))
    row = Row("T/x", names[0] if len(names) == 1 else names, (1, 2),
              "collision_overall", check, target, tol, fmt, "stub")
    return _score("T", row, lambda name, seeds: reports[name])


# (check, values, target, tol, fmt, passed, measured, expected)
_SCORE_CASES = [
    ("abs", [0.005], 0.0048, 0.0015, _pct, True, "0.5%",
     "0.48% +-0.15%"),
    ("abs", [0.007], 0.0048, 0.0015, _pct, False, "0.7%",
     "0.48% +-0.15%"),
    ("abs", [None], 0.0048, 0.0015, _pct, False, "absent",
     "0.48% +-0.15%"),
    ("rel", [30.0], 28.98, 0.15, _ms, True, "30 ms",
     "28.98 ms +-15%"),
    ("rel", [40.0], 28.98, 0.15, _ms, False, "40 ms",
     "28.98 ms +-15%"),
    ("rel", [None], 28.98, 0.15, _ms, False, "absent",
     "28.98 ms +-15%"),
    ("<=", [9.0], 10.0, None, _ms, True, "9 ms", "<= 10 ms"),
    ("<=", [11.0], 10.0, None, _ms, False, "11 ms", "<= 10 ms"),
    ("<=", [None], 10.0, None, _ms, False, "absent", "<= 10 ms"),
    (">=", [30.0], 25.0, None, _num, True, "30", ">= 25"),
    (">=", [20.0], 25.0, None, _num, False, "20", ">= 25"),
    (">=", [None], 25.0, None, _num, False, "absent", ">= 25"),
    # The spread is measured against the first value, not the last.
    ("spread", [0.0100, 0.0108, 0.0104], 0.001, None, _pct, True,
     "0.08%", "<= 0.1%"),
    ("spread", [0.0100, 0.0102, 0.0115], 0.001, None, _pct, False,
     "0.15%", "<= 0.1%"),
    ("spread", [0.0100, None], 0.001, None, _pct, False, "absent",
     "<= 0.1%"),
    ("drop", [0.005, 0.0025], 0.40, None, _pct1, True, "50.0%",
     ">= 40.0%"),
    ("drop", [0.005, 0.004], 0.40, None, _pct1, False, "20.0%",
     ">= 40.0%"),
    # A drop from 0 reads 0.0, not a division by zero.
    ("drop", [0.0, 0.001], 0.40, None, _pct1, False, "0.0%",
     ">= 40.0%"),
    ("drop", [None, 0.001], 0.40, None, _pct1, False, "absent",
     ">= 40.0%"),
    ("falls", [0.3, 0.2, 0.2, 0.1], "non-increasing", None, _pct, True,
     "30% -> 20% -> 20% -> 10%", "non-increasing"),
    ("falls", [0.3, 0.2, 0.25], "non-increasing", None, _pct, False,
     "30% -> 20% -> 25%", "non-increasing"),
    ("falls", [0.3, None, 0.1], "non-increasing", None, _pct, False,
     "30% -> absent -> 10%", "non-increasing"),
]


@pytest.mark.parametrize(
    "check,values,target,tol,fmt,passed,measured,expected",
    _SCORE_CASES,
    ids=[
        f"{c[0]}-" + ("absent" if None in c[1] else "pass" if c[5]
                      else "fail")
        for c in _SCORE_CASES
    ],
)
def test_score_each_check_kind(
    check, values, target, tol, fmt, passed, measured, expected
):
    res = _judge(check, values, target, tol, fmt)
    assert (res.passed, res.measured, res.expected) == (
        passed, measured, expected
    )
    assert (res.entry_id, res.table, res.gate, res.description) == (
        "T/x", "T", True, "stub"
    )


def test_falls_allows_a_rise_of_one_part_in_1e12():
    a = 0.5
    assert _judge("falls", [a, a + 1e-12], "n").passed
    assert not _judge("falls", [a, a + 1e-11], "n").passed


# The numerology grid row-major: one row per subcarrier spacing, one
# column per slot length, each falling by 10 down a column and 1 along a
# row.
_GOOD_GRID = [100.0 - 10 * i - j for i in range(4) for j in range(3)]


def _grid(values):
    return _judge("grid", values, "strict decrease", fmt=_ms)


def test_grid_passes_a_strict_fall_along_rows_and_columns():
    res = _grid(_GOOD_GRID)
    assert (res.passed, res.measured, res.expected) == (
        True, "strict", "strict decrease"
    )


def test_grid_fails_one_row_with_a_tie():
    values = list(_GOOD_GRID)
    values[5] = values[4]  # row 1 reads 90, 89, 89: every column falls
    res = _grid(values)
    assert (res.passed, res.measured) == (False, "violated")


def test_grid_fails_one_column_with_a_rise():
    values = list(_GOOD_GRID)
    values[6] = 95.0  # column 0 reads 100, 90, 95, 70: every row falls
    res = _grid(values)
    assert (res.passed, res.measured) == (False, "violated")


def test_grid_with_an_absent_value_fails():
    values = list(_GOOD_GRID)
    values[7] = None
    res = _grid(values)
    assert (res.passed, res.measured) == (False, "absent")
