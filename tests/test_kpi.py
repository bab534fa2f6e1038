"""KPI arithmetic on hand-built records and exact multi-seed merging."""

from collections import Counter
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from rachsim.config import build_scenario, scenario_fingerprint, scenario_with
from rachsim.engine import AccessRecord, OpportunityLog, RunResult, run
from rachsim.kpi import (
    EmptyObservationError,
    KpiReport,
    MergeMismatchError,
    NoSuccessError,
    REPORT_COLUMNS,
    build_report,
    csv_header,
    merge,
)


# The RunResult integer columns: AccessRecord fields that are not derived.
TICK_COLUMNS = tuple(
    f.name
    for f in fields(AccessRecord)
    if f.name not in ("device_id", "urllc", "success", "msg1_ticks")
)


def record(dev, delay_ticks, urllc=True, arrival=0):
    """Successful record with the given first-attempt-to-done delay."""
    return AccessRecord(
        device_id=dev,
        urllc=urllc,
        success=True,
        msg1_count=1,
        attempt_count=1,
        arrival_ticks=arrival,
        first_attempt_ticks=arrival,
        completion_ticks=arrival + delay_ticks,
        wait_ticks=0,
        msg1_ticks=56,
        msg2_ticks=168,
        msg3_ticks=None,
        msg4_ticks=None,
    )


def failure(dev, urllc=True):
    return AccessRecord(
        device_id=dev,
        urllc=urllc,
        success=False,
        msg1_count=10,
        attempt_count=9,
        arrival_ticks=0,
        first_attempt_ticks=0,
        completion_ticks=None,
        wait_ticks=None,
        msg1_ticks=None,
        msg2_ticks=None,
        msg3_ticks=None,
        msg4_ticks=None,
    )


def result_with(records, scenario=None, **log_over):
    """A RunResult whose device columns hold the given records."""
    scenario = scenario or build_scenario("")
    log = OpportunityLog(n_preambles=54, n_gnbs=1, n_macro=1)
    for key, value in log_over.items():
        setattr(log, key, value)
    columns = {
        name: np.array(
            [-1 if getattr(r, name) is None else getattr(r, name)
             for r in records],
            dtype=np.int64,
        )
        for name in TICK_COLUMNS
    }
    return RunResult(
        log=log,
        scenario=scenario,
        layout=None,
        placement=None,
        urllc=np.array([r.urllc for r in records], dtype=bool),
        **columns,
    )


def test_collision_single_cell_hand_case():
    res = result_with(
        [record(0, 280)], n_raos=1, used_cells=2, collided_cells=1
    )
    rep = build_report(res)
    assert rep.collision_probability() == 1 / 54
    util = rep.preamble_utilization()
    assert util["overall"] == 2 / 54
    assert util["reserved"] is None  # no reservation ever active
    assert util["reserved_priority"] is None


def test_collision_requires_observation():
    rep = build_report(result_with([]))
    with pytest.raises(EmptyObservationError):
        rep.collision_probability()
    with pytest.raises(EmptyObservationError):
        rep.preamble_utilization()


def test_per_class_collision_uses_class_pools():
    res = result_with(
        [record(0, 280)],
        n_raos=2,
        collided_urllc=1,
        collided_non_urllc=2,
        sum_pool_urllc=6,  # 3 reserved per opportunity
        sum_pool_non_urllc=102,
    )
    rep = build_report(res)
    assert rep.collision_probability("urllc") == 1 / 6
    assert rep.collision_probability("non_urllc") == 2 / 102
    with pytest.raises(ValueError):
        rep.collision_probability("martian")


def test_reserved_priority_utilization_conditions_on_active_stations():
    res = result_with(
        [record(0, 280)],
        n_raos=4,
        sum_r=12,
        prio_macro_r_sum=6,  # stations that actually saw priority traffic
        used_reserved_at_prio_macro=3,
        used_reserved=3,
    )
    rep = build_report(res)
    util = rep.preamble_utilization()
    assert util["reserved_priority"] == 0.5
    assert util["reserved"] == 3 / 12


def test_delay_cdf_three_points():
    # Delays 5, 10, 15 ms (280/560/840 ticks).
    rep = build_report(
        result_with([record(0, 280), record(1, 560), record(2, 840)], n_raos=1)
    )
    assert rep.cdf_points() == [
        (5.0, pytest.approx(1 / 3)),
        (10.0, pytest.approx(2 / 3)),
        (15.0, pytest.approx(1.0)),
    ]
    assert rep.mean_access_delay_ms() == pytest.approx(10.0)


def test_percentile_is_step_inverse_not_interpolated():
    rep = build_report(
        result_with(
            [record(i, (i + 1) * 56) for i in range(4)], n_raos=1
        )
    )  # delays 1, 2, 3, 4 ms
    assert rep.delay_percentile_ms(50.0) == 2.0  # ceil(0.5*4)=2nd value
    assert rep.delay_percentile_ms(75.0) == 3.0
    assert rep.delay_percentile_ms(76.0) == 4.0
    assert rep.delay_percentile_ms(25.0) == 1.0
    assert rep.delay_percentile_ms(100.0) == 4.0
    with pytest.raises(ValueError):
        rep.delay_percentile_ms(0.0)
    with pytest.raises(ValueError):
        rep.delay_percentile_ms(101.0)


def test_single_record_percentiles_collapse():
    rep = build_report(result_with([record(0, 392)], n_raos=1))
    pct = rep.delay_percentiles()
    assert pct[50.0] == pct[95.0] == pct[99.0] == 7.0
    assert pct[99.99] is None  # below the deep-tail sample gate


def test_deep_percentile_gate_boundary():
    scenario = build_scenario("")
    fp = scenario_fingerprint(scenario)
    below = KpiReport(fingerprint=fp, time_scale=Fraction(1))
    below.delay_hist = Counter({56: 99_999})
    assert below.delay_percentiles()[99.99] is None
    at = KpiReport(fingerprint=fp, time_scale=Fraction(1))
    at.delay_hist = Counter({56: 100_000})
    assert at.delay_percentiles()[99.99] == 1.0


def test_no_success_errors():
    rep = build_report(result_with([failure(0)], n_raos=1))
    with pytest.raises(NoSuccessError):
        rep.mean_access_delay_ms()
    with pytest.raises(NoSuccessError):
        rep.delay_percentile_ms(50.0)
    with pytest.raises(NoSuccessError):
        rep.cdf_points()
    assert rep.n_failed == 1


def test_class_split_histograms():
    rep = build_report(
        result_with(
            [record(0, 280, urllc=True), record(1, 560, urllc=False)],
            n_raos=1,
        )
    )
    assert rep.mean_access_delay_ms("urllc") == 5.0
    assert rep.mean_access_delay_ms("non_urllc") == 10.0
    assert rep.mean_access_delay_ms("all") == 7.5
    assert rep.n_urllc == 1 and rep.n_success_urllc == 1


def test_merge_is_commutative_and_associative():
    sc = build_scenario("n_devices = 40\n")
    reports = [
        build_report(run(scenario_with(sc, seed=s))) for s in (1, 2, 3, 4)
    ]
    a, b, c, d = reports
    left = merge([merge([a, b]), merge([c, d])])
    right = merge([d, c, b, a])
    flat = merge(reports)
    for x, y in ((left, right), (left, flat)):
        assert x == y


def test_merge_self_doubles_counts_keeps_ratios():
    sc = build_scenario("n_devices = 60\n")
    rep = build_report(run(sc))
    doubled = merge([rep, rep])
    assert doubled.n_devices == 2 * rep.n_devices
    assert doubled.n_opportunities == 2 * rep.n_opportunities
    assert doubled.collision_probability() == rep.collision_probability()
    assert doubled.mean_access_delay_ms() == pytest.approx(
        rep.mean_access_delay_ms()
    )
    assert doubled.delay_percentiles()[50.0] == rep.delay_percentiles()[50.0]


def test_merge_rejects_different_scenarios():
    a = build_report(run(build_scenario("n_devices = 10\n")))
    b = build_report(run(build_scenario("n_devices = 11\n")))
    with pytest.raises(MergeMismatchError):
        merge([a, b])


def test_merge_accepts_different_seeds():
    sc = build_scenario("n_devices = 10\n")
    a = build_report(run(sc))
    b = build_report(run(scenario_with(sc, seed=99)))
    pooled = merge([a, b])
    assert pooled.n_seeds == 2


def test_merge_does_not_mutate_inputs():
    sc = build_scenario("n_devices = 10\n")
    a = build_report(run(sc))
    before = a.n_devices
    merge([a, a])
    assert a.n_devices == before


def test_merge_empty_rejected():
    with pytest.raises(ValueError):
        merge([])


def test_ratios_bounded_on_real_run():
    rep = build_report(run(build_scenario("n_devices = 400\n")))
    assert 0.0 <= rep.collision_probability() <= 1.0
    for value in rep.preamble_utilization().values():
        if value is not None:
            assert 0.0 <= value <= 1.0
    assert rep.n_success + rep.n_failed == rep.n_devices
    assert rep.collided_cells <= rep.used_cells


def test_csv_row_matches_header_width():
    rep = build_report(run(build_scenario("n_devices = 50\n")))
    row = rep.csv_row()
    assert len(row.split(",")) == len(REPORT_COLUMNS)
    assert csv_header().split(",") == list(REPORT_COLUMNS)


def test_csv_row_on_empty_run_has_blank_kpis():
    rep = build_report(run(build_scenario("n_devices = 0\n")))
    row = rep.csv_row().split(",")
    assert len(row) == len(REPORT_COLUMNS)
    cols = dict(zip(REPORT_COLUMNS, row))
    assert cols["collision_overall"] == ""
    assert cols["mean_delay_ms"] == ""
    assert cols["n_devices"] == "0"


def test_time_scale_propagates_to_ms():
    sc = build_scenario("n_devices = 30\nsubcarrier_spacing_khz = 30\n")
    rep = build_report(run(sc))
    base = build_report(
        run(scenario_with(sc, numerology=build_scenario("").numerology))
    )
    # Same tick histograms at the same seed, reported at half scale.
    assert rep.mean_access_delay_ms() == pytest.approx(
        base.mean_access_delay_ms() / 2
    )


def test_format_table_smoke():
    rep = build_report(run(build_scenario("n_devices = 25\n")))
    text = rep.format_table()
    assert "collision" in text and "mean delay" in text
