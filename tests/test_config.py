"""Scenario parsing, validation, serialization, and overrides."""

from dataclasses import fields, is_dataclass

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rachsim.config import (
    ENHANCEMENT_FLAGS,
    ConfigError,
    Scenario,
    ScenarioConstraintError,
    ScenarioParseError,
    TopologyConfig,
    TrafficConfig,
    apply_overrides,
    build_scenario,
    scenario_fingerprint,
    scenario_with,
    serialize_scenario,
)
from rachsim.timebase import Numerology, TimingParams


def test_empty_text_yields_defaults():
    sc = build_scenario("")
    assert sc.n_devices == 5000
    assert sc.n_preambles == 54
    assert sc.max_preamble_tx == 10
    assert sc.harq_fail_prob == 0.10
    assert sc.enhancements == frozenset()
    assert sc.reserved_r == 0
    assert sc.timing.ra_period_ms == 5.0
    assert sc.topology.n_macro_cells == 3


def test_comments_and_blank_lines_ignored():
    sc = build_scenario("# header\n\nn_devices = 10  # trailing\n")
    assert sc.n_devices == 10


def test_unknown_key_reports_line():
    with pytest.raises(ScenarioParseError) as err:
        build_scenario("n_devices = 5\nnot_a_key = 1\n")
    assert err.value.line == 2
    assert "not_a_key" in str(err.value)


def test_duplicate_key_reports_line():
    with pytest.raises(ScenarioParseError) as err:
        build_scenario("seed = 1\nseed = 2\n")
    assert err.value.line == 2


def test_invalid_value_reports_kind():
    with pytest.raises(ScenarioParseError, match="expected int"):
        build_scenario("n_devices = many\n")


def test_missing_equals_rejected():
    with pytest.raises(ScenarioParseError):
        build_scenario("n_devices 5\n")


def test_reserved_exceeding_pool_rejected():
    with pytest.raises(ScenarioConstraintError):
        build_scenario("enhancements = rp\nreserved_r = 60\n")


def test_reserved_without_rp_rejected():
    with pytest.raises(ScenarioConstraintError):
        build_scenario("reserved_r = 3\n")


def test_rp_and_drp_are_exclusive():
    with pytest.raises(ScenarioConstraintError):
        build_scenario("enhancements = rp,drp\n")


def test_dynamic_requires_drp():
    with pytest.raises(ScenarioConstraintError):
        build_scenario("reserved_r = dynamic\n")
    sc = build_scenario("enhancements = drp\nreserved_r = dynamic\n")
    assert sc.reserved_r == "dynamic"


def test_drp_with_fixed_reserved_rejected():
    with pytest.raises(ScenarioConstraintError):
        build_scenario("enhancements = drp\nreserved_r = 4\n")


def test_rp_defaults_reserved_to_three():
    sc = build_scenario("enhancements = rp\n")
    assert sc.reserved_r == 3


def test_drp_defaults_reserved_to_dynamic():
    # drp admits no other value, so a document that omits reserved_r gets
    # it; overrides get no default, and the message names the fix.
    sc = build_scenario("enhancements = drp,edt\n")
    assert sc.reserved_r == "dynamic"
    with pytest.raises(ScenarioConstraintError, match="reserved_r = dynamic"):
        apply_overrides(build_scenario(""), [("enhancements", "drp")])


def test_unknown_enhancement_rejected():
    with pytest.raises(ScenarioConstraintError):
        build_scenario("enhancements = edt,warp\n")


def test_sinr_threshold_off_values():
    assert build_scenario("sinr_threshold_db = off\n").topology.sinr_threshold_db is None
    assert build_scenario("sinr_threshold_db = -3.5\n").topology.sinr_threshold_db == -3.5


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _lattice_ms(lo_ticks):
    """Durations on the 1/56 ms tick lattice."""
    return st.integers(lo_ticks, 56 * 500).map(lambda k: k / 56)


@st.composite
def scenario_texts(draw):
    """A scenario document of a random subset of key groups; the keys of a
    group (say, a pool size and its flags) are valid only together."""
    flags = draw(st.sets(st.sampled_from(ENHANCEMENT_FLAGS)))
    if {"rp", "drp"} <= flags:
        flags.discard(draw(st.sampled_from(["rp", "drp"])))
    n_pre = draw(st.integers(2, 64))
    reserved = (
        "dynamic" if "drp" in flags
        else draw(st.integers(1, n_pre - 1)) if "rp" in flags else 0
    )
    radius = draw(_floats(1.0, 1000.0))
    cce_total = draw(st.integers(1, 64))
    groups = [
        {"enhancements": ",".join(sorted(flags)), "reserved_r": reserved,
         "n_preambles": n_pre},
        {"cell_radius_m": radius,
         "femto_radius_m": radius * draw(_floats(0.01, 0.99))},
        {"cce_total": cce_total,
         "cce_per_pdcch": draw(st.integers(1, cce_total))},
        {"n_devices": draw(st.integers(0, 10**6))},
        {"urllc_fraction": draw(_floats(0.0, 1.0))},
        {"max_preamble_tx": draw(st.integers(1, 20))},
        {"harq_fail_prob": draw(_floats(0.0, 1.0))},
        {"max_harq": draw(st.integers(1, 10))},
        {"rar_grants_per_msg": draw(st.integers(1, 10))},
        {"seed": draw(st.integers(0, 2**64 - 1))},
        {"subcarrier_spacing_khz": draw(st.sampled_from([15, 30, 60, 120]))},
        {"symbols_per_slot": draw(st.sampled_from([7, 4, 2]))},
        {"n_macro_cells": draw(st.integers(1, 19)),
         "n_femto_cells": draw(st.integers(0, 200))},
        {"pl_exponent": draw(_floats(0.5, 6.0)),
         "pl_ref_db": draw(_floats(-200.0, 200.0)),
         "pl_ref_dist_m": draw(_floats(0.1, 100.0))},
        {"p_max_dbm": draw(_floats(-50.0, 50.0)),
         "ramp_step_db": draw(_floats(0.0, 10.0)),
         "noise_power_dbm": draw(_floats(-200.0, 0.0))},
        {"sinr_threshold_db": draw(
            st.one_of(st.just("off"), _floats(-50.0, 50.0))
        )},
        {"urllc_alpha": draw(_floats(0.1, 10.0)),
         "urllc_beta": draw(_floats(0.1, 10.0)),
         "non_urllc_horizon_s": draw(_floats(0.1, 100.0))},
    ]
    groups += [
        {key: draw(_lattice_ms(1))}
        for key in ("t_msg1_ms", "t_msg3_ms", "ra_period_ms")
    ]
    groups += [
        {key: draw(_lattice_ms(0))}
        for key in ("rar_window_ms", "bi_max_ms",
                    "contention_resolution_timer_ms")
    ]
    chosen = draw(st.lists(st.sampled_from(groups), unique_by=id))
    return "".join(
        f"{key} = {value!r}\n" if isinstance(value, float)
        else f"{key} = {value}\n"
        for group in chosen for key, value in group.items()
    )


@given(scenario_texts())
@example(
    "n_devices = 123\nenhancements = edt,pp\nurllc_fraction = 0.05\n"
    "n_femto_cells = 9\nrar_window_ms = 0\nseed = 77\n"
)
def test_roundtrip_through_serialization(text):
    sc = build_scenario(text)
    again = build_scenario(serialize_scenario(sc))
    assert again == sc
    assert serialize_scenario(again) == serialize_scenario(sc)


def test_serialization_is_canonical():
    a = build_scenario("n_devices = 5\nseed = 2\n")
    b = build_scenario("seed = 2\nn_devices = 5\n")
    assert serialize_scenario(a) == serialize_scenario(b)


def test_fingerprint_ignores_seed_only():
    base = build_scenario("n_devices = 50\n")
    assert scenario_fingerprint(base) == scenario_fingerprint(
        scenario_with(base, seed=999)
    )
    assert scenario_fingerprint(base) != scenario_fingerprint(
        scenario_with(base, n_devices=51)
    )


def test_scenario_with_revalidates():
    base = build_scenario("")
    with pytest.raises(ScenarioConstraintError):
        scenario_with(base, n_preambles=0)


def test_apply_overrides_basic():
    base = build_scenario("")
    out = apply_overrides(base, [("n_devices", "10"), ("ra_period_ms", "2.5")])
    assert out.n_devices == 10
    assert out.timing.ra_period_ms == 2.5
    assert base.n_devices == 5000  # base untouched


def test_apply_overrides_combined_constraints():
    # rp plus reserved_r must be applied atomically; neither alone is valid
    # against the defaults.
    base = build_scenario("")
    out = apply_overrides(base, [("enhancements", "rp"), ("reserved_r", "2")])
    assert out.reserved_r == 2
    with pytest.raises(ConfigError):
        apply_overrides(base, [("enhancements", "rp")])


def test_apply_overrides_unknown_key():
    with pytest.raises(ScenarioParseError):
        apply_overrides(build_scenario(""), [("warp_factor", "9")])


def test_seed_must_fit_64_bits():
    with pytest.raises(ScenarioConstraintError):
        build_scenario(f"seed = {2**64}\n")


def test_femto_radius_must_be_inside_macro():
    with pytest.raises(ScenarioConstraintError):
        build_scenario("femto_radius_m = 50\n")  # equals macro radius


# The config dataclasses, walked directly: a field of any of them that is
# not a config dataclass itself must be a scenario key.
CONFIG_CLASSES = (Scenario, Numerology, TimingParams, TopologyConfig,
                  TrafficConfig)
CONFIG_FIELDS = [
    f for cls in CONFIG_CLASSES for f in fields(cls)
    if not is_dataclass(f.default)
]

# A valid non-default text value, and the document lines it needs beside
# it, for each key where 2 * default + 1 is not one.
NON_DEFAULT = {
    "urllc_fraction": ("0.5", ""),
    "harq_fail_prob": ("0.5", ""),
    "reserved_r": ("4", "enhancements = rp\n"),
    "enhancements": ("edt,pp", ""),
    "subcarrier_spacing_khz": ("30", ""),
    "symbols_per_slot": ("2", ""),
    "sinr_threshold_db": ("-3.5", ""),
}


def test_every_config_field_is_one_line_of_the_text_form():
    text = serialize_scenario(Scenario())
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert sorted(keys) == sorted(f.name for f in CONFIG_FIELDS)


@pytest.mark.parametrize("f", CONFIG_FIELDS, ids=lambda f: f.name)
def test_every_config_field_is_a_scenario_key(f):
    if f.name in NON_DEFAULT:
        value, extra = NON_DEFAULT[f.name]
    else:
        value, extra = str(2 * f.default + 1), ""
    base = build_scenario(extra)
    sc = build_scenario(f"{extra}{f.name} = {value}\n")
    assert sc != base
    assert f"{f.name} = {value}" in serialize_scenario(sc).splitlines()
    assert build_scenario(serialize_scenario(sc)) == sc
    pooled_apart = scenario_fingerprint(sc) != scenario_fingerprint(base)
    assert pooled_apart == (f.name != "seed")
