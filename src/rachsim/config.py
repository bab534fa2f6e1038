"""Scenario configuration: dataclasses, the flat key=value parser, validation.

A scenario file is a UTF-8 text document of `key = value` lines with `#`
comments. Keys mirror the scenario fields below; durations are in ms,
distances in meters. Unknown keys are rejected with the offending line
number so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Union

from .timebase import DEFAULT_TIMING, Numerology, TimingParams, require_finite

ENHANCEMENT_FLAGS = ("edt", "rp", "drp", "ebf", "pp")

DYNAMIC = "dynamic"


class ConfigError(ValueError):
    """Raised for unparseable or constraint-violating scenario input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScenarioParseError(ConfigError):
    pass


class ScenarioConstraintError(ConfigError):
    pass


@dataclass(frozen=True)
class TopologyConfig:
    n_macro_cells: int = 3
    cell_radius_m: float = 50.0
    n_femto_cells: int = 0
    femto_radius_m: float = 10.0
    pl_ref_db: float = 63.57
    pl_ref_dist_m: float = 15.0
    pl_exponent: float = 3.44
    p_max_dbm: float = 14.0
    p_init_target_dbm: float = -104.0
    ramp_step_db: float = 2.0
    noise_power_dbm: float = -107.0
    freq_ghz: float = 2.6
    bw_mhz: float = 5.0
    sinr_threshold_db: float | None = None

    def __post_init__(self) -> None:
        require_finite(self, ScenarioConstraintError)
        if self.n_macro_cells < 1:
            raise ScenarioConstraintError("n_macro_cells must be >= 1")
        if self.cell_radius_m <= 0:
            raise ScenarioConstraintError("cell_radius_m must be > 0")
        if self.n_femto_cells < 0:
            raise ScenarioConstraintError("n_femto_cells must be >= 0")
        if not 0 < self.femto_radius_m < self.cell_radius_m:
            raise ScenarioConstraintError(
                "femto_radius_m must satisfy 0 < femto_radius_m < cell_radius_m"
            )
        if self.pl_exponent <= 0:
            raise ScenarioConstraintError("pl_exponent must be > 0")
        if self.pl_ref_dist_m <= 0:
            raise ScenarioConstraintError("pl_ref_dist_m must be > 0")


@dataclass(frozen=True)
class TrafficConfig:
    urllc_alpha: float = 3.0
    urllc_beta: float = 4.0
    urllc_horizon_s: float = 10.0
    non_urllc_horizon_s: float = 30.0

    def __post_init__(self) -> None:
        require_finite(self, ScenarioConstraintError)
        if self.urllc_alpha <= 0 or self.urllc_beta <= 0:
            raise ScenarioConstraintError(
                "burst arrival shape parameters must be > 0"
            )
        if self.urllc_horizon_s <= 0 or self.non_urllc_horizon_s <= 0:
            raise ScenarioConstraintError("arrival horizons must be > 0")


@dataclass(frozen=True)
class Scenario:
    n_devices: int = 5000
    urllc_fraction: float = 1.0
    n_preambles: int = 54
    max_preamble_tx: int = 10
    reserved_r: Union[int, str] = 0
    enhancements: frozenset = frozenset()
    numerology: Numerology = Numerology()
    timing: TimingParams = DEFAULT_TIMING
    topology: TopologyConfig = TopologyConfig()
    traffic: TrafficConfig = TrafficConfig()
    harq_fail_prob: float = 0.10
    max_harq: int = 5
    rar_grants_per_msg: int = 3
    cce_total: int = 16
    cce_per_pdcch: int = 4
    seed: int = 1

    def __post_init__(self) -> None:
        # No `require_finite`: the range checks of the two floats reject
        # NaN and infinity, and `scenario_fingerprint` runs this per report.
        if self.n_devices < 0:
            raise ScenarioConstraintError("n_devices must be >= 0")
        if not 0.0 <= self.urllc_fraction <= 1.0:
            raise ScenarioConstraintError("urllc_fraction must be in [0, 1]")
        if self.n_preambles < 1:
            raise ScenarioConstraintError("n_preambles must be >= 1")
        if self.max_preamble_tx < 1:
            raise ScenarioConstraintError("max_preamble_tx must be >= 1")
        if not 0.0 <= self.harq_fail_prob <= 1.0:
            raise ScenarioConstraintError("harq_fail_prob must be in [0, 1]")
        if self.max_harq < 1:
            raise ScenarioConstraintError("max_harq must be >= 1")
        if self.rar_grants_per_msg < 1 or self.cce_total < 1:
            raise ScenarioConstraintError("RAR capacity parameters must be >= 1")
        if not 1 <= self.cce_per_pdcch <= self.cce_total:
            raise ScenarioConstraintError(
                "cce_per_pdcch must be in [1, cce_total]"
            )
        if not 0 <= self.seed < 2**64:
            raise ScenarioConstraintError("seed must fit in 64 bits")
        bad = set(self.enhancements) - set(ENHANCEMENT_FLAGS)
        if bad:
            raise ScenarioConstraintError(
                f"unknown enhancement flags: {sorted(bad)}"
            )
        if "rp" in self.enhancements and "drp" in self.enhancements:
            raise ScenarioConstraintError(
                "rp and drp are mutually exclusive (static vs dynamic "
                "reserved pool)"
            )
        if self.reserved_r == DYNAMIC:
            if "drp" not in self.enhancements:
                raise ScenarioConstraintError(
                    "reserved_r=dynamic requires the drp enhancement"
                )
        else:
            if not isinstance(self.reserved_r, int):
                raise ScenarioConstraintError(
                    f"reserved_r must be an integer or '{DYNAMIC}'"
                )
            if "drp" in self.enhancements:
                raise ScenarioConstraintError(
                    f"drp requires reserved_r = {DYNAMIC} (a scenario file "
                    "that omits reserved_r gets it)"
                )
            if not 0 <= self.reserved_r < self.n_preambles:
                raise ScenarioConstraintError(
                    "reserved_r must satisfy 0 <= reserved_r < n_preambles"
                )
            if self.reserved_r > 0 and "rp" not in self.enhancements:
                raise ScenarioConstraintError(
                    "a fixed reserved_r > 0 requires the rp enhancement"
                )
            if "rp" in self.enhancements and self.reserved_r == 0:
                raise ScenarioConstraintError(
                    "rp requires reserved_r >= 1 (a scenario file that "
                    "omits reserved_r gets 3)"
                )


# One row per config key: (section, parse kind, description). The key is
# also the attribute name; a section is "" for a Scenario field, else the
# Scenario field holding it.
_SECTIONS = ("", "numerology", "timing", "topology", "traffic")
_KEYS: dict[str, tuple[str, str, str]] = {
    "n_devices": ("", "int", "number of devices"),
    "urllc_fraction": ("", "float",
                       "fraction of devices in the low-latency class"),
    "n_preambles": ("", "int", "preamble signatures per cell"),
    "max_preamble_tx": ("", "int",
                        "per-device budget of preamble transmissions"),
    "reserved_r": ("", "reserved", "reserved-pool size: integer or 'dynamic'"
                   "; 3 when a scenario file sets rp and omits it"),
    "enhancements": ("", "flags",
                     "comma-separated subset of " + ",".join(ENHANCEMENT_FLAGS)),
    "harq_fail_prob": ("", "float",
                       "per-transmission loss probability for Msg3/Msg4"),
    "max_harq": ("", "int", "max transmissions per HARQ message"),
    "rar_grants_per_msg": ("", "int",
                           "uplink grants carried by one RAR message"),
    "cce_total": ("", "int", "control elements per subframe"),
    "cce_per_pdcch": ("", "int", "control elements consumed per RAR PDCCH"),
    "seed": ("", "int", "master RNG seed"),
    "subcarrier_spacing_khz": ("numerology", "int",
                               "subcarrier spacing (15/30/60/120)"),
    "symbols_per_slot": ("numerology", "int", "symbols per slot (7/4/2)"),
    "t_msg1_ms": ("timing", "float", "Msg1 duration"),
    "t_msg2_ms": ("timing", "float", "Msg2 processing delay"),
    "t_msg3_ms": ("timing", "float", "Msg3 transmission time"),
    "t_msg4_ms": ("timing", "float", "Msg4 transmission time"),
    "ra_period_ms": ("timing", "float", "spacing of RA opportunities"),
    "rar_window_ms": ("timing", "float", "RAR response window"),
    "bi_max_ms": ("timing", "float",
                  "default backoff bound; no effect under ebf, where "
                  "priority backoff is 0 and background backoff is "
                  "bounded by 10 ms"),
    "contention_resolution_timer_ms": ("timing", "float",
                                       "Msg3-to-Msg4 completion deadline"),
    "sib2_period_ms": ("timing", "float",
                       "broadcast period driving the dynamic pool average"),
    "n_macro_cells": ("topology", "int", "macro cell count"),
    "cell_radius_m": ("topology", "float", "macro radius"),
    "n_femto_cells": ("topology", "int", "femto cell count"),
    "femto_radius_m": ("topology", "float", "femto radius"),
    "pl_ref_db": ("topology", "float", "path loss at the reference distance"),
    "pl_ref_dist_m": ("topology", "float", "path-loss reference distance"),
    "pl_exponent": ("topology", "float", "path-loss exponent"),
    "p_max_dbm": ("topology", "float", "transmit power cap"),
    "p_init_target_dbm": ("topology", "float",
                          "initial received-power target"),
    "ramp_step_db": ("topology", "float", "per-attempt power ramp step"),
    "noise_power_dbm": ("topology", "float", "receiver noise floor"),
    "freq_ghz": ("topology", "float",
                 "carrier frequency; recorded only, no model reads it"),
    "bw_mhz": ("topology", "float",
               "system bandwidth; recorded only, no model reads it"),
    "sinr_threshold_db": ("topology", "optfloat",
                          "optional detection gate; omit to disable"),
    "urllc_alpha": ("traffic", "float", "burst arrival shape alpha"),
    "urllc_beta": ("traffic", "float", "burst arrival shape beta"),
    "urllc_horizon_s": ("traffic", "float", "burst arrival horizon (s)"),
    "non_urllc_horizon_s": ("traffic", "float",
                            "background arrival horizon (s)"),
}


def _parse_value(kind: str, raw: str, key: str, line: int):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "optfloat":
            return None if raw.lower() in ("", "none", "off") else float(raw)
        if kind == "reserved":
            return DYNAMIC if raw.lower() == DYNAMIC else int(raw)
        if kind == "flags":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            return frozenset(parts)
    except ValueError:
        pass
    raise ScenarioParseError(
        f"invalid value {raw!r} for key {key!r} (expected {kind})", line
    )


def build_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; empty text yields defaults.

    A document that omits reserved_r gets 3 under `rp` and `dynamic` under
    `drp`, a scenario-file rule that `apply_overrides` does not apply.
    """
    return _applied(Scenario(), _document_entries(text))


def _document_entries(text: str):
    """(key, raw value, line) per line, then the reserved_r default."""
    seen: dict[str, str] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioParseError(
                f"expected 'key = value', got {stripped!r}", lineno
            )
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ScenarioParseError(f"duplicate key {key!r}", lineno)
        seen[key] = raw
        yield key, raw, lineno
    flags = _parse_value(
        "flags", seen.get("enhancements", ""), "enhancements", None
    )
    default = "3" if "rp" in flags else DYNAMIC if "drp" in flags else None
    if default and "reserved_r" not in seen:
        yield "reserved_r", default, None


def scenario_with(scenario: Scenario, **overrides) -> Scenario:
    """Functional update helper for top-level scenario fields."""
    return replace(scenario, **overrides)


def apply_overrides(scenario: Scenario, pairs) -> Scenario:
    """Apply (key, raw text) overrides onto an existing scenario.

    Keys and value syntax are the scenario-file ones; a later pair for a
    key wins, and constraint validation reruns on the updated scenario.
    """
    return _applied(
        scenario, ((key, str(raw).strip(), None) for key, raw in pairs)
    )


def _applied(scenario: Scenario, entries) -> Scenario:
    """`scenario` with each (key, raw value, line) entry set, revalidated."""
    sections: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    for key, raw, line in entries:
        if key not in _KEYS:
            raise ScenarioParseError(f"unknown key {key!r}", line)
        section, kind, _ = _KEYS[key]
        sections[section][key] = _parse_value(kind, raw, key, line)
    try:
        numerology = replace(scenario.numerology, **sections["numerology"])
        timing = replace(scenario.timing, **sections["timing"])
    except ValueError as exc:
        raise ScenarioConstraintError(str(exc)) from exc
    return replace(
        scenario,
        numerology=numerology,
        timing=timing,
        topology=replace(scenario.topology, **sections["topology"]),
        traffic=replace(scenario.traffic, **sections["traffic"]),
        **sections[""],
    )


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form: every key, one per line, fixed order."""
    lines = []
    for key, (section, kind, _) in _KEYS.items():
        obj = getattr(scenario, section) if section else scenario
        value = getattr(obj, key)
        if kind == "flags":
            value = ",".join(sorted(value))
        elif kind == "optfloat" and value is None:
            value = "off"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def scenario_fingerprint(scenario: Scenario) -> str:
    """Hash of the scenario with the seed masked out (pooling identity)."""
    text = serialize_scenario(scenario_with(scenario, seed=0))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def key_documentation() -> list[tuple[str, str]]:
    """(key, description) pairs for the shipped key list."""
    return [(key, doc) for key, (_, _, doc) in _KEYS.items()]
