"""Scenario configuration: dataclasses, the flat key=value parser, validation.

A scenario file is a UTF-8 text document of `key = value` lines with `#`
comments. Keys mirror the scenario fields below; durations are in ms,
distances in meters. Unknown keys are rejected with the offending line
number so typos cannot silently fall back to defaults.

A new key is one `key_field` of `Scenario` or of a config dataclass it
holds, stating the key's description and, where needed, its parser; the
key order, parsing, text form, fingerprint and `rachsim keys` listing
are read off the fields.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Union

from .timebase import DEFAULT_TIMING, TICKS_PER_MS, Numerology, TimingParams
from .timebase import key_field, require_finite

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


def optfloat(raw: str) -> float | None:
    """A float, or None for an empty value, 'none' or 'off'."""
    return None if raw.lower() in ("", "none", "off") else float(raw)


def reserved(raw: str) -> int | str:
    """An integer pool size, or 'dynamic' in any case."""
    return DYNAMIC if raw.lower() == DYNAMIC else int(raw)


def flags(raw: str) -> frozenset:
    """The comma-separated names, blanks dropped."""
    return frozenset(p.strip() for p in raw.split(",") if p.strip())


@dataclass(frozen=True)
class TopologyConfig:
    n_macro_cells: int = key_field(3, "macro cell count")
    cell_radius_m: float = key_field(50.0, "macro radius")
    n_femto_cells: int = key_field(0, "femto cell count")
    femto_radius_m: float = key_field(10.0, "femto radius")
    pl_ref_db: float = key_field(63.57, "path loss at the reference distance")
    pl_ref_dist_m: float = key_field(15.0, "path-loss reference distance")
    pl_exponent: float = key_field(3.44, "path-loss exponent")
    p_max_dbm: float = key_field(14.0, "transmit power cap")
    p_init_target_dbm: float = key_field(
        -104.0, "initial received-power target"
    )
    ramp_step_db: float = key_field(2.0, "per-attempt power ramp step")
    noise_power_dbm: float = key_field(-107.0, "receiver noise floor")
    freq_ghz: float = key_field(
        2.6, "carrier frequency; recorded only, no model reads it"
    )
    bw_mhz: float = key_field(
        5.0, "system bandwidth; recorded only, no model reads it"
    )
    sinr_threshold_db: float | None = key_field(
        None, "optional detection gate; omit to disable", optfloat
    )

    def __post_init__(self) -> None:
        require_finite(self, ScenarioConstraintError)
        if self.n_macro_cells < 1:
            raise ScenarioConstraintError("n_macro_cells must be >= 1")
        if self.cell_radius_m <= 0:
            raise ScenarioConstraintError("cell_radius_m must be > 0")
        # `reach` bounds each coordinate difference in the layout.
        reach = 2.0 * self.cell_radius_m * (self.n_macro_cells + 1)
        if not math.isfinite(2.0 * reach * reach):
            raise ScenarioConstraintError(
                "cell_radius_m is too large: the layout's squared distances "
                "overflow a float"
            )
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
    urllc_alpha: float = key_field(3.0, "burst arrival shape alpha")
    urllc_beta: float = key_field(4.0, "burst arrival shape beta")
    urllc_horizon_s: float = key_field(10.0, "burst arrival horizon (s)")
    non_urllc_horizon_s: float = key_field(
        30.0, "background arrival horizon (s)"
    )

    def __post_init__(self) -> None:
        require_finite(self, ScenarioConstraintError)
        if self.urllc_alpha <= 0 or self.urllc_beta <= 0:
            raise ScenarioConstraintError(
                "burst arrival shape parameters must be > 0"
            )
        if self.urllc_horizon_s <= 0 or self.non_urllc_horizon_s <= 0:
            raise ScenarioConstraintError("arrival horizons must be > 0")
        horizon = max(self.urllc_horizon_s, self.non_urllc_horizon_s)
        if horizon * 1000.0 * TICKS_PER_MS >= 2**63:
            raise ScenarioConstraintError(
                "arrival horizons must be below 2**63 ticks, the int64 "
                "arrival instants"
            )


@dataclass(frozen=True)
class Scenario:
    n_devices: int = key_field(5000, "number of devices")
    urllc_fraction: float = key_field(
        1.0, "fraction of devices in the low-latency class"
    )
    n_preambles: int = key_field(54, "preamble signatures per cell")
    max_preamble_tx: int = key_field(
        10, "per-device budget of preamble transmissions"
    )
    reserved_r: Union[int, str] = key_field(
        0, "reserved-pool size: integer or 'dynamic'; 3 when a scenario "
        "file sets rp and omits it", reserved
    )
    enhancements: frozenset = key_field(
        frozenset(),
        "comma-separated subset of " + ",".join(ENHANCEMENT_FLAGS), flags
    )
    numerology: Numerology = Numerology()
    timing: TimingParams = DEFAULT_TIMING
    topology: TopologyConfig = TopologyConfig()
    traffic: TrafficConfig = TrafficConfig()
    harq_fail_prob: float = key_field(
        0.10, "per-transmission loss probability for Msg3/Msg4"
    )
    max_harq: int = key_field(5, "max transmissions per HARQ message")
    rar_grants_per_msg: int = key_field(
        3, "uplink grants carried by one RAR message"
    )
    cce_total: int = key_field(16, "control elements per subframe")
    cce_per_pdcch: int = key_field(
        4, "control elements consumed per RAR PDCCH"
    )
    seed: int = key_field(1, "master RNG seed")

    def __post_init__(self) -> None:
        # No `require_finite`: the range checks of the two floats reject
        # NaN and infinity, and `scenario_fingerprint` runs this per report.
        if self.n_devices < 0:
            raise ScenarioConstraintError("n_devices must be >= 0")
        if not 0.0 <= self.urllc_fraction <= 1.0:
            raise ScenarioConstraintError("urllc_fraction must be in [0, 1]")
        if self.n_preambles < 1:
            raise ScenarioConstraintError("n_preambles must be >= 1")
        if self.n_preambles > 2**32:  # the widest range a draw takes
            raise ScenarioConstraintError("n_preambles must be <= 2**32")
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


def _key_fields() -> dict:
    """key -> (section, field): Scenario's own keys, then the keys of each
    config dataclass it holds, in declaration order. A key's section is
    the Scenario field holding it, "" for Scenario's own."""
    nested = [f for f in fields(Scenario) if is_dataclass(f.default)]
    rows = [("", f) for f in fields(Scenario) if f not in nested]
    rows += [(s.name, f) for s in nested for f in fields(s.default)]
    for _, f in rows:
        if "doc" not in f.metadata:
            raise TypeError(f"scenario field {f.name!r} is not a key_field")
    return {f.name: (section, f) for section, f in rows}


_KEY_FIELDS = _key_fields()


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
    names = flags(seen.get("enhancements", ""))
    default = "3" if "rp" in names else DYNAMIC if "drp" in names else None
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
    sections = {section: {} for section, _ in _KEY_FIELDS.values()}
    for key, raw, line in entries:
        if key not in _KEY_FIELDS:
            raise ScenarioParseError(f"unknown key {key!r}", line)
        section, f = _KEY_FIELDS[key]
        parse = f.metadata["parse"]
        try:
            sections[section][key] = parse(raw)
        except ValueError:
            raise ScenarioParseError(
                f"invalid value {raw!r} for key {key!r} "
                f"(expected {parse.__name__})", line
            ) from None
    own = sections.pop("")
    try:
        nested = {
            name: replace(getattr(scenario, name), **values)
            for name, values in sections.items()
        }
    except ValueError as exc:
        raise ScenarioConstraintError(str(exc)) from exc
    return replace(scenario, **nested, **own)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form: every key, one per line, fixed order."""
    lines = []
    for key, (section, _) in _KEY_FIELDS.items():
        value = getattr(getattr(scenario, section) if section else scenario, key)
        if isinstance(value, frozenset):
            value = ",".join(sorted(value))
        lines.append(f"{key} = {'off' if value is None else value}")
    return "\n".join(lines) + "\n"


def scenario_fingerprint(scenario: Scenario) -> str:
    """Hash of the scenario with the seed masked out (pooling identity)."""
    text = serialize_scenario(scenario_with(scenario, seed=0))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def key_documentation() -> list[tuple[str, str]]:
    """(key, description) pairs for the shipped key list."""
    return [(key, f.metadata["doc"]) for key, (_, f) in _KEY_FIELDS.items()]
