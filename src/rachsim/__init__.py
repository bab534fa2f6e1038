"""Deterministic system-level simulator of the cellular random-access
procedure, with contention enhancements, KPI reporting, and a frozen
reference-validation harness."""

from .config import (
    ConfigError,
    Scenario,
    ScenarioConstraintError,
    ScenarioParseError,
    TopologyConfig,
    TrafficConfig,
    apply_overrides,
    build_scenario,
    scenario_with,
    serialize_scenario,
)
from .engine import AccessRecord, OpportunityLog, RunResult, run
from .kpi import (
    KpiReport,
    MergeMismatchError,
    build_report,
    merge,
)
from .reference import (
    REFERENCE_SCENARIOS,
    EntryResult,
    gates_passed,
    pooled_report,
    run_validation,
)
from .rng import RandomSource
from .timebase import (
    TICKS_PER_MS,
    Numerology,
    TimingParams,
    ms_to_ticks,
    ticks_to_ms,
)
from .topology import CellLayout, DevicePlacement, build_layout, place_devices
from .traffic import assign_classes, generate_arrivals

__version__ = "0.1.0"

__all__ = [
    "AccessRecord",
    "CellLayout",
    "ConfigError",
    "DevicePlacement",
    "EntryResult",
    "KpiReport",
    "MergeMismatchError",
    "Numerology",
    "OpportunityLog",
    "RandomSource",
    "REFERENCE_SCENARIOS",
    "RunResult",
    "Scenario",
    "ScenarioConstraintError",
    "ScenarioParseError",
    "TICKS_PER_MS",
    "TimingParams",
    "TopologyConfig",
    "TrafficConfig",
    "apply_overrides",
    "assign_classes",
    "build_layout",
    "build_report",
    "build_scenario",
    "gates_passed",
    "generate_arrivals",
    "merge",
    "ms_to_ticks",
    "place_devices",
    "pooled_report",
    "run",
    "run_validation",
    "scenario_with",
    "serialize_scenario",
    "ticks_to_ms",
    "__version__",
]
