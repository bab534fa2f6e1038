"""Benchmark workloads, seed blocks and the layered replication.

A replication drives one seed through the public API one layer at a time,
so that each layer can be timed from outside around its own call:

    RandomSource.from_seed -> build_layout -> place_devices
    -> assign_classes + generate_arrivals
    -> run(scenario, source=fresh RandomSource, placement=..., arrivals=...)
    -> build_report -> csv_row / cdf_points

The layered path gives the same report bytes as a plain `run(scenario)`;
`check_layered_matches_plain` verifies that on every benchmark run.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from rachsim import (
    KpiReport,
    RandomSource,
    RunResult,
    Scenario,
    assign_classes,
    build_layout,
    build_report,
    generate_arrivals,
    place_devices,
    run,
    scenario_with,
)
from rachsim.reference import REFERENCE_SCENARIOS

# The scenario each workload replicates; only the seed varies. README.md
# says why each one is in the benchmark.
WORKLOADS = {
    "dense-mixed": REFERENCE_SCENARIOS["drp-mixed"],
    "baseline-10k": REFERENCE_SCENARIOS["baseline-10k"],
    "overload-20k": scenario_with(
        REFERENCE_SCENARIOS["baseline-10k"], n_devices=20000
    ),
}


# Seed block b holds replication seeds b * BLOCK_STRIDE + 1, + 2, ...; its
# first PINNED_SEEDS seeds are pooled and checked against a pinned digest.
# --seed S measures block S mod PINNED_BLOCKS; later blocks are held out.
BLOCK_STRIDE = 1_000_000
PINNED_SEEDS = 4
PINNED_BLOCKS = 32
# Seed 0 belongs to no block, so the warm-up never replays a measured seed.
WARM_UP_SEED = 0
WARM_UP_DEVICES = 500

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def block_seed(block: int, i: int) -> int:
    """Replication seed number i (from 0) of seed block `block`."""
    return block * BLOCK_STRIDE + 1 + i


def warm_up(base: Scenario) -> None:
    """One small untimed replication: fills lazy numpy and rachsim state."""
    replicate(scenario_with(base, n_devices=WARM_UP_DEVICES), WARM_UP_SEED)


@dataclass
class Replication:
    seed: int
    result: RunResult | None  # dropped once its counts are read
    report: KpiReport
    csv_row: str
    cdf: list[tuple[float, float]]


def no_span(name: str):
    return nullcontext()


def replicate(base: Scenario, seed: int, span=no_span) -> Replication:
    """Run one seed through the layered public path.

    `span(name)` returns a context manager entered around each public call;
    the default records nothing.
    """
    scenario = scenario_with(base, seed=seed)
    with span("rng.from_seed"):
        source = RandomSource.from_seed(seed)
    with span("topology.build_layout"):
        layout = build_layout(scenario.topology, source.placement)
    with span("topology.place_devices"):
        placement = place_devices(scenario.n_devices, layout, source.placement)
    with span("traffic.generate_arrivals"):
        is_urllc = assign_classes(scenario.n_devices, scenario.urllc_fraction)
        arrivals = generate_arrivals(is_urllc, scenario.traffic, source.arrivals)
    with span("rng.from_seed"):
        fresh = RandomSource.from_seed(seed)
    with span("engine.run"):
        result = run(scenario, source=fresh, placement=placement, arrivals=arrivals)
    with span("kpi.build_report"):
        report = build_report(result)
    with span("kpi.csv_row"):
        row = report.csv_row()
    with span("kpi.cdf_points"):
        cdf = report.cdf_points()
    return Replication(seed, result, report, row, cdf)


def output_digest(report: KpiReport) -> str:
    """sha256 over the report's CSV row and its exact delay-CDF points."""
    lines = [report.csv_row()]
    lines += [f"{ms!r},{p!r}" for ms, p in report.cdf_points()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_counts(base: Scenario, rep: Replication) -> str | None:
    """Every simulated device ends resolved, as a success or a failure."""
    r = rep.report
    n = base.n_devices
    if r.n_devices != n or r.n_success + r.n_failed != n:
        return (
            f"seed {rep.seed}: n_success {r.n_success} + n_failed {r.n_failed} "
            f"(report n_devices {r.n_devices}) != scenario n_devices {n}"
        )
    return None


def check_layered_matches_plain(base: Scenario, rep: Replication) -> str | None:
    """The layered path reports exactly what a plain `run(scenario)` does."""
    plain = build_report(run(scenario_with(base, seed=rep.seed)))
    if plain.csv_row() != rep.csv_row or plain.cdf_points() != rep.cdf:
        return f"seed {rep.seed}: layered path differs from plain run(scenario)"
    return None


def load_pins() -> dict[str, list[str]]:
    """Pinned pooled digests per workload, indexed by seed block."""
    pinned = json.loads(DIGESTS_PATH.read_text())
    if pinned["pinned_seeds"] != PINNED_SEEDS:
        raise ValueError(f"{DIGESTS_PATH.name} pools {pinned['pinned_seeds']} "
                         f"seeds per block, not {PINNED_SEEDS}")
    for workload, digests in pinned["digests"].items():
        if len(digests) != PINNED_BLOCKS:
            raise ValueError(f"{DIGESTS_PATH.name} pins {len(digests)} blocks "
                             f"of {workload}, not {PINNED_BLOCKS}")
    return pinned["digests"]
