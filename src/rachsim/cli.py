"""Command-line front end: run, sweep, validate, dump-layout.

Output files are plain CSV with stable column orders and fixed float
formatting, so identical seed lists produce byte-identical files. The
default output directory comes from the RACHSIM_OUT_DIR environment
variable, falling back to the working directory.

Exit codes: 0 success, 1 validation gate failure, 2 scenario errors
(parse or constraint), 3 file I/O errors, 4 invalid sweep grammar.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import (
    ConfigError,
    Scenario,
    apply_overrides,
    build_scenario,
    key_documentation,
    scenario_with,
    serialize_scenario,
)
from .engine import run
from .kpi import KpiReport, build_report, csv_header, merge
from .reference import TABLES, gates_passed, replicate, run_validation
from .rng import RandomSource
from .timebase import ticks_to_ms
from .topology import build_layout, path_loss_db, place_devices
from .traffic import assign_classes

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SWEEP = 4

ENV_OUT_DIR = "RACHSIM_OUT_DIR"


class SweepGrammarError(ValueError):
    pass


def _default_out() -> Path:
    return Path(os.environ.get(ENV_OUT_DIR, "."))


def _set_pairs(sets: list[str]) -> list[tuple[str, str]]:
    pairs = []
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        pairs.append((key.strip(), raw))
    return pairs


def _load_scenario(path: Path | None, sets: list[str], seed=None) -> Scenario:
    """The file's scenario, or the defaults, under --set, then --seed."""
    text = "" if path is None else path.read_text(encoding="utf-8")
    scenario = apply_overrides(build_scenario(text), _set_pairs(sets))
    return scenario if seed is None else scenario_with(scenario, seed=seed)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _report_csv(report: KpiReport, seed_label: str) -> str:
    return (
        "seed," + csv_header() + "\n"
        + f"{seed_label},{report.csv_row()}\n"
    )


def _cdf_csv(report: KpiReport) -> str:
    lines = ["delay_ms,cum_prob"]
    for delay_ms, prob in report.cdf_points():
        lines.append(f"{delay_ms:.10g},{prob:.10g}")
    return "\n".join(lines) + "\n"


def _trace_csv(result) -> str:
    lines = ["time_ms,device_id,event,preamble,gnb,attempt"]
    scale = result.time_scale
    for t, dev, kind, pre, gnb, att in result.trace or ():
        ms = ticks_to_ms(t, scale)
        lines.append(f"{ms:.10g},{dev},{kind},{pre},{gnb},{att}")
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario, args.set or [], args.seed)
    result = run(scenario, collect_trace=args.trace)
    report = build_report(result)
    out = args.out
    _write(out / "report.csv", _report_csv(report, str(scenario.seed)))
    _write(out / "delay_cdf.csv", _cdf_csv(report))
    if args.trace:
        _write(out / "trace.csv", _trace_csv(result))
    _write(out / "scenario.cfg", serialize_scenario(scenario))
    print(report.format_table())
    print(f"\nwrote {out / 'report.csv'}")
    return EXIT_OK


def _parse_seed_range(token: str) -> tuple[int, ...]:
    body = token.split("=", 1)[1]
    if ".." in body:
        lo_text, hi_text = body.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise SweepGrammarError(
                f"seeds must be integers like seeds=1..20, got {token!r}"
            ) from None
        if hi < lo:
            raise SweepGrammarError(
                f"empty seed range {token!r} (end before start)"
            )
        return tuple(range(lo, hi + 1))
    try:
        seeds = tuple(int(p) for p in body.split(",") if p)
    except ValueError:
        raise SweepGrammarError(
            f"seeds must be a range a..b or a comma list, got {token!r}"
        ) from None
    if not seeds:
        raise SweepGrammarError(f"no seeds in {token!r}")
    return seeds


def _parse_sweep_spec(tokens: list[str]) -> tuple[str, list[str], tuple[int, ...]]:
    sweep_key = None
    sweep_values: list[str] = []
    seeds: tuple[int, ...] = (1,)
    for token in tokens:
        if "=" not in token:
            raise SweepGrammarError(
                f"sweep tokens look like key=v1,v2,... got {token!r}"
            )
        key = token.split("=", 1)[0].strip()
        if key == "seeds":
            seeds = _parse_seed_range(token)
            continue
        if sweep_key is not None:
            raise SweepGrammarError(
                "exactly one swept key is supported per invocation; got "
                f"both {sweep_key!r} and {key!r}"
            )
        sweep_key = key
        sweep_values = [v for v in token.split("=", 1)[1].split(",") if v]
        if not sweep_values:
            raise SweepGrammarError(f"no values to sweep in {token!r}")
    if sweep_key is None:
        raise SweepGrammarError(
            "sweep needs one key=v1,v2,... token (plus optional seeds=a..b)"
        )
    return sweep_key, sweep_values, seeds


def _cmd_sweep(args) -> int:
    # --set pairs and the swept value are applied together so combined
    # constraints (rp + reserved_r, drp + dynamic) validate per cell.
    base = _load_scenario(args.scenario, [])
    fixed = _set_pairs(args.set or [])
    key, values, seeds = _parse_sweep_spec(args.spec)
    cells = [apply_overrides(base, fixed + [(key, v)]) for v in values]
    # Every (cell, seed) pair goes into one fan-out, so a sweep of few
    # seeds still fills the pool.
    reports = replicate([(sc, s) for sc in cells for s in seeds], args.jobs)

    lines = [f"{key},seed," + csv_header()]
    n = len(seeds)
    for i, value in enumerate(values):
        per_seed = reports[i * n:(i + 1) * n]
        for seed, rep in zip(seeds, per_seed):
            lines.append(f"{value},{seed},{rep.csv_row()}")
        pooled = merge(per_seed)
        lines.append(f"{value},pooled,{pooled.csv_row()}")
        collision = pooled.collision_probability()
        summary = "empty"
        if collision is not None:
            summary = f"collision {collision * 100:.4g}%"
        print(f"{key}={value}: {summary} over {len(seeds)} seed(s)")
    out_path = args.out / "sweep.csv"
    _write(out_path, "\n".join(lines) + "\n")
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    seeds = (
        None if args.seeds is None
        else _parse_seed_range(f"seeds={args.seeds}")
    )
    results = run_validation(
        tables=args.table,
        seeds=seeds,
        jobs=args.jobs,
        log=(lambda msg: print(msg, file=sys.stderr)),
    )
    for res in results:
        print(res.line())
    gates = [r for r in results if r.gate]
    failed = [r for r in gates if not r.passed]
    info = len(results) - len(gates)
    print(
        f"\n{len(gates) - len(failed)}/{len(gates)} gates passed"
        + (f", {info} informational rows" if info else "")
    )
    return EXIT_OK if gates_passed(results) else EXIT_VALIDATION


def _cmd_dump_layout(args) -> int:
    scenario = _load_scenario(args.scenario, args.set or [], args.seed)
    source = RandomSource.from_seed(scenario.seed)
    layout = build_layout(scenario.topology, source.placement)
    placement = place_devices(scenario.n_devices, layout, source.placement)
    is_ur = assign_classes(scenario.n_devices, scenario.urllc_fraction)
    lines = ["device_id,x_m,y_m,urllc,serving_cell,femto_cell,path_loss_db"]
    for dev in range(scenario.n_devices):
        x, y = placement.positions[dev]
        pl = path_loss_db(float(placement.serving_dist[dev]), scenario.topology)
        lines.append(
            f"{dev},{x:.6f},{y:.6f},{int(is_ur[dev])},"
            f"{placement.serving_cell[dev]},{placement.femto_cell[dev]},"
            f"{pl:.6f}"
        )
    _write(args.out / "layout.csv", "\n".join(lines) + "\n")
    glines = ["gnb_id,kind,x_m,y_m,radius_m"]
    n_macro = len(layout.macro_centers)
    for i, (x, y) in enumerate(layout.macro_centers):
        glines.append(
            f"{i},macro,{x:.6f},{y:.6f},{layout.cell_radius_m:.6f}"
        )
    for j, (x, y) in enumerate(layout.femto_centers):
        glines.append(
            f"{n_macro + j},femto,{x:.6f},{y:.6f},"
            f"{layout.femto_radius_m:.6f}"
        )
    _write(args.out / "gnbs.csv", "\n".join(glines) + "\n")
    print(f"wrote {args.out / 'layout.csv'} and {args.out / 'gnbs.csv'}")
    return EXIT_OK


def _cmd_keys(_args) -> int:
    width = max(len(k) for k, _ in key_documentation())
    for key, doc in key_documentation():
        print(f"{key:<{width}}  {doc}")
    return EXIT_OK


def _positive_int(raw: str) -> int:
    """An integer of at least 1, for `--jobs`; argparse exits 2 on
    anything else."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {raw!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rachsim",
        description=(
            "Deterministic system-level simulator of the cellular "
            "random-access procedure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument(
            "--scenario", type=Path, default=None,
            help="scenario file (key = value lines); defaults when omitted",
        )
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE", default=[],
            help="override one scenario key (repeatable)",
        )
        p.add_argument(
            "--out", type=Path, default=_default_out(),
            help=f"output directory (default ${ENV_OUT_DIR} or .)",
        )
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")

    p_run = sub.add_parser("run", help="simulate one scenario/seed")
    common(p_run)
    p_run.add_argument(
        "--trace", action="store_true",
        help="also write the per-event trace CSV",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run a parameter sweep over a seed list"
    )
    common(p_sweep, seed=False)
    p_sweep.add_argument(
        "spec", nargs="+",
        help="one key=v1,v2,... token plus optional seeds=a..b",
    )
    p_sweep.add_argument("--jobs", type=_positive_int, default=None,
                         help="parallel replications (default: cpu count)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser(
        "validate", help="score the shipped reference entries"
    )
    p_val.add_argument(
        "--table", action="append", choices=[t for t in TABLES] + [
            t.lower() for t in TABLES
        ],
        help="restrict to one reference group (repeatable)",
    )
    p_val.add_argument(
        "--seeds", default=None, metavar="A..B",
        help="override every entry's seed list (smoke runs)",
    )
    p_val.add_argument("--jobs", type=_positive_int, default=None)
    p_val.set_defaults(func=_cmd_validate)

    p_dump = sub.add_parser(
        "dump-layout", help="write device placement and gNB tables"
    )
    common(p_dump)
    p_dump.set_defaults(func=_cmd_dump_layout)

    p_keys = sub.add_parser("keys", help="list scenario config keys")
    p_keys.set_defaults(func=_cmd_keys)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SweepGrammarError as exc:
        print(f"invalid sweep specification: {exc}", file=sys.stderr)
        return EXIT_SWEEP
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
