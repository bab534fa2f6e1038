"""Command-line contract: files, determinism, error routing, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rachsim
from rachsim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SWEEP,
    EXIT_VALIDATION,
    main,
)
from rachsim.engine import EBF_BACKGROUND_BACKOFF_MS

SMALL = ["--set", "n_devices=120"]


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_expected_files(tmp_path, capsys):
    code = run_cli("run", "--out", str(tmp_path), "--seed", "5", *SMALL)
    assert code == EXIT_OK
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "delay_cdf.csv").exists()
    assert (tmp_path / "scenario.cfg").exists()
    assert not (tmp_path / "trace.csv").exists()
    out = capsys.readouterr().out
    assert "collision" in out

    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0].startswith("seed,n_seeds,")
    assert report[1].startswith("5,")

    cdf = (tmp_path / "delay_cdf.csv").read_text().splitlines()
    assert cdf[0] == "delay_ms,cum_prob"
    last = float(cdf[-1].split(",")[1])
    assert last == pytest.approx(1.0)


def test_run_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("run", "--out", str(out), "--seed", "9", *SMALL) == 0
    for name in ("report.csv", "delay_cdf.csv", "scenario.cfg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_trace_file(tmp_path):
    code = run_cli(
        "run", "--out", str(tmp_path), "--trace", "--set", "n_devices=5"
    )
    assert code == EXIT_OK
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "time_ms,device_id,event,preamble,gnb,attempt"
    events = {line.split(",")[2] for line in lines[1:]}
    assert "msg1" in events


def test_run_zero_devices_is_valid(tmp_path):
    code = run_cli("run", "--out", str(tmp_path), "--set", "n_devices=0")
    assert code == EXIT_OK
    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert len(rows) == 2


@pytest.mark.parametrize("sets", [
    ["n_devices=0"],
    ["n_devices=50", "harq_fail_prob=1"],
], ids=["zero-devices", "all-fail"])
def test_run_without_successes_writes_no_delays(tmp_path, sets):
    argv = ["run", "--out", str(tmp_path)]
    for item in sets:
        argv += ["--set", item]
    assert run_cli(*argv) == EXIT_OK
    cdf = (tmp_path / "delay_cdf.csv").read_text()
    assert cdf == "delay_ms,cum_prob\n"
    header, row = (tmp_path / "report.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    delays = [name for name in cells if "delay" in name]
    assert len(delays) == 8
    assert all(cells[name] == "" for name in delays)
    assert cells["n_success"] == "0"


def test_rp_reserved_default_is_a_scenario_file_rule(tmp_path, capsys):
    # --set pairs get no default, so rp alone fails, and the message
    # promises none; a scenario file that omits reserved_r gets 3.
    code = run_cli("run", "--out", str(tmp_path), "--set", "enhancements=rp")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "reserved_r >= 1" in err
    assert "default" not in err
    code = run_cli("sweep", "--out", str(tmp_path), "--set", "n_devices=10",
                   "enhancements=rp,edt")
    assert code == EXIT_CONFIG
    cfg = tmp_path / "rp.cfg"
    cfg.write_text("n_devices = 10\nenhancements = rp\n")
    out = tmp_path / "file"
    assert run_cli("run", "--scenario", str(cfg), "--out", str(out)) == 0
    assert "reserved_r = 3\n" in (out / "scenario.cfg").read_text()


def test_drp_reserved_default_is_a_scenario_file_rule(tmp_path, capsys):
    # drp admits only a dynamic pool: a --set route without reserved_r
    # fails and names the fix, and a scenario file that omits it gets it.
    code = run_cli("run", "--out", str(tmp_path), "--set", "enhancements=drp")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "drp requires reserved_r = dynamic" in err
    assert "omits reserved_r gets it" in err
    cfg = tmp_path / "drp.cfg"
    cfg.write_text("n_devices = 10\nenhancements = drp\n")
    out = tmp_path / "file"
    assert run_cli("run", "--scenario", str(cfg), "--out", str(out)) == 0
    assert "reserved_r = dynamic\n" in (out / "scenario.cfg").read_text()


def test_scenario_file_and_env_out_dir(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n_devices = 33\nseed = 4\n")
    outdir = tmp_path / "from_env"
    monkeypatch.setenv("RACHSIM_OUT_DIR", str(outdir))
    assert run_cli("run", "--scenario", str(cfg)) == EXIT_OK
    assert (outdir / "report.csv").exists()
    row = (outdir / "report.csv").read_text().splitlines()[1]
    assert row.split(",")[2] == "33"  # n_devices column


def test_unknown_key_exits_config(tmp_path, capsys):
    code = run_cli("run", "--out", str(tmp_path), "--set", "warp=1")
    assert code == EXIT_CONFIG
    assert "scenario error" in capsys.readouterr().err


def test_constraint_violation_exits_config(tmp_path, capsys):
    code = run_cli("run", "--out", str(tmp_path), "--set", "n_preambles=0")
    assert code == EXIT_CONFIG


def python_m_rachsim(*argv, cwd):
    """Run `python -m rachsim` in a child process on this checkout."""
    env = dict(os.environ)
    src = str(Path(rachsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "rachsim", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_python_m_rachsim_runs_the_cli(tmp_path):
    proc = python_m_rachsim("keys", cwd=tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("n_devices ")


@pytest.mark.parametrize(
    "source",
    [
        ("--set", "ra_period_ms=0"),
        ("--scenario", "zero-period.cfg"),
        # 0.005 ms is 0.28 ticks: positive, but it quantizes to zero.
        ("--set", "ra_period_ms=0.005"),
        # 5.01 ms is 280.56 ticks: off the 1/56 ms lattice.
        ("--set", "ra_period_ms=5.01"),
    ],
    ids=["set-zero", "file-zero", "set-sub-tick", "set-off-lattice"],
)
def test_bad_timing_exits_config_without_traceback(tmp_path, source):
    (tmp_path / "zero-period.cfg").write_text("ra_period_ms = 0\n")
    proc = python_m_rachsim(
        "run", "--out", str(tmp_path), "--set", "n_devices=10", *source,
        cwd=tmp_path,
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("scenario error:"), proc.stderr
    assert "ra_period_ms" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--set", "urllc_alpha=nan"),
        ("run", "--set", "urllc_horizon_s=inf"),
        ("sweep", "--jobs", "1", "urllc_horizon_s=inf", "seeds=1..1"),
        ("dump-layout", "--set", "pl_ref_dist_m=0"),
        ("dump-layout", "--set", "pl_ref_dist_m=-5"),
        ("run", "--set", "sinr_threshold_db=3", "--set", "pl_ref_dist_m=0"),
        ("run", "--set", "pl_exponent=nan"),
        ("run", "--set", "sinr_threshold_db=nan"),
        ("run", "--set", "noise_power_dbm=inf"),
        ("run", "--set", "cell_radius_m=inf"),
        ("run", "--set", "harq_fail_prob=nan"),
    ],
    ids=" ".join,
)
def test_bad_scenario_numbers_exit_config(tmp_path, capsys, argv):
    # A NaN or infinite float, or a non-positive path-loss reference
    # distance, is a scenario error before any model code reads it.
    code = run_cli(*argv, "--out", str(tmp_path), "--set", "n_devices=10")
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith("scenario error:"), err
    assert "Traceback" not in err


def test_missing_scenario_file_exits_io(tmp_path, capsys):
    code = run_cli(
        "run", "--out", str(tmp_path), "--scenario", str(tmp_path / "nope.cfg")
    )
    assert code == EXIT_IO
    assert "file error" in capsys.readouterr().err


def test_bad_sweep_spec_exits_sweep(tmp_path, capsys):
    code = run_cli("sweep", "--out", str(tmp_path), "seeds=1..2")
    assert code == EXIT_SWEEP
    code = run_cli(
        "sweep", "--out", str(tmp_path), "n_devices=1,2", "seed", "extra"
    )
    assert code == EXIT_SWEEP
    code = run_cli(
        "sweep", "--out", str(tmp_path), "n_devices=1,2", "n_preambles=4,5"
    )
    assert code == EXIT_SWEEP
    assert "sweep" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--set", "n_devices=10", "n_devices=10", "seeds="),
        ("sweep", "--set", "n_devices=10", "n_devices=10", "seeds=,"),
        ("validate", "--seeds", ","),
    ],
    ids=["sweep-seeds-blank", "sweep-seeds-comma", "validate-seeds-comma"],
)
def test_empty_seed_list_exits_sweep_without_traceback(tmp_path, argv):
    proc = python_m_rachsim(
        argv[0], "--jobs", "1", *argv[1:],
        *(("--out", str(tmp_path)) if argv[0] == "sweep" else ()),
        cwd=tmp_path,
    )
    assert proc.returncode == EXIT_SWEEP, proc.stderr
    assert proc.stderr.startswith("invalid sweep specification:")
    assert "no seeds" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_rows_and_pooling(tmp_path):
    code = run_cli(
        "sweep",
        "--out",
        str(tmp_path),
        "--jobs",
        "1",
        "--set",
        "urllc_fraction=1.0",
        "n_devices=50,80",
        "seeds=1..2",
    )
    assert code == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    # header + per value: 2 seed rows + 1 pooled row.
    assert len(lines) == 1 + 2 * 3
    assert lines[0].startswith("n_devices,seed,")
    assert lines[3].startswith("50,pooled,")
    assert lines[6].startswith("80,pooled,")
    pooled = lines[3].split(",")
    assert pooled[2] == "2"  # n_seeds
    assert pooled[3] == "100"  # devices summed across seeds


def test_sweep_independent_of_job_count(tmp_path):
    args = ["--set", "n_devices=40", "max_preamble_tx=5,10", "seeds=1..2"]
    a, b = tmp_path / "j1", tmp_path / "j2"
    assert run_cli("sweep", "--out", str(a), "--jobs", "1", *args) == 0
    assert run_cli("sweep", "--out", str(b), "--jobs", "2", *args) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_applies_combined_constraints(tmp_path):
    # Sweeping the reservation size only works with rp active; both
    # overrides must validate together.
    code = run_cli(
        "sweep",
        "--out",
        str(tmp_path),
        "--set",
        "enhancements=rp",
        "--set",
        "n_devices=40",
        "reserved_r=1,2",
        "seeds=1..1",
    )
    assert code == EXIT_OK


def test_dump_layout(tmp_path):
    code = run_cli(
        "dump-layout",
        "--out",
        str(tmp_path),
        "--set",
        "n_devices=25",
        "--set",
        "n_femto_cells=3",
        "--seed",
        "2",
    )
    assert code == EXIT_OK
    layout = (tmp_path / "layout.csv").read_text().splitlines()
    assert layout[0] == "device_id,x_m,y_m,urllc,serving_cell,femto_cell,path_loss_db"
    assert len(layout) == 26
    gnbs = (tmp_path / "gnbs.csv").read_text().splitlines()
    assert len(gnbs) == 1 + 3 + 3  # header + 3 macros + 3 femtos
    kinds = [line.split(",")[1] for line in gnbs[1:]]
    assert kinds == ["macro"] * 3 + ["femto"] * 3


def test_dump_layout_matches_engine_placement(tmp_path):
    # The layout dump must describe the same placement the engine uses.
    from rachsim.config import build_scenario, scenario_with
    from rachsim.engine import run as engine_run

    code = run_cli(
        "dump-layout", "--out", str(tmp_path), "--set", "n_devices=10",
        "--seed", "31",
    )
    assert code == EXIT_OK
    sc = scenario_with(build_scenario("n_devices = 10\n"), seed=31)
    res = engine_run(sc)
    rows = (tmp_path / "layout.csv").read_text().splitlines()[1:]
    for dev, row in enumerate(rows):
        parts = row.split(",")
        assert int(parts[0]) == dev
        assert float(parts[1]) == pytest.approx(
            res.placement.positions[dev][0], abs=1e-5
        )
        assert int(parts[4]) == res.placement.serving_cell[dev]


def test_keys_listing(capsys):
    assert run_cli("keys") == EXIT_OK
    out = capsys.readouterr().out
    for key in ("n_devices", "enhancements", "sinr_threshold_db"):
        assert key in out
    # bi_max_ms says that ebf overrides it, with the background bound.
    (bi_line,) = [line for line in out.splitlines() if line.startswith("bi_")]
    assert "no effect under ebf" in bi_line
    assert f"{EBF_BACKGROUND_BACKOFF_MS:g} ms" in bi_line


def test_validate_smoke_exit_code(capsys):
    # Group II on one seed: the known-red mean-Msg1 rows force exit 1,
    # and every entry prints one PASS/FAIL line.
    code = run_cli("validate", "--table", "II", "--seeds", "1..1", "--jobs", "1")
    assert code == EXIT_VALIDATION
    out = capsys.readouterr().out
    lines = [
        line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))
    ]
    assert len(lines) == 6
    assert any("gates passed" in line for line in out.splitlines())


def test_validate_scores_a_repeated_table_once(capsys):
    # "II" and "ii" name one group: its six entries print and gate once.
    code = run_cli(
        "validate", "--table", "II", "--table", "ii", "--seeds", "1..1",
        "--jobs", "1",
    )
    assert code == EXIT_VALIDATION
    out = capsys.readouterr().out.splitlines()
    lines = [line for line in out if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 6
    assert any(line.endswith("/6 gates passed") for line in out)
