"""CLI behaviour: sweeps, CSV contract, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qkd_keyrate import cli, config
from qkd_keyrate.cli import CSV_COLUMNS, main, run_sweep, write_csv
from qkd_keyrate.config import parse_config

FAST = """\
[run]
n_total = 1e12
[sweep]
start_km = 0
stop_km = 20
step_km = 10
[optimizer]
grid_points = 2
seed = 3
workers = 1
"""


@pytest.fixture(scope="module")
def fast_rows():
    return run_sweep(parse_config(FAST))


def test_sweep_rows(fast_rows):
    assert [r["distance_km"] for r in fast_rows] == [0.0, 10.0, 20.0]
    for row in fast_rows:
        assert set(row) == set(CSV_COLUMNS)
        assert row["rate"] > 0.0
        assert row["aborted"] is False
        assert row["abort_reason"] is None
        assert 0.0 < row["p_z"] < 1.0
    rates = [r["rate"] for r in fast_rows]
    assert rates == sorted(rates, reverse=True)


def test_csv_contract(fast_rows):
    buf = io.StringIO()
    write_csv(fast_rows, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[-1] == ""  # trailing newline, nothing after
    first = lines[1].split(",")
    assert first[0] == format(0.0, ".12e")
    assert first[CSV_COLUMNS.index("aborted")] == "false"
    assert first[CSV_COLUMNS.index("abort_reason")] == ""
    assert first[CSV_COLUMNS.index("ell")].isdigit()
    # every float field carries 13 significant digits
    for col in ("rate", "m0_lower", "p_z"):
        cell = first[CSV_COLUMNS.index(col)]
        mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 13


def test_sweep_deterministic(fast_rows):
    again = run_sweep(parse_config(FAST))
    a, b = io.StringIO(), io.StringIO()
    write_csv(fast_rows, a)
    write_csv(again, b)
    assert a.getvalue() == b.getvalue()


def test_sweep_builds_one_budget(fast_rows, monkeypatch):
    built = []
    budget = config.RunConfig.budget

    def counted(self):
        built.append(1)
        return budget(self)

    monkeypatch.setattr(config.RunConfig, "budget", counted)
    assert run_sweep(parse_config(FAST)) == fast_rows
    assert len(built) == 1


def test_sweep_workers_give_the_rows_of_one_process(fast_rows):
    # the budget built once travels to each worker process
    assert run_sweep(parse_config(FAST.replace("workers = 1", "workers = 2"))) == fast_rows


@pytest.mark.parametrize("cores, pool_size", [(64, 3), (2, 2), (1, None)])
def test_sweep_workers_are_capped(fast_rows, monkeypatch, cores, pool_size):
    # a pool forks all its workers at once: never more than the
    # distances (3) or the cores, whatever the config asks for
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    rows = run_sweep(parse_config(FAST.replace("workers = 1", "workers = 5000")))
    assert rows == fast_rows
    assert sizes == ([] if pool_size is None else [pool_size])


def test_grid_above_the_cap_exit_code(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST.replace("grid_points = 2", "grid_points = 13"))
    code = main(["sweep", "--config", str(ini), "--out", str(tmp_path / "r.csv")])
    assert "grid_points must be <= 12" in _assert_clean_error(code, capsys)


def test_sweep_command_writes_file(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST)
    out = tmp_path / "rates.csv"
    code = main(["sweep", "--config", str(ini), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith(",".join(CSV_COLUMNS))
    assert "wrote 3 rows" in capsys.readouterr().out


def test_asymptotic_flag_lifts_rates(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST)
    out_f = tmp_path / "fin.csv"
    out_a = tmp_path / "asym.csv"
    assert main(["sweep", "--config", str(ini), "--out", str(out_f)]) == 0
    assert main(["sweep", "--config", str(ini), "--out", str(out_a),
                 "--asymptotic"]) == 0

    def rates(path):
        lines = path.read_text().splitlines()[1:]
        return [float(line.split(",")[1]) for line in lines]

    for fin, asym in zip(rates(out_f), rates(out_a)):
        assert asym > fin


def test_config_error_exit_code(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nf_ec = soon\n")
    assert main(["sweep", "--config", str(ini)]) == 1
    assert "f_ec" in capsys.readouterr().err
    assert main(["sweep", "--config", str(tmp_path / "missing.ini")]) == 1
    capsys.readouterr()


def test_removed_k_d2_key_exit_code(tmp_path, capsys):
    # the weakest decoy intensity is pinned by the search space, not the config
    ini = tmp_path / "k_d2.ini"
    ini.write_text("[source]\nk_d2 = 1e-3\n")
    assert main(["sweep", "--config", str(ini)]) == 1
    assert "unknown key 'k_d2' in section [source]" in capsys.readouterr().err


def test_validate_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_validation",
        lambda seed=0: {"passed": True, "seed": seed},
    )
    out = tmp_path / "report.json"
    assert main(["validate", "--seed", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 5
    capsys.readouterr()

    monkeypatch.setattr(
        cli, "run_validation", lambda seed=0: {"passed": False}
    )
    assert main(["validate"]) == 2
    assert "FAILED" in capsys.readouterr().err


def test_optimize_command(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST)
    assert main(["optimize", "--config", str(ini), "--distance", "40"]) == 0
    out = capsys.readouterr().out
    assert "best rate" in out
    assert format(40.0, ".12e") in out
    assert "grid_screened = " in out


def _assert_clean_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


def test_negative_validate_seed_exit_code(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate", "--seed", "-1", "--out", str(out)])
    assert "--seed must be >= 0" in _assert_clean_error(code, capsys)
    assert not out.exists()


def test_non_finite_config_exit_code(tmp_path, capsys):
    ini = tmp_path / "nan.ini"
    ini.write_text("[run]\nn_total = nan\n[sweep]\nstart_km = 0\nstop_km = 0\n")
    out = tmp_path / "rates.csv"
    code = main(["sweep", "--config", str(ini), "--out", str(out)])
    assert "run.n_total must be a finite number" in _assert_clean_error(code, capsys)
    assert not out.exists()


def test_underflowing_secrecy_split_exit_code(tmp_path, capsys):
    ini = tmp_path / "tiny.ini"
    ini.write_text("[run]\neps_sec = 1e-200\neps_c = 1e-210\n"
                   "[sweep]\nstart_km = 0\nstop_km = 0\n")
    code = main(["sweep", "--config", str(ini), "--out", str(tmp_path / "r.csv")])
    assert "underflows" in _assert_clean_error(code, capsys)


@pytest.mark.parametrize("distance", ["-5", "nan", "inf"])
def test_bad_distance_exit_code(tmp_path, capsys, distance):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST)
    code = main(["optimize", "--config", str(ini), f"--distance={distance}"])
    err = _assert_clean_error(code, capsys)
    assert "distance must be finite and nonnegative" in err


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_infeasible_search_box_exit_code(tmp_path, capsys, command):
    # at 95% fluctuation neighbouring intensity ranges always overlap
    ini = tmp_path / "wide.ini"
    ini.write_text("[run]\nmode = fluctuating\n[source]\nfluct_r = 0.95\n"
                   "[sweep]\nstart_km = 0\nstop_km = 10\nstep_km = 10\n"
                   "[optimizer]\ngrid_points = 3\nworkers = 1\n")
    args = ["--config", str(ini)]
    args += ["--out", str(tmp_path / "r.csv")] if command == "sweep" else ["--distance", "10"]
    code = main([command, *args])
    assert "no feasible parameter point" in _assert_clean_error(code, capsys)


def test_module_entry_point_runs_from_a_checkout():
    # python -m qkd_keyrate, with only src/ on the path
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-m", "qkd_keyrate", "--help"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "sweep" in out.stdout and "optimize" in out.stdout
