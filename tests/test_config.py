"""INI config parsing, defaults, and diagnostics."""

from pathlib import Path

import pytest

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.config import (
    MAX_DISTANCES,
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
    with_overrides,
)
from qkd_keyrate.optimize import MAX_GRID_POINTS


def test_defaults_from_empty_config():
    cfg = parse_config("")
    assert cfg.mode == "exact"
    assert cfg.n_total == 1e12
    assert cfg.eps_sec == 1e-10
    assert cfg.eps_c == 1e-15
    assert cfg.f_ec == 1.16
    assert cfg.xi == 0.147
    assert cfg.det_eff == 0.15
    assert cfg.dark_prob == 5e-7
    assert cfg.e_mis == 0.01
    assert cfg.atten_db_per_km == 0.2
    assert (cfg.start_km, cfg.stop_km, cfg.step_km) == (0.0, 200.0, 10.0)


def test_distance_grid_inclusive():
    cfg = parse_config("[sweep]\nstart_km = 0\nstop_km = 50\nstep_km = 25\n")
    assert cfg.distances() == (0.0, 25.0, 50.0)
    ragged = parse_config("[sweep]\nstart_km = 0\nstop_km = 55\nstep_km = 25\n")
    assert ragged.distances() == (0.0, 25.0, 50.0)


def test_channel_and_budget_construction():
    cfg = parse_config("")
    ch = cfg.channel(50.0)
    assert ch.distance_km == 50.0
    assert ch.det_eff == 0.15
    assert ch.xi == 0.147
    bud = cfg.budget()
    assert isinstance(bud, EpsilonBudget)
    assert bud.eps_sec == 1e-10

    asym = parse_config("[run]\nasymptotic = true\n")
    assert asym.budget() is None


def test_fluct_mode_wiring():
    cfg = parse_config("[run]\nmode = fluctuating\n[source]\nfluct_r = 0.02\n")
    assert cfg.bound_mode == "fluct"
    assert cfg.channel(10.0).fluct_r == 0.02
    with pytest.raises(ConfigError, match="fluct_r"):
        parse_config("[run]\nmode = fluctuating\n")


def test_invariant_violations():
    with pytest.raises(ConfigError):
        parse_config("[run]\neps_sec = 1e-16\n")  # below eps_c
    with pytest.raises(ConfigError):
        parse_config("[source]\nxi = 1.6\n")
    with pytest.raises(ConfigError):
        parse_config("[channel]\ndet_eff = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("[sweep]\nstep_km = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nf_ec = 0.9\n")


def test_diagnostics_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[run]\nn_total = 1e12\nf_ec = soon\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[run]\nn_totl = 1e12\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("[rum]\nn_total = 1e12\n")


def test_readme_config_block_parses():
    # the README's example, inline ``;`` comments included
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert cfg.xi == 0.147
    assert cfg.grid_points == 7
    assert cfg.mode == "exact"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "nope.ini"))
    p = tmp_path / "ok.ini"
    p.write_text("[sweep]\nstop_km = 30\n")
    assert load_config(str(p)).stop_km == 30.0


def test_with_overrides():
    cfg = parse_config("")
    same = with_overrides(cfg, seed=None, output=None)
    assert same == cfg
    changed = with_overrides(cfg, asymptotic=True, seed=9)
    assert changed.asymptotic and changed.seed == 9
    assert cfg.asymptotic is False
    with pytest.raises(ConfigError):
        with_overrides(cfg, eps_sec=1e-20)


def test_direct_construction_validates():
    with pytest.raises(ConfigError):
        RunConfig(mode="sideways")
    with pytest.raises(ConfigError):
        RunConfig(n_total=0.0)


@pytest.mark.parametrize("step_km", [1e-5, 1e-9, 5e-324])
def test_rejects_oversized_distance_grid(step_km):
    # counted on construction: the list of distances is never built
    with pytest.raises(ConfigError, match="sweep.step_km"):
        RunConfig(step_km=step_km)
    with pytest.raises(ConfigError, match=f"more than {MAX_DISTANCES} distances"):
        parse_config(f"[sweep]\nstep_km = {step_km!r}\n")


def test_distance_grid_at_the_cap_is_accepted():
    # start, start + step, ..., stop: MAX_DISTANCES points, one more is too many
    RunConfig(start_km=0.0, stop_km=MAX_DISTANCES - 1.0, step_km=1.0)
    with pytest.raises(ConfigError, match="distances"):
        RunConfig(start_km=0.0, stop_km=float(MAX_DISTANCES), step_km=1.0)
    with pytest.raises(ConfigError, match="distances"):
        RunConfig(start_km=0.0, stop_km=1e308, step_km=1e-300)


def test_grid_above_the_cap_is_rejected():
    # the grid's prepared chunks are kept, so its size is capped on reading
    RunConfig(grid_points=MAX_GRID_POINTS)
    with pytest.raises(ConfigError, match=f"grid_points must be <= {MAX_GRID_POINTS}"):
        parse_config(f"[optimizer]\ngrid_points = {MAX_GRID_POINTS + 1}\n")


NON_FINITE = ("nan", "inf", "-inf")


@pytest.mark.parametrize("text", NON_FINITE)
@pytest.mark.parametrize("key", ["n_total", "eps_sec", "eps_c", "f_ec"])
def test_run_rejects_non_finite(key, text):
    with pytest.raises(ConfigError, match=f"run.{key} must be a finite number"):
        parse_config(f"[run]\n{key} = {text}\n")


@pytest.mark.parametrize("text", NON_FINITE)
@pytest.mark.parametrize("key", ["xi", "fluct_r"])
def test_source_rejects_non_finite(key, text):
    with pytest.raises(ConfigError, match=f"source.{key} must be a finite number"):
        parse_config(f"[source]\n{key} = {text}\n")


@pytest.mark.parametrize("text", NON_FINITE)
@pytest.mark.parametrize("key", ["det_eff", "dark_prob", "e_mis", "atten_db_per_km"])
def test_channel_rejects_non_finite(key, text):
    with pytest.raises(ConfigError, match=f"channel.{key} must be a finite number"):
        parse_config(f"[channel]\n{key} = {text}\n")


@pytest.mark.parametrize("text", NON_FINITE)
@pytest.mark.parametrize("key", ["start_km", "stop_km", "step_km"])
def test_sweep_rejects_non_finite(key, text):
    with pytest.raises(ConfigError, match=f"sweep.{key} must be a finite number"):
        parse_config(f"[sweep]\n{key} = {text}\n")


def test_rejects_underflowing_secrecy_split():
    # eps_s^2 = 1e-400 is below the smallest double
    with pytest.raises(ConfigError, match="underflows"):
        parse_config("[run]\neps_sec = 1e-200\neps_c = 1e-210\n")
    with pytest.raises(ConfigError, match="underflows"):
        RunConfig(mode="fluctuating", fluct_r=0.05, eps_sec=1e-160, eps_c=1e-170)
    # small but representable splits still work
    assert parse_config("[run]\neps_sec = 1e-100\neps_c = 1e-110\n").budget().eta > 0.0
