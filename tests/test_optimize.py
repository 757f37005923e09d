"""Search-space and optimizer behaviour.

Grid sizes are kept small here; the figure-level settings live in the
acceptance tests.
"""

import math

import numpy as np
import pytest

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig
from qkd_keyrate.optimize import (
    MAX_GRID_POINTS,
    POLISH_FIRST_STEPS,
    POLISH_HALVINGS,
    InfeasibleSearchError,
    OptimizationResult,
    SearchSpace,
    optimize_rate,
)
from qkd_keyrate.pipeline import evaluate_batch, evaluate_rate


def channel(dist=60.0, r=0.0, xi=0.147):
    return ChannelConfig(distance_km=dist, det_eff=0.15, dark_prob=5e-7,
                         e_mis=0.01, fluct_r=r, xi=xi)


def budget(mode="exact"):
    return EpsilonBudget(1e-10, 1e-15, mode)


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(p_z=(0.9, 0.3))
    with pytest.raises(ValueError):
        SearchSpace(p_ks=(0.0, 0.5))
    with pytest.raises(ValueError):
        SearchSpace(k_s=(0.1, 1.2))
    with pytest.raises(ValueError):
        SearchSpace(k_d1=(1e-4, 0.4))  # below the pinned k_d2


@pytest.mark.parametrize("field, bounds", [
    ("p_z", (0.3, 1.5)),
    ("p_ks", (0.2, 3.0)),
    ("p_kd1", (0.02, 1.0)),
    ("p_z", (math.nan, 0.9)),
    ("k_s", (0.05, math.nan)),
    ("k_d1", (0.005, math.inf)),
    ("k_d2", math.nan),
    ("k_d2", math.inf),
    ("k_d2", -1e-4),
])
def test_space_rejects_boxes_without_feasible_points(field, bounds):
    # no point of these boxes is feasible, or a bound is not a number
    with pytest.raises(ValueError, match=field):
        SearchSpace(**{field: bounds})


def test_params_at_always_feasible():
    space = SearchSpace()
    rng = np.random.default_rng(7)
    for u in rng.random((400, 5)):
        p = space.params_at(u)
        assert p.p_ks + p.p_kd1 < 1.0
        assert 0.0 < p.p_z < 1.0
        assert p.k_s > p.k_d1 > p.k_d2
    corner = space.params_at(np.ones(5))
    assert corner.p_ks + corner.p_kd1 < 1.0
    assert corner.k_s > corner.k_d1


def test_deterministic():
    a = optimize_rate(channel(), budget(), 1e12, grid_points=3)
    b = optimize_rate(channel(), budget(), 1e12, grid_points=3)
    assert a.best == b.best
    assert a.best_params == b.best_params
    assert a.evaluations == b.evaluations
    assert a.trace == b.trace


def test_trace_is_strictly_improving():
    out = optimize_rate(channel(), budget(), 1e12, grid_points=3)
    rates = [r for _, r in out.trace]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] == out.best.rate
    assert out.evaluations >= 3**5


def test_best_point_reproduces():
    out = optimize_rate(channel(), budget(), 1e12, grid_points=3)
    redone = evaluate_rate(channel(), out.best_params, budget(), 1e12)
    assert redone == out.best


def test_polish_refinement_helps():
    grid = optimize_rate(channel(), budget(), 1e12, strategy="grid", grid_points=3)
    refined = optimize_rate(channel(), budget(), 1e12, strategy="grid+nm",
                            grid_points=3)
    assert refined.best.rate >= grid.best.rate
    assert refined.evaluations > grid.evaluations


def unit_of(space, p):
    """The unit-box vector that ``space.params_at`` maps to ``p``."""
    frac = lambda v, lo, hi: (v - lo) / (hi - lo)
    p_kd1_hi = min(0.98 * (1.0 - p.p_ks), space.p_kd1[1])
    k_d1_hi = min(0.9 * p.k_s, space.k_d1[1])
    return np.array([
        frac(p.p_z, *space.p_z), frac(p.p_ks, *space.p_ks),
        frac(p.p_kd1, space.p_kd1[0], p_kd1_hi), frac(p.k_s, *space.k_s),
        frac(p.k_d1, space.k_d1[0], k_d1_hi),
    ])


def test_polish_stops_at_a_stencil_optimum():
    grid_points = 3
    out = optimize_rate(channel(), budget(), 1e12, grid_points=grid_points)
    space = SearchSpace()
    u = unit_of(space, out.best_params)
    axes = np.concatenate([np.eye(5), -np.eye(5)])
    # the returned point ends the track that found it, whose last poll,
    # before its POLISH_HALVINGS-th halving, found no better neighbour
    stencil_optimal = []
    for first in POLISH_FIRST_STEPS:
        step = first / (grid_points - 1) / 2.0 ** (POLISH_HALVINGS - 1)
        stencil = np.clip(u + step * axes, 0.0, 1.0)
        _, batch = evaluate_batch(channel(), space.params_batch(stencil),
                                  budget(), 1e12)
        stencil_optimal.append(not np.any(batch.rate > out.best.rate))
    assert any(stencil_optimal)


def test_phases_report_their_cost():
    out = optimize_rate(channel(), budget(), 1e12, grid_points=3)
    assert out.grid_evaluations == 1 + 3**5
    assert out.polish_evaluations > 0
    assert out.grid_evaluations + out.polish_evaluations == out.evaluations
    assert out.grid_s > 0.0 and out.polish_s > 0.0
    grid = optimize_rate(channel(), budget(), 1e12, strategy="grid", grid_points=3)
    assert grid.polish_evaluations == 0
    assert grid.evaluations == grid.grid_evaluations
    # the screen's stops count among the grid evaluations; at a distance
    # with no key it stops every grid point but the centre, whose full
    # result is reported
    assert 0 <= out.grid_screened < out.grid_evaluations
    dead = optimize_rate(channel(dist=250.0), budget(), 1e9, grid_points=3)
    assert dead.best.ell == 0
    assert dead.grid_screened == dead.grid_evaluations - 1
    assert dead.best_params == SearchSpace().params_at(np.full(5, 0.5))


def test_hopeless_link_reports_zero():
    out = optimize_rate(channel(dist=250.0), budget(), 1e9, grid_points=3)
    assert isinstance(out, OptimizationResult)
    assert out.best.rate == 0.0
    assert out.best.aborted


@pytest.mark.parametrize("setting, value", [
    ("mode", "bogus"), ("f_ec", 0.5), ("f_ec", math.nan),
    ("n_total", -1.0), ("n_total", math.nan), ("n_total", math.inf),
])
def test_batch_settings_reach_the_caller(setting, value):
    # a setting that concerns every point raises with its own message,
    # not as an empty search box
    kwargs = {"n_total": 1e12, setting: value}
    with pytest.raises(ValueError, match=setting) as info:
        optimize_rate(channel(), budget(), grid_points=2, **kwargs)
    assert not isinstance(info.value, InfeasibleSearchError)


def test_unknown_strategy_raises():
    with pytest.raises(ValueError):
        optimize_rate(channel(), budget(), 1e12, strategy="anneal")


@pytest.mark.parametrize("strategy", ["grid", "grid+nm"])
def test_single_grid_point_raises(strategy):
    # the polish's steps are fractions of a grid step, which one point lacks
    with pytest.raises(ValueError, match=r"grid_points must be >= 2"):
        optimize_rate(channel(dist=50.0), budget(), 1e12, strategy=strategy,
                      grid_points=1)


def test_grid_above_the_cap_raises():
    # rejected before any grid block is formed
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        optimize_rate(channel(dist=50.0), budget(), 1e12,
                      grid_points=MAX_GRID_POINTS + 1)
