"""Search-space and optimizer behaviour.

Grid sizes are kept small here; the figure-level settings live in the
acceptance tests.
"""

import math

import numpy as np
import pytest

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig
from qkd_keyrate.optimize import OptimizationResult, SearchSpace, optimize_rate
from qkd_keyrate.pipeline import evaluate_rate


def channel(dist=60.0, r=0.0, xi=0.147):
    return ChannelConfig(distance_km=dist, det_eff=0.15, dark_prob=5e-7,
                         e_mis=0.01, fluct_r=r, xi=xi)


def budget(mode="exact"):
    return EpsilonBudget.build(1e-10, 1e-15, mode)


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(p_z=(0.9, 0.3))
    with pytest.raises(ValueError):
        SearchSpace(p_ks=(0.0, 0.5))
    with pytest.raises(ValueError):
        SearchSpace(k_s=(0.1, 1.2))
    with pytest.raises(ValueError):
        SearchSpace(k_d1=(1e-4, 0.4))  # below the pinned k_d2


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


def test_deterministic_per_seed():
    a = optimize_rate(channel(), budget(), 1e12, seed=11, grid_points=3)
    b = optimize_rate(channel(), budget(), 1e12, seed=11, grid_points=3)
    assert a.best == b.best
    assert a.best_params == b.best_params
    assert a.evaluations == b.evaluations


def test_seeds_agree_on_the_optimum():
    rates = [
        optimize_rate(channel(), budget(), 1e12, seed=s, grid_points=3).best.rate
        for s in (0, 1, 2)
    ]
    assert all(r > 0.0 for r in rates)
    spread = math.log10(max(rates)) - math.log10(min(rates))
    assert spread < 0.05


def test_trace_is_strictly_improving():
    out = optimize_rate(channel(), budget(), 1e12, seed=0, grid_points=3)
    rates = [r for _, r in out.trace]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] == out.best.rate
    assert out.evaluations >= 3**5


def test_best_point_reproduces():
    out = optimize_rate(channel(), budget(), 1e12, seed=0, grid_points=3)
    redone = evaluate_rate(channel(), out.best_params, budget(), 1e12)
    assert redone == out.best


def test_nm_refinement_helps():
    grid = optimize_rate(channel(), budget(), 1e12, strategy="grid",
                         seed=0, grid_points=3)
    refined = optimize_rate(channel(), budget(), 1e12, strategy="grid+nm",
                            seed=0, grid_points=3)
    assert refined.best.rate >= grid.best.rate
    assert refined.evaluations > grid.evaluations


def test_hopeless_link_reports_zero():
    out = optimize_rate(channel(dist=250.0), budget(), 1e9,
                        seed=0, grid_points=3)
    assert isinstance(out, OptimizationResult)
    assert out.best.rate == 0.0
    assert out.best.aborted


def test_unknown_strategy_raises():
    with pytest.raises(ValueError):
        optimize_rate(channel(), budget(), 1e12, strategy="anneal")


@pytest.mark.parametrize("strategy", ["grid", "grid+nm"])
def test_single_grid_point_raises(strategy):
    # the polish's simplex is half a grid step wide, which one point lacks
    with pytest.raises(ValueError, match=r"grid_points must be >= 2"):
        optimize_rate(channel(dist=50.0), budget(), 1e12, strategy=strategy,
                      grid_points=1)
