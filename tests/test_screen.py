"""The optimizer grid's screen: a point whose key length at a zero
phase-error rate cannot beat the best rate so far skips the cell and
phase-error stages.  The screen must be exact: it may only drop points
that could not have entered the trace."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkd_keyrate import optimize
from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig, ChannelModel
from qkd_keyrate.decoy import aggregate_bounds, decoy_factors
from qkd_keyrate.key_length import key_length_bound, lambda_ec_batch
from qkd_keyrate.optimize import SearchSpace, optimize_rate
from qkd_keyrate.pipeline import (
    ParamBatch,
    evaluate_batch,
    evaluate_rate,
    prepare_batch,
    screen_batch,
)

# per mode of the property test: the chain's mode, r, N and eps_sec
# (None: asymptotic)
MODES = {
    "exact": ("exact", 0.0, 1e12, 1e-10),
    "fluct": ("fluct", 0.05, 1e14, 1e-8),
    "asymptotic": ("exact", 0.0, 1e12, None),
}


def channel(dist, r=0.0):
    return ChannelConfig(distance_km=dist, det_eff=0.15, dark_prob=5e-7,
                         e_mis=0.01, fluct_r=r, xi=0.147)


def budget(mode, eps_sec=1e-10):
    return None if eps_sec is None else EpsilonBudget.build(eps_sec, 1e-15, mode)


def stage_one(cfg, params, bud, n_total, mode):
    """m0, m1 and the zero-phase-error bound of one point, as the
    screen computes them."""
    intens = params.intensities(mode, cfg.fluct_r)
    counts, e_z = ChannelModel(cfg).expected_batch(intens, np.array([params.p_z]), n_total)
    m0, m1 = aggregate_bounds(counts, decoy_factors(intens), bud, mode)
    lam = lambda_ec_batch(counts.z_by_k[:, 0], e_z)
    return m0[0], m1[0], key_length_bound(m0, m1, lam, bud)[0]


@given(
    mode=st.sampled_from(sorted(MODES)),
    distance=st.floats(0.0, 200.0),
    u=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_bound_is_never_below_the_key_length(mode, distance, u):
    chain_mode, r, n_total, eps_sec = MODES[mode]
    params = SearchSpace().params_at(np.array(u))
    try:
        params.intensities(chain_mode, r)
    except ValueError:
        assume(False)
    cfg, bud = channel(distance, r), budget(chain_mode, eps_sec)
    res = evaluate_rate(cfg, params, bud, n_total, mode=chain_mode)
    m0, m1, bound = stage_one(cfg, params, bud, n_total, chain_mode)
    assert (m0, m1) == (res.m0_l, res.m1_l)
    # an aborted point keys nothing whatever its bound; a keyed one has a
    # single-photon bound and stays below the bound
    assert res.ell == 0 or (m1 > 0.0 and res.ell <= bound)
    if res.ell > 0:
        # a floor just below the point's rate lets it through unchanged
        floor = np.nextafter(res.rate, 0.0)
        feasible, screened, batch = screen_batch(
            cfg, prepare_batch(ParamBatch.of([params]), chain_mode, r), bud, n_total, floor
        )
        assert feasible[0] and not screened[0]
        assert batch.result(0) == res


def test_screen_keeps_the_results_of_the_points_it_passes():
    cfg, bud = channel(20.0, 0.05), budget("fluct")
    params = SearchSpace().params_batch(np.random.default_rng(5).random((64, 5)))
    feasible, full = evaluate_batch(cfg, params, bud, 1e14, mode="fluct")
    floor = float(np.median(full.rate[full.rate > 0.0]))
    prepared = prepare_batch(params, "fluct", 0.05)
    same, screened, batch = screen_batch(cfg, prepared, bud, 1e14, floor)
    assert np.array_equal(same, feasible)
    # stage 2 ran on some points only, on their rows of stage 1's arrays
    kept = ~screened[feasible]
    assert 0 < kept.sum() < feasible.sum()
    assert len(batch.rate) == kept.sum()
    for j, i in enumerate(np.flatnonzero(kept)):
        assert batch.result(j) == full.result(i)
    assert (full.rate[~kept] <= floor).all()


def test_floor_per_point():
    # past the key's edge a floor of 0 stops every point; a point whose
    # floor is -inf runs the whole chain
    cfg, bud = channel(200.0, 0.05), budget("fluct", 1e-8)
    params = SearchSpace().params_batch(np.random.default_rng(2).random((16, 5)))
    feasible, full = evaluate_batch(cfg, params, bud, 1e14, mode="fluct")
    first = int(np.argmax(feasible))
    prepared = prepare_batch(params, "fluct", 0.05)
    _, screened, none = screen_batch(cfg, prepared, bud, 1e14, 0.0)
    assert screened.tolist() == feasible.tolist() and len(none.rate) == 0
    floor = np.zeros(16)
    floor[first] = -np.inf
    _, screened, kept = screen_batch(cfg, prepared, bud, 1e14, floor)
    assert np.flatnonzero(feasible & ~screened).tolist() == [first]
    assert kept.result(0) == full.result(0)


def unscreened(monkeypatch):
    """Run the optimizer's grid without a floor, as before the screen."""
    def no_floor(cfg, prepared, budget, n_total, floor, *args, **kwargs):
        return screen_batch(cfg, prepared, budget, n_total, None, *args, **kwargs)

    monkeypatch.setattr(optimize, "screen_batch", no_floor)


# the centre of these boxes is infeasible: k_d1 above k_s in the first,
# k_s^- below k_d1^+ + k_d2^- at r = 0.2 in the second
DECOY_PAST_SIGNAL = SearchSpace(k_d1=(0.6, 0.7))
CROWDED_DECOYS = SearchSpace(k_s=(0.3, 0.5), k_d1=(0.2, 0.4))

CASES = {
    # name: mode, r, N, eps_sec, distance, grid points, space, keys
    "exact-key": ("exact", 0.0, 1e12, 1e-10, 60.0, 4, None, True),
    "exact-dead": ("exact", 0.0, 1e9, 1e-10, 250.0, 3, None, False),
    "asymptotic-key": ("exact", 0.0, 1e12, None, 100.0, 4, None, True),
    "fluct-key": ("fluct", 0.05, 1e14, 1e-8, 40.0, 4, None, True),
    "fluct-dead": ("fluct", 0.05, 1e14, 1e-8, 120.0, 4, None, False),
    "centre-infeasible-key": ("exact", 0.0, 1e12, 1e-10, 60.0, 4, DECOY_PAST_SIGNAL, True),
    "centre-infeasible-dead": ("fluct", 0.2, 1e14, 1e-10, 40.0, 3, CROWDED_DECOYS, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_screen_leaves_the_optimum_unchanged(case, monkeypatch):
    mode, r, n_total, eps_sec, distance, grid_points, space, keys = CASES[case]
    if space is not None:
        centre = ParamBatch.of([space.params_at(np.full(5, 0.5))])
        feasible, _ = evaluate_batch(channel(distance, r), centre, None, n_total, mode=mode)
        assert not feasible[0]
    run = lambda: optimize_rate(channel(distance, r), budget(mode, eps_sec), n_total,
                                space=space, mode=mode, grid_points=grid_points)
    screened = run()
    unscreened(monkeypatch)
    full = run()
    assert screened.grid_screened > 0
    assert full.grid_screened == 0
    assert screened.best == full.best
    assert screened.best_params == full.best_params
    assert screened.trace == full.trace
    assert screened.evaluations == full.evaluations
    assert screened.grid_evaluations == full.grid_evaluations
    assert screened.polish_evaluations == full.polish_evaluations
    assert (screened.best.ell > 0) == keys


# distances past the key's edge: sweep-fluct's link at 120 km, where the
# screen keeps some points, and at 160 km, where it would stop them all,
# and an exact-mode link
KEYLESS = {
    "fluct-120": ("fluct", 0.05, 1e14, 1e-8, 120.0),
    "fluct-160": ("fluct", 0.05, 1e14, 1e-8, 160.0),
    "exact-250": ("exact", 0.0, 1e9, 1e-10, 250.0),
}


@pytest.mark.parametrize("case", sorted(KEYLESS))
def test_keyless_distance_scores_each_chunk_once(case, monkeypatch):
    mode, r, n_total, eps_sec, distance = KEYLESS[case]
    sizes = []

    def counted(cfg, prepared, *args, **kwargs):
        sizes.append(len(prepared.feasible))
        return screen_batch(cfg, prepared, *args, **kwargs)

    monkeypatch.setattr(optimize, "screen_batch", counted)
    cfg, bud = channel(distance, r), budget(mode, eps_sec)
    out = optimize_rate(cfg, bud, n_total, mode=mode, grid_points=4)
    assert out.best.ell == 0
    # the first feasible point is let through the screen, not scored
    # again in a batch of its own
    assert sizes == [257, 256, 256, 256]
    assert evaluate_rate(cfg, out.best_params, bud, n_total, mode=mode) == out.best
