"""The optimizer grid's screen: a point whose key length at a zero
phase-error rate cannot beat the best rate so far skips the cell and
phase-error stages.  The screen must be exact: it may only drop points
that could not have entered the trace."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkd_keyrate import optimize
from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig, ChannelModel
from qkd_keyrate.config import parse_config
from qkd_keyrate.decoy import aggregate_bounds
from qkd_keyrate.key_length import key_length_bound, lambda_ec_batch
from qkd_keyrate.optimize import GRID_CHUNK, SearchSpace, optimize_rate
from qkd_keyrate.pipeline import (
    ParamBatch,
    evaluate_batch,
    evaluate_rate,
    prepare_batch,
    stage_one,
    stage_two,
)
from test_sweep_golden import SWEEPS

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
    return None if eps_sec is None else EpsilonBudget(eps_sec, 1e-15, mode)


def screen_terms(cfg, params, bud, n_total, mode):
    """m0, m1 and the zero-phase-error bound of one point, as the
    screen computes them."""
    prepared = prepare_batch(ParamBatch.of([params]), mode, cfg.fluct_r)
    counts, e_z = ChannelModel(cfg).expected_counts(prepared.layout, n_total)
    m0, m1 = aggregate_bounds(counts, prepared.factors, bud, mode)
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
    m0, m1, bound = screen_terms(cfg, params, bud, n_total, chain_mode)
    assert (m0, m1) == (res.m0_l, res.m1_l)
    # an aborted point keys nothing whatever its bound; a keyed one has a
    # single-photon bound and stays below the bound
    assert res.ell == 0 or (m1 > 0.0 and res.ell <= bound)
    if res.ell > 0:
        # a floor just below the point's rate lets it through unchanged
        floor = np.nextafter(res.rate, 0.0)
        model = ChannelModel(cfg)
        prepared = prepare_batch(ParamBatch.of([params]), chain_mode, r)
        one = stage_one(model, prepared, bud, n_total)
        assert one.ceiling(bud, n_total)[0] > floor
        assert stage_two(model, prepared, one, np.array([0]), bud, n_total).result(0) == res


def test_screen_keeps_the_results_of_the_points_it_passes():
    cfg, bud = channel(20.0, 0.05), budget("fluct")
    params = SearchSpace().params_batch(np.random.default_rng(5).random((64, 5)))
    feasible, full = evaluate_batch(cfg, params, bud, 1e14, mode="fluct")
    floor = float(np.median(full.rate[full.rate > 0.0]))
    prepared = prepare_batch(params, "fluct", 0.05)
    assert np.array_equal(prepared.feasible, feasible)
    model = ChannelModel(cfg)
    one = stage_one(model, prepared, bud, 1e14)
    kept = one.ceiling(bud, 1e14) > floor
    # stage 2 runs on some points only, on their rows of stage 1's arrays
    batch = stage_two(model, prepared, one, kept.nonzero()[0], bud, 1e14)
    assert 0 < kept.sum() < feasible.sum()
    assert len(batch.rate) == kept.sum()
    for j, i in enumerate(np.flatnonzero(kept)):
        assert batch.result(j) == full.result(i)
    assert (full.rate[~kept] <= floor).all()


def test_floor_per_point():
    # past the key's edge the grid's floor of 0 stops every point; the
    # first feasible point, whose floor is -inf, runs the whole chain alone
    cfg, bud = channel(200.0, 0.05), budget("fluct", 1e-8)
    params = SearchSpace().params_batch(np.random.default_rng(2).random((16, 5)))
    feasible, full = evaluate_batch(cfg, params, bud, 1e14, mode="fluct")
    assert feasible.any()
    model = ChannelModel(cfg)
    prepared = prepare_batch(params, "fluct", 0.05)
    one = stage_one(model, prepared, bud, 1e14)
    assert (one.ceiling(bud, 1e14) <= 0.0).all()
    kept = stage_two(model, prepared, one, np.array([0]), bud, 1e14)
    assert len(kept.rate) == 1 and kept.result(0) == full.result(0)


def grid_oracle(cfg, bud, n_total, space, mode, grid_points):
    """The grid's trace, best point, best result and screened count with
    every grid point scored through ``evaluate_batch``, in the grid's
    order (the centre first, then row-major), and each point screened
    under the best rate before it (at least 0)."""
    ticks = np.linspace(0.0, 1.0, grid_points)
    rows = np.unravel_index(np.arange(grid_points**5), (grid_points,) * 5)
    units = np.concatenate([np.full((1, 5), 0.5), ticks[np.stack(rows, axis=1)]])
    points = (space or SearchSpace()).params_batch(units)
    feasible, batch = evaluate_batch(cfg, points, bud, n_total, mode=mode)
    bound = key_length_bound(batch.m0_l, batch.m1_l, batch.lambda_ec, bud)
    ceiling = np.where(batch.m1_l > 0.0, bound / n_total, -np.inf)
    trace, best, screened = [], None, 0
    for k, i in enumerate(np.flatnonzero(feasible)):
        if best is not None and ceiling[k] <= max(best.rate, 0.0):
            screened += 1
        elif best is None or batch.rate[k] > best.rate:
            best = batch.result(k)
            trace.append((points.point(i), best.rate))
    return tuple(trace), trace[-1][0], best, screened


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
def test_screen_leaves_the_optimum_unchanged(case):
    mode, r, n_total, eps_sec, distance, grid_points, space, keys = CASES[case]
    if space is not None:
        centre = ParamBatch.of([space.params_at(np.full(5, 0.5))])
        feasible, _ = evaluate_batch(channel(distance, r), centre, None, n_total, mode=mode)
        assert not feasible[0]
    cfg, bud = channel(distance, r), budget(mode, eps_sec)
    run = lambda strategy: optimize_rate(cfg, bud, n_total, space=space, strategy=strategy,
                                         mode=mode, grid_points=grid_points)
    grid, full = run("grid"), run("grid+nm")
    trace, best_params, best, screened = grid_oracle(cfg, bud, n_total, space, mode,
                                                     grid_points)
    assert grid.grid_screened == screened > 0
    assert grid.best == best
    assert grid.best_params == best_params
    assert grid.trace == trace
    assert grid.evaluations == grid.grid_evaluations == 1 + grid_points**5
    # the polish starts from the grid's best point
    assert full.trace[:len(trace)] == trace
    assert full.grid_screened == grid.grid_screened
    assert full.grid_evaluations == grid.grid_evaluations
    assert full.evaluations == full.grid_evaluations + full.polish_evaluations
    assert (full.best.ell > 0) == keys
    assert (full.polish_evaluations > 0) == keys


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
    ones, twos = [], []

    def counted_one(model, prepared, *args):
        ones.append(len(prepared.feasible))
        return stage_one(model, prepared, *args)

    def counted_two(model, prepared, one, rows, *args):
        twos.append(len(rows))
        return stage_two(model, prepared, one, rows, *args)

    monkeypatch.setattr(optimize, "stage_one", counted_one)
    monkeypatch.setattr(optimize, "stage_two", counted_two)
    cfg, bud = channel(distance, r), budget(mode, eps_sec)
    out = optimize_rate(cfg, bud, n_total, mode=mode, grid_points=4)
    assert out.best.ell == 0
    # the grid's 1 + 4**5 points are one block, one stage-1 batch
    assert ones == [1025]
    # past the key's edge the best rate stays 0, so every point's floor is
    # the block's: stage 2 scores exactly the points the screen passes,
    # among them the first feasible point, GRID_CHUNK at a time
    [block] = optimize._grid_blocks(SearchSpace(), 4, mode, r)
    passed = len(block.prepared.idx) - out.grid_screened
    assert passed >= 1
    assert twos == [GRID_CHUNK] * (passed // GRID_CHUNK) + [passed % GRID_CHUNK] * (
        passed % GRID_CHUNK > 0)
    assert evaluate_rate(cfg, out.best_params, bud, n_total, mode=mode) == out.best


@pytest.mark.parametrize("mode, r, n_total, eps_sec, distance", [
    ("exact", 0.0, 1e12, 1e-10, 60.0),
    ("fluct", 0.05, 1e14, 1e-8, 20.0),
], ids=["exact", "fluct"])
def test_stage_two_mixes_chunks(mode, r, n_total, eps_sec, distance):
    # a stage-2 batch of rows spread over the whole block, out of order,
    # gives each row its evaluate_rate result, bit for bit
    cfg, bud = channel(distance, r), budget(mode, eps_sec)
    units, points, prepared = optimize._grid_blocks(SearchSpace(), 4, mode, r)[0]
    model = ChannelModel(cfg)
    one = stage_one(model, prepared, bud, n_total)
    rows = np.arange(len(prepared.idx))[::-37][:GRID_CHUNK]
    assert rows[0] > 3 * len(prepared.idx) // 4 and rows[-1] < len(prepared.idx) // 4
    batch = stage_two(model, prepared, one, rows, bud, n_total)
    keyed = 0
    for k, j in enumerate(rows):
        want = evaluate_rate(cfg, points.point(prepared.idx[j]), bud, n_total, mode=mode)
        assert batch.result(k) == want
        keyed += want.ell > 0
    assert keyed > 0


@pytest.mark.parametrize("chunk, block", [(64, 1), (64, 16), (1000, 1), (1000, 16)])
@pytest.mark.parametrize("name, distance", [("sweep-exact", 50.0), ("sweep-fluct", 20.0)])
def test_answers_do_not_depend_on_batch_sizes(name, distance, chunk, block, monkeypatch):
    # GRID_CHUNK caps a stage-2 batch and GRID_BLOCK·GRID_CHUNK sizes a
    # stage-1 batch; every reported number but the times is the same
    # whatever they are
    cfg = parse_config(SWEEPS[name])

    def run():
        out = optimize_rate(cfg.channel(distance), cfg.budget(), cfg.n_total,
                            strategy=cfg.strategy, mode=cfg.bound_mode, f_ec=cfg.f_ec,
                            grid_points=cfg.grid_points)
        return dataclasses.replace(out, grid_s=0.0, polish_s=0.0)

    want = run()
    optimize._grid_blocks.cache_clear()
    monkeypatch.setattr(optimize, "GRID_CHUNK", chunk)
    monkeypatch.setattr(optimize, "GRID_BLOCK", block)
    try:
        got = run()
        blocks = optimize._grid_blocks(SearchSpace(), cfg.grid_points, cfg.bound_mode,
                                       cfg.fluct_r)
        assert len(blocks) == -(-cfg.grid_points**5 // (chunk * block))
    finally:
        optimize._grid_blocks.cache_clear()
    assert got == want
