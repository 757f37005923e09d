"""End-to-end checks of the single-point evaluation chain."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig
from qkd_keyrate.decoy import CELLS, CountsBatch
from qkd_keyrate.optimize import SearchSpace
from qkd_keyrate.phase_error import term_coeffs
from qkd_keyrate.pipeline import (
    ParamBatch,
    ProtocolParams,
    evaluate_batch,
    evaluate_rate,
    source_coeffs,
)
from qkd_keyrate.qubit_model import DegenerateStatesError

from one_point import expected_counts, source_model

PARAMS = ProtocolParams(p_z=0.88, p_ks=0.8, p_kd1=0.12, k_s=0.46, k_d1=0.11)


def channel(dist=40.0, r=0.0, xi=0.147):
    return ChannelConfig(distance_km=dist, det_eff=0.15, dark_prob=5e-7,
                         e_mis=0.01, fluct_r=r, xi=xi)


def budget(mode="exact", eps_sec=1e-10):
    return EpsilonBudget.build(eps_sec, 1e-15, mode)


def test_asymptotic_dominates_finite():
    cfg = channel()
    fin = evaluate_rate(cfg, PARAMS, budget(), 1e12)
    asym = evaluate_rate(cfg, PARAMS, None, 1e12)
    assert 0.0 < fin.rate < asym.rate


def test_fluct_bounds_cost_rate():
    # same nominal parameters, same block size: the fluctuation-robust
    # estimation chain can only do worse than exact intensity control
    cfg = channel(r=0.02)
    ex = evaluate_rate(cfg, PARAMS, budget("exact"), 1e14, mode="exact")
    fl = evaluate_rate(cfg, PARAMS, budget("fluct"), 1e14, mode="fluct")
    assert 0.0 < fl.rate < ex.rate


def test_precomputed_counts_short_circuit():
    cfg = channel()
    bud = budget()
    direct = evaluate_rate(cfg, PARAMS, bud, 1e12)
    # the Z error rate is recovered from the raw cells
    counts, _ = expected_counts(cfg, PARAMS.intensities("exact", 0.0), PARAMS.p_z, 1e12)
    fed = evaluate_rate(cfg, PARAMS, bud, 1e12, counts=counts)
    assert fed == direct


def test_infeasible_params_raise():
    bad_simplex = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.3,
                                 k_s=0.46, k_d1=0.11)
    with pytest.raises(ValueError):
        evaluate_rate(channel(), bad_simplex, budget(), 1e12)
    # fluctuation ranges of neighbouring intensities must not overlap
    tight = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.1,
                           k_s=0.1, k_d1=0.099)
    with pytest.raises(ValueError):
        evaluate_rate(channel(r=0.05), tight, budget("fluct"), 1e12,
                      mode="fluct")
    with pytest.raises(ValueError):
        evaluate_rate(channel(), PARAMS, budget(), 1e12, mode="bogus")


# an infinite k_s, and k_s^+ = 756 at r = 0.05, where e^{k+} overflows:
# both gave NaN bounds, and the batch kept them as feasible points.  A
# k+ near 690 with a selection probability of 1e-12 kept e^{k+} finite,
# but e^{k+}/p overflowed and warned, on the signal or on a decoy
OVERFLOWING = {
    "exact-inf": ("exact", 0.0, ProtocolParams(0.9, 0.8, 0.12, math.inf, 0.11)),
    "fluct-720": ("fluct", 0.05, ProtocolParams(0.9, 0.8, 0.12, 720.0, 0.11)),
    "exact-rare-signal": ("exact", 0.0, ProtocolParams(0.7, 1e-12, 0.5, 690.0, 0.1)),
    "exact-rare-decoy": ("exact", 0.0, ProtocolParams(0.7, 0.6, 1e-12, 695.0, 690.0)),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_overflowing_intensities_are_infeasible(case):
    mode, r, params = OVERFLOWING[case]
    cfg = channel(50.0, r)
    with pytest.raises(ValueError):
        evaluate_rate(cfg, params, budget(mode), 1e12, mode=mode)
    feasible, batch = evaluate_batch(
        cfg, ParamBatch.of([params]), budget(mode), 1e12, mode=mode
    )
    assert feasible.tolist() == [False] and len(batch.ell) == 0


FIELDS = ("p_z", "p_ks", "p_kd1", "k_s", "k_d1", "k_d2")
ODD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.1, 0.0, 1e-12, 1.0, 1.5, 690.0, 699.0,
     700.0, 800.0]
)


@given(
    mode=st.sampled_from([("exact", 0.0), ("fluct", 0.05), ("fluct", 0.3)]),
    points=st.lists(
        st.tuples(
            st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
            st.dictionaries(st.sampled_from(FIELDS),
                            st.one_of(ODD_VALUES, st.floats(-1.0, 2.0)), max_size=3),
        ),
        min_size=1, max_size=8,
    ),
)
@settings(max_examples=300, deadline=None)
def test_point_and_batch_share_the_rule(mode, points):
    # a feasible point, then points of the search box with up to three
    # fields moved anywhere: the rule gives each row of a batch what it
    # gives that row alone, and a point raises exactly where the batch's
    # mask is False
    mode, r = mode
    params = [PARAMS] + [
        dataclasses.replace(SearchSpace().params_at(np.array(u)), **moved)
        for u, moved in points
    ]
    levels, feasible = ParamBatch.of(params).intensities(mode, r)
    assert feasible[0]
    for i, point in enumerate(params):
        alone, ok = ParamBatch.of([point]).intensities(mode, r)
        assert ok.tolist() == [feasible[i]]
        for got, want in zip(levels, alone):
            for a, b in zip(got, want):
                assert a[i:i + 1].tobytes() == b.tobytes()
        try:
            point.intensities(mode, r)
        except ValueError:
            assert not feasible[i]
        else:
            assert feasible[i]


def one_run(signal_cells=None, z_s=0.0, n_z=0.0):
    """The CountsBatch of one run with the given signal-intensity cells,
    keyed by CELLS entry, and n_z / 2 trials in each of the Z0 -> Z and
    Z1 -> Z configurations; every other count is 0."""
    cells = np.zeros((1, 3, 16))
    for cell, count in (signal_cells or {}).items():
        cells[0, 0, CELLS.index(cell)] = count
    trials = np.zeros((1, 16))
    trials[0, [0, 1, 4, 5]] = n_z / 2.0
    return CountsBatch(cells=cells, trials=trials,
                       z_by_k=np.array([[z_s, 0.0, 0.0]]), z_tot=np.array([z_s]),
                       n_z=np.array([n_z]))


def test_observed_error_rate():
    cells = {
        ("Z", 0, "Z", 0): 480.0,
        ("Z", 1, "Z", 1): 500.0,
        ("Z", 0, "Z", 1): 12.0,
        ("Z", 1, "Z", 0): 8.0,
    }
    counts = one_run(cells, z_s=1000.0, n_z=1e6)
    res = evaluate_rate(channel(), PARAMS, budget(), 1e7, counts=counts)
    assert res.e_z == pytest.approx(20.0 / 1000.0)
    empty = evaluate_rate(channel(), PARAMS, budget(), 1e7, counts=one_run())
    assert empty.e_z == 0.0


def test_counts_validation():
    cfg, bud = channel(), budget()
    good, _ = expected_counts(cfg, PARAMS.intensities("exact", 0.0), PARAMS.p_z, 1e12)
    evaluate_rate(cfg, PARAMS, bud, 1e12, counts=good)
    negative = good._replace(z_by_k=good.z_by_k * np.array([[1.0, 1.0, -1.0]]))
    two_runs = good._replace(cells=np.concatenate([good.cells, good.cells]))
    flat = good._replace(cells=good.cells.reshape(1, 48))
    for bad in (negative, two_runs, flat):
        with pytest.raises(ValueError):
            evaluate_rate(cfg, PARAMS, bud, 1e12, counts=bad)
    with pytest.raises(ValueError):
        evaluate_rate(cfg, PARAMS, bud, 1e12, counts=good._replace(n_z=np.array([2e12])))


def test_counts_must_agree_with_themselves():
    # the decoy bounds read z_by_k and e_z reads the cells: unchecked,
    # doubling the Z totals of the expected counts at 80 km raised the
    # key length from 123,285,532 to 564,549,832
    cfg, bud = channel(80.0), budget()
    params = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.12, k_s=0.46, k_d1=0.11)
    good, _ = expected_counts(cfg, params.intensities("exact", 0.0), params.p_z, 1e12)
    evaluate_rate(cfg, params, bud, 1e12, counts=good)
    # float counts may carry rounding in their totals
    evaluate_rate(cfg, params, bud, 1e12,
                  counts=good._replace(z_tot=good.z_tot * (1.0 + 1e-13)))
    doubled = good._replace(z_by_k=2.0 * good.z_by_k, z_tot=2.0 * good.z_tot)
    z_tot = good._replace(z_tot=good.z_tot * (1.0 + 1e-9))
    # the X0X1 signal count alone takes all of its configuration's
    # trials, and its decoy counts add to that
    x0x1 = CELLS.index(("X", 0, "X", 1))
    cells = good.cells.copy()
    cells[0, 0, x0x1] = good.trials[0, x0x1]
    crowded = good._replace(cells=cells)
    for bad, match in ((doubled, "z_by_k"), (z_tot, "z_tot"), (crowded, "trials")):
        with pytest.raises(ValueError, match=match):
            evaluate_rate(cfg, params, bud, 1e12, counts=bad)


def test_counts_must_agree_with_their_trials():
    # the fluct-mode aggregate deviations run over n_z: unchecked,
    # replacing n_z by z_tot raised the key length from 82,454,801,863
    # to 85,734,037,282 (sampled counts pass: test_batch feeds them in)
    cfg, bud = channel(20.0, r=0.05), budget("fluct")
    params = ProtocolParams(p_z=0.8, p_ks=0.6, p_kd1=0.2, k_s=0.55, k_d1=0.03)
    levels = params.intensities("fluct", 0.05)
    good, _ = expected_counts(cfg, levels, params.p_z, 1e14)
    fed = evaluate_rate(cfg, params, bud, 1e14, mode="fluct", counts=good)
    assert fed.ell == 82_454_801_863
    with pytest.raises(ValueError, match="n_z"):
        evaluate_rate(cfg, params, bud, 1e14, mode="fluct",
                      counts=good._replace(n_z=good.z_tot))
    # each Z0 -> X outcome cell stays below the configuration's trials,
    # but the two together exceed them
    z0x0, z0x1 = CELLS.index(("Z", 0, "X", 0)), CELLS.index(("Z", 0, "X", 1))
    cells = good.cells.copy()
    cells[0, 0, [z0x0, z0x1]] = 0.6 * good.trials[0, z0x0]
    with pytest.raises(ValueError, match="trials"):
        evaluate_rate(cfg, params, bud, 1e14, mode="fluct",
                      counts=good._replace(cells=cells))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_counts_rejected(value):
    # unchecked, a NaN cell gives a NaN phase-error bound and an inf cell
    # a key
    cfg = channel(20.0)
    params = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.12, k_s=0.46, k_d1=0.11)
    good, _ = expected_counts(cfg, params.intensities("exact", 0.0), params.p_z, 1e12)
    for field in CountsBatch._fields:
        bad = getattr(good, field).copy()
        bad.flat[-1] = value
        bad = good._replace(**{field: bad})
        with pytest.raises(ValueError, match=field):
            evaluate_rate(cfg, params, budget(), 1e12, counts=bad)
    # the Z0 -> X1 cell at the first decoy intensity, d1
    cells = good.cells.copy()
    cells[0, 1, CELLS.index(("Z", 0, "X", 1))] = value
    with pytest.raises(ValueError):
        evaluate_rate(cfg, params, budget(), 1e12, counts=good._replace(cells=cells))


def test_flaw_tolerance_at_fixed_point():
    # the loss-tolerant structure keeps the penalty of a large encoding
    # flaw small: well under a factor 2 at a mid-range distance
    bud = budget()
    clean = evaluate_rate(channel(xi=0.0), PARAMS, bud, 1e12)
    flawed = evaluate_rate(channel(xi=0.147), PARAMS, bud, 1e12)
    assert clean.rate > 0.0 and flawed.rate > 0.0
    assert flawed.rate > 0.5 * clean.rate


def test_cached_source_model_matches_uncached():
    # xi changes between calls, so each xi is read back after another one
    for xi in (0.0, 0.05, 0.147, 0.05, 0.0, 0.147):
        got = source_coeffs(xi)
        qm = source_model(xi, 0.5)
        want = term_coeffs(qm.c, qm.w)
        assert got.dtype == want.dtype and (got == want).all(), xi


def test_source_model_is_memoized_read_only():
    coeffs = source_coeffs(0.147)
    assert source_coeffs(0.147) is coeffs
    with pytest.raises(ValueError):
        coeffs[0] = 1.0


def test_cached_a_inv_is_read_only():
    # the memo holds the coefficients formed from a_inv; a caller can
    # neither write them nor turn their write flag back on
    coeffs = source_coeffs(0.147)
    with pytest.raises(ValueError):
        coeffs.setflags(write=True)
    with pytest.raises(ValueError):
        coeffs[:] = 0.0


def test_degenerate_source_is_not_cached():
    # at xi = pi the Z1 state lands on Z0 and all three filtered states
    # are collinear; every call must raise again, not find a stored result
    for _ in range(2):
        misses = source_coeffs.cache_info().misses
        with pytest.raises(DegenerateStatesError):
            source_coeffs(math.pi)
        assert source_coeffs.cache_info().misses == misses + 1


def test_degenerate_source_raises_for_the_batch():
    # the source depends on xi alone, so it fails for every point at once
    points = ParamBatch.of([PARAMS, dataclasses.replace(PARAMS, p_z=0.5)])
    with pytest.raises(DegenerateStatesError):
        evaluate_batch(channel(xi=math.pi), points, budget(), 1e12)


# (fluct_r, N) per mode; with distances up to 120 km about two thirds of
# the exact points and a fifth of the fluctuating ones give a key
MODES = {"exact": (0.0, 1e12), "fluct": (0.02, 1e14)}


@given(
    mode=st.sampled_from(sorted(MODES)),
    distance=st.floats(0.0, 120.0),
    further=st.floats(0.0, 80.0),
    u=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_feasible_points_evaluate(mode, distance, further, u):
    # every point params_at produces that passes the intensity checks
    # evaluates, has a rate in [0, 1], a tighter eps_sec costs key, and
    # the same point keys no faster over a longer link
    r, n_total = MODES[mode]
    params = SearchSpace().params_at(np.array(u))
    try:
        params.intensities(mode, r)
    except ValueError:
        assume(False)
    cfg = channel(dist=distance, r=r)
    loose = evaluate_rate(cfg, params, budget(mode, 1e-8), n_total, mode=mode)
    tight = evaluate_rate(cfg, params, budget(mode, 1e-10), n_total, mode=mode)
    assert 0.0 <= loose.rate <= 1.0
    assert 0.0 <= tight.rate <= 1.0
    assert tight.ell <= loose.ell
    far = evaluate_rate(channel(dist=distance + further, r=r), params,
                        budget(mode, 1e-8), n_total, mode=mode)
    assert far.rate <= loose.rate
