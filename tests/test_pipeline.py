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
from qkd_keyrate.pipeline import (
    ProtocolParams,
    _filtered_source,
    build_source_model,
    evaluate_rate,
)
from qkd_keyrate.qubit_model import (
    THETA_0X,
    THETA_0Z,
    THETA_1Z,
    DegenerateStatesError,
    EncodingFlawModel,
    apply_filter,
    bloch_of_state,
    build_transmission_matrix,
    virtual_state_coeffs,
)

from one_point import expected_counts

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


def one_run(signal_cells=None, z_s=0.0, n_z=0.0):
    """The CountsBatch of one run with the given signal-intensity cells,
    keyed by CELLS entry; every other count is 0."""
    cells = np.zeros((1, 3, 16))
    for cell, count in (signal_cells or {}).items():
        cells[0, 0, CELLS.index(cell)] = count
    return CountsBatch(cells=cells, trials=np.zeros((1, 16)),
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


def uncached_source_model(xi, p_z, gamma=1.0):
    """build_source_model without the per-xi memo."""
    flaw = EncodingFlawModel(model_xi=xi) if xi != 0.0 else EncodingFlawModel.exact()
    filtered = [apply_filter(bloch_of_state(theta, flaw, gamma))
                for theta in (THETA_0Z, THETA_1Z, THETA_0X)]
    tm = build_transmission_matrix(*filtered)
    return virtual_state_coeffs(filtered[0], filtered[1], tm.a_inv, p_z)


def test_cached_source_model_matches_uncached():
    # xi changes between calls, so each xi is read back after another one
    for xi in (0.0, 0.05, 0.147, 0.05, 0.0, 0.147):
        for p_z in (0.3, 0.5, 0.88, 0.95):
            got = build_source_model(xi, p_z)
            want = uncached_source_model(xi, p_z)
            for field in dataclasses.fields(got):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and (a == b).all(), field.name
                else:
                    assert a == b, field.name


def test_cached_a_inv_is_read_only():
    build_source_model(0.147, 0.5)
    _, _, a_inv = _filtered_source(0.147, 1.0)
    with pytest.raises(ValueError):
        a_inv[0, 0] = 1.0


def test_degenerate_source_is_not_cached():
    # at xi = pi the Z1 state lands on Z0 and all three filtered states
    # are collinear; every call must raise again, not find a stored result
    for _ in range(2):
        misses = _filtered_source.cache_info().misses
        with pytest.raises(DegenerateStatesError):
            build_source_model(math.pi, 0.5)
        assert _filtered_source.cache_info().misses == misses + 1


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
