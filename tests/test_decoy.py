"""Tests for the decoy-state photon-number bounds.

The sandwich tests build synthetic statistics from an explicit Poisson
mixture with known per-photon-number yields, so the true vacuum and
single-photon counts are available in closed form.  Frozen ratios were
computed with mpmath at 60 digits.
"""

import math

import numpy as np
import pytest

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig, ChannelModel
from qkd_keyrate.decoy import ALL_CELLS, CELLS, cell_bounds, level_arrays, poisson_pk
from qkd_keyrate.optimize import SearchSpace
from qkd_keyrate.phase_error import lower_terms
from qkd_keyrate.pipeline import ProtocolParams, prepare_batch, source_coeffs

from one_point import cell, counts as one_run, decoy_bounds
from scalar_chain import IntensitySet

REL = 1e-12

# bound/truth ratios for an intensity-independent yield,
# k_s=0.5, k_d1=0.1, k_d2=2e-4 (mpmath)
VACUUM_RATIO = 0.99998965748014239
SINGLE_RATIO = 0.99024634239179848

POISSON_1_HALF = 0.30326532985631671  # 0.5 e^{-0.5}
POISSON_0_WEAK = 0.99980001999866673  # e^{-2e-4}


def make_intens(r=None, **kw):
    """The one-row levels of k_s=0.5, k_d1=0.1, k_d2=2e-4, p_s=0.6,
    p_d1=0.3 with the fields ``kw`` replaced: exact, or fluctuating by r."""
    point = dict(p_z=0.5, p_ks=0.6, p_kd1=0.3, k_s=0.5, k_d1=0.1, k_d2=2e-4)
    params = ProtocolParams(**{**point, **kw})
    if r is None:
        return params.intensities("exact", 0.0)
    return params.intensities("fluct", r)


def flat_yield_counts(n_z=1e10, y=1e-3):
    intens = make_intens()
    z = [n_z * p * y for p in intens[3][:, 0]]
    return one_run(z, n_z=n_z), intens


def m0_m1(counts, intens, budget):
    m0, m1, _ = decoy_bounds(counts, intens, budget)
    return m0, m1


def poisson_mixture_counts(yields, n_z=1e10, max_n=80):
    """Aggregate Z counts from per-photon-number yields (index = n)."""
    intens = make_intens()
    nominal, _, _, prob = intens
    z = []
    for k, p in zip(nominal[:, 0], prob[:, 0]):
        gain = sum(poisson_pk(n, k) * yields[min(n, len(yields) - 1)]
                   for n in range(max_n))
        z.append(n_z * p * gain)
    truth0 = n_z * prob[0, 0] * poisson_pk(0, 0.5) * yields[0]
    truth1 = n_z * prob[0, 0] * poisson_pk(1, 0.5) * yields[1]
    return one_run(z, n_z=n_z), intens, truth0, truth1


def test_poisson_pk_frozen():
    assert poisson_pk(1, 0.5) == pytest.approx(POISSON_1_HALF, rel=REL)
    assert poisson_pk(0, 2e-4) == pytest.approx(POISSON_0_WEAK, rel=REL)
    assert poisson_pk(0, 0.0) == 1.0
    assert poisson_pk(3, 0.0) == 0.0


def test_poisson_pk_normalised():
    total = sum(poisson_pk(n, 0.7) for n in range(80))
    assert total == pytest.approx(1.0, rel=1e-14)


def test_intensity_set_invariants():
    with pytest.raises(ValueError):
        # decoy levels out of order
        make_intens(k_d1=1e-4)
    with pytest.raises(ValueError):
        # k_s <= k_d1 + k_d2
        make_intens(k_s=0.1)
    with pytest.raises(ValueError):
        # probabilities exceed 1
        make_intens(p_ks=0.8)
    # fluctuation ranges must stay ordered too: 10% around these levels is fine
    make_intens(r=0.1)


@pytest.mark.parametrize("r", [1e-17, 2.0**-53])
def test_levels_reject_unresolvable_fluctuation(r):
    # (1 + r) k rounds to k: the range's top end is the nominal intensity
    one = np.ones(1)
    with pytest.raises(ValueError, match="relative fluctuation"):
        level_arrays("fluct", r, one / 2, 0.6 * one, 0.3 * one, one / 2, one / 10,
                     2e-4 * one)


def test_fluctuating_endpoints():
    _, lo, hi, _ = make_intens(r=0.05)
    assert lo[0, 0] == pytest.approx(0.95 * 0.5, rel=REL)
    assert hi[0, 0] == pytest.approx(1.05 * 0.5, rel=REL)
    assert lo[2, 0] == pytest.approx(0.95 * 2e-4, rel=REL)


def test_signal_joint_probabilities():
    # the scalar reference's joint probabilities, which test_batch holds
    # the batch factors to
    intens = IntensitySet.fluctuating(k_s=0.5, k_d1=0.1, k_d2=2e-4,
                                      p_s=0.6, p_d1=0.3, r=0.1)
    assert intens.p_s_and_vacuum_lo() == pytest.approx(
        0.6 * math.exp(-0.55), rel=REL
    )
    # k e^{-k} is increasing below 1, so the min endpoint is the lower one
    assert intens.p_s_and_single_lo() == pytest.approx(
        0.6 * 0.45 * math.exp(-0.45), rel=REL
    )
    assert intens.p_s_and_single_hi() == pytest.approx(
        0.6 * 0.55 * math.exp(-0.55), rel=REL
    )
    # once the range straddles 1 the max sits at the stationary point
    wide = IntensitySet.fluctuating(k_s=0.95, k_d1=0.1, k_d2=2e-4,
                                    p_s=0.6, p_d1=0.3, r=0.1)
    assert wide.p_s_and_single_hi() == pytest.approx(0.6 * math.exp(-1.0), rel=REL)


def test_flat_yield_vacuum_ratio():
    counts, intens = flat_yield_counts()
    truth = counts.n_z[0] * intens[3][0, 0] * math.exp(-0.5) * 1e-3
    m0, _ = m0_m1(counts, intens, None)
    assert m0 / truth == pytest.approx(VACUUM_RATIO, rel=REL)


def test_flat_yield_single_ratio():
    counts, intens = flat_yield_counts()
    truth = counts.n_z[0] * intens[3][0, 0] * POISSON_1_HALF * 1e-3
    _, m1 = m0_m1(counts, intens, None)
    assert m1 / truth == pytest.approx(SINGLE_RATIO, rel=REL)


@pytest.mark.parametrize("seed", range(4))
def test_poisson_mixture_sandwich(seed):
    rng = np.random.default_rng(seed)
    yields = rng.uniform(0.0, 1.0, size=30)
    counts, intens, truth0, truth1 = poisson_mixture_counts(yields)
    m0, m1 = m0_m1(counts, intens, None)
    assert m0 <= truth0 * (1 + 1e-12)
    assert m1 <= truth1 * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_cell_bound_sandwich(seed):
    rng = np.random.default_rng(100 + seed)
    yields = rng.uniform(0.0, 1.0, size=30)
    intens = make_intens()
    nominal, _, _, prob = intens
    n_cfg = 1e9
    # the Z0 -> X configuration's cells are Z0X0 and Z0X1
    z0x1 = CELLS.index(("Z", 0, "X", 1))
    cells = np.zeros((3, 16))
    trials = np.zeros(16)
    trials[z0x1 - 1:z0x1 + 1] = n_cfg
    for i, (k, p) in enumerate(zip(nominal[:, 0], prob[:, 0])):
        gain = sum(poisson_pk(n, k) * yields[min(n, 29)] for n in range(80))
        cells[i, z0x1] = n_cfg * p * gain
    counts = one_run(cells=cells, trials=trials)
    truth0 = n_cfg * prob[0, 0] * poisson_pk(0, 0.5) * yields[0]
    truth1 = n_cfg * prob[0, 0] * poisson_pk(1, 0.5) * yields[1]
    cb = cell(decoy_bounds(counts, intens, None)[2], "Z", 0, "X", 1)
    assert cb.lower0 <= truth0 * (1 + 1e-12)
    assert cb.lower1 <= truth1 * (1 + 1e-12) <= max(cb.upper1, truth1)
    assert cb.upper1 >= truth1 * (1 - 1e-12)


def test_fluct_reduces_to_exact_at_zero_width():
    counts, _ = flat_yield_counts()
    exact = make_intens()
    degenerate = make_intens(r=0.0)
    m0e, m1e = m0_m1(counts, exact, None)
    m0f, m1f = m0_m1(counts, degenerate, None)
    assert m0f == pytest.approx(m0e, rel=REL)
    assert m1f == pytest.approx(m1e, rel=REL)


def test_fluct_bounds_weaken_with_width():
    counts, _ = flat_yield_counts()
    values = []
    for r in (0.0, 0.02, 0.05, 0.1):
        intens = make_intens(r=r)
        m0, m1 = m0_m1(counts, intens, None)
        values.append((m0, m1))
    for (a0, a1), (b0, b1) in zip(values, values[1:]):
        assert b0 <= a0 * (1 + 1e-12)
        assert b1 <= a1 * (1 + 1e-12)


def test_finite_budget_never_beats_asymptotic():
    counts, intens = flat_yield_counts()
    loose = EpsilonBudget(1e-6, 1e-15, mode="exact")
    tight = EpsilonBudget(1e-10, 1e-15, mode="exact")
    m0a, m1a = m0_m1(counts, intens, None)
    m0l, m1l = m0_m1(counts, intens, loose)
    m0t, m1t = m0_m1(counts, intens, tight)
    # the deviations come from the static allocations, so a smaller
    # failure probability per estimate only loosens the bounds
    assert 0.0 < m0t < m0l < m0a
    assert 0.0 < m1t < m1l < m1a


def test_finite_cap_at_signal_count():
    counts, intens = flat_yield_counts()
    budget = EpsilonBudget(1e-10, 1e-15, mode="exact")
    _, m1 = m0_m1(counts, intens, budget)
    assert m1 <= counts.z_by_k[0, 0]


def test_zero_counts():
    intens = make_intens()
    counts = one_run()
    budget = EpsilonBudget(1e-10, 1e-15, mode="exact")
    for b in (None, budget):
        m0, m1 = m0_m1(counts, intens, b)
        assert m0 == 0.0
        assert m1 == 0.0
    cb = cell(decoy_bounds(counts, intens, budget)[2], "Z", 0, "X", 0)
    assert cb.lower0 == cb.lower1 == cb.upper1 == 0.0


@pytest.mark.parametrize("mode", ["exact", "fluct"])
def test_restricted_cell_bounds_equal_full_columns(mode):
    # the lower bounds of a few cells, as the chain asks for them, equal
    # the matching columns of a call with every cell, and upper1 is the
    # same, with a budget and without
    r = 0.05 if mode == "fluct" else 0.0
    cfg = ChannelConfig(distance_km=60.0, det_eff=0.15, dark_prob=5e-7,
                        e_mis=0.01, fluct_r=r, xi=0.147)
    units = np.random.default_rng(3).random((64, 5))
    prepared = prepare_batch(SearchSpace().params_batch(units), mode, r)
    counts, _ = ChannelModel(cfg).expected_counts(prepared.layout, 1e12)
    assert len(prepared.idx) > 20
    lowers = [lower_terms(source_coeffs(xi))[1] for xi in (0.0, 0.11025, 0.147)]
    lowers += [(), (11, 2, 6), ALL_CELLS[::-1]]
    for budget in (EpsilonBudget(1e-10, 1e-15, mode), None):
        full = cell_bounds(counts, prepared.factors, budget)
        assert full.lower0.shape == full.lower1.shape == full.upper1.shape
        for lower in lowers:
            part = cell_bounds(counts, prepared.factors, budget, lower)
            assert (part.upper1 == full.upper1).all()
            assert (part.lower0 == full.lower0[:, list(lower)]).all()
            assert (part.lower1 == full.lower1[:, list(lower)]).all()
