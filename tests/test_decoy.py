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
from qkd_keyrate.decoy import CELLS, K_LABELS, IntensitySet, poisson_pk

from one_point import cell, counts as one_run, decoy_bounds

REL = 1e-12

# bound/truth ratios for an intensity-independent yield,
# k_s=0.5, k_d1=0.1, k_d2=2e-4 (mpmath)
VACUUM_RATIO = 0.99998965748014239
SINGLE_RATIO = 0.99024634239179848

POISSON_1_HALF = 0.30326532985631671  # 0.5 e^{-0.5}
POISSON_0_WEAK = 0.99980001999866673  # e^{-2e-4}


def make_intens(r=None):
    kw = dict(k_s=0.5, k_d1=0.1, k_d2=2e-4, p_s=0.6, p_d1=0.3)
    if r is None:
        return IntensitySet.exact(**kw)
    return IntensitySet.fluctuating(**kw, r=r)


def flat_yield_counts(n_z=1e10, y=1e-3):
    intens = make_intens()
    z = [n_z * intens.level(lab).prob * y for lab in K_LABELS]
    return one_run(z, n_z=n_z), intens


def m0_m1(counts, intens, budget, mode="exact"):
    m0, m1, _ = decoy_bounds(counts, intens, budget, mode)
    return m0, m1


def poisson_mixture_counts(yields, n_z=1e10, max_n=80):
    """Aggregate Z counts from per-photon-number yields (index = n)."""
    intens = make_intens()
    z = []
    for lab in K_LABELS:
        lv = intens.level(lab)
        gain = sum(poisson_pk(n, lv.nominal) * yields[min(n, len(yields) - 1)]
                   for n in range(max_n))
        z.append(n_z * lv.prob * gain)
    truth0 = n_z * intens.s.prob * poisson_pk(0, 0.5) * yields[0]
    truth1 = n_z * intens.s.prob * poisson_pk(1, 0.5) * yields[1]
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
        IntensitySet.exact(k_s=0.5, k_d1=1e-4, k_d2=2e-4, p_s=0.6, p_d1=0.3)
    with pytest.raises(ValueError):
        # k_s <= k_d1 + k_d2
        IntensitySet.exact(k_s=0.1, k_d1=0.1, k_d2=2e-4, p_s=0.6, p_d1=0.3)
    with pytest.raises(ValueError):
        # probabilities exceed 1
        IntensitySet.exact(k_s=0.5, k_d1=0.1, k_d2=2e-4, p_s=0.8, p_d1=0.3)
    # fluctuation ranges must stay ordered too: 10% around these levels is fine
    make_intens(r=0.1)


def test_fluctuating_endpoints():
    intens = make_intens(r=0.05)
    assert intens.s.lo == pytest.approx(0.95 * 0.5, rel=REL)
    assert intens.s.hi == pytest.approx(1.05 * 0.5, rel=REL)
    assert intens.d2.lo == pytest.approx(0.95 * 2e-4, rel=REL)


def test_signal_joint_probabilities():
    intens = make_intens(r=0.1)
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
    truth = counts.n_z[0] * intens.s.prob * math.exp(-0.5) * 1e-3
    m0, _ = m0_m1(counts, intens, None)
    assert m0.value / truth == pytest.approx(VACUUM_RATIO, rel=REL)


def test_flat_yield_single_ratio():
    counts, intens = flat_yield_counts()
    truth = counts.n_z[0] * intens.s.prob * POISSON_1_HALF * 1e-3
    _, m1 = m0_m1(counts, intens, None)
    assert m1.value / truth == pytest.approx(SINGLE_RATIO, rel=REL)


@pytest.mark.parametrize("seed", range(4))
def test_poisson_mixture_sandwich(seed):
    rng = np.random.default_rng(seed)
    yields = rng.uniform(0.0, 1.0, size=30)
    counts, intens, truth0, truth1 = poisson_mixture_counts(yields)
    m0, m1 = m0_m1(counts, intens, None)
    assert m0.value <= truth0 * (1 + 1e-12)
    assert m1.value <= truth1 * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_cell_bound_sandwich(seed):
    rng = np.random.default_rng(100 + seed)
    yields = rng.uniform(0.0, 1.0, size=30)
    intens = make_intens()
    n_cfg = 1e9
    # the Z0 -> X configuration's cells are Z0X0 and Z0X1
    z0x1 = CELLS.index(("Z", 0, "X", 1))
    cells = np.zeros((3, 16))
    trials = np.zeros(16)
    trials[z0x1 - 1:z0x1 + 1] = n_cfg
    for i, lab in enumerate(K_LABELS):
        lv = intens.level(lab)
        gain = sum(poisson_pk(n, lv.nominal) * yields[min(n, 29)] for n in range(80))
        cells[i, z0x1] = n_cfg * lv.prob * gain
    counts = one_run(cells=cells, trials=trials)
    truth0 = n_cfg * intens.s.prob * poisson_pk(0, 0.5) * yields[0]
    truth1 = n_cfg * intens.s.prob * poisson_pk(1, 0.5) * yields[1]
    for mode in ("exact", "fluct"):
        cb = cell(decoy_bounds(counts, intens, None, mode)[2], "Z", 0, "X", 1)
        assert cb.lower0.value <= truth0 * (1 + 1e-12)
        assert cb.lower1.value <= truth1 * (1 + 1e-12) <= max(cb.upper1.value, truth1)
        assert cb.upper1.value >= truth1 * (1 - 1e-12)


def test_fluct_reduces_to_exact_at_zero_width():
    counts, _ = flat_yield_counts()
    exact = make_intens()
    degenerate = make_intens(r=0.0)
    m0e, m1e = m0_m1(counts, exact, None, "exact")
    m0f, m1f = m0_m1(counts, degenerate, None, "fluct")
    assert m0f.value == pytest.approx(m0e.value, rel=REL)
    assert m1f.value == pytest.approx(m1e.value, rel=REL)


def test_fluct_bounds_weaken_with_width():
    counts, _ = flat_yield_counts()
    values = []
    for r in (0.0, 0.02, 0.05, 0.1):
        intens = make_intens(r=r)
        m0, m1 = m0_m1(counts, intens, None, "fluct")
        values.append((m0.value, m1.value))
    for (a0, a1), (b0, b1) in zip(values, values[1:]):
        assert b0 <= a0 * (1 + 1e-12)
        assert b1 <= a1 * (1 + 1e-12)


def test_finite_budget_never_beats_asymptotic():
    counts, intens = flat_yield_counts()
    budget = EpsilonBudget.build(1e-10, 1e-15, mode="exact")
    m0a, m1a = m0_m1(counts, intens, None)
    m0f, m1f = m0_m1(counts, intens, budget)
    assert m0f.value <= m0a.value
    assert m1f.value <= m1a.value
    assert 0.0 < m1f.failure_prob < budget.eta
    # m1 reuses m0's mean estimates: m0's failure less its final step
    assert m1f.failure_prob > m0f.failure_prob - budget.alloc("m0.final")


def test_finite_cap_at_signal_count():
    counts, intens = flat_yield_counts()
    budget = EpsilonBudget.build(1e-10, 1e-15, mode="exact")
    _, m1 = m0_m1(counts, intens, budget)
    assert m1.value <= counts.z_by_k[0, 0]


def test_zero_counts():
    intens = make_intens()
    counts = one_run()
    budget = EpsilonBudget.build(1e-10, 1e-15, mode="exact")
    for b in (None, budget):
        m0, m1 = m0_m1(counts, intens, b)
        assert m0.value == 0.0
        assert m1.value == 0.0
    cb = cell(decoy_bounds(counts, intens, budget, "exact")[2], "Z", 0, "X", 0)
    assert cb.lower0.value == cb.lower1.value == cb.upper1.value == 0.0


def test_cell_bounds_mode_validation():
    counts, intens = flat_yield_counts()
    with pytest.raises(ValueError):
        decoy_bounds(counts, intens, None, "other")
