"""Tests for the key-length arithmetic.

Frozen values from mpmath at 60 digits.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.key_length import (
    ABORT_COUNTS,
    ABORT_PHASE,
    KeyRateResult,
    _entropy,
    binary_entropy,
    eph_threshold,
    lambda_ec_batch,
)

from one_point import bound, key_length, phase

# scipy is a test-extra oracle; imported once here, since importing it
# inside a hypothesis example would count against that example's deadline
try:
    from scipy.optimize import brentq
    from scipy.special import entr
except ImportError:
    brentq = entr = None
needs_scipy = pytest.mark.skipif(entr is None, reason="scipy is not installed")

H_011 = 0.499915958164528
H_002 = 0.14144054254182065
H_025 = 0.81127812445913286
LAMBDA_1E6 = 164071.02934851195  # 1.16e6 h(0.02)
ELL_SPOT = 523483  # floor of the frozen spot formula below


def spot_budget():
    return EpsilonBudget(1e-10 + 1e-15, 1e-15, mode="exact")


def test_entropy_frozen_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(H_011, rel=1e-12)
    assert binary_entropy(0.25) == pytest.approx(H_025, rel=1e-12)


def test_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


@given(st.floats(min_value=1e-9, max_value=0.5))
def test_entropy_symmetry(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), rel=1e-10)
    assert 0.0 < binary_entropy(x) <= 1.0


def test_entropy_batch_edges():
    got = _entropy(np.array([0.0, 1.0, 0.5]))
    assert got.tolist() == [0.0, 0.0, 1.0]
    assert not np.signbit(got).any()


@needs_scipy
@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_batch_matches_scipy_entr(x):
    xs = np.array([x])
    want = float((entr(xs) + entr(1.0 - xs))[0] / math.log(2.0))
    assert float(_entropy(xs)[0]) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_lambda_ec():
    lam = lambda z, e, **kw: lambda_ec_batch(np.array([z]), np.array([e]), **kw)[0]
    assert lam(1e6, 0.0) == 0.0
    assert lam(1e6, 0.02) == pytest.approx(LAMBDA_1E6, rel=1e-12)
    assert lam(1e6, 0.02, f_ec=1.0) == pytest.approx(1e6 * H_002, rel=1e-12)
    with pytest.raises(ValueError):
        lam(1e6, 0.02, f_ec=0.9)
    with pytest.raises(ValueError):
        lam(-1.0, 0.02)


def test_lambda_ec_batch_matches_scalar():
    e_z = np.array([0.0, 0.11, 0.5, 1.0])
    z = np.array([1e6, 2.5e9, 3.0, 1e6])
    batch = lambda_ec_batch(z, e_z, f_ec=1.16)
    for i, e in enumerate(e_z.tolist()):
        scalar = 1.16 * z[i] * binary_entropy(e)
        assert batch[i] == pytest.approx(scalar, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
def test_lambda_ec_batch_domain(bad):
    with pytest.raises(ValueError):
        lambda_ec_batch(np.array([1e6, 1e6]), np.array([0.02, bad]))


def test_key_length_spot_value():
    # m0 = 1e4, m1 = 1e6, e_ph = 0.05, lam = 2e5, and the budget's
    # eta = eps_s^2 / 2 charged once:
    # ell = floor(m0 + m1 (1 - h(0.05)) - log2(2/(eps_s^2 - eta)) - lam
    #             - log2(2/eps_c))
    res = key_length(bound(1e4), bound(1e6), phase(0.05), 2e5,
                     spot_budget(), n_total=1e12)
    assert not res.aborted
    assert res.ell == ELL_SPOT
    assert res.rate == pytest.approx(ELL_SPOT / 1e12, rel=1e-12)
    assert res.abort_reason is None


def test_consumed_failure_tightens_log_term():
    # the whole committed eta = eps_s^2 / 2 is charged, whatever the
    # estimates use, in log2(2/(eps_s^2 - eta)) = log2(4/eps_s^2); each
    # halving of the secrecy gap eps_s^2 - eta costs one bit here
    budget = spot_budget()
    assert budget.log_terms == pytest.approx(
        math.log2(4.0 / budget.eps_s**2) + math.log2(2.0 / budget.eps_c), rel=1e-15
    )
    for scale, ell in ((math.sqrt(2.0), ELL_SPOT + 1), (1.0, ELL_SPOT),
                       (math.sqrt(0.5), ELL_SPOT - 1)):
        scaled = EpsilonBudget(1e-10 * scale + 1e-15, 1e-15, mode="exact")
        res = key_length(bound(1e4), bound(1e6), phase(0.05), 2e5,
                         scaled, n_total=1e12)
        assert not res.aborted
        assert res.ell == ell


def test_zero_counts_abort():
    res = key_length(bound(0.0), bound(0.0), phase(0.0), 0.0,
                     spot_budget(), n_total=1e12)
    assert res.aborted
    assert res.ell == 0
    assert res.rate == 0.0
    assert res.abort_reason == ABORT_COUNTS


def test_phase_threshold_abort():
    # the leakage swamps m0, so saturated entropy would go negative and
    # the threshold sits strictly inside (0, 1/2)
    res = key_length(bound(1e4), bound(1e6), phase(0.49), 2e5,
                     spot_budget(), n_total=1e12)
    assert res.aborted
    assert res.abort_reason == ABORT_PHASE


def test_saturated_entropy_still_positive():
    # enough vacuum events keep the length positive at any phase-error rate
    res = key_length(bound(1e6), bound(10.0), phase(1.0), 0.0,
                     spot_budget(), n_total=1e12)
    assert not res.aborted
    assert res.ell > 0


def test_threshold_is_the_zero_crossing():
    budget = spot_budget()
    m0, m1, lam = 1e4, 1e6, 2e5
    th = eph_threshold(m0, m1, lam, budget)
    assert 0.0 < th < 0.5
    below = key_length(bound(m0), bound(m1), phase(th * 0.999), lam,
                       budget, n_total=1e12)
    above = key_length(bound(m0), bound(m1), phase(th * 1.001), lam,
                       budget, n_total=1e12)
    assert not below.aborted
    assert above.aborted and above.abort_reason == ABORT_PHASE


@needs_scipy
@given(
    m1=st.floats(min_value=1.0, max_value=1e12),
    m0_share=st.floats(min_value=0.0, max_value=1.0),
    root=st.floats(min_value=1e-6, max_value=0.4),
)
def test_threshold_matches_brentq(m1, m0_share, root):
    # The roots stay at or below 0.4 and m0 at or below m1, where the
    # computed length falls by many roundings over 1e-15.  Near 1/2 the
    # entropy's slope vanishes and the length is flat to rounding over far
    # more than 1e-15, so no search pins a root there.
    m0 = m0_share * m1
    lam = m0 + m1 * (1.0 - binary_entropy(root))
    ell = lambda e: m0 + m1 * (1.0 - binary_entropy(e)) - lam
    assume(ell(0.0) > 0.0 and ell(0.5) <= 0.0)
    want = brentq(ell, 0.0, 0.5, xtol=1e-15, rtol=8.9e-16)
    assert abs(eph_threshold(m0, m1, lam, None) - want) <= 1.5e-15


def test_threshold_edges():
    budget = spot_budget()
    assert eph_threshold(0.0, 10.0, 1e6, budget) == 0.0
    assert eph_threshold(1e9, 1.0, 0.0, budget) == 0.5


def test_asymptotic_drops_log_terms():
    m0, m1 = 1e4, 1e6
    fin = key_length(bound(m0), bound(m1), phase(0.05), 0.0,
                     spot_budget(), n_total=1e12)
    asym = key_length(bound(m0), bound(m1), phase(0.05), 0.0,
                      None, n_total=1e12)
    assert asym.ell > fin.ell
    assert asym.ell - fin.ell < 200  # two log terms at these epsilons


def test_monotonicity():
    budget = spot_budget()
    base = key_length(bound(1e4), bound(1e6), phase(0.05), 2e5,
                      budget, n_total=1e12).ell
    more_m1 = key_length(bound(1e4), bound(2e6), phase(0.05), 2e5,
                         budget, n_total=1e12).ell
    worse_eph = key_length(bound(1e4), bound(1e6), phase(0.08), 2e5,
                           budget, n_total=1e12).ell
    more_leak = key_length(bound(1e4), bound(1e6), phase(0.05), 3e5,
                           budget, n_total=1e12).ell
    assert more_m1 > base > worse_eph
    assert base > more_leak


def test_result_validation():
    with pytest.raises(ValueError):
        KeyRateResult(ell=-1, rate=0.0, m0_l=0, m1_l=0, e_ph_u=0,
                      lambda_ec=0, e_z=0, z_ks_size=0, aborted=True)
    with pytest.raises(ValueError):
        KeyRateResult(ell=10, rate=1e-11, m0_l=0, m1_l=0, e_ph_u=0,
                      lambda_ec=0, e_z=0, z_ks_size=0, aborted=True)


def test_bookkeeping_passthrough():
    res = key_length(bound(1e4), bound(1e6), phase(0.05), 2e5,
                     spot_budget(), n_total=1e12, e_z=0.013, z_ks_size=5e5)
    assert res.e_z == 0.013
    assert res.z_ks_size == 5e5
    assert res.m0_l == 1e4
    assert res.m1_l == 1e6
