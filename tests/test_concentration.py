"""Tests for the concentration-bound primitives.

Frozen reference values were computed with mpmath at 60 decimal digits,
independently of the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_keyrate.concentration import (
    Lemma,
    azuma_dev,
    chernoff_devs,
    hoeffding_dev,
    mult_chernoff_devs,
)
from qkd_keyrate.budget import allocation_names
from qkd_keyrate.decoy import _NAMES, _mean_estimates

# mpmath, 60 digits
CHERNOFF_LOWER_1E6 = 6786.1404244151118  # sqrt(2e6 ln 1e10)
CHERNOFF_UPPER_1E6 = 8311.2906813455496  # sqrt(3e6 ln 1e10)
HOEFFDING_1E6 = 3393.0702122075559  # sqrt(5e5 ln 1e10)
HOEFFDING_1E9 = 107298.30131446736  # sqrt(5e8 ln 1e10)
MC_LOWER_1E3 = 262.8260884878466  # sqrt(2e3 ln 1e15)
MC_LOWER_1E6 = 8311.2906813455496  # sqrt(2e6 ln 1e15)
MC_UPPER_1E6 = 13775.049360492441  # sqrt(2e6 ln(16e40))
CHERNOFF_LO_THRESHOLD = 46.051701859880914  # 2 ln 1e10
CHERNOFF_HI_THRESHOLD = 69.077552789821371  # 3 ln 1e10

REL = 1e-12


def test_chernoff_frozen_values():
    res = chernoff_devs(1e6, 1e-10, 1e-10)
    assert res.lower_dev == pytest.approx(CHERNOFF_LOWER_1E6, rel=REL)
    assert res.upper_dev == pytest.approx(CHERNOFF_UPPER_1E6, rel=REL)
    assert res.valid
    assert res.lemma_used is Lemma.CHERNOFF


def test_chernoff_zero_mean():
    res = chernoff_devs(0.0, 0.5, 0.5)
    assert res.lower_dev == 0.0
    assert res.upper_dev == 0.0
    assert not res.valid


def test_chernoff_validity_threshold():
    # valid iff mean exceeds both 2 ln(1/eps_lo) and 3 ln(1/eps_hi)
    assert not chernoff_devs(CHERNOFF_HI_THRESHOLD - 0.1, 1e-10, 1e-10).valid
    assert chernoff_devs(CHERNOFF_HI_THRESHOLD + 0.1, 1e-10, 1e-10).valid
    # lower-side condition alone can also fail
    assert not chernoff_devs(CHERNOFF_LO_THRESHOLD - 0.1, 1e-10, 0.5).valid


def test_chernoff_domain_errors():
    with pytest.raises(ValueError):
        chernoff_devs(-1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        chernoff_devs(10.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        chernoff_devs(10.0, 0.1, 1.0)


def test_hoeffding_frozen_values():
    assert hoeffding_dev(1e6, 1e-10) == pytest.approx(HOEFFDING_1E6, rel=REL)
    assert hoeffding_dev(1e9, 1e-10) == pytest.approx(HOEFFDING_1E9, rel=REL)
    assert hoeffding_dev(0, 0.1) == 0.0


def test_hoeffding_eps_to_one_limit():
    assert hoeffding_dev(1e6, 1.0 - 1e-15) == pytest.approx(0.0, abs=1e-3)
    with pytest.raises(ValueError):
        hoeffding_dev(1e6, 1.0)


def test_mult_chernoff_frozen_values():
    res = mult_chernoff_devs(1e6, 1e9, 1e-10, 1e-10, 1e-10)
    assert res.lower_dev == pytest.approx(MC_LOWER_1E6, rel=REL)
    assert res.upper_dev == pytest.approx(MC_UPPER_1E6, rel=REL)
    assert res.valid
    assert res.lemma_used is Lemma.MULT_CHERNOFF
    small = mult_chernoff_devs(1e3, 1e9, 1e-10, 1e-10, 1e-10)
    assert small.lower_dev == pytest.approx(MC_LOWER_1E3, rel=REL)


def test_mult_chernoff_invalid_for_tiny_counts():
    assert not mult_chernoff_devs(5, 10, 0.1, 0.1, 0.1).valid
    # mu_L <= 0: observed smaller than the Hoeffding dev of the trials
    assert not mult_chernoff_devs(10, 1e6, 1e-10, 1e-10, 1e-10).valid


def test_mult_chernoff_validity_edges():
    # ln(2/eps_hat)/mu_L flips at 9/32 as eps_hat shrinks
    observed, trials = 100.0, 100.0
    mu_l = observed - hoeffding_dev(trials, 0.5)
    eps_edge = 2.0 * math.exp(-mu_l * 9.0 / 32.0)
    assert mult_chernoff_devs(observed, trials, 0.5, 0.5, eps_edge * 1.01).valid
    assert not mult_chernoff_devs(observed, trials, 0.5, 0.5, eps_edge * 0.99).valid


def test_azuma_frozen_values():
    assert azuma_dev(1e6, 1e-10) == pytest.approx(CHERNOFF_LOWER_1E6, rel=REL)
    assert azuma_dev(0, 0.3) == 0.0


class FlatBudget:
    """An epsilon budget that allocates ``eps`` to every name."""

    def __init__(self, eps):
        self.eps = eps

    def log_inv(self, names):
        return np.full(len(names), -math.log(self.eps))


def best_mean_bound(observed, total, eps, direction):
    """The exact-mode mean estimate that ``decoy._mean_estimates``
    picks: Hoeffding over ``total`` or the multiplicative Chernoff bound
    of ``observed``, whichever is tighter.  Every estimate and population
    is given the same counts; rows 0 and 2 are the first lower and the
    first upper estimate."""
    est = _mean_estimates(
        "exact", FlatBudget(eps),
        np.full((1, 5, 17), observed), np.full((1, 1, 17), total),
    )
    row = 0 if direction == "lower" else 2
    assert (est[0, row] == est[0, row, 0]).all()
    return est[0, row, 0]


def test_best_mean_bound_picks_hoeffding_for_dense_counts():
    bound = best_mean_bound(1e6, 1e6, 1e-10, "lower")
    assert bound == pytest.approx(1e6 - HOEFFDING_1E6, rel=REL)
    # the multiplicative route would have been looser
    assert bound > 1e6 - MC_LOWER_1E6


def test_best_mean_bound_picks_mult_chernoff_for_sparse_counts():
    bound = best_mean_bound(1e3, 1e9, 1e-10, "lower")
    assert bound == pytest.approx(1e3 - MC_LOWER_1E3, rel=REL)
    assert bound > 1e3 - HOEFFDING_1E9
    # the route rests on a Hoeffding event too: every estimate the choice
    # is made for has its helper allocation in the exact-mode budget
    assert {name + ".H" for name in _NAMES} <= set(allocation_names("exact"))


def test_best_mean_bound_zero_observed():
    # at zero observed the multiplicative deviation is itself zero, so the
    # min yields the (vacuously valid) lower bound 0; downstream consumers
    # clamp at zero either way
    bound = best_mean_bound(0.0, 1e6, 1e-10, "lower")
    assert bound == 0.0


def test_best_mean_bound_upper_direction():
    bound = best_mean_bound(1e3, 1e9, 1e-10, "upper")
    mc = mult_chernoff_devs(1e3, 1e9, 1e-10, 1e-10, 1e-10)
    assert bound == pytest.approx(1e3 + min(mc.upper_dev, HOEFFDING_1E9), rel=REL)


@given(
    x=st.floats(min_value=1.0, max_value=1e12),
    eps=st.floats(min_value=1e-60, max_value=0.99),
)
@settings(max_examples=200, deadline=None)
def test_same_base_form_across_lemmas(x, eps):
    # Chernoff lower, Azuma, and the multiplicative-Chernoff deviations all
    # evaluate the same sqrt(2 x ln(1/y)) base form.
    lo = chernoff_devs(x, eps, eps).lower_dev
    assert lo == pytest.approx(azuma_dev(x, eps), rel=1e-12)
    mc = mult_chernoff_devs(x, 1e15, 0.5, eps, eps)
    assert mc.lower_dev == pytest.approx(azuma_dev(x, eps**1.5), rel=1e-9)
    assert mc.upper_dev == pytest.approx(azuma_dev(x, eps**4 / 16.0), rel=1e-9)


@given(
    x1=st.floats(min_value=0.0, max_value=1e10),
    x2=st.floats(min_value=0.0, max_value=1e10),
    e1=st.floats(min_value=1e-40, max_value=0.99),
    e2=st.floats(min_value=1e-40, max_value=0.99),
)
@settings(max_examples=200, deadline=None)
def test_monotonicity(x1, x2, e1, e2):
    xa, xb = sorted((x1, x2))
    ea, eb = sorted((e1, e2))
    # nondecreasing in the count argument
    assert hoeffding_dev(xa, e1) <= hoeffding_dev(xb, e1)
    assert azuma_dev(xa, e1) <= azuma_dev(xb, e1)
    assert chernoff_devs(xa, e1, e1).lower_dev <= chernoff_devs(xb, e1, e1).lower_dev
    # nonincreasing in eps
    assert hoeffding_dev(x1, ea) >= hoeffding_dev(x1, eb)
    assert azuma_dev(x1, ea) >= azuma_dev(x1, eb)
    assert chernoff_devs(x1, ea, ea).upper_dev >= chernoff_devs(x1, eb, eb).upper_dev


def _coverage_two_sided(mu, lower, upper, samples):
    below = np.mean(samples < mu - lower) if lower is not None else 0.0
    above = np.mean(samples > mu + upper) if upper is not None else 0.0
    return below, above


def test_monte_carlo_coverage_iid_bounds():
    # Quick coverage check at N=1e3; the acceptance suite runs the full grid.
    rng = np.random.default_rng(20260822)
    n, p, eps, reps = 1000, 0.3, 0.01, 20_000
    x = rng.binomial(n, p, size=reps).astype(float)
    mu = n * p

    res = chernoff_devs(mu, eps, eps)
    assert res.valid
    below, above = _coverage_two_sided(mu, res.lower_dev, res.upper_dev, x)
    slack = 4.0 * math.sqrt(eps * (1 - eps) / reps)
    assert below <= eps + slack
    assert above <= eps + slack

    dev_h = hoeffding_dev(n, eps)
    assert np.mean(mu < x - dev_h) <= eps + slack
    assert np.mean(mu > x + dev_h) <= eps + slack

    # joint multiplicative-Chernoff coverage at eps_h + eps_m + eps_m_hat
    devs = [mult_chernoff_devs(xi, n, eps, eps, eps) for xi in x[:5000]]
    assert all(d.valid for d in devs)
    miss = sum(
        1 for xi, d in zip(x[:5000], devs) if not (xi - d.lower_dev <= mu <= xi + d.upper_dev)
    )
    assert miss / 5000 <= 3 * eps + 4.0 * math.sqrt(3 * eps / 5000)


def test_monte_carlo_coverage_adaptive_martingale():
    # Adversarially adapted success probabilities: the martingale property of
    # the centered sum holds regardless, so the Azuma tail must still cover.
    rng = np.random.default_rng(7)
    n, eps, reps = 1000, 0.01, 20_000
    x = np.zeros(reps)
    for _ in range(n):
        p = 0.5 + 0.45 * np.tanh(x / 5.0)
        jump = (rng.random(reps) < p).astype(float)
        x += jump - p
    dev = azuma_dev(n, eps)
    slack = 4.0 * math.sqrt(eps * (1 - eps) / reps)
    assert np.mean(x > dev) <= eps + slack
    assert np.mean(x < -dev) <= eps + slack
