"""Tests for the concentration-bound primitives.

Frozen reference values were computed with mpmath at 60 decimal digits,
independently of the implementation.  Every bound takes ln(1/eps), the
``L`` of each test.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_keyrate.concentration import (
    azuma_dev,
    chernoff_dev,
    chernoff_valid,
    hoeffding_dev,
    hoeffding_or_mult_chernoff_dev,
    mult_chernoff_dev,
    mult_chernoff_scale,
    mult_chernoff_valid,
)
from qkd_keyrate.budget import allocation_names
from qkd_keyrate.decoy import _NAMES, _aggregate_terms, _mean_estimates

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


def L(eps):
    """ln(1/eps), the argument every bound takes."""
    return -math.log(eps)


def test_chernoff_frozen_values():
    assert chernoff_dev(1e6, L(1e-10), False) == pytest.approx(CHERNOFF_LOWER_1E6, rel=REL)
    assert chernoff_dev(1e6, L(1e-10), True) == pytest.approx(CHERNOFF_UPPER_1E6, rel=REL)
    assert chernoff_valid(1e6, L(1e-10), False)
    assert chernoff_valid(1e6, L(1e-10), True)


def test_chernoff_zero_mean():
    assert chernoff_dev(0.0, L(0.5), False) == 0.0
    assert chernoff_dev(0.0, L(0.5), True) == 0.0
    assert not chernoff_valid(0.0, L(0.5), False)
    assert not chernoff_valid(0.0, L(0.5), True)


def test_chernoff_validity_threshold():
    # valid above the mean iff the mean exceeds 3 ln(1/eps), below it iff
    # the mean exceeds 2 ln(1/eps)
    assert not chernoff_valid(CHERNOFF_HI_THRESHOLD - 0.1, L(1e-10), True)
    assert chernoff_valid(CHERNOFF_HI_THRESHOLD + 0.1, L(1e-10), True)
    assert chernoff_valid(CHERNOFF_HI_THRESHOLD - 0.1, L(1e-10), False)
    assert not chernoff_valid(CHERNOFF_LO_THRESHOLD - 0.1, L(1e-10), False)
    assert chernoff_valid(CHERNOFF_LO_THRESHOLD + 0.1, L(1e-10), False)


def test_chernoff_validity_on_arrays():
    mean = np.array([CHERNOFF_LO_THRESHOLD - 0.1, CHERNOFF_LO_THRESHOLD + 0.1,
                     CHERNOFF_HI_THRESHOLD + 0.1])
    assert chernoff_valid(mean, L(1e-10), False).tolist() == [False, True, True]
    assert chernoff_valid(mean, L(1e-10), True).tolist() == [False, False, True]


def test_hoeffding_frozen_values():
    assert hoeffding_dev(1e6, L(1e-10)) == pytest.approx(HOEFFDING_1E6, rel=REL)
    assert hoeffding_dev(1e9, L(1e-10)) == pytest.approx(HOEFFDING_1E9, rel=REL)
    assert hoeffding_dev(0, L(0.1)) == 0.0


def test_hoeffding_eps_to_one_limit():
    assert hoeffding_dev(1e6, L(1.0 - 1e-15)) == pytest.approx(0.0, abs=1e-3)


def test_mult_chernoff_frozen_values():
    lg = L(1e-10)
    assert mult_chernoff_dev(1e6, lg, False) == pytest.approx(MC_LOWER_1E6, rel=REL)
    assert mult_chernoff_dev(1e6, lg, True) == pytest.approx(MC_UPPER_1E6, rel=REL)
    assert mult_chernoff_valid(1e6, 1e9, lg, lg, False)
    assert mult_chernoff_valid(1e6, 1e9, lg, lg, True)
    assert mult_chernoff_dev(1e3, lg, False) == pytest.approx(MC_LOWER_1E3, rel=REL)


def test_mult_chernoff_selector_takes_rows():
    # one call serves rows of either side, as the decoy mean estimates use it
    lg = np.array([L(1e-10), L(1e-12)])
    above = np.array([[False], [True]])
    got = mult_chernoff_dev(np.array([[1e6], [1e3]]), lg, above)
    assert got.shape == (2, 2)
    for row, side in enumerate((False, True)):
        for col in range(2):
            assert got[row, col] == mult_chernoff_dev((1e6, 1e3)[row], lg[col], side)


def test_mult_chernoff_invalid_for_tiny_counts():
    for above in (False, True):
        assert not mult_chernoff_valid(5, 10, L(0.1), L(0.1), above)
        # mu_L <= 0: observed smaller than the Hoeffding dev of the trials
        assert not mult_chernoff_valid(10, 1e6, L(1e-10), L(1e-10), above)


def test_mult_chernoff_validity_edges():
    # ln(2/eps_hat)/mu_L flips at 9/32 as eps_hat shrinks
    observed, trials = 100.0, 100.0
    mu_l = observed - hoeffding_dev(trials, L(0.5))
    eps_edge = 2.0 * math.exp(-mu_l * 9.0 / 32.0)
    assert mult_chernoff_valid(observed, trials, L(0.5), L(0.5), False)
    assert mult_chernoff_valid(observed, trials, L(0.5), L(eps_edge * 1.01), True)
    assert not mult_chernoff_valid(observed, trials, L(0.5), L(eps_edge * 0.99), True)
    # ln(1/eps)/mu_L flips at 1/3 below the mean
    eps_edge = math.exp(-mu_l / 3.0)
    assert mult_chernoff_valid(observed, trials, L(0.5), L(eps_edge * 1.01), False)
    assert not mult_chernoff_valid(observed, trials, L(0.5), L(eps_edge * 0.99), False)


def test_azuma_frozen_values():
    assert azuma_dev(1e6, L(1e-10)) == pytest.approx(CHERNOFF_LOWER_1E6, rel=REL)
    assert azuma_dev(0, L(0.3)) == 0.0


class FlatBudget:
    """An epsilon budget that allocates ``eps`` to every name."""

    def __init__(self, eps):
        self.eps = eps

    def log_inv(self, names):
        return -math.log(self.eps)

    def memo(self, build, *args):
        return build(self, *args)


def best_mean_bound(observed, total, eps, direction):
    """The exact-mode mean estimate that ``decoy._mean_estimates``
    picks: Hoeffding over ``total`` or the multiplicative Chernoff bound
    of ``observed``, whichever is tighter.  Every estimate and population
    is given the same counts; rows 0 and 2 are the first lower and the
    first upper estimate."""
    est = _mean_estimates(
        "exact", FlatBudget(eps),
        np.full((5, 1, 17), observed), np.full((1, 17), total),
        (_aggregate_terms,), np.s_[:2], np.s_[2:],
    )
    row = 0 if direction == "lower" else 2
    assert (est[row, 0] == est[row, 0, 0]).all()
    return est[row, 0, 0]


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
    mc = mult_chernoff_dev(1e3, L(1e-10), True)
    assert bound == pytest.approx(1e3 + min(mc, HOEFFDING_1E9), rel=REL)


@given(
    x=st.floats(min_value=1.0, max_value=1e12),
    eps=st.floats(min_value=1e-60, max_value=0.99),
)
@settings(max_examples=200, deadline=None)
def test_same_base_form_across_lemmas(x, eps):
    # Chernoff lower, Azuma, and the multiplicative-Chernoff deviations all
    # evaluate the same sqrt(2 x ln(1/y)) base form.
    lo = chernoff_dev(x, L(eps), False)
    assert lo == pytest.approx(azuma_dev(x, L(eps)), rel=1e-12)
    assert mult_chernoff_dev(x, L(eps), False) == pytest.approx(
        azuma_dev(x, L(eps**1.5)), rel=1e-9
    )
    assert mult_chernoff_dev(x, L(eps), True) == pytest.approx(
        azuma_dev(x, L(eps**4 / 16.0)), rel=1e-9
    )


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
    assert hoeffding_dev(xa, L(e1)) <= hoeffding_dev(xb, L(e1))
    assert azuma_dev(xa, L(e1)) <= azuma_dev(xb, L(e1))
    assert chernoff_dev(xa, L(e1), False) <= chernoff_dev(xb, L(e1), False)
    # nonincreasing in eps
    assert hoeffding_dev(x1, L(ea)) >= hoeffding_dev(x1, L(eb))
    assert azuma_dev(x1, L(ea)) >= azuma_dev(x1, L(eb))
    assert chernoff_dev(x1, L(ea), True) >= chernoff_dev(x1, L(eb), True)


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

    assert chernoff_valid(mu, L(eps), False) and chernoff_valid(mu, L(eps), True)
    below, above = _coverage_two_sided(
        mu, chernoff_dev(mu, L(eps), False), chernoff_dev(mu, L(eps), True), x
    )
    slack = 4.0 * math.sqrt(eps * (1 - eps) / reps)
    assert below <= eps + slack
    assert above <= eps + slack

    dev_h = hoeffding_dev(n, L(eps))
    assert np.mean(mu < x - dev_h) <= eps + slack
    assert np.mean(mu > x + dev_h) <= eps + slack

    # joint multiplicative-Chernoff coverage at eps_h + eps_m + eps_m_hat
    xs = x[:5000]
    for above in (False, True):
        assert mult_chernoff_valid(xs, n, L(eps), L(eps), above).all()
    lower = xs - mult_chernoff_dev(xs, L(eps), False)
    upper = xs + mult_chernoff_dev(xs, L(eps), True)
    miss = np.sum(~((lower <= mu) & (mu <= upper)))
    assert miss / 5000 <= 3 * eps + 4.0 * math.sqrt(3 * eps / 5000)


@pytest.mark.xfail(
    strict=True,
    reason="known defect, ROADMAP open item 1: the exact-mode decoy mean "
    "estimates take the smaller of the Hoeffding and the multiplicative-Chernoff "
    "deviations without the latter's validity condition, and at a mean of 5 "
    "the upper estimate fails about 6.5x more often than eps",
)
def test_mult_chernoff_upper_fails_where_invalid():
    rng = np.random.default_rng(20140)
    n, mean, eps, reps = 10**6, 5.0, 1e-3, 200_000
    x = rng.binomial(n, mean / n, size=reps)
    # the condition the chain does not apply rules this regime out ...
    assert not mult_chernoff_valid(x, n, L(eps), L(eps), True).any()
    # ... and without it the chain's upper estimate misses the mean too
    # often (every x = 0 draw, with probability e^-5 = 6.7e-3, misses it)
    dev = hoeffding_or_mult_chernoff_dev(n, L(eps), x, mult_chernoff_scale(L(eps), True))
    miss = np.mean(mean > x + dev)
    assert miss <= eps + 4.0 * math.sqrt(eps * (1 - eps) / reps)


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
    dev = azuma_dev(n, L(eps))
    slack = 4.0 * math.sqrt(eps * (1 - eps) / reps)
    assert np.mean(x > dev) <= eps + slack
    assert np.mean(x < -dev) <= eps + slack


def _sqrt_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "sqrt"
    ]


@pytest.mark.parametrize("module", ["decoy.py", "phase_error.py"])
def test_chain_takes_every_deviation_from_concentration(module):
    # a tail bound is a square root; the chain takes each from
    # concentration, so that no inline copy can drift from the checked one
    src = Path(__file__).resolve().parent.parent / "src" / "qkd_keyrate"
    assert _sqrt_calls(src / module) == []
    assert _sqrt_calls(src / "concentration.py")
