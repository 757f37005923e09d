"""Tests for the phase-error upper bound.

The central check plays the general weight-driven estimator against
the closed form for the proportional flaw model; the two derivations
share no code path beyond the cell bounds, so agreement pins both.
"""

import math

import numpy as np
import pytest

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig, ChannelModel
from qkd_keyrate.decoy import CELLS, CellBoundsBatch, aggregate_bounds, cell_bounds
from qkd_keyrate.key_length import ABORT_COUNTS
from qkd_keyrate.phase_error import (
    lower_terms,
    n_ph_appendixE,
    n_ph_upper_batch,
    phase_weights,
    term_coeffs,
)
from qkd_keyrate.pipeline import (
    ParamBatch,
    ProtocolParams,
    evaluate_rate,
    prepare_batch,
    source_coeffs,
)

from one_point import bound as m1_bound
from one_point import (
    decoy_bounds,
    expected_counts,
    phase_bound,
    phase_by_sign,
    source_model,
)


def build_stats(xi, p_z, distance_km, budget, p_d=5e-7, e_mis=0.01, n=1e12):
    cfg = ChannelConfig(distance_km=distance_km, det_eff=0.15, dark_prob=p_d,
                        e_mis=e_mis, fluct_r=0.0, xi=xi)
    params = ProtocolParams(p_z=p_z, p_ks=0.6, p_kd1=0.3, k_s=0.5, k_d1=0.1, k_d2=2e-4)
    intens = params.intensities("exact", 0.0)
    counts, _ = expected_counts(cfg, intens, p_z, n)
    _, m1, cells = decoy_bounds(counts, intens, budget)
    return cells, m1


@pytest.mark.parametrize("xi", [0.0, 0.05, 0.147])
@pytest.mark.parametrize("distance", [0.0, 50.0, 120.0])
@pytest.mark.parametrize("finite", [False, True])
def test_general_matches_closed_form(xi, distance, finite):
    p_z = 0.5
    budget = EpsilonBudget(1e-10, 1e-15, mode="exact") if finite else None
    cells, m1 = build_stats(xi, p_z, distance, budget)
    general = phase_bound(xi, p_z, cells, m1, budget)
    reduced = n_ph_appendixE(xi, np.array([p_z]), cells, budget)
    assert general.n_ph_upper == pytest.approx(reduced, rel=1e-9)


def exact_single_photon_cells(p_z, eta):
    """Cell bounds pinned to the true single-photon counts of an ideal
    link (flawless encoding, no darks, no misalignment), per signal pulse."""
    p_x = 1.0 - p_z
    p = 1.0 - math.exp(-eta / 2.0)
    q_split = p * (1.0 - p) + 0.5 * p * p
    values = {
        ("Z", 0, "X", 0): p_z * p_x / 2.0 * q_split,
        ("Z", 0, "X", 1): p_z * p_x / 2.0 * q_split,
        ("Z", 1, "X", 0): p_z * p_x / 2.0 * q_split,
        ("Z", 1, "X", 1): p_z * p_x / 2.0 * q_split,
        ("X", 0, "X", 0): p_x * p_x * (2.0 * p - p * p),
    }
    single = np.array([[values.get(c, 0.0) for c in CELLS]])
    zero = np.zeros((1, 16))
    return CellBoundsBatch(lower0=zero, lower1=single, upper1=single)


def test_ideal_source_has_no_phase_errors():
    # with the true single-photon counts of a flawless link the positive
    # and negative halves of the estimator cancel exactly; the residual
    # seen through decoy bounds is multi-photon contamination, not this
    cells = exact_single_photon_cells(0.5, 0.015)
    bound = phase_bound(0.0, 0.5, cells, m1_bound(1.0), None)
    assert bound.n1_upper > 0.0
    assert abs(bound.n_ph_upper) <= 1e-12 * bound.n1_upper
    assert bound.e_ph_upper <= 1e-12


def test_ideal_source_decoy_residual_is_moderate():
    # the decoy-estimated version keeps a multi-photon residual; it must
    # stay well below the abort threshold at metropolitan distances
    cells, m1 = build_stats(0.0, 0.5, 50.0, None, p_d=0.0, e_mis=0.0)
    bound = phase_bound(0.0, 0.5, cells, m1, None)
    assert 0.0 < bound.e_ph_upper < 0.12


def test_n1_upper_sums_cells():
    budget = EpsilonBudget(1e-10, 1e-15, mode="exact")
    cells, m1 = build_stats(0.147, 0.5, 50.0, budget)
    total = sum(cells.upper1[0].tolist())
    n1 = phase_bound(0.147, 0.5, cells, m1, budget).n1_upper
    assert n1 == pytest.approx(total, rel=1e-14)


def test_deviations_only_loosen():
    bounds = []
    # asymptotic, then ever smaller allocations per estimate
    for budget in (None, *(EpsilonBudget(eps, 1e-15, mode="exact")
                           for eps in (1e-6, 1e-10))):
        cells, m1 = build_stats(0.147, 0.5, 80.0, budget)
        bounds.append(phase_bound(0.147, 0.5, cells, m1, budget))
    for looser, tighter in zip(bounds, bounds[1:]):
        assert tighter.n_ph_upper > looser.n_ph_upper
        assert tighter.e_ph_upper > looser.e_ph_upper


def test_upper_branch_dominates_lower():
    # a single term, outcome 3 of half 1 (cell Z0 -> X0): a positive
    # weight takes the upper bound plus its deviation, a negative one the
    # lower bound minus it, floored at zero; a zero weight leaves only the
    # two tail deviations, and without a budget nothing at all
    cell = CELLS.index(("Z", 0, "X", 0))
    for budget in (EpsilonBudget(1e-10, 1e-15, mode="exact"), None):
        cells, m1 = build_stats(0.147, 0.5, 50.0, budget)

        def one_term(weight):
            weights = np.zeros((1, 6))
            weights[0, 3] = weight
            return phase_by_sign(weights, cells, m1, budget).n_ph_upper[0]

        hi, lo, tails = one_term(+2.0), one_term(-2.0), one_term(0.0)
        assert hi > tails >= lo
    assert tails == lo == 0.0
    assert hi == 2.0 * cells.upper1[0, cell]


# (half s, collective outcome omega) of each term, in phase_weights' order
TERMS = tuple((s, omega) for s in (0, 1) for omega in (3, 4, 5))


def per_source_weights(qm):
    """pref * coef / Q(omega) per term, formed from one source's
    VirtualStateCoeffs as the bound formed them before its weights took
    a closed form in p_z."""
    sums = [qm.w[0] * qm.c[0, l] + qm.w[1] * qm.c[1, l] for l in range(3)]
    out = []
    for s, omega in TERMS:
        sgn = 1.0 if s == 0 else -1.0
        denom = 2.0 * (1.0 + sgn * qm.overlap)
        if abs(denom) > 1e-12:
            pref = qm.probs[s + 1] / denom
        else:
            # both virtual states collapse onto one; the ratio's limit
            pref = (qm.probs[1] + qm.probs[2]) / 4.0
        coef = {3: 1.0 + sgn * sums[0], 4: 1.0 + sgn * sums[1], 5: sgn * sums[2]}[omega]
        out.append(pref * coef / qm.q[omega])
    return out


@pytest.mark.parametrize("xi", [0.0, 0.147, 1.0, 1.5])
@pytest.mark.parametrize("norm", [1.0, 0.9])
def test_weights_match_per_source_algebra(xi, norm):
    # norm 0.9 mixes the states, so both eigenvalue weights enter
    p_z = np.array([1e-3, 0.3, 0.5, 0.95, 0.999])
    qm = source_model(xi, 0.5, norm)
    weights = phase_weights(term_coeffs(qm.c, qm.w), p_z)
    assert weights.shape == (len(p_z), 6)
    for row, pz in zip(weights.tolist(), p_z.tolist()):
        ref = per_source_weights(source_model(xi, pz, norm))
        for a, b in zip(row, ref):
            assert a == b or abs(a - b) <= 1e-15 * abs(b), (pz, a, b)


@pytest.mark.parametrize("p_z", [5e-324, 1e-310])
def test_tiny_p_z_aborts_for_counts(p_z):
    # Q(omega) of such a p_z is 0 or subnormal, but the weights divide by
    # nothing: the point aborts for its empty key, with no RuntimeWarning
    cfg = ChannelConfig(distance_km=50.0, det_eff=0.15, dark_prob=5e-7,
                        e_mis=0.01, fluct_r=0.0, xi=0.147)
    params = ProtocolParams(p_z=p_z, p_ks=0.6, p_kd1=0.3, k_s=0.5, k_d1=0.1)
    res = evaluate_rate(cfg, params, EpsilonBudget(1e-10, 1e-15, "exact"), 1e12)
    assert res.aborted and res.abort_reason == ABORT_COUNTS and res.ell == 0
    assert all(math.isfinite(v) for v in (res.rate, res.m0_l, res.m1_l, res.e_ph_u))


def test_empty_single_photon_bound_aborts():
    cells, _ = build_stats(0.147, 0.5, 50.0, None)
    dead = m1_bound(0.0)
    bound = phase_bound(0.147, 0.5, cells, dead, None)
    assert bound.e_ph_upper == 1.0


def test_error_rate_clamped_to_one():
    # a tiny single-photon floor forces the ratio past 1
    cells, _ = build_stats(0.147, 0.5, 50.0, None)
    tiny = m1_bound(1e-6)
    bound = phase_bound(0.147, 0.5, cells, tiny, None)
    assert bound.e_ph_upper == 1.0


def test_unbalanced_source_still_bounded():
    # mixed states (Bloch vectors of norm 0.9) leave the closed form's
    # pure states, but the general path must still produce a sane bound.
    # Unbalanced pulses (gamma = 0.9) never left them: after the filter
    # their states were bit-equal to the balanced ones.
    budget = EpsilonBudget(1e-10, 1e-15, mode="exact")
    cells, m1 = build_stats(0.147, 0.5, 50.0, budget)
    bound = phase_bound(0.147, 0.5, cells, m1, budget, norm=0.9)
    assert bound.n_ph_upper >= 0.0
    assert 0.0 <= bound.e_ph_upper <= 1.0


def test_lower_terms_follow_the_coefficients_signs():
    # at xi = 0.147 the coefficients are [0, 0, 1.85, 2, 2, -1.85]: the
    # Z0 -> X1, Z1 -> X1 and X0 -> X0 terms read a lower bound
    terms, cells = lower_terms(source_coeffs(0.147))
    assert terms == (0, 1, 5)
    assert cells == tuple(CELLS.index(c) for c in
                          (("Z", 0, "X", 1), ("Z", 1, "X", 1), ("X", 0, "X", 0)))


@pytest.mark.parametrize("xi", [0.0, 0.11025, 0.147, 1.0])
@pytest.mark.parametrize("finite", [True, False])
def test_lower_terms_give_the_bound_of_every_cell(xi, finite):
    # the bound from lower_terms' cells equals, bit for bit, each point's
    # bound with every term's cell bound chosen by the sign of its weight,
    # down to a p_z whose (r/2)^2 underflows to 0
    budget = EpsilonBudget(1e-10, 1e-15, mode="exact") if finite else None
    p_z = np.array([1e-170, 1e-3, 0.3, 0.5, 0.9, 0.999])
    cfg = ChannelConfig(distance_km=40.0, det_eff=0.15, dark_prob=5e-7,
                        e_mis=0.01, fluct_r=0.0, xi=xi)
    params = ParamBatch.of([ProtocolParams(p_z=float(p), p_ks=0.6, p_kd1=0.3, k_s=0.5,
                                           k_d1=0.1) for p in p_z])
    prepared = prepare_batch(params, "exact", 0.0)
    counts, _ = ChannelModel(cfg).expected_counts(prepared.layout, 1e12)
    _, m1 = aggregate_bounds(counts, prepared.factors, budget)
    coeffs = source_coeffs(xi)
    weights = phase_weights(coeffs, p_z)
    assert (weights[0, [2, 5]] == 0.0).all()
    terms, cells = lower_terms(coeffs)
    full = cell_bounds(counts, prepared.factors, budget)
    part = n_ph_upper_batch(
        weights, cell_bounds(counts, prepared.factors, budget, cells), m1, budget,
        terms)
    for i in range(len(p_z)):
        row = slice(i, i + 1)
        alone = phase_by_sign(
            weights[row], CellBoundsBatch(*(a[row] for a in full)), m1[row], budget)
        for a, b in zip(alone, part):
            assert a.tobytes() == b[row].tobytes()
