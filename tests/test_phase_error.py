"""Tests for the phase-error upper bound.

The central check plays the general coefficient-driven estimator against
the closed form for the proportional flaw model; the two derivations
share no code path beyond the cell bounds, so agreement pins both.
"""

import dataclasses
import math

import numpy as np
import pytest

from qkd_keyrate.budget import EpsilonBudget
from qkd_keyrate.channel import ChannelConfig
from qkd_keyrate.decoy import CELLS, CellBoundsBatch
from qkd_keyrate.phase_error import n_ph_appendixE, n_ph_upper_batch, phase_terms
from qkd_keyrate.pipeline import ProtocolParams
from qkd_keyrate.qubit_model import (
    EncodingFlawModel,
    THETA_0X,
    THETA_0Z,
    THETA_1Z,
    apply_filter,
    bloch_of_state,
    build_transmission_matrix,
    virtual_state_coeffs,
)

from one_point import bound as m1_bound
from one_point import decoy_bounds, expected_counts, phase_bound


def build_qm(xi, p_z, gamma=1.0):
    flaw = EncodingFlawModel(model_xi=xi) if xi else EncodingFlawModel.exact()
    states = {}
    for name, theta in (("0z", THETA_0Z), ("1z", THETA_1Z), ("0x", THETA_0X)):
        states[name] = apply_filter(bloch_of_state(theta, flaw, gamma))
    tm = build_transmission_matrix(states["0z"], states["1z"], states["0x"])
    return virtual_state_coeffs(states["0z"], states["1z"], tm.a_inv, p_z)


def build_stats(xi, p_z, distance_km, budget, p_d=5e-7, e_mis=0.01, n=1e12):
    cfg = ChannelConfig(distance_km=distance_km, det_eff=0.15, dark_prob=p_d,
                        e_mis=e_mis, fluct_r=0.0, xi=xi)
    params = ProtocolParams(p_z=p_z, p_ks=0.6, p_kd1=0.3, k_s=0.5, k_d1=0.1, k_d2=2e-4)
    intens = params.intensities("exact", 0.0)
    counts, _ = expected_counts(cfg, intens, p_z, n)
    _, m1, cells = decoy_bounds(counts, intens, budget, "exact")
    return cells, m1


@pytest.mark.parametrize("xi", [0.0, 0.05, 0.147])
@pytest.mark.parametrize("distance", [0.0, 50.0, 120.0])
@pytest.mark.parametrize("finite", [False, True])
def test_general_matches_closed_form(xi, distance, finite):
    p_z = 0.5
    budget = EpsilonBudget.build(1e-10, 1e-15, mode="exact") if finite else None
    cells, m1 = build_stats(xi, p_z, distance, budget)
    qm = build_qm(xi, p_z)
    general = phase_bound(qm, cells, m1, budget)
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
    qm = build_qm(0.0, 0.5)
    bound = phase_bound(qm, cells, m1_bound(1.0), None)
    assert bound.n1_upper > 0.0
    assert abs(bound.n_ph_upper) <= 1e-12 * bound.n1_upper
    assert bound.e_ph_upper <= 1e-12


def test_ideal_source_decoy_residual_is_moderate():
    # the decoy-estimated version keeps a multi-photon residual; it must
    # stay well below the abort threshold at metropolitan distances
    cells, m1 = build_stats(0.0, 0.5, 50.0, None, p_d=0.0, e_mis=0.0)
    bound = phase_bound(build_qm(0.0, 0.5), cells, m1, None)
    assert 0.0 < bound.e_ph_upper < 0.12


def test_n1_upper_sums_cells():
    budget = EpsilonBudget.build(1e-10, 1e-15, mode="exact")
    cells, m1 = build_stats(0.147, 0.5, 50.0, budget)
    total = sum(cells.upper1[0].tolist())
    n1 = phase_bound(build_qm(0.147, 0.5), cells, m1, budget).n1_upper
    assert n1 == pytest.approx(total, rel=1e-14)


def test_deviations_only_loosen():
    qm = build_qm(0.147, 0.5)
    bounds = []
    # asymptotic, then ever smaller allocations per estimate
    for budget in (None, *(EpsilonBudget.build(eps, 1e-15, mode="exact")
                           for eps in (1e-6, 1e-10))):
        cells, m1 = build_stats(0.147, 0.5, 80.0, budget)
        bounds.append(phase_bound(qm, cells, m1, budget))
    for looser, tighter in zip(bounds, bounds[1:]):
        assert tighter.n_ph_upper > looser.n_ph_upper
        assert tighter.e_ph_upper > looser.e_ph_upper


def test_upper_branch_dominates_lower():
    # a single unit-weight term, outcome 3 of half 1 (cell Z0 -> X0): a
    # positive coefficient takes the upper bound plus its deviation, a
    # negative one the lower bound minus it, floored at zero; a zero
    # coefficient leaves only the two tail deviations
    budget = EpsilonBudget.build(1e-10, 1e-15, mode="exact")
    cells, m1 = build_stats(0.147, 0.5, 50.0, budget)
    q = 0.25 * 0.5

    def one_term(coef):
        terms = np.zeros((1, 6, 3))
        terms[:, :, 2] = 1.0
        terms[0, 3] = (1.0, coef, q)
        return n_ph_upper_batch(terms, cells, m1, budget).n_ph_upper

    hi, lo, tails = one_term(+1.0), one_term(-1.0), one_term(0.0)
    assert hi >= lo >= tails


def test_phase_terms_validation():
    # every collective outcome with a nonzero coefficient needs a positive
    # weight Q(omega)
    qm = build_qm(0.147, 0.5)
    for omega in (3, 4, 5):
        with pytest.raises(ValueError):
            phase_terms(dataclasses.replace(qm, q={**qm.q, omega: 0.0}))


def test_empty_single_photon_bound_aborts():
    cells, _ = build_stats(0.147, 0.5, 50.0, None)
    dead = m1_bound(0.0)
    bound = phase_bound(build_qm(0.147, 0.5), cells, dead, None)
    assert bound.e_ph_upper == 1.0


def test_error_rate_clamped_to_one():
    # a tiny single-photon floor forces the ratio past 1
    cells, _ = build_stats(0.147, 0.5, 50.0, None)
    tiny = m1_bound(1e-6)
    bound = phase_bound(build_qm(0.147, 0.5), cells, tiny, None)
    assert bound.e_ph_upper == 1.0


def test_unbalanced_source_still_bounded():
    # gamma != 1 leaves the closed form's domain but the general path
    # must still produce a sane bound
    qm = build_qm(0.147, 0.5, gamma=0.9)
    budget = EpsilonBudget.build(1e-10, 1e-15, mode="exact")
    cells, m1 = build_stats(0.147, 0.5, 50.0, budget)
    bound = phase_bound(qm, cells, m1, budget)
    assert bound.n_ph_upper >= 0.0
    assert 0.0 <= bound.e_ph_upper <= 1.0
