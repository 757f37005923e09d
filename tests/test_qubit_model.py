"""Tests for the source-characterisation module.

Frozen reference values computed with mpmath at 60 digits; the coefficient
table for the flawed symmetric source is cross-checked against an
independent closed-form trigonometric derivation done by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_keyrate.qubit_model import (
    DegenerateStatesError,
    apply_filter,
    bloch_of_state,
    build_transmission_matrix,
)

from one_point import filtered_states
from virtual_states import virtual_state_coeffs

XI = 0.147
COS_HALF_XI = 0.99730009079375857
SIN_HALF_XI = 0.073433840310587802


def test_bloch_ideal_z_state():
    assert bloch_of_state(0.0, 0.0) == (0.0, 1.0)


def test_bloch_flawed_x_state():
    v_x, v_z = bloch_of_state(math.pi / 2, XI)
    assert v_x == pytest.approx(COS_HALF_XI, rel=1e-12)
    assert v_z == pytest.approx(-SIN_HALF_XI, rel=1e-12)


def test_filter_pure_z_state():
    s = apply_filter(0.0, 1.0)
    assert (s.r_x, s.r_z) == (0.0, 1.0)
    assert (s.p0, s.p1) == (0.0, 1.0)
    assert (s.a1, s.b1) == (1.0, 0.0)  # dominant eigenvector is |0_z>
    assert (s.a0, s.b0) == (0.0, 1.0)


def test_filter_maximally_mixed_convention():
    s = apply_filter(0.0, 0.0)
    assert s.p0 == s.p1 == 0.5
    assert (s.a0, s.b0, s.a1, s.b1) == (1.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("excess, inside", [(4e-13, True), (8e-13, False), (2e-12, False)])
def test_filter_unit_disc_tolerance(excess, inside):
    # one check, on r_x^2 + r_z^2 <= 1 + 1e-12: a norm of 1 + 8e-13
    # squares past it
    for r in ((0.0, 1.0 + excess), (-(1.0 + excess), 0.0)):
        if inside:
            assert apply_filter(*r).p0 == 0.0
        else:
            with pytest.raises(ValueError, match="unit disc"):
                apply_filter(*r)


def test_filter_negative_rz_branch():
    s = apply_filter(0.0, -1.0)
    assert (s.a0, s.b0) == (1.0, 0.0)  # |i_z>
    assert (s.a1, s.b1) == (0.0, 1.0)


@given(
    v=st.tuples(st.floats(-1, 1), st.floats(-1, 1)).filter(
        lambda t: t[0] ** 2 + t[1] ** 2 <= 0.999
    )
)
@settings(max_examples=200, deadline=None)
def test_filter_reconstruction(v):
    s = apply_filter(*v)
    rho = np.zeros((2, 2))
    for p, a, b in ((s.p0, s.a0, s.b0), (s.p1, s.a1, s.b1)):
        vec = np.array([a, b])
        rho += p * np.outer(vec, vec)
    expected = 0.5 * np.array(
        [[1.0 + s.r_z, s.r_x], [s.r_x, 1.0 - s.r_z]]
    )
    assert np.max(np.abs(rho - expected)) < 1e-10


@given(v_x=st.floats(-1, 1), v_z=st.floats(-1, 1))
@settings(max_examples=100, deadline=None)
def test_filter_idempotent_in_plane(v_x, v_z):
    if v_x**2 + v_z**2 > 1.0:
        return
    s = apply_filter(v_x, v_z)
    assert s.r_x == v_x
    assert s.r_z == v_z


def test_transmission_matrix_ideal_states():
    s0z = apply_filter(0.0, 1.0)
    s1z = apply_filter(0.0, -1.0)
    s0x = apply_filter(1.0, 0.0)
    tm = build_transmission_matrix(s0z, s1z, s0x)
    assert tm.q == pytest.approx(2.0)
    assert np.allclose(tm.a_inv[0], [1.0, 1.0, 0.0], atol=1e-12)
    assert np.max(np.abs(tm.a @ tm.a_inv - np.eye(3))) < 1e-10


def test_transmission_matrix_degeneracy():
    s = apply_filter(0.0, 1.0)
    s0x = apply_filter(1.0, 0.0)
    with pytest.raises(DegenerateStatesError):
        build_transmission_matrix(s, s, s0x)


def test_closed_form_inverse_third_row_correction():
    # The adjugate closed form of the inverse has third row
    #   2(r_x^{0x}-r_x^{1z}), 2(r_x^{0z}-r_x^{0x}), 2(r_x^{1z}-r_x^{0z}),
    # all divided by q.  A commonly transcribed variant duplicates the middle
    # entry into the last position; this test documents that the duplicated
    # variant disagrees with the numeric inverse while the corrected one
    # matches, which is why the implementation inverts numerically.
    s0z, s1z, s0x = filtered_states(XI)
    tm = build_transmission_matrix(s0z, s1z, s0x)
    corrected = (
        np.array(
            [
                [
                    2 * (s1z.r_x * s0x.r_z - s0x.r_x * s1z.r_z),
                    2 * (s0x.r_x * s0z.r_z - s0z.r_x * s0x.r_z),
                    2 * (s0z.r_x * s1z.r_z - s1z.r_x * s0z.r_z),
                ],
                [
                    2 * (s1z.r_z - s0x.r_z),
                    2 * (s0x.r_z - s0z.r_z),
                    2 * (s0z.r_z - s1z.r_z),
                ],
                [
                    2 * (s0x.r_x - s1z.r_x),
                    2 * (s0z.r_x - s0x.r_x),
                    2 * (s1z.r_x - s0z.r_x),
                ],
            ]
        )
        / tm.q
    )
    assert np.max(np.abs(tm.a_inv - corrected)) < 1e-10
    duplicated = corrected.copy()
    duplicated[2, 2] = duplicated[2, 1]
    assert np.max(np.abs(tm.a_inv - duplicated)) > 1e-3


@given(
    tx=st.floats(0.0, 1.0),
    ty=st.floats(-0.5, 0.5),
    tz=st.floats(-0.5, 0.5),
)
@settings(max_examples=100, deadline=None)
def test_matrix_relation_round_trip(tx, ty, tz):
    # synthesize Pauli transmission rates, push them through A, and recover
    # them through the inverse
    s0z, s1z, s0x = filtered_states(XI)
    tm = build_transmission_matrix(s0z, s1z, s0x)
    pauli = np.array([tx, ty, tz])
    rates = tm.a @ pauli
    assert np.max(np.abs(tm.a_inv @ rates - pauli)) < 1e-10


def test_virtual_probs_sum_to_one():
    s0z, s1z, s0x = filtered_states(XI)
    tm = build_transmission_matrix(s0z, s1z, s0x)
    for p_z in (0.1, 0.5, 0.66, 0.9, 0.99):
        vc = virtual_state_coeffs(s0z, s1z, tm.a_inv, p_z)
        assert sum(vc.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_virtual_probs_ideal_states():
    s0z, s1z, s0x = filtered_states(0.0)
    tm = build_transmission_matrix(s0z, s1z, s0x)
    vc = virtual_state_coeffs(s0z, s1z, tm.a_inv, 0.8)
    assert vc.overlap == pytest.approx(0.0, abs=1e-14)
    assert vc.probs[1] == pytest.approx(0.8**2 / 2.0, rel=1e-12)
    assert vc.probs[2] == pytest.approx(0.8**2 / 2.0, rel=1e-12)


def test_virtual_outcome_weights():
    s0z, s1z, s0x = filtered_states(XI)
    tm = build_transmission_matrix(s0z, s1z, s0x)
    vc = virtual_state_coeffs(s0z, s1z, tm.a_inv, 0.9)
    assert vc.q[3] == pytest.approx(0.9 * 0.1 / 2.0, rel=1e-12)
    assert vc.q[4] == pytest.approx(0.9 * 0.1 / 2.0, rel=1e-12)
    assert vc.q[5] == pytest.approx(0.1**2, rel=1e-12)
    assert vc.q[6] == pytest.approx(0.9 * 0.1, rel=1e-12)


def test_coefficient_table_flawed_symmetric_source():
    # Independent closed-form derivation for the balanced source with the
    # proportional flaw model (s = sin(xi/2), c = cos(xi/2)):
    #   overlap = -s
    #   C[0] = ((s-1)/(1+s), (s-1)/(1+s), (2+2s^2)/(1+s))
    #   C[1] = (-1, -1, 2(1-s))
    s, c = SIN_HALF_XI, COS_HALF_XI
    s0z, s1z, s0x = filtered_states(XI)
    tm = build_transmission_matrix(s0z, s1z, s0x)
    vc = virtual_state_coeffs(s0z, s1z, tm.a_inv, 0.9)
    assert vc.overlap == pytest.approx(-s, rel=1e-12)
    expected = np.array(
        [
            [(s - 1) / (1 + s), (s - 1) / (1 + s), (2 + 2 * s * s) / (1 + s)],
            [-1.0, -1.0, 2.0 * (1.0 - s)],
        ]
    )
    assert np.max(np.abs(vc.c - expected)) < 1e-10


def test_eigenvalue_weights():
    # balanced source: each Z state is pure after filtering, so one
    # eigenvalue is 0 and the geometric-mean weights are (0, 1)
    s0z, s1z, s0x = filtered_states(XI)
    tm = build_transmission_matrix(s0z, s1z, s0x)
    vc = virtual_state_coeffs(s0z, s1z, tm.a_inv, 0.9)
    assert vc.w[0] == pytest.approx(0.0, abs=1e-12)
    assert vc.w[1] == pytest.approx(1.0, rel=1e-12)
    # the equal mixture of flaw angles -0.2 and 0.2 about each nominal
    # angle, one Bloch vector of norm cos 0.2, leaves the filtered states
    # mixed, so both weights are strictly inside (0, 1)
    f0, f1, fx = filtered_states(0.0, math.cos(0.2))
    tm = build_transmission_matrix(f0, f1, fx)
    vc = virtual_state_coeffs(f0, f1, tm.a_inv, 0.9)
    assert vc.w[0] == pytest.approx(math.sqrt(f0.p0 * f1.p0), rel=1e-12)
    assert vc.w[1] == pytest.approx(math.sqrt(f0.p1 * f1.p1), rel=1e-12)
    assert 0.0 < vc.w[0] < vc.w[1] < 1.0
