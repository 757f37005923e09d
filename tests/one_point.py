"""Batch-of-one views of the batch estimators, for single-point tests.

Every array these return keeps its leading batch axis of length one, so
the results chain into the next batch function unchanged.
"""

import numpy as np

from qkd_keyrate.channel import CellLayout, ChannelModel
from qkd_keyrate.decoy import (
    CELLS,
    CellBoundsBatch,
    CountsBatch,
    aggregate_bounds,
    cell_bounds,
    decoy_factors,
)
from qkd_keyrate.key_length import key_length_batch
from qkd_keyrate.phase_error import (
    lower_terms,
    n_ph_upper_batch,
    phase_weights,
    term_coeffs,
)
from qkd_keyrate.qubit_model import (
    THETA_0X,
    THETA_0Z,
    THETA_1Z,
    apply_filter,
    bloch_of_state,
    build_transmission_matrix,
)

from virtual_states import virtual_state_coeffs


def one(value):
    return np.array([value], dtype=float)


# an m0 or m1 bound, and a phase-error rate bound, of one point
bound = phase = one


def expected_counts(cfg, intens, p_z, n_total):
    """The expected CountsBatch of one point on link ``cfg``, given its
    levels (``ProtocolParams.intensities``), and its Z error rate."""
    nominal, _, _, prob = intens
    layout = CellLayout.of(nominal, prob, one(p_z))
    counts, e_z = ChannelModel(cfg).expected_counts(layout, n_total)
    return counts, float(e_z[0])


def counts(z_by_k=(0.0, 0.0, 0.0), n_z=0.0, cells=None, trials=None):
    """The CountsBatch of one run: Z counts per K_LABELS entry, and
    optionally (3, 16) cells and (16,) configuration trials, zero
    otherwise."""
    z_by_k = np.array([z_by_k], dtype=float)
    return CountsBatch(
        cells=np.zeros((1, 3, 16)) if cells is None else np.array([cells], dtype=float),
        trials=np.zeros((1, 16)) if trials is None else np.array([trials], dtype=float),
        z_by_k=z_by_k,
        z_tot=z_by_k.sum(axis=1),
        n_z=one(n_z),
    )


def decoy_bounds(counts, intens, budget, mode):
    """m0, m1 and the cell bounds of one run's CountsBatch and one
    point's levels."""
    factors = decoy_factors(*intens[1:])
    m0, m1 = aggregate_bounds(counts, factors, budget, mode)
    return m0, m1, cell_bounds(counts, factors, budget, mode)


def cell(cells, a, y, b, y1):
    """The lower0, lower1 and upper1 bounds of one cell, (B,) arrays."""
    i = CELLS.index((a, y, b, y1))
    return CellBoundsBatch(*(part[:, i] for part in cells))


def filtered_states(xi, norm=1.0):
    """The filtered Z0, Z1 and X0 states of the proportional flaw model at
    xi, each Bloch vector scaled by ``norm``.  At 1 they are the pure
    states the library builds; cos(d) gives the equal mixture of the flaw
    angles delta - d and delta + d, whose states are mixed."""
    return [apply_filter(*(norm * r for r in bloch_of_state(theta, xi)))
            for theta in (THETA_0Z, THETA_1Z, THETA_0X)]


def source_model(xi, p_z, norm=1.0):
    """The VirtualStateCoeffs of the ``filtered_states`` at (xi, norm) and
    p_z, built without the library's memo."""
    s0z, s1z, s0x = filtered_states(xi, norm)
    a_inv = build_transmission_matrix(s0z, s1z, s0x).a_inv
    return virtual_state_coeffs(s0z, s1z, a_inv, p_z)


def phase_bound(xi, p_z, cells, m1, budget, norm=1.0):
    """The phase-error bound of one point with the ``source_model`` at
    (xi, p_z, norm)."""
    qm = source_model(xi, p_z, norm)
    weights = phase_weights(term_coeffs(qm.c, qm.w), one(p_z))
    return phase_by_sign(weights, cells, m1, budget)


def phase_by_sign(weights, cells, m1, budget):
    """The phase-error bound of one point from its (1, 6) ``weights`` and
    every cell's bounds ``cells``: each term takes the lower bound of its
    cell where its weight is <= 0 and the upper one elsewhere."""
    terms, lower = lower_terms(weights[0])
    part = CellBoundsBatch(cells.lower0[:, list(lower)], cells.lower1[:, list(lower)],
                           cells.upper1)
    return n_ph_upper_batch(weights, part, m1, budget, terms)


def key_length(m0, m1, e_ph, lam_ec, budget, *, n_total, e_z=0.0, z_ks_size=0.0):
    """The key length of one point, as a KeyRateResult."""
    return key_length_batch(
        m0, m1, e_ph, one(lam_ec), budget,
        n_total=n_total, e_z=one(e_z), z_ks_size=one(z_ks_size),
    ).result(0)
