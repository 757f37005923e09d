"""Upper bound on the phase-error count of the single-photon sifted key.

The estimator reconstructs the two virtual-state detection counts from
observable X-basis statistics.  Each of the two halves (indexed by the
virtual bit s) combines three collective-measurement outcomes; the
sign of each outcome's weight decides whether the worst case takes the
upper or the lower decoy bound of the matching cell, shifted by a
martingale deviation over N_1.  N_1 is not the number of signal
single-photon emissions: it is the sum of the per-cell ``upper1``
bounds, an upper bound on the detected signal-intensity single-photon
events summed over the sixteen (sender state, receiver outcome) cells.
Each deviation is charged to its own ``ph.az`` allocation; the split is
equal, so one Azuma deviation over N_1 serves every term and tail.  N_1
rests on the mean estimates of all sixteen cells, so no per-estimate
failure sum is kept: the key length charges the budget's whole eta once.

Two implementations are provided: ``n_ph_upper_batch``, the general path,
and ``n_ph_appendixE``, the closed form valid for the proportional flaw
model with equal signal/reference intensities.  They agree to float
accuracy and serve as mutual cross-checks.  Both take a batch of points
with a leading batch axis; one point is a batch of one.  The general
path weights six cell bounds by ``phase_weights``: each term's source
coefficient (``term_coeffs``, which depends on the source alone) times a
closed form in p_z.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .budget import EpsilonBudget
from .concentration import azuma_dev
from .decoy import CELLS, CellBoundsBatch

__all__ = [
    "PhaseErrorBatch",
    "lower_terms",
    "n_ph_appendixE",
    "n_ph_upper_batch",
]

# collective outcome -> (sender basis, sender bit); the receiver side is
# the X basis with the outcome chosen per half
_OMEGA_CELL = {3: ("Z", 0), 4: ("Z", 1), 5: ("X", 0)}


class PhaseErrorBatch(NamedTuple):
    """Phase-error bound of a batch of points, (B,) arrays.

    ``e_ph_upper`` is ``n_ph_upper / m1`` clamped to [0, 1]; 1.0 doubles
    as the abort signal when the single-photon bound is empty or the
    phase bound exceeds it.  ``n1_upper`` is the N_1 of the deviations.
    """

    n_ph_upper: np.ndarray
    n1_upper: np.ndarray
    e_ph_upper: np.ndarray


# (half s, collective outcome omega) of each term of the bound
_TERMS = tuple((s, omega) for s in (0, 1) for omega in (3, 4, 5))
# per term its cell; the allocation names of the terms' deviations, then
# of the two halves' tails
_TERM_CELLS = np.array(
    [CELLS.index((*_OMEGA_CELL[omega], "X", s ^ 1)) for s, omega in _TERMS]
)
_DEV_NAMES = (
    *(f"ph.az.{s ^ 1}.{omega}" for s, omega in _TERMS),
    *(f"ph.az.{s ^ 1}.{s + 1}" for s in (0, 1)),
)


def term_coeffs(c: np.ndarray, w: tuple[float, float]) -> np.ndarray:
    """Per term of _TERMS its source coefficient, (6,), from the ``c`` and
    ``w`` of ``qubit_model.pair_coeffs``.

    For each half s the coefficients of the three collective outcomes
    are 1 + (-1)^s sum_t w_t C_{t,0}, 1 + (-1)^s sum_t w_t C_{t,1} and
    (-1)^s sum_t w_t C_{t,2}.  They depend on the source alone, not on
    p_z.
    """
    z0, z1, x = w[0] * c[0] + w[1] * c[1]
    return np.array([1.0 + z0, 1.0 + z1, x, 1.0 - z0, 1.0 - z1, -x])


def phase_weights(coeffs: np.ndarray, p_z: np.ndarray) -> np.ndarray:
    """(B, 6) weights of the terms' cell bounds at each point's p_z.

    A term's weight is its prefactor P(s+1)/(2(1 +- overlap)) times its
    coefficient over the outcome weight Q(omega).  The prefactor reduces
    to p_z^2/4, and Q(omega) is p_z(1-p_z)/2 for omega = 3, 4 and
    (1-p_z)^2 for omega = 5.  So with r = p_z/(1-p_z), the ratio of the
    closed form, the weight is the coefficient times r/2, and times
    (r/2)^2 for omega = 5.  The receiver outcome feeding half s is
    s XOR 1, which also tags the deviation epsilons.
    """
    half = p_z / (1.0 - p_z) / 2.0
    sq = half * half
    return coeffs * np.array([half, half, sq, half, half, sq]).T


def lower_terms(coeffs: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The terms whose weight can be <= 0 at the source coefficients
    ``coeffs`` and their cells (indices into CELLS), in term order: the
    only cells whose lower bound ``n_ph_upper_batch`` reads.

    A term's weight is its coefficient times a positive closed form in
    p_z (``phase_weights``), or 0 where that underflows, and a zero
    weight adds zero whichever bound its term takes.  So every other
    term may take the upper bound.
    """
    terms = np.flatnonzero(~(coeffs > 0.0))
    return tuple(terms.tolist()), tuple(_TERM_CELLS[terms].tolist())


def n_ph_upper_batch(
    weights: np.ndarray,
    cells: CellBoundsBatch,
    m1: np.ndarray,
    budget: EpsilonBudget | None,
    terms: tuple[int, ...],
) -> PhaseErrorBatch:
    """Phase-error bound for an arbitrary characterised source, per point.

    ``weights`` is (B, 6): ``phase_weights`` of each point.  A term with
    a positive weight takes the upper decoy bound of its cell plus its
    Azuma deviation over N_1, any other the lower bound minus it
    (floored at zero, a count cannot be negative); each half then adds
    its tail deviation.  A term with a zero weight adds zero.

    ``cells`` holds every cell's upper1, and ``terms`` and the cells of
    ``cells.lower1``'s columns are a ``lower_terms`` pair: those terms
    take the lower bound and the others the upper one, the same bounds
    as a choice by the sign of each point's weight, for weights whose
    signs are those of the pair's coefficients.
    """
    upper = cells.upper1
    n1 = upper.sum(axis=1)
    if budget is None:
        dev = tail = 0.0
    else:
        dev = azuma_dev(n1[:, None], budget.log_inv(_DEV_NAMES))
        tail = dev[:, 0] + dev[:, 0]
    value = upper[:, _TERM_CELLS] + dev
    value[:, terms] = np.maximum(cells.lower1 - dev, 0.0)
    n_ph = np.maximum((weights * value).sum(axis=1) + tail, 0.0)
    # 1.0 where the single-photon bound is empty
    ratio = np.divide(n_ph, m1, out=np.ones(len(n1)), where=m1 > 0.0)
    return PhaseErrorBatch(
        n_ph_upper=n_ph, n1_upper=n1, e_ph_upper=np.minimum(ratio, 1.0)
    )


# the allocations of the closed form's deviations, in its order: the
# X0->X1 term, the two Z->X0 terms, the X0->X0 term, the two tails
_APPENDIX_E_NAMES = (
    "ph.az.1.5", "ph.az.0.3", "ph.az.0.4", "ph.az.0.5", "ph.az.1.1", "ph.az.0.2",
)
_X0X1, _Z0X0, _Z1X0, _X0X0 = (
    CELLS.index((a, y, "X", y1))
    for a, y, y1 in (("X", 0, 1), ("Z", 0, 0), ("Z", 1, 0), ("X", 0, 0))
)


def n_ph_appendixE(
    xi: float,
    p_z: np.ndarray,
    cells: CellBoundsBatch,
    budget: EpsilonBudget | None,
) -> np.ndarray:
    """Closed-form phase-error bound for the proportional flaw model, (B,).

    Valid when the receiver's modulation error mirrors the sender's and
    the signal and reference pulses are balanced; under those conditions
    only one eigenvector per Z state survives and the general sum
    collapses to three terms plus the two tail deviations.  ``p_z`` is
    each point's Z-basis probability.
    """
    p_z = np.asarray(p_z, dtype=float)
    if not np.all((0.0 < p_z) & (p_z < 1.0)):
        raise ValueError("p_z must lie strictly in (0, 1)")
    ratio = p_z / (1.0 - p_z)
    half_r2 = (1.0 - math.sin(xi / 2.0)) / 2.0 * ratio * ratio
    upper, lower = cells.upper1, cells.lower1
    n1 = upper.sum(axis=1)
    dev = 0.0 if budget is None else azuma_dev(n1, budget.log_inv(_APPENDIX_E_NAMES))
    return (
        half_r2 * (upper[:, _X0X1] + dev)
        + ratio * (upper[:, _Z0X0] + upper[:, _Z1X0] + dev + dev)
        - half_r2 * np.maximum(lower[:, _X0X0] - dev, 0.0)
        + dev
        + dev
    )
