"""Upper bound on the phase-error count of the single-photon sifted key.

The estimator reconstructs the two virtual-state detection counts from
observable X-basis statistics.  Each of the two halves (indexed by the
virtual bit s) combines three collective-measurement outcomes; the
coefficient of each outcome decides whether the worst case takes the
upper or the lower decoy bound of the matching cell, shifted by a
martingale deviation over N_1.  N_1 is not the number of signal
single-photon emissions: it is the sum of the per-cell ``upper1``
bounds, an upper bound on the detected signal-intensity single-photon
events summed over the sixteen (sender state, receiver outcome) cells.

Two implementations are provided: the general path driven by the
source-characterisation coefficients, and the closed form valid for the
proportional flaw model with equal signal/reference intensities.  They
agree to float accuracy and serve as mutual cross-checks.
``n_ph_upper_batch`` is the general path for a batch of points, equal to
``n_ph_upper_general`` point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .budget import EpsilonBudget
from .concentration import azuma_dev
from .decoy import CELLS, BoundBatch, CellBounds, CellBoundsBatch, DecoyBound, py_max
from .qubit_model import VirtualStateCoeffs

__all__ = [
    "PhaseErrorBatch",
    "PhaseErrorBound",
    "n1_upper",
    "n_mxs",
    "n_ph_appendixE",
    "n_ph_upper_batch",
    "n_ph_upper_general",
    "phase_terms",
]

Cell = tuple[str, int, str, int]

# collective outcome -> (sender basis, sender bit); the receiver side is
# the X basis with the outcome chosen per half
_OMEGA_CELL = {3: ("Z", 0), 4: ("Z", 1), 5: ("X", 0)}


@dataclass(frozen=True)
class PhaseErrorBound:
    """Phase-error bound with diagnostics.

    ``e_ph_upper`` is ``n_ph_upper / m1`` clamped to [0, 1]; 1.0 doubles
    as the abort signal when the single-photon bound is empty or the
    phase bound exceeds it.  ``term_log`` records every summand.
    """

    n_ph_upper: float
    n1_upper: float
    e_ph_upper: float
    failure_prob: float
    term_log: tuple[dict, ...]


def n1_upper(cell_bounds: Mapping[Cell, CellBounds]) -> float:
    """Sum of the per-cell ``upper1`` bounds, the N_1 of the deviations.

    Each ``upper1`` bounds the signal-intensity single-photon detection
    events of one (sender state, receiver basis/outcome) cell, so the sum
    over all sixteen cells bounds the detected signal single-photon
    events, not the emissions; cells the protocol never populates
    contribute zero.
    """
    total = 0.0
    for a in ("Z", "X"):
        for y in (0, 1):
            for b in ("Z", "X"):
                for y1 in (0, 1):
                    cb = cell_bounds.get((a, y, b, y1))
                    if cb is not None:
                        total += cb.upper1.value
    return total


def n_mxs(
    omega: int,
    s: int,
    sign: int,
    cell_bounds: Mapping[Cell, CellBounds],
    q: float,
    eps: float | None,
) -> float:
    """Worst-case normalized count for collective outcome ``omega``.

    ``s`` is the receiver's X-basis outcome selecting the cell, ``q`` the
    outcome weight Q(omega).  ``sign`` (+1/-1) is the sign of the
    coefficient this term carries in the phase-error sum: a positive
    coefficient takes the upper decoy bound plus its deviation, a
    negative one the lower decoy bound minus it (floored at zero, a
    count cannot be negative).  ``eps=None`` disables the deviation.
    """
    if omega not in _OMEGA_CELL:
        raise ValueError(f"omega must be 3, 4 or 5, got {omega!r}")
    if s not in (0, 1):
        raise ValueError("s must be a bit")
    if q <= 0.0:
        raise ValueError("outcome weight q must be positive")
    a, y = _OMEGA_CELL[omega]
    cb = cell_bounds.get((a, y, "X", s))
    if cb is None:
        raise KeyError(f"missing cell bounds for {(a, y, 'X', s)!r}")
    dev = 0.0 if eps is None else azuma_dev(n1_upper(cell_bounds), eps)
    if sign > 0:
        return (cb.upper1.value + dev) / q
    return max(0.0, cb.lower1.value - dev) / q


def _alloc(budget: EpsilonBudget | None, name: str) -> float | None:
    return None if budget is None else budget.alloc(name)


def _dev(budget: EpsilonBudget | None, n1: float, name: str) -> float:
    eps = _alloc(budget, name)
    return 0.0 if eps is None else azuma_dev(n1, eps)


def n_ph_upper_general(
    qm: VirtualStateCoeffs,
    cell_bounds: Mapping[Cell, CellBounds],
    m1: DecoyBound,
    budget: EpsilonBudget | None,
) -> PhaseErrorBound:
    """Phase-error bound for an arbitrary characterised source.

    For each half s the coefficients of the three collective outcomes
    are 1 + (-1)^s sum_t w_t C_{t,0}, 1 + (-1)^s sum_t w_t C_{t,1} and
    (-1)^s sum_t w_t C_{t,2}; the prefactor P(s+1)/(2(1 +- overlap))
    reduces algebraically to p_z^2/4.  The receiver outcome feeding half
    s is s XOR 1, which also tags the deviation epsilons.
    """
    n1 = n1_upper(cell_bounds)
    sums = [
        qm.w[0] * qm.c[0, l] + qm.w[1] * qm.c[1, l] for l in range(3)
    ]
    n_ph = 0.0
    log: list[dict] = []
    failure = 0.0
    for s in (0, 1):
        o = s ^ 1
        sgn = 1.0 if s == 0 else -1.0
        denom = 2.0 * (1.0 + sgn * qm.overlap)
        if abs(denom) > 1e-12:
            pref = qm.probs[s + 1] / denom
        else:
            # both virtual states collapse onto one; the ratio's limit
            pref = (qm.probs[1] + qm.probs[2]) / 4.0
        coeffs = {3: 1.0 + sgn * sums[0], 4: 1.0 + sgn * sums[1], 5: sgn * sums[2]}
        for omega in (3, 4, 5):
            coef = coeffs[omega]
            name = f"ph.az.{o}.{omega}"
            if budget is not None:
                failure += budget.alloc(name)
            if coef == 0.0:
                continue
            sign = 1 if coef > 0.0 else -1
            value = n_mxs(omega, o, sign, cell_bounds, qm.q[omega], _alloc(budget, name))
            n_ph += pref * coef * value
            a, y = _OMEGA_CELL[omega]
            cb = cell_bounds[(a, y, "X", o)]
            used = cb.upper1 if sign > 0 else cb.lower1
            failure += used.failure_prob
            log.append(
                {
                    "s": s,
                    "omega": omega,
                    "outcome": o,
                    "coefficient": pref * coef,
                    "bound": "upper" if sign > 0 else "lower",
                    "value": value,
                    "contribution": pref * coef * value,
                }
            )
        tail_name = f"ph.az.{o}.{s + 1}"
        tail = _dev(budget, n1, tail_name)
        if budget is not None:
            failure += budget.alloc(tail_name)
        n_ph += tail
        log.append(
            {"s": s, "omega": s + 1, "outcome": o, "coefficient": 1.0,
             "bound": "azuma", "value": tail, "contribution": tail}
        )
    n_ph = max(0.0, n_ph)
    if m1.value <= 0.0:
        e_ph = 1.0
    else:
        e_ph = min(1.0, n_ph / m1.value)
    return PhaseErrorBound(
        n_ph_upper=n_ph,
        n1_upper=n1,
        e_ph_upper=e_ph,
        failure_prob=min(failure, 1.0 - 1e-300),
        term_log=tuple(log),
    )


class PhaseErrorBatch(NamedTuple):
    """PhaseErrorBound's numbers for a batch of points, (B,) arrays."""

    n_ph_upper: np.ndarray
    n1_upper: np.ndarray
    e_ph_upper: np.ndarray
    failure_prob: np.ndarray


# (half s, collective outcome omega) in the order n_ph_upper_general sums
# them; after omega 5 of each half comes that half's tail deviation
_TERMS = tuple((s, omega) for s in (0, 1) for omega in (3, 4, 5))
# per term: its cell, and the allocation names of its deviation and of the
# half's tail
_TERM_CELLS = np.array(
    [CELLS.index((*_OMEGA_CELL[omega], "X", s ^ 1)) for s, omega in _TERMS]
)
# columns of the running sums, in the scalar order.  n_ph: per half its
# three terms, then its tail.  The failure: per term its allocation and
# the failure of the cell bound it used, per half then the tail's allocation.
_TERM_COLS, _TAIL_COLS = np.array([0, 1, 2, 4, 5, 6]), np.array([3, 7])
_ALLOC_COLS, _TAIL_ALLOC_COLS = np.array([0, 2, 4, 7, 9, 11]), np.array([6, 13])
_TERM_NAMES = tuple(f"ph.az.{s ^ 1}.{omega}" for s, omega in _TERMS)
_TAIL_NAMES = tuple(f"ph.az.{s ^ 1}.{s + 1}" for s in (0, 1))


def phase_terms(qm: VirtualStateCoeffs) -> tuple[tuple[float, float, float], ...]:
    """Per term of _TERMS: (prefactor times coefficient, coefficient, Q(omega)).

    These depend on the source alone, so a batch forms them once per
    distinct source, as ``n_ph_upper_general`` forms them.
    """
    sums = [
        qm.w[0] * qm.c[0, l] + qm.w[1] * qm.c[1, l] for l in range(3)
    ]
    out = []
    for s, omega in _TERMS:
        sgn = 1.0 if s == 0 else -1.0
        denom = 2.0 * (1.0 + sgn * qm.overlap)
        if abs(denom) > 1e-12:
            pref = qm.probs[s + 1] / denom
        else:
            pref = (qm.probs[1] + qm.probs[2]) / 4.0
        coef = {3: 1.0 + sgn * sums[0], 4: 1.0 + sgn * sums[1], 5: sgn * sums[2]}[omega]
        if coef != 0.0 and qm.q[omega] <= 0.0:
            raise ValueError("outcome weight q must be positive")
        out.append((float(pref * coef), float(coef), float(qm.q[omega])))
    return tuple(out)


def n_ph_upper_batch(
    terms: np.ndarray,
    cells: CellBoundsBatch,
    m1: BoundBatch,
    budget: EpsilonBudget | None,
) -> PhaseErrorBatch:
    """``n_ph_upper_general`` for a batch of points.

    ``terms`` is (B, 6, 3): ``phase_terms`` of each point's source.  The
    sums are running sums (``np.add.accumulate``) over the summands in
    the scalar order, so each point's numbers equal its scalar ones; a
    term with a zero coefficient adds an exact zero.
    """
    upper, lower = cells.upper1, cells.lower1
    count = len(m1.value)
    # running sums (0 + x = x for the nonnegative first summands)
    n1 = np.add.accumulate(upper.value, axis=1)[:, -1]
    pc, coef, q = terms[:, :, 0], terms[:, :, 1], terms[:, :, 2]
    up = coef > 0.0
    used = coef != 0.0
    if budget is None:
        dev = tail = 0.0
    else:
        eps, log_inv = budget.alloc_table(_TERM_NAMES)
        tail_eps, tail_log_inv = budget.alloc_table(_TAIL_NAMES)
        dev = np.sqrt(2.0 * n1[:, None] * log_inv)
        tail = np.sqrt(2.0 * n1[:, None] * tail_log_inv)
    value = np.where(
        up,
        (upper.value[:, _TERM_CELLS] + dev) / q,
        py_max(0.0, lower.value[:, _TERM_CELLS] - dev) / q,
    )
    summands = np.empty((count, 8))
    summands[:, _TERM_COLS] = np.where(used, pc * value, 0.0)
    summands[:, _TAIL_COLS] = tail
    # a -0.0 first summand only changes the sign of a zero sum, which the
    # clamp removes
    n_ph = py_max(0.0, np.add.accumulate(summands, axis=1)[:, -1])
    if budget is None:
        failure = np.zeros(count)
    else:
        cell_failure = np.where(
            up,
            upper.failure_prob[:, _TERM_CELLS],
            lower.failure_prob[:, _TERM_CELLS],
        )
        summands = np.empty((count, 14))
        summands[:, _ALLOC_COLS] = eps
        summands[:, _ALLOC_COLS + 1] = np.where(used, cell_failure, 0.0)
        summands[:, _TAIL_ALLOC_COLS] = tail_eps
        failure = np.add.accumulate(summands, axis=1)[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = n_ph / m1.value
    e_ph = np.where(m1.value <= 0.0, 1.0, np.where(ratio < 1.0, ratio, 1.0))
    return PhaseErrorBatch(
        n_ph_upper=n_ph,
        n1_upper=n1,
        e_ph_upper=e_ph,
        failure_prob=np.where(1.0 - 1e-300 < failure, 1.0 - 1e-300, failure),
    )


def n_ph_appendixE(
    xi: float,
    p_z: float,
    cell_bounds: Mapping[Cell, CellBounds],
    budget: EpsilonBudget | None,
) -> float:
    """Closed-form phase-error bound for the proportional flaw model.

    Valid when the receiver's modulation error mirrors the sender's and
    the signal and reference pulses are balanced; under those conditions
    only one eigenvector per Z state survives and the general sum
    collapses to three terms plus the two tail deviations.
    """
    if not (0.0 < p_z < 1.0):
        raise ValueError("p_z must lie strictly in (0, 1)")
    p_x = 1.0 - p_z
    n1 = n1_upper(cell_bounds)
    half = (1.0 - math.sin(xi / 2.0)) / 2.0
    ratio = p_z / p_x
    up_x0x1 = cell_bounds[("X", 0, "X", 1)].upper1.value
    up_z0x0 = cell_bounds[("Z", 0, "X", 0)].upper1.value
    up_z1x0 = cell_bounds[("Z", 1, "X", 0)].upper1.value
    low_x0x0 = cell_bounds[("X", 0, "X", 0)].lower1.value
    return (
        half * ratio**2 * (up_x0x1 + _dev(budget, n1, "ph.az.1.5"))
        + ratio
        * (
            up_z0x0
            + up_z1x0
            + _dev(budget, n1, "ph.az.0.3")
            + _dev(budget, n1, "ph.az.0.4")
        )
        - half
        * ratio**2
        * max(0.0, low_x0x0 - _dev(budget, n1, "ph.az.0.5"))
        + _dev(budget, n1, "ph.az.1.1")
        + _dev(budget, n1, "ph.az.0.2")
    )
