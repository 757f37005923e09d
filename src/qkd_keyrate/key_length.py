"""Extractable key length from the estimated counts and error bounds.

The length combines the vacuum and single-photon lower bounds with the
privacy-amplification penalty of the phase-error bound, the secrecy and
correctness log terms, and the error-correction leakage.  The log terms
are ``EpsilonBudget.log_terms``: the budget is static, so its whole eta
is charged once, log2(2/(eps_s^2 - eta)) + log2(2/eps_c), whatever the
observed data.  Passing ``budget=None`` drops the two log terms, which
is the asymptotic limit used for cross-checks and optimizer seeding.
``key_length_batch`` computes the length for a batch of points; one
point is a batch of one, and each abort is decided from the length it
computes, not from ``eph_threshold``'s root search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .budget import EpsilonBudget

__all__ = [
    "EpsilonBudget",
    "KeyRateBatch",
    "KeyRateResult",
    "binary_entropy",
    "eph_threshold",
    "key_length_batch",
    "key_length_bound",
    "lambda_ec_batch",
]

F_EC_DEFAULT = 1.16

ABORT_COUNTS = "insufficient_counts"
ABORT_PHASE = "phase_error_threshold"


@dataclass(frozen=True)
class KeyRateResult:
    """Key length, rate, and the inputs that produced them.

    ``aborted`` is true exactly when no key can be extracted; the reason
    is a phase-error abort where only a lower phase-error rate would give
    a positive length, and too few counts otherwise.
    """

    ell: int
    rate: float
    m0_l: float
    m1_l: float
    e_ph_u: float
    lambda_ec: float
    e_z: float
    z_ks_size: float
    aborted: bool
    abort_reason: str | None = None

    def __post_init__(self) -> None:
        if self.ell < 0:
            raise ValueError("key length cannot be negative")
        if self.aborted != (self.ell == 0):
            raise ValueError("aborted must coincide with a zero key length")


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _entropy(x: np.ndarray) -> np.ndarray:
    """``binary_entropy`` of an array with entries in [0, 1]."""
    # -y ln y at y = x and y = 1 - x, stacked so that one log runs over
    # both.  The smallest subnormal stands in for 0 inside the log, so
    # 0 ln 0 raises no warning and gives -0 * ln(5e-324) = +0; it is below
    # every other entry, so it changes no other value
    both = np.array([x, 1.0 - x])
    ent = -both * np.log(np.maximum(both, 5e-324))
    return (ent[0] + ent[1]) / math.log(2.0)


def _pa_penalty(e_ph: float) -> float:
    # the single-photon credit m1 (1 - h(e)) must never turn negative:
    # past 1/2 the entropy is treated as saturated
    return 1.0 if e_ph >= 0.5 else binary_entropy(e_ph)


def eph_threshold(
    m0: float, m1: float, lam_ec: float, budget: EpsilonBudget | None
) -> float:
    """Phase-error rate at which the key length crosses zero.

    The length charges ``budget.log_terms``.  Returns 0 when even a zero
    phase-error rate yields nothing, and 1/2 when the length stays
    positive at saturated entropy (the formula is constant beyond 1/2,
    so no larger rate can force an abort).
    """
    logs = 0.0 if budget is None else budget.log_terms
    ell = lambda e: m0 + m1 * (1.0 - _pa_penalty(e)) - logs - lam_ec

    if ell(0.0) <= 0.0:
        return 0.0
    if ell(0.5) > 0.0:
        return 0.5
    # bisection keeps ell(lo) > 0 >= ell(hi)
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if ell(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class KeyRateBatch(NamedTuple):
    """KeyRateResult's fields for a batch of points, (B,) arrays.

    ``ell`` holds integral floats; ``abort_reason`` is an object array
    of reasons and None.
    """

    ell: np.ndarray
    rate: np.ndarray
    m0_l: np.ndarray
    m1_l: np.ndarray
    e_ph_u: np.ndarray
    lambda_ec: np.ndarray
    e_z: np.ndarray
    z_ks_size: np.ndarray
    abort_reason: np.ndarray

    def result(self, i: int) -> KeyRateResult:
        """The KeyRateResult of point ``i``."""
        ell = int(self.ell[i])
        return KeyRateResult(
            ell=ell,
            rate=float(self.rate[i]),
            m0_l=float(self.m0_l[i]),
            m1_l=float(self.m1_l[i]),
            e_ph_u=float(self.e_ph_u[i]),
            lambda_ec=float(self.lambda_ec[i]),
            e_z=float(self.e_z[i]),
            z_ks_size=float(self.z_ks_size[i]),
            aborted=ell == 0,
            abort_reason=self.abort_reason[i],
        )


# a batch's abort reasons, indexed by code
_REASONS = np.array([None, ABORT_PHASE, ABORT_COUNTS], dtype=object)


def key_length_batch(
    m0: np.ndarray, m1: np.ndarray, e_ph: np.ndarray, lam_ec: np.ndarray,
    budget: EpsilonBudget | None, *, n_total: float, e_z: np.ndarray,
    z_ks_size: np.ndarray,
) -> KeyRateBatch:
    """Extractable key length and rate per point, from the m0 and m1
    bounds and the phase-error rate bound ``e_ph``.

    Aborts are returned, never raised, as ell = 0 with a reason: a
    phase-error abort where the zero-rate length is positive and the
    computed one is not, else too few counts.  Near that threshold the
    reason follows the rounding of h, so it can switch back and forth
    as ``e_ph`` rises; ell is 0 either way.
    """
    if n_total <= 0.0:
        raise ValueError("n_total must be positive")
    logs = 0.0 if budget is None else budget.log_terms
    # the length at a saturated and at the bounded phase-error rate
    # (_pa_penalty); at a zero rate it is at_half + m1, key_length_bound
    at_half = m0 - logs - lam_ec
    raw = at_half + m1 * (1.0 - _entropy(np.minimum(e_ph, 0.5)))
    positive = (m1 > 0.0) & (at_half + m1 > 0.0)
    phase = positive & (raw <= 0.0)
    ell = np.floor(raw)
    # the codes of _REASONS: 0 where keyed, 1 phase, 2 counts
    dropped = ~(positive & (ell > 0.0))
    ell[dropped] = 0.0
    reason = _REASONS[(2 - phase) * dropped]
    return KeyRateBatch(
        ell=ell,
        rate=ell / n_total,
        m0_l=m0,
        m1_l=m1,
        e_ph_u=e_ph,
        lambda_ec=lam_ec,
        e_z=e_z,
        z_ks_size=z_ks_size,
        abort_reason=reason,
    )


def key_length_bound(
    m0: np.ndarray,
    m1: np.ndarray,
    lam_ec: np.ndarray,
    budget: EpsilonBudget | None,
) -> np.ndarray:
    """The key length at a zero phase-error rate, m0 + m1 - logs - lam_ec,
    per point: no phase-error bound can give more.

    It is computed by the operations ``key_length_batch`` uses for its
    raw length, with m1 (1 - h(e_ph)) replaced by m1.  As computed,
    1 - h is at most 1 (h >= 0), and rounding is monotone, so the raw
    length never exceeds this bound, nor does the floored key length,
    nor its rate the bound over n_total.
    """
    logs = 0.0 if budget is None else budget.log_terms
    return m0 - logs - lam_ec + m1


def lambda_ec_batch(
    z_ks_size: np.ndarray, e_z: np.ndarray, f_ec: float = F_EC_DEFAULT
) -> np.ndarray:
    """Error-correction leakage f_EC |Z_ks| h(e_z) in bits, per point."""
    if not f_ec >= 1.0:
        raise ValueError(f"f_ec must be at least 1, got {f_ec!r}")
    if (z_ks_size < 0.0).any():
        raise ValueError("block size must be nonnegative")
    if not ((0.0 <= e_z) & (e_z <= 1.0)).all():
        raise ValueError(f"binary entropy needs x in [0, 1], got {e_z!r}")
    return f_ec * z_ks_size * _entropy(e_z)
