"""Concentration inequalities for finite-sample estimation.

Four bounds are provided, each as a pure deviation-term function:

- Chernoff (needs the true mean): deviations ``sqrt(2 mu ln(1/eps))`` below
  and ``sqrt(3 mu ln(1/eps))`` above, valid only for means large enough that
  ``mu > 2 ln(1/eps)`` resp. ``mu > 3 ln(1/eps)``.
- Hoeffding (mean-free): ``sqrt(N/2 ln(1/eps))`` both sides, always valid.
- Multiplicative Chernoff (mean-free, usually tighter than Hoeffding for
  sparse counts): deviations built from the observed count, valid under a
  lower bound on the mean obtained via Hoeffding.
- Azuma (martingales with bounded differences): ``sqrt(2 N ln(1/eps))``,
  no independence assumption needed.

All logarithms are taken in log-space (``-log(eps)``) so that epsilon values
far below 1e-300 raised to powers never underflow.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "Lemma",
    "DeviationResult",
    "chernoff_devs",
    "hoeffding_dev",
    "mult_chernoff_devs",
    "azuma_dev",
    "best_mean_bound",
]


class Lemma(enum.Enum):
    """Which concentration inequality produced a deviation term."""

    CHERNOFF = "Chernoff"
    HOEFFDING = "Hoeffding"
    MULT_CHERNOFF = "MultChernoff"
    AZUMA = "Azuma"


def _check_prob(eps: float, name: str = "eps") -> None:
    if not (0.0 < eps < 1.0):
        raise ValueError(f"{name} must lie strictly in (0, 1), got {eps!r}")


def _log_inv(eps: float) -> float:
    # ln(1/eps) without forming 1/eps
    return -math.log(eps)


@dataclass(frozen=True)
class DeviationResult:
    """Two-sided deviation terms plus the validity verdict of the lemma used."""

    lower_dev: float
    upper_dev: float
    valid: bool
    lemma_used: Lemma


def chernoff_devs(mean: float, eps_lo: float, eps_hi: float) -> DeviationResult:
    """Chernoff deviations for a Bernoulli sum with known mean.

    Returns ``sqrt(2 mean ln(1/eps_lo))`` below and ``sqrt(3 mean
    ln(1/eps_hi))`` above.  The result is flagged invalid unless both
    ``sqrt(2 ln(1/eps_lo) / mean)`` and ``sqrt(3 ln(1/eps_hi) / mean)`` lie
    strictly inside (0, 1); callers are expected to fall back to Hoeffding
    when that happens.
    """
    if mean < 0:
        raise ValueError("mean must be nonnegative")
    _check_prob(eps_lo, "eps_lo")
    _check_prob(eps_hi, "eps_hi")
    lower = math.sqrt(2.0 * mean * _log_inv(eps_lo))
    upper = math.sqrt(3.0 * mean * _log_inv(eps_hi))
    valid = (
        mean > 0.0
        and 0.0 < 2.0 * _log_inv(eps_lo) / mean < 1.0
        and 0.0 < 3.0 * _log_inv(eps_hi) / mean < 1.0
    )
    return DeviationResult(lower, upper, valid, Lemma.CHERNOFF)


def hoeffding_dev(trials: float, eps: float) -> float:
    """Hoeffding deviation ``sqrt(trials/2 ln(1/eps))``; always valid."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    _check_prob(eps)
    return math.sqrt(trials / 2.0 * _log_inv(eps))


def mult_chernoff_devs(
    observed: float,
    trials: float,
    eps_h: float,
    eps_m: float,
    eps_m_hat: float,
) -> DeviationResult:
    """Multiplicative Chernoff deviations built from an observed count.

    A mean lower bound ``mu_L = observed - sqrt(trials/2 ln(1/eps_h))`` is
    formed first; the bound is valid only when

        ln(2/eps_m_hat) / mu_L <= 9/32   and   ln(1/eps_m) / mu_L < 1/3

    with ``mu_L > 0``.  The deviations are ``sqrt(3 observed ln(1/eps_m))``
    below (i.e. ``g(observed, eps_m^(3/2))``) and ``g(observed,
    eps_m_hat^4/16)`` above.  Total failure probability when used two-sided
    is ``eps_h + eps_m + eps_m_hat``.
    """
    if observed < 0:
        raise ValueError("observed must be nonnegative")
    if observed > trials:
        raise ValueError("observed cannot exceed trials")
    _check_prob(eps_h, "eps_h")
    _check_prob(eps_m, "eps_m")
    _check_prob(eps_m_hat, "eps_m_hat")
    # ln(1/eps^(3/2)) = 1.5 ln(1/eps); ln(16/eps^4) = 4 ln(1/eps) + ln 16
    lower = math.sqrt(2.0 * observed * 1.5 * _log_inv(eps_m))
    upper = math.sqrt(2.0 * observed * (4.0 * _log_inv(eps_m_hat) + math.log(16.0)))
    mu_l = observed - hoeffding_dev(trials, eps_h)
    valid = (
        mu_l > 0.0
        and (math.log(2.0) + _log_inv(eps_m_hat)) / mu_l <= 9.0 / 32.0
        and _log_inv(eps_m) / mu_l < 1.0 / 3.0
    )
    return DeviationResult(lower, upper, valid, Lemma.MULT_CHERNOFF)


def azuma_dev(trials: float, eps: float) -> float:
    """Azuma deviation ``sqrt(2 trials ln(1/eps))`` for unit-bounded martingales."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    _check_prob(eps)
    return math.sqrt(2.0 * trials * _log_inv(eps))


def best_mean_bound(
    observed: float,
    total: float,
    eps: float,
    direction: str,
    eps_h: float | None = None,
) -> tuple[float, float]:
    """Tightest available bound on the mean of a Bernoulli sum.

    Compares the Hoeffding deviation over the total trial count (failure
    ``eps``) against the multiplicative-Chernoff deviation built from the
    observed count itself (failure ``eps + eps_h``) and returns ``(bound,
    failure_prob)`` for the smaller of the two deviations.  The selection is
    an unconditional magnitude min: the multiplicative form depends only on
    the observed count, and the Hoeffding term is the always-valid backstop.
    ``direction`` is "lower" for ``mean >= bound`` and "upper" for ``mean <=
    bound``.  The returned bound is not clamped; a lower bound may be
    negative for tiny counts.
    """
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    if observed < 0:
        raise ValueError("observed must be nonnegative")
    if eps_h is None:
        eps_h = eps
    dev_h = hoeffding_dev(total, eps)
    log16 = math.log(16.0)
    if direction == "lower":
        dev_m = math.sqrt(3.0 * observed * _log_inv(eps))
    else:
        dev_m = math.sqrt(2.0 * observed * (4.0 * _log_inv(eps) + log16))
    if dev_m < dev_h:
        dev, failure = dev_m, eps + eps_h
    else:
        dev, failure = dev_h, eps
    bound = observed - dev if direction == "lower" else observed + dev
    return bound, failure
