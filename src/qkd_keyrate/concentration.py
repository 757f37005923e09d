"""Concentration inequalities for finite-sample estimation.

The one implementation of every tail bound the library uses: the decoy
mean estimates, m0 and m1's mean-to-count step, the phase-error
deviations and the coverage suite of ``validate`` all call these
functions.  Each is a numpy function of a count or a size and of
``log_inv`` = ln(1/eps), the value ``EpsilonBudget.log_inv`` returns, so
an epsilon far below 1e-300 never has to be formed.  Arguments broadcast
against each other; a float in gives a numpy float out.

- Chernoff (needs the true mean): deviations ``sqrt(2 mu ln(1/eps))``
  below and ``sqrt(3 mu ln(1/eps))`` above, valid only for means large
  enough that ``mu > 2 ln(1/eps)`` resp. ``mu > 3 ln(1/eps)``.
- Hoeffding (mean-free): ``sqrt(N/2 ln(1/eps))`` both sides, always valid.
- Multiplicative Chernoff (mean-free, usually tighter than Hoeffding for
  sparse counts): deviations built from the observed count, valid under a
  lower bound on the mean obtained via Hoeffding.
- Azuma (martingales with bounded differences): ``sqrt(2 N ln(1/eps))``,
  no independence assumption needed.

The validity conditions are predicates of their own, and no deviation
checks its arguments: counts and sizes are nonnegative and ``log_inv``
positive, as the callers guarantee.  An ``above`` selector is a bool or
a boolean array that broadcasts against the counts, so that one call
can serve rows of either side.  Each formula keeps the order of
operations the estimation chain has always used: reordering one (say,
``2 x * 1.5 L`` for ``x * 3 L``) moves the last bits of the results.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "azuma_dev",
    "chernoff_dev",
    "chernoff_valid",
    "hoeffding_dev",
    "hoeffding_or_mult_chernoff_dev",
    "mult_chernoff_dev",
    "mult_chernoff_scale",
    "mult_chernoff_valid",
]

_LOG2 = math.log(2.0)
_TWO_LOG16 = 2.0 * math.log(16.0)


def _pick(above, if_above, if_below):
    """``if_above`` where ``above``, else ``if_below``: a float for a bool
    (without numpy's per-call cost), an array for a boolean array."""
    if isinstance(above, (bool, np.bool_)):
        return if_above if above else if_below
    return np.where(above, if_above, if_below)


def chernoff_dev(mean, log_inv, above):
    """Chernoff deviation of a Bernoulli sum with known ``mean``:
    ``sqrt(2 mean ln(1/eps))`` below it, ``sqrt(3 mean ln(1/eps))`` above."""
    return np.sqrt(_pick(above, 3.0, 2.0) * mean * log_inv)


def chernoff_valid(mean, log_inv, above):
    """Where ``chernoff_dev`` holds: ``mean > 2 ln(1/eps)`` below the mean,
    ``mean > 3 ln(1/eps)`` above it.  No caller in the key-rate chain:
    below, an invalid deviation is at least the mean, a bound of 0."""
    return mean > _pick(above, 3.0, 2.0) * log_inv


def hoeffding_dev(size, log_inv):
    """Hoeffding deviation ``sqrt(size/2 ln(1/eps))``; always valid."""
    return np.sqrt(size / 2.0 * log_inv)


def mult_chernoff_dev(observed, log_inv, above):
    """Multiplicative-Chernoff deviation built from an observed count.

    ``sqrt(observed (3 ln(1/eps)))`` below, i.e. ``g(observed,
    eps^(3/2))``, and ``sqrt(observed (8 ln(1/eps) + 2 ln 16))`` above,
    i.e. ``g(observed, eps^4/16)``, with ``g(x, y) = sqrt(2 x ln(1/y))``.
    It holds where ``mult_chernoff_valid`` does; its validity rests on a
    Hoeffding event whose failure probability is charged on top.
    """
    return np.sqrt(observed * mult_chernoff_scale(log_inv, above))


def mult_chernoff_scale(log_inv, above):
    """The c of ``mult_chernoff_dev`` = ``sqrt(observed c)``, which a
    caller with fixed allocations forms once."""
    return _pick(above, 8.0, 3.0) * log_inv + _pick(above, _TWO_LOG16, 0.0)


def hoeffding_or_mult_chernoff_dev(size, log_inv, observed, scale):
    """The smaller of ``hoeffding_dev(size, log_inv)`` and the
    ``mult_chernoff_dev`` of ``observed`` at ``mult_chernoff_scale``
    ``scale``, as the same float: the root of the smaller square."""
    return np.sqrt(np.fmin(size / 2.0 * log_inv, observed * scale))


def mult_chernoff_valid(observed, size, log_inv_h, log_inv, above):
    """Where ``mult_chernoff_dev`` holds.

    A mean lower bound ``mu_L = observed - hoeffding_dev(size,
    log_inv_h)`` is formed first; the deviation is valid only when
    ``mu_L > 0`` and

        ln(1/eps) / mu_L < 1/3        below the mean,
        ln(2/eps) / mu_L <= 9/32      above it.

    A two-sided estimate needs both, with failure probability
    eps_h + eps_below + eps_above.
    """
    mu_l = observed - hoeffding_dev(size, log_inv_h)
    positive = mu_l > 0.0
    # divide only where mu_L > 0; the rest is invalid anyway
    safe = np.where(positive, mu_l, 1.0)
    return positive & _pick(
        above, (_LOG2 + log_inv) / safe <= 9.0 / 32.0, log_inv / safe < 1.0 / 3.0
    )


def azuma_dev(size, log_inv):
    """Azuma deviation ``sqrt(2 size ln(1/eps))`` for unit-bounded martingales."""
    return np.sqrt(2.0 * size * log_inv)
