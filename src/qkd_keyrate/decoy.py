"""Decoy-state estimation of vacuum and single-photon contributions.

Three intensity settings (signal ``s`` and decoys ``d1``, ``d2``) yield a
linear program small enough to solve in closed form: lower bounds m0^L and
m1^L on the numbers of detected vacuum and single-photon signal-intensity
events in the sifted Z key, plus generalized lower/upper bounds for any
(sender state, receiver basis/outcome) cell.  Two intensity-control modes
are supported: ``exact`` (the set intensity is the emitted one) and
``fluct`` (only a range [k-, k+] per setting is known, in which case
every inequality is evaluated at its worst-case endpoint and mean values
are estimated without any independence assumption).

The bounds take a batch of parameter points at once, with a leading
batch axis on every array; one point is a batch of one.
``aggregate_bounds`` gives m0 and m1 and ``cell_bounds`` the sixteen
cells, both on the per-point factors of ``decoy_factors``, so a caller
can stop after m0 and m1.  ``IntensityBatch.from_params`` is the one
feasibility rule of a batch's levels.  Each mean estimate takes its
deviation, a ``concentration`` function, from its own allocation of the
static budget, which the key length charges as a whole.  Passing
``budget=None`` zeroes all statistical deviations, which turns the
bounds into their asymptotic (infinite-key) counterparts.  The one-point
functions the batch replaced are kept as the test reference in
``tests/scalar_chain.py``; each point's bounds match them to rounding.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .budget import CELL_IDS, EpsilonBudget
from .concentration import (
    azuma_dev,
    chernoff_dev,
    chernoff_valid,
    hoeffding_dev,
    mult_chernoff_dev,
)

__all__ = [
    "CELLS",
    "K_LABELS",
    "CellBoundsBatch",
    "CountsBatch",
    "IntensityBatch",
    "aggregate_bounds",
    "cell_bounds",
    "decoy_factors",
    "poisson_pk",
]

K_LABELS = ("s", "d1", "d2")

# the sixteen (sender basis, sender bit, receiver basis, receiver bit)
# cells; a batch's cell axis runs in this order
CELLS = tuple(
    (a, y, b, y1)
    for a in ("Z", "X")
    for y in (0, 1)
    for b in ("Z", "X")
    for y1 in (0, 1)
)


def poisson_pk(n: int, k: float) -> float:
    """Poisson photon-number mass e^{-k} k^n / n!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-k + n * math.log(k) - math.lgamma(n + 1))


def distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of ``values`` and, per entry, its index
    into them, an array of the shape of ``values``.

    ``np.unique(..., return_inverse=True)`` gives the same at several
    times the fixed cost per call, which a batch of one would pay.
    """
    ranked = np.sort(values, axis=None)
    first = np.ones(ranked.shape, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    uniq = ranked[first]
    return uniq, np.searchsorted(uniq, values)


# the closed forms take e^{k+}/p of every level; the feasibility rule
# keeps it below e^{K_HI_CAP}, about 1e304 (a float overflows past
# e^{709.78})
K_HI_CAP = 700.0


class LevelBatch(NamedTuple):
    """One intensity setting over a batch, (B,) arrays: the nominal
    intensity, the ends [k-, k+] of its known range and its selection
    probability."""

    nominal: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    prob: np.ndarray

    def take(self, idx: np.ndarray) -> "LevelBatch":
        return LevelBatch(*(a[idx] for a in self))


class IntensityBatch(NamedTuple):
    """The three intensity settings of a batch of points."""

    s: LevelBatch
    d1: LevelBatch
    d2: LevelBatch

    @classmethod
    def from_params(
        cls,
        mode: str,
        r: float,
        p_z: np.ndarray,
        p_s: np.ndarray,
        p_d1: np.ndarray,
        k_s: np.ndarray,
        k_d1: np.ndarray,
        k_d2: np.ndarray,
    ) -> tuple["IntensityBatch", np.ndarray]:
        """Levels for ``mode`` and the mask of feasible points, from (B,)
        arrays.

        This is the one feasibility rule; a point is a batch of one.  A
        point is feasible where 0 < p_z < 1; every level has
        0 <= k- <= k <= k+ and a selection probability p in (0, 1), with
        p_d2 = 1 - p_s - p_d1, and k+ - ln p < K_HI_CAP, so that the closed
        forms' factor e^{k+}/p stays finite; and the ranges are ordered as
        the closed forms need, k_d1- > k_d2+ and k_s- > k_d1+ + k_d2-.  The
        three levels are the rows of (3, B) arrays, tested at once.  An
        unknown mode or a bad ``r`` concerns every point and raises
        ValueError.  A row with fields out of range may form inf - inf,
        ln 0 or ln of a negative number, quietly here; the row is rejected
        anyway.
        """
        if mode not in ("exact", "fluct"):
            raise ValueError(f"mode must be 'exact' or 'fluct', got {mode!r}")
        if mode == "fluct" and not 0.0 <= r < 1.0:
            raise ValueError("relative fluctuation r must lie in [0, 1)")
        with np.errstate(all="ignore"):
            k = np.array([k_s, k_d1, k_d2], dtype=float)
            lo, hi = (k, k) if mode == "exact" else ((1 - r) * k, (1 + r) * k)
            prob = np.array([p_s, p_d1, 1.0 - p_s - p_d1])
            ok = (
                (0.0 <= lo) & (lo <= k) & (k <= hi) & (0.0 < prob) & (prob < 1.0)
                & (hi < K_HI_CAP + np.log(prob))
            ).all(axis=0)
            ok &= (0.0 < p_z) & (p_z < 1.0)
            ok &= lo[1] > hi[2]
            ok &= lo[0] > hi[1] + lo[2]
        return cls(*map(LevelBatch, k, lo, hi, prob)), ok

    def take(self, idx: np.ndarray) -> "IntensityBatch":
        return IntensityBatch(*(lv.take(idx) for lv in self))


class CountsBatch(NamedTuple):
    """Sifted detection statistics of a batch of runs, dense.

    ``cells`` is (B, 3, 16): the K_LABELS axis, then the CELLS axis.
    ``trials`` is (B, 16): the trials of each cell's (sender state,
    receiver basis) configuration, which the martingale deviations range
    over.  ``z_by_k`` is (B, 3), the Z-basis coincidence counts per
    intensity; ``z_tot`` and ``n_z`` (the Z-basis trials) are (B,).
    Counts are real-valued for expected statistics and integer-valued
    for sampled ones.
    """

    cells: np.ndarray
    trials: np.ndarray
    z_by_k: np.ndarray
    z_tot: np.ndarray
    n_z: np.ndarray


class CellBoundsBatch(NamedTuple):
    """The vacuum and single-photon bounds of the sixteen cells, (B, 16)
    arrays: lower bounds on the vacuum and single-photon counts and an
    upper bound on the single-photon count, all restricted to
    signal-intensity emissions within the cell and clamped to [0, the
    cell's signal count]."""

    lower0: np.ndarray
    lower1: np.ndarray
    upper1: np.ndarray


# A batch bounds 17 populations per point: population 0 is the aggregate
# Z-basis population behind m0 and m1, populations 1..16 are the CELLS.
# Both use the same closed forms; the aggregate has no cap.  Five mean
# estimates per population feed them: lower ones of the d2 and d1
# counts, then upper ones of the d2, d1 and s counts.  Per estimate: its
# row of K_LABELS, the allocation name of the aggregate's and the suffix
# of the cells'.
_ESTIMATES = (
    (2, "z.d2.vac.lo", "d2.lo"),
    (1, "z.d1.sin.lo", "d1.lo"),
    (2, "z.d2.sin.hi", "d2.hi"),
    (1, "z.d1.vac.hi", "d1.hi"),
    (0, "z.s.sin.hi", "s.hi"),
)
_ROWS = np.array([row for row, _, _ in _ESTIMATES])
# which estimates bound the mean from above, and their deviations' signs
_ABOVE = np.array([False, False, True, True, True])[:, None]
_SIGNS = np.where(_ABOVE, 1.0, -1.0)
_NAMES = tuple(
    name
    for _, aggregate, cell in _ESTIMATES
    for name in (aggregate, *(f"cell.{cid}.{cell}" for cid in CELL_IDS))
)


# the exponents of decoy_factors' stacked arguments: k e^{-k} at the
# signal's range ends and peak, then e^{k} at the ends of every range
_EXP_SIGNS = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0])[:, None]


def decoy_factors(intens: IntensityBatch) -> np.ndarray:
    """(12, B, 1) per-point factors of the closed forms, ready to
    broadcast over the populations."""
    (_, s_lo, s_hi, s_p), (_, d1_lo, d1_hi, d1_p), (_, d2_lo, d2_hi, d2_p) = intens
    # k e^{-k} is unimodal with its maximum at k = 1, so over the signal
    # range its minimum sits at an endpoint and its maximum at 1 clipped
    # into the range
    peak = np.minimum(np.maximum(s_lo, 1.0), s_hi)
    k = np.array([s_lo, s_hi, peak, d1_lo, d1_hi, d2_lo, d2_hi, s_hi])
    exps = np.exp(_EXP_SIGNS * k)
    at_lo, at_hi, at_peak = k[:3] * exps[:3]
    # e^{k} / p of each level's intensity at either end of its range
    e_d1_lo, e_d1_hi, e_d2_lo, e_d2_hi, e_s_hi = exps[3:] / np.array(
        [d1_p, d1_p, d2_p, d2_p, s_p]
    )
    # p_s times the least e^{-k} and the least and most k e^{-k} over
    # the signal range
    p_vac, p_single_lo, p_single_hi = s_p * np.array(
        [exps[1], np.minimum(at_lo, at_hi), at_peak]
    )
    vac_denom = d1_lo - d2_hi
    sin_span = d1_hi - d2_lo
    return np.array([
        p_vac,
        # vacuum lower bound
        p_vac / vac_denom,
        d1_lo * e_d2_lo,
        d2_hi * e_d1_hi,
        # single-photon lower bound
        p_single_lo * s_lo / (sin_span * (s_lo - d1_hi - d2_lo)),
        e_d1_lo,
        e_d2_hi,
        sin_span * (d1_hi + d2_lo) / (s_lo * s_lo),
        e_s_hi,
        # single-photon upper bound
        p_single_hi / vac_denom,
        e_d1_hi,
        e_d2_lo,
    ])[:, :, None]


# the aggregate's column and the cells' columns of the 17 populations
_AGGREGATE, _CELL_POPULATIONS = slice(0, 1), slice(1, 17)


def _mean_estimates(
    mode: str,
    budget: EpsilonBudget | None,
    observed: np.ndarray,
    size: np.ndarray,
    populations: slice = slice(None),
) -> np.ndarray:
    """The _ESTIMATES of the given populations, (B, 5, P) from the
    (B, 5, P) ``observed`` counts.

    Exact mode takes the Hoeffding deviation against ``size``, the
    population total, or the multiplicative-Chernoff deviation of the
    observed count where that is smaller (its validity rests on a
    Hoeffding event, which the estimate's ``.H`` allocation covers;
    ``concentration.mult_chernoff_valid`` is not applied yet, see
    ROADMAP open item 4);
    fluct mode takes an Azuma deviation over ``size``, the trials.  This
    is the library's only choice between the two mean bounds.
    """
    if budget is None:
        return observed
    log_inv = budget.log_inv(_NAMES).reshape(5, 17)[:, populations]
    if mode == "fluct":
        dev = azuma_dev(size, log_inv)
    else:
        # the Hoeffding deviation, replaced by the multiplicative-Chernoff
        # one where that is smaller (in place: a batch's arrays are large)
        dev = hoeffding_dev(size, log_inv)
        dev_m = mult_chernoff_dev(observed, log_inv, _ABOVE)
        multiplicative = dev_m < dev
        np.copyto(dev, dev_m, where=multiplicative)
        del dev_m
    dev *= _SIGNS
    return np.add(observed, dev, out=dev)


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "fluct"):
        raise ValueError(f"mode must be 'exact' or 'fluct', got {mode!r}")


def _lower_bounds(
    est: np.ndarray, factors: np.ndarray, clamp
) -> tuple[np.ndarray, np.ndarray]:
    """The closed forms' vacuum and single-photon lower bounds, (B, P)
    mean-level arrays from the (B, 5, P) mean estimates ``est``, each
    passed through ``clamp``.  ``factors`` is ``decoy_factors`` of the
    points' intensities."""
    p_vac, vac_pref, vac_d2, vac_d1, sin_pref, sin_d1, sin_d2, sin_vac, sin_s = (
        factors[:9]
    )
    c_d2_lo, c_d1_lo, c_d2_hi, c_d1_hi, c_s_hi = est.transpose(1, 0, 2)
    low0 = clamp(vac_pref * (vac_d2 * c_d2_lo - vac_d1 * c_d1_hi))
    low1 = clamp(sin_pref * (
        sin_d1 * c_d1_lo
        - sin_d2 * c_d2_hi
        + sin_vac * (low0 / p_vac - sin_s * c_s_hi)
    ))
    return low0, low1


def _count_bounds(
    low0: np.ndarray,
    low1: np.ndarray,
    counts: CountsBatch,
    budget: EpsilonBudget | None,
) -> tuple[np.ndarray, np.ndarray]:
    """m0 and m1, (B,), from population 0's (B, 1) mean-level bounds: the
    mean-to-count deviation, capped at the signal Z count."""
    if budget is None:
        return low0[:, 0], low1[:, 0]
    mu = np.concatenate([low0, low1], axis=1)
    log_inv = budget.log_inv(("m0.final", "m1.final"))
    # the lower Chernoff deviation where it is valid, Hoeffding over N_z
    # elsewhere
    dev = np.where(
        chernoff_valid(mu, log_inv, False),
        chernoff_dev(mu, log_inv, False),
        hoeffding_dev(counts.n_z[:, None], log_inv),
    )
    value = np.minimum(np.maximum(mu - dev, 0.0), counts.z_by_k[:, :1])
    return value[:, 0], value[:, 1]


def aggregate_bounds(
    counts: CountsBatch,
    factors: np.ndarray,
    budget: EpsilonBudget | None,
    mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    """m0 and m1, (B,) arrays: population 0 of the closed forms alone.

    m0 and m1 lower-bound the vacuum and single-photon events of the
    signal-intensity Z key.  In exact mode the means are estimated
    against the Z total, in fluct mode the martingales run over N_z.
    ``factors`` is ``decoy_factors`` of the points' intensities.
    """
    _check_mode(mode)
    # (B, 5, 1): the counts behind each estimate
    observed = counts.z_by_k[:, _ROWS, None]
    size = (counts.z_tot if mode == "exact" else counts.n_z)[:, None, None]
    est = _mean_estimates(mode, budget, observed, size, _AGGREGATE)
    # unlike a cell's, the aggregate's bounds are not capped
    low0, low1 = _lower_bounds(est, factors, lambda bound: np.maximum(bound, 0.0))
    return _count_bounds(low0, low1, counts, budget)


def cell_bounds(
    counts: CountsBatch,
    factors: np.ndarray,
    budget: EpsilonBudget | None,
    mode: str,
) -> CellBoundsBatch:
    """The sixteen cells' bounds: populations 1..16 of the closed forms.

    In exact mode the means are estimated against the cell total, in
    fluct mode the martingales run over the cell's configuration trials.
    ``factors`` is ``decoy_factors`` of the points' intensities.
    """
    _check_mode(mode)
    # (B, 5, 16): the counts behind each estimate, then cell
    observed = counts.cells[:, _ROWS]
    size = counts.cells.sum(axis=1) if mode == "exact" else counts.trials
    est = _mean_estimates(mode, budget, observed, size[:, None, :], _CELL_POPULATIONS)
    # a cell's bounds are capped at its signal count
    cap = observed[:, 4]
    clamp = lambda bound: np.minimum(np.maximum(bound, 0.0), cap)
    low0, low1 = _lower_bounds(est, factors, clamp)
    up_pref, up_d1, up_d2 = factors[9:]
    c_d2_lo, c_d1_hi = est[:, 0], est[:, 3]
    up1 = clamp(up_pref * (up_d1 * c_d1_hi - up_d2 * c_d2_lo))
    return CellBoundsBatch(low0, low1, up1)
