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

The bounds take a batch of parameter points at once, with a batch
axis on every array; one point is a batch of one.
``aggregate_bounds`` gives m0 and m1 and ``cell_bounds`` the cells'
bounds a caller asks for, both on the per-point factors of
``decoy_factors``, so a caller can stop after m0 and m1.
``level_arrays`` is the one feasibility rule of a batch's levels.  Each
mean estimate takes its deviation, a ``concentration`` function, from
its own allocation of the static budget, which the key length charges
as a whole.  Passing
``budget=None`` zeroes all statistical deviations, which turns the
bounds into their asymptotic (infinite-key) counterparts.  The one-point
functions the batch replaced are kept as the test reference in
``tests/scalar_chain.py``; each point's bounds match them to rounding.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .budget import CELL_IDS, EpsilonBudget
from .concentration import (
    azuma_dev,
    chernoff_dev,
    hoeffding_or_mult_chernoff_dev,
    mult_chernoff_scale,
)

__all__ = [
    "ALL_CELLS",
    "CELLS",
    "K_LABELS",
    "CellBoundsBatch",
    "CountsBatch",
    "aggregate_bounds",
    "cell_bounds",
    "decoy_factors",
    "level_arrays",
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
# every cell's index, in CELLS order
ALL_CELLS = tuple(range(len(CELLS)))


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
    first = np.empty(ranked.shape, dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    uniq = ranked[first]
    return uniq, np.searchsorted(uniq, values)


# the closed forms take e^{k+}/p of every level; the feasibility rule
# keeps it below e^{K_HI_CAP}, about 1e304 (a float overflows past
# e^{709.78})
K_HI_CAP = 700.0


def level_arrays(mode: str, r: float, p_z, p_s, p_d1, k_s, k_d1, k_d2) -> tuple:
    """The levels for ``mode`` from (B,) arrays: their nominal
    intensities, the ends [k-, k+] of their ranges and their selection
    probabilities, (3, B) arrays with a row per level (s, d1, d2); then
    the mask of feasible points.

    This is the one feasibility rule; a point is a batch of one.  A
    point is feasible where 0 < p_z < 1; every level has
    0 <= k- <= k <= k+ and a selection probability p in (0, 1), with
    p_d2 = 1 - p_s - p_d1, and k+ - ln p < K_HI_CAP, so that the closed
    forms' factor e^{k+}/p stays finite; and the ranges are ordered as
    the closed forms need, k_d1- > k_d2+ and k_s- > k_d1+ + k_d2-.  The
    three levels are tested at once.  An unknown mode or a bad ``r``
    (outside [0, 1), or positive with 1 + r == 1 in float64) concerns
    every point and raises ValueError.  A row with fields out
    of range may form inf - inf, ln 0 or ln of a negative number,
    quietly here; the row is rejected anyway.
    """
    _check_mode(mode)
    if mode == "fluct" and not 0.0 <= r < 1.0:
        raise ValueError("relative fluctuation r must lie in [0, 1)")
    if mode == "fluct" and r > 0.0 and 1.0 + r == 1.0:
        raise ValueError(
            f"relative fluctuation r = {r!r} is below the float spacing: "
            "(1 + r) k rounds to k"
        )
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
    return k, lo, hi, prob, ok


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
    """The vacuum and single-photon bounds of cells: lower bounds on the
    vacuum and single-photon counts, (B, L) arrays over the L cells a
    ``cell_bounds`` call asked for, and an upper bound on the
    single-photon count, (B, 16) over every cell; all restricted to
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
# which estimates bound the mean from above
_ABOVE = np.array([False, False, True, True, True])[:, None]
_NAMES = tuple(
    name
    for _, aggregate, cell in _ESTIMATES
    for name in (aggregate, *(f"cell.{cid}.{cell}" for cid in CELL_IDS))
)


# the exponents of decoy_factors' stacked arguments: k e^{-k} at the
# signal's range ends and peak, then e^{k} at the ends of every range
_EXP_SIGNS = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0])[:, None]
# the levels of the e^{k} arguments: d1, d1, d2, d2, s
_EXP_LEVELS = np.array([1, 1, 2, 2, 0])


def decoy_factors(lo: np.ndarray, hi: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """(12, B, 1) per-point factors of the closed forms from the levels'
    ``level_arrays``, ready to broadcast over the populations: first the
    factor of each of the _ESTIMATES, in their order, then the bounds'
    other factors."""
    (s_lo, d1_lo, d2_lo), (s_hi, d1_hi, d2_hi), s_p = lo, hi, prob[0]
    # k e^{-k} is unimodal with its maximum at k = 1, so over the signal
    # range its minimum sits at an endpoint and its maximum at 1 clipped
    # into the range
    peak = np.minimum(np.maximum(s_lo, 1.0), s_hi)
    k = np.array([s_lo, s_hi, peak, d1_lo, d1_hi, d2_lo, d2_hi, s_hi])
    exps = np.exp(_EXP_SIGNS * k)
    at_lo, at_hi, at_peak = k[:3] * exps[:3]
    # e^{k} / p of each level's intensity at either end of its range
    e_d1_lo, e_d1_hi, e_d2_lo, e_d2_hi, e_s_hi = exps[3:] / prob[_EXP_LEVELS]
    # p_s times the least e^{-k} and the least and most k e^{-k} over
    # the signal range
    p_vac, p_single_lo, p_single_hi = s_p * np.array(
        [exps[1], np.minimum(at_lo, at_hi), at_peak]
    )
    vac_denom = d1_lo - d2_hi
    sin_span = d1_hi - d2_lo
    return np.array([
        # the estimates': vacuum d2.lo, single-photon d1.lo and d2.hi,
        # vacuum d1.hi, single-photon s.hi
        d1_lo * e_d2_lo,
        e_d1_lo,
        e_d2_hi,
        d2_hi * e_d1_hi,
        e_s_hi,
        # the vacuum and single-photon lower bounds' prefactors
        p_vac,
        p_vac / vac_denom,
        p_single_lo * s_lo / (sin_span * (s_lo - d1_hi - d2_lo)),
        sin_span * (d1_hi + d2_lo) / (s_lo * s_lo),
        # the single-photon upper bound's
        p_single_hi / vac_denom,
        e_d1_hi,
        e_d2_lo,
    ])[:, :, None]


def _aggregate_terms(budget: EpsilonBudget) -> tuple[float, np.ndarray]:
    """The estimates' ln(1/eps) and the aggregate's five estimates'
    ``mult_chernoff_scale``, a (5, 1, 1) column, formed once per budget."""
    log_inv = budget.log_inv(_NAMES)
    return log_inv, mult_chernoff_scale(log_inv, _ABOVE[:, None])


# the aggregate's key of budget.memo, and its lower and upper estimates
_AGGREGATE_TERMS = (_aggregate_terms,)
_AGGREGATE_SPLIT = (np.s_[:2], np.s_[2:])


class _Columns(NamedTuple):
    """The estimate columns of ``cell_bounds`` with the lower bounds of
    some cells: per column its index into the (B, 48) cells (level row,
    then cell), its cell and its estimate (index into _ESTIMATES); the
    indices of the lower and the upper estimates' columns, the lower
    bounds' five estimates per cell and their signal counts."""

    index: np.ndarray
    cell: np.ndarray
    est: np.ndarray
    lower: tuple
    upper: tuple
    block: tuple
    signal: tuple


@functools.lru_cache(maxsize=16)
def _cell_columns(lower: tuple[int, ...]) -> _Columns:
    """The estimate columns of ``cell_bounds`` with the lower bounds of
    the cells ``lower``: the d2.lo estimates of the sixteen cells, the
    five _ESTIMATES of the cells ``lower`` (estimate by estimate), then
    the d1.hi estimates of the sixteen cells.  The lower estimates come
    first."""
    t = len(lower)
    est = np.repeat([0, 0, 1, 2, 3, 4, 3], [16, t, t, t, t, t, 16])
    cell = np.concatenate([np.arange(16), np.tile(np.array(lower, dtype=int), 5),
                           np.arange(16)])
    return _Columns(
        _ROWS[est] * 16 + cell, cell, est, np.s_[:, :16 + 2 * t],
        np.s_[:, 16 + 2 * t:], np.s_[:, 16:16 + 5 * t], np.s_[:, 16 + 4 * t:16 + 5 * t],
    )


def _cell_terms(
    budget: EpsilonBudget, lower: tuple[int, ...]
) -> tuple[float, np.ndarray]:
    """The estimates' ln(1/eps) and, per column of
    ``_cell_columns(lower)``, its ``mult_chernoff_scale``, a (C,) array
    formed once per budget."""
    log_inv = budget.log_inv(_NAMES)
    return log_inv, mult_chernoff_scale(log_inv, _ABOVE[_cell_columns(lower).est, 0])


def _mean_estimates(
    mode: str, budget: EpsilonBudget | None, observed: np.ndarray,
    size: np.ndarray | None, terms: tuple, lower: tuple, upper: tuple,
) -> np.ndarray:
    """The mean estimates of the ``observed`` counts, element by element
    against ``size``, which has their shape in fluct mode and broadcasts
    to it in exact mode: the part ``lower`` (an index into ``observed``)
    bounds the mean from below, the part ``upper`` from above.
    ``budget.memo(*terms)`` gives the estimates' ln(1/eps) and the
    elements' ``mult_chernoff_scale``, which broadcasts with them too.
    Without a budget the estimates are the counts, and ``size`` is not
    read.

    Exact mode takes ``hoeffding_or_mult_chernoff_dev``, the library's
    only choice between the two mean bounds: the Hoeffding deviation
    against ``size``, the population total, or the multiplicative-Chernoff
    deviation of the observed count where that is smaller (its validity
    rests on a Hoeffding event, which the estimate's ``.H`` allocation
    covers; ``concentration.mult_chernoff_valid`` is not applied yet, see
    ROADMAP open item 1); fluct mode takes an Azuma deviation over
    ``size``, the trials.
    """
    if budget is None:
        return observed
    log_inv, scale = budget.memo(*terms)
    if mode == "fluct":
        dev = azuma_dev(size, log_inv)
    else:
        dev = hoeffding_or_mult_chernoff_dev(size, log_inv, observed, scale)
    below, above = dev[lower], dev[upper]
    np.subtract(observed[lower], below, out=below)
    np.add(observed[upper], above, out=above)
    return dev


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "fluct"):
        raise ValueError(f"mode must be 'exact' or 'fluct', got {mode!r}")


def _lower_bounds(est: np.ndarray, factors: np.ndarray, clamp) -> tuple:
    """The closed forms' vacuum and single-photon lower bounds, (B, P)
    mean-level arrays from the (5, B, P) mean estimates ``est``, each
    passed through ``clamp``.  ``factors`` is ``decoy_factors`` of the
    points' intensities."""
    d2_lo, d1_lo, d2_hi, d1_hi, s_hi = est * factors[:5]
    p_vac, vac_pref, sin_pref, sin_vac = factors[5:9]
    low0 = clamp(vac_pref * (d2_lo - d1_hi))
    low1 = clamp(sin_pref * (d1_lo - d2_hi + sin_vac * (low0 / p_vac - s_hi)))
    return low0, low1


def _count_bounds(
    low0: np.ndarray, low1: np.ndarray, counts: CountsBatch,
    budget: EpsilonBudget | None,
) -> tuple[np.ndarray, np.ndarray]:
    """m0 and m1, (B,), from population 0's (B, 1) mean-level bounds: the
    mean-to-count deviation, capped at the signal Z count."""
    if budget is None:
        return low0[:, 0], low1[:, 0]
    mu = np.concatenate([low0, low1], axis=1)
    log_inv = budget.log_inv(("m0.final", "m1.final"))
    # the lower Chernoff deviation; where it is not valid, mu <= 2 ln(1/eps),
    # so the deviation sqrt(2 mu ln(1/eps)) >= mu and the bound is 0
    dev = chernoff_dev(mu, log_inv, False)
    value = np.minimum(np.maximum(mu - dev, 0.0), counts.z_by_k[:, :1])
    return value[:, 0], value[:, 1]


def aggregate_bounds(
    counts: CountsBatch, factors: np.ndarray, budget: EpsilonBudget | None, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """m0 and m1, (B,) arrays: population 0 of the closed forms alone.

    m0 and m1 lower-bound the vacuum and single-photon events of the
    signal-intensity Z key.  In exact mode the means are estimated
    against the Z total, in fluct mode the martingales run over N_z.
    ``factors`` is ``decoy_factors`` of the points' intensities.
    """
    _check_mode(mode)
    # (5, B, 1): the counts behind each estimate, and their population
    observed = counts.z_by_k.T[_ROWS, :, None]
    size = (counts.z_tot if mode == "exact" else counts.n_z)[None, :, None].repeat(5, 0)
    est = _mean_estimates(
        mode, budget, observed, size, _AGGREGATE_TERMS, *_AGGREGATE_SPLIT
    )
    # unlike a cell's, the aggregate's bounds are not capped
    low0, low1 = _lower_bounds(est, factors, lambda bound: np.maximum(bound, 0.0))
    return _count_bounds(low0, low1, counts, budget)


def cell_bounds(
    counts: CountsBatch, factors: np.ndarray, budget: EpsilonBudget | None, mode: str,
    lower: tuple[int, ...] = ALL_CELLS,
) -> CellBoundsBatch:
    """The cells' bounds, populations 1..16 of the closed forms: upper1
    of all sixteen cells, lower0 and lower1 of the cells ``lower``
    (indices into CELLS, in the order given; all sixteen by default).

    A cell's upper1 reads two of its five mean estimates, d2.lo and
    d1.hi; its lower bounds read all five.  The phase-error bound reads
    every upper1 (N1 is their sum) but the lower1 of only the few cells
    whose weight can be <= 0 (``phase_error.lower_terms``), so the chain
    asks for those alone and forms 32 + 3 len(lower) distinct estimates
    per point instead of 80 (the d2.lo and d1.hi of the cells ``lower``
    are formed twice, so that their closed forms read slices).  Each
    bound comes from the same float operations whichever others are
    formed, so it equals the matching column of a call with every cell.

    In exact mode the means are estimated against the cell total, in
    fluct mode the martingales run over the cell's configuration trials.
    ``factors`` is ``decoy_factors`` of the points' intensities.
    """
    _check_mode(mode)
    columns = _cell_columns(lower)
    cells = counts.cells
    b = len(cells)
    # (B, C): the counts behind each estimate column and, with a budget,
    # their population
    observed = cells.reshape(b, 48)[:, columns.index]
    size = None
    if budget is not None:
        # the levels added in order, as .sum adds so few
        if mode == "exact":
            size = cells[:, 0] + cells[:, 1] + cells[:, 2]
        else:
            size = counts.trials
        size = size[:, columns.cell]
    est = _mean_estimates(
        mode, budget, observed, size, (_cell_terms, lower), columns.lower, columns.upper
    )
    # a cell's bounds are capped at its signal count
    cap = observed[columns.signal]
    low0, low1 = _lower_bounds(
        est[columns.block].reshape(b, 5, len(lower)).transpose(1, 0, 2), factors,
        lambda bound: np.minimum(np.maximum(bound, 0.0), cap),
    )
    up_pref, up_d1, up_d2 = factors[9:]
    up1 = up_pref * (up_d1 * est[:, -16:] - up_d2 * est[:, :16])
    return CellBoundsBatch(low0, low1, np.minimum(np.maximum(up1, 0.0), cells[:, 0]))
