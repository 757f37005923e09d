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

``decoy_bounds_batch`` bounds a batch of parameter points at once, with
a leading batch axis on every array; one point is a batch of one.  Every
bound comes with its accumulated failure probability.  Passing
``budget=None`` zeroes all statistical deviations, which turns the
bounds into their asymptotic (infinite-key) counterparts.  The one-point
functions the batch replaced are kept as the test reference in
``tests/scalar_chain.py``; each point's bounds match them to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .budget import EpsilonBudget

__all__ = [
    "CELLS",
    "K_LABELS",
    "BoundBatch",
    "CellBoundsBatch",
    "CountsBatch",
    "IntensityBatch",
    "IntensityLevel",
    "IntensitySet",
    "decoy_bounds_batch",
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


@dataclass(frozen=True)
class IntensityLevel:
    """One intensity setting: nominal value, known range and selection probability."""

    nominal: float
    lo: float
    hi: float
    prob: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.nominal <= self.hi):
            raise ValueError("need 0 <= lo <= nominal <= hi")
        if not (0.0 < self.prob < 1.0):
            raise ValueError("selection probability must lie in (0, 1)")


@dataclass(frozen=True)
class IntensitySet:
    """The three intensity settings with their ordering constraints.

    The closed-form bounds require k_d1^- > k_d2^+ and
    k_s^- > k_d1^+ + k_d2^-; violating either makes a denominator vanish
    or flip sign, so both are enforced at construction.
    """

    s: IntensityLevel
    d1: IntensityLevel
    d2: IntensityLevel

    def __post_init__(self) -> None:
        total = self.s.prob + self.d1.prob + self.d2.prob
        if abs(total - 1.0) > 1e-9:
            raise ValueError("selection probabilities must sum to 1")
        if not self.d1.lo > self.d2.hi:
            raise ValueError("need k_d1^- > k_d2^+")
        if not self.s.lo > self.d1.hi + self.d2.lo:
            raise ValueError("need k_s^- > k_d1^+ + k_d2^-")

    @classmethod
    def exact(
        cls, k_s: float, k_d1: float, k_d2: float, p_s: float, p_d1: float
    ) -> "IntensitySet":
        p_d2 = 1.0 - p_s - p_d1
        return cls(
            s=IntensityLevel(k_s, k_s, k_s, p_s),
            d1=IntensityLevel(k_d1, k_d1, k_d1, p_d1),
            d2=IntensityLevel(k_d2, k_d2, k_d2, p_d2),
        )

    @classmethod
    def fluctuating(
        cls, k_s: float, k_d1: float, k_d2: float, p_s: float, p_d1: float, r: float
    ) -> "IntensitySet":
        """Symmetric relative ranges [(1-r)k, (1+r)k]; r=0 recovers exact()."""
        if not (0.0 <= r < 1.0):
            raise ValueError("relative fluctuation r must lie in [0, 1)")
        p_d2 = 1.0 - p_s - p_d1
        return cls(
            s=IntensityLevel(k_s, (1 - r) * k_s, (1 + r) * k_s, p_s),
            d1=IntensityLevel(k_d1, (1 - r) * k_d1, (1 + r) * k_d1, p_d1),
            d2=IntensityLevel(k_d2, (1 - r) * k_d2, (1 + r) * k_d2, p_d2),
        )

    def level(self, label: str) -> IntensityLevel:
        if label not in K_LABELS:
            raise KeyError(label)
        return getattr(self, label)

    def p_s_and_vacuum_lo(self) -> float:
        # p^-(k_s AND 0 photons) = p_s e^{-k_s^+}
        return self.s.prob * math.exp(-self.s.hi)

    def p_s_and_single_lo(self) -> float:
        # k e^{-k} is unimodal with its maximum at k=1, so the minimum over
        # the range sits at an endpoint
        return self.s.prob * min(
            self.s.lo * math.exp(-self.s.lo), self.s.hi * math.exp(-self.s.hi)
        )

    def p_s_and_single_hi(self) -> float:
        if self.s.lo <= 1.0 <= self.s.hi:
            return self.s.prob * math.exp(-1.0)
        return self.s.prob * max(
            self.s.lo * math.exp(-self.s.lo), self.s.hi * math.exp(-self.s.hi)
        )


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


class LevelBatch(NamedTuple):
    """One intensity setting over a batch: (B,) arrays as in IntensityLevel."""

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
        k_s: np.ndarray,
        k_d1: np.ndarray,
        k_d2: np.ndarray,
        p_s: np.ndarray,
        p_d1: np.ndarray,
        r: float,
    ) -> tuple["IntensityBatch", np.ndarray]:
        """Levels for ``mode`` and the mask of points IntensitySet accepts.

        The mask applies the IntensityLevel and IntensitySet checks point
        by point; an unknown mode or a bad ``r`` concerns the whole batch
        and raises ValueError as the scalar constructors do.
        """
        if mode == "exact":
            ranges = [(k, k) for k in (k_s, k_d1, k_d2)]
        elif mode == "fluct":
            if not (0.0 <= r < 1.0):
                raise ValueError("relative fluctuation r must lie in [0, 1)")
            ranges = [((1 - r) * k, (1 + r) * k) for k in (k_s, k_d1, k_d2)]
        else:
            raise ValueError(f"mode must be 'exact' or 'fluct', got {mode!r}")
        probs = (p_s, p_d1, 1.0 - p_s - p_d1)
        levels = [
            LevelBatch(k, lo, hi, p)
            for k, (lo, hi), p in zip((k_s, k_d1, k_d2), ranges, probs)
        ]
        ok = np.ones(k_s.shape, dtype=bool)
        for lv in levels:
            ok &= (0.0 <= lv.lo) & (lv.lo <= lv.nominal) & (lv.nominal <= lv.hi)
            ok &= (0.0 < lv.prob) & (lv.prob < 1.0)
        s, d1, d2 = levels
        total = s.prob + d1.prob + d2.prob
        ok &= ~(np.abs(total - 1.0) > 1e-9)
        ok &= d1.lo > d2.hi
        ok &= s.lo > d1.hi + d2.lo
        return cls(s, d1, d2), ok

    @classmethod
    def of(cls, intens: IntensitySet) -> "IntensityBatch":
        """Batch of one from an already validated IntensitySet."""
        def level(lv: IntensityLevel) -> LevelBatch:
            return LevelBatch(
                np.array([lv.nominal], dtype=float), np.array([lv.lo], dtype=float),
                np.array([lv.hi], dtype=float), np.array([lv.prob], dtype=float),
            )

        return cls(level(intens.s), level(intens.d1), level(intens.d2))

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


class BoundBatch(NamedTuple):
    """A bound's value and accumulated failure probability per point, and
    per cell where the arrays are (B, 16).

    ``value`` is the count-level bound, clamped to [0, cap] where cap is
    the observed signal-intensity total of the estimated population.
    """

    value: np.ndarray
    failure_prob: np.ndarray


class CellBoundsBatch(NamedTuple):
    """The vacuum and single-photon bounds of the sixteen cells, (B, 16)
    arrays: lower bounds on the vacuum and single-photon counts and an
    upper bound on the single-photon count, all restricted to
    signal-intensity emissions within the cell."""

    lower0: BoundBatch
    lower1: BoundBatch
    upper1: BoundBatch


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
_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])[:, None]
_CELL_IDS = tuple(f"{a}{y}{b}{y1}" for a, y, b, y1 in CELLS)
_NAMES = tuple(
    name
    for _, aggregate, cell in _ESTIMATES
    for name in (aggregate, *(f"cell.{cid}.{cell}" for cid in _CELL_IDS))
)
_HELPER_NAMES = tuple(n + ".H" for n in _NAMES)
# the multiplicative-Chernoff deviation is sqrt(n (a ln(1/eps) + b)), with
# a = 3, b = 0 below the mean and a = 8, b = 2 ln 16 above it
_CHERNOFF_A = np.array([3.0, 3.0, 8.0, 8.0, 8.0])[:, None]
_CHERNOFF_B = np.array([0.0, 0.0, 1.0, 1.0, 1.0])[:, None] * 2.0 * math.log(16.0)


# the exponents of _point_factors' stacked arguments: k e^{-k} at the
# signal's range ends and peak, then e^{k} at the ends of every range
_EXP_SIGNS = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0])[:, None]


def _point_factors(intens: IntensityBatch) -> np.ndarray:
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
    # IntensitySet.p_s_and_vacuum_lo / single_lo / single_hi
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


def _mean_estimates(
    mode: str,
    budget: EpsilonBudget | None,
    observed: np.ndarray,
    size: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The _ESTIMATES of every population and their failure
    probabilities, (B, 5, 17) from the (B, 5, 17) ``observed`` counts.

    Exact mode takes the Hoeffding deviation against ``size``, the
    population total, or the multiplicative-Chernoff deviation of the
    observed count where that is smaller, which also charges the
    estimate's helper allocation; fluct mode takes an Azuma deviation
    over ``size``, the trials.  This is the library's only choice
    between the two mean bounds.
    """
    if budget is None:
        return observed, np.zeros(observed.shape)
    eps, log_inv = (a.reshape(5, 17) for a in budget.alloc_table(_NAMES))
    if mode == "fluct":
        dev = np.sqrt(2.0 * size * log_inv)
        failure = np.broadcast_to(eps, observed.shape)
    else:
        # the Hoeffding deviation, replaced by the multiplicative-Chernoff
        # one where that is smaller (in place: a batch's arrays are large)
        dev = np.sqrt(size / 2.0 * log_inv)
        dev_m = np.sqrt(observed * (_CHERNOFF_A * log_inv + _CHERNOFF_B))
        multiplicative = dev_m < dev
        np.copyto(dev, dev_m, where=multiplicative)
        del dev_m
        helper = budget.alloc_table(_HELPER_NAMES)[0].reshape(5, 17)
        failure = np.where(multiplicative, eps + helper, eps)
    dev *= _SIGNS
    return np.add(observed, dev, out=dev), failure


def decoy_bounds_batch(
    counts: CountsBatch,
    intens: IntensityBatch,
    budget: EpsilonBudget | None,
    mode: str,
) -> tuple[BoundBatch, BoundBatch, CellBoundsBatch]:
    """m0, m1 and the sixteen cells' bounds, per point.

    m0 and m1 lower-bound the vacuum and single-photon events of the
    signal-intensity Z key: a mean-level bound, then the mean-to-count
    deviation, capped at the signal Z count.  In exact mode the means
    are estimated against the Z total or the cell total; in fluct mode
    the martingales run over N_z or the cell's configuration trials.
    The exact and fluct modes differ only in which endpoints and mean
    estimators are used; exact mode has lo == hi, so the endpoint choice
    is vacuous there.
    """
    if mode not in ("exact", "fluct"):
        raise ValueError(f"mode must be 'exact' or 'fluct', got {mode!r}")
    (p_vac, vac_pref, vac_d2, vac_d1, sin_pref, sin_d1, sin_d2, sin_vac, sin_s,
     up_pref, up_d1, up_d2) = _point_factors(intens)
    # (B, 5, 17): the counts behind each estimate, then population
    observed = np.concatenate(
        [counts.z_by_k[:, _ROWS, None], counts.cells[:, _ROWS]], axis=2
    )
    if mode == "exact":
        size = [counts.z_tot[:, None], counts.cells.sum(axis=1)]
    else:
        size = [counts.n_z[:, None], counts.trials]
    size = np.concatenate(size, axis=1)[:, None, :]
    est, failure = _mean_estimates(mode, budget, observed, size)
    c_d2_lo, c_d1_lo, c_d2_hi, c_d1_hi, c_s_hi = est.transpose(1, 0, 2)
    # a cell's bounds are capped at its signal count; the aggregate's are not
    cap = observed[:, 4].copy()
    cap[:, 0] = np.inf

    clamp = lambda bound: np.minimum(np.maximum(bound, 0.0), cap)
    low0 = clamp(vac_pref * (vac_d2 * c_d2_lo - vac_d1 * c_d1_hi))
    low1 = clamp(sin_pref * (
        sin_d1 * c_d1_lo
        - sin_d2 * c_d2_hi
        + sin_vac * (low0 / p_vac - sin_s * c_s_hi)
    ))
    up1 = clamp(up_pref * (up_d1 * c_d1_hi - up_d2 * c_d2_lo))
    # the vacuum lower and the single-photon upper bound use the d2 lower
    # and the d1 upper estimate, the single-photon lower bound all five
    f_low0 = failure[:, 0] + failure[:, 3]
    f_low1 = f_low0 + failure[:, 1] + failure[:, 2] + failure[:, 4]
    cells = CellBoundsBatch(
        lower0=BoundBatch(low0[:, 1:], f_low0[:, 1:]),
        lower1=BoundBatch(low1[:, 1:], f_low1[:, 1:]),
        upper1=BoundBatch(up1[:, 1:], f_low0[:, 1:]),
    )

    # population 0: the clamped means of m0 and m1 become count bounds
    mu = np.concatenate([low0[:, :1], low1[:, :1]], axis=1)
    if budget is None:
        zero = np.zeros(len(mu))
        return BoundBatch(mu[:, 0], zero), BoundBatch(mu[:, 1], zero), cells
    mean_failure = np.concatenate([f_low0[:, :1], f_low1[:, :1]], axis=1)
    eps_final, log_inv = budget.alloc_table(("m0.final", "m1.final"))
    # the multiplicative deviation sqrt(2 mu ln(1/eps)) while the mean
    # dominates 2 ln(1/eps), Hoeffding over N_z below that
    dev = np.where(
        mu > 2.0 * log_inv,
        np.sqrt(2.0 * mu * log_inv),
        np.sqrt(counts.n_z[:, None] / 2.0 * log_inv),
    )
    value = np.minimum(np.maximum(mu - dev, 0.0), counts.z_by_k[:, :1])
    failure = mean_failure + eps_final
    return (
        BoundBatch(value[:, 0], failure[:, 0]),
        BoundBatch(value[:, 1], failure[:, 1]),
        cells,
    )
