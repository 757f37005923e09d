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
bounds into their asymptotic (infinite-key) counterparts.

Each point's bounds equal, bit for bit, those of the one-point functions
the batch replaced (kept as the test reference in
``tests/scalar_chain.py``): transcendental per-point factors go through
``math``, and only the IEEE-exact ``+ - * / sqrt`` run in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

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
    "ObservedCounts",
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

# cell key: (sender basis, sender bit, receiver basis, receiver bit, intensity label)
CellKey = tuple[str, int, str, int, str]
# config key: (sender basis, sender bit, receiver basis)
ConfigKey = tuple[str, int, str]


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


@dataclass
class ObservedCounts:
    """Sifted detection statistics of one protocol run.

    ``z_by_k`` holds the Z-basis coincidence counts per intensity label;
    ``cells`` maps (sender basis, sender bit, receiver basis, receiver
    bit, intensity label) to a count; ``trials_by_config`` maps (sender
    basis, sender bit, receiver basis) to the number of trials with that
    setting combination, which is what the martingale deviations range
    over.  Counts may be real-valued (expected statistics) or integer
    (sampled).
    """

    z_by_k: Mapping[str, float]
    cells: Mapping[CellKey, float]
    n_z: float
    n_total: float
    trials_by_config: Mapping[ConfigKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_z < 0 or self.n_total < 0 or self.n_z > self.n_total:
            raise ValueError("need 0 <= n_z <= n_total")
        for label, count in self.z_by_k.items():
            if label not in K_LABELS:
                raise ValueError(f"unknown intensity label {label!r}")
            if count < 0:
                raise ValueError("counts must be nonnegative")
        if any(c < 0 for c in self.cells.values()):
            raise ValueError("counts must be nonnegative")

    @property
    def z_tot(self) -> float:
        return sum(self.z_by_k.values())

    def z_k(self, label: str) -> float:
        return self.z_by_k.get(label, 0.0)

    def cell(self, a: str, y: int, b: str, y1: int, k: str) -> float:
        return self.cells.get((a, y, b, y1, k), 0.0)

    def config_trials(self, a: str, y: int, b: str) -> float:
        return self.trials_by_config.get((a, y, b), 0.0)


def py_max(a, b):
    """Elementwise ``max(a, b)`` with Python's tie and NaN behaviour."""
    return np.where(b > a, b, a)


def py_min(a, b):
    """Elementwise ``min(a, b)`` with Python's tie and NaN behaviour."""
    return np.where(b < a, b, a)


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
    """Detection statistics of a batch of runs, dense.

    ``cells`` is (B, 3, 16): the K_LABELS axis, then the CELLS axis.
    ``trials`` is (B, 16): the trials of each cell's (sender state,
    receiver basis) configuration.  ``z_by_k`` is (B, 3); ``z_tot`` and
    ``n_z`` are (B,).
    """

    cells: np.ndarray
    trials: np.ndarray
    z_by_k: np.ndarray
    z_tot: np.ndarray
    n_z: np.ndarray

    @classmethod
    def of(cls, counts: ObservedCounts) -> "CountsBatch":
        """Batch of one from ObservedCounts."""
        cells = [[counts.cell(a, y, b, y1, k) for a, y, b, y1 in CELLS]
                 for k in K_LABELS]
        trials = [counts.config_trials(a, y, b) for a, y, b, _ in CELLS]
        return cls(
            cells=np.array([cells], dtype=float),
            trials=np.array([trials], dtype=float),
            z_by_k=np.array([[counts.z_k(k) for k in K_LABELS]], dtype=float),
            z_tot=np.array([counts.z_tot], dtype=float),
            n_z=np.array([counts.n_z], dtype=float),
        )


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
# Both use the same closed forms; the aggregate has no cap and, in exact
# mode, its own m1 prefactor.  The mean estimates run by direction, one
# row per intensity label, with the allocation name of each (row,
# population).
_CELL_IDS = tuple(f"{a}{y}{b}{y1}" for a, y, b, y1 in CELLS)
# The rows follow the observed counts' label order d2, d1, s, so that
# each direction's input is a slice of them.
_ESTIMATES = {
    "lower": (("d2", "z.d2.vac.lo", "d2.lo"), ("d1", "z.d1.sin.lo", "d1.lo")),
    "upper": (
        ("d2", "z.d2.sin.hi", "d2.hi"),
        ("d1", "z.d1.vac.hi", "d1.hi"),
        ("s", "z.s.sin.hi", "s.hi"),
    ),
}
_NAMES = {
    direction: tuple(
        name
        for _, aggregate, cell in rows
        for name in (aggregate, *(f"cell.{cid}.{cell}" for cid in _CELL_IDS))
    )
    for direction, rows in _ESTIMATES.items()
}
_HELPER_NAMES = {d: tuple(n + ".H" for n in names) for d, names in _NAMES.items()}
_AGGREGATE = np.arange(17) == 0


def _point_factors(intens: IntensityBatch) -> np.ndarray:
    """(B, 13) per-point factors of the closed forms.

    They are formed point by point in Python floats with ``math``, by the
    expressions of the scalar reference (``np.exp`` may differ from
    ``math.exp`` in the last ulp, and ``x**2`` is ``pow``, not ``x*x``).
    Points that share their intensities share the row.
    """
    rows: dict[tuple, tuple] = {}
    out = []
    for key in zip(*(a.tolist() for lv in intens for a in lv[1:])):
        row = rows.get(key)
        if row is None:
            s_lo, s_hi, s_p, d1_lo, d1_hi, d1_p, d2_lo, d2_hi, d2_p = key
            # IntensitySet.p_s_and_vacuum_lo / single_lo / single_hi
            p_vac = s_p * math.exp(-s_hi)
            at_lo, at_hi = s_lo * math.exp(-s_lo), s_hi * math.exp(-s_hi)
            p_single_lo = s_p * min(at_lo, at_hi)
            if s_lo <= 1.0 <= s_hi:
                p_single_hi = s_p * math.exp(-1.0)
            else:
                p_single_hi = s_p * max(at_lo, at_hi)
            sin_denom = (d1_hi - d2_lo) * (s_lo - d1_hi - d2_lo)
            row = rows[key] = (
                p_vac,
                # vacuum lower bound
                p_vac / (d1_lo - d2_hi),
                d1_lo * math.exp(d2_lo) / d2_p,
                d2_hi * math.exp(d1_hi) / d1_p,
                # single-photon lower bound, and exact-mode m1's prefactor
                # p_s k_s^2 e^{-k_s} (equal in exact arithmetic, not in rounding)
                p_single_lo * s_lo / sin_denom,
                s_p * s_lo**2 * math.exp(-s_hi) / sin_denom,
                math.exp(d1_lo) / d1_p,
                math.exp(d2_hi) / d2_p,
                (d1_hi**2 - d2_lo**2) / s_lo**2,
                math.exp(s_hi) / s_p,
                # single-photon upper bound
                p_single_hi / (d1_lo - d2_hi),
                math.exp(d1_hi) / d1_p,
                math.exp(d2_lo) / d2_p,
            )
        out.append(row)
    return np.array(out, dtype=float).reshape(-1, 13)


def _mean_batch(
    mode: str,
    budget: EpsilonBudget | None,
    observed: np.ndarray,
    size: np.ndarray,
    direction: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Every mean estimate of one direction, (B, rows, 17).

    Exact mode takes ``concentration.best_mean_bound`` against ``size``,
    the population total; fluct mode an Azuma deviation over ``size``,
    the trials.
    """
    if budget is None:
        return observed, np.zeros(observed.shape)
    eps, log_inv = budget.alloc_table(_NAMES[direction])
    eps, log_inv = eps.reshape(-1, 17), log_inv.reshape(-1, 17)
    if mode == "fluct":
        dev = np.sqrt(2.0 * size * log_inv)
        failure = eps + np.zeros(observed.shape)
    else:
        # the Hoeffding deviation, replaced by the multiplicative-Chernoff
        # one where that is smaller (in place: a batch's arrays are large)
        dev = np.sqrt(size / 2.0 * log_inv)
        if direction == "lower":
            dev_m = np.sqrt(3.0 * observed * log_inv)
        else:
            dev_m = np.sqrt(2.0 * observed * (4.0 * log_inv + math.log(16.0)))
        multiplicative = dev_m < dev
        np.copyto(dev, dev_m, where=multiplicative)
        del dev_m
        helper = budget.alloc_table(_HELPER_NAMES[direction])[0].reshape(-1, 17)
        failure = np.where(multiplicative, eps + helper, eps)
    if direction == "lower":
        return np.subtract(observed, dev, out=dev), failure
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
    (p_vac, vac_pref, vac_d2, vac_d1, sin_pref, m1_exact_pref, sin_d1, sin_d2,
     sin_vac, sin_s, up_pref, up_d1, up_d2) = _point_factors(intens).T[:, :, None]
    # (B, 3, 17): intensity label in the order d2, d1, s, then population
    observed = np.concatenate(
        [counts.z_by_k[:, ::-1, None], counts.cells[:, ::-1]], axis=2
    )
    if mode == "exact":
        size = (observed[:, 2] + observed[:, 1]) + observed[:, 0]
        size[:, 0] = counts.z_tot
    else:
        size = np.concatenate([counts.n_z[:, None], counts.trials], axis=1)
    size = size[:, None, :]
    lo, f_lo = _mean_batch(mode, budget, observed[:, :2], size, "lower")
    hi, f_hi = _mean_batch(mode, budget, observed, size, "upper")
    c_d2_lo, c_d1_lo = lo[:, 0], lo[:, 1]
    c_d2_hi, c_d1_hi, c_s_hi = hi[:, 0], hi[:, 1], hi[:, 2]
    cap = observed[:, 2].copy()
    cap[:, 0] = np.inf

    low0 = py_min(py_max(0.0, vac_pref * (vac_d2 * c_d2_lo - vac_d1 * c_d1_hi)), cap)
    if mode == "exact":
        sin_pref = np.where(_AGGREGATE, m1_exact_pref, sin_pref)
    # the scalar reference's fluct-mode m1 writes the last term as
    # - G (e c_s - vac/p): the same bits, since IEEE negation and rounding
    # are symmetric
    single = sin_pref * (
        sin_d1 * c_d1_lo
        - sin_d2 * c_d2_hi
        + sin_vac * (low0 / p_vac - sin_s * c_s_hi)
    )
    low1 = py_min(py_max(0.0, single), cap)
    up1 = py_min(py_max(0.0, up_pref * (up_d1 * c_d1_hi - up_d2 * c_d2_lo)), cap)
    f_low0 = f_lo[:, 0] + f_hi[:, 1]
    f_low1 = f_low0 + f_lo[:, 1] + f_hi[:, 0] + f_hi[:, 2]
    f_up1 = f_hi[:, 1] + f_lo[:, 0]
    cells = CellBoundsBatch(
        lower0=BoundBatch(low0[:, 1:], f_low0[:, 1:]),
        lower1=BoundBatch(low1[:, 1:], f_low1[:, 1:]),
        upper1=BoundBatch(up1[:, 1:], f_up1[:, 1:]),
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
    lower = np.where(mu <= 0.0, 0.0, py_max(0.0, mu - dev))
    value = py_min(lower, counts.z_by_k[:, :1])
    failure = mean_failure + eps_final
    return (
        BoundBatch(value[:, 0], failure[:, 0]),
        BoundBatch(value[:, 1], failure[:, 1]),
        cells,
    )
