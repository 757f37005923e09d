"""Fibre channel and threshold-detector model producing expected statistics.

Models the full measured-click pipeline for the three-state source:
fibre loss, detector efficiency, dark counts, intensity fluctuations
drawn from a truncated Gaussian, random assignment of double clicks, and
detector misalignment.  The output is the per-cell expected counts (or a
seeded Monte-Carlo sample of them) in the ObservedCounts layout that the
decoy and phase-error estimators consume, together with the Z-basis bit
error rate.

Counts follow the physical convention: a Z-basis cell with sender bit i
carries the 1/2 probability of choosing that bit, so |Z_k| sums to
N_k p_z^2 (1/2) sum_{i,j} P(Zj|Zi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_legendre

from .decoy import (
    CountsBatch,
    IntensityBatch,
    IntensityLevel,
    IntensitySet,
    ObservedCounts,
    distinct,
)

__all__ = [
    "ChannelConfig",
    "ChannelModel",
    "FluctuationDensity",
    "apply_misalignment",
    "click_probs",
    "expected_counts",
    "gauss_expect",
    "resolve_double_clicks",
    "sample_counts",
]

_NODES, _WEIGHTS = roots_legendre(64)

# sender configurations that actually occur: the X basis only ever encodes bit 0
_SENDER_STATES = (("Z", 0), ("Z", 1), ("X", 0))
_CONFIGS = tuple((a, y, b) for a, y in _SENDER_STATES for b in ("Z", "X"))
# along the CELLS axis (Z0, Z1, X0, X1 sender; Z/X receiver; outcome):
# the sender-state weight (0.5 p_z, 0.5 p_z, p_x, 0) and the receiver-basis
# weight (p_z or p_x), as columns of [0.5 p_z, p_x, p_z, 0]
_CELL_STATE = np.repeat([0, 0, 1, 3], 4)
_CELL_BASIS = np.tile([2, 2, 1, 1], 4)
# the Z-sender, Z-receiver cells: Z0Z0, Z0Z1, Z1Z0, Z1Z1
_ZZ_CELLS = np.array([0, 1, 4, 5])


@dataclass(frozen=True)
class ChannelConfig:
    """System model parameters for one link."""

    distance_km: float
    det_eff: float
    dark_prob: float
    e_mis: float
    fluct_r: float
    xi: float
    atten_db_per_km: float = 0.2

    def __post_init__(self) -> None:
        if not (math.isfinite(self.distance_km) and self.distance_km >= 0):
            raise ValueError(
                f"distance must be finite and nonnegative, got {self.distance_km!r}"
            )
        for name in ("det_eff", "dark_prob", "e_mis"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.fluct_r < 1.0:
            raise ValueError("fluct_r must lie in [0, 1)")

    @property
    def eta_ch(self) -> float:
        return 10.0 ** (-self.atten_db_per_km * self.distance_km / 10.0)

    @property
    def eta_sy(self) -> float:
        return self.det_eff * self.eta_ch


@dataclass(frozen=True)
class FluctuationDensity:
    """Truncated Gaussian intensity density on [(1-r)mu, (1+r)mu].

    The dispersion is sigma^2 = r mu / 5 and ``norm`` rescales the
    truncated Gaussian to unit mass.  r = 0 degenerates to a point mass
    at mu, signalled by lo == hi.
    """

    mean: float
    lo: float
    hi: float
    sigma2: float
    norm: float

    @classmethod
    def for_intensity(cls, mean: float, r: float) -> "FluctuationDensity":
        if mean < 0:
            raise ValueError("mean intensity must be nonnegative")
        if not 0.0 <= r < 1.0:
            raise ValueError("relative width r must lie in [0, 1)")
        if r == 0.0 or mean == 0.0:
            return cls(mean, mean, mean, 0.0, math.inf)
        lo, hi = (1.0 - r) * mean, (1.0 + r) * mean
        sigma2 = r * mean / 5.0
        sigma = math.sqrt(sigma2)
        scale = sigma * math.sqrt(2.0)
        mass = (
            sigma
            * math.sqrt(math.pi / 2.0)
            * (math.erf((hi - mean) / scale) - math.erf((lo - mean) / scale))
        )
        return cls(mean, lo, hi, sigma2, 1.0 / mass)


def gauss_expect(
    f: Callable, dens: FluctuationDensity, vectorized: bool = False
) -> float:
    """Expectation of f under the truncated-Gaussian intensity density.

    Fixed 64-node Gauss-Legendre quadrature; a point-mass density simply
    evaluates f at the mean.  With ``vectorized`` f is called once on the
    array of all nodes, otherwise once per node.
    """
    if dens.lo == dens.hi:
        return f(dens.mean)
    k, weight, half = _quadrature(dens)
    values = f(k) if vectorized else np.array([f(x) for x in k.tolist()])
    return float(weight @ values) * half


def _quadrature(dens: FluctuationDensity) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes, density-weighted node weights and half-width of the 64-node
    rule on a density that is not a point mass."""
    center = 0.5 * (dens.hi + dens.lo)
    half = 0.5 * (dens.hi - dens.lo)
    k = center + half * _NODES
    weight = _WEIGHTS * (
        dens.norm * np.exp(-((k - dens.mean) ** 2) / (2.0 * dens.sigma2))
    )
    return k, weight, half


def _interference_factors(xi: float, a: str, y: int, b: str) -> tuple[float, float]:
    """Fraction of the pulse reaching Bob's port 0 and port 1.

    Encoding flaws rotate the sender state by y*xi (Z basis) or xi/2 (X
    basis), and the receiver's modulation error moves in the opposite
    direction, which is where the sin(xi/2) and sin(3 xi/2) cross-basis
    terms come from.
    """
    if a == "X" and y != 0:
        raise ValueError("the X basis only encodes bit 0")
    if (a, y, b) == ("Z", 0, "Z"):
        overlap = 1.0
    elif (a, y, b) == ("Z", 1, "Z"):
        overlap = -math.cos(xi)
    elif (a, y, b) == ("X", 0, "X"):
        overlap = math.cos(xi)
    elif (a, y, b) == ("Z", 0, "X"):
        overlap = math.sin(xi / 2.0)
    elif (a, y, b) == ("Z", 1, "X"):
        overlap = -math.sin(3.0 * xi / 2.0)
    elif (a, y, b) == ("X", 0, "Z"):
        # sender X, receiver Z: never used by any bound, kept for sifting
        # completeness by symmetry with the Z -> X case
        overlap = -math.sin(xi / 2.0)
    else:
        raise ValueError(f"unknown configuration {(a, y, b)!r}")
    return (1.0 + overlap) / 2.0, (1.0 - overlap) / 2.0


def click_probs(
    cfg: ChannelConfig,
    level: IntensityLevel,
    basis_pair: tuple[str, str],
    bit_in: int,
) -> tuple[float, float]:
    """Raw click probabilities (port 0, port 1) before double-click handling.

    Each port clicks unless neither the attenuated pulse fraction routed
    to it nor a dark count fires:
    p_j = E_k[1 - (1 - p_d) exp(-eta_sy k f_j)].
    """
    a, b = basis_pair
    fracs = _interference_factors(cfg.xi, a, bit_in, b)
    p0, p1 = _port_click_probs(cfg, level.nominal, fracs)
    return p0, p1


def _port_click_probs(
    cfg: ChannelConfig, nominal: float, fracs: Sequence[float]
) -> list[float]:
    """Click probability of each port that receives the fraction
    ``fracs[i]`` of a pulse of nominal intensity ``nominal``.

    All ports share one density and one set of quadrature weights, and
    one np.exp runs over the (ports, nodes) array.  Every port's number
    equals ``gauss_expect`` of its own integrand bit for bit: the
    elementwise products are the same, and each port is one dot product
    with the weights.
    """
    dens = FluctuationDensity.for_intensity(nominal, cfg.fluct_r)
    eta = cfg.eta_sy
    pd = cfg.dark_prob
    if dens.lo == dens.hi:
        return [1.0 - (1.0 - pd) * math.exp(-eta * dens.mean * f) for f in fracs]
    k, weight, half = _quadrature(dens)
    values = 1.0 - (1.0 - pd) * np.exp(np.multiply.outer(fracs, -eta * k))
    return [float(weight @ row) * half for row in values]


def resolve_double_clicks(p_j: float, p_jother: float) -> float:
    """P(outcome j and not the other) with double clicks split at random."""
    if not (0.0 <= p_j <= 1.0 and 0.0 <= p_jother <= 1.0):
        raise ValueError("click probabilities must lie in [0, 1]")
    return p_j * (1.0 - p_jother) + 0.5 * p_j * p_jother


def apply_misalignment(
    p_correct: float, p_wrong: float, e_mis: float
) -> tuple[float, float]:
    """Leak a fraction e_mis of the correct-outcome mass into the wrong one."""
    if not 0.0 <= e_mis <= 1.0:
        raise ValueError("e_mis must lie in [0, 1]")
    return p_correct * (1.0 - e_mis), p_correct * e_mis + p_wrong


class ChannelModel:
    """Click tables for one link, memoized per nominal intensity.

    The per-configuration outcome probabilities depend only on the
    channel parameters and the nominal intensity (its fluctuation range
    is the config's ``fluct_r``), not on the basis or intensity
    selection probabilities, so one table serves every (p_z, N) choice.
    """

    def __init__(self, cfg: ChannelConfig):
        self.cfg = cfg
        # port 0 and port 1 fractions of every configuration, in _CONFIGS order
        self._fractions = tuple(
            f for a, y, b in _CONFIGS for f in _interference_factors(cfg.xi, a, y, b)
        )
        # per nominal intensity: the click table and, for batches, its
        # outcome probabilities along CELLS followed by the Z error rate
        self._tables: dict[float, tuple[dict, list[float]]] = {}

    def outcome_probs(self, level: IntensityLevel) -> dict:
        """Map (sender basis, sender bit, receiver basis) -> (P0, P1).

        P_j is the probability that the receiver registers outcome j
        (exclusively, after random double-click assignment and, for
        like-basis configurations, misalignment).
        """
        return self._entry(level.nominal)[0]

    def _entry(self, nominal: float) -> tuple[dict, list[float]]:
        """The click table at ``nominal`` and its row, built on first use."""
        entry = self._tables.get(nominal)
        if entry is not None:
            return entry
        ports = _port_click_probs(self.cfg, nominal, self._fractions)
        table = {}
        for (a, y, b), p0, p1 in zip(_CONFIGS, ports[0::2], ports[1::2]):
            q0 = resolve_double_clicks(p0, p1)
            q1 = resolve_double_clicks(p1, p0)
            if a == b:
                # misalignment flips a fraction of the otherwise correct
                # outcomes; cross-basis outcomes are already error-like
                correct = y if a == "Z" else 0
                if correct == 0:
                    q0, q1 = apply_misalignment(q0, q1, self.cfg.e_mis)
                else:
                    q1, q0 = apply_misalignment(q1, q0, self.cfg.e_mis)
            table[(a, y, b)] = (q0, q1)
        # the X1 sender cells are never sent
        row = [p for c in _CONFIGS for p in table[c]] + [0.0] * 4
        entry = self._tables[nominal] = (table, row + [_z_error_rate(table)])
        return entry

    def expected(
        self, intens: IntensitySet, p_z: float, n_total: float
    ) -> tuple[ObservedCounts, float]:
        """Expected ObservedCounts and the Z-basis bit error rate."""
        if n_total <= 0:
            raise ValueError("n_total must be positive")
        if not 0.0 < p_z < 1.0:
            raise ValueError("p_z must lie in (0, 1)")
        p_x = 1.0 - p_z
        state_prob = {("Z", 0): 0.5 * p_z, ("Z", 1): 0.5 * p_z, ("X", 0): p_x}
        basis_prob = {"Z": p_z, "X": p_x}
        cells: dict = {}
        z_by_k: dict = {}
        trials: dict = {}
        for a, y, b in _CONFIGS:
            trials[(a, y, b)] = n_total * state_prob[(a, y)] * basis_prob[b]
        for b in ("Z", "X"):
            trials[("X", 1, b)] = 0.0
        for label in ("s", "d1", "d2"):
            level = intens.level(label)
            table = self.outcome_probs(level)
            n_k = n_total * level.prob
            z_k = 0.0
            for a, y, b in _CONFIGS:
                probs = table[(a, y, b)]
                for j in (0, 1):
                    count = n_k * state_prob[(a, y)] * basis_prob[b] * probs[j]
                    cells[(a, y, b, j, label)] = count
                    if a == "Z" and b == "Z":
                        z_k += count
                for j in (0, 1):
                    cells.setdefault(("X", 1, b, j, label), 0.0)
            z_by_k[label] = z_k
        e_z = _z_error_rate(self.outcome_probs(intens.s))
        counts = ObservedCounts(
            z_by_k=z_by_k,
            cells=cells,
            n_z=n_total * p_z * p_z,
            n_total=n_total,
            trials_by_config=trials,
        )
        return counts, e_z

    def expected_batch(
        self, intens: IntensityBatch, p_z: np.ndarray, n_total: float
    ) -> tuple[CountsBatch, np.ndarray]:
        """``expected`` for a batch of points: dense counts and e_z per point.

        Each distinct nominal intensity of the batch is looked up once.
        """
        if n_total <= 0:
            raise ValueError("n_total must be positive")
        if not ((0.0 < p_z) & (p_z < 1.0)).all():
            raise ValueError("p_z must lie in (0, 1)")
        # sender-state and receiver-basis weights along the CELLS axis; the
        # X1 state is never sent and weighs 0
        weights = np.array([0.5 * p_z, 1.0 - p_z, p_z, np.zeros(len(p_z))]).T
        state = weights[:, None, _CELL_STATE]
        basis = weights[:, None, _CELL_BASIS]
        levels = np.array([(lv.nominal, lv.prob) for lv in intens]).T  # (B, 2, 3)
        nominal, which = distinct(levels[:, 0])
        rows = np.array([self._entry(k)[1] for k in nominal.tolist()])
        rows = rows.reshape(-1, 17)[which]
        # N_k, then the state, the basis and the outcome, as in expected()
        cells = n_total * levels[:, 1, :, None] * state * basis * rows[:, :, :16]
        z_by_k = cells[:, :, _ZZ_CELLS].sum(axis=2)
        counts = CountsBatch(
            cells=cells,
            trials=n_total * state[:, 0] * basis[:, 0],
            z_by_k=z_by_k,
            z_tot=z_by_k.sum(axis=1),
            n_z=n_total * p_z * p_z,
        )
        # the Z error rate of each point's signal level
        return counts, rows[:, 0, 16]

    def sample(
        self, intens: IntensitySet, p_z: float, n_total: int, seed: int
    ) -> ObservedCounts:
        """Monte-Carlo draw of ObservedCounts with integer cells.

        Trials are split multinomially over (sender state, receiver
        basis, intensity), then each group draws its two outcome counts.
        """
        if n_total < 0:
            raise ValueError("n_total must be nonnegative")
        if not 0.0 < p_z < 1.0:
            raise ValueError("p_z must lie in (0, 1)")
        rng = np.random.default_rng(seed)
        p_x = 1.0 - p_z
        state_prob = {("Z", 0): 0.5 * p_z, ("Z", 1): 0.5 * p_z, ("X", 0): p_x}
        basis_prob = {"Z": p_z, "X": p_x}
        combos = [
            (a, y, b, label)
            for a, y, b in _CONFIGS
            for label in ("s", "d1", "d2")
        ]
        pvals = np.array(
            [
                state_prob[(a, y)] * basis_prob[b] * intens.level(label).prob
                for a, y, b, label in combos
            ]
        )
        pvals /= pvals.sum()
        group_trials = rng.multinomial(n_total, pvals)
        cells: dict = {}
        trials: dict = {}
        z_by_k = {label: 0 for label in ("s", "d1", "d2")}
        n_z = 0
        for (a, y, b, label), m in zip(combos, group_trials):
            table = self.outcome_probs(intens.level(label))
            q0, q1 = table[(a, y, b)]
            c0, c1, _ = rng.multinomial(int(m), [q0, q1, max(0.0, 1.0 - q0 - q1)])
            cells[(a, y, b, 0, label)] = int(c0)
            cells[(a, y, b, 1, label)] = int(c1)
            trials[(a, y, b)] = trials.get((a, y, b), 0) + int(m)
            if a == "Z" and b == "Z":
                z_by_k[label] += int(c0) + int(c1)
                n_z += int(m)
            for j in (0, 1):
                cells.setdefault(("X", 1, b, j, label), 0)
        for b in ("Z", "X"):
            trials.setdefault(("X", 1, b), 0)
        return ObservedCounts(
            z_by_k=z_by_k,
            cells=cells,
            n_z=n_z,
            n_total=n_total,
            trials_by_config=trials,
        )


def _z_error_rate(table: dict) -> float:
    """Z-basis bit error rate of one intensity level's click table."""
    err = table[("Z", 0, "Z")][1] + table[("Z", 1, "Z")][0]
    gain = sum(table[("Z", y, "Z")][j] for y in (0, 1) for j in (0, 1))
    return err / gain if gain > 0.0 else 0.0


def expected_counts(
    cfg: ChannelConfig, intens: IntensitySet, p_z: float, n_total: float
) -> tuple[ObservedCounts, float]:
    return ChannelModel(cfg).expected(intens, p_z, n_total)


def sample_counts(
    cfg: ChannelConfig, intens: IntensitySet, p_z: float, n_total: int, seed: int
) -> ObservedCounts:
    return ChannelModel(cfg).sample(intens, p_z, n_total, seed)
