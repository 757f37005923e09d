"""Fibre channel and threshold-detector model producing detection statistics.

Models the full measured-click pipeline for the three-state source:
fibre loss, detector efficiency, dark counts, intensity fluctuations
drawn from a truncated Gaussian, random assignment of double clicks, and
detector misalignment.  The output is a ``CountsBatch``, the dense
per-cell counts that the decoy and phase-error estimators consume:
expected values with the Z-basis bit error rate, or seeded Monte-Carlo
draws.

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

from .decoy import CountsBatch, IntensityBatch, IntensityLevel, distinct

__all__ = [
    "ChannelConfig",
    "ChannelModel",
    "FluctuationDensity",
    "apply_misalignment",
    "click_probs",
    "gauss_expect",
    "resolve_double_clicks",
    "z_error_rate",
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
        # per nominal intensity: the click table as one row, its outcome
        # probabilities along CELLS followed by the Z error rate
        self._tables: dict[float, list[float]] = {}

    def _entry(self, nominal: float) -> list[float]:
        """The click table at ``nominal``, built on first use.

        Entry i is the probability that a pulse of CELLS[i]'s sender state
        measured in its receiver basis gives its outcome (exclusively,
        after random double-click assignment and, for like-basis
        configurations, misalignment); entry 16 is the Z error rate.
        """
        row = self._tables.get(nominal)
        if row is not None:
            return row
        ports = _port_click_probs(self.cfg, nominal, self._fractions)
        row = []
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
            row += (q0, q1)
        # the X1 sender cells are never sent
        row += [0.0] * 4
        row.append(z_error_rate(row))
        self._tables[nominal] = row
        return row

    def _layout(
        self, intens: IntensityBatch, p_z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per point: the selection probability of each level (B, 3, 1),
        the sender-state and receiver-basis weights along CELLS (B, 1, 16)
        and the click tables of the levels (B, 3, 17).

        Each distinct nominal intensity of the batch is looked up once.
        """
        if not ((0.0 < p_z) & (p_z < 1.0)).all():
            raise ValueError("p_z must lie in (0, 1)")
        # sender-state and receiver-basis weights along the CELLS axis; the
        # X1 state is never sent and weighs 0
        weights = np.array([0.5 * p_z, 1.0 - p_z, p_z, np.zeros(len(p_z))]).T
        state = weights[:, None, _CELL_STATE]
        basis = weights[:, None, _CELL_BASIS]
        levels = np.array([(lv.nominal, lv.prob) for lv in intens]).T  # (B, 2, 3)
        nominal, which = distinct(levels[:, 0])
        rows = np.array([self._entry(k) for k in nominal.tolist()])
        return levels[:, 1, :, None], state, basis, rows.reshape(-1, 17)[which]

    def expected_batch(
        self, intens: IntensityBatch, p_z: np.ndarray, n_total: float
    ) -> tuple[CountsBatch, np.ndarray]:
        """Expected counts of a batch of points and the Z-basis bit error
        rate of each point's signal level."""
        if n_total <= 0:
            raise ValueError("n_total must be positive")
        prob, state, basis, rows = self._layout(intens, p_z)
        cells = n_total * prob * state * basis * rows[:, :, :16]
        z_by_k = cells[:, :, _ZZ_CELLS].sum(axis=2)
        counts = CountsBatch(
            cells=cells,
            trials=n_total * state[:, 0] * basis[:, 0],
            z_by_k=z_by_k,
            z_tot=z_by_k.sum(axis=1),
            n_z=n_total * p_z * p_z,
        )
        return counts, rows[:, 0, 16]

    def sample(
        self, intens: IntensityBatch, p_z: np.ndarray, n_total: int, seed: int
    ) -> CountsBatch:
        """Monte-Carlo counts with integer cells, one independent draw per
        point; a point that appears twice is drawn twice.

        Each point's trials are split multinomially over (intensity,
        sender state, receiver basis), then each group draws its two
        outcome counts.
        """
        if n_total < 0:
            raise ValueError("n_total must be nonnegative")
        rng = np.random.default_rng(seed)
        prob, state, basis, rows = self._layout(intens, p_z)
        # one group per (level, configuration): the configurations are the
        # even CELLS entries, each followed by its other outcome
        groups = (prob * state * basis)[:, :, ::2].reshape(len(p_z), 24)
        groups /= groups.sum(axis=1, keepdims=True)
        trials = rng.multinomial(n_total, groups).reshape(-1, 3, 8)
        outcomes = rows[:, :, :16].reshape(-1, 3, 8, 2)
        no_click = np.maximum(0.0, 1.0 - outcomes.sum(axis=3, keepdims=True))
        clicks = rng.multinomial(trials, np.concatenate([outcomes, no_click], axis=3))
        cells = clicks[..., :2].reshape(-1, 3, 16).astype(float)
        config_trials = np.repeat(trials.sum(axis=1), 2, axis=1).astype(float)
        z_by_k = cells[:, :, _ZZ_CELLS].sum(axis=2)
        return CountsBatch(
            cells=cells,
            trials=config_trials,
            z_by_k=z_by_k,
            z_tot=z_by_k.sum(axis=1),
            # the trials of the Z0 -> Z and Z1 -> Z configurations
            n_z=config_trials[:, 0] + config_trials[:, 4],
        )


def z_error_rate(cells: Sequence[float]) -> float:
    """Z-basis bit error rate of one intensity level from its entries
    along CELLS, outcome probabilities or counts: the Z0Z1 and Z1Z0
    cells over the four Z-sender, Z-receiver cells, 0 where those are
    all 0."""
    gain = cells[0] + cells[1] + cells[4] + cells[5]
    return (cells[1] + cells[4]) / gain if gain > 0.0 else 0.0
