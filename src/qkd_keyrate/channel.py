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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .decoy import CountsBatch, IntensityBatch, distinct

__all__ = [
    "CellLayout",
    "ChannelConfig",
    "ChannelModel",
    "FluctuationDensity",
    "gauss_expect",
    "z_error_rate",
]

# the 64-node Gauss-Legendre rule on [-1, 1], stored as the literals of
# roots_legendre(64); that rule is symmetric bit for bit, so its 32 positive
# nodes (increasing) and their weights are mirrored into the whole rule
_HALF_NODES = (
    0.024350292663424374, 0.07299312178779904, 0.12146281929612057,
    0.16964442042399283, 0.21742364374000703, 0.2646871622087674,
    0.3113228719902109, 0.3572201583376682, 0.4022701579639916,
    0.44636601725346414, 0.489403145707053, 0.5312794640198946,
    0.5718956462026339, 0.6111553551723933, 0.6489654712546573,
    0.6852363130542332, 0.7198818501716109, 0.7528199072605319,
    0.7839723589433414, 0.8132653151227975, 0.8406292962525803,
    0.8659993981540928, 0.889315445995114, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538,
    0.973326827789911, 0.983336253884626, 0.9910133714767442,
    0.9963401167719552, 0.9993050417357721,
)
_HALF_WEIGHTS = (
    0.04869095700913963, 0.04857546744150339, 0.048344762234802906,
    0.04799938859645825, 0.047540165714830315, 0.046968182816209854,
    0.046284796581314465, 0.04549162792741793, 0.04459055816375637,
    0.04358372452932331, 0.04247351512365328, 0.041262563242623396,
    0.03995374113272041, 0.038550153178615335, 0.03705512854024002,
    0.03547221325688267, 0.03380516183714145, 0.03205792835485138,
    0.03023465707240202, 0.028339672614259487, 0.026377469715054197,
    0.024352702568710975, 0.022270173808383264, 0.020134823153530858,
    0.017951715775696795, 0.01572603047602452, 0.013463047896718951,
    0.011168139460130634, 0.0088467598263635, 0.006504457968979944,
    0.00414703326056217, 0.0017832807216983117,
)
_NODES = np.concatenate([-np.array(_HALF_NODES[::-1]), _HALF_NODES])
_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])

# sender configurations that actually occur: the X basis only ever encodes bit 0
_SENDER_STATES = (("Z", 0), ("Z", 1), ("X", 0))
_CONFIGS = tuple((a, y, b) for a, y in _SENDER_STATES for b in ("Z", "X"))
# along the CELLS axis (Z0, Z1, X0, X1 sender; Z/X receiver; outcome):
# the sender-state weight (0.5 p_z, 0.5 p_z, p_x, 0) and the receiver-basis
# weight (p_z or p_x), as columns of [0.5 p_z, p_x, p_z, 0]
_CELL_STATE = np.repeat([0, 0, 1, 3], 4)
_CELL_BASIS = np.tile([2, 2, 1, 1], 4)
# the Z-sender, Z-receiver cells: Z0Z0, Z0Z1, Z1Z0, Z1Z1
ZZ_CELLS = np.array([0, 1, 4, 5])
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
        if not math.isfinite(self.xi):
            raise ValueError(f"xi must be finite, got {self.xi!r}")
        if not (math.isfinite(self.atten_db_per_km) and self.atten_db_per_km >= 0):
            raise ValueError(
                "atten_db_per_km must be finite and nonnegative, "
                f"got {self.atten_db_per_km!r}"
            )

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


def gauss_expect(f: Callable, dens: FluctuationDensity) -> float:
    """Expectation of f under the truncated-Gaussian intensity density.

    Fixed 64-node Gauss-Legendre quadrature, calling f once per node; a
    point-mass density simply evaluates f at the mean.
    """
    if dens.lo == dens.hi:
        return f(dens.mean)
    k, weight, half = _quadrature(dens)
    return float(weight @ np.array([f(x) for x in k.tolist()])) * half


def _quadrature(dens: FluctuationDensity) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes, density-weighted node weights and half-width of the 64-node
    rule on a density that is not a point mass.

    The fields of ``dens`` may also be (S, 1) arrays, a stack of S
    densities: the nodes and weights are then (S, 64) and the half-widths
    (S, 1), each row formed by the same operations as for one density.
    """
    center = 0.5 * (dens.hi + dens.lo)
    half = 0.5 * (dens.hi - dens.lo)
    k = center + half * _NODES
    weight = _WEIGHTS * (
        dens.norm * np.exp(-((k - dens.mean) ** 2) / (2.0 * dens.sigma2))
    )
    return k, weight, half


def _overlaps(xi: float) -> tuple[float, ...]:
    """The overlap of each configuration of _CONFIGS: a pulse sends the
    fraction (1 + overlap)/2 to Bob's port 0 and (1 - overlap)/2 to
    port 1.

    Encoding flaws rotate the sender state by y*xi (Z basis) or xi/2 (X
    basis), and the receiver's modulation error moves in the opposite
    direction, which is where the sin(xi/2) and sin(3 xi/2) cross-basis
    terms come from.  The X -> Z overlap is never used by any bound; it
    mirrors the Z -> X one for sifting completeness.
    """
    return (
        1.0,
        math.sin(xi / 2.0),
        -math.cos(xi),
        -math.sin(3.0 * xi / 2.0),
        -math.sin(xi / 2.0),
        math.cos(xi),
    )


def _port_click_probs(
    cfg: ChannelConfig, nominal: Sequence[float], fracs: Sequence[float]
) -> list[list[float]]:
    """K rows of P click probabilities: of each port that receives the
    fraction ``fracs[j]`` of a pulse of nominal intensity ``nominal[i]``.

    Each port clicks unless neither its share of the attenuated pulse
    nor a dark count fires: p = E_k[1 - (1 - p_d) exp(-eta_sy k f)].  A
    point-mass level (r = 0 or intensity 0) takes the closed form in
    Python floats.  The other levels share one pass: their densities'
    quadrature weights as one (S, 64) array, one np.exp over the
    (S, P, 64) integrands, and every port's quadrature as one batched
    matmul.  A row's floats do not depend on the other rows; each port
    is within a few ulps of a separate quadrature of its own integrand
    (the dot products may sum in another order).
    """
    eta, pd, r = cfg.eta_sy, cfg.dark_prob, cfg.fluct_r
    rows: list = []
    spread = []
    for i, k in enumerate(nominal):
        if r == 0.0 or k == 0.0:
            rows.append([1.0 - (1.0 - pd) * math.exp(-eta * k * f) for f in fracs])
        else:
            # left to the quadrature below
            rows.append(None)
            spread.append(i)
    if spread:
        # the spread levels' densities stacked into (S, 1) fields
        dens = [FluctuationDensity.for_intensity(nominal[i], r) for i in spread]
        stacked = FluctuationDensity(*np.array([
            (d.mean, d.lo, d.hi, d.sigma2, d.norm) for d in dens
        ]).T[:, :, None])
        k, weight, half = _quadrature(stacked)
        # fracs * (-eta k) as np.multiply.outer forms it, per level
        exponent = (-eta * k)[:, None, :] * np.asarray(fracs, dtype=float)[:, None]
        values = 1.0 - (1.0 - pd) * np.exp(exponent)
        probs = (values @ weight[:, :, None])[:, :, 0] * half
        for i, row in zip(spread, probs.tolist()):
            rows[i] = row
    return rows


def _click_tables(
    cfg: ChannelConfig, nominal: Sequence[float], fracs: Sequence[float]
) -> list[list[float]]:
    """The click tables at the nominal intensities ``nominal``, K rows of
    17, from the click probabilities of their ports (``fracs`` are the
    port fractions of ``_CONFIGS``), all formed by one
    ``_port_click_probs`` call.

    Entry i is the probability that a pulse of CELLS[i]'s sender state
    measured in its receiver basis gives its outcome (exclusively,
    after random double-click assignment and, for like-basis
    configurations, misalignment); entry 16 is the Z error rate.
    """
    ports = _port_click_probs(cfg, nominal, fracs)
    return [_table_from_ports(row, cfg.e_mis) for row in ports]


def _table_from_ports(ports: list[float], e_mis: float) -> list[float]:
    """One click table of ``_click_tables``, from the click
    probabilities of its 12 ports."""
    row = []
    for (a, y, b), p0, p1 in zip(_CONFIGS, ports[0::2], ports[1::2]):
        # each outcome alone, and half of the double clicks
        q0 = p0 * (1.0 - p1) + 0.5 * p0 * p1
        q1 = p1 * (1.0 - p0) + 0.5 * p1 * p0
        if a == b:
            # misalignment leaks a fraction e_mis of the correct outcome
            # (bit y; the X basis only sends 0) into the wrong one
            if y == 0:
                q0, q1 = q0 * (1.0 - e_mis), q0 * e_mis + q1
            else:
                q1, q0 = q1 * (1.0 - e_mis), q1 * e_mis + q0
        row += (q0, q1)
    # the X1 sender cells are never sent
    row += [0.0] * 4
    row.append(z_error_rate(row))
    return row


class CellLayout(NamedTuple):
    """The part of a batch's counts that does not depend on the link.

    Per point: its ``p_z``, the selection probability of each level
    ``prob`` (B, 3, 1), the sender-state and receiver-basis weights
    ``weights`` (B, 4; ``_CELL_STATE`` and ``_CELL_BASIS`` pick them
    along CELLS), and per level the index ``which`` (B, 3) of its
    nominal intensity into the sorted distinct ones, ``nominal``.  A
    grid that several links share forms it once.
    """

    p_z: np.ndarray
    prob: np.ndarray
    weights: np.ndarray
    nominal: np.ndarray
    which: np.ndarray

    @classmethod
    def of(cls, intens: IntensityBatch, p_z: np.ndarray) -> "CellLayout":
        if not ((0.0 < p_z) & (p_z < 1.0)).all():
            raise ValueError("p_z must lie in (0, 1)")
        # sender-state and receiver-basis weights 0.5 p_z, p_x, p_z and 0
        # (the X1 state is never sent)
        weights = np.array([0.5 * p_z, 1.0 - p_z, p_z, np.zeros(len(p_z))]).T
        levels = np.array([(lv.nominal, lv.prob) for lv in intens]).T  # (B, 2, 3)
        nominal, which = distinct(levels[:, 0])
        return cls(p_z, levels[:, 1, :, None], weights, nominal, which)


class ChannelModel:
    """Click tables for one link, memoized per nominal intensity.

    The per-configuration outcome probabilities depend only on the
    channel parameters and the nominal intensity (its fluctuation range
    is the config's ``fluct_r``), not on the basis or intensity
    selection probabilities, so one table serves every (p_z, N) choice.
    The tables a batch needs and the model lacks are built together, by
    one ``_click_tables`` call, whose port quadratures share one array
    pass.  ``expected_counts`` takes a batch's ``CellLayout``, which a
    grid that several links share forms once.
    """

    def __init__(self, cfg: ChannelConfig):
        self.cfg = cfg
        # port 0 and port 1 fractions of every configuration, in _CONFIGS order
        self._fractions = tuple(
            f for o in _overlaps(cfg.xi) for f in ((1.0 + o) / 2.0, (1.0 - o) / 2.0)
        )
        # per nominal intensity: its click table, the outcome
        # probabilities along CELLS followed by the Z error rate
        self._by_nominal: dict[float, list[float]] = {}

    def _tables(self, nominal: Sequence[float]) -> np.ndarray:
        """(D, 17) click tables at the distinct nominal intensities
        ``nominal``, building the missing ones in one pass."""
        tables = self._by_nominal
        missing = [k for k in nominal if k not in tables]
        if missing:
            tables.update(zip(missing, _click_tables(self.cfg, missing, self._fractions)))
        return np.array([tables[k] for k in nominal]).reshape(-1, 17)

    def _layout(self, layout: CellLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sender-state and receiver-basis weights along CELLS
        (B, 1, 16) and the click tables of the levels (B, 3, 17)."""
        state = layout.weights[:, None, _CELL_STATE]
        basis = layout.weights[:, None, _CELL_BASIS]
        return state, basis, self._tables(layout.nominal.tolist())[layout.which]

    def expected_counts(
        self, layout: CellLayout, n_total: float
    ) -> tuple[CountsBatch, np.ndarray]:
        """Expected counts of the batch that ``layout`` lays out and the
        Z-basis bit error rate of each point's signal level."""
        if not (math.isfinite(n_total) and n_total > 0):
            raise ValueError(f"n_total must be finite and positive, got {n_total!r}")
        state, basis, rows = self._layout(layout)
        cells = n_total * layout.prob * state * basis * rows[:, :, :16]
        z_by_k = cells[:, :, ZZ_CELLS].sum(axis=2)
        p_z = layout.p_z
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
        # numpy's multinomial takes a C long and truncates a fraction
        if not (0 <= n_total < 2**63 and n_total == math.floor(n_total)):
            raise ValueError(
                f"n_total must be a whole number in [0, 2**63), got {n_total!r}"
            )
        n_total = int(n_total)
        rng = np.random.default_rng(seed)
        layout = CellLayout.of(intens, p_z)
        state, basis, rows = self._layout(layout)
        # one group per (level, configuration): the configurations are the
        # even CELLS entries, each followed by its other outcome
        groups = (layout.prob * state * basis)[:, :, ::2].reshape(len(rows), 24)
        groups /= groups.sum(axis=1, keepdims=True)
        trials = rng.multinomial(n_total, groups).reshape(-1, 3, 8)
        outcomes = rows[:, :, :16].reshape(-1, 3, 8, 2)
        no_click = np.maximum(0.0, 1.0 - outcomes.sum(axis=3, keepdims=True))
        clicks = rng.multinomial(trials, np.concatenate([outcomes, no_click], axis=3))
        cells = clicks[..., :2].reshape(-1, 3, 16).astype(float)
        config_trials = np.repeat(trials.sum(axis=1), 2, axis=1).astype(float)
        z_by_k = cells[:, :, ZZ_CELLS].sum(axis=2)
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
