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
from typing import NamedTuple, Sequence

import numpy as np

from .decoy import CountsBatch, distinct

__all__ = [
    "CellLayout",
    "ChannelConfig",
    "ChannelModel",
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
# the weights as p_z (0.5, -1, 1, 0) + (0, 1, 0, 0) forms them
_WEIGHT_SCALE, _WEIGHT_SHIFT = np.array([[0.5, -1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
# the Z-sender, Z-receiver cells: Z0Z0, Z0Z1, Z1Z0, Z1Z1
ZZ_CELLS = np.array([0, 1, 4, 5])
# a click table's entries that Z counts read: the ZZ_CELLS, then the Z
# error rate
_Z_ENTRIES = np.array([0, 1, 4, 5, 16])


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
        # (1 + r) mu would round to mu, and _spread's mass to 0
        if self.fluct_r > 0.0 and 1.0 + self.fluct_r == 1.0:
            raise ValueError(
                f"fluct_r = {self.fluct_r!r} is below the float spacing: "
                "(1 + r) mu rounds to mu"
            )
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


def _spread(mean: float, r: float) -> tuple[float, ...]:
    """The truncated Gaussian intensity density on [(1-r)mu, (1+r)mu] at
    a positive ``mean`` mu and 0 < r < 1: its mean, its ends, its
    dispersion sigma^2 = r mu / 5 and ``norm``, which rescales the
    truncated Gaussian to unit mass."""
    lo, hi = (1.0 - r) * mean, (1.0 + r) * mean
    sigma2 = r * mean / 5.0
    sigma = math.sqrt(sigma2)
    scale = sigma * math.sqrt(2.0)
    mass = (
        sigma
        * math.sqrt(math.pi / 2.0)
        * (math.erf((hi - mean) / scale) - math.erf((lo - mean) / scale))
    )
    return mean, lo, hi, sigma2, 1.0 / mass


def _quadrature(
    means: Sequence[float], r: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and density-weighted node weights, (S, 64), and half-widths,
    (S, 1), of the 64-node rule on the densities (``_spread``) at the S
    positive ``means`` and 0 < r < 1.  Each row is formed by the same
    operations whatever the other rows."""
    mean, lo, hi, sigma2, norm = (
        np.array([_spread(m, r) for m in means]).reshape(-1, 5).T[:, :, None]
    )
    center = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    k = center + half * _NODES
    weight = _WEIGHTS * (norm * np.exp(-((k - mean) ** 2) / (2.0 * sigma2)))
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
    Python floats.  The other levels share one pass: their nodes and
    quadrature weights as one (S, 64) ``_quadrature``, one np.exp over
    the (S, P, 64) integrands, and every port's quadrature as one
    batched matmul.  A row's floats do not
    depend on the other rows; each port is within a few ulps of a
    separate quadrature of its own integrand (the dot products may sum
    in another order).
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
        k, weight, half = _quadrature([nominal[i] for i in spread], r)
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
    def of(cls, nominal: np.ndarray, prob: np.ndarray, p_z: np.ndarray) -> "CellLayout":
        """The layout of points with Z-basis probability ``p_z`` whose
        levels' ``level_arrays`` are ``nominal`` and ``prob``."""
        weights = p_z[:, None] * _WEIGHT_SCALE + _WEIGHT_SHIFT
        distinct_nominal, which = distinct(nominal.T)
        return cls(p_z, prob.T[:, :, None], weights, distinct_nominal, which)


class ChannelModel:
    """Click tables for one link, memoized per nominal intensity.

    The per-configuration outcome probabilities depend only on the
    channel parameters and the nominal intensity (its fluctuation range
    is the config's ``fluct_r``), not on the basis or intensity
    selection probabilities, so one table serves every (p_z, N) choice.
    The tables a batch needs and the model lacks are built together, by
    one ``_click_tables`` call, whose port quadratures share one array
    pass.  ``expected_counts`` takes a batch's ``CellLayout``, which a
    grid that several links share forms once.  A caller that needs the
    cells of a few points only forms the Z counts of the batch with
    ``z_counts`` and the cells of those points with ``cell_counts``.
    """

    def __init__(self, cfg: ChannelConfig):
        self.cfg = cfg
        # port 0 and port 1 fractions of every configuration, in _CONFIGS order
        self._fractions = tuple(
            f for o in _overlaps(cfg.xi) for f in ((1.0 + o) / 2.0, (1.0 - o) / 2.0)
        )
        # the click tables, rows of 17: the outcome probabilities along
        # CELLS followed by the Z error rate; and each nominal intensity's row
        self._rows = np.empty((0, 17))
        self._row_of: dict[float, int] = {}

    def _tables(self, nominal: Sequence[float]) -> np.ndarray:
        """(D, 17) click tables at the distinct nominal intensities
        ``nominal``, building the missing ones in one pass."""
        row_of = self._row_of
        missing = [k for k in nominal if k not in row_of]
        if missing:
            tables = _click_tables(self.cfg, missing, self._fractions)
            row_of.update(zip(missing, range(len(row_of), len(row_of) + len(missing))))
            self._rows = np.concatenate([self._rows, tables])
        return self._rows[[row_of[k] for k in nominal]]

    def _layout(
        self, layout: CellLayout, rows: np.ndarray | slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sender-state and receiver-basis weights along CELLS
        (R, 1, 16) and the click tables of the levels (R, 3, 17) of the
        batch's points ``rows``."""
        weights = layout.weights[rows]
        state = weights[:, None, _CELL_STATE]
        basis = weights[:, None, _CELL_BASIS]
        return state, basis, self._tables(layout.nominal.tolist())[layout.which[rows]]

    def _cells(
        self, layout: CellLayout, n_total: float, rows: np.ndarray | slice
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expected cells (R, 3, 16) and configuration trials (R, 16) of
        the batch's points ``rows``, and their levels' click tables."""
        state, basis, tables = self._layout(layout, rows)
        cells = n_total * layout.prob[rows] * state * basis * tables[:, :, :16]
        return cells, n_total * state[:, 0] * basis[:, 0], tables

    def expected_counts(
        self, layout: CellLayout, n_total: float
    ) -> tuple[CountsBatch, np.ndarray]:
        """Expected counts of the batch that ``layout`` lays out and the
        Z-basis bit error rate of each point's signal level."""
        _check_n_total(n_total)
        cells, trials, tables = self._cells(layout, n_total, slice(None))
        zz = cells[..., 0], cells[..., 1], cells[..., 4], cells[..., 5]
        return _counts(cells, trials, zz, layout, n_total), tables[:, 0, 16]

    def z_counts(
        self, layout: CellLayout, n_total: float
    ) -> tuple[CountsBatch, np.ndarray]:
        """``expected_counts`` without its cells and trials (None): the
        Z fields and the Z error rates, formed from the four ZZ_CELLS
        alone by the same float operations."""
        _check_n_total(n_total)
        tables = self._tables(layout.nominal.tolist())[:, _Z_ENTRIES][layout.which]
        # the ZZ_CELLS share cell 0's sender-state and receiver-basis weights
        weights = layout.weights[:, None]
        zz = (n_total * layout.prob * weights[..., _CELL_STATE[:1]]
              * weights[..., _CELL_BASIS[:1]] * tables[:, :, :4])
        return _counts(None, None, zz.transpose(2, 0, 1), layout, n_total), tables[:, 0, 4]

    def cell_counts(
        self, layout: CellLayout, n_total: float, rows: np.ndarray
    ) -> CountsBatch:
        """The cells and trials of ``expected_counts`` at the batch's
        points ``rows`` alone, by the same float operations; the Z fields
        are None (``z_counts`` forms them for the whole batch)."""
        _check_n_total(n_total)
        cells, trials, _ = self._cells(layout, n_total, rows)
        return CountsBatch(cells, trials, None, None, None)

    def sample(
        self, levels: tuple[np.ndarray, ...], p_z: np.ndarray, n_total: int, seed: int
    ) -> CountsBatch:
        """Monte-Carlo counts with integer cells, one independent draw per
        point of the levels ``levels``, ``level_arrays``' four (3, B)
        arrays; a point that appears twice is drawn twice.

        Each point's trials are split multinomially over (intensity,
        sender state, receiver basis), then each group draws its two
        outcome counts.
        """
        # numpy's multinomial takes a C long and truncates a fraction
        if not (0 <= n_total < 2**63 and n_total == math.floor(n_total)):
            raise ValueError(
                f"n_total must be a whole number in [0, 2**63), got {n_total!r}"
            )
        if not ((0.0 < p_z) & (p_z < 1.0)).all():
            raise ValueError("p_z must lie in (0, 1)")
        n_total = int(n_total)
        rng = np.random.default_rng(seed)
        nominal, _, _, prob = levels
        layout = CellLayout.of(nominal, prob, p_z)
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


def _counts(
    cells: np.ndarray | None, trials: np.ndarray | None, zz: Sequence[np.ndarray],
    layout: CellLayout, n_total: float,
) -> CountsBatch:
    """Counts from their cells and trials and the ZZ_CELLS' (B, 3)
    counts ``zz``, in order."""
    # the ZZ_CELLS and the levels added in order, as .sum adds so few
    z_by_k = zz[0] + zz[1] + zz[2] + zz[3]
    return CountsBatch(
        cells=cells,
        trials=trials,
        z_by_k=z_by_k,
        z_tot=z_by_k[:, 0] + z_by_k[:, 1] + z_by_k[:, 2],
        n_z=n_total * layout.p_z * layout.p_z,
    )


def _check_n_total(n_total: float) -> None:
    if not (math.isfinite(n_total) and n_total > 0):
        raise ValueError(f"n_total must be finite and positive, got {n_total!r}")


def z_error_rate(cells: Sequence[float]) -> float:
    """Z-basis bit error rate of one intensity level from its entries
    along CELLS, outcome probabilities or counts: the Z0Z1 and Z1Z0
    cells over the four Z-sender, Z-receiver cells, 0 where those are
    all 0."""
    gain = cells[0] + cells[1] + cells[4] + cells[5]
    return (cells[1] + cells[4]) / gain if gain > 0.0 else 0.0
