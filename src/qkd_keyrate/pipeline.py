"""End-to-end rate evaluation: channel statistics to key length.

This is the single code path shared by the sweep and the optimizer, so
every consumer agrees on how the pieces chain together.  The chain runs
on batches of parameter points, with a leading batch axis, and every
batch enters it through ``prepare_batch``: the feasibility mask
(``level_arrays``), the channel layout and the decoy
factors, none of which depends on the link, so the optimizer's grid
forms them once for every distance of a sweep.  The chain then runs in
two stages.  ``stage_one`` bounds m0, m1 (``aggregate_bounds``) and the
EC leakage from the Z counts alone; ``stage_two`` forms the cells of the
points a caller picks and runs the cell bounds the phase-error bound
reads (``cell_bounds`` of the cells of ``phase_error.lower_terms``), the
phase-error weights at the points' p_z (``phase_weights`` of the per-xi
``source_coeffs``), ``n_ph_upper_batch`` and ``key_length_batch``.  The
optimizer's grid picks the points whose ``key_length_bound``, the
length at a zero phase-error rate, can beat a given rate.
``evaluate_batch`` evaluates many points at once and ``evaluate_rate``
one point, a batch of one: both form each point's counts once, cells
and all, and run both stages on every point.  The validation suites
call the same batch functions.  The channel statistics default to the
expected values of the system model; ``evaluate_rate`` also takes a
one-row ``CountsBatch`` from elsewhere, such as a ``ChannelModel.sample``
draw, in place of the expected counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .budget import EpsilonBudget
from .channel import ZZ_CELLS, CellLayout, ChannelConfig, ChannelModel, z_error_rate
from .decoy import (
    CELLS,
    CountsBatch,
    aggregate_bounds,
    cell_bounds,
    decoy_factors,
    level_arrays,
)
from .key_length import (
    F_EC_DEFAULT,
    KeyRateBatch,
    KeyRateResult,
    key_length_batch,
    key_length_bound,
    lambda_ec_batch,
)
from .phase_error import lower_terms, n_ph_upper_batch, phase_weights, term_coeffs
from .qubit_model import (
    THETA_0X,
    THETA_0Z,
    THETA_1Z,
    apply_filter,
    bloch_of_state,
    build_transmission_matrix,
    pair_coeffs,
)

__all__ = [
    "ParamBatch",
    "PreparedBatch",
    "ProtocolParams",
    "StageOne",
    "evaluate_batch",
    "evaluate_rate",
    "prepare_batch",
    "stage_one",
    "stage_two",
]

K_D2_DEFAULT = 2e-4
# the largest n_total and f_ec * n_total: past about 1e306 the deviations
# and the EC leakage overflow; below n_total = 1 the rate ell/n_total can too
MAX_COUNT = 1e300


@dataclass(frozen=True)
class ProtocolParams:
    """Free protocol parameters; the weakest decoy intensity is pinned."""

    p_z: float
    p_ks: float
    p_kd1: float
    k_s: float
    k_d1: float
    k_d2: float = K_D2_DEFAULT

    def intensities(self, mode: str, r: float) -> tuple[np.ndarray, ...]:
        """This point's levels for ``mode``, a batch of one: the four
        (3, 1) arrays of ``level_arrays``; raises ValueError where
        ``level_arrays`` rejects it."""
        *levels, ok = level_arrays(mode, r, *ParamBatch.of([self]))
        if not ok[0]:
            raise ValueError(f"infeasible parameter point in {mode} mode: {self}")
        return tuple(levels)


class ParamBatch(NamedTuple):
    """ProtocolParams of a batch of points, one (B,) array per field."""

    p_z: np.ndarray
    p_ks: np.ndarray
    p_kd1: np.ndarray
    k_s: np.ndarray
    k_d1: np.ndarray
    k_d2: np.ndarray

    @classmethod
    def of(cls, points: Sequence[ProtocolParams]) -> "ParamBatch":
        # the fields are the rows of one (6, B) array
        return cls(*np.array([
            (p.p_z, p.p_ks, p.p_kd1, p.k_s, p.k_d1, p.k_d2) for p in points
        ], dtype=float).reshape(-1, 6).T.copy())

    def point(self, i: int) -> ProtocolParams:
        return ProtocolParams(
            p_z=float(self.p_z[i]), p_ks=float(self.p_ks[i]),
            p_kd1=float(self.p_kd1[i]), k_s=float(self.k_s[i]),
            k_d1=float(self.k_d1[i]), k_d2=float(self.k_d2[i]),
        )


# a sweep or an optimization uses one xi; a few slots cover callers that
# alternate between flaw settings
@functools.lru_cache(maxsize=8)
def source_coeffs(xi: float) -> np.ndarray:
    """The six ``term_coeffs`` of the proportional flaw model with
    balanced pulses at xi, the only source the channel's overlaps
    describe.

    They do not depend on p_z, so they are memoized per xi; the array
    is shared by every caller and is read-only.  A degenerate setting
    raises, and raises again on the next call: lru_cache stores only
    results.
    """
    s0z, s1z, s0x = (
        apply_filter(*bloch_of_state(theta, xi))
        for theta in (THETA_0Z, THETA_1Z, THETA_0X)
    )
    a_inv = build_transmission_matrix(s0z, s1z, s0x).a_inv
    _, c, w = pair_coeffs(s0z, s1z, a_inv)
    coeffs = term_coeffs(c, w)
    coeffs.setflags(write=False)
    # a view of a read-only base cannot be flagged writable again
    return coeffs[:]


@functools.lru_cache(maxsize=8)
def _phase_source(xi: float) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """``source_coeffs(xi)`` and its ``lower_terms``: the terms whose
    weight can be <= 0 and their cells, the lower cell bounds stage 2
    forms."""
    coeffs = source_coeffs(xi)
    return (coeffs, *lower_terms(coeffs))


class PreparedBatch(NamedTuple):
    """The part of a batch's chain that does not depend on the link,
    ``prepare_batch`` of its points.

    ``mode`` is the intensity mode of its chain, ``feasible`` the mask
    of feasible points and ``idx`` their indices; ``layout`` is the
    ``CellLayout`` of the feasible points' levels and ``factors`` their
    ``decoy_factors``.
    """

    mode: str
    feasible: np.ndarray
    idx: np.ndarray
    layout: CellLayout
    factors: np.ndarray


def prepare_batch(params: ParamBatch, mode: str, r: float) -> PreparedBatch:
    """The link-independent part of ``params``' chain in ``mode`` at
    relative fluctuation ``r``: feasibility, channel layout and decoy
    factors.  An unknown mode or a bad ``r`` raises ValueError."""
    *levels, feasible = level_arrays(mode, r, *params)
    idx = feasible.nonzero()[0]
    p_z = params.p_z
    if len(idx) < len(p_z):
        levels, p_z = [a[:, idx] for a in levels], p_z[idx]
    nominal, lo, hi, prob = levels
    layout = CellLayout.of(nominal, prob, p_z)
    return PreparedBatch(mode, feasible, idx, layout, decoy_factors(lo, hi, prob))


def evaluate_batch(
    cfg: ChannelConfig, params: ParamBatch, budget: EpsilonBudget | None,
    n_total: float, mode: str = "exact", f_ec: float = F_EC_DEFAULT,
    model: ChannelModel | None = None,
) -> tuple[np.ndarray, KeyRateBatch]:
    """Secret-key results at a batch of parameter points.

    Returns the mask of feasible points and the results of the feasible
    ones, in order.  A point is infeasible where
    ``level_arrays`` rejects it, the rule under which
    ``evaluate_rate`` raises ValueError.  Settings that concern every point
    raise ValueError: mode, a budget of another mode, an n_total outside
    [1, MAX_COUNT], an f_ec outside [1, MAX_COUNT / n_total], and a
    source that cannot be built (``DegenerateStatesError``), which
    depends on xi alone and so fails at every p_z in (0, 1) or at none.
    ``model`` shares click tables across calls on one link.
    """
    _check_settings(budget, mode, n_total, f_ec)
    prepared = prepare_batch(params, mode, cfg.fluct_r)
    if model is None:
        model = ChannelModel(cfg)
    counts, e_z = model.expected_counts(prepared.layout, n_total)
    return prepared.feasible, _rate_batch(
        counts, e_z, prepared.factors, model.cfg.xi, prepared.layout.p_z,
        budget, n_total, f_ec,
    )


class StageOne(NamedTuple):
    """Stage 1 of a batch's feasible points on one link, (B,) arrays:
    the Z error rate of the signal level, the signal Z count |Z_ks|, m0,
    m1 and the EC leakage."""

    e_z: np.ndarray
    z_ks: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    lam: np.ndarray

    def ceiling(self, budget: EpsilonBudget | None, n_total: float) -> np.ndarray:
        """Per point, a rate that its key rate cannot exceed: its
        ``key_length_bound`` over n_total where m1 > 0, else -inf (no
        single photons, no key above a rate of 0)."""
        bound = key_length_bound(self.m0, self.m1, self.lam, budget)
        return np.where(self.m1 > 0.0, bound / n_total, -np.inf)


def stage_one(
    model: ChannelModel, prepared: PreparedBatch, budget: EpsilonBudget | None,
    n_total: float, f_ec: float = F_EC_DEFAULT,
) -> StageOne:
    """Stage 1 of a prepared batch on ``model``'s link, from its Z counts
    alone (``ChannelModel.z_counts``); ``stage_two`` then finishes the
    points a caller picks.

    The source is built first, so a degenerate one raises whatever the
    caller picks; errors are those of ``evaluate_batch``.
    """
    _check_settings(budget, prepared.mode, n_total, f_ec)
    source_coeffs(model.cfg.xi)
    counts, e_z = model.z_counts(prepared.layout, n_total)
    return _stage_one(counts, e_z, prepared.factors, budget, f_ec)


def stage_two(
    model: ChannelModel, prepared: PreparedBatch, one: StageOne, rows: np.ndarray,
    budget: EpsilonBudget | None, n_total: float,
) -> KeyRateBatch:
    """The results of the feasible points ``rows`` (indices into
    ``prepared.idx``) from their ``stage_one`` results ``one``: their
    cells (``ChannelModel.cell_counts``), the cell bounds, the
    phase-error bound and the key length.  Each point's result is the
    one ``evaluate_batch`` gives it, whatever the other rows.  Errors are
    those of ``stage_one``."""
    _check_settings(budget, prepared.mode, n_total)
    counts = model.cell_counts(prepared.layout, n_total, rows)
    return _stage_two(
        counts, prepared.factors[:, rows], prepared.layout.p_z[rows],
        StageOne(*(a[rows] for a in one)),
        _phase_source(model.cfg.xi), budget, n_total,
    )


def _stage_one(
    counts: CountsBatch, e_z: np.ndarray, factors: np.ndarray,
    budget: EpsilonBudget | None, f_ec: float,
) -> StageOne:
    """m0, m1 and the EC leakage from the Z fields of batch counts and
    the points' ``decoy_factors``."""
    m0, m1 = aggregate_bounds(counts, factors, budget)
    z_ks = counts.z_by_k[:, 0]
    return StageOne(e_z, z_ks, m0, m1, lambda_ec_batch(z_ks, e_z, f_ec))


def _stage_two(
    counts: CountsBatch, factors: np.ndarray, p_z: np.ndarray, one: StageOne,
    source: tuple, budget: EpsilonBudget | None, n_total: float,
) -> KeyRateBatch:
    """The cell bounds the phase-error bound reads, from the cells and
    trials of batch counts: every cell's upper1 and the lower1 of the
    cells of the source's ``lower_terms``; the phase-error weights at the
    points' ``p_z`` from the source's coefficients (``source`` is
    ``_phase_source``), the phase-error bound and the key length."""
    coeffs, terms, lower = source
    cells = cell_bounds(counts, factors, budget, lower)
    eph = n_ph_upper_batch(phase_weights(coeffs, p_z), cells, one.m1, budget, terms)
    return key_length_batch(
        one.m0, one.m1, eph.e_ph_upper, one.lam, budget,
        n_total=n_total, e_z=one.e_z, z_ks_size=one.z_ks,
    )


def _rate_batch(
    counts: CountsBatch, e_z: np.ndarray, factors: np.ndarray, xi: float,
    p_z: np.ndarray, budget: EpsilonBudget | None, n_total: float, f_ec: float,
) -> KeyRateBatch:
    """Both stages of every point of whole batch counts.  The source at
    ``xi`` is built first, so a degenerate one raises before any bound."""
    source = _phase_source(xi)
    one = _stage_one(counts, e_z, factors, budget, f_ec)
    return _stage_two(counts, factors, p_z, one, source, budget, n_total)


def evaluate_rate(
    cfg: ChannelConfig,
    params: ProtocolParams,
    budget: EpsilonBudget | None,
    n_total: float,
    mode: str = "exact",
    f_ec: float = F_EC_DEFAULT,
    counts: CountsBatch | None = None,
) -> KeyRateResult:
    """Secret-key result at one parameter point: ``evaluate_batch`` of a
    batch of one.

    A point that ``level_arrays`` rejects raises
    ValueError, and so do the settings ``evaluate_batch`` rejects;
    statistical aborts come back in the result.  A
    one-row ``counts`` (e.g. a ``ChannelModel.sample`` draw) replaces
    the expected statistics: the chain then runs from the prepared
    decoy factors, and the Z error rate is read from its
    signal-intensity Z cells; counts of the wrong shape, negative or
    non-finite counts, n_z > n_total, Z totals that are not the sums of
    their cells, an n_z that is not the trials of the Z0 -> Z and
    Z1 -> Z configurations, outcome cells above their configuration's
    trials, and cells or trials of the X1 sender state, which is never
    sent, raise ValueError.
    """
    _check_settings(budget, mode, n_total, f_ec)
    prepared = prepare_batch(ParamBatch.of([params]), mode, cfg.fluct_r)
    if not prepared.feasible[0]:
        raise ValueError(f"infeasible parameter point in {mode} mode: {params}")
    if counts is None:
        counts, e_z = ChannelModel(cfg).expected_counts(prepared.layout, n_total)
    else:
        _check_counts(counts, n_total)
        e_z = np.array([z_error_rate(counts.cells[0, 0].tolist())])
    return _rate_batch(
        counts, e_z, prepared.factors, cfg.xi, prepared.layout.p_z,
        budget, n_total, f_ec,
    ).result(0)


def _check_settings(
    budget: EpsilonBudget | None, mode: str, n_total: float, f_ec: float = 1.0
) -> None:
    """Reject a budget of another mode, since the estimators follow its
    mode, and what would overflow: see MAX_COUNT.  A stage without EC
    leakage passes the least f_ec, 1."""
    if budget is not None and budget.mode != mode:
        raise ValueError(f"budget mode {budget.mode!r} differs from mode {mode!r}")
    if not 1.0 <= n_total <= MAX_COUNT:
        raise ValueError(f"n_total must lie in [1, {MAX_COUNT:g}], got {n_total!r}")
    if not 1.0 <= f_ec <= MAX_COUNT / n_total:
        raise ValueError(f"f_ec must lie in [1, {MAX_COUNT:g} / n_total], got {f_ec!r}")


# the shape of each CountsBatch field for one run
_ONE_RUN = ((1, 3, 16), (1, 16), (1, 3), (1,), (1,))
# the rounding a float count's totals may carry
_COUNT_REL = 1e-12
# the cells of the X1 sender state, the last four along CELLS
_X1_CELLS = slice(CELLS.index(("X", 1, "Z", 0)), len(CELLS))


def _check_counts(counts: CountsBatch, n_total: float) -> None:
    """Reject one-run counts that no protocol run could have produced."""
    if tuple(np.shape(a) for a in counts) != _ONE_RUN:
        raise ValueError(f"counts must hold one run: fields of shapes {_ONE_RUN}")
    for name, a in zip(CountsBatch._fields, counts):
        if not (np.isfinite(a) & (np.asarray(a) >= 0.0)).all():
            raise ValueError(f"counts.{name} must be finite and nonnegative")
    if not counts.n_z[0] <= n_total:
        raise ValueError("counts.n_z must not exceed n_total")
    # the X1 sender state is never sent; counts there would enter N1, the
    # phase-error bound's sum over the cells
    if counts.cells[..., _X1_CELLS].any() or counts.trials[:, _X1_CELLS].any():
        raise ValueError("counts of the X1 sender state, which is never sent, must be 0")
    zz = counts.cells[:, :, ZZ_CELLS].sum(axis=2)
    if not np.allclose(counts.z_by_k, zz, rtol=_COUNT_REL, atol=0.0):
        raise ValueError("counts.z_by_k must total the Z-sender, Z-receiver cells")
    z_tot = counts.z_by_k.sum(axis=1)
    if not np.allclose(counts.z_tot, z_tot, rtol=_COUNT_REL, atol=0.0):
        raise ValueError("counts.z_tot must total counts.z_by_k")
    # the trials of the Z0 -> Z and Z1 -> Z configurations
    z_trials = counts.trials[:, 0] + counts.trials[:, 4]
    if not np.allclose(counts.n_z, z_trials, rtol=_COUNT_REL, atol=0.0):
        raise ValueError("counts.n_z must equal the Z-sender, Z-receiver trials")
    # a configuration's two outcome cells, over the intensities
    outcomes = counts.cells.sum(axis=1).reshape(1, 8, 2).sum(axis=2)
    if (outcomes > counts.trials[:, ::2] * (1.0 + _COUNT_REL)).any():
        raise ValueError(
            "a configuration's outcome cells must not count more than its trials"
        )
