"""End-to-end rate evaluation: channel statistics to key length.

This is the single code path shared by the sweep and the optimizer, so
every consumer agrees on how the pieces chain together.  The chain runs
on batches of parameter points, with a leading batch axis, and every
batch enters it through ``prepare_batch``: the feasibility mask
(``IntensityBatch.from_params``), the channel layout and the decoy
factors, none of which depends on the link, so the optimizer's grid
forms them once for every distance of a sweep.  ``screen_batch`` then
runs two stages on a prepared batch: m0, m1 (``aggregate_bounds``) and
the EC leakage, then the cell bounds (``cell_bounds``), the phase-error
weights at the points' p_z (``phase_weights`` of the per-xi
``source_coeffs``), ``n_ph_upper_batch`` and ``key_length_batch``.  The
optimizer's grid stops after stage 1 the points whose
``key_length_bound``, the length at a zero phase-error rate, cannot
beat a given rate.  ``evaluate_batch`` evaluates many points at once
and ``evaluate_rate`` one point, a batch of one; neither has a floor.
The validation suites call the same batch functions.  The channel
statistics default to the expected values of the system model;
``evaluate_rate`` also takes a one-row ``CountsBatch`` from elsewhere,
such as a ``ChannelModel.sample`` draw, in place of stage 1's counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .budget import EpsilonBudget
from .channel import ZZ_CELLS, CellLayout, ChannelConfig, ChannelModel, z_error_rate
from .decoy import (
    CountsBatch,
    IntensityBatch,
    aggregate_bounds,
    cell_bounds,
    decoy_factors,
)
from .key_length import (
    KeyRateBatch,
    KeyRateResult,
    key_length_batch,
    key_length_bound,
    lambda_ec_batch,
)
from .phase_error import n_ph_upper_batch, phase_weights, term_coeffs
from .qubit_model import (
    EncodingFlawModel,
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
    "evaluate_batch",
    "evaluate_rate",
    "prepare_batch",
    "screen_batch",
]

K_D2_DEFAULT = 2e-4


@dataclass(frozen=True)
class ProtocolParams:
    """Free protocol parameters; the weakest decoy intensity is pinned."""

    p_z: float
    p_ks: float
    p_kd1: float
    k_s: float
    k_d1: float
    k_d2: float = K_D2_DEFAULT

    def intensities(self, mode: str, r: float) -> IntensityBatch:
        """This point's levels for ``mode``, a batch of one; raises
        ValueError where ``IntensityBatch.from_params`` rejects it."""
        levels, ok = ParamBatch.of([self]).intensities(mode, r)
        if not ok[0]:
            raise ValueError(f"infeasible parameter point in {mode} mode: {self}")
        return levels


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

    def intensities(self, mode: str, r: float) -> tuple[IntensityBatch, np.ndarray]:
        """Intensity levels for ``mode`` and the mask of feasible points."""
        return IntensityBatch.from_params(mode, r, *self)


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
    flaw = (
        EncodingFlawModel(model_xi=xi) if xi != 0.0 else EncodingFlawModel.exact()
    )
    s0z, s1z, s0x = (
        apply_filter(bloch_of_state(theta, flaw))
        for theta in (THETA_0Z, THETA_1Z, THETA_0X)
    )
    a_inv = build_transmission_matrix(s0z, s1z, s0x).a_inv
    _, c, w = pair_coeffs(s0z, s1z, a_inv)
    coeffs = term_coeffs(c, w)
    coeffs.setflags(write=False)
    # a view of a read-only base cannot be flagged writable again
    return coeffs[:]


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
    intens, feasible = params.intensities(mode, r)
    idx = feasible.nonzero()[0]
    p_z = params.p_z
    if len(idx) < len(p_z):
        intens, p_z = intens.take(idx), p_z[idx]
    return PreparedBatch(
        mode, feasible, idx, CellLayout.of(intens, p_z), decoy_factors(intens)
    )


def evaluate_batch(
    cfg: ChannelConfig,
    params: ParamBatch,
    budget: EpsilonBudget | None,
    n_total: float,
    mode: str = "exact",
    f_ec: float = 1.16,
    model: ChannelModel | None = None,
) -> tuple[np.ndarray, KeyRateBatch]:
    """Secret-key results at a batch of parameter points.

    Returns the mask of feasible points and the results of the feasible
    ones, in order.  A point is infeasible where
    ``IntensityBatch.from_params`` rejects it, the rule under which
    ``evaluate_rate`` raises ValueError.  Settings that concern every point
    raise ValueError: mode, n_total, f_ec, and a source that cannot be
    built (``DegenerateStatesError``), which depends on xi alone and so
    fails at every p_z in (0, 1) or at none.  ``model`` shares click
    tables across calls on one link.
    """
    prepared = prepare_batch(params, mode, cfg.fluct_r)
    feasible, _, batch = screen_batch(cfg, prepared, budget, n_total, None, f_ec, model)
    return feasible, batch


def screen_batch(
    cfg: ChannelConfig,
    prepared: PreparedBatch,
    budget: EpsilonBudget | None,
    n_total: float,
    floor: float | np.ndarray | None,
    f_ec: float = 1.16,
    model: ChannelModel | None = None,
) -> tuple[np.ndarray, np.ndarray, KeyRateBatch]:
    """``evaluate_batch`` of a prepared batch, for callers that need a
    rate above ``floor``.

    ``prepared`` is ``prepare_batch`` of the points in their mode at the
    link's ``fluct_r``; a grid that several links share keeps it.
    ``floor`` is a rate of at least 0 or -inf, for every point or per
    point.  A feasible point is screened where its floor is finite and
    its m1 is 0 or its ``key_length_bound`` over n_total does not
    exceed the floor: its rate cannot exceed the floor either, and the
    chain stops for it after m0, m1 and the EC leakage.  A point whose
    floor is -inf is never screened, and ``floor`` None screens no
    point.  Returns the mask of feasible points, the mask of the
    screened ones among them, and the results of the other feasible
    points, in order.  Errors are those of ``evaluate_batch``.
    """
    feasible, idx = prepared.feasible, prepared.idx
    if isinstance(floor, np.ndarray):
        floor = floor[idx]
    if model is None:
        model = ChannelModel(cfg)
    counts, e_z = model.expected_counts(prepared.layout, n_total)
    passed, batch = _rate_batch(
        counts, e_z, prepared.factors, cfg.xi, prepared.layout.p_z,
        budget, n_total, prepared.mode, f_ec, floor,
    )
    screened = np.zeros_like(feasible)
    if passed is not None:
        screened[idx[~passed]] = True
    return feasible, screened, batch


def _rate_batch(
    counts: CountsBatch,
    e_z: np.ndarray,
    factors: np.ndarray,
    xi: float,
    p_z: np.ndarray,
    budget: EpsilonBudget | None,
    n_total: float,
    mode: str,
    f_ec: float,
    floor: float | np.ndarray | None = None,
) -> tuple[np.ndarray | None, KeyRateBatch]:
    """Decoy bounds, phase-error bound and key length from batch counts
    and the points' ``decoy_factors``, in two stages with
    ``screen_batch``'s screen between them.

    Stage 1 bounds m0, m1 and the EC leakage of every point; stage 2
    (the sixteen cell bounds, the phase-error weights at the points'
    ``p_z``, the phase-error bound and the key length) runs on the
    points that pass the screen, every point when ``floor`` is None.
    Returns the mask of those, None when every point passes, and their
    results.  The source at ``xi`` is built first, so a degenerate one
    raises whatever the screen keeps.
    """
    coeffs = source_coeffs(xi)
    m0, m1 = aggregate_bounds(counts, factors, budget, mode)
    z_ks = counts.z_by_k[:, 0]
    lam = lambda_ec_batch(z_ks, e_z, f_ec)
    passed = None
    if floor is not None:
        bound = key_length_bound(m0, m1, lam, budget)
        passed = (floor == -np.inf) | ((m1 > 0.0) & (bound / n_total > floor))
        if not passed.any():
            return passed, KeyRateBatch.empty()
        if passed.all():
            passed = None
        else:
            # stage 2 takes the passing points' rows of stage 1's arrays
            idx = np.flatnonzero(passed)
            counts = CountsBatch(*(a[idx] for a in counts))
            factors = factors[:, idx]
            p_z, e_z, m0, m1, lam, z_ks = (
                a[idx] for a in (p_z, e_z, m0, m1, lam, z_ks)
            )
    cells = cell_bounds(counts, factors, budget, mode)
    eph = n_ph_upper_batch(phase_weights(coeffs, p_z), cells, m1, budget)
    return passed, key_length_batch(
        m0, m1, eph.e_ph_upper, lam, budget, n_total=n_total, e_z=e_z, z_ks_size=z_ks
    )


def evaluate_rate(
    cfg: ChannelConfig,
    params: ProtocolParams,
    budget: EpsilonBudget | None,
    n_total: float,
    mode: str = "exact",
    f_ec: float = 1.16,
    counts: CountsBatch | None = None,
) -> KeyRateResult:
    """Secret-key result at one parameter point: ``prepare_batch`` of a
    batch of one, then ``screen_batch`` without a floor.

    A point that ``IntensityBatch.from_params`` rejects raises
    ValueError; statistical aborts come back in the result.  A
    one-row ``counts`` (e.g. a ``ChannelModel.sample`` draw) replaces
    the expected statistics: the chain then runs from the prepared
    decoy factors, and the Z error rate is read from its
    signal-intensity Z cells; counts of the wrong shape, negative or
    non-finite counts, n_z > n_total, Z totals that are not the sums of
    their cells, an n_z that is not the trials of the Z0 -> Z and
    Z1 -> Z configurations, and outcome cells above their
    configuration's trials raise ValueError.
    """
    prepared = prepare_batch(ParamBatch.of([params]), mode, cfg.fluct_r)
    if not prepared.feasible[0]:
        raise ValueError(f"infeasible parameter point in {mode} mode: {params}")
    if counts is None:
        _, _, res = screen_batch(cfg, prepared, budget, n_total, None, f_ec)
    else:
        _check_counts(counts, n_total)
        e_z = np.array([z_error_rate(counts.cells[0, 0].tolist())])
        _, res = _rate_batch(
            counts, e_z, prepared.factors, cfg.xi, prepared.layout.p_z,
            budget, n_total, mode, f_ec,
        )
    return res.result(0)


# the shape of each CountsBatch field for one run
_ONE_RUN = ((1, 3, 16), (1, 16), (1, 3), (1,), (1,))
# the rounding a float count's totals may carry
_COUNT_REL = 1e-12


def _check_counts(counts: CountsBatch, n_total: float) -> None:
    """Reject one-run counts that no protocol run could have produced."""
    if tuple(np.shape(a) for a in counts) != _ONE_RUN:
        raise ValueError(f"counts must hold one run: fields of shapes {_ONE_RUN}")
    for name, a in zip(CountsBatch._fields, counts):
        if not (np.isfinite(a) & (np.asarray(a) >= 0.0)).all():
            raise ValueError(f"counts.{name} must be finite and nonnegative")
    if not counts.n_z[0] <= n_total:
        raise ValueError("counts.n_z must not exceed n_total")
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
