"""End-to-end rate evaluation: channel statistics to key length.

This is the single code path shared by the sweep and the optimizer, so
every consumer agrees on how the pieces chain together.  The chain
(``decoy_bounds_batch``, ``n_ph_upper_batch``, ``key_length_batch``) runs
on batches of parameter points, with a leading batch axis:
``evaluate_batch`` evaluates many points at once (the optimizer's grid),
and ``evaluate_rate`` is a batch of one.  The validation suites call the
same batch functions.  The channel statistics default to the expected
values of the system model; ``evaluate_rate`` also takes a one-row
``CountsBatch`` from elsewhere, such as a ``ChannelModel.sample`` draw.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .budget import EpsilonBudget
from .channel import ChannelConfig, ChannelModel, z_error_rate
from .decoy import (
    CountsBatch,
    IntensityBatch,
    IntensitySet,
    decoy_bounds_batch,
    distinct,
)
from .key_length import KeyRateBatch, KeyRateResult, key_length_batch, lambda_ec_batch
from .phase_error import n_ph_upper_batch, phase_terms
from .qubit_model import (
    EncodingFlawModel,
    FilteredQubit,
    THETA_0X,
    THETA_0Z,
    THETA_1Z,
    VirtualStateCoeffs,
    apply_filter,
    bloch_of_state,
    build_transmission_matrix,
    virtual_state_coeffs,
)

__all__ = [
    "ParamBatch",
    "ProtocolParams",
    "build_source_model",
    "evaluate_batch",
    "evaluate_rate",
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

    def intensities(self, mode: str, r: float) -> IntensitySet:
        """Intensity levels for ``mode``; raises ValueError if infeasible."""
        if mode == "exact":
            return IntensitySet.exact(
                k_s=self.k_s, k_d1=self.k_d1, k_d2=self.k_d2,
                p_s=self.p_ks, p_d1=self.p_kd1,
            )
        if mode == "fluct":
            return IntensitySet.fluctuating(
                k_s=self.k_s, k_d1=self.k_d1, k_d2=self.k_d2,
                p_s=self.p_ks, p_d1=self.p_kd1, r=r,
            )
        raise ValueError(f"mode must be 'exact' or 'fluct', got {mode!r}")


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
        return cls(*(
            np.array([getattr(p, name) for p in points], dtype=float)
            for name in ("p_z", "p_ks", "p_kd1", "k_s", "k_d1", "k_d2")
        ))

    def point(self, i: int) -> ProtocolParams:
        return ProtocolParams(
            p_z=float(self.p_z[i]), p_ks=float(self.p_ks[i]),
            p_kd1=float(self.p_kd1[i]), k_s=float(self.k_s[i]),
            k_d1=float(self.k_d1[i]), k_d2=float(self.k_d2[i]),
        )

    def intensities(self, mode: str, r: float) -> tuple[IntensityBatch, np.ndarray]:
        """Intensity levels for ``mode`` and the mask of feasible points."""
        return IntensityBatch.from_params(
            mode, self.k_s, self.k_d1, self.k_d2, self.p_ks, self.p_kd1, r
        )


def build_source_model(
    xi: float, p_z: float, gamma: float = 1.0
) -> VirtualStateCoeffs:
    """Virtual-state coefficients for the proportional flaw model."""
    s0z, s1z, a_inv = _filtered_source(xi, gamma)
    return virtual_state_coeffs(s0z, s1z, a_inv, p_z)


# a sweep or an optimization uses one xi; a few slots cover callers that
# alternate between flaw settings
@functools.lru_cache(maxsize=8)
def _filtered_source(
    xi: float, gamma: float
) -> tuple[FilteredQubit, FilteredQubit, np.ndarray]:
    """The filtered Z states and the inverse transmission matrix at xi.

    Only the virtual-state coefficients depend on p_z, so this part is
    memoized per (xi, gamma).  ``a_inv`` is shared by every caller and is
    read-only.  A degenerate setting raises, and raises again on the next
    call: lru_cache stores only results.
    """
    flaw = (
        EncodingFlawModel(model_xi=xi) if xi != 0.0 else EncodingFlawModel.exact()
    )
    filtered = [
        apply_filter(bloch_of_state(theta, flaw, gamma))
        for theta in (THETA_0Z, THETA_1Z, THETA_0X)
    ]
    a_inv = build_transmission_matrix(*filtered).a_inv
    a_inv.setflags(write=False)
    return filtered[0], filtered[1], a_inv


def evaluate_batch(
    cfg: ChannelConfig,
    params: ParamBatch,
    budget: EpsilonBudget | None,
    n_total: float,
    mode: str = "exact",
    f_ec: float = 1.16,
    model: ChannelModel | None = None,
    source: Callable[[float], VirtualStateCoeffs] | None = None,
) -> tuple[np.ndarray, KeyRateBatch]:
    """Secret-key results at a batch of parameter points.

    Returns the mask of feasible points and the results of the feasible
    ones, in order.  A point is infeasible where ``evaluate_rate`` would
    raise ValueError for it alone: intensity ordering, probability
    simplex, p_z outside (0, 1) or a source model that cannot be built.
    Settings that concern every point (mode, n_total, f_ec) raise.
    ``source`` maps p_z to the source characterisation, for callers that
    cache it; ``model`` shares click tables across calls on one link.
    """
    intens, feasible = params.intensities(mode, cfg.fluct_r)
    feasible &= (0.0 < params.p_z) & (params.p_z < 1.0)
    if source is None:
        source = lambda p_z: build_source_model(cfg.xi, p_z)
    idx = np.flatnonzero(feasible)
    # the phase-error terms once per distinct p_z; which[i] is the row of
    # the feasible point idx[i]
    p_z_values, which = distinct(params.p_z[idx])
    terms = np.empty((len(p_z_values), 6, 3))
    built = np.ones(len(p_z_values), dtype=bool)
    for j, p_z in enumerate(p_z_values.tolist()):
        try:
            terms[j] = phase_terms(source(p_z))
        except ValueError:
            built[j] = False
    if not built.all():
        keep = built[which]
        feasible[idx[~keep]] = False
        idx, which = idx[keep], which[keep]

    intens = intens.take(idx)
    if model is None:
        model = ChannelModel(cfg)
    counts, e_z = model.expected_batch(intens, params.p_z[idx], n_total)
    return feasible, _rate_batch(
        counts, e_z, intens, terms[which], budget, n_total, mode, f_ec
    )


def _rate_batch(
    counts: CountsBatch,
    e_z: np.ndarray,
    intens: IntensityBatch,
    terms: np.ndarray,
    budget: EpsilonBudget | None,
    n_total: float,
    mode: str,
    f_ec: float,
) -> KeyRateBatch:
    """Decoy bounds, phase-error bound and key length from batch counts."""
    m0, m1, cells = decoy_bounds_batch(counts, intens, budget, mode)
    eph = n_ph_upper_batch(terms, cells, m1, budget)
    z_ks = counts.z_by_k[:, 0]
    lam = lambda_ec_batch(z_ks, e_z, f_ec)
    return key_length_batch(
        m0, m1, eph, lam, budget, n_total=n_total, e_z=e_z, z_ks_size=z_ks
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
    """Secret-key result at one parameter point: a batch of one.

    Infeasible parameters (intensity ordering, probability simplex)
    raise ValueError; statistical aborts come back in the result.  A
    one-row ``counts`` (e.g. a ``ChannelModel.sample`` draw) replaces
    the expected statistics, and the Z error rate is then read from its
    signal-intensity Z cells; counts of the wrong shape, negative or
    non-finite counts and n_z > n_total raise ValueError.
    """
    levels = IntensityBatch.of(params.intensities(mode, cfg.fluct_r))
    if counts is None:
        counts, e_z = ChannelModel(cfg).expected_batch(
            levels, np.array([params.p_z], dtype=float), n_total
        )
    else:
        _check_counts(counts, n_total)
        e_z = np.array([z_error_rate(counts.cells[0, 0].tolist())])
    qm = build_source_model(cfg.xi, params.p_z)
    res = _rate_batch(
        counts, e_z, levels, np.array([phase_terms(qm)]),
        budget, n_total, mode, f_ec,
    )
    return res.result(0)


# the shape of each CountsBatch field for one run
_ONE_RUN = ((1, 3, 16), (1, 16), (1, 3), (1,), (1,))


def _check_counts(counts: CountsBatch, n_total: float) -> None:
    """Reject one-run counts that no protocol run could have produced."""
    if tuple(np.shape(a) for a in counts) != _ONE_RUN:
        raise ValueError(f"counts must hold one run: fields of shapes {_ONE_RUN}")
    for name, a in zip(CountsBatch._fields, counts):
        if not (np.isfinite(a) & (np.asarray(a) >= 0.0)).all():
            raise ValueError(f"counts.{name} must be finite and nonnegative")
    if not counts.n_z[0] <= n_total:
        raise ValueError("counts.n_z must not exceed n_total")
