"""Rate maximization over the free protocol parameters.

The objective is cheap but non-smooth at abort boundaries, so the
search runs a coarse grid over a fixed box and polishes the best cell
with Nelder-Mead.  Parameter combinations that violate the intensity
ordering or the probability simplex score zero rather than erroring.
The grid is evaluated as numpy batches of GRID_CHUNK points, which
bounds the memory a batch takes whatever the grid size; the polish
evaluates one point per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .budget import EpsilonBudget
from .channel import ChannelConfig, ChannelModel
from .key_length import KeyRateResult
from .pipeline import (
    K_D2_DEFAULT,
    ParamBatch,
    ProtocolParams,
    build_source_model,
    evaluate_batch,
    evaluate_rate,
)

__all__ = ["InfeasibleSearchError", "OptimizationResult", "SearchSpace", "optimize_rate"]

GRID_POINTS = 7
# grid points per batch: large enough to amortize the per-batch Python
# work, small enough that a batch's arrays stay well under a megabyte
GRID_CHUNK = 256


class InfeasibleSearchError(ValueError):
    """No point of the search box is a feasible protocol setting."""


@dataclass(frozen=True)
class SearchSpace:
    """Box bounds for the five free parameters; k_d2 stays fixed."""

    p_z: tuple[float, float] = (0.30, 0.95)
    p_ks: tuple[float, float] = (0.20, 0.95)
    p_kd1: tuple[float, float] = (0.02, 0.70)
    k_s: tuple[float, float] = (0.05, 1.00)
    k_d1: tuple[float, float] = (0.005, 0.40)
    k_d2: float = K_D2_DEFAULT

    def __post_init__(self) -> None:
        for name in ("p_z", "p_ks", "p_kd1", "k_s", "k_d1"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo < hi:
                raise ValueError(f"bad bounds for {name}: {(lo, hi)!r}")
        if self.k_s[1] > 1.0:
            raise ValueError("k_s is capped at one photon on average")
        if self.k_d1[0] <= self.k_d2:
            raise ValueError("k_d1 must stay above the fixed k_d2")

    def params_at(self, u: np.ndarray) -> ProtocolParams:
        """Map a unit-box vector to parameters.

        The nested coordinates (p_kd1 below 1 - p_ks, k_d1 below k_s)
        are interpolated inside their currently valid slice, so every
        grid tick lands on a candidate worth evaluating.  Range
        constraints under intensity fluctuations can still reject the
        point downstream.
        """
        return self.params_batch(np.asarray(u, dtype=float)[None, :]).point(0)

    def params_batch(self, units: np.ndarray) -> ParamBatch:
        """``params_at`` for every row of a (B, 5) array."""
        v = np.clip(units, 0.0, 1.0)
        lerp = lambda t, lo, hi: lo + t * (hi - lo)
        p_ks = lerp(v[:, 1], *self.p_ks)
        k_s = lerp(v[:, 3], *self.k_s)
        # min(cap, slice) with Python's tie rule
        p_kd1_hi = 0.98 * (1.0 - p_ks)
        p_kd1_hi = np.where(p_kd1_hi < self.p_kd1[1], p_kd1_hi, self.p_kd1[1])
        k_d1_hi = 0.9 * k_s
        k_d1_hi = np.where(k_d1_hi < self.k_d1[1], k_d1_hi, self.k_d1[1])
        return ParamBatch(
            p_z=lerp(v[:, 0], *self.p_z),
            p_ks=p_ks,
            p_kd1=lerp(v[:, 2], self.p_kd1[0], p_kd1_hi),
            k_s=k_s,
            k_d1=lerp(v[:, 4], self.k_d1[0], k_d1_hi),
            k_d2=np.full(len(v), self.k_d2),
        )


@dataclass
class OptimizationResult:
    best_params: ProtocolParams
    best: KeyRateResult
    evaluations: int
    trace: tuple = field(default_factory=tuple)


def optimize_rate(
    cfg: ChannelConfig,
    budget: EpsilonBudget | None,
    n_total: float,
    space: SearchSpace | None = None,
    strategy: str = "grid+nm",
    seed: int = 0,
    mode: str = "exact",
    f_ec: float = 1.16,
    grid_points: int = GRID_POINTS,
) -> OptimizationResult:
    """Best rate over the search box at one distance.

    Deterministic for a fixed seed: the grid is fixed and the seed only
    shapes the initial Nelder-Mead simplex.  When nothing in the box
    extracts a key the grid-center abort result is returned with rate 0.
    """
    if strategy not in ("grid", "grid+nm"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if grid_points < 2:
        # as RunConfig requires: the polish starts from a simplex half a
        # grid step wide
        raise ValueError(f"grid_points must be >= 2, got {grid_points!r}")
    if space is None:
        space = SearchSpace()

    model = ChannelModel(cfg)
    qm_cache: dict[float, object] = {}
    evaluations = 0
    trace: list[tuple[ProtocolParams, float]] = []

    def source(p_z: float):
        qm = qm_cache.get(p_z)
        if qm is None:
            qm = qm_cache.setdefault(p_z, build_source_model(cfg.xi, p_z))
        return qm

    def rate_at(u: np.ndarray):
        nonlocal evaluations
        params = space.params_at(u)
        evaluations += 1
        try:
            res = evaluate_rate(
                cfg, params, budget, n_total, mode=mode, f_ec=f_ec,
                qm=source(params.p_z), model=model,
            )
        except ValueError:
            return params, None
        return params, res

    ticks = np.linspace(0.0, 1.0, grid_points)
    center = np.full((1, 5), 0.5)
    best_u = center[0]
    best_params, best_res = space.params_at(best_u), None
    best_rate = -1.0
    # point 0 is the grid centre, point i > 0 the (i-1)-th grid point in
    # row-major order; a chunk's units are formed when it is evaluated
    for start in range(0, 1 + grid_points**5, GRID_CHUNK):
        flat = np.arange(max(start, 1), min(start + GRID_CHUNK, 1 + grid_points**5))
        chunk = ticks[np.stack(np.unravel_index(flat - 1, (grid_points,) * 5), axis=1)]
        if start == 0:
            chunk = np.concatenate([center, chunk])
        points = space.params_batch(chunk)
        evaluations += len(chunk)
        try:
            feasible, batch = evaluate_batch(
                cfg, points, budget, n_total, mode=mode, f_ec=f_ec,
                model=model, source=source,
            )
        except ValueError:
            continue
        rates = np.full(len(chunk), -np.inf)
        rates[feasible] = batch.rate
        slot = np.cumsum(feasible) - 1
        # a point enters the trace when it beats every earlier point
        before = np.maximum.accumulate(np.concatenate([[best_rate], rates[:-1]]))
        for i in np.flatnonzero(rates > before):
            best_u, best_params = chunk[i], points.point(i)
            best_res = batch.result(slot[i])
            best_rate = best_res.rate
            trace.append((best_params, best_rate))

    if strategy == "grid+nm" and best_res is not None and best_rate > 0.0:
        rng = np.random.default_rng(seed)
        step = 0.5 / (grid_points - 1)

        def objective(u: np.ndarray) -> float:
            _, res = rate_at(u)
            return 0.0 if res is None else -res.rate

        simplex = np.clip(
            best_u + rng.uniform(-step, step, size=(6, 5)), 0.0, 1.0
        )
        simplex[0] = best_u
        out = minimize(
            objective, best_u, method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "xatol": 1e-4, "fatol": best_rate * 1e-6,
                "maxfev": 600,
            },
        )
        params, res = rate_at(out.x)
        if res is not None and res.rate > best_rate:
            best_params, best_res = params, res
            best_rate = res.rate
            trace.append((params, res.rate))

    if best_res is None:
        # nothing feasible anywhere in the box: surface the center point
        center = space.params_at(np.full(5, 0.5))
        raise InfeasibleSearchError(
            f"no feasible parameter point in the search box around {center!r}"
        )
    return OptimizationResult(
        best_params=best_params,
        best=best_res,
        evaluations=evaluations,
        trace=tuple(trace),
    )
