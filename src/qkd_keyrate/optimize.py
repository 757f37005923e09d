"""Rate maximization over the free protocol parameters.

The objective is cheap but non-smooth at abort boundaries, so the
search runs a coarse grid over a fixed box and polishes the best grid
point with a compass search (the pattern search of Hooke and Jeeves,
J. ACM 8, 212 (1961); Torczon, SIAM J. Optim. 7, 1 (1997) proves its
convergence).  The polish polls the ten axis neighbours u +- step*e_i
of the unit-box point, moves to the best one that strictly raises the
rate, and halves the step when none does, until POLISH_HALVINGS
halvings.  It runs one such track from each of POLISH_FIRST_STEPS (half
and a quarter of a grid step) and polls both in one batch, since one
track alone can settle in the lower of two local optima.  Parameter
combinations that violate the intensity ordering or the probability
simplex score zero rather than erroring.  Grid chunks and polls go
through one screen_batch path; the grid in batches of GRID_CHUNK
points, which bounds the memory a batch takes whatever the grid size.
Each grid chunk passes the best rate so far as the screen's floor, so
its points that cannot beat it skip the cell and phase-error bounds;
until some point is scored, the first feasible point's floor is -inf,
so the screen lets it through.  The polls pass no floor, since a
neighbour of the best point almost never falls below it by the margin
m1 h(e_ph) the screen needs.  What a grid chunk's chain needs that does
not depend on the link (``pipeline.prepare_batch``: feasibility,
channel layout, decoy factors) is formed once per sweep with the grid;
the polls prepare their batches afresh, on the same path.  A distance
without a key thus costs its grid batches and nothing else.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .budget import EpsilonBudget
from .channel import ChannelConfig, ChannelModel
from .key_length import KeyRateResult
from .pipeline import (
    K_D2_DEFAULT,
    ParamBatch,
    PreparedBatch,
    ProtocolParams,
    prepare_batch,
    screen_batch,
)

__all__ = ["InfeasibleSearchError", "OptimizationResult", "SearchSpace", "optimize_rate"]

GRID_POINTS = 7
# the most grid points per axis: the grid's prepared chunks are kept
# (about 45 KB per GRID_CHUNK points), and 12**5 = 248,832 points take
# about 44 MB
MAX_GRID_POINTS = 12
# grid points per batch: large enough to amortize the per-batch Python
# work, small enough that a batch's arrays stay well under a megabyte
GRID_CHUNK = 256
# glibc's malloc serves a block above its mmap threshold (128 KB at start)
# with a fresh mapping and unmaps it when freed, so a batch's larger
# temporaries (a (256, 5, 17) float array is 174 KB) would fault their
# pages in again in every chunk: about 5,000 minor faults and 8% of the
# wall time of a 50 km-step exact sweep.  Freeing one mapped block raises
# the threshold to that block's size, and the heap's trim threshold to
# twice it.  The block is never written, so it takes no resident memory.
np.empty(1 << 18)
# first steps of the compass polish's tracks, in grid steps; one track
# alone lands in the lower of two local optima at some distances (the
# half step at 150 km for xi = 0, the quarter step at 40 km for r = 0.05)
POLISH_FIRST_STEPS = (0.5, 0.25)
# a track stops at its 12th step halving, so its last poll step is 2**-11
# of its first; 8 halvings left a single track up to 4.7e-5 relative short
# of the best known rates on the benchmark sweeps
POLISH_HALVINGS = 12
# the ten polling directions +- e_i of the compass
_COMPASS = np.concatenate([np.eye(5), -np.eye(5)])


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
            top = 1.0 if name.startswith("p_") else math.inf
            if not 0.0 < lo < hi < top:
                raise ValueError(f"bad bounds for {name}: {(lo, hi)!r}")
        if self.k_s[1] > 1.0:
            raise ValueError("k_s is capped at one photon on average")
        if not 0.0 <= self.k_d2 < self.k_d1[0]:
            raise ValueError(
                "k_d2 must be finite, nonnegative and below k_d1's lower bound: "
                f"{self.k_d2!r}"
            )

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
    """Best point of one optimization, with its cost split by phase.

    ``evaluations`` is ``grid_evaluations + polish_evaluations``; the
    two times are wall seconds from ``time.perf_counter``.
    ``grid_screened`` counts the grid points the screen stopped after
    m0, m1 and the EC leakage, because they could not beat the best rate
    so far; they count as evaluations too.
    """

    best_params: ProtocolParams
    best: KeyRateResult
    evaluations: int
    grid_evaluations: int
    polish_evaluations: int
    grid_s: float
    polish_s: float
    grid_screened: int
    trace: tuple = field(default_factory=tuple)


@functools.lru_cache(maxsize=4)
def _grid_chunks(
    space: SearchSpace, grid_points: int, mode: str, r: float
) -> tuple[tuple[np.ndarray, ParamBatch, PreparedBatch], ...]:
    """The grid's batches: unit vectors, their parameters and the
    parameters' ``prepare_batch`` in ``mode`` at relative fluctuation
    ``r``.

    The grid centre comes first, then the grid points in row-major
    order, GRID_CHUNK of them per batch; the first batch also takes the
    centre.  None of this depends on the link, so a sweep forms it
    once; its arrays are read-only.
    """
    ticks = np.linspace(0.0, 1.0, grid_points)
    chunks = []
    for start in range(0, grid_points**5, GRID_CHUNK):
        flat = np.arange(start, min(start + GRID_CHUNK, grid_points**5))
        units = ticks[np.stack(np.unravel_index(flat, (grid_points,) * 5), axis=1)]
        if start == 0:
            units = np.concatenate([np.full((1, 5), 0.5), units])
        params = space.params_batch(units)
        prepared = prepare_batch(params, mode, r)
        for a in (units, *params, prepared.feasible, prepared.idx,
                  *prepared.layout, prepared.factors):
            a.setflags(write=False)
        chunks.append((units, params, prepared))
    return tuple(chunks)


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

    ``"grid"`` scores the grid alone; ``"grid+nm"`` (a name kept from
    the Nelder-Mead polish it once ran) then polishes the best grid
    point with the compass search.  Both are deterministic:
    ``seed`` is accepted for config compatibility and has no effect.
    When nothing in the box extracts a key, the full result of the
    first feasible grid point (the grid centre only when the centre is
    feasible) is returned, with rate 0: the screen lets that point
    through, so it is scored in its chunk.  Settings that concern every
    point (mode, n_total, f_ec, a degenerate source) raise
    ``evaluate_batch``'s ValueError, and a ``grid_points`` outside
    [2, MAX_GRID_POINTS] raises ValueError; InfeasibleSearchError means
    that no point of the box is feasible.
    """
    if strategy not in ("grid", "grid+nm"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if grid_points < 2:
        # as RunConfig requires: the polish steps are fractions of a grid step
        raise ValueError(f"grid_points must be >= 2, got {grid_points!r}")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(
            f"grid_points must be <= MAX_GRID_POINTS = {MAX_GRID_POINTS}, "
            f"got {grid_points!r}"
        )
    if space is None:
        space = SearchSpace()

    model = ChannelModel(cfg)
    trace: list[tuple[ProtocolParams, float]] = []

    def score(prepared: PreparedBatch, floor=None):
        """Rates (-inf where infeasible or screened), results, each
        point's row in the results and the mask of screened points for a
        prepared batch."""
        feasible, screened, batch = screen_batch(
            cfg, prepared, budget, n_total, floor, f_ec=f_ec, model=model
        )
        rates = np.full(len(feasible), -np.inf)
        scored = feasible & ~screened
        rates[scored] = batch.rate
        return rates, batch, np.cumsum(scored) - 1, screened

    t0 = time.perf_counter()
    best_u = best_params = best_res = None
    best_rate = -1.0
    grid_evaluations = 1 + grid_points**5
    grid_screened = 0
    for chunk, points, prepared in _grid_chunks(space, grid_points, mode, cfg.fluct_r):
        # a point that cannot beat the best rate so far (or 0) cannot
        # enter the trace: the screen stops it before its cell and
        # phase-error bounds
        floor = max(best_rate, 0.0)
        if best_res is None and prepared.idx.size:
            # but the first feasible point enters it whatever its rate,
            # so the screen lets it through
            floor = np.full(len(chunk), floor)
            floor[prepared.idx[0]] = -np.inf
        rates, batch, slot, screened = score(prepared, floor)
        grid_screened += int(screened.sum())
        # a point enters the trace when it beats every earlier point
        before = np.maximum.accumulate(np.concatenate([[best_rate], rates[:-1]]))
        for i in np.flatnonzero(rates > before):
            best_u, best_params = chunk[i], points.point(i)
            best_res = batch.result(slot[i])
            best_rate = best_res.rate
            trace.append((best_params, best_rate))
    t1 = time.perf_counter()

    polish_evaluations = 0
    if strategy == "grid+nm" and best_res is not None and best_rate > 0.0:
        # every track still polling contributes its ten neighbours to one
        # batch; a track moves or halves on its own rate, not the best
        steps = np.array(POLISH_FIRST_STEPS) / (grid_points - 1)
        track_u = np.tile(best_u, (len(steps), 1))
        track_rate = np.full(len(steps), best_rate)
        halvings = np.zeros(len(steps), dtype=int)
        while (live := np.flatnonzero(halvings < POLISH_HALVINGS)).size:
            stencil = track_u[live, None] + steps[live, None, None] * _COMPASS
            stencil = np.clip(stencil.reshape(-1, 5), 0.0, 1.0)
            points = space.params_batch(stencil)
            rates, batch, slot, _ = score(prepare_batch(points, mode, cfg.fluct_r))
            polish_evaluations += len(stencil)
            polled = rates.reshape(len(live), len(_COMPASS))
            for k, t in enumerate(live):
                i = k * len(_COMPASS) + int(np.argmax(polled[k]))
                if not rates[i] > track_rate[t]:
                    steps[t] /= 2.0
                    halvings[t] += 1
                    continue
                track_u[t], track_rate[t] = stencil[i], rates[i]
                if rates[i] > best_rate:
                    best_params, best_res = points.point(i), batch.result(slot[i])
                    best_rate = best_res.rate
                    trace.append((best_params, best_rate))
    t2 = time.perf_counter()

    if best_res is None:
        # nothing feasible anywhere in the box: surface the center point
        center = space.params_at(np.full(5, 0.5))
        raise InfeasibleSearchError(
            f"no feasible parameter point in the search box around {center!r}"
        )
    return OptimizationResult(
        best_params=best_params,
        best=best_res,
        evaluations=grid_evaluations + polish_evaluations,
        grid_evaluations=grid_evaluations,
        polish_evaluations=polish_evaluations,
        grid_s=t1 - t0,
        polish_s=t2 - t1,
        grid_screened=grid_screened,
        trace=tuple(trace),
    )
