"""Rate maximization over the free protocol parameters.

The objective is cheap but non-smooth at abort boundaries, so the
search runs a coarse grid over a fixed box and polishes the best grid
point with a compass search (the pattern search of Hooke and Jeeves,
J. ACM 8, 212 (1961); Torczon, SIAM J. Optim. 7, 1 (1997) proves its
convergence).  A compass decision polls the ten axis neighbours
u +- step*e_i of the unit-box point, moves to the best one that
strictly raises the rate, and halves the step when none does, until
POLISH_HALVINGS halvings.  The polish runs one such track from each of
POLISH_FIRST_STEPS (half and a quarter of a grid step), since one track
alone can settle in the lower of two local optima.  Each batch makes
two decisions per track: it holds every live track's ten neighbours,
the 60 distinct points one step beyond them (the neighbours after any
move) and its ten halved-step neighbours (those after a halving, left
out at its last halving).  The points are formed with the float
operations of polling one decision per batch, and the decisions run in
that polling's order, so the answers are its answers in half the
batches; a batch's cost is mostly a fixed cost, not its rows.  A
track's decisions depend only on its state, its point and step, so the
tracks can meet.  Every decision is recorded under the state it was
taken from.  A track at a state the other has left repeats the recorded
decisions without rows, ten evaluations each, and of two tracks at one
state only the one with fewer halvings polls, so one block of rows
serves both.  A repeated move comes later in the polling's order than
the move it copies, so it never beats the best rate, and where both
tracks would move from one state in the same round, the poller's
improvement is the one the other would have added: the answers stay
those of one decision per batch.  The polish holds its points and
steps on an integer lattice, as integer-valued floats in units of
h = 1/((grid_points - 1) 2**POLISH_LATTICE_BITS) of the unit box, and
scores a row at its coordinates times h: a grid point maps onto the
lattice exactly, the first steps are 2**12 and 2**11 units and the
last polled step one unit, and every sum stays far below 2**53, so two
paths to one point give the same floats and the tracks meet bit for
bit on every grid (Torczon's convergence proof takes iterates on such
a rational lattice).
Parameter combinations that violate the intensity ordering or the
probability simplex score zero rather than erroring.  The grid runs
``stage_one`` (m0, m1, EC leakage) on blocks of GRID_BLOCK·GRID_CHUNK
points, and ``stage_two`` (cells, phase error, key length) only on
points whose rate ceiling beats the best rate before them (at least
0), at most GRID_CHUNK at a time; the first feasible point enters the
trace whatever its rate.  Stage 2 starts with the points that beat the
best rate at the block's start, lowest index first, so every scored
point lies before every pending one, and after each stage-2 batch the
pending points that do not beat the best rate so far are dropped.  One
pass then replays the block: a running maximum over the block's rates
(-inf where unscored) from the best rate before the block gives each
point the best rate before it, and so the screened count, and the trace
the points that beat every earlier one.  A point that stage 2 scored
but the replay screens never enters it: its rate is at most its
ceiling, which is at most the best rate before it.  Neither batch size
changes any reported number.
The polish's batches go through ``evaluate_batch``, unscreened, since
a neighbour of the best point almost never falls below it by the
margin m1 h(e_ph) the screen needs.  The grid's link-independent part
(``pipeline.prepare_batch``) is formed once per sweep; the polish
prepares its batches afresh.  A distance without a key thus costs its
grid batches and nothing else.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .budget import EpsilonBudget
from .channel import ChannelConfig, ChannelModel
from .key_length import F_EC_DEFAULT, KeyRateResult
from .pipeline import (
    K_D2_DEFAULT,
    ParamBatch,
    PreparedBatch,
    ProtocolParams,
    evaluate_batch,
    prepare_batch,
    stage_one,
    stage_two,
)

__all__ = ["InfeasibleSearchError", "OptimizationResult", "SearchSpace", "optimize_rate"]

GRID_POINTS = 7
# the most grid points per axis: the grid's prepared blocks are kept
# (about 45 KB per 256 points), and 12**5 = 248,832 points take about
# 44 MB
MAX_GRID_POINTS = 12
# the most grid points per stage-2 batch: large enough to amortize the
# per-batch Python work, small enough that a batch's arrays stay well
# under a megabyte
GRID_CHUNK = 256
# a stage-1 batch takes GRID_BLOCK * GRID_CHUNK grid points: stage 1
# forms four Z cells per point where stage 2 forms sixteen, so either
# batch takes about the same memory
GRID_BLOCK = 4
# glibc's malloc serves a block above its mmap threshold (128 KB at start)
# with a fresh mapping and unmaps it when freed, so a batch's larger
# temporaries (a (256, 5, 17) float array is 174 KB) would fault their
# pages in again in every batch: about 5,000 minor faults and 8% of the
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
# a grid step is 2**13 units of the polish's lattice, so the smaller
# first step, 2**11 units, halves to one unit by its last poll
POLISH_LATTICE_BITS = 13
# the ten polling directions +- e_i of the compass
_COMPASS = np.concatenate([np.eye(5), -np.eye(5)])


def _batch_layout() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A track's rows in a polish batch, for a track at u with step s:
    rows 0-9 are clip(u + s C[i]) over the compass directions C, rows
    70-79 clip(u + (s/2) C[i]), and rows 10-69 the second ring
    clip(clip(u + s C[i]) + s C[j]), whose (i, j) and (j, i) on two axes
    give the same floats.  Returns the (10, 10) map from (i, j) to its
    row, each ring row's i, and each row's step in units of s."""
    pairs: dict[tuple[int, int], int] = {}
    ring = np.empty((10, 10), dtype=np.intp)
    for i in range(10):
        for j in range(10):
            pair = (j, i) if i % 5 != j % 5 and (j, i) in pairs else (i, j)
            ring[i, j] = 10 + pairs.setdefault(pair, len(pairs))
    first, second = np.array(list(pairs)).T
    # s * (C / 2) is (s / 2) * C to the last bit: both round the exact s/2
    moves = np.concatenate([_COMPASS, _COMPASS[second], _COMPASS / 2.0])
    for a in (ring, first, moves):
        a.setflags(write=False)
    return ring, first, moves


# a track's second decision polls _RING_ROWS[i] after a move in direction
# i and _HALVED_ROWS after a halving, which a track at its last halving
# never polls
_RING_ROWS, _RING_FIRST, _MOVES = _batch_layout()
_NEAR_ROWS = np.arange(10)
_HALVED_ROWS = np.arange(70, 80)


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
        v = np.minimum(np.maximum(units, 0.0), 1.0)
        lerp = lambda t, lo, hi: lo + t * (hi - lo)
        p_ks = lerp(v[:, 1], *self.p_ks)
        k_s = lerp(v[:, 3], *self.k_s)
        # min(slice, cap) with Python's tie rule, the cap where the slice
        # is NaN
        p_kd1_hi = np.fmin(0.98 * (1.0 - p_ks), self.p_kd1[1])
        k_d1_hi = np.fmin(0.9 * k_s, self.k_d1[1])
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

    ``evaluations`` is ``grid_evaluations + polish_evaluations``, which
    counts ten neighbours per compass decision; ``polish_batches``
    counts the polish's ``evaluate_batch`` calls, two decisions per
    track each (one track's, once the tracks have met).  The two times are
    wall seconds from ``time.perf_counter``.
    ``grid_screened`` counts the grid points the screen stopped after
    m0, m1 and the EC leakage, because their ceiling does not beat the
    best rate before them (at least 0); they count as evaluations too.
    The count and the trace are those of scoring the grid point by
    point, whichever points stage 2 actually scored (the module
    docstring's replay).
    """

    best_params: ProtocolParams
    best: KeyRateResult
    evaluations: int
    grid_evaluations: int
    polish_evaluations: int
    polish_batches: int
    grid_s: float
    polish_s: float
    grid_screened: int
    trace: tuple = field(default_factory=tuple)


class GridBlock(NamedTuple):
    """GRID_BLOCK·GRID_CHUNK consecutive grid points, prepared for one
    stage-1 batch: the unit vectors, their parameters and the
    parameters' ``prepare_batch``."""

    units: np.ndarray
    params: ParamBatch
    prepared: PreparedBatch


@functools.lru_cache(maxsize=4)
def _grid_blocks(
    space: SearchSpace, grid_points: int, mode: str, r: float
) -> tuple[GridBlock, ...]:
    """The grid's blocks in ``mode`` at relative fluctuation ``r``.

    The grid centre comes first, as point 0 of the first block, then the
    grid points in row-major order, GRID_BLOCK·GRID_CHUNK of them per
    block, each block prepared in one ``prepare_batch`` call.  None of
    this depends on the link, so a sweep forms it once; its arrays are
    read-only.
    """
    ticks = np.linspace(0.0, 1.0, grid_points)
    size = grid_points**5
    blocks = []
    for first in range(0, size, GRID_BLOCK * GRID_CHUNK):
        flat = np.arange(first, min(first + GRID_BLOCK * GRID_CHUNK, size))
        units = ticks[np.stack(np.unravel_index(flat, (grid_points,) * 5), axis=1)]
        if first == 0:
            units = np.concatenate([np.full((1, 5), 0.5), units])
        params = space.params_batch(units)
        prepared = prepare_batch(params, mode, r)
        for a in (units, *params, prepared.feasible, prepared.idx,
                  *prepared.layout, prepared.factors):
            a.setflags(write=False)
        blocks.append(GridBlock(units, params, prepared))
    return tuple(blocks)


def optimize_rate(
    cfg: ChannelConfig,
    budget: EpsilonBudget | None,
    n_total: float,
    space: SearchSpace | None = None,
    strategy: str = "grid+nm",
    mode: str = "exact",
    f_ec: float = F_EC_DEFAULT,
    grid_points: int = GRID_POINTS,
) -> OptimizationResult:
    """Best rate over the search box at one distance.

    ``"grid"`` scores the grid alone; ``"grid+nm"`` (a name kept from
    the Nelder-Mead polish it once ran) then polishes the best grid
    point with the compass search.  Both are deterministic.
    When nothing in the box extracts a key, the full result of the
    first feasible grid point (the grid centre only when the centre is
    feasible) is returned, with rate 0: the screen lets that point
    through, so stage 2 scores it.  Settings that concern every point
    (mode, a budget of another mode, n_total, f_ec, a degenerate source)
    raise ``evaluate_batch``'s ValueError, and a ``grid_points`` outside
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

    def score(points: ParamBatch):
        """Rates (-inf where infeasible), results and the mask of
        feasible points (point i's result is ``feasible[:i].sum()``) of a
        batch."""
        feasible, batch = evaluate_batch(
            cfg, points, budget, n_total, mode=mode, f_ec=f_ec, model=model
        )
        rates = np.full(len(feasible), -np.inf)
        rates[feasible] = batch.rate
        return rates, batch, feasible

    t0 = time.perf_counter()
    best_u = best_params = best_res = None
    best_rate = -1.0
    grid_evaluations = 1 + grid_points**5
    grid_screened = 0
    for units, points, prepared in _grid_blocks(space, grid_points, mode, cfg.fluct_r):
        one = stage_one(model, prepared, budget, n_total, f_ec)
        ceiling = one.ceiling(budget, n_total)
        # stage 2 for the points that beat the best rate at the block's start
        passing = ceiling > max(best_rate, 0.0)
        # the first feasible point enters the trace whatever its rate
        first = best_res is None
        passing[:1] |= first
        pending = passing.nonzero()[0]
        rates = np.full(len(ceiling), -np.inf)
        batches = []
        while pending.size:
            rows, pending = pending[:GRID_CHUNK], pending[GRID_CHUNK:]
            batch = stage_two(model, prepared, one, rows, budget, n_total)
            batches.append((rows, batch))
            rates[rows] = batch.rate
            # every scored point comes before every pending one
            pending = pending[ceiling[pending] > max(best_rate, rates.max(), 0.0)]
        # the replay: the best rate before each point and after the block,
        # and the points that beat every earlier one
        running = np.maximum.accumulate(np.concatenate([[best_rate], rates]))
        passed = ceiling > np.maximum(running[:-1], 0.0)
        passed[:1] |= first
        grid_screened += len(ceiling) - int(np.count_nonzero(passed))
        for j in np.flatnonzero(rates > running[:-1]).tolist():
            trace.append((points.point(prepared.idx[j]), float(rates[j])))
        if running[-1] > best_rate:
            # the block's best point is its last in the trace, j
            rows, batch = next(b for b in batches if b[0][-1] >= j)
            best_u, best_params = units[prepared.idx[j]], trace[-1][0]
            best_res = batch.result(int(rows.searchsorted(j)))
            best_rate = best_res.rate
    t1 = time.perf_counter()

    polish_evaluations = polish_batches = 0
    if strategy == "grid+nm" and best_res is not None and best_rate > 0.0:
        found, polish_evaluations, polish_batches = _polish(
            space, score, best_u, best_rate, grid_points)
        trace.extend((params, res.rate) for params, res in found)
        if found:
            best_params, best_res = found[-1]
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
        polish_batches=polish_batches,
        grid_s=t1 - t0,
        polish_s=t2 - t1,
        grid_screened=grid_screened,
        trace=tuple(trace),
    )


def _clip(units: np.ndarray, top: float) -> np.ndarray:
    """``units`` clipped into the box [0, top]."""
    return np.minimum(np.maximum(units, 0.0), top)


def _polish_rows(units: np.ndarray, steps: np.ndarray, last: list[bool],
                 top: float) -> np.ndarray:
    """The lattice rows of one polish batch for tracks at ``units``
    (T, 5) with ``steps`` (T,), in the box [0, top]: per track the 80
    rows of ``_batch_layout``, or its first 70 where ``last`` (its last
    halving)."""
    delta = steps[:, None, None] * _MOVES
    rows = units[:, None] + delta
    rows[:, 10:70] = (np.take(_clip(rows[:, :10], top), _RING_FIRST, axis=1)
                      + delta[:, 10:70])
    return _clip(np.concatenate([r[:70] if end else r for r, end in zip(rows, last)]),
                 top)


def _polish(space: SearchSpace, score, u: np.ndarray, rate: float, grid_points: int):
    """The compass polish from the grid point ``u`` of rate ``rate``.

    ``score`` maps a ParamBatch to its rates (-inf where infeasible), its
    KeyRateBatch and its feasible mask.  Returns the improvements on
    ``rate``, in order, as (params, result) pairs, the evaluations (ten
    per decision, repeated ones included) and the batches.  A track
    moves or halves on its own rate, not the best.  Points and steps are
    in lattice units, and ``u`` maps onto the lattice exactly.
    """
    top = float((grid_points - 1) << POLISH_LATTICE_BITS)
    h = 1.0 / top
    u = np.rint(u * top)
    first = np.array(POLISH_FIRST_STEPS) * (1 << POLISH_LATTICE_BITS)
    # each track's state, its point and its step, as one row; a track's
    # key is its row's bytes, taken through a view kept in ``rows_of``
    tracks = np.column_stack([np.tile(u, (len(first), 1)), first])
    track_u, steps, rows_of = tracks[:, :5], tracks[:, 5], list(tracks)
    keys = [row.tobytes() for row in rows_of]
    track_rate = [rate] * len(tracks)
    halvings = [0] * len(tracks)
    # per state a track has left, the state after the decision taken
    # there and its rate; a track never revisits a state, so the replay
    # and the dedupe below act only once tracks have met
    taken: dict[bytes, tuple[bytes, float]] = {}
    found = []
    evaluations = batches = 0
    while True:
        live = [t for t, h in enumerate(halvings) if h < POLISH_HALVINGS]
        # a track at a state another track has left repeats that track's
        # decisions without rows; their moves never beat the best, which
        # already holds them
        for t in live:
            while halvings[t] < POLISH_HALVINGS and (after := taken.get(keys[t])):
                keys[t], track_rate[t] = after
                row = np.frombuffer(keys[t])
                halvings[t] += bool(row[5] < steps[t])
                tracks[t] = row
                evaluations += len(_COMPASS)
        # of the tracks at one state only the last polls: its first step
        # was the smallest (POLISH_FIRST_STEPS falls), so it has halved
        # the fewest times and outlives the others, which repeat its
        # decisions before the next batch
        live = list({keys[t]: t for t in live
                     if halvings[t] < POLISH_HALVINGS}.values())
        if not live:
            break
        last = [halvings[t] == POLISH_HALVINGS - 1 for t in live]
        stencil = _polish_rows(track_u[live], steps[live], last, top)
        points = space.params_batch(stencil * h)
        rates, batch, scored = score(points)
        batches += 1
        sizes = [70 if end else 80 for end in last]
        starts = [sum(sizes[:k]) for k in range(len(live))]
        # each track's next decision polls these of its rows: first its
        # neighbours, then the second ring after a move or the halved
        # neighbours after a halving
        polled = [_NEAR_ROWS] * len(live)
        for _ in range(2):
            for k, t in enumerate(live):
                if halvings[t] == POLISH_HALVINGS:
                    continue
                rows = starts[k] + polled[k]
                pick = rates[rows].argmax()
                i = rows[pick]
                evaluations += len(_COMPASS)
                if not rates[i] > track_rate[t]:
                    steps[t] /= 2.0
                    halvings[t] += 1
                    polled[k] = _HALVED_ROWS
                else:
                    polled[k] = _RING_ROWS[pick]
                    track_u[t], track_rate[t] = stencil[i], rates[i]
                    if rates[i] > rate:
                        res = batch.result(np.count_nonzero(scored[:i]))
                        rate = res.rate
                        found.append((points.point(i), res))
                key = rows_of[t].tobytes()
                taken[keys[t]] = key, track_rate[t]
                keys[t] = key
    return found, evaluations, batches
