"""Bit-level guard: the chain's answers on a few batches, byte for byte.

``batch_bytes.json`` holds, per case below, the sha256 of the feasible
and screened masks and of every ``KeyRateBatch`` field of the points
that are not screened.  The cases are the batches the optimizer and
the library calls run: a 20-point compass stencil in each mode, a grid
chunk screened under a finite floor in each mode (``stage_one``, then
``stage_two`` on the points whose ``StageOne.ceiling`` exceeds the
floor), a batch with infeasible rows,
and a batch of one in each population of library calls (exact,
asymptotic, fluctuating).  A change meant to leave every answer alone
keeps every digest; no tolerance applies.  Print the digests of the
working tree with ``PYTHONPATH=src python tests/test_batch_bytes.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qkd_keyrate.channel import ChannelModel
from qkd_keyrate.config import RunConfig
from qkd_keyrate.optimize import SearchSpace
from qkd_keyrate.pipeline import (
    ParamBatch,
    ProtocolParams,
    evaluate_batch,
    prepare_batch,
    stage_one,
    stage_two,
)

GOLDEN = Path(__file__).with_name("batch_bytes.json")

# the benchmark's sweep settings (tests/test_sweep_golden.py) and the
# library calls' fluctuation
EXACT = RunConfig(xi=0.147, n_total=1e12, eps_sec=1e-10)
FLUCT = RunConfig(mode="fluctuating", fluct_r=0.05, n_total=1e14, eps_sec=1e-8)
POINT_FLUCT = RunConfig(mode="fluctuating", fluct_r=0.02)
POINT = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.12, k_s=0.46, k_d1=0.11)
# the compass's ten directions
COMPASS = np.concatenate([np.eye(5), -np.eye(5)])


def stencil(u, grid_points):
    """The polish's first poll around the grid point ``u``: both tracks'
    ten neighbours, at a half and a quarter grid step."""
    steps = np.array([0.5, 0.25]) / (grid_points - 1)
    units = np.asarray(u)[None, None] + steps[:, None, None] * COMPASS
    return SearchSpace().params_batch(np.clip(units.reshape(-1, 5), 0.0, 1.0))


def grid_chunk(grid_points, start, size=256):
    """Grid points ``start`` to ``start + size`` in row-major order."""
    ticks = np.linspace(0.0, 1.0, grid_points)
    flat = np.arange(start, start + size)
    units = ticks[np.stack(np.unravel_index(flat, (grid_points,) * 5), axis=1)]
    return SearchSpace().params_batch(units)


def mixed():
    """Two feasible points around two infeasible ones: p_ks + p_kd1 > 1,
    and k_d1 above k_s."""
    return ParamBatch.of([
        POINT,
        ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.3, k_s=0.46, k_d1=0.11),
        ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.12, k_s=0.1, k_d1=0.2),
        ProtocolParams(p_z=0.5, p_ks=0.6, p_kd1=0.2, k_s=0.7, k_d1=0.05),
    ])


# per case: run settings, distance, points and floor
CASES = {
    "poll-exact-100km": (EXACT, 100.0,
                         lambda: stencil([0.75, 0.75, 0.75, 0.25, 0.25], 5), None),
    "poll-fluct-20km": (FLUCT, 20.0,
                        lambda: stencil([2 / 3, 1 / 3, 1 / 3, 0.0, 0.0], 4), None),
    "chunk-exact-100km": (EXACT, 100.0, lambda: grid_chunk(5, 1280), 1e-5),
    "chunk-fluct-20km": (FLUCT, 20.0, lambda: grid_chunk(4, 256), 3e-4),
    "mixed-exact-80km": (EXACT, 80.0, mixed, None),
    "point-exact": (RunConfig(), 80.0, lambda: ParamBatch.of([POINT]), None),
    "point-asymptotic": (RunConfig(asymptotic=True), 80.0,
                         lambda: ParamBatch.of([POINT]), None),
    "point-fluct": (POINT_FLUCT, 80.0, lambda: ParamBatch.of([POINT]), None),
}


def _digest(a: np.ndarray) -> str:
    if a.dtype == object:
        data = repr(a.tolist()).encode()
    else:
        data = np.ascontiguousarray(a).tobytes()
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + data).hexdigest()


def run_case(name: str):
    """The feasible mask, the screened mask and the results of the
    points that are not screened; without a floor no point is screened."""
    run, distance, points, floor = CASES[name]
    cfg, budget, n_total = run.channel(distance), run.budget(), run.n_total
    if floor is None:
        feasible, batch = evaluate_batch(
            cfg, points(), budget, n_total, mode=run.bound_mode, f_ec=run.f_ec
        )
        return feasible, np.zeros_like(feasible), batch
    prepared = prepare_batch(points(), run.bound_mode, run.fluct_r)
    model = ChannelModel(cfg)
    one = stage_one(model, prepared, budget, n_total, run.f_ec)
    passed = one.ceiling(budget, n_total) > floor
    screened = np.zeros_like(prepared.feasible)
    screened[prepared.idx[~passed]] = True
    batch = stage_two(model, prepared, one, passed.nonzero()[0], budget, n_total)
    return prepared.feasible, screened, batch


def digests(name: str) -> dict[str, str]:
    feasible, screened, batch = run_case(name)
    out = {"feasible": _digest(feasible), "screened": _digest(screened)}
    out.update((field, _digest(a)) for field, a in zip(batch._fields, batch))
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_bytes(name):
    assert digests(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: digests(name) for name in CASES}, indent=1, sort_keys=True))
