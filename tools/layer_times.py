"""Per-stage times of the batch chain and per-phase costs of a sweep.

Prints one JSON object.  ``stages`` holds, per mode (``exact``: the
``sweep-exact`` settings at 100 km; ``fluct``: the ``sweep-fluct``
settings, r = 0.05, at 20 km) and per batch (``poll``: the compass
polish's first 20-point stencil; ``chunk``: 256 grid points; ``point``:
a batch of one), the timeit-minimum microseconds of each stage of the
chain on warm click tables, and of the whole batch (``total``: the
parameters and ``evaluate_batch``).
``cold_point_us`` is a library ``evaluate_rate`` call per mode at
80 km with a fresh channel model, as the benchmark's point calls make.
``sweep`` holds, per ``sweep-exact`` distance, the grid and polish
seconds (the minimum over the repeats), the evaluations of each phase
and the key length; ``sweep_fluct`` holds the same per ``sweep-fluct``
distance, with the sizes of the grid's stage-1 and stage-2 batches
(``stage_one`` runs on a block of grid chunks, ``stage_two`` on the
points that pass the screen, GRID_CHUNK at a time).

Run from a checkout: ``PYTHONPATH=src python tools/layer_times.py``
(``--repeat`` sets how many timeit repeats each minimum takes, and a
quarter of it the sweep's repeats).
"""

from __future__ import annotations

import argparse
import json
import timeit

import numpy as np

from qkd_keyrate import optimize
from qkd_keyrate.channel import ChannelModel
from qkd_keyrate.config import RunConfig
from qkd_keyrate.decoy import aggregate_bounds, cell_bounds
from qkd_keyrate.key_length import key_length_batch, lambda_ec_batch
from qkd_keyrate.optimize import SearchSpace, optimize_rate
from qkd_keyrate.phase_error import n_ph_upper_batch, phase_weights
from qkd_keyrate.pipeline import (
    ProtocolParams,
    evaluate_batch,
    evaluate_rate,
    prepare_batch,
    source_coeffs,
)

# the benchmark's sweep settings, the distance each mode is timed at and
# the grid point its polish starts from there
MODES = {
    "exact": (RunConfig(xi=0.147, n_total=1e12, eps_sec=1e-10, grid_points=5,
                        step_km=50.0, workers=1),
              100.0, [0.75, 0.75, 0.75, 0.25, 0.25]),
    "fluct": (RunConfig(mode="fluctuating", fluct_r=0.05, n_total=1e14, eps_sec=1e-8,
                        grid_points=4, step_km=20.0, workers=1),
              20.0, [2 / 3, 1 / 3, 1 / 3, 0.0, 0.0]),
}
COMPASS = np.concatenate([np.eye(5), -np.eye(5)])
POINT = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.12, k_s=0.46, k_d1=0.11)


def _batches(run: RunConfig, u) -> dict[str, np.ndarray]:
    """Unit vectors of the three batches."""
    steps = np.array([0.5, 0.25]) / (run.grid_points - 1)
    poll = np.clip((np.asarray(u) + steps[:, None, None] * COMPASS).reshape(-1, 5), 0, 1)
    ticks = np.linspace(0.0, 1.0, run.grid_points)
    flat = np.arange(256, 512)
    chunk = ticks[np.stack(np.unravel_index(flat, (run.grid_points,) * 5), axis=1)]
    return {"poll": poll, "chunk": chunk, "point": poll[:1]}


def _best(fn, repeat: int) -> float:
    """Timeit minimum of one ``fn()`` call, in microseconds, over
    ``repeat`` runs of about 10 ms each."""
    timer = timeit.Timer(fn)
    number = max(1, int(1e-2 / timer.timeit(1)))
    return min(timer.repeat(repeat, number)) / number * 1e6


def stage_times(run: RunConfig, distance: float, units, repeat: int) -> dict:
    """Microseconds of each stage of one batch on warm tables."""
    space, mode, r = SearchSpace(), run.bound_mode, run.fluct_r
    cfg, budget, n, f_ec = run.channel(distance), run.budget(), run.n_total, run.f_ec
    model = ChannelModel(cfg)
    params = space.params_batch(units)
    prepared = prepare_batch(params, mode, r)
    counts, e_z = model.expected_counts(prepared.layout, n)
    factors, p_z = prepared.factors, prepared.layout.p_z
    m0, m1 = aggregate_bounds(counts, factors, budget, mode)
    z_ks = counts.z_by_k[:, 0]
    lam = lambda_ec_batch(z_ks, e_z, f_ec)
    cells = cell_bounds(counts, factors, budget, mode)
    coeffs = source_coeffs(cfg.xi)
    eph = n_ph_upper_batch(phase_weights(coeffs, p_z), cells, m1, budget)

    def total():
        evaluate_batch(cfg, space.params_batch(units), budget, n, mode, f_ec, model)

    stages = {
        "params_batch": lambda: space.params_batch(units),
        "prepare_batch": lambda: prepare_batch(params, mode, r),
        "expected_counts": lambda: model.expected_counts(prepared.layout, n),
        "aggregate_bounds": lambda: aggregate_bounds(counts, factors, budget, mode),
        "lambda_ec_batch": lambda: lambda_ec_batch(z_ks, e_z, f_ec),
        "cell_bounds": lambda: cell_bounds(counts, factors, budget, mode),
        "phase_error": lambda: n_ph_upper_batch(
            phase_weights(coeffs, p_z), cells, m1, budget),
        "key_length_batch": lambda: key_length_batch(
            m0, m1, eph.e_ph_upper, lam, budget, n_total=n, e_z=e_z, z_ks_size=z_ks),
        "total": total,
    }
    return {name: round(_best(fn, repeat), 1) for name, fn in stages.items()}


def cold_point(run: RunConfig, distance: float, repeat: int) -> float:
    """Microseconds of one ``evaluate_rate`` call: a fresh channel model,
    so its click tables are built."""
    cfg, budget = run.channel(distance), run.budget()
    return round(_best(lambda: evaluate_rate(
        cfg, POINT, budget, run.n_total, mode=run.bound_mode, f_ec=run.f_ec), repeat), 1)


def _batch_sizes(run: RunConfig, distance: float) -> tuple[list[int], list[int]]:
    """The sizes of the grid's stage-1 and stage-2 batches at one
    distance, from an untimed run with both stages wrapped."""
    sizes = ([], [])
    stages = optimize.stage_one, optimize.stage_two

    def one(model, prepared, *args):
        sizes[0].append(len(prepared.feasible))
        return stages[0](model, prepared, *args)

    def two(model, prepared, first, rows, *args):
        sizes[1].append(len(rows))
        return stages[1](model, prepared, first, rows, *args)

    optimize.stage_one, optimize.stage_two = one, two
    try:
        optimize_rate(run.channel(distance), run.budget(), run.n_total, strategy="grid",
                      mode=run.bound_mode, f_ec=run.f_ec, grid_points=run.grid_points)
    finally:
        optimize.stage_one, optimize.stage_two = stages
    return sizes


def sweep_phases(run: RunConfig, repeat: int, batches: bool = False) -> list[dict]:
    """Per distance of the sweep: grid and polish seconds (minimum over
    ``repeat`` runs), evaluations and key length, and with ``batches``
    the sizes of the grid's stage-1 and stage-2 batches."""
    rows = []
    for d in run.distances():
        outs = [optimize_rate(run.channel(d), run.budget(), run.n_total,
                              mode=run.bound_mode, f_ec=run.f_ec,
                              grid_points=run.grid_points) for _ in range(repeat)]
        out = outs[0]
        row = {
            "distance_km": d,
            "grid_s": round(min(o.grid_s for o in outs), 5),
            "polish_s": round(min(o.polish_s for o in outs), 5),
            "grid_evaluations": out.grid_evaluations,
            "polish_evaluations": out.polish_evaluations,
            "ell": out.best.ell,
        }
        if batches:
            row["stage_one_batches"], row["stage_two_batches"] = _batch_sizes(run, d)
        rows.append(row)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=20,
                        help="timeit repeats per minimum (default 20)")
    args = parser.parse_args()
    report = {"stages": {}, "cold_point_us": {}}
    for mode, (run, distance, u) in MODES.items():
        report["stages"][mode] = {
            name: stage_times(run, distance, units, args.repeat)
            for name, units in _batches(run, u).items()
        }
        report["cold_point_us"][mode] = cold_point(run, 80.0, args.repeat)
    report["sweep"] = sweep_phases(MODES["exact"][0], max(1, args.repeat // 4))
    report["sweep_fluct"] = sweep_phases(MODES["fluct"][0], max(1, args.repeat // 4),
                                         batches=True)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
