"""Per-stage times of the batch chain and per-phase costs of a sweep.

Prints one JSON object.  ``stages`` holds, per mode (``exact``: the
``sweep-exact`` settings at 100 km; ``fluct``: the ``sweep-fluct``
settings, r = 0.05, at 20 km) and per batch (``poll``: the compass
polish's first 20-point stencil, the ten neighbours of both tracks;
``lookahead``: the polish's first batch from the same point, 160 rows
for both tracks' two decisions; ``chunk``: 256 grid points; ``point``:
a batch of one), the minimum microseconds of each stage of the chain
on warm click tables, in the forms stage 2 runs them (``cell_bounds``
and ``phase_error`` with the source's ``lower_terms``), and of the
whole batch (``total``: the parameters and ``evaluate_batch``).
``cold_point_us`` is a library ``evaluate_rate`` call per mode at
80 km with a fresh channel model, as the benchmark's point calls make.
``stage_two_us`` holds, per mode at its ``stages`` distance, the
minimum microseconds of ``pipeline.stage_two`` on 1, 20, 195 and 256
points of the first grid block: the sizes of a batch of one, a poll, a
keyless ``sweep-fluct`` distance's stage 2 and a full stage-2 batch.
A mode's times are taken in interleaved rounds: each round times every
one of them once, over about 10 ms of calls, and each keeps its
minimum over the rounds, so a busy spell inflates no whole row.
``grid_parts_us`` splits the grid phase of ``sweep-fluct`` at
100 km, a keyless distance, into stage 1 (with its cold click tables),
stage 2 and ``replay``, the rest of the grid loop (the screens and the
replay of each block), from the repeat with the least grid time.
``sweep`` holds, per ``sweep-exact`` distance, the grid and polish
seconds (the minimum over the repeats, which run the sweep's distances
in turn), the evaluations of each phase, the polish's batches and
the rows they score, and the key length; ``sweep_fluct`` holds the same
per ``sweep-fluct`` distance, with the sizes of the grid's stage-1 and
stage-2 batches (``stage_one`` runs on a block of grid points,
``stage_two`` on the points that pass the screen, at most GRID_CHUNK
at a time).

Run from a checkout: ``PYTHONPATH=src python tools/layer_times.py``
(``--repeat`` sets how many rounds each minimum takes, and a quarter of
it the sweep's repeats).
"""

from __future__ import annotations

import argparse
import json
import math
import time
import timeit

import numpy as np

from qkd_keyrate import optimize
from qkd_keyrate.channel import ChannelModel
from qkd_keyrate.config import RunConfig
from qkd_keyrate.decoy import aggregate_bounds, cell_bounds
from qkd_keyrate.key_length import key_length_batch, lambda_ec_batch
from qkd_keyrate.optimize import SearchSpace, optimize_rate
from qkd_keyrate.phase_error import lower_terms, n_ph_upper_batch, phase_weights
from qkd_keyrate.pipeline import (
    ProtocolParams,
    evaluate_batch,
    evaluate_rate,
    prepare_batch,
    source_coeffs,
    stage_one,
    stage_two,
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
POINT = ProtocolParams(p_z=0.9, p_ks=0.8, p_kd1=0.12, k_s=0.46, k_d1=0.11)
# the stage-2 batch sizes timed: a batch of one, a poll, the stage 2 of a
# keyless sweep-fluct distance (100 km) and a full batch
STAGE_TWO_ROWS = (1, 20, 195, 256)


def _batches(run: RunConfig, u) -> dict[str, np.ndarray]:
    """Unit vectors of the four batches."""
    bits = optimize.POLISH_LATTICE_BITS
    top = float((run.grid_points - 1) << bits)
    steps = np.array(optimize.POLISH_FIRST_STEPS) * (1 << bits)
    lattice = optimize._polish_rows(np.tile(np.rint(np.asarray(u) * top), (len(steps), 1)),
                                    steps, [False] * len(steps), top)
    lookahead = lattice * (1.0 / top)
    # each track's first 10 of its 80 rows are its neighbours
    poll = lookahead.reshape(len(steps), -1, 5)[:, :10].reshape(-1, 5)
    ticks = np.linspace(0.0, 1.0, run.grid_points)
    flat = np.arange(256, 512)
    chunk = ticks[np.stack(np.unravel_index(flat, (run.grid_points,) * 5), axis=1)]
    return {"poll": poll, "lookahead": lookahead, "chunk": chunk, "point": poll[:1]}


def _minima(fns: dict, repeat: int) -> dict:
    """Per key of ``fns``, the minimum microseconds of one call over
    ``repeat`` rounds, each of which times every function once over
    about 10 ms of calls."""
    timers = {key: timeit.Timer(fn) for key, fn in fns.items()}
    numbers = {key: max(1, int(1e-2 / t.timeit(1))) for key, t in timers.items()}
    best = dict.fromkeys(fns, math.inf)
    for _ in range(repeat):
        for key, t in timers.items():
            best[key] = min(best[key], t.timeit(numbers[key]) / numbers[key])
    return {key: round(s * 1e6, 1) for key, s in best.items()}


def stage_fns(run: RunConfig, distance: float, units) -> dict:
    """Each stage of one batch on warm tables, as a call to time."""
    space, mode, r = SearchSpace(), run.bound_mode, run.fluct_r
    cfg, budget, n, f_ec = run.channel(distance), run.budget(), run.n_total, run.f_ec
    model = ChannelModel(cfg)
    params = space.params_batch(units)
    prepared = prepare_batch(params, mode, r)
    counts, e_z = model.expected_counts(prepared.layout, n)
    factors, p_z = prepared.factors, prepared.layout.p_z
    m0, m1 = aggregate_bounds(counts, factors, budget)
    z_ks = counts.z_by_k[:, 0]
    lam = lambda_ec_batch(z_ks, e_z, f_ec)
    coeffs = source_coeffs(cfg.xi)
    terms, lower = lower_terms(coeffs)
    cells = cell_bounds(counts, factors, budget, lower)
    eph = n_ph_upper_batch(phase_weights(coeffs, p_z), cells, m1, budget, terms)

    def total():
        evaluate_batch(cfg, space.params_batch(units), budget, n, mode, f_ec, model)

    return {
        "params_batch": lambda: space.params_batch(units),
        "prepare_batch": lambda: prepare_batch(params, mode, r),
        "expected_counts": lambda: model.expected_counts(prepared.layout, n),
        "aggregate_bounds": lambda: aggregate_bounds(counts, factors, budget),
        "lambda_ec_batch": lambda: lambda_ec_batch(z_ks, e_z, f_ec),
        "cell_bounds": lambda: cell_bounds(counts, factors, budget, lower),
        "phase_error": lambda: n_ph_upper_batch(
            phase_weights(coeffs, p_z), cells, m1, budget, terms),
        "key_length_batch": lambda: key_length_batch(
            m0, m1, eph.e_ph_upper, lam, budget, n_total=n, e_z=e_z, z_ks_size=z_ks),
        "total": total,
    }


def stage_two_fns(run: RunConfig, distance: float) -> dict:
    """``stage_two`` on the first STAGE_TWO_ROWS points of the first
    grid block, on warm tables, as calls to time."""
    model = ChannelModel(run.channel(distance))
    budget, n = run.budget(), run.n_total
    block = optimize._grid_blocks(SearchSpace(), run.grid_points, run.bound_mode,
                                  run.fluct_r)[0]
    one = stage_one(model, block.prepared, budget, n, run.f_ec)
    return {
        str(k): lambda rows=np.arange(k): stage_two(
            model, block.prepared, one, rows, budget, n)
        for k in STAGE_TWO_ROWS
    }


def _grid_runs(run: RunConfig, distance: float, repeat: int) -> list[dict]:
    """``repeat`` grid-only runs at one distance with both stages
    wrapped: per run the grid seconds and, per stage, its seconds and
    the sizes of its batches."""
    cfg, budget = run.channel(distance), run.budget()
    stages = optimize.stage_one, optimize.stage_two
    # a stage-1 batch's size is its prepared points, a stage-2 batch's
    # its rows
    sizes = (lambda args: len(args[1].feasible), lambda args: len(args[3]))

    def wrapped(k, record):
        def call(*args):
            t0 = time.perf_counter()
            out = stages[k](*args)
            record["s"][k] += time.perf_counter() - t0
            record["sizes"][k].append(sizes[k](args))
            return out
        return call

    runs = []
    try:
        for _ in range(repeat):
            record = {"s": [0.0, 0.0], "sizes": ([], [])}
            optimize.stage_one = wrapped(0, record)
            optimize.stage_two = wrapped(1, record)
            out = optimize_rate(cfg, budget, run.n_total, strategy="grid",
                                mode=run.bound_mode, f_ec=run.f_ec,
                                grid_points=run.grid_points)
            runs.append({**record, "grid_s": out.grid_s})
    finally:
        optimize.stage_one, optimize.stage_two = stages
    return runs


def grid_parts(run: RunConfig, distance: float, repeat: int) -> dict[str, float]:
    """Microseconds of the grid phase at one distance and of its parts,
    from the one of ``repeat`` runs with the least grid time: the
    ``stage_one`` and ``stage_two`` calls, and the rest of the grid loop
    (the screens and the replay)."""
    best = min(_grid_runs(run, distance, repeat), key=lambda r: r["grid_s"])
    grid, (one, two) = best["grid_s"] * 1e6, (t * 1e6 for t in best["s"])
    return {"distance_km": distance, "grid": round(grid, 1), "stage_one": round(one, 1),
            "stage_two": round(two, 1), "replay": round(grid - one - two, 1)}


def cold_point_fn(run: RunConfig, distance: float):
    """One ``evaluate_rate`` call with a fresh channel model, so its click
    tables are built, as a call to time."""
    cfg, budget = run.channel(distance), run.budget()
    return lambda: evaluate_rate(
        cfg, POINT, budget, run.n_total, mode=run.bound_mode, f_ec=run.f_ec)


def mode_times(run: RunConfig, distance: float, u, repeat: int) -> dict:
    """The ``stages``, ``stage_two_us`` and ``cold_point_us`` entries of
    one mode, timed in the same rounds."""
    fns = {("stages", batch, stage): fn
           for batch, units in _batches(run, u).items()
           for stage, fn in stage_fns(run, distance, units).items()}
    fns.update({("stage_two_us", k): fn
                for k, fn in stage_two_fns(run, distance).items()})
    fns[("cold_point_us",)] = cold_point_fn(run, 80.0)
    report: dict = {}
    for (*path, last), us in _minima(fns, repeat).items():
        tree = report
        for key in path:
            tree = tree.setdefault(key, {})
        tree[last] = us
    return report


def sweep_phases(run: RunConfig, repeat: int, batches: bool = False) -> list[dict]:
    """Per distance of the sweep: grid and polish seconds (minimum over
    ``repeat`` runs of the sweep's distances in turn), evaluations,
    polish batches and rows, and key length, and with ``batches`` the
    sizes of the grid's stage-1 and stage-2 batches."""
    distances = run.distances()
    outs = {d: [] for d in distances}
    polish_rows = {}
    evaluate_batch = optimize.evaluate_batch
    polled = []

    def counted(cfg, params, *args, **kwargs):
        polled.append(len(params.p_z))
        return evaluate_batch(cfg, params, *args, **kwargs)

    try:
        # the grid scores through the stages, so these are the polish's
        optimize.evaluate_batch = counted
        for _ in range(repeat):
            for d in distances:
                polled.clear()
                outs[d].append(optimize_rate(run.channel(d), run.budget(), run.n_total,
                                             mode=run.bound_mode, f_ec=run.f_ec,
                                             grid_points=run.grid_points))
                polish_rows[d] = sum(polled)
    finally:
        optimize.evaluate_batch = evaluate_batch
    rows = []
    for d in distances:
        out = outs[d][0]
        row = {
            "distance_km": d,
            "grid_s": round(min(o.grid_s for o in outs[d]), 5),
            "polish_s": round(min(o.polish_s for o in outs[d]), 5),
            "grid_evaluations": out.grid_evaluations,
            "polish_evaluations": out.polish_evaluations,
            "polish_batches": out.polish_batches,
            "polish_rows": polish_rows[d],
            "ell": out.best.ell,
        }
        if batches:
            sizes = _grid_runs(run, d, 1)[0]["sizes"]
            row["stage_one_batches"], row["stage_two_batches"] = sizes
        rows.append(row)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=20,
                        help="timeit repeats per minimum (default 20)")
    args = parser.parse_args()
    report = {"stages": {}, "cold_point_us": {}, "stage_two_us": {}}
    for mode, (run, distance, u) in MODES.items():
        for entry, times in mode_times(run, distance, u, args.repeat).items():
            report[entry][mode] = times
    report["grid_parts_us"] = grid_parts(MODES["fluct"][0], 100.0, args.repeat)
    report["sweep"] = sweep_phases(MODES["exact"][0], max(1, args.repeat // 4))
    report["sweep_fluct"] = sweep_phases(MODES["fluct"][0], max(1, args.repeat // 4),
                                         batches=True)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
