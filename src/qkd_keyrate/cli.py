"""Command line front end: distance sweeps, validation runs, optimization.

Subcommands:

  sweep     optimize the rate at every distance in the configured grid
            and write one CSV row per distance
  validate  run the statistical validation suites and emit a JSON report
  optimize  single-distance optimization with the improvement trace

Exit codes: 0 success, 1 configuration error (including a search box
with no feasible point), 2 validation failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys

from .budget import EpsilonBudget
from .channel import ChannelConfig
from .config import ConfigError, RunConfig, load_config, with_overrides
from .optimize import InfeasibleSearchError, OptimizationResult, optimize_rate
from .validate import run_validation

__all__ = ["run_sweep", "write_csv", "main"]

CSV_COLUMNS = (
    "distance_km", "rate", "ell", "m0_lower", "m1_lower", "eph_upper",
    "e_z", "z_ks_size", "p_z", "p_ks", "p_kd1", "k_s", "k_d1",
    "aborted", "abort_reason",
)


def _optimize(
    cfg: RunConfig, budget: EpsilonBudget | None, channel: ChannelConfig
) -> OptimizationResult:
    """``optimize_rate`` on ``channel`` with ``cfg``'s settings."""
    return optimize_rate(
        channel,
        budget,
        cfg.n_total,
        strategy=cfg.strategy,
        mode=cfg.bound_mode,
        f_ec=cfg.f_ec,
        grid_points=cfg.grid_points,
    )


def _sweep_point(
    cfg: RunConfig, budget: EpsilonBudget | None, distance_km: float
) -> dict:
    """One optimized sweep row under ``cfg.budget()``, which the caller
    builds once per sweep; module-level so worker processes can run it."""
    opt = _optimize(cfg, budget, cfg.channel(distance_km))
    res, par = opt.best, opt.best_params
    return {
        "distance_km": distance_km,
        "rate": res.rate,
        "ell": res.ell,
        "m0_lower": res.m0_l,
        "m1_lower": res.m1_l,
        "eph_upper": res.e_ph_u,
        "e_z": res.e_z,
        "z_ks_size": res.z_ks_size,
        "p_z": par.p_z,
        "p_ks": par.p_ks,
        "p_kd1": par.p_kd1,
        "k_s": par.k_s,
        "k_d1": par.k_d1,
        "aborted": res.aborted,
        "abort_reason": res.abort_reason,
    }


def run_sweep(cfg: RunConfig) -> list[dict]:
    """Optimized key-rate rows over the configured distance grid.

    Rows come back in distance order and are deterministic whatever the
    worker count, since every distance is optimized independently by a
    deterministic search; ``cfg.seed`` has no effect on them.
    """
    distances = cfg.distances()
    if not distances:
        raise ConfigError("sweep grid is empty")
    budget = cfg.budget()
    # a pool starts all its workers at once: never more than one per
    # distance or per core
    cap = min(len(distances), os.cpu_count() or 1)
    workers = min(cfg.workers or cap, cap)
    if workers <= 1:
        return [_sweep_point(cfg, budget, d) for d in distances]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        n = len(distances)
        return list(pool.map(_sweep_point, [cfg] * n, [budget] * n, distances))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12e")  # 13 significant digits, locale-free
    return "" if value is None else str(value)


def write_csv(rows: list[dict], stream) -> None:
    """Rows in the fixed column order, scientific notation throughout."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    cfg = with_overrides(
        cfg,
        asymptotic=True if args.asymptotic else None,
        output=args.out,
    )
    # refused before the sweep, which open() would reach only after every
    # distance; the file itself is opened only once the rows exist, so an
    # error in the sweep leaves an existing CSV as it was
    if os.path.isdir(cfg.output):
        raise ConfigError(f"output path {cfg.output!r} is a directory")
    parent = os.path.dirname(cfg.output) or os.curdir
    if not os.path.isdir(parent):
        raise ConfigError(
            f"output directory {parent!r} does not exist or is not a directory")
    rows = run_sweep(cfg)
    with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
        write_csv(rows, fh)
    positive = sum(1 for r in rows if r["rate"] > 0.0)
    print(
        f"wrote {len(rows)} rows to {cfg.output} "
        f"({positive} with positive rate)"
    )
    return 0


def _cmd_validate(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    report = run_validation(seed=args.seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {args.out}")
    else:
        print(text)
    if not report["passed"]:
        print("validation FAILED", file=sys.stderr)
        return 2
    print("validation passed")
    return 0


def _cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    try:
        channel = cfg.channel(args.distance)
    except ValueError as exc:
        raise ConfigError(f"--distance: {exc}") from None
    opt = _optimize(cfg, cfg.budget(), channel)
    print(f"distance_km = {_fmt(float(args.distance))}")
    for name in ("evaluations", "grid_evaluations", "polish_evaluations",
                 "polish_batches", "grid_screened", "grid_s", "polish_s"):
        print(f"{name} = {_fmt(getattr(opt, name))}")
    print("trace (improvements):")
    for par, rate in opt.trace:
        print(
            f"  rate={_fmt(rate)} p_z={_fmt(par.p_z)} p_ks={_fmt(par.p_ks)} "
            f"p_kd1={_fmt(par.p_kd1)} k_s={_fmt(par.k_s)} k_d1={_fmt(par.k_d1)}"
        )
    res = opt.best
    print(f"best rate = {_fmt(res.rate)}")
    print(f"ell = {res.ell}")
    if res.aborted:
        print(f"aborted: {res.abort_reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkd-keyrate",
        description="Finite-size secret-key rates for a three-state "
        "decoy protocol with imperfect sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="optimized rate over a distance grid")
    p_sweep.add_argument("--config", required=True, help="INI configuration file")
    p_sweep.add_argument("--out", help="CSV output path (overrides [output] path)")
    p_sweep.add_argument(
        "--asymptotic", action="store_true",
        help="drop all statistical deviations",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="statistical validation suites")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", help="write the JSON report here")
    p_val.set_defaults(func=_cmd_validate)

    p_opt = sub.add_parser("optimize", help="single-distance optimization")
    p_opt.add_argument("--config", required=True, help="INI configuration file")
    p_opt.add_argument("--distance", type=float, required=True, help="km")
    p_opt.set_defaults(func=_cmd_optimize)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InfeasibleSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
