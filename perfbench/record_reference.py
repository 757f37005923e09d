"""Record the reference answers that every benchmark run checks against.

    python3 perfbench/record_reference.py [--seeds 32] [--workloads ...]

Run from the root of a source checkout at the commit whose answers are
the reference.  For each sweep it records, per distance, the key length
of the grid search alone (the seed does not enter it) and of the full
search for optimizer seeds 0 .. seeds-1 (workload seed ``s`` uses
``s * OPTIMIZER_SEEDS`` onwards); for ``point-calls`` the key length
of a fixed panel of points.  Rates are ell / n_total.  Entries of
workloads not named are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from qkd_keyrate import cli, config  # noqa: E402

import workloads  # noqa: E402


def sweep_ells(settings: dict, seed: int) -> list[int]:
    cfg = config.parse_config(workloads.config_text({**settings, "seed": seed}))
    return [row["ell"] for row in cli.run_sweep(cfg)]


def record_sweep(name: str, settings: dict, seeds: range) -> dict:
    grid = sweep_ells({**settings, "strategy": "grid"}, 0)
    by_seed = {}
    for seed in seeds:
        by_seed[str(seed)] = sweep_ells(settings, seed)
        print(f"{name} seed {seed}: {by_seed[str(seed)]}", flush=True)
    cfg = config.parse_config(workloads.config_text(settings))
    return {
        "n_total": cfg.n_total,
        "distances_km": list(cfg.distances()),
        "grid_ell": grid,
        "seeds": by_seed,
    }


def record_panel() -> dict:
    points = workloads.draw_points(workloads.PANEL_SEED, workloads.PANEL_CALLS)
    _, results = workloads.PointCalls(points).run()
    panel = []
    for p, res in zip(points, results):
        if isinstance(res, Exception):
            raise RuntimeError(f"panel point {p}: {res}")
        panel.append({"population": p.population, "distance_km": p.distance_km,
                      "params": list(p.params), "ell": res.ell})
    return {"n_total": workloads.PointCalls([]).n_total, "panel": panel}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=32)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    args = parser.parse_args()
    reference = workloads.load_reference() if workloads.REFERENCE_FILE.exists() else {}
    for name in args.workloads:
        if name == "point-calls":
            reference[name] = record_panel()
        else:
            settings = workloads.SWEEP_EXACT if name == "sweep-exact" else workloads.SWEEP_FLUCT
            reference[name] = record_sweep(name, settings, range(args.seeds))
    workloads.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
