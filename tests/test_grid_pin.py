"""The optimizer's answers on the benchmark's two sweeps, bit for bit.

``grid_pin.json`` holds, per sweep and distance, what ``optimize_rate``
returned with the sweep's settings: ``grid_screened``, the grid and
polish evaluations, the best parameters, every field of the best
``KeyRateResult`` and the trace.  It was recorded before the grid was
scored in blocks, and a change meant to leave every answer alone keeps
it exactly; floats are stored as ``repr`` and compared with ``==``.
Print the pin of the working tree with
``PYTHONPATH=src python tests/test_grid_pin.py``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from qkd_keyrate.config import parse_config
from qkd_keyrate.optimize import optimize_rate
from test_sweep_golden import SWEEPS

PIN = Path(__file__).with_name("grid_pin.json")


def _params(p) -> list[float]:
    return [p.p_z, p.p_ks, p.p_kd1, p.k_s, p.k_d1, p.k_d2]


def pin(name: str) -> list[dict]:
    """Per distance of the sweep ``name``, the pinned optimizer output."""
    cfg = parse_config(SWEEPS[name])
    budget = cfg.budget()
    rows = []
    for d in cfg.distances():
        out = optimize_rate(cfg.channel(d), budget, cfg.n_total, strategy=cfg.strategy,
                            mode=cfg.bound_mode, f_ec=cfg.f_ec,
                            grid_points=cfg.grid_points)
        rows.append({
            "distance_km": d,
            "grid_screened": out.grid_screened,
            "grid_evaluations": out.grid_evaluations,
            "polish_evaluations": out.polish_evaluations,
            "best_params": _params(out.best_params),
            "best": dataclasses.asdict(out.best),
            "trace": [[_params(p), rate] for p, rate in out.trace],
        })
    # through JSON, as the pin was stored
    return json.loads(json.dumps(rows))


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_optimizer_matches_pin(name):
    rows, ref = pin(name), json.loads(PIN.read_text())[name]
    assert [r["distance_km"] for r in rows] == [r["distance_km"] for r in ref]
    for row, want in zip(rows, ref):
        assert row == want, f"{name} at {row['distance_km']:g} km"


if __name__ == "__main__":
    print(json.dumps({name: pin(name) for name in sorted(SWEEPS)}, indent=1))
