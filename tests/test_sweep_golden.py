"""The benchmark's two sweeps against their recorded rows.

``sweep_golden.json`` holds, per sweep and distance, the key length,
the abort reason, the rate and the five optimized parameters that
``run_sweep`` gave for the settings below.  A change that should leave
every answer alone must keep ℓ and the abort reason exactly and the
floats to REL relative.  Re-record only for a change that is meant to
move answers, and say so where the change is described.
"""

import json
from pathlib import Path

import pytest

from qkd_keyrate.cli import run_sweep
from qkd_keyrate.config import parse_config

REL = 1e-12
FLOATS = ("rate", "p_z", "p_ks", "p_kd1", "k_s", "k_d1")

# the settings of perfbench's sweep-exact and sweep-fluct workloads
SWEEPS = {
    "sweep-exact": """\
[run]
mode = exact
n_total = 1e12
eps_sec = 1e-10
[source]
xi = 0.147
[sweep]
start_km = 0
stop_km = 200
step_km = 50
[optimizer]
grid_points = 5
workers = 1
""",
    "sweep-fluct": """\
[run]
mode = fluctuating
n_total = 1e14
eps_sec = 1e-8
[source]
fluct_r = 0.05
[sweep]
start_km = 0
stop_km = 200
step_km = 20
[optimizer]
grid_points = 4
workers = 1
""",
}

GOLDEN = json.loads((Path(__file__).parent / "sweep_golden.json").read_text())


def golden_rows(rows):
    """The recorded fields of ``run_sweep`` rows."""
    return [
        {"distance_km": row["distance_km"], "ell": row["ell"],
         "abort_reason": row["abort_reason"],
         **{name: row[name] for name in FLOATS}}
        for row in rows
    ]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name):
    rows = golden_rows(run_sweep(parse_config(SWEEPS[name])))
    gold = GOLDEN[name]
    assert [r["distance_km"] for r in rows] == [g["distance_km"] for g in gold]
    for row, ref in zip(rows, gold):
        where = f"{name} at {row['distance_km']:g} km"
        assert row["ell"] == ref["ell"], where
        assert row["abort_reason"] == ref["abort_reason"], where
        for field in FLOATS:
            a, b = row[field], ref[field]
            assert a == b or abs(a - b) <= REL * abs(b), (where, field, a, b)
