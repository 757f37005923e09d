"""``tools/layer_times.py`` runs from a checkout and prints the JSON keys
its docstring documents."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = {
    "params_batch", "prepare_batch", "expected_counts", "aggregate_bounds",
    "lambda_ec_batch", "cell_bounds", "phase_error", "key_length_batch", "total",
}
SWEEP_ROW = {
    "distance_km", "grid_s", "polish_s", "grid_evaluations", "polish_evaluations",
    "polish_batches", "polish_rows", "ell",
}


def test_layer_times_prints_its_keys():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_times.py"), "--repeat", "1"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert set(report) == {
        "stages", "cold_point_us", "stage_two_us", "grid_parts_us", "sweep",
        "sweep_fluct",
    }
    for mode in ("exact", "fluct"):
        assert set(report["stages"][mode]) == {"poll", "lookahead", "chunk", "point"}
        for batch in report["stages"][mode].values():
            assert set(batch) == STAGES
        assert report["cold_point_us"][mode] > 0.0
        assert set(report["stage_two_us"][mode]) == {"1", "20", "195", "256"}
    parts = report["grid_parts_us"]
    assert set(parts) == {"distance_km", "grid", "stage_one", "stage_two", "replay"}
    assert parts["stage_one"] + parts["stage_two"] <= parts["grid"]
    distances = [row["distance_km"] for row in report["sweep"]]
    assert distances == [0.0, 50.0, 100.0, 150.0, 200.0]
    for row in report["sweep"]:
        assert set(row) == SWEEP_ROW
    assert len(report["sweep_fluct"]) == 11
    for row in report["sweep_fluct"]:
        assert set(row) == SWEEP_ROW | {"stage_one_batches", "stage_two_batches"}
