"""Smoke test of the benchmark harness at a tiny size.

Runs every workload traced and untraced on a few operations and checks
that each metric named in BENCHMARK.json comes out with its unit, that
the answers pass, and that tracing leaves the package as it found it.
"""

import json
from pathlib import Path

import pytest

import workloads
from tracing import COUNT_HOOKS, SPAN_HOOKS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SWEEP = {"stop_km": 200.0, "step_km": 200.0, "grid_points": 2}


def tiny(name):
    if name == "point-calls":
        return workloads.PointWorkload(seed=3, reference={}, count=20)
    settings = workloads.SWEEP_EXACT if name == "sweep-exact" else workloads.SWEEP_FLUCT
    return workloads.SweepWorkload(name, {**settings, **TINY_SWEEP}, 3, {})


def hooked_attributes():
    """The current value of every hook target (None where it is gone)."""
    import importlib

    found = {}
    for module, attr, _ in SPAN_HOOKS + COUNT_HOOKS:
        owner = importlib.import_module(f"qkd_keyrate.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        found[(module, attr)] = vars(owner).get(leaf) if owner is not None else None
    return found


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(name, trace):
    import qkd_keyrate

    before = hooked_attributes()
    src_dir = Path(qkd_keyrate.__file__).resolve().parent.parent
    result, details = workloads.run_workload(
        tiny(name), seconds=0.0, trace=trace, src_dir=src_dir, setup_repeats=1
    )
    assert hooked_attributes() == before
    assert details["failures"] == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(isinstance(v, float) for v in values.values())
    if not trace:
        assert all(v > 0.0 for v in values.values())
    elif name == "point-calls":
        assert all(v == 0.0 for n, v in values.items() if n.startswith(("optimize.", "cli.")))


def test_bare_directory_is_refused(tmp_path):
    import subprocess
    import sys

    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-calls",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
