"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep-exact --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing needs installing.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  The line before it
records the environment.  Exits 2 without a result when the checkout
holds no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path


def source_digest(src_dir: Path) -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src_dir.rglob("*.py")):
        h.update(path.relative_to(src_dir).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, src_dir: Path, args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src_dir / "qkd_keyrate"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src_dir = root / "src"
    if not (src_dir / "qkd_keyrate" / "__init__.py").is_file():
        print(f"error: no package at {src_dir / 'qkd_keyrate'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src_dir))
    import qkd_keyrate

    if Path(qkd_keyrate.__file__).resolve().parent != (src_dir / "qkd_keyrate").resolve():
        print(f"error: imported {qkd_keyrate.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    workload = workloads.make_workload(args.workload, args.seed)
    result, details = workloads.run_workload(
        workload, args.seconds, bool(args.trace), src_dir
    )
    for note in details["failures"]:
        print(f"failed: {note}", file=sys.stderr)
    print(json.dumps({"environment": environment(root, src_dir, args), "run": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
