#!/usr/bin/env python3
"""Write a BENCH_<n>.json file: one committed record of how fast this
checkout is and what it produces.

    python3 scripts/bench.py [--out PATH]

Run from anywhere inside a checkout; ffdyn is imported from its ``src/``.
The record holds:

- ``benchmark``: the metrics that ``benchmark/run.py --workload all``
  prints at seed 0, once with ``--trace 0`` (end to end) and once with
  ``--trace 1`` (per layer), as {workload: {metric: {"value", "unit"}}},
  each workload running for the ``run_seconds`` of ``BENCHMARK.json``;
- ``sample_configs``: for each ``scripts/configs/*.cfg``, the
  ``wall_clock_seconds`` of its report in each of three runs of
  ``scripts/run_all.sh`` and their median;
- ``sha256sums``: ``runs/SHA256SUMS`` from those runs, as {artifact: sha256}
  (the script fails if two runs disagree, since a faster checkout must
  make the same artifacts);
- ``threaded_configs``: {tag: {"runs_s", "median_s"}} as in
  ``sample_configs``, for the sample config of each experiment that
  shards its trials over processes (``THREADED_TAGS``), each run three
  times with ``--threads`` at the usable CPU count (recorded as
  ``threads``); the script fails if an artifact differs from
  ``sha256sums``;
- ``tier1``: one run of the Tier-1 suite (``python -m pytest -q
  --continue-on-collection-errors`` with ``--durations=10``): its wall
  time, its result line and its ten slowest test phases;
- ``machine``: the git commit (marked dirty if edited), CPU model, CPU count, Python and numpy.

Without ``--out`` the file is ``BENCH_<n>.json`` in the checkout's root,
with n one past the highest already there (0 for the first).  With
``run_seconds`` at 30 a record takes about four minutes plus the suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
RUNS = 3  # runs of the sample configs
THREADED_TAGS = ("kg-mc", "strong-bc", "tree-loglaw")


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def benchmark_metrics(seconds: float, trace: int) -> dict:
    """Parse the `workload metric value unit` lines of a --workload all run."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", "all"]
    cmd += ["--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark/run.py failed:\n{proc.stdout}{proc.stderr}")
    out: dict = {}
    for line in proc.stdout.splitlines():
        workload, metric, value, unit = line.split()
        out.setdefault(workload, {})[metric] = {"value": float(value), "unit": unit}
    return out


def sample_config_runs() -> tuple[dict, dict]:
    """({tag: {"runs_s", "median_s"}}, {artifact: sha256}) over RUNS runs
    of scripts/run_all.sh."""
    walls: dict[str, list[float]] = {}
    sums = None
    for _ in range(RUNS):
        proc = subprocess.run(
            ["scripts/run_all.sh"], cwd=ROOT, env=_env(), capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise SystemExit(f"scripts/run_all.sh failed:\n{proc.stdout}{proc.stderr}")
        for report in sorted((ROOT / "runs").glob("*/*-report.json")):
            rep = json.loads(report.read_text())
            walls.setdefault(rep["tag"], []).append(rep["wall_clock_seconds"])
        text = (ROOT / "runs" / "SHA256SUMS").read_text()
        if sums is not None and text != sums:
            raise SystemExit("runs/SHA256SUMS differs between runs of the same checkout")
        sums = text
    configs = {
        tag: {"runs_s": ws, "median_s": statistics.median(ws)} for tag, ws in walls.items()
    }
    digests = {}
    for line in sums.splitlines():
        digest, path = line.split(maxsplit=1)
        digests[path.removeprefix("./")] = digest
    return configs, digests


def threaded_config_runs(digests: dict) -> dict:
    """{"threads", tag: {"runs_s", "median_s"}} over RUNS runs of each
    THREADED_TAGS sample config at --threads = the usable CPU count."""
    threads = len(os.sched_getaffinity(0))
    out: dict = {"threads": threads}
    for tag in THREADED_TAGS:
        walls = []
        for _ in range(RUNS):
            with tempfile.TemporaryDirectory() as tmp:
                cmd = [sys.executable, "-m", "ffdyn", tag]
                cmd += ["--config", f"scripts/configs/{tag}.cfg", "--out", tmp]
                cmd += ["--threads", str(threads)]
                proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True)
                if proc.returncode != 0:
                    raise SystemExit(f"{tag} --threads {threads} failed:\n{proc.stdout}{proc.stderr}")
                rep = json.loads((Path(tmp) / f"{tag}-report.json").read_text())
                artifact = Path(tmp) / rep["artifact"]
                digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
                if digest != digests[f"{tag}/{rep['artifact']}"]:
                    raise SystemExit(f"{tag} at --threads {threads} made a different artifact")
                walls.append(rep["wall_clock_seconds"])
        out[tag] = {"runs_s": walls, "median_s": statistics.median(walls)}
    return out


def tier1_suite() -> dict:
    """{"wall_s", "result", "slowest"} of one Tier-1 run; a failing test
    is recorded in the result line, not raised."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    cmd.append("--durations=10")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode not in (0, 1):  # 1: some test failed
        raise SystemExit(f"the Tier-1 suite did not run:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.splitlines()
    slowest = []
    for line in lines:
        m = re.fullmatch(r"([\d.]+)s (setup|call|teardown)\s+(\S.*)", line.strip())
        if m:
            slowest.append({"test": m[3], "phase": m[2], "seconds": float(m[1])})
    return {"wall_s": round(wall, 2), "result": lines[-1].strip("= "), "slowest": slowest}


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    # the commit, with "-dirty" appended when the tree has uncommitted edits
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return {
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def next_bench_path() -> Path:
    names = (re.fullmatch(r"BENCH_(\d+)\.json", p.name) for p in ROOT.glob("BENCH_*.json"))
    taken = [int(m.group(1)) for m in names if m]
    return ROOT / f"BENCH_{max(taken, default=-1) + 1}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="output file (default: next BENCH_<n>.json)")
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = args.out or next_bench_path()
    configs, digests = sample_config_runs()
    record = {
        "machine": machine(),
        "benchmark": {
            "seed": SEED,
            "seconds": seconds,
            "end_to_end": benchmark_metrics(seconds, 0),
            "per_layer": benchmark_metrics(seconds, 1),
        },
        "sample_configs": configs,
        "sha256sums": digests,
        "threaded_configs": threaded_config_runs(digests),
        "tier1": tier1_suite(),
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
