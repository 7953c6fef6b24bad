#!/usr/bin/env python3
"""Write a BENCH_<n>.json file: one committed record of how fast this
checkout is and what it produces.

    python3 scripts/bench.py [--out PATH]

Run from anywhere inside a checkout; ffdyn is imported from its ``src/``.
The record holds:

- ``benchmark``: the metrics that ``benchmark/run.py --workload all``
  prints at seed 0, as {workload: {metric: {"value", "unit", "runs"}}},
  each workload running for the ``run_seconds`` of ``BENCHMARK.json``:
  RUNS times with ``--trace 0`` (end to end) and RUNS times with
  ``--trace 1`` (per layer), where each value is the median of the runs
  and ``runs`` lists them in order, since a single run moves with the
  host's speed;
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
- ``ladder``: for s in 2, 4, 3, 5, 9, the seconds of one
  ``flow._cf_ladder`` call on LADDER_P uniform codes with horizon
  LADDER_P / 2, LADDER_RUNS times in this process, and their median;
  no benchmark workload runs an odd-p ladder at that precision;
- ``generic``: for s in 2, 3, 4, 5, 9, the seconds of one
  ``flow._trajectory_generic`` run at m = n = 2 and T = GENERIC_T on
  uniform codes at flow-reduce's precision 4 T + 96, GENERIC_RUNS times
  in this process, and their median; flow-reduce times only s = 2 and 3;
- ``correspondence``: for s in 2, 3, 4, 5, 9, the seconds of one
  ``dioph.correspondence_check`` at m = n = 2 and T = CORR_T against the
  power law psi(x) = 1/x, on uniform codes at flow-reduce's precision
  4 T + 64, CORR_RUNS times in this process, and their median; it times
  the rate solve, the engine and the witness check together, and
  flow-reduce runs it only at s = 2 and 3;
- ``mult``: for s in 2, 3, 4, 5, 9, the seconds of one
  ``dioph.mult_solutions`` call on the exact 1 x 1 basis of MULT_PRECISION
  uniform codes against psi(x) = 1/x, at the norm bound s^k of
  MULT_BOUND_EXP, MULT_RUNS times in this process after one warm-up call,
  their median, and the tracemalloc peak of one more call
  (``peak_bytes``); ext-field runs it only at s = 4 and 9;
- ``machine``: the git commit (marked dirty if edited), CPU model, CPU count, Python and numpy.

Without ``--out`` the file is ``BENCH_<n>.json`` in the checkout's root,
with n one past the highest already there (0 for the first).  With
``run_seconds`` at 30 a record takes about seven minutes plus the suite.
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
RUNS = 3  # runs of the sample configs and of the benchmark at each --trace
THREADED_TAGS = ("kg-mc", "strong-bc", "tree-loglaw")
LADDER_FIELDS = ((2, 1), (2, 2), (3, 1), (5, 1), (3, 2))  # (p, e): s = 2, 4, 3, 5, 9
LADDER_P = 20192  # near the strong-bc sample config's precision, 2 (T + 8) + 96 = 20112
LADDER_RUNS = 5
GENERIC_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))  # (p, e): s = 2, 3, 4, 5, 9
GENERIC_T = 128
GENERIC_RUNS = 5
CORR_T = 32
CORR_RUNS = 5
MULT_PRECISION = 96
MULT_BOUND_EXP = {2: 5, 3: 3, 4: 2, 5: 2, 9: 1}  # s: k, about 800-4100 unit classes
MULT_RUNS = 9


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


def median_metrics(runs: list[dict]) -> dict:
    """The metrics of several ``benchmark_metrics`` results, each value
    the median of the runs, with the runs beside it as ``runs``."""
    out: dict = {}
    for workload, metrics in runs[0].items():
        for metric, first in metrics.items():
            values = [run[workload][metric]["value"] for run in runs]
            out.setdefault(workload, {})[metric] = {
                "value": statistics.median(values),
                "unit": first["unit"],
                "runs": values,
            }
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


def ladder_times() -> dict:
    """{"P", "horizon", s: {"runs_s", "median_s"}} of the ``ladder`` record."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from ffdyn.field import field_spec
    from ffdyn.flow import _cf_ladder

    horizon = LADDER_P // 2
    out: dict = {"P": LADDER_P, "horizon": horizon}
    for p, e in LADDER_FIELDS:
        fs = field_spec(p, e)
        coeffs = np.random.default_rng(SEED).integers(0, fs.s, size=LADDER_P)
        runs = []
        for _ in range(LADDER_RUNS):
            start = time.perf_counter()
            _cf_ladder(fs, coeffs, horizon)
            runs.append(time.perf_counter() - start)
        out[str(fs.s)] = {"runs_s": runs, "median_s": statistics.median(runs)}
    return out


def generic_times() -> dict:
    """{"m", "n", "T", s: {"runs_s", "median_s"}} of the ``generic`` record."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from ffdyn.field import field_spec
    from ffdyn.flow import FlowSpec, _trajectory_generic, sample_matrix

    out: dict = {"m": 2, "n": 2, "T": GENERIC_T}
    for p, e in GENERIC_FIELDS:
        fs = field_spec(p, e)
        spec = FlowSpec(fs, 2, 2)
        A = sample_matrix(fs, np.random.default_rng(SEED), 2, 2, 4 * GENERIC_T + 96)
        runs = []
        for _ in range(GENERIC_RUNS):
            start = time.perf_counter()
            for _ in _trajectory_generic(spec, A, GENERIC_T):
                pass
            runs.append(time.perf_counter() - start)
        out[str(fs.s)] = {"runs_s": runs, "median_s": statistics.median(runs)}
    return out


def correspondence_times() -> dict:
    """{"m", "n", "T", s: {"runs_s", "median_s"}} of the ``correspondence`` record."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from ffdyn.dioph import correspondence_check
    from ffdyn.field import field_spec
    from ffdyn.flow import FlowSpec, PsiPowerLaw, sample_matrix

    out: dict = {"m": 2, "n": 2, "T": CORR_T}
    for p, e in GENERIC_FIELDS:
        fs = field_spec(p, e)
        spec = FlowSpec(fs, 2, 2)
        A = sample_matrix(fs, np.random.default_rng(SEED), 2, 2, 4 * CORR_T + 64)
        psi = PsiPowerLaw(fs.s, c=0.0, tau=1.0)
        runs = []
        for _ in range(CORR_RUNS):
            start = time.perf_counter()
            correspondence_check(A, psi, spec=spec, T=CORR_T)
            runs.append(time.perf_counter() - start)
        out[str(fs.s)] = {"runs_s": runs, "median_s": statistics.median(runs)}
    return out


def mult_times() -> dict:
    """{"precision", s: {"bound_exp", "checked", "runs_s", "median_s",
    "peak_bytes"}} of the ``mult`` record."""
    import tracemalloc

    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from ffdyn.dioph import mult_solutions
    from ffdyn.field import LaurentSeries, field_spec
    from ffdyn.flow import FlowSpec, PsiPowerLaw, unipotent_lattice

    out: dict = {"precision": MULT_PRECISION}
    for p, e in GENERIC_FIELDS:
        fs = field_spec(p, e)
        codes = np.random.default_rng(SEED).integers(0, fs.s, size=MULT_PRECISION)
        basis = unipotent_lattice(LaurentSeries(fs, 0, codes, None), FlowSpec(fs, 1, 1))
        psi = PsiPowerLaw(fs.s, c=0.0, tau=1.0)
        k = MULT_BOUND_EXP[fs.s]
        checked = mult_solutions(basis, psi, fs.s**k).checked
        runs = []
        for _ in range(MULT_RUNS):
            start = time.perf_counter()
            mult_solutions(basis, psi, fs.s**k)
            runs.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            mult_solutions(basis, psi, fs.s**k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[str(fs.s)] = {
            "bound_exp": k,
            "checked": checked,
            "runs_s": runs,
            "median_s": statistics.median(runs),
            "peak_bytes": peak,
        }
    return out


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
            "end_to_end": median_metrics([benchmark_metrics(seconds, 0) for _ in range(RUNS)]),
            "per_layer": median_metrics([benchmark_metrics(seconds, 1) for _ in range(RUNS)]),
        },
        "sample_configs": configs,
        "sha256sums": digests,
        "threaded_configs": threaded_config_runs(digests),
        "ladder": ladder_times(),
        "generic": generic_times(),
        "correspondence": correspondence_times(),
        "mult": mult_times(),
        "tier1": tier1_suite(),
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
