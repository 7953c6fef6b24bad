#!/usr/bin/env python3
"""Compare two revisions on the benchmark's end-to-end metrics, in
alternating pairs of runs.

    python3 scripts/ab.py PARENT CHANGE [--pairs N] [--seconds S]
                          [--first-seed K] [--workload W ...] [--out PATH]

Run from anywhere inside a checkout.  Each revision is extracted with
``git archive`` into its own temporary directory, so the working tree
and ``benchmark/`` are not touched.  Pair i runs ``benchmark/run.py
--workload W --seed K + i --seconds S --trace 0`` in both trees, the
parent first when the seed is odd and the change first when it is even,
so that a drift of the host's speed favours neither side.

For each workload and metric the script prints the medians of both sides,
their ratio, the parent's interquartile range and the number of pairs in
which the change was better, in the direction ``BENCHMARK.json`` gives.
A run whose output check fails (``correct`` false) is listed, and the
script then exits 1.  ``--out`` also writes every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flow-reduce", "trial-batch", "ext-field")


def extract(rev: str, into: Path) -> None:
    """The tree of ``rev`` under ``into``, by ``git archive``."""
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one ``benchmark/run.py --trace 0`` run, as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        failed = f"{tree.name} {workload} seed {seed} failed"
        raise SystemExit(f"{failed}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the revision to compare against")
    ap.add_argument("change", help="the revision to measure")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--out", type=Path, help="write every run's metrics here as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    workloads = args.workload or list(WORKLOADS)
    better = {
        m["name"]: m["better"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    runs: dict = {w: {"parent": [], "change": []} for w in workloads}
    wrong = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in trees.items():
            extract(getattr(args, side), tree)
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    out = run(trees[side], workload, seed, args.seconds)
                    if not out["correct"]:
                        wrong.append(f"{side} {workload} seed {seed}")
                    metrics = {k: v["value"] for k, v in out["metrics"].items()}
                    runs[workload][side].append({"seed": seed, **metrics})
                print(f"pair seed {seed} {workload} done", file=sys.stderr, flush=True)
    print(f"{args.parent} -> {args.change}: {args.pairs} pairs, {args.seconds:g} s each")
    head = ("workload", "metric", "parent", "change", "ratio", "IQR")
    print("{:12} {:12} {:>10} {:>10} {:>7} {:>9} wins".format(*head))
    for workload in workloads:
        parent, change = runs[workload]["parent"], runs[workload]["change"]
        for metric, direction in better.items():
            a = [r[metric] for r in parent]
            b = [r[metric] for r in change]
            pa, pb = statistics.median(a), statistics.median(b)
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
            ratio = pb / pa if pa else float("nan")
            print(
                f"{workload:12} {metric:12} {pa:10.4g} {pb:10.4g} {ratio:7.3f} "
                f"{iqr(a):9.3g} {wins}/{len(a)}"
            )
    if args.out:
        record = {"parent": args.parent, "change": args.change, "seconds": args.seconds}
        args.out.write_text(json.dumps({**record, "runs": runs}, indent=1) + "\n")
    for line in wrong:
        print(f"output check failed: {line}")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
