"""Benchmark runner for ffdyn.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ffdyn is imported from ``src/``.  The
workloads are ``flow-reduce``, ``trial-batch`` and ``ext-field`` (see
``workloads.py`` and ``BENCHMARK.json``).

``--trace 0`` measures the end-to-end metrics:

- ``setup_s``: median over fresh processes of the time from process start
  to the first timed item (import, field specs, configs, inputs from the
  seed, one warm-up call);
- ``wall_s``: median time of one closed-loop pass over all items; passes
  repeat until ``--seconds`` have elapsed;
- ``peak_rss_mb``: ``ru_maxrss`` of this process, which runs one workload;
- ``ok_fraction``: items that ran and passed their output check, over items
  attempted (``1 - failed_fraction``).

The speed of the shared host this benchmark was built on drifts by up to
40% over seconds to minutes, and every part of a pass slows with it.  So
both times are scaled to a fixed host speed.  A fixed pure-Python
calibration loop runs before and after each segment of at least
``SEGMENT_S`` seconds of items, and the segment's time is multiplied by
``REFERENCE_CALIBRATION_S`` over the mean of the loop times around it.
Setup probes are scaled the same way by the start time of a bare
interpreter (``REFERENCE_SPAWN_S``).  The measured times are printed and
recorded beside the scaled ones.

``--workload all`` runs each workload in a fresh process and prints a
table of its metrics (plus ``failed_fraction``) by name with units.

``--trace 1`` repeats untraced passes for half of ``--seconds``, then makes
one traced pass, repeats the inner calls, runs the panel probes and reports
the per-layer metrics, including ``trace.overhead_ratio``.

Human-readable lines go to standard output first; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results, spans and the machine record are also written to
``.bench_out/``.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 7
# The calibration loop's and a bare interpreter start's times on the host
# the bounds were set on, near its fastest (Intel Xeon, 2 vCPUs).  Pass
# times are scaled by the loop and setup times by the start to this speed.
REFERENCE_CALIBRATION_S = 0.006
REFERENCE_SPAWN_S = 0.0085
# Items run between two calibration loops for at least this long.
SEGMENT_S = 0.25
WORKLOAD_NAMES = ("flow-reduce", "trial-batch", "ext-field")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def use_checkout_source() -> None:
    """Import ffdyn from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ffdyn" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ffdyn sources under {SRC}; run it from a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


# ---------------------------------------------------------------------------
# machine and provenance record


def calibration_s() -> float:
    """Best of three runs of a fixed pure-Python loop; a slow phase of a
    shared host shows as a larger value."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def spawn_calibration_s() -> float:
    """Best of three starts of a bare interpreter that runs nothing.  Setup
    is mostly process start and imports, which follow this more closely
    than the calibration loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, before: float, after: float, reference: float) -> float:
    """``seconds`` measured between two calibrations, scaled to a host on
    which the calibration takes ``reference``."""
    return seconds * reference / ((before + after) / 2)


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_record() -> dict:
    import numpy as np

    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    load = (_read(Path("/proc/loadavg")) or "").split()[:3]
    return {
        "git_commit": git_commit(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": [float(x) for x in load],
        "calibration_start_s": calibration_s(),
    }


# ---------------------------------------------------------------------------
# passes and output checks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_references(workload: str, seed: int) -> dict | None:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return doc.get("digests", {}).get(workload, {}).get(str(seed))


def run_pass(wl, tr, phase: str):
    """One closed-loop pass: each item starts when the previous one ends,
    except that the calibration loop runs between segments of at least
    ``SEGMENT_S`` seconds of items.  Returns the pass's time (the sum of its
    items' times), that time with each segment scaled by the calibration
    loops around it, and (item, result, error) per item."""
    results = []
    total = scaled_total = segment = 0.0
    before = calibration_s()
    for i, item in enumerate(wl.items):
        with tr.context(phase, item.id):
            start = time.perf_counter()
            try:
                result, error = item.run(tr), None
            except Exception as exc:  # counted as a failed item
                result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        results.append((item, result, error))
        segment += seconds
        if segment >= SEGMENT_S or i == len(wl.items) - 1:
            after = calibration_s()
            total += segment
            scaled_total += scaled(segment, before, after, REFERENCE_CALIBRATION_S)
            before, segment = after, 0.0
    return total, scaled_total, results


class Verifier:
    """Checks every item result: the invariant check, then the digest of its
    canonical rendering against the recorded reference (when one exists for
    this seed) and against the first pass of this run."""

    def __init__(self, references: dict | None):
        self.references = references
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def verify(self, results) -> None:
        for item, result, error in results:
            self.attempted += 1
            if error is None:
                try:
                    item.check(result)
                    d = digest(item.canon(result))
                    if self.references is not None and self.references.get(item.id) != d:
                        error = f"digest {d} != reference {self.references.get(item.id)}"
                    elif self.first.setdefault(item.id, d) != d:
                        error = f"digest {d} differs from the first pass {self.first[item.id]}"
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append((item.id, error))

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Time fresh processes from start to the first timed item, with the
    spawn calibration between them; returns measured and scaled times."""
    times, scaled_times = [], []
    before = spawn_calibration_s()
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        "1",
        "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        after = spawn_calibration_s()
        times.append(elapsed)
        scaled_times.append(scaled(elapsed, before, after, REFERENCE_SPAWN_S))
        before = after
    return times, scaled_times


def untraced_passes(wl, tr, verifier, seconds: float) -> tuple[list[float], list[float]]:
    """Passes until ``seconds`` have elapsed; a pass that would end more
    than half a pass after the deadline is not started.  Returns each
    pass's measured and scaled time."""
    walls, scaled_walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] / 2 < seconds:
        wall, wall_scaled, results = run_pass(wl, tr, "untraced")
        walls.append(wall)
        scaled_walls.append(wall_scaled)
        verifier.verify(results)
    return walls, scaled_walls


def traced_run(wl, tr, verifier, scratch: Path) -> tuple[float, float]:
    """The traced pass, its inner calls, microbenchmarks and panel probes.
    Returns the traced pass's measured and scaled time."""
    import metrics
    import workloads
    from tracing import SpanIndex

    tr.enabled = True
    wall, wall_scaled, results = run_pass(wl, tr, "items")
    verifier.verify(results)
    for item, result, error in results:
        if error is None and item.inner is not None:
            with tr.context("inner", item.id):
                item.inner(tr, result)
    with tr.context("panel", "microbench"):
        workloads.microbench(tr, wl)
    probes = workloads.panel_probes(wl.fields[0], wl.seed, scratch)
    done = set()
    for key in metrics.missing_sources(SpanIndex(tr.spans)):
        make_items = probes[key]
        if make_items in done:
            continue
        done.add(make_items)
        for item in make_items():
            with tr.context("panel", item.id):
                result = item.run(tr)
                if item.inner is not None:
                    item.inner(tr, result)
    return wall, wall_scaled


# ---------------------------------------------------------------------------


def setup_probe(args) -> int:
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"setup-{args.workload}-", dir=OUT) as scratch:
        wl = workloads.build(args.workload, args.seed, Tracer(False), Path(scratch))
        wl.warm_up()
        print("ready", flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in a fresh process and print its metrics by name."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            code = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<12} {metric:<32} {m['value']:.6g} {m['unit']}")
        print(f"{name:<12} {'failed_fraction':<32} {result['failed'] / result['attempted']:.6g} ratio")
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)

    import metrics
    import workloads
    from tracing import Tracer

    record = machine_record()
    OUT.mkdir(exist_ok=True)
    setup_times, setup_scaled = ([], []) if args.trace else measure_setup(args)
    tr = Tracer(bool(args.trace))
    references = load_references(args.workload, args.seed)
    verifier = Verifier(references)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as scratch:
        with tr.context("setup"):
            wl = workloads.build(args.workload, args.seed, tr, Path(scratch))
            wl.warm_up()
        tr.enabled = False
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, scaled_walls = untraced_passes(wl, tr, verifier, budget)
        wall_s = statistics.median(scaled_walls)
        if args.trace:
            traced_wall, traced_scaled = traced_run(wl, tr, verifier, Path(scratch))

    record["loadavg_end"] = [float(x) for x in (_read(Path("/proc/loadavg")) or "").split()[:3]]
    record["calibration_end_s"] = calibration_s()
    failed_fraction = verifier.failed / verifier.attempted
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine " + json.dumps(record, sort_keys=True))
    print(
        "references: "
        + ("recorded for this seed" if references is not None else "none for this seed; invariant checks only")
    )
    for item_id, error in verifier.failures[:20]:
        print(f"FAILED {item_id}: {error}")
    print(f"passes {len(walls)}, measured s: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"passes {len(walls)}, scaled s:   " + " ".join(f"{w:.3f}" for w in scaled_walls))
    if args.trace:
        context = {"wall_s": wall_s, "traced_wall_s": traced_scaled}
        values = metrics.compute(tr.spans, context)
        print(
            f"traced pass {traced_scaled:.3f} s scaled ({traced_wall:.3f} s measured) against "
            f"untraced median {wall_s:.3f} s: trace.overhead_s = {traced_scaled - wall_s:.3f} s (derived)"
        )
        for line in metrics.layer_table(tr.spans, traced_wall) + metrics.runner_lines(tr.spans):
            print(line)
        for name, m in values.items():
            label = "  (derived)" if name in metrics.DERIVED else ""
            print(f"{name} = {m['value']:.6g} {m['unit']}{label}")
        tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "ok_fraction": {"value": 1.0 - failed_fraction, "unit": "ratio"},
        }
        print("setup probes, measured s: " + " ".join(f"{t:.3f}" for t in setup_times))
        print("setup probes, scaled s:   " + " ".join(f"{t:.3f}" for t in setup_scaled))
        for name, m in values.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_fraction = {failed_fraction:.6g} ratio ({verifier.failed} of {verifier.attempted} items)")
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": values,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "result": result,
                "machine": record,
                "passes_s": walls,
                "passes_scaled_s": scaled_walls,
                "setup_probes_s": setup_times,
                "setup_probes_scaled_s": setup_scaled,
                "failures": verifier.failures,
                "digests": verifier.first,
                "work_estimates": {item.id: item.work for item in wl.items if item.work},
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
