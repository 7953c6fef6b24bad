"""Self-test of the benchmark's own checks.

    python3 benchmark/selftest.py

1. ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports, with the
   same units and directions.
2. A pass over ``flow-reduce`` at a recorded seed fails no item against the
   recorded digests, and fails one item once that item's reference digest
   is corrupted, so ``failed_fraction > 0``.
3. The work guard refuses ``xi_exact`` at s = 9, t = 5 (killed for running
   out of memory when it was run) and the kg slow path at s = 9, H = 5
   before running either.

Prints one line per check and exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def check_manifest() -> None:
    import metrics

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert e2e == list(metrics.END_TO_END), "end_to_end differs from metrics.END_TO_END"
    assert layer == [m[:3] for m in metrics.PER_LAYER], "per_layer differs from metrics.PER_LAYER"
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    print(f"ok: BENCHMARK.json lists the {len(e2e)} + {len(layer)} metrics run.py reports")


def check_corrupted_reference() -> None:
    import workloads
    from tracing import Tracer

    doc = json.loads(run.REFERENCE.read_text())
    name = "flow-reduce"
    seed = min(int(s) for s in doc["digests"][name])
    refs = dict(doc["digests"][name][str(seed)])
    run.OUT.mkdir(exist_ok=True)
    tr = Tracer(False)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as scratch:
        wl = workloads.build(name, seed, tr, Path(scratch))
        _, _, results = run.run_pass(wl, tr, "selftest")
        clean = run.Verifier(refs)
        clean.verify(results)
        assert clean.failed == 0, f"recorded digests fail: {clean.failures}"
        victim = results[0][0].id
        refs[victim] = "0" * 16
        corrupt = run.Verifier(refs)
        corrupt.verify(results)
    fraction = corrupt.failed / corrupt.attempted
    assert fraction > 0 and [f[0] for f in corrupt.failures] == [victim], corrupt.failures
    print(f"ok: {name} seed {seed}: failed_fraction 0 with the recorded digests, "
          f"{fraction:.3f} with {victim}'s digest corrupted")


def check_work_guard() -> None:
    import workloads
    from ffdyn.field import FieldSpec
    from ffdyn.flow import PsiPowerLaw

    fs = FieldSpec(3, 2)
    for build in (
        lambda: workloads.xi_exact_item("guard-xi", fs, 5),
        lambda: workloads.kg_item("guard-kg", fs, PsiPowerLaw(9, c=0.0, tau=1.0), 1, 5, 0),
    ):
        try:
            build()
        except workloads.WorkCapError as exc:
            print(f"ok: refused before running: {exc}")
        else:
            raise AssertionError("the work guard let an oversized item through")


def main() -> int:
    run.use_checkout_source()
    check_manifest()
    check_work_guard()
    check_corrupted_reference()
    return 0


if __name__ == "__main__":
    sys.exit(main())
