"""Record the reference digest of every item's canonical output.

    python3 benchmark/record_references.py --seeds 0-39 [--workload NAME ...]

Runs one untraced pass per (workload, seed) on the checkout's sources,
checks every item's invariants, and merges the sha256 prefixes of the
canonical renderings into ``benchmark/reference.json``.  ``run.py`` then
counts any item whose digest differs as failed.  Re-record only when a
change is meant to alter outputs or the workload definitions; an item that
fails its invariant check is never recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-39")
    ap.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    args = ap.parse_args(argv)
    run.use_checkout_source()
    import workloads
    from tracing import Tracer

    doc = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    digests = doc.setdefault("digests", {})
    run.OUT.mkdir(exist_ok=True)
    tr = Tracer(False)
    for name in args.workload or run.WORKLOAD_NAMES:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(prefix=f"record-{name}-", dir=run.OUT) as scratch:
                wl = workloads.build(name, seed, tr, Path(scratch))
                _, _, results = run.run_pass(wl, tr, "record")
                recorded = {}
                for item, result, error in results:
                    if error is not None:
                        raise RuntimeError(f"{name} seed {seed} {item.id}: {error}")
                    item.check(result)
                    recorded[item.id] = run.digest(item.canon(result))
            digests.setdefault(name, {})[str(seed)] = recorded
            print(f"{name} seed {seed}: {len(recorded)} items", flush=True)
    doc["commit"] = run.git_commit()
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
