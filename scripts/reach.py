#!/usr/bin/env python3
"""List the functions of ffdyn that the system never runs.

    python3 scripts/reach.py

Run from anywhere inside a checkout; ffdyn is imported from its ``src/``
and the benchmark from its ``benchmark/``.  Under ``sys.setprofile`` the
script runs, in this one process, every ``scripts/configs/*.cfg`` through
the CLI at ``--threads 1`` (outputs go to a temporary directory), then
for each benchmark workload at seed 0 what a ``--trace 1`` run makes: one
pass over its items, their inner calls, the microbenchmarks and every
panel probe, all with tracing off.  It prints every function, method and
nested function defined in ``src/ffdyn`` whose code was never entered,
one line each as ``path:line qualified.name``, and a last line with the
count.  Lambdas and class bodies are not listed.  Code that runs only in
a forked shard child is never seen (the panel's CLI probe shards kg-mc
and strong-bc), but the caller runs shard 0 of every sharded loop itself.
Takes about 7 s on a 2-CPU Xeon.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "ffdyn"
sys.path[:0] = [str(SRC), str(ROOT / "benchmark")]


def defined_functions() -> dict[tuple[str, int], str]:
    """{(file, first line): qualified name} for every def in the package;
    the first line is that of the first decorator, as in ``co_firstlineno``."""
    found = {}

    def visit(node, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = name
                visit(child, name + ".", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), "", str(path))
    return found


def run_system(entered: set) -> None:
    """The sample configs, then each workload's traced run, profiled."""
    from ffdyn import cli
    from tracing import Tracer
    import workloads

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    os.chdir(ROOT)  # the reduce config names its matrix by a relative path
    with tempfile.TemporaryDirectory() as scratch:
        sys.setprofile(profile)
        try:
            for cfg in sorted((ROOT / "scripts" / "configs").glob("*.cfg")):
                argv = [cfg.stem, "--config", str(cfg.relative_to(ROOT))]
                argv += ["--out", str(Path(scratch) / cfg.stem), "--threads", "1"]
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(argv)
                if status != 0:
                    raise SystemExit(f"{cfg.stem} exited with status {status}")
            tracer = Tracer(False)
            for name in ("flow-reduce", "trial-batch", "ext-field"):
                out = Path(scratch) / name
                out.mkdir()
                wl = workloads.build(name, 0, tracer, out)
                workloads.microbench(tracer, wl)
                probes = workloads.panel_probes(wl.fields[0], 0, out)
                items = wl.items + [it for make in dict.fromkeys(probes.values()) for it in make()]
                for item in items:
                    result = item.run(tracer)
                    item.check(result)
                    if item.inner is not None:
                        item.inner(tracer, result)
        finally:
            sys.setprofile(None)


def main() -> int:
    functions = defined_functions()
    entered: set = set()
    run_system(entered)
    never = sorted(key for key in functions if key not in entered)
    for path, line in never:
        print(f"{Path(path).relative_to(ROOT)}:{line} {functions[path, line]}")
    print(f"{len(never)} of {len(functions)} functions never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
