#!/usr/bin/env python3
"""Fail on functions of ffdyn that the system never runs and no reason keeps.

    python3 scripts/reach.py

Run from anywhere inside a checkout; ffdyn is imported from its ``src/``
and the benchmark from its ``benchmark/``.  Under ``sys.setprofile`` the
script runs, in this one process, every ``scripts/configs/*.cfg`` through
the CLI at ``--threads 1`` (outputs go to a temporary directory), then
for each benchmark workload at seed 0 what a ``--trace 1`` run makes: one
pass over its items, their inner calls, the microbenchmarks and every
panel probe, all with tracing off.  Every function, method and nested
function defined in ``src/ffdyn`` whose code was never entered is printed,
one line each as ``path:line module.qualified.name  reason``, then a line
with the count.  Lambdas and class bodies are not listed.  Code that runs
only in a forked shard child is never seen (the panel's CLI probe shards
kg-mc and strong-bc), but the caller runs shard 0 of every sharded loop
itself; code that runs while ffdyn is imported is never seen either.

``KEEP`` names the never-entered functions that stay, each with one of
the reasons in ``REASONS``.  The script exits 1 when a never-entered
function is not in ``KEEP`` (its reason reads ``NOT KEPT``: delete it, move
it to ``tests/oracles.py`` or give it a reason), and when a ``KEEP`` entry
is no longer defined or is now entered, so the list cannot go stale;
otherwise it exits 0.  Takes about 7 s on a 2-CPU Xeon.
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

ERROR_PATH = "error path"
SHARD_CHILD = "runs in a forked shard child"
DUNDER = "dunder, or only a dunder calls it"
README_API = "README API: parse_series"
CRITERION = "checked by an acceptance criterion"
LADDER_WITNESS = "m = n = 1 witness path"
ORACLE = "read by an oracle reference in tests/oracles.py"
UNSET_OPTION = "an option or config value no sample config sets"
IMPORT_TIME = "runs at import"
BACKLOG = "only tests call it: to delete, move or give a reason"
REASONS = (
    ERROR_PATH,
    SHARD_CHILD,
    DUNDER,
    README_API,
    CRITERION,
    LADDER_WITNESS,
    ORACLE,
    UNSET_OPTION,
    IMPORT_TIME,
    BACKLOG,
)

KEEP = {
    "cli._FloatCheck.__init__": IMPORT_TIME,
    "cli._choice_check": IMPORT_TIME,
    "cli._json_text": UNSET_OPTION,  # format = json
    "cli._Parser.error": ERROR_PATH,
    "cli._seed_argument": UNSET_OPTION,  # --seed
    "cli._reproduction": ERROR_PATH,
    "dioph.MultSolutionSet.__iter__": DUNDER,
    "dioph.MultSolutionSet.summary": BACKLOG,
    "dioph.CorrespondenceReport.summary": BACKLOG,
    "dioph.CorrespondenceReport.table": BACKLOG,
    "dioph._cf_convergents": LADDER_WITNESS,
    "errors.CertificationError.__init__": ERROR_PATH,
    "errors.ConfigError.__init__": ERROR_PATH,
    "errors.ConfigError.__reduce__": ERROR_PATH,
    "field.FieldSpec.check": BACKLOG,
    "field.FieldSpec.add": README_API,
    "field.FieldSpec.sub": BACKLOG,
    "field.FieldSpec.div": BACKLOG,
    "field.FieldSpec.pow_": BACKLOG,
    "field.FieldSpec.__repr__": DUNDER,
    "field.FieldSpec.__hash__": DUNDER,
    "field._stack": LADDER_WITNESS,  # and the p >= 5 engine's witnesses
    "field.Poly.zero": LADDER_WITNESS,
    "field.Poly.__add__": LADDER_WITNESS,
    "field.Poly.__neg__": ORACLE,  # residual_rows
    "field.Poly.__hash__": DUNDER,
    "field.Poly.__str__": DUNDER,
    "field.Poly.__repr__": DUNDER,
    "field.LaurentSeries.from_poly": ORACLE,
    "field.LaurentSeries.abs_value": BACKLOG,
    "field.LaurentSeries.coeff_at": BACKLOG,
    "field.LaurentSeries.scale": ORACLE,  # mult_solutions_reference
    "field.LaurentSeries.truncate": BACKLOG,
    "field.LaurentSeries.polynomial_part": ORACLE,
    "field.LaurentSeries.__eq__": DUNDER,
    "field.LaurentSeries.__hash__": DUNDER,
    "field.LaurentSeries.__str__": DUNDER,
    "field.LaurentSeries.__repr__": DUNDER,
    "field._format_terms": DUNDER,
    "field._split_terms": README_API,
    "field._parse_terms": README_API,
    "field.parse_series": README_API,
    "flow.PsiFunction.llog": ERROR_PATH,  # abstract
    "flow.PsiFunction.value": CRITERION,
    "flow.PsiLogPower.__init__": UNSET_OPTION,  # psi = logpower
    "flow.PsiLogPower.llog": UNSET_OPTION,
    "flow.PsiTable.__init__": BACKLOG,
    "flow.PsiTable.llog": BACKLOG,
    "flow.RateFunction.lam": CRITERION,
    "flow.RateFunction.big_l": CRITERION,
    "flow._PsiFromRate.__init__": CRITERION,
    "flow._PsiFromRate.llog": CRITERION,
    "flow.rate_to_psi": CRITERION,
    "flow._BitQuotients.__len__": LADDER_WITNESS,
    "flow._BitQuotients.__getitem__": LADDER_WITNESS,
    "flow.TailTable.kappa_fit": CRITERION,
    "flow.TailTable.summary": BACKLOG,
    "lattice.LatticeBasis.identity": BACKLOG,
    "lattice.LatticeBasis.scale_all": BACKLOG,
    "lattice.LatticeBasis.__repr__": DUNDER,
    "lattice.DeltaValue.__float__": DUNDER,
    "lattice.ReducedBasis.basis_series": BACKLOG,
    "lattice.ReducedBasis.transform_columns": BACKLOG,
    "shards._serve_shard": SHARD_CHILD,
    "tree.QuotientRay.mass": BACKLOG,
    "tree.QuotientRay.tail_mass": BACKLOG,
    "tree._levels": BACKLOG,
    "tree._trace_levels": BACKLOG,
    "tree.excursion_tail_rate": BACKLOG,
    "weyl.cusp_tail": CRITERION,
}


def defined_functions() -> dict[tuple[str, int], str]:
    """{(file, first line): module.qualified.name} for every def in the
    package; the first line is that of the first decorator, as in
    ``co_firstlineno``."""
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
        visit(ast.parse(path.read_text()), path.stem + ".", str(path))
    return found


def run_system(entered: set) -> None:
    """The sample configs, then each workload's traced run, profiled."""
    sys.path[:0] = [str(SRC), str(ROOT / "benchmark")]
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
        name = functions[path, line]
        print(f"{Path(path).relative_to(ROOT)}:{line} {name}  {KEEP.get(name, 'NOT KEPT')}")
    print(f"{len(never)} of {len(functions)} functions never entered")
    unkept = [functions[key] for key in never if functions[key] not in KEEP]
    missing = sorted(set(KEEP) - set(functions.values()))
    now_entered = sorted(set(KEEP) - {functions[key] for key in never} - set(missing))
    for label, names in (
        ("never entered and not in KEEP", unkept),
        ("in KEEP but not defined", missing),
        ("in KEEP but entered", now_entered),
    ):
        if names:
            print(f"{label}: {', '.join(names)}")
    return 1 if unkept or missing or now_entered else 0


if __name__ == "__main__":
    sys.exit(main())
