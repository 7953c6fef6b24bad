"""The three benchmark workloads: inputs from the seed, items, output checks.

Each workload is a list of items.  An item is one closed-loop unit of work:
``run`` makes the timed calls into ffdyn; ``canon`` renders the result in
a canonical text whose sha256 is compared with the reference recorded for
(workload, seed, item); ``check`` asserts properties that hold for every
seed; ``inner`` repeats, in traced runs only, the calls the item makes
inside ffdyn that the benchmark cannot see from outside.

Inputs come only from ``--seed``.  Before any item starts, its work is
estimated and sizes over a fixed cap are refused (``WorkCapError``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ffdyn import cli
from ffdyn.dioph import correspondence_check, kg_monte_carlo, mult_solutions
from ffdyn.field import FieldSpec, LaurentSeries
from ffdyn.flow import (
    FlowSpec,
    PsiPowerLaw,
    delta_trajectory,
    flow_apply,
    sample_matrix,
    strong_bc_experiment,
    unipotent_lattice,
)
from ffdyn.lattice import (
    LatticeBasis,
    delta,
    enumerate_short_vectors,
    successive_minima,
    weak_popov,
)
from ffdyn.spherical import sample_k, torus_element, xi_exact, xi_monte_carlo
from ffdyn.streams import stream
from ffdyn.tree import loglaw_experiment, power_thresholds, quotient_ray
from ffdyn.weyl import RootSystemSpec, cusp_rows

from tracing import Tracer

# Stream tag ids for the benchmark's own inputs; ffdyn's named tags stop at 12.
_INPUT_TAG = {"flow-reduce": 64, "trial-batch": 65, "ext-field": 66, "panel": 67}

# Work caps, checked before any item starts.  Each sits above every size the
# workloads use and below the sizes known to exhaust memory or time here
# (xi_exact at s = 9, t = 5 was killed for running out of memory).
WORK_CAPS = {
    "xi_exact_classes": 10_000_000,  # about s^(2t+1)
    "kg_candidates": 100_000,  # s^(n(H+1)) per trial
    # s^(r(qdeg+1)) coefficient vectors.  Boxes over 4096 are not walked but
    # solved as an F_s kernel, so the cap is loose: one-shot bases at s = 3,
    # r = 3 reach 3^27 over 300 seeds, and one more degree of q would give 3^30.
    "enumeration_box": 10**14,
}

# flow-reduce sizes.  T = 32 rather than criterion 3's 64 keeps one pass
# near five seconds, so a run holds several passes to take a median of.
CORR_T = 32
CORR_SHAPES = ((1, 2), (2, 1), (2, 2))
GENERIC_T = {2: 128, 3: 96}

SERIES_TERMS = 512
KERNEL_CODES = 4096


class WorkCapError(Exception):
    """An item's estimated work exceeds its cap; it is refused unrun."""


def guard(kind: str, estimate: int, what: str) -> int:
    if estimate > WORK_CAPS[kind]:
        raise WorkCapError(
            f"{what}: estimated {kind} {estimate} exceeds the cap {WORK_CAPS[kind]}"
        )
    return estimate


@dataclass
class Item:
    id: str
    run: Callable[[Tracer], Any]
    canon: Callable[[Any], str]
    check: Callable[[Any], None] = lambda result: None
    inner: Callable[[Tracer, Any], None] | None = None
    work: dict = dc_field(default_factory=dict)


@dataclass
class Workload:
    seed: int
    fields: list[FieldSpec]
    items: list[Item]
    operands: dict[int, LaurentSeries]  # per field order s: a 512-term series
    warm_up: Callable[[], Any]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


# ---------------------------------------------------------------------------
# canonical renderings


def series_key(e: LaurentSeries) -> list:
    return [int(e.v), [int(c) for c in e.coeffs], e.prec]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def canon_trajectory(traj) -> str:
    return dumps({"deltas": traj.deltas.tolist(), "certified": traj.certified.tolist()})


def canon_correspondence(rep) -> str:
    # witness vectors are left out: any shortest reduced vector is a valid
    # witness, so a new reduction engine may pick another one
    rows = [
        [r.time if isinstance(r.time, int) else list(r.time), r.delta, r.threshold, r.flagged, r.ok]
        for r in rep.rows
    ]
    return dumps({"kind": rep.kind, "rows": rows})


def canon_vectors(vecs) -> list:
    return sorted([series_key(e) for e in vec] for vec in vecs)


def canon_mult(res) -> str:
    return dumps(
        {
            "solutions": canon_vectors(sol.vector for sol in res.solutions),
            "degenerate": canon_vectors(res.degenerate),
            "checked": res.checked,
            "bound_exp": res.bound_exp,
        }
    )


def check_correspondence(rep) -> None:
    expect(not rep.counterexamples, f"{len(rep.counterexamples)} counterexamples")
    expect(rep.passed, "correspondence check did not pass")


# ---------------------------------------------------------------------------
# traced helpers shared by several workloads


def seeded_stream(tr: Tracer, seed: int, tag: int, index: int):
    with tr.span("streams.stream"):
        return stream(seed, tag, index)


def traced_sample_matrix(tr: Tracer, fs, rng, m, n, precision):
    with tr.span("flow.sample_matrix", s=fs.s, m=m, n=n, precision=precision):
        return sample_matrix(fs, rng, m, n, precision)


def corr_inner(tr: Tracer, A, spec: FlowSpec, T: int, rep) -> None:
    """The trajectory and the from-scratch reduction at every flagged t that
    ``correspondence_check`` runs inside, as separate calls."""
    within = "dioph.correspondence_check"
    cf = spec.m == 1 and spec.n == 1
    with tr.span("flow.delta_trajectory", path="cf" if cf else "generic", T=T, within=within):
        delta_trajectory(A, spec, T, strict=True)
    if cf:
        return
    with tr.span("flow.unipotent_lattice", within=within):
        basis = unipotent_lattice(A, spec)
    for row in rep.rows:
        if row.flagged:
            with tr.span("flow.flow_apply", within=within):
                flowed = flow_apply(basis, row.time, spec)
            with tr.span("lattice.weak_popov", within=within):
                weak_popov(flowed)


def corr_item(item_id: str, A, spec: FlowSpec, psi, T: int) -> Item:
    def run(tr):
        with tr.span("dioph.correspondence_check", T=T) as a:
            rep = correspondence_check(A, psi, spec=spec, T=T)
        a["flagged"] = rep.flagged_count
        return rep

    return Item(
        item_id,
        run,
        canon_correspondence,
        check_correspondence,
        lambda tr, rep: corr_inner(tr, A, spec, T, rep),
    )


def trajectory_item(item_id: str, A, spec: FlowSpec, T: int) -> Item:
    path = "cf" if spec.m == 1 and spec.n == 1 else "generic"

    def run(tr):
        with tr.span("flow.delta_trajectory", path=path, T=T):
            return delta_trajectory(A, spec, T)

    def check(traj):
        expect(bool(traj.certified.all()), "uncertified trajectory")
        expect(int(traj.deltas.min()) >= 0, "negative depth")

    return Item(item_id, run, canon_trajectory, check)


def enumeration_box(basis: LatticeBasis, norm_bound: float) -> int:
    """s^(r(qdeg+1)): the coefficient box ``enumerate_short_vectors`` must
    cover, with qdeg from the Cramer bound on X^M B.  Every basis the
    benchmark enumerates has determinant 1, so deg det(X^M B) = r M."""
    fs, r = basis.field, basis.rank
    M, P = basis.packed()
    delta_cap = math.floor(math.log(norm_bound) / math.log(fs.s) + 1e-9) + M
    col_degs = sorted(
        (int(np.nonzero(P[:, j, :])[1].max()) for j in range(r)), reverse=True
    )
    qdeg = sum(col_degs[: r - 1]) + delta_cap - r * M
    return fs.s ** (r * (max(qdeg, 0) + 1))


def exact_sample(fs: FieldSpec, rng, m: int, n: int, precision: int):
    """Exact rational matrix entries: uniform coefficients on the first
    ``precision`` places and a zero tail, as the mult-mc experiment draws."""
    return [
        [LaurentSeries(fs, 0, rng.integers(0, fs.s, size=precision), None) for _ in range(n)]
        for _ in range(m)
    ]


def mult_item(item_id: str, basis: LatticeBasis, psi, bound_exp: int) -> Item:
    bound = basis.field.s**bound_exp
    box = guard("enumeration_box", enumeration_box(basis, bound), item_id)

    def run(tr):
        with tr.span("dioph.mult_solutions") as a:
            res = mult_solutions(basis, psi, bound)
        a["solutions"], a["checked"] = len(res.solutions), res.checked
        return res

    def check(res):
        expect(len(res.solutions) + len(res.degenerate) <= res.checked, "solution count")
        for sol in res.solutions:
            expect(sol.prod_exp <= sol.norm_exp, "product exceeds the norm")

    def inner(tr, res):
        with tr.span("lattice.enumerate_short_vectors", within="dioph.mult_solutions") as a:
            vecs = enumerate_short_vectors(basis, float(bound))
        a["vectors"] = len(vecs)

    return Item(item_id, run, canon_mult, check, inner, {"enumeration_box": box})


def kg_item(item_id: str, fs, psi, trials: int, horizon: int, seed: int) -> Item:
    cand = guard("kg_candidates", fs.s ** (horizon + 1), item_id)

    def run(tr):
        with tr.span("dioph.kg_monte_carlo", trials=trials, threads=1):
            return kg_monte_carlo(fs, psi, 1, 1, trials, horizon, seed)

    def canon(rep):
        return dumps({"summary": rep.summary(), "counts": rep.counts.tolist()})

    def check(rep):
        expect(0.0 <= rep.persistent_fraction <= 1.0, "persistent fraction out of [0, 1]")

    return Item(item_id, run, canon, check, work={"kg_candidates": cand})


def strong_bc_item(item_id: str, fs, T: int, trials: int, seed: int) -> Item:
    spec = FlowSpec(fs, 1, 1)
    thresholds = power_thresholds(0.5, fs.s, T)

    def run(tr):
        with tr.span("flow.strong_bc_experiment", trials=trials, threads=1):
            return strong_bc_experiment(spec, thresholds, trials, seed)

    def canon(res):
        return dumps(
            {
                "counts": res.counts.tolist(),
                "expected": [repr(float(x)) for x in res.expected],
                "divergent": res.divergent,
            }
        )

    def check(res):
        expect(bool((np.diff(res.counts, axis=1) >= 0).all()), "hit counts decrease")

    return Item(item_id, run, canon, check)


def xi_exact_item(item_id: str, fs, t: int) -> Item:
    classes = guard("xi_exact_classes", fs.s ** (2 * t + 1), item_id)

    def run(tr):
        with tr.span("spherical.xi_exact", t=t) as a:
            res = xi_exact(torus_element(fs, t))
        a["classes"] = res.classes
        return res

    def canon(res):
        return dumps([str(res.value), res.stabilized, res.depth, res.classes])

    def check(res):
        expect(res.stabilized, "class sum did not stabilize")
        expect(0 < res.value <= 1, "Xi outside (0, 1]")

    return Item(item_id, run, canon, check, work={"xi_exact_classes": classes})


def xi_mc_item(item_id: str, fs, t: int, samples: int, seed: int) -> Item:
    def run(tr):
        with tr.span("spherical.xi_monte_carlo", samples=samples):
            return xi_monte_carlo(torus_element(fs, t), samples, seed, trial=t)

    def canon(res):
        return dumps([repr(res.value), repr(res.stderr), res.samples, res.precision])

    def check(res):
        expect(0 < res.value <= 1, "Monte Carlo Xi outside (0, 1]")

    return Item(item_id, run, canon, check)


def random_unimodular(fs: FieldSpec, rng, r: int, factor_deg: int, depth: int) -> LatticeBasis:
    """B = L D U with unit-triangular polynomial L, U and D = diag(X^d_i),
    sum d_i = 0: det B = 1 and the depth is nontrivial."""
    one, zero = LaurentSeries.one(fs), LaurentSeries.zero(fs)

    def poly():
        deg = int(rng.integers(0, factor_deg + 1))
        coeffs = rng.integers(0, fs.s, size=deg + 1)
        pairs = {-d: int(c) for d, c in enumerate(coeffs) if c}
        return LaurentSeries.from_pairs(fs, pairs) if pairs else zero

    while True:
        d = rng.integers(-depth, depth + 1, size=r)
        if int(d.sum()) == 0:
            break
    mid = [LaurentSeries.x_power(fs, int(k)) for k in d]
    low = [[one if i == j else (poly() if i > j else zero) for j in range(r)] for i in range(r)]
    up = [[one if i == j else (poly() if i < j else zero) for j in range(r)] for i in range(r)]
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = zero
            for k in range(r):
                acc = acc + low[i][k] * mid[k] * up[k][j]
            row.append(acc)
        rows.append(row)
    return LatticeBasis(fs, rows)


def oneshot_item(item_id: str, basis: LatticeBasis) -> Item:
    # the first minimum of a determinant-1 lattice is at most 1, which
    # bounds the enumeration box before the item runs
    box = guard("enumeration_box", enumeration_box(basis, 1.0), item_id)
    s = basis.field.s

    def run(tr):
        with tr.span("lattice.delta"):
            d = delta(basis)
        with tr.span("lattice.successive_minima"):
            prof = successive_minima(basis)
        e1 = prof.exponents[0]
        with tr.span("lattice.enumerate_short_vectors") as a:
            vecs = enumerate_short_vectors(basis, float(s) ** e1 * (1.0 + 1e-9))
        a["vectors"] = len(vecs)
        return d, prof, vecs

    def canon(res):
        d, prof, vecs = res
        return dumps([d.value, d.certified, list(prof.exponents), prof.certified, canon_vectors(vecs)])

    def check(res):
        d, prof, vecs = res
        expect(d.certified and prof.certified, "uncertified one-shot reduction")
        expect(sum(prof.exponents) == 0, "minima of a determinant-1 lattice do not sum to 0")
        expect(d.value == -prof.exponents[0], "depth disagrees with the first minimum")
        expect(bool(vecs), "no vector at the first minimum")
        expect(
            min(-min(c.valuation() for c in w) for w in vecs) == prof.exponents[0],
            "enumeration disagrees with the first minimum",
        )

    return Item(item_id, run, canon, check, work={"enumeration_box": box})


def series_operand(fs: FieldSpec, sources) -> LaurentSeries:
    """A 512-term series built from the coefficients of input series, with
    the leading coefficient set to 1 so that it inverts."""
    parts = [np.asarray(e.coeffs, dtype=np.int64) for e in sources]
    coeffs = np.concatenate(parts)
    reps = -(-SERIES_TERMS // max(coeffs.size, 1))
    coeffs = np.tile(coeffs, reps)[:SERIES_TERMS].copy()
    coeffs[0] = 1
    return LaurentSeries(fs, 0, coeffs, SERIES_TERMS)


# ---------------------------------------------------------------------------
# flow-reduce


def build_flow_reduce(seed: int, tr: Tracer) -> Workload:
    tag = _INPUT_TAG["flow-reduce"]
    fields = [FieldSpec(2), FieldSpec(3)]
    items = []
    sources: dict[int, list] = {}
    idx = 0
    for fs in fields:
        psi = PsiPowerLaw(fs.s, c=0.0, tau=1.0)
        for m, n in CORR_SHAPES:
            spec = FlowSpec(fs, m, n)
            rng = seeded_stream(tr, seed, tag, idx)
            idx += 1
            A = traced_sample_matrix(tr, fs, rng, m, n, (m + n) * CORR_T + 64)
            sources.setdefault(fs.s, []).extend(e for row in A for e in row)
            items.append(corr_item(f"corr-s{fs.s}-{m}x{n}", A, spec, psi, CORR_T))
        T = GENERIC_T[fs.s]
        spec = FlowSpec(fs, 2, 2)
        rng = seeded_stream(tr, seed, tag, idx)
        idx += 1
        A = traced_sample_matrix(tr, fs, rng, 2, 2, 4 * T + 96)
        items.append(trajectory_item(f"traj-s{fs.s}-2x2-T{T}", A, spec, T))
    small = FlowSpec(fields[0], 1, 2)
    warm = traced_sample_matrix(tr, fields[0], seeded_stream(tr, seed, tag, idx), 1, 2, 64)
    return Workload(
        seed,
        fields,
        items,
        {fs.s: series_operand(fs, sources[fs.s]) for fs in fields},
        warm_up=lambda: delta_trajectory(warm, small, 4),
    )


# ---------------------------------------------------------------------------
# trial-batch

# The keys of scripts/configs/*.cfg, with trial counts and horizons cut so
# that one pass over every tag takes a few seconds.  tree-loglaw and
# xi-decay stay the two largest runners, as in the sample configs.
CLI_CONFIGS = {
    "delta-flow": "p = 2\nm = 1\nn = 1\nT = 64\ntrials = 8\n",
    "kg-mc": (
        "p = 2\nm = 1\nn = 1\npsi = power\npsi_c = 0.0\npsi_tau = 1.0\n"
        "trials = 100\nq_max = 12\nthreshold_min = 0.95\n"
    ),
    "mult-mc": "p = 2\nm = 1\nn = 1\ntrials = 2\nq_max = 4\n",
    "strong-bc": (
        "p = 2\nm = 1\nn = 1\nT = 10000\ntrials = 20\nrate = log\nrate_c = 0.5\n"
        "threshold_min = 0.7\nthreshold_max = 1.3\n"
    ),
    "cusp-volume": "rank = 2\nq = 3\nt_lo = 2\nt_hi = 40\nthreshold_max = 10.0\n",
    "tree-loglaw": "q = 2\nT = 100000\ntrials = 30\nthreshold_min = 0.85\nthreshold_max = 1.15\n",
    "xi-decay": "p = 2\nt_max = 6\nsamples = 800\n",
    "reduce": "",
}
THREADED_TAGS = ("kg-mc", "strong-bc")
ONESHOT_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
ONESHOT_PER_SHAPE = 8


def pool_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def cli_item(tag: str, text: str, out: Path, threads: int) -> Item:
    overrides = {"out": str(out / tag)}
    if tag in THREADED_TAGS:
        overrides["threads"] = threads
    cfg0 = cli.parse_config(text, tag=tag, overrides=overrides)
    work = {}
    if tag == "xi-decay":
        work["xi_exact_classes"] = guard(
            "xi_exact_classes", cfg0.s ** (2 * cfg0.t_max + 1), f"cli-{tag}"
        )
    if tag == "kg-mc":
        work["kg_candidates"] = guard(
            "kg_candidates", cfg0.s ** (cfg0.n * (cfg0.q_max + 1)), f"cli-{tag}"
        )

    def run(tr):
        with tr.span("cli.parse_config", tag=tag):
            cfg = cli.parse_config(text, tag=tag, overrides=overrides)
        with tr.span("cli.run_experiment", tag=tag) as a:
            report = cli.run_experiment(cfg)
        if tr.enabled:
            a["runner_s"] = report.wall_clock
            a["artifact_bytes"] = (
                os.path.getsize(report.artifact) + os.path.getsize(report.report_path)
            )
        return report

    def canon(report):
        artifact = Path(report.artifact).read_text()
        doc = json.loads(Path(report.report_path).read_text())
        doc.pop("wall_clock_seconds")
        # artifacts do not depend on the thread count, which follows nproc
        doc["config"].pop("threads")
        text = artifact + dumps(doc)
        return text.replace(str(out), "<out>")

    def check(report):
        artifact = Path(report.artifact).read_text()
        expect(artifact.startswith(f"# schema ffdyn.{tag}.v1\n"), "artifact schema stamp")
        doc = json.loads(Path(report.report_path).read_text())
        expect(doc["tag"] == tag and doc["headline"] in doc["summary"], "report fields")

    return Item(
        f"cli-{tag}", run, canon, check, lambda tr, rep: cli_inner(tr, cfg0, threads), work
    )


def cli_inner(tr: Tracer, cfg, threads: int) -> None:
    """The library calls behind one CLI tag; kg-mc and strong-bc also run at
    threads = 1, the single-thread baseline."""
    tag = cfg.tag
    within = f"cli.{tag}"
    fs = FieldSpec(cfg.p, cfg.e)
    if tag == "delta-flow":
        spec = FlowSpec(fs, cfg.m, cfg.n)
        precision = (cfg.m + cfg.n) * cfg.T + 96
        for trial in range(cfg.trials):
            rng = seeded_stream(tr, cfg.seed, "delta-flow", trial)
            A = traced_sample_matrix(tr, fs, rng, cfg.m, cfg.n, precision)
            with tr.span("flow.delta_trajectory", path="cf", T=cfg.T, within=within):
                delta_trajectory(A, spec, cfg.T)
    elif tag == "kg-mc":
        psi = PsiPowerLaw(fs.s, c=cfg.psi_c, tau=cfg.psi_tau)
        for n_threads in (threads, 1):
            with tr.span(
                "dioph.kg_monte_carlo",
                trials=cfg.trials,
                threads=n_threads,
                baseline=n_threads == 1,
                within=within,
            ):
                kg_monte_carlo(
                    fs, psi, cfg.m, cfg.n, cfg.trials, cfg.q_max, cfg.seed, threads=n_threads
                )
    elif tag == "mult-mc":
        spec = FlowSpec(fs, cfg.m, cfg.n)
        psi = PsiPowerLaw(fs.s, c=cfg.psi_c, tau=cfg.psi_tau)
        precision = 2 * cfg.q_max + 64
        for trial in range(cfg.trials):
            rng = seeded_stream(tr, cfg.seed, "mult-mc", trial)
            basis = unipotent_lattice(exact_sample(fs, rng, cfg.m, cfg.n, precision), spec)
            with tr.span("dioph.mult_solutions", within=within) as a:
                res = mult_solutions(basis, psi, fs.s**cfg.q_max, cap=cfg.cap)
            a["solutions"], a["checked"] = len(res.solutions), res.checked
    elif tag == "strong-bc":
        spec = FlowSpec(fs, cfg.m, cfg.n)
        thresholds = power_thresholds(cfg.rate_c, fs.s, cfg.T)
        for n_threads in (threads, 1):
            with tr.span(
                "flow.strong_bc_experiment",
                trials=cfg.trials,
                threads=n_threads,
                baseline=n_threads == 1,
                within=within,
            ):
                strong_bc_experiment(spec, thresholds, cfg.trials, cfg.seed, threads=n_threads)
    elif tag == "cusp-volume":
        with tr.span("weyl.cusp_rows", within=within):
            cusp_rows(RootSystemSpec(cfg.rank), cfg.q, cfg.t_lo, cfg.t_hi)
    elif tag == "tree-loglaw":
        with tr.span("tree.quotient_ray", within=within):
            ray = quotient_ray(cfg.q)
        with tr.span("tree.loglaw_experiment", trials=cfg.trials, T=cfg.T, within=within):
            loglaw_experiment(ray, cfg.trials, cfg.T, cfg.seed)
    elif tag == "xi-decay":
        for t in range(cfg.t_max + 1):
            with tr.span("spherical.xi_exact", t=t, within=within) as a:
                res = xi_exact(torus_element(fs, t), depth_cap=64)
            a["classes"] = res.classes
            with tr.span("spherical.xi_monte_carlo", samples=cfg.samples, within=within):
                xi_monte_carlo(
                    torus_element(fs, t), cfg.samples, cfg.seed, tag="xi-decay", trial=t
                )
    elif tag == "reduce":
        basis = basis_from_doc(json.loads(Path(cfg.matrix).read_text()))
        with tr.span("lattice.weak_popov", within=within):
            red = weak_popov(basis)
        with tr.span("lattice.delta", within=within):
            delta(red)
        with tr.span("lattice.successive_minima", within=within):
            successive_minima(red)


def reduce_matrix_doc(rng, r: int = 3, degree: int = 3) -> dict:
    """A seed-drawn polynomial matrix over F_2 for the reduce tag; the
    diagonal has constant term 1 so the matrix is nonsingular mod X."""
    entries = rng.integers(0, 2, size=(r, r, degree + 1))
    for i in range(r):
        entries[i, i, 0] = 1
        for j in range(i):
            entries[i, j, 0] = 0
    return {"p": 2, "e": 1, "entries": entries.tolist()}


def basis_from_doc(doc: dict) -> LatticeBasis:
    """The exact polynomial basis a reduce matrix document describes."""
    fs = FieldSpec(doc["p"], doc["e"])

    def entry(coeffs):
        nz = [d for d, c in enumerate(coeffs) if c]
        if not nz:
            return LaurentSeries.zero(fs)
        return LaurentSeries(fs, -nz[-1], coeffs[nz[-1] :: -1], None)

    return LatticeBasis(fs, [[entry(c) for c in row] for row in doc["entries"]])


def build_trial_batch(seed: int, tr: Tracer, scratch: Path) -> Workload:
    tag = _INPUT_TAG["trial-batch"]
    threads = pool_threads()
    matrix = scratch / "reduce-matrix.json"
    matrix.write_text(json.dumps(reduce_matrix_doc(seeded_stream(tr, seed, tag, 0))))
    items = []
    for tg, body in CLI_CONFIGS.items():
        text = f"tag = {tg}\nseed = {seed}\n" + body
        if tg == "reduce":
            text += f"matrix = {matrix}\n"
        items.append(cli_item(tg, text, scratch, threads))
    fields = {2: FieldSpec(2), 3: FieldSpec(3)}
    sources: dict[int, list] = {2: [], 3: []}
    idx = 1
    for s, r in ONESHOT_SHAPES:
        fs = fields[s]
        rng = seeded_stream(tr, seed, tag, idx)
        idx += 1
        for i in range(ONESHOT_PER_SHAPE):
            basis = random_unimodular(fs, rng, r, factor_deg=1, depth=2)
            sources[s].extend(e for row in basis.entries for e in row)
            items.append(oneshot_item(f"oneshot-s{s}-r{r}-{i}", basis))
    warm_text = f"tag = cusp-volume\nseed = {seed}\n" + CLI_CONFIGS["cusp-volume"]
    return Workload(
        seed,
        list(fields.values()),
        items,
        {s: series_operand(fs, sources[s]) for s, fs in fields.items()},
        warm_up=lambda: cli.parse_config(warm_text),
    )


# ---------------------------------------------------------------------------
# ext-field

EXT_SIZES = {
    # s: (xi_exact t_max, xi_mc t, xi_mc samples, strong-bc T, strong-bc trials,
    #     kg horizon, kg trials, mult bound exponent, correspondence T)
    4: (4, 2, 150, 1000, 4, 4, 4, 2, 16),
    9: (3, 2, 150, 400, 3, 3, 2, 1, 12),
}


def build_ext_field(seed: int, tr: Tracer) -> Workload:
    tag = _INPUT_TAG["ext-field"]
    fields = [FieldSpec(2, 2), FieldSpec(3, 2)]
    items = []
    operands = {}
    idx = 0
    for fs in fields:
        s = fs.s
        t_max, t_mc, samples, sbc_T, sbc_trials, H, kg_trials, bexp, corr_T = EXT_SIZES[s]
        psi = PsiPowerLaw(s, c=0.0, tau=1.0)
        for t in range(t_max + 1):
            items.append(xi_exact_item(f"xi-exact-s{s}-t{t}", fs, t))
        items.append(xi_mc_item(f"xi-mc-s{s}-t{t_mc}", fs, t_mc, samples, seed))
        items.append(strong_bc_item(f"strong-bc-s{s}", fs, sbc_T, sbc_trials, seed))
        items.append(kg_item(f"kg-slow-s{s}", fs, psi, kg_trials, H, seed))
        rng = seeded_stream(tr, seed, tag, idx)
        idx += 1
        A = exact_sample(fs, rng, 1, 1, 2 * bexp + 64)
        basis = unipotent_lattice(A, FlowSpec(fs, 1, 1))
        items.append(mult_item(f"mult-s{s}", basis, psi, bexp))
        spec = FlowSpec(fs, 2, 1)
        rng = seeded_stream(tr, seed, tag, idx)
        idx += 1
        target = traced_sample_matrix(tr, fs, rng, 2, 1, 3 * corr_T + 64)
        items.append(corr_item(f"corr-s{s}-2x1", target, spec, psi, corr_T))
        operands[s] = series_operand(fs, [e for row in target for e in row] + A[0])
    fs4 = fields[0]
    return Workload(
        seed,
        fields,
        items,
        operands,
        warm_up=lambda: xi_exact(torus_element(fs4, 1)),
    )


def build(name: str, seed: int, tr: Tracer, scratch: Path) -> Workload:
    """Generate the inputs of one workload from the seed; refuses any item
    whose estimated work is over its cap before anything runs.  CLI outputs
    go under ``scratch``, which the caller creates and removes."""
    if name == "flow-reduce":
        return build_flow_reduce(seed, tr)
    if name == "trial-batch":
        return build_trial_batch(seed, tr, scratch)
    if name == "ext-field":
        return build_ext_field(seed, tr)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# panel probes: small fixed calls for functions a workload does not make


def panel_probes(fs: FieldSpec, seed: int, scratch: Path) -> dict[str, Callable[[], list[Item]]]:
    """Functions making the probe items, keyed by the span the items
    produce (see ``metrics.SOURCES``)."""
    tag = _INPUT_TAG["panel"]
    psi = PsiPowerLaw(fs.s, c=0.0, tau=1.0)

    def target(m, n, precision, index):
        return sample_matrix(fs, stream(seed, tag, index), m, n, precision)

    def corr():
        return [corr_item("panel-corr", target(2, 1, 3 * 8 + 64, 0), FlowSpec(fs, 2, 1), psi, 8)]

    def generic():
        return [trajectory_item("panel-generic", target(2, 2, 4 * 32 + 96, 1), FlowSpec(fs, 2, 2), 32)]

    def cf():
        return [trajectory_item("panel-cf", target(1, 1, 2 * 64 + 96, 2), FlowSpec(fs, 1, 1), 64)]

    def oneshot():
        rng = stream(seed, tag, 3)
        return [oneshot_item(f"panel-oneshot-{i}", random_unimodular(fs, rng, 2, 1, 2)) for i in range(4)]

    def mult():
        A = exact_sample(fs, stream(seed, tag, 4), 1, 1, 64)
        return [mult_item("panel-mult", unipotent_lattice(A, FlowSpec(fs, 1, 1)), psi, 1)]

    def cli_probe():
        out = scratch / "panel"
        out.mkdir(parents=True, exist_ok=True)
        texts = {
            "kg-mc": f"tag = kg-mc\nseed = {seed}\ntrials = 40\nq_max = 8\n",
            "strong-bc": f"tag = strong-bc\nseed = {seed}\nT = 2000\ntrials = 8\nrate = log\n",
        }
        return [cli_item(tg, txt, out, pool_threads()) for tg, txt in texts.items()]

    def loglaw():
        def run(tr):
            with tr.span("tree.quotient_ray"):
                ray = quotient_ray(2)
            with tr.span("tree.loglaw_experiment", trials=4, T=20000):
                return loglaw_experiment(ray, 4, 20000, seed)

        return [Item("panel-loglaw", run, lambda r: "")]

    def cusp():
        def run(tr):
            with tr.span("weyl.cusp_rows"):
                return cusp_rows(RootSystemSpec(2), 3, 2, 40)

        return [Item("panel-cusp", run, lambda r: "")]

    def stream_probe():
        def run(tr):
            for i in range(32):
                seeded_stream(tr, seed, tag, 100 + i)

        return [Item("panel-stream", run, lambda r: "")]

    def sample_probe():
        def run(tr):
            rng = stream(seed, tag, 5)
            for _ in range(8):
                traced_sample_matrix(tr, fs, rng, 2, 2, 4 * 64 + 64)

        return [Item("panel-sample-matrix", run, lambda r: "")]

    def xi():
        t_max = 3 if fs.s <= 4 else 2
        return [xi_exact_item(f"panel-xi-exact-t{t}", fs, t) for t in range(t_max + 1)] + [
            xi_mc_item("panel-xi-mc", fs, 2, 60, seed)
        ]

    def weak_popov_probe():
        A = target(2, 2, 4 * 32 + 96, 6)
        spec = FlowSpec(fs, 2, 2)
        basis = unipotent_lattice(A, spec)

        def run(tr):
            for t in range(1, 9):
                with tr.span("lattice.weak_popov"):
                    weak_popov(flow_apply(basis, 4 * t, spec))

        return [Item("panel-weak-popov", run, lambda r: "")]

    return {
        "dioph.correspondence_check": corr,
        "flow.delta_trajectory:generic": generic,
        "flow.delta_trajectory:cf": cf,
        "lattice.delta": oneshot,
        "lattice.enumerate_short_vectors": oneshot,
        "lattice.weak_popov": weak_popov_probe,
        "dioph.mult_solutions": mult,
        "dioph.kg_monte_carlo": lambda: [kg_item("panel-kg", fs, psi, 8, 3, seed)],
        "flow.strong_bc_experiment": lambda: [strong_bc_item("panel-strong-bc", fs, 1000, 4, seed)],
        "cli.run_experiment": cli_probe,
        "tree.loglaw_experiment": loglaw,
        "weyl.cusp_rows": cusp,
        "streams.stream": stream_probe,
        "flow.sample_matrix": sample_probe,
        "spherical.xi_exact": xi,
        "spherical.xi_monte_carlo": xi,
    }


# ---------------------------------------------------------------------------
# microbenchmarks at each of a workload's fields (traced runs only)

KERNEL_CALLS = 100
KERNEL_SPANS = 5
SERIES_SPANS = 3
SAMPLE_K_CALLS = 50


def microbench(tr: Tracer, wl: Workload) -> None:
    """Field kernels on 4096 codes, series multiply and invert on 512-term
    operands drawn from the workload's inputs, and ``sample_k``."""
    for fs in wl.fields:
        rng = stream(wl.seed, _INPUT_TAG["panel"], 1000 + fs.s)
        a = rng.integers(0, fs.s, size=KERNEL_CODES)
        b = rng.integers(0, fs.s, size=KERNEL_CODES)
        # the largest unit, so that scaling is a copy only at s = 2, where
        # 1 is the only unit
        c = fs.s - 1
        for _ in range(KERNEL_SPANS):
            with tr.span("field.sub_arr", s=fs.s, calls=KERNEL_CALLS):
                for _ in range(KERNEL_CALLS):
                    fs.sub_arr(a, b)
            with tr.span("field.scale_arr", s=fs.s, calls=KERNEL_CALLS):
                for _ in range(KERNEL_CALLS):
                    fs.scale_arr(c, a)
            with tr.span("field.mul_arr", s=fs.s, calls=KERNEL_CALLS):
                for _ in range(KERNEL_CALLS):
                    fs.mul_arr(a, b)
        x = wl.operands[fs.s]
        for _ in range(SERIES_SPANS):
            with tr.span("field.series_mul", s=fs.s, calls=1):
                x * x
            with tr.span("field.series_invert", s=fs.s, calls=1):
                x.invert()
        # the precision xi_monte_carlo picks for diag(X^2, X^-2)
        with tr.span("spherical.sample_k", s=fs.s, calls=SAMPLE_K_CALLS):
            for _ in range(SAMPLE_K_CALLS):
                sample_k(fs, rng, 20)
