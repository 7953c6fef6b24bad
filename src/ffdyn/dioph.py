"""Diophantine solution search and its dictionary with flow excursions.

Three regimes for an m x n matrix A over O, all with s-power norms:

* integer-pair regime: q in Z^n, p in Z^m with ||p + Aq||^m < psi(||q||^n)
  (strict inequality at admission);
* lattice-window regime: nonzero v = (v_top, v_bot) in the unipotent
  lattice with ||v_top||^m <= psi(||v_bot||^n) (non-strict);
* multiplicative regime: prod_i |v_i| <= ||v|| psi(||v||) (non-strict),
  with zero-coordinate vectors reported separately.

``correspondence_check`` ties the first two to excursion times of the
diagonal flow: every time t with Delta(g_t Lambda_A) >= ceil(r(mnt)) must
produce a verified solution inside the predicted norm window.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import CertificationError, EnumerationCapError
from .field import FieldSpec, LaurentSeries, Poly, poly_gcd
from .flow import (
    DriftVector,
    FlowSpec,
    PsiFunction,
    _generic_result,
    _require_certified,
    _trajectory_generic,
    delta_trajectory,
    flow_apply,
    psi_to_rate,
    sample_matrix,
)
from .lattice import (
    LatticeBasis,
    _series_rows,
    _short_vector_array,
    delta as lattice_delta,
    weak_popov,
)
from .streams import map_trials, stream

_EPS = 1e-9

_DEFAULT_SEARCH_CAP = 1_000_000

# rows per candidate block of a unit-class search
_CANDIDATE_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# small conversions shared by every op


def _matrix_rows(A) -> list[list[LaurentSeries]]:
    if isinstance(A, LaurentSeries):
        return [[A]]
    rows = [list(r) for r in A]
    if not rows or any(len(r) != len(rows[0]) or not r for r in rows):
        raise ValueError("A must be a nonempty rectangular matrix")
    return rows


def _poly_vector(q, n: int) -> tuple[Poly, ...]:
    if isinstance(q, Poly):
        qs = (q,)
    else:
        qs = tuple(q)
    if len(qs) != n:
        raise ValueError(f"q must have {n} coordinates")
    return qs


def _spower_exponent(x, s: int, what: str) -> int:
    if x <= 0:
        raise ValueError(f"{what} must be positive")
    e = round(math.log(float(x)) / math.log(s))
    if not math.isclose(float(s) ** e, float(x), rel_tol=1e-9):
        raise ValueError(f"{what} must be an integer power of s = {s}")
    return int(e)


def _llog_ext(psi: PsiFunction, u: float) -> float:
    # psi is extended constantly below its domain start: the profile stays
    # non-increasing and every comparison errs on the smaller-psi side
    return float(psi.llog(max(float(u), psi.u0)))


def _ceil_eps(x: float) -> int:
    return math.ceil(x - _EPS)


def _vector_exponents(vec) -> int:
    return max(p.degree for p in vec)


# ---------------------------------------------------------------------------
# best integer approximation


def best_integer_approx(A, q) -> tuple[tuple[Poly, ...], float]:
    """Nearest integer vector to -Aq and the distance ||p + Aq||.

    Returns (p, error) with p = -floor(Aq) componentwise and error the norm
    of the fractional part, a float power of s (0.0 when Aq is integral).
    Any integer vector within distance <= error of p does equally well;
    beyond that p is the unique minimizer.  Raises PrecisionError when the
    window of Aq cannot determine the fractional norm.
    """
    rows = _matrix_rows(A)
    qs = _poly_vector(q, len(rows[0]))
    ps, fracs = _residual_rows(rows, qs)
    return ps, max((frac.abs_value() for frac in fracs), default=0.0)


# ---------------------------------------------------------------------------
# strict admission ||p + Aq||^m < psi(||q||^n)
#
# The error norm is resolved from the fractional parts of the rows of Aq.
# A row with a visible leading term pins its exponent exactly; a row that
# vanishes through a finite window only bounds it from above.  Admission is
# decided whenever those bounds suffice, otherwise the window is too small
# and the caller gets the precision estimate.


def _admission_depth(psi: PsiFunction, m: int, n: int, q_deg: int) -> int:
    theta = _llog_ext(psi, n * q_deg)
    return max(int(math.floor(-(theta - _EPS) / m)) + 1, 1)


def _strict_admission(
    psi: PsiFunction, m: int, n: int, q_deg: int, fracs
) -> tuple[bool, int | None, bool]:
    """Decide the strict inequality; returns (admitted, err_exp, exact).

    err_exp is log_s of the error norm, or None when the error is zero or
    confined below every stored index (then exact=False unless provably 0).
    """
    theta = _llog_ext(psi, n * q_deg)
    known: list[int] = []
    floors: list[int] = []
    for frac in fracs:
        if frac.has_leading_term:
            known.append(-int(frac.valuation()))
        elif frac.prec is not None:
            floors.append(-int(frac.prec))
    e_known = max(known) if known else None
    if e_known is not None and m * e_known >= theta - _EPS:
        return False, e_known, True
    undecided = [f for f in floors if m * f >= theta - _EPS]
    if undecided:
        raise CertificationError(
            "window cannot decide the admission inequality",
            needed_precision=_admission_depth(psi, m, n, q_deg) + q_deg + 1,
        )
    if e_known is None:
        return True, None, not floors
    if floors and e_known < max(floors):
        return True, None, False
    return True, e_known, True


# ---------------------------------------------------------------------------
# exhaustive solution sets


@dataclass(frozen=True)
class ApproxSolution:
    """One admitted pair: ||p + Aq||^m < psi(||q||^n) holds strictly."""

    q: tuple[Poly, ...]
    p: tuple[Poly, ...]
    q_exp: int
    err_exp: int | None
    err_exact: bool = True

    @property
    def q_norm(self) -> float:
        return float(self.q[0].field.s) ** self.q_exp

    @property
    def error_norm(self) -> float:
        if self.err_exp is None:
            return 0.0
        return float(self.q[0].field.s) ** self.err_exp

    def row(self) -> tuple[str, str, str, int]:
        qtxt = "; ".join(str(t) for t in self.q)
        ptxt = "; ".join(str(t) for t in self.p)
        etxt = "-inf" if self.err_exp is None else str(self.err_exp)
        return qtxt, ptxt, etxt, self.q_exp


def _unit_class_count(s: int, n: int, deg: int) -> int:
    """Unit classes of q in Z^n \\ 0 with max deg <= deg."""
    return (s ** (n * (deg + 1)) - 1) // (s - 1)


def _check_class_cap(s: int, n: int, deg: int, cap: int) -> None:
    """Raise EnumerationCapError above ``cap`` unit classes of q."""
    classes = _unit_class_count(s, n, deg)
    if classes > cap:
        raise EnumerationCapError(
            f"{classes} candidate classes exceed the search cap {cap}"
        )


def _lead_codes(rows: np.ndarray) -> np.ndarray:
    """Top-degree code of the first nonzero coordinate of each nonzero row
    of an array (count, n, width) in ascending degree."""
    at = np.arange(rows.shape[0])
    first = rows[at, rows.any(axis=2).argmax(axis=1)]
    return first[at, first.shape[1] - 1 - (first[:, ::-1] != 0).argmax(axis=1)]


def _unit_class_blocks(s: int, n: int, deg: int, cap: int):
    """All q in Z^n \\ 0 with max deg <= deg, one per unit class.

    The class representative has a monic first nonzero coordinate; scalar
    multiples by F_s^* are never listed twice.  Vectors come out in
    increasing max-degree order, then in lexicographic order of their
    coefficient lists, so first hits are minimal witnesses.  They are
    yielded as int arrays (rows, n, deg + 1) of coefficient codes in
    ascending degree, _CANDIDATE_BLOCK rows each but the last.  Raises
    EnumerationCapError, before any block is built, above ``cap`` classes.
    """
    _check_class_cap(s, n, deg, cap)
    pending, held = [], 0
    for d in range(deg + 1):
        digits = n * (d + 1)
        weights = s ** np.arange(digits - 1, -1, -1, dtype=np.int64)
        total = s**digits
        for start in range(0, total, _CANDIDATE_BLOCK):
            flat = np.arange(start, min(start + _CANDIDATE_BLOCK, total))
            coords = (flat[:, None] // weights % s).reshape(-1, n, d + 1)
            keep = coords[:, :, d].any(axis=1) & (_lead_codes(coords) == 1)
            block = np.zeros((int(keep.sum()), n, deg + 1), dtype=np.int64)
            block[:, :, : d + 1] = coords[keep]
            pending.append(block)
            held += block.shape[0]
            while held >= _CANDIDATE_BLOCK:
                rows = np.concatenate(pending)
                yield rows[:_CANDIDATE_BLOCK]
                pending, held = [rows[_CANDIDATE_BLOCK:]], held - _CANDIDATE_BLOCK
    if held:
        yield np.concatenate(pending)


def _unit_class_polys(fs: FieldSpec, n: int, deg: int, cap: int):
    """The rows of ``_unit_class_blocks`` as tuples of n polynomials."""
    for block in _unit_class_blocks(fs.s, n, deg, cap):
        for q in block.tolist():
            yield tuple(Poly(fs, c) for c in q)


def _primitive_key(qs: tuple[Poly, ...]) -> tuple:
    """Coefficient key of a unit-class representative with its content
    removed (n > 1); the gcd is monic, so the first nonzero coordinate of
    the quotient stays monic."""
    if len(qs) > 1:
        g = functools.reduce(poly_gcd, qs)
        if g.degree > 0:
            qs = tuple(t // g for t in qs)
    return tuple(tuple(int(c) for c in t.coeffs) for t in qs)


@dataclass
class KGSolutionSet:
    """Admitted solutions up to a norm bound, one per primitive q-ray."""

    m: int
    n: int
    s: int
    q_max_exp: int
    psi: str
    solutions: list[ApproxSolution]
    raw_count: int

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)

    def q_keys(self) -> set[tuple]:
        return {
            tuple(tuple(int(c) for c in t.coeffs) for t in sol.q)
            for sol in self.solutions
        }

    def rows(self):
        for sol in self.solutions:
            yield sol.row()

    def summary(self) -> dict:
        return {
            "psi": self.psi,
            "m": self.m,
            "n": self.n,
            "s": self.s,
            "q_max_exp": self.q_max_exp,
            "count": len(self.solutions),
            "raw_count": self.raw_count,
        }


def kg_solutions(A, psi: PsiFunction, q_max, cap: int = _DEFAULT_SEARCH_CAP):
    """All solutions of the strict inequality with ||q|| <= q_max.

    q_max must be an integer power of s.  The search is exhaustive over
    integer vectors q of bounded degree, one representative per unit class;
    the returned set keeps one solution per primitive q (content removed),
    with the raw admitted-class count alongside.  Raises
    EnumerationCapError when the candidate count exceeds ``cap``.
    """
    rows = _matrix_rows(A)
    m, n = len(rows), len(rows[0])
    fs = rows[0][0].field
    if psi.s != fs.s:
        raise ValueError("psi and A use different values of s")
    deg = _spower_exponent(q_max, fs.s, "q_max")
    if deg < 0:
        raise ValueError("q_max must be >= 1")
    best: dict[tuple, ApproxSolution] = {}
    raw = 0
    for qs in _unit_class_polys(fs, n, deg, cap):
        ps, fracs = _residual_rows(rows, qs)
        q_deg = _vector_exponents(qs)
        admitted, err_exp, exact = _strict_admission(psi, m, n, q_deg, fracs)
        if not admitted:
            continue
        raw += 1
        sol = ApproxSolution(qs, ps, q_deg, err_exp, exact)
        key = _primitive_key(qs)
        old = best.get(key)
        if old is None or _solution_order(sol) < _solution_order(old):
            best[key] = sol
    sols = sorted(best.values(), key=_solution_order)
    return KGSolutionSet(m, n, fs.s, deg, psi.describe(), sols, raw)


def _residual_rows(rows, qs) -> tuple[tuple[Poly, ...], list[LaurentSeries]]:
    fs = rows[0][0].field
    qseries = [LaurentSeries.from_poly(t) for t in qs]
    ps = []
    fracs = []
    for row in rows:
        w = LaurentSeries.zero(fs)
        for a, t in zip(row, qseries):
            w = w + a * t
        whole, frac = w.polynomial_part()
        ps.append(-whole)
        fracs.append(frac)
    return tuple(ps), fracs


def _solution_order(sol: ApproxSolution):
    err = -math.inf if sol.err_exp is None else sol.err_exp
    return (sol.q_exp, err, tuple(tuple(int(c) for c in t.coeffs) for t in sol.q))


# ---------------------------------------------------------------------------
# Monte-Carlo dichotomy


def persistence_ladder(horizon: int) -> tuple[int, ...]:
    """Degree rungs ceil(H/2), ceil(H/4), ..., 1 (deduplicated)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rungs = []
    h = horizon
    while h > 1:
        h = (h + 1) // 2
        if not rungs or rungs[-1] != h:
            rungs.append(h)
    if not rungs:
        rungs.append(1)
    return tuple(rungs)


@dataclass
class KGReport:
    """Dichotomy statistics over sampled matrices A."""

    psi: str
    m: int
    n: int
    s: int
    horizon: int
    trials: int
    seed: int
    rungs: tuple[int, ...]
    persistent_fraction: float
    rung_fractions: dict[int, float]
    counts: np.ndarray

    @property
    def counts_histogram(self) -> dict[int, int]:
        vals, freq = np.unique(self.counts, return_counts=True)
        return {int(v): int(f) for v, f in zip(vals, freq)}

    def summary(self) -> dict:
        return {
            "psi": self.psi,
            "m": self.m,
            "n": self.n,
            "s": self.s,
            "horizon": self.horizon,
            "trials": self.trials,
            "seed": self.seed,
            "rungs": list(self.rungs),
            "persistent_fraction": self.persistent_fraction,
            "rung_fractions": {str(k): v for k, v in self.rung_fractions.items()},
            "counts_histogram": {
                str(k): v for k, v in self.counts_histogram.items()
            },
            "mean_count": float(self.counts.mean()) if self.counts.size else 0.0,
        }


def _required_precision(psi: PsiFunction, m: int, n: int, horizon: int) -> int:
    depth = max(
        _admission_depth(psi, m, n, d) for d in range(horizon + 1)
    )
    return depth + horizon + 2


def kg_monte_carlo(
    fs: FieldSpec,
    psi: PsiFunction,
    m: int,
    n: int,
    trials: int,
    horizon: int,
    seed: int,
    precision: int | None = None,
    tag: str = "kg-mc",
    threads: int = 1,
) -> KGReport:
    """Fraction of sampled A whose solutions persist past every ladder rung.

    horizon is the degree bound H (so ||q|| <= s^H); the ladder is
    ``persistence_ladder(H)``.  A trial is persistent when every rung h has
    an admitted solution with deg q >= h.  Terminal solution counts (one
    per unit class of q) feed the convergent-side histogram; they are
    counted by ranks over F_s (``_kg_rank_count``), no candidate is built.
    Trials draw from per-trial substreams of ``seed`` under ``tag`` and run
    in up to ``threads`` worker processes, capped at the usable CPUs
    (``streams.map_trials``); the report is the same for every ``threads``.
    Raises EnumerationCapError above 1,000,000 unit classes of q.
    """
    if psi.s != fs.s:
        raise ValueError("psi and the field use different values of s")
    if trials < 1 or horizon < 1:
        raise ValueError("trials and horizon must be >= 1")
    rungs = persistence_ladder(horizon)
    need = _required_precision(psi, m, n, horizon)
    if precision is None:
        precision = need
    elif precision < need:
        raise CertificationError(
            "precision below the admission decision depth",
            needed_precision=need,
        )
    _check_class_cap(fs.s, n, horizon, _DEFAULT_SEARCH_CAP)
    # a class of degree d is admitted iff its first depths[d] tail
    # coefficients vanish; the window holds precision - H - 1 of them
    window = precision - horizon - 1
    depths = [
        min(window, _admission_depth(psi, m, n, d) - 1) for d in range(horizon + 1)
    ]

    def trial_counts(trial):
        rows = sample_matrix(fs, stream(seed, tag, trial), m, n, precision)
        return _kg_rank_count(fs, rows, depths, rungs)

    results = map_trials(trial_counts, trials, threads)
    counts = np.array([c for c, _ in results], dtype=np.int64)
    passes = np.array([p for _, p in results], dtype=bool)
    persistent = passes.all(axis=1)
    rung_fractions = {
        int(h): float(passes[:, i].mean()) for i, h in enumerate(rungs)
    }
    return KGReport(
        psi.describe(),
        m,
        n,
        fs.s,
        horizon,
        trials,
        seed,
        rungs,
        float(persistent.mean()),
        rung_fractions,
        counts,
    )


def _kg_rank_count(fs, rows, depths, rungs):
    """One trial: (admitted unit classes, rung passes), counted by ranks.

    Tail coefficient u of row i of qA is sum_c sum_j q_cj a_ic,(u+1+j), so
    the q with max deg <= d whose first k tail coefficients vanish form the
    left kernel V(d, k) of the functional matrix whose rows are the
    monomials e_c X^j (j <= d) and whose columns are the pairs (u < k, i).
    With the rows ordered by degree and the columns by u, one elimination
    gives the rank behind dim V(d, k) for every d and k, and the classes of
    degree exactly d admitted at depth k number
    (s^dim V(d, k) - s^dim V(d-1, k)) / (s - 1).
    """
    m, n, horizon, depth = len(rows), len(rows[0]), len(depths) - 1, max(depths)
    precision = rows[0][0].prec
    windows = np.array([[a.window(0, precision) for a in row] for row in rows])
    index = 1 + np.add.outer(np.arange(horizon + 1), np.arange(depth))
    functionals = windows[:, :, index].transpose(2, 1, 3, 0)
    pivots = fs.pivot_columns(functionals.reshape(n * (horizon + 1), depth * m)).tolist()
    s = fs.s
    count, top = 0, -1
    for d, k in enumerate(depths):
        # dim V(e - 1, k): the n e rows of degree < e less their pivots
        # among the first k m columns
        low, high = (
            n * e - sum(0 <= c < k * m for c in pivots[: n * e]) for e in (d, d + 1)
        )
        admitted = (s**high - s**low) // (s - 1)
        if admitted:
            count += admitted
            top = d
    return count, tuple(top >= h for h in rungs)


# ---------------------------------------------------------------------------
# multiplicative regime


@dataclass(frozen=True)
class MultiplicativeSolution:
    """Vector with all coordinates nonzero and Pi(v) <= ||v|| psi(||v||)."""

    vector: tuple[LaurentSeries, ...]
    coord_exps: tuple[int, ...]

    @property
    def prod_exp(self) -> int:
        return sum(self.coord_exps)

    @property
    def norm_exp(self) -> int:
        return max(self.coord_exps)


@dataclass
class MultSolutionSet:
    """Exhaustive multiplicative search result below a norm bound."""

    s: int
    bound_exp: int
    psi: str
    solutions: list[MultiplicativeSolution]
    degenerate: list[tuple[LaurentSeries, ...]]
    checked: int

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)

    def summary(self) -> dict:
        return {
            "s": self.s,
            "bound_exp": self.bound_exp,
            "psi": self.psi,
            "count": len(self.solutions),
            "degenerate": len(self.degenerate),
            "checked": self.checked,
        }


def mult_solutions(
    basis: LatticeBasis,
    psi: PsiFunction | None,
    norm_bound,
    cap: int = 200_000,
) -> MultSolutionSet:
    """All vectors of norm <= norm_bound in the multiplicative regime.

    Vectors with a zero coordinate satisfy the inequality vacuously
    (Pi = 0) and are reported separately, never counted as solutions.
    psi=None stands for the identically-zero profile, which no
    nondegenerate vector can meet.  One vector per unit class is kept,
    scaled so the top coefficient of its first nonzero coordinate is 1;
    the classes come in the order of their first members in the sorted
    walk of ``enumerate_short_vectors``.
    """
    if basis.rank < 2:
        raise ValueError("multiplicative regime needs rank >= 2")
    fs = basis.field
    if psi is not None and psi.s != fs.s:
        raise ValueError("psi and the basis use different values of s")
    bound_exp = _spower_exponent(norm_bound, fs.s, "norm_bound")
    M, W = _short_vector_array(basis, float(norm_bound), cap)
    # P is nonsingular, so the walk holds each unit class s - 1 times; its
    # first member in sorted order is the one whose first nonzero code is 1
    flat = W.reshape(W.shape[0], -1)
    W = W[flat[np.arange(flat.shape[0]), (flat != 0).argmax(axis=1)] == 1]
    W = fs.mul_arr(W, fs.inv_arr(_lead_codes(W))[:, None, None])
    degen = ~W.any(axis=2).all(axis=1)
    if basis.window is not None and degen.any():
        raise CertificationError(
            "coordinate vanishes through the window; "
            "zero is undecidable at this precision",
            needed_precision=basis.window + 1,
        )
    live = W[~degen]
    exps = live.shape[2] - 1 - (live[:, :, ::-1] != 0).argmax(axis=2) - M
    prod, norm = exps.sum(axis=1), exps.max(axis=1)
    admitted = np.zeros(live.shape[0], dtype=bool)
    if psi is not None:
        norms, first, at = np.unique(norm, return_index=True, return_inverse=True)
        theta = np.empty(norms.size)
        for i in np.argsort(first):  # psi once per norm, in order of appearance
            theta[i] = _llog_ext(psi, int(norms[i]))
        admitted = prod <= norm + theta[at] + _EPS
    kept = zip(_series_rows(fs, M, basis.window, live[admitted]), exps[admitted].tolist())
    solutions = [MultiplicativeSolution(vec, tuple(e)) for vec, e in kept]
    degenerate = _series_rows(fs, M, basis.window, W[degen])
    label = "zero" if psi is None else psi.describe()
    return MultSolutionSet(fs.s, bound_exp, label, solutions, degenerate, len(W))


# ---------------------------------------------------------------------------
# correspondence between excursions and solutions


@dataclass(frozen=True)
class WindowWitness:
    """Solution extracted at one flagged time of the block flow."""

    q: tuple[Poly, ...]
    p: tuple[Poly, ...]
    bot_exp: int
    top_exp: int | None
    window_ok: bool
    ineq_ok: bool


@dataclass(frozen=True)
class MultWitness:
    """Short vector extracted at one flagged drift of the full torus."""

    coord_exps: tuple
    degenerate: bool
    window_ok: bool
    ineq_ok: bool


@dataclass(frozen=True)
class CorrespondenceRow:
    time: object
    delta: int
    threshold: int | None
    flagged: bool
    witness: object | None
    ok: bool
    note: str = ""


@dataclass
class CorrespondenceReport:
    """Verdict table: every flagged excursion must verify a solution."""

    kind: str
    s: int
    psi: str
    horizon: int
    rows: list[CorrespondenceRow]
    chambers: dict | None = None
    meta: dict = dc_field(default_factory=dict)

    @property
    def flagged_count(self) -> int:
        return sum(1 for r in self.rows if r.flagged)

    @property
    def counterexamples(self) -> list[CorrespondenceRow]:
        return [r for r in self.rows if r.flagged and not r.ok]

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def summary(self) -> dict:
        out = {
            "kind": self.kind,
            "s": self.s,
            "psi": self.psi,
            "horizon": self.horizon,
            "checked": len(self.rows),
            "flagged": self.flagged_count,
            "counterexamples": len(self.counterexamples),
        }
        out.update(self.meta)
        return out

    def table(self):
        for r in self.rows:
            yield (
                r.time,
                r.delta,
                r.threshold,
                int(r.flagged),
                int(r.ok),
                r.note,
            )


def correspondence_check(
    target,
    psi: PsiFunction,
    spec: FlowSpec | None = None,
    T: int = 64,
    cap: int = _DEFAULT_SEARCH_CAP,
) -> CorrespondenceReport:
    """Check the excursion-to-solution dictionary up to horizon T.

    With a coefficient matrix A (spec required), every t <= T with
    Delta(g_t Lambda_A) >= ceil(r(mnt)) must yield a vector in the window
    ||v_top|| <= s^(-nt-R), ||v_bot|| <= s^(mt-R) satisfying the non-strict
    inequality; the witness is re-verified by direct series arithmetic.
    With a LatticeBasis, the same check runs over the zero-sum drift box
    ||t||_inf <= T chamber by chamber, against the multiplicative
    inequality with the (rank-1, 1) rate transform.  Raises
    CertificationError when any needed Delta is uncertified.
    """
    if isinstance(target, LatticeBasis):
        return _mult_correspondence(target, psi, T, cap)
    if spec is None:
        raise ValueError("matrix input needs a FlowSpec")
    return _window_correspondence(target, psi, spec, T)


def _window_correspondence(A, psi, spec, T) -> CorrespondenceReport:
    rows_A = _matrix_rows(A)
    if len(rows_A) != spec.m or len(rows_A[0]) != spec.n:
        raise ValueError(f"A must be {spec.m} x {spec.n}")
    fs = spec.field
    if psi.s != fs.s:
        raise ValueError("psi and the flow use different values of s")
    m, n = spec.m, spec.n
    rate = psi_to_rate(psi, m, n)
    use_cf = m == 1 and n == 1
    if use_cf:
        traj = delta_trajectory(A, spec, T, strict=True)
        rungs = traj.meta["rungs"]
        # convergent k is a witness only for times t >= D_k, so rungs past T
        # are never read
        reached = int(np.searchsorted(rungs, T, side="right"))
        quotients = itertools.islice(traj.meta["quotients"], reached - 1)
        convergents = _cf_convergents(fs, quotients)
    else:
        # the engine certifies every column of U at each t, so a certified
        # trajectory certifies the witness columns it yields
        steps = list(_trajectory_generic(spec, rows_A, T))
        traj = _require_certified(_generic_result(spec, steps))
    out: list[CorrespondenceRow] = []
    for t in range(1, T + 1):
        a = float(m * n * t)
        d = int(traj.deltas[t])
        if a < rate.a0 - _EPS:
            out.append(
                CorrespondenceRow(t, d, None, False, None, True, "below rate domain")
            )
            continue
        R = _ceil_eps(rate.r(a))
        flagged = d >= R
        if not flagged:
            out.append(CorrespondenceRow(t, d, R, False, None, True))
            continue
        if use_cf:
            k = int(np.searchsorted(rungs, t, side="right")) - 1
            qs = (convergents[k],)
            ps = None
        else:
            col = steps[t][2]
            ps = tuple(Poly(fs, c) for c in col[:m])
            qs = tuple(Poly(fs, c) for c in col[m:])
        witness = _verify_window_witness(rows_A, psi, spec, t, R, qs, ps)
        ok = witness.window_ok and witness.ineq_ok
        out.append(CorrespondenceRow(t, d, R, True, witness, ok))
    return CorrespondenceReport(
        "window",
        fs.s,
        psi.describe(),
        T,
        out,
        meta={"m": m, "n": n, "a0": rate.a0},
    )


def _cf_convergents(fs: FieldSpec, quotients) -> list[Poly]:
    """Convergent denominators q_0 = 1, q_k = alpha_k q_(k-1) + q_(k-2) of
    the ladder's partial quotients alpha_1, alpha_2, ...; deg q_k = D_k."""
    qs = [Poly.zero(fs), Poly.one(fs)]
    for alpha in quotients:
        qs.append(Poly(fs, alpha) * qs[-1] + qs[-2])
    return qs[1:]


def _verify_window_witness(rows_A, psi, spec, t, R, qs, ps) -> WindowWitness:
    """Recompute the witness residual by series arithmetic and test both
    the predicted norm window and the non-strict inequality."""
    fs = spec.field
    m, n = spec.m, spec.n
    if all(q.is_zero for q in qs):
        return WindowWitness(qs, ps or (), -1, None, False, False)
    qseries = [LaurentSeries.from_poly(q) for q in qs]
    known: list[int] = []
    floors: list[int] = []
    p_out = []
    for i, row in enumerate(rows_A):
        w = LaurentSeries.zero(fs)
        for a, qser in zip(row, qseries):
            w = w + a * qser
        if ps is None:
            whole, tail = w.polynomial_part()
            p_i = -whole
        else:
            p_i = ps[i]
            tail = w + LaurentSeries.from_poly(p_i)
        p_out.append(p_i)
        if tail.has_leading_term:
            known.append(-int(tail.valuation()))
        elif tail.prec is not None:
            floors.append(-int(tail.prec))
    bot = _vector_exponents(qs)
    need_top = -(n * t + R)
    top = max(known) if known else None
    if top is not None and top > need_top:
        # the visible part already breaks the window; no precision issue
        return WindowWitness(qs, tuple(p_out), bot, top, False, False)
    if any(f > need_top for f in floors):
        raise CertificationError(
            "witness window undecidable at this precision",
            needed_precision=n * t + R + bot + 1,
        )
    upper = max(known + floors) if (known or floors) else None
    window_ok = bot <= m * t - R
    if upper is None:
        ineq_ok = True
    else:
        theta = _llog_ext(psi, n * bot)
        ineq_ok = m * upper <= theta + _EPS
    return WindowWitness(qs, tuple(p_out), bot, top, window_ok, ineq_ok)


def _mult_correspondence(basis, psi, box, cap) -> CorrespondenceReport:
    fs = basis.field
    if basis.rank < 2:
        raise ValueError("multiplicative regime needs rank >= 2")
    if psi.s != fs.s:
        raise ValueError("psi and the basis use different values of s")
    r = basis.rank
    rate = psi_to_rate(psi, r - 1, 1)
    grouped: dict[tuple, list[tuple[int, ...]]] = {}
    for head in itertools.product(range(-box, box + 1), repeat=r - 1):
        last = -sum(head)
        if abs(last) > box:
            continue
        tvec = head + (last,)
        if not any(tvec):
            continue
        # Weyl chamber = ordering pattern of the exponents; ||t||_- is a
        # norm on each chamber, so the box is walked one chamber at a time
        order = tuple(
            int(i) for i in sorted(range(r), key=lambda i: (-tvec[i], i))
        )
        grouped.setdefault(order, []).append(tvec)
    rows: list[CorrespondenceRow] = []
    chambers: dict[str, dict] = {}
    xpsi_flag = psi.x_psi_non_increasing()
    for order in sorted(grouped):
        label = ">".join(str(i) for i in order)
        stats = {"checked": 0, "flagged": 0, "verified": 0}
        for tvec in sorted(grouped[order]):
            drift = DriftVector(tvec)
            a = float(drift.neg_norm())
            flowed = flow_apply(basis, drift)
            red = weak_popov(flowed)
            dv = lattice_delta(red)
            if not dv.certified:
                raise CertificationError(
                    f"uncertified depth at drift {tvec}",
                    needed_precision=dv.needed_precision,
                )
            stats["checked"] += 1
            if a < rate.a0 - _EPS:
                rows.append(
                    CorrespondenceRow(
                        tvec, dv.value, None, False, None, True, f"chamber {label}"
                    )
                )
                continue
            R = _ceil_eps(rate.r(a))
            flagged = dv.value >= R
            if not flagged:
                rows.append(
                    CorrespondenceRow(
                        tvec, dv.value, R, False, None, True, f"chamber {label}"
                    )
                )
                continue
            stats["flagged"] += 1
            witness = _verify_mult_witness(basis, red, psi, tvec, R)
            ok = witness.window_ok and witness.ineq_ok
            if ok:
                stats["verified"] += 1
            rows.append(
                CorrespondenceRow(
                    tvec, dv.value, R, True, witness, ok, f"chamber {label}"
                )
            )
        chambers[label] = stats
    return CorrespondenceReport(
        "multiplicative",
        fs.s,
        psi.describe(),
        box,
        rows,
        chambers=chambers,
        meta={"rank": r, "x_psi_non_increasing": xpsi_flag},
    )


def _verify_mult_witness(basis, red, psi, tvec, R) -> MultWitness:
    fs = basis.field
    r = basis.rank
    j = int(np.argmin(red.degrees))
    ucol = red.transform_columns()[j]
    coords = []
    for i in range(r):
        w = LaurentSeries.zero(fs)
        for k in range(r):
            w = w + basis.entries[i][k] * ucol[k]
        coords.append(w)
    exps: list[int | None] = []
    degenerate = False
    for e in coords:
        if e.has_leading_term:
            exps.append(-int(e.valuation()))
        elif e.prec is None:
            exps.append(None)
            degenerate = True
        else:
            raise CertificationError(
                "witness coordinate vanishes through the window",
                needed_precision=e.prec + 1,
            )
    window_ok = all(
        e is None or e <= -ti - R for e, ti in zip(exps, tvec)
    )
    if degenerate:
        # a zero coordinate makes the product vanish; the inequality holds
        # for every positive profile
        return MultWitness(tuple(exps), True, window_ok, True)
    prod = sum(exps)
    norm = max(exps)
    ineq_ok = prod <= norm + _llog_ext(psi, norm) + _EPS
    return MultWitness(tuple(exps), False, window_ok, ineq_ok)


# ---------------------------------------------------------------------------
# degenerate first-block detection


@dataclass
class ZeroBlockReport:
    """Outcome of the bounded search for vectors with zero first block."""

    found: bool
    witness: tuple[Poly, ...] | None
    searched: int
    indeterminate: int
    degree_bound: int

    def __bool__(self) -> bool:
        return self.found


def zero_block_detector(
    target,
    spec: FlowSpec,
    degree_bound: int = 4,
    cap: int = _DEFAULT_SEARCH_CAP,
) -> ZeroBlockReport:
    """Bounded search for lattice vectors whose first m coordinates vanish.

    Such a vector forces approximability for every profile (integer
    multiples give solutions with error zero at all scales).  target is a
    coefficient matrix A or a LatticeBasis.  Detection requires the block
    to vanish provably; candidates that only vanish through a finite
    window are counted as indeterminate, never as hits.
    """
    if isinstance(target, LatticeBasis):
        return _zero_block_generic(target, spec, degree_bound, cap)
    rows = _matrix_rows(target)
    if len(rows) != spec.m or len(rows[0]) != spec.n:
        raise ValueError(f"A must be {spec.m} x {spec.n}")
    fs = spec.field
    searched = 0
    indeterminate = 0
    for qs in _unit_class_polys(fs, spec.n, degree_bound, cap):
        _, fracs = _residual_rows(rows, qs)
        searched += 1
        if all(f.is_exact_zero for f in fracs):
            return ZeroBlockReport(True, qs, searched, indeterminate, degree_bound)
        if all(not f.has_leading_term for f in fracs):
            indeterminate += 1
    return ZeroBlockReport(False, None, searched, indeterminate, degree_bound)


def _zero_block_generic(basis, spec, degree_bound, cap) -> ZeroBlockReport:
    fs = basis.field
    r = basis.rank
    if spec.rank != r:
        raise ValueError("spec rank does not match the basis")
    searched = 0
    indeterminate = 0
    for us in _unit_class_polys(fs, r, degree_bound, cap):
        useries = [LaurentSeries.from_poly(u) for u in us]
        searched += 1
        vanished = True
        provable = True
        for i in range(spec.m):
            w = LaurentSeries.zero(fs)
            for k in range(r):
                w = w + basis.entries[i][k] * useries[k]
            if w.has_leading_term:
                vanished = False
                break
            if not w.is_exact_zero:
                provable = False
        if not vanished:
            continue
        if provable:
            return ZeroBlockReport(True, us, searched, indeterminate, degree_bound)
        indeterminate += 1
    return ZeroBlockReport(False, None, searched, indeterminate, degree_bound)
