"""Diophantine solution search and its dictionary with flow excursions.

Three regimes for an m x n matrix A over O, all with s-power norms:

* integer-pair regime: q in Z^n, p in Z^m with ||p + Aq||^m < psi(||q||^n)
  (strict inequality at admission);
* lattice-window regime: nonzero v = (v_top, v_bot) in the unipotent
  lattice with ||v_top||^m <= psi(||v_bot||^n) (non-strict);
* multiplicative regime: prod_i |v_i| <= ||v|| psi(||v||) (non-strict),
  with zero-coordinate vectors reported separately.

``kg_monte_carlo`` counts the admitted classes of the first regime and
``mult_solutions`` lists the vectors of the third.  ``correspondence_check``
ties the first two to excursion times of the diagonal flow: every time t
with Delta(g_t Lambda_A) >= ceil(r(mnt)) must produce a verified solution
inside the predicted norm window.  ``_residuals`` forms the residuals
p + Aq of all flagged times at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import CertificationError, EnumerationCapError, FieldError, PrecisionError
from .field import FieldSpec, LaurentSeries, Poly, _check_codes, first_visible, series_dot
from .flow import (
    FlowSpec,
    PsiFunction,
    _column_stack,
    _generic_result,
    _require_certified,
    _trajectory_generic,
    delta_trajectory,
    psi_to_rate,
    sample_matrix,
)
from .lattice import LatticeBasis, _series_rows, _short_vector_array
from .streams import map_trials, stream

_EPS = 1e-9

_DEFAULT_SEARCH_CAP = 1_000_000


# ---------------------------------------------------------------------------
# small conversions shared by every op


def _matrix_rows(A) -> list[list[LaurentSeries]]:
    if isinstance(A, LaurentSeries):
        return [[A]]
    rows = [list(r) for r in A]
    if not rows or any(len(r) != len(rows[0]) or not r for r in rows):
        raise ValueError("A must be a nonempty rectangular matrix")
    return rows


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


# ---------------------------------------------------------------------------
# the residual p + Aq of a stack of candidates


def _degrees(q: np.ndarray) -> np.ndarray:
    """Degree of each polynomial of an array (..., width) of coefficient
    codes in ascending degree; -1 for zero."""
    last = q.shape[-1] - 1 - (q[..., ::-1] != 0).argmax(axis=-1)
    return np.where(q.any(axis=-1), last, -1)


def _lead_codes(rows: np.ndarray) -> np.ndarray:
    """Top-degree code of the first nonzero coordinate of each nonzero row
    of an array (count, n, width) in ascending degree."""
    at = np.arange(rows.shape[0])
    first = rows[at, rows.any(axis=2).argmax(axis=1)]
    return first[at, _degrees(first)]


def _residuals(fs, rows, q: np.ndarray, split: bool = False):
    """Row i of Aq for every candidate of a stack q (count, n, width) of
    coefficient codes over fs in ascending degree.  Every entry of A must
    lie over fs.

    Row i is one ``series_dot`` of A_i against the stack q taken as exact
    series, so its windows are those of LaurentSeries arithmetic; p + Aq
    is the rows (e_i | A_i) against the stack (p | q).  With ``split`` the
    whole part (indices <= 0) is cut off, so the residual is the
    fractional part.
    Returns (top, floor, prec, p_whole), the first three float arrays (m,
    count): top is log_s of the visible leading term (-inf when none),
    floor is -prec where nothing is visible inside a finite window (-inf
    otherwise) and prec is the window (inf when exact).  With ``split``,
    p_whole is the p that cancels the whole part, one array (count,
    width'') per row in ascending degree, right only where the window
    reaches index 0 (prec >= 1), which the caller checks; otherwise None.
    """
    if any(a.field != fs for row in rows for a in row):
        raise FieldError("mixed fields in series arithmetic")
    top, floor, prec = (np.empty((len(rows), q.shape[0])) for _ in range(3))
    p_whole = [] if split else None
    for i, row in enumerate(rows):
        # reversed, column k of the stack holds X^(width-1-k), at index k + 1 - width
        lo, acc, prec[i] = series_dot(fs, row, q[:, :, ::-1], 1 - q.shape[2])
        if split:
            p_whole.append(fs.neg_arr(acc[:, : 1 - lo][:, ::-1]))
            acc[:, : 1 - lo] = 0
        first = first_visible(lo, acc, prec[i])
        del acc  # not alive beside the next row's products
        top[i] = 0.0 - first  # +0.0, not -0.0, for a leading index 0
        floor[i] = np.where(np.isinf(first) & (prec[i] < np.inf), -prec[i], -np.inf)
    return top, floor, prec, p_whole


# ---------------------------------------------------------------------------
# strict admission ||p + Aq||^m < psi(||q||^n)
#
# A class q of degree d is admitted when the fractional part of Aq has no
# nonzero coefficient before index _admission_depth(psi, m, n, d); a window
# that ends earlier cannot decide, and the caller gets the precision estimate.


def _admission_depth(psi: PsiFunction, m: int, n: int, q_deg: int) -> int:
    theta = _llog_ext(psi, n * q_deg)
    return max(int(math.floor(-(theta - _EPS) / m)) + 1, 1)


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
    the classes come in build order, that of their monic members in the
    walk of ``enumerate_short_vectors``.  The walk is classified as built,
    one row per class, and only the rows reported are rescaled.
    """
    if basis.rank < 2:
        raise ValueError("multiplicative regime needs rank >= 2")
    fs = basis.field
    if psi is not None and psi.s != fs.s:
        raise ValueError("psi and the basis use different values of s")
    bound_exp = _spower_exponent(norm_bound, fs.s, "norm_bound")
    M, W = _short_vector_array(basis, float(norm_bound), cap, monic=True)
    degs = _degrees(W)  # a unit multiple has the same degrees and zero coordinates
    degen = (degs < 0).any(axis=1)
    if basis.window is not None and degen.any():
        raise CertificationError(
            "coordinate vanishes through the window; "
            "zero is undecidable at this precision",
            needed_precision=basis.window + 1,
        )
    exps = degs[~degen] - M
    prod, norm = exps.sum(axis=1), exps.max(axis=1)
    admitted = np.zeros(exps.shape[0], dtype=bool)
    if psi is not None:
        norms, first, at = np.unique(norm, return_index=True, return_inverse=True)
        theta = np.empty(norms.size)
        for i in np.argsort(first):  # psi once per norm, in order of appearance
            theta[i] = _llog_ext(psi, int(norms[i]))
        admitted = prod <= norm + theta[at] + _EPS
    # only the rows reported, the solutions then the degenerate, go to lead code 1
    rows = W[np.concatenate([np.flatnonzero(~degen)[admitted], np.flatnonzero(degen)])]
    rows = fs.mul_arr(rows, fs.inv_arr(_lead_codes(rows))[:, None, None])
    vecs = _series_rows(fs, M, basis.window, rows)
    solutions = [MultiplicativeSolution(v, tuple(e)) for v, e in zip(vecs, exps[admitted].tolist())]
    degenerate = vecs[len(solutions) :]
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
class CorrespondenceRow:
    time: int
    delta: int
    threshold: int | None
    flagged: bool
    witness: WindowWitness | None
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
    A, psi: PsiFunction, spec: FlowSpec, T: int = 64
) -> CorrespondenceReport:
    """Check the excursion-to-solution dictionary up to horizon T.

    Every t <= T with Delta(g_t Lambda_A) >= ceil(r(mnt)) must yield a
    vector in the window ||v_top|| <= s^(-nt-R), ||v_bot|| <= s^(mt-R)
    satisfying the non-strict inequality.  The witnesses of all flagged
    times, as one stack of codes, are re-verified from A together, one
    batched product per entry of A against it, independently of the
    reduced basis that produced them.  Raises CertificationError when any
    needed Delta is uncertified.
    """
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
    rows: dict[int, CorrespondenceRow] = {}
    flagged = []
    for t in range(1, T + 1):
        a = float(m * n * t)
        d = int(traj.deltas[t])
        if a < rate.a0 - _EPS:
            rows[t] = CorrespondenceRow(t, d, None, False, None, True, "below rate domain")
            continue
        R = _ceil_eps(rate.r(a))
        if d < R:
            rows[t] = CorrespondenceRow(t, d, R, False, None, True)
            continue
        flagged.append((t, R))
    times = [t for t, _ in flagged]
    if use_cf:  # the witness at t is the convergent of the last rung D_k <= t
        columns = [(convergents[k].coeffs,) for k in np.searchsorted(rungs, times, side="right") - 1]
    else:
        columns = [steps[t][2] for t in times]
    stack = _column_stack(fs, columns) if flagged else None
    for (t, R), w in zip(flagged, _window_witnesses(rows_A, psi, spec, flagged, stack)):
        d = int(traj.deltas[t])
        rows[t] = CorrespondenceRow(t, d, R, True, w, w.window_ok and w.ineq_ok)
    return CorrespondenceReport(
        "window",
        fs.s,
        psi.describe(),
        T,
        [rows[t] for t in range(1, T + 1)],
        meta={"m": m, "n": n, "a0": rate.a0},
    )


def _cf_convergents(fs: FieldSpec, quotients) -> list[Poly]:
    """Convergent denominators q_0 = 1, q_k = alpha_k q_(k-1) + q_(k-2) of
    the ladder's partial quotients alpha_1, alpha_2, ...; deg q_k = D_k."""
    qs = [Poly.zero(fs), Poly.one(fs)]
    for alpha in quotients:
        qs.append(Poly(fs, alpha) * qs[-1] + qs[-2])
    return qs[1:]


def _window_witnesses(rows_A, psi, spec, flagged, stack) -> list[WindowWitness]:
    """Recompute the residual of every flagged witness from A and test both
    the predicted norm window and the non-strict inequality.

    ``flagged`` lists the (t, R) of each flagged time and ``stack`` (None
    if there is none) their witnesses, (count, k, width) codes in ascending
    degree: (p | q), k = m + n, or on the ladder (m = n = 1) q alone.  The
    stack is range-checked once and made read-only, and each witness Poly
    views it, trimmed by one ``_degrees`` call.  ``_residuals`` forms
    p + Aq for all times at once, as the rows (e_i | A_i) against the
    stack; on the ladder p is minus the whole part of Aq, whose window
    must reach index 0.  The first time the window cannot decide raises.
    """
    if not flagged:
        return []
    fs, m, n = spec.field, spec.m, spec.n
    _check_codes(fs, stack)
    stack.setflags(write=False)
    times, thresholds = np.array(flagged).T
    ladder, rows = m == n == 1, rows_A
    degrees = _degrees(stack)
    bot = degrees[:, 0 if ladder else m :].max(axis=1)
    if not ladder:
        one, zero = LaurentSeries.one(fs), LaurentSeries.zero(fs)
        rows = [[one if k == i else zero for k in range(m)] + list(r) for i, r in enumerate(rows_A)]
    top, floor, prec, p_whole = _residuals(fs, rows, stack, split=ladder)
    top, floor = top.max(axis=0), floor.max(axis=0)
    upper = np.maximum(top, floor)
    window_ok = bot <= m * times - thresholds
    ends = (degrees + 1).tolist()
    vectors = [tuple(Poly._view(fs, c[:d]) for c, d in zip(row, e)) for row, e in zip(stack, ends)]
    out = []
    for f, (t, R) in enumerate(flagged):
        qs, ps = (vectors[f], ()) if ladder else (vectors[f][m:], vectors[f][:m])
        b = int(bot[f])
        if b < 0:
            out.append(WindowWitness(qs, ps, -1, None, False, False))
            continue
        if ladder:
            # one row, so prec[0] is its window
            if prec[0, f] < 1:
                raise PrecisionError("window does not reach index 0")
            ps = (Poly(fs, p_whole[0][f]),)
        top_f = int(top[f]) if top[f] > -np.inf else None
        if top[f] > -(n * t + R):
            # the visible part already breaks the window; no precision issue
            out.append(WindowWitness(qs, ps, b, top_f, False, False))
            continue
        if floor[f] > -(n * t + R):
            raise CertificationError(
                "witness window undecidable at this precision",
                needed_precision=n * t + R + b + 1,
            )
        ineq_ok = upper[f] == -np.inf or m * int(upper[f]) <= _llog_ext(psi, n * b) + _EPS
        out.append(WindowWitness(qs, ps, b, top_f, bool(window_ok[f]), bool(ineq_ok)))
    return out
