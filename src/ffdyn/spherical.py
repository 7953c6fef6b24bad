"""The spherical decay profile in SL2 of the Laurent field.

Everything here lives on G = SL2(F_s((1/X))) with maximal compact
K = SL2(O), O = F_s[[1/X]].  The module averages over K the inverse
square root of the modular character Delta_B(diag(u, 1/u)) = |u|^2 of
the upper-triangular subgroup B, giving the bi-invariant matrix
coefficient

    Xi(g) = integral over K of Delta_B(p(g k))^(-1/2) dk,

where p projects onto the triangular part along the Iwasawa
decomposition G = K*B.  Concretely the B-part of g k has diagonal
(u, 1/u) with |u| = ||(g k) e_1||, since the first column of a
determinant-one matrix over O has norm one, so the integrand is the
reciprocal norm of the first column of g k and no factorization is
computed.

Two backends evaluate the average.  The exact one sums the integrand
over congruence classes of K at level N (classes of the first column
mod (1/X)^N; the level-N coset sum over K collapses to that column
average because K acts transitively on unimodular columns with fibers
of equal size).  The integrand is locally constant, so once every class
is resolved the level-N and level-(N+1) sums agree exactly and the
common value is certified exact.  The classes are counted, not built:
the first column of g k is F_s-linear in the class digits, so the number
of classes with each integrand value is a difference of kernel sizes,
read off one rank profile over F_s per level.  The Monte Carlo backend
samples K uniformly at a finite precision and reports a standard error.

``decay_check`` scans Xi on the diagonal one-parameter subgroup
diag(X^t, X^-t) and fits the smallest integer sigma for which
Xi(g_t) <= varsigma * ||g_t||^(-1/sigma) holds with a margin profile
that is not still growing at the end of the range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CertificationError, FieldError, PrecisionError
from .field import FieldSpec, LaurentSeries, first_visible, series_dot
from .streams import stream

Matrix = tuple[tuple[LaurentSeries, LaurentSeries], tuple[LaurentSeries, LaurentSeries]]

# Monte Carlo samples evaluated per numpy pass; bounds the size of the
# transient arrays, not the total work.
_CHUNK = 4096


# -- matrix helpers -----------------------------------------------------------


def as_matrix(g: Sequence[Sequence[LaurentSeries]]) -> Matrix:
    rows = tuple(tuple(row) for row in g)
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ValueError("expected a 2x2 matrix")
    fs = rows[0][0].field
    for row in rows:
        for entry in row:
            if not isinstance(entry, LaurentSeries):
                raise TypeError("matrix entries must be LaurentSeries")
            if entry.field != fs:
                raise FieldError("mixed fields in matrix")
    return rows


def torus_element(fs: FieldSpec, t: int) -> Matrix:
    """diag(X^t, X^-t), the standard diagonal one-parameter subgroup."""
    zero = LaurentSeries.zero(fs)
    return (
        (LaurentSeries.x_power(fs, t), zero),
        (zero, LaurentSeries.x_power(fs, -t)),
    )


def det2(g: Matrix) -> LaurentSeries:
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def _require_det_one(g: Matrix) -> None:
    fs = g[0][0].field
    ok = det2(g).equals(LaurentSeries.one(fs))
    if ok is False:
        raise ValueError("matrix determinant is not 1")
    if ok is None:
        raise PrecisionError("determinant indeterminate at this window")


# -- exact backend ------------------------------------------------------------


@dataclass(frozen=True)
class XiExact:
    """Certified value of Xi(g) from the congruence-class sum.

    ``depth`` is the first level N whose sum agrees with level N+1
    (at that point every class is resolved, so all deeper levels agree
    as well).  ``classes`` is the number of congruence classes the level
    sums cover, counted and never built: the s^2 - 1 unimodular classes
    of level 1 and the s^2 refinements of each class still unresolved at
    the level above.
    """

    value: Fraction
    stabilized: bool
    depth: int
    classes: int


@dataclass(frozen=True)
class XiMonteCarlo:
    value: float
    stderr: float
    samples: int
    precision: int
    seed: int


class _ComponentGeometry:
    """Buffer layout for one coordinate of w = g * (a, c)^T.

    At depth N the coordinate's coefficients at indices base .. hi + N - 1
    are F_s-linear in the class digits a_1..a_N, c_1..c_N: the digit of
    depth k adds a copy of the corresponding column entry of g times
    X^-(k-1), so the buffer grows by one index per level.
    """

    def __init__(self, u: LaurentSeries, v: LaurentSeries):
        supports = []
        for e in (u, v):
            if e.has_leading_term:
                supports.append((e.v, e.v + e.coeffs.size - 1))
        if not supports:
            raise ValueError("matrix has a zero row; determinant cannot be 1")
        self.base = min(lo for lo, _ in supports)
        self.hi = max(hi for _, hi in supports)
        self.u = u
        self.v = v

    def length(self, depth: int) -> int:
        return depth - 1 + self.hi - self.base + 1

    def level_row(self, depth: int, entry: LaurentSeries) -> np.ndarray:
        """Dense buffer row for entry * X^-(depth-1)."""
        row = np.zeros(self.length(depth), dtype=np.int64)
        if entry.has_leading_term:
            off = entry.v + depth - 1 - self.base
            row[off : off + entry.coeffs.size] = entry.coeffs
        return row


def xi_exact(g: Sequence[Sequence[LaurentSeries]], depth_cap: int = 48) -> XiExact:
    """Exact Xi(g) by stabilized congruence-class sums.

    Classes are prefixes of the first column (a, c) of k mod (1/X)^N;
    the level-N sum gives each class uniform mass times the integrand at
    its zero-tail representative.  A class whose integrand the window
    already pins down keeps that value in every descendant; the rest are
    unresolved.  The value is reported once consecutive level sums agree
    and no class remains unresolved, which certifies every deeper level
    agrees too.

    No class is built.  The coefficients of w = g (a, c) are F_s-linear in
    the digits, so the classes whose coordinates vanish below given
    indices form a kernel of s^(2N - rank) classes, and those among them
    with (a_1, c_1) = 0 are the level-(N-1) ones times 1/X.  One rank
    profile per level thus counts the classes of each valuation of w and
    the unresolved ones.
    """
    g = as_matrix(g)
    fs = g[0][0].field
    for row in g:
        for entry in row:
            if not entry.is_exact:
                raise ValueError("exact backend requires exact matrix entries")
    _require_det_one(g)
    s = fs.s
    geoms = [
        _ComponentGeometry(g[0][0], g[0][1]),
        _ComponentGeometry(g[1][0], g[1][1]),
    ]
    lo = min(geom.base for geom in geoms)
    top = max(geom.hi for geom in geoms)
    # The rows of the digit functionals (one per buffer index of each
    # coordinate) sort by key 2 * index + tie, the lower-base coordinate's
    # row after the other's at an equal index.  "w vanishes below index m"
    # is then key < 2m, and "unresolved at depth N" (w vanishes below index
    # lo + N and, if the bases differ, the higher-base coordinate at lo + N
    # too) is key < unresolved_key + 2N: every count is of the classes
    # killed by a key prefix of the rows.
    ties = (int(geoms[0].base <= geoms[1].base), int(geoms[1].base < geoms[0].base))
    unresolved_key = 2 * lo + int(geoms[0].base != geoms[1].base)
    heads = np.array([2 * geom.base + tie for geom, tie in zip(geoms, ties)])
    # the digit-1 columns (a_1, c_1) by key - 2 lo; the last row stays zero
    digit1 = np.zeros((2 * (top - lo) + 3, 2), dtype=np.int64)
    for geom, tie in zip(geoms, ties):
        for col, entry in enumerate((geom.u, geom.v)):
            row = geom.level_row(1, entry)
            digit1[2 * (geom.base - lo + np.arange(row.size)) + tie, col] = row

    # Depth 0 has no digit columns and one class, the zero column.  The rows
    # at depth N are those of depth N-1 one index further on (the digits
    # a_2.., c_2.. act as a_1.., c_1.. times 1/X) plus a row at each base,
    # with the digit-1 columns in front.
    keys = np.sort(
        np.concatenate(
            [2 * (geom.base + np.arange(geom.length(0))) + tie for geom, tie in zip(geoms, ties)]
        )
    )
    rows = np.zeros((keys.size, 0), dtype=np.int64)
    ranks = np.zeros(keys.size + 1, dtype=np.int64)
    classes = 0
    unresolved = 1
    s_prev: Fraction | None = None

    for depth in range(1, depth_cap + 1):
        prev_keys, prev_ranks = keys, ranks
        keys = np.concatenate((prev_keys + 2, heads))
        order = np.argsort(keys)
        keys = keys[order]
        rows = np.concatenate((rows, np.zeros((2, rows.shape[1]), dtype=np.int64)))[order]
        rows = np.concatenate((digit1[np.minimum(keys - 2 * lo, len(digit1) - 1)], rows), axis=1)
        # ranks[k] is the rank of the first k rows
        ranks = np.concatenate(([0], np.cumsum(fs.rank_profile(rows))))

        def count(key: np.ndarray) -> list[int]:
            """Classes with (a_1, c_1) != 0 that the rows below each key kill."""
            free = 2 * depth - ranks[np.searchsorted(keys, key)]
            shifted = 2 * depth - 2 - prev_ranks[np.searchsorted(prev_keys, key - 2)]
            return [s ** int(f) - s ** int(h) for f, h in zip(free, shifted)]

        # classes with valuation of w at least m, for m = lo .. past the last index
        at_least = count(2 * np.arange(lo, top + depth + 1))
        if at_least[-1]:
            raise RuntimeError("representative column maps to zero; matrix singular")
        total = sum(s**i * (n - m) for i, (n, m) in enumerate(zip(at_least, at_least[1:])))
        level = Fraction(total, (s * s - 1) * s ** (2 * depth - 2)) * Fraction(s) ** lo

        # s^2 refinements per unresolved class, less the column (0, 0) at level 1
        classes += unresolved * s * s - (depth == 1)
        (unresolved,) = count(np.array([unresolved_key + 2 * depth]))
        if level == s_prev and not unresolved:
            return XiExact(value=level, stabilized=True, depth=depth - 1, classes=classes)
        s_prev = level

    raise CertificationError(
        f"congruence-class sum did not stabilize by depth {depth_cap}",
        needed_precision=depth_cap + 1,
    )


# -- Monte Carlo backend ------------------------------------------------------


def _draw_k(fs: FieldSpec, rng: np.random.Generator, precision: int):
    """The draws behind one element of K, in stream order: the first row's
    coefficients (redrawn until a constant term is nonzero), then the
    residual unipotent's."""
    while True:
        coeffs = rng.integers(0, fs.s, size=(2, precision))
        if coeffs[0, 0] or coeffs[1, 0]:
            break
    return coeffs, rng.integers(0, fs.s, size=precision)


def sample_k(fs: FieldSpec, rng: np.random.Generator, precision: int) -> Matrix:
    """Uniform element of SL2(O) at the given coefficient precision.

    First row uniform among unimodular pairs (rejection on both constant
    terms vanishing), completed to determinant one through the unit
    entry, then the second row is randomized by adding an O-multiple of
    the first (the residual unipotent).
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    coeffs, t_coeffs = _draw_k(fs, rng, precision)
    a = LaurentSeries(fs, 0, coeffs[0], precision)
    b = LaurentSeries(fs, 0, coeffs[1], precision)
    if coeffs[0, 0]:
        c = LaurentSeries.zero_window(fs, precision)
        d = a.invert()
    else:
        d = LaurentSeries.zero_window(fs, precision)
        c = -b.invert()
    t = LaurentSeries(fs, 0, t_coeffs, precision)
    return ((a, b), (c + t * a, d + t * b))


def _draw_samples(
    fs: FieldSpec, rng: np.random.Generator, samples: int, precision: int
) -> np.ndarray:
    """The draws of ``samples`` consecutive ``_draw_k`` calls, as
    (samples, 3, precision): the accepted first row, then t.

    Integers are drawn in as few calls as the rejections allow: one for
    every sample that draws no rejected row, then, whenever the array runs
    short, exactly the integers the remaining samples need without further
    rejections.  A bounded draw reads the stream element by element, so
    the values, and where the stream ends, are those of the ``_draw_k``
    loop.
    """
    block = 3 * precision  # one sample with no rejected row
    flat = rng.integers(0, fs.s, size=samples * block)
    nonzero = (flat != 0).tobytes()
    starts = []
    pos = 0
    while len(starts) < samples:
        if pos + block > flat.size:
            need = pos + (samples - len(starts)) * block - flat.size
            flat = np.concatenate((flat, rng.integers(0, fs.s, size=need)))
            nonzero = (flat != 0).tobytes()
        if nonzero[pos] or nonzero[pos + precision]:
            starts.append(pos)
            pos += block
        else:  # both constant terms vanish: the row is drawn again
            pos += 2 * precision
    idx = np.array(starts, dtype=np.int64)[:, None] + np.arange(block)
    return flat[idx].reshape(samples, 3, precision)


def _sample_first_columns(
    fs: FieldSpec, rng: np.random.Generator, samples: int, precision: int
) -> np.ndarray:
    """First columns (a, c + t a) of ``samples`` consecutive ``sample_k``
    draws, as one (samples, 2, precision) coefficient array over indices
    0..precision-1 (the window of every entry of k).

    c = 0 when a has a unit constant term and c = -1/b otherwise, so the
    unit-entry inverse d is never needed.
    """
    draws = _draw_samples(fs, rng, samples, precision)
    a, b, t = draws.transpose(1, 0, 2)
    w = fs.polymul(t, a)[:, :precision]
    low = a[:, 0] == 0
    if low.any():
        w[low] = fs.sub_arr(w[low], fs.polyinv(b[low], precision))
    draws[:, 2] = w  # over t, so the columns are draws[:, ::2]
    return draws[:, ::2]


def _first_column_exponents(g: Matrix, cols: np.ndarray, precision: int) -> np.ndarray:
    """Valuation of (g k) e_1 per sample, certified against unknown windows.

    ``cols`` (samples, 2, precision) are the sampled first columns of k,
    known below ``precision``.  Each row of g k e_1 is one ``series_dot``
    of the row of g against them, so its window is that of LaurentSeries
    arithmetic.  A row with no nonzero coefficient in its window is a
    ceiling on the norm exponent; a sample with no visible valuation, or
    one above a ceiling, raises PrecisionError.
    """
    fs = g[0][0].field
    best = np.full(cols.shape[0], np.inf)
    ceilings = []
    for row in g:
        lo, acc, prec = series_dot(fs, row, cols, 0, precision)
        first = first_visible(lo, acc, prec)
        del acc  # not alive beside the next row's products
        np.minimum(best, first, out=best)
        ceilings.append(np.where(np.isinf(first), prec, np.inf))
    if np.isinf(best).any() or any((best > c).any() for c in ceilings):
        raise PrecisionError("first-column norm indeterminate; increase precision")
    return best.astype(np.int64)


def _default_mc_precision(g: Matrix) -> int:
    spread = 0
    for row in g:
        for entry in row:
            if entry.has_leading_term:
                spread = max(
                    spread, abs(entry.v), abs(entry.v + entry.coeffs.size - 1)
                )
    return 2 * spread + 16


def xi_monte_carlo(
    g: Sequence[Sequence[LaurentSeries]],
    samples: int,
    seed: int,
    precision: int | None = None,
    tag: str = "xi-mc",
    trial: int = 0,
) -> XiMonteCarlo:
    """Monte Carlo Xi(g) over uniformly sampled K with a standard error."""
    g = as_matrix(g)
    fs = g[0][0].field
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    _require_det_one(g)
    if precision is None:
        precision = _default_mc_precision(g)
    rng = stream(seed, tag, trial)
    exps = np.empty(samples, dtype=np.int64)
    for start in range(0, samples, _CHUNK):
        stop = min(start + _CHUNK, samples)
        cols = _sample_first_columns(fs, rng, stop - start, precision)
        exps[start:stop] = _first_column_exponents(g, cols, precision)
    # Python float powers, one per distinct exponent
    uniq, where = np.unique(exps, return_inverse=True)
    vals = np.array([float(fs.s) ** int(e) for e in uniq])[where]
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return XiMonteCarlo(
        value=value, stderr=stderr, samples=samples, precision=precision, seed=seed
    )


# -- decay profile ------------------------------------------------------------


@dataclass(frozen=True)
class DecayRow:
    t: int
    xi: Fraction
    depth: int
    growth: Fraction  # Xi(g_t) * s^t, the sigma = 1 margin
    xi_mc: float | None
    stderr: float | None


@dataclass(frozen=True)
class DecayFit:
    sigma: int
    varsigma: float
    residuals: tuple[float, ...]
    rejected: tuple[int, ...]  # sigma values with still-growing margins


@dataclass(frozen=True)
class DecayReport:
    s: int
    rows: tuple[DecayRow, ...]
    fit: DecayFit

    def fit_dict(self) -> dict:
        return {
            "sigma": self.fit.sigma,
            "varsigma": self.fit.varsigma,
            "residuals": list(self.fit.residuals),
        }


def _margin_growing(margins: list[float]) -> bool:
    """Whether the margin profile is still climbing at the end of range."""
    tail = margins[-3:]
    return tail[-1] > tail[-2] > tail[-3]


def decay_check(
    fs: FieldSpec,
    t_max: int,
    sigma_max: int = 6,
    depth_cap: int = 64,
    samples: int = 0,
    seed: int = 0,
    precision: int | None = None,
    tag: str = "xi-decay",
) -> DecayReport:
    """Exact Xi on diag(X^t, X^-t) for t <= t_max with the decay fit.

    For each candidate sigma the margins Xi(g_t) * s^(t/sigma) are
    scanned; the smallest sigma whose margins are not strictly
    increasing at the end of the range is accepted, varsigma is the
    largest margin, and the residuals log(varsigma * s^(-t/sigma))
    - log(Xi(g_t)) are all nonnegative by construction.  Margins for
    sigma = 1 (the growth column) are exact fractions.
    """
    if t_max < 3:
        raise ValueError("need t_max >= 3 to judge the margin trend")
    if sigma_max < 1:
        raise ValueError("sigma_max must be >= 1")
    s = fs.s
    rows = []
    for t in range(t_max + 1):
        exact = xi_exact(torus_element(fs, t), depth_cap=depth_cap)
        mc_value = None
        mc_err = None
        if samples:
            mc = xi_monte_carlo(
                torus_element(fs, t),
                samples=samples,
                seed=seed,
                precision=precision,
                tag=tag,
                trial=t,
            )
            mc_value, mc_err = mc.value, mc.stderr
        rows.append(
            DecayRow(
                t=t,
                xi=exact.value,
                depth=exact.depth,
                growth=exact.value * s**t,
                xi_mc=mc_value,
                stderr=mc_err,
            )
        )

    rejected = []
    chosen = None
    for sigma in range(1, sigma_max + 1):
        margins = [float(row.xi) * s ** (row.t / sigma) for row in rows]
        if _margin_growing(margins):
            rejected.append(sigma)
            continue
        chosen = sigma
        break
    if chosen is None:
        raise ValueError(
            f"no sigma <= {sigma_max} has a settled margin profile on t <= {t_max}"
        )
    margins = [float(row.xi) * s ** (row.t / chosen) for row in rows]
    varsigma = max(margins)
    log_s = math.log(s)
    residuals = tuple(
        math.log(varsigma) - (row.t / chosen) * log_s - math.log(float(row.xi))
        for row in rows
    )
    fit = DecayFit(
        sigma=chosen,
        varsigma=varsigma,
        residuals=residuals,
        rejected=tuple(rejected),
    )
    return DecayReport(s=s, rows=tuple(rows), fit=fit)
