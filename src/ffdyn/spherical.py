"""Iwasawa factorization in SL2 of the Laurent field and the spherical
decay profile.

Everything here lives on G = SL2(F_s((1/X))) with maximal compact
K = SL2(O), O = F_s[[1/X]].  The module factors group elements through
the upper-triangular subgroup (``iwasawa``), evaluates the modular
character of that subgroup (``modular_delta_b``), and averages its
inverse square root over K to produce the bi-invariant matrix
coefficient

    Xi(g) = integral over K of Delta_B(p(g k))^(-1/2) dk,

where p projects onto the triangular part along G = K*B.  Concretely
the B-part of g k has diagonal (u, 1/u) with |u| = ||(g k) e_1||, since
the first column of a determinant-one matrix over O has norm one, so
the integrand is the reciprocal norm of the first column of g k.

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


def identity2(fs: FieldSpec) -> Matrix:
    one = LaurentSeries.one(fs)
    zero = LaurentSeries.zero(fs)
    return ((one, zero), (zero, one))


def torus_element(fs: FieldSpec, t: int) -> Matrix:
    """diag(X^t, X^-t), the standard diagonal one-parameter subgroup."""
    zero = LaurentSeries.zero(fs)
    return (
        (LaurentSeries.x_power(fs, t), zero),
        (zero, LaurentSeries.x_power(fs, -t)),
    )


def matmul2(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
        for i in range(2)
    )


def det2(g: Matrix) -> LaurentSeries:
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def mat_inverse2(g: Matrix) -> Matrix:
    """Inverse of a determinant-one 2x2 matrix (the adjugate)."""
    return (
        (g[1][1], -g[0][1]),
        (-g[1][0], g[0][0]),
    )


def _require_det_one(g: Matrix) -> None:
    fs = g[0][0].field
    ok = det2(g).equals(LaurentSeries.one(fs))
    if ok is False:
        raise ValueError("matrix determinant is not 1")
    if ok is None:
        raise PrecisionError("determinant indeterminate at this window")


def _in_o(entry: LaurentSeries) -> bool:
    """Whether the window certifies membership in O (no index < 0 terms)."""
    if entry.coeffs.size:
        return entry.v >= 0
    return True


# -- Iwasawa factorization ----------------------------------------------------


@dataclass(frozen=True)
class IwasawaFactors:
    """g = b * kappa with b upper triangular and kappa in SL2(O).

    ``diag_valuations`` are the series valuations of the diagonal of b
    (coefficient index of the leading term; diag(X^t, X^-t) has
    valuations (-t, t)).  Equalities hold exactly on the declared
    coefficient windows.
    """

    b: Matrix
    kappa: Matrix
    diag_valuations: tuple[int, int]


def _norm_exponent_bound(entry: LaurentSeries) -> int | None:
    """Valuation when visible, else None (window exhausted)."""
    if entry.has_leading_term:
        return entry.v
    return None


def _compare_bottom(c: LaurentSeries, d: LaurentSeries) -> bool:
    """True when |c| <= |d| is certified, False when |d| <= |c| is.

    False is strict (|c| > |d|) except when d vanishes through its window
    and c's leading index is d.prec; either way |c| <= |d| holds once the
    columns are swapped, which is all the pivot needs.

    Raises PrecisionError when the windows cannot decide, FieldError
    when the bottom row is identically zero.
    """
    vc = _norm_exponent_bound(c)
    vd = _norm_exponent_bound(d)
    if vc is not None and vd is not None:
        return vc >= vd
    if vc is None:
        if c.is_exact_zero:
            if vd is None and not d.is_exact_zero:
                raise PrecisionError("|d| indeterminate against a zero entry")
            if d.is_exact_zero:
                raise FieldError("bottom row is zero; matrix is singular")
            return True
        # |c| <= s^-prec; decidable when d's leading term is at least as large
        if vd is not None and vd <= c.prec:
            return True
        raise PrecisionError("cannot compare |c| and |d| at this window")
    # vd is None, vc known
    if d.is_exact_zero or (d.prec is not None and vc <= d.prec):
        return False
    raise PrecisionError("cannot compare |c| and |d| at this window")


def _unit_part(entry: LaurentSeries) -> tuple[int, LaurentSeries]:
    """Split entry = X^-v * u with u a unit of O (valuation and unit)."""
    v = entry.valuation()
    return v, entry.shift(v)


def iwasawa(g: Sequence[Sequence[LaurentSeries]], prec: int | None = None) -> IwasawaFactors:
    """Factor g = b * kappa by ultrametric column operations.

    The bottom row (c, d) decides the pivot: when |c| <= |d| an O-multiple
    of the second column clears c; otherwise the columns are swapped first.
    kappa starts as the inverse of those operations: the swap sets it to
    [[0, 1], [-1, 0]], and clearing c by t = c/d then sets it to
    [[1, 0], [t, 1]] kappa.
    Units on the diagonal of b, and the part of its corner entry divisible
    by the leading diagonal monomial, are folded into kappa whenever the
    needed inverses are representable, so b is normalized towards
    [[X^a, beta], [0, X^-a]] with beta reduced mod X^a * O.

    ``prec`` truncates the input entries first; exact inputs whose
    divisions would produce infinite tails raise PrecisionError asking
    for it.  A matrix already in SL2(O) short-circuits to (identity, g).
    """
    g = as_matrix(g)
    fs = g[0][0].field
    # Validate the determinant before truncation; windowed inputs whose
    # windows cannot certify det = 1 are admitted (they cannot refute it).
    ok = det2(g).equals(LaurentSeries.one(fs))
    if ok is False:
        raise ValueError("matrix determinant is not 1")
    if prec is not None:
        g = tuple(tuple(e.truncate(prec) for e in row) for row in g)

    if all(_in_o(e) for row in g for e in row):
        return IwasawaFactors(b=identity2(fs), kappa=g, diag_valuations=(0, 0))

    # column operations take (a, b; c, d) to b; kappa is their inverse
    (a, b), (c, d) = g
    one, zero = LaurentSeries.one(fs), LaurentSeries.zero(fs)
    kappa = identity2(fs)
    if not _compare_bottom(c, d):
        # column swap with determinant 1: (col1, col2) -> (col2, -col1)
        neg_one = LaurentSeries(fs, 0, [fs.neg(1)])
        a, b, c, d = b, a * neg_one, d, c * neg_one
        kappa = ((zero, one), (neg_one, zero))
    if not c.is_exact_zero:
        try:
            t = c / d
        except PrecisionError as exc:
            raise PrecisionError(
                "clearing the bottom row needs an infinite expansion; "
                "pass an explicit working precision"
            ) from exc
        neg_t = -t
        a, c = a + neg_t * b, c + neg_t * d
        kappa = matmul2(((one, zero), (t, one)), kappa)

    b11, b12, b22, residual = a, b, d, c
    if residual.has_leading_term:
        raise RuntimeError("column operations failed to clear the bottom row")

    # Normalize: fold diagonal units and the O-divisible part of the corner
    # into kappa.  Needs the unit inverses; exact non-constant units would
    # produce infinite tails, in which case b is returned unnormalized.
    try:
        v1, u1 = _unit_part(b11)
        v2, u2 = _unit_part(b22)
        if u1.is_exact and u1.coeffs.size > 1:
            raise PrecisionError("exact non-constant unit")
        if u2.is_exact and u2.coeffs.size > 1:
            raise PrecisionError("exact non-constant unit")
        u1_inv = u1.invert()
        u2_inv = u2.invert()
    except PrecisionError:
        if not (b11.has_leading_term and b22.has_leading_term):
            raise PrecisionError(
                "diagonal valuations indeterminate; increase the working precision"
            ) from None
        b = ((b11, b12), (residual, b22))
        return IwasawaFactors(
            b=b, kappa=kappa, diag_valuations=(b11.valuation(), b22.valuation())
        )

    d1 = LaurentSeries.x_power(fs, -v1)
    d2 = LaurentSeries.x_power(fs, -v2)
    beta = b12 * u2_inv
    # beta mod d1*O: coefficients at index >= v1 belong to d1 * O.
    head_len = max(min(v1 - beta.v, beta.coeffs.size), 0) if beta.coeffs.size else 0
    head = LaurentSeries(fs, beta.v, beta.coeffs[:head_len], beta.prec)
    tail = beta - head
    tau = tail.shift(v1)  # tail / d1, a shift since d1 is a monomial
    kappa = matmul2(((one, tau), (zero, one)), matmul2(((u1, zero), (zero, u2)), kappa))
    b = ((d1, head), (residual, d2))
    for row in kappa:
        for entry in row:
            if entry.has_leading_term and entry.v < 0:
                raise RuntimeError("kappa left O during normalization")
    return IwasawaFactors(b=b, kappa=kappa, diag_valuations=(v1, v2))


def modular_delta_b(u: LaurentSeries) -> float:
    """Modular character of the triangular subgroup at diag(u, 1/u).

    One positive root with multiplicity one, character u^2, so the value
    is |u|^2.
    """
    if not u.has_leading_term:
        if u.is_exact_zero:
            raise FieldError("diagonal entry is zero")
        raise PrecisionError("diagonal entry indeterminate at this window")
    return float(u.field.s) ** (-2 * u.valuation())


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


def xi_evaluate(
    g: Sequence[Sequence[LaurentSeries]],
    depth_cap: int = 48,
    samples: int | None = None,
    seed: int = 0,
    precision: int | None = None,
) -> XiExact | XiMonteCarlo:
    """Xi(g) by the certified class sum, or Monte Carlo when ``samples``
    is given."""
    if samples is None:
        return xi_exact(g, depth_cap=depth_cap)
    return xi_monte_carlo(g, samples=samples, seed=seed, precision=precision)


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
