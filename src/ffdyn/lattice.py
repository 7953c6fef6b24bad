"""Z-lattices in F_s((1/X))^r: reduction, depth, short vectors.

A lattice is given by a square basis of series columns.  Internally the basis
is cleared to a polynomial matrix by the scaling X^M (M = deepest coefficient
index any entry needs), reduced to weak Popov form by simple transformations,
and read off through the predictable-degree property: the sorted column
degrees d_j of the reduced matrix give the successive minima s^(d_j - M), and
the depth of the lattice is Delta = M - min_j d_j.

Truncated inputs are handled honestly: dropping coefficients at indices >= N
perturbs any candidate vector built from a coefficient vector q by at most
s^(M-N) * |q|, so a reported value is *certified* exactly when every reduced
column satisfies d_j - deg(U_j) > M - N, with U the tracked unimodular
multiplier.  Uncertified results carry the window that would have sufficed.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, EnumerationCapError, FieldError, LatticeError
from .field import FieldSpec, LaurentSeries, _plane_tables, _plane_weights, _planes

_DEFAULT_ENUM_CAP = 200_000


class LatticeBasis:
    """Square basis over F_s((1/X)); entries are LaurentSeries, row-major."""

    __slots__ = ("field", "rank", "entries", "window")

    def __init__(self, field: FieldSpec, entries):
        rows = [list(row) for row in entries]
        r = len(rows)
        if r == 0 or any(len(row) != r for row in rows):
            raise LatticeError("basis must be square and nonempty")
        for row in rows:
            for e in row:
                if not isinstance(e, LaurentSeries):
                    raise LatticeError("entries must be LaurentSeries")
                if e.field != field:
                    raise FieldError("entry field mismatch")
        for j in range(r):
            if all(rows[i][j].coeffs.size == 0 for i in range(r)):
                raise LatticeError(f"column {j} has no known nonzero entry")
        precs = [e.prec for row in rows for e in row if e.prec is not None]
        self.field = field
        self.rank = r
        self.entries = rows
        self.window = min(precs) if precs else None

    @classmethod
    def identity(cls, field: FieldSpec, r: int) -> "LatticeBasis":
        one = LaurentSeries.one(field)
        zero = LaurentSeries.zero(field)
        return cls(field, [[one if i == j else zero for j in range(r)] for i in range(r)])

    def scale_all(self, c: int) -> "LatticeBasis":
        """Basis of X^c * Lambda."""
        return LatticeBasis(
            self.field, [[e.shift(c) for e in row] for row in self.entries]
        )

    def scaling_exponent(self) -> int:
        """Smallest M >= 0 with every known coefficient of X^M * B polynomial."""
        m = 0
        for row in self.entries:
            for e in row:
                if e.prec is not None:
                    m = max(m, e.prec - 1)
                else:
                    last = e.last_listed_index()
                    if last is not None:
                        m = max(m, last)
        return m

    def packed(self, scale: int | None = None) -> tuple[int, np.ndarray]:
        """(M, coefficient array [r, r, L]) of the polynomial matrix X^M * B."""
        M = self.scaling_exponent() if scale is None else scale
        r = self.rank
        L = max([M - e.v + 1 for row in self.entries for e in row if e.coeffs.size] + [1])
        out = np.zeros((r, r, L), dtype=np.int64)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if not e.coeffs.size:
                    continue
                # the coefficient at index v + k lands at degree M - v - k
                lo = M - e.v - e.coeffs.size + 1
                if lo < 0:
                    raise LatticeError(
                        f"entry ({i},{j}) has coefficients below the scaling window"
                    )
                out[i, j, lo : M - e.v + 1] = e.coeffs[::-1]
        return M, out

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"LatticeBasis(r={self.rank}: {body})"


@dataclass(frozen=True)
class DeltaValue:
    """Lattice depth with its certification status."""

    value: int
    certified: bool
    needed_precision: int | None = None

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class MinimaProfile:
    exponents: tuple[int, ...]
    certified: bool
    needed_precision: int | None = None


class ReducedBasis:
    """Weak Popov form of a scaled basis plus the transformation applied."""

    __slots__ = (
        "field",
        "rank",
        "scale",
        "window",
        "matrix",
        "transform",
        "degrees",
        "pivots",
        "udegrees",
    )

    def __init__(
        self, field, rank, scale, window, matrix, transform, degrees, pivots, udegrees
    ):
        self.field = field
        self.rank = rank
        self.scale = scale
        self.window = window
        self.matrix = matrix
        self.transform = transform
        self.degrees = tuple(int(d) for d in degrees)
        self.pivots = tuple(int(p) for p in pivots)
        self.udegrees = tuple(int(u) for u in udegrees)

    def certification(self) -> tuple[bool, int | None]:
        needed = _needed(self.scale, self.window, self.degrees, self.udegrees)
        return needed is None, needed

    def basis_series(self) -> LatticeBasis:
        """Reduced columns as series (X^-M times the polynomial columns).

        Column j of the output is exact data of the truncated model up to the
        transformation's amplification, so its honest window is
        window - deg(U_j); requires a certified reduction.
        """
        certified, needed = self.certification()
        if not certified:
            raise CertificationError(
                "reduced basis not certified at this window",
                needed_precision=needed,
            )
        rows: list[list[LaurentSeries]] = [[None] * self.rank for _ in range(self.rank)]
        for j in range(self.rank):
            prec = None if self.window is None else self.window - self.udegrees[j]
            for i in range(self.rank):
                coeffs = self.matrix[i, j, ::-1]  # degree L-1..0 -> index M-L+1..M
                L = coeffs.size
                entry = LaurentSeries(self.field, self.scale - L + 1, coeffs, None)
                if prec is not None:
                    entry = entry.truncate(prec)
                rows[i][j] = entry
        return LatticeBasis(self.field, rows)

    def transform_columns(self) -> list[tuple[LaurentSeries, ...]]:
        """Columns of U as exact polynomial series (coordinates in the input basis)."""
        return _series_rows(self.field, 0, None, self.transform.transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# packed-array reduction core (shared with the flow module)


def _needed(scale: int, window, degrees, udegrees) -> int | None:
    """None when every reduced column is certified, else the input window
    that would certify them all.  Truncating the input at ``window`` errs
    at packed degree <= scale - window + deg U_j in column j, which must
    stay below its degree d_j."""
    if window is None:
        return None
    worst = max(u - d for u, d in zip(udegrees, degrees))
    return None if worst < window - scale else scale + worst + 1


def _transform_room(degrees, det_degree: int) -> int:
    """Coefficients that hold every transform U with W = B U, for B of
    column degrees ``degrees`` and det of degree >= ``det_degree``, and W
    no higher than B's highest column.  By Cramer, U = adj(B) W / det B,
    an adjugate entry has degree <= sum(d) - min(d), so deg U <= sum(d) -
    min(d) + max(d) - deg det B.  Every step of the reduction keeps W's
    columns no higher, so the bound holds throughout."""
    return sum(degrees) - min(degrees) + max(degrees) - det_degree + 1


def _pivot_of(col: np.ndarray) -> tuple[int, int]:
    """(degree, pivot row) with the lowest row index among maximal degrees:
    the column's degree is its last nonzero coefficient slice, and the
    pivot the first nonzero row of that slice."""
    live = col.any(axis=0).nonzero()[0]
    if not live.size:
        return -1, -1
    d = int(live[-1])
    return d, int(col[:, d].nonzero()[0][0])


def _column_pivots(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_pivot_of`` of every column of a packed [r, c, L] array, as two
    int64 arrays (degrees, pivots)."""
    live = W.any(axis=0)
    deg = live.shape[1] - 1 - live[:, ::-1].argmax(axis=1)
    # a zero column's slice at L - 1 is zero, like every other of its slices
    lead = W[:, np.arange(W.shape[1]), deg] != 0
    zero = ~lead.any(axis=0)
    return np.where(zero, -1, deg), np.where(zero, -1, lead.argmax(axis=0))


def _augmented(W0: np.ndarray, L: int, ulen: int):
    """(WU, W, U): one int64 array WU [2r, r, ulen] holding the packed basis
    W0 [r, r, <= L] in rows :r and the identity transform in rows r:, with
    W = WU[:r, :, :L] and U = WU[r:] its views.  Every simple transform
    applies one c X^e to both parts, so it is one update of WU; W's rows
    stay zero past L.  Both reducers take ulen = max(L, ``_transform_room``),
    which holds every U they reach."""
    r = W0.shape[0]
    WU = np.zeros((2 * r, r, ulen), dtype=np.int64)
    WU[:r, :, : W0.shape[2]] = W0
    WU[r:, :, 0] = np.eye(r, dtype=np.int64)
    return WU, WU[:r, :, :L], WU[r:]


def _reduce_packed(fs: FieldSpec, WU, degrees, pivots, udegrees, max_steps=None) -> int:
    """Drive the augmented state WU to weak Popov form in its W rows, in
    place; returns steps taken.  WU is the array ``_augmented`` builds or
    its digit planes (``_PlaneWU``); only ``_simple_transform`` tells them
    apart.

    ``degrees``/``pivots`` (of the columns of W, as ``_column_pivots`` gives
    them) and ``udegrees`` (of the columns of U) are lists of current
    per-column values on entry; each step is one ``_simple_transform``,
    which keeps them current.  Collisions are resolved deterministically:
    at the lowest pivot row that two columns share, the first two columns
    there by index collide, and the one of larger (degree, index) is
    reduced against the other: the clash map lists each pivot row's columns
    in index order, and a step moves only red, if its pivot row changed.
    Each step lowers sum_j (r d_j - pivot_j) by at least 1 (a pivot at an
    unchanged degree moves down), so deg det >= 0 caps the steps at
    r sum_j d_j + r(r - 1)/2 (Mulders and Storjohann 2003).
    """
    r = len(degrees)
    if max_steps is None:
        max_steps = r * sum(max(d, 0) for d in degrees) + r * (r - 1) // 2
    if min(pivots) < 0:
        raise LatticeError("columns are linearly dependent")
    rows = [[j for j, p in enumerate(pivots) if p == q] for q in range(r)]
    steps = 0
    while True:
        for cols in rows:  # the lowest row holding two columns
            if len(cols) > 1:
                break
        else:
            return steps
        a, j = cols[0], cols[1]
        keep, red = (a, j) if degrees[a] <= degrees[j] else (j, a)
        _simple_transform(fs, WU, degrees, pivots, udegrees, keep, red)
        steps += 1
        if steps > max_steps:
            raise LatticeError("reduction did not terminate (singular input?)")
        if (p := pivots[red]) < 0:
            raise LatticeError("columns are linearly dependent")
        if p != pivots[keep]:  # red left the clash row
            cols.remove(red)
            insort(rows[p], red)


def _simple_transform(fs, WU, degrees, pivots, udegrees, keep: int, red: int) -> None:
    """Column red -= c X^e column keep of WU, cancelling the pivot of red.

    On an array, one in-place ``submul_arr`` over all rows of WU, on the
    window that the larger of dk = deg W_keep and udegrees[keep] reaches.
    The new degree of red is at most its old one, dr, so its (degree,
    pivot) is read from the slice W[:, red, dr] while that is nonzero, and
    from a ``_pivot_of`` scan below dr once it is zero.

    On a ``_PlaneWU``, keep's planes shifted by e r places: one XOR over
    F_2; over F_3 one seven-operation bit-sliced digit sum
    (``flow._ternary_rungs``) of -keep (planes swapped) when the leads'
    twos-plane bits agree (c = 1), else of keep; over e > 1 the feed of
    -c, c from the leads' log tables.  Red's (degree, pivot, U degree)
    come from the bit lengths of the union of its planes.

    Either storage raises before any change when the new U column would
    not fit in WU.shape[2] coefficients."""
    dk, dr, uk = degrees[keep], degrees[red], udegrees[keep]
    e = dr - dk
    top = uk + e
    if top >= WU.shape[2]:
        raise LatticeError("transform buffer overflow")  # guarded by caller sizing
    if isinstance(WU, np.ndarray):
        r, row, ur = len(degrees), pivots[keep], udegrees[red]
        c = fs.mul(int(WU[row, red, dr]), fs.inv(int(WU[row, keep, dk])))
        span = max(dk, uk) + 1
        window = WU[:, red, e : e + span]
        fs.submul_arr(window, c, WU[:, keep, :span], out=window)
        if top > ur:
            udegrees[red] = top
        elif top == ur and not WU[r:, red, top].any():
            # the leading terms cancelled; nothing above top is nonzero
            udegrees[red] = max(_pivot_of(WU[r:, red, :top])[0], 0)
        lead = WU[:r, red, dr].nonzero()[0]
        if lead.size:
            pivots[red] = int(lead[0])
        else:
            degrees[red], pivots[red] = _pivot_of(WU[:r, red, :dr])
        return
    r, kept, col = WU.r, WU.cols[keep], WU.cols[red]
    k, at = e * r, dr * r + pivots[keep]
    if WU.feed is None and WU.p == 2:
        x = col[0] = col[0] ^ kept[0] << k
    elif WU.feed is None:
        yl, yh = kept if (col[1] >> at ^ kept[1] >> at - k) & 1 else kept[::-1]
        yl, yh, xl, xh = yl << k, yh << k, col[0], col[1]
        t = (xl | xh) & (yl | yh)
        xl, xh = col[0], col[1] = (xl | yl) ^ t, (xh | yh) ^ t
        x = xl | xh
    else:
        lead_r = lead_k = 0
        for x, y, w in zip(col, kept, WU.weights):
            lead_r += w * (x >> at & 1)
            lead_k += w * (y >> at - k & 1)
        shifted = [y << k for y in kept]
        feed = WU.feed[WU.antilog[WU.log[lead_r] - WU.log[lead_k]]]
        if WU.p == 2:
            for o, i in feed:
                col[o] ^= shifted[i]
        else:
            for o, i, i2 in feed:
                xl, xh, yl, yh = col[o], col[o + 1], shifted[i], shifted[i2]
                t = (xl | xh) & (yl | yh)
                col[o], col[o + 1] = (xl | yl) ^ t, (xh | yh) ^ t
        x = functools.reduce(operator.or_, col)
    w = x & WU.wmask
    udegrees[red] = (x.bit_length() - 1) // r - WU.L
    if w:
        d = (w.bit_length() - 1) // r
        top = w >> d * r
        degrees[red], pivots[red] = d, (top & -top).bit_length() - 1
    else:
        degrees[red] = pivots[red] = -1


# The reduction core over p = 2 and 3 holds each column of [W; U] as the
# digit planes (``field._planes``) of one sequence that interleaves its
# rows: coefficient d of W's row i at index d r + i for d < L, and
# coefficient d of U's row i at r L + d r + i.  Multiplying a column by X^k
# shifts each plane by k r, and no entry reaches another row's bits while
# W stays below degree L and U below ulen, which the room check keeps.  The
# bit length of W's planes gives the degree, the lowest row set at that
# degree the pivot, and U's own bit length its degree.


class _PlaneWU:
    """The augmented [W; U] of ``_augmented`` (W of length L) on digit
    planes, for p = 2 and 3: cols[j] lists column j's planes, e over
    p = 2 and 2e over p = 3.  Built from that array, or with ``ulen`` from
    W0 alone (at most L coefficients) and the identity U.  ``shape`` is
    the array's, so that the room check of ``_simple_transform`` reads the
    same ulen.  ``feed`` is ``_plane_feed``'s, None over F_2 and F_3."""

    __slots__ = ("p", "r", "L", "shape", "weights", "log", "antilog", "feed", "wmask", "cols")

    def __init__(self, fs: FieldSpec, WU: np.ndarray, L: int, ulen: int | None = None):
        r = WU.shape[1]
        parts = [WU[:r, :, :L]] if ulen is not None else [WU[:r, :, :L], WU[r:]]
        self.shape = (2 * r, r, WU.shape[2] if ulen is None else ulen)
        self.p, self.r, self.L, self.wmask = fs.p, r, L, (1 << r * L) - 1
        w = fs.e if fs.p == 2 else 2 * fs.e
        self.weights = _plane_weights(fs.p, fs.e).tolist()
        self.log, self.antilog, _ = _plane_tables(fs.p, fs.e)
        self.feed = None if fs.e == 1 else _plane_feed(fs.p, fs.e)
        # (row, column, degree) -> (column, degree r + row), W then U
        seq = [a.astype(np.uint16).transpose(1, 2, 0).reshape(r, -1) for a in parts]
        planes = _planes(fs, np.concatenate(seq, axis=1))
        self.cols = [planes[i : i + w] for i in range(0, len(planes), w)]
        if ulen is not None:
            for j, col in enumerate(self.cols):
                col[0] |= 1 << r * L + j

    def pivots(self) -> tuple[list[int], list[int]]:
        """(degrees, pivots) of the columns of W, as ``_column_pivots``,
        read from bit lengths as ``_simple_transform`` reads them."""
        r, degrees, pivots = self.r, [], []
        for col in self.cols:
            w = functools.reduce(operator.or_, col) & self.wmask
            d = (w.bit_length() - 1) // r  # -1 for a zero column
            top = w >> max(d, 0) * r
            degrees.append(d)
            pivots.append((top & -top).bit_length() - 1)
        return degrees, pivots


@functools.cache
def _plane_feed(p: int, e: int) -> list[list[tuple]]:
    """``_plane_tables``' feed of -c per code c, flattened: (out-plane,
    in-plane) over p = 2, (out ones-plane, in ones-plane, in twos-plane)
    over p = 3."""
    feeds = _plane_tables(p, e)[2]
    if p == 2:
        return [[(j, i) for j, f in enumerate(fd) for i in f] for fd in feeds]
    return [[(2 * j, i, i2) for j, f in enumerate(fd) for i, i2 in f] for fd in feeds]


def weak_popov(basis: LatticeBasis) -> ReducedBasis:
    """Column reduction to weak Popov form with tracked transformation,
    on one augmented array (``_augmented``) of the basis over U.  The
    scaled basis is a polynomial matrix, so deg det >= 0 sizes U's room."""
    fs = basis.field
    M, W0 = basis.packed()
    r = basis.rank
    degrees, pivots = (a.tolist() for a in _column_pivots(W0))
    L = W0.shape[2]
    WU, W, U = _augmented(W0, L, max(L, _transform_room(degrees, 0)))
    udegrees = [0] * r
    _reduce_packed(fs, WU, degrees, pivots, udegrees)
    return ReducedBasis(fs, r, M, basis.window, W, U, degrees, pivots, udegrees)


def delta(basis: LatticeBasis | ReducedBasis) -> DeltaValue:
    """Depth Delta(Lambda) = -log_s of the first successive minimum."""
    red = basis if isinstance(basis, ReducedBasis) else weak_popov(basis)
    certified, needed = red.certification()
    value = red.scale - min(red.degrees)
    return DeltaValue(int(value), certified, needed)


def successive_minima(basis: LatticeBasis | ReducedBasis) -> MinimaProfile:
    """Sorted exponents e_1 <= ... <= e_r with lambda_i = s^(e_i)."""
    red = basis if isinstance(basis, ReducedBasis) else weak_popov(basis)
    certified, needed = red.certification()
    exps = tuple(sorted(d - red.scale for d in red.degrees))
    return MinimaProfile(exps, certified, needed)


# ---------------------------------------------------------------------------
# short-vector enumeration (independent of the reduction path)


def _poly_det_degree(fs: FieldSpec, P: np.ndarray) -> int:
    """Exact degree of det of a packed polynomial matrix, cofactor expansion."""
    r = P.shape[0]

    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> np.ndarray:
        if len(rows) == 1:
            return P[rows[0], cols[0], :].copy()
        i = rows[0]
        total = np.zeros(1, dtype=np.int64)
        for t, j in enumerate(cols):
            a = P[i, j, :]
            if not a.any():
                continue
            sub = det(rows[1:], cols[:t] + cols[t + 1 :])
            term = fs.polymul(a, sub)
            if t % 2:
                term = fs.neg_arr(term)
            n = max(total.size, term.size)
            padded = np.zeros(n, dtype=np.int64)
            padded[: total.size] = total
            padded[: term.size] = fs.add_arr(padded[: term.size], term)
            total = padded
        return total

    d = det(tuple(range(r)), tuple(range(r)))
    nz = np.nonzero(d)[0]
    if nz.size == 0:
        raise LatticeError("singular basis (zero determinant)")
    return int(nz.max())


def _nullspace(fs: FieldSpec, A: np.ndarray) -> np.ndarray:
    """Basis of the right nullspace of A over F_s, rows = basis vectors.

    A row of the echelon form of [A^T | I] is v^T [A^T | I] for some v; if
    its pivot lies in the I part, its A^T part is zero, so A v = 0 and the
    row read on I is v.  The n - rank(A) such rows have distinct pivots."""
    m, n = A.shape
    E, pivots = fs._echelon(np.hstack([A.T, np.eye(n, dtype=np.int64)]))
    return E[pivots >= m, m:]


def enumerate_short_vectors(
    basis: LatticeBasis, norm_bound: float, cap: int = _DEFAULT_ENUM_CAP
) -> list[tuple[LaurentSeries, ...]]:
    """All nonzero lattice vectors with max-norm <= norm_bound, in sorted
    order: the rows of the array walk ``_short_vector_array`` (which
    ``dioph.mult_solutions`` reads directly) as tuples of series.  Raises
    EnumerationCapError, before any vector is built, above ``cap``.
    """
    M, W = _short_vector_array(basis, norm_bound, cap)
    return _series_rows(basis.field, M, basis.window, W)


def _short_vector_array(basis: LatticeBasis, norm_bound: float, cap: int, monic=False):
    """(M, W) with W[k, i, d] the X^d coefficient of coordinate i of X^M v_k
    for the short vectors v_k, rows in lexicographic order; with ``monic``
    only the rows whose first nonzero code is 1, one per unit class.

    The search box for integer coefficient vectors q is provable: from
    w = B q and Cramer, deg q_j is at most (sum of the r-1 largest column
    degrees of the scaled basis) + deg(w) - deg(det).  Inside the box the
    search is complete, and it is resolved as an F_s kernel computation on
    the coefficient constraints.
    """
    fs = basis.field
    r = basis.rank
    M, P = basis.packed()
    none = (M, np.zeros((0, r, 1), dtype=np.int64))
    if norm_bound <= 0:
        return none
    delta_cap = math.floor(math.log(norm_bound) / math.log(fs.s) + 1e-9) + M
    if basis.window is not None and delta_cap <= M - basis.window:
        raise CertificationError(
            "norm bound below the truncation floor",
            needed_precision=M - delta_cap + 1,
        )
    if delta_cap < 0:
        return none
    col_degs = sorted(_column_pivots(P)[0].tolist(), reverse=True)
    det_deg = _poly_det_degree(fs, P)
    qdeg = sum(col_degs[: r - 1]) + delta_cap - det_deg
    if basis.window is not None:
        err_cap = M - basis.window + max(qdeg, 0)
        if err_cap >= 0 and delta_cap <= err_cap:
            raise CertificationError(
                "norm bound below the truncation floor",
                needed_precision=M + max(qdeg, 0) + 1,
            )
    if qdeg < 0:
        return none
    W = _enumerate_kernel(fs, P, delta_cap, qdeg, cap, monic)
    if basis.window is not None:
        # rows with a coefficient at an index >= window have no series at
        # that window: converting the first one (monic, as a unit multiple
        # keeps the support) raises its PrecisionError
        deep = W[:, :, : M - basis.window + 1].any(axis=(1, 2))
        if deep.any():
            _series_rows(fs, M, basis.window, W[deep][:1])
    return M, W


def _series_rows(fs, M: int, window, W) -> list[tuple[LaurentSeries, ...]]:
    """Rows of a short-vector array as tuples of series (window ``window``)."""
    lo = M - W.shape[2] + 1
    return [tuple(LaurentSeries(fs, lo, c[::-1], window) for c in w) for w in W]


def _apply_q(fs, P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """w = (X^M B) q for packed P [r,r,L] and q [r, Q+1]; returns [r, L+Q]."""
    out = fs.polymul(P[:, 0, :], q[0])
    for j in range(1, P.shape[0]):
        out = fs.add_arr(out, fs.polymul(P[:, j, :], q[j]))
    return out


def _enumerate_kernel(fs, P, delta_cap, qdeg, cap, monic=False) -> np.ndarray:
    """w = P q (the monic ones with ``monic``) in lexicographic order, as
    (rows, r, L + qdeg), over the q in the box with deg w <= delta_cap.

    Those q form the F_s kernel of the coefficient constraints above
    delta_cap.  P is nonsingular, so every nonzero kernel combination is a
    distinct solution and its image is the same combination of the kernel
    basis's images.
    """
    r, _, L = P.shape
    width = qdeg + 1
    n_rows = max(L + qdeg - 1 - delta_cap, 0)  # w degrees delta_cap+1 .. L+qdeg-1
    # A[i, t, j, d] = coefficient of X^(delta_cap+1+t) in row i of P[:, j] X^d
    A = np.zeros((r, n_rows, r, width), dtype=np.int64)
    for d in range(width):
        lo = delta_cap + 1 - d
        a, b = max(0, -lo), min(n_rows, L - lo)
        if a < b:
            A[:, a:b, :, d] = P[:, :, lo + a : lo + b].transpose(0, 2, 1)
    null = _nullspace(fs, A.reshape(r * n_rows, r * width))
    dim = null.shape[0]
    count = fs.s**dim - 1
    if count > cap:
        raise EnumerationCapError(f"{count} vectors below the bound exceeds cap {cap}")
    if not count:
        return np.zeros((0, r, L + qdeg), dtype=np.int64)
    images = np.stack(
        [_apply_q(fs, P, q) for q in null.reshape(dim, r, width)]
    ).reshape(dim, -1)
    return _combinations(fs, images, monic).reshape(-1, r, L + qdeg)


def _combinations(fs, images: np.ndarray, monic: bool = False) -> np.ndarray:
    """The nonzero F_s-combinations of the independent rows of ``images``,
    in lexicographic order; with ``monic`` only those whose first nonzero
    code is 1.  Over the reduced echelon form E with unit pivots c_0 < c_1
    < ..., sum a_i E_i reads a_i at c_i and depends on a_0..a_i only up to
    c_(i+1), so the combinations sort as their digits, E_0's outermost.
    Every row is written once, into the one array returned.
    """
    E, pivots = fs._echelon(images)
    if (pivots < 0).any():
        raise LatticeError("kernel images are linearly dependent")
    E, pivots = E[np.argsort(pivots)], np.sort(pivots)
    for i, c in enumerate(pivots.tolist()):  # rows below i are zero at c
        E[i] = fs.scale_arr(fs.inv(int(E[i, c])), E[i])
        E[:i] = fs.submul_arr(E[:i], E[:i, c : c + 1], E[i])
    s, (dim, width) = fs.s, E.shape
    total = (s**dim - 1) // (s - 1) if monic else s**dim
    out = np.zeros((total, width), dtype=np.int64)
    # out's last rows: the walk over E, or with monic E_0's block, E_0 plus
    # the walk over E[1:]; row c m + j of the next walk is row j + c image
    W, m = out[total - s ** (dim - monic) :], 1
    W[0] = E[0] if monic else 0
    minus = fs.neg_arr(np.arange(1, s, dtype=np.int64))[:, None, None]
    for image in E[: 0 if monic else None : -1]:
        fs.submul_arr(W[:m], minus, image, out=W[m : s * m].reshape(s - 1, m, width))
        m *= s
    # the block of E_i, i > 0: E_i - E_0 plus the first s^(dim-1-i) rows of E_0's
    for k, image in enumerate(E[:0:-1] if monic else ()):
        at = (s**k - 1) // (s - 1)
        fs.submul_arr(W[: s**k], fs.neg(1), fs.sub_arr(image, E[0]), out=out[at : at + s**k])
    return out if monic else W[1:]
