"""Arithmetic over F_s and the Laurent-tail field F_s((1/X)).

Conventions used throughout the package: a series is written along descending
powers of X, a = sum_{i >= v} a_i X^(-i), so polynomials occupy indices <= 0.
The least index v with a_v != 0 is the valuation and |a| = s^(-v).  Every
series value carries the window of indices on which its coefficients are
actually known (all indices below ``prec``); operations propagate the tightest
window justified by their inputs, and queries that the window cannot decide
raise ``PrecisionError`` instead of guessing.

Field elements are encoded as integers in [0, s).  For prime fields the code
is the residue itself; for extensions it is the base-p digit expansion in a
root of the stored modulus (the polynomial basis of Lidl and Niederreiter,
Finite Fields, ch. 2).  Extension fields of order up to ``_TABLE_MAX_ORDER``
multiply, negate and (for odd p) add by lookup in (s, s) and s-entry tables;
larger ones multiply through discrete-log tables and add digit by digit.
Prime fields up to the same order reduce their integer results by lookup in
a p^2-entry residue table, larger ones by ``% p``.  Over p = 2 addition is
XOR of codes at every order.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from .errors import FieldError, PrecisionError

_MAX_ORDER = 65536
# largest extension order that gets (s, s) product and sum tables, 8 MB each,
# and largest prime that gets a residue table of the same size
_TABLE_MAX_ORDER = 1024
# float64 holds every integer below 2^53 exactly
_FLOAT_EXACT = 2**53

_FIELD_CACHE: dict[tuple[int, int], "FieldSpec"] = {}


def field_spec(p: int, e: int = 1) -> "FieldSpec":
    """Return a cached FieldSpec for F_(p^e)."""
    key = (p, e)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldSpec(p, e)
    return _FIELD_CACHE[key]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e for a prime p; None when q is not a prime power."""
    factors = _prime_factors(q) if q >= 2 else []
    if len(factors) != 1:
        return None
    p, e = factors[0], 0
    while q > 1:
        q //= p
        e += 1
    return p, e


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e over F_p with the smallest coefficient code.

    Candidates X^e + sum c_i X^i are ordered by sum c_i p^i and checked by
    trial division against every monic polynomial of degree <= e // 2.
    """
    if e == 1:
        return (0, 1)
    fp = field_spec(p)
    divisors = []
    for d in range(1, e // 2 + 1):
        for code in range(p**d):
            low = [(code // p**i) % p for i in range(d)]
            divisors.append(np.array(low + [1]))
    for code in range(p**e):
        cand = [(code // p**i) % p for i in range(e)] + [1]
        if all(fp.polydivmod(np.array(cand), den)[1].size for den in divisors):
            return tuple(cand)
    raise FieldError(f"no irreducible of degree {e} over F_{p}")  # unreachable


class FieldSpec:
    """Parameters and element arithmetic for F_s, s = p^e.

    Elements are integer codes in [0, s).  Scalar methods take and return
    Python ints; the ``*_arr`` methods operate elementwise on numpy int64
    arrays and are the building blocks for the polynomial and series layers.
    """

    __slots__ = (
        "p",
        "e",
        "s",
        "modulus",
        "_log",
        "_antilog",
        "_add_table",
        "_mul_table",
        "_neg_table",
        "_residues",
        "_digits",
        "_powers",
    )

    def __init__(self, p: int, e: int = 1):
        if not _is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if e < 1:
            raise FieldError(f"extension degree must be >= 1, got {e}")
        s = p**e
        if s > _MAX_ORDER:
            raise FieldError(f"field order {s} exceeds the supported cap {_MAX_ORDER}")
        self.p = p
        self.e = e
        self.s = s
        self.modulus = _smallest_irreducible(p, e)
        if e > 1:
            self._powers = np.array([p**i for i in range(e)], dtype=np.int64)
            self._digits = np.arange(s, dtype=np.int64)[:, None] // self._powers % p
            self._build_log_tables()
        else:
            self._digits = None
            self._powers = None
            self._log = None
            self._antilog = None
        self._add_table = self._mul_table = self._neg_table = self._residues = None
        if s <= _TABLE_MAX_ORDER:
            self._build_op_tables()

    # -- extension bootstrap -------------------------------------------------
    #
    # Multiplication by a fixed element c is F_p-linear on digit vectors; its
    # matrix has the digits of c * x^k in column k, x the root of the modulus.

    def _mul_matrix(self, c: int) -> np.ndarray:
        p, e = self.p, self.e
        comp = np.zeros((e, e), dtype=np.int64)  # multiplication by x
        comp[1:, :-1] = np.eye(e - 1, dtype=np.int64)
        comp[:, -1] = (-np.array(self.modulus[:e])) % p
        out = np.zeros((e, e), dtype=np.int64)
        power = np.eye(e, dtype=np.int64)
        for digit in self._digits[c]:
            out = (out + digit * power) % p
            power = comp @ power % p
        return out

    def _matpow(self, m: np.ndarray, n: int) -> np.ndarray:
        out = np.eye(self.e, dtype=np.int64)
        while n:
            if n & 1:
                out = out @ m % self.p
            m = m @ m % self.p
            n >>= 1
        return out

    def _build_log_tables(self) -> None:
        """Discrete-log tables from the smallest multiplicative generator.

        The antilog table is the orbit of 1 under the generator's matrix,
        filled by doubling: rows [m, 2m) are rows [0, m) times the m-th power.
        """
        order = self.s - 1
        factors = _prime_factors(order)
        one = np.zeros(self.e, dtype=np.int64)
        one[0] = 1
        gen_matrix = None
        for cand in range(2, self.s):
            m = self._mul_matrix(cand)
            # column 0 of m^k holds the digits of cand^k
            if all((self._matpow(m, order // f)[:, 0] != one).any() for f in factors):
                gen_matrix = m
                break
        if gen_matrix is None:
            raise FieldError("no multiplicative generator found")  # unreachable
        orbit = one[None, :]
        step = gen_matrix.T
        while orbit.shape[0] < order:
            orbit = np.concatenate((orbit, orbit @ step % self.p))
            step = step @ step % self.p
        antilog = orbit[:order] @ self._powers
        log = np.full(self.s, -1, dtype=np.int64)
        log[antilog] = np.arange(order)
        self._antilog = antilog
        self._log = log

    def _build_op_tables(self) -> None:
        """Product and negation tables; a sum table only for odd p, since
        ``add_arr`` XORs codes over p = 2.  A prime field gets the residue
        table x -> x mod p on [0, p^2) instead."""
        p, d = self.p, self._digits
        if self.e == 1:
            self._residues = np.arange(p * p, dtype=np.int64) % p
            return
        lg = self._log[1:]
        self._mul_table = np.zeros((self.s, self.s), dtype=np.int64)
        self._mul_table[1:, 1:] = self._antilog[(lg[:, None] + lg) % (self.s - 1)]
        self._neg_table = (-d) % p @ self._powers
        if p > 2:
            self._add_table = (d[:, None, :] + d[None, :, :]) % p @ self._powers

    # -- scalar element ops ----------------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.s:
            raise FieldError(f"element code {a} outside [0, {self.s})")
        return int(a)

    def add(self, a: int, b: int) -> int:
        return int(self.add_arr(np.int64(a), np.int64(b)))

    def neg(self, a: int) -> int:
        return int(self.neg_arr(np.int64(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return int(self._mul_table[a, b])
        if a == 0 or b == 0:
            return 0
        return int(self._antilog[(self._log[a] + self._log[b]) % (self.s - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._antilog[(-self._log[a]) % (self.s - 1)])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise FieldError("inverse of zero")
            return 0 if n else 1
        if self.e == 1:
            return pow(a, n % (self.p - 1), self.p) if self.p > 2 else 1
        k = (self._log[a] * n) % (self.s - 1)
        return int(self._antilog[k])

    # -- vectorized element ops ------------------------------------------------
    #
    # A two-operand table is read at the flat index a * s + b, which numpy
    # takes in about half the time of the pair index [a, b].  The products
    # are written over the index array, so a lookup holds one array of the
    # output's size, as the pair index does; every index is in range, and
    # "wrap" is the mode in which numpy's take writes in place (it copies
    # under "raise").
    #
    # A prime field's integer result x is reduced the same way, at x in the
    # residue table: "wrap" reads x modulo p^2, a multiple of p, so every x
    # in (-p^2, 2 p^2) costs one lookup, which beats numpy's integer % p.

    def _lookup(self, table: np.ndarray, a, b, out=None) -> np.ndarray:
        return _take(table, np.asarray(a, dtype=np.int64) * self.s + b, out)

    def _mod(self, x, out=None) -> np.ndarray:
        """x mod p for a fresh int64 result x of an e = 1 kernel, over x or in out."""
        if self._residues is None:
            return np.remainder(x, self.p, out=out)
        return _take(self._residues, x, out)

    def add_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.e == 1:
            return self._mod(a + b)
        if self._add_table is not None:
            return self._lookup(self._add_table, a, b)
        d = (self._digits[a] + self._digits[b]) % self.p
        return d @ self._powers

    def neg_arr(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.asarray(a).copy()
        if self.e == 1:
            return self._mod(-a)
        if self._neg_table is not None:
            return self._neg_table.take(a)
        d = (-self._digits[a]) % self.p
        return d @ self._powers

    def sub_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add_arr(a, self.neg_arr(b))

    def submul_arr(self, a: np.ndarray, c, b: np.ndarray, out=None) -> np.ndarray:
        """a - c b, for a code c or a code array c broadcast against b: the
        one update of every elimination step.  Written into ``out`` if given,
        which may be a itself (a view disjoint from b), as the reduction does."""
        if self.p == 2:
            if isinstance(c, np.ndarray) or c > 1:
                b = c & b if self.e == 1 else self.mul_arr(c, b)
            elif not c:
                b = 0
            return np.bitwise_xor(a, b, out=out)
        if self.e == 1:
            return self._mod(a - c * b, out)
        b = self.mul_arr(self.neg_arr(c), b)
        if self._add_table is not None:
            return self._lookup(self._add_table, a, b, out)
        return np.matmul((self._digits[a] + self._digits[b]) % self.p, self._powers, out=out)

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return self._mod(a * b)
        if self._mul_table is not None:
            return self._lookup(self._mul_table, a, b)
        a = np.asarray(a)
        b = np.asarray(b)
        out = self._antilog[(self._log[a] + self._log[b]) % (self.s - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv_arr(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        if (a == 0).any():
            raise FieldError("inverse of zero")
        if self.e > 1:
            return self._antilog[(-self._log[a]) % (self.s - 1)]
        # a^(p-2) by square and multiply; products stay below p^2 < 2^63
        out = np.ones_like(a)
        base, n = a, self.p - 2
        while n:
            if n & 1:
                out = out * base % self.p
            base = base * base % self.p
            n >>= 1
        return out

    def scale_arr(self, c: int, a: np.ndarray) -> np.ndarray:
        if c == 0:
            return np.zeros_like(a)
        if c == 1:
            return np.asarray(a).copy()
        if self.e == 1:
            return self._mod(c * a)
        if self._mul_table is not None:
            return self._mul_table[c].take(a)
        return self.mul_arr(np.int64(c), a)

    # -- polynomial kernels ----------------------------------------------------
    #
    # Coefficient arrays run in ascending degree.  These are the only
    # polynomial product, division and series inverse in the package
    # (schoolbook products and division, von zur Gathen and Gerhard, Modern
    # Computer Algebra, ch. 2).

    def polymul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of the int64 coefficient arrays a and b, not trimmed.

        a may carry leading batch axes.  A 1-D b multiplies every row of a
        along its last axis; a b with the same batch axes as a multiplies
        row by row.  The result has length a.shape[-1] + b.shape[-1] - 1 on
        that axis, or 0 when either factor is empty.

        Over a prime field, rows of a no longer than a 1-D b multiply as
        one float64 matmul against b's Toeplitz matrix.  Each entry is an
        integer sum of at most na products below p^2, so it is exact while
        (p - 1)^2 na < 2^53; a longer a keeps the loop below.
        """
        na, nb = a.shape[-1], b.shape[-1]
        if na == 0 or nb == 0:
            return np.zeros(a.shape[:-1] + (0,), dtype=np.int64)
        if self.e == 1 and a.ndim == 1:
            return np.convolve(a, b) % self.p
        if b.ndim > 1:
            return self._polymul_rows(a, b)
        if self.e == 1 and na <= nb and (self.p - 1) ** 2 * na < _FLOAT_EXACT:
            return self._polymul_toeplitz(a, b)
        if a.ndim == 1 and na < nb:
            a, b, na, nb = b, a, nb, na
        # one shifted copy of the long operand per nonzero coefficient of the
        # short one; the first copy lands on zeros and needs no addition
        out = np.zeros(a.shape[:-1] + (na + nb - 1,), dtype=np.int64)
        fresh = True
        for i, c in enumerate(b.tolist()):
            if c:
                seg = self.scale_arr(c, a)
                if not fresh:
                    seg = self.add_arr(out[..., i : i + na], seg)
                out[..., i : i + na] = seg
                fresh = False
        return out

    def _polymul_toeplitz(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``polymul`` over F_p as a @ T, T[d, k] = b[k - d]: row d of T is
        b shifted right by d.  Rows of length w + 1 holding b then zeros,
        read back at length w, put each row one place right of the last."""
        na, nb = a.shape[-1], b.shape[-1]
        w = na + nb - 1
        rows = np.zeros((na, w + 1))
        rows[:, :nb] = b
        toeplitz = rows.reshape(-1)[: na * w].reshape(na, w)
        return (a @ toeplitz).astype(np.int64) % self.p

    def _polymul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``polymul`` when b carries a's batch axes: one product per row."""
        if a.shape[-1] < b.shape[-1]:
            a, b = b, a
        na, nb = a.shape[-1], b.shape[-1]
        out = np.zeros(a.shape[:-1] + (na + nb - 1,), dtype=np.int64)
        for i in range(nb):
            if self.e == 1:
                # each term is below p^2 and at most nb of them pile up
                out[..., i : i + na] += a * b[..., i : i + 1]
            else:
                seg = self.mul_arr(a, b[..., i : i + 1])
                out[..., i : i + na] = self.add_arr(out[..., i : i + na], seg)
        return out % self.p if self.e == 1 else out

    def polyinv(self, a: np.ndarray, n: int) -> np.ndarray:
        """Inverse of the power series a modulo y^n, length n.

        a runs in ascending powers of y, may carry leading batch axes and
        must have a nonzero constant term in every row.  Newton iteration
        (von zur Gathen and Gerhard, ch. 9): if c inverts a modulo y^m and
        a c = 1 + y^m d, then c - y^m c d inverts it modulo y^(2m).
        """
        a = a[..., :n]
        if a.shape[-1] < n:
            pad = [(0, 0)] * (a.ndim - 1) + [(0, n - a.shape[-1])]
            a = np.pad(a, pad)
        c = self.inv_arr(a[..., :1])
        m = 1
        while m < n:
            m2 = min(2 * m, n)
            d = self.polymul(a[..., :m2], c)[..., m:m2]
            c = np.concatenate((c, self.neg_arr(self.polymul(c, d)[..., : m2 - m])), axis=-1)
            m = m2
        return c

    def polydivmod(
        self, num: np.ndarray, den: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(quotient, remainder) of num by den; den's last coefficient must be
        nonzero.  The remainder is trimmed, the quotient is not."""
        if den.size == 0:
            raise FieldError("polynomial division by zero")
        rem = np.array(num, dtype=np.int64)
        dd = den.size - 1
        lead_inv = self.inv(int(den[-1]))
        # c * neg_den clears a leading coefficient c: one add per quotient term
        neg_den = self.scale_arr(self.neg(lead_inv), den)
        quo = np.zeros(max(rem.size - dd, 0), dtype=np.int64)
        for k in range(rem.size - 1, dd - 1, -1):
            c = int(rem[k])
            if c:
                quo[k - dd] = self.mul(c, lead_inv)
                seg = self.scale_arr(c, neg_den)
                rem[k - dd : k + 1] = self.add_arr(rem[k - dd : k + 1], seg)
        return quo, _trim_poly(rem[:dd])

    def rank_profile(self, a: np.ndarray) -> np.ndarray:
        """Boolean per row of the 2-D code array a: whether the row is
        independent of the rows above it, so the rank of the first k rows is
        the number of True among them."""
        return self.pivot_columns(a) >= 0

    def pivot_columns(self, a: np.ndarray) -> np.ndarray:
        """Per row of the 2-D code array a, its pivot column, or -1 when the
        row depends on the rows above it (``_echelon``).  The rank of the
        first k rows on the first c columns is the number of pivots below c
        among them."""
        return self._echelon(a)[1]

    def _echelon(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(echelon form, pivots) of the 2-D code array a, rows in place.

        Elimination in row order: the first row left with a nonzero entry
        is the next pivot row, kept as it is, and its leftmost nonzero
        column is cleared from the rows below.  A row that depends on the
        rows above it is zero by its turn, and its pivot is -1.  Each step
        adds a multiple of that column to later columns only, so it keeps
        the rank of every set of rows on every leading set of columns.
        """
        r = np.array(a, dtype=np.int64)
        pivots = np.full(r.shape[0], -1, dtype=np.int64)
        row = 0
        while row < r.shape[0]:
            live = r[row:].any(axis=1)
            step = int(live.argmax())
            if not live[step]:
                break
            row += step
            col = int(r[row].astype(bool).argmax())
            pivots[row] = col
            below = r[row + 1 :]
            lead = self.scale_arr(self.inv(int(r[row, col])), below[:, col])
            r[row + 1 :] = self.submul_arr(below, lead[:, None], r[row])
            row += 1
        return r, pivots

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, e={self.e})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))


def _take(table: np.ndarray, idx, out=None) -> np.ndarray:
    """table[idx] at wrapped indices, written into ``out`` or over an index array."""
    return table.take(idx, out=idx if out is None and np.ndim(idx) else out, mode="wrap")


def _trim_poly(coeffs: np.ndarray) -> np.ndarray:
    if coeffs.size and coeffs[-1]:
        return coeffs  # the common case: no scan for the last nonzero
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        return coeffs[:0]
    return coeffs[: nz[-1] + 1]


def _check_codes(fs: FieldSpec, arr: np.ndarray) -> None:
    """Raise FieldError unless every code of ``arr`` lies in [0, s)."""
    if arr.size and ((arr < 0).any() or (arr >= fs.s).any()):
        raise FieldError("coefficient code out of range")


def _stack(vectors) -> np.ndarray:
    """Vectors of k code arrays as one zero-padded array (count, k, width)."""
    width = max([1] + [len(t) for vec in vectors for t in vec])
    out = np.zeros((len(vectors), len(vectors[0]), width), dtype=np.int64)
    for row, vec in zip(out, vectors):
        for coords, t in zip(row, vec):
            coords[: len(t)] = t
    return out


class Poly:
    """Polynomial in X over a FieldSpec, coefficients ascending by degree."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        arr = np.array(coeffs, dtype=np.int64).reshape(-1)
        _check_codes(field, arr)
        arr = _trim_poly(arr)
        arr.setflags(write=False)
        self.field = field
        self.coeffs = arr

    @classmethod
    def _view(cls, field: FieldSpec, coeffs: np.ndarray) -> "Poly":
        """A Poly on ``coeffs`` itself: checked, trimmed, read-only codes."""
        poly = object.__new__(cls)
        poly.field, poly.coeffs = field, coeffs
        return poly

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls(field, [1])

    @classmethod
    def x_power(cls, field: FieldSpec, d: int, c: int = 1) -> "Poly":
        if d < 0:
            raise FieldError("polynomial powers must be >= 0")
        coeffs = [0] * d + [c]
        return cls(field, coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return int(self.coeffs.size) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise FieldError("zero polynomial has no leading coefficient")
        return int(self.coeffs[-1])

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        c = self.field.inv(self.leading)
        return Poly(self.field, self.field.scale_arr(c, self.coeffs))

    def _binop(self, other: "Poly", fn) -> "Poly":
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n, dtype=np.int64)
        b = np.zeros(n, dtype=np.int64)
        a[: self.coeffs.size] = self.coeffs
        b[: other.coeffs.size] = other.coeffs
        return Poly(self.field, fn(a, b))

    def __add__(self, other: "Poly") -> "Poly":
        return self._binop(other, self.field.add_arr)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._binop(other, self.field.sub_arr)

    def __neg__(self) -> "Poly":
        return Poly(self.field, self.field.neg_arr(self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.field, self.field.polymul(self.coeffs, other.coeffs))

    def scale(self, c: int) -> "Poly":
        return Poly(self.field, self.field.scale_arr(c, self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        quo, rem = self.field.polydivmod(self.coeffs, other.coeffs)
        return Poly(self.field, quo), Poly(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return hash((self.field, tuple(int(c) for c in self.coeffs)))

    def __str__(self) -> str:
        pairs = [(d, int(c)) for d, c in enumerate(self.coeffs) if c]
        return _format_terms(pairs)

    def __repr__(self) -> str:
        return f"Poly({self.field.p}^{self.field.e}: {self})"


class LaurentSeries:
    """Element of F_s((1/X)) known on a coefficient window.

    ``coeffs[j]`` is the coefficient of X^-(v + j); the array is trimmed so
    that, when nonempty, both ends are nonzero.  ``prec`` is the first index
    whose coefficient is unknown (None when every remaining coefficient is
    known to vanish, i.e. the value is exact).
    """

    __slots__ = ("field", "v", "coeffs", "prec")

    def __init__(self, field: FieldSpec, v: int, coeffs, prec: int | None = None):
        arr = np.array(coeffs, dtype=np.int64).reshape(-1)
        _check_codes(field, arr)
        nz = np.nonzero(arr)[0]
        if nz.size:
            lead, last = int(nz[0]), int(nz[-1])
            arr = arr[lead : last + 1]
            v = v + lead
            if prec is not None and v + arr.size > prec:
                raise PrecisionError(
                    f"coefficients listed up to index {v + arr.size - 1} "
                    f"but window ends at {prec}"
                )
        else:
            arr = arr[:0]
            v = 0
        arr.setflags(write=False)
        self.field = field
        self.v = v
        self.coeffs = arr
        self.prec = prec

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec) -> "LaurentSeries":
        return cls(field, 0, [], None)

    @classmethod
    def zero_window(cls, field: FieldSpec, prec: int) -> "LaurentSeries":
        return cls(field, 0, [], prec)

    @classmethod
    def one(cls, field: FieldSpec) -> "LaurentSeries":
        return cls(field, 0, [1], None)

    @classmethod
    def x_power(cls, field: FieldSpec, k: int, c: int = 1) -> "LaurentSeries":
        """The monomial c * X^k (exact)."""
        return cls(field, -k, [c], None)

    @classmethod
    def from_poly(cls, poly: Poly) -> "LaurentSeries":
        return cls(poly.field, -poly.degree, poly.coeffs[::-1].copy(), None)

    @classmethod
    def from_pairs(
        cls, field: FieldSpec, pairs: dict[int, int], prec: int | None = None
    ) -> "LaurentSeries":
        if not pairs:
            return cls(field, 0, [], prec)
        lo = min(pairs)
        hi = max(pairs)
        arr = np.zeros(hi - lo + 1, dtype=np.int64)
        for i, c in pairs.items():
            arr[i - lo] = c
        return cls(field, lo, arr, prec)

    # -- structure ------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.prec is None

    @property
    def is_exact_zero(self) -> bool:
        return self.coeffs.size == 0 and self.prec is None

    @property
    def has_leading_term(self) -> bool:
        return self.coeffs.size > 0

    def valuation(self) -> int | float:
        """Least index with nonzero coefficient; +inf for exact zero."""
        if self.coeffs.size:
            return self.v
        if self.prec is None:
            return math.inf
        raise PrecisionError(
            f"series vanishes through index {self.prec - 1}; valuation indeterminate"
        )

    def abs_value(self) -> float:
        """|a| = s^(-v); 0.0 for exact zero."""
        val = self.valuation()
        if val is math.inf:
            return 0.0
        return float(self.field.s) ** (-val)

    def coeff_at(self, i: int) -> int:
        if self.prec is not None and i >= self.prec:
            raise PrecisionError(f"coefficient at index {i} outside window (< {self.prec})")
        j = i - self.v
        if self.coeffs.size and 0 <= j < self.coeffs.size:
            return int(self.coeffs[j])
        return 0

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Dense coefficients for indices lo..hi-1; must lie in the window."""
        if self.prec is not None and hi > self.prec:
            raise PrecisionError(f"window [{lo}, {hi}) exceeds precision {self.prec}")
        out = np.zeros(hi - lo, dtype=np.int64)
        if self.coeffs.size:
            a = max(lo, self.v)
            b = min(hi, self.v + self.coeffs.size)
            if a < b:
                out[a - lo : b - lo] = self.coeffs[a - self.v : b - self.v]
        return out

    def last_listed_index(self) -> int | None:
        """Index of the deepest stored nonzero coefficient, None if none."""
        if self.coeffs.size == 0:
            return None
        return self.v + self.coeffs.size - 1

    # -- arithmetic -------------------------------------------------------------

    def _require_same_field(self, other: "LaurentSeries") -> None:
        if self.field != other.field:
            raise FieldError("mixed fields in series arithmetic")

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._require_same_field(other)
        prec = _min_prec(self.prec, other.prec)
        idx = []
        if self.coeffs.size:
            idx.append((self.v, self.v + self.coeffs.size))
        if other.coeffs.size:
            idx.append((other.v, other.v + other.coeffs.size))
        if not idx:
            return LaurentSeries(self.field, 0, [], prec)
        lo = min(a for a, _ in idx)
        hi = max(b for _, b in idx)
        if prec is not None:
            hi = min(hi, prec)
        if hi <= lo:
            return LaurentSeries(self.field, 0, [], prec)
        a = self.window(lo, hi) if self.coeffs.size else np.zeros(hi - lo, dtype=np.int64)
        b = other.window(lo, hi) if other.coeffs.size else np.zeros(hi - lo, dtype=np.int64)
        return LaurentSeries(self.field, lo, self.field.add_arr(a, b), prec)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(
            self.field, self.v, self.field.neg_arr(self.coeffs), self.prec
        )

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._require_same_field(other)
        fs = self.field
        if self.is_exact_zero or other.is_exact_zero:
            return LaurentSeries.zero(fs)
        va = self.v if self.coeffs.size else self.prec
        vb = other.v if other.coeffs.size else other.prec
        pa = _shift_prec(self.prec, vb)
        pb = _shift_prec(other.prec, va)
        prec = _min_prec(pa, pb)
        if self.coeffs.size == 0 or other.coeffs.size == 0:
            return LaurentSeries(fs, 0, [], prec)
        conv = fs.polymul(self.coeffs, other.coeffs)
        lo = self.v + other.v
        if prec is not None and lo + conv.size > prec:
            conv = conv[: max(prec - lo, 0)]
        return LaurentSeries(fs, lo, conv, prec)

    def scale(self, c: int) -> "LaurentSeries":
        if c == 0:
            return LaurentSeries.zero(self.field) if self.is_exact else LaurentSeries(
                self.field, 0, [], self.prec
            )
        return LaurentSeries(
            self.field, self.v, self.field.scale_arr(c, self.coeffs), self.prec
        )

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by X^k (indices move down by k)."""
        if self.coeffs.size == 0:
            return LaurentSeries(
                self.field, 0, [], None if self.prec is None else self.prec - k
            )
        return LaurentSeries(
            self.field,
            self.v - k,
            self.coeffs,
            None if self.prec is None else self.prec - k,
        )

    def invert(self, prec: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse.

        The justified output window is prec - 2v for an input known below
        ``prec``.  Exact inputs invert exactly when they are monomials;
        otherwise the (infinite) inverse must be truncated and ``prec`` gives
        the output window.
        """
        if not self.has_leading_term:
            if self.is_exact_zero:
                raise FieldError("inverse of zero")
            raise PrecisionError("cannot invert: leading coefficient indeterminate")
        fs = self.field
        if self.coeffs.size == 1 and self.is_exact:
            return LaurentSeries(fs, -self.v, [fs.inv(int(self.coeffs[0]))], None)
        if self.prec is not None:
            justified = self.prec - 2 * self.v
            out_prec = justified if prec is None else min(prec, justified)
        else:
            if prec is None:
                raise PrecisionError(
                    "inverse of an exact non-monomial series is an infinite tail; "
                    "pass an explicit output precision"
                )
            out_prec = prec
        length = out_prec + self.v
        if length <= 0:
            return LaurentSeries(fs, 0, [], out_prec)
        return LaurentSeries(fs, -self.v, fs.polyinv(self.coeffs, length), out_prec)

    def __truediv__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self * other.invert()

    def truncate(self, n: int) -> "LaurentSeries":
        """Forget all coefficients at indices >= n."""
        prec = n if self.prec is None else min(self.prec, n)
        if self.coeffs.size == 0:
            return LaurentSeries(self.field, 0, [], prec)
        keep = max(min(self.coeffs.size, n - self.v), 0)
        return LaurentSeries(self.field, self.v, self.coeffs[:keep], prec)

    def polynomial_part(self) -> tuple[Poly, "LaurentSeries"]:
        """Split into (integer part, fractional tail); needs index 0 in window."""
        if self.prec is not None and self.prec < 1:
            raise PrecisionError("window does not reach index 0")
        poly_c: dict[int, int] = {}
        if self.coeffs.size:
            for j in range(self.coeffs.size):
                i = self.v + j
                if i <= 0 and self.coeffs[j]:
                    poly_c[-i] = int(self.coeffs[j])
        deg = max(poly_c) if poly_c else -1
        arr = np.zeros(deg + 1, dtype=np.int64)
        for d, c in poly_c.items():
            arr[d] = c
        frac = LaurentSeries(
            self.field,
            max(self.v, 1),
            self.window(max(self.v, 1), self.v + self.coeffs.size)
            if self.coeffs.size and self.v + self.coeffs.size > 1
            else [],
            self.prec,
        )
        return Poly(self.field, arr), frac

    # -- comparison -------------------------------------------------------------

    def equals(self, other: "LaurentSeries") -> bool | None:
        """Mathematical equality; None when the windows cannot decide."""
        self._require_same_field(other)
        d = self - other
        if d.coeffs.size:
            return False
        if d.prec is None:
            return True
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.v == other.v
            and self.prec == other.prec
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return hash(
            (self.field, self.v, self.prec, tuple(int(c) for c in self.coeffs))
        )

    def __str__(self) -> str:
        pairs = [
            (-(self.v + j), int(c)) for j, c in enumerate(self.coeffs) if c
        ]
        body = _format_terms(pairs)
        if self.prec is None:
            return body
        return f"{body} (prec {self.prec})"

    def __repr__(self) -> str:
        return f"LaurentSeries({self})"


def _min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _shift_prec(p: int | None, by: int | None) -> int | None:
    if p is None:
        return None
    if by is None:
        return None
    return p + by


def series_dot(fs: FieldSpec, row, x: np.ndarray, start: int, x_prec: int | None = None):
    """Sum of row[j] * x_j for every element of a batch, windowed as in
    LaurentSeries arithmetic.

    ``x`` (count, len(row), w) holds each x_j as the codes at indices
    start..start+w-1, known below ``x_prec`` (None: exact).  a * x_j is
    known below min(prec(a) + v(x_j), x_prec + v(a)), a series with no
    nonzero coefficient taking its window as v; an exact factor drops its
    term and an exact-zero factor the product.  A sum is known below the
    least window of its terms.  Returns (lo, acc, prec): acc (count, width)
    holds the codes at indices lo.., covering start..start+w-1, and prec
    (count,) the windows as floats, inf where exact.
    """
    count, _, w = x.shape
    prec = np.full(count, np.inf)
    live = []
    for a, xj in zip(row, x.transpose(1, 0, 2)):
        if a.is_exact_zero:
            continue
        if a.prec is not None:
            unseen = np.inf if x_prec is None else x_prec
            vx = np.where(xj.any(axis=1), start + (xj != 0).argmax(axis=1), unseen)
            np.minimum(prec, a.prec + vx, out=prec)
        if x_prec is not None:
            np.minimum(prec, x_prec + (a.v if a.coeffs.size else a.prec), out=prec)
        if a.coeffs.size:
            live.append((a, xj))
    lo = start + min([0] + [a.v for a, _ in live])
    hi = start + w - 1 + max([1] + [a.v + a.coeffs.size for a, _ in live])
    acc = np.zeros((count, hi - lo), dtype=np.int64)
    for a, xj in live:
        span = slice(start + a.v - lo, start + a.v - lo + w + a.coeffs.size - 1)
        acc[:, span] = fs.add_arr(acc[:, span], fs.polymul(xj, a.coeffs))
    return lo, acc, prec


def first_visible(lo: int, acc: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """Least index below ``prec`` with a nonzero code, per row of an acc
    from ``series_dot``; inf where there is none."""
    nz = (acc != 0) & (np.arange(lo, lo + acc.shape[1]) < prec[:, None])
    return np.where(nz.any(axis=1), lo + nz.argmax(axis=1), np.inf)


# -- digit planes -----------------------------------------------------------------
#
# A polynomial over F_(2^e) is held as e digit planes: plane j is a Python
# int whose bit d is bit j of the code of its X^d coefficient.  Over F_(3^e),
# digit j of the codes takes two planes, 2j holding the bits d where the
# X^d coefficient's digit j is 1 and 2j + 1 those where it is 2, so that
# negating a digit swaps its two planes.  Multiplying by a fixed c is
# F_p-linear on digits, so c X^k r is, in each out-digit j, a sum of r's
# digits shifted by k: digit i, negated where c x^i has digit j equal to 2.


def _planes(fs: FieldSpec, coeffs: np.ndarray) -> list[int]:
    """The planes of the polynomials sum_d coeffs[..., d] X^d over p = 2 or
    3, one per row of ``coeffs`` (the last axis is the degree), listed row
    after row: e planes a row over p = 2, 2e over p = 3."""
    p, e = fs.p, fs.e
    rows = coeffs.reshape(-1, 1, coeffs.shape[-1])
    if p == 2:  # over F_2 the codes are the bits
        bits = rows if e == 1 else rows >> np.arange(e, dtype=rows.dtype)[:, None] & 1
    else:
        if e > 1:  # s <= 2^16, and division is faster on narrow ints
            rows = rows.astype(np.uint16) // (3 ** np.arange(e, dtype=np.uint16))[:, None] % 3
        bits = rows[:, :, None, :] == np.array([1, 2], dtype=rows.dtype)[:, None]
    bits = bits.reshape(-1, coeffs.shape[-1]).astype(np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    buf, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(buf[i : i + w], "little") for i in range(0, len(buf), w)]


def _from_planes(fs: FieldSpec, planes: list[int], length: int) -> np.ndarray:
    """The int64 codes (polynomials, length) of polynomials of degree below
    ``length`` from their planes, as ``_planes`` lists them."""
    count = fs.e if fs.p == 2 else 2 * fs.e
    w = (length + 7) // 8
    buf = np.frombuffer(b"".join(x.to_bytes(w, "little") for x in planes), dtype=np.uint8)
    bits = np.unpackbits(buf.reshape(len(planes), w), axis=1, count=length, bitorder="little")
    return _plane_weights(fs.p, fs.e) @ bits.reshape(-1, count, length).astype(np.int64)


@functools.cache
def _plane_weights(p: int, e: int) -> np.ndarray:
    """What a set bit of each plane adds to a code: 2^j for plane j over
    p = 2; 3^j and 2 3^j for planes 2j and 2j + 1 over p = 3; read-only."""
    j = np.arange(e if p == 2 else 2 * e, dtype=np.int64)
    weights = 1 << j if p == 2 else (j % 2 + 1) * 3 ** (j // 2)
    weights.flags.writeable = False
    return weights


@functools.cache
def _plane_tables(p: int, e: int) -> tuple[tuple, tuple, tuple]:
    """log, antilog and, per code c, the in-planes that feed each out-digit
    of -c times a polynomial over F_(p^e), p = 2 or 3: O(s e^2) entries, built
    at the first use over that field.  Over p = 2 an entry is a plane; over
    p = 3 it is the (ones, twos) pair of planes to add, swapped for a
    negated digit."""
    fs = field_spec(p, e)
    order = fs.s - 1
    if e > 1:
        lg, antilog = fs._log, fs._antilog
    else:  # F_2 and F_3, generated by 1 and 2
        lg, antilog = np.array([-1, 0, 1][:p]), np.array([1, 2][:order])
    # digits[c - 1, i, j] is digit j of -c x^i, where -1 = g^(order / 2)
    # over odd p and 1 over p = 2
    neg_c = lg[1:, None] + order // 2 * (p - 2)
    cols = antilog[(neg_c + lg[p ** np.arange(e)]) % order]
    digits = cols[..., None] // p ** np.arange(e) % p

    def feed(i: int, d: int):
        return i if p == 2 else (2 * i, 2 * i + 1) if d == 1 else (2 * i + 1, 2 * i)

    rows = ((),) + tuple(
        tuple(tuple(feed(i, d[i][j]) for i in range(e) if d[i][j]) for j in range(e))
        for d in digits.tolist()
    )
    return tuple(lg.tolist()), tuple(antilog.tolist()), rows


# -- text form ------------------------------------------------------------------

def _format_terms(pairs: list[tuple[int, int]]) -> str:
    """Render (exponent, coefficient) terms, descending exponents."""
    if not pairs:
        return "0"
    parts = []
    for exp, c in sorted(pairs, reverse=True):
        if exp == 0:
            parts.append(str(c))
        else:
            base = "X" if exp == 1 else f"X^{exp}"
            parts.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(parts)


_PREC_RE = re.compile(r"\(\s*prec\s+(-?\d+)\s*\)\s*$")
_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\d+)\s*\*?\s*)?(?:(?P<x>X)(?:\^(?P<exp>-?\d+))?)?$"
)


def _split_terms(body: str) -> list[tuple[int, str]]:
    """Split on top-level +/- (a '-' directly after '^' binds to the exponent)."""
    out: list[tuple[int, str]] = []
    sign, cur, seen_any = 1, [], False
    for i, ch in enumerate(body):
        if ch in "+-" and (i == 0 or body[i - 1] != "^"):
            tok = "".join(cur).strip()
            if tok:
                out.append((sign, tok))
            elif seen_any:
                raise ValueError("empty term")
            sign = 1 if ch == "+" else -1
            cur, seen_any = [], True
        else:
            cur.append(ch)
    tok = "".join(cur).strip()
    if tok:
        out.append((sign, tok))
    if not out:
        raise ValueError("empty expression")
    return out


def _parse_terms(field: FieldSpec, body: str) -> dict[int, int]:
    pairs: dict[int, int] = {}
    for sign, tok in _split_terms(body):
        m = _TERM_RE.match(tok)
        if not m or (m.group("coeff") is None and m.group("x") is None):
            raise ValueError(f"cannot parse term {tok!r}")
        c = int(m.group("coeff")) if m.group("coeff") is not None else 1
        if c >= field.s:
            raise FieldError(f"coefficient {c} outside F_{field.s}")
        if m.group("x"):
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        else:
            exp = 0
        if sign < 0:
            c = field.neg(c)
        pairs[exp] = field.add(pairs.get(exp, 0), c)
    return pairs


def parse_series(field: FieldSpec, text: str) -> LaurentSeries:
    """Parse the series grammar, e.g. '1 + X^-1 + X^-2 (prec 8)'."""
    text = text.strip()
    prec = None
    m = _PREC_RE.search(text)
    if m:
        prec = int(m.group(1))
        text = text[: m.start()].strip()
    pairs = _parse_terms(field, text)
    by_index = {-exp: c for exp, c in pairs.items() if c}
    if prec is not None:
        bad = [i for i in by_index if i >= prec]
        if bad:
            raise PrecisionError(
                f"terms at indices {sorted(bad)} outside the stated window (< {prec})"
            )
    return LaurentSeries.from_pairs(field, by_index, prec)


def parse_poly(field: FieldSpec, text: str) -> Poly:
    """Parse a polynomial in X (nonnegative exponents only)."""
    pairs = _parse_terms(field, text.strip())
    if any(exp < 0 for exp, c in pairs.items() if c):
        raise ValueError("negative exponent in polynomial")
    deg = max((exp for exp, c in pairs.items() if c), default=-1)
    arr = np.zeros(deg + 1, dtype=np.int64)
    for exp, c in pairs.items():
        if c:
            arr[exp] = c
    return Poly(field, arr)
