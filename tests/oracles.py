"""Independent reference implementations used to check the package.

Everything here is deliberately naive: schoolbook polynomial arithmetic on
Python lists, dict-based series products, literal box enumerations, Fraction
arithmetic for exact identities, discrete-log tables built one product per
element, the full-width weak Popov reduction the package's windowed one is
checked against, a bit-by-bit decoding of its digit-plane state, the two
Monte Carlo backends one step or one sample at a time, and the candidate
walks one candidate at a time.  Nothing imports from
ffdyn, so agreement between these and the package is a real cross-check,
not a tautology.  The exceptions read package code, so each checks
only what it does not share with the package:

* ``best_integer_approx_reference`` forms the residual of one candidate
  by the package's series arithmetic (``residual_rows``), so it checks
  the block residual of ``best_integer_approx``;
* ``slow_trial`` evaluates each kg candidate's residual the same way and
  admits it with the package's psi extension and admission depth
  (``strict_admission``), so it checks the kg rank count's admitted
  classes, not the admission rule;
* ``hankel_trial``, the batched Hankel walk that the rank count
  replaced, reads the package's unit-class blocks, field kernels and
  admission rule, so it checks the rank count on inputs too large for
  ``slow_trial``;
* ``zero_block_reference`` walks the unit classes one at a time through
  the package's series arithmetic, so it checks the block walk and the
  hit and indeterminate bookkeeping of ``zero_block_detector``;
* ``mult_solutions_reference`` reads the package's series walk
  ``enumerate_short_vectors`` one vector at a time, so it checks the
  monic build and the array classification of ``mult_solutions``;
* ``event_matrix`` reads each trial's depths from the package's
  ``flow._trial_row``, so it checks the per-trial checkpoint counts and
  the sharding of ``strong_bc_experiment``;
* ``xi_exact_reference`` walks the congruence classes on the package's
  field arithmetic and buffer layout, so it checks the class counting of
  ``xi_exact``;
* ``verify_window_witness`` recomputes one flagged witness's residual
  through the package's series arithmetic, so it checks the batched
  residuals and window bookkeeping of ``correspondence_check``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# F_p polynomials as plain lists, ascending degree, no trailing zeros.


def ptrim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    return ptrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)])


def pneg(a: list[int], p: int) -> list[int]:
    return [(-c) % p for c in a]


def pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return ptrim(out)


def pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    b = ptrim(b)
    if not b:
        raise ZeroDivisionError
    rem = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], p - 2, p)
    for k in range(len(rem) - 1, len(b) - 2, -1):
        c = rem[k] % p
        if c:
            f = (c * inv) % p
            q[k - len(b) + 1] = f
            for j in range(len(b)):
                rem[k - len(b) + 1 + j] = (rem[k - len(b) + 1 + j] - f * b[j]) % p
    return ptrim(q), ptrim(rem[: len(b) - 1])


# ---------------------------------------------------------------------------
# F_(p^e) elements as digit polynomials over F_p (code = sum d_i p^i) reduced
# by a monic degree-e modulus, and polynomials over F_(p^e) as code lists.


def gf_digits(x: int, p: int, e: int) -> list[int]:
    return ptrim([(x // p**i) % p for i in range(e)])


def gf_code(digits: list[int], p: int) -> int:
    return sum(c * p**i for i, c in enumerate(digits))


def gf_add(x: int, y: int, p: int, modulus) -> int:
    e = len(modulus) - 1
    return gf_code(padd(gf_digits(x, p, e), gf_digits(y, p, e), p), p)


def gf_neg(x: int, p: int, modulus) -> int:
    return gf_code(pneg(gf_digits(x, p, len(modulus) - 1), p), p)


def gf_mul(x: int, y: int, p: int, modulus) -> int:
    e = len(modulus) - 1
    prod = pmul(gf_digits(x, p, e), gf_digits(y, p, e), p)
    return gf_code(pdivmod(prod, list(modulus), p)[1], p)


def gf_inv(x: int, p: int, modulus) -> int:
    s = p ** (len(modulus) - 1)
    return next(y for y in range(1, s) if gf_mul(x, y, p, modulus) == 1)


def gf_rank(rows: list[list[int]], p: int, modulus) -> int:
    """Rank of a list of code rows by Gauss-Jordan row reduction."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = gf_inv(rows[rank][col], p, modulus)
        rows[rank] = [gf_mul(inv, x, p, modulus) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = gf_neg(rows[i][col], p, modulus)
                rows[i] = [
                    gf_add(x, gf_mul(f, y, p, modulus), p, modulus)
                    for x, y in zip(rows[i], rows[rank])
                ]
        rank += 1
    return rank


def gf_polymul(a: list[int], b: list[int], p: int, modulus) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = gf_add(out[i + j], gf_mul(x, y, p, modulus), p, modulus)
    return ptrim(out)


def gf_polydivmod(
    a: list[int], b: list[int], p: int, modulus
) -> tuple[list[int], list[int]]:
    b = ptrim(b)
    if not b:
        raise ZeroDivisionError
    rem = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = gf_inv(b[-1], p, modulus)
    for k in range(len(rem) - 1, len(b) - 2, -1):
        if rem[k]:
            f = gf_mul(rem[k], inv, p, modulus)
            q[k - len(b) + 1] = f
            for j, y in enumerate(b):
                i = k - len(b) + 1 + j
                sub = gf_neg(gf_mul(f, y, p, modulus), p, modulus)
                rem[i] = gf_add(rem[i], sub, p, modulus)
    return ptrim(q), ptrim(rem[: len(b) - 1])


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e over F_p whose low coefficients, read
    as base-p digits, form the smallest code; trial division."""
    if e == 1:
        return (0, 1)
    divisors = [
        [(code // p**i) % p for i in range(d)] + [1]
        for d in range(1, e // 2 + 1)
        for code in range(p**d)
    ]
    for code in range(p**e):
        cand = [(code // p**i) % p for i in range(e)] + [1]
        if all(pdivmod(cand, den, p)[1] for den in divisors):
            return tuple(cand)
    raise ValueError("no irreducible found")


def gf_pow(x: int, n: int, p: int, modulus) -> int:
    out = 1
    while n:
        if n & 1:
            out = gf_mul(out, x, p, modulus)
        x = gf_mul(x, x, p, modulus)
        n >>= 1
    return out


def log_tables(p: int, e: int, modulus) -> tuple[list[int], list[int]]:
    """(log, antilog) of F_(p^e) for the smallest generator code, one
    product per element; log[0] = -1."""
    s = p**e
    order = s - 1
    factors = [f for f in range(2, order + 1) if order % f == 0 and _is_prime_int(f)]
    gen = next(
        c for c in range(2, s)
        if all(gf_pow(c, order // f, p, modulus) != 1 for f in factors)
    )
    antilog = [1]
    for _ in range(order - 1):
        antilog.append(gf_mul(antilog[-1], gen, p, modulus))
    log = [-1] * s
    for i, x in enumerate(antilog):
        log[x] = i
    return log, antilog


# ---------------------------------------------------------------------------
# Series with finitely many known coefficients, as {index: coeff} plus window.
# Index i carries the coefficient of X^(-i).


def dict_mul(a: dict[int, int], b: dict[int, int], p: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            out[k] = (out.get(k, 0) + x * y) % p
    return {k: c for k, c in out.items() if c}


def dict_valuation(a: dict[int, int]) -> int | None:
    nz = [i for i, c in a.items() if c]
    return min(nz) if nz else None


def dict_add(a: dict[int, int], b: dict[int, int], p: int) -> dict[int, int]:
    out = dict(a)
    for k, c in b.items():
        out[k] = (out.get(k, 0) + c) % p
    return {k: c for k, c in out.items() if c}


def dict_det(rows: list[list[dict[int, int]]], p: int) -> dict[int, int]:
    """Determinant of a square matrix of series dicts, Laplace expansion."""
    if len(rows) == 1:
        return dict(rows[0][0])
    total: dict[int, int] = {}
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = dict_mul(entry, dict_det(minor, p), p)
        if j % 2:
            term = {k: (-c) % p for k, c in term.items()}
        total = dict_add(total, term, p)
    return total


# ---------------------------------------------------------------------------
# Brute-force lattice search.  Basis columns are vectors of series dicts;
# candidates q run over all polynomial coefficient vectors with deg < qdeg;
# returns the largest d such that some nonzero combination has valuation >= d
# ... reported as the minimal norm exponent: min over candidates of -valuation.


def brute_min_valuation(
    cols: list[list[dict[int, int]]], p: int, qdeg: int
) -> int:
    """max over nonzero integer vectors q (deg < qdeg) of the valuation of B q.

    Returns the valuation v of the shortest vector (norm s^-v); assumes the
    minimum is attained inside the box, so callers must size qdeg themselves.
    """
    r = len(cols)
    best = None
    coeff_space = list(itertools.product(range(p), repeat=qdeg))
    for qvecs in itertools.product(coeff_space, repeat=r):
        if all(all(c == 0 for c in qc) for qc in qvecs):
            continue
        # combine column by column: vec = sum_j q_j * col_j, coordinatewise
        dim = len(cols[0])
        vec = [dict() for _ in range(dim)]
        for col, qc in zip(cols, qvecs):
            qpoly = {-d: c for d, c in enumerate(qc) if c}
            if not qpoly:
                continue
            for t in range(dim):
                prod = dict_mul(qpoly, col[t], p)
                for k, c in prod.items():
                    vec[t][k] = (vec[t].get(k, 0) + c) % p
        vals = [dict_valuation(coord) for coord in vec]
        vals = [v for v in vals if v is not None]
        if not vals:
            continue
        v = min(vals)
        if best is None or v > best:
            best = v
    if best is None:
        raise AssertionError("box contained no nonzero vector")
    return best


# ---------------------------------------------------------------------------
# Continued fraction of a series by literal Euclid over F_p.
# A is given by coefficients a[0..P] of X^0 .. X^-P; we run Euclid on
# (X^P, N) with N = sum a[i] X^(P-i) and record deg of each remainder.


def cf_denominator_degrees(a: list[int], p: int) -> list[int]:
    P = len(a) - 1
    r0 = [0] * P + [1]
    r1 = ptrim([a[P - d] for d in range(P + 1)])
    degs = [0]
    while r1:
        _, rem = pdivmod(r0, r1, p)
        degs.append(P - (len(r1) - 1))
        r0, r1 = r1, rem
    # degs[k] = D_k = deg q_k, cumulative convergent denominator degrees
    return degs


def cf_partial_quotients(a: list[int], p: int, modulus=(0, 1)) -> list[list[int]]:
    """The Euclid quotients of the same ladder over F_(p^e), e = deg modulus."""
    P = len(a) - 1
    r0 = [0] * P + [1]
    r1 = ptrim([a[P - d] for d in range(P + 1)])
    out = []
    while r1:
        quo, rem = gf_polydivmod(r0, r1, p, modulus)
        out.append(quo)
        r0, r1 = r1, rem
    return out


def cf_ladder_arrays(fs, coeffs: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """Divisor degrees and quotients of the whole ladder on (X^P, N), by one
    ``fs.polydivmod`` on coefficient arrays per rung: a reference for the
    p = 2 and p = 3 digit planes on inputs too long for
    ``cf_partial_quotients``."""
    P = coeffs.size
    r0 = np.zeros(P + 1, dtype=np.int64)
    r0[P] = 1
    r1 = np.array(ptrim([int(c) for c in coeffs[::-1]]), dtype=np.int64)
    degs, quotients = [], []
    while r1.size:
        q, rem = fs.polydivmod(r0, r1)
        degs.append(r1.size - 1)
        quotients.append([int(c) for c in q])
        r0, r1 = r1, rem
    return degs, quotients


def sawtooth_delta(degs: list[int], t: int) -> int:
    """min(t - D_k, D_{k+1} - t) for the bracketing rung; D list ascending."""
    import bisect

    k = bisect.bisect_right(degs, t) - 1
    if k + 1 < len(degs):
        return min(t - degs[k], degs[k + 1] - t)
    return t - degs[k]


def event_matrix(trial_depths, thr, trials: int) -> np.ndarray:
    """events[trial, t-1] = 1 iff trial_depths(trial)[t-1] >= thr[t-1]: the
    trials x T int8 matrix of hits that strong-bc once kept in full, one
    trial after another in this process."""
    thr = np.asarray(thr)
    events = np.zeros((trials, thr.size), dtype=np.int8)
    for trial in range(trials):
        events[trial] = np.asarray(trial_depths(trial)) >= thr
    return events


# ---------------------------------------------------------------------------
# Rate transform scalar oracle: solve log_s psi(s^(a - n r)) = -(a + m r)
# by bisection on plain floats.


def rate_oracle(llog, a: float, m: int, n: int, u0: float, tol: float = 1e-13) -> float:
    def h(r: float) -> float:
        return llog(a - n * r) + a + m * r

    hi = (a - u0) / n
    lo = min(-a / m, hi - 1.0)
    while h(lo) > 0:
        lo -= max(1.0, hi - lo)
        if hi - lo > 1e6:
            raise AssertionError("no bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def rate_bisection(llog, a: float, m: int, n: int, u0: float, tol: float = 1e-12) -> float:
    """The rate solve of ``flow.psi_to_rate`` as bisection alone: the same
    bracket, grown by doubling steps below, halved until narrower than tol."""

    def h(r: float) -> float:
        return llog(a - n * r) + a + m * r

    hi = (a - u0) / n
    if h(hi) < -tol:
        raise ValueError(f"no root above the domain edge at a = {a}")
    lo = min(-a / m, hi - 1.0)
    grow = 1.0
    while h(lo) > 0:
        lo -= grow
        grow *= 2
        if grow > 2**40:
            raise ValueError(f"bracket expansion failed at a = {a}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Dominant cocharacters of type A_r by literal enumeration.


def dominant_vectors_oracle(rank: int, ell: int) -> list[tuple[int, ...]]:
    """Dominant sum-zero integer vectors with sum_{i<j}(lam_i - lam_j) = ell.

    Literal enumeration over a safe coordinate box; for pairing value ell all
    coordinates satisfy |lam_i| <= ell.
    """
    rp1 = rank + 1
    found = []
    rng = range(-ell, ell + 1)
    for lam in itertools.product(rng, repeat=rp1):
        if sum(lam) != 0:
            continue
        if any(lam[i] < lam[i + 1] for i in range(rp1 - 1)):
            continue
        pairing = sum(lam[i] - lam[j] for i in range(rp1) for j in range(i + 1, rp1))
        if pairing == ell:
            found.append(lam)
    return found


# ---------------------------------------------------------------------------
# Tree-side exact quantities.


def brute_stabilizer_order(q: int, j: int, deg_cap: int) -> int:
    """Count SL2(F_q[X]) matrices with entry degree <= deg_cap stabilizing
    the module O + X^j O inside F_q((1/X))^2.  Literal loop over all entry
    4-tuples; only feasible for tiny q and deg_cap.

    Membership conditions, checked literally on polynomial entries:
    a, d constant; deg b <= j; deg c <= -j (so c = 0 unless j = 0).
    Here they are *not* assumed: every matrix is tested via the lattice
    condition expressed through degrees.
    """
    assert _is_prime_int(q)
    polys = list(itertools.product(range(q), repeat=deg_cap + 1))

    def deg(c):
        d = -1
        for i, x in enumerate(c):
            if x:
                d = i
        return d

    count = 0
    for a, b, c, d in itertools.product(polys, repeat=4):
        det = padd(
            pmul(ptrim(list(a)), ptrim(list(d)), q),
            pneg(pmul(ptrim(list(b)), ptrim(list(c)), q), q),
            q,
        )
        if det != [1]:
            continue
        # g*(u, w) with u in O, w in X^j O stays in O + X^j O iff
        # deg a <= 0, deg b <= j, deg c <= -j, deg d <= 0 (after clearing X^j)
        if deg(a) <= 0 and deg(d) <= 0 and deg(b) <= j and deg(c) <= -j:
            count += 1
    return count


def _is_prime_int(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def ray_masses(q: int, jmax: int) -> list[Fraction]:
    """Normalized quotient-ray vertex masses mu_j proportional to 1/|Gamma_j|,
    including the exact infinite tail in the normalizer."""
    orders = [q**3 - q] + [(q - 1) * q ** (j + 1) for j in range(1, jmax + 1)]
    weights = [Fraction(1, o) for o in orders]
    # tail past jmax: sum_{j>jmax} 1/((q-1) q^(j+1)) = 1/((q-1)^2 q^(jmax+1))
    tail = Fraction(1, (q - 1) ** 2 * q ** (jmax + 1))
    total = sum(weights) + tail
    return [w / total for w in weights]


def even_vertex_tail(q: int, n: int) -> Fraction:
    """P(Delta >= n) over lattice classes: even-distance vertices at >= 2n,
    normalized over even vertices only.  Closed Fractions, no truncation."""
    # even masses: mu_0 = 1/(q^3-q); mu_{2i} = 1/((q-1) q^(2i+1)), i >= 1
    z = Fraction(1, q**3 - q) + Fraction(1, (q - 1) * q) * Fraction(1, q**2 - 1)
    if n <= 0:
        return Fraction(1)
    tail = Fraction(1, (q - 1) * q ** (2 * n + 1)) * Fraction(q**2, q**2 - 1)
    return tail / z


def xi_closed_form(q: int, t: int) -> Fraction:
    """Spherical decay profile on the diagonal, exact value."""
    if t == 0:
        return Fraction(1)
    return Fraction(2 * t * (q - 1) + q + 1, (q + 1) * q**t)


def excursion_tail(q: int, r: int) -> Fraction:
    """P(excursion max >= r) for the quotient-ray walk, r >= 1."""
    return Fraction(1, q ** (r - 1))


# ---------------------------------------------------------------------------
# Full-width weak Popov reduction of packed arrays W [r, r, L] (W[i, j, d] is
# the X^d coefficient of entry (i, j)) with transform U, alone and along the
# flow.  Every simple transformation updates whole columns by scale_arr and
# sub_arr, and every degree comes from a scan.
# ``fs`` is any object with the field operations mul, inv, scale_arr and
# sub_arr on integer codes.


def packed_pivot(col: np.ndarray) -> tuple[int, int]:
    """(degree, pivot row) of a packed column [r, L]: the lowest row index
    among the entries of maximal degree; (-1, -1) for a zero column."""
    best = (-1, -1)
    for i in range(col.shape[0]):
        nz = np.nonzero(col[i])[0]
        if nz.size and int(nz.max()) > best[0]:
            best = (int(nz.max()), i)
    return best


def column_degrees(U: np.ndarray) -> list[int]:
    """Max entry degree of each column of a packed transform, 0 if zero."""
    out = []
    for j in range(U.shape[1]):
        nz = np.nonzero(U[:, j, :])[1]
        out.append(int(nz.max()) if nz.size else 0)
    return out


def plane_state_array(fs, WU) -> np.ndarray:
    """The int64 augmented array [2r, r, ulen] that a reduction state
    stands for: a copy of an array, or the decoding of a digit-plane state
    (``lattice._PlaneWU``).  There column j lists its planes; coefficient
    d of W's row i sits at bit d r + i for d < L and that of U's row i at
    bit r L + d r + i; plane k is bit k of the codes over p = 2, and over
    p = 3 planes 2k and 2k + 1 mark digit k equal to 1 and to 2, never
    both.  No plane may reach past U's room."""
    if isinstance(WU, np.ndarray):
        return WU.copy()
    rows, r, ulen = WU.shape
    L, n = WU.L, r * (WU.L + ulen)
    out = np.zeros(WU.shape, dtype=np.int64)
    for j, col in enumerate(WU.cols):
        assert len(col) == (fs.e if fs.p == 2 else 2 * fs.e)
        codes = np.zeros(n, dtype=np.int64)
        for k, x in enumerate(col):
            assert 0 <= x < 1 << n
            if fs.p == 3 and k % 2:
                assert not x & col[k - 1]
            raw = np.frombuffer(x.to_bytes(n // 8 + 1, "little"), dtype=np.uint8)
            bits = np.unpackbits(raw, count=n, bitorder="little").astype(np.int64)
            codes += bits * (2**k if fs.p == 2 else (k % 2 + 1) * 3 ** (k // 2))
        out[:r, j, :L] = codes[: r * L].reshape(L, r).T
        out[r:, j, :] = codes[r * L :].reshape(ulen, r).T
    return out


def reduce_packed_full_width(fs, W, U, degrees, pivots, max_steps=None, trace=None) -> int:
    """Weak Popov form in place, with the package's collision order; each
    step's (keep, red) is appended to ``trace`` when one is given."""
    r = W.shape[0]
    if max_steps is None:
        max_steps = r * int(degrees.clip(min=0).sum()) + r * (r - 1) // 2
    steps = 0
    while True:
        order = {}
        clash = None
        for j in range(r):
            p = int(pivots[j])
            if p < 0:
                raise ValueError("columns are linearly dependent")
            if p in order:
                a, b = order[p], j
                ka = (int(degrees[a]), a)
                kb = (int(degrees[b]), b)
                keep, red = (a, b) if ka <= kb else (b, a)
                if clash is None or p < clash[0]:
                    clash = (p, keep, red)
                if ka > kb:
                    order[p] = b
            else:
                order[p] = j
        if clash is None:
            return steps
        _, keep, red = clash
        if trace is not None:
            trace.append((keep, red))
        row = int(pivots[keep])
        dk, dr = int(degrees[keep]), int(degrees[red])
        e = dr - dk
        c = fs.mul(int(W[row, red, dr]), fs.inv(int(W[row, keep, dk])))
        L = W.shape[2]
        W[:, red, e:] = fs.sub_arr(W[:, red, e:], fs.scale_arr(c, W[:, keep, : L - e]))
        LU = U.shape[2]
        unz = np.nonzero(U[:, keep, :])[1]
        if unz.size and int(unz.max()) + e >= LU:
            raise ValueError("transform buffer overflow")
        U[:, red, e:] = fs.sub_arr(U[:, red, e:], fs.scale_arr(c, U[:, keep, : LU - e]))
        degrees[red], pivots[red] = packed_pivot(W[:, red, :])
        steps += 1
        if steps > max_steps:
            raise ValueError("reduction did not terminate")


def flow_reduction_reference(fs, W, U, m: int, n: int, T: int) -> list[tuple]:
    """The incremental reduction along the flow, t = 0..T, in place on the
    packed basis W and transform U: each t shifts the first m rows of W up
    by n degrees and the rest down by m (np.roll, wrapped slices zeroed),
    scans every column for its pivot and reduces at full width.  Returns,
    per t, (degrees and pivots after the shift, then W, U, degrees, pivots
    and step count after the reduction)."""
    states = []
    for t in range(T + 1):
        if t:
            top = np.roll(W[:m], n, axis=2)
            top[:, :, :n] = 0
            W[:m] = top
            bot = np.roll(W[m:], -m, axis=2)
            bot[:, :, -m:] = 0
            W[m:] = bot
        scan = [packed_pivot(W[:, j, :]) for j in range(W.shape[1])]
        degrees = np.array([d for d, _ in scan], dtype=np.int64)
        pivots = np.array([i for _, i in scan], dtype=np.int64)
        shifted = (degrees.copy(), pivots.copy())
        steps = reduce_packed_full_width(fs, W, U, degrees, pivots)
        states.append((*shifted, W.copy(), U.copy(), degrees, pivots, steps))
    return states


# ---------------------------------------------------------------------------
# The quotient-ray walk one step at a time.  ``ray`` is any object with the
# edge indices index_up(j) and index_down(j); ``rng`` any numpy Generator.


def step_profile(ray) -> tuple[list[float], list[float]]:
    """P(move up) at levels 0, 1 and >= 2, entered from above and from
    below: the reversal edge is removed from the multiplicity of the
    direction the walk came from, the remaining lifts are equally likely."""
    p_above, p_below = [], []
    for j in (0, 1, 2):
        iu, idn = ray.index_up(j), ray.index_down(j)
        p_above.append((iu - 1) / (iu - 1 + idn))
        p_below.append(1.0 if j == 0 else iu / (iu + idn - 1))
    return p_above, p_below


def trace_levels_loop(ray, T: int, rng) -> np.ndarray:
    """Levels d_1..d_T, one uniform consumed per step even when forced."""
    p_above, p_below = step_profile(ray)
    u = rng.random(T)
    out = np.empty(T, dtype=np.int64)
    lev = 0
    from_above = True
    for t in range(T):
        k = min(lev, 2)
        p = p_above[k] if from_above else p_below[k]
        if u[t] < p:
            lev += 1
            from_above = False
        else:
            lev -= 1
            from_above = True
        out[t] = lev
    return out


def excursion_peaks(levels: np.ndarray) -> list[int]:
    """Peak of each excursion that returns to level 0."""
    peaks, top = [], 0
    for lev in levels.tolist():
        top = max(top, lev)
        if lev == 0:
            peaks.append(top)
            top = 0
    return peaks


def excursion_tail_rate(peaks: list[int], min_count: int = 100) -> float | None:
    """exp of the least-squares slope of log #{peaks >= r} over r = 1, 2, ...
    while at least min_count peaks reach r; None below 10 * min_count peaks
    or with fewer than three such r."""
    if len(peaks) < 10 * min_count:
        return None
    rs, logs = [], []
    r = 1
    while sum(1 for h in peaks if h >= r) >= min_count:
        rs.append(r)
        logs.append(math.log(sum(1 for h in peaks if h >= r)))
        r += 1
    if len(rs) < 3:
        return None
    return float(math.exp(np.polyfit(rs, logs, 1)[0]))


# ---------------------------------------------------------------------------
# Spherical Monte Carlo one sample at a time.  ``g`` and the sampled k are
# 2x2 tuples of series objects with +, *, has_leading_term, is_exact_zero,
# v and prec (the package's LaurentSeries); the arithmetic is theirs, the
# bookkeeping of windows is redone here.


def matmul2(a, b):
    """The product of two 2x2 tuples of ring elements."""
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
    )


def first_column_norm_exponent(g, k) -> int | None:
    """Valuation of (g k) e_1; None when the windows cannot certify it."""
    col = (k[0][0], k[1][0])
    known: list[int] = []
    ceilings: list[int] = []
    for i in range(2):
        w = g[i][0] * col[0] + g[i][1] * col[1]
        if w.has_leading_term:
            known.append(w.v)
        elif not w.is_exact_zero:
            ceilings.append(w.prec)
    if not known:
        return None
    val = min(known)
    if any(val > ceil for ceil in ceilings):
        return None
    return val


def xi_monte_carlo_loop(g, samples: int, draw_k, s: int) -> tuple[float, float] | None:
    """(mean, standard error) of s^(norm exponent) over ``samples`` calls
    of ``draw_k()``; None when some sample is indeterminate."""
    vals = np.empty(samples, dtype=np.float64)
    for i in range(samples):
        exp = first_column_norm_exponent(g, draw_k())
        if exp is None:
            return None
        vals[i] = float(s) ** exp
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


# ---------------------------------------------------------------------------
# Candidate walks one candidate at a time.  ``fs`` is any field object with
# s, polymul and add_arr; P a packed basis [r, r, L] (P[i, j, d] is the X^d
# coefficient of entry (i, j)).


def unit_normalized_vectors(s: int, n: int, deg: int):
    """All q in Z^n \\ 0 with max deg <= deg, one per unit class.

    The class representative has a monic first nonzero coordinate; scalar
    multiples by F_s^* are never listed twice.  Vectors come out in
    increasing max-degree order, so first hits are minimal witnesses.
    """
    for d in range(deg + 1):
        width = d + 1
        for flat in itertools.product(range(s), repeat=n * width):
            coords = [flat[i * width : (i + 1) * width] for i in range(n)]
            if not any(c[d] for c in coords):
                continue
            first = next(c for c in coords if any(c))
            lead = next(c for c in reversed(first) if c)
            if lead != 1:
                continue
            yield coords


def apply_q(fs, P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """w = P q for q [r, Q+1]; returns [r, L+Q]."""
    out = fs.polymul(P[:, 0, :], q[0])
    for j in range(1, P.shape[0]):
        out = fs.add_arr(out, fs.polymul(P[:, j, :], q[j]))
    return out


def combination_grid(fs, images: np.ndarray) -> np.ndarray:
    """Every nonzero F_s-combination of the rows of ``images``, one per point
    of the coefficient grid F_s^dim, sorted lexicographically."""
    dim = images.shape[0]
    combos = np.indices((fs.s,) * dim).reshape(dim, -1).T[1:]  # row 0 is zero
    if fs.e == 1:
        W = combos @ images % fs.p
    else:
        W = np.zeros((combos.shape[0], images.shape[1]), dtype=np.int64)
        for i in range(dim):
            W = fs.add_arr(W, fs.mul_arr(combos[:, i : i + 1], images[i]))
    return W[np.lexsort(W.T[::-1])]


def enumerate_literal(fs, P, delta_cap, qdeg):
    """Every w = P q with q in the box deg q_j <= qdeg and deg w <= delta_cap."""
    r = P.shape[0]
    sols = []
    space = list(itertools.product(range(fs.s), repeat=qdeg + 1))
    for combo in itertools.product(space, repeat=r):
        q = np.array(combo, dtype=np.int64)
        if not q.any():
            continue
        w = apply_q(fs, P, q)
        nz = np.nonzero(w)[1]
        if nz.size and nz.max() <= delta_cap:
            sols.append(tuple(tuple(int(c) for c in row) for row in w))
    return sols


def vector_exponents(vec) -> int:
    return max(p.degree for p in vec)


def residual_rows(rows, qs):
    """(p, fractional parts) of the rows of Aq for one candidate q, by
    series arithmetic: p is minus the whole part of each row."""
    from ffdyn.field import LaurentSeries

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


def best_integer_approx_reference(A, qs):
    """``best_integer_approx`` by ``residual_rows``: p and the largest
    norm of a fractional part."""
    from ffdyn.dioph import _matrix_rows

    ps, fracs = residual_rows(_matrix_rows(A), qs)
    return ps, max((frac.abs_value() for frac in fracs), default=0.0)


def strict_admission(psi, m, n, q_deg, fracs) -> bool:
    """Decide ||p + Aq||^m < psi(||q||^n) from the fractional parts.

    A row with a visible leading term pins its exponent; one that vanishes
    through a finite window only bounds it from above, and a bound that
    cannot decide raises CertificationError.
    """
    from ffdyn.dioph import _EPS, _admission_depth, _llog_ext
    from ffdyn.errors import CertificationError

    theta = _llog_ext(psi, n * q_deg)
    known = [-int(frac.valuation()) for frac in fracs if frac.has_leading_term]
    if known and m * max(known) >= theta - _EPS:
        return False
    floors = [-int(f.prec) for f in fracs if not f.has_leading_term and f.prec is not None]
    if any(m * f >= theta - _EPS for f in floors):
        raise CertificationError(
            "window cannot decide the admission inequality",
            needed_precision=_admission_depth(psi, m, n, q_deg) + q_deg + 1,
        )
    return True


def slow_trial(rows, psi, m, n, horizon, rungs):
    """(admitted unit classes, rung passes) of one kg trial on the matrix
    rows, one candidate at a time through series products."""
    from ffdyn.field import Poly

    fs = rows[0][0].field
    count = 0
    top = -1
    for coords in unit_normalized_vectors(fs.s, n, horizon):
        qs = tuple(Poly(fs, list(c)) for c in coords)
        q_deg = vector_exponents(qs)
        if strict_admission(psi, m, n, q_deg, residual_rows(rows, qs)[1]):
            count += 1
            top = max(top, q_deg)
    passes = tuple(top >= h for h in rungs)
    return count, passes


def hankel_trial(rows, psi, m, n, horizon, rungs):
    """(admitted unit classes, rung passes) of one kg trial on the matrix
    rows: Hankel products of every unit-class candidate block with each
    row, the batched walk that the rank count replaced.

    Coefficient u of the tail of sum_k a_k q_k is sum_k sum_j q_kj
    a_k,(u+j); stacking u rows gives the first visible index of every
    candidate q at once.  The window depth U is chosen so an all-zero
    column certifies admission outright.
    """
    from ffdyn.dioph import _DEFAULT_SEARCH_CAP, _EPS, _llog_ext, _unit_class_blocks

    fs = rows[0][0].field
    blocks = []
    for q in _unit_class_blocks(fs.s, n, horizon, _DEFAULT_SEARCH_CAP):
        degrees = horizon - q.any(axis=1)[:, ::-1].argmax(axis=1)
        blocks.append((q.reshape(q.shape[0], -1), degrees))
    theta = np.array(
        [_llog_ext(psi, n * d) for d in range(horizon + 1)], dtype=float
    )
    precision = rows[0][0].prec
    U = precision - horizon - 1
    hankels = [
        np.concatenate(
            [
                np.lib.stride_tricks.sliding_window_view(
                    a.window(0, precision)[1 : U + horizon + 1], horizon + 1
                )
                for a in row
            ],
            axis=1,
        )
        for row in rows
    ]
    count, top = 0, -1
    for q, qdegs in blocks:
        hit = np.zeros((q.shape[0], U), dtype=bool)
        for hank in hankels:
            if fs.e == 1:
                tail = q @ hank.T % fs.p
            else:
                tail = np.zeros(hit.shape, dtype=np.int64)
                for c in range(q.shape[1]):
                    tail = fs.add_arr(tail, fs.mul_arr(q[:, c : c + 1], hank[:, c]))
            hit |= tail != 0
        err = -(hit.argmax(axis=1) + 1)
        admitted = np.where(hit.any(axis=1), m * err < theta[qdegs] - _EPS, True)
        count += int(admitted.sum())
        if admitted.any():
            top = max(top, int(qdegs[admitted].max()))
    return count, tuple(top >= h for h in rungs)


def zero_block_reference(target, m, degree_bound):
    """(found, witness, searched, indeterminate) of the zero-block search,
    one unit class at a time through series products.

    ``target`` is an m x n matrix of series, whose block is the fractional
    part of each row of Aq, or a basis with ``entries``, whose block is the
    first m coordinates of the lattice vector.  A class whose block is
    exactly zero is a hit; one whose block only vanishes through the window
    is indeterminate.
    """
    from ffdyn.field import LaurentSeries, Poly

    lattice = hasattr(target, "entries")
    rows = target.entries[:m] if lattice else target
    fs = rows[0][0].field
    searched = indeterminate = 0
    for coords in unit_normalized_vectors(fs.s, len(rows[0]), degree_bound):
        qs = tuple(Poly(fs, list(c)) for c in coords)
        searched += 1
        block = []
        for row in rows:
            w = LaurentSeries.zero(fs)
            for a, q in zip(row, qs):
                w = w + a * LaurentSeries.from_poly(q)
            block.append(w if lattice else w.polynomial_part()[1])
        if all(w.is_exact_zero for w in block):
            return True, qs, searched, indeterminate
        if not any(w.has_leading_term for w in block):
            indeterminate += 1
    return False, None, searched, indeterminate


def mult_solutions_reference(basis, psi, norm_bound, cap: int = 200_000):
    """The multiplicative search one vector at a time: every vector of
    ``enumerate_short_vectors`` rescaled to a monic lead, deduplicated
    through a set of keys, and classified coordinate by coordinate."""
    from ffdyn.dioph import (
        _EPS,
        MultiplicativeSolution,
        MultSolutionSet,
        _llog_ext,
        _spower_exponent,
    )
    from ffdyn.errors import CertificationError
    from ffdyn.lattice import enumerate_short_vectors

    if basis.rank < 2:
        raise ValueError("multiplicative regime needs rank >= 2")
    fs = basis.field
    if psi is not None and psi.s != fs.s:
        raise ValueError("psi and the basis use different values of s")
    bound_exp = _spower_exponent(norm_bound, fs.s, "norm_bound")
    seen: set[tuple] = set()
    solutions = []
    degenerate = []
    checked = 0
    for vec in enumerate_short_vectors(basis, float(norm_bound), cap=cap):
        lead = next(e for e in vec if e.has_leading_term)
        c = fs.inv(int(lead.coeffs[0]))
        canon = tuple(e.scale(c) for e in vec)
        key = tuple((e.v, tuple(int(x) for x in e.coeffs)) for e in canon)
        if key in seen:
            continue
        seen.add(key)
        checked += 1
        exps = []
        degen = False
        for e in canon:
            if e.has_leading_term:
                exps.append(-int(e.valuation()))
            elif e.prec is None:
                degen = True
            else:
                raise CertificationError(
                    "coordinate vanishes through the window; "
                    "zero is undecidable at this precision",
                    needed_precision=e.prec + 1,
                )
        if degen:
            degenerate.append(canon)
            continue
        prod = sum(exps)
        norm = max(exps)
        if psi is not None and prod <= norm + _llog_ext(psi, norm) + _EPS:
            solutions.append(MultiplicativeSolution(canon, tuple(exps)))
    label = "zero" if psi is None else psi.describe()
    return MultSolutionSet(fs.s, bound_exp, label, solutions, degenerate, checked)


def xi_exact_reference(g, depth_cap: int = 48, max_classes: int | None = None):
    """Exact Xi(g) by walking the congruence classes: every class of the
    first column mod (1/X)^N is built as a coefficient buffer, classes the
    window determines are retired with their value, the rest are refined
    one level and the undetermined ones evaluated at their zero-tail
    representative.  Builds one buffer per class, so it checks
    ``xi_exact``'s rank counts, not its speed; returns None instead of
    building a level that would take the count above ``max_classes``."""
    from ffdyn.errors import CertificationError
    from ffdyn.spherical import XiExact, _ComponentGeometry, _require_det_one, as_matrix

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

    def representatives(frontier, mass):
        if frontier[0].shape[0] == 0:
            return Fraction(0)
        sentinel = 10**9
        exps = []
        for comp, geom in zip(frontier, geoms):
            nz = comp != 0
            exps.append(np.where(nz.any(axis=1), geom.base + nz.argmax(axis=1), sentinel))
        rep = np.minimum(exps[0], exps[1])
        if (rep >= sentinel).any():
            raise RuntimeError("representative column maps to zero; matrix singular")
        total = Fraction(0)
        for exp, count in zip(*np.unique(rep, return_counts=True)):
            total += int(count) * Fraction(s) ** int(exp)
        return mass * total

    da = np.repeat(np.arange(s, dtype=np.int64), s)
    dc = np.tile(np.arange(s, dtype=np.int64), s)
    stable = Fraction(0)
    classes = 0
    s_prev = None
    # per component, (n, L) coefficient buffers; depth 0 = the empty prefix
    frontier = [np.zeros((1, 0), dtype=np.int64) for _ in geoms]
    for depth in range(1, depth_cap + 1):
        # depth 1 drops (0, 0): the column must be unimodular
        da_lvl, dc_lvl = (da[1:], dc[1:]) if depth == 1 else (da, dc)
        mass = Fraction(1, (s * s - 1) * s ** (2 * (depth - 1)))
        if max_classes is not None and classes + frontier[0].shape[0] * da_lvl.size > max_classes:
            return None
        children = []
        for comp, geom in zip(frontier, geoms):
            grid = fs.add_arr(
                fs.mul_arr(da_lvl[:, None], geom.level_row(depth, geom.u)[None, :]),
                fs.mul_arr(dc_lvl[:, None], geom.level_row(depth, geom.v)[None, :]),
            )
            pad = geom.length(depth) - comp.shape[1]
            child = fs.add_arr(np.pad(comp, ((0, 0), (0, pad)))[:, None, :], grid[None])
            children.append(child.reshape(-1, geom.length(depth)))
        classes += children[0].shape[0]

        vals, founds = [], []
        for child, geom in zip(children, geoms):
            nz = child[:, :depth] != 0
            founds.append(nz.any(axis=1))
            vals.append(geom.base + nz.argmax(axis=1))
        f0, f1 = founds
        v0, v1 = vals
        minval = np.where(f0 & f1, np.minimum(v0, v1), np.where(f0, v0, v1))
        determined = (
            (f0 & f1)
            | (f0 & ~f1 & (v0 <= depth + geoms[1].base))
            | (~f0 & f1 & (v1 <= depth + geoms[0].base))
        )
        level = Fraction(0)
        for exp, count in zip(*np.unique(minval[determined], return_counts=True)):
            level += int(count) * Fraction(s) ** int(exp)
        stable += mass * level
        frontier = [child[~determined] for child in children]

        s_depth = stable + representatives(frontier, mass)
        if s_prev is not None and s_depth == s_prev and frontier[0].shape[0] == 0:
            return XiExact(value=s_depth, stabilized=True, depth=depth - 1, classes=classes)
        s_prev = s_depth

    raise CertificationError(
        f"congruence-class sum did not stabilize by depth {depth_cap}",
        needed_precision=depth_cap + 1,
    )


def verify_window_witness(rows_A, psi, spec, t, R, qs, ps):
    """The WindowWitness of one flagged time t with threshold R: the
    residual p + Aq recomputed by series arithmetic (p = minus the whole
    part of Aq when ps is None), then the predicted norm window and the
    non-strict inequality, as ``correspondence_check`` reads them."""
    from ffdyn.dioph import _EPS, WindowWitness, _llog_ext
    from ffdyn.errors import CertificationError
    from ffdyn.field import LaurentSeries

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
    bot = vector_exponents(qs)
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
