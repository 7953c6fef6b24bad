"""Diagonal flows on unipotent lattices and their excursion statistics.

The model: A is an m x n matrix over O = F_s[[1/X]], u_A the block-unipotent
basis [[I, A], [0, I]], and g_t = diag(X^(nt) I_m, X^(-mt) I_n) the diagonal
flow.  The depth trajectory t -> Delta(g_t u_A Z^r) measures how well A is
approximable; the rate transform links a decay profile psi to the linear
drift r(a) that the trajectory must beat; and the tail table holds
mu{Delta >= n} together with its geometric decay exponent.

Sampling is by iid uniform coefficients to an explicit window, pushed by a
fixed burn-in time (an equidistribution surrogate, cross-validated in rank 2
against exact masses).  Every reported depth carries its certification
against the input window.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import BracketError, CertificationError, FieldError, LatticeError
from .field import FieldSpec, LaurentSeries, Poly, _from_planes, _plane_tables, _plane_weights
from .field import _planes, _stack
from .lattice import LatticeBasis, _augmented, _column_pivots, _needed
from .lattice import _PlaneWU, _reduce_packed, _transform_room
from .streams import map_trials, stream

DEFAULT_BURN_IN = 8

# an experiment whose expected hit count stays below this is treated as
# convergent: ratio curves are meaningless there and raw counts are reported
DIVERGENCE_FLOOR = 10.0


@dataclass(frozen=True)
class FlowSpec:
    """Block sizes of the expanding/contracting flow on F_s((1/X))^(m+n)."""

    field: FieldSpec
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("block sizes m, n must be >= 1")

    @property
    def rank(self) -> int:
        return self.m + self.n

    def drift(self, t: int) -> "DriftVector":
        exps = (self.n * t,) * self.m + (-self.m * t,) * self.n
        return DriftVector(exps)


@dataclass(frozen=True)
class DriftVector:
    """Integer diagonal exponents with zero sum: g = diag(X^t1, ..., X^tr)."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(t) for t in self.exponents))
        if sum(self.exponents) != 0:
            raise ValueError("drift exponents must sum to zero")

    @property
    def rank(self) -> int:
        return len(self.exponents)


def unipotent_lattice(A, spec: FlowSpec) -> LatticeBasis:
    """Basis [[I_m, A], [0, I_n]] for A an m x n matrix over O."""
    fs = spec.field
    rows = _entry_rows(A, spec)
    one, zero = LaurentSeries.one(fs), LaurentSeries.zero(fs)
    m, r = spec.m, spec.rank
    out = []
    for i in range(r):
        line = []
        for j in range(r):
            if j < m:
                line.append(one if i == j else zero)
            elif i < m:
                line.append(rows[i][j - m])
            else:
                line.append(one if i == j else zero)
        out.append(line)
    return LatticeBasis(fs, out)


def _entry_rows(A, spec: FlowSpec) -> list[list[LaurentSeries]]:
    """A as its rows, checked to be m x n over the spec's field and in O."""
    rows = [[A]] if isinstance(A, LaurentSeries) else [list(r) for r in A]
    if len(rows) != spec.m or any(len(r) != spec.n for r in rows):
        raise ValueError(f"A must be {spec.m} x {spec.n}")
    for row in rows:
        for a in row:
            if a.field != spec.field:
                raise FieldError("entry field mismatch")
            if a.coeffs.size and a.v < 0:
                raise ValueError("entries must lie in O = F_s[[1/X]] (nonnegative order)")
    return rows


def flow_apply(
    basis: LatticeBasis, time: "int | DriftVector", spec: FlowSpec | None = None
) -> LatticeBasis:
    """Left-multiply the basis by the diagonal flow element."""
    if isinstance(time, DriftVector):
        drift = time
    else:
        if spec is None:
            raise ValueError("integer time needs a FlowSpec")
        drift = spec.drift(int(time))
    if drift.rank != basis.rank:
        raise ValueError("drift rank does not match basis rank")
    rows = [
        [e.shift(drift.exponents[i]) for e in basis.entries[i]]
        for i in range(basis.rank)
    ]
    return LatticeBasis(basis.field, rows)


# ---------------------------------------------------------------------------
# psi families and the rate transform


class PsiFunction:
    """Non-increasing positive decay profile psi: [x0, inf) -> (0, inf).

    Subclasses work on the log_s scale: ``llog(u) = log_s psi(s^u)`` for
    u >= u0 = log_s x0.  All norms in the model are s-powers, so psi is only
    ever evaluated at s-power arguments.
    """

    label = "psi"

    def __init__(self, s: int, u0: float):
        self.s = int(s)
        self.u0 = float(u0)

    def llog(self, u: float) -> float:
        raise NotImplementedError

    def value(self, x: float) -> float:
        u = math.log(x) / math.log(self.s)
        return float(self.s) ** self.llog(u)

    def describe(self) -> str:
        return self.label


class PsiPowerLaw(PsiFunction):
    """psi(x) = s^(-c) * x^(-tau) on [s^u0, inf)."""

    def __init__(self, s: int, c: float = 0.0, tau: float = 1.0, u0: float = 0.0):
        if tau < 0:
            raise ValueError("tau must be >= 0 for a non-increasing profile")
        super().__init__(s, u0)
        self.c = float(c)
        self.tau = float(tau)
        self.label = f"power(c={self.c:g}, tau={self.tau:g})"

    def llog(self, u: float) -> float:
        return -self.c - self.tau * u


class PsiLogPower(PsiFunction):
    """psi(x) = 1 / (x * (log_s x)^sigma) on [s^u0, inf), u0 >= 1."""

    def __init__(self, s: int, sigma: float, u0: float = 1.0):
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        if u0 < 1:
            raise ValueError("u0 must be >= 1 so the log factor is positive")
        super().__init__(s, u0)
        self.sigma = float(sigma)
        self.label = f"logpower(sigma={self.sigma:g})"

    def llog(self, u: float) -> float:
        if u < 1 - 1e-12:
            raise ValueError("outside domain: log_s x < 1")
        return -u - self.sigma * (math.log(max(u, 1.0)) / math.log(self.s))


class PsiTable(PsiFunction):
    """Piecewise-linear log-profile through (u, log_s psi(s^u)) points."""

    def __init__(self, s: int, points):
        pts = sorted((float(u), float(l)) for u, l in points)
        if len(pts) < 2:
            raise ValueError("need at least two table points")
        us = [u for u, _ in pts]
        ls = [l for _, l in pts]
        if any(b <= a for a, b in zip(us, us[1:])):
            raise ValueError("u grid must be strictly increasing")
        if any(b > a + 1e-12 for a, b in zip(ls, ls[1:])):
            raise ValueError("profile must be non-increasing")
        super().__init__(s, us[0])
        self._us = np.array(us)
        self._ls = np.array(ls)
        self.u_max = us[-1]
        self.label = f"table({len(pts)} pts)"

    def llog(self, u: float) -> float:
        if u < self._us[0] - 1e-9 or u > self._us[-1] + 1e-9:
            raise ValueError(f"u = {u} outside the table range")
        return float(np.interp(u, self._us, self._ls))


@dataclass
class RateFunction:
    """Drift profile r(a) with lam(a) = a - n r(a) and big_l(a) = a + m r(a)."""

    m: int
    n: int
    s: int
    a0: float
    evaluator: object
    source: str = "callable"

    def r(self, a: float) -> float:
        if a < self.a0 - 1e-9:
            raise ValueError(f"a = {a} below the domain start a0 = {self.a0}")
        return float(self.evaluator(a))

    def lam(self, a: float) -> float:
        return a - self.n * self.r(a)

    def big_l(self, a: float) -> float:
        return a + self.m * self.r(a)


def psi_to_rate(psi: PsiFunction, m: int, n: int, tol: float = 1e-12) -> RateFunction:
    """Solve psi(s^(a - n r)) = s^(-(a + m r)) for r as a function of a.

    The residual h(r) = log_s psi(s^(a - n r)) + a + m r is non-decreasing in
    r (psi non-increasing), with slope at least m.  The bracket starts at
    [-a/m, (a - u0)/n]; the upper end keeps the psi argument inside the
    domain and satisfies h >= 0 for every a >= a0, with equality at a0.  A
    secant step through it is kept when |h| <= tol there (h is affine for a
    power law); else bisection finds the root to within tol.
    """
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    u0 = psi.u0
    a0 = (m * u0 - n * psi.llog(u0)) / (m + n)
    cache: dict[float, float] = {}

    def solve(a: float) -> float:
        got = cache.get(a)
        if got is not None:
            return got

        def h(r: float) -> float:
            return psi.llog(a - n * r) + a + m * r

        hi = (a - u0) / n
        if (h_hi := h(hi)) < -tol:
            raise BracketError(f"no root above the domain edge at a = {a}")
        lo = min(-a / m, hi - 1.0)
        grow = 1.0
        while (h_lo := h(lo)) > 0:
            lo -= grow
            grow *= 2
            if grow > 2**40:
                raise BracketError(f"bracket expansion failed at a = {a}")
        # h_hi - h_lo >= m (hi - lo) >= 1; h_hi may be below 0 by tol
        root = min(hi, lo - h_lo * (hi - lo) / (h_hi - h_lo))
        if abs(h(root)) > tol:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if h(mid) > 0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < tol:
                    break
            root = 0.5 * (lo + hi)
        cache[a] = root
        return root

    return RateFunction(m, n, psi.s, a0, solve, source=psi.describe())


class _PsiFromRate(PsiFunction):
    """psi(s^u) = s^(-big_l(a)) at the unique a with lam(a) = u."""

    def __init__(self, rate: RateFunction, tol: float):
        super().__init__(rate.s, rate.lam(rate.a0))
        self.rate = rate
        self.tol = tol
        self.label = f"from-rate({rate.source})"

    def llog(self, u: float) -> float:
        rate, tol = self.rate, self.tol
        if u < self.u0 - 1e-9:
            raise ValueError(f"u = {u} below x0")
        lo = rate.a0
        if rate.lam(lo) >= u:
            return -rate.big_l(lo)
        hi = max(lo + 1.0, u + 1.0)
        while rate.lam(hi) < u:
            hi = lo + 2 * (hi - lo)
            if hi - lo > 2**40:
                raise BracketError("lambda does not reach the requested level")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if rate.lam(mid) < u:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol:
                break
        a = 0.5 * (lo + hi)
        return -rate.big_l(a)


def rate_to_psi(rate: RateFunction, tol: float = 1e-12) -> PsiFunction:
    """Invert the rate transform; lam must be strictly increasing."""
    return _PsiFromRate(rate, tol)


# ---------------------------------------------------------------------------
# continued-fraction ladder (m = n = 1 fast path)
#
# For A = sum_{i>=1} a_i X^(-i) known on indices 1..P, Euclid on (X^P, N)
# with N = sum a_i X^(P-i) yields partial quotients alpha_k whose convergent
# denominators q_k = alpha_k q_(k-1) + q_(k-2) have degrees D_k, and
#     Delta(g_t u_A Z^2) = min(t - D_k, D_{k+1} - t)  for  D_k <= t <= D_{k+1}.
# A rung is certified against truncation when D_{k-1} + D_k <= P; past the
# last visible rung the value t - D_last is certified when 2t <= P + 1.


def _cf_ladder(
    fs: FieldSpec, coeffs: np.ndarray, horizon: int
) -> tuple[np.ndarray, np.ndarray, Sequence]:
    """Rungs D, their certification flags and the partial quotients of the
    Euclid ladder for the coefficients a_1..a_P, up to the first rung past
    ``horizon``.

    quotients[k - 1], the k-th partial quotient, is an ascending coefficient
    sequence of degree D_k - D_(k-1).  The sawtooth at t reads the rungs
    around t, so stopping right after the first D_k > horizon leaves every
    depth, flag and convergent at t <= horizon as the full ladder has them;
    a horizon >= P runs the whole ladder.  Over p = 2 and p = 3 the
    remainders are digit planes of Python ints (``_plane_rungs``,
    ``_ternary_rungs``); p >= 5 divides coefficient arrays.
    """
    P = int(coeffs.size)
    last_deg = P - horizon  # a divisor of lower degree is a rung past horizon
    if fs.p <= 3:
        rungs = _plane_rungs if fs.p == 2 else _ternary_rungs
        degs, quotients = rungs(fs, _planes(fs, coeffs[::-1]), P, last_deg)
        quotients = _BitQuotients(quotients, (fs.s - 1).bit_length())
    else:
        degs, quotients = [], []  # degree of each divisor, quotient by it
        r0 = np.zeros(P + 1, dtype=np.int64)
        r0[P] = 1
        r1 = Poly(fs, coeffs[::-1]).coeffs  # a_i at slot P - i
        while r1.size:
            q, rem = fs.polydivmod(r0, r1)
            degs.append(r1.size - 1)
            quotients.append(q)
            if degs[-1] < last_deg:
                break
            r0, r1 = r1, rem
    D = P - np.array([P, *degs], dtype=np.int64)
    cert = np.ones(D.size, dtype=bool)
    cert[1:] = D[:-1] + D[1:] <= P
    return D, cert, quotients


def _plane_rungs(
    fs: FieldSpec, planes: list[int], P: int, last_deg: int
) -> tuple[list[int], list[int]]:
    """Divisor degrees and quotients of the ladder on X^P and the polynomial
    over F_(2^e) with these ``planes``, stopping after the first divisor of
    degree below ``last_deg``.

    Each step clears the leading term of r0 by r0 += c X^k r1 with
    c = lead(r0) / lead(r1), read from the log tables; a plane's bit length
    gives its degree plus one, and the lead code has bit j set where plane
    j reaches the top degree.  A quotient is one int holding its codes in
    e-bit fields, degree i at bits e i and up.  A step that leaves r0's
    degree where it was would repeat forever, so it raises LatticeError.
    Over F_2 every lead is 1, so a step is one shift and one XOR, with no
    lead code, no lookup and no such check.
    """
    degs, quotients = [], []
    if fs.e == 1:
        r0, r1 = 1 << P, planes[0]
        while r1:
            d1 = r1.bit_length() - 1
            q = 0
            while (k := r0.bit_length() - 1 - d1) >= 0:
                r0 ^= r1 << k
                q |= 1 << k
            degs.append(d1)
            quotients.append(q)
            if d1 < last_deg:
                break
            r0, r1 = r1, r0
        return degs, quotients
    e = fs.e
    log, antilog, rows = _plane_tables(2, e)
    r0 = [1 << P] + [0] * (e - 1)
    r1 = planes
    top0, lead0 = P + 1, 1  # degree + 1 and leading code of r0
    top1 = max(r.bit_length() for r in r1)
    lead1 = sum(1 << j for j, r in enumerate(r1) if r.bit_length() == top1)
    while top1:
        log1 = log[lead1]
        q = 0
        while (k := top0 - top1) >= 0:
            c = antilog[log[lead0] - log1]  # a negative index wraps mod s - 1
            shifted = [r << k for r in r1] if k else r1
            top0 = lead0 = 0
            for j, row in enumerate(rows[c]):
                r = r0[j]
                for i in row:
                    r ^= shifted[i]
                r0[j] = r
                b = r.bit_length()
                if b >= top0:
                    top0, lead0 = b, (lead0 if b == top0 else 0) | 1 << j
            if top0 >= k + top1:
                raise LatticeError("a ladder step did not lower the remainder's degree")
            q |= c << (k * e)
        degs.append(top1 - 1)
        quotients.append(q)
        if top1 <= last_deg:
            break
        r0, r1, top0, top1, lead0, lead1 = r1, r0, top1, top0, lead1, lead0
    return degs, quotients


def _ternary_rungs(
    fs: FieldSpec, planes: list[int], P: int, last_deg: int
) -> tuple[list[int], list[int]]:
    """``_plane_rungs`` over F_(3^e): the same steps on (ones, twos) pairs
    of planes, with quotient codes in fields of (s - 1).bit_length() bits.

    A digit sum is bit-sliced: with t = (xl | xh) & (yl | yh), where both
    digits are nonzero, x + y is ((xl | yl) ^ t, (xh | yh) ^ t), which is
    exact on all nine digit pairs.  The lead code sums p^j or 2 p^j over
    the planes 2j or 2j + 1 that reach the top degree.
    """
    e = fs.e
    width = (fs.s - 1).bit_length()
    log, antilog, rows = _plane_tables(3, e)
    weights = _plane_weights(fs.p, fs.e).tolist()  # lead code of plane n
    degs, quotients = [], []
    r0 = [1 << P] + [0] * (2 * e - 1)
    r1 = planes
    top0, lead0 = P + 1, 1
    top1 = max(r.bit_length() for r in r1)
    lead1 = sum(w for r, w in zip(r1, weights) if r.bit_length() == top1)
    while top1:
        log1 = log[lead1]
        q = 0
        while (k := top0 - top1) >= 0:
            c = antilog[log[lead0] - log1]
            shifted = [r << k for r in r1] if k else r1
            top0 = lead0 = 0
            for j, row in enumerate(rows[c]):
                xl, xh = r0[2 * j], r0[2 * j + 1]
                for i_ones, i_twos in row:
                    yl, yh = shifted[i_ones], shifted[i_twos]
                    t = (xl | xh) & (yl | yh)
                    xl, xh = (xl | yl) ^ t, (xh | yh) ^ t
                r0[2 * j], r0[2 * j + 1] = xl, xh
                b = (xl | xh).bit_length()
                if b >= top0:
                    w = weights[2 * j + (xl.bit_length() != b)]
                    top0, lead0 = b, (lead0 if b == top0 else 0) + w
            if top0 >= k + top1:
                raise LatticeError("a ladder step did not lower the remainder's degree")
            q |= c << (k * width)
        degs.append(top1 - 1)
        quotients.append(q)
        if top1 <= last_deg:
            break
        r0, r1, top0, top1, lead0, lead1 = r1, r0, top1, top0, lead1, lead0
    return degs, quotients


class _BitQuotients(Sequence):
    """Plane-ladder quotients kept as ints of codes in fields of ``width``
    bits and read as code lists.

    The Monte Carlo callers of the ladder never read the quotients, so
    they are not converted up front.
    """

    def __init__(self, ints: list[int], width: int):
        self._ints = ints
        self._width = width

    def __len__(self) -> int:
        return len(self._ints)

    def __getitem__(self, k: int) -> list[int]:
        q, width = self._ints[k], self._width
        mask = (1 << width) - 1
        return [(q >> i) & mask for i in range(0, q.bit_length(), width)]


def _sawtooth_eval(
    D: np.ndarray,
    rung_cert: np.ndarray,
    ts: np.ndarray,
    P: int,
    exact: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(depth, certified, need) at the times ts from the rungs D of a ladder
    on the coefficients a_1..a_P.  need is the input window (a_i known for
    i < need) that certifies t: D_k + D_(k+1) + 1 between rungs k and k + 1,
    2t past the last visible rung."""
    k = np.searchsorted(D, ts, side="right") - 1
    left = ts - D[k]
    has_next = k + 1 < D.size
    k_next = np.minimum(k + 1, D.size - 1)
    delta = np.where(has_next, np.minimum(left, D[k_next] - ts), left)
    if exact:
        cert = np.ones(ts.size, dtype=bool)
    else:
        tail_ok = 2 * ts <= P + 1
        cert = rung_cert[k] & np.where(has_next, rung_cert[k_next], tail_ok)
    need = np.where(has_next, D[k] + D[k_next] + 1, 2 * ts)
    return delta.astype(np.int64), cert, need


# ---------------------------------------------------------------------------
# depth trajectories


@dataclass
class TrajectoryResult:
    """Depth along the flow with certification flags, t = 0..T."""

    spec: FlowSpec
    times: np.ndarray
    deltas: np.ndarray
    certified: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    def rows(self):
        for t, d, c in zip(self.times, self.deltas, self.certified):
            yield int(t), int(d), bool(c)


def delta_trajectory(
    A, spec: FlowSpec, T: int, method: str = "auto", strict: bool = True
) -> TrajectoryResult:
    """Depth of g_t u_A Z^r for t = 0..T.

    For m = n = 1 the trajectory is read off the Euclid degree ladder of A
    (best-approximation sawtooth); otherwise the scaled basis is reduced
    incrementally along t, both checking A as ``unipotent_lattice`` does.
    With strict=True a certification failure raises, with a lower bound on
    the sufficient input precision.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    entries = _entry_rows(A, spec)
    if method not in ("auto", "cf", "generic"):
        raise ValueError(f"unknown method {method!r}")
    if method == "cf" and not (spec.m == 1 and spec.n == 1):
        raise ValueError("the ladder path needs m = n = 1")
    use_cf = spec.m == 1 and spec.n == 1 and method != "generic"
    if use_cf:
        result = _trajectory_cf(spec, entries[0][0], T)
    else:
        result = _generic_result(spec, list(_trajectory_generic(spec, entries, T)))
    if strict:
        _require_certified(result)
    return result


def _require_certified(result: TrajectoryResult) -> TrajectoryResult:
    if not result.certified.all():
        bad = int(np.argmin(result.certified))
        raise CertificationError(
            f"trajectory uncertified at t = {int(result.times[bad])}",
            needed_precision=result.meta.get("needed_precision"),
        )
    return result


def _trajectory_cf(spec: FlowSpec, a: LaurentSeries, T: int) -> TrajectoryResult:
    fs = spec.field
    exact = a.prec is None
    if exact:
        last = a.last_listed_index()
        P = max(last if last is not None else 1, 1)
    else:
        P = a.prec - 1
        if P < 1:
            raise CertificationError(
                "window too small for any ladder rung", needed_precision=2
            )
    D, cert, quotients = _cf_ladder(fs, a.window(1, P + 1), T)
    ts = np.arange(0, T + 1, dtype=np.int64)
    deltas, certified, need = _sawtooth_eval(D, cert, ts, P, exact)
    needed = None if certified.all() else int(need[~certified].max())
    return TrajectoryResult(
        spec,
        ts,
        deltas,
        certified,
        meta={
            "path": "cf",
            "precision": P,
            "rungs": D,
            "quotients": quotients,
            "needed_precision": needed,
        },
    )


# characteristics whose reduction engine runs on digit planes
_PLANE_PRIMES = (2, 3)


def _trajectory_generic(spec: FlowSpec, entries, T: int):
    """The incremental reduction engine along the flow, t = 0..T.

    Keeps W = X^M g_t u_A U in weak Popov form, U the cumulative unimodular
    transform, both in one augmented state (``_augmented``), and yields
    (depth, needed, column) at each t.  Over p = 2 and 3 the state is a
    ``_PlaneWU``, packed straight from the basis: a step of the flow shifts
    the bits of the first m rows of W up by n r places, cut to W's L
    coefficients, and those of the rest down by m r, and every column's
    (degree, pivot) is read from bit lengths.  Over p >= 5 it is the int64
    array, shifted by slice assignment and read in one ``_column_pivots``
    pass.  ``_reduce_packed`` then restores the form.  needed is
    ``lattice._needed`` at scale M + n t: None when every column of U is
    certified at t, else the input precision that would certify them all;
    column is the U column of the shortest reduced vector trimmed to its
    degree, (p_1..p_m, q_1..q_n) in the basis u_A, as an int64 array (r,
    degree + 1) or, over p <= 3, a ``_PlaneColumn``; ``_column_stack``
    reads either.  U's room is ``_transform_room`` with every column of
    X^M g_t u_A at degree <= M + n T and det X^(r M): r n T + 1
    coefficients.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    fs = spec.field
    basis = unipotent_lattice(entries, spec)
    N = basis.window
    m, n, r = spec.m, spec.n, spec.rank
    M = max(basis.scaling_exponent(), m * T)
    L = M + n * T + 1
    ulen = max(L, _transform_room([L - 1] * r, r * M))
    W0 = basis.packed(scale=M)[1]
    planar = fs.p in _PLANE_PRIMES
    if not planar:
        WU, W, U = _augmented(W0, L, ulen)
    else:
        WU = _PlaneWU(fs, W0, L, ulen)
        # the bits of rows :m of W, of rows m: and of U
        up = ((1 << m) - 1) * WU.wmask // ((1 << r) - 1)
        down, rest = WU.wmask ^ up, ~WU.wmask
    udegrees = [0] * r
    for t in range(T + 1):
        if t and planar:
            for col in WU.cols:
                col[:] = [(x & up) << n * r & up | (x & down) >> m * r | x & rest for x in col]
        elif t:
            # g_1 multiplies the first m rows by X^n and divides the rest by X^m
            W[:m, :, n:] = W[:m, :, :-n]
            W[:m, :, :n] = 0
            W[m:, :, :-m] = W[m:, :, m:]
            W[m:, :, -m:] = 0
        if planar:
            degrees, pivots = WU.pivots()
        else:
            degrees, pivots = (a.tolist() for a in _column_pivots(W))
        _reduce_packed(fs, WU, degrees, pivots, udegrees)
        j = degrees.index(min(degrees))
        needed = _needed(M + n * t, N, degrees, udegrees)
        if planar:
            column = _PlaneColumn([x >> r * L for x in WU.cols[j]], r, udegrees[j] + 1)
        else:
            column = U[:, j, : udegrees[j] + 1].copy()
        yield M - degrees[j], needed, column


class _PlaneColumn:
    """A U column of a ``_PlaneWU`` as its planes, decoded only when read
    (``_column_stack``): most times' columns are never read."""

    __slots__ = ("planes", "r", "length")

    def __init__(self, planes: list[int], r: int, length: int):
        self.planes, self.r, self.length = planes, r, length


def _column_stack(fs: FieldSpec, columns) -> np.ndarray:
    """The engine's U columns, or vectors of code arrays, as one zero-padded
    array (count, k, width): arrays copied once, ``_PlaneColumn``s decoded
    by one ``_from_planes`` call."""
    if not isinstance(columns[0], _PlaneColumn):
        return _stack(columns)
    r, width = columns[0].r, max(c.length for c in columns)
    codes = _from_planes(fs, [x for c in columns for x in c.planes], r * width)
    return codes.reshape(len(columns), width, r).transpose(0, 2, 1)


def _generic_result(spec: FlowSpec, steps) -> TrajectoryResult:
    """Trajectory of the engine's steps for t = 0..T."""
    needs = [need for _, need, _ in steps if need is not None]
    return TrajectoryResult(
        spec,
        np.arange(len(steps), dtype=np.int64),
        np.array([d for d, _, _ in steps], dtype=np.int64),
        np.array([need is None for _, need, _ in steps], dtype=bool),
        meta={"path": "generic", "needed_precision": max([0, *needs]) or None},
    )


# ---------------------------------------------------------------------------
# tail distribution


@dataclass(frozen=True)
class KappaFit:
    kappa: float
    prefactor: float
    thresholds: tuple[int, ...]


class TailTable:
    """Values of Phi(n) = mu{Delta >= n}, exact or estimated."""

    def __init__(self, s, thresholds, values, exact=False):
        self.s = int(s)
        self.thresholds = tuple(int(t) for t in thresholds)
        self.values = tuple(values)
        if any(b > a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("tail values must be non-increasing")
        if any(v < 0 or v > 1 for v in self.values):
            raise ValueError("tail values must lie in [0, 1]")
        self.exact = bool(exact)

    def kappa_fit(self) -> KappaFit:
        """Least-squares fit of log_s Phi(n) = log_s C - kappa n over the
        thresholds n >= 1 with Phi(n) > 0."""
        xs, ys = [], []
        for nthr, v in zip(self.thresholds, self.values):
            if nthr < 1 or v <= 0:
                continue
            xs.append(float(nthr))
            ys.append(math.log(float(v)) / math.log(self.s))
        if len(xs) < 2:
            raise ValueError("not enough populated thresholds for a fit")
        slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
        return KappaFit(
            kappa=float(-slope),
            prefactor=float(self.s) ** float(intercept),
            thresholds=tuple(int(x) for x in xs),
        )

    def summary(self) -> dict:
        out = {
            "s": self.s,
            "thresholds": list(self.thresholds),
            "phi": [float(v) for v in self.values],
            "exact": self.exact,
        }
        try:
            fit = self.kappa_fit()
            out["kappa_fit"] = {"kappa": fit.kappa, "prefactor": fit.prefactor}
        except ValueError:
            pass
        return out


def exact_rank2_tail(s: int, n_max: int = 16) -> TailTable:
    """Exact stationary tail in rank 2: Phi(n) = s^(1 - 2n) for n >= 1.

    This is the mass of the depth-n cusp classes in the rank-2 quotient; the
    tree-geometry tests re-derive it independently from stabilizer orders.
    """
    thresholds = list(range(0, n_max + 1))
    values = [
        Fraction(1) if t < 1 else Fraction(1, s ** (2 * t - 1)) for t in thresholds
    ]
    return TailTable(s, thresholds, values, exact=True)


def sample_matrix(
    fs: FieldSpec, rng: np.random.Generator, m: int, n: int, precision: int, exact: bool = False
) -> list[list[LaurentSeries]]:
    """iid uniform matrix over O, coefficients known on indices 0..precision-1.

    With ``exact`` the entries are the exact rational representatives of
    the same draws: the window is left unset, so every later coefficient
    is zero.
    """
    window = None if exact else precision
    out = []
    for _ in range(m):
        row = []
        for _ in range(n):
            coeffs = rng.integers(0, fs.s, size=precision)
            row.append(LaurentSeries(fs, 0, coeffs, window))
        out.append(row)
    return out


def _trial_depths(
    spec: FlowSpec, rng, precision: int, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """(deltas, certified, needed) at the increasing times ts for one
    sampled A: the ladder sawtooth for m = n = 1, the generic trajectory
    otherwise.  needed (None when all are certified) is a lower bound on the
    ``precision`` certifying every t in ts: more can move a rung.  The ladder
    draws a_1..a_precision, so its need is its window need less one."""
    fs = spec.field
    if spec.m == 1 and spec.n == 1:
        coeffs = rng.integers(0, fs.s, size=precision)
        D, cert, _ = _cf_ladder(fs, coeffs, int(ts[-1]))
        deltas, certified, need = _sawtooth_eval(D, cert, ts, precision, False)
        needed = int(need[~certified].max(initial=0)) - 1
    else:
        entries = sample_matrix(fs, rng, spec.m, spec.n, precision)
        traj = delta_trajectory(entries, spec, int(ts[-1]), strict=False)
        deltas, certified = traj.deltas[ts], traj.certified[ts]
        needed = traj.meta["needed_precision"]
    return deltas, certified, None if certified.all() else needed


def _trial_row(spec, seed, tag, trial: int, precision: int, burn_in: int, ts) -> np.ndarray:
    """Depths of trial ``trial`` at the times burn_in + ts.  An uncertified
    one raises CertificationError with the need that ``_trial_depths`` reads."""
    deltas, certified, needed = _trial_depths(spec, stream(seed, tag, trial), precision, burn_in + ts)
    if not certified.all():
        t = int(ts[np.argmin(certified)])
        raise CertificationError(
            f"trial {trial} uncertified at t = {t}; raise the precision to at least {needed}",
            needed_precision=needed,
        )
    return deltas


# ---------------------------------------------------------------------------
# Borel-Cantelli experiments


def _checkpoint_counts(
    spec: FlowSpec,
    thr: np.ndarray,
    cps: np.ndarray,
    trials: int,
    seed: int,
    burn_in: int,
    precision: int | None,
    tag: str,
    threads: int = 1,
) -> np.ndarray:
    """counts[trial, k] = #{t <= cps[k] : Delta(g_(t+burn_in) u_A Z^r) >= thr[t-1]},
    at 2 (T + burn_in) + 96 coefficients when ``precision`` is None; the
    trials, each sending back only its counts, are sharded over ``threads``
    processes by ``map_trials``."""
    T = int(thr.size)
    if precision is None:
        precision = 2 * (T + burn_in) + 96
    ts = np.arange(1, T + 1, dtype=np.int64)

    def counts_row(trial):
        hits = _trial_row(spec, seed, tag, trial, precision, burn_in, ts) >= thr
        return np.cumsum(hits, dtype=np.int64)[cps - 1]

    return np.array(map_trials(counts_row, trials, threads), np.int64).reshape(trials, cps.size)


def _ladder_phis(spec: FlowSpec, thresholds, phi_table) -> tuple[np.ndarray, np.ndarray]:
    """(r_t, Phi(r_t)) for t = 1..T, the thresholds ceiled to integers.
    Without a phi_table the exact rank-2 tail serves m = n = 1."""
    thr = np.ceil(np.asarray(thresholds, dtype=float) - 1e-9).astype(np.int64)
    if thr.size < 1:
        raise ValueError("need at least one threshold")
    if phi_table is None:
        if not spec.m == spec.n == 1:
            raise ValueError("pass a phi_table for block shapes other than 1+1")
        phi_table = exact_rank2_tail(spec.field.s, max(int(thr.max(initial=1)), 1))
    known = {t: float(v) for t, v in zip(phi_table.thresholds, phi_table.values)}
    try:
        return thr, np.array([1.0 if t <= 0 else known[t] for t in thr.tolist()])
    except KeyError as err:
        raise ValueError(f"threshold {err.args[0]} missing from the tail table") from None


def _geometric_checkpoints(T: int, count: int) -> np.ndarray:
    return np.unique(
        np.concatenate(
            [
                np.geomspace(1, T, num=min(count, T)).astype(np.int64),
                np.array([T], dtype=np.int64),
            ]
        )
    )


@dataclass
class StrongBCResult:
    """Hit counts of {Delta(g_t x) >= r_t} against the expected sum."""

    spec: FlowSpec
    T: int
    trials: int
    burn_in: int
    thresholds: np.ndarray
    checkpoints: np.ndarray
    expected: np.ndarray
    counts: np.ndarray  # [trials, len(checkpoints)]
    divergent: bool

    @property
    def ratios(self) -> np.ndarray | None:
        if not self.divergent:
            return None
        return self.counts / self.expected[None, :]

    def final_ratio_quantiles(self, qs=(0.25, 0.5, 0.75)) -> dict[float, float]:
        if not self.divergent:
            raise ValueError("ratios are not meaningful in the convergent regime")
        finals = self.ratios[:, -1]
        return {float(q): float(np.quantile(finals, q)) for q in qs}

    def summary(self) -> dict:
        out = {
            "m": self.spec.m,
            "n": self.spec.n,
            "s": self.spec.field.s,
            "T": self.T,
            "trials": self.trials,
            "burn_in": self.burn_in,
            "expected_final": float(self.expected[-1]),
            "divergent": self.divergent,
        }
        if self.divergent:
            out["ratio_quantiles"] = {
                str(q): v for q, v in self.final_ratio_quantiles().items()
            }
        else:
            finals = self.counts[:, -1]
            out["final_counts"] = {
                "min": int(finals.min()),
                "median": float(np.median(finals)),
                "max": int(finals.max()),
            }
        return out


def strong_bc_experiment(
    spec: FlowSpec,
    thresholds,
    trials: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
    precision: int | None = None,
    phi_table: TailTable | None = None,
    checkpoints: int = 32,
    tag: str = "strong-bc",
    threads: int = 1,
) -> StrongBCResult:
    """Per-trial curves N -> #{t <= N : Delta(g_(t+burn) x) >= r_t} / sum Phi(r_t).

    thresholds holds the ladder r_t for t = 1..T (floats are ceiled).  The
    expected sum uses the exact rank-2 tail when m = n = 1; other block
    shapes need a calibrated phi_table.  When the expected final sum is below
    the divergence floor the result is flagged convergent and counts are
    reported raw.  The trials run in up to ``threads`` worker processes,
    capped at the usable CPUs (``streams.map_trials``); the result is the
    same for every ``threads``.
    """
    thr, phis = _ladder_phis(spec, thresholds, phi_table)
    T = int(thr.size)
    expected_full = np.cumsum(phis)
    cps = _geometric_checkpoints(T, checkpoints)
    counts = _checkpoint_counts(spec, thr, cps, trials, seed, burn_in, precision, tag, threads)
    return StrongBCResult(
        spec=spec,
        T=T,
        trials=trials,
        burn_in=burn_in,
        thresholds=thr,
        checkpoints=cps,
        expected=expected_full[cps - 1],
        counts=counts,
        divergent=bool(expected_full[-1] >= DIVERGENCE_FLOOR),
    )
