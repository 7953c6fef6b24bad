"""Cusp-volume combinatorics for split type-A groups.

Dominant cocharacters of SL_{r+1} are weakly decreasing integer vectors
with zero sum.  Throughout, rho is the sum of ALL positive roots (not the
half sum), which makes the length of a dominant translation equal to the
pairing <rho, lambda> on the nose.  Volumes of Iwahori double cosets are
q^(-length), and the cusp tail S(T) collects q^(-<rho,lambda>) over
dominant lambda with pairing at least T.
"""

import itertools
import math
from dataclasses import dataclass

from .errors import CertificationError, EnumerationCapError
from .field import prime_power

_DEFAULT_ENUM_CAP = 5_000_000


@dataclass(frozen=True)
class RootSystemSpec:
    """Type A_r root data; positive roots are e_i - e_j with i < j."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")

    @property
    def positive_roots(self) -> tuple[tuple[int, int], ...]:
        r1 = self.rank + 1
        return tuple((i, j) for i in range(r1) for j in range(i + 1, r1))

    @property
    def longest_length(self) -> int:
        return self.rank * (self.rank + 1) // 2

    @property
    def weyl_order(self) -> int:
        return math.factorial(self.rank + 1)


def rho_pairing(lam) -> int:
    """<rho, lambda> = sum over i < j of (lambda_i - lambda_j)."""
    n = len(lam)
    return sum((n - 1 - 2 * i) * int(c) for i, c in enumerate(lam))


def is_dominant(lam) -> bool:
    ok = all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    return ok and sum(lam) == 0


def _gap_vectors(target: int, rank: int):
    """Nonnegative gap vectors a with sum_t t(r+1-t) a_t = target and the
    zero-sum integrality constraint sum_t t a_t = 0 mod (r+1)."""
    r1 = rank + 1
    coeffs = [t * (r1 - t) for t in range(1, rank + 1)]

    def rec(t, rem, weighted, prefix):
        if t == rank - 1:
            c = coeffs[t]
            if rem % c == 0:
                a = rem // c
                if (weighted + rank * a) % r1 == 0:
                    yield (*prefix, a)
            return
        c = coeffs[t]
        for a in range(rem // c + 1):
            yield from rec(t + 1, rem - c * a, weighted + (t + 1) * a, (*prefix, a))

    yield from rec(0, target, 0, ())


def _lambda_from_gaps(gaps: tuple[int, ...]) -> tuple[int, ...]:
    r1 = len(gaps) + 1
    weighted = sum((t + 1) * a for t, a in enumerate(gaps))
    last = -weighted // r1
    out = [last] * r1
    for i in range(len(gaps) - 1, -1, -1):
        out[i] = out[i + 1] + gaps[i]
    return tuple(out)


def _enum_estimate(target: int, rank: int) -> int:
    r1 = rank + 1
    est = 1
    for t in range(1, rank):
        est *= target // (t * (r1 - t)) + 1
    return est


def dominant_cocharacters(target: int, spec: RootSystemSpec):
    """All dominant zero-sum lambda with <rho, lambda> = target."""
    for gaps in _gap_vectors(target, spec.rank):
        yield _lambda_from_gaps(gaps)


def dominant_count(target: int, spec: RootSystemSpec, cap: int = _DEFAULT_ENUM_CAP) -> int:
    """Exact number of dominant cocharacters at pairing value target."""
    if target < 0:
        raise ValueError("pairing value must be nonnegative")
    if _enum_estimate(target, spec.rank) > cap:
        raise EnumerationCapError(
            f"enumeration at pairing {target}, rank {spec.rank} exceeds cap {cap}"
        )
    return sum(1 for _ in _gap_vectors(target, spec.rank))


# ---------------------------------------------------------------------------
# affine Weyl elements and Iwahori volumes


@dataclass(frozen=True)
class AffineWeylElement:
    """Element e^lambda w acting by x -> w(x) + lambda; perm[i] = w(i)."""

    perm: tuple[int, ...]
    translation: tuple[int, ...]

    def __post_init__(self):
        n = len(self.translation)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation matching the translation")


def translation_element(lam) -> AffineWeylElement:
    return AffineWeylElement(tuple(range(len(lam))), tuple(lam))


def affine_length(elem: AffineWeylElement) -> int:
    """Length in the affine Weyl group, Iwahori-Matsumoto count.

    For e^lambda w the contribution of a positive root alpha is
    |<lambda, alpha>| when w^-1 alpha stays positive and
    |<lambda, alpha> - 1| when it turns negative.
    """
    lam = elem.translation
    n = len(lam)
    winv = [0] * n
    for i, wi in enumerate(elem.perm):
        winv[wi] = i
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairing = lam[i] - lam[j]
            if winv[i] < winv[j]:
                total += abs(pairing)
            else:
                total += abs(pairing - 1)
    return total


@dataclass(frozen=True)
class FiberReport:
    """Lengths across the fiber {w e^mu : w in W, mu in the orbit of lambda}."""

    lam: tuple[int, ...]
    base_length: int
    elements: tuple[AffineWeylElement, ...]
    lengths: tuple[int, ...]

    @property
    def spread(self) -> int:
        return max(self.lengths) - min(self.lengths)

    def volume_sum(self, q: int) -> float:
        return sum(float(q) ** -l for l in self.lengths)

    def volume_bounds(self, q: int, spec: RootSystemSpec) -> tuple[float, float]:
        lo = float(q) ** -self.base_length
        hi = (
            spec.weyl_order**2
            * float(q) ** (2 * spec.longest_length)
            * float(q) ** -self.base_length
        )
        return lo, hi


def fiber_report(lam, spec: RootSystemSpec) -> FiberReport:
    """Enumerate w e^mu over the Weyl orbit of lambda and record lengths."""
    lam = tuple(int(c) for c in lam)
    if len(lam) != spec.rank + 1:
        raise ValueError("lambda does not match the rank")
    if not is_dominant(lam):
        raise ValueError("lambda must be dominant with zero sum")
    orbit = sorted(set(itertools.permutations(lam)))
    elements = []
    for w in itertools.permutations(range(spec.rank + 1)):
        for mu in orbit:
            # w e^mu = e^(w mu) w, and (w mu)_i = mu at w^-1(i)
            wmu = [0] * len(mu)
            for i, wi in enumerate(w):
                wmu[wi] = mu[i]
            elements.append(AffineWeylElement(tuple(w), tuple(wmu)))
    lengths = tuple(affine_length(e) for e in elements)
    return FiberReport(lam, rho_pairing(lam), tuple(elements), lengths)


# ---------------------------------------------------------------------------
# cusp tail


@dataclass(frozen=True)
class CuspTail:
    """Truncated-but-certified value of S(T) and its power-law comparator."""

    T: int
    rank: int
    q: int
    tail: float
    comparator: float
    ratio: float
    cutoff: int
    remainder_bound: float

    def row(self) -> tuple:
        return (self.T, self.tail, self.comparator, self.ratio)


def _count_upper_bound(l: int, rank: int) -> float:
    # gaps a_1..a_{r-1} each range over at most l+1 values, a_r is determined
    return float(l + 1) ** (rank - 1)


def _require_prime_power(q: int) -> None:
    # q is the order of the residue field F_q, as in tree.quotient_ray
    if prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")


def cusp_tail(
    T: int,
    spec: RootSystemSpec,
    q: int,
    rel_tol: float = 1e-12,
    max_terms: int = 5000,
) -> CuspTail:
    """S(T) = sum of q^(-<rho,lambda>) over dominant lambda with pairing >= T,
    together with the comparator sum of q^(-l) l^(r-1) over l >= T.

    Both sums are truncated once a geometric remainder bound certifies the
    neglected mass below rel_tol of each partial sum.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    _require_prime_power(q)
    r = spec.rank
    s_part = 0.0
    c_part = 0.0
    l = T
    while True:
        s_part += dominant_count(l, spec) * float(q) ** -l
        c_part += float(l) ** (r - 1) * float(q) ** -l
        # f(l) = (l+1)^(r-1) q^-l decays at worst geometrically past l
        shrink = (1.0 + 1.0 / (l + 2)) ** (r - 1) / q
        if shrink < 1.0:
            rem = _count_upper_bound(l + 1, r) * float(q) ** -(l + 1) / (1.0 - shrink)
            if s_part > 0.0 and rem <= rel_tol * min(s_part, c_part):
                break
        if l - T >= max_terms:
            raise CertificationError(
                f"tail bound not met after {max_terms} terms past T={T}"
            )
        l += 1
    ratio = s_part / c_part
    return CuspTail(T, r, q, s_part, c_part, ratio, l, rem)


def cusp_rows(spec: RootSystemSpec, q: int, T_lo: int, T_hi: int) -> list[CuspTail]:
    _require_prime_power(q)
    return [cusp_tail(T, spec, q) for T in range(T_lo, T_hi + 1)]


def ratio_band(rows: list[CuspTail]) -> float:
    """max/min of the tail-to-comparator ratio over a row set."""
    ratios = [row.ratio for row in rows]
    return max(ratios) / min(ratios)
