"""Cusp-volume combinatorics for split type-A groups.

Dominant cocharacters of SL_{r+1} are weakly decreasing integer vectors
with zero sum.  Throughout, rho is the sum of ALL positive roots (not the
half sum), which makes the length of a dominant translation equal to the
pairing <rho, lambda> = sum over i < j of (lambda_i - lambda_j) on the
nose.  Volumes of Iwahori double cosets are q^(-length), and the cusp
tail S(T) collects q^(-<rho,lambda>) over dominant lambda with pairing at
least T.  A dominant lambda is counted by its gaps a_t = lambda_t -
lambda_(t+1) >= 0, in which the pairing is sum_t t(r+1-t) a_t.
"""

from dataclasses import dataclass

from .errors import CertificationError, EnumerationCapError
from .field import prime_power

_DEFAULT_ENUM_CAP = 5_000_000


@dataclass(frozen=True)
class RootSystemSpec:
    """Type A_r, the root system of SL_{r+1}; positive roots are e_i - e_j
    with i < j."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")


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


def _enum_estimate(target: int, rank: int) -> int:
    r1 = rank + 1
    est = 1
    for t in range(1, rank):
        est *= target // (t * (r1 - t)) + 1
    return est


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
