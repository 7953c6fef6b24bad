"""The rank-1 cusp: Serre's quotient ray of the (q+1)-regular tree.

SL2(F_q[X]) acting on the Bruhat-Tits tree of SL2(F_q((1/X))) has an
infinite ray as quotient.  Vertex v_j is the class of the module
O + X^(-j) O; its mass is proportional to the reciprocal stabilizer
order.  Geodesics are simulated as the projection of the uniform
non-backtracking walk, whose transition table is derived from the edge
indices of the quotient, and the logarithm law compares excursion depth
against log time.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EnumerationCapError
from .field import Poly, field_spec, prime_power
from .streams import map_trials, stream

_ORACLE_CAP = 2_000_000


def stabilizer_order_oracle(j: int, q: int, degree_bound: int, cap: int = _ORACLE_CAP) -> int:
    """Exact order of the stabilizer of v_j in SL2(F_q[X]) by enumeration.

    v_j is the class of L_j = O + X^(-j) O.  A stabilizing matrix sends the
    columns (1,0) and (0, X^(-j)) into L_j, which forces deg a <= 0,
    deg c <= -j, deg b <= j, deg d <= 0; so enumerating entry degrees up to
    degree_bound >= j is complete and the result carries its own
    certificate that larger degrees cannot occur.
    """
    if j < 0:
        raise ValueError("level must be nonnegative")
    if degree_bound < j:
        raise ValueError("degree_bound below the level: enumeration incomplete")
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"q = {q} is not a prime power")
    pairs = q ** (2 * (degree_bound + 1))
    if pairs > cap:
        raise EnumerationCapError(f"{pairs} entry pairs exceed the oracle cap {cap}")
    fs = field_spec(*pe)
    polys = [Poly(fs, c) for c in itertools.product(range(q), repeat=degree_bound + 1)]
    # deg c <= -j admits only c = 0 once j > 0
    cols1 = [
        (a, c)
        for a in polys
        for c in polys
        if a.degree <= 0 and (c.degree <= -j or c.is_zero)
    ]
    cols2 = [(b, d) for b in polys for d in polys if b.degree <= j and d.degree <= 0]
    one = Poly.one(fs)
    return sum(a * d - b * c == one for a, c in cols1 for b, d in cols2)


def _vertex_order(q: int, j: int) -> int:
    return q**3 - q if j == 0 else (q - 1) * q ** (j + 1)


def _edge_order(q: int, j: int) -> int:
    # stabilizer of the edge (v_j, v_{j+1}): both column conditions at once
    # (a, d constant, deg b <= j, c = 0), so the order is (q-1) q^(j+1)
    return (q - 1) * q ** (j + 1)


@dataclass(frozen=True)
class QuotientRay:
    """Vertex masses and edge indices of the quotient ray."""

    q: int
    j_max: int
    orders: tuple[int, ...]
    masses: tuple[Fraction, ...]
    norm: Fraction
    lY: float
    verified_to: int

    def mass(self, j: int) -> Fraction:
        if j <= self.j_max:
            return self.masses[j]
        return Fraction(1, _vertex_order(self.q, j)) / self.norm

    def tail_mass(self, r: int) -> Fraction:
        """mu(A(r)): total mass at distance >= r from the base vertex."""
        if r <= 0:
            return Fraction(1)
        return Fraction(1, (self.q - 1) ** 2 * self.q**r) / self.norm

    def index_up(self, j: int) -> int:
        return _vertex_order(self.q, j) // _edge_order(self.q, j)

    def index_down(self, j: int) -> int:
        if j == 0:
            return 0
        return _vertex_order(self.q, j) // _edge_order(self.q, j - 1)


def quotient_ray(q: int, j_max: int = 12, verify_depth: int = 1) -> QuotientRay:
    """Build the ray with exact masses; cross-check orders against the
    enumeration oracle for prime q in {2, 3} up to verify_depth."""
    if prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    if j_max < 2:
        raise ValueError("j_max must be at least 2")
    orders = tuple(_vertex_order(q, j) for j in range(j_max + 1))
    verified = -1
    if q in (2, 3):
        for j in range(min(verify_depth, j_max) + 1):
            got = stabilizer_order_oracle(j, q, max(j, 1))
            if got != orders[j]:
                raise RuntimeError(
                    f"stabilizer oracle disagrees at j={j}: {got} != {orders[j]}"
                )
            verified = j
    # total unnormalized mass including the exact geometric tail
    norm = sum(Fraction(1, o) for o in orders) + Fraction(
        1, (q - 1) ** 2 * q ** (j_max + 1)
    )
    masses = tuple(Fraction(1, o) / norm for o in orders)
    # decay exponent from the tail-mass slope, certified constant; tails
    # are exact so the slope check is a Fraction identity
    tails = [Fraction(1, (q - 1) ** 2 * q**r) / norm for r in range(1, 6)]
    ratios = {b / a for a, b in zip(tails, tails[1:])}
    if len(ratios) != 1:
        raise RuntimeError("tail mass is not geometric; closed form is wrong")
    lY = math.log(1 / float(next(iter(ratios)))) / math.log(q)
    ray = QuotientRay(q, j_max, orders, masses, norm, lY, verified)
    # regularity: index-weighted degree q+1 at every vertex
    for j in range(j_max + 1):
        if ray.index_up(j) + ray.index_down(j) != q + 1:
            raise RuntimeError(f"edge indices at v_{j} do not sum to q+1")
    return ray


# ---------------------------------------------------------------------------
# geodesic simulation


def _climb_probability(ray: QuotientRay) -> float:
    """P(move up) at a vertex v_j, j >= 1, entered from below.

    The walk removes the reversal edge from the multiplicity of the
    direction it entered through and picks a remaining lift uniformly.
    With index_up(j) = 1 for j >= 1 this leaves one free choice: v_0
    always climbs, a vertex entered from above always descends (its only
    upward lift is the reversal), and one entered from below climbs with
    probability iu / (iu + id - 1) = 1 / id whatever its level.
    """
    probs = set()
    for j in range(ray.j_max + 1):
        iu, idn = ray.index_up(j), ray.index_down(j)
        if j == 0:
            if idn != 0:
                raise RuntimeError("the base vertex has a downward edge")
            continue
        if iu != 1:
            raise RuntimeError(f"v_{j} has {iu} upward edges; excursions need exactly one")
        probs.add(iu / (iu + idn - 1))
    if len(probs) != 1:
        raise RuntimeError("the climb probability depends on the level")
    return probs.pop()


def _excursions(ray: QuotientRay, T: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Start step and peak level of every excursion begun in T steps.

    One uniform u_t is drawn per step (``rng.random(T)``), whether or not
    the move is forced.  An excursion starting at step s climbs on step s,
    keeps climbing while u < p, turns on the first u >= p at a step
    z >= s + 1, and then descends to v_0: it peaks at h = z - s and the
    next one starts at s + 2h = 2z - s.  That map preserves parity, so on
    the even steps i = s / 2 it is i -> z - i, and the excursion starts
    are its orbit from 0, found by pointer doubling in log2(#excursions)
    passes.  The last excursion may run past T; when it is still climbing
    at T, z = T and its height is the level it reached.
    """
    turns = rng.random(T) >= _climb_probability(ray)
    n = (T + 1) // 2
    ends = np.append(np.flatnonzero(turns), T)
    # first turn at or after 2i + 1 (T when the walk climbs to the end)
    z = ends[np.cumsum(turns)[: 2 * n : 2]]
    jump = np.append(np.minimum(z - np.arange(n), n), n)  # n: past T
    orbit = np.zeros(1, dtype=np.int64)
    while jump[0] < n:
        # orbit holds the first 2^k starts, jump advances 2^k excursions
        orbit = np.concatenate((orbit, jump[orbit]))
        jump = jump[jump]
    orbit = np.sort(orbit[orbit < n])
    starts = 2 * orbit
    return starts, z[orbit] - starts


def _levels(starts: np.ndarray, heights: np.ndarray, T: int) -> np.ndarray:
    """Levels d_1..d_T of the walk with the given excursions."""
    climbing = np.zeros(T + 1, dtype=np.int8)
    climbing[starts] = 1
    climbing[np.minimum(starts + heights, T)] = -1
    np.cumsum(climbing, out=climbing)
    return np.cumsum(2 * climbing[:T] - 1, dtype=np.int64)


def _trace_levels(ray: QuotientRay, T: int, rng) -> np.ndarray:
    return _levels(*_excursions(ray, T, rng), T)


def excursion_tail_rate(maxima: np.ndarray, min_count: int = 100):
    """Geometric decay rate fitted to P(peak >= r); None if too few peaks."""
    return _tail_rate(np.bincount(maxima), min_count)


def _tail_rate(counts: np.ndarray, min_count: int = 100):
    """``excursion_tail_rate`` from the histogram of the peaks."""
    if counts.sum() < 10 * min_count:
        return None
    at_least = np.cumsum(counts[::-1])[::-1]
    rs = []
    logs = []
    r = 1
    while r < at_least.size and at_least[r] >= min_count:
        rs.append(r)
        logs.append(math.log(int(at_least[r])))
        r += 1
    if len(rs) < 3:
        return None
    slope = np.polyfit(rs, logs, 1)[0]
    return float(math.exp(slope))


# ---------------------------------------------------------------------------
# logarithm law


def power_thresholds(c: float, q: int, T: int, lY: float = 1.0) -> np.ndarray:
    """r_t = ceil(c * log_q(t) / lY); the borderline family for the 0-1 law."""
    t = np.arange(1, T + 1, dtype=np.float64)
    return np.ceil(c * np.log(t) / math.log(q) / lY - 1e-12).astype(np.int64)


@dataclass(frozen=True)
class LogLawReport:
    q: int
    T: int
    trials: int
    seed: int
    lY: float
    max_levels: np.ndarray
    ratios: np.ndarray
    median_ratio: float
    quartiles: tuple[float, float]
    excursions: int
    excursion_tail_rate: float | None
    rate_desc: str | None = None
    last_decade_fraction: float | None = None
    series_ratio: float | None = None
    series_divergent: bool | None = None

    def summary(self) -> dict:
        out = {
            "q": self.q,
            "T": self.T,
            "trials": self.trials,
            "seed": self.seed,
            "lY": self.lY,
            "median_ratio": self.median_ratio,
            "quartiles": list(self.quartiles),
            "excursions": self.excursions,
            "excursion_tail_rate": self.excursion_tail_rate,
        }
        if self.rate_desc is not None:
            out["rate"] = self.rate_desc
            out["last_decade_fraction"] = self.last_decade_fraction
            out["series_ratio"] = self.series_ratio
            out["series_divergent"] = self.series_divergent
        return out


def loglaw_experiment(
    ray: QuotientRay,
    trials: int,
    T: int,
    seed: int,
    rate: np.ndarray | None = None,
    rate_desc: str | None = None,
    tag: str = "tree-loglaw",
    threads: int = 1,
) -> LogLawReport:
    """Run independent walks and compare peak depth against log_q(t).

    Without a rate family, reports per-trial max_{u<=T} d_u / log_q(T)
    with ensemble median and quartiles (the logarithm-law limit is 1/lY).
    With thresholds r_t, reports the fraction of trials where the event
    {d_t >= r_t} still occurs in the last decade t in (T/10, T], plus the
    divergence classification of sum q^(-lY r_t) by partial-sum growth.
    The walks run in up to ``threads`` worker processes, capped at the
    usable CPUs (``streams.map_trials``); the report is the same for every
    ``threads``.
    """
    if trials < 1 or T < 10:
        raise ValueError("need at least one trial and T >= 10")
    if rate is not None and len(rate) != T:
        raise ValueError("rate family must supply one threshold per step")
    log_T = math.log(T) / math.log(ray.q)
    cut = T // 10

    def walk(trial):
        """(peak level, histogram of completed peaks, last-decade hit)."""
        starts, heights = _excursions(ray, T, stream(seed, tag, trial))
        counts = np.bincount(heights[starts + 2 * heights <= T])
        hit = False
        if rate is not None:
            levels = _levels(starts, heights, T)
            hit = bool(np.any(levels[cut:] >= rate[cut:]))
        return int(heights.max()), counts, hit

    walks = map_trials(walk, trials, threads)
    maxima = np.array([peak for peak, _, _ in walks], dtype=np.int64)
    peak_counts = np.zeros(max(c.size for _, c, _ in walks), dtype=np.int64)
    for _, counts, _ in walks:
        peak_counts[: counts.size] += counts
    decade_hits = sum(hit for _, _, hit in walks)
    ratios = maxima / log_T
    q25, q75 = np.quantile(ratios, [0.25, 0.75])
    report = {
        "q": ray.q,
        "T": T,
        "trials": trials,
        "seed": seed,
        "lY": ray.lY,
        "max_levels": maxima,
        "ratios": ratios,
        "median_ratio": float(np.median(ratios)),
        "quartiles": (float(q25), float(q75)),
        "excursions": int(peak_counts.sum()),
        "excursion_tail_rate": _tail_rate(peak_counts),
    }
    if rate is not None:
        weights = float(ray.q) ** (-ray.lY * rate.astype(np.float64))
        partial = np.cumsum(weights)
        s_root = partial[max(math.isqrt(T) - 1, 0)]
        s_full = partial[-1]
        series_ratio = float(s_full / s_root)
        report.update(
            rate_desc=rate_desc or "custom",
            last_decade_fraction=decade_hits / trials,
            series_ratio=series_ratio,
            series_divergent=series_ratio >= 1.5,
        )
    return LogLawReport(**report)
