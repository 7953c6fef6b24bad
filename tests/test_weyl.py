"""Tests for type-A cusp-volume combinatorics: dominant counts and the
tail-to-power-law ratio."""

import pytest

import oracles
from ffdyn import weyl
from ffdyn.errors import EnumerationCapError
from ffdyn.weyl import (
    RootSystemSpec,
    _gap_vectors,
    cusp_rows,
    cusp_tail,
    dominant_count,
    ratio_band,
)

A1 = RootSystemSpec(1)
A2 = RootSystemSpec(2)
A3 = RootSystemSpec(3)


# ---------------------------------------------------------------------------
# root data


def test_root_system_needs_positive_rank():
    with pytest.raises(ValueError):
        RootSystemSpec(0)


# ---------------------------------------------------------------------------
# dominant counting


def test_dominant_count_rank1_pattern():
    for j in range(7):
        assert dominant_count(2 * j, A1) == 1
        assert dominant_count(2 * j + 1, A1) == 0


def test_dominant_count_rank2_values():
    got = [dominant_count(l, A2) for l in range(13)]
    assert got == [1, 0, 0, 0, 1, 0, 2, 0, 1, 0, 2, 0, 3]


def test_dominant_count_zero_is_one():
    for r in range(1, 5):
        assert dominant_count(0, RootSystemSpec(r)) == 1


def test_dominant_count_matches_brute_force():
    for spec, lmax in [(A1, 14), (A2, 12), (A3, 8)]:
        for l in range(lmax + 1):
            want = oracles.dominant_vectors_oracle(spec.rank, l)
            assert dominant_count(l, spec) == len(want)


def test_dominant_enumeration_consistent():
    # the counted gap vectors are those of the dominant lambda found by the
    # literal enumeration, each once
    for spec, lmax in [(A2, 12), (A3, 8)]:
        for l in range(lmax + 1):
            gaps = list(_gap_vectors(l, spec.rank))
            want = {
                tuple(lam[i] - lam[i + 1] for i in range(spec.rank))
                for lam in oracles.dominant_vectors_oracle(spec.rank, l)
            }
            assert len(gaps) == len(set(gaps)) == dominant_count(l, spec)
            assert set(gaps) == want, (spec, l)


def test_dominant_count_growth_band():
    # count(l) tracks l^(r-1) on its support; the band is over support only
    # since counts vanish off the even sublattice
    for spec, cap in [(A1, 1.01), (A2, 3.0), (A3, 8.0)]:
        r = spec.rank
        ratios = [
            dominant_count(l, spec) / float(l) ** (r - 1)
            for l in range(10, 61)
            if dominant_count(l, spec) > 0
        ]
        assert ratios
        assert max(ratios) / min(ratios) <= cap


def test_dominant_count_cap():
    with pytest.raises(EnumerationCapError):
        dominant_count(10**8, A3, cap=10**6)
    with pytest.raises(ValueError):
        dominant_count(-1, A2)


# ---------------------------------------------------------------------------
# cusp tail


def test_cusp_tail_rank1_closed_form():
    for q in (2, 3, 4):
        for T in range(2, 20):
            row = cusp_tail(T, A1, q)
            j0 = (T + 1) // 2
            want = float(q) ** (-2 * j0) * q**2 / (q**2 - 1)
            assert row.tail == pytest.approx(want, rel=1e-11)
            comp = float(q) ** -T * q / (q - 1)
            assert row.comparator == pytest.approx(comp, rel=1e-11)


def test_cusp_tail_monotone_to_zero():
    rows = cusp_rows(A2, 2, 2, 40)
    tails = [r.tail for r in rows]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[-1] < 1e-10
    assert all(r.remainder_bound <= 1e-12 * r.tail for r in rows)


def test_cusp_tail_band_rank1_is_q():
    for q in (2, 3, 4):
        band = ratio_band(cusp_rows(A1, q, 2, 40))
        assert band == pytest.approx(q, rel=1e-9)


def test_cusp_tail_band_rank2_small_q():
    band = ratio_band(cusp_rows(A2, 2, 2, 40))
    assert band <= 4.0


def test_cusp_tail_bands_frozen():
    # honest values; the support of <rho,.> starts at 4 (r=2) resp. 6 (r=3),
    # so small T sits in a dead zone that inflates the band by powers of q
    expected = {
        (2, 3): 5.985,
        (2, 4): 10.809,
        (3, 2): 5.428,
        (3, 3): 13.186,
        (3, 4): 37.173,
    }
    for (r, q), want in expected.items():
        band = ratio_band(cusp_rows(RootSystemSpec(r), q, 2, 40))
        assert band == pytest.approx(want, rel=5e-3)


def test_cusp_tail_validation():
    with pytest.raises(ValueError):
        cusp_tail(0, A2, 2)
    with pytest.raises(ValueError):
        cusp_tail(2, A2, 1)
    # q is a field order: 6 is refused like quotient_ray refuses it
    with pytest.raises(ValueError, match="not a prime power"):
        cusp_tail(2, A2, 6)
    with pytest.raises(ValueError, match="not a prime power"):
        cusp_rows(RootSystemSpec(2), 6, 2, 6)


def test_rank1_matches_tree_ray_tail():
    # S(2n) against the even-vertex mass tail of the quotient ray: the two
    # decay with the same exponent, so their ratio is a single constant
    for q in (2, 3, 4):
        ratios = []
        for n in range(1, 11):
            s_val = cusp_tail(2 * n, A1, q).tail
            tree_val = float(oracles.even_vertex_tail(q, n))
            ratios.append(s_val / tree_val)
        assert max(ratios) / min(ratios) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_cusp_rows_count_each_pairing_once(rank, monkeypatch):
    # the rows share their terms: one count per pairing, and every field of
    # every row bit-identical to cusp_tail's own sum at that T
    spec = RootSystemSpec(rank)
    counted = []

    def count(l, spec):
        counted.append(l)
        return dominant_count(l, spec)

    for q in (2, 3, 4, 9):
        want = [cusp_tail(T, spec, q) for T in range(2, 41)]
        monkeypatch.setattr(weyl, "dominant_count", count)
        counted.clear()
        assert cusp_rows(spec, q, 2, 40) == want
        assert sorted(counted) == list(range(2, max(row.cutoff for row in want) + 1))
        monkeypatch.undo()
