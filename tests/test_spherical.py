"""Tests for the spherical average Xi over SL2(O), its two backends and
its decay fit."""

import math
from fractions import Fraction

import pytest

import oracles
from ffdyn.errors import CertificationError, FieldError, PrecisionError
from ffdyn.field import LaurentSeries, field_spec, prime_power
from ffdyn.spherical import (
    as_matrix,
    decay_check,
    det2,
    sample_k,
    torus_element,
    xi_exact,
    xi_monte_carlo,
)
from ffdyn.streams import stream
from oracles import matmul2

F2 = field_spec(2)
F3 = field_spec(3)


def xp(fs, k, c=1):
    return LaurentSeries.x_power(fs, k, c)


def lower_unipotent(fs, c):
    return ((LaurentSeries.one(fs), LaurentSeries.zero(fs)), (c, LaurentSeries.one(fs)))


def upper_unipotent(fs, b):
    return ((LaurentSeries.one(fs), b), (LaurentSeries.zero(fs), LaurentSeries.one(fs)))


def entries_in_o(m):
    return all((not e.has_leading_term) or e.v >= 0 for row in m for e in row)


def identity2(fs):
    one, zero = LaurentSeries.one(fs), LaurentSeries.zero(fs)
    return ((one, zero), (zero, one))


def mat_inverse2(g):
    """Inverse of a determinant-one 2x2 matrix (the adjugate)."""
    return ((g[1][1], -g[0][1]), (-g[1][0], g[0][0]))


# ---------------------------------------------------------------------------
# matrix helpers


def test_matmul_and_inverse():
    g = matmul2(lower_unipotent(F2, xp(F2, 2)), torus_element(F2, 3))
    gi = mat_inverse2(g)
    prod = matmul2(g, gi)
    ident = identity2(F2)
    assert all(prod[i][j].equals(ident[i][j]) for i in range(2) for j in range(2))
    assert det2(g).equals(LaurentSeries.one(F2))


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix([[LaurentSeries.one(F2)]])
    with pytest.raises(FieldError):
        as_matrix(
            [
                [LaurentSeries.one(F2), LaurentSeries.zero(F2)],
                [LaurentSeries.zero(F3), LaurentSeries.one(F3)],
            ]
        )


# ---------------------------------------------------------------------------
# exact backend


@pytest.mark.parametrize("q", [2, 3])
def test_xi_exact_matches_closed_form(q):
    fs = field_spec(q)
    for t in range(0, 5):
        out = xi_exact(torus_element(fs, t))
        assert out.value == oracles.xi_closed_form(q, t)
        assert out.stabilized
        assert out.depth == max(2 * t, 1)


def test_xi_exact_identity():
    out = xi_exact(identity2(F2))
    assert out.value == 1
    assert out.depth == 1


def test_xi_exact_class_counts_frozen():
    # torus element at t: (q^2 - 1) initial classes, then q^2 children of
    # each unresolved class until depth 2t
    for t, expected in [(1, 7), (2, 31), (3, 127)]:
        assert xi_exact(torus_element(F2, t)).classes == expected


@pytest.mark.parametrize("q", [2, 3])
def test_xi_exact_symmetric_under_inverse(q):
    fs = field_spec(q)
    for t in (1, 3):
        g = torus_element(fs, t)
        assert xi_exact(g).value == xi_exact(mat_inverse2(g)).value


@pytest.mark.parametrize("q", [2, 3])
def test_xi_exact_bi_invariant(q):
    fs = field_spec(q)
    one, zero = LaurentSeries.one(fs), LaurentSeries.zero(fs)
    k1 = ((one, xp(fs, -1)), (zero, one))
    k2 = ((one, zero), (xp(fs, -2), one))
    g = torus_element(fs, 2)
    conj = matmul2(k1, matmul2(g, k2))
    assert xi_exact(conj).value == xi_exact(g).value


def test_xi_exact_in_unit_interval():
    for fs in (F2, F3):
        one, zero = LaurentSeries.one(fs), LaurentSeries.zero(fs)
        k = ((one, zero), (xp(fs, -1), one))
        for t in (-2, 0, 1, 3):
            g = matmul2(k, torus_element(fs, t))
            value = xi_exact(g).value
            assert 0 < value <= 1


@pytest.mark.parametrize("q,t_hi", [(2, 8), (3, 6)])
def test_xi_exact_ratio_approaches_reciprocal_s(q, t_hi):
    # class counts grow like q^(2t), so the scan stops earlier for q = 3
    fs = field_spec(q)
    values = [xi_exact(torus_element(fs, t)).value for t in range(t_hi + 1)]
    gaps = [abs(q * values[t + 1] / values[t] - 1) for t in range(1, t_hi)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < Fraction(1, 5)


def test_xi_exact_validation():
    windowed = tuple(
        tuple(e.truncate(8) for e in row) for row in torus_element(F2, 1)
    )
    with pytest.raises(ValueError):
        xi_exact(windowed)
    bad = ((xp(F2, 1), LaurentSeries.zero(F2)), (LaurentSeries.zero(F2), xp(F2, 1)))
    with pytest.raises(ValueError):
        xi_exact(bad)


def test_xi_exact_depth_cap():
    with pytest.raises(CertificationError):
        xi_exact(torus_element(F2, 3), depth_cap=3)


# (p, e): the largest torus exponent of the differential grid, and how many
# of its matrices the reference walk checks within XI_GRID_BUDGET classes
# (a walk that would build more is skipped).
XI_GRID = {
    (2, 1): (7, 46), (3, 1): (4, 30), (5, 1): (3, 25),
    (2, 2): (3, 25), (3, 2): (2, 20), (5, 2): (1, 14),
    (2, 3): (2, 20), (3, 3): (1, 14), (5, 3): (0, 5),
}
XI_GRID_BUDGET = 150_000


def xi_grid(fs, t_max):
    k1 = upper_unipotent(fs, xp(fs, -1, fs.s - 1))
    k2 = lower_unipotent(fs, LaurentSeries(fs, 1, [1, fs.s - 1]))
    n1 = upper_unipotent(fs, xp(fs, 1))
    yield identity2(fs)
    for t in range(-1, t_max + 1):
        g = torus_element(fs, t)
        yield g
        yield mat_inverse2(g)
        yield matmul2(k1, matmul2(g, k2))
        yield matmul2(n1, g)
        yield matmul2(g, matmul2(n1, torus_element(fs, 1)))


def xi_outcome(fn, g, **kw):
    """fn(g, **kw), or the type, message and needed precision of the error
    it raises."""
    try:
        return fn(g, **kw)
    except (CertificationError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "needed_precision", None)


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_xi_exact_matches_class_walk(p, e):
    fs = field_spec(p, e)
    t_max, expected = XI_GRID[p, e]
    compared = 0
    for g in xi_grid(fs, t_max):
        ref = oracles.xi_exact_reference(g, max_classes=XI_GRID_BUDGET)
        if ref is None:
            continue
        assert xi_exact(g) == ref
        # a cap one level short of the stopping level raises the same error
        short = xi_outcome(oracles.xi_exact_reference, g, depth_cap=ref.depth)
        assert short[0] is CertificationError
        assert xi_outcome(xi_exact, g, depth_cap=ref.depth) == short
        compared += 1
    assert compared == expected
    zero = LaurentSeries.zero(fs)
    windowed = tuple(tuple(x.truncate(8) for x in row) for row in torus_element(fs, 1))
    det_x2 = ((xp(fs, 1), zero), (zero, xp(fs, 1)))
    for g in (windowed, det_x2):
        out = xi_outcome(xi_exact, g)
        assert out[0] is ValueError
        assert out == xi_outcome(oracles.xi_exact_reference, g)


@pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9, 25, 27])
def test_xi_exact_closed_form_past_the_class_walk(s):
    # up to 27^17 classes, counted; s = 9, t = 3 alone is 4,782,968 classes
    # (Xi = 29/3645), which the class walk built one by one
    fs = field_spec(*prime_power(s))
    for t in range(9):
        out = xi_exact(torus_element(fs, t))
        assert out.value == oracles.xi_closed_form(s, t)
        assert out.classes == (s ** (2 * t + 1) - 1 if t else s * s - 1)


# ---------------------------------------------------------------------------
# Monte Carlo backend


def test_sample_k_shape_and_determinant():
    rng = stream(31, "test", 0)
    for _ in range(20):
        k = sample_k(F3, rng, precision=12)
        assert entries_in_o(k)
        # unimodular first row
        assert k[0][0].coeff_at(0) != 0 or k[0][1].coeff_at(0) != 0
        d = det2(k)
        assert d.equals(LaurentSeries.one(F3)) is not False


def test_xi_monte_carlo_deterministic():
    g = torus_element(F2, 2)
    a = xi_monte_carlo(g, samples=500, seed=7)
    b = xi_monte_carlo(g, samples=500, seed=7)
    c = xi_monte_carlo(g, samples=500, seed=8)
    assert a == b
    assert a.value != c.value


@pytest.mark.parametrize("q", [2, 3])
def test_xi_monte_carlo_agrees_with_exact(q):
    fs = field_spec(q)
    for t in (1, 2):
        g = torus_element(fs, t)
        exact = float(xi_exact(g).value)
        mc = xi_monte_carlo(g, samples=4000, seed=1234)
        assert abs(mc.value - exact) <= 3 * mc.stderr
        assert mc.stderr > 0


def test_xi_monte_carlo_validation():
    with pytest.raises(ValueError):
        xi_monte_carlo(torus_element(F2, 1), samples=1, seed=0)


def test_xi_monte_carlo_low_precision_raises():
    with pytest.raises(PrecisionError):
        xi_monte_carlo(torus_element(F2, 8), samples=200, seed=0, precision=4)


# ---------------------------------------------------------------------------
# decay profile


@pytest.mark.parametrize("q,t_max", [(2, 8), (3, 6)])
def test_decay_fit_selects_sigma_two(q, t_max):
    rep = decay_check(field_spec(q), t_max=t_max)
    assert rep.fit.sigma == 2
    assert rep.fit.rejected == (1,)
    assert rep.fit.varsigma >= 1  # the t = 0 bound reads 1 <= varsigma
    assert len(rep.fit.residuals) == t_max + 1
    assert all(r >= -1e-12 for r in rep.fit.residuals)
    assert min(rep.fit.residuals) == pytest.approx(0.0, abs=1e-12)


def test_decay_growth_column_exactly_linear():
    # Xi(g_t) * s^t should grow at most linearly; here the second
    # differences vanish identically.
    for q in (2, 3):
        rep = decay_check(field_spec(q), t_max=6)
        growth = [row.growth for row in rep.rows]
        diffs = [b - a for a, b in zip(growth, growth[1:])]
        assert all(d == diffs[0] for d in diffs)
        assert diffs[0] > 0
        assert growth[0] == 1


def test_decay_rows_match_oracle():
    rep = decay_check(F2, t_max=5)
    for row in rep.rows:
        assert row.xi == oracles.xi_closed_form(2, row.t)
        assert row.depth == max(2 * row.t, 1)
        assert row.xi_mc is None and row.stderr is None


def test_decay_varsigma_value():
    rep = decay_check(F2, t_max=8)
    # the sigma = 2 margin peaks at t = 1: (5/6) * sqrt(2)
    assert rep.fit.varsigma == pytest.approx(float(Fraction(5, 6)) * math.sqrt(2))


def test_decay_with_samples():
    rep = decay_check(F2, t_max=3, samples=2000, seed=77)
    for row in rep.rows:
        assert row.xi_mc is not None and row.stderr is not None
        assert abs(row.xi_mc - float(row.xi)) <= 4 * row.stderr
    again = decay_check(F2, t_max=3, samples=2000, seed=77)
    assert [r.xi_mc for r in again.rows] == [r.xi_mc for r in rep.rows]


def test_decay_fit_dict_shape():
    rep = decay_check(F3, t_max=4)
    d = rep.fit_dict()
    assert set(d) == {"sigma", "varsigma", "residuals"}
    assert isinstance(d["residuals"], list)


def test_decay_validation():
    with pytest.raises(ValueError):
        decay_check(F2, t_max=2)
    with pytest.raises(ValueError):
        decay_check(F2, t_max=4, sigma_max=0)
