"""Coefficient field, polynomial and series arithmetic."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ffdyn import field as field_module
from ffdyn.errors import FieldError, PrecisionError
from ffdyn.field import (
    FieldSpec,
    LaurentSeries,
    Poly,
    field_spec,
    parse_poly,
    parse_series,
)

F2 = field_spec(2)
F3 = field_spec(3)
F4 = field_spec(2, 2)
F9 = field_spec(3, 2)

SMALL_FIELDS = [F2, F3, field_spec(5), F4, field_spec(7), F9, field_spec(2, 3)]


# ---------------------------------------------------------------------------
# FieldSpec


def test_rejects_bad_parameters():
    with pytest.raises(FieldError):
        FieldSpec(4)
    with pytest.raises(FieldError):
        FieldSpec(1)
    with pytest.raises(FieldError):
        FieldSpec(2, 0)
    with pytest.raises(FieldError):
        FieldSpec(2, 17)  # 2^17 exceeds the order cap


def test_modulus_is_irreducible_and_minimal():
    # degree-2 over F_2: X^2+X+1 is the only irreducible, code 3
    assert F4.modulus == (1, 1, 1)
    # degree-2 over F_3: X^2+1 (code 1) is irreducible and smallest
    assert F9.modulus == (1, 0, 1)
    f8 = field_spec(2, 3)
    # X^3+X+1 (code 3) beats X^3+X^2+1 (code 4)
    assert f8.modulus == (1, 1, 0, 1)


@pytest.mark.parametrize("fs", SMALL_FIELDS, ids=lambda f: f"s{f.s}")
def test_field_axioms_exhaustive(fs):
    s = fs.s
    for a in range(s):
        assert fs.add(a, 0) == a
        assert fs.mul(a, 1) == a
        assert fs.add(a, fs.neg(a)) == 0
        if a:
            assert fs.mul(a, fs.inv(a)) == 1
    if s <= 9:
        for a in range(s):
            for b in range(s):
                assert fs.add(a, b) == fs.add(b, a)
                assert fs.mul(a, b) == fs.mul(b, a)
                for c in range(s):
                    assert fs.mul(a, fs.add(b, c)) == fs.add(
                        fs.mul(a, b), fs.mul(a, c)
                    )
                    assert fs.add(a, fs.add(b, c)) == fs.add(fs.add(a, b), c)
                    assert fs.mul(a, fs.mul(b, c)) == fs.mul(fs.mul(a, b), c)


def test_array_ops_match_scalar_ops():
    for fs in (F3, F4, F9):
        s = fs.s
        a = np.arange(s).repeat(s)
        b = np.tile(np.arange(s), s)
        add = fs.add_arr(a, b)
        mul = fs.mul_arr(a, b)
        for i in range(s * s):
            assert add[i] == fs.add(int(a[i]), int(b[i]))
            assert mul[i] == fs.mul(int(a[i]), int(b[i]))


def _check_kernels_against_oracle(fs, a, b, log, antilog):
    """Element kernels of fs on the code arrays a, b (same shape) against
    the digit-polynomial oracle and per-element log tables."""
    p, mod, s = fs.p, fs.modulus, fs.s
    pairs = list(zip(a.tolist(), b.tolist()))
    mul = [oracles.gf_mul(x, y, p, mod) for x, y in pairs]
    assert mul == [
        antilog[(log[x] + log[y]) % (s - 1)] if x and y else 0 for x, y in pairs
    ]
    assert fs.mul_arr(a, b).tolist() == mul
    assert [fs.mul(x, y) for x, y in pairs] == mul
    neg = [oracles.gf_neg(y, p, mod) for y in b.tolist()]
    assert fs.neg_arr(b).tolist() == neg
    assert [fs.neg(y) for y in b.tolist()] == neg
    sub = [oracles.gf_add(x, n, p, mod) for x, n in zip(a.tolist(), neg)]
    assert fs.sub_arr(a, b).tolist() == sub
    assert [fs.sub(x, y) for x, y in pairs] == sub
    for c in {0, 1, int(b[0]), s - 1}:
        want = [oracles.gf_mul(c, y, p, mod) for y in b.tolist()]
        assert fs.scale_arr(c, b).tolist() == want
        # a scalar against an array, as the polynomial kernels call it
        assert fs.mul_arr(np.int64(c), b).tolist() == want
    # a (B, 1) column against an (n,) row, as rank_profile and the batched
    # products call it
    col, row = a[:5, None], b[:7]
    grid = [[oracles.gf_mul(x, y, p, mod) for y in row.tolist()] for x in col[:, 0]]
    assert fs.mul_arr(col, row).tolist() == grid
    assert fs.mul_arr(row, col).tolist() == grid
    diff = [
        [oracles.gf_add(x, oracles.gf_neg(y, p, mod), p, mod) for y in row.tolist()]
        for x in col[:, 0]
    ]
    assert fs.sub_arr(col, row).tolist() == diff


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5) for e in (2, 3)])
def test_table_kernels_match_digit_oracle(p, e):
    # the array ops and the scalar ops read the same tables, so each is
    # checked against arithmetic that shares nothing with them
    fs = FieldSpec(p, e)
    s = fs.s
    assert fs._mul_table.shape == (s, s) and fs._neg_table.shape == (s,)
    assert (fs._add_table is None) == (p == 2)
    log, antilog = oracles.log_tables(p, e, fs.modulus)
    # every pair of codes, zero operands included
    a = np.arange(s).repeat(s)
    b = np.tile(np.arange(s), s)
    _check_kernels_against_oracle(fs, a, b, log, antilog)
    rng = np.random.default_rng(10 * p + e)
    for _ in range(20):
        num = rng.integers(0, s, size=int(rng.integers(0, 9)))
        num[rng.random(num.size) < 0.3] = 0
        den = rng.integers(0, s, size=int(rng.integers(1, 5)))
        den[-1] = rng.integers(1, s)
        quo, rem = fs.polydivmod(num, den)
        want_q, want_r = oracles.gf_polydivmod(num.tolist(), den.tolist(), p, fs.modulus)
        assert oracles.ptrim(quo.tolist()) == want_q
        assert rem.tolist() == want_r


def test_fields_above_the_table_bound_use_log_tables():
    fs = FieldSpec(2, 11)
    assert fs.s > 1024
    assert fs._mul_table is None and fs._neg_table is None and fs._add_table is None
    log, antilog = oracles.log_tables(2, 11, fs.modulus)
    rng = np.random.default_rng(211)
    a = rng.integers(0, fs.s, size=300)
    b = rng.integers(0, fs.s, size=300)
    a[:20] = 0
    b[10:30] = 0
    _check_kernels_against_oracle(fs, a, b, log, antilog)
    # at the bound itself the product table is built, but over p = 2 no
    # sum table: addition XORs codes
    big = FieldSpec(2, 10)
    assert big._mul_table.shape == (1024, 1024) and big._add_table is None


def test_pow():
    assert F3.pow_(2, 5) == 2
    assert F3.pow_(2, -1) == F3.inv(2)
    assert F4.pow_(2, F4.s - 1) == 1
    assert F9.pow_(5, 0) == 1


def test_field_spec_cache():
    assert field_spec(3) is field_spec(3)


# ---------------------------------------------------------------------------
# Poly against list oracles


@given(
    a=st.lists(st.integers(0, 2), max_size=9),
    b=st.lists(st.integers(0, 2), max_size=9),
)
def test_poly_mul_matches_oracle_f3(a, b):
    pa, pb = Poly(F3, a), Poly(F3, b)
    got = pa * pb
    want = oracles.pmul(oracles.ptrim(a), oracles.ptrim(b), 3)
    assert list(got.coeffs) == want


@given(
    a=st.lists(st.integers(0, 4), max_size=10),
    b=st.lists(st.integers(0, 4), min_size=1, max_size=6).filter(
        lambda c: any(c)
    ),
)
def test_poly_divmod_matches_oracle_f5(a, b):
    f5 = field_spec(5)
    q, r = divmod(Poly(f5, a), Poly(f5, b))
    qo, ro = oracles.pdivmod(oracles.ptrim(a), oracles.ptrim(b), 5)
    assert list(q.coeffs) == qo
    assert list(r.coeffs) == ro
    assert q * Poly(f5, b) + r == Poly(f5, a)


def test_poly_extension_field_ring_identities():
    a = Poly(F4, [2, 1, 3])
    b = Poly(F4, [1, 0, 2])
    c = Poly(F4, [3, 3])
    assert a * (b + c) == a * b + a * c
    q, r = divmod(a * b + c, b)
    assert q * b + r == a * b + c
    assert r.degree < b.degree


# ---------------------------------------------------------------------------
# polynomial kernels against digit-polynomial oracles

KERNEL_FIELDS = [field_spec(p, e) for p in (2, 3, 5) for e in (1, 2, 3)]


def _kernel_operands(fs, rng):
    """Random coefficient arrays of lengths 0..6, some with zero entries,
    some all zero, some with a zero top coefficient."""
    for _ in range(40):
        n = int(rng.integers(0, 7))
        c = rng.integers(0, fs.s, size=n)
        c[rng.random(n) < 0.3] = 0
        yield c
    yield np.zeros(3, dtype=np.int64)
    yield np.array([0, 1], dtype=np.int64)


@pytest.mark.parametrize(
    "fs",
    KERNEL_FIELDS + [FieldSpec(2, 11), FieldSpec(3, 7), FieldSpec(1021), FieldSpec(1031)],
    ids=lambda f: f"p{f.p}e{f.e}",
)
def test_submul_matches_digit_oracle(fs):
    # the two extension fields past the table bound take the log-table
    # path; F_1021 reduces by its residue table and F_1031, past that
    # table's bound, by % p
    assert (fs._residues is None) == (fs.e > 1 or fs.p > 1024)
    p, mod = fs.p, fs.modulus
    rng = np.random.default_rng(fs.s + 7)
    a = rng.integers(0, fs.s, size=(4, 9))
    b = rng.integers(0, fs.s, size=9)
    a[0] = 0
    a[1:, :2] = 0
    b[3:5] = 0
    before = (a.copy(), b.copy())

    def want(cs):
        return [
            [
                oracles.gf_add(x, oracles.gf_neg(oracles.gf_mul(c, y, p, mod), p, mod), p, mod)
                for x, y in zip(row, b.tolist())
            ]
            for row, c in zip(a.tolist(), cs)
        ]

    units = range(1, fs.s) if fs.s <= 125 else rng.integers(1, fs.s, size=6).tolist()
    for c in [0, *units]:
        assert fs.submul_arr(a, c, b).tolist() == want([c] * 4)
    # a (B, 1) column of codes against a row, as pivot_columns calls it
    cs = rng.integers(0, fs.s, size=(4, 1))
    cs[:2, 0] = 0, 1
    assert fs.submul_arr(a, cs, b).tolist() == want(cs[:, 0].tolist())
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])
    # the extreme a = 0, c = b = s - 1: over F_p, a - c b = -(p - 1)^2
    top = np.full(9, fs.s - 1)
    zero = np.zeros(9, dtype=np.int64)
    square = oracles.gf_mul(fs.s - 1, fs.s - 1, p, mod)
    assert fs.submul_arr(zero, fs.s - 1, top).tolist() == [oracles.gf_neg(square, p, mod)] * 9
    # in place through out=, on strided views shaped like the reduction
    # step's WU[:, red, e : e + span] against WU[:, keep, :span]
    WU = rng.integers(0, fs.s, size=(6, 3, 12))
    WU[:, 0, 4:] = 0
    for c in (1, fs.s - 1, int(rng.integers(1, fs.s))):
        expect = WU.copy()
        window, kept = WU[:, 2, 3:10], WU[:, 0, :7]
        expect[:, 2, 3:10] = [
            [
                oracles.gf_add(x, oracles.gf_neg(oracles.gf_mul(c, y, p, mod), p, mod), p, mod)
                for x, y in zip(row, col)
            ]
            for row, col in zip(window.tolist(), kept.tolist())
        ]
        fs.submul_arr(window, c, kept, out=window)
        assert np.array_equal(WU, expect)


@pytest.mark.parametrize("fs", KERNEL_FIELDS, ids=lambda f: f"p{f.p}e{f.e}")
def test_polymul_matches_digit_oracle(fs):
    rng = np.random.default_rng(fs.s)
    ops = list(_kernel_operands(fs, rng)) + [rng.integers(1, fs.s, size=1)]
    for a in ops:
        for b in ops[::7]:
            got = fs.polymul(a, b)
            assert got.shape == ((a.size + b.size - 1,) if a.size and b.size else (0,))
            want = oracles.gf_polymul(list(a), list(b), fs.p, fs.modulus)
            assert oracles.ptrim(got.tolist()) == want
    # a batch of rows against one factor, in both length orders
    batch = rng.integers(0, fs.s, size=(3, 4, 5))
    for b in (rng.integers(0, fs.s, size=2), rng.integers(0, fs.s, size=8)):
        got = fs.polymul(batch, b)
        assert got.shape == (3, 4, 5 + b.size - 1)
        for idx in np.ndindex(3, 4):
            want = oracles.gf_polymul(list(batch[idx]), list(b), fs.p, fs.modulus)
            assert oracles.ptrim(got[idx].tolist()) == want
    assert fs.polymul(batch, np.zeros(0, dtype=np.int64)).shape == (3, 4, 0)


@pytest.mark.parametrize(
    "fs", KERNEL_FIELDS + [FieldSpec(65521)], ids=lambda f: f"p{f.p}e{f.e}"
)
def test_polymul_batch_matches_row_products(fs, monkeypatch):
    # over F_p rows no longer than b multiply as one float64 matmul; every
    # shape must give each row's own product.  At p = 65521 a full row of
    # p - 1 against a full b sums (p - 1)^2 na, far past 2^32
    rng = np.random.default_rng(fs.s + 5)
    shapes = [(1, 6), (4, 9), (9, 9), (12, 5), (30, 1)]
    for na, nb in shapes:
        a = rng.integers(0, fs.s, size=(6, na))
        b = rng.integers(0, fs.s, size=nb)
        a[0] = 0
        a[1] = fs.s - 1
        b[0] = fs.s - 1
        got = fs.polymul(a, b)
        assert got.shape == (6, na + nb - 1)
        for row, prod in zip(a, got):
            assert np.array_equal(prod, fs.polymul(row, b))
        want = oracles.gf_polymul(list(a[1]), list(np.full(nb, fs.s - 1)), fs.p, fs.modulus)
        assert oracles.ptrim(fs.polymul(a[1:2], np.full(nb, fs.s - 1))[0].tolist()) == want
    # with the float bound at (p - 1)^2 na the matmul is refused and the
    # loop gives the same products
    toeplitz, used = FieldSpec._polymul_toeplitz, []

    def spy(self, a, b):
        used.append(a.shape)
        return toeplitz(self, a, b)

    monkeypatch.setattr(FieldSpec, "_polymul_toeplitz", spy)
    a = rng.integers(0, fs.s, size=(3, 4))
    b = rng.integers(0, fs.s, size=7)
    fast = fs.polymul(a, b)
    monkeypatch.setattr(field_module, "_FLOAT_EXACT", (fs.p - 1) ** 2 * 4)
    assert np.array_equal(fs.polymul(a, b), fast)
    assert used == ([(3, 4)] if fs.e == 1 else [])


@pytest.mark.parametrize("fs", KERNEL_FIELDS, ids=lambda f: f"p{f.p}e{f.e}")
def test_polydivmod_matches_digit_oracle(fs):
    rng = np.random.default_rng(fs.s + 1)
    ops = list(_kernel_operands(fs, rng))
    dens = [oracles.ptrim(d.tolist()) for d in ops[::3]]
    dens.append([int(rng.integers(1, fs.s))])
    for num in ops:
        num = oracles.ptrim(num.tolist())
        for den in filter(None, dens):
            quo, rem = fs.polydivmod(np.array(num, dtype=np.int64), np.array(den))
            want_q, want_r = oracles.gf_polydivmod(num, den, fs.p, fs.modulus)
            assert quo.size == max(len(num) - len(den) + 1, 0)
            assert oracles.ptrim(quo.tolist()) == want_q
            assert rem.tolist() == want_r
    with pytest.raises(FieldError):
        fs.polydivmod(np.array([1, 1]), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("fs", KERNEL_FIELDS, ids=lambda f: f"p{f.p}e{f.e}")
def test_polymul_rows_match_digit_oracle(fs):
    rng = np.random.default_rng(fs.s + 2)
    for na, nb in [(1, 1), (5, 3), (3, 5), (6, 6)]:
        a = rng.integers(0, fs.s, size=(2, 3, na))
        b = rng.integers(0, fs.s, size=(2, 3, nb))
        a[rng.random(a.shape) < 0.3] = 0
        got = fs.polymul(a, b)
        assert got.shape == (2, 3, na + nb - 1)
        for idx in np.ndindex(2, 3):
            want = oracles.gf_polymul(list(a[idx]), list(b[idx]), fs.p, fs.modulus)
            assert oracles.ptrim(got[idx].tolist()) == want


@pytest.mark.parametrize("fs", KERNEL_FIELDS, ids=lambda f: f"p{f.p}e{f.e}")
def test_polyinv_matches_digit_oracle(fs):
    rng = np.random.default_rng(fs.s + 3)
    a = rng.integers(0, fs.s, size=(6, 5))
    a[:, 0] = rng.integers(1, fs.s, size=6)
    for n in (1, 2, 5, 9):
        got = fs.polyinv(a, n)
        assert got.shape == (6, n)
        for i in range(6):
            assert np.array_equal(fs.polyinv(a[i], n), got[i])
            # the inverse modulo y^n is unique, so the product pins it down
            prod = oracles.gf_polymul(list(a[i]), list(got[i]), fs.p, fs.modulus)
            assert (prod + [0] * n)[:n] == [1] + [0] * (n - 1)
    with pytest.raises(FieldError):
        fs.polyinv(np.array([0, 1]), 3)


@pytest.mark.parametrize("fs", KERNEL_FIELDS, ids=lambda f: f"p{f.p}e{f.e}")
def test_rank_profile_matches_digit_oracle(fs):
    rng = np.random.default_rng(fs.s + 4)
    for n_rows, n_cols in [(6, 4), (4, 6), (9, 9), (1, 3), (5, 1)]:
        a = rng.integers(0, fs.s, size=(n_rows, n_cols))
        a[rng.random(a.shape) < 0.4] = 0
        a[n_rows // 2] = 0
        # a row that repeats a multiple of an earlier one adds no rank
        a[-1] = fs.scale_arr(int(rng.integers(1, fs.s)), a[0])
        got = fs.rank_profile(a)
        assert got.shape == (n_rows,) and got.dtype == bool
        pivots = fs.pivot_columns(a)
        for k in range(n_rows + 1):
            want = oracles.gf_rank(a[:k].tolist(), fs.p, fs.modulus)
            assert int(got[:k].sum()) == want
            # the pivots also give the rank on every leading set of columns
            for c in range(n_cols + 1):
                want = oracles.gf_rank(a[:k, :c].tolist(), fs.p, fs.modulus)
                assert int(((pivots[:k] >= 0) & (pivots[:k] < c)).sum()) == want
        assert not got[-1] or n_rows == 1
    assert fs.rank_profile(np.zeros((3, 0), dtype=np.int64)).tolist() == [False] * 3
    assert fs.rank_profile(np.zeros((0, 2), dtype=np.int64)).size == 0


@pytest.mark.parametrize(
    "p,e", [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)] + [(2, 16), (13, 4)]
)
def test_log_tables_match_per_element_reference(p, e):
    fs = FieldSpec(p, e)
    assert fs.modulus == oracles.smallest_irreducible(p, e)
    if e == 1:
        assert fs._log is None and fs._antilog is None
        return
    log, antilog = oracles.log_tables(p, e, fs.modulus)
    assert fs._log.tolist() == log
    assert fs._antilog.tolist() == antilog


# ---------------------------------------------------------------------------
# LaurentSeries structure


def test_series_normalization_and_valuation():
    a = LaurentSeries(F2, -2, [0, 1, 0, 1, 0])  # listed from index -2
    assert a.v == -1
    assert list(a.coeffs) == [1, 0, 1]
    assert a.valuation() == -1
    assert a.abs_value() == 2.0


def test_zero_values():
    z = LaurentSeries.zero(F3)
    assert z.is_exact_zero
    assert z.valuation() == math.inf
    assert z.abs_value() == 0.0
    w = LaurentSeries.zero_window(F3, 5)
    assert not w.is_exact_zero
    with pytest.raises(PrecisionError):
        w.valuation()


def test_window_consistency_enforced():
    with pytest.raises(PrecisionError):
        LaurentSeries(F2, 0, [1, 1, 1], prec=2)


def test_coeff_at_and_window():
    a = parse_series(F3, "2*X^2 + 1 + X^-3 (prec 6)")
    assert a.coeff_at(-2) == 2
    assert a.coeff_at(0) == 1
    assert a.coeff_at(3) == 1
    assert a.coeff_at(5) == 0
    with pytest.raises(PrecisionError):
        a.coeff_at(6)
    assert list(a.window(-2, 4)) == [2, 0, 1, 0, 0, 1]


# ---------------------------------------------------------------------------
# Series arithmetic: ultrametric and multiplicativity invariants


def series_strategy(fs, max_span=6):
    def build(v, coeffs, prec_extra, exact):
        if exact:
            return LaurentSeries(fs, v, coeffs, None)
        top = v + len(coeffs)
        return LaurentSeries(fs, v, coeffs, top + prec_extra)

    return st.builds(
        build,
        v=st.integers(-4, 4),
        coeffs=st.lists(st.integers(0, fs.s - 1), max_size=max_span),
        prec_extra=st.integers(0, 3),
        exact=st.booleans(),
    )


@settings(max_examples=300)
@given(a=series_strategy(F3), b=series_strategy(F3))
def test_ultrametric_inequality(a, b):
    c = a + b
    try:
        va, vb, vc = a.valuation(), b.valuation(), c.valuation()
    except PrecisionError:
        return
    assert vc >= min(va, vb)
    if va != vb:
        assert vc == min(va, vb)


@settings(max_examples=300)
@given(a=series_strategy(F4), b=series_strategy(F4))
def test_norm_multiplicative(a, b):
    c = a * b
    try:
        va, vb = a.valuation(), b.valuation()
        vc = c.valuation()
    except PrecisionError:
        return
    if va is math.inf or vb is math.inf:
        assert vc is math.inf
    else:
        assert vc == va + vb


@settings(max_examples=200)
@given(a=series_strategy(F3), b=series_strategy(F3))
def test_mul_matches_dict_oracle(a, b):
    c = a * b
    da = {a.v + j: int(x) for j, x in enumerate(a.coeffs)}
    db = {b.v + j: int(x) for j, x in enumerate(b.coeffs)}
    want = oracles.dict_mul(da, db, 3)
    for i, x in want.items():
        if c.prec is None or i < c.prec:
            assert c.coeff_at(i) == x


@settings(max_examples=200)
@given(a=series_strategy(F2))
def test_add_neg_gives_zero(a):
    d = a + (-a)
    assert d.coeffs.size == 0
    if a.is_exact:
        assert d.is_exact_zero


def test_mul_precision_rule():
    # windows: min(Na + vb, Nb + va)
    a = LaurentSeries(F2, 1, [1, 0, 1], prec=8)
    b = LaurentSeries(F2, -2, [1, 1], prec=5)
    c = a * b
    assert c.prec == min(8 + (-2), 5 + 1)
    assert c.v == -1


def _random_entry(fs, rng, kind):
    if kind == 0:
        return LaurentSeries.zero(fs)
    if kind == 1:
        return LaurentSeries.zero_window(fs, int(rng.integers(-3, 5)))
    v, n = int(rng.integers(-4, 3)), int(rng.integers(1, 4))
    coeffs = rng.integers(0, fs.s, n)
    coeffs[0] = rng.integers(1, fs.s)
    return LaurentSeries(fs, v, coeffs, None if kind == 2 else v + n + int(rng.integers(0, 3)))


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)])
def test_series_dot_matches_series_arithmetic(p, e):
    # exact-zero, zero-window, exact and windowed entries (negative
    # valuations included) against stacks with all-zero x_j, start below,
    # at and above 0, and x exact or known below a window
    fs = field_spec(p, e)
    rng = np.random.default_rng(10 * p + e)
    for trial in range(60):
        n = int(rng.integers(1, 4))
        row = [_random_entry(fs, rng, int(k)) for k in rng.integers(0, 4, n)]
        count, w = 5, int(rng.integers(1, 5))
        x = rng.integers(0, fs.s, (count, n, w))
        x[rng.random((count, n)) < 0.3] = 0
        start = (-3, 0, 2)[trial % 3]
        x_prec = (None, start + w, start + w + 2)[trial // 3 % 3]
        lo, acc, prec = field_module.series_dot(fs, row, x, start, x_prec)
        first = field_module.first_visible(lo, acc, prec)
        assert lo <= start and start + w <= lo + acc.shape[1]
        for k in range(count):
            want = LaurentSeries.zero(fs)
            for a, xj in zip(row, x[k]):
                want = want + a * LaurentSeries(fs, start, xj, x_prec)
            assert prec[k] == (math.inf if want.prec is None else want.prec)
            assert first[k] == (want.v if want.coeffs.size else math.inf)
            if want.coeffs.size:
                assert lo <= want.v and want.last_listed_index() < lo + acc.shape[1]
            known = [i for i in range(lo, lo + acc.shape[1]) if i < prec[k]]
            assert [int(acc[k, i - lo]) for i in known] == [want.coeff_at(i) for i in known]


def test_invert_round_trip():
    a = parse_series(F3, "X^2 + 2 + X^-1 (prec 10)")
    inv = a.invert()
    assert inv.prec == 10 - 2 * a.v
    prod = a * inv
    one = LaurentSeries.one(F3)
    assert prod.equals(one) is None or prod.equals(one)
    # every known coefficient of the product matches 1
    for i in range(prod.v, prod.prec):
        assert prod.coeff_at(i) == (1 if i == 0 else 0)


def test_invert_exact_monomial_and_errors():
    m = LaurentSeries.x_power(F3, 4, c=2)
    im = m.invert()
    assert im.is_exact
    assert (m * im).equals(LaurentSeries.one(F3)) is True
    poly = parse_series(F3, "X + 1")
    with pytest.raises(PrecisionError):
        poly.invert()
    trunc = poly.invert(prec=6)
    assert trunc.prec == 6
    prod = poly * trunc
    for i in range(prod.v, prod.prec):
        assert prod.coeff_at(i) == (1 if i == 0 else 0)
    with pytest.raises(FieldError):
        LaurentSeries.zero(F3).invert()
    with pytest.raises(PrecisionError):
        LaurentSeries.zero_window(F3, 3).invert()


def test_division_operator():
    a = parse_series(F2, "X^3 + X (prec 12)")
    b = LaurentSeries.x_power(F2, 1)
    c = a / b
    assert c.coeff_at(-2) == 1
    assert c.coeff_at(0) == 1


def test_truncate_and_shift():
    a = parse_series(F3, "X^2 + 1 + 2*X^-4")
    t = a.truncate(3)
    assert t.prec == 3
    assert t.coeff_at(0) == 1
    with pytest.raises(PrecisionError):
        t.coeff_at(4)
    sh = a.shift(3)
    assert sh.valuation() == a.valuation() - 3
    assert sh.coeff_at(-5) == 1


def test_polynomial_part_example():
    a = parse_series(F2, "X^2 + 1 + X^-1")
    head, tail = a.polynomial_part()
    assert str(head) == "X^2 + 1"
    assert str(tail) == "X^-1"
    assert tail.valuation() == 1
    b = parse_series(F2, "X^-3 (prec 9)")
    h2, t2 = b.polynomial_part()
    assert h2.is_zero
    assert t2.coeff_at(3) == 1
    with pytest.raises(PrecisionError):
        LaurentSeries.zero_window(F2, 0).polynomial_part()


def test_equals_indeterminate():
    a = LaurentSeries(F2, 0, [1, 1], prec=4)
    b = LaurentSeries(F2, 0, [1, 1], prec=7)
    assert a.equals(b) is None  # they might differ at indices 4..6
    c = LaurentSeries(F2, 0, [1, 0, 1], prec=4)
    assert a.equals(c) is False
    d = LaurentSeries(F2, 0, [1, 1])
    assert d.equals(LaurentSeries(F2, 0, [1, 1])) is True


def test_values_immutable():
    a = parse_series(F2, "X + 1")
    with pytest.raises(ValueError):
        a.coeffs[0] = 0
    p = parse_poly(F3, "X^2 + 2")
    with pytest.raises(ValueError):
        p.coeffs[1] = 1


# ---------------------------------------------------------------------------
# Text grammar


def test_render_matches_expected_forms():
    assert str(parse_series(F2, "1 + X^-1 + X^-2 (prec 8)")) == "1 + X^-1 + X^-2 (prec 8)"
    assert str(LaurentSeries.zero(F3)) == "0"
    assert str(LaurentSeries.zero_window(F3, 8)) == "0 (prec 8)"
    assert str(parse_series(F3, "2*X^3 + 2")) == "2*X^3 + 2"
    assert str(parse_poly(F2, "X")) == "X"


@settings(max_examples=150)
@given(a=series_strategy(F3))
def test_series_text_round_trip(a):
    b = parse_series(F3, str(a))
    assert a == b


@given(coeffs=st.lists(st.integers(0, 2), max_size=7))
def test_poly_text_round_trip(coeffs):
    p = Poly(F3, coeffs)
    assert parse_poly(F3, str(p)) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_series(F2, "X^^2")
    with pytest.raises(ValueError):
        parse_series(F2, "")
    with pytest.raises(FieldError):
        parse_series(F2, "5*X")
    with pytest.raises(ValueError):
        parse_poly(F2, "X^-1")
    with pytest.raises(PrecisionError):
        parse_series(F2, "X^-9 (prec 4)")


def test_parser_accepts_minus_signs():
    a = parse_series(F3, "X - 1")
    assert a.coeff_at(0) == 2
    b = parse_series(F3, "-X^-2")
    assert b.coeff_at(2) == 2
