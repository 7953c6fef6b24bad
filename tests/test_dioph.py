"""Tests for solution search in the three approximation regimes and the
excursion-to-solution dictionary."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ffdyn.dioph import (
    _CANDIDATE_BLOCK,
    _required_precision,
    _unit_class_blocks,
    _verify_window_witness,
    best_integer_approx,
    correspondence_check,
    kg_monte_carlo,
    kg_solutions,
    mult_solutions,
    persistence_ladder,
    zero_block_detector,
)
from ffdyn.errors import CertificationError, EnumerationCapError, PrecisionError
from ffdyn.field import LaurentSeries, Poly, field_spec
from ffdyn.flow import (
    FlowSpec,
    PsiLogPower,
    PsiPowerLaw,
    delta_trajectory,
    flow_apply,
    sample_matrix,
    unipotent_lattice,
)
from ffdyn.lattice import LatticeBasis, weak_popov
from ffdyn.streams import stream

F2 = field_spec(2)
F3 = field_spec(3)


def series(fs, pairs, prec=None):
    return LaurentSeries.from_pairs(fs, dict(pairs), prec)


def power_law(s, c=0.0, tau=1.0, u0=0.0):
    return PsiPowerLaw(s, c=c, tau=tau, u0=u0)


# ---------------------------------------------------------------------------
# best integer approximation


def test_best_approx_splits_fraction():
    a = series(F2, {1: 1, 3: 1})
    p, err = best_integer_approx(a, Poly.x_power(F2, 1))
    # Aq = 1 + X^-2, so p = -1 = 1 and the error is s^-2
    assert p == (Poly.one(F2),)
    assert err == 0.25

    b = series(F3, {1: 1, 3: 2})
    p3, err3 = best_integer_approx(b, Poly.x_power(F3, 1))
    assert p3 == (Poly(F3, [2]),)
    assert err3 == pytest.approx(3.0**-2)


def test_best_approx_zero_matrix():
    for q in [Poly.one(F2), Poly.x_power(F2, 3), Poly(F2, [1, 0, 1])]:
        p, err = best_integer_approx(LaurentSeries.zero(F2), q)
        assert p[0].is_zero and err == 0.0


def test_best_approx_polynomial_entries():
    a = LaurentSeries.from_poly(Poly(F2, [1, 1]))
    q = Poly.x_power(F2, 2)
    p, err = best_integer_approx(a, q)
    assert err == 0.0
    resid = a * LaurentSeries.from_poly(q) + LaurentSeries.from_poly(p[0])
    assert resid.is_exact_zero


def test_best_approx_is_the_minimizer():
    rng = stream(31, "test", 0)
    a = sample_matrix(F2, rng, 1, 1, 24)[0][0]
    q = Poly(F2, [1, 1, 1])
    p, err = best_integer_approx(a, q)
    base = a * LaurentSeries.from_poly(q) + LaurentSeries.from_poly(p[0])
    assert base.abs_value() == err <= 0.5
    # shifting p by a nonzero integer lands at norm >= 1 > err
    for off in [Poly.one(F2), Poly.x_power(F2, 1)]:
        shifted = base + LaurentSeries.from_poly(off)
        assert shifted.abs_value() == LaurentSeries.from_poly(off).abs_value()


def test_best_approx_matrix_shape():
    rows = [[series(F2, {1: 1}), series(F2, {2: 1})]]
    p, err = best_integer_approx(rows, (Poly.one(F2), Poly.one(F2)))
    assert len(p) == 1 and err == 0.5
    with pytest.raises(ValueError):
        best_integer_approx(rows, Poly.one(F2))


def test_best_approx_precision_errors():
    with pytest.raises(PrecisionError):
        best_integer_approx(LaurentSeries.zero_window(F2, 0), Poly.one(F2))
    # window vanishes but cannot certify a zero fraction
    with pytest.raises(PrecisionError):
        best_integer_approx(LaurentSeries.zero_window(F2, 5), Poly.one(F2))


# ---------------------------------------------------------------------------
# exhaustive solution sets


def test_kg_zero_matrix_counts_unit_classes():
    psi = power_law(2, tau=1.0)
    sols = kg_solutions(LaurentSeries.zero(F2), psi, 8)
    # n = 1: one solution per monic q of degree <= 3
    assert len(sols) == (2**4 - 1) // (2 - 1)
    assert all(s.err_exp is None for s in sols)
    assert sols.raw_count == len(sols)


def test_kg_zero_matrix_primitive_classes_two_columns():
    psi = power_law(2, tau=1.0)
    A = [[LaurentSeries.zero(F2), LaurentSeries.zero(F2)]]
    sols = kg_solutions(A, psi, 2)
    # 15 unit classes of pairs with deg <= 1; six are a common factor
    # (X or X+1) times a constant pair, leaving 9 primitive classes
    assert sols.raw_count == 15
    assert len(sols) == 9


def test_kg_rational_solution_set():
    psi = power_law(2, tau=1.0)
    sols = kg_solutions(series(F2, {1: 1}), psi, 8)
    got = {tuple(int(c) for c in s.q[0].coeffs) for s in sols}
    multiples = set()
    for k in itertools.product(range(2), repeat=3):
        arr = [0, *k]
        while arr and arr[-1] == 0:
            arr.pop()
        if arr and arr[-1] == 1:
            multiples.add(tuple(arr))
    expected = {(1,)} | multiples
    assert got == expected
    by_q = {tuple(int(c) for c in s.q[0].coeffs): s for s in sols}
    assert by_q[(1,)].err_exp == -1
    assert all(
        s.err_exp is None for q, s in by_q.items() if q != (1,)
    )


def test_kg_matches_double_loop_oracle():
    rng = stream(32, "test", 0)
    prec = 32
    a = sample_matrix(F2, rng, 1, 1, prec)[0][0]
    psi = power_law(2, tau=3.0)
    sols = kg_solutions(a, psi, 2**6)
    got = sols.q_keys()
    adict = {i: int(c) for i, c in enumerate(a.window(0, prec)) if c}
    expected = set()
    for d in range(7):
        for tail in itertools.product(range(2), repeat=d):
            qc = list(tail) + [1]
            wc = {}
            for u in range(1, prec - d):
                acc = 0
                for j, qj in enumerate(qc):
                    acc ^= adict.get(u + j, 0) * qj
                if acc:
                    wc[u] = acc
            # strict: error < s^(-3 deg q); all-zero window is deep enough
            val = min(wc) if wc else prec - d
            if -val < -3 * d:
                expected.add((tuple(qc),))
    assert got == expected


def test_kg_psi_nesting():
    tight = power_law(2, tau=3.0)
    mid = power_law(2, tau=2.0)
    loose = power_law(2, tau=1.0)
    for trial in range(4):
        rng = stream(33, "test", trial)
        a = sample_matrix(F2, rng, 1, 1, 32)[0][0]
        k1 = kg_solutions(a, tight, 2**4).q_keys()
        k2 = kg_solutions(a, mid, 2**4).q_keys()
        k3 = kg_solutions(a, loose, 2**4).q_keys()
        assert k1 <= k2 <= k3


def test_kg_norms_are_powers_of_s():
    rng = stream(34, "test", 0)
    a = sample_matrix(F3, rng, 1, 1, 24)[0][0]
    sols = kg_solutions(a, power_law(3, tau=1.0), 27)
    for s in sols:
        assert s.q_norm == 3.0 ** s.q_exp
        if s.err_exp is not None:
            e = math.log(s.error_norm) / math.log(3)
            assert abs(e - round(e)) < 1e-9


def test_kg_input_validation():
    psi = power_law(2, tau=1.0)
    with pytest.raises(ValueError):
        kg_solutions(LaurentSeries.zero(F2), psi, 5)
    with pytest.raises(ValueError):
        kg_solutions(LaurentSeries.zero(F2), psi, 0)
    with pytest.raises(ValueError):
        kg_solutions(LaurentSeries.zero(F3), psi, 9)
    with pytest.raises(EnumerationCapError):
        kg_solutions(LaurentSeries.zero(F2), psi, 2**8, cap=10)


def test_kg_window_admission_guard():
    a = series(F2, {1: 1}, prec=3)
    with pytest.raises(CertificationError) as err:
        kg_solutions(a, power_law(2, tau=3.0), 2)
    assert err.value.needed_precision >= 5


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.integers(0, 1), min_size=1, max_size=12),
)
def test_kg_admission_is_strict_in_integers(coeffs):
    pairs = {i + 1: c for i, c in enumerate(coeffs) if c}
    a = series(F2, pairs)
    psi = power_law(2, tau=2.0)
    for sol in kg_solutions(a, psi, 8):
        assert sol.err_exact
        if sol.err_exp is not None:
            # power-law threshold is integral here, so strictness is exact
            assert sol.err_exp < -2 * sol.q_exp


# ---------------------------------------------------------------------------
# Monte-Carlo dichotomy


def test_persistence_ladder_values():
    assert persistence_ladder(12) == (6, 3, 2, 1)
    assert persistence_ladder(7) == (4, 2, 1)
    assert persistence_ladder(2) == (1,)
    assert persistence_ladder(1) == (1,)
    with pytest.raises(ValueError):
        persistence_ladder(0)


def test_kg_mc_divergent_profile_persists():
    rep = kg_monte_carlo(
        F2, power_law(2, tau=1.0), 1, 1, 80, 12, 20240821, precision=64
    )
    assert rep.rungs == (6, 3, 2, 1)
    assert rep.persistent_fraction >= 0.95
    assert rep.rung_fractions[1] >= rep.rung_fractions[6]


def test_kg_mc_convergent_profile_dies():
    rep = kg_monte_carlo(
        F2, power_law(2, tau=2.0), 1, 1, 80, 12, 20240821, precision=64
    )
    assert rep.persistent_fraction <= 0.05
    counts = rep.counts
    assert counts.max() <= 30
    hist = rep.counts_histogram
    assert sum(hist.values()) == 80


def test_kg_mc_constant_profile_trivially_persists():
    rep = kg_monte_carlo(F2, power_law(2, tau=0.0), 1, 1, 20, 8, 20240821)
    assert rep.persistent_fraction == 1.0


def test_kg_mc_counts_match_exhaustive_search():
    psi = power_law(2, tau=1.0)
    seed, H, prec = 20240822, 6, 40
    rep = kg_monte_carlo(F2, psi, 1, 1, 4, H, seed, precision=prec)
    for trial in range(4):
        rng = stream(seed, "kg-mc", trial)
        a = sample_matrix(F2, rng, 1, 1, prec)[0][0]
        sols = kg_solutions(a, psi, 2**H)
        assert rep.counts[trial] == sols.raw_count


def test_kg_mc_slow_path_counts_match():
    psi = power_law(2, tau=1.0)
    seed, H, prec = 20240823, 2, 24
    rep = kg_monte_carlo(F2, psi, 1, 2, 3, H, seed, precision=prec)
    for trial in range(3):
        rng = stream(seed, "kg-mc", trial)
        A = sample_matrix(F2, rng, 1, 2, prec)
        sols = kg_solutions(A, psi, 2**H)
        assert rep.counts[trial] == sols.raw_count


def test_kg_mc_deterministic_and_prefix_stable():
    psi = power_law(2, tau=2.0)
    a = kg_monte_carlo(F2, psi, 1, 1, 10, 8, 7, precision=48)
    b = kg_monte_carlo(F2, psi, 1, 1, 10, 8, 7, precision=48)
    assert a.summary() == b.summary()
    longer = kg_monte_carlo(F2, psi, 1, 1, 20, 8, 7, precision=48)
    assert np.array_equal(longer.counts[:10], a.counts)


def test_kg_mc_threads_equivalent(monkeypatch):
    # lift the CPU cap so that threads = 3 forks two children on any host
    monkeypatch.setattr("ffdyn.streams._usable_cpus", lambda: 3)
    psi = power_law(2, tau=1.0)
    a = kg_monte_carlo(F2, psi, 1, 1, 12, 6, 11, precision=40)
    for threads in (2, 3):
        b = kg_monte_carlo(F2, psi, 1, 1, 12, 6, 11, precision=40, threads=threads)
        assert np.array_equal(a.counts, b.counts)
        assert a.persistent_fraction == b.persistent_fraction
        assert a.rung_fractions == b.rung_fractions


def test_kg_mc_precision_guard():
    with pytest.raises(CertificationError):
        kg_monte_carlo(F2, power_law(2, tau=2.0), 1, 1, 4, 12, 1, precision=5)
    with pytest.raises(ValueError):
        kg_monte_carlo(F2, power_law(3, tau=1.0), 1, 1, 4, 6, 1)


def test_kg_mc_refuses_walks_above_the_search_cap():
    # H = 20 at s = 2: 2^21 - 1 unit classes, refused before any block is built
    with pytest.raises(EnumerationCapError, match="2097151 candidate classes"):
        kg_monte_carlo(F2, power_law(2, tau=1.0), 1, 1, 1, 20, 1)


_FIELDS = [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)]


@pytest.mark.parametrize("p,e", _FIELDS)
def test_unit_class_blocks_match_reference_walk(p, e):
    fs = field_spec(p, e)
    cases = [(n, deg) for n in (1, 2, 3) for deg in range(4) if fs.s ** (n * (deg + 1)) <= 5000]
    if fs.s == 2:
        cases.append((2, 7))  # 2^16 - 1 classes: the walk spans several blocks
    for n, deg in cases:
        blocks = list(_unit_class_blocks(fs.s, n, deg, 10**6))
        assert all(b.shape[0] == _CANDIDATE_BLOCK for b in blocks[:-1])
        got = [row for b in blocks for row in b.tolist()]
        want = [
            [list(c) + [0] * (deg + 1 - len(c)) for c in coords]
            for coords in oracles.unit_normalized_vectors(fs.s, n, deg)
        ]
        assert got == want, (fs, n, deg)


@pytest.mark.parametrize("p,e", _FIELDS)
def test_kg_trial_matches_slow_trial(p, e):
    fs = field_spec(p, e)
    for m, n in [(1, 1), (1, 2), (2, 1)]:
        # the largest horizon whose s^(n(H+1)) candidates stay within 1000;
        # (1, 2) is left out for s = 25, 27, 125, where H = 1 already has
        # s^4 >= 390,625 candidates for the one-at-a-time reference
        horizon = 1
        while fs.s ** (n * (horizon + 2)) <= 1000:
            horizon += 1
        if fs.s ** (n * (horizon + 1)) > 20_000:
            continue
        rungs = persistence_ladder(horizon)
        for tau in (1.0, 2.0):
            psi = power_law(fs.s, tau=tau)
            prec = _required_precision(psi, m, n, horizon)
            for seed in range(2):
                rep = kg_monte_carlo(fs, psi, m, n, 1, horizon, seed, precision=prec)
                rows = sample_matrix(fs, stream(seed, "kg-mc", 0), m, n, prec)
                count, passes = oracles.slow_trial(rows, psi, m, n, horizon, rungs)
                assert rep.counts[0] == count, (fs, m, n, tau, seed)
                assert tuple(rep.rung_fractions[h] == 1.0 for h in rungs) == passes


@pytest.mark.parametrize("p,e", _FIELDS)
def test_kg_rank_count_matches_hankel_trial(p, e):
    fs = field_spec(p, e)
    shapes = []
    for m, n in itertools.product((1, 2), repeat=2):
        # the largest horizon with at most 4000 unit classes; n = 2 is left
        # out for s = 125, where H = 1 already has 1,968,876 classes
        horizon = 1
        while (fs.s ** (n * (horizon + 2)) - 1) // (fs.s - 1) <= 4000:
            horizon += 1
        if (fs.s ** (n * (horizon + 1)) - 1) // (fs.s - 1) <= 20_000:
            shapes.append((m, n, horizon))
    if fs.s == 2:
        shapes.append((1, 1, 12))  # the kg-mc item of the trial-batch benchmark
    psis = (power_law(fs.s, tau=1.0), power_law(fs.s, c=0.5, tau=1.3), PsiLogPower(fs.s, 2.0))
    trials, seed = 3, 5
    for (m, n, horizon), psi in itertools.product(shapes, psis):
        rungs = persistence_ladder(horizon)
        need = _required_precision(psi, m, n, horizon)
        for precision in (need, need + 3):
            rep = kg_monte_carlo(fs, psi, m, n, trials, horizon, seed, precision=precision)
            passes = []
            for trial in range(trials):
                rows = sample_matrix(fs, stream(seed, "kg-mc", trial), m, n, precision)
                count, passed = oracles.hankel_trial(rows, psi, m, n, horizon, rungs)
                assert rep.counts[trial] == count, (fs, m, n, psi.describe(), precision)
                passes.append(passed)
            want = np.array(passes)
            assert rep.rung_fractions == {h: want[:, i].mean() for i, h in enumerate(rungs)}
            assert rep.persistent_fraction == want.all(axis=1).mean()


def _zero_block_cases(fs, rng):
    """(target, spec, degree bound, expect a hit, expect indeterminate > 0)
    on the matrix path and the basis path."""
    c = int(rng.integers(1, fs.s))
    classes = lambda r, d: (fs.s ** (r * (d + 1)) - 1) // (fs.s - 1)
    d1 = max(d for d in range(6) if classes(1, d) <= 2000)
    d2 = max(d for d in range(4) if classes(2, d) <= 2000)
    s11, s12, s21 = FlowSpec(fs, 1, 1), FlowSpec(fs, 1, 2), FlowSpec(fs, 2, 1)
    exact = series(fs, {1: c})  # c X^-1, cleared exactly by q = X
    windowed = sample_matrix(fs, rng, 1, 1, d1 + 1)
    cases = [
        ([[exact]], s11, d1, True, False),
        (windowed, s11, d1, False, True),
        (sample_matrix(fs, rng, 1, 1, 4 * d1 + 8), s11, d1, False, False),
        (unipotent_lattice(series(fs, {0: c}), s11), s11, d2, True, False),
        (unipotent_lattice(series(fs, {0: c}, prec=2), s11), s11, d2, False, True),
        (unipotent_lattice(sample_matrix(fs, rng, 1, 1, 2), s11), s11, d2, None, None),
    ]
    if classes(2, 1) <= 2000:
        cases += [
            (sample_matrix(fs, rng, 1, 2, 3), s12, 1, None, None),
            (sample_matrix(fs, rng, 2, 1, 3), s21, 1, None, None),
            (unipotent_lattice([[exact], [series(fs, {2: c})]], s21), s21, 0, None, None),
        ]
    return cases


@pytest.mark.parametrize("p,e", _FIELDS)
def test_zero_block_detector_matches_reference(p, e):
    fs = field_spec(p, e)
    for target, spec, bound, hit, undecided in _zero_block_cases(fs, stream(p * 10 + e, "test", 0)):
        rep = zero_block_detector(target, spec, degree_bound=bound)
        want = oracles.zero_block_reference(target, spec.m, bound)
        assert (rep.found, rep.witness, rep.searched, rep.indeterminate) == want, (fs, spec, bound)
        if hit is not None:
            assert rep.found == hit and (rep.indeterminate > 0) == undecided


# ---------------------------------------------------------------------------
# multiplicative regime


def diag_basis(fs):
    return LatticeBasis(
        fs,
        [
            [LaurentSeries.x_power(fs, -1), LaurentSeries.zero(fs)],
            [LaurentSeries.zero(fs), LaurentSeries.x_power(fs, 1)],
        ],
    )


def test_mult_identity_lattice_degenerates():
    psi = power_law(2, tau=1.0)
    out = mult_solutions(LatticeBasis.identity(F2, 2), psi, 1.0)
    assert len(out.degenerate) == 2
    # (1,1) meets the bound with equality: product 1 = norm * psi(norm)
    assert len(out) == 1
    assert out.solutions[0].coord_exps == (0, 0)


def test_mult_diag_lattice_example():
    psi = power_law(2, tau=1.0)
    out = mult_solutions(diag_basis(F2), psi, 4.0)
    # candidates (a X^-1, b X) with deg a <= 3, deg b <= 1: 63 unit classes,
    # 18 of them with a zero coordinate; product <= norm * psi(norm) forces
    # deg a = deg b = 0, the single class (X^-1, X)
    assert out.checked == 63
    assert len(out.degenerate) == 18
    assert len(out) == 1
    assert out.solutions[0].coord_exps == (-1, 1)
    assert out.solutions[0].prod_exp == 0


def test_mult_unit_classes_collapse():
    psi = power_law(3, tau=1.0)
    out = mult_solutions(diag_basis(F3), psi, 9.0)
    # after scaling the first coordinate monic, b still ranges over F_3^*
    assert len(out) == 2
    for sol in out:
        assert sol.coord_exps == (-1, 1)


def test_mult_zero_profile_empty():
    out = mult_solutions(diag_basis(F2), None, 4.0)
    assert len(out) == 0
    assert out.psi == "zero"
    assert len(out.degenerate) == 18


def test_mult_input_guards():
    psi = power_law(2, tau=1.0)
    with pytest.raises(ValueError):
        mult_solutions(LatticeBasis.identity(F2, 1), psi, 2.0)
    with pytest.raises(ValueError):
        mult_solutions(LatticeBasis.identity(F2, 2), psi, 3.0)
    with pytest.raises(ValueError):
        mult_solutions(LatticeBasis.identity(F3, 2), psi, 3.0)


def test_mult_psi_nesting():
    tight = power_law(2, c=2.0, tau=1.0)
    loose = power_law(2, tau=1.0)
    basis = unipotent_lattice(series(F2, {1: 1, 2: 1}), FlowSpec(F2, 1, 1))
    small = {s.coord_exps for s in mult_solutions(basis, tight, 8.0)}
    big = {s.coord_exps for s in mult_solutions(basis, loose, 8.0)}
    assert small <= big


def _mult_outcome(search, basis, psi, bound, cap):
    try:
        res = search(basis, psi, bound, cap=cap)
    except (CertificationError, EnumerationCapError, PrecisionError) as exc:
        return type(exc), str(exc), getattr(exc, "needed_precision", None)

    def key(vec):
        return tuple((e.v, e.coeffs.tolist(), e.prec) for e in vec)

    return (
        [(key(sol.vector), sol.coord_exps) for sol in res.solutions],
        [key(vec) for vec in res.degenerate],
        res.checked,
        res.bound_exp,
        res.psi,
    )


def test_mult_solutions_match_reference_loop():
    # the array filter against the canonicalise-and-dedupe loop over the
    # series walk: solutions, degenerate vectors, their order, the class
    # count and every error; each case lowers the bound from s^2 until the
    # walk fits the cap, comparing the cap errors on the way
    cap = 2000
    compared = []
    for fs in [field_spec(p, e) for p in (2, 3, 5) for e in (1, 2, 3)]:
        rng = np.random.default_rng(fs.s)
        psis = (power_law(fs.s), power_law(fs.s, c=-1.0, tau=0.5), None)
        for m, n in ((1, 1), (1, 2), (2, 1)):
            A = [
                [LaurentSeries(fs, 0, rng.integers(0, fs.s, size=8)) for _ in range(n)]
                for _ in range(m)
            ]
            basis = unipotent_lattice(A, FlowSpec(fs, m, n))
            for psi in psis:
                for k in (2, 1, 0):
                    got = _mult_outcome(mult_solutions, basis, psi, fs.s**k, cap)
                    ref = _mult_outcome(
                        oracles.mult_solutions_reference, basis, psi, fs.s**k, cap
                    )
                    assert got == ref, (fs, m, n, psi, k)
                    if got[0] is not EnumerationCapError:
                        compared.append(bool(got[0]))
                        break
        # truncated A: (1, 0) has a zero coordinate that no window decides
        a = LaurentSeries(fs, 0, rng.integers(1, fs.s, size=6), prec=6)
        basis = unipotent_lattice(a, FlowSpec(fs, 1, 1))
        got = _mult_outcome(mult_solutions, basis, psis[0], 1.0, fs.s**2)
        assert got == (
            CertificationError,
            "coordinate vanishes through the window; zero is undecidable at this precision",
            7,
        ), fs
        assert got == _mult_outcome(
            oracles.mult_solutions_reference, basis, psis[0], 1.0, fs.s**2
        ), fs
    # the walk fits the cap in 20 of the 27 (field, shape) cases, all but
    # r = 3 at s = 25, 27 and every shape at s = 125; both positive
    # profiles admit solutions in each
    assert compared == [True, True, False] * 20
    # entries known to different windows: the walk's vectors have
    # coefficients past the basis window, which no series can hold
    entries = [
        [series(F2, {0: 1, 4: 1}, 5), series(F2, {1: 1}, 3)],
        [LaurentSeries.zero(F2), LaurentSeries.one(F2)],
    ]
    basis = LatticeBasis(F2, entries)
    got = _mult_outcome(mult_solutions, basis, power_law(2), 2.0, cap)
    assert got[0] is PrecisionError
    assert got == _mult_outcome(oracles.mult_solutions_reference, basis, power_law(2), 2.0, cap)


# ---------------------------------------------------------------------------
# correspondence between excursions and solutions


def test_correspondence_rational_gives_exact_witnesses():
    psi = power_law(2, tau=1.0)
    rep = correspondence_check(series(F2, {1: 1}), psi, FlowSpec(F2, 1, 1), T=12)
    assert rep.kind == "window"
    assert rep.passed
    assert rep.flagged_count == 12
    for row in rep.rows:
        assert row.time >= 1 and row.flagged
        assert row.witness.top_exp is None  # error exactly zero
        assert row.witness.q[0] == Poly.x_power(F2, 1)


def test_correspondence_flat_rate_flags_everywhere():
    psi = power_law(2, tau=1.0)
    rng = stream(35, "test", 0)
    a = sample_matrix(F2, rng, 1, 1, 96)[0][0]
    rep = correspondence_check(a, psi, FlowSpec(F2, 1, 1), T=24)
    assert rep.flagged_count == 24
    assert rep.passed
    assert all(r.threshold == 0 for r in rep.rows)


def test_correspondence_constant_rate_threshold():
    # psi(x) = s^-3 / x has constant rate c/(m+n) = 1 at (m,n) = (2,1)
    psi = power_law(2, c=3.0, tau=1.0)
    rng = stream(35, "test", 1)
    A = sample_matrix(F2, rng, 2, 1, 160)
    rep = correspondence_check(A, psi, FlowSpec(F2, 2, 1), T=16)
    assert rep.passed
    assert all(r.threshold == 1 for r in rep.rows)


def test_correspondence_threshold_tracks_the_rate():
    # psi(x) = x^-2 at m = n = 1 solves to r(a) = a/3
    psi = power_law(2, tau=2.0)
    rng = stream(35, "test", 2)
    a = sample_matrix(F2, rng, 1, 1, 128)[0][0]
    rep = correspondence_check(a, psi, FlowSpec(F2, 1, 1), T=18)
    assert rep.passed
    for row in rep.rows:
        assert row.threshold == (row.time + 2) // 3


def test_correspondence_deep_excursion_is_verified():
    psi = power_law(2, tau=2.0)
    a = series(F2, {21: 1})
    rep = correspondence_check(a, psi, FlowSpec(F2, 1, 1), T=14)
    assert rep.passed
    flagged = [r for r in rep.rows if r.flagged]
    assert flagged
    for row in flagged:
        assert row.witness.q[0] == Poly.one(F2)
        assert row.witness.top_exp == -21


def test_correspondence_random_matrices_have_no_counterexamples():
    for fs, psi_s in [(F2, 2), (F3, 3)]:
        psi = power_law(psi_s, tau=1.0)
        for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            spec = FlowSpec(fs, m, n)
            prec = (m + n) * 16 + 48
            rng = stream(36, "test", 10 * m + n + (0 if psi_s == 2 else 100))
            A = sample_matrix(fs, rng, m, n, prec)
            rep = correspondence_check(A, psi, spec, T=16)
            assert rep.passed, (m, n, psi_s, rep.counterexamples)
            assert rep.flagged_count == 16


@pytest.mark.parametrize(
    "fs", [field_spec(2, 2), field_spec(3, 2)], ids=lambda f: f"s{f.s}"
)
def test_correspondence_cf_witnesses_sit_on_the_ladder(fs):
    # at m = n = 1 each flagged witness is the convergent denominator of the
    # rung below t: its degree is that rung D_k of the trajectory's ladder
    psi = power_law(fs.s, tau=1.0)
    spec = FlowSpec(fs, 1, 1)
    a = sample_matrix(fs, stream(38, "test", fs.s), 1, 1, 96)[0][0]
    rungs = delta_trajectory(a, spec, 24).meta["rungs"]
    rep = correspondence_check(a, psi, spec, T=24)
    assert rep.passed and rep.flagged_count > 0
    for row in rep.rows:
        if not row.flagged:
            continue
        (q,) = row.witness.q
        assert q.degree == rungs[np.searchsorted(rungs, row.time, side="right") - 1]
        again = _verify_window_witness(
            [[a]], psi, spec, row.time, row.threshold, (q,), None
        )
        assert again.window_ok and again.ineq_ok


def test_correspondence_low_precision_raises():
    psi = power_law(2, tau=1.0)
    rng = stream(36, "test", 50)
    a = sample_matrix(F2, rng, 1, 1, 8)[0][0]
    with pytest.raises(CertificationError):
        correspondence_check(a, psi, FlowSpec(F2, 1, 1), T=16)


@pytest.mark.parametrize("fs", [F2, F3, field_spec(2, 2)], ids=lambda fs: f"s{fs.s}")
@pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (2, 2)])
def test_engine_witnesses_are_shortest_vectors(fs, m, n):
    # every flagged witness comes from the trajectory's own transform; it
    # must be as short as the from-scratch reduction's shortest column
    psi = power_law(fs.s, tau=1.0)
    spec = FlowSpec(fs, m, n)
    A = sample_matrix(fs, stream(37, "test", 10 * m + n + fs.s), m, n, (m + n) * 16 + 48)
    basis = unipotent_lattice(A, spec)
    rep = correspondence_check(A, psi, spec, T=16)
    assert rep.flagged_count > 0
    for row in rep.rows:
        if not row.flagged:
            continue
        flowed = flow_apply(basis, row.time, spec)
        red = weak_popov(flowed)
        assert red.certification()[0]
        col = [LaurentSeries.from_poly(c) for c in row.witness.p + row.witness.q]
        exps = []
        for entries in flowed.entries:
            w = LaurentSeries.zero(fs)
            for b, c in zip(entries, col):
                w = w + b * c
            if w.has_leading_term:
                exps.append(-int(w.valuation()))
        assert max(exps) == min(red.degrees) - red.scale
        again = _verify_window_witness(
            A, psi, spec, row.time, row.threshold, row.witness.q, row.witness.p
        )
        assert again.window_ok and again.ineq_ok


def test_correspondence_low_precision_generic_raises_like_trajectory():
    spec = FlowSpec(F2, 2, 1)
    A = sample_matrix(F2, stream(36, "test", 51), 2, 1, 12)
    with pytest.raises(CertificationError) as traj:
        delta_trajectory(A, spec, 16, strict=True)
    with pytest.raises(CertificationError) as corr:
        correspondence_check(A, power_law(2, tau=1.0), spec, T=16)
    assert traj.value.needed_precision is not None
    assert corr.value.needed_precision == traj.value.needed_precision
    assert str(corr.value) == str(traj.value)


def test_correspondence_matrix_needs_spec():
    with pytest.raises(ValueError):
        correspondence_check(series(F2, {1: 1}), power_law(2), T=4)


def test_correspondence_respects_rate_domain():
    psi = power_law(2, tau=1.0, u0=5.0)
    rng = stream(36, "test", 51)
    a = sample_matrix(F2, rng, 1, 1, 96)[0][0]
    rep = correspondence_check(a, psi, FlowSpec(F2, 1, 1), T=12)
    assert rep.passed
    for row in rep.rows:
        if row.time < 5:
            assert row.threshold is None and not row.flagged
            assert row.note == "below rate domain"
        else:
            assert row.threshold == 0


def test_correspondence_report_shape():
    psi = power_law(2, tau=1.0)
    rep = correspondence_check(series(F2, {1: 1}), psi, FlowSpec(F2, 1, 1), T=6)
    out = rep.summary()
    for key in ["kind", "s", "psi", "horizon", "checked", "flagged", "counterexamples"]:
        assert key in out
    rows = list(rep.table())
    assert len(rows) == 6
    assert rows[0][0] == 1 and rows[0][3] == 1


def test_mult_correspondence_diag_verified():
    psi = power_law(2, tau=1.0)
    rep = correspondence_check(diag_basis(F2), psi, T=4)
    assert rep.kind == "multiplicative"
    assert rep.passed
    assert set(rep.chambers) == {"0>1", "1>0"}
    assert rep.meta["x_psi_non_increasing"]


def test_mult_correspondence_depth_is_neg_norm():
    # for Z^r under a pure drift the depth is exactly max(-t_i)
    psi = power_law(2, tau=1.0)
    rep = correspondence_check(LatticeBasis.identity(F2, 3), psi, T=3)
    assert rep.passed
    for row in rep.rows:
        assert row.delta == max(-ti for ti in row.time if ti <= 0)
        assert row.witness is None or row.witness.degenerate


def test_mult_correspondence_box_partition():
    psi = power_law(2, tau=1.0)
    rep = correspondence_check(LatticeBasis.identity(F2, 3), psi, T=2)
    heads = [
        (a, b)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if abs(a + b) <= 2 and (a, b, -(a + b)) != (0, 0, 0)
    ]
    assert len(rep.rows) == len(heads)
    assert sum(st["checked"] for st in rep.chambers.values()) == len(heads)


def test_mult_correspondence_rank_guard():
    psi = power_law(2, tau=1.0)
    with pytest.raises(ValueError):
        correspondence_check(LatticeBasis.identity(F2, 1), psi, T=2)


# ---------------------------------------------------------------------------
# zero-block detection


def test_zero_block_exact_rational_found():
    spec = FlowSpec(F2, 1, 1)
    rep = zero_block_detector(series(F2, {1: 1}), spec)
    assert rep
    assert rep.witness[0] == Poly.x_power(F2, 1)

    rep2 = zero_block_detector(series(F2, {1: 1, 3: 1}), spec)
    assert rep2
    # q = X^3 clears X^-1 + X^-3 exactly
    assert rep2.witness[0].degree == 3


def test_zero_block_generic_window_unset():
    rng = stream(37, "test", 0)
    A = sample_matrix(F2, rng, 1, 1, 64)
    rep = zero_block_detector(A, FlowSpec(F2, 1, 1), degree_bound=6)
    assert not rep
    assert rep.indeterminate == 0
    assert rep.searched == 2**7 - 1


def test_zero_block_integer_lattice():
    rep = zero_block_detector(
        LatticeBasis.identity(F2, 3), FlowSpec(F2, 2, 1), degree_bound=1
    )
    assert rep
    assert rep.witness is not None


def test_zero_block_unipotent_basis_path():
    spec = FlowSpec(F2, 1, 1)
    basis = unipotent_lattice(series(F2, {1: 1}), spec)
    rep = zero_block_detector(basis, spec, degree_bound=2)
    assert rep
    # re-verify the witness kills the first coordinate exactly
    us = [LaurentSeries.from_poly(u) for u in rep.witness]
    w = LaurentSeries.zero(F2)
    for k in range(2):
        w = w + basis.entries[0][k] * us[k]
    assert w.is_exact_zero


def test_zero_block_cap():
    with pytest.raises(EnumerationCapError):
        zero_block_detector(
            LaurentSeries.zero(F2), FlowSpec(F2, 1, 1), degree_bound=30, cap=100
        )
