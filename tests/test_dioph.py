"""Tests for solution search in the three approximation regimes and the
excursion-to-solution dictionary."""

import itertools

import numpy as np
import pytest

import oracles
from ffdyn import dioph
from ffdyn.dioph import (
    _required_precision,
    correspondence_check,
    kg_monte_carlo,
    mult_solutions,
    persistence_ladder,
)
from ffdyn.errors import CertificationError, EnumerationCapError, FieldError, PrecisionError
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


_FIELDS = [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)]


def _outcome(run):
    """The result of ``run()`` with its repr, which tells a numpy integer
    from a Python int, or the type, message and needed precision of the
    error it raised."""
    try:
        got = run()
    except (CertificationError, PrecisionError) as err:
        return type(err), str(err), getattr(err, "needed_precision", None)
    return got, repr(got)


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
        A = sample_matrix(F2, stream(seed, "kg-mc", trial), 1, 1, prec)
        count, _ = oracles.slow_trial(A, psi, 1, 1, H, persistence_ladder(H))
        assert rep.counts[trial] == count


def test_kg_mc_slow_path_counts_match():
    psi = power_law(2, tau=1.0)
    seed, H, prec = 20240823, 2, 24
    rep = kg_monte_carlo(F2, psi, 1, 2, 3, H, seed, precision=prec)
    for trial in range(3):
        A = sample_matrix(F2, stream(seed, "kg-mc", trial), 1, 2, prec)
        count, _ = oracles.slow_trial(A, psi, 1, 2, H, persistence_ladder(H))
        assert rep.counts[trial] == count


def test_kg_matches_double_loop_oracle():
    # one kg-mc trial's count and rungs against a literal loop over the
    # monic q of degree <= H and the tail coefficients of qa over F_2
    seed, H, prec = 32, 6, 32
    rep = kg_monte_carlo(F2, power_law(2, tau=3.0), 1, 1, 1, H, seed, precision=prec)
    a = sample_matrix(F2, stream(seed, "kg-mc", 0), 1, 1, prec)[0][0]
    adict = {i: int(c) for i, c in enumerate(a.window(0, prec)) if c}
    admitted = []
    for d in range(H + 1):
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
                admitted.append(d)
    assert rep.counts[0] == len(admitted)
    assert rep.rung_fractions == {h: float(max(admitted) >= h) for h in rep.rungs}


def test_kg_psi_nesting():
    # a tighter profile admits a subset of the classes, so no trial's
    # count grows
    tight, mid, loose = (
        kg_monte_carlo(F2, power_law(2, tau=tau), 1, 1, 8, 4, 33, precision=32).counts
        for tau in (3.0, 2.0, 1.0)
    )
    assert (tight <= mid).all() and (mid <= loose).all()
    assert (tight < loose).any()


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


@pytest.mark.parametrize("p,e", _FIELDS)
def test_unit_class_blocks_match_reference_walk(p, e):
    # the walk order is the same for every block size; 7 rows cut inside
    # each degree's classes and 1 row yields every class alone
    fs = field_spec(p, e)
    cases = [(n, deg) for n in (1, 2, 3) for deg in range(4) if fs.s ** (n * (deg + 1)) <= 5000]
    if fs.s == 2:
        cases.append((2, 7))  # 2^16 - 1 classes: the walk spans several blocks
    for n, deg in cases:
        want = [
            [list(c) + [0] * (deg + 1 - len(c)) for c in coords]
            for coords in oracles.unit_normalized_vectors(fs.s, n, deg)
        ]
        for size in (oracles.CANDIDATE_BLOCK, 7, 1):
            blocks = list(oracles.unit_class_blocks(fs.s, n, deg, size))
            assert all(b.shape[0] == size for b in blocks[:-1])
            assert 0 < blocks[-1].shape[0] <= size
            got = [row for b in blocks for row in b.tolist()]
            assert got == want, (fs, n, deg, size)


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
    # the monic build against the canonicalise-and-dedupe loop over the
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


def test_mult_solutions_peak_stays_near_its_monic_walk():
    # the search reads the monic walk where _combinations writes it and
    # rescales only the rows it reports, so its tracemalloc peak stays
    # below 2.5 times the walk's bytes; rescaling and copying the whole
    # walk peaked at about 3.05 times on this basis
    import tracemalloc

    from ffdyn.lattice import _short_vector_array

    fs = field_spec(2, 2)
    a = LaurentSeries(fs, 0, np.random.default_rng(4).integers(0, fs.s, size=68), None)
    basis = unipotent_lattice(a, FlowSpec(fs, 1, 1))
    psi, bound = power_law(fs.s), float(fs.s**2)
    walk = _short_vector_array(basis, bound, 200_000, monic=True)[1]
    assert walk.shape[0] == (fs.s**6 - 1) // (fs.s - 1)
    mult_solutions(basis, psi, bound)  # warm up the field's tables
    tracemalloc.start()
    try:
        res = mult_solutions(basis, psi, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.checked == walk.shape[0] and res.solutions
    assert peak < 2.5 * walk.nbytes, peak / walk.nbytes


def test_mult_solutions_deep_row_raises_the_walks_precision_error(monkeypatch):
    # short vectors past the window of a truncated basis: the monic build
    # converts the same first deep row as the full series walk, so it
    # raises the same PrecisionError
    from ffdyn import lattice

    real = lattice._series_rows
    converted = []

    def spy(fs, M, window, W):
        converted.append(W.copy())
        return real(fs, M, window, W)

    monkeypatch.setattr(lattice, "_series_rows", spy)
    for fs in [field_spec(p, e) for p, e in _FIELDS]:
        rng = np.random.default_rng(fs.s)
        a = LaurentSeries(fs, 0, rng.integers(1, fs.s, size=5), prec=5)
        b = LaurentSeries(fs, 1, rng.integers(1, fs.s, size=2), prec=3)
        zero, one = LaurentSeries.zero(fs), LaurentSeries.one(fs)
        basis = LatticeBasis(fs, [[a, b], [zero, one]])
        errors = []
        for search in (
            lambda: lattice.enumerate_short_vectors(basis, 1.0),
            lambda: mult_solutions(basis, power_law(fs.s), 1.0),
        ):
            converted.clear()
            with pytest.raises(PrecisionError) as err:
                search()
            errors.append((str(err.value), converted[0]))
        assert errors[0][0] == errors[1][0] == "coefficients listed up to index 4 but window ends at 3"
        assert np.array_equal(errors[0][1], errors[1][1]) and errors[0][1].shape[0] == 1, fs


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
        assert row.witness.q[0] == Poly(F2, [0, 1])


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
        again = oracles.verify_window_witness(
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
        again = oracles.verify_window_witness(
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


def _truncated(A, prec):
    return [[a.truncate(prec) for a in row] for row in A]


def _witness_polys(spec, stack):
    """The (qs, ps) of each row of a witness stack as copied Polys, ps None
    on the ladder, as ``oracles.verify_window_witness`` takes them; none
    when no time is flagged (stack None)."""
    fs, m = spec.field, spec.m
    if stack is None:
        return []
    if spec.m == spec.n == 1:
        return [((Poly(fs, row[0]),), None) for row in stack]
    polys = [tuple(Poly(fs, c) for c in row) for row in stack]
    return [(vec[m:], vec[:m]) for vec in polys]


def _record_witness_calls(monkeypatch):
    """Have ``correspondence_check`` record the (flagged, stack) of each
    ``_window_witnesses`` call; returns the routine and the records."""
    batched, calls = dioph._window_witnesses, []

    def record(rows_A, psi, spec, flagged, stack):
        calls.append((flagged, stack))
        return batched(rows_A, psi, spec, flagged, stack)

    monkeypatch.setattr(dioph, "_window_witnesses", record)
    return batched, calls


@pytest.mark.parametrize(
    "fs", [field_spec(p, e) for p in (2, 3, 5) for e in (1, 2, 3)], ids=lambda f: f"s{f.s}"
)
def test_batched_witnesses_match_series_oracle(fs, monkeypatch):
    # correspondence_check verifies every flagged witness in one batched
    # pass over their stack; it must give the per-time series
    # recomputation's witnesses in the same order, and on windows too short
    # for them the same error (type, message, needed_precision) at the same
    # time
    batched, calls = _record_witness_calls(monkeypatch)

    def reference(A, psi, spec, flagged, stack):
        return [
            oracles.verify_window_witness(A, psi, spec, t, R, qs, ps)
            for (t, R), (qs, ps) in zip(flagged, _witness_polys(spec, stack))
        ]

    kinds = set()
    profiles = [power_law(fs.s, tau=1.0), power_law(fs.s, c=0.5, tau=1.3)]
    for (m, n), psi in itertools.product([(1, 1), (1, 2), (2, 1), (2, 2)], profiles):
        spec = FlowSpec(fs, m, n)
        rng = stream(39, "test", 100 * fs.s + 10 * m + n + (psi.tau > 1) * 5)
        A = sample_matrix(fs, rng, m, n, (m + n) * 12 + 48)
        rep = correspondence_check(A, psi, spec, T=12)
        flagged, stack = calls[-1]
        assert [r.witness for r in rep.rows if r.flagged] == reference(A, psi, spec, flagged, stack)
        if not flagged:
            continue
        q_sets = [qs for qs, _ in _witness_polys(spec, stack)]
        degrees = [q.degree for qs in q_sets for q in qs]
        tops = [max(q.degree for q in qs) for qs in q_sets]
        tight = max(n * t + R + top + 1 for (t, R), top in zip(flagged, tops))
        exact = [list(row) for row in A]
        exact[0][-1] = LaurentSeries(fs, A[0][-1].v, A[0][-1].coeffs, None)
        windowed_zero = [list(row) for row in A]
        windowed_zero[-1][0] = LaurentSeries.zero_window(fs, tight)
        # a zero q, which the engine never yields, is a witness of nothing;
        # off the ladder it keeps the first time's p
        zero_q = stack[:1].copy()
        zero_q[:, 0 if m == n == 1 else m :] = 0
        cases = [
            (A, flagged + [(12, 0)], np.concatenate([stack, zero_q])),
            (_truncated(A, tight), flagged, stack),
            (_truncated(A, tight - 4), flagged, stack),
            (_truncated(A, min(degrees)), flagged, stack),
            (exact, flagged, stack),
            (windowed_zero, flagged, stack),
        ]
        for matrix, rows, codes in cases:
            got = _outcome(lambda: batched(matrix, psi, spec, rows, codes))
            assert got == _outcome(lambda: reference(matrix, psi, spec, rows, codes))
            kinds.add(got[0] if isinstance(got[0], type) else "witnesses")
    assert kinds == {"witnesses", CertificationError, PrecisionError}


@pytest.mark.parametrize("fs", [F2, F3, field_spec(2, 2)], ids=lambda f: f"s{f.s}")
def test_batched_witness_zero_coordinate_adds_no_window(fs):
    # a windowed entry times a zero coordinate of q is an exact zero, so
    # p + Aq = -1 + (a * 0 + 1 * 1) is known to vanish and nothing is
    # undecidable, though the entry itself is known nowhere
    spec = FlowSpec(fs, 1, 2)
    A = [[LaurentSeries.zero_window(fs, 0), LaurentSeries.one(fs)]]
    stack = np.array([[[fs.neg(1)], [0], [1]]], dtype=np.int64)
    (want,) = [
        oracles.verify_window_witness(A, power_law(fs.s), spec, 1, 0, qs, ps)
        for qs, ps in _witness_polys(spec, stack)
    ]
    assert (want.bot_exp, want.top_exp, want.window_ok, want.ineq_ok) == (0, None, True, True)
    assert dioph._window_witnesses(A, power_law(fs.s), spec, [(1, 0)], stack) == [want]


@pytest.mark.parametrize("p,e", _FIELDS, ids=lambda v: str(v))
def test_witness_polys_view_the_checked_stack(p, e, monkeypatch):
    # every witness Poly is a read-only, trimmed view of the stack whose
    # codes it equals, and the one range check of the stack still refuses
    # an out-of-range code
    fs = field_spec(p, e)
    batched, calls = _record_witness_calls(monkeypatch)
    psi = power_law(fs.s, tau=1.0)
    seen = 0
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        spec = FlowSpec(fs, m, n)
        A = sample_matrix(fs, stream(40, "test", 100 * fs.s + 10 * m + n), m, n, (m + n) * 10 + 40)
        rep = correspondence_check(A, psi, spec, T=10)
        flagged, stack = calls[-1]
        assert rep.flagged_count == len(flagged) > 0
        for row, (qs, ps) in zip([r for r in rep.rows if r.flagged], _witness_polys(spec, stack)):
            w = row.witness
            assert w.q == qs and (ps is None or w.p == ps)
            for poly in w.q + w.p:
                assert poly == Poly(fs, poly.coeffs.copy())
                assert not poly.coeffs.flags.writeable
                assert poly.coeffs.size == 0 or poly.coeffs[-1] != 0
                seen += 1
        t, R = flagged[0]
        for bad in (fs.s, -1):
            codes = stack[:1].copy()
            codes[0, -1, 0] = bad
            with pytest.raises(FieldError, match="coefficient code out of range"):
                batched(A, psi, spec, [(t, R)], codes)
    assert seen > 0


@pytest.mark.parametrize("method", ["auto", "generic"])
def test_ladder_entry_is_checked_as_the_generic_entry(method):
    # both trajectory paths, and correspondence_check on the ladder, refuse
    # an entry over another field and a matrix of the wrong shape
    a2 = series(F2, {1: 1, 2: 1, 5: 1}, prec=40)
    spec = FlowSpec(F3, 1, 1)
    with pytest.raises(FieldError, match="entry field mismatch"):
        delta_trajectory(a2, spec, 8, method=method)
    with pytest.raises(ValueError, match="A must be 1 x 1"):
        delta_trajectory([[a2, a2]], FlowSpec(F2, 1, 1), 8, method=method)
    with pytest.raises(ValueError, match="entries must lie in O"):
        delta_trajectory(series(F2, {-1: 1}), FlowSpec(F2, 1, 1), 8, method=method)


def test_correspondence_ladder_refuses_a_foreign_entry():
    a2 = series(F2, {1: 1, 2: 1, 5: 1}, prec=40)
    with pytest.raises(FieldError, match="entry field mismatch"):
        correspondence_check(a2, power_law(3), FlowSpec(F3, 1, 1), T=8)
    with pytest.raises(ValueError, match="A must be 1 x 1"):
        correspondence_check([[a2, a2]], power_law(2), FlowSpec(F2, 1, 1), T=8)


def test_correspondence_refuses_mixed_fields():
    # an entry or the spec over another field: the trajectory refuses it
    # before any residual is formed, on both paths
    a2, a3 = series(F2, {1: 1}), series(F3, {1: 1})
    with pytest.raises(FieldError):
        correspondence_check(a2, power_law(3), FlowSpec(F3, 1, 1), T=4)
    with pytest.raises(FieldError):
        correspondence_check([[a2, a3]], power_law(2), FlowSpec(F2, 1, 2), T=4)


def test_correspondence_matrix_needs_spec():
    with pytest.raises(TypeError):
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
