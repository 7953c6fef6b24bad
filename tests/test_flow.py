"""Tests for diagonal flows, the rate transform, and excursion statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ffdyn import flow
from ffdyn.errors import BracketError, CertificationError, FieldError, LatticeError
from ffdyn.field import LaurentSeries, field_spec
from ffdyn.flow import (
    DriftVector,
    FlowSpec,
    PsiLogPower,
    PsiPowerLaw,
    PsiTable,
    delta_trajectory,
    exact_rank2_tail,
    flow_apply,
    psi_to_rate,
    rate_to_psi,
    sample_matrix,
    strong_bc_experiment,
    unipotent_lattice,
    TailTable,
    _cf_ladder,
    _sawtooth_eval,
    _trial_depths,
)
from ffdyn.lattice import LatticeBasis, delta
from ffdyn.streams import stream

F2 = field_spec(2)
F3 = field_spec(3)
F5 = field_spec(5)


def series(fs, pairs, prec=None):
    return LaurentSeries.from_pairs(fs, dict(pairs), prec)


# ---------------------------------------------------------------------------
# lattice construction and the flow action


def test_unipotent_zero_matrix_is_identity():
    spec = FlowSpec(F2, 1, 1)
    basis = unipotent_lattice(LaurentSeries.zero(F2), spec)
    ident = LatticeBasis.identity(F2, 2)
    for i in range(2):
        for j in range(2):
            assert basis.entries[i][j].equals(ident.entries[i][j])
    dv = delta(basis)
    assert dv.value == 0 and dv.certified


def test_unipotent_rational_example_columns():
    spec = FlowSpec(F2, 1, 1)
    a = LaurentSeries.x_power(F2, -1)
    basis = unipotent_lattice(a, spec)
    assert basis.entries[0][0].equals(LaurentSeries.one(F2))
    assert basis.entries[1][0].equals(LaurentSeries.zero(F2))
    assert basis.entries[0][1].equals(a)
    assert basis.entries[1][1].equals(LaurentSeries.one(F2))


def test_unipotent_input_validation():
    spec = FlowSpec(F2, 1, 1)
    with pytest.raises(ValueError):
        unipotent_lattice(LaurentSeries.x_power(F2, 1), spec)  # order -1
    with pytest.raises(ValueError):
        unipotent_lattice([[LaurentSeries.zero(F2)]], FlowSpec(F2, 2, 1))
    with pytest.raises(FieldError):
        unipotent_lattice(LaurentSeries.zero(F3), spec)
    with pytest.raises(ValueError):
        FlowSpec(F2, 0, 1)


def test_delta_zero_on_integral_matrices():
    for s, fs in ((2, F2), (3, F3)):
        spec = FlowSpec(fs, 1, 1)
        for trial in range(6):
            rng = stream(99, "test", trial)
            A = sample_matrix(fs, rng, 1, 1, 12)
            dv = delta(unipotent_lattice(A, spec))
            assert dv.value == 0
            assert dv.certified


def test_flow_apply_examples():
    spec = FlowSpec(F2, 1, 1)
    z2 = LatticeBasis.identity(F2, 2)
    same = flow_apply(z2, 0, spec)
    for i in range(2):
        for j in range(2):
            assert same.entries[i][j].equals(z2.entries[i][j])
    moved = flow_apply(z2, 3, spec)
    assert delta(moved).value == 3
    z3 = LatticeBasis.identity(F2, 3)
    tilted = flow_apply(z3, DriftVector((1, -1, 0)))
    assert delta(tilted).value == 1


def test_drift_vector_validation():
    with pytest.raises(ValueError):
        DriftVector((1, 1))
    with pytest.raises(ValueError):
        flow_apply(LatticeBasis.identity(F2, 2), 1)  # no FlowSpec


def test_flow_is_a_group_action():
    a = series(F2, {1: 1, 3: 1})
    spec = FlowSpec(F2, 1, 1)
    basis = unipotent_lattice(a, spec)
    for t in (-2, 0, 1, 3):
        for u in (-1, 0, 2):
            joint = delta(flow_apply(basis, t + u, spec))
            staged = delta(flow_apply(flow_apply(basis, t, spec), u, spec))
            assert joint.value == staged.value


# ---------------------------------------------------------------------------
# rate transform


def test_rate_inverse_power_law_is_zero():
    psi = PsiPowerLaw(2, c=0.0, tau=1.0)
    rate = psi_to_rate(psi, 1, 1)
    assert rate.a0 == pytest.approx(0.0, abs=1e-12)
    for a in (0.25, 1.0, 3.0, 7.5):
        assert rate.r(a) == pytest.approx(0.0, abs=1e-10)


def test_rate_scaled_power_law_is_constant():
    for m, n in ((1, 1), (2, 1), (1, 3)):
        psi = PsiPowerLaw(2, c=3.0, tau=1.0)
        rate = psi_to_rate(psi, m, n)
        assert rate.a0 == pytest.approx(3.0 * n / (m + n), abs=1e-12)
        for a in (rate.a0, rate.a0 + 1.0, rate.a0 + 6.25):
            assert rate.r(a) == pytest.approx(3.0 / (m + n), abs=1e-10)


def test_rate_log_square_fixed_point():
    psi = PsiLogPower(2, sigma=2.0)
    rate = psi_to_rate(psi, 1, 1)
    r4 = rate.r(4.0)
    assert r4 == pytest.approx(oracles.rate_oracle(psi.llog, 4.0, 1, 1, 1.0), abs=1e-10)
    assert r4 == pytest.approx(math.log2(4.0 - r4), abs=1e-9)
    assert r4 == pytest.approx(1.386, abs=2e-3)


RATE_CASES = [
    (PsiPowerLaw(2, c=2.0, tau=1.5), 1, 1),
    (PsiPowerLaw(3, c=0.5, tau=1.0, u0=2.0), 2, 1),
    (PsiLogPower(2, sigma=1.0), 1, 2),
    (PsiLogPower(3, sigma=2.0), 1, 1),
]


@pytest.mark.parametrize("psi,m,n", RATE_CASES)
def test_rate_solver_satisfies_defining_equation(psi, m, n):
    rate = psi_to_rate(psi, m, n)
    grid = [rate.a0 + 0.5 * k for k in range(21)]
    lams = [rate.lam(a) for a in grid]
    bigs = [rate.big_l(a) for a in grid]
    for a, lam, big in zip(grid, lams, bigs):
        assert abs(psi.llog(lam) + big) < 1e-9
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(bigs, bigs[1:]))


@pytest.mark.parametrize("psi,m,n", RATE_CASES)
def test_rate_round_trip_reproduces_psi(psi, m, n):
    back = rate_to_psi(psi_to_rate(psi, m, n))
    for u in range(math.ceil(psi.u0), 41):
        assert abs(back.llog(float(u)) - psi.llog(float(u))) < 5e-9


def test_rate_domain_guard_and_bracket_error():
    psi = PsiLogPower(2, sigma=2.0)
    rate = psi_to_rate(psi, 1, 1)
    with pytest.raises(ValueError):
        rate.r(rate.a0 - 1.0)
    with pytest.raises(BracketError):
        rate.evaluator(rate.a0 - 1.0)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_rate_secant_step_matches_the_bisection(m, n):
    # the secant step, or the bisection where it misses, gives the rate of
    # the bisection alone to within 2 tol and the same ceil_eps(r) that
    # correspondence_check reads; on power laws the step is taken
    from ffdyn.dioph import _ceil_eps

    powers = ((2, 0.0, 1.0), (3, 3.0, 1.0), (2, 0.5, 2.0), (3, 1.25, 0.5), (2, 2.0, 0.0))
    psis = [PsiPowerLaw(s, c=c, tau=tau) for s, c, tau in powers]
    psis += [PsiLogPower(3, sigma=1.0), PsiLogPower(2, sigma=2.0)]
    us = [1.0 + 0.25 * k for k in range(400)]
    psis.append(PsiTable(2, [(u, psis[-1].llog(u)) for u in us]))
    tol = 1e-12
    for psi in psis:
        llog, calls = psi.llog, []
        psi.llog = lambda u, llog=llog: calls.append(u) or llog(u)
        rate = psi_to_rate(psi, m, n, tol)
        grid = [rate.a0 + 0.37 * k for k in range(40)] + [float(m * n * t) for t in range(1, 9)]
        for a in (a for a in grid if a >= rate.a0):
            calls.clear()
            r = rate.r(a)
            want = oracles.rate_bisection(llog, a, m, n, psi.u0, tol)
            assert abs(r - want) <= 2 * tol and _ceil_eps(r) == _ceil_eps(want), (psi.label, a)
            if isinstance(psi, PsiPowerLaw):
                assert len(calls) <= 3, (psi.label, a)


def test_psi_table_tracks_analytic_family():
    exact = PsiLogPower(2, sigma=2.0)
    us = [1.0 + 0.25 * k for k in range(237)]
    table = PsiTable(2, [(u, exact.llog(u)) for u in us])
    r_tab = psi_to_rate(table, 1, 1)
    r_ref = psi_to_rate(exact, 1, 1)
    for a in (3.0, 5.5, 9.0, 14.0):
        assert r_tab.r(a) == pytest.approx(r_ref.r(a), abs=2e-2)


def test_psi_family_validation_and_monotone_flags():
    with pytest.raises(ValueError):
        PsiLogPower(2, sigma=-1.0)
    with pytest.raises(ValueError):
        PsiLogPower(2, sigma=1.0, u0=0.5)
    with pytest.raises(ValueError):
        PsiTable(2, [(1.0, -1.0)])
    with pytest.raises(ValueError):
        PsiTable(2, [(1.0, -1.0), (2.0, -0.5)])  # increasing profile


def test_sum_equivalence_growth_classes():
    # the two sums of the convergence criterion, on unit log-grids with all
    # constant factors dropped (they cannot change the growth class)
    q = 1
    for sigma, divergent in ((1.0, True), (4.0, False)):
        psi = PsiLogPower(2, sigma=sigma)
        rate = psi_to_rate(psi, 1, 1)

        def lhs(U):
            return sum(u**q * psi.value(2.0**u) * 2.0**u for u in range(1, U + 1))

        def rhs(U):
            a_start = math.ceil(rate.a0)
            return sum(
                a**q * 2.0 ** (-2.0 * rate.r(float(a))) for a in range(a_start, U + 1)
            )

        lhs_ratio = lhs(100) / lhs(50)
        rhs_ratio = rhs(100) / rhs(50)
        if divergent:
            assert lhs_ratio > 1.5 and rhs_ratio > 1.5
        else:
            assert lhs_ratio < 1.1 and rhs_ratio < 1.1


# ---------------------------------------------------------------------------
# depth trajectories


def test_trajectory_zero_matrix():
    spec = FlowSpec(F2, 1, 1)
    for method in ("cf", "generic"):
        traj = delta_trajectory(LaurentSeries.zero(F2), spec, 12, method=method)
        assert np.array_equal(traj.deltas, np.arange(13))
        assert traj.certified.all()


def test_trajectory_rational_example():
    spec = FlowSpec(F2, 1, 1)
    a = LaurentSeries.x_power(F2, -1)
    for method in ("cf", "generic"):
        traj = delta_trajectory(a, spec, 10, method=method)
        assert traj.deltas[0] == 0
        assert np.array_equal(traj.deltas[1:], np.arange(1, 11) - 1)
        assert traj.certified.all()


@pytest.mark.parametrize(
    "fs",
    [F2, F3, field_spec(2, 2), field_spec(3, 2), field_spec(2, 3), field_spec(3, 3)],
)
def test_trajectory_cf_matches_generic(fs):
    spec = FlowSpec(fs, 1, 1)
    for trial in range(4):
        rng = stream(7, "test", trial)
        a = LaurentSeries(fs, 0, rng.integers(0, fs.s, size=60), 60)
        cf = delta_trajectory(a, spec, 24, method="cf")
        gen = delta_trajectory(a, spec, 24, method="generic")
        assert cf.certified.all() and gen.certified.all()
        assert np.array_equal(cf.deltas, gen.deltas)


@pytest.mark.parametrize("fs", [F2, F3, F5])
def test_trajectory_matches_bruteforce_ladder(fs):
    for trial in range(5):
        rng = stream(11, "test", trial)
        coeffs = rng.integers(0, fs.s, size=24)
        a = LaurentSeries(fs, 1, coeffs, 25)
        traj = delta_trajectory(a, FlowSpec(fs, 1, 1), 12, strict=False)
        degs = oracles.cf_denominator_degrees([0] + [int(c) for c in coeffs], fs.s)
        for t in range(13):
            if traj.certified[t]:
                assert traj.deltas[t] == oracles.sawtooth_delta(degs, t)


# the p = 2 bit-plane ladder also at e = 4, 8 and 10: more planes, and at
# e = 10 codes that do not fit in a byte
LADDER_FIELDS = [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)] + [(2, 4), (2, 8), (2, 10)]


@pytest.mark.parametrize("p,e", LADDER_FIELDS)
def test_cf_ladder_matches_euclid_oracle(p, e):
    fs = field_spec(p, e)
    for trial in range(6):
        rng = stream(12, "test", 10 * fs.s + trial)
        coeffs = rng.integers(0, fs.s, size=int(rng.integers(1, 40)))
        coeffs[rng.random(coeffs.size) < 0.2] = 0
        a = [0] + [int(c) for c in coeffs]
        D, cert, quotients = _cf_ladder(fs, coeffs, horizon=coeffs.size)
        want = oracles.cf_partial_quotients(a, p, fs.modulus)
        assert [oracles.ptrim(list(q)) for q in quotients] == want
        assert list(D) == [0, *np.cumsum([len(q) - 1 for q in want])]
        if e == 1:
            assert list(D) == oracles.cf_denominator_degrees(a, p)
        P = coeffs.size
        assert list(cert) == [True] + [D[k - 1] + D[k] <= P for k in range(1, D.size)]


@pytest.mark.parametrize("p,e", LADDER_FIELDS)
def test_cf_ladder_horizon_is_a_prefix_of_the_full_ladder(p, e):
    fs = field_spec(p, e)
    rng = stream(15, "test", 10 * fs.s + e)
    cases = []
    for _ in range(4):
        coeffs = rng.integers(0, fs.s, size=int(rng.integers(1, 48)))
        coeffs[rng.random(coeffs.size) < 0.2] = 0
        cases.append(coeffs)
    cases.append(np.zeros(12, dtype=np.int64))
    # N = X^25 M with deg M <= 4: the Euclid ends by rung 5, before the
    # horizons 10 and 15 below
    finite = np.zeros(30, dtype=np.int64)
    finite[:5] = rng.integers(1, fs.s, size=5)
    cases.append(finite)
    # long inputs whose first quotient has a high degree
    cases += _long_inputs(rng, fs.s)
    for coeffs in cases:
        P = coeffs.size
        full_D, full_cert, full_q = _cf_ladder(fs, coeffs, horizon=P)
        full_q = [[int(c) for c in q] for q in full_q]
        if coeffs is finite:
            assert full_D[-1] <= 5
        for horizon in sorted({0, 1, P // 3, P // 2, P - 1, P, P + 5}):
            D, cert, quotients = _cf_ladder(fs, coeffs, horizon)
            past = np.nonzero(full_D > horizon)[0]
            n = int(past[0]) + 1 if past.size else full_D.size
            assert D.tolist() == full_D[:n].tolist()
            assert cert.tolist() == full_cert[:n].tolist()
            assert [[int(c) for c in q] for q in quotients] == full_q[: n - 1]
            ts = np.arange(0, horizon + 1, dtype=np.int64)
            for exact in (False, True):
                got = _sawtooth_eval(D, cert, ts, P, exact)
                want = _sawtooth_eval(full_D, full_cert, ts, P, exact)
                assert got[0].tolist() == want[0].tolist()
                assert got[1].tolist() == want[1].tolist()


def _long_inputs(rng, s: int) -> list[np.ndarray]:
    """Coefficient arrays of 300 and more entries, with runs of leading zeros
    (so the first quotient has that degree plus one) and one run inside."""
    out = []
    for P, zeros in ((300, 0), (300, 131), (517, 9)):
        coeffs = rng.integers(0, s, size=P)
        coeffs[:zeros] = 0
        coeffs[P // 2 : P // 2 + 23] = 0
        out.append(coeffs)
    return out


def _plane_fields(p2_degrees, p3_degrees):
    """(p, e) parameters, the p = 2 ones named by e alone and the p = 3 ones
    as p3-e."""
    return [pytest.param(2, e, id=str(e)) for e in p2_degrees] + [
        pytest.param(3, e, id=f"p3-{e}") for e in p3_degrees
    ]


@pytest.mark.parametrize("p,e", _plane_fields((1, 2, 3, 4, 8, 10), (1, 2, 3)))
def test_cf_ladder_on_long_inputs_matches_array_euclid(p, e):
    fs = field_spec(p, e)
    rng = stream(13, "test", e if p == 2 else 100 + e)
    # at s = 3 and 9 also an input of 2000 coefficients, above the
    # ext-field workload's precision
    cases = [rng.integers(0, fs.s, size=2000)] if fs.s in (3, 9) else []
    for coeffs in cases + _long_inputs(rng, fs.s):
        P = coeffs.size
        degs, want = oracles.cf_ladder_arrays(fs, coeffs)
        D, cert, quotients = _cf_ladder(fs, coeffs, horizon=P)
        assert [list(q) for q in quotients] == want
        assert D.tolist() == [0, *(P - d for d in degs)]
        assert cert.tolist() == [True] + [D[k - 1] + D[k] <= P for k in range(1, D.size)]
    assert len(want[0]) > 9  # the leading zeros made a long first quotient


@pytest.mark.parametrize("p,e", _plane_fields((3, 4), (2, 3)))
def test_plane_ladder_raises_when_a_step_keeps_the_degree(p, e, monkeypatch):
    # with each code's matrix transposed a step multiplies r1 by the wrong
    # matrix, which leaves r0's leading term in place; unchecked, the
    # ladder would then repeat that step forever.  An entry names in-digit
    # i as the plane i over p = 2 and as a pair of planes 2i, 2i + 1 over
    # p = 3, in the order that carries the entry's sign.
    log, antilog, rows = flow._plane_tables(p, e)

    def digit(entry):
        return entry if p == 2 else entry[0] // 2

    def moved(entry, j):
        return j if p == 2 else (2 * j, 2 * j + 1) if entry[0] % 2 == 0 else (2 * j + 1, 2 * j)

    transposed = tuple(
        tuple(tuple(moved(x, j) for j in range(e) for x in m[j] if digit(x) == i) for i in range(e))
        for m in rows[1:]
    )
    assert transposed != rows[1:]
    monkeypatch.setattr(flow, "_plane_tables", lambda p, e: (log, antilog, ((),) + transposed))
    coeffs = stream(16, "test", e if p == 2 else 30 + e).integers(0, p**e, size=40)
    with pytest.raises(LatticeError, match="did not lower"):
        _cf_ladder(field_spec(p, e), coeffs, horizon=coeffs.size)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    coeffs=st.lists(st.integers(0, 4), min_size=0, max_size=16),
)
def test_trajectory_exact_rational_matches_ladder(p, coeffs):
    fs = field_spec(p)
    pairs = {i + 1: c % p for i, c in enumerate(coeffs) if c % p}
    a = series(fs, pairs)
    traj = delta_trajectory(a, FlowSpec(fs, 1, 1), 20)
    assert traj.certified.all()
    degs = oracles.cf_denominator_degrees(
        [0] + [(coeffs[i] % p) if i < len(coeffs) else 0 for i in range(len(coeffs))],
        p,
    )
    for t in range(21):
        assert traj.deltas[t] == oracles.sawtooth_delta(degs, t)


def test_trajectory_lipschitz_bound():
    spec = FlowSpec(F2, 1, 1)
    for trial in range(4):
        rng = stream(13, "test", trial)
        a = LaurentSeries(F2, 0, rng.integers(0, 2, size=80), 80)
        traj = delta_trajectory(a, spec, 32)
        assert traj.deltas[0] == 0
        assert np.abs(np.diff(traj.deltas)).max() <= 1
    spec21 = FlowSpec(F3, 2, 1)
    rng = stream(14, "test", 0)
    A = sample_matrix(F3, rng, 2, 1, 60)
    traj = delta_trajectory(A, spec21, 10)
    assert np.abs(np.diff(traj.deltas)).max() <= 2


def test_trajectory_fully_certified_at_ample_precision():
    # certifying t needs ladder rungs with D_k + D_{k+1} <= P, about 2t plus
    # a gap margin; 96 known coefficients cover T = 32 with room to spare
    spec = FlowSpec(F2, 1, 1)
    for trial in range(6):
        rng = stream(15, "test", trial)
        a = LaurentSeries(F2, 0, rng.integers(0, 2, size=96), 96)
        traj = delta_trajectory(a, spec, 32)
        assert traj.certified.all()


def test_trajectory_insufficient_precision_reports_need():
    spec = FlowSpec(F2, 1, 1)
    rng = stream(16, "test", 0)
    bits = rng.integers(0, 2, size=256)
    short = LaurentSeries(F2, 0, bits[:8], 8)
    with pytest.raises(CertificationError) as err:
        delta_trajectory(short, spec, 16)
    prec = 8
    need = err.value.needed_precision
    traj = None
    for _ in range(6):
        assert need is not None and need > prec
        prec = need
        try:
            traj = delta_trajectory(LaurentSeries(F2, 0, bits[:prec], prec), spec, 16)
            break
        except CertificationError as again:
            need = again.needed_precision
    assert traj is not None, "precision iteration did not converge"
    assert traj.certified.all()


def test_ladder_need_past_the_last_rung_is_twice_the_time():
    # A = X^-1 known to window N has the rungs D = 0, 1 and none past them,
    # so t is certified exactly when 2t <= N, and T = 10 needs N = 20
    spec = FlowSpec(F2, 1, 1)
    for N in (6, 9, 19):
        with pytest.raises(CertificationError) as err:
            delta_trajectory(LaurentSeries(F2, 1, [1], N), spec, 10)
        assert err.value.needed_precision == 20
        traj = delta_trajectory(LaurentSeries(F2, 1, [1], N), spec, 10, strict=False)
        assert traj.certified.tolist() == [2 * t <= N for t in range(11)]
    assert delta_trajectory(LaurentSeries(F2, 1, [1], 20), spec, 10).certified.all()


@settings(max_examples=100, deadline=None)
@given(e=st.sampled_from([1, 2]), data=st.data())
def test_ladder_depths_hold_when_the_window_grows(e, data):
    # over F_3 and F_9: a certified depth is the one every longer window
    # gives, whatever it is filled with; a rerun at the reported need
    # certifies or asks for more
    fs = field_spec(3, e)
    spec = FlowSpec(fs, 1, 1)
    digits = st.integers(0, fs.s - 1)
    known = data.draw(st.lists(digits, min_size=1, max_size=40))
    T = data.draw(st.integers(0, 2 * len(known) + 4))
    traj = delta_trajectory(LaurentSeries(fs, 1, known, len(known) + 1), spec, T, strict=False)
    width = data.draw(st.integers(1, 40))
    drawn = data.draw(st.lists(digits, min_size=width, max_size=width))
    for tail in (drawn, [0] * width, [fs.s - 1] * width):
        longer = known + tail
        ext = delta_trajectory(LaurentSeries(fs, 1, longer, len(longer) + 1), spec, T, strict=False)
        assert ext.deltas[traj.certified].tolist() == traj.deltas[traj.certified].tolist()
    need = traj.meta["needed_precision"]
    if need is None:
        assert traj.certified.all()
        return
    assert need > len(known) + 1
    fill = need - 1 - len(known)
    more = known + data.draw(st.lists(digits, min_size=fill, max_size=fill))
    try:
        delta_trajectory(LaurentSeries(fs, 1, more, need), spec, T)
    except CertificationError as err:
        assert err.needed_precision > need


def test_trajectory_generic_multirow_matches_static_reduction():
    spec = FlowSpec(F2, 2, 1)
    A = [[series(F2, {1: 1, 2: 1})], [LaurentSeries.x_power(F2, -3)]]
    traj = delta_trajectory(A, spec, 8)
    assert traj.certified.all()
    basis = unipotent_lattice(A, spec)
    for t in range(9):
        dv = delta(flow_apply(basis, t, spec))
        assert dv.certified
        assert traj.deltas[t] == dv.value
    assert np.abs(np.diff(traj.deltas)).max() <= 2


@pytest.mark.parametrize(
    "p,e", [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)] + [(1031, 1), (2, 11)]
)
def test_trajectory_engine_matches_full_width_reference(p, e, monkeypatch):
    # every t of the engine, before and after its reduction, against the
    # np.roll shift, per-column pivot scans and full-width transforms; the
    # last two fields are past the lookup-table bound.  Over p <= 3 the
    # engine's state is on digit planes, read through the oracle's decoding
    fs = field_spec(p, e)
    real = flow._reduce_packed
    seen = []

    def recording(fs_, WU, degrees, pivots, udegrees):
        assert isinstance(WU, flow._PlaneWU) == (p <= 3)
        shifted = (oracles.plane_state_array(fs_, WU), list(degrees), list(pivots))
        steps = real(fs_, WU, degrees, pivots, udegrees)
        after = oracles.plane_state_array(fs_, WU)
        seen.append((*shifted, after, list(degrees), list(pivots), steps))
        assert udegrees == oracles.column_degrees(after[len(udegrees) :])
        return steps

    monkeypatch.setattr(flow, "_reduce_packed", recording)
    T = 10
    total = 0
    for m, n in ((1, 2), (2, 1), (2, 2)):
        r = m + n
        spec = FlowSpec(fs, m, n)
        A = sample_matrix(fs, stream(17, "test", 100 * fs.s + 10 * m + n), m, n, (m + n) * T)
        seen.clear()
        depths = [d for d, _, _ in flow._trajectory_generic(spec, A, T)]
        basis = unipotent_lattice(A, spec)
        M = max(basis.scaling_exponent(), m * T)
        L = M + n * T + 1
        # the engine's W is rows :r of its augmented array up to L, zero past it
        for got in seen:
            assert not got[0][:r, :, L:].any() and not got[3][:r, :, L:].any()
        W = np.zeros((r, r, L), dtype=np.int64)
        W[:, :, : M + 1] = basis.packed(scale=M)[1]
        assert np.array_equal(W, seen[0][0][:r, :, :L])
        U = np.zeros_like(seen[0][0][r:])
        U[:, :, 0] = np.eye(r, dtype=np.int64)
        want = oracles.flow_reduction_reference(fs, W, U, m, n, T)
        assert len(seen) == len(want) == T + 1
        for t, (got, ref) in enumerate(zip(seen, want)):
            assert got[1] == ref[0].tolist() and got[2] == ref[1].tolist()
            WU = got[3]
            for a, b in zip((WU[:r, :, :L], WU[r:], *got[4:]), ref[2:]):
                assert np.array_equal(a, b), (m, n, t)
            assert depths[t] == M - int(ref[4].min())
        total += sum(ref[-1] for ref in want)
    assert total > 0


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    e=st.integers(1, 3),
    shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    T=st.integers(0, 10),
    data=st.data(),
)
def test_engine_yields_the_same_steps_on_both_cores(p, e, shape, T, data):
    # the engine over p <= 3 on digit planes and on the array core gives the
    # same (depth, needed, column) at every t, exact and truncated inputs
    fs = field_spec(p, e)
    m, n = shape
    spec = FlowSpec(fs, m, n)
    size = data.draw(st.integers(0, (m + n) * T + 8))
    truncated = data.draw(st.booleans())

    def entry():
        coeffs = data.draw(st.lists(st.integers(0, fs.s - 1), min_size=size, max_size=size))
        return LaurentSeries(fs, 1, coeffs, size + 1 if truncated else None)

    A = [[entry() for _ in range(n)] for _ in range(m)]
    planes = list(flow._trajectory_generic(spec, A, T))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_PLANE_PRIMES", ())
        arrays = list(flow._trajectory_generic(spec, A, T))
    assert len(planes) == len(arrays) == T + 1
    for (d, need, col), (d_a, need_a, col_a) in zip(planes, arrays):
        assert isinstance(col, flow._PlaneColumn) and isinstance(col_a, np.ndarray)
        assert (d, need) == (d_a, need_a)
        col = flow._column_stack(fs, [col])[0]
        assert col.dtype == col_a.dtype and np.array_equal(col, col_a)
    # all columns decoded at once, padded to the longest, are the same too
    stacked = [flow._column_stack(fs, [c for _, _, c in steps]) for steps in (planes, arrays)]
    assert stacked[0].dtype == stacked[1].dtype and np.array_equal(*stacked)


def test_trajectory_method_validation():
    spec21 = FlowSpec(F2, 2, 1)
    zero = LaurentSeries.zero(F2)
    with pytest.raises(ValueError):
        delta_trajectory([[zero], [zero]], spec21, 4, method="cf")
    with pytest.raises(ValueError):
        delta_trajectory(zero, FlowSpec(F2, 1, 1), 4, method="newton")


# ---------------------------------------------------------------------------
# tail table


def test_exact_rank2_tail_matches_vertex_masses():
    for s in (2, 3, 4):
        table = exact_rank2_tail(s, n_max=8)
        for n in range(9):
            assert table.values[n] == oracles.even_vertex_tail(s, n)


def test_trial_depths_read_the_trajectory_of_the_drawn_matrix():
    # both paths agree with delta_trajectory on the matrix the same stream
    # gives; the ladder path reads its draws as the coefficients a_1..a_P
    ts = np.array([2, 5, 11], dtype=np.int64)
    for fs in (F2, field_spec(3)):
        for m, n in ((1, 1), (1, 2), (2, 1)):
            spec = FlowSpec(fs, m, n)
            deltas, certified, needed = _trial_depths(spec, stream(9, "test", m), 48, ts)
            rng = stream(9, "test", m)
            if m == n == 1:
                A = LaurentSeries(fs, 1, rng.integers(0, fs.s, size=48), 49)
            else:
                A = sample_matrix(fs, rng, m, n, 48)
            traj = delta_trajectory(A, spec, 11, strict=False)
            assert deltas.tolist() == traj.deltas[ts].tolist(), (fs, m, n)
            assert certified.tolist() == traj.certified[ts].tolist(), (fs, m, n)
            assert certified.all() and needed is None


def test_tail_table_validation():
    with pytest.raises(ValueError):
        TailTable(2, [0, 1], [0.5, 0.7])
    with pytest.raises(ValueError):
        TailTable(2, [0], [1.5])
    table = exact_rank2_tail(2)
    with pytest.raises(ValueError):
        table.phi(99)


# ---------------------------------------------------------------------------
# Borel-Cantelli experiments


def test_strong_bc_zero_ladder_ratio_is_one():
    spec = FlowSpec(F2, 1, 1)
    res = strong_bc_experiment(spec, np.zeros(64), trials=8, seed=5)
    assert res.divergent
    assert np.all(res.ratios == 1.0)


def test_strong_bc_divergent_ladder_band():
    spec = FlowSpec(F2, 1, 1)
    T = 4096
    ladder = [math.log2(t) / 2.0 for t in range(1, T + 1)]
    res = strong_bc_experiment(spec, ladder, trials=48, seed=20240818)
    assert res.divergent
    assert res.expected[-1] == pytest.approx(10.0, abs=1e-9)
    median = res.final_ratio_quantiles()[0.5]
    assert 0.5 <= median <= 1.5
    summary = res.summary()
    assert summary["divergent"] and "ratio_quantiles" in summary


def test_strong_bc_convergent_ladder_reports_raw_counts():
    spec = FlowSpec(F2, 1, 1)
    res = strong_bc_experiment(spec, np.arange(1, 65), trials=24, seed=6)
    assert not res.divergent
    assert res.ratios is None
    with pytest.raises(ValueError):
        res.final_ratio_quantiles()
    summary = res.summary()
    assert summary["final_counts"]["median"] <= 2


def test_strong_bc_reproducible_across_threads(monkeypatch):
    # lift the CPU cap so that threads = 3 forks two children on any host
    monkeypatch.setattr("ffdyn.streams._usable_cpus", lambda: 3)
    spec = FlowSpec(F2, 1, 1)
    ladder = np.full(128, 2)
    a = strong_bc_experiment(spec, ladder, trials=12, seed=77, threads=1)
    for threads in (2, 3):
        b = strong_bc_experiment(spec, ladder, trials=12, seed=77, threads=threads)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.expected, b.expected)


def test_strong_bc_uncertified_trial_raises_the_same_error_when_sharded(monkeypatch):
    # at this precision trial 4 is the first uncertified one, so with two
    # or three workers the error comes from a forked shard
    monkeypatch.setattr("ffdyn.streams._usable_cpus", lambda: 3)
    spec = FlowSpec(F2, 1, 1)
    ladder = np.full(64, 2)
    errors = []
    for threads in (1, 2, 3):
        with pytest.raises(CertificationError) as err:
            strong_bc_experiment(
                spec, ladder, trials=6, seed=4, burn_in=4, precision=138, threads=threads
            )
        errors.append((str(err.value), err.value.needed_precision))
    assert errors[0][0].startswith("trial 4 uncertified at t = ")
    # the need read off the ladder: its window need less one, since a trial
    # draws a_1..a_precision; a lower bound, as at 139 the next rung moves
    # and the ladder asks for 140
    assert errors[0][0].endswith("raise the precision to at least 139")
    assert errors[0][1] == 139
    with pytest.raises(CertificationError) as err:
        strong_bc_experiment(spec, ladder, trials=6, seed=4, burn_in=4, precision=139)
    assert err.value.needed_precision == 140
    assert errors[1] == errors[0] and errors[2] == errors[0]


@pytest.mark.parametrize("e", [2, 3])
def test_strong_bc_counts_match_the_euclid_oracle(e):
    # F_4 and F_8: each trial's coefficients, read from the same stream,
    # give the rungs by literal Euclid and the hits by the sawtooth
    fs = field_spec(2, e)
    spec = FlowSpec(fs, 1, 1)
    T, burn_in, precision, seed = 24, 4, 72, 31
    thr = np.array([1 + (t % 3 == 0) for t in range(1, T + 1)])
    res = strong_bc_experiment(
        spec, thr, trials=6, seed=seed, burn_in=burn_in, precision=precision, checkpoints=8
    )
    for trial in range(6):
        a = [0] + stream(seed, "strong-bc", trial).integers(0, fs.s, size=precision).tolist()
        quotients = oracles.cf_partial_quotients(a, 2, fs.modulus)
        degs = [0, *np.cumsum([len(q) - 1 for q in quotients]).tolist()]
        hits = np.array(
            [oracles.sawtooth_delta(degs, t + burn_in) >= thr[t - 1] for t in range(1, T + 1)]
        )
        counts = np.cumsum(hits)[res.checkpoints - 1]
        assert res.counts[trial].tolist() == counts.tolist(), trial
    assert res.counts[:, -1].max() > 0


def test_strong_bc_needs_table_for_bigger_blocks():
    with pytest.raises(ValueError):
        strong_bc_experiment(FlowSpec(F2, 2, 1), np.ones(8), trials=2, seed=1)
