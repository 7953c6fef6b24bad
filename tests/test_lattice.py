"""Weak Popov reduction, depth and short-vector enumeration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ffdyn import lattice
from ffdyn.errors import CertificationError, EnumerationCapError, LatticeError
from ffdyn.field import LaurentSeries, field_spec, parse_series
from ffdyn.lattice import (
    LatticeBasis,
    delta,
    enumerate_short_vectors,
    successive_minima,
    weak_popov,
)

F2 = field_spec(2)
F3 = field_spec(3)


def basis_from_text(fs, rows):
    return LatticeBasis(fs, [[parse_series(fs, t) for t in row] for row in rows])


def diag_basis(fs, exps):
    r = len(exps)
    zero = LaurentSeries.zero(fs)
    return LatticeBasis(
        fs,
        [
            [LaurentSeries.x_power(fs, exps[i]) if i == j else zero for j in range(r)]
            for i in range(r)
        ],
    )


# ---------------------------------------------------------------------------
# construction


def test_rejects_bad_shapes():
    with pytest.raises(LatticeError):
        LatticeBasis(F2, [[LaurentSeries.one(F2)], [LaurentSeries.one(F2)]])
    with pytest.raises(LatticeError):
        LatticeBasis(
            F2,
            [
                [LaurentSeries.one(F2), LaurentSeries.zero(F2)],
                [LaurentSeries.one(F2), LaurentSeries.zero(F2)],
            ],
        )


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)])
def test_windowed_reduction_matches_full_width_reference(p, e, monkeypatch):
    # over p <= 3 the state is the digit-plane core's, read through the
    # oracle's decoding of it
    fs = field_spec(p, e)
    rng = np.random.default_rng(100 * p + e)
    real = lattice._simple_transform
    kinds = set()

    def checked(*args):
        real(*args)
        WU, udegrees = oracles.plane_state_array(fs, args[1]), args[4]
        assert udegrees == oracles.column_degrees(WU[len(udegrees) :])
        kinds.add(type(args[1]))

    monkeypatch.setattr(lattice, "_simple_transform", checked)
    total = 0
    for trial in range(12):
        r = 2 + trial % 3
        W = rng.integers(0, fs.s, size=(r, r, 8))
        # ragged entry degrees, some entries zero
        W[np.arange(8) > rng.integers(-1, 8, size=(r, r, 1))] = 0
        W[0, :, 0] = np.maximum(W[0, :, 0], 1)
        degrees = np.empty(r, dtype=np.int64)
        pivots = np.empty(r, dtype=np.int64)
        for j in range(r):
            degrees[j], pivots[j] = oracles.packed_pivot(W[:, j, :])
        WU, Wv, U = lattice._augmented(W, 8, 2 * int(degrees.sum()) + 9)
        assert np.array_equal(Wv, W) and not WU[:r, :, 8:].any()
        ref = [a.copy() for a in (W, U, degrees, pivots)]
        state = (degrees.tolist(), pivots.tolist(), [0] * r)
        core = lattice._PlaneWU(fs, WU, 8) if p <= 3 else WU
        try:
            steps = oracles.reduce_packed_full_width(fs, *ref)
        except ValueError:
            with pytest.raises(LatticeError):
                lattice._reduce_packed(fs, core, *state)
            continue
        assert lattice._reduce_packed(fs, core, *state) == steps
        WU = oracles.plane_state_array(fs, core)
        Wv, U = WU[:r, :, :8], WU[r:]
        for got, want in zip((Wv, U, *state[:2]), ref):
            assert np.array_equal(got, want)
        # W's rows stay zero past its length
        assert not WU[:r, :, 8:].any()
        assert state[2] == oracles.column_degrees(U)
        total += steps
    assert total > 0
    assert kinds == {lattice._PlaneWU if p <= 3 else np.ndarray}


def _ragged_basis(fs, rng, r):
    W = rng.integers(0, fs.s, size=(r, r, 8))
    W[np.arange(8) > rng.integers(-1, 8, size=(r, r, 1))] = 0
    W[0, :, 0] = np.maximum(W[0, :, 0], 1)
    return W


def _run_core(fs, WU, L, state, planar, trace):
    """Reduce one augmented array, W of length L, on the array or the plane
    core; returns (steps or the LatticeError's message, per-step states,
    final state)."""
    core = lattice._PlaneWU(fs, WU, L) if planar else WU
    if planar:
        assert np.array_equal(oracles.plane_state_array(fs, core), WU)
    trace.clear()
    try:
        steps = lattice._reduce_packed(fs, core, *state)
    except LatticeError as err:
        steps = str(err)
    return steps, list(trace), (oracles.plane_state_array(fs, core), *state)


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3) for e in (1, 2, 3)])
def test_plane_core_matches_the_array_core_step_by_step(p, e, monkeypatch):
    # ragged bases as in the windowed test, and flowed unipotent bases that
    # take many steps, reduced on both storages: after every simple
    # transform both hold the same W, U, degrees, pivots and U degrees, and
    # both end where the full-width reference does
    from ffdyn.flow import FlowSpec, flow_apply, sample_matrix, unipotent_lattice

    fs = field_spec(p, e)
    rng = np.random.default_rng(300 + 10 * p + e)
    bases = [_ragged_basis(fs, rng, 2 + trial % 3) for trial in range(16)]
    bases[5][:, 1] = fs.scale_arr(fs.s - 1, bases[5][:, 0])  # dependent columns
    for m, n, t in ((2, 2, 6), (1, 2, 12), (2, 1, 9)):
        spec = FlowSpec(fs, m, n)
        A = sample_matrix(fs, rng, m, n, 32)
        bases.append(flow_apply(unipotent_lattice(A, spec), t, spec).packed()[1])
    real = lattice._simple_transform
    trace = []

    def spy(*args):
        real(*args)
        trace.append((oracles.plane_state_array(fs, args[1]), *(list(a) for a in args[2:5])))

    monkeypatch.setattr(lattice, "_simple_transform", spy)
    total = 0
    for W in bases:
        r, L = W.shape[1:]
        found = [oracles.packed_pivot(W[:, j, :]) for j in range(r)]
        runs = []
        for planar in (False, True):
            WU = lattice._augmented(W, L, L + 2 * sum(d for d, _ in found) + 1)[0]
            state = ([d for d, _ in found], [q for _, q in found], [0] * r)
            runs.append(_run_core(fs, WU, L, state, planar, trace))
        (steps, trace_a, end_a), (steps_b, trace_b, end_b) = runs
        assert steps == steps_b and len(trace_a) == len(trace_b)
        for a, b in zip(trace_a + [end_a], trace_b + [end_b]):
            assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]
        ref = [W.copy(), np.zeros_like(end_a[0][r:]), *(np.array(x) for x in zip(*found))]
        ref[1][:, :, 0] = np.eye(r, dtype=np.int64)
        try:
            want = oracles.reduce_packed_full_width(fs, *ref)
        except ValueError:
            assert steps == "columns are linearly dependent"
            continue
        assert steps == want and len(trace_a) == steps
        assert np.array_equal(end_a[0][:r, :, :L], ref[0]) and np.array_equal(end_a[0][r:], ref[1])
        assert end_a[1:3] == (ref[2].tolist(), ref[3].tolist())
        total += steps
    assert total > 100


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3) for e in (1, 2, 3)])
def test_both_cores_raise_on_dependent_columns_and_overflow(p, e):
    # a zero column and an overflowing transform raise before any change;
    # columns that a step makes dependent raise after it, with the same
    # state on both cores
    fs = field_spec(p, e)
    c = fs.s - 1
    zero = np.zeros((2, 2, 8), dtype=np.int64)
    zero[0, 0, 0] = zero[1, 0, 2] = c
    # (1, 0) and (X, 1) collide in row 0 with shift 1, and the kept column's
    # transform (1, X) would need degree 2 in two coefficients
    room = np.zeros((2, 2, 2), dtype=np.int64)
    room[0, 0, 0] = c
    room[0, 1, 1] = room[1, 1, 0] = 1
    # (1, X) and c X (1, X): the step clears the second column
    dependent = np.zeros((2, 2, 8), dtype=np.int64)
    dependent[0, 0, 0] = dependent[1, 0, 1] = 1
    dependent[0, 1, 1] = dependent[1, 1, 2] = c
    cases = [
        (zero, 9, ([2, -1], [1, -1], [0, 0]), "linearly dependent", True),
        (room, 2, ([0, 1], [0, 0], [1, 0]), "transform buffer overflow", True),
        (dependent, 9, ([1, 2], [1, 1], [0, 0]), "linearly dependent", False),
    ]
    for W, ulen, state, message, unchanged in cases:
        ends = []
        for planar in (False, True):
            WU = lattice._augmented(W, W.shape[2], ulen)[0]
            if ulen == 2:
                WU[3, 0, 1] = 1  # U's column 0 is (1, X)
            before = WU.copy()
            args = tuple(list(x) for x in state)
            steps, _, end = _run_core(fs, WU, W.shape[2], args, planar, [])
            assert message in steps
            if unchanged:
                assert np.array_equal(end[0], before) and end[1:] == args == state
            ends.append(end)
        assert np.array_equal(ends[0][0], ends[1][0]) and ends[0][1:] == ends[1][1:]


def _clashing_basis(fs, rng, r):
    """A basis [r, r, 6] whose column j leads at a drawn degree in a row
    drawn from 0..r // 2, so that several pivot rows hold two or more
    columns at once."""
    W = rng.integers(0, fs.s, size=(r, r, 6))
    for j in range(r):
        row, d = int(rng.integers(0, r // 2 + 1)), int(rng.integers(2, 6))
        W[:row, j, d:] = 0
        W[row:, j, d + 1 :] = 0
        W[row, j, d] = rng.integers(1, fs.s)
    return W


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)])
def test_clash_map_follows_the_reference_order(p, e, monkeypatch):
    # _reduce_packed's clash map picks the (keep, red) that the full-width
    # reference's rescan picks, on both storages, through states where
    # several pivot rows clash at once and steps that move red into a
    # row already holding two columns
    fs = field_spec(p, e)
    rng = np.random.default_rng(500 + 10 * p + e)
    real = lattice._simple_transform
    moves = []

    def spy(fs_, WU, degrees, pivots, udegrees, keep, red):
        rows = [pivots.count(q) for q in range(len(pivots))]
        real(fs_, WU, degrees, pivots, udegrees, keep, red)
        moves.append((keep, red, sum(n > 1 for n in rows), pivots.count(pivots[red]) - 1))

    monkeypatch.setattr(lattice, "_simple_transform", spy)
    several = crowded = 0
    for trial in range(24):
        r = 4 + trial % 2
        W = _clashing_basis(fs, rng, r)
        found = [oracles.packed_pivot(W[:, j, :]) for j in range(r)]
        ref = [W.copy(), np.zeros((r, r, 64), dtype=np.int64), *(np.array(x) for x in zip(*found))]
        ref[1][:, :, 0] = np.eye(r, dtype=np.int64)
        order = []
        try:
            want = oracles.reduce_packed_full_width(fs, *ref, trace=order)
        except ValueError:
            want = "columns are linearly dependent"
        for planar in (False, True)[: 2 if p <= 3 else 1]:
            WU = lattice._augmented(W, 6, 64)[0]
            state = ([d for d, _ in found], [q for _, q in found], [0] * r)
            moves.clear()
            steps, _, end = _run_core(fs, WU, 6, state, planar, [])
            assert steps == want and [m[:2] for m in moves] == order, (planar, trial)
            if isinstance(want, int):
                assert np.array_equal(end[0][:r, :, :6], ref[0]) and end[2] == ref[3].tolist()
            several += sum(m[2] > 1 for m in moves)
            crowded += sum(m[3] > 1 for m in moves)
    assert several and crowded


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)])
def test_step_cap_raises_before_the_dependence_it_reaches(p, e):
    # (1, X) and c X (1, X): the one step clears the second column; under a
    # cap of 0 steps that step is already one too many.  A zero column is
    # refused on entry, before the cap is ever read
    fs = field_spec(p, e)
    c = fs.s - 1
    W = np.zeros((2, 2, 3), dtype=np.int64)
    W[0, 0, 0] = W[1, 0, 1] = 1
    W[0, 1, 1] = W[1, 1, 2] = c
    for planar in (False, True)[: 2 if p <= 3 else 1]:
        cases = ((0, "did not terminate"), (1, "linearly dependent"), (None, "linearly dependent"))
        for cap, message in cases:
            WU = lattice._augmented(W, 3, 9)[0]
            core = lattice._PlaneWU(fs, WU, 3) if planar else WU
            with pytest.raises(LatticeError, match=message):
                lattice._reduce_packed(fs, core, [1, 2], [1, 1], [0, 0], cap)
        WU = lattice._augmented(np.zeros_like(W), 3, 9)[0]
        core = lattice._PlaneWU(fs, WU, 3) if planar else WU
        with pytest.raises(LatticeError, match="linearly dependent"):
            lattice._reduce_packed(fs, core, [-1, -1], [-1, -1], [0, 0], 0)


def test_column_pivots_match_the_pivot_scan():
    rng = np.random.default_rng(31)
    for trial in range(60):
        r, c, L = (int(x) for x in rng.integers(1, 6, size=3))
        W = rng.integers(0, 5, size=(r, c, L))
        W[rng.random(W.shape) < 0.5] = 0
        W[:, int(rng.integers(c))] = 0  # a zero column
        if trial % 2:
            W[:, :, -1] = 0  # no column reaches the last slice
        degrees, pivots = lattice._column_pivots(W)
        assert degrees.dtype == pivots.dtype == np.int64
        want = [oracles.packed_pivot(W[:, j, :]) for j in range(c)]
        assert list(zip(degrees.tolist(), pivots.tolist())) == want
        assert [lattice._pivot_of(W[:, j, :]) for j in range(c)] == want


def test_transform_buffer_overflow_raises():
    # columns (1, 0) and (X, 1) collide in row 0 with shift e = 1; the kept
    # column's transform (1, X) has degree 1, so the reduced one would need
    # degree 2, which a buffer two coefficients wide cannot hold
    W = np.zeros((2, 2, 2), dtype=np.int64)
    W[0, 0, 0] = 1
    W[0, 1, 1] = W[1, 1, 0] = 1
    WU, _, U = lattice._augmented(W, 2, 2)
    U[1, 0, 1] = 1
    before = WU.copy()
    with pytest.raises(LatticeError, match="transform buffer overflow"):
        lattice._reduce_packed(F2, WU, [0, 1], [0, 0], [1, 0])
    assert np.array_equal(WU, before)


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)])
def test_transform_room_bounds_both_reducers(p, e, monkeypatch):
    # every simple transform's new U degree (top) fits the Cramer room, in
    # weak_popov from the basis's own degrees and in the flow engine from
    # det(X^M g_t u_A) = X^(rM), where the room is r n T + 1; at about
    # (m + n) T / 2 known coefficients that room is longer than W at
    # (1, 2) and (2, 2), so there it sets WU's length
    from ffdyn.flow import FlowSpec, _trajectory_generic, flow_apply, sample_matrix
    from ffdyn.flow import unipotent_lattice

    fs = field_spec(p, e)
    rng = np.random.default_rng(10 * p + e)
    seen = []
    real = lattice._simple_transform

    def spy(fs_, WU, degrees, pivots, udegrees, keep, red):
        seen.append((udegrees[keep] + degrees[red] - degrees[keep], WU.shape[2]))
        kinds.add(type(WU))
        real(fs_, WU, degrees, pivots, udegrees, keep, red)

    kinds = set()

    monkeypatch.setattr(lattice, "_simple_transform", spy)
    T = 12
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        spec = FlowSpec(fs, m, n)
        r = m + n
        A = sample_matrix(fs, rng, m, n, r * T // 2 + 8)
        basis = unipotent_lattice(A, spec)
        for t in (T // 4, T // 2, T):
            flowed = flow_apply(basis, t, spec)
            M, W0 = flowed.packed()
            d = lattice._column_pivots(W0)[0].tolist()
            room = sum(d) - min(d) + max(d) + 1
            assert lattice._transform_room(d, 0) == room
            seen.clear()
            kinds.clear()
            weak_popov(flowed)
            assert seen and max(top for top, _ in seen) < room, (fs, m, n, t)
            assert {ulen for _, ulen in seen} == {max(W0.shape[2], room)}
            assert kinds == {np.ndarray}
        seen.clear()
        kinds.clear()
        list(_trajectory_generic(spec, A, T))
        # the engine reduces on digit planes over p <= 3
        assert kinds == {lattice._PlaneWU if p <= 3 else np.ndarray}
        L = max(basis.scaling_exponent(), m * T) + n * T + 1
        assert (r * n * T + 1 > L) == (n == 2)
        assert seen and max(top for top, _ in seen) < r * n * T + 1, (fs, m, n)
        assert {ulen for _, ulen in seen} == {max(L, r * n * T + 1)}


@pytest.mark.parametrize("p,e,steps", [(3, 3, 226), (5, 2, 231), (5, 3, 239)])
def test_step_cap_admits_nonsingular_bases(p, e, steps, monkeypatch):
    # these nonsingular flowed bases take more steps than sum(d) + r^2 + 16
    # (224 here), within the default cap r sum(d) + r(r - 1)/2 that bounds
    # every nonsingular polynomial basis
    from ffdyn.flow import FlowSpec, flow_apply, sample_matrix, unipotent_lattice

    fs = field_spec(p, e)
    spec = FlowSpec(fs, 2, 2)
    A = sample_matrix(fs, np.random.default_rng(10 * p + e), 2, 2, 32)
    flowed = flow_apply(unipotent_lattice(A, spec), 12, spec)
    d = lattice._column_pivots(flowed.packed()[1])[0].tolist()
    assert sum(d) + 4 * 4 + 16 == 224
    seen = []
    real = lattice._reduce_packed
    monkeypatch.setattr(lattice, "_reduce_packed", lambda *a: seen.append(real(*a)))
    reduced = weak_popov(flowed)
    assert seen == [steps] and steps <= 4 * sum(d) + 6
    assert sorted(reduced.pivots) == [0, 1, 2, 3]
    if p <= 3:
        # weak_popov reduces arrays; the plane core takes the same steps
        # to the same form under the same cap
        W0 = flowed.packed()[1]
        WU = lattice._augmented(W0, W0.shape[2], lattice._transform_room(d, 0))[0]
        core = lattice._PlaneWU(fs, WU, W0.shape[2])
        state = (list(d), lattice._column_pivots(W0)[1].tolist(), [0] * 4)
        assert real(fs, core, *state) == steps
        assert list(state[:2]) == [list(reduced.degrees), list(reduced.pivots)]
        got = oracles.plane_state_array(fs, core)
        assert np.array_equal(got[:4, :, : W0.shape[2]], reduced.matrix)
        assert np.array_equal(got[4:], reduced.transform)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_needed_is_the_least_window_that_certifies(p):
    # a reduction of a truncated basis reports the least window at which
    # its own columns certify; a certified depth is also the depth of the
    # longer input the truncation was cut from, when that one is certified
    from ffdyn.flow import FlowSpec, flow_apply, sample_matrix, unipotent_lattice
    from ffdyn.lattice import ReducedBasis

    fs = field_spec(p)
    rng = np.random.default_rng(40 + p)
    outcomes = set()
    for trial in range(24):
        m, n = (1, 2) if trial % 2 else (2, 1)
        spec = FlowSpec(fs, m, n)
        A = sample_matrix(fs, rng, m, n, 48)
        N, t = int(rng.integers(6, 20)), int(rng.integers(1, 6))
        cut = [[a.truncate(N) for a in row] for row in A]
        red = weak_popov(flow_apply(unipotent_lattice(cut, spec), t, spec))
        certified, needed = red.certification()
        outcomes.add(certified)
        if certified:
            full = delta(flow_apply(unipotent_lattice(A, spec), t, spec))
            if full.certified:
                assert full.value == delta(red).value, (p, trial)
            continue
        assert needed > red.window

        def at(window):
            args = (red.scale, window, red.matrix, red.transform, red.degrees)
            return ReducedBasis(fs, red.rank, *args, red.pivots, red.udegrees).certification()

        assert at(needed) == (True, None)
        assert at(needed - 1) == (False, needed)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)])
def test_nullspace_matches_the_rank_oracle(p, e):
    fs = field_spec(p, e)
    rng = np.random.default_rng(20 * p + e)
    cases = [np.zeros((3, 4), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)]
    for m, n in ((3, 5), (5, 3), (4, 4), (1, 6), (6, 1)):
        A = rng.integers(0, fs.s, size=(m, n))
        A[rng.random(A.shape) < 0.4] = 0
        cases.append(A.copy())
        # a repeated row and a multiple of another add no rank
        A[-1] = A[0]
        A[m // 2] = fs.scale_arr(int(rng.integers(1, fs.s)), A[-1])
        cases.append(A)
        # full rank: a unit diagonal under random entries above it
        F = np.triu(rng.integers(0, fs.s, size=(m, n)), 1)
        F[np.arange(min(m, n)), np.arange(min(m, n))] = rng.integers(1, fs.s, size=min(m, n))
        cases.append(F)
    for A in cases:
        null = lattice._nullspace(fs, A)
        rank = oracles.gf_rank(A.tolist(), p, fs.modulus)
        assert null.shape == (A.shape[1] - rank, A.shape[1]), (fs, A)
        assert oracles.gf_rank(null.tolist(), p, fs.modulus) == null.shape[0]
        for v in null.tolist():
            for row in A.tolist():
                acc = 0
                for a, x in zip(row, v):
                    acc = oracles.gf_add(acc, oracles.gf_mul(a, x, p, fs.modulus), p, fs.modulus)
                assert acc == 0, (fs, A, v)


def test_singular_detected_during_reduction():
    b = basis_from_text(F2, [["X + 1", "X + 1"], ["X", "X"]])
    with pytest.raises(LatticeError):
        weak_popov(b)


# ---------------------------------------------------------------------------
# pinned reduction examples


def test_identity_already_reduced():
    b = LatticeBasis.identity(F3, 3)
    red = weak_popov(b)
    assert red.degrees == (0, 0, 0)
    assert np.array_equal(red.matrix[:, :, 0], np.eye(3, dtype=np.int64))
    assert delta(b).value == 0
    assert delta(b).certified


def test_two_column_example():
    # columns (X^2, 1) and (X^2 + 1, 1): reduction lands at degrees (0, 0)
    b = basis_from_text(F2, [["X^2", "X^2 + 1"], ["1", "1"]])
    red = weak_popov(b)
    assert sorted(red.degrees) == [0, 0]
    assert oracles is not None
    # the reduced matrix spans the same lattice with determinant degree 0
    assert delta(b).value == 0


def test_diagonal_monomials_untouched():
    b = diag_basis(F3, [3, 0, 1])
    red = weak_popov(b)
    assert red.scale == 0
    assert sorted(red.degrees) == [0, 1, 3]
    assert red.pivots == (0, 1, 2)


def test_depth_of_standard_lattice_is_zero():
    for r in (1, 2, 3, 4):
        assert delta(LatticeBasis.identity(F2, r)).value == 0


def test_depth_of_skew_diagonal():
    b = diag_basis(F2, [-2, 2])
    d = delta(b)
    assert d.value == 2
    assert d.certified
    m = successive_minima(b)
    assert m.exponents == (-2, 2)


def test_unipotent_time_one_depth_zero():
    # m = n = 1, A = X^-1, flowed one step: columns (X, X^-1*X... ) explicitly
    # g_1 * [[1, A], [0, 1]] = [[X, X*A], [0, X^-1]] with A = X^-1
    b = basis_from_text(F2, [["X", "1"], ["0", "X^-1"]])
    d = delta(b)
    assert d.value == 0
    assert d.certified
    # exhaustive check within coefficient degree <= 3
    cols = [
        [{-1: 1}, {}],  # (X, 0)
        [{0: 1}, {1: 1}],  # (1, X^-1)
    ]
    v = oracles.brute_min_valuation(cols, 2, qdeg=4)
    assert v == 0  # shortest vector has norm s^0 = 1


def test_successive_minima_sum_to_zero_for_unimodular():
    b = basis_from_text(F3, [["X^2", "X^2 + 1"], ["1", "1"]])
    m = successive_minima(b)
    assert sum(m.exponents) == 0


# ---------------------------------------------------------------------------
# invariance properties


@st.composite
def small_exact_basis(draw, fs, r=2, span=3):
    rows = []
    for _ in range(r):
        row = []
        for _ in range(r):
            coeffs = draw(
                st.lists(st.integers(0, fs.s - 1), min_size=0, max_size=span)
            )
            v = draw(st.integers(-2, 2))
            row.append(LaurentSeries(fs, v, coeffs, None))
        rows.append(row)
    try:
        basis = LatticeBasis(fs, rows)
        weak_popov(basis)
    except LatticeError:
        return None
    return basis


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scaling_shifts_depth(data):
    b = data.draw(small_exact_basis(F2))
    if b is None:
        return
    c = data.draw(st.integers(-2, 3))
    d0 = delta(b).value
    d1 = delta(b.scale_all(c)).value
    assert d1 == d0 - c


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_right_multiplication_invariance(data):
    b = data.draw(small_exact_basis(F3))
    if b is None:
        return
    # random elementary integer column operation: col_i += f * col_j
    r = b.rank
    i = data.draw(st.integers(0, r - 1))
    j = data.draw(st.integers(0, r - 1))
    fdeg = data.draw(st.integers(0, 2))
    fc = data.draw(st.lists(st.integers(0, 2), min_size=fdeg + 1, max_size=fdeg + 1))
    if i == j or not any(fc):
        return
    f = LaurentSeries.from_pairs(F3, {-d: c for d, c in enumerate(fc) if c})
    rows = [list(row) for row in b.entries]
    for t in range(r):
        rows[t][i] = rows[t][i] + f * rows[t][j]
    b2 = LatticeBasis(F3, rows)
    assert delta(b2).value == delta(b).value
    assert successive_minima(b2).exponents == successive_minima(b).exponents


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduction_idempotent(data):
    b = data.draw(small_exact_basis(F2))
    if b is None:
        return
    red = weak_popov(b)
    again = weak_popov(red.basis_series())
    assert sorted(again.degrees) == sorted(red.degrees)
    assert delta(again).value == delta(red).value


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_delta_matches_brute_force(data):
    b = data.draw(small_exact_basis(F2))
    if b is None:
        return
    d = delta(b)
    cols = []
    for j in range(b.rank):
        col = []
        for i in range(b.rank):
            e = b.entries[i][j]
            col.append({e.v + k: int(c) for k, c in enumerate(e.coeffs) if c})
        cols.append(col)
    # Cramer: deg q_j <= deg w + (sum of the other column degrees) - deg det,
    # and the shortest w has degree at most the smallest column degree
    col_degs = sorted(-min(k for e in col for k in e) for col in cols)
    rows = [[cols[j][i] for j in range(b.rank)] for i in range(b.rank)]
    det_deg = -oracles.dict_valuation(oracles.dict_det(rows, 2))
    qdeg = sum(col_degs[1:]) + col_degs[0] - det_deg
    v = oracles.brute_min_valuation(cols, 2, qdeg=qdeg + 1)
    assert d.value == v


# ---------------------------------------------------------------------------
# transformation tracking


def test_transform_columns_rebuild_the_reduced_columns():
    # U = [[1, 2X], [0, 1]] is not symmetric, so rows and columns of U differ
    b = basis_from_text(F3, [["X^2 + 2", "X^3 + 1"], ["2*X", "X^2 + X"]])
    red = weak_popov(b)
    ucols = red.transform_columns()
    assert [[(e.v, e.coeffs.tolist()) for e in col] for col in ucols] == [
        [(0, [1]), (0, [])],
        [(-1, [2]), (0, [1])],
    ]
    got = red.basis_series()
    for j in range(2):
        for i in range(2):
            acc = b.entries[i][0] * ucols[j][0] + b.entries[i][1] * ucols[j][1]
            assert acc.equals(got.entries[i][j]) is True


def test_transform_reproduces_reduction():
    b = basis_from_text(F3, [["X^2 + 2", "X + 1"], ["2*X", "X^3 + X^-1"]])
    red = weak_popov(b)
    ucols = red.transform_columns()
    for j in range(b.rank):
        # recompute column j of the reduced basis as B * U_j
        acc = [LaurentSeries.zero(F3) for _ in range(b.rank)]
        for t in range(b.rank):
            for i in range(b.rank):
                acc[i] = acc[i] + b.entries[i][t] * ucols[j][t]
        got = red.basis_series()
        for i in range(b.rank):
            cmp = acc[i].equals(got.entries[i][j])
            assert cmp is True or cmp is None


# ---------------------------------------------------------------------------
# certification honesty


def test_truncated_basis_certifies_when_depth_small():
    a = parse_series(F2, "X^-1 + X^-3 (prec 12)")
    b = LatticeBasis(
        F2,
        [
            [LaurentSeries.x_power(F2, 1), a.shift(1)],
            [LaurentSeries.zero(F2), LaurentSeries.x_power(F2, -1)],
        ],
    )
    d = delta(b)
    assert d.certified


def test_truncated_basis_raises_precision_need():
    # a window too small to separate the shortest vector from the noise floor
    a = LaurentSeries(F2, 1, [1], prec=2)
    b = LatticeBasis(
        F2,
        [
            [LaurentSeries.x_power(F2, 4), a.shift(4)],
            [LaurentSeries.zero(F2), LaurentSeries.x_power(F2, -4)],
        ],
    )
    d = delta(b)
    if not d.certified:
        assert d.needed_precision is not None
        assert d.needed_precision > 2


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_standard_lattice():
    b = LatticeBasis.identity(F2, 2)
    assert enumerate_short_vectors(b, 0.5) == []
    vecs = enumerate_short_vectors(b, 1.0)
    assert len(vecs) == 2**2 - 1
    b3 = LatticeBasis.identity(F3, 2)
    assert len(enumerate_short_vectors(b3, 1.0)) == 3**2 - 1


def test_enumerate_counts_grow_with_bound():
    b = LatticeBasis.identity(F2, 2)
    # norm <= s: vectors with both coordinates of degree <= 1: s^4 - 1
    assert len(enumerate_short_vectors(b, 2.0)) == 2**4 - 1


def test_enumerate_matches_reduction_minimum():
    b = basis_from_text(F2, [["X^2", "X^2 + 1"], ["1", "1"]])
    d = delta(b)
    lam1 = 2.0 ** (-d.value)
    assert enumerate_short_vectors(b, lam1 / 2) == []
    vecs = enumerate_short_vectors(b, lam1)
    assert vecs
    for v in vecs:
        assert max(coord.abs_value() for coord in v) <= lam1


def test_enumerate_cap_is_checked_on_the_exact_count():
    b = LatticeBasis.identity(F3, 2)
    # norm <= s: both coordinates of degree <= 1, K = 3^4 - 1 vectors
    assert len(enumerate_short_vectors(b, 3.0, cap=80)) == 80
    with pytest.raises(EnumerationCapError, match="80 vectors"):
        enumerate_short_vectors(b, 3.0, cap=79)


def test_enumerate_kernel_and_literal_agree():
    b = basis_from_text(F3, [["X^2 + 1", "2*X"], ["X", "X^2 + 2"]])
    from ffdyn.lattice import _enumerate_kernel, _poly_det_degree

    M, P = b.packed()
    lit = sorted(oracles.enumerate_literal(F3, P, 2, 1))
    ker = sorted(tuple(map(tuple, w)) for w in _enumerate_kernel(F3, P, 2, 1, 10**6).tolist())
    assert lit == ker
    # over every field, a random nonsingular packed basis whose literal box
    # s^(2(qdeg+1)) holds a few thousand candidates (at least s^2); its
    # leading coefficient columns are dependent, so the top degree of
    # w = P q cancels for some nonzero q and the bound below has solutions
    for fs in [field_spec(p, e) for p in (2, 3, 5) for e in (1, 2, 3)]:
        qdeg = max(int(np.log(7000) / np.log(fs.s)) // 2 - 1, 0)
        rng = np.random.default_rng(fs.s)
        while True:
            P = rng.integers(0, fs.s, size=(2, 2, 3))
            P[:, 1, -1] = fs.scale_arr(int(rng.integers(1, fs.s)), P[:, 0, -1])
            try:
                _poly_det_degree(fs, P)
                break
            except LatticeError:
                pass
        delta_cap = P.shape[2] + qdeg - 2
        lit = sorted(oracles.enumerate_literal(fs, P, delta_cap, qdeg))
        assert lit, fs
        assert lit == sorted(
            tuple(map(tuple, w)) for w in _enumerate_kernel(fs, P, delta_cap, qdeg, 10**6).tolist()
        ), fs
        # the same P as the windowed basis X^-2 P, known through index 2, at
        # the norm bound whose Cramer box is the one above
        det_deg = _poly_det_degree(fs, P)
        top = max(oracles.packed_pivot(P[:, j, :])[0] for j in range(2))
        delta_cap = qdeg + det_deg - top
        rows = [[LaurentSeries(fs, 0, P[i, j, ::-1], prec=3) for j in range(2)] for i in range(2)]
        vecs = enumerate_short_vectors(LatticeBasis(fs, rows), float(fs.s) ** (delta_cap - 2))
        assert {e.prec for v in vecs for e in v} == {3}, fs
        width = P.shape[2] + qdeg
        got = [tuple(tuple(e.window(3 - width, 3)[::-1].tolist()) for e in v) for v in vecs]
        assert got == sorted(oracles.enumerate_literal(fs, P, delta_cap, qdeg)), fs


def test_combinations_by_doubling_match_the_grid():
    from ffdyn.lattice import _combinations

    for fs in [field_spec(p, e) for p in (2, 3, 5) for e in (1, 2, 3)]:
        rng = np.random.default_rng(10 * fs.s + 1)
        # as many images as keep s^dim to a few thousand rows, with zero
        # columns, so that pivots skip columns and rows share them
        for dim in range(1, max(int(np.log(5000) / np.log(fs.s)), 1) + 1):
            while True:
                images = rng.integers(0, fs.s, size=(dim, dim + 6))
                images[:, rng.random(dim + 6) < 0.3] = 0
                if (fs._echelon(images)[1] >= 0).all():
                    break
            got = _combinations(fs, images)
            assert got.shape == (fs.s**dim - 1, dim + 6), fs
            assert np.array_equal(got, oracles.combination_grid(fs, images)), (fs, dim)
            # every caller passes a kernel basis's images under a nonsingular
            # P, so a dependent image is an error, not repeated rows
            if dim > 1:
                images[-1] = fs.scale_arr(int(rng.integers(1, fs.s)), images[0])
                with pytest.raises(LatticeError, match="linearly dependent"):
                    _combinations(fs, images)


def test_monic_combinations_are_the_filtered_walk():
    # the monic build is the full walk's rows whose first nonzero code is 1,
    # in walk order; under any support mask the first row that meets it is
    # monic, so the deep-row check sees the same first row in both
    from ffdyn.lattice import _combinations

    for fs in [field_spec(p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3) if p**e < 400]:
        rng = np.random.default_rng(10 * fs.s + 2)
        for dim in range(1, max(int(np.log(5000) / np.log(fs.s)), 1) + 1):
            n = dim + 6
            images = rng.integers(0, fs.s, size=(dim, n))
            images[:, rng.random(n) < 0.3] = 0
            if (fs._echelon(images)[1] < 0).any():
                continue
            full = _combinations(fs, images)
            first = full[np.arange(len(full)), (full != 0).argmax(axis=1)]
            monic = _combinations(fs, images, monic=True)
            assert monic.shape == ((fs.s**dim - 1) // (fs.s - 1), n), fs
            assert np.array_equal(monic, full[first == 1]), (fs, dim)
            mask = rng.random(n) < 0.3
            meets = full[:, mask].any(axis=1)
            if meets.any():
                assert np.array_equal(
                    full[meets][0], monic[monic[:, mask].any(axis=1)][0]
                ), (fs, dim)


def test_enumerate_respects_depth():
    b = diag_basis(F2, [-2, 2])
    vecs = enumerate_short_vectors(b, 2.0**-2)
    norms = {max(c.abs_value() for c in v) for v in vecs}
    assert norms == {0.25}
    assert len(vecs) == 1  # only the single nonzero multiple inside the box


def test_enumerate_certification_guard():
    a = LaurentSeries(F2, 0, [1, 0, 1], prec=3)
    b = LatticeBasis(
        F2,
        [
            [a, LaurentSeries.zero(F2)],
            [LaurentSeries.zero(F2), LaurentSeries.one(F2)],
        ],
    )
    with pytest.raises(CertificationError):
        enumerate_short_vectors(b, 2.0**-5)
