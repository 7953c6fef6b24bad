"""Tests for the quotient ray of the tree: stabilizer orders, masses,
the projected non-backtracking walk, and the logarithm law."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from ffdyn.errors import EnumerationCapError
from ffdyn.streams import stream
from ffdyn.tree import (
    GeodesicTrace,
    _trace_levels,
    _vertex_order,
    excursion_tail_rate,
    loglaw_experiment,
    occupation_distance,
    power_thresholds,
    quotient_ray,
    simulate_geodesic,
    stabilizer_order_oracle,
)

GOLDEN = Path(__file__).parent / "golden"

RAY2 = quotient_ray(2, j_max=10, verify_depth=2)
RAY3 = quotient_ray(3, j_max=10)


# ---------------------------------------------------------------------------
# stabilizer orders and masses


def test_stabilizer_oracle_examples():
    assert stabilizer_order_oracle(0, 2, 1) == 6  # |SL2(F_2)|
    assert stabilizer_order_oracle(1, 2, 1) == 4
    assert stabilizer_order_oracle(2, 3, 2) == 54


def test_stabilizer_oracle_matches_closed_form():
    for q in (2, 3):
        assert stabilizer_order_oracle(0, q, 1) == q**3 - q
        for j in (1, 2):
            assert stabilizer_order_oracle(j, q, j) == (q - 1) * q ** (j + 1)


def test_stabilizer_oracle_over_prime_power_field():
    # arithmetic in F_4, not Z/4Z: |SL2(F_4)| = 60 at the base vertex
    assert stabilizer_order_oracle(0, 4, 1) == 60 == _vertex_order(4, 0)
    assert stabilizer_order_oracle(1, 4, 1) == 48 == _vertex_order(4, 1)
    with pytest.raises(ValueError):
        stabilizer_order_oracle(0, 6, 1)


def test_stabilizer_oracle_matches_brute_force():
    for j in (0, 1):
        assert stabilizer_order_oracle(j, 2, 2) == oracles.brute_stabilizer_order(
            2, j, 2
        )


def test_stabilizer_oracle_validation():
    with pytest.raises(ValueError):
        stabilizer_order_oracle(3, 2, 2)
    with pytest.raises(EnumerationCapError):
        stabilizer_order_oracle(1, 3, 9)


def test_ray_masses_exact():
    for ray, q in [(RAY2, 2), (RAY3, 3)]:
        assert list(ray.masses) == oracles.ray_masses(q, 10)
        assert sum(ray.masses) + ray.tail_mass(11) == 1
        for j in range(1, 10):
            assert ray.masses[j] > ray.masses[j + 1]
        # the base vertex has the largest stabilizer, hence the smallest mass
        assert ray.masses[1] > ray.masses[0]


def test_ray_mass_extrapolation_consistent():
    short = quotient_ray(2, j_max=6)
    assert short.mass(8) == RAY2.mass(8)
    assert short.mass(8) == Fraction(1, 1 * 2**9) / short.norm


def test_ray_tail_monotone():
    assert RAY2.tail_mass(0) == 1
    for r in range(1, 12):
        assert RAY2.tail_mass(r) > RAY2.tail_mass(r + 1)


def test_ray_decay_exponent_is_one():
    for q in (2, 3, 5):
        assert quotient_ray(q, j_max=8).lY == 1.0


def test_ray_edge_indices():
    for ray, q in [(RAY2, 2), (RAY3, 3)]:
        assert ray.index_up(0) == q + 1 and ray.index_down(0) == 0
        for j in range(1, 11):
            assert ray.index_up(j) == 1
            assert ray.index_down(j) == q
            assert ray.index_up(j) + ray.index_down(j) == q + 1


def test_ray_validation():
    with pytest.raises(ValueError):
        quotient_ray(1)
    with pytest.raises(ValueError):
        quotient_ray(6)
    with pytest.raises(ValueError):
        quotient_ray(2, j_max=1)


# ---------------------------------------------------------------------------
# walk simulation


def test_golden_trace():
    trace = simulate_geodesic(RAY2, 10, 42)
    lines = (GOLDEN / "trace_q2_seed42_T10.csv").read_text().strip().splitlines()
    assert lines[0] == "t,level"
    expected = [tuple(int(x) for x in ln.split(",")) for ln in lines[1:]]
    assert list(trace.rows()) == expected


def test_trace_step_invariants():
    for seed in (0, 1, 7):
        trace = simulate_geodesic(RAY2, 4000, seed)
        lv = trace.levels
        assert lv[0] == 1  # every edge at the base vertex climbs
        steps = np.diff(np.concatenate(([0], lv)))
        assert set(np.abs(steps)) == {1}
        assert lv.min() >= 0
        # from the base vertex the next vertex is always v_1
        at_zero = np.flatnonzero(lv[:-1] == 0)
        assert np.all(lv[at_zero + 1] == 1)


def test_trace_descent_is_monotone():
    # entering a vertex from above spends its only upward lift, so the
    # walk continues down until it hits the base vertex
    lv = simulate_geodesic(RAY2, 6000, 3).levels
    for i in range(1, len(lv) - 1):
        if lv[i] < lv[i - 1] and lv[i] > 0:
            assert lv[i + 1] == lv[i] - 1


def test_trace_climb_probability():
    for ray, q in [(RAY2, 2), (RAY3, 3)]:
        lv = simulate_geodesic(ray, 60000, 9).levels
        ups = 0
        total = 0
        for i in range(1, len(lv) - 1):
            if lv[i] > lv[i - 1] and lv[i] >= 1:  # arrived from below
                total += 1
                ups += int(lv[i + 1] > lv[i])
        p = ups / total
        sigma = math.sqrt((1 / q) * (1 - 1 / q) / total)
        assert abs(p - 1 / q) <= 4 * sigma


def test_trace_determinism():
    a = simulate_geodesic(RAY2, 500, 11).levels
    b = simulate_geodesic(RAY2, 500, 11).levels
    assert np.array_equal(a, b)
    c = simulate_geodesic(RAY2, 500, 12).levels
    assert not np.array_equal(a, c)


def test_trace_validation():
    with pytest.raises(ValueError):
        simulate_geodesic(RAY2, 0, 1)


def test_occupation_matches_masses():
    tv = occupation_distance(RAY2, 10**6, 3)
    assert tv < 0.02


# ---------------------------------------------------------------------------
# excursions


def test_excursion_splitter():
    lv = np.array([1, 2, 1, 0, 1, 0, 1, 2, 3])
    assert list(oracles.excursion_peaks(lv)) == [2, 1]
    assert np.asarray(oracles.excursion_peaks(np.array([1, 2, 3]))).size == 0


def test_excursion_tail_rate_matches_decay():
    for ray, q in [(RAY2, 2), (RAY3, 3)]:
        peaks = []
        for trial in range(30):
            lv = _trace_levels(ray, 10**4, stream(17, "tree-loglaw", trial))
            peaks.append(oracles.excursion_peaks(lv))
        peaks = np.concatenate(peaks)
        assert peaks.size >= 10**4
        rate = excursion_tail_rate(peaks)
        target = float(q) ** -ray.lY
        assert abs(rate - target) / target <= 0.10
        # spot-check the tail fractions against the exact law q^(1-r)
        for r in (2, 3):
            frac = np.count_nonzero(peaks >= r) / peaks.size
            want = float(oracles.excursion_tail(q, r))
            assert abs(frac - want) <= 5 * math.sqrt(want / peaks.size) + 1e-3


def test_excursion_rate_needs_data():
    assert excursion_tail_rate(np.array([1, 2, 1])) is None


# ---------------------------------------------------------------------------
# logarithm law


def test_loglaw_median_near_reciprocal_decay():
    rep = loglaw_experiment(RAY2, 60, 10**4, 11)
    assert rep.lY == 1.0
    assert 0.85 <= rep.median_ratio <= 1.15
    assert rep.quartiles[0] <= rep.median_ratio <= rep.quartiles[1]


def test_loglaw_rate_families():
    T = 10**4
    div = loglaw_experiment(
        RAY2, 40, T, 12, rate=power_thresholds(0.5, 2, T), rate_desc="c=0.5"
    )
    con = loglaw_experiment(
        RAY2, 40, T, 12, rate=power_thresholds(1.5, 2, T), rate_desc="c=1.5"
    )
    assert div.series_divergent and div.last_decade_fraction >= 0.5
    assert not con.series_divergent and con.last_decade_fraction <= 0.1
    zero = loglaw_experiment(
        RAY2, 10, T, 13, rate=np.zeros(T, dtype=np.int64), rate_desc="zero"
    )
    assert zero.last_decade_fraction == 1.0


def test_loglaw_summary_shape():
    rep = loglaw_experiment(RAY2, 5, 1000, 1)
    out = rep.summary()
    for key in ("q", "T", "trials", "lY", "median_ratio", "quartiles",
                "excursion_tail_rate"):
        assert key in out
    assert "rate" not in out
    rated = loglaw_experiment(
        RAY2, 5, 1000, 1, rate=np.zeros(1000, dtype=np.int64), rate_desc="zero"
    )
    assert rated.summary()["rate"] == "zero"


def test_loglaw_same_report_across_threads(monkeypatch):
    # lift the CPU cap so that threads = 3 forks two children on any host
    monkeypatch.setattr("ffdyn.streams._usable_cpus", lambda: 3)
    T = 5000
    rate = power_thresholds(0.5, 2, T)
    a = loglaw_experiment(RAY2, 7, T, 17, rate=rate, rate_desc="c=0.5")
    for threads in (2, 3):
        b = loglaw_experiment(RAY2, 7, T, 17, rate=rate, rate_desc="c=0.5", threads=threads)
        assert np.array_equal(a.max_levels, b.max_levels)
        assert b.summary() == a.summary()


def test_loglaw_trial_zero_matches_simulate():
    rep = loglaw_experiment(RAY2, 3, 2000, 21)
    trace = simulate_geodesic(RAY2, 2000, 21)
    assert rep.max_levels[0] == trace.max_level


def test_loglaw_validation():
    with pytest.raises(ValueError):
        loglaw_experiment(RAY2, 0, 1000, 1)
    with pytest.raises(ValueError):
        loglaw_experiment(RAY2, 5, 5, 1)
    with pytest.raises(ValueError):
        loglaw_experiment(RAY2, 5, 1000, 1, rate=np.zeros(10, dtype=np.int64))


def test_power_thresholds_values():
    r = power_thresholds(1.0, 2, 16)
    assert r[0] == 0  # t = 1
    assert r[7] == 3  # t = 8
    assert r[8] == 4  # t = 9
    assert np.all(np.diff(r) >= 0)
    half = power_thresholds(1.0, 2, 16, lY=2.0)
    assert np.all(half <= r)


def test_trace_dataclass_shape():
    trace = simulate_geodesic(RAY3, 25, 5)
    assert isinstance(trace, GeodesicTrace)
    assert trace.q == 3 and trace.seed == 5
    rows = list(trace.rows())
    assert rows[0][0] == 1 and len(rows) == 25
    assert trace.max_level == max(lv for _, lv in rows)
