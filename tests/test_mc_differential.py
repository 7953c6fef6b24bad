"""Differential tests of the two batched Monte Carlo backends against their
one-sample-at-a-time references in oracles.py: the spherical average over
sampled first columns of K, and the quotient-ray walk built from
excursions."""

import numpy as np
import pytest

import oracles
from ffdyn.errors import PrecisionError
from ffdyn.field import LaurentSeries, field_spec
from ffdyn.spherical import (
    _draw_k,
    _draw_samples,
    sample_k,
    torus_element,
    xi_monte_carlo,
)
from ffdyn.streams import stream
from ffdyn.tree import (
    _trace_levels,
    excursion_tail_rate,
    loglaw_experiment,
    power_thresholds,
    quotient_ray,
)

FIELDS = [field_spec(p, e) for p in (2, 3, 5) for e in (1, 2, 3)]


# ---------------------------------------------------------------------------
# spherical Monte Carlo


def _unipotent_times_torus(fs):
    """diag(X^2, X^-2) times [[1, X^3 + c X], [0, 1]], c the largest code."""
    b = LaurentSeries(fs, -3, [1, 0, fs.s - 1])
    one, zero = LaurentSeries.one(fs), LaurentSeries.zero(fs)
    return oracles.matmul2(torus_element(fs, 2), ((one, b), (zero, one)))


def _windowed(fs):
    """diag(X^2, X^-2) times a unipotent whose corner is known only on a
    window: X + X^-1 below index 3, zeros below index 4, X^3 below index -2
    or zeros below index -3.  The last two cut the known part of the first
    row's sum short of what the samples alone would show."""
    one, zero = LaurentSeries.one(fs), LaurentSeries.zero(fs)
    corners = (
        LaurentSeries(fs, -1, [1, 0, 1], 3),
        LaurentSeries.zero_window(fs, 4),
        LaurentSeries(fs, -3, [1], -2),
        LaurentSeries.zero_window(fs, -3),
    )
    for corner in corners:
        yield oracles.matmul2(torus_element(fs, 2), ((one, corner.shift(-2)), (zero, one)))


def _check_against_loop(g, samples, seed, precision=None):
    fs = g[0][0].field
    try:
        got = xi_monte_carlo(g, samples, seed, precision=precision)
    except PrecisionError:
        got = None
    if precision is None:
        precision = got.precision
    rng = stream(seed, "xi-mc", 0)
    want = oracles.xi_monte_carlo_loop(
        g, samples, lambda: sample_k(fs, rng, precision), fs.s
    )
    if want is None:
        assert got is None
        return None
    assert got is not None
    assert (repr(got.value), repr(got.stderr)) == tuple(map(repr, want))
    return got


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_joined_draws_match_the_draw_k_loop(p, e):
    # s = 2, 3, 4, 9; at precision 1 and s = 2 a quarter of the rows are
    # drawn again, so the joined draw runs short and asks for more
    fs = field_spec(p, e)
    for seed in range(4):
        for samples, precision in ((1, 1), (9, 1), (700, 1), (300, 2), (40, 7)):
            joined = stream(seed, "xi-mc", samples)
            got = _draw_samples(fs, joined, samples, precision)
            loop = stream(seed, "xi-mc", samples)
            want = np.empty_like(got)
            for i in range(samples):
                want[i, :2], want[i, 2] = _draw_k(fs, loop, precision)
            assert np.array_equal(got, want), (seed, samples, precision)
            # the stream ends where the loop leaves it
            after = [rng.integers(0, 2**40, size=3).tolist() for rng in (joined, loop)]
            assert after[0] == after[1]


@pytest.mark.parametrize("fs", FIELDS, ids=lambda f: f"p{f.p}e{f.e}")
def test_xi_monte_carlo_matches_sample_loop(fs):
    for g in (torus_element(fs, 2), _unipotent_times_torus(fs)):
        assert _check_against_loop(g, 40, fs.s) is not None
    outcomes = [
        _check_against_loop(g, 40, 7, prec) for g in _windowed(fs) for prec in (2, 4, 8)
    ]
    # both certified values and undecided samples occur
    assert None in outcomes
    assert any(o is not None for o in outcomes)


@pytest.mark.parametrize("fs", FIELDS, ids=lambda f: f"p{f.p}e{f.e}")
def test_xi_monte_carlo_low_precision_raises_like_the_loop(fs):
    # at precision 1 a sample is undecided exactly when a(0) = 0, one in s + 1
    g = torus_element(fs, 6)
    assert _check_against_loop(g, 1000, 1, precision=1) is None
    with pytest.raises(PrecisionError):
        xi_monte_carlo(g, 1000, 1, precision=1)


# ---------------------------------------------------------------------------
# quotient-ray walk


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_excursion_walk_matches_step_loop(q):
    ray = quotient_ray(q)
    for T in (10, 11, 997, 10**4):
        rate = power_thresholds(0.5, q, T)
        for seed in (0, 3):
            rep = loglaw_experiment(ray, 3, T, seed, rate=rate, rate_desc="c=0.5")
            peaks, hits = [], 0
            for trial in range(3):
                want = oracles.trace_levels_loop(ray, T, stream(seed, "tree-loglaw", trial))
                got = _trace_levels(ray, T, stream(seed, "tree-loglaw", trial))
                assert np.array_equal(got, want)
                assert rep.max_levels[trial] == want.max()
                peaks += oracles.excursion_peaks(want)
                hits += bool(np.any(want[T // 10 :] >= rate[T // 10 :]))
            assert rep.excursions == len(peaks)
            assert rep.last_decade_fraction == hits / 3


@pytest.mark.parametrize("q", [2, 3])
def test_excursion_tail_rate_matches_peak_counts(q):
    ray = quotient_ray(q)
    rep = loglaw_experiment(ray, 6, 10**4, 5)
    peaks = []
    for trial in range(6):
        levels = oracles.trace_levels_loop(ray, 10**4, stream(5, "tree-loglaw", trial))
        peaks += oracles.excursion_peaks(levels)
    want = oracles.excursion_tail_rate(peaks)
    assert want is not None
    assert rep.excursion_tail_rate == want
    assert excursion_tail_rate(np.array(peaks)) == want
