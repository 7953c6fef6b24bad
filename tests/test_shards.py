"""Trial sharding over forked processes (``streams.map_trials``,
``shards.run_shards``) and the errors that cross its pipes."""

import os
import pickle
import time

import numpy as np
import pytest

import ffdyn.errors as errors
from ffdyn.errors import CertificationError, ConfigError, FFDynError, PrecisionError
from ffdyn.streams import map_trials


@pytest.fixture
def many_cpus(monkeypatch):
    """Lift the CPU cap, so that three workers fork two children on any host."""
    monkeypatch.setattr("ffdyn.streams._usable_cpus", lambda: 64)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square(trial):
    return trial * trial


@pytest.mark.parametrize("trials, threads", [(7, 3), (2, 5), (1, 3), (0, 3), (7, 1)])
def test_rows_come_back_in_trial_order(many_cpus, trials, threads):
    assert map_trials(_square, trials, threads) == [t * t for t in range(trials)]
    _assert_no_child_left()


def test_rows_may_be_arrays_and_tuples(many_cpus):
    rows = map_trials(lambda t: (t, np.arange(t), t % 2 == 0), 5, 3)
    assert [r[0] for r in rows] == list(range(5))
    assert all(np.array_equal(r[1], np.arange(t)) for t, r in enumerate(rows))
    assert [r[2] for r in rows] == [True, False, True, False, True]


def test_workers_are_capped_at_usable_cpus(monkeypatch):
    import ffdyn.shards as shards

    seen = []
    monkeypatch.setattr(shards, "run_shards", lambda row, n, w: seen.append(w) or [])
    monkeypatch.setattr("ffdyn.streams._usable_cpus", lambda: 2)
    map_trials(_square, 10, threads=8)
    assert map_trials(_square, 3, threads=1) == [0, 1, 4]  # in-process
    assert seen == [2]


def test_runs_in_process_without_fork(many_cpus, monkeypatch):
    monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    assert map_trials(lambda t: os.getpid(), 4, 3) == [parent] * 4


def _fail_at(bad):
    def row(trial):
        if trial in bad:
            raise CertificationError(f"trial {trial} failed", needed_precision=10 + trial)
        return trial

    return row


@pytest.mark.parametrize("bad", [{3, 6}, {5}, {0, 5}, {1}])
def test_lowest_failing_shard_wins(many_cpus, bad):
    # 7 trials over 3 workers: shards 0..1 (in-process), 2..3 and 4..6
    first = min(bad)
    with pytest.raises(CertificationError) as serial:
        [_fail_at(bad)(t) for t in range(7)]
    with pytest.raises(CertificationError) as sharded:
        map_trials(_fail_at(bad), 7, 3)
    assert str(sharded.value) == str(serial.value) == f"trial {first} failed"
    assert sharded.value.needed_precision == serial.value.needed_precision
    _assert_no_child_left()


def test_no_child_left_after_success_or_a_raising_shard(many_cpus):
    map_trials(_square, 6, 3)
    _assert_no_child_left()
    with pytest.raises(CertificationError, match="trial 2 failed"):
        map_trials(_fail_at({2}), 6, 3)  # the second shard raises
    _assert_no_child_left()


def test_parent_shard_error_kills_the_children(many_cpus):
    def row(trial):
        if trial == 0:
            raise ValueError("parent shard")
        time.sleep(30)  # a child still running when the parent gives up
        return trial

    start = time.perf_counter()
    with pytest.raises(ValueError, match="parent shard"):
        map_trials(row, 3, 3)
    assert time.perf_counter() - start < 10
    _assert_no_child_left()


def test_a_child_that_dies_names_its_shard(many_cpus):
    def row(trial):
        if trial == 5:
            os._exit(3)
        return trial

    with pytest.raises(RuntimeError, match=r"trial shard 2 \(trials 4\.\.6\) ended with exit code 3"):
        map_trials(row, 7, 3)
    _assert_no_child_left()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _instance(cls):
    if issubclass(cls, ConfigError):
        return cls(["T must be >= 10", "seed is required"])
    if issubclass(cls, CertificationError):
        return cls("trial 7 uncertified at t = 3", needed_precision=272)
    err = cls(f"{cls.__name__} message")
    if issubclass(cls, PrecisionError):
        err.needed_precision = 64  # set by hand: survives as instance state
    return err


@pytest.mark.parametrize(
    "cls", [FFDynError, *_subclasses(FFDynError)], ids=lambda c: c.__name__
)
def test_every_error_survives_a_pickle_round_trip(cls):
    assert cls.__module__ == errors.__name__
    err = _instance(cls)
    back = pickle.loads(pickle.dumps(err, pickle.HIGHEST_PROTOCOL))
    assert type(back) is cls
    assert str(back) == str(err)
    assert getattr(back, "needed_precision", None) == getattr(err, "needed_precision", None)
    assert getattr(back, "violations", None) == getattr(err, "violations", None)


def test_config_error_message_survives_a_pickle_round_trip():
    back = pickle.loads(pickle.dumps(ConfigError(["a", "b"])))
    assert str(back) == "a; b"
    assert back.violations == ["a", "b"]
