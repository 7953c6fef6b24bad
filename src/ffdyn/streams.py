"""Deterministic RNG streams keyed by (master seed, experiment tag, trial),
and the trial loop that may shard them over worker processes.

Counter-based Philox generators seeded through SeedSequence spawn keys, so a
trial's stream never depends on batch size, thread count or evaluation order.
That is what lets ``map_trials`` split a Monte Carlo run by trial range.
"""

from __future__ import annotations

import os

import numpy as np

# The ids are spawn keys, so artifacts depend on them: never renumber one
# (8 and 9 are free).
_TAG_IDS = {
    "delta-flow": 0,
    "kg-mc": 1,
    "mult-mc": 2,
    "strong-bc": 3,
    "cusp-volume": 4,
    "tree-loglaw": 5,
    "xi-decay": 6,
    "reduce": 7,
    "xi-mc": 10,
    "k-sample": 11,
    "test": 12,
}


def tag_id(tag: str | int) -> int:
    if isinstance(tag, int):
        return tag
    try:
        return _TAG_IDS[tag]
    except KeyError:
        raise ValueError(f"unknown stream tag {tag!r}") from None


def stream(seed: int, tag: str | int, trial: int = 0) -> np.random.Generator:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag_id(tag), int(trial)))
    return np.random.Generator(np.random.Philox(ss))


def map_trials(row, trials: int, threads: int = 1) -> list:
    """``[row(trial) for trial in range(trials)]``, sharded over processes.

    ``range(trials)`` is split into min(threads, trials, usable CPUs)
    contiguous shards, run by ``shards.run_shards``: the calling process
    runs shard 0 and forked children run the others.  The rows are joined
    in trial order, so the result does not depend on ``threads`` as long as
    ``row`` draws only from its trial's stream, and an error is the one the
    serial loop would raise.  With one worker, or where ``os.fork`` does
    not exist, the loop runs in-process.
    """
    workers = min(threads, trials, _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [row(trial) for trial in range(trials)]
    from .shards import run_shards  # loaded on first use, not at import

    return run_shards(row, trials, workers)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
