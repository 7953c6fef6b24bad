"""Spans around the benchmark's calls into ffdyn, kept in memory.

A span records a name ``<layer>.<function>``, its start and end on the
``perf_counter`` clock, the span that was open around it, the item it ran
for, the phase of the run, any exception type it raised, and free-form
attributes (counts the benchmark reads off the call's inputs and results).
Nothing inside ``src/ffdyn`` is wrapped: every span sits in benchmark code,
around one call into a public ffdyn function.

Phases of a traced run:

- ``setup``: input generation from the seed;
- ``items``: the traced pass over the workload's items;
- ``inner``: inner calls an item makes that the benchmark cannot see from
  outside, repeated as separate calls after the item;
- ``panel``: fixed probe calls for functions the workload does not call,
  so that every per-layer metric is measured on every workload (each
  ``--trace 1`` run must report every per-layer metric in
  ``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

LAYERS = ("field", "lattice", "flow", "dioph", "weyl", "tree", "spherical", "streams", "cli")


class Tracer:
    """Collects spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.phase = "setup"
        self.item: str | None = None
        self._stack: list[dict] = []
        self._null = nullcontext({})

    def span(self, name: str, **attrs):
        if not self.enabled:
            return self._null
        return self._record(name, attrs)

    @contextmanager
    def _record(self, name: str, attrs: dict):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "item": self.item,
            "phase": self.phase,
            "error": None,
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield attrs
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def context(self, phase: str, item: str | None = None):
        """Attribute the spans opened inside to ``phase`` and ``item``."""
        saved = self.phase, self.item
        self.phase, self.item = phase, item
        try:
            yield
        finally:
            self.phase, self.item = saved

    def write(self, path) -> None:
        doc = [
            {k: rec[k] for k in ("id", "name", "parent", "item", "phase", "error", "start", "end")}
            | {"attrs": {k: _plain(v) for k, v in rec["attrs"].items()}}
            for rec in self.spans
        ]
        path.write_text(json.dumps(doc) + "\n")


def _plain(v):
    return v if isinstance(v, (int, float, str, bool, type(None))) else str(v)


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


class SpanIndex:
    """Query spans by name, preferring the workload's own calls.

    A function the workload calls is measured on those calls (phases
    ``setup``, ``items`` and ``inner``); a function it never calls is
    measured on its panel probe.
    """

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self._by_id = {s["id"]: s for s in spans}

    def _find(self, name: str, match: dict, panel: bool) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["name"] == name
            and (s["phase"] == "panel") == panel
            and all(s["attrs"].get(k) == v for k, v in match.items())
        ]

    def own(self, name: str, **match) -> list[dict]:
        return self._find(name, match, panel=False)

    def get(self, name: str, **match) -> list[dict]:
        return self._find(name, match, panel=False) or self._find(name, match, panel=True)

    def outermost(self, spans: list[dict], layer: str) -> list[dict]:
        """Drop spans nested inside another span of the same layer, so that
        no time is counted twice."""

        def inside_layer(s):
            p = s["parent"]
            while p is not None:
                if self._by_id[p]["name"].split(".")[0] == layer:
                    return True
                p = self._by_id[p]["parent"]
            return False

        return [s for s in spans if not inside_layer(s)]

    def layer(self, layer: str) -> list[dict]:
        mine = [s for s in self.spans if s["name"].split(".")[0] == layer]
        own = [s for s in mine if s["phase"] != "panel"]
        return self.outermost(own or [s for s in mine if s["phase"] == "panel"], layer)


def total(spans: list[dict]) -> float:
    return sum(duration(s) for s in spans)


def attr_sum(spans: list[dict], key: str) -> int | float:
    return sum(s["attrs"].get(key, 0) for s in spans)
