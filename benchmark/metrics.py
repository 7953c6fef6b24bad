"""End-to-end and per-layer metric definitions.

End-to-end metrics come from untraced runs.  Per-layer metrics come from
the spans of a traced run (see ``tracing``); each is read from the
workload's own calls when it makes them and from a panel probe when it
does not.  Metrics marked *derived* are computed from several measured
spans, not read off one span.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS, SpanIndex, attr_sum, duration, total

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_fraction", "ratio", "higher"),
)


def _mean_ms(spans) -> float:
    return 1e3 * total(spans) / len(spans)


def _per_call_by_field(spans, scale: float) -> float:
    """Median per-call time of each field's spans, averaged over fields."""
    by_field: dict[int, list[float]] = {}
    for s in spans:
        by_field.setdefault(s["attrs"]["s"], []).append(duration(s) / s["attrs"]["calls"])
    return scale * statistics.fmean(statistics.median(v) for v in by_field.values())


def _not_baseline(spans):
    return [s for s in spans if not s["attrs"].get("baseline")]


def _correspondence_vs_inner(ix: SpanIndex) -> float:
    """Correspondence time over the time of its trajectories, flow_apply and
    weak_popov calls repeated from scratch (derived).  A ratio, not a
    difference: the repeated calls are timed apart from the check, so the
    difference of the two can have either sign."""
    corr = ix.get("dioph.correspondence_check")
    phase = corr[0]["phase"] == "panel"
    inner = [
        s
        for s in ix.spans
        if s["attrs"].get("within") == "dioph.correspondence_check"
        and (s["phase"] == "panel") == phase
    ]
    return total(corr) / total(inner)


def _threads_speedup(ix: SpanIndex) -> float:
    """Threads = 1 time over pool-thread time of the library calls behind
    kg-mc and strong-bc."""
    calls = ix.get("dioph.kg_monte_carlo", within="cli.kg-mc") + ix.get(
        "flow.strong_bc_experiment", within="cli.strong-bc"
    )
    single = total([s for s in calls if s["attrs"]["baseline"]])
    pooled = total([s for s in calls if not s["attrs"]["baseline"]])
    return single / pooled


# (name, unit, better, compute(index, context))
PER_LAYER = (
    ("field.sub_arr_us", "us", "lower", lambda ix, c: _per_call_by_field(ix.get("field.sub_arr"), 1e6)),
    ("field.scale_arr_us", "us", "lower", lambda ix, c: _per_call_by_field(ix.get("field.scale_arr"), 1e6)),
    ("field.mul_arr_us", "us", "lower", lambda ix, c: _per_call_by_field(ix.get("field.mul_arr"), 1e6)),
    ("field.series_mul_ms", "ms", "lower", lambda ix, c: _per_call_by_field(ix.get("field.series_mul"), 1e3)),
    ("field.series_invert_ms", "ms", "lower", lambda ix, c: _per_call_by_field(ix.get("field.series_invert"), 1e3)),
    ("lattice.weak_popov_ms", "ms", "lower", lambda ix, c: _mean_ms(ix.get("lattice.weak_popov"))),
    ("lattice.weak_popov_calls", "count", "lower", lambda ix, c: len(ix.get("lattice.weak_popov"))),
    (
        "lattice.oneshot_ms",
        "ms",
        "lower",
        lambda ix, c: 1e3
        * (total(ix.get("lattice.delta")) + total(ix.get("lattice.successive_minima")))
        / len(ix.get("lattice.delta")),
    ),
    ("lattice.enumerate_ms", "ms", "lower", lambda ix, c: _mean_ms(ix.get("lattice.enumerate_short_vectors"))),
    (
        "lattice.enumerate_vectors",
        "count",
        "lower",
        lambda ix, c: attr_sum(ix.get("lattice.enumerate_short_vectors"), "vectors"),
    ),
    (
        "flow.trajectory_generic_s",
        "s",
        "lower",
        lambda ix, c: total(ix.get("flow.delta_trajectory", path="generic")),
    ),
    ("flow.trajectory_cf_ms", "ms", "lower", lambda ix, c: _mean_ms(ix.get("flow.delta_trajectory", path="cf"))),
    ("flow.strong_bc_s", "s", "lower", lambda ix, c: total(_not_baseline(ix.get("flow.strong_bc_experiment")))),
    ("flow.sample_matrix_ms", "ms", "lower", lambda ix, c: _mean_ms(ix.get("flow.sample_matrix"))),
    ("dioph.correspondence_s", "s", "lower", lambda ix, c: total(ix.get("dioph.correspondence_check"))),
    (
        "dioph.correspondence_flagged",
        "count",
        "higher",
        lambda ix, c: attr_sum(ix.get("dioph.correspondence_check"), "flagged"),
    ),
    ("dioph.correspondence_vs_inner", "ratio", "lower", lambda ix, c: _correspondence_vs_inner(ix)),
    (
        "dioph.kg_trials_per_s",
        "1/s",
        "higher",
        lambda ix, c: attr_sum(_not_baseline(ix.get("dioph.kg_monte_carlo")), "trials")
        / total(_not_baseline(ix.get("dioph.kg_monte_carlo"))),
    ),
    ("dioph.mult_s", "s", "lower", lambda ix, c: total(ix.get("dioph.mult_solutions"))),
    (
        "dioph.mult_yield",
        "ratio",
        "higher",
        lambda ix, c: attr_sum(ix.get("dioph.mult_solutions"), "solutions")
        / max(attr_sum(ix.get("dioph.mult_solutions"), "checked"), 1),
    ),
    (
        "spherical.xi_mc_samples_per_s",
        "1/s",
        "higher",
        lambda ix, c: attr_sum(ix.get("spherical.xi_monte_carlo"), "samples")
        / total(ix.get("spherical.xi_monte_carlo")),
    ),
    (
        "spherical.sample_k_us",
        "us",
        "lower",
        lambda ix, c: _per_call_by_field(ix.get("spherical.sample_k"), 1e6),
    ),
    ("spherical.xi_exact_s", "s", "lower", lambda ix, c: total(ix.get("spherical.xi_exact"))),
    (
        "spherical.xi_exact_classes",
        "count",
        "lower",
        lambda ix, c: attr_sum(ix.get("spherical.xi_exact"), "classes"),
    ),
    ("tree.loglaw_s", "s", "lower", lambda ix, c: total(ix.get("tree.loglaw_experiment"))),
    (
        "tree.steps_per_s",
        "1/s",
        "higher",
        lambda ix, c: sum(s["attrs"]["trials"] * s["attrs"]["T"] for s in ix.get("tree.loglaw_experiment"))
        / total(ix.get("tree.loglaw_experiment")),
    ),
    ("weyl.cusp_rows_ms", "ms", "lower", lambda ix, c: _mean_ms(ix.get("weyl.cusp_rows"))),
    ("streams.stream_us", "us", "lower", lambda ix, c: 1e3 * _mean_ms(ix.get("streams.stream"))),
    ("streams.created", "count", "lower", lambda ix, c: len(ix.get("streams.stream"))),
    ("cli.parse_config_ms", "ms", "lower", lambda ix, c: _mean_ms(ix.get("cli.parse_config"))),
    ("cli.runner_s", "s", "lower", lambda ix, c: attr_sum(ix.get("cli.run_experiment"), "runner_s")),
    (
        "cli.write_s",
        "s",
        "lower",
        lambda ix, c: total(ix.get("cli.run_experiment")) - attr_sum(ix.get("cli.run_experiment"), "runner_s"),
    ),
    (
        "cli.artifact_bytes",
        "bytes",
        "lower",
        lambda ix, c: attr_sum(ix.get("cli.run_experiment"), "artifact_bytes"),
    ),
    ("cli.threads_speedup", "ratio", "higher", lambda ix, c: _threads_speedup(ix)),
    ("trace.overhead_ratio", "ratio", "lower", lambda ix, c: c["traced_wall_s"] / c["wall_s"]),
) + tuple(
    entry
    for layer in LAYERS
    for entry in (
        (f"{layer}.calls", "count", "lower", lambda ix, c, L=layer: len(ix.layer(L))),
        (f"{layer}.busy_s", "s", "lower", lambda ix, c, L=layer: total(ix.layer(L))),
    )
)

# ``cli.write_s`` stays positive: each report's runner clock runs inside the
# ``run_experiment`` span it is subtracted from.
DERIVED = {"dioph.correspondence_vs_inner", "cli.write_s", "trace.overhead_ratio"}

# spans every per-layer metric reads; a workload that makes none of one of
# these calls gets the panel probe of that name (key "<span>:<path>" when
# the metric selects a trajectory path)
SOURCES = (
    "dioph.correspondence_check",
    "flow.delta_trajectory:generic",
    "flow.delta_trajectory:cf",
    "lattice.delta",
    "lattice.enumerate_short_vectors",
    "lattice.weak_popov",
    "dioph.mult_solutions",
    "dioph.kg_monte_carlo",
    "flow.strong_bc_experiment",
    "cli.run_experiment",
    "tree.loglaw_experiment",
    "weyl.cusp_rows",
    "streams.stream",
    "flow.sample_matrix",
    "spherical.xi_exact",
    "spherical.xi_monte_carlo",
)


def missing_sources(ix: SpanIndex) -> list[str]:
    out = []
    for key in SOURCES:
        name, _, path = key.partition(":")
        match = {"path": path} if path else {}
        if not ix.own(name, **match):
            out.append(key)
    return out


def compute(spans: list[dict], context: dict) -> dict[str, dict]:
    ix = SpanIndex(spans)
    return {
        name: {"value": float(fn(ix, context)), "unit": unit}
        for name, unit, _, fn in PER_LAYER
    }


PHASES = ("setup", "items", "inner", "panel")


def layer_table(spans: list[dict], wall_s: float) -> list[str]:
    """Each layer's busy seconds by phase, the traced pass's share of
    ``wall_s``, and the calls and errors its metrics are measured on."""
    ix = SpanIndex(spans)
    lines = [
        f"{'layer':<10}" + "".join(f"{ph + '_s':>9}" for ph in PHASES)
        + f"{'share':>8}{'calls':>7}{'errors':>7}  measured on"
    ]
    for layer in LAYERS:
        mine = [s for s in spans if s["name"].split(".")[0] == layer]
        busy = {
            ph: total(ix.outermost([s for s in mine if s["phase"] == ph], layer))
            for ph in PHASES
        }
        measured = ix.layer(layer)
        source = "panel probes" if measured and measured[0]["phase"] == "panel" else "workload"
        lines.append(
            f"{layer:<10}" + "".join(f"{busy[ph]:>9.3f}" for ph in PHASES)
            + f"{busy['items'] / wall_s:>8.1%}{len(measured):>7d}"
            + f"{sum(1 for s in measured if s['error']):>7d}  {source}"
        )
    return lines


def runner_lines(spans: list[dict]) -> list[str]:
    """The CLI runners of the traced pass, largest first."""
    runs = [s for s in spans if s["name"] == "cli.run_experiment" and s["phase"] == "items"]
    runs.sort(key=lambda s: -s["attrs"]["runner_s"])
    return [f"runner {s['attrs']['tag']:<12} {s['attrs']['runner_s']:.3f} s" for s in runs]
