"""Experiment runner: config parsing, dispatch and bit-stable artifacts.

One subcommand per experiment family plus ``reduce`` for a one-shot lattice
reduction from a matrix file::

    python -m ffdyn <tag> [--config PATH] [--seed N] [--out DIR]
                          [--threads N] [--format csv|json]

Configs are plain ``key = value`` text or a JSON object; command-line flags
override the file.  The master seed is mandatory and never defaults to
entropy.  Validation collects every violation before failing, and a key
that does not apply to the chosen experiment is rejected outright.

Every run writes two files into the output directory: the data artifact
``<tag>.csv`` or ``<tag>.json`` and the run report ``<tag>-report.json``.
Artifacts carry a schema stamp in-file (CSV first line, JSON top-level
field) and contain no timing, so re-runs with the same config, seed and
package version are byte-identical.  ``--threads`` (and the ``threads``
config key) is accepted by every experiment.  kg-mc, strong-bc and
tree-loglaw run their trials in up to that many worker processes, capped
at the usable CPUs, and write the same artifacts for every thread count;
the other experiments run in one process.  The
report echoes the resolved config, the experiment summary, the version
and the verdict against any configured thresholds; its wall-clock entry
is the one intentionally non-reproducible field.

Exit codes: 0 on pass, 2 when a configured acceptance threshold fails,
1 on any error (bad usage, invalid config, or a module failure, which is
reported with the raising module and a reproduction command line).

The ``reduce`` matrix file is a JSON object ``{"p": 2, "e": 1,
"entries": [[poly, ...], ...]}`` where each ``poly`` lists coefficients
of 1, X, X^2, ... as integers in ``[0, p^e)``.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .dioph import _unit_class_count, kg_monte_carlo, mult_solutions
from .errors import ConfigError
from .field import FieldSpec, LaurentSeries, prime_power
from .flow import (
    FlowSpec,
    PsiLogPower,
    PsiPowerLaw,
    delta_trajectory,
    sample_matrix,
    strong_bc_experiment,
    unipotent_lattice,
)
from .lattice import LatticeBasis, delta as lattice_delta, successive_minima, weak_popov
from .spherical import decay_check
from .streams import stream
from .tree import loglaw_experiment, power_thresholds, quotient_ray
from .weyl import RootSystemSpec, cusp_rows, ratio_band

REPORT_SCHEMA = "ffdyn.report.v1"

_PRIMES = (2, 3, 5, 7, 11, 13)


# ---------------------------------------------------------------------------
# config schema


def _int_check(lo: int, hi: int):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, int):
            return "expected an integer"
        if not lo <= v <= hi:
            return f"must lie in [{lo}, {hi}]"
        return None

    return check


class _FloatCheck:
    """A number in [lo, hi], or any finite number when unbounded; keys
    with this check hold floats once parsed."""

    def __init__(self, lo: float | None = None, hi: float | None = None):
        self.lo, self.hi = lo, hi

    def __call__(self, v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return "expected a number"
        if self.lo is None:
            return None if math.isfinite(v) else "must be finite"
        if not self.lo <= v <= self.hi:
            return f"must lie in [{self.lo:g}, {self.hi:g}]"
        return None


def _choice_check(options: tuple[str, ...]):
    def check(v):
        if v not in options:
            return "must be one of " + ", ".join(options)
        return None

    return check


def _seed_check(v):
    if isinstance(v, bool) or not isinstance(v, int):
        return "expected a decimal unsigned 64-bit integer"
    if not 0 <= v < 2**64:
        return "must lie in [0, 2^64)"
    return None


def _prime_check(v):
    if isinstance(v, bool) or not isinstance(v, int):
        return "expected an integer"
    if v not in _PRIMES:
        return "must be a prime in " + ", ".join(str(p) for p in _PRIMES)
    return None


def _prime_power_check(v):
    problem = _int_check(2, 64)(v)
    if problem is None and prime_power(v) is None:
        problem = "must be a prime power"
    return problem


def _str_check(v):
    if not isinstance(v, str) or not v:
        return "expected a non-empty string"
    return None


# the master seed has no default: it never comes from entropy
_REQUIRED = object()

# Every config key with its check and default.  A key whose default is
# None is optional: it stays unset unless given.  Caps are generous
# desk-scale bounds; values outside them are almost certainly typos, and
# the runtime guarantees were only ever measured inside them.
_KEYS = {
    "seed": (_seed_check, _REQUIRED),
    "out": (_str_check, "runs"),
    "format": (_choice_check(("csv", "json")), "csv"),
    "threads": (_int_check(1, 64), 1),
    "p": (_prime_check, 2),
    "e": (_int_check(1, 4), 1),
    "m": (_int_check(1, 8), 1),
    "n": (_int_check(1, 8), 1),
    "rank": (_int_check(1, 8), 2),
    "q": (_prime_power_check, 2),
    "psi": (_choice_check(("power", "logpower", "zero")), "power"),
    "psi_c": (_FloatCheck(-64.0, 64.0), 0.0),
    "psi_tau": (_FloatCheck(0.0, 64.0), 1.0),
    "psi_sigma": (_FloatCheck(0.0, 64.0), 1.0),
    "T": (_int_check(1, 10_000_000), 64),
    "q_max": (_int_check(1, 64), 8),
    "trials": (_int_check(1, 100_000), 16),
    "samples": (_int_check(0, 10_000_000), 0),
    "t_max": (_int_check(3, 12), 6),
    "sigma_max": (_int_check(1, 16), 6),
    "t_lo": (_int_check(1, 400), 2),
    "t_hi": (_int_check(1, 400), 40),
    "precision": (_int_check(1, 65_536), None),
    "burn_in": (_int_check(0, 1_000_000), None),
    "cap": (_int_check(1, 10_000_000), 200_000),
    "rate": (_choice_check(("log", "constant", "linear")), None),
    "rate_c": (_FloatCheck(0.0, 1024.0), 0.5),
    "matrix": (_str_check, None),
    "threshold_min": (_FloatCheck(), None),
    "threshold_max": (_FloatCheck(), None),
}

_COMMON_KEYS = ("seed", "out", "format", "threads", "threshold_min", "threshold_max")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters for one experiment run.

    Every config key reads as an attribute whatever the tag, holding its
    default when it does not apply; ``echo()`` restricts the view to the
    keys that apply to the chosen tag, which is what the run report
    repeats back.
    """

    tag: str
    values: dict

    def __post_init__(self):
        # each key also reads as a plain attribute, e.g. ``config.q_max``
        self.__dict__.update(self.values)

    @property
    def s(self) -> int:
        return self.p**self.e

    def echo(self) -> dict:
        out = {"tag": self.tag}
        for key in _COMMON_KEYS + EXPERIMENTS[self.tag].keys:
            out[key] = self.values[key]
        return out


def _read_document(text: str) -> tuple[dict, list[str]]:
    """Raw key/value mapping from a JSON object or key=value lines."""
    violations: list[str] = []
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return {}, [f"invalid JSON config: {exc}"]
        if not isinstance(doc, dict):
            return {}, ["JSON config must be an object"]
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                violations.append(f"{key}: nested values are not allowed")
        return {k: v for k, v in doc.items() if not isinstance(v, (dict, list))}, violations
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            violations.append(f"line {lineno}: expected key = value")
            continue
        key, _, value_text = body.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if not key:
            violations.append(f"line {lineno}: empty key")
            continue
        if key in raw:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            raw[key] = json.loads(value_text)
        except json.JSONDecodeError:
            raw[key] = value_text
    return raw, violations


def _cross_checks(experiment: Experiment, values: dict) -> list[str]:
    """Constraints that couple several keys: the experiment's own, then
    the threshold order every experiment shares."""
    problems = list(experiment.check(values))
    lo, hi = values["threshold_min"], values["threshold_max"]
    if lo is not None and hi is not None and lo > hi:
        problems.append("threshold_min must not exceed threshold_max")
    return problems


def parse_config(
    text: str, tag: str | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Validate a config document and return the resolved configuration.

    Every violation found is reported in one ConfigError rather than just
    the first.  ``tag`` names the experiment when it is not in the text
    (the CLI passes the subcommand); ``overrides`` are flag values that
    win over the file.
    """
    raw, violations = _read_document(text)
    doc_tag = raw.pop("tag", None)
    if doc_tag is not None and doc_tag not in EXPERIMENTS:
        violations.append(
            f"unknown experiment tag {doc_tag!r}; expected one of " + ", ".join(EXPERIMENTS)
        )
        doc_tag = None
    if tag is not None and doc_tag is not None and tag != doc_tag:
        violations.append(
            f"config names experiment {doc_tag!r} but {tag!r} was requested"
        )
    tag = tag or doc_tag
    if tag is None:
        violations.append("missing experiment tag")
        raise ConfigError(violations)
    if tag not in EXPERIMENTS:
        violations.append(
            f"unknown experiment tag {tag!r}; expected one of " + ", ".join(EXPERIMENTS)
        )
        raise ConfigError(violations)
    experiment = EXPERIMENTS[tag]

    if overrides:
        raw.update(overrides)
    allowed = set(_COMMON_KEYS) | set(experiment.keys)
    for key in sorted(raw):
        if key not in _KEYS:
            violations.append(f"unknown key {key!r}")
            continue
        if key not in allowed:
            violations.append(f"key {key!r} does not apply to {tag}")
            continue
        value = raw[key]
        check, default = _KEYS[key]
        if value is None and default is None:
            continue
        problem = check(value)
        if problem:
            violations.append(f"{key}: {problem}")
    if "seed" not in raw or raw.get("seed") is None:
        violations.append("missing seed (the master seed has no entropy default)")

    values = {key: default for key, (_, default) in _KEYS.items()}
    values.update(experiment.defaults)
    for key, value in raw.items():
        if key in _KEYS and key in allowed:
            values[key] = value
    if not violations:
        violations.extend(_cross_checks(experiment, values))
    if violations:
        raise ConfigError(violations)

    for key, (check, _) in _KEYS.items():
        if isinstance(check, _FloatCheck) and values[key] is not None:
            values[key] = float(values[key])
    return ExperimentConfig(tag, values)


# ---------------------------------------------------------------------------
# serialization helpers


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v)


def _csv_text(tag: str, columns, rows) -> str:
    lines = [f"# schema ffdyn.{tag}.v1", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(tag: str, columns, rows, summary: dict) -> str:
    doc = {"schema": f"ffdyn.{tag}.v1"}
    for key, value in summary.items():
        if key in ("schema", "columns", "rows"):
            raise RuntimeError(f"summary key {key!r} collides with the artifact schema")
        doc[key] = _jsonable(value)
    doc["columns"] = list(columns)
    doc["rows"] = [[_jsonable(v) for v in row] for row in rows]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# experiment runners; each returns (columns, rows, summary, headline key)


def _field(config: ExperimentConfig) -> FieldSpec:
    return FieldSpec(config.p, config.e)


def _make_psi(config: ExperimentConfig, s: int):
    if config.psi == "power":
        return PsiPowerLaw(s, c=config.psi_c, tau=config.psi_tau)
    if config.psi == "logpower":
        return PsiLogPower(s, config.psi_sigma)
    return None


def _rate_ladder(family: str, c: float, T: int, base: int, lY: float = 1.0) -> np.ndarray:
    """Integer thresholds r_t for t = 1..T.

    log: ceil(c log_base(t) / lY); constant: ceil(c); linear: ceil(c t).
    """
    if family == "log":
        return power_thresholds(c, base, T, lY)
    if family == "constant":
        raw = np.full(T, float(c))
    else:
        raw = c * np.arange(1, T + 1, dtype=np.float64)
    return np.ceil(raw - 1e-9).astype(np.int64)


def _run_delta_flow(config: ExperimentConfig):
    fs = _field(config)
    spec = FlowSpec(fs, config.m, config.n)
    precision = config.precision
    if precision is None:
        precision = (config.m + config.n) * config.T + 96
    rows = []
    finals = []
    peak = 0
    certified = 0
    for trial in range(config.trials):
        rng = stream(config.seed, "delta-flow", trial)
        A = sample_matrix(fs, rng, config.m, config.n, precision)
        trajectory = delta_trajectory(A, spec, config.T)
        last = 0
        for t, d, ok in trajectory.rows():
            rows.append((trial, t, d, ok))
            peak = max(peak, d)
            certified += ok
            last = d
        finals.append(last)
    summary = {
        "s": fs.s,
        "m": config.m,
        "n": config.n,
        "T": config.T,
        "trials": config.trials,
        "precision": precision,
        "max_delta": peak,
        "mean_final_delta": float(np.mean(finals)),
        "certified_fraction": certified / len(rows),
    }
    return ("trial", "t", "delta", "certified"), rows, summary, "certified_fraction"


# Work caps checked at config time, before anything is allocated.  A kg-mc
# census covers the (s^(n(q_max+1))-1)/(s-1) unit classes of q, and the kg
# cap counts exactly those; xi-decay's exact sums cover about s^(2 t_max+1)
# congruence classes at t = t_max (``XiExact.classes``).  Both are counted
# by ranks over F_s, not built, so each cap bounds a class count, not the
# work.
_KG_CANDIDATE_CAP = 10**5
_XI_CLASS_CAP = 10**7


def _check_kg_mc(v: dict):
    if v["psi"] == "zero":
        yield "kg-mc needs a positive psi profile, not zero"
    s, digits = v["p"] ** v["e"], v["n"] * (v["q_max"] + 1)
    count = _unit_class_count(s, v["n"], v["q_max"])
    if count > _KG_CANDIDATE_CAP:
        yield (
            f"kg-mc would enumerate the {count:,} unit classes of the "
            f"s^(n(q_max+1)) = {s}^{digits} candidates, above the cap of "
            f"{_KG_CANDIDATE_CAP:,}; lower q_max or n"
        )


def _run_kg_mc(config: ExperimentConfig):
    fs = _field(config)
    psi = _make_psi(config, fs.s)
    report = kg_monte_carlo(
        fs,
        psi,
        config.m,
        config.n,
        config.trials,
        config.q_max,
        config.seed,
        precision=config.precision,
        threads=config.threads,
    )
    rows = [(int(r), float(report.rung_fractions[r])) for r in report.rungs]
    return ("rung", "fraction"), rows, report.summary(), "persistent_fraction"


def _exact_sample(fs: FieldSpec, rng, m: int, n: int, precision: int):
    """iid matrix of exact rational representatives: uniform coefficients
    on the first ``precision`` places of O, zero tail.

    The multiplicative inequality needs decidable coordinate zero tests,
    which truncation windows cannot provide, so this driver works with the
    exact finite-tail model rather than certified windows.
    """
    return [
        [
            LaurentSeries(fs, 0, rng.integers(0, fs.s, size=precision), None)
            for _ in range(n)
        ]
        for _ in range(m)
    ]


def _run_mult_mc(config: ExperimentConfig):
    fs = _field(config)
    spec = FlowSpec(fs, config.m, config.n)
    psi = _make_psi(config, fs.s)
    precision = config.precision
    if precision is None:
        precision = 2 * config.q_max + 64
    bound = fs.s**config.q_max
    rows = []
    counts = []
    degenerate = 0
    for trial in range(config.trials):
        rng = stream(config.seed, "mult-mc", trial)
        A = _exact_sample(fs, rng, config.m, config.n, precision)
        result = mult_solutions(unipotent_lattice(A, spec), psi, bound, cap=config.cap)
        rows.append((trial, len(result), len(result.degenerate), result.checked))
        counts.append(len(result))
        degenerate += len(result.degenerate)
    summary = {
        "s": fs.s,
        "m": config.m,
        "n": config.n,
        "q_max": config.q_max,
        "trials": config.trials,
        "precision": precision,
        "cap": config.cap,
        "psi": "zero" if psi is None else psi.describe(),
        "mean_count": float(np.mean(counts)),
        "total_solutions": int(np.sum(counts)),
        "degenerate": degenerate,
    }
    return ("trial", "solutions", "degenerate", "checked"), rows, summary, "mean_count"


def _check_strong_bc(v: dict):
    if v["rate"] is None:
        yield "strong-bc needs a rate family (log, constant or linear)"


def _run_strong_bc(config: ExperimentConfig):
    fs = _field(config)
    spec = FlowSpec(fs, config.m, config.n)
    thresholds = _rate_ladder(config.rate, config.rate_c, config.T, fs.s)
    kwargs = {}
    if config.burn_in is not None:
        kwargs["burn_in"] = config.burn_in
    result = strong_bc_experiment(
        spec,
        thresholds,
        config.trials,
        config.seed,
        precision=config.precision,
        threads=config.threads,
        **kwargs,
    )
    summary = result.summary()
    summary["rate"] = f"{config.rate}(c={config.rate_c:g})"
    if result.divergent:
        summary["classification"] = "divergent: ratio law"
        summary["median_terminal_ratio"] = summary["ratio_quantiles"]["0.5"]
        headline = "median_terminal_ratio"
    else:
        summary["classification"] = "convergent: counts bounded"
        summary["max_final_count"] = summary["final_counts"]["max"]
        headline = "max_final_count"
    mins = result.counts.min(axis=0)
    meds = np.median(result.counts, axis=0)
    maxs = result.counts.max(axis=0)
    rows = []
    for i, cp in enumerate(result.checkpoints):
        ratio = float(meds[i] / result.expected[i]) if result.divergent else None
        rows.append(
            (
                int(cp),
                float(result.expected[i]),
                int(mins[i]),
                float(meds[i]),
                int(maxs[i]),
                ratio,
            )
        )
    columns = ("t", "expected", "min_count", "median_count", "max_count", "median_ratio")
    return columns, rows, summary, headline


def _check_cusp_volume(v: dict):
    if v["t_lo"] > v["t_hi"]:
        yield "t_lo must not exceed t_hi"


def _run_cusp_volume(config: ExperimentConfig):
    spec = RootSystemSpec(config.rank)
    tails = cusp_rows(spec, config.q, config.t_lo, config.t_hi)
    rows = [
        (r.T, float(r.tail), float(r.comparator), float(r.ratio)) for r in tails
    ]
    summary = {
        "rank": config.rank,
        "q": config.q,
        "t_lo": config.t_lo,
        "t_hi": config.t_hi,
        "ratio_band": float(ratio_band(tails)),
    }
    return ("T", "tail", "comparator", "ratio"), rows, summary, "ratio_band"


def _check_tree_loglaw(v: dict):
    if v["T"] < 10:
        yield "tree-loglaw needs T >= 10"


def _run_tree_loglaw(config: ExperimentConfig):
    ray = quotient_ray(config.q)
    rate = None
    desc = None
    if config.rate is not None:
        lY = ray.lY if config.rate == "log" else 1.0
        rate = _rate_ladder(config.rate, config.rate_c, config.T, config.q, lY=lY)
        desc = f"{config.rate}(c={config.rate_c:g})"
    report = loglaw_experiment(
        ray,
        config.trials,
        config.T,
        config.seed,
        rate=rate,
        rate_desc=desc,
        threads=config.threads,
    )
    rows = [
        (trial, int(level), float(ratio))
        for trial, (level, ratio) in enumerate(zip(report.max_levels, report.ratios))
    ]
    return ("trial", "max_level", "ratio"), rows, report.summary(), "median_ratio"


def _check_xi_decay(v: dict):
    if v["samples"] == 1:
        yield "samples must be 0 (exact only) or at least 2"
    s, expo = v["p"] ** v["e"], 2 * v["t_max"] + 1
    if s**expo > _XI_CLASS_CAP:
        yield (
            f"xi-decay would refine s^(2 t_max+1) = {s}^{expo} congruence classes, "
            f"above the cap of {_XI_CLASS_CAP:,}; lower t_max"
        )


def _run_xi_decay(config: ExperimentConfig):
    fs = _field(config)
    report = decay_check(
        fs,
        config.t_max,
        sigma_max=config.sigma_max,
        samples=config.samples,
        seed=config.seed,
        precision=config.precision,
    )
    rows = [
        (row.t, row.xi, float(row.xi), row.depth, row.xi_mc, row.stderr)
        for row in report.rows
    ]
    summary = {
        "s": fs.s,
        "t_max": config.t_max,
        "samples": config.samples,
        **report.fit_dict(),
    }
    columns = ("t", "xi_exact", "xi_float", "depth", "xi_mc", "stderr")
    return columns, rows, summary, "sigma"


def _poly_series(fs: FieldSpec, coeffs: list, where: str, problems: list[str]):
    if not isinstance(coeffs, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in coeffs
    ):
        problems.append(f"{where}: expected a list of integer coefficients")
        return None
    if any(not 0 <= c < fs.s for c in coeffs):
        problems.append(f"{where}: coefficients must lie in [0, {fs.s})")
        return None
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if not trimmed:
        return LaurentSeries.zero(fs)
    degree = len(trimmed) - 1
    return LaurentSeries(fs, -degree, list(reversed(trimmed)), None)


def _basis_from_document(doc) -> LatticeBasis:
    """Build an exact polynomial basis from the reduce matrix document."""
    if not isinstance(doc, dict):
        raise ConfigError(["matrix file must be a JSON object"])
    problems = [f"matrix file: unknown key {k!r}" for k in sorted(set(doc) - {"p", "e", "entries"})]
    p = doc.get("p")
    e = doc.get("e", 1)
    if _prime_check(p):
        problems.append("matrix file: p must be a prime in " + ", ".join(map(str, _PRIMES)))
    if _int_check(1, 4)(e):
        problems.append("matrix file: e must be an integer in [1, 4]")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        problems.append("matrix file: entries must be a non-empty square array")
        raise ConfigError(problems)
    r = len(entries)
    if any(not isinstance(row, list) or len(row) != r for row in entries):
        problems.append("matrix file: entries must be a square array of polynomials")
    if problems:
        raise ConfigError(problems)
    fs = FieldSpec(p, e)
    rows = []
    for i, row in enumerate(entries):
        out_row = []
        for j, coeffs in enumerate(row):
            series = _poly_series(fs, coeffs, f"entries[{i}][{j}]", problems)
            out_row.append(series)
        rows.append(out_row)
    if problems:
        raise ConfigError(problems)
    return LatticeBasis(fs, rows)


def _check_reduce(v: dict):
    if v["matrix"] is None:
        yield "reduce needs matrix = PATH (a JSON matrix file)"


def _run_reduce(config: ExperimentConfig):
    path = Path(config.matrix)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError([f"cannot read matrix file {config.matrix}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"matrix file {config.matrix}: invalid JSON: {exc}"]) from exc
    basis = _basis_from_document(doc)
    reduced = weak_popov(basis)
    depth = lattice_delta(reduced)
    minima = successive_minima(reduced)
    rows = [(i, int(expo)) for i, expo in enumerate(minima.exponents)]
    summary = {
        "matrix": config.matrix,
        "s": basis.field.s,
        "rank": basis.rank,
        "delta": depth.value,
        "certified": depth.certified,
        "minima": [int(expo) for expo in minima.exponents],
        "minima_sum": int(sum(minima.exponents)),
    }
    return ("index", "exponent"), rows, summary, "delta"


# ---------------------------------------------------------------------------
# the experiment registry


@dataclass(frozen=True)
class Experiment:
    """One experiment tag: its subcommand help line, the config keys it
    takes beside the common ones, its defaults where they differ from the
    key table, its runner, and a cross-check yielding the violations of
    constraints that couple its keys."""

    help: str
    keys: tuple[str, ...]
    run: Callable[[ExperimentConfig], tuple]
    defaults: dict = field(default_factory=dict)
    check: Callable[[dict], Iterable[str]] = lambda values: ()


_FLOW_KEYS = ("p", "e", "m", "n")
_PSI_KEYS = ("psi", "psi_c", "psi_tau", "psi_sigma")

# One record per tag; the order is the order of --help and error messages.
EXPERIMENTS = {
    "delta-flow": Experiment(
        "depth trajectories of the diagonal flow on sampled lattices",
        _FLOW_KEYS + ("T", "trials", "precision"),
        _run_delta_flow,
    ),
    "kg-mc": Experiment(
        "persistence dichotomy for psi-approximation over sampled matrices",
        _FLOW_KEYS + ("q_max", "trials", "precision") + _PSI_KEYS,
        _run_kg_mc,
        {"trials": 100},
        _check_kg_mc,
    ),
    "mult-mc": Experiment(
        "multiplicative solution counts below a norm bound",
        _FLOW_KEYS + ("q_max", "trials", "precision", "cap") + _PSI_KEYS,
        _run_mult_mc,
        {"trials": 8, "q_max": 5},
    ),
    "strong-bc": Experiment(
        "hit-count ratios against the expected tail sum",
        _FLOW_KEYS + ("T", "trials", "precision", "burn_in", "rate", "rate_c"),
        _run_strong_bc,
        # the borderline log ladder only crosses the divergence floor
        # around T ~ 10^4, so the default horizon sits above it
        {"T": 10_000, "trials": 20, "rate": "log"},
        _check_strong_bc,
    ),
    "cusp-volume": Experiment(
        "cusp tail sums against the power-law comparator",
        ("rank", "q", "t_lo", "t_hi"),
        _run_cusp_volume,
        check=_check_cusp_volume,
    ),
    "tree-loglaw": Experiment(
        "logarithm law for geodesic depth on the quotient ray",
        ("q", "T", "trials", "rate", "rate_c"),
        _run_tree_loglaw,
        {"T": 10_000, "trials": 50},
        _check_tree_loglaw,
    ),
    "xi-decay": Experiment(
        "exact spherical averages and their decay fit",
        ("p", "e", "t_max", "sigma_max", "samples", "precision"),
        _run_xi_decay,
        check=_check_xi_decay,
    ),
    "reduce": Experiment(
        "one-shot lattice reduction from a matrix file",
        ("matrix",),
        _run_reduce,
        check=_check_reduce,
    ),
}


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class RunReport:
    """Everything the run promised: config echo, summary, verdict, stamp.

    Deterministic for a fixed (config, seed, version) triple apart from
    the wall-clock entry, which never reaches the data artifact.
    """

    config: ExperimentConfig
    summary: dict
    columns: tuple[str, ...]
    headline: str
    passed: bool
    version: str
    wall_clock: float
    artifact: str
    report_path: str

    def as_dict(self) -> dict:
        thresholds = None
        if self.config.threshold_min is not None or self.config.threshold_max is not None:
            thresholds = {
                "min": self.config.threshold_min,
                "max": self.config.threshold_max,
            }
        return {
            "schema": REPORT_SCHEMA,
            "tag": self.config.tag,
            "config": _jsonable(self.config.echo()),
            "summary": _jsonable(self.summary),
            "columns": list(self.columns),
            "headline": self.headline,
            "headline_value": _jsonable(self.summary.get(self.headline)),
            "thresholds": thresholds,
            "passed": self.passed,
            "version": self.version,
            "wall_clock_seconds": self.wall_clock,
            "artifact": Path(self.artifact).name,
        }

    def outcome_lines(self) -> list[str]:
        tag = self.config.tag
        value = self.summary.get(self.headline)
        lines = [f"{tag}: {self.headline} = {_cell(value)}"]
        if self.config.threshold_min is None and self.config.threshold_max is None:
            lines.append(f"{tag}: pass (no thresholds configured)")
        else:
            lo = "-inf" if self.config.threshold_min is None else f"{self.config.threshold_min:g}"
            hi = "inf" if self.config.threshold_max is None else f"{self.config.threshold_max:g}"
            verdict = "pass" if self.passed else "FAIL"
            lines.append(f"{tag}: {verdict} against thresholds [{lo}, {hi}]")
        lines.append(f"wrote {self.artifact}")
        lines.append(f"wrote {self.report_path}")
        return lines


def _within_thresholds(config: ExperimentConfig, value) -> bool:
    lo, hi = config.threshold_min, config.threshold_max
    if lo is None and hi is None:
        return True
    if value is None:
        return False
    value = float(value)
    if lo is not None and value < lo:
        return False
    if hi is not None and value > hi:
        return False
    return True


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run one experiment and write its artifact and report files."""
    start = time.perf_counter()
    columns, rows, summary, headline = EXPERIMENTS[config.tag].run(config)
    wall = time.perf_counter() - start
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    suffix = "csv" if config.format == "csv" else "json"
    artifact = out / f"{config.tag}.{suffix}"
    if config.format == "csv":
        artifact.write_text(_csv_text(config.tag, columns, rows))
    else:
        artifact.write_text(_json_text(config.tag, columns, rows, summary))
    report_path = out / f"{config.tag}-report.json"
    report = RunReport(
        config=config,
        summary=summary,
        columns=tuple(columns),
        headline=headline,
        passed=_within_thresholds(config, summary.get(headline)),
        version=__version__,
        wall_clock=wall,
        artifact=str(artifact),
        report_path=str(report_path),
    )
    report_path.write_text(json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n")
    return report


# ---------------------------------------------------------------------------
# command line


class _Parser(argparse.ArgumentParser):
    """Usage problems raise ConfigError so the exit code stays 1."""

    def error(self, message):
        raise ConfigError([message])


def _seed_argument(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError("seed must be a decimal unsigned integer")
    value = int(text)
    if value >= 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffdyn", description="experiment runner")
    parser.add_argument(
        "--version", action="version", version=f"ffdyn {__version__}"
    )
    sub = parser.add_subparsers(dest="tag", metavar="experiment", required=True)
    for tag, experiment in EXPERIMENTS.items():
        p = sub.add_parser(tag, help=experiment.help)
        p.add_argument("--config", metavar="PATH", help="key=value or JSON config file")
        p.add_argument(
            "--seed",
            type=_seed_argument,
            metavar="N",
            help="master seed (decimal u64); overrides the config file",
        )
        p.add_argument("--out", metavar="DIR", help="output directory (default: runs)")
        p.add_argument(
            "--threads",
            type=int,
            metavar="N",
            help="accepted for compatibility and has no effect: every "
            "experiment runs its trials in one thread",
        )
        p.add_argument(
            "--format", choices=("csv", "json"), help="artifact format (default: csv)"
        )
    return parser


def _config_from_args(args) -> ExperimentConfig:
    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError([f"cannot read config file {args.config}: {exc}"]) from exc
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.format is not None:
        overrides["format"] = args.format
    return parse_config(text, tag=args.tag, overrides=overrides)


def _reproduction(argv: list[str]) -> str:
    return "python -m ffdyn " + " ".join(shlex.quote(a) for a in argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    try:
        report = run_experiment(config)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        print(f"reproduce: {_reproduction(argv)}", file=sys.stderr)
        return 1
    except Exception as exc:
        origin = type(exc).__module__
        print(f"error [{origin}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        print(f"reproduce: {_reproduction(argv)}", file=sys.stderr)
        return 1
    for line in report.outcome_lines():
        print(line)
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
