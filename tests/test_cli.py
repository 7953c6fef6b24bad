"""Tests for the experiment runner: config validation, artifact schemas,
determinism and exit codes."""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from ffdyn.cli import EXPERIMENTS, build_parser, main, parse_config, run_experiment
from ffdyn.errors import ConfigError


# ---------------------------------------------------------------------------
# config parsing


def test_minimal_config_fills_defaults():
    cfg = parse_config("seed = 7", tag="kg-mc")
    assert cfg.tag == "kg-mc"
    assert cfg.seed == 7
    assert cfg.trials == 100
    assert cfg.q_max == 8
    assert cfg.psi == "power"
    assert cfg.out == "runs"
    echo = cfg.echo()
    assert echo["tag"] == "kg-mc"
    assert echo["seed"] == 7
    assert "q_max" in echo
    assert "matrix" not in echo


def test_json_config_document():
    cfg = parse_config('{"seed": 3, "T": 32, "trials": 2}', tag="delta-flow")
    assert cfg.T == 32
    assert cfg.trials == 2


def test_tag_read_from_document():
    cfg = parse_config('{"tag": "tree-loglaw", "seed": 1, "q": 3}')
    assert cfg.tag == "tree-loglaw"
    assert cfg.q == 3


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError) as info:
        parse_config("seed = 1\nfoo = 2", tag="kg-mc")
    assert any("foo" in v for v in info.value.violations)


def test_nonprime_p_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("seed = 1\np = 4", tag="kg-mc")
    assert any("prime" in v for v in info.value.violations)


def test_tree_order_must_be_a_prime_power(tmp_path):
    for tag in ("tree-loglaw", "cusp-volume"):
        assert parse_config("seed = 1\nq = 4", tag=tag).q == 4
        with pytest.raises(ConfigError) as info:
            parse_config("seed = 1\nq = 6", tag=tag)
        assert info.value.violations == ["q: must be a prime power"]
    cfg = _write(tmp_path / "c.cfg", "q = 6\nT = 1000\ntrials = 2\nseed = 9\n")
    out = tmp_path / "out"
    assert main(["tree-loglaw", "--config", str(cfg), "--out", str(out)]) == 1


def test_missing_seed_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("trials = 5", tag="kg-mc")
    assert any("seed" in v for v in info.value.violations)


def test_all_violations_reported_not_just_first():
    with pytest.raises(ConfigError) as info:
        parse_config("foo = 1\np = 4\n", tag="kg-mc")
    text = "\n".join(info.value.violations)
    assert "foo" in text
    assert "prime" in text
    assert "seed" in text
    assert len(info.value.violations) >= 3


def test_key_not_applicable_to_tag():
    with pytest.raises(ConfigError) as info:
        parse_config("seed = 1\nq = 3", tag="kg-mc")
    assert any("does not apply" in v for v in info.value.violations)


def test_tag_mismatch_between_document_and_subcommand():
    with pytest.raises(ConfigError) as info:
        parse_config('{"tag": "kg-mc", "seed": 1}', tag="delta-flow")
    assert any("requested" in v for v in info.value.violations)


def test_duplicate_and_malformed_lines():
    with pytest.raises(ConfigError) as info:
        parse_config("seed = 1\nseed = 2\nnonsense line", tag="delta-flow")
    text = "\n".join(info.value.violations)
    assert "duplicate" in text
    assert "expected key = value" in text


def test_value_type_checked():
    with pytest.raises(ConfigError) as info:
        parse_config("seed = 1\ntrials = 2.5", tag="kg-mc")
    assert any("trials" in v and "integer" in v for v in info.value.violations)


def test_seed_cap_checked():
    with pytest.raises(ConfigError) as info:
        parse_config(f"seed = {2**64}", tag="delta-flow")
    assert any("2^64" in v for v in info.value.violations)


def test_overrides_win_over_document():
    cfg = parse_config("seed = 1\nout = a", tag="delta-flow", overrides={"seed": 9})
    assert cfg.seed == 9
    assert cfg.out == "a"


def test_cross_key_constraints():
    with pytest.raises(ConfigError):
        parse_config("seed = 1\nt_lo = 10\nt_hi = 2", tag="cusp-volume")
    with pytest.raises(ConfigError):
        parse_config("seed = 1\npsi = zero", tag="kg-mc")
    with pytest.raises(ConfigError):
        parse_config("seed = 1\nsamples = 1", tag="xi-decay")
    with pytest.raises(ConfigError):
        parse_config(
            "seed = 1\nthreshold_min = 2\nthreshold_max = 1", tag="tree-loglaw"
        )
    with pytest.raises(ConfigError):
        parse_config("seed = 1", tag="reduce")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nseed = 4\n  # indented\n", tag="delta-flow")
    assert cfg.seed == 4


def test_work_caps_reject_unfinishable_configs():
    # s^(n(q_max+1)) = 2^65 kg-mc candidates and s^(2 t_max+1) = 13^13
    # xi-decay classes; both are refused before anything runs
    with pytest.raises(ConfigError) as info:
        parse_config("seed = 1\np = 2\nn = 1\nq_max = 64", tag="kg-mc")
    assert any("2^65 candidates" in v and "100,000" in v for v in info.value.violations)
    with pytest.raises(ConfigError) as info:
        parse_config("seed = 1\np = 13\nt_max = 6", tag="xi-decay")
    assert any("13^13 congruence classes" in v and "10,000,000" in v for v in info.value.violations)


def test_kg_mc_cap_counts_the_rows_each_path_builds():
    # the walk builds one row per unit class: (3^11 - 1) / 2 = 88,573 of the
    # 3^11 = 177,147 candidates, and (4^9 - 1) / 3 = 87,381 at e = 2; the
    # next degree, (4^10 - 1) / 3 = 349,525, is refused
    cfg = parse_config("seed = 1\np = 3\nn = 1\nq_max = 10", tag="kg-mc")
    assert cfg.q_max == 10
    cfg = parse_config("seed = 1\np = 2\ne = 2\nn = 1\nq_max = 8", tag="kg-mc")
    assert cfg.q_max == 8
    with pytest.raises(ConfigError) as info:
        parse_config("seed = 1\np = 2\ne = 2\nn = 1\nq_max = 9", tag="kg-mc")
    assert any("4^10 candidates" in v for v in info.value.violations)


def test_every_experiment_listing_follows_the_registry():
    import test_acceptance

    tags = list(EXPERIMENTS)
    root = Path(__file__).resolve().parents[1]
    readme = root.joinpath("README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = [
        line.split("|")[1].strip()
        for line in section.splitlines()
        if line.startswith("|") and not line.startswith("|-")
    ]
    assert table[1:] == tags
    configs = sorted(root.glob("scripts/configs/*.cfg"))
    assert sorted(path.stem for path in configs) == sorted(tags)
    for path in configs:
        assert parse_config(path.read_text()).tag == path.stem
    assert list(test_acceptance._CLI_CONFIGS) == tags
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(subparsers.choices) == tags


# ---------------------------------------------------------------------------
# runs and artifacts


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _report(out: Path, tag: str) -> dict:
    return json.loads((out / f"{tag}-report.json").read_text())


def test_delta_flow_csv_schema(tmp_path):
    cfg = _write(tmp_path / "c.cfg", "T = 16\ntrials = 3\nseed = 5\n")
    out = tmp_path / "out"
    code = main(["delta-flow", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = (out / "delta-flow.csv").read_text().splitlines()
    assert lines[0] == "# schema ffdyn.delta-flow.v1"
    assert lines[1] == "trial,t,delta,certified"
    assert len(lines) == 2 + 3 * 17
    report = _report(out, "delta-flow")
    assert report["schema"] == "ffdyn.report.v1"
    assert report["config"]["seed"] == 5
    assert report["config"]["trials"] == 3
    assert report["passed"] is True
    assert report["artifact"] == "delta-flow.csv"
    assert report["wall_clock_seconds"] >= 0
    assert report["summary"]["certified_fraction"] == 1.0


# sha256 of the artifacts of the sample configs, as scripts/run_all.sh
# records them in runs/SHA256SUMS; reduce is left out because its matrix
# path resolves from the working directory.  The Monte Carlo configs draw
# from counter-based streams, so any change in the draws or in the
# arithmetic on them shows up here.
SAMPLE_ARTIFACT_SHA256 = {
    "cusp-volume": "fff9947c3e9cd566bfe67feef0932ffd53e546acc81a0514813f38f9695c4bc4",
    "delta-flow": "f6fdf9cc543198833afdfe577ccb57397f247680e8a0db51abcb91e9ec518cc9",
    "kg-mc": "e89262e9168a8f55f24b6cd0ea8d4a93e147b9bdc71caec5ac4193859ec0abb0",
    "mult-mc": "ca6cb59f565549c0fa6a9aa57cf51a651016cc6a357d8ddb5a16696bb2d75d6e",
    "strong-bc": "e6a54a102f0493924946711aa36c0f5236d5cdab619d4d0ca9f7d0d7c573ac6c",
    "tree-loglaw": "5cdd45b9e94341f605c571cca0913ae70b48028e21c5ae0ac17ec05391308a36",
    "xi-decay": "8bea6e1ea9fc5744ad82be7b75d8838e61581979161dd1160b3ce7555976a533",
}


@pytest.mark.parametrize("tag", sorted(SAMPLE_ARTIFACT_SHA256))
def test_sample_config_artifact_digest(tag, tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "configs" / f"{tag}.cfg"
    report = run_experiment(parse_config(path.read_text(), overrides={"out": str(tmp_path)}))
    digest = hashlib.sha256(Path(report.artifact).read_bytes()).hexdigest()
    assert digest == SAMPLE_ARTIFACT_SHA256[tag]


# a strong-bc run over F_4, whose ladder runs on bit planes; the digest was
# recorded while every p = 2 extension field divided coefficient arrays
STRONG_BC_F4_SHA256 = "a123f3586a266c890173585162ea43d2a7cf16594d33ac5eb70d4ae1193ca75f"


def test_strong_bc_f4_artifact_digest(tmp_path):
    text = (
        "tag = strong-bc\np = 2\ne = 2\nT = 2000\ntrials = 6\n"
        "rate = log\nrate_c = 0.5\nseed = 1104\n"
    )
    report = run_experiment(parse_config(text, overrides={"out": str(tmp_path)}))
    digest = hashlib.sha256(Path(report.artifact).read_bytes()).hexdigest()
    assert digest == STRONG_BC_F4_SHA256


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path / "c.cfg", "T = 16\ntrials = 2\nseed = 5\n")
    out = tmp_path / "out"

    def run():
        assert main(["delta-flow", "--config", str(cfg), "--out", str(out)]) == 0
        artifact = (out / "delta-flow.csv").read_bytes()
        report = _report(out, "delta-flow")
        report.pop("wall_clock_seconds")
        return artifact, report

    first = run()
    second = run()
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path / "c.cfg", "T = 8\ntrials = 1\nseed = 1\n")
    out = tmp_path / "out"
    code = main(["delta-flow", "--config", str(cfg), "--seed", "2", "--out", str(out)])
    assert code == 0
    assert _report(out, "delta-flow")["config"]["seed"] == 2


def test_strong_bc_threads_do_not_change_artifacts(tmp_path):
    cfg = _write(
        tmp_path / "c.cfg", "T = 4200\ntrials = 4\nseed = 11\nrate = log\nrate_c = 0.5\n"
    )
    outputs = []
    for name, threads in (("a", "1"), ("b", "3")):
        out = tmp_path / name
        code = main(
            ["strong-bc", "--config", str(cfg), "--out", str(out), "--threads", threads]
        )
        assert code == 0
        outputs.append((out / "strong-bc.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_strong_bc_divergent_ratio_law(tmp_path):
    cfg = _write(
        tmp_path / "c.cfg",
        "T = 10000\ntrials = 4\nseed = 11\nrate = log\nrate_c = 0.5\n",
    )
    out = tmp_path / "out"
    assert main(["strong-bc", "--config", str(cfg), "--out", str(out)]) == 0
    report = _report(out, "strong-bc")
    assert report["summary"]["classification"] == "divergent: ratio law"
    assert report["headline"] == "median_terminal_ratio"
    assert 0.5 < report["headline_value"] < 1.5
    lines = (out / "strong-bc.csv").read_text().splitlines()
    assert lines[1].split(",")[-1] == "median_ratio"
    assert lines[-1].split(",")[-1] != ""


def test_strong_bc_convergent_counts_bounded(tmp_path):
    cfg = _write(
        tmp_path / "c.cfg",
        "T = 128\ntrials = 3\nseed = 11\nrate = linear\nrate_c = 1\n",
    )
    out = tmp_path / "out"
    assert main(["strong-bc", "--config", str(cfg), "--out", str(out)]) == 0
    report = _report(out, "strong-bc")
    assert report["summary"]["classification"] == "convergent: counts bounded"
    assert report["headline"] == "max_final_count"
    lines = (out / "strong-bc.csv").read_text().splitlines()
    assert lines[-1].endswith(",")


def test_tree_loglaw_json_contains_median_ratio(tmp_path):
    cfg = _write(tmp_path / "c.cfg", "q = 2\nT = 1000\ntrials = 5\nseed = 9\n")
    out = tmp_path / "out"
    code = main(
        ["tree-loglaw", "--config", str(cfg), "--out", str(out), "--format", "json"]
    )
    assert code == 0
    doc = json.loads((out / "tree-loglaw.json").read_text())
    assert doc["schema"] == "ffdyn.tree-loglaw.v1"
    assert "median_ratio" in doc
    assert len(doc["rows"]) == 5
    assert doc["columns"] == ["trial", "max_level", "ratio"]


def test_tree_loglaw_rate_classification(tmp_path):
    cfg = _write(
        tmp_path / "c.cfg",
        "q = 2\nT = 2000\ntrials = 3\nseed = 9\nrate = log\nrate_c = 2\n",
    )
    out = tmp_path / "out"
    assert main(["tree-loglaw", "--config", str(cfg), "--out", str(out)]) == 0
    report = _report(out, "tree-loglaw")
    assert report["summary"]["series_divergent"] is False
    assert report["summary"]["rate"] == "log(c=2)"


def test_cusp_volume_band(tmp_path):
    # in rank 1 the pairing is always even, so the band is exactly q
    cfg = _write(
        tmp_path / "c.cfg",
        "rank = 1\nq = 2\nt_lo = 2\nt_hi = 12\nseed = 1\nthreshold_max = 10\n",
    )
    out = tmp_path / "out"
    assert main(["cusp-volume", "--config", str(cfg), "--out", str(out)]) == 0
    report = _report(out, "cusp-volume")
    assert report["summary"]["ratio_band"] == pytest.approx(2.0, rel=1e-9)
    lines = (out / "cusp-volume.csv").read_text().splitlines()
    assert len(lines) == 2 + 11


def test_xi_decay_csv_matches_closed_form(tmp_path):
    cfg = _write(tmp_path / "c.cfg", "t_max = 3\nseed = 1\n")
    out = tmp_path / "out"
    assert main(["xi-decay", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "xi-decay.csv").read_text().splitlines()
    assert lines[0] == "# schema ffdyn.xi-decay.v1"
    assert lines[1] == "t,xi_exact,xi_float,depth,xi_mc,stderr"
    for line in lines[2:]:
        cells = line.split(",")
        t = int(cells[0])
        assert cells[1] == str(oracles.xi_closed_form(2, t))
        assert cells[4] == "" and cells[5] == ""
    report = _report(out, "xi-decay")
    assert report["summary"]["sigma"] == 2
    assert report["headline"] == "sigma"


def test_xi_decay_with_sampling_backend(tmp_path):
    cfg = _write(tmp_path / "c.cfg", "t_max = 3\nsamples = 200\nseed = 1\n")
    out = tmp_path / "out"
    assert main(["xi-decay", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "xi-decay.csv").read_text().splitlines()
    cells = lines[-1].split(",")
    assert cells[4] != "" and cells[5] != ""
    assert 0.0 < float(cells[4]) <= 1.0


def test_mult_mc_rows(tmp_path):
    cfg = _write(tmp_path / "c.cfg", "trials = 3\nq_max = 4\nseed = 2\n")
    out = tmp_path / "out"
    assert main(["mult-mc", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "mult-mc.csv").read_text().splitlines()
    assert lines[1] == "trial,solutions,degenerate,checked"
    assert len(lines) == 2 + 3
    report = _report(out, "mult-mc")
    assert report["summary"]["total_solutions"] >= 0
    assert report["summary"]["psi"].startswith("power")


def test_kg_threshold_exit_codes(tmp_path):
    base = "trials = 12\nq_max = 5\nseed = 3\npsi_tau = 2\n"
    cfg = _write(tmp_path / "fail.cfg", base + "threshold_min = 0.5\n")
    out = tmp_path / "out1"
    assert main(["kg-mc", "--config", str(cfg), "--out", str(out)]) == 2
    report = _report(out, "kg-mc")
    assert report["passed"] is False
    assert report["thresholds"] == {"min": 0.5, "max": None}

    cfg = _write(tmp_path / "pass.cfg", base + "threshold_max = 0.5\n")
    out = tmp_path / "out2"
    assert main(["kg-mc", "--config", str(cfg), "--out", str(out)]) == 0
    assert _report(out, "kg-mc")["passed"] is True


def test_reduce_known_matrix(tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(
        json.dumps({"p": 2, "e": 1, "entries": [[[0, 1], [1]], [[0], [1]]]})
    )
    cfg = _write(tmp_path / "c.cfg", f"matrix = {matrix}\nseed = 1\n")
    out = tmp_path / "out"
    assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
    report = _report(out, "reduce")
    assert report["summary"]["delta"] == 0
    assert report["summary"]["minima"] == [0, 1]
    assert report["summary"]["certified"] is True
    lines = (out / "reduce.csv").read_text().splitlines()
    assert lines[1] == "index,exponent"
    assert lines[2:] == ["0,0", "1,1"]


def test_reduce_missing_matrix_file(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", "matrix = /nonexistent/m.json\nseed = 1\n")
    code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "cannot read matrix file" in err
    assert "reproduce: python -m ffdyn reduce" in err


def test_reduce_malformed_matrix(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"p": 2, "entries": [[[1], [1]]]}))
    cfg = _write(tmp_path / "c.cfg", f"matrix = {matrix}\nseed = 1\n")
    code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "square" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main(["delta-flow", "--seed", "1", "--format", "xml"]) == 1
    assert main([]) == 1
    assert main(["delta-flow", "--seed", "-3"]) == 1
    assert main(["delta-flow", "--seed", str(2**64)]) == 1
    assert main(["no-such-experiment", "--seed", "1"]) == 1
    capsys.readouterr()


def test_module_error_names_module_and_reproduction(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", "T = 64\ntrials = 1\nseed = 5\nprecision = 4\n")
    code = main(["delta-flow", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "ffdyn.errors.CertificationError" in err
    assert "reproduce: python -m ffdyn delta-flow" in err


def test_sharded_module_error_matches_serial(tmp_path, capsys, monkeypatch):
    # trial 4 of 6 is the first uncertified one; at --threads 3 it runs in
    # the last forked shard, and the error reads as in the serial run
    monkeypatch.setattr("ffdyn.streams._usable_cpus", lambda: 3)
    cfg = _write(
        tmp_path / "c.cfg",
        "T = 64\ntrials = 6\nseed = 4\nburn_in = 4\nprecision = 138\nrate = log\n",
    )
    errors = []
    for threads in ("1", "3"):
        out = tmp_path / threads
        argv = ["strong-bc", "--config", str(cfg), "--out", str(out), "--threads", threads]
        assert main(argv) == 1
        errors.append(capsys.readouterr().err.splitlines()[0])
    assert errors[0].startswith("error [ffdyn.errors.CertificationError]: trial 4 uncertified")
    assert errors[1] == errors[0]


def test_missing_config_file(capsys):
    assert main(["delta-flow", "--seed", "1", "--config", "/nonexistent.cfg"]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_nested_out_directory_created(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    cfg = _write(tmp_path / "c.cfg", "T = 4\ntrials = 1\nseed = 1\n")
    assert main(["delta-flow", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "delta-flow.csv").exists()


def test_python_m_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ffdyn", "xi-decay", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "xi-decay.csv").exists()
    assert "xi-decay: sigma = 2" in proc.stdout
