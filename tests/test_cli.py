"""Command-line workflows: conversion, evaluation, optimization, coverage."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfdro import cli, dro
from cfdro.cli import main
from cfdro.data import (
    read_bandit_log,
    synthetic_multilabel_dataset,
    write_bandit_log,
    write_libsvm_multilabel,
)
from cfdro.estimators import BanditLog, CostScale
from cfdro.policies import LinearPolicy, Multiclass, save_policy


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConvert:
    def test_smoke_and_record_count(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "convert", "--data", "bundled:synthetic", "--output-dir", str(out),
            "-P", "4", "--seed", "0",
        ])
        assert code == 0
        log = read_bandit_log(out / "bandit_log.jsonl")
        assert log.n == 400  # 200 rows, half in the train split, four replays
        assert (out / "logging_policy.json").exists()
        assert (out / "splits.json").exists()
        config = json.loads((out / "config.json").read_text())
        assert config["command"] == "convert"
        assert "artifact_version" in config

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "convert", "--data", "bundled:synthetic", "--output-dir", str(out),
                "-P", "2", "--seed", "7",
            ]) == 0
        for name in ("bandit_log.jsonl", "logging_policy.json", "splits.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_zero_replay_count_is_a_validation_error(self, tmp_path):
        code = main([
            "convert", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"),
            "-P", "0",
        ])
        assert code == 1

    def test_missing_file_is_a_validation_error(self, tmp_path):
        code = main([
            "convert", "--data", str(tmp_path / "nope.svm"), "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 1

    def test_bad_fractions_are_a_validation_error(self, tmp_path):
        code = main([
            "convert", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"),
            "--train-frac", "0.9", "--validation-frac", "0.3", "--test-frac", "0.3",
        ])
        assert code == 1

    def test_nonpositive_temperature_is_a_validation_error(self, tmp_path, capsys):
        code = main([
            "convert", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"),
            "--temperature", "0",
        ])
        assert code == 1
        assert "temperature must be positive" in capsys.readouterr().err

    def test_non_finite_libsvm_value_is_a_validation_error_with_its_line(self, tmp_path, capsys):
        data = tmp_path / "data.svm"
        data.write_text("0 1:0.5 2:1.0\n1 1:0.25 2:nan\n0,1 2:2.0\n")
        code = main(["convert", "--data", str(data), "--output-dir", str(tmp_path / "x")])
        assert code == 1
        assert "line 2: feature 2 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_infinite_temperature_is_a_validation_error(self, tmp_path, capsys):
        # it would write a checkpoint of a uniform policy that load_policy rejects
        code = main([
            "convert", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"),
            "--temperature", "inf",
        ])
        assert code == 1
        assert "temperature must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def make_constant_cost_artifacts(tmp_path):
    rng = np.random.default_rng(0)
    n = 30
    log = BanditLog(
        features=rng.normal(size=(n, 2)),
        actions=np.zeros(n, dtype=int),
        propensities=np.full(n, 0.5),
        costs_raw=np.full(n, -0.4),
        costs=np.full(n, -0.4),
        action_space=Multiclass(2),
        cost_scale=CostScale.identity(),
    )
    log_path = tmp_path / "log.jsonl"
    write_bandit_log(log, log_path)
    policy = LinearPolicy(theta=np.zeros((3, 2)), action_space=Multiclass(2))
    policy_path = tmp_path / "policy.json"
    save_policy(policy, policy_path)
    return log_path, policy_path


class TestEvaluate:
    def test_constant_cost_log_gives_degenerate_intervals(self, tmp_path):
        log_path, policy_path = make_constant_cost_artifacts(tmp_path)
        out = tmp_path / "intervals.csv"
        code = main([
            "evaluate", "--log", str(log_path), "--policy", str(policy_path),
            "--output", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 6  # four divergence rows plus two comparators
        dro_rows = [r for r in rows if r["method"].startswith("dro")]
        assert len(dro_rows) == 4
        for row in dro_rows:
            assert float(row["lower"]) == pytest.approx(-0.4, abs=1e-9)
            assert float(row["upper"]) == pytest.approx(-0.4, abs=1e-9)

    def test_delta_out_of_range_is_a_validation_error(self, tmp_path):
        log_path, policy_path = make_constant_cost_artifacts(tmp_path)
        code = main([
            "evaluate", "--log", str(log_path), "--policy", str(policy_path),
            "--delta", "1.5",
        ])
        assert code == 1

    def test_record_with_a_missing_key_is_a_validation_error(self, tmp_path, capsys):
        log_path, policy_path = make_constant_cost_artifacts(tmp_path)
        lines = log_path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["propensity"]
        lines[1] = json.dumps(record)
        log_path.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--log", str(log_path), "--policy", str(policy_path)])
        assert code == 1
        assert "line 2: missing key 'propensity'" in capsys.readouterr().err

    @pytest.mark.parametrize("line,bad", [(0, "[1, 2]"), (1, "[0.5, 0]")])
    def test_json_that_is_not_an_object_is_a_validation_error(self, tmp_path, capsys, line, bad):
        log_path, policy_path = make_constant_cost_artifacts(tmp_path)
        lines = log_path.read_text().splitlines()
        lines[line] = bad
        log_path.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--log", str(log_path), "--policy", str(policy_path)])
        assert code == 1
        assert f"line {line + 1}: the " in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,named,space", [
        ("propensity", None, "propensity", "factorized"),
        ("features", 3, "feature", "factorized"),
        ("action", 7, "action", "factorized"),
        ("cost_raw", None, "cost_raw", "factorized"),
        ("cost_scaled", "low", "cost_scaled", "factorized"),
        ("propensity", True, "propensity", "factorized"),
        (None, "{not json", "Expecting property name enclosed in double quotes (column 2)",
         "factorized"),
        ("features", ["a", 0.0, 0.0, 0.0, 0.0], "features: could not convert", "factorized"),
        ("features", [[1], 0.0, 0.0, 0.0, 0.0], "features: ", "factorized"),
        ("action", "x", "action: invalid literal", "multiclass"),
        ("action", 1e400, "action: ", "multiclass"),
        ("action", 1.5, "action: 1.5 is not an integer id", "multiclass"),
    ])
    def test_malformed_record_is_a_validation_error_with_its_line(
        self, tmp_path, capsys, key, value, named, space
    ):
        out = tmp_path / "run"
        assert main([
            "convert", "--data", "bundled:synthetic", "--output-dir", str(out), "-P", "1",
            "--action-space", space,
        ]) == 0
        log_path = out / "bandit_log.jsonl"
        lines = log_path.read_text().splitlines()
        if key is None:
            lines[3] = value
        else:
            record = json.loads(lines[3])
            record[key] = value
            lines[3] = json.dumps(record)
        log_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        policy_path = out / "logging_policy.json"
        code = main(["evaluate", "--log", str(log_path), "--policy", str(policy_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 4: " in err and named in err

    @pytest.mark.parametrize("key,inner,value,named", [
        ("cost_scale", "x", 1, "cost_scale"),
        ("cost_scale", None, [1, 2], "cost_scale"),
        ("cost_scale", "scale", "a", "cost_scale"),
        ("cost_scale", "offset", float("nan"), "cost_scale"),
        ("action_space", None, "factorized", "action_space"),
        ("action_space", "size", "x", "action_space"),
        ("n", None, "x", "n must be"),
        ("n", None, -1, "n must be"),
        ("feature_dim", None, -1, "feature_dim must be"),
        ("n", None, 10**6, "n: 1000000 records"),
    ])
    def test_malformed_header_is_a_validation_error_on_line_1(
        self, tmp_path, capsys, key, inner, value, named
    ):
        out = tmp_path / "run"
        assert main([
            "convert", "--data", "bundled:synthetic", "--output-dir", str(out), "-P", "1",
        ]) == 0
        log_path = out / "bandit_log.jsonl"
        lines = log_path.read_text().splitlines()
        header = json.loads(lines[0])
        if inner is None:
            header[key] = value
        else:
            header[key][inner] = value
        lines[0] = json.dumps(header)
        log_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main([
            "evaluate", "--log", str(log_path), "--policy", str(out / "logging_policy.json"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: line 1: ") and named in err

    @pytest.mark.parametrize("where", ["log header", "policy checkpoint"])
    @pytest.mark.parametrize("key,value", [
        ("size", 16.9), ("size", "16"), ("size", True), ("size", None),
        ("kind", "ranked"), ("kind", None),
    ])
    def test_malformed_action_space_is_a_validation_error(self, tmp_path, capsys, where, key, value):
        # None deletes the key
        out = tmp_path / "run"
        assert main([
            "convert", "--data", "bundled:synthetic", "--output-dir", str(out), "-P", "1",
            "--action-space", "multiclass",
        ]) == 0
        log_path, policy_path = out / "bandit_log.jsonl", out / "logging_policy.json"
        edited = log_path if where == "log header" else policy_path
        lines = edited.read_text().splitlines()
        payload = json.loads(lines[0])
        if value is None:
            del payload["action_space"][key]
        else:
            payload["action_space"][key] = value
        lines[0] = json.dumps(payload)
        edited.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["evaluate", "--log", str(log_path), "--policy", str(policy_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert key in err and ("line 1: action_space: " in err) == (where == "log header")

    @pytest.mark.parametrize("key,value,named", [
        ("theta", None, "'theta'"),
        ("action_space", None, "'action_space'"),
        ("temperature", None, "'temperature'"),
        ("temperature", "hot", "temperature must be a JSON number"),
        # json writes and reads these as Infinity and NaN
        ("temperature", float("inf"), "temperature must be positive and finite"),
        ("theta", [[0.0, float("nan")], [0.0, 0.0], [0.0, 0.0]], "theta must be finite"),
    ])
    def test_malformed_policy_checkpoint_is_a_validation_error(
        self, tmp_path, capsys, key, value, named
    ):
        # None deletes the key
        log_path, policy_path = make_constant_cost_artifacts(tmp_path)
        payload = json.loads(policy_path.read_text())
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        policy_path.write_text(json.dumps(payload) + "\n")
        code = main(["evaluate", "--log", str(log_path), "--policy", str(policy_path)])
        assert code == 1
        assert named in capsys.readouterr().err

    def test_checkpoint_that_is_not_an_object_is_a_validation_error(self, tmp_path, capsys):
        log_path, policy_path = make_constant_cost_artifacts(tmp_path)
        policy_path.write_text("[1, 2]\n")
        code = main(["evaluate", "--log", str(log_path), "--policy", str(policy_path)])
        assert code == 1
        assert "not a policy checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,named,space", [
        ("features", [None, 0.0, 0.0, 0.0, 0.0], "features must be finite", "factorized"),
        ("propensity", 1.5, "propensities must lie in (0, 1]", "factorized"),
        ("cost_scaled", 0.5, "rescaled costs must lie in [-1, 0]", "factorized"),
        ("cost_scaled", -1.5, "rescaled costs must lie in [-1, 0]", "multiclass"),
        ("action", 99, "action id out of range", "multiclass"),
        ("action", -1, "action id out of range", "multiclass"),
    ])
    @pytest.mark.parametrize("blank_lines", [0, 2])
    def test_out_of_range_record_value_is_a_validation_error_with_its_line(
        self, tmp_path, capsys, key, value, named, space, blank_lines
    ):
        # BanditLog's rules find the record; blank lines before it shift its line
        out = tmp_path / "run"
        assert main([
            "convert", "--data", "bundled:synthetic", "--output-dir", str(out), "-P", "1",
            "--action-space", space,
        ]) == 0
        log_path = out / "bandit_log.jsonl"
        lines = log_path.read_text().splitlines()
        record = json.loads(lines[5])
        record[key] = value
        lines[5] = json.dumps(record)
        lines[2:2] = [""] * blank_lines
        log_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        policy_path = out / "logging_policy.json"
        code = main(["evaluate", "--log", str(log_path), "--policy", str(policy_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: line {6 + blank_lines}: {named}" in err

    def test_single_divergence_selection(self, tmp_path, capsys):
        log_path, policy_path = make_constant_cost_artifacts(tmp_path)
        code = main([
            "evaluate", "--log", str(log_path), "--policy", str(policy_path),
            "--divergence", "kl",
        ])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split(",")[0] == "method"


class TestOptimize:
    def test_smoke_reports_both_risks(self, tmp_path):
        out = tmp_path / "opt"
        code = main([
            "optimize", "--data", "bundled:synthetic", "--output-dir", str(out),
            "--algos", "dro-chi2", "--repetitions", "2", "--max-iters", "60",
            "--seed", "0",
        ])
        assert code == 0
        summary = read_csv(out / "summary.csv")
        assert len(summary) == 1
        row = summary[0]
        assert row["algorithm"] == "dro-chi2"
        assert np.isfinite(float(row["risk_mean"]))
        assert np.isfinite(float(row["greedy_risk_mean"]))
        assert row["repetitions"] == "2"
        details = read_csv(out / "details.csv")
        assert len(details) == 2

    def test_poem_uses_the_documented_grid(self, tmp_path):
        out = tmp_path / "opt"
        code = main([
            "optimize", "--data", "bundled:synthetic", "--output-dir", str(out),
            "--algos", "poem", "--repetitions", "1", "--max-iters", "40", "--seed", "1",
        ])
        assert code == 0
        config = json.loads((out / "config.json").read_text())
        assert len(config["lambda_grid"]) == 7
        assert config["lambda_grid"][0] == pytest.approx(1e-4)
        assert config["lambda_grid"][-1] == pytest.approx(1.0)

    def test_summary_has_standard_deviations(self, tmp_path):
        out = tmp_path / "opt"
        code = main([
            "optimize", "--data", "bundled:synthetic", "--output-dir", str(out),
            "--algos", "ips", "--repetitions", "3", "--max-iters", "40", "--seed", "2",
        ])
        assert code == 0
        row = read_csv(out / "summary.csv")[0]
        assert float(row["risk_std"]) >= 0.0
        assert float(row["greedy_risk_std"]) >= 0.0

    def test_deterministic_under_a_fixed_seed(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main([
                "optimize", "--data", "bundled:synthetic", "--output-dir", str(out),
                "--algos", "dro-kl", "--repetitions", "1", "--max-iters", "40",
                "--seed", "11",
            ]) == 0
            outs.append((out / "summary.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_algorithm_is_a_validation_error(self, tmp_path):
        code = main([
            "optimize", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"),
            "--algos", "dqn",
        ])
        assert code == 1

    def test_stochastic_mode_and_variants_run(self, tmp_path):
        for extra in (["--mode", "stochastic", "--max-iters", "300"],
                      ["--variant", "cv", "--max-iters", "40"],
                      ["--variant", "logtrick", "--max-iters", "40"]):
            out = tmp_path / ("v" + extra[1])
            code = main([
                "optimize", "--data", "bundled:synthetic", "--output-dir", str(out),
                "--algos", "dro-chi2", "--repetitions", "1", "--seed", "4", *extra,
            ])
            assert code == 0
            assert np.isfinite(float(read_csv(out / "summary.csv")[0]["risk_mean"]))

    @pytest.mark.parametrize("flags,named", [
        (["--algos", "poem", "--lambda-grid", ","], "--lambda-grid"),
        (["--max-iters", "0"], "--max-iters"),
        (["--jobs", "0"], "--jobs"),
        (["--jobs", "-2"], "--jobs"),
        (["--algos", ","], "--algos"),
        (["--batch-size", "0"], "--batch-size"),
        (["--step-size", "-1"], "step_size must be positive"),
        (["--step-size", "inf"], "step_size must be positive and finite"),
    ])
    def test_bad_flag_values_are_validation_errors(self, tmp_path, capsys, flags, named):
        code = main([
            "optimize", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"),
            "--algos", "ips", "--repetitions", "1", "--max-iters", "5", *flags,
        ])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_stochastic_log_trick_is_a_validation_error_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        loads = []
        monkeypatch.setattr(cli, "_load_dataset", lambda path: loads.append(path))
        code = main([
            "optimize", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"),
            "--algos", "dro-chi2", "--repetitions", "1", "--mode", "stochastic",
            "--variant", "logtrick",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--mode stochastic" in err and "--variant logtrick" in err
        assert loads == []
        assert not (tmp_path / "x").exists()

    def test_worker_pool_is_capped_at_the_repetitions(self, tmp_path, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        assert main([
            "optimize", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"),
            "--algos", "ips", "--repetitions", "2", "--max-iters", "5", "--jobs", "8",
        ]) == 0
        assert sizes == [2]

    def test_config_holds_exactly_the_resolved_flags(self, tmp_path):
        out = tmp_path / "opt"
        assert main([
            "optimize", "--data", "bundled:synthetic", "--output-dir", str(out),
            "--algos", "ips", "--repetitions", "1", "--seed", "6",
        ]) == 0
        config = json.loads((out / "config.json").read_text())
        assert set(config) == {
            "action_space", "algos", "artifact_version", "batch_size", "command", "data",
            "delta", "jobs", "lambda_grid", "logging_frac", "max_iters", "mode",
            "replay_count", "repetitions", "seed", "step_size", "temperature", "test_frac",
            "train_frac", "validation_frac", "variant",
        }
        assert config["max_iters"] == 300 and config["seed"] == 6 and config["algos"] == ["ips"]

    def test_parallel_jobs_match_the_serial_run(self, tmp_path):
        results = []
        for name, jobs in (("serial", "1"), ("parallel", "2")):
            out = tmp_path / name
            assert main([
                "optimize", "--data", "bundled:synthetic", "--output-dir", str(out),
                "--algos", "ips", "--repetitions", "2", "--max-iters", "40",
                "--seed", "5", "--jobs", jobs,
            ]) == 0
            results.append((out / "details.csv").read_bytes())
        assert results[0] == results[1]


class TestCoverage:
    def test_smoke_row_structure(self, tmp_path):
        out = tmp_path / "cov"
        code = main([
            "coverage", "--data", "bundled:synthetic", "--output-dir", str(out),
            "--replay-counts", "1", "--replications", "1", "--seed", "0",
        ])
        assert code == 0
        rows = read_csv(out / "coverage.csv")
        assert len(rows) == 6  # one replication: four divergences + two comparators
        assert all(r["covered"] in ("0", "1") for r in rows)

    def test_bad_replay_counts_are_a_validation_error(self, tmp_path):
        code = main([
            "coverage", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"),
            "--replay-counts", "0,2",
        ])
        assert code == 1

    def test_multiple_replay_counts(self, tmp_path):
        out = tmp_path / "cov"
        code = main([
            "coverage", "--data", "bundled:synthetic", "--output-dir", str(out),
            "--replay-counts", "1,2", "--replications", "2", "--divergence", "chi2",
            "--seed", "3",
        ])
        assert code == 0
        rows = read_csv(out / "coverage.csv")
        assert len(rows) == 2 * 2 * 3  # two sizes, two replications, chi2 + two comparators
        assert {r["n"] for r in rows} == {"100", "200"}

    @pytest.mark.parametrize("flag,value,named", [
        ("--target-subset-frac", "0", "error: --target-subset-frac must lie in (0, 1]"),
        ("--target-perturbation", "nan", "error: --target-perturbation must be finite"),
        ("--target-perturbation", "inf", "error: --target-perturbation must be finite"),
        ("--target-policy", "missing.json", "missing.json"),
    ])
    def test_bad_target_flag_exits_before_any_fit(
        self, tmp_path, capsys, monkeypatch, flag, value, named
    ):
        fits = []
        monkeypatch.setattr(cli, "train_logging_policy", lambda *args: fits.append(args))
        monkeypatch.chdir(tmp_path)
        code = main(["coverage", "--data", "bundled:synthetic", "--output-dir", "x", flag, value])
        assert code == 1
        assert named in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "x").exists()

    def test_target_policy_checkpoint_is_evaluated(self, tmp_path):
        converted = tmp_path / "run"
        assert main([
            "convert", "--data", "bundled:synthetic", "--output-dir", str(converted), "-P", "1",
        ]) == 0
        out = tmp_path / "cov"
        assert main([
            "coverage", "--data", "bundled:synthetic", "--output-dir", str(out),
            "--replay-counts", "1", "-R", "1", "--divergence", "kl",
            "--target-policy", str(converted / "logging_policy.json"),
        ]) == 0
        assert len(read_csv(out / "coverage.csv")) == 3  # kl + two comparators

    @pytest.mark.parametrize("features,labels,field", [(7, 4, "feature_dim"), (5, 3, "n_labels")])
    def test_target_checkpoint_from_another_dataset_names_the_field(
        self, tmp_path, capsys, features, labels, field
    ):
        # the bundled dataset has 5 features and 4 labels
        other = tmp_path / "other.svm"
        write_libsvm_multilabel(synthetic_multilabel_dataset(60, labels, features, seed=1), other)
        converted = tmp_path / "run"
        assert main(["convert", "--data", str(other), "--output-dir", str(converted)]) == 0
        capsys.readouterr()
        code = main([
            "coverage", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "cov"),
            "--replay-counts", "1", "-R", "1", "--target-policy", str(converted / "logging_policy.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: the policy has ")
        assert not (tmp_path / "cov").exists()

    def test_target_fitted_on_a_subset_of_train(self, tmp_path):
        out = tmp_path / "cov"
        assert main([
            "coverage", "--data", "bundled:synthetic", "--output-dir", str(out),
            "--replay-counts", "1", "-R", "1", "--divergence", "chi2",
            "--target-subset-frac", "0.5",
        ]) == 0
        assert len(read_csv(out / "coverage.csv")) == 3

    def test_solver_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        # one golden-section step cannot certify, so the first interval's solve raises
        monkeypatch.setattr(dro, "_MAX_ITERS", 1)
        code = main([
            "coverage", "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"),
            "--replay-counts", "1", "-R", "1",
        ])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err


def test_libsvm_file_gives_the_bytes_of_the_bundled_dataset(tmp_path):
    data = tmp_path / "synthetic.svm"
    write_libsvm_multilabel(synthetic_multilabel_dataset(), data)
    logs = []
    for name, source in (("file", str(data)), ("bundled", "bundled:synthetic")):
        out = tmp_path / name
        assert main(["convert", "--data", source, "--output-dir", str(out), "-P", "2"]) == 0
        logs.append((out / "bandit_log.jsonl").read_bytes())
    assert logs[0] == logs[1]


def test_seed_falls_back_to_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CF_DRO_SEED", "21")
    out_env = tmp_path / "env"
    assert main([
        "convert", "--data", "bundled:synthetic", "--output-dir", str(out_env), "-P", "1",
    ]) == 0
    monkeypatch.delenv("CF_DRO_SEED")
    out_flag = tmp_path / "flag"
    assert main([
        "convert", "--data", "bundled:synthetic", "--output-dir", str(out_flag),
        "-P", "1", "--seed", "21",
    ]) == 0
    assert (out_env / "bandit_log.jsonl").read_bytes() == (out_flag / "bandit_log.jsonl").read_bytes()


@pytest.mark.parametrize("command", ["convert", "optimize", "coverage"])
@pytest.mark.parametrize("flag,env,named", [
    ("-3", None, "--seed must be a non-negative integer, got -3"),
    (None, "abc", "CF_DRO_SEED must be a non-negative integer, got 'abc'"),
    (None, "-1", "CF_DRO_SEED must be a non-negative integer, got '-1'"),
])
def test_bad_seed_is_a_validation_error_naming_its_source(
    tmp_path, capsys, monkeypatch, command, flag, env, named
):
    if env is None:
        monkeypatch.delenv("CF_DRO_SEED", raising=False)
    else:
        monkeypatch.setenv("CF_DRO_SEED", env)
    seed = [] if flag is None else ["--seed", flag]
    code = main([command, "--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x"), *seed])
    assert code == 1
    assert f"error: {named}\n" == capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["evaluate", "coverage"])
def test_divergence_list_with_no_names_is_a_validation_error(tmp_path, capsys, command):
    log_path, policy_path = make_constant_cost_artifacts(tmp_path)
    inputs = {
        "evaluate": ["--log", str(log_path), "--policy", str(policy_path)],
        "coverage": ["--data", "bundled:synthetic", "--output-dir", str(tmp_path / "x")],
    }
    code = main([command, *inputs[command], "--divergence", ","])
    assert code == 1
    assert "--divergence" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_usage_errors_exit_one():
    assert main(["evaluate"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1


def _fresh_interpreter(code):
    """Run ``code`` in a new Python process that imports this ``cfdro``; returns its stdout."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_importing_the_package_and_cli_loads_no_scipy():
    loaded = _fresh_interpreter(
        "import sys, cfdro, cfdro.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert loaded.strip() == "[]"


def test_evaluate_in_a_fresh_process_never_loads_scipy_optimize(tmp_path):
    run = tmp_path / "run"
    assert main([
        "convert", "--data", "bundled:synthetic", "--output-dir", str(run), "-P", "2",
    ]) == 0
    argv = [
        "evaluate", "--log", str(run / "bandit_log.jsonl"),
        "--policy", str(run / "logging_policy.json"), "--output", str(tmp_path / "intervals.csv"),
    ]
    out = _fresh_interpreter(
        f"import sys, cfdro.cli\ncode = cfdro.cli.main({argv!r})\n"
        "print(code, 'scipy.optimize' in sys.modules)"
    )
    assert out.splitlines()[-1] == "0 False"
