"""Command-line front end: convert, evaluate, optimize, coverage.

Every command is deterministic under a fixed seed, never mutates its
inputs, and writes its resolved configuration next to its outputs.  The
seed is taken from ``--seed`` when given, else from the ``CF_DRO_SEED``
environment variable, else 0.

Exit codes: 0 success, 1 validation error, 2 runtime or solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    LoggingPolicyConfig,
    SplitSpec,
    collect_bandit_log,
    parse_libsvm_multilabel,
    read_bandit_log,
    split_dataset,
    synthetic_multilabel_dataset,
    train_logging_policy,
    write_bandit_log,
)
from .divergences import DivergenceKind
from .dro import SolverError
from .estimators import ips_risk
from .intervals import coverage_experiment, risk_intervals, write_coverage_csv
from .optimize import OptimizerConfig, train_dro, train_log_trick, train_poem
from .policies import LinearPolicy, greedy_risk, load_policy, save_policy, true_risk

_BUNDLED_SYNTHETIC = "bundled:synthetic"
_DEFAULT_LAMBDA_GRID = "1e-4,4.64e-4,2.15e-3,1e-2,4.64e-2,2.15e-1,1"
_ALGO_CHOICES = ("ips", "poem", "dro-chi2", "dro-kl", "dro-burg", "dro-hellinger")


class _CliError(Exception):
    """Validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _CliError(message)


def _resolve_seed(value) -> int:
    """``--seed``, else ``CF_DRO_SEED``, else 0; a bad seed is rejected naming its source."""
    source, text = "--seed", value
    if value is None:
        source, text = "CF_DRO_SEED", os.environ.get("CF_DRO_SEED")
        if not text:
            return 0
    try:
        seed = int(text)
    except ValueError:
        seed = -1  # rejected below, as a negative seed is
    if seed < 0:
        raise _CliError(f"{source} must be a non-negative integer, got {text!r}")
    return seed


def _load_dataset(path: str):
    if path == _BUNDLED_SYNTHETIC:
        return synthetic_multilabel_dataset()
    target = Path(path)
    if not target.exists():
        raise _CliError(f"dataset file not found: {path}")
    return parse_libsvm_multilabel(target)


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _comma_list(item):
    """argparse type: a non-empty comma-separated list, each token read by ``item``."""

    def parse(text: str) -> list:
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        if not tokens:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
        try:
            return [item(tok) for tok in tokens]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value in {text!r}: {exc}") from exc

    return parse


def _parse_divergences(names: str):
    if names.strip().lower() == "all":
        return list(DivergenceKind)
    try:
        return _comma_list(DivergenceKind.from_name)(names)
    except argparse.ArgumentTypeError as exc:
        raise _CliError(f"argument --divergence: {exc}") from exc


def _write_config(out_dir: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["artifact_version"] = f"cfdro {__version__}"
    (out_dir / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _prepare_out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_SPLIT_FRACTIONS = ("train_frac", "validation_frac", "test_frac", "logging_frac")
_OPTIMIZER_FLAGS = ("mode", "max_iters", "batch_size", "step_size")


def _fit_logging_policy(rows, action_space: str, temperature: float) -> LinearPolicy:
    config = LoggingPolicyConfig(action_space=action_space, temperature=temperature)
    return train_logging_policy(rows, config)


def _split_and_fit(dataset, spec: SplitSpec, action_space: str, temperature: float):
    """``(splits, policy0)``: the seeded splits and the logging policy fitted on their logging rows."""
    splits = split_dataset(dataset, spec)
    return splits, _fit_logging_policy(splits.logging, action_space, temperature)


# ----------------------------------------------------------------------
# convert
# ----------------------------------------------------------------------


def cmd_convert(args) -> int:
    seed = _resolve_seed(args.seed)
    dataset = _load_dataset(args.data)
    spec = SplitSpec(seed=seed, **{key: getattr(args, key) for key in _SPLIT_FRACTIONS})
    splits, policy0 = _split_and_fit(dataset, spec, args.action_space, args.temperature)
    log = collect_bandit_log(splits.train, policy0, args.replay_count, seed=seed + 1)
    out = _prepare_out_dir(args.output_dir)
    write_bandit_log(log, out / "bandit_log.jsonl")
    save_policy(policy0, out / "logging_policy.json")
    (out / "splits.json").write_text(json.dumps(splits.indices, sort_keys=True) + "\n")
    _write_config(
        out,
        {
            "command": "convert",
            "data": args.data,
            "replay_count": args.replay_count,
            "fractions": [args.train_frac, args.validation_frac, args.test_frac],
            "logging_frac": args.logging_frac,
            "action_space": args.action_space,
            "temperature": args.temperature,
            "seed": seed,
            "n_records": log.n,
        },
    )
    print(f"wrote {log.n} records to {out / 'bandit_log.jsonl'}")
    return 0


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    if not 0 < args.delta < 1:
        raise _CliError("delta must lie in (0, 1)")
    log_path = Path(args.log)
    if not log_path.exists():
        raise _CliError(f"log file not found: {args.log}")
    log = read_bandit_log(log_path)
    policy = load_policy(args.policy)
    kinds = _parse_divergences(args.divergence)
    intervals = risk_intervals(log, policy, kinds, args.delta, args.weight_bound)
    rows = [
        [iv.method, kind, args.delta, iv.n, repr(iv.lower), repr(iv.upper), repr(iv.width)]
        for iv, kind in zip(intervals, [k.value for k in kinds] + ["", ""])
    ]
    header = ["method", "divergence", "delta", "n", "lower", "upper", "width"]
    if args.output == "-":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        _write_csv(Path(args.output), header, rows)
        print(f"wrote {len(rows)} intervals to {args.output}")
    return 0


# ----------------------------------------------------------------------
# optimize
# ----------------------------------------------------------------------


def _run_algorithm(algo, args, train_log, val_log, policy0, opt_config):
    """Train one algorithm on one repetition's logs; returns the final policy."""
    if algo == "ips":
        policy, _ = train_poem(train_log, 0.0, policy0, opt_config)
        return policy
    if algo == "poem":
        best = None
        for lam in args["lambda_grid"]:
            candidate, _ = train_poem(train_log, lam, policy0, opt_config)
            score = ips_risk(val_log, candidate)
            if best is None or score < best[0]:
                best = (score, candidate)
        return best[1]
    kind = DivergenceKind.from_name(algo.split("-", 1)[1])
    delta = args["delta"]
    if args["variant"] == "cv":
        policy, _ = train_dro(train_log, kind, delta, policy0, opt_config, rho="mean")
    elif args["variant"] == "logtrick":
        policy, _ = train_log_trick(train_log, kind, delta, policy0, opt_config)
    else:
        policy, _ = train_dro(train_log, kind, delta, policy0, opt_config)
    return policy


def _optimize_one_rep(payload):
    """Worker for one repetition; top-level so it can cross a process boundary.

    ``payload["args"]`` maps the optimize flags, by their argparse names, to
    their resolved values; ``payload["rep_seed"]`` seeds the repetition.
    """
    args = payload["args"]
    rep_seed = payload["rep_seed"]
    spec = SplitSpec(seed=rep_seed, **{key: args[key] for key in _SPLIT_FRACTIONS})
    splits, policy0 = _split_and_fit(payload["dataset"], spec, args["action_space"], args["temperature"])
    train_log = collect_bandit_log(splits.train, policy0, args["replay_count"], seed=rep_seed + 1)
    val_log = collect_bandit_log(splits.validation, policy0, args["replay_count"], seed=rep_seed + 2)
    opt_config = OptimizerConfig(seed=rep_seed, **{key: args[key] for key in _OPTIMIZER_FLAGS})
    results = []
    for algo in args["algos"]:
        policy = _run_algorithm(algo, args, train_log, val_log, policy0, opt_config)
        results.append(
            {
                "algorithm": algo,
                "repetition": payload["rep"],
                "risk": true_risk(policy, splits.test),
                "greedy_risk": greedy_risk(policy, splits.test),
            }
        )
    return results


def cmd_optimize(args) -> int:
    if not 0 < args.delta < 1:
        raise _CliError("delta must lie in (0, 1)")
    if args.mode == "stochastic" and args.variant == "logtrick":
        raise _CliError("--variant logtrick runs in batch mode only, not with --mode stochastic")
    for algo in args.algos:
        if algo not in _ALGO_CHOICES:
            raise _CliError(f"unknown algorithm {algo!r}; choose from {', '.join(_ALGO_CHOICES)}")
    # The workers' input and config.json are this one mapping, so they cannot drift apart.
    run = {key: value for key, value in vars(args).items() if key not in ("func", "output_dir")}
    run["seed"] = seed = _resolve_seed(args.seed)
    if args.max_iters is None:
        run["max_iters"] = 5000 if args.mode == "stochastic" else 300
    # the workers build the same config per repetition; building it here rejects bad flags early
    OptimizerConfig(seed=seed, **{key: run[key] for key in _OPTIMIZER_FLAGS})
    dataset = _load_dataset(args.data)
    payloads = [
        {"dataset": dataset, "args": run, "rep": rep, "rep_seed": seed + 1000 * rep}
        for rep in range(args.repetitions)
    ]
    # The pool starts all its workers at the first submit, so it never gets more than there is work.
    workers = min(args.jobs, args.repetitions)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_optimize_one_rep, payloads))
    else:
        per_rep = [_optimize_one_rep(p) for p in payloads]
    detail_rows = [row for rep_rows in per_rep for row in rep_rows]
    out = _prepare_out_dir(args.output_dir)
    _write_csv(
        out / "details.csv",
        ["algorithm", "repetition", "risk", "greedy_risk"],
        [[r["algorithm"], r["repetition"], repr(r["risk"]), repr(r["greedy_risk"])] for r in detail_rows],
    )
    summary_rows = []
    for algo in args.algos:
        risks = np.array([r["risk"] for r in detail_rows if r["algorithm"] == algo])
        greedy = np.array([r["greedy_risk"] for r in detail_rows if r["algorithm"] == algo])
        risk_std = risks.std(ddof=1) if risks.size > 1 else 0.0
        greedy_std = greedy.std(ddof=1) if greedy.size > 1 else 0.0
        summary_rows.append(
            [algo, args.mode, args.variant, args.repetitions,
             repr(float(risks.mean())), repr(float(risk_std)),
             repr(float(greedy.mean())), repr(float(greedy_std))]
        )
    _write_csv(
        out / "summary.csv",
        ["algorithm", "mode", "variant", "repetitions",
         "risk_mean", "risk_std", "greedy_risk_mean", "greedy_risk_std"],
        summary_rows,
    )
    _write_config(out, run)
    for row in summary_rows:
        print(f"{row[0]}: risk {float(row[4]):.4f} ({float(row[5]):.4f}) "
              f"greedy {float(row[6]):.4f} ({float(row[7]):.4f})")
    return 0


# ----------------------------------------------------------------------
# coverage
# ----------------------------------------------------------------------


def cmd_coverage(args) -> int:
    seed = _resolve_seed(args.seed)
    if not 0 < args.delta < 1:
        raise _CliError("delta must lie in (0, 1)")
    if args.target_subset_frac is not None and not 0 < args.target_subset_frac <= 1:
        raise _CliError("--target-subset-frac must lie in (0, 1]")
    if not np.isfinite(args.target_perturbation):
        raise _CliError("--target-perturbation must be finite")
    target = None if args.target_policy is None else load_policy(args.target_policy)
    dataset = _load_dataset(args.data)
    kinds = _parse_divergences(args.divergence)
    splits, policy0 = _split_and_fit(dataset, SplitSpec(seed=seed), args.action_space, 2.0)
    # The evaluated policy controls how hard the study is: far-from-logging
    # policies have heavy-tailed weights and need much larger logs before
    # the asymptotic interval covers.  The default is a perturbed incumbent,
    # the regime the intervals are designed for (offline A/B comparison).
    rng = np.random.default_rng(seed + 17)
    if target is None and args.target_subset_frac is not None:
        size = max(1, int(round(args.target_subset_frac * splits.train.n_rows)))
        idx = rng.choice(splits.train.n_rows, size=size, replace=False)
        target = _fit_logging_policy(splits.train.subset(idx), args.action_space, 2.0)
    elif target is None:
        target = LinearPolicy(
            theta=policy0.theta
            + args.target_perturbation * rng.normal(size=policy0.theta.shape),
            action_space=policy0.action_space,
            temperature=policy0.temperature,
        )
    rows = coverage_experiment(
        splits.train,
        target,
        policy0,
        replications=args.replications,
        delta=args.delta,
        kinds=kinds,
        replay_counts=args.replay_counts,
        seed=seed,
    )
    out = _prepare_out_dir(args.output_dir)
    write_coverage_csv(rows, out / "coverage.csv")
    _write_config(
        out,
        {"command": "coverage", "data": args.data, "replay_counts": args.replay_counts,
         "replications": args.replications, "delta": args.delta, "seed": seed,
         "divergence": args.divergence, "action_space": args.action_space},
    )
    covered = {}
    for row in rows:
        key = row.method if not row.divergence else f"{row.method}-{row.divergence}"
        covered.setdefault(key, []).append(row.covered)
    for key, values in sorted(covered.items()):
        print(f"{key}: coverage {np.mean(values):.3f} over {len(values)} intervals")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_split_flags(parser) -> None:
    parser.add_argument("--train-frac", type=float, default=0.5)
    parser.add_argument("--validation-frac", type=float, default=0.25)
    parser.add_argument("--test-frac", type=float, default=0.25)
    parser.add_argument("--logging-frac", type=float, default=0.1,
                        help="fraction of the train split used to fit the logging policy")
    parser.add_argument("--action-space", choices=("factorized", "multiclass"),
                        default="factorized")
    parser.add_argument("--temperature", type=float, default=2.0,
                        help="smoothing temperature applied to the fitted logging policy")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cfdro", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cfdro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="supervised dataset to logged bandit feedback")
    p_convert.add_argument("--data", required=True,
                           help=f"LibSVM multilabel file, or '{_BUNDLED_SYNTHETIC}'")
    p_convert.add_argument("--output-dir", required=True)
    p_convert.add_argument("-P", "--replay-count", type=_positive_int, default=4)
    _add_split_flags(p_convert)
    p_convert.add_argument("--seed", type=int, default=None)
    p_convert.set_defaults(func=cmd_convert)

    p_eval = sub.add_parser("evaluate", help="confidence intervals for a policy on a log")
    p_eval.add_argument("--log", required=True)
    p_eval.add_argument("--policy", required=True)
    p_eval.add_argument("--delta", type=float, default=0.05,
                        help="failure probability (0.05 gives 95%% intervals)")
    p_eval.add_argument("--divergence", default="all")
    p_eval.add_argument("--weight-bound", type=float, default=None,
                        help="a-priori bound on |weighted cost| for the finite-time intervals")
    p_eval.add_argument("--output", default="-", help="CSV path, or '-' for stdout")
    p_eval.set_defaults(func=cmd_evaluate)

    p_opt = sub.add_parser("optimize", help="train policies and report test risks")
    p_opt.add_argument("--data", required=True)
    p_opt.add_argument("--output-dir", required=True)
    p_opt.add_argument("--algos", type=_comma_list(str), default="dro-chi2",
                       help=f"comma list from: {', '.join(_ALGO_CHOICES)}")
    p_opt.add_argument("--mode", choices=("batch", "stochastic"), default="batch")
    p_opt.add_argument("--variant", choices=("plain", "cv", "logtrick"), default="plain")
    p_opt.add_argument("--repetitions", type=_positive_int, default=20)
    p_opt.add_argument("-P", "--replay-count", type=_positive_int, default=4)
    p_opt.add_argument("--delta", type=float, default=0.05)
    p_opt.add_argument("--lambda-grid", type=_comma_list(float), default=_DEFAULT_LAMBDA_GRID)
    p_opt.add_argument("--max-iters", type=_positive_int, default=None)
    p_opt.add_argument("--batch-size", type=_positive_int, default=64)
    p_opt.add_argument("--step-size", type=float, default=0.05)
    p_opt.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes, at most one per repetition")
    _add_split_flags(p_opt)
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_cov = sub.add_parser("coverage", help="interval coverage study over regenerated logs")
    p_cov.add_argument("--data", required=True)
    p_cov.add_argument("--output-dir", required=True)
    p_cov.add_argument("--replay-counts", type=_comma_list(_positive_int), default="1,2,4")
    p_cov.add_argument("--replications", "-R", type=_positive_int, default=20)
    p_cov.add_argument("--delta", type=float, default=0.05)
    p_cov.add_argument("--divergence", default="all")
    p_cov.add_argument("--action-space", choices=("factorized", "multiclass"),
                       default="factorized")
    p_cov.add_argument("--target-policy", default=None,
                       help="checkpoint of the policy to evaluate (default: perturbed incumbent)")
    p_cov.add_argument("--target-subset-frac", type=float, default=None,
                       help="instead fit the evaluated policy on this random fraction of train")
    p_cov.add_argument("--target-perturbation", type=float, default=0.2,
                       help="parameter noise for the default perturbed-incumbent target")
    p_cov.add_argument("--seed", type=int, default=None)
    p_cov.set_defaults(func=cmd_coverage)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
