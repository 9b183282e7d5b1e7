"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Approximate runtimes on a laptop-class machine: criterion 1 about 15 s,
criterion 3 about 60 s, criterion 8 about 10 s, everything else seconds.
Criterion 9 needs the Scene and Yeast LibSVM files and is skipped unless
CFDRO_SCENE_PATH / CFDRO_YEAST_PATH point at them.
"""

import collections
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from cfdro.cli import _optimize_one_rep
from cfdro.data import synthetic_multilabel_dataset, train_logging_policy
from cfdro.divergences import DivergenceKind
from cfdro.dro import (
    DualSolverOptions,
    dual_gradient,
    dual_gradient_policy,
    dual_objective,
    kl_reduced_dual,
    robust_risk_dual,
)
from cfdro.estimators import cv_risk, estimate_rho, importance_weights, ips_risk, log_trick_upper_bound
from cfdro.intervals import chi2_quantile_1dof, coverage_experiment
from cfdro.optimize import OptimizerConfig, train_dro, train_log_trick
from cfdro.policies import action_bitvectors

from conftest import DiscreteEnv, make_two_record_log, make_two_record_policy
from oracles import primal_oracle

ALL_KINDS = list(DivergenceKind)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {suffix}"


def test_criterion_1_primal_dual_equivalence():
    start = time.time()
    rng = np.random.default_rng(0)
    opts = DualSolverOptions(bracket_tol=1e-3)
    worst = 0.0
    for i in range(200):
        n = 2 if i % 2 == 0 else 3
        z = rng.uniform(-2.0, 0.0, n)
        resolution = 1e-4 if n == 2 else 5e-4
        for kind in ALL_KINDS:
            for eps in (0.1, 0.5, 2.0):
                dual = robust_risk_dual(z, kind, eps, opts).value
                oracle = primal_oracle(z, kind, eps, resolution)
                gap = dual - oracle
                worst = max(worst, abs(gap))
                assert gap >= -1e-7, (kind, eps, gap)  # the dual upper-bounds the grid
    elapsed = time.time() - start
    report(
        1,
        "dual solve matches the simplex-grid oracle on 200 instances",
        worst <= 2e-3 and elapsed < 30.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_quantile_constant():
    got = chi2_quantile_1dof(0.95)
    report(2, "95th chi-square quantile constant", abs(got - 3.841459) <= 1e-3, f"{got:.6f}")


def _coverage_environment():
    dataset = synthetic_multilabel_dataset(150, 4, 8, seed=21, label_noise=1.0)
    logging_policy = train_logging_policy(dataset.subset(range(30)))
    rng = np.random.default_rng(33)
    target = replace(
        logging_policy,
        theta=logging_policy.theta + 0.2 * rng.normal(size=logging_policy.theta.shape),
    )
    # exact bound on |weight * scaled cost| over every context-action pair
    bits = action_bitvectors(dataset.n_labels).astype(float)
    bound = 0.0
    for i in range(dataset.n_rows):
        ratio = target.joint_action_probabilities(
            dataset.features[i]
        ) / logging_policy.joint_action_probabilities(dataset.features[i])
        cost = np.abs(bits - dataset.labels[i]).sum(axis=1) / dataset.n_labels - 1.0
        bound = max(bound, float(np.max(ratio * np.abs(cost))))
    return dataset, target, logging_policy, bound


def test_criterion_3_interval_coverage_and_width_ordering():
    start = time.time()
    dataset, target, logging_policy, bound = _coverage_environment()
    rows = coverage_experiment(
        dataset,
        target,
        logging_policy,
        replications=500,
        delta=0.05,
        n_values=[500, 1000, 4000],
        weight_bound=bound,
        seed=42,
    )
    coverage = collections.defaultdict(list)
    widths = collections.defaultdict(list)
    for row in rows:
        key = (row.method, row.divergence, row.n)
        coverage[key].append(row.covered)
        widths[key].append(row.upper - row.lower)
    ok = True
    details = []
    for n in (500, 1000, 4000):
        bern = float(np.mean(widths[("bernstein", "", n)]))
        hoef = float(np.mean(widths[("hoeffding", "", n)]))
        ok = ok and bern < hoef
        for kind in ALL_KINDS:
            cov = float(np.mean(coverage[("dro", kind.value, n)]))
            width = float(np.mean(widths[("dro", kind.value, n)]))
            ok = ok and 0.92 <= cov <= 1.0 and width < bern
            details.append(f"{kind.value}@{n}:{cov:.3f}")
    elapsed = time.time() - start
    report(
        3,
        "500-replication coverage in [0.92, 1] with widths dro < bernstein < hoeffding",
        ok and elapsed < 300.0,
        f"{' '.join(details)}, {elapsed:.0f}s",
    )


def test_criterion_4_kl_closed_form():
    rng = np.random.default_rng(1)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    worst = 0.0
    for _ in range(50):
        z = rng.uniform(-2.0, 0.0, int(rng.integers(5, 40)))
        eps = rng.uniform(0.01, 1.0)
        a, b = math.log(1e-8), math.log(1e3)
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        fc = kl_reduced_dual(z, eps, math.exp(c))
        fd = kl_reduced_dual(z, eps, math.exp(d))
        for _ in range(140):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - ratio * (b - a)
                fc = kl_reduced_dual(z, eps, math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + ratio * (b - a)
                fd = kl_reduced_dual(z, eps, math.exp(d))
        one_dim = min(fc, fd)
        two_dim = robust_risk_dual(z, DivergenceKind.KL, eps).value
        worst = max(worst, abs(one_dim - two_dim))
    report(
        4,
        "temperature-form minimization equals the two-dimensional dual solve",
        worst <= 1e-6,
        f"worst gap {worst:.2e}",
    )


def test_criterion_5_control_variate_unbiased_and_no_worse():
    start = time.time()
    env = DiscreteEnv(
        p0=np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]),
        p1=np.array([[0.3, 0.4, 0.3], [0.3, 0.3, 0.4], [0.2, 0.4, 0.4]]),
        costs=np.tile(np.array([[-0.9], [-0.5], [-0.2]]), (1, 3)),
    )
    truth = env.true_risk(env.p1)
    rng = np.random.default_rng(2)
    cv_vals, ips_vals = [], []
    for _ in range(2000):
        log = env.sample_log(100, rng)
        cv_vals.append(cv_risk(log, env.target_policy, estimate_rho(log)))
        ips_vals.append(ips_risk(log, env.target_policy))
    cv_vals = np.array(cv_vals)
    stderr = cv_vals.std(ddof=1) / math.sqrt(cv_vals.size)
    bias = abs(cv_vals.mean() - truth)
    var_ok = np.var(cv_vals, ddof=1) <= np.var(ips_vals, ddof=1)
    elapsed = time.time() - start
    report(
        5,
        "centered estimator unbiased within 3 standard errors and no noisier than plain",
        bias <= 3 * stderr and var_ok and elapsed < 60.0,
        f"bias {bias:.2e} vs 3se {3 * stderr:.2e}, "
        f"var ratio {np.var(cv_vals, ddof=1) / np.var(ips_vals, ddof=1):.3f}, {elapsed:.0f}s",
    )


def test_criterion_6_tangent_bound_and_monotone_loop():
    start = time.time()
    env = DiscreteEnv(
        p0=np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]),
        p1=np.array([[0.2, 0.5, 0.3], [0.4, 0.3, 0.3], [0.5, 0.3, 0.2]]),
        costs=np.array([[-1.0, -0.2, -0.6], [-0.4, -0.8, 0.0], [-0.3, -0.9, -0.5]]),
    )
    rng = np.random.default_rng(3)
    log = env.sample_log(120, rng)
    base = env.target_policy
    bound_ok = True
    for _ in range(100):
        anchor = replace(base, theta=base.theta + 0.4 * rng.normal(size=base.theta.shape))
        candidate = replace(base, theta=base.theta + 0.4 * rng.normal(size=base.theta.shape))
        bound = log_trick_upper_bound(log, candidate, anchor)
        bound_ok = bound_ok and bound >= ips_risk(log, candidate) - 1e-10
    equality_gap = abs(log_trick_upper_bound(log, base, base) - ips_risk(log, base))
    _, mm_report = train_log_trick(
        log, DivergenceKind.CHI_SQUARE, 0.05, base, OptimizerConfig(), outer_iters=20
    )
    values = [rec.objective for rec in mm_report.trajectory]
    monotone = all(b <= a + 1e-8 for a, b in zip(values[:-1], values[1:]))
    elapsed = time.time() - start
    report(
        6,
        "tangent bound dominates, is exact at the anchor, and the outer loop descends",
        bound_ok and equality_gap <= 1e-10 and monotone and elapsed < 60.0,
        f"anchor gap {equality_gap:.1e}, {len(values)} outer values, {elapsed:.0f}s",
    )


def _grad_close(analytic: float, numeric: float) -> bool:
    return abs(analytic - numeric) <= 1e-6 * max(1.0, abs(numeric))


def test_criterion_7_gradient_integrity():
    rng = np.random.default_rng(4)
    h = 1e-6
    checked = 0
    ok = True
    while checked < 20:
        kind = ALL_KINDS[checked % 4]
        z = rng.uniform(-2.0, 0.0, 15)
        beta = rng.uniform(-0.5, 0.5)
        gamma = rng.uniform(0.4, 2.0)
        u = (z - beta) / gamma
        if kind is DivergenceKind.CHI_SQUARE and np.min(np.abs(u + 2.0)) < 0.1:
            continue
        if kind in (DivergenceKind.BURG, DivergenceKind.HELLINGER) and u.max() > 0.8:
            continue
        eps = 0.2
        g_beta, g_gamma = dual_gradient(z, kind, eps, beta, gamma)
        fd_beta = (
            dual_objective(z, kind, eps, beta + h, gamma)
            - dual_objective(z, kind, eps, beta - h, gamma)
        ) / (2 * h)
        fd_gamma = (
            dual_objective(z, kind, eps, beta, gamma + h)
            - dual_objective(z, kind, eps, beta, gamma - h)
        ) / (2 * h)
        ok = ok and _grad_close(g_beta, fd_beta) and _grad_close(g_gamma, fd_gamma)
        checked += 1
    # parameter gradient through the policy on a hand-built instance
    log = make_two_record_log()
    policy = make_two_record_policy()
    for kind in ALL_KINDS:
        beta, gamma, eps = -0.3, 1.2, 0.2
        _, _, g_theta = dual_gradient_policy(log, policy, kind, eps, beta, gamma)
        for i in range(policy.theta.shape[0]):
            for j in range(policy.theta.shape[1]):
                up, down = policy.theta.copy(), policy.theta.copy()
                up[i, j] += h
                down[i, j] -= h
                f_up = dual_objective(
                    importance_weights(log, replace(policy, theta=up)).values,
                    kind, eps, beta, gamma,
                )
                f_down = dual_objective(
                    importance_weights(log, replace(policy, theta=down)).values,
                    kind, eps, beta, gamma,
                )
                ok = ok and _grad_close(g_theta[i, j], (f_up - f_down) / (2 * h))
    report(7, "analytic dual gradients match central finite differences", ok)


def test_criterion_8_desk_scale_optimization():
    start = time.time()
    dataset = synthetic_multilabel_dataset()  # 200 rows, 4 labels
    algos = ["ips", "dro-chi2", "dro-kl", "dro-burg", "dro-hellinger"]
    shared = {
        "train_frac": 0.5, "validation_frac": 0.25, "test_frac": 0.25, "logging_frac": 0.1,
        "action_space": "factorized", "temperature": 2.0, "replay_count": 4,
        "mode": "batch", "variant": "plain", "delta": 0.05,
        "lambda_grid": [1e-4], "algos": algos,
        "max_iters": 300, "batch_size": 64, "step_size": 0.05,
    }
    risks = collections.defaultdict(list)
    for rep in range(20):
        rows = _optimize_one_rep(
            {"dataset": dataset, "args": shared, "rep": rep, "rep_seed": 1000 * rep}
        )
        for row in rows:
            risks[row["algorithm"]].append(row["risk"])
    baseline = float(np.mean(risks["ips"]))
    margins = {a: baseline + 0.02 - float(np.mean(risks[a])) for a in algos[1:]}
    risks_ok = all(margin >= 0.0 for margin in margins.values())

    # warm-start fixed point on one representative converted log
    from cfdro.data import SplitSpec, collect_bandit_log, split_dataset

    splits = split_dataset(dataset, SplitSpec(seed=0))
    policy0 = train_logging_policy(splits.logging)
    log = collect_bandit_log(splits.train, policy0, 4, seed=1)
    trained, first = train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, policy0)
    _, second = train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, trained)
    warm_ok = second.iterations <= 2 and abs(second.final_value - first.final_value) <= 1e-8
    elapsed = time.time() - start
    report(
        8,
        "every batch robust variant within 0.02 of the plain baseline; warm start is a fixed point",
        risks_ok and warm_ok and elapsed < 600.0,
        f"baseline {baseline:.3f}, margins "
        + " ".join(f"{k}:{v:+.3f}" for k, v in margins.items())
        + f", warm iters {second.iterations}, {elapsed:.0f}s",
    )


def _benchmark_protocol(dataset, algos, repetitions=20, seed=0):
    shared = {
        "train_frac": 0.5, "validation_frac": 0.25, "test_frac": 0.25, "logging_frac": 0.1,
        "action_space": "factorized", "temperature": 2.0, "replay_count": 4,
        "mode": "batch", "variant": "plain", "delta": 0.05,
        "lambda_grid": [1e-4, 4.64e-4, 2.15e-3, 1e-2, 4.64e-2, 2.15e-1, 1.0],
        "algos": algos, "max_iters": 300, "batch_size": 64, "step_size": 0.05,
    }
    risks = collections.defaultdict(list)
    for rep in range(repetitions):
        rows = _optimize_one_rep(
            {"dataset": dataset, "args": shared, "rep": rep, "rep_seed": seed + 1000 * rep}
        )
        for row in rows:
            risks[row["algorithm"]].append(row["risk"])
    return {k: np.array(v) for k, v in risks.items()}


@pytest.mark.skipif(
    not (os.environ.get("CFDRO_SCENE_PATH") and os.environ.get("CFDRO_YEAST_PATH")),
    reason="set CFDRO_SCENE_PATH and CFDRO_YEAST_PATH to run the benchmark reproduction",
)
def test_criterion_9_benchmark_reproduction():
    from cfdro.data import parse_libsvm_multilabel

    scene = parse_libsvm_multilabel(os.environ["CFDRO_SCENE_PATH"])
    yeast = parse_libsvm_multilabel(os.environ["CFDRO_YEAST_PATH"])
    scene_risks = _benchmark_protocol(
        scene, ["poem", "dro-chi2", "dro-kl", "dro-burg", "dro-hellinger"]
    )
    poem = scene_risks["poem"]
    best_ok = False
    for algo in ("dro-chi2", "dro-kl", "dro-burg", "dro-hellinger"):
        pooled = math.sqrt((poem.var(ddof=1) + scene_risks[algo].var(ddof=1)) / 2)
        if scene_risks[algo].mean() <= poem.mean() + pooled:
            best_ok = True
    yeast_risks = _benchmark_protocol(yeast, ["dro-burg", "dro-hellinger"])
    burg_hell_gap = abs(yeast_risks["dro-burg"].mean() - yeast_risks["dro-hellinger"].mean())
    report(
        9,
        "benchmark reproduction: a robust variant matches the penalized baseline; "
        "burg and hellinger agree",
        best_ok and burg_hell_gap <= 0.02,
        f"burg-hellinger gap {burg_hell_gap:.3f}",
    )
