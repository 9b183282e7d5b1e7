"""Trainer behavior: recovery of known optima, warm starts, stochastic contracts, monotone loops."""

import hashlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from cfdro import optimize
from cfdro.data import (
    LoggingPolicyConfig,
    collect_bandit_log,
    synthetic_multilabel_dataset,
    train_logging_policy,
    write_bandit_log,
)
from cfdro.divergences import DivergenceKind
from cfdro.dro import DualPoint, dual_gradient_policy, dual_objective, robust_risk_dual
from cfdro.estimators import (
    BanditLog,
    CostScale,
    _byte_groups,
    crm_objective,
    importance_weights,
    ips_risk,
)
from cfdro.intervals import calibrated_radius
from cfdro.optimize import (
    OptimizerConfig,
    train_dro,
    train_log_trick,
    train_poem,
    write_report,
)
from cfdro.policies import LabeledDataset, LinearPolicy, Multiclass, _with_bias

from oracles import log_prob_and_residual_by_records, log_prob_by_records, scored_by_records


def one_context_log(n=20):
    """Single context, two actions logged evenly at propensity 1/2.

    Action 0 costs -1, action 1 costs 0, so every sensible objective is
    minimized by concentrating the policy on action 0.
    """
    actions = np.tile([0, 1], n // 2)
    costs = np.where(actions == 0, -1.0, 0.0)
    return BanditLog(
        features=np.ones((n, 1)),
        actions=actions,
        propensities=np.full(n, 0.5),
        costs_raw=costs,
        costs=costs,
        action_space=Multiclass(2),
        cost_scale=CostScale.identity(),
    )


def fresh_policy():
    return LinearPolicy(theta=np.zeros((2, 2)), action_space=Multiclass(2))


def prob_of_action0(policy):
    return float(policy.class_probabilities(np.ones(1))[0])


def enumeration_oracle(log, kind, delta):
    """Grid over the single policy degree of freedom; the objective is evaluated exactly."""
    eps = calibrated_radius(kind, delta, log.n)
    best = math.inf
    for p in np.linspace(1e-4, 1 - 1e-4, 2001):
        w = np.where(log.actions == 0, 2 * p, 2 * (1 - p))
        z = w * log.costs
        best = min(best, robust_risk_dual(z, kind, eps).value)
    return best


class TestBatchRobustTrainer:
    def test_recovers_the_cheap_action(self):
        log = one_context_log()
        policy, report = train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy())
        assert prob_of_action0(policy) >= 0.99
        oracle = enumeration_oracle(log, DivergenceKind.CHI_SQUARE, 0.05)
        assert report.final_value <= oracle + 5e-3

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_all_generators_train(self, kind):
        log = one_context_log()
        policy, report = train_dro(log, kind, 0.05, fresh_policy())
        assert prob_of_action0(policy) >= 0.99
        assert report.converged

    def test_vanishing_radius_reduces_to_the_plain_mean_objective(self):
        log = one_context_log()
        config = OptimizerConfig(max_iters=400)
        robust_policy, robust_report = train_dro(
            log, DivergenceKind.CHI_SQUARE, 1 - 1e-9, fresh_policy(), config
        )
        ips_policy, ips_report = train_poem(log, 0.0, fresh_policy(), config)
        assert robust_report.final_value == pytest.approx(ips_report.final_value, abs=1e-3)

    def test_warm_start_is_a_fixed_point(self):
        log = one_context_log()
        policy, report = train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy())
        again, report2 = train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, policy)
        assert report2.iterations <= 2
        assert report2.final_value == pytest.approx(report.final_value, abs=1e-8)

    def test_trajectory_is_monotone(self):
        log = one_context_log()
        _, report = train_dro(log, DivergenceKind.KL, 0.05, fresh_policy())
        values = [rec.objective for rec in report.trajectory]
        assert all(b <= a + 1e-8 for a, b in zip(values[:-1], values[1:]))

    def test_deterministic_given_the_seed(self):
        log = one_context_log()
        config = OptimizerConfig(seed=5)
        _, rep1 = train_dro(log, DivergenceKind.BURG, 0.05, fresh_policy(), config)
        _, rep2 = train_dro(log, DivergenceKind.BURG, 0.05, fresh_policy(), config)
        t1 = [(r.objective, r.beta, r.gamma) for r in rep1.trajectory]
        t2 = [(r.objective, r.beta, r.gamma) for r in rep2.trajectory]
        assert t1 == t2

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_final_robust_risk_never_worse_than_the_start(self, kind):
        log = one_context_log()
        init = fresh_policy()
        eps = calibrated_radius(kind, 0.05, log.n)
        start = robust_risk_dual(importance_weights(log, init).values, kind, eps).value
        policy, _ = train_dro(log, kind, 0.05, init)
        end = robust_risk_dual(importance_weights(log, policy).values, kind, eps).value
        assert end <= start + 1e-8

    def test_every_trainer_improves_the_robust_risk_here(self):
        # guaranteed for the direct and majorized trainers; holds empirically
        # on this fixture for the penalized and stochastic ones
        log = one_context_log()
        init = fresh_policy()
        kind = DivergenceKind.CHI_SQUARE
        eps = calibrated_radius(kind, 0.05, log.n)

        def robust_of(policy):
            return robust_risk_dual(importance_weights(log, policy).values, kind, eps).value

        start = robust_of(init)
        runs = [
            train_dro(log, kind, 0.05, init)[0],
            train_dro(log, kind, 0.05, init, rho="mean")[0],
            train_log_trick(log, kind, 0.05, init, outer_iters=5)[0],
            train_poem(log, 0.5, init)[0],
            train_dro(
                log, kind, 0.05, init,
                OptimizerConfig(mode="stochastic", max_iters=2000, step_size=0.2, seed=4),
            )[0],
        ]
        for policy in runs:
            assert robust_of(policy) <= start + 1e-8


class TestPoem:
    def test_zero_penalty_minimizes_the_mean(self):
        log = one_context_log()
        policy, report = train_poem(log, 0.0, fresh_policy())
        assert prob_of_action0(policy) >= 0.99
        assert report.final_value == pytest.approx(ips_risk(log, policy), abs=1e-12)

    def test_recovers_the_cheap_action_with_penalty(self):
        log = one_context_log()
        policy, _ = train_poem(log, 1.0, fresh_policy())
        assert prob_of_action0(policy) >= 0.99

    def test_trajectory_monotone(self):
        log = one_context_log()
        _, report = train_poem(log, 0.5, fresh_policy())
        values = [rec.objective for rec in report.trajectory]
        assert all(b <= a + 1e-9 for a, b in zip(values[:-1], values[1:]))

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError, match="^lam must be nonnegative"):
            train_poem(one_context_log(), -1.0, fresh_policy())

    @pytest.mark.parametrize("mode", ["batch", "stochastic"])
    def test_reports_the_crm_objective(self, mode):
        dataset = synthetic_multilabel_dataset(n_rows=60, seed=8)
        policy0 = train_logging_policy(dataset.subset(range(20)))
        log = collect_bandit_log(dataset, policy0, 2, seed=9)
        init = replace(policy0, theta=policy0.theta + 0.3)
        config = OptimizerConfig(mode=mode, max_iters=20, seed=1)
        policy, report = train_poem(log, 0.5, init, config)
        assert report.trajectory[0].objective == pytest.approx(crm_objective(log, init, 0.5), abs=1e-12)
        assert report.final_value == pytest.approx(crm_objective(log, policy, 0.5), abs=1e-12)

    def test_stochastic_variant_approaches_the_batch_value(self):
        log = one_context_log()
        _, batch = train_poem(log, 0.5, fresh_policy())
        config = OptimizerConfig(
            mode="stochastic", max_iters=8000, batch_size=8, step_size=0.2, seed=6
        )
        _, stochastic = train_poem(log, 0.5, fresh_policy(), config)
        assert stochastic.final_value <= batch.final_value + 0.01

    def test_stochastic_variant_with_zero_penalty_is_plain_descent(self):
        log = one_context_log()
        config = OptimizerConfig(mode="stochastic", max_iters=3000, step_size=0.2, seed=7)
        policy, _ = train_poem(log, 0.0, fresh_policy(), config)
        assert prob_of_action0(policy) >= 0.95


class TestStochasticTrainer:
    def test_full_batch_is_seed_independent(self):
        log = one_context_log()
        base = dict(mode="stochastic", max_iters=50, batch_size=log.n, step_size=0.1)
        _, rep1 = train_dro(
            log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy(), OptimizerConfig(seed=1, **base)
        )
        _, rep2 = train_dro(
            log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy(), OptimizerConfig(seed=99, **base)
        )
        t1 = [(r.objective, r.beta, r.gamma) for r in rep1.trajectory]
        t2 = [(r.objective, r.beta, r.gamma) for r in rep2.trajectory]
        assert t1 == t2  # with the whole log per step there is nothing to sample

    def test_minibatch_gradients_are_unbiased(self):
        log = one_context_log(n=12)
        policy = replace(fresh_policy(), theta=np.array([[0.3, -0.1], [0.0, 0.2]]))
        kind, eps = DivergenceKind.CHI_SQUARE, 0.05
        point = robust_risk_dual(importance_weights(log, policy).values, kind, eps)
        beta, gamma = point.beta, max(point.gamma, 1e-3)
        gb, gg, gt = dual_gradient_policy(log, policy, kind, eps, beta, gamma)
        full = np.concatenate([[gb, gg], gt.ravel()])
        rng = np.random.default_rng(7)
        samples = []
        for _ in range(4000):
            idx = rng.integers(0, log.n, size=4)
            sub = BanditLog(
                features=log.features[idx], actions=log.actions[idx],
                propensities=log.propensities[idx], costs_raw=log.costs_raw[idx],
                costs=log.costs[idx], action_space=log.action_space,
                cost_scale=log.cost_scale,
            )
            sb, sg, st = dual_gradient_policy(sub, policy, kind, eps, beta, gamma)
            samples.append(np.concatenate([[sb, sg], st.ravel()]))
        samples = np.array(samples)
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
        assert np.all(np.abs(samples.mean(axis=0) - full) <= 3 * stderr + 1e-12)

    def test_reaches_the_batch_objective(self):
        log = one_context_log()
        batch_policy, batch_report = train_dro(
            log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy()
        )
        config = OptimizerConfig(
            mode="stochastic", max_iters=10_000, batch_size=8, step_size=0.2, seed=3
        )
        _, report = train_dro(
            log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy(), config
        )
        assert report.final_value <= batch_report.final_value + 0.01

    def test_mode_dispatch_through_the_batch_entry_point(self):
        log = one_context_log()
        config = OptimizerConfig(mode="stochastic", max_iters=200, seed=2)
        _, report = train_dro(log, DivergenceKind.KL, 0.05, fresh_policy(), config)
        assert report.iterations == 200


class TestLogTrickTrainer:
    def test_no_movement_from_the_optimum(self):
        log = one_context_log()
        optimum, base = train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy())
        _, report = train_log_trick(
            log, DivergenceKind.CHI_SQUARE, 0.05, optimum, outer_iters=1
        )
        assert report.final_value == pytest.approx(base.final_value, abs=1e-6)

    def test_outer_loop_is_monotone(self):
        log = one_context_log()
        _, report = train_log_trick(
            log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy(), outer_iters=20
        )
        values = [rec.objective for rec in report.trajectory]
        assert all(b <= a + 1e-8 for a, b in zip(values[:-1], values[1:]))

    def test_matches_the_direct_trainer(self):
        log = one_context_log()
        _, direct = train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy())
        _, majorized = train_log_trick(
            log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy(), outer_iters=25
        )
        assert abs(majorized.final_value - direct.final_value) <= 0.01

    def test_rejects_stochastic_mode(self):
        config = OptimizerConfig(mode="stochastic")
        with pytest.raises(ValueError, match="batch mode only"):
            train_log_trick(one_context_log(), DivergenceKind.KL, 0.05, fresh_policy(), config)

    def test_rejects_positive_costs(self):
        log = one_context_log()
        bad = BanditLog(
            features=log.features, actions=log.actions, propensities=log.propensities,
            costs_raw=np.full(log.n, 0.0), costs=np.full(log.n, 0.0),
            action_space=log.action_space, cost_scale=log.cost_scale,
        )
        # zero costs are allowed (they are nonpositive); strictly positive are not
        train_log_trick(bad, DivergenceKind.KL, 0.05, fresh_policy(), outer_iters=1)


class TestControlVariateTrainer:
    def test_zero_center_matches_the_plain_trainer_exactly(self):
        log = one_context_log()
        config = OptimizerConfig(seed=11)
        _, plain = train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy(), config)
        _, centered = train_dro(
            log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy(), config, rho=0
        )
        t1 = [(r.objective, r.beta, r.gamma) for r in plain.trajectory]
        t2 = [(r.objective, r.beta, r.gamma) for r in centered.trajectory]
        assert t1 == t2

    def test_start_at_the_logging_policy_recovers_the_cost_robust_risk(self):
        log = one_context_log()
        eps = calibrated_radius(DivergenceKind.CHI_SQUARE, 0.05, log.n)
        expected = robust_risk_dual(log.costs, DivergenceKind.CHI_SQUARE, eps).value
        # under the logging policy all weights are one, so the centered
        # costs (c - rho) w + rho collapse back to c for every rho
        _, report = train_dro(
            log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy(),
            OptimizerConfig(max_iters=1), rho="mean",
        )
        assert report.trajectory[0].objective == pytest.approx(expected, abs=1e-9)

    def test_centered_weighting_reduces_per_record_spread(self, context_cost_env):
        env = context_cost_env
        log = env.sample_log(400, np.random.default_rng(21))
        wc = importance_weights(log, env.target_policy)
        rho = float(log.costs.mean())
        plain = wc.values
        centered = (log.costs - rho) * wc.weights + rho
        assert centered.var() <= plain.var()

    def test_explicit_rho_value(self):
        log = one_context_log()
        policy, _ = train_dro(
            log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy(), rho=-0.5
        )
        assert prob_of_action0(policy) >= 0.99

    def test_bad_rho_mode_rejected(self):
        with pytest.raises(ValueError):
            train_dro(one_context_log(), DivergenceKind.KL, 0.05, fresh_policy(), rho="median")


def test_report_serialization(tmp_path):
    log = one_context_log()
    _, report = train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy())
    csv_path = tmp_path / "report.csv"
    jsonl_path = tmp_path / "report.jsonl"
    write_report(report, csv_path)
    write_report(report, jsonl_path)
    import csv as csv_mod
    import json

    with csv_path.open() as fh:
        rows = list(csv_mod.DictReader(fh))
    assert len(rows) == len(report.trajectory)
    assert set(rows[0]) == {"iteration", "objective", "gradient_norm", "beta", "gamma", "elapsed"}
    lines = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert len(lines) == len(report.trajectory)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(mode="annealed")
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError, match="batch_size must be positive"):
        OptimizerConfig(batch_size=0)


@pytest.mark.parametrize(
    "name, value",
    [("max_iters", 2.5), ("max_iters", True), ("batch_size", 2.5), ("batch_size", False), ("seed", 1.5)],
)
def test_config_rejects_bool_and_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        OptimizerConfig(**{name: value})


@pytest.mark.parametrize("step", [math.inf, -math.inf, math.nan])
def test_config_rejects_a_non_finite_step(step):
    with pytest.raises(ValueError, match="^step_size must be positive and finite$"):
        OptimizerConfig(step_size=step)


def test_config_takes_numpy_integer_counts_as_ints():
    config = OptimizerConfig(max_iters=np.int64(3), batch_size=np.int32(2), seed=np.uint8(0))
    assert [type(v) for v in (config.max_iters, config.batch_size, config.seed)] == [int, int, int]
    assert config == OptimizerConfig(max_iters=3, batch_size=2, seed=0)


@pytest.mark.parametrize("trainer", ["poem", "dro"])
def test_trajectory_reuses_the_optimizer_evaluations(monkeypatch, trainer):
    # every kernel call (a score pass over the distinct contexts) beyond the optimizer's
    # own evaluations is fixed set-up or wrap-up work, so the surplus must not grow with
    # the iterations
    dataset = synthetic_multilabel_dataset(n_rows=120, seed=3)
    policy0 = train_logging_policy(dataset.subset(range(20)))
    log = collect_bandit_log(dataset, policy0, 2, seed=4)
    counts = {"kernel": 0, "nfev": 0}
    kernel, minimize = LinearPolicy._row_table, scipy.optimize.minimize

    def counted_kernel(self, *args):
        counts["kernel"] += 1
        return kernel(self, *args)

    def counted_minimize(*args, **kwargs):
        result = minimize(*args, **kwargs)
        counts["nfev"] += result.nfev
        return result

    monkeypatch.setattr(LinearPolicy, "_row_table", counted_kernel)
    monkeypatch.setattr(scipy.optimize, "minimize", counted_minimize)
    surplus = []
    for max_iters in (5, 20):
        counts.update(kernel=0, nfev=0)
        config = OptimizerConfig(max_iters=max_iters)
        if trainer == "poem":
            _, report = train_poem(log, 0.3, policy0, config)
        else:
            _, report = train_dro(log, DivergenceKind.KL, 0.05, policy0, config)
        assert report.iterations == max_iters
        assert len(report.trajectory) >= max_iters + 1
        surplus.append(counts["kernel"] - counts["nfev"])
    assert surplus[0] == surplus[1]


@pytest.mark.parametrize("trainer", ["poem", "dro", "logtrick"])
def test_one_kernel_call_per_batch_evaluation(monkeypatch, trainer):
    # the scores are computed once per objective evaluation: the value, the
    # mean gradient and (for poem) the variance gradient share one kernel call,
    # the row table of the distinct contexts, and no other method makes a
    # second score pass
    dataset = synthetic_multilabel_dataset(n_rows=120, seed=3)
    policy0 = train_logging_policy(dataset.subset(range(20)))
    log = collect_bandit_log(dataset, policy0, 2, seed=4)
    calls, per_evaluation = {"kernel": 0, "scores": 0}, []
    kernel, scores, lbfgs = (
        LinearPolicy._row_table, LinearPolicy._log_scores, optimize._lbfgs
    )

    def counted_kernel(self, *args):
        calls["kernel"] += 1
        return kernel(self, *args)

    def counted_scores(self, *args):
        calls["scores"] += 1
        return scores(self, *args)

    def counted_lbfgs(fun, x0, config, record):
        def counted_fun(x):
            before = dict(calls)
            out = fun(x)
            per_evaluation.append(tuple(calls[k] - before[k] for k in ("kernel", "scores")))
            return out

        return lbfgs(counted_fun, x0, config, record)

    monkeypatch.setattr(LinearPolicy, "_row_table", counted_kernel)
    monkeypatch.setattr(LinearPolicy, "_log_scores", counted_scores)
    monkeypatch.setattr(optimize, "_lbfgs", counted_lbfgs)
    config = OptimizerConfig(max_iters=5)
    if trainer == "poem":
        train_poem(log, 0.3, policy0, config)
    elif trainer == "dro":
        train_dro(log, DivergenceKind.KL, 0.05, policy0, config)
    else:
        train_log_trick(log, DivergenceKind.CHI_SQUARE, 0.05, policy0, config, outer_iters=2)
    assert len(per_evaluation) >= 5
    assert set(per_evaluation) == {(1, 1)}


def test_log_trick_builds_the_bias_augmented_matrix_once(monkeypatch):
    # every outer step's surrogate reuses the matrix of the run's exact-risk builder,
    # built from the log's distinct feature rows
    dataset = synthetic_multilabel_dataset(n_rows=120, seed=3)
    policy0 = train_logging_policy(dataset.subset(range(20)))
    log = collect_bandit_log(dataset, policy0, 2, seed=4)
    built = []
    with_bias, contexts = optimize._with_bias, log.features[log._contexts[0]]

    def counted(features):
        built.append(features.shape == contexts.shape and features.tobytes() == contexts.tobytes())
        return with_bias(features)

    monkeypatch.setattr(optimize, "_with_bias", counted)
    _, report = train_log_trick(
        log, DivergenceKind.CHI_SQUARE, 0.05, policy0, OptimizerConfig(max_iters=5), outer_iters=4
    )
    assert len(report.trajectory) == 5  # the exact risk at the start and after 4 outer steps
    assert built == [True]


def test_a_log_groups_its_feature_matrix_once(monkeypatch, tmp_path):
    # the collection groups the dataset's rows once and hands the log its contexts, so
    # writing the log and running every trainer on it sort no (n, d) matrix; the
    # trainers group only the narrow tables of their records
    dataset = synthetic_multilabel_dataset(n_rows=120, seed=3)
    policy0 = train_logging_policy(dataset.subset(range(20)))
    byte_groups, grouped = _byte_groups, []

    def counted(rows):
        grouped.append(rows)
        return byte_groups(rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("cfdro") and getattr(module, "_byte_groups", None) is byte_groups:
            monkeypatch.setattr(module, "_byte_groups", counted)
    log = collect_bandit_log(dataset, policy0, 3, seed=4)
    assert len(grouped) == 1 and grouped.pop() is dataset.features
    write_bandit_log(log, tmp_path / "log.jsonl")
    batch, sgd = OptimizerConfig(max_iters=5), OptimizerConfig(mode="stochastic", max_iters=50)
    for config in (batch, sgd):
        train_poem(log, 0.3, policy0, config)
        train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, policy0, config)
    train_dro(log, DivergenceKind.HELLINGER, 0.05, policy0, batch, rho="mean")
    _, report = train_log_trick(log, DivergenceKind.CHI_SQUARE, 0.05, policy0, batch, outer_iters=3)
    dim = log.feature_dim
    assert not any(len(rows) == log.n and np.array_equal(rows[:, :dim], log.features) for rows in grouped)
    # one record table per batch run and per outer step's surrogate
    assert len(grouped) == 3 + len(report.trajectory) - 1 >= 5


def test_log_trick_scores_the_anchor_on_the_runs_matrix(monkeypatch):
    # each outer step scores its anchor on the bias-augmented matrix built once
    # per run, never through the public log_prob and its own hstack
    dataset = synthetic_multilabel_dataset(n_rows=120, seed=3)
    policy0 = train_logging_policy(dataset.subset(range(20)))
    log = collect_bandit_log(dataset, policy0, 2, seed=4)
    calls = []
    log_prob = LinearPolicy.log_prob

    def counted(self, *args):
        calls.append(1)
        return log_prob(self, *args)

    monkeypatch.setattr(LinearPolicy, "log_prob", counted)
    _, report = train_log_trick(
        log, DivergenceKind.CHI_SQUARE, 0.05, policy0, OptimizerConfig(max_iters=5), outer_iters=4
    )
    assert len(report.trajectory) == 5
    assert calls == []


def _stochastic_env(space):
    dataset = synthetic_multilabel_dataset(n_rows=120, seed=3)
    config = LoggingPolicyConfig(action_space=space)
    policy0 = train_logging_policy(dataset.subset(range(20)), config)
    return collect_bandit_log(dataset, policy0, 2, seed=4), policy0


def _run_digest(policy, report):
    """sha256 prefix of the float.hex of theta, the dual point and final_value."""
    parts = [float(v).hex() for v in policy.theta.ravel()]
    if report.dual is not None:
        parts += [report.dual.beta.hex(), report.dual.gamma.hex(), report.dual.value.hex()]
    parts.append(report.final_value.hex())
    return hashlib.sha256(" ".join(parts).encode()).hexdigest()[:16]


# recorded before the stochastic step was slimmed down; every bit must stay
_STOCHASTIC_DIGESTS = {
    ("factorized", "chi2", 0.0): "f8f5e5c63e464928",
    ("factorized", "chi2", "mean"): "3830646c66791256",
    ("factorized", "kl", 0.0): "fa7aa8f1d55c2803",
    ("factorized", "kl", "mean"): "64d590ff51b82b7d",
    ("factorized", "burg", 0.0): "9f4ec6b0e1c1d708",
    ("factorized", "burg", "mean"): "afd57859d1bde05b",
    ("factorized", "hellinger", 0.0): "31e6ea3a396d9b18",
    ("factorized", "hellinger", "mean"): "cebc82dc461d1306",
    ("factorized", "poem", 0.0): "e9c3e17eb1c2ca61",
    ("factorized", "poem", 0.3): "01ad430dc3f3aedd",
    ("multiclass", "chi2", 0.0): "ee21c525542654b1",
    ("multiclass", "chi2", "mean"): "c9ba99803f1d3eaf",
    ("multiclass", "kl", 0.0): "a4fd3cfb823189b8",
    ("multiclass", "kl", "mean"): "c608afbb4442323a",
    ("multiclass", "burg", 0.0): "fe9cb14314ab46a9",
    ("multiclass", "burg", "mean"): "4ed56d264d6194fe",
    ("multiclass", "hellinger", 0.0): "63d5ed51c58b8b58",
    ("multiclass", "hellinger", "mean"): "a348cd517117f034",
    ("multiclass", "poem", 0.0): "efb34d0683b0e634",
    ("multiclass", "poem", 0.3): "d6afcdfd7ad0ea0e",
}


@pytest.mark.parametrize("space,trainer,arg", sorted(_STOCHASTIC_DIGESTS, key=str))
def test_stochastic_runs_are_pinned_bit_for_bit(space, trainer, arg):
    # arg is rho for the robust trainers and lam for poem
    log, policy0 = _stochastic_env(space)
    config = OptimizerConfig(mode="stochastic", max_iters=250, batch_size=16, step_size=0.1, seed=5)
    if trainer == "poem":
        policy, report = train_poem(log, arg, policy0, config)
    else:
        kind = DivergenceKind.from_name(trainer)
        policy, report = train_dro(log, kind, 0.05, policy0, config, rho=arg)
    assert _run_digest(policy, report) == _STOCHASTIC_DIGESTS[space, trainer, arg]


def test_stochastic_gamma_doubling_is_pinned_bit_for_bit(monkeypatch):
    # one-record batches at a large step push beta low enough that a batch
    # leaves Burg's conjugate domain, and the loop doubles gamma
    log, policy0 = _stochastic_env("factorized")
    skipped = []
    value_grads = optimize._robust_value_grads

    def counted(*args, **kwargs):
        out = value_grads(*args, **kwargs)
        skipped.append(out is None)
        return out

    monkeypatch.setattr(optimize, "_robust_value_grads", counted)
    config = OptimizerConfig(mode="stochastic", max_iters=300, batch_size=1, step_size=10.0, seed=5)
    policy, report = train_dro(log, DivergenceKind.BURG, 0.05, policy0, config)
    assert any(skipped)
    assert _run_digest(policy, report) == "aefc5381fab13abf"


def _count_full_log_scores(monkeypatch, n):
    # a full-log pass scores the log's distinct contexts once, in a row table that its n records read
    calls = []
    table = LinearPolicy._row_table

    def counted(self, xb, records):
        calls.append(records == n)
        return table(self, xb, records)

    monkeypatch.setattr(LinearPolicy, "_row_table", counted)
    return calls


def test_stochastic_run_scores_the_full_log_a_fixed_number_of_times(monkeypatch):
    # the start's dual point, whose scores also give the first trajectory entry,
    # and the exact objective at the end
    log, policy0 = _stochastic_env("factorized")
    calls = _count_full_log_scores(monkeypatch, log.n)
    full_passes = []
    for max_iters in (300, 1200):
        calls.clear()
        config = OptimizerConfig(mode="stochastic", max_iters=max_iters, seed=1)
        _, report = train_dro(log, DivergenceKind.KL, 0.05, policy0, config)
        assert len(report.trajectory) == max_iters // 100 + 1
        full_passes.append(sum(calls))
    assert full_passes == [2, 2]


def test_log_trick_anchors_on_the_exact_risks_scores(monkeypatch):
    # the surrogate of each outer step takes its anchor's log-probabilities from
    # the score pass of that anchor's exact risk; the anchor is not scored again
    log, policy0 = _stochastic_env("factorized")
    calls = _count_full_log_scores(monkeypatch, log.n)
    inside, lbfgs = [0], optimize._lbfgs

    def counted_lbfgs(fun, x0, config, record):
        def counted_fun(x):
            before = sum(calls)
            out = fun(x)
            inside[0] += sum(calls) - before
            return out

        return lbfgs(counted_fun, x0, config, record)

    monkeypatch.setattr(optimize, "_lbfgs", counted_lbfgs)
    _, report = train_log_trick(
        log, DivergenceKind.CHI_SQUARE, 0.05, policy0, OptimizerConfig(max_iters=5), outer_iters=4
    )
    assert len(report.trajectory) == 5
    # the start's exact risk, then per outer step the inner run's two dual
    # solves and the candidate's exact risk: 21 before the anchor's scores
    # were reused, one more per outer step; the inner run's closing entry
    # scores the distinct records, which this replayed log has fewer of
    assert sum(calls) - inside[0] == 1 + 4 * 3


@pytest.mark.parametrize("trainer", ["dro", "poem"])
def test_intermediate_sgd_entries_average_the_step_values(monkeypatch, trainer):
    # with the whole log as the batch, step t's value is the exact objective
    # at iterate t, which a run of t steps reports as its final value
    monkeypatch.setattr(optimize, "_EVAL_EVERY", 10)
    log = one_context_log()
    base = dict(mode="stochastic", batch_size=log.n, step_size=0.1)

    def run(max_iters):
        config = OptimizerConfig(max_iters=max_iters, **base)
        if trainer == "poem":
            return train_poem(log, 0.3, fresh_policy(), config)[1]
        return train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, fresh_policy(), config)[1]

    report = run(11)
    assert [rec.iteration for rec in report.trajectory] == [0, 10, 11]
    assert report.trajectory[-1].objective == report.final_value
    total = report.trajectory[0].objective
    for t in range(1, 10):
        total += run(t).final_value
    if trainer == "poem":
        # the majorizer is re-anchored at every full-batch step, where it equals the objective
        assert report.trajectory[1].objective == pytest.approx(total / 10, rel=1e-12)
    else:
        assert report.trajectory[1].objective == total / 10


# ----------------------------------------------------------------------
# batch evaluations on distinct records
# ----------------------------------------------------------------------


def _replayed_env(space):
    """A log replaying each context three times, which repeats many whole records."""
    dataset = synthetic_multilabel_dataset(n_rows=120, seed=3)
    config = LoggingPolicyConfig(action_space=space)
    policy0 = train_logging_policy(dataset.subset(range(20)), config)
    return collect_bandit_log(dataset, policy0, 3, seed=4), policy0


def _batch_objective(monkeypatch, train):
    """The ``fun`` a batch trainer hands to L-BFGS-B, captured without running the optimizer."""
    funs = []

    def capture(fun, x0, config, record):
        funs.append(fun)
        return x0, 0, True, [record(0, x0, *fun(x0))]

    monkeypatch.setattr(optimize, "_lbfgs", capture)
    train()
    return funs[0]


def _nearby_thetas(policy0):
    rng = np.random.default_rng(8)
    return [policy0.theta, policy0.theta + 0.3 * rng.normal(size=policy0.theta.shape)]


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
@pytest.mark.parametrize("kind", list(DivergenceKind))
def test_batch_dual_on_distinct_records_matches_the_per_record_api(monkeypatch, space, kind):
    log, policy0 = _replayed_env(space)
    assert len(optimize._distinct(optimize._weighted_costs(log)[0])[1]) < log.n
    fun = _batch_objective(
        monkeypatch, lambda: train_dro(log, kind, 0.05, policy0, OptimizerConfig(max_iters=5))
    )
    eps = calibrated_radius(kind, 0.05, log.n)
    for theta in _nearby_thetas(policy0):
        policy = replace(policy0, theta=theta)
        z = importance_weights(log, policy).values
        point = robust_risk_dual(z, kind, eps)
        # off the optimum, so that the dual partials are not zero
        beta, psi = point.beta + 0.01, math.log(1.1 * point.gamma)
        gamma = optimize._GAMMA_MIN + math.exp(psi)
        value, grad = fun(np.concatenate([theta.ravel(), [beta, psi]]))
        assert value == pytest.approx(dual_objective(z, kind, eps, beta, gamma), rel=1e-12)
        g_beta, g_gamma, g_theta = dual_gradient_policy(log, policy, kind, eps, beta, gamma)
        want = np.concatenate([g_theta.ravel(), [g_beta, g_gamma * math.exp(psi)]])
        np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_batch_poem_on_distinct_records_matches_the_per_record_formula(monkeypatch, space, lam):
    log, policy0 = _replayed_env(space)
    fun = _batch_objective(
        monkeypatch, lambda: train_poem(log, lam, policy0, OptimizerConfig(max_iters=5))
    )
    n, xb = log.n, _with_bias(log.features)
    for theta in _nearby_thetas(policy0):
        policy = replace(policy0, theta=theta)
        value, grad = fun(theta.ravel())
        z = importance_weights(log, policy).values
        mean, std = z.mean(), math.sqrt(z.var(ddof=1) / n)
        assert value == pytest.approx(mean + lam * std, rel=1e-12)
        # grad z_i = z_i grad log pi(a_i | x_i), through the mean and the standard error
        coef = z / n + lam / (2.0 * std * n) * 2.0 / (n - 1) * (z - mean) * z
        _, resid = log_prob_and_residual_by_records(policy, xb, log.actions)
        want = (xb.T @ (coef[:, None] * resid) / policy.temperature).ravel()
        np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _record_bytes(rows, i):
    return b"".join(np.ascontiguousarray(a[i]).tobytes() for a in rows)


def test_distinct_records_cover_the_log_with_their_counts():
    log, _ = _replayed_env("factorized")
    rows = optimize._weighted_costs(log)[0]
    distinct, p = optimize._distinct(rows)
    counts = np.rint(p * log.n).astype(int)
    np.testing.assert_array_equal(counts / log.n, p)
    assert counts.sum() == log.n
    tally = {}
    for i in range(log.n):
        key = _record_bytes(rows, i)
        tally[key] = tally.get(key, 0) + 1
    assert {_record_bytes(distinct, j): c for j, c in enumerate(counts)} == tally


def _with_signed_zero_twins(table, column):
    """``table``, then its first 8 rows with ``0.0``, then ``-0.0``, then ``0.0`` at ``column``."""
    zero = table[:8].copy()
    zero[:, column] = 0.0
    negative = zero.copy()
    negative[:, column] = -0.0
    return np.vstack([table, zero, negative, zero])


def _twins_log(space):
    """The replayed log, then its first 8 records with feature 0 set to ``0.0``, ``-0.0`` and ``0.0``."""
    log, _ = _replayed_env(space)
    columns = (log.actions, log.propensities, log.costs_raw, log.costs)
    tails = [np.concatenate([a, a[:8], a[:8], a[:8]]) for a in columns]
    features = _with_signed_zero_twins(log.features, 0)
    return BanditLog(features, *tails, log.action_space, log.cost_scale)


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
def test_byte_groups_match_np_unique_on_both_callers_tables(space):
    # the feature table of BanditLog._contexts and the narrow record table of
    # optimize._distinct, each with repeated rows and rows that differ only
    # in the sign of a zero
    log = _twins_log(space)
    narrow = np.column_stack(optimize._weighted_costs(_replayed_env(space)[0])[0])
    narrow = _with_signed_zero_twins(narrow, narrow.shape[1] - 1)
    for table, got in ((log.features, log._contexts), (narrow, _byte_groups(narrow))):
        keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()
        want = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)[1:]
        assert len(want[2]) < len(table) - 8  # the replays repeat rows
        assert len(np.unique(table, axis=0)) < len(want[2])  # value-equal rows stay apart
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
def test_a_logs_contexts_rebuild_its_bias_augmented_features(space):
    # so the trainers' records may read their rows through the context index
    log = _twins_log(space)
    first, inverse, _ = log._contexts
    assert _with_bias(log.features[first])[inverse].tobytes() == _with_bias(log.features).tobytes()


@pytest.mark.parametrize("n", [1, 5])
def test_byte_groups_of_rows_with_no_columns_are_one_group(n):
    # as np.unique over rows: every row is the one empty row
    rows = np.empty((n, 0))
    want = np.unique(rows, axis=0, return_index=True, return_inverse=True, return_counts=True)[1:]
    for got, w in zip(_byte_groups(rows), want):
        assert got.dtype == w.dtype
        np.testing.assert_array_equal(got, w)


def test_distinct_records_differ_in_any_field_by_bytes():
    # records 0 and 2 are equal, as are 3 and 6; record 1 differs from 0 only
    # by the sign of a zero feature, 4 from 3 only in its propensity and 5
    # from 3 only in its cost
    features = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]] + [[0.5, 1.0]] * 4)
    costs = np.array([-1.0, -1.0, -1.0, -0.5, -0.5, -0.25, -0.5])
    log = BanditLog(
        features=features,
        actions=np.array([0, 0, 0, 1, 1, 1, 1]),
        propensities=np.array([0.5, 0.5, 0.5, 0.5, 0.25, 0.5, 0.5]),
        costs_raw=costs,
        costs=costs,
        action_space=Multiclass(2),
        cost_scale=CostScale.identity(),
    )
    rows = optimize._weighted_costs(log)[0]
    distinct, p = optimize._distinct(rows)
    merged = {_record_bytes(distinct, j): q for j, q in enumerate(p)}
    expected = {(0, 2), (1, 1), (3, 2), (4, 1), (5, 1)}
    assert merged == {_record_bytes(rows, i): count / 7 for i, count in expected}
    contexts = optimize._weighted_costs(log)[2]
    assert int(np.signbit(contexts[distinct[0], 0]).sum()) == 1


# ----------------------------------------------------------------------
# score passes over distinct contexts
# ----------------------------------------------------------------------


def _contexts_env(space, env):
    """A replayed log; one with no features (one empty context); one dataset row replayed (one
    context, several records); or one record repeated."""
    dataset = synthetic_multilabel_dataset(n_rows=60, seed=3)
    if env == "no features":  # as from a LibSVM file with no feature tokens
        dataset = LabeledDataset(dataset.features[:, :0], dataset.labels)
    policy0 = train_logging_policy(dataset.subset(range(20)), LoggingPolicyConfig(action_space=space))
    if env in ("replayed", "no features"):
        return collect_bandit_log(dataset, policy0, 3, seed=4), policy0
    log = collect_bandit_log(dataset.subset([5]), policy0, 12, seed=4)
    if env == "one record":  # one context and one distinct record: its scores are a lone row's
        log = BanditLog(
            np.repeat(log.features[:1], 5, axis=0), np.repeat(log.actions[:1], 5, axis=0),
            np.repeat(log.propensities[:1], 5), np.repeat(log.costs_raw[:1], 5),
            np.repeat(log.costs[:1], 5), log.action_space, log.cost_scale,
        )
    return log, policy0


def _train(trainer, log, policy0):
    batch, sgd = OptimizerConfig(max_iters=8), OptimizerConfig(mode="stochastic", max_iters=150, batch_size=4)
    if trainer == "poem":
        return train_poem(log, 0.3, policy0, batch)
    if trainer == "poem-sgd":
        return train_poem(log, 0.3, policy0, sgd)
    if trainer == "dro":
        return train_dro(log, DivergenceKind.HELLINGER, 0.05, policy0, batch, rho="mean")
    if trainer == "dro-sgd":
        return train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, policy0, sgd)
    return train_log_trick(log, DivergenceKind.CHI_SQUARE, 0.05, policy0, batch, outer_iters=3)


def _run_bits(policy, report):
    """theta, the final value, the dual point and the trajectory but its wall times, as bytes."""
    dual = report.dual or DualPoint(math.nan, math.nan, math.nan)
    steps = [(r.iteration, r.objective, r.gradient_norm, r.beta, r.gamma) for r in report.trajectory]
    values = [report.final_value, report.iterations, dual.beta, dual.gamma, dual.value]
    return policy.theta.tobytes(), np.array(values).tobytes(), np.array(steps).tobytes()


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
@pytest.mark.parametrize("env", ["replayed", "no features", "one context", "one record"])
@pytest.mark.parametrize("trainer", ["poem", "dro", "logtrick", "poem-sgd", "dro-sgd"])
def test_trainers_score_each_context_once_with_the_per_record_bits(monkeypatch, space, env, trainer):
    # every batch evaluation and full-log pass scores the distinct contexts once; theta and
    # the trajectory are those of scoring every record, also where a lone context is scored
    # as a batch's row (one context) or as a lone row (one distinct record, in evaluations)
    log, policy0 = _contexts_env(space, env)
    contexts = optimize._weighted_costs(log)[2]
    assert len(contexts) == (60 if env == "replayed" else 1)
    got = _run_bits(*_train(trainer, log, policy0))
    monkeypatch.setattr(optimize, "_scored", scored_by_records)
    monkeypatch.setattr(optimize, "_log_prob", log_prob_by_records)
    assert got == _run_bits(*_train(trainer, log, policy0))


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
@pytest.mark.parametrize("trainer", ["poem", "dro"])
def test_one_record_mini_batches_keep_the_per_record_bits(monkeypatch, space, trainer):
    # a 1-row mini-batch's table is that lone row's scores, as the per-record formulas take it
    log, policy0 = _contexts_env(space, "replayed")
    config = OptimizerConfig(mode="stochastic", max_iters=120, batch_size=1, seed=3)

    def run():
        if trainer == "poem":
            return train_poem(log, 0.3, policy0, config)
        return train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, policy0, config)

    got = _run_bits(*run())
    monkeypatch.setattr(optimize, "_scored", scored_by_records)
    monkeypatch.setattr(optimize, "_log_prob", log_prob_by_records)
    assert got == _run_bits(*run())


def test_stochastic_run_with_an_infinite_gradient_norm_reports_no_convergence():
    # KL on one replayed context drives gamma to its floor and grad @ grad overflows;
    # the iterates keep their recorded bits, but the run no longer reports success
    log, policy0 = _contexts_env("multiclass", "one context")
    config = OptimizerConfig(mode="stochastic", max_iters=150, batch_size=4)
    with np.errstate(over="ignore"):
        policy, report = train_dro(log, DivergenceKind.KL, 0.05, policy0, config)
    assert math.isinf(max(r.gradient_norm for r in report.trajectory))
    assert math.isfinite(report.final_value) and report.final_value > 1e160
    assert not report.converged
    assert _run_digest(policy, report) == "a3bab5dbb68e417f"
    # the factorized logging policy's run stays finite and still converges
    log, policy0 = _contexts_env("factorized", "one context")
    policy, report = train_dro(log, DivergenceKind.KL, 0.05, policy0, config)
    assert all(math.isfinite(r.gradient_norm) for r in report.trajectory) and report.converged
    assert _run_digest(policy, report) == "66107beb4c4e2d22"


def _finite_steps(report):
    return all(math.isfinite(r.gradient_norm) for r in report.trajectory) and math.isfinite(report.final_value)


def test_stochastic_run_ending_with_gamma_at_its_floor_reports_no_convergence():
    # one distinct record: the exact dual's gamma is 0, so the run starts at the floor,
    # and one step leaves it there; every value and gradient norm stays finite
    log, policy0 = _contexts_env("multiclass", "one record")
    config = OptimizerConfig(mode="stochastic", max_iters=1, batch_size=4, step_size=0.01)
    _, report = train_dro(log, DivergenceKind.KL, 0.05, policy0, config)
    assert _finite_steps(report) and report.dual.gamma == optimize._GAMMA_MIN
    assert not report.converged


def test_stochastic_run_with_a_non_finite_mini_batch_mean_reports_no_convergence(monkeypatch):
    # steps 100-199 leave the conjugate domain and are skipped, so the trajectory entry at
    # step 200 averages no mini-batch: NaN; gamma doubles 100 times and stays finite
    log, policy0 = _stochastic_env("factorized")
    value_grads, steps = optimize._robust_value_grads, []

    def skipping(*args, grads=True, **kwargs):
        if grads:
            steps.append(len(steps))
            if 100 <= steps[-1] < 200:
                return None
        return value_grads(*args, grads=grads, **kwargs)

    monkeypatch.setattr(optimize, "_robust_value_grads", skipping)
    config = OptimizerConfig(mode="stochastic", max_iters=300, seed=1)
    _, report = train_dro(log, DivergenceKind.CHI_SQUARE, 0.05, policy0, config)
    means = [r.objective for r in report.trajectory[1:-1]]
    assert [math.isnan(m) for m in means] == [False, True]
    assert _finite_steps(report) and report.dual.gamma > optimize._GAMMA_MIN
    assert not report.converged
