"""Estimator arithmetic on hand-checked logs and Monte-Carlo behavior on known environments."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from cfdro.estimators import (
    BanditLog,
    CostScale,
    crm_objective,
    cv_risk,
    estimate_rho,
    importance_weights,
    ips_risk,
    log_trick_upper_bound,
)
from cfdro.policies import FactorizedLabels, LabeledDataset, LinearPolicy, Multiclass


def test_importance_weights_hand_example(two_record_log, two_record_policy):
    wc = importance_weights(two_record_log, two_record_policy)
    np.testing.assert_allclose(wc.weights, [2.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(wc.values, [-2.0, -0.25], atol=1e-12)


def test_weights_are_one_under_the_logging_policy(action_dependent_env):
    env = action_dependent_env
    log = env.sample_log(200, np.random.default_rng(0))
    wc = importance_weights(log, env.logging_policy)
    np.testing.assert_allclose(wc.weights, 1.0, atol=1e-12)
    assert ips_risk(log, env.logging_policy) == pytest.approx(float(log.costs.mean()), abs=1e-12)


def test_zero_probability_policy_zeroes_the_costs(two_record_log):
    theta = np.array([[-3000.0, 0.0], [-3000.0, 0.0], [0.0, 0.0]])
    far = LinearPolicy(theta=theta, action_space=Multiclass(2))
    wc = importance_weights(two_record_log, far)
    np.testing.assert_array_equal(wc.values, [0.0, 0.0])


def test_ips_risk_values(two_record_log, two_record_policy):
    assert ips_risk(two_record_log, two_record_policy) == pytest.approx(-1.125, abs=1e-12)
    # duplicating every record leaves the mean unchanged
    log = two_record_log
    doubled = BanditLog(
        features=np.vstack([log.features] * 3),
        actions=np.concatenate([log.actions] * 3),
        propensities=np.concatenate([log.propensities] * 3),
        costs_raw=np.concatenate([log.costs_raw] * 3),
        costs=np.concatenate([log.costs] * 3),
        action_space=log.action_space,
        cost_scale=log.cost_scale,
    )
    assert ips_risk(doubled, two_record_policy) == pytest.approx(-1.125, abs=1e-12)


def test_penalized_objective(two_record_log, two_record_policy):
    assert crm_objective(two_record_log, two_record_policy, 0.0) == pytest.approx(-1.125, abs=1e-12)
    assert crm_objective(two_record_log, two_record_policy, 1.0) == pytest.approx(-0.25, abs=1e-12)
    with pytest.raises(ValueError):
        crm_objective(two_record_log, two_record_policy, -0.1)


def test_penalized_objective_checks_its_inputs_before_it_weighs(
    two_record_log, two_record_policy, monkeypatch
):
    single = BanditLog(
        features=two_record_log.features[:1],
        actions=two_record_log.actions[:1],
        propensities=two_record_log.propensities[:1],
        costs_raw=two_record_log.costs_raw[:1],
        costs=two_record_log.costs[:1],
        action_space=two_record_log.action_space,
        cost_scale=two_record_log.cost_scale,
    )
    scored = []
    monkeypatch.setattr(LinearPolicy, "log_prob", lambda *args: scored.append(args))
    with pytest.raises(ValueError, match="^lam must be nonnegative"):
        crm_objective(two_record_log, two_record_policy, -0.1)
    with pytest.raises(ValueError, match="at least 2 records"):
        crm_objective(single, two_record_policy, 0.5)
    assert scored == []


def test_penalty_of_constant_costs_is_zero(action_dependent_env):
    env = action_dependent_env
    log = env.sample_log(50, np.random.default_rng(1))
    constant = replace(log, costs_raw=np.full(log.n, -0.5), costs=np.full(log.n, -0.5))
    for lam in (0.5, 5.0):
        assert crm_objective(constant, env.logging_policy, lam) == pytest.approx(-0.5, abs=1e-12)


def test_penalty_matches_two_pass_variance_oracle(action_dependent_env):
    env = action_dependent_env
    log = env.sample_log(73, np.random.default_rng(2))
    z = importance_weights(log, env.target_policy).values
    mean = sum(z) / len(z)
    textbook = sum((v - mean) ** 2 for v in z) / (len(z) - 1)
    for lam in (0.3, 1.0, 5.0):
        expected = mean + lam * math.sqrt(textbook / len(z))
        assert crm_objective(log, env.target_policy, lam) == pytest.approx(expected, abs=1e-10)


def test_penalized_objective_dominates_the_mean(action_dependent_env):
    env = action_dependent_env
    log = env.sample_log(80, np.random.default_rng(3))
    base = ips_risk(log, env.target_policy)
    for lam in (0.0, 0.3, 1.0, 5.0):
        assert crm_objective(log, env.target_policy, lam) >= base - 1e-12


def test_cv_risk(two_record_log, two_record_policy, action_dependent_env):
    assert cv_risk(two_record_log, two_record_policy, 0.0) == pytest.approx(-1.125, abs=1e-12)
    assert cv_risk(two_record_log, two_record_policy, -0.75) == pytest.approx(-0.9375, abs=1e-12)
    env = action_dependent_env
    log = env.sample_log(60, np.random.default_rng(4))
    base = ips_risk(log, env.logging_policy)
    for rho in (-1.0, 0.0, 0.4, 1.0):
        assert cv_risk(log, env.logging_policy, rho) == pytest.approx(base, abs=1e-12)


def test_estimate_rho(two_record_log):
    assert estimate_rho(two_record_log) == pytest.approx(-0.75, abs=1e-15)
    costs = np.array([-1.0, 0.0])
    log = replace(two_record_log, costs=costs, costs_raw=costs)
    assert estimate_rho(log) == pytest.approx(-0.5, abs=1e-15)
    rng = np.random.default_rng(5)
    values = rng.uniform(-1, 0, 31)
    log_random = replace(two_record_log,
                         features=rng.normal(size=(31, 2)),
                         actions=np.zeros(31, dtype=int),
                         propensities=np.full(31, 0.5),
                         costs=values, costs_raw=values)
    streaming = 0.0
    for i, v in enumerate(values, start=1):
        streaming += (v - streaming) / i
    assert estimate_rho(log_random) == pytest.approx(streaming, abs=1e-12)


def _perturbed(policy: LinearPolicy, scale: float, rng: np.random.Generator) -> LinearPolicy:
    return replace(policy, theta=policy.theta + scale * rng.normal(size=policy.theta.shape))


class TestLogTrickBound:
    def test_equality_at_the_anchor(self, action_dependent_env):
        env = action_dependent_env
        log = env.sample_log(40, np.random.default_rng(6))
        pol = env.target_policy
        assert log_trick_upper_bound(log, pol, pol) == pytest.approx(
            ips_risk(log, pol), abs=1e-10
        )

    def test_dominates_the_weighted_mean(self, action_dependent_env):
        env = action_dependent_env
        log = env.sample_log(40, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        anchor = env.target_policy
        for _ in range(100):
            candidate = _perturbed(anchor, 0.5, rng)
            bound = log_trick_upper_bound(log, candidate, anchor)
            assert bound >= ips_risk(log, candidate) - 1e-10

    def test_zero_costs_give_zero_bound(self, action_dependent_env):
        env = action_dependent_env
        log = env.sample_log(20, np.random.default_rng(9))
        zero = BanditLog(
            features=log.features, actions=log.actions, propensities=log.propensities,
            costs_raw=np.zeros(log.n), costs=np.zeros(log.n),
            action_space=log.action_space, cost_scale=log.cost_scale,
        )
        rng = np.random.default_rng(10)
        for _ in range(5):
            assert log_trick_upper_bound(zero, _perturbed(env.target_policy, 1.0, rng),
                                         env.target_policy) == 0.0

    def test_zero_probability_policy_rejected(self, action_dependent_env):
        env = action_dependent_env
        log = env.sample_log(10, np.random.default_rng(11))
        theta = env.target_policy.theta.copy()
        theta[:3, :] = -4000.0
        theta[:3, 0] = 4000.0
        degenerate = replace(env.target_policy, theta=theta)
        if np.any(np.isneginf(degenerate.log_prob(log.features, log.actions))):
            with pytest.raises(ValueError):
                log_trick_upper_bound(log, degenerate, env.target_policy)

    def test_convex_along_segments(self, action_dependent_env):
        env = action_dependent_env
        log = env.sample_log(30, np.random.default_rng(12))
        anchor = env.target_policy
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = _perturbed(anchor, 0.6, rng)
            b = _perturbed(anchor, 0.6, rng)
            mid = replace(anchor, theta=(a.theta + b.theta) / 2)
            fm = log_trick_upper_bound(log, mid, anchor)
            fa = log_trick_upper_bound(log, a, anchor)
            fb = log_trick_upper_bound(log, b, anchor)
            assert fm <= (fa + fb) / 2 + 1e-10

    def test_tightens_toward_the_anchor(self, action_dependent_env):
        env = action_dependent_env
        log = env.sample_log(30, np.random.default_rng(14))
        anchor = env.target_policy
        direction = np.random.default_rng(15).normal(size=anchor.theta.shape)
        gaps = []
        for t in np.linspace(0.0, 0.5, 6):
            pol = replace(anchor, theta=anchor.theta + t * direction)
            gaps.append(log_trick_upper_bound(log, pol, anchor) - ips_risk(log, pol))
        assert all(b >= a - 1e-12 for a, b in zip(gaps[:-1], gaps[1:]))
        assert gaps[0] == pytest.approx(0.0, abs=1e-10)

    def test_scores_each_policy_once(self, action_dependent_env, monkeypatch):
        # the anchor's log-probabilities give both its weights and the log-ratio
        env = action_dependent_env
        log = env.sample_log(30, np.random.default_rng(17))
        anchor = env.target_policy
        candidate = _perturbed(anchor, 0.3, np.random.default_rng(18))
        scored = []
        log_prob = LinearPolicy.log_prob

        def counted(self, *args):
            scored.append(self)
            return log_prob(self, *args)

        monkeypatch.setattr(LinearPolicy, "log_prob", counted)
        log_trick_upper_bound(log, candidate, anchor)
        assert len(scored) == 2
        assert {id(p) for p in scored} == {id(candidate), id(anchor)}


class TestControlVariateMonteCarlo:
    def test_unbiased_for_several_centers(self, context_cost_env):
        env = context_cost_env
        truth = env.true_risk(env.p1)
        rng = np.random.default_rng(17)
        for rho in (0.0, "mean", 1.0):
            estimates = []
            for _ in range(400):
                log = env.sample_log(100, rng)
                rho_val = estimate_rho(log) if rho == "mean" else rho
                estimates.append(cv_risk(log, env.target_policy, rho_val))
            estimates = np.array(estimates)
            stderr = estimates.std(ddof=1) / math.sqrt(len(estimates))
            assert abs(estimates.mean() - truth) <= 3 * stderr

    def test_variance_no_worse_than_plain_reweighting(self, context_cost_env):
        env = context_cost_env
        rng = np.random.default_rng(18)
        cv_est, ips_est = [], []
        for _ in range(800):
            log = env.sample_log(100, rng)
            cv_est.append(cv_risk(log, env.target_policy, estimate_rho(log)))
            ips_est.append(ips_risk(log, env.target_policy))
        assert np.var(cv_est, ddof=1) <= np.var(ips_est, ddof=1)


def test_a_logs_arrays_are_read_only_views_of_the_callers():
    # the log does not copy its float64 or int inputs, and writes through it raise
    costs = np.array([-1.0, 0.0])
    arrays = dict(
        features=np.array([[0.0], [3.0]]), actions=np.array([0, 1]),
        propensities=np.array([0.5, 0.25]), costs_raw=costs, costs=costs.copy(),
    )
    log = BanditLog(**arrays, action_space=Multiclass(2), cost_scale=CostScale.identity())
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            getattr(log, name)[0] = 0
        array[0] = array[1]  # the caller's array stays writable, and the log sees the write
        np.testing.assert_array_equal(getattr(log, name)[0], array[1])


def test_log_rejects_nonpositive_propensities():
    with pytest.raises(ValueError):
        BanditLog(
            features=np.ones((1, 1)),
            actions=np.array([0]),
            propensities=np.array([0.0]),
            costs_raw=np.array([-1.0]),
            costs=np.array([-1.0]),
            action_space=Multiclass(2),
            cost_scale=CostScale.identity(),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "field", ["features", "propensities", "costs_raw", "costs", "dataset features"]
)
def test_non_finite_values_are_rejected_by_name(field, bad):
    if field == "dataset features":
        with pytest.raises(ValueError, match="^features must be finite"):
            LabeledDataset(np.array([[0.5], [bad]]), np.array([[0], [1]]))
        return
    fields = dict(
        features=np.ones((2, 1)),
        actions=np.array([0, 1]),
        propensities=np.full(2, 0.5),
        costs_raw=np.array([-1.0, 0.0]),
        costs=np.array([-1.0, 0.0]),
        action_space=Multiclass(2),
        cost_scale=CostScale.identity(),
    )
    fields[field].flat[1] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        BanditLog(**fields)


@pytest.mark.parametrize("actions", [[[2, 0]], np.array([[257, 0]], dtype=np.int64)])
def test_factorized_action_bits_outside_zero_one_are_rejected_by_name(actions):
    # an int8 cast alone would wrap 257 to 1
    with pytest.raises(ValueError, match="^factorized actions must be 0/1 bits"):
        BanditLog(
            features=np.ones((1, 1)),
            actions=actions,
            propensities=np.array([0.25]),
            costs_raw=np.array([-1.0]),
            costs=np.array([-1.0]),
            action_space=FactorizedLabels(2),
            cost_scale=CostScale.identity(),
        )


@pytest.mark.parametrize("actions", [[0.7, 1.9], [0.0, 0.5], [1.0, math.nan]])
def test_fractional_multiclass_action_ids_are_rejected_by_name(actions):
    # an int cast alone would truncate 0.7 and 1.9 to the valid ids 0 and 1
    with pytest.raises(ValueError, match="^actions must be integer ids"):
        BanditLog(
            features=np.ones((2, 1)),
            actions=actions,
            propensities=np.full(2, 0.5),
            costs_raw=np.array([-1.0, 0.0]),
            costs=np.array([-1.0, 0.0]),
            action_space=Multiclass(2),
            cost_scale=CostScale.identity(),
        )


def test_integral_float_action_ids_are_accepted():
    # JSON lines logs may carry ids such as 1.0
    log = BanditLog(
        features=np.ones((2, 1)),
        actions=[1.0, 0.0],
        propensities=np.full(2, 0.5),
        costs_raw=np.array([-1.0, 0.0]),
        costs=np.array([-1.0, 0.0]),
        action_space=Multiclass(2),
        cost_scale=CostScale.identity(),
    )
    assert log.actions.dtype.kind == "i"
    np.testing.assert_array_equal(log.actions, [1, 0])


@pytest.mark.parametrize("field,value,message", [
    ("features", [np.nan, 0.0], "features must be finite"),
    ("actions", [0, 2], "factorized actions must be 0/1 bits"),
    ("propensities", 1.5, "propensities must lie in (0, 1]"),
    ("costs", 0.5, "rescaled costs must lie in [-1, 0]"),
])
def test_a_broken_rule_names_the_first_record_that_breaks_it(field, value, message):
    n = 5
    fields = dict(
        features=np.zeros((n, 2)),
        actions=np.zeros((n, 2), dtype=np.int8),
        propensities=np.full(n, 0.25),
        costs_raw=np.full(n, -1.0),
        costs=np.full(n, -1.0),
        action_space=FactorizedLabels(2),
        cost_scale=CostScale.identity(),
    )
    fields[field][2] = value
    fields[field][4] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        BanditLog(**fields)
    assert info.value.index == 2
