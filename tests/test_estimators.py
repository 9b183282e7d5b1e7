"""Estimator arithmetic on hand-checked logs and Monte-Carlo behavior on known environments."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cfdro import estimators
from cfdro.data import (
    LoggingPolicyConfig,
    collect_bandit_log,
    read_bandit_log,
    synthetic_multilabel_dataset,
    train_logging_policy,
    write_bandit_log,
)
from cfdro.divergences import DivergenceKind, conjugate_derivative
from cfdro.dro import dual_gradient, dual_gradient_policy, robust_risk_dual
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
from cfdro.intervals import risk_intervals
from cfdro.optimize import OptimizerConfig, train_dro, train_poem
from cfdro.policies import FactorizedLabels, LabeledDataset, LinearPolicy, Multiclass, _with_bias

from oracles import log_prob_and_residual_by_records


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
    monkeypatch.setattr(LinearPolicy, "_row_table", lambda *args: scored.append(args))
    for lam in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="^lam must be nonnegative and finite$"):
            crm_objective(two_record_log, two_record_policy, lam)
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

    def test_an_anchor_weight_that_underflows_still_gives_the_bound(self, two_record_log, two_record_policy):
        # a finite anchor log-probability of -3000 whose weight exp(-3000) / p0 is 0: the records
        # add nothing to the bound, which stays above the policy's weighted mean
        theta = np.array([[-3000.0, 0.0], [-3000.0, 0.0], [0.0, 0.0]])
        anchor = LinearPolicy(theta=theta, action_space=Multiclass(2))
        bound = log_trick_upper_bound(two_record_log, two_record_policy, anchor)
        assert bound == 0.0 and bound >= ips_risk(two_record_log, two_record_policy)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_a_policy_or_anchor_of_probability_0_is_rejected(self, two_record_log, two_record_policy):
        # scores of -1e308 and 1e308 give the logged action 0 a log-probability of -inf
        theta = np.array([[-1e308, 1e308], [-1e308, 1e308], [0.0, 0.0]])
        never = LinearPolicy(theta=theta, action_space=Multiclass(2))
        with pytest.raises(ValueError, match="^policy assigns probability 0 to a logged action$"):
            log_trick_upper_bound(two_record_log, never, two_record_policy)
        with pytest.raises(ValueError, match="^anchor policy must have positive probability on"):
            log_trick_upper_bound(two_record_log, two_record_policy, never)

    def test_checks_its_costs_before_it_weighs(self, two_record_log, two_record_policy, monkeypatch):
        # 1e-10 passes the log's [-1, 0] rule (to within 1e-9) but not the bound's
        costs = np.array([-1.0, 1e-10])
        log = replace(two_record_log, costs_raw=costs, costs=costs)

        def no_work(*args):
            raise AssertionError("weighed before the check")

        monkeypatch.setattr(estimators, "_with_bias", no_work)
        monkeypatch.setattr(LinearPolicy, "_row_table", no_work)
        with pytest.raises(ValueError, match="^the tangent bound requires nonpositive costs$"):
            log_trick_upper_bound(log, two_record_policy, two_record_policy)

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
        # the anchor's log-probabilities give both its weights and the log-ratio: one score
        # pass (row table) per policy
        env = action_dependent_env
        log = env.sample_log(30, np.random.default_rng(17))
        anchor = env.target_policy
        candidate = _perturbed(anchor, 0.3, np.random.default_rng(18))
        scored = []
        row_table = LinearPolicy._row_table

        def counted(self, *args):
            scored.append(self)
            return row_table(self, *args)

        monkeypatch.setattr(LinearPolicy, "_row_table", counted)
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


_FIELDS = ("features", "actions", "propensities", "costs_raw", "costs")


@pytest.mark.parametrize("given", ["array", "list", "read-only view"])
@pytest.mark.parametrize("space", ["factorized", "multiclass"])
def test_a_log_owns_its_arrays(space, given):
    # after construction, a write into any of the caller's arrays (or lists, or the writable
    # memory under a read-only view) changes nothing the log reports; writes through it raise
    multiclass = space == "multiclass"
    arrays = dict(
        features=np.array([[0.0, 1.0], [3.0, -1.0]]),
        actions=np.array([0, 3]) if multiclass else np.array([[0, 1], [1, 1]], dtype=np.int8),
        propensities=np.array([0.5, 0.25]), costs_raw=np.array([2.0, 0.0]), costs=np.array([-1.0, 0.0]),
    )
    if given == "array":
        inputs = arrays
    elif given == "list":
        inputs = {name: array.tolist() for name, array in arrays.items()}
    else:
        inputs = {name: array.view() for name, array in arrays.items()}
        for view in inputs.values():
            view.flags.writeable = False
    action_space = Multiclass(4) if multiclass else FactorizedLabels(2)
    log = BanditLog(**inputs, action_space=action_space, cost_scale=CostScale.identity())
    before = {name: getattr(log, name).copy() for name in _FIELDS}
    for name in _FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(log, name)[0] = 0
        written = inputs[name] if given == "list" else arrays[name]
        written[0] = written[1]
    for name in _FIELDS:
        got = getattr(log, name)
        assert got.dtype == before[name].dtype and got.tobytes() == before[name].tobytes()


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


@pytest.mark.parametrize("field,value,message", [
    ("features", [0.0, np.inf], "features must be finite"),
    ("actions", [1, -1], "factorized actions must be 0/1 bits"),
    ("propensities", 0.0, "propensities must lie in (0, 1]"),
])
def test_a_rule_checked_by_chunks_names_the_first_record(monkeypatch, field, value, message):
    # four items a chunk: two rows of features or bits, four records of a column
    monkeypatch.setattr(estimators, "_CHECK_ITEMS", 4)
    n = 9
    fields = dict(
        features=np.zeros((n, 2)),
        actions=np.zeros((n, 2), dtype=np.int8),
        propensities=np.full(n, 0.25),
        costs_raw=np.full(n, -1.0),
        costs=np.full(n, -1.0),
        action_space=FactorizedLabels(2),
        cost_scale=CostScale.identity(),
    )
    for index in (5, 8):
        fields[field][index] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        BanditLog(**fields)
    assert info.value.index == 5


def test_the_rules_temporaries_stay_below_a_full_mask():
    # a full np.isfinite mask of the features is n * d bytes; a chunk's is about 1 MB
    n, d = 200_000, 20
    bits = np.zeros((n, 2), dtype=np.int8)
    arrays = [np.zeros((n, d)), bits, np.full(n, 0.5), np.zeros(n), np.full(n, -1.0)]
    for array in arrays:
        array.flags.writeable = False
    tracemalloc.start()
    try:
        log = BanditLog(*arrays, action_space=FactorizedLabels(2), cost_scale=CostScale.identity())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.features is arrays[0]
    assert peak < n * d // 2


# ----------------------------------------------------------------------
# one weighing path: a log's contexts when it holds its grouping, its records otherwise
# ----------------------------------------------------------------------


def _weighing_env(space, env, tmp_path):
    """A collected log (grouped from the dataset's rows), the same log read back from JSONL
    (ungrouped), its logging policy and a target policy near it.  ``twins`` adds rows that differ
    from others only in the sign of a zero feature; ``no features`` drops every feature."""
    dataset = synthetic_multilabel_dataset(n_rows=60, seed=3)
    if env == "twins":
        zero = dataset.features[:8].copy()
        zero[:, 0] = 0.0
        negative = zero.copy()
        negative[:, 0] = -0.0
        labels = dataset.labels[:8]
        dataset = LabeledDataset(
            np.vstack([dataset.features, zero, negative]), np.vstack([dataset.labels, labels, labels])
        )
    elif env == "no features":  # as from a LibSVM file with no feature tokens
        dataset = LabeledDataset(dataset.features[:, :0], dataset.labels)
    config = LoggingPolicyConfig(action_space=space)
    policy0 = train_logging_policy(dataset.subset(range(20)), config)
    target = _perturbed(policy0, 0.3, np.random.default_rng(7))
    collected = collect_bandit_log(dataset, policy0, 3, seed=4)
    write_bandit_log(collected, tmp_path / "log.jsonl")
    return collected, read_bandit_log(tmp_path / "log.jsonl"), policy0, target


def _by_records(log, policy):
    """Each record's log-probability and score residual, scored on its own row."""
    return log_prob_and_residual_by_records(policy, _with_bias(log.features), log.actions)


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
@pytest.mark.parametrize("env", ["replayed", "twins", "no features"])
def test_weighing_gives_the_per_record_bits_grouped_or_not(space, env, tmp_path):
    collected, read, policy0, target = _weighing_env(space, env, tmp_path)
    assert "_contexts" in vars(collected) and "_contexts" not in vars(read)
    assert len(collected._contexts[0]) < collected.n
    if env == "twins":
        signs = np.signbit(collected.features[collected._contexts[0], 0])
        assert signs.any() and not signs.all()  # -0.0 rows are contexts of their own
    kind, n = DivergenceKind.CHI_SQUARE, collected.n
    lp, resid = _by_records(collected, target)
    lp0, _ = _by_records(collected, policy0)
    log_p0 = np.log(collected.propensities)
    w = np.exp(lp - log_p0)
    z = w * collected.costs
    w0c = np.exp(lp0 - log_p0) * collected.costs
    bound = float(np.mean(w0c * (1.0 + np.maximum(lp - lp0, -1e12))))
    point = robust_risk_dual(z, kind, 0.05)
    beta, gamma = point.beta + 0.01, 1.1 * point.gamma  # off the optimum
    d1 = conjugate_derivative(kind, (z - beta) / gamma)
    xb = _with_bias(collected.features)
    g_theta = xb.T @ ((d1 * z)[:, None] * resid) / target.temperature / n
    want = [w.tobytes(), z.tobytes(), bound, *dual_gradient(z, kind, 0.05, beta, gamma), g_theta.tobytes()]
    for log in (collected, read):
        wc = importance_weights(log, target)
        got_bound = log_trick_upper_bound(log, target, policy0)
        g_beta, g_gamma, g = dual_gradient_policy(log, target, kind, 0.05, beta, gamma)
        assert [wc.weights.tobytes(), wc.values.tobytes(), got_bound, g_beta, g_gamma, g.tobytes()] == want
    # the textbook tangent bound, w0 (1 + log-ratio) c, in its own order of operations
    textbook = np.mean(np.exp(lp0 - log_p0) * (1.0 + (lp - lp0)) * collected.costs)
    assert bound == pytest.approx(textbook, rel=1e-12)


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
def test_weighing_an_ungrouped_log_sorts_nothing(space, tmp_path, monkeypatch):
    # a log read from JSONL is weighed per record: no byte grouping of its features, and no
    # grouping left behind in it
    _, read, policy0, target = _weighing_env(space, "replayed", tmp_path)
    grouped = []
    monkeypatch.setattr(estimators, "_byte_groups", lambda *args: grouped.append(args))
    importance_weights(read, target)
    log_trick_upper_bound(read, target, policy0)
    crm_objective(read, target, 0.3)
    z = importance_weights(read, target).values
    point = robust_risk_dual(z, DivergenceKind.KL, 0.05)
    dual_gradient_policy(read, target, DivergenceKind.KL, 0.05, point.beta, point.gamma)
    risk_intervals(read, target, list(DivergenceKind), 0.05)
    assert grouped == [] and "_contexts" not in vars(read)


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
def test_weighing_a_grouped_log_scores_its_contexts(space, tmp_path, monkeypatch):
    # one score pass per policy over the m distinct contexts of a grouped log, for all n
    # records; over the n rows of an ungrouped one
    collected, read, policy0, target = _weighing_env(space, "replayed", tmp_path)
    m, n = len(collected._contexts[0]), collected.n
    assert m < n
    passes, row_table = [], LinearPolicy._row_table

    def counted(self, xb, records):
        passes.append((len(xb), records))
        return row_table(self, xb, records)

    monkeypatch.setattr(LinearPolicy, "_row_table", counted)
    for log, rows in ((collected, m), (read, n)):
        passes.clear()
        importance_weights(log, target)
        log_trick_upper_bound(log, target, policy0)
        dual_gradient_policy(log, target, DivergenceKind.KL, 0.05, -0.5, 0.3)
        assert passes == [(rows, n)] * 4


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
def test_a_write_into_a_callers_arrays_changes_no_result(space, tmp_path):
    # once a trainer has grouped a log built on the caller's writable arrays, a write into every
    # one of them leaves the estimators, the tangent bound, the dual gradient and the trainers
    # with the bits of a log built from the original rows
    collected, _, policy0, target = _weighing_env(space, "replayed", tmp_path)
    given = [getattr(collected, name).copy() for name in _FIELDS]
    log = BanditLog(*given, collected.action_space, collected.cost_scale)
    config = OptimizerConfig(max_iters=20)
    train_dro(log, DivergenceKind.KL, 0.05, policy0, config)
    assert "_contexts" in vars(log)
    for array in given:
        array[::2] = array[1::2]  # each even record becomes the next one
    original = (getattr(collected, name).copy() for name in _FIELDS)
    fresh = BanditLog(*original, collected.action_space, collected.cost_scale)

    def results(g):
        wc = importance_weights(g, target)
        g_beta, g_gamma, g_theta = dual_gradient_policy(g, target, DivergenceKind.KL, 0.05, -0.5, 0.3)
        policy, report = train_dro(g, DivergenceKind.KL, 0.05, policy0, config)
        return [
            wc.weights.tobytes(), wc.values.tobytes(), log_trick_upper_bound(g, target, policy0),
            g_beta, g_gamma, g_theta.tobytes(), policy.theta.tobytes(), report.final_value,
        ]

    assert results(log) == results(fresh)


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
def test_the_collector_and_the_reader_hand_over_their_arrays_uncopied(space, tmp_path, monkeypatch):
    handed, post_init = [], BanditLog.__post_init__

    def recorded(self):
        handed.append({name: getattr(self, name) for name in _FIELDS})
        post_init(self)

    monkeypatch.setattr(BanditLog, "__post_init__", recorded)
    collected, read, _, _ = _weighing_env(space, "replayed", tmp_path)
    assert len(handed) == 2
    for log, given in zip((collected, read), handed):
        for name in _FIELDS:
            kept = getattr(log, name)
            assert not kept.flags.writeable
            assert np.shares_memory(kept, given[name])


def test_a_read_log_that_a_trainer_grouped_is_weighed_by_its_contexts(tmp_path, monkeypatch):
    # a 240-record log of 60 contexts read from JSONL: once train_poem has grouped it, one score
    # pass over the 60 contexts weighs it, with the bits of the per-record weighing
    dataset = synthetic_multilabel_dataset(n_rows=60, seed=3)
    policy0 = train_logging_policy(dataset.subset(range(20)))
    target = _perturbed(policy0, 0.3, np.random.default_rng(7))
    write_bandit_log(collect_bandit_log(dataset, policy0, 4, seed=4), tmp_path / "log.jsonl")
    read, ungrouped = (read_bandit_log(tmp_path / "log.jsonl") for _ in range(2))
    train_poem(read, 0.3, policy0, OptimizerConfig(max_iters=3))
    passes, row_table = [], LinearPolicy._row_table

    def counted(self, xb, records):
        passes.append((len(xb), records))
        return row_table(self, xb, records)

    monkeypatch.setattr(LinearPolicy, "_row_table", counted)
    weights = importance_weights(read, target).weights
    assert passes == [(60, 240)]
    assert weights.tobytes() == importance_weights(ungrouped, target).weights.tobytes()
    assert passes[1:] == [(240, 240)]
