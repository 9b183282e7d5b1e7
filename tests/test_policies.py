"""Policy probabilities, sampling, gradients, exact risks and checkpoints."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit, log_expit, logsumexp

from cfdro.policies import (
    FactorizedLabels,
    LabeledDataset,
    LinearPolicy,
    Multiclass,
    _logsumexp,
    _with_bias,
    action_bitvectors,
    greedy_risk,
    load_policy,
    save_policy,
    true_risk,
)

from oracles import log_prob_and_residual_by_records, sample_by_records


def uniform_policy(space, dim=3):
    return LinearPolicy(theta=np.zeros((dim + 1, space.n_logits)), action_space=space)


def random_policy(space, dim, rng, scale=1.0):
    return LinearPolicy(
        theta=scale * rng.normal(size=(dim + 1, space.n_logits)), action_space=space
    )


def test_zero_parameters_give_uniform_probabilities():
    x = np.array([0.3, -1.0, 2.0])
    pol = uniform_policy(Multiclass(4))
    for a in range(4):
        assert np.exp(pol.log_prob(x, a)) == pytest.approx(0.25, abs=1e-12)
    fac = uniform_policy(FactorizedLabels(3))
    bits = action_bitvectors(3)
    for row in bits:
        assert np.exp(fac.log_prob(x, row)) == pytest.approx(0.125, abs=1e-12)


@pytest.mark.parametrize("space", [Multiclass(5), FactorizedLabels(4)])
def test_probabilities_sum_to_one(space):
    rng = np.random.default_rng(0)
    pol = random_policy(space, 3, rng)
    for _ in range(10):
        x = rng.normal(size=3)
        assert pol.joint_action_probabilities(x).sum() == pytest.approx(1.0, abs=1e-10)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    pol = random_policy(Multiclass(4), 3, rng)
    shift = rng.normal(size=4)  # added to every class column: all logits move together
    shifted = replace(pol, theta=pol.theta + shift[:, None])
    for _ in range(5):
        x = rng.normal(size=3)
        np.testing.assert_allclose(
            pol.class_probabilities(x), shifted.class_probabilities(x), atol=1e-10
        )


def test_sampling_frequencies_match_probabilities():
    pol = uniform_policy(Multiclass(4))
    rng = np.random.default_rng(2)
    x = np.tile(np.array([0.5, -0.5, 1.0]), (100_000, 1))
    draws = pol.sample_actions(x, rng)
    freqs = np.bincount(draws, minlength=4) / draws.size
    sigma = math.sqrt(0.25 * 0.75 / draws.size)
    assert np.all(np.abs(freqs - 0.25) < 3 * sigma)


def test_degenerate_logits_always_win():
    theta = np.zeros((4, 3))
    theta[3, 1] = 40.0  # bias pushes action 1 to probability ~1
    pol = LinearPolicy(theta=theta, action_space=Multiclass(3))
    rng = np.random.default_rng(3)
    draws = pol.sample_actions(np.zeros((5000, 3)), rng)
    assert np.all(draws == 1)


def test_sampling_is_deterministic_given_the_seed():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    pol = uniform_policy(FactorizedLabels(3))
    x = np.random.default_rng(0).normal(size=(50, 3))
    np.testing.assert_array_equal(pol.sample_actions(x, rng1), pol.sample_actions(x, rng2))


def test_greedy_action_tie_rule_and_argmax():
    pol = uniform_policy(Multiclass(4))
    # exact tie resolves to the lowest id
    assert pol.greedy_actions(np.atleast_2d(np.zeros(3)))[0] == 0
    fac = uniform_policy(FactorizedLabels(3))
    np.testing.assert_array_equal(fac.greedy_actions(np.atleast_2d(np.zeros(3)))[0], [0, 0, 0])
    rng = np.random.default_rng(4)
    rand = random_policy(Multiclass(6), 3, rng)
    for _ in range(20):
        x = rng.normal(size=3)
        greedy = rand.greedy_actions(np.atleast_2d(x))[0]
        assert greedy == int(np.argmax(rand.joint_action_probabilities(x)))


def test_greedy_action_invariant_to_temperature():
    rng = np.random.default_rng(5)
    pol = random_policy(Multiclass(5), 3, rng)
    hot = replace(pol, temperature=10.0)
    for _ in range(20):
        x = rng.normal(size=3)
        assert pol.greedy_actions(np.atleast_2d(x))[0] == hot.greedy_actions(np.atleast_2d(x))[0]


@pytest.mark.parametrize("space", [Multiclass(4), FactorizedLabels(3)])
def test_grad_log_prob_matches_finite_differences(space):
    rng = np.random.default_rng(6)
    pol = random_policy(space, 3, rng, scale=0.7)
    x = rng.normal(size=3)
    action = 2 if isinstance(space, Multiclass) else np.array([1, 0, 1], dtype=np.int8)
    grad = pol.weighted_grad_log_prob_sum(x, [action], [1.0])
    h = 1e-6
    for i in range(pol.theta.shape[0]):
        for j in range(pol.theta.shape[1]):
            up = pol.theta.copy()
            up[i, j] += h
            down = pol.theta.copy()
            down[i, j] -= h
            fd = (
                replace(pol, theta=up).log_prob(x, action)
                - replace(pol, theta=down).log_prob(x, action)
            ) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_softmax_score_identity_at_zero():
    pol = uniform_policy(Multiclass(4))
    x = np.array([0.5, -1.0, 0.25])
    total = sum(
        np.exp(pol.log_prob(x, a)) * pol.weighted_grad_log_prob_sum(x, [a], [1.0]) for a in range(4)
    )
    np.testing.assert_allclose(total, 0.0, atol=1e-12)


def test_factorized_gradient_is_sum_of_per_label_scores():
    rng = np.random.default_rng(7)
    pol = random_policy(FactorizedLabels(3), 2, rng)
    x = rng.normal(size=2)
    bits = np.array([1, 0, 1], dtype=np.int8)
    grad = pol.weighted_grad_log_prob_sum(x, [bits], [1.0])
    p = pol.label_probabilities(x)
    xb = np.concatenate([x, [1.0]])
    expected = np.outer(xb, bits - p)
    np.testing.assert_allclose(grad, expected, atol=1e-12)


@pytest.mark.parametrize("space", [Multiclass(4), FactorizedLabels(3)])
def test_kernel_agrees_bit_for_bit_with_log_prob_and_gradient(space):
    # scale 20 drives scores past 30 in magnitude, where log_expit saturates
    rng = np.random.default_rng(11)
    pol = replace(random_policy(space, 2, rng, scale=20.0), temperature=0.7)
    xs = rng.normal(size=(200, 2))
    if isinstance(space, Multiclass):
        acts = rng.integers(0, space.n_actions, size=200)
    else:
        acts = (rng.random((200, 3)) < 0.5).astype(np.int8)
    coefs = rng.normal(size=200)
    xb = np.hstack([xs, np.ones((200, 1))])
    scores = xb @ pol.theta / pol.temperature
    assert np.abs(scores).max() > 30
    table = pol._row_table(xb, 200)
    logp, resid = pol._log_prob_rows(table, None, acts), pol._residual_rows(table, None, acts)
    # reference formulas, written out independently of the policy module
    if isinstance(space, Multiclass):
        log_softmax = scores - logsumexp(scores, axis=1, keepdims=True)
        expected_logp = log_softmax[np.arange(200), acts]
        expected_resid = np.eye(space.n_actions)[acts] - np.exp(log_softmax)
    else:
        bits = acts.astype(float)
        expected_logp = np.sum(bits * log_expit(scores) + (1.0 - bits) * log_expit(-scores), axis=1)
        expected_resid = bits - expit(scores)
    np.testing.assert_array_equal(logp, expected_logp)
    np.testing.assert_array_equal(resid, expected_resid)
    np.testing.assert_array_equal(pol.log_prob(xs, acts), logp)
    np.testing.assert_array_equal(
        pol.weighted_grad_log_prob_sum(xs, acts, coefs), pol.score_gradient(xb, resid, coefs)
    )
    np.testing.assert_array_equal(
        pol.score_gradient(xb, resid, coefs), xb.T @ (coefs[:, None] * expected_resid) / 0.7
    )


def _policy_cases(space, rng):
    """(policy, contexts, actions): saturating scores past 30, theta = 0, and a 1-row batch."""
    wild = replace(random_policy(space, 2, rng, scale=20.0), temperature=0.7)
    cases = [(wild, rng.normal(size=(50, 2))), (uniform_policy(space, 2), rng.normal(size=(50, 2))),
             (random_policy(space, 2, rng), rng.normal(size=(1, 2)))]
    out = []
    for pol, xs in cases:
        if isinstance(space, Multiclass):
            acts = rng.integers(0, space.n_actions, size=len(xs))
        else:
            acts = (rng.random((len(xs), space.n_labels)) < 0.5).astype(np.int8)
        out.append((pol, xs, acts))
    assert np.abs(_with_bias(out[0][1]) @ wild.theta / 0.7).max() > 30
    return out


@pytest.mark.parametrize("space", [Multiclass(4), FactorizedLabels(3)])
def test_row_readers_on_every_row_match_the_per_record_formulas(space):
    # rows=None reads one record per table row: every public reader and the trainers'
    # mini-batches take this path, and it must give the textbook formulas' bits
    rng = np.random.default_rng(21)
    for pol, xs, acts in _policy_cases(space, rng):
        xb = _with_bias(xs)
        want_logp, want_resid = log_prob_and_residual_by_records(pol, xb, acts)
        table = pol._row_table(xb, len(xb))
        np.testing.assert_array_equal(pol._log_prob_rows(table, None, acts), want_logp)
        np.testing.assert_array_equal(pol._residual_rows(table, None, acts), want_resid)
        np.testing.assert_array_equal(pol.log_prob(xs, acts), want_logp)
        np.testing.assert_array_equal(pol.log_prob(xs, acts.tolist()), want_logp)
        assert pol.log_prob(xs[0], acts[0]) == log_prob_and_residual_by_records(pol, xb[:1], acts[:1])[0][0]
        coefs = rng.normal(size=len(xs))
        want_grad = xb.T @ (coefs[:, None] * want_resid) / pol.temperature
        np.testing.assert_array_equal(pol.weighted_grad_log_prob_sum(xs, acts, coefs), want_grad)
        seed = int(rng.integers(2**32))
        drawn = pol.sample_actions(xs, np.random.default_rng(seed))
        np.testing.assert_array_equal(drawn, sample_by_records(pol, xb, np.random.default_rng(seed)))


def test_log_normalizer_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(12)
    cases = []
    for scale in (1e-3, 1.0, 40.0, 1e6, 1e300):
        scores = scale * rng.normal(size=(50, 6))
        cases += [scores, np.round(scores / scale) * scale]  # the second ties often
    tied = rng.normal(size=(50, 64))
    tied[:, 5:9] = tied.max(axis=1, keepdims=True)  # several entries at the row max
    cases.append(tied)
    big, inf = 1.7e308, np.inf
    cases.append(np.array([[big, big, -big], [-big, -big, -big], [0.0, 0.0, 0.0], [-1e300, 0.0, 1e300]]))
    # scores that overflowed: rows whose result is not finite take scipy's direct form
    cases.append(np.array([[inf, 0.0, 1.0], [inf, inf, -inf], [-inf, -inf, -inf], [-inf, 0.0, 0.0]]))
    for scores in cases:
        with np.errstate(over="ignore", invalid="ignore"):  # scipy's own -big - big, inf - inf
            want = logsumexp(scores, axis=1, keepdims=True)
        assert _logsumexp(scores).tobytes() == want.tobytes()


def test_weighted_grad_sum_matches_loop():
    rng = np.random.default_rng(8)
    pol = random_policy(FactorizedLabels(3), 2, rng)
    xs = rng.normal(size=(7, 2))
    acts = (rng.random((7, 3)) < 0.5).astype(np.int8)
    coefs = rng.normal(size=7)
    batched = pol.weighted_grad_log_prob_sum(xs, acts, coefs)
    looped = sum(
        c * pol.weighted_grad_log_prob_sum(x, [a], [1.0]) for c, x, a in zip(coefs, xs, acts)
    )
    np.testing.assert_allclose(batched, looped, atol=1e-10)


def make_dataset(rng, m=40, d=3, labels=3):
    feats = rng.normal(size=(m, d))
    labs = (rng.random((m, labels)) < 0.5).astype(np.int8)
    return LabeledDataset(feats, labs)


class TestTrueRisk:
    def test_label_matching_policy_has_zero_risk(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(3, 3))
        feats = rng.normal(size=(120, 3))
        scores = feats @ w
        keep = np.min(np.abs(scores), axis=1) > 0.1  # margin so a sharp policy saturates
        ds = LabeledDataset(feats[keep], (scores[keep] > 0).astype(np.int8))
        sharp = LinearPolicy(
            theta=np.vstack([w * 500.0, np.zeros(3)]), action_space=FactorizedLabels(3)
        )
        assert true_risk(sharp, ds) == pytest.approx(0.0, abs=1e-8)
        assert greedy_risk(sharp, ds) == 0.0

    def test_uniform_factorized_policy_costs_half_the_labels(self):
        rng = np.random.default_rng(10)
        ds = make_dataset(rng, labels=4)
        pol = uniform_policy(FactorizedLabels(4))
        assert true_risk(pol, ds) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("space", [Multiclass(8), FactorizedLabels(3)])
    def test_matches_monte_carlo(self, space):
        rng = np.random.default_rng(11)
        ds = make_dataset(rng, m=12, labels=3)
        pol = random_policy(space, 3, rng, scale=0.6)
        exact = true_risk(pol, ds)
        draws = 100_000
        rows = rng.integers(0, ds.n_rows, size=draws)
        actions = pol.sample_actions(ds.features[rows], rng)
        if isinstance(space, Multiclass):
            bits = action_bitvectors(3)[actions]
        else:
            bits = actions
        costs = np.abs(bits - ds.labels[rows]).sum(axis=1)
        stderr = costs.std(ddof=1) / math.sqrt(draws)
        assert abs(costs.mean() - exact) <= 3 * stderr

    @pytest.mark.parametrize("risk", [true_risk, greedy_risk])
    @pytest.mark.parametrize("space", ["factorized", "multiclass"])
    def test_a_policy_that_does_not_fit_the_dataset_is_named_by_field(self, risk, space):
        # they failed inside numpy (a matmul or broadcast mismatch) or named no field
        ds = make_dataset(np.random.default_rng(13), labels=4)
        wide = {"factorized": FactorizedLabels(4), "multiclass": Multiclass(16)}[space]
        with pytest.raises(ValueError, match="^feature_dim: the policy has 4, the dataset 3$"):
            risk(uniform_policy(wide, dim=4), ds)
        fewer, want = {
            "factorized": (FactorizedLabels(3), "^n_labels: the policy has 3, the dataset 4$"),
            "multiclass": (Multiclass(8), "^n_actions: the policy has 8, the dataset 16$"),
        }[space]
        with pytest.raises(ValueError, match=want):
            risk(uniform_policy(fewer), ds)

    def test_greedy_and_stochastic_risks_both_reported(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng)
        pol = random_policy(FactorizedLabels(3), 3, rng)
        stochastic = true_risk(pol, ds)
        greedy = greedy_risk(pol, ds)
        assert stochastic >= 0.0 and greedy >= 0.0


@pytest.mark.parametrize("space", [Multiclass(4), FactorizedLabels(3)])
def test_log_probability_is_concave_in_parameters(space):
    rng = np.random.default_rng(13)
    x = rng.normal(size=3)
    action = 1 if isinstance(space, Multiclass) else np.array([0, 1, 1], dtype=np.int8)
    for _ in range(30):
        a = random_policy(space, 3, rng)
        b = random_policy(space, 3, rng)
        mid = replace(a, theta=(a.theta + b.theta) / 2)
        assert mid.log_prob(x, action) >= (
            a.log_prob(x, action) + b.log_prob(x, action)
        ) / 2 - 1e-10


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    for space in (Multiclass(4), FactorizedLabels(3)):
        pol = random_policy(space, 5, rng)
        pol = replace(pol, temperature=1.7)
        path = tmp_path / "policy.json"
        save_policy(pol, path)
        back = load_policy(path)
        np.testing.assert_array_equal(back.theta, pol.theta)
        assert back.action_space == pol.action_space
        assert back.temperature == pol.temperature


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_policy(path)


@pytest.mark.parametrize("key,value", [
    ("temperature", math.inf),
    ("temperature", math.nan),
    ("theta", [[0.0, math.nan], [0.0, 0.0], [0.0, 0.0]]),
    ("theta", [[0.0, 0.0], [-math.inf, 0.0], [0.0, 0.0]]),
])
def test_checkpoint_with_non_finite_values_is_rejected(tmp_path, key, value):
    path = tmp_path / "policy.json"
    save_policy(uniform_policy(Multiclass(2), dim=2), path)
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"{key} must be"):
        load_policy(path)


def test_policy_validation():
    with pytest.raises(ValueError):
        LinearPolicy(theta=np.zeros((3, 2)), action_space=Multiclass(3))
    with pytest.raises(ValueError):
        LinearPolicy(theta=np.zeros((3, 2)), action_space=Multiclass(2), temperature=0.0)
