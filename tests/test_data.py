"""Parsing, splitting, logging-policy fitting, log collection and serialization."""

import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cfdro.data import (
    LoggingPolicyConfig,
    SplitSpec,
    collect_bandit_log,
    parse_libsvm_multilabel,
    read_bandit_log,
    sample_bandit_log,
    split_dataset,
    synthetic_multilabel_dataset,
    train_logging_policy,
    write_bandit_log,
    write_libsvm_multilabel,
)
import cfdro.data as data_module
import cfdro.estimators as estimators_module
from cfdro.estimators import BanditLog, CostScale, _byte_groups, ips_risk
from cfdro.policies import (
    FactorizedLabels,
    LabeledDataset,
    LinearPolicy,
    Multiclass,
    greedy_risk,
    true_risk,
)

from oracles import (
    log_by_records,
    parse_libsvm_by_token,
    write_bandit_log_by_records,
    write_libsvm_by_index,
)

# floats whose shortest repr takes each of Python's forms: subnormal, the
# smallest normal, the largest, exponent notation on both sides, and -0.0
EXTREME_FLOATS = [
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7, 0.1, 3.0, -0.0,
]


class TestLibsvmParsing:
    def test_reference_line(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("1,3 1:0.5 4:-1.0\n")
        ds = parse_libsvm_multilabel(path, n_features=4, n_labels=4)
        np.testing.assert_array_equal(ds.labels, [[0, 1, 0, 1]])
        np.testing.assert_allclose(ds.features, [[0.5, 0.0, 0.0, -1.0]])

    def test_empty_label_field(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("2:1.5\n0 1:2.0\n")
        ds = parse_libsvm_multilabel(path)
        np.testing.assert_array_equal(ds.labels, [[0], [1]])
        np.testing.assert_allclose(ds.features, [[0.0, 1.5], [2.0, 0.0]])

    def test_malformed_line_reports_the_line_number(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("0 1:0.5\n1 2:abc\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_libsvm_multilabel(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "NaN"])
    def test_non_finite_value_reports_its_line_and_index(self, tmp_path, value):
        # the blank line keeps the line number apart from the row number
        path = tmp_path / "data.svm"
        path.write_text(f"0 1:0.5\n\n1 1:0.25 2:{value}\n0 2:1.0\n")
        message = r"^line 3: feature 2 must be finite, got -?(nan|inf)$"
        with pytest.raises(ValueError, match=message):
            parse_libsvm_multilabel(path)

    def test_duplicate_feature_index_rejected(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("0 1:0.5 1:0.7\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_libsvm_multilabel(path)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = np.where(rng.random((25, 6)) < 0.3, rng.normal(size=(25, 6)), 0.0)
        labels = (rng.random((25, 4)) < 0.4).astype(np.int8)
        labels[0, 3] = 1  # pin the label dimension
        feats[0, 5] = 1.25  # pin the feature dimension
        ds = LabeledDataset(feats, labels)
        path = tmp_path / "round.svm"
        write_libsvm_multilabel(ds, path)
        back = parse_libsvm_multilabel(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_writes_the_bytes_of_the_per_index_writer(self, tmp_path):
        rng = np.random.default_rng(1)
        feats = np.where(rng.random((40, 8)) < 0.4, rng.normal(size=(40, 8)), 0.0)
        feats[0] = EXTREME_FLOATS
        feats[1] = -np.asarray(EXTREME_FLOATS)
        labels = (rng.random((40, 5)) < 0.4).astype(np.int8)
        labels[2] = 0  # a row with an empty label field
        feats[3] = 0.0  # and one with no features
        ds = LabeledDataset(feats, labels)
        write_libsvm_multilabel(ds, tmp_path / "new.svm")
        write_libsvm_by_index(ds, tmp_path / "old.svm")
        assert (tmp_path / "new.svm").read_bytes() == (tmp_path / "old.svm").read_bytes()


def _parse_outcome(parse, path, **dims):
    """A parse's arrays with their shapes and dtypes, or its exception's type and message."""
    try:
        ds = parse(path, **dims)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple((a.shape, a.dtype, a.tobytes()) for a in (ds.features, ds.labels))


# spellings that Python's int() and float() accept besides the plain ones
INDEX_SPELLINGS = [str, "+{}".format, "0{}".format, lambda i: "".join(chr(0x660 + int(c)) for c in str(i))]
VALUE_SPELLINGS = ["+1.5", "1_000.25", "-0.0", "1E3", ".5", "5.", "\u0663.\u0665", "2e-310"]
# one fault each, spliced into a line: the parsers must agree on the error and its line
LINE_FAULTS = {
    "no colon": lambda toks: toks + ["10"],
    "two colons": lambda toks: toks + ["10:1.0:2"],
    "empty index": lambda toks: toks + [":1.0"],
    "empty value": lambda toks: toks + ["10:"],
    "non-numeric value": lambda toks: toks + ["10:abc"],
    "index 0": lambda toks: toks + ["0:1.0"],
    "negative label": lambda toks: ["-1"] + toks[1:],
    "duplicate index": lambda toks: toks + ["10:1.0", "010:2.0"],
    "20-digit index": lambda toks: toks + ["12345678901234567890:1.0"],
    "nan": lambda toks: toks + ["10:nan"],
    "1e400": lambda toks: toks + ["10:1e400"],
    "no-break space": lambda toks: [" ".join(toks) + "\u00a010:1.0"],
    "zero-width space": lambda toks: [" ".join(toks) + "\u200b10:1.0"],
    "underscore index": lambda toks: toks + ["1_0:1.0"],
    "bad label": lambda toks: ["1;2"] + toks[1:],
    "20-digit label": lambda toks: ["12345678901234567890"] + toks[1:],
}
ACCEPTED = ("no-break space", "underscore index")  # a separator and an index int() takes


@st.composite
def libsvm_files(draw):
    """LibSVM text with blank lines, CRLF endings, label-only and feature-only lines, signed
    zeros, extreme floats and other spellings; returns ``(text, n_features, n_labels, lines)``,
    ``lines`` being each data line's tokens and its 0-based index in the text."""
    out, lines = [], []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        labels = draw(st.lists(st.integers(0, 5), max_size=3))
        idx = draw(st.lists(st.integers(1, 9), unique=True, max_size=6))
        toks = [",".join(map(str, labels))] if labels else []
        for i in idx:
            if draw(st.booleans()):
                value = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
            else:
                value = draw(st.sampled_from(VALUE_SPELLINGS + list(map(repr, EXTREME_FLOATS))))
            toks.append(draw(st.sampled_from(INDEX_SPELLINGS))(i) + ":" + value)
        if not toks:
            toks = ["0"]
        lines.append((toks, len(out)))
        out.append(" ".join(toks))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(out), max_size=len(out)))
    n_features = draw(st.sampled_from([None, 10, 12]))
    n_labels = draw(st.sampled_from([None, 6, 8]))
    return "".join(map(str.__add__, out, ends)), n_features, n_labels, lines


def _same_parse(tmp_path, text, **dims):
    path = tmp_path / "data.svm"
    path.write_bytes(text.encode("utf-8"))
    got = _parse_outcome(parse_libsvm_multilabel, path, **dims)
    assert got == _parse_outcome(parse_libsvm_by_token, path, **dims)
    return got


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(file=libsvm_files())
def test_parse_matches_the_per_token_parser(tmp_path_factory, file):
    text, n_features, n_labels, _ = file
    got = _same_parse(tmp_path_factory.mktemp("svm"), text, n_features=n_features, n_labels=n_labels)
    if not any(line.strip() for line in text.splitlines()):
        assert got == (ValueError, "empty dataset file")


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(file=libsvm_files(), fault=st.sampled_from(sorted(LINE_FAULTS)), data=st.data())
def test_parse_faults_match_the_per_token_parser(tmp_path_factory, file, fault, data):
    text, n_features, n_labels, lines = file
    assume(lines)
    rows = text.splitlines(keepends=True)
    toks, at = data.draw(st.sampled_from(lines))
    end = rows[at][len(rows[at].rstrip("\r\n")):]
    if fault.endswith("label") and ":" in toks[0]:
        toks = ["0"] + toks
    rows[at] = " ".join(LINE_FAULTS[fault](toks)) + end
    got = _same_parse(tmp_path_factory.mktemp("svm"), "".join(rows), n_features=n_features, n_labels=n_labels)
    if fault not in ACCEPTED:
        assert got[0] is ValueError


@pytest.mark.parametrize("fault", sorted(LINE_FAULTS))
def test_each_line_fault_meets_the_per_token_parsers_error(tmp_path, fault):
    # the fault sits on line 3, after a valid line and a blank one, and before a bad line:
    # the later line's error wins only over a fault that the end-of-file checks find
    line = " ".join(LINE_FAULTS[fault](["1", "2:0.5", "4:-0.0"]))
    got = _same_parse(tmp_path, f"0 1:1.0\n\n{line}\r\n2 3:x\n")
    raised_at = 4 if fault in ACCEPTED + ("nan", "1e400", "20-digit index", "20-digit label") else 3
    assert got[0] is ValueError and got[1].startswith(f"line {raised_at}: ")


def test_dimensions_below_the_file_are_the_per_token_parsers_errors(tmp_path):
    text = "0,5 1:1.0 12:2.0\n3 4:1.0\n"
    assert _same_parse(tmp_path, text, n_features=11)[0] is ValueError
    assert _same_parse(tmp_path, text, n_labels=5)[0] is ValueError
    features, labels = _same_parse(tmp_path, text, n_features=12, n_labels=6)
    assert features[0] == (2, 12) and labels[0] == (2, 6)


def test_parse_holds_a_few_words_per_number(tmp_path):
    # the parse's traced peak against the arrays it returns: the per-token parser, with a dict
    # entry and a float object per number, peaks near 10 times them
    rng = np.random.default_rng(40)
    ds = LabeledDataset(rng.normal(size=(2000, 50)), rng.random((2000, 6)) < 0.4)
    write_libsvm_multilabel(ds, tmp_path / "data.svm")
    tracemalloc.start()
    try:
        back = parse_libsvm_multilabel(tmp_path / "data.svm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.features.tobytes() == ds.features.tobytes()
    assert peak < 6 * (back.features.nbytes + back.labels.nbytes)


class TestSplitting:
    def test_exact_sizes(self):
        ds = synthetic_multilabel_dataset(100, 3, 5, seed=1)
        splits = split_dataset(ds, SplitSpec(0.5, 0.25, 0.25, seed=2))
        assert splits.train.n_rows == 50
        assert splits.validation.n_rows == 25
        assert splits.test.n_rows == 25
        assert splits.logging.n_rows == 5

    def test_partition_is_disjoint_and_total(self):
        ds = synthetic_multilabel_dataset(83, 3, 5, seed=3)
        splits = split_dataset(ds, SplitSpec(0.6, 0.2, 0.2, seed=4))
        train = set(splits.indices["train"])
        val = set(splits.indices["validation"])
        test = set(splits.indices["test"])
        assert not (train & val or train & test or val & test)
        assert train | val | test == set(range(83))
        assert set(splits.indices["logging"]) <= train

    def test_seed_reproducibility(self):
        ds = synthetic_multilabel_dataset(60, 3, 5, seed=5)
        a = split_dataset(ds, SplitSpec(seed=9))
        b = split_dataset(ds, SplitSpec(seed=9))
        assert a.indices == b.indices

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.3, 0.3)
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.25, 0.25, logging_frac=0.0)


class TestLoggingPolicyFit:
    def test_separable_toy_is_learned(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(4, 2))
        feats = rng.normal(size=(120, 4))
        scores = feats @ w
        keep = np.min(np.abs(scores), axis=1) > 0.1
        ds = LabeledDataset(feats[keep], (scores[keep] > 0).astype(np.int8))
        policy = train_logging_policy(ds, LoggingPolicyConfig(temperature=1.0))
        accuracy = 1.0 - greedy_risk(policy, ds) / ds.n_labels
        assert accuracy >= 0.99

    def test_weight_decay_keeps_parameters_finite(self):
        ds = synthetic_multilabel_dataset(40, 2, 4, seed=7)
        policy = train_logging_policy(ds)
        assert np.all(np.isfinite(policy.theta))
        assert np.max(np.abs(policy.theta)) < 1e3

    def test_full_support_on_logged_actions(self):
        ds = synthetic_multilabel_dataset(50, 3, 5, seed=8)
        policy = train_logging_policy(ds)
        log = collect_bandit_log(ds, policy, 2, seed=9)
        assert log.propensities.min() > 0

    def test_multiclass_fit(self):
        ds = synthetic_multilabel_dataset(40, 2, 4, seed=10)
        policy = train_logging_policy(ds, LoggingPolicyConfig(action_space="multiclass"))
        assert policy.action_space.n_actions == 4
        assert true_risk(policy, ds) >= 0


class TestCollection:
    def test_record_count(self):
        ds = synthetic_multilabel_dataset(3, 2, 3, seed=11)
        policy = train_logging_policy(ds)
        assert collect_bandit_log(ds, policy, 1, seed=12).n == 3
        assert collect_bandit_log(ds, policy, 5, seed=12).n == 15
        with pytest.raises(ValueError):
            collect_bandit_log(ds, policy, 0, seed=12)

    def test_label_matching_policy_logs_best_costs(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(3, 2))
        feats = rng.normal(size=(50, 3))
        scores = feats @ w
        keep = np.min(np.abs(scores), axis=1) > 0.1
        ds = LabeledDataset(feats[keep], (scores[keep] > 0).astype(np.int8))
        sharp = LinearPolicy(
            theta=np.vstack([w * 500.0, np.zeros(2)]), action_space=FactorizedLabels(2)
        )
        log = collect_bandit_log(ds, sharp, 1, seed=14)
        np.testing.assert_array_equal(log.costs_raw, 0.0)
        np.testing.assert_allclose(log.costs, -1.0, atol=1e-12)

    def test_sampled_actions_match_the_policy_distribution(self):
        ds = LabeledDataset(np.array([[0.4, -0.2]]), np.array([[1, 0, 1]], dtype=np.int8))
        policy = train_logging_policy(
            synthetic_multilabel_dataset(30, 3, 2, seed=15), LoggingPolicyConfig()
        )
        log = collect_bandit_log(ds, policy, 100_000, seed=16)
        probs = policy.label_probabilities(ds.features[0])
        freqs = log.actions.mean(axis=0)
        sigma = np.sqrt(probs * (1 - probs) / log.n)
        assert np.all(np.abs(freqs - probs) <= 3 * sigma)

    def test_propensity_integrity(self):
        ds = synthetic_multilabel_dataset(40, 3, 5, seed=17)
        policy = train_logging_policy(ds)
        log = collect_bandit_log(ds, policy, 2, seed=18)
        recomputed = np.exp(policy.log_prob(log.features, log.actions))
        np.testing.assert_allclose(log.propensities, recomputed, atol=1e-12)

    def test_reweighted_mean_is_unbiased_for_the_exact_risk(self):
        ds = synthetic_multilabel_dataset(30, 3, 5, seed=19)
        policy = train_logging_policy(ds.subset(range(12)))
        truth = float(CostScale.for_hamming(ds.n_labels).apply(true_risk(policy, ds)))
        estimates = []
        for rep in range(200):
            log = collect_bandit_log(ds, policy, 1, seed=1000 + rep)
            estimates.append(ips_risk(log, policy))
        estimates = np.array(estimates)
        stderr = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - truth) <= 3 * stderr

    def test_iid_sampler(self):
        ds = synthetic_multilabel_dataset(25, 2, 4, seed=20)
        policy = train_logging_policy(ds)
        log = sample_bandit_log(ds, policy, 500, seed=21)
        assert log.n == 500
        with pytest.raises(ValueError):
            sample_bandit_log(ds, policy, 0, seed=21)

    def test_pipeline_reproducibility(self):
        ds = synthetic_multilabel_dataset(30, 3, 5, seed=22)
        policy = train_logging_policy(ds)
        a = collect_bandit_log(ds, policy, 3, seed=23)
        b = collect_bandit_log(ds, policy, 3, seed=23)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.propensities, b.propensities)
        np.testing.assert_array_equal(a.costs, b.costs)


def _per_record_log(dataset, policy, row_idx, rng):
    """The log arrays by the per-record formulas: draws, then ``log_prob``, on the gathered rows."""
    feats, labels = dataset.features[row_idx], dataset.labels[row_idx]
    if isinstance(policy.action_space, Multiclass):
        cdf = np.cumsum(policy.class_probabilities(feats), axis=1)
        u = rng.random(len(feats))
        cdf[:, -1] = 1.0
        actions = (u[:, None] < cdf).argmax(axis=1)
        bits = ((actions[:, None] >> np.arange(dataset.n_labels)) & 1).astype(float)
    else:
        probs = policy.label_probabilities(feats)
        actions = (rng.random(probs.shape) < probs).astype(np.int8)
        bits = actions.astype(float)
    raw = np.sum(np.abs(bits - labels.astype(float)), axis=1)
    propensities = np.exp(policy.log_prob(feats, actions))
    scaled = CostScale.for_hamming(dataset.n_labels).apply(raw)
    return feats, actions, propensities, raw, scaled


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        g = np.asarray(g)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def _collection_env(space, m):
    """``m`` dataset rows from row 1 on, and the logging policy of ``space``.

    Scored alone, row 1 gets other bits than in a batch, under either logging policy.
    """
    ds = synthetic_multilabel_dataset(40, 3, 5, seed=30)
    policy = train_logging_policy(ds.subset(range(20)), LoggingPolicyConfig(action_space=space))
    return ds.subset(np.roll(np.arange(40), -1)[:m]), policy


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
@pytest.mark.parametrize("m,replay", [(40, 1), (40, 3), (1, 1), (1, 4), (2, 5)])
def test_collect_matches_the_per_record_formulas_bit_for_bit(space, m, replay):
    # a one-row dataset replayed more than once is scored as a batch's row
    ds, policy = _collection_env(space, m)
    log = collect_bandit_log(ds, policy, replay, seed=31)
    rng = np.random.default_rng(31)
    want = _per_record_log(ds, policy, np.tile(np.arange(m), replay), rng)
    _assert_same_bits((log.features, log.actions, log.propensities, log.costs_raw, log.costs), want)


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
@pytest.mark.parametrize("m,n", [(40, 1), (40, 7), (40, 500), (1, 50), (3, 2)])
def test_sample_matches_the_per_record_formulas_bit_for_bit(space, m, n):
    ds, policy = _collection_env(space, m)
    log = sample_bandit_log(ds, policy, n, seed=32)
    rng = np.random.default_rng(32)
    want = _per_record_log(ds, policy, rng.integers(0, m, size=n), rng)
    _assert_same_bits((log.features, log.actions, log.propensities, log.costs_raw, log.costs), want)


@pytest.mark.parametrize(
    "space,n_labels", [("multiclass", 4), ("factorized", 4), ("factorized", 9), ("factorized", 70)]
)
@pytest.mark.parametrize("m,size", [(40, 1), (40, 4), (1, 1), (1, 6)])
def test_collection_weighs_each_pair_once_with_the_per_record_bits(space, n_labels, m, size):
    # P = 1 repeats no (row, action) pair; 9 labels sum each log-probability pairwise, and
    # 70 labels pack into 9 bytes
    ds = synthetic_multilabel_dataset(40, n_labels, 5, seed=37)
    policy = train_logging_policy(ds.subset(range(20)), LoggingPolicyConfig(action_space=space))
    ds = ds.subset(range(m))
    log = collect_bandit_log(ds, policy, size, seed=38)
    want = log_by_records(ds, policy, np.tile(np.arange(m), size), np.random.default_rng(38))
    _assert_same_bits((log.features, log.actions, log.propensities, log.costs_raw, log.costs), want)
    log = sample_bandit_log(ds, policy, 5 * size, seed=39)
    rng = np.random.default_rng(39)
    drawn, inverse = np.unique(rng.integers(0, m, size=5 * size), return_inverse=True)
    want = log_by_records(ds.subset(drawn), policy, inverse, rng)
    _assert_same_bits((log.features, log.actions, log.propensities, log.costs_raw, log.costs), want)


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
def test_collected_logs_take_their_contexts_from_the_dataset(monkeypatch, tmp_path, space):
    # byte-equal duplicate rows, and rows apart only by the sign of a zero
    ds = synthetic_multilabel_dataset(30, 3, 4, seed=41)
    feats = ds.features.copy()
    feats[[4, 9, 17]] = feats[2]
    feats[[5, 6, 7, 8]] = 0.0
    feats[[6, 7], 1] = -0.0
    feats[8] = -0.0
    ds = LabeledDataset(feats, ds.labels)
    assert len(_byte_groups(ds.features)[0]) == 26  # rows 6 and 7 are one; 5, 6 and 8 differ
    policy = train_logging_policy(ds.subset(range(20)), LoggingPolicyConfig(action_space=space))
    grouped = []

    def counted(rows):
        grouped.append(len(rows))
        return _byte_groups(rows)

    monkeypatch.setattr(data_module, "_byte_groups", counted)
    monkeypatch.setattr(estimators_module, "_byte_groups", counted)
    collected = (
        lambda: collect_bandit_log(ds, policy, 3, seed=42),
        lambda: sample_bandit_log(ds, policy, 50, seed=43),
        lambda: sample_bandit_log(ds, policy, 1, seed=44),
    )
    for collect in collected:
        grouped.clear()
        log = collect()
        assert len(grouped) == 1 and grouped[0] <= ds.n_rows  # the dataset's rows, once
        write_bandit_log(log, tmp_path / "log.jsonl")
        assert len(grouped) == 1
        want = _byte_groups(log.features)
        for got, expected in zip(log._contexts, want, strict=True):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_standalone_sample_scores_only_the_rows_it_draws(monkeypatch):
    ds, policy = _collection_env("factorized", 40)
    scored = []
    log_scores = LinearPolicy._log_scores

    def counted(self, xb):
        scored.append(len(xb))
        return log_scores(self, xb)

    monkeypatch.setattr(LinearPolicy, "_log_scores", counted)
    sample_bandit_log(ds, policy, 5, seed=33)
    assert len(scored) == 1 and scored[0] <= 5
    scored.clear()
    collect_bandit_log(ds, policy, 7, seed=33)
    assert scored == [40]


def _misfits(ds):
    """Policies that do not fit ``ds`` (5 features, 3 labels), with the field each names."""
    return [
        (LinearPolicy(np.zeros((5, 3)), FactorizedLabels(3)), "feature_dim"),
        (LinearPolicy(np.zeros((7, 3)), FactorizedLabels(3)), "feature_dim"),
        (LinearPolicy(np.zeros((6, 4)), FactorizedLabels(4)), "n_labels"),
        (LinearPolicy(np.zeros((6, 4)), Multiclass(4)), "n_actions"),
        (LinearPolicy(np.zeros((6, 16)), Multiclass(16)), "n_actions"),
    ]


@pytest.mark.parametrize("collect", [True, False])
def test_collection_rejects_a_policy_that_does_not_fit_naming_the_field(monkeypatch, collect):
    ds, _ = _collection_env("factorized", 40)

    def no_scores(self, xb):
        raise AssertionError("a policy that does not fit was scored")

    monkeypatch.setattr(LinearPolicy, "_log_scores", no_scores)
    for policy, field in _misfits(ds):
        with pytest.raises(ValueError, match=f"^{field}: "):
            if collect:
                collect_bandit_log(ds, policy, 2, seed=34)
            else:
                sample_bandit_log(ds, policy, 10, seed=34)


@pytest.mark.parametrize("count", [True, False, 2.5, 2.0, 0, -1, "2", None])
def test_collection_counts_must_be_positive_integers(count):
    ds, policy = _collection_env("factorized", 10)
    with pytest.raises(ValueError, match="replay_count must be a positive integer"):
        collect_bandit_log(ds, policy, count, seed=35)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        sample_bandit_log(ds, policy, count, seed=35)


def test_collection_counts_take_numpy_integers():
    ds, policy = _collection_env("factorized", 10)
    assert collect_bandit_log(ds, policy, np.int64(2), seed=36).n == 20
    assert sample_bandit_log(ds, policy, np.int32(3), seed=36).n == 3


class TestLogSerialization:
    def test_round_trip(self, tmp_path):
        ds = synthetic_multilabel_dataset(20, 3, 4, seed=24)
        policy = train_logging_policy(ds)
        log = collect_bandit_log(ds, policy, 2, seed=25)
        path = tmp_path / "log.jsonl"
        write_bandit_log(log, path)
        back = read_bandit_log(path)
        np.testing.assert_array_equal(back.features, log.features)
        np.testing.assert_array_equal(back.actions, log.actions)
        np.testing.assert_array_equal(back.propensities, log.propensities)
        np.testing.assert_array_equal(back.costs, log.costs)
        assert back.action_space == log.action_space
        assert back.cost_scale == log.cost_scale

    def test_rejects_nonpositive_propensity(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = (
            '{"format": "cfdro-banditlog", "version": 1, "n": 1, "feature_dim": 1, '
            '"action_space": {"kind": "multiclass", "size": 2}, '
            '"cost_scale": {"scale": 1.0, "offset": 0.0}}'
        )
        record = '{"features": [0.5], "action": 0, "propensity": 0.0, "cost_raw": -1.0, "cost_scaled": -1.0}'
        path.write_text(header + "\n" + record + "\n")
        with pytest.raises(ValueError, match="propensity"):
            read_bandit_log(path)

    def test_rejects_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = (
            '{"format": "cfdro-banditlog", "version": 1, "n": 1, "feature_dim": 2, '
            '"action_space": {"kind": "multiclass", "size": 2}, '
            '"cost_scale": {"scale": 1.0, "offset": 0.0}}'
        )
        record = '{"features": [0.5], "action": 0, "propensity": 0.5, "cost_raw": -1.0, "cost_scaled": -1.0}'
        path.write_text(header + "\n" + record + "\n")
        with pytest.raises(ValueError, match="dimension"):
            read_bandit_log(path)

    @pytest.mark.parametrize("action_space", ["factorized", "multiclass"])
    @pytest.mark.parametrize("replay", [1, 3])
    def test_writes_the_bytes_of_the_per_record_writer(self, tmp_path, action_space, replay):
        ds = synthetic_multilabel_dataset(30, 3, 4, seed=26)
        policy = train_logging_policy(ds, LoggingPolicyConfig(action_space=action_space))
        log = collect_bandit_log(ds, policy, replay, seed=27)
        assert_same_bytes_and_round_trip(log, tmp_path)

    def test_writes_extreme_floats_and_signed_zeros_exactly(self, tmp_path):
        extremes = np.array(EXTREME_FLOATS)
        feats = np.vstack([extremes, -extremes, extremes[::-1], extremes, -extremes])
        # rows that differ only in the sign of a zero, each repeated
        zeros = np.zeros((4, extremes.size))
        zeros[1, 0] = zeros[3, 0] = -0.0
        feats = np.vstack([feats, zeros])
        n = feats.shape[0]
        log = BanditLog(
            features=feats,
            actions=np.arange(n) % 2,
            propensities=np.resize([5e-324, 2.2250738585072014e-308, 1e-7, 0.1, 1.0], n),
            costs_raw=np.resize(extremes, n),
            costs=np.resize([-1.0, -0.0, -0.1, -1e-7, -5e-324], n),
            action_space=Multiclass(2),
            cost_scale=CostScale(1e16, -0.0),
        )
        back = assert_same_bytes_and_round_trip(log, tmp_path)
        assert np.signbit(back.features[5:, 0]).tolist() == [False, True, False, True]

    @pytest.mark.parametrize("extra", [1, -1, -3])
    def test_count_mismatch_reports_the_true_count(self, tmp_path, extra):
        ds = synthetic_multilabel_dataset(20, 3, 4, seed=28)
        log = collect_bandit_log(ds, train_logging_policy(ds), 2, seed=29)
        path = tmp_path / "log.jsonl"
        write_bandit_log(log, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["n"] = log.n + extra
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n\n")
        announced = f"^header announces {log.n + extra} records but file has {log.n}$"
        with pytest.raises(ValueError, match=announced):
            read_bandit_log(path)

    def test_reads_from_a_pipe(self, tmp_path):
        ds = synthetic_multilabel_dataset(20, 3, 4, seed=30)
        log = collect_bandit_log(ds, train_logging_policy(ds), 2, seed=31)
        write_bandit_log(log, tmp_path / "log.jsonl")
        fifo = tmp_path / "log.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=lambda: fifo.write_bytes((tmp_path / "log.jsonl").read_bytes()), daemon=True
        )
        writer.start()
        back = read_bandit_log(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(back.features, log.features)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"format": "other"}\n')
        with pytest.raises(ValueError):
            read_bandit_log(path)


def assert_same_bytes_and_round_trip(log, tmp_path):
    """Check the writer's bytes against the per-record writer's, and the read-back bits and dtypes."""
    write_bandit_log(log, tmp_path / "new.jsonl")
    write_bandit_log_by_records(log, tmp_path / "old.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
    back = read_bandit_log(tmp_path / "new.jsonl")
    for name in ("features", "actions", "propensities", "costs_raw", "costs"):
        got, want = getattr(back, name), getattr(log, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    assert back.action_space == log.action_space
    assert back.cost_scale == log.cost_scale
    return back


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
def test_a_log_with_no_features_writes_the_per_record_bytes(tmp_path, space):
    # every record shares the one empty context, as from a LibSVM file with no feature tokens
    ds = synthetic_multilabel_dataset(30, 3, 4, seed=32)
    ds = LabeledDataset(ds.features[:, :0], ds.labels)
    policy0 = train_logging_policy(ds, LoggingPolicyConfig(action_space=space))
    log = collect_bandit_log(ds, policy0, 3, seed=33)
    assert log.feature_dim == 0 and list(log._contexts[2]) == [log.n]
    assert_same_bytes_and_round_trip(log, tmp_path)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(0, 5)), elements=finite),
    data=st.data(),
)
def test_round_trip_keeps_every_bit(tmp_path_factory, rows, data):
    # records draw their contexts from a few rows, so rows repeat
    n = data.draw(st.integers(1, 12))
    pick = data.draw(hnp.arrays(np.intp, n, elements=st.integers(0, rows.shape[0] - 1)))
    column = lambda elements: data.draw(hnp.arrays(np.float64, n, elements=elements))  # noqa: E731
    if data.draw(st.booleans()):
        space, shape, ids = Multiclass(3), n, st.integers(0, 2)
    else:
        space, shape, ids = FactorizedLabels(2), (n, 2), st.integers(0, 1)
    actions = data.draw(hnp.arrays(np.int64, shape, elements=ids))
    log = BanditLog(
        features=rows[pick],
        actions=actions,
        propensities=column(st.floats(0.0, 1.0, exclude_min=True)),
        costs_raw=column(finite),
        costs=column(st.floats(-1.0, 0.0)),
        action_space=space,
        cost_scale=CostScale(data.draw(st.floats(0.0, 1e300, exclude_min=True)), data.draw(finite)),
    )
    assert_same_bytes_and_round_trip(log, tmp_path_factory.mktemp("log"))


def test_cost_scale_round_trip():
    scale = CostScale.for_hamming(6)
    raw = np.linspace(0, 6, 13)
    np.testing.assert_allclose(scale.invert(scale.apply(raw)), raw, atol=1e-12)
    np.testing.assert_allclose(scale.apply(0.0), -1.0)
    np.testing.assert_allclose(scale.apply(6.0), 0.0)


def test_synthetic_dataset_is_deterministic():
    a = synthetic_multilabel_dataset()
    b = synthetic_multilabel_dataset()
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.n_rows == 200 and a.n_labels == 4 and a.feature_dim == 5
