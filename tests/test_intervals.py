"""Quantiles, interval formulas, calibration and coverage machinery."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from cfdro.data import (
    LoggingPolicyConfig,
    collect_bandit_log,
    sample_bandit_log,
    synthetic_multilabel_dataset,
    train_logging_policy,
)
from cfdro.divergences import DivergenceKind
from cfdro.estimators import BanditLog, CostScale, ips_risk
from cfdro.intervals import (
    RiskInterval,
    bernstein_interval,
    calibrated_radius,
    chi2_quantile_1dof,
    coverage_experiment,
    dro_interval,
    hoeffding_interval,
    risk_intervals,
    write_coverage_csv,
)
from cfdro.policies import FactorizedLabels, LinearPolicy, Multiclass, true_risk

import cfdro.intervals as intervals_module
from oracles import replication_by_records

ALL_KINDS = list(DivergenceKind)


class TestChiSquareQuantile:
    def test_reference_values(self):
        assert chi2_quantile_1dof(0.95) == pytest.approx(3.841459, abs=1e-6)
        assert chi2_quantile_1dof(0.5) == pytest.approx(0.454936, abs=1e-6)

    def test_against_scipy(self):
        for p in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999):
            assert chi2_quantile_1dof(p) == pytest.approx(
                scipy.stats.chi2.ppf(p, df=1), abs=1e-8
            )

    def test_monotone(self):
        qs = [chi2_quantile_1dof(p) for p in np.linspace(0.05, 0.99, 20)]
        assert all(a < b for a, b in zip(qs[:-1], qs[1:]))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                chi2_quantile_1dof(bad)

    def test_each_level_is_bisected_once(self, monkeypatch):
        chi2_quantile_1dof.cache_clear()
        erf, calls = math.erf, []

        def counted(x):
            calls.append(x)
            return erf(x)

        monkeypatch.setattr(math, "erf", counted)
        first = calibrated_radius(DivergenceKind.KL, 0.07, 50)
        bisection = len(calls)
        assert bisection > 30
        assert calibrated_radius(DivergenceKind.KL, 0.07, 50) == first
        assert calibrated_radius(DivergenceKind.CHI_SQUARE, 0.07, 80) > 0
        assert len(calls) == bisection


def test_calibrated_radius_scales_with_curvature():
    base = chi2_quantile_1dof(0.95) / 100
    assert calibrated_radius(DivergenceKind.CHI_SQUARE, 0.05, 100) == pytest.approx(base)
    assert calibrated_radius(DivergenceKind.KL, 0.05, 100) == pytest.approx(base / 2)
    assert calibrated_radius(DivergenceKind.BURG, 0.05, 100) == pytest.approx(base / 2)
    assert calibrated_radius(DivergenceKind.HELLINGER, 0.05, 100) == pytest.approx(base / 4)


def constant_cost_log(n=20, cost=-0.4):
    rng = np.random.default_rng(0)
    return BanditLog(
        features=rng.normal(size=(n, 2)),
        actions=np.zeros(n, dtype=int),
        propensities=np.full(n, 0.5),
        costs_raw=np.full(n, cost),
        costs=np.full(n, cost),
        action_space=Multiclass(2),
        cost_scale=CostScale.identity(),
    )


def indifferent_policy():
    # probability 1/2 on every action, matching the logged propensities
    return LinearPolicy(theta=np.zeros((3, 2)), action_space=Multiclass(2))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_degenerate_interval_on_constant_costs(kind):
    log = constant_cost_log()
    iv = dro_interval(log, indifferent_policy(), kind, 0.05)
    assert iv.lower == pytest.approx(-0.4, abs=1e-12)
    assert iv.upper == pytest.approx(-0.4, abs=1e-12)


def _pipeline_log(n, seed):
    ds = synthetic_multilabel_dataset(80, 3, 6, seed=5)
    p0 = train_logging_policy(ds.subset(range(30)))
    target = replace(p0, theta=p0.theta + 0.25 * np.random.default_rng(9).normal(size=p0.theta.shape))
    return sample_bandit_log(ds, p0, n, seed=seed), target, ds, p0


def test_width_shrinks_like_root_n():
    log_small, target, _, p0 = _pipeline_log(400, seed=1)
    log_big, _, _, _ = _pipeline_log(4000, seed=2)
    w_small = dro_interval(log_small, target, DivergenceKind.CHI_SQUARE, 0.05).width
    w_big = dro_interval(log_big, target, DivergenceKind.CHI_SQUARE, 0.05).width
    assert 0.25 <= w_big / w_small <= 0.40


class TestHoeffding:
    def test_frozen_half_width(self):
        # W sqrt(log(2/delta) / (2n)) at W=1, n=1000, delta=0.05
        log, target, _, _ = _pipeline_log(1000, seed=3)
        iv = hoeffding_interval(log, target, 0.05, weight_bound=None)
        frozen = math.sqrt(math.log(2 / 0.05) / (2 * 1000))
        assert frozen == pytest.approx(0.042947, abs=1e-6)
        center = ips_risk(log, target)
        got_half = (iv.upper - iv.lower) / 2
        assert iv.lower == pytest.approx(center - got_half, abs=1e-12)

    def test_width_depends_only_on_the_bound(self):
        log_a, target, _, _ = _pipeline_log(500, seed=4)
        log_b, _, _, _ = _pipeline_log(500, seed=5)
        w_a = hoeffding_interval(log_a, target, 0.05, weight_bound=3.0).width
        w_b = hoeffding_interval(log_b, target, 0.05, weight_bound=3.0).width
        assert w_a == pytest.approx(w_b, abs=1e-15)
        assert w_a == pytest.approx(2 * 3.0 * math.sqrt(math.log(40) / 1000), abs=1e-12)

    def test_wider_than_the_asymptotic_interval(self):
        log, target, _, _ = _pipeline_log(800, seed=6)
        hoef = hoeffding_interval(log, target, 0.05)
        dro = dro_interval(log, target, DivergenceKind.CHI_SQUARE, 0.05)
        assert hoef.width > dro.width

    def test_bound_violation_is_rejected(self):
        log, target, _, _ = _pipeline_log(100, seed=7)
        with pytest.raises(ValueError):
            hoeffding_interval(log, target, 0.05, weight_bound=1e-6)


class TestBernstein:
    def test_zero_variance_leaves_only_the_range_term(self):
        log = constant_cost_log(n=50)
        iv = bernstein_interval(log, indifferent_policy(), 0.05, weight_bound=2.0)
        expected_half = 7 * 2.0 * math.log(40) / (3 * 49)
        assert iv.width / 2 == pytest.approx(expected_half, abs=1e-12)

    def test_frozen_two_record_half_width(self, two_record_log, two_record_policy):
        iv = bernstein_interval(two_record_log, two_record_policy, 0.05, weight_bound=2.0)
        expected = math.sqrt(2 * 1.53125 * math.log(40) / 2) + 7 * 2 * math.log(40) / 3
        assert expected == pytest.approx(2.376678 + 17.214771, abs=1e-5)
        assert iv.width / 2 == pytest.approx(expected, abs=1e-12)

    def test_half_width_nonnegative(self):
        log, target, _, _ = _pipeline_log(300, seed=8)
        iv = bernstein_interval(log, target, 0.05)
        assert iv.width >= 0


def test_interval_validation():
    with pytest.raises(ValueError):
        RiskInterval(lower=0.0, upper=-1.0, delta=0.05, method="x", n=10)
    with pytest.raises(ValueError):
        RiskInterval(lower=0.0, upper=1.0, delta=1.5, method="x", n=10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_interval_contains_the_point_estimate(kind):
    log, target, _, _ = _pipeline_log(300, seed=10)
    iv = dro_interval(log, target, kind, 0.05)
    point = ips_risk(log, target)
    assert iv.lower - 1e-9 <= point <= iv.upper + 1e-9


def test_all_generators_give_similar_widths():
    log, target, _, _ = _pipeline_log(1500, seed=11)
    widths = [dro_interval(log, target, kind, 0.05).width for kind in ALL_KINDS]
    assert (max(widths) - min(widths)) / min(widths) < 0.25


class TestCoverageExperiment:
    def test_row_shape_and_flags(self, tmp_path):
        ds = synthetic_multilabel_dataset(60, 3, 5, seed=12)
        p0 = train_logging_policy(ds.subset(range(20)))
        target = replace(
            p0, theta=p0.theta + 0.2 * np.random.default_rng(13).normal(size=p0.theta.shape)
        )
        rows = coverage_experiment(
            ds, target, p0, replications=2, n_values=[60, 120], seed=14
        )
        assert len(rows) == 2 * 2 * (len(ALL_KINDS) + 2)
        assert {r.covered for r in rows} <= {0, 1}
        assert {r.n for r in rows} == {60, 120}
        out = tmp_path / "coverage.csv"
        write_coverage_csv(rows, out)
        with out.open() as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        assert set(parsed[0]) == {
            "method", "divergence", "n", "replication", "lower", "upper", "true_risk", "covered",
        }

    def test_replay_mode_sizes(self):
        ds = synthetic_multilabel_dataset(30, 3, 5, seed=15)
        p0 = train_logging_policy(ds.subset(range(10)))
        rows = coverage_experiment(
            ds, p0, p0, replications=1, replay_counts=[2], seed=16,
            kinds=[DivergenceKind.CHI_SQUARE],
        )
        assert all(r.n == 60 for r in rows)

    def test_requires_exactly_one_size_spec(self):
        ds = synthetic_multilabel_dataset(30, 3, 5, seed=17)
        p0 = train_logging_policy(ds.subset(range(10)))
        with pytest.raises(ValueError):
            coverage_experiment(ds, p0, p0, replications=1, seed=0)
        with pytest.raises(ValueError):
            coverage_experiment(
                ds, p0, p0, replications=1, n_values=[10], replay_counts=[1], seed=0
            )

    def test_quick_coverage_spot_check(self):
        # fast necessary condition; the full 500-replication study at the
        # stated thresholds runs in the acceptance suite
        ds = synthetic_multilabel_dataset(80, 3, 6, seed=18)
        p0 = train_logging_policy(ds.subset(range(30)))
        target = replace(
            p0, theta=p0.theta + 0.2 * np.random.default_rng(19).normal(size=p0.theta.shape)
        )
        rows = coverage_experiment(
            ds, target, p0, replications=120, n_values=[800], seed=20,
            kinds=[DivergenceKind.CHI_SQUARE],
        )
        dro_rows = [r for r in rows if r.method == "dro"]
        assert np.mean([r.covered for r in dro_rows]) >= 0.90
        finite_rows = [r for r in rows if r.method in ("hoeffding", "bernstein")]
        assert np.mean([r.covered for r in finite_rows]) == 1.0


def _study_env(space):
    ds = synthetic_multilabel_dataset(50, 3, 5, seed=21)
    p0 = train_logging_policy(ds.subset(range(20)), LoggingPolicyConfig(action_space=space))
    target = replace(p0, theta=p0.theta + 0.3 * np.random.default_rng(22).normal(size=p0.theta.shape))
    return ds, p0, target


@pytest.mark.parametrize("space", ["factorized", "multiclass"])
@pytest.mark.parametrize("by", ["replay_counts", "n_values"])
@pytest.mark.parametrize("one_row", [False, True])
def test_coverage_rows_equal_the_per_replication_logs_and_intervals(space, by, one_row):
    # the study reads its logs from row tables; each row must be what the
    # public collection and interval functions give on the same seed, bit for
    # bit, also on one row (row 0, whose scores alone differ in bits from a batch's)
    ds, p0, target = _study_env(space)
    ds = ds.subset([0]) if one_row else ds
    sizes, replications, kinds = ([1 + one_row, 3] if by == "replay_counts" else [7, 120]), 2, ALL_KINDS[1:3]
    rows = coverage_experiment(ds, target, p0, replications=replications, kinds=kinds, seed=23, **{by: sizes})
    seeds = np.random.SeedSequence(23).spawn(len(sizes) * replications)
    truth = float(CostScale.for_hamming(ds.n_labels).apply(true_risk(target, ds)))
    want = []
    for si, size in enumerate(sizes):
        for rep in range(replications):
            child = int(seeds[si * replications + rep].generate_state(1)[0])
            collect = collect_bandit_log if by == "replay_counts" else sample_bandit_log
            log = collect(ds, p0, size, seed=child)
            intervals = risk_intervals(log, target, kinds, 0.05)
            for iv, kind in zip(intervals, [k.value for k in kinds] + ["", ""]):
                method = "dro" if kind else iv.method
                want.append((method, kind, log.n, rep, iv.lower, iv.upper, truth, int(iv.contains(truth))))
    assert [tuple(vars(r).values()) for r in rows] == want


def test_a_study_scores_each_row_once_whatever_its_replications(monkeypatch):
    ds, p0, target = _study_env("factorized")
    calls = []
    log_scores = LinearPolicy._log_scores

    def counted(self, xb):
        calls.append(len(xb))
        return log_scores(self, xb)

    monkeypatch.setattr(LinearPolicy, "_log_scores", counted)
    for replications in (1, 3):
        calls.clear()
        coverage_experiment(ds, target, p0, replications=replications, replay_counts=[1, 2], seed=24)
        # the two row tables and the exact risk, each over the dataset's rows
        assert calls == [ds.n_rows] * 3


def test_coverage_rejects_a_target_that_does_not_fit_naming_the_field():
    ds, p0, _ = _study_env("factorized")
    wide = LinearPolicy(np.zeros((8, 3)), FactorizedLabels(3))
    with pytest.raises(ValueError, match="^feature_dim: "):
        coverage_experiment(ds, wide, p0, replications=1, replay_counts=[1], seed=25)
    with pytest.raises(ValueError, match="^feature_dim: "):
        coverage_experiment(ds, p0, wide, replications=1, replay_counts=[1], seed=25)
    other_kind = LinearPolicy(np.zeros((6, 8)), Multiclass(8))
    with pytest.raises(ValueError, match="^action_space: "):
        coverage_experiment(ds, other_kind, p0, replications=1, replay_counts=[1], seed=25)


def _pairs_env(space, n_labels, one_row):
    """A 40-row dataset of ``n_labels`` labels (or its row 0 alone), a logging policy and a target."""
    ds = synthetic_multilabel_dataset(40, n_labels, 5, seed=26)
    p0 = train_logging_policy(ds.subset(range(20)), LoggingPolicyConfig(action_space=space))
    target = replace(p0, theta=p0.theta + 0.3 * np.random.default_rng(27).normal(size=p0.theta.shape))
    return (ds.subset([0]) if one_row else ds), p0, target


@pytest.mark.parametrize(
    "space,n_labels", [("multiclass", 4), ("factorized", 4), ("factorized", 9), ("factorized", 70)]
)
@pytest.mark.parametrize("by", ["replay_counts", "n_values"])
@pytest.mark.parametrize("one_row", [False, True])
def test_coverage_weighs_each_pair_once_with_the_per_record_bits(monkeypatch, space, n_labels, by, one_row):
    # each replication's weighted costs, their support (values, counts, dtypes) and its rows are
    # those of weighing every record on its own; 9 labels sum each log-probability pairwise,
    # and 70 labels pack into 9 bytes
    ds, p0, target = _pairs_env(space, n_labels, one_row)
    # P = 1 repeats no pair; an interval needs two records, so one row is replayed twice at least
    sizes = ([2, 5] if one_row else [1, 3]) if by == "replay_counts" else [7, 200]
    seen, intervals_of = [], intervals_module._intervals_of

    def spy(z, support, *args):
        seen.append((z, support))
        return intervals_of(z, support, *args)

    monkeypatch.setattr(intervals_module, "_intervals_of", spy)
    rows = coverage_experiment(ds, target, p0, replications=2, kinds=ALL_KINDS, seed=28, **{by: sizes})
    seeds = np.random.SeedSequence(28).spawn(len(sizes) * 2)
    truth = float(CostScale.for_hamming(ds.n_labels).apply(true_risk(target, ds)))
    want, repeated = [], False
    for si, size in enumerate(sizes):
        for rep in range(2):
            rng = np.random.default_rng(int(seeds[si * 2 + rep].generate_state(1)[0]))
            m = ds.n_rows
            row_idx = rng.integers(0, m, size=size) if by == "n_values" else np.tile(np.arange(m), size)
            log, z, support, ivs = replication_by_records(ds, target, p0, row_idx, rng, ALL_KINDS)
            got_z, got_support = seen[si * 2 + rep]
            for g, w in zip((got_z, *got_support), (z, *support)):
                assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
            actions = log[1].reshape(len(row_idx), -1)
            repeated |= len(np.unique(np.column_stack([row_idx, actions]), axis=0)) < len(row_idx)
            for iv, kind in zip(ivs, [k.value for k in ALL_KINDS] + ["", ""]):
                method = "dro" if kind else iv.method
                covered = int(iv.contains(truth))
                want.append((method, kind, len(row_idx), rep, iv.lower, iv.upper, truth, covered))
    assert [tuple(vars(r).values()) for r in rows] == want
    assert repeated or n_labels == 70  # the study had pairs to share


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, 0, -1, "2", None])
def test_coverage_counts_must_be_positive_integers_naming_the_field(bad):
    ds, p0, target = _study_env("factorized")
    with pytest.raises(ValueError, match=r"^replications must be a positive integer, got "):
        coverage_experiment(ds, target, p0, replications=bad, replay_counts=[1])
    with pytest.raises(ValueError, match=r"^replay_counts\[1\] must be a positive integer, got "):
        coverage_experiment(ds, target, p0, replications=1, replay_counts=[1, bad])
    with pytest.raises(ValueError, match=r"^n_values\[0\] must be a positive integer, got "):
        coverage_experiment(ds, target, p0, replications=1, n_values=[bad])


def test_coverage_counts_take_numpy_integers_and_need_a_size():
    ds, p0, target = _study_env("factorized")
    rows = coverage_experiment(
        ds, target, p0, replications=np.int64(2), replay_counts=[np.int32(1)], kinds=ALL_KINDS[:1]
    )
    assert [r.n for r in rows] == [ds.n_rows] * 6
    with pytest.raises(ValueError, match=r"^len\(n_values\) must be a positive integer, got 0"):
        coverage_experiment(ds, target, p0, replications=1, n_values=[])
