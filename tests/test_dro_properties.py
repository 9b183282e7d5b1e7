"""Metamorphic properties of the dual solver on generated cost vectors, for every divergence."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize as sp_optimize

from cfdro.data import collect_bandit_log, synthetic_multilabel_dataset, train_logging_policy
from cfdro.divergences import DivergenceKind, curvature_at_one
from cfdro.dro import kl_reduced_dual, optimistic_risk_dual, robust_risk_dual
from cfdro.estimators import importance_weights
from cfdro.intervals import calibrated_radius, risk_intervals
from cfdro.policies import LinearPolicy

ALL_KINDS = list(DivergenceKind)

properties = settings(derandomize=True, deadline=None, database=None, max_examples=20)
costs = hnp.arrays(
    np.float64, st.integers(1, 200), elements=st.floats(-2.0, 0.0, allow_subnormal=False)
)
radii = st.floats(1e-3, 1.0)


def robust(z, kind, eps):
    return robust_risk_dual(z, kind, eps).value


@pytest.mark.parametrize("kind", ALL_KINDS)
@properties
@given(z=costs, eps=radii, c=st.floats(-5.0, 5.0))
def test_translation_shifts_the_robust_risk(kind, z, eps, c):
    assert robust(z + c, kind, eps) == pytest.approx(robust(z, kind, eps) + c, abs=1e-6)


@pytest.mark.parametrize("kind", ALL_KINDS)
@properties
@given(z=costs, eps=radii, a=st.floats(0.05, 20.0))
def test_positive_scaling_scales_the_robust_risk(kind, z, eps, a):
    assert robust(a * z, kind, eps) == pytest.approx(a * robust(z, kind, eps), abs=1e-6 * a)


@pytest.mark.parametrize("kind", ALL_KINDS)
@properties
@given(z=costs, eps=radii, seed=st.integers(0, 2**32 - 1))
def test_record_order_does_not_matter(kind, z, eps, seed):
    shuffled = np.random.default_rng(seed).permutation(z)
    assert robust(shuffled, kind, eps) == pytest.approx(robust(z, kind, eps), abs=1e-7)


@pytest.mark.parametrize("kind", ALL_KINDS)
@properties
@given(z=costs, radii_pair=st.tuples(radii, radii))
def test_monotone_in_the_radius(kind, z, radii_pair):
    small, large = sorted(radii_pair)
    assert robust(z, kind, small) <= robust(z, kind, large) + 1e-8
    optimistic = [optimistic_risk_dual(z, kind, eps).value for eps in (small, large)]
    assert optimistic[0] >= optimistic[1] - 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS)
@properties
@given(z=costs, eps=radii)
def test_optimistic_mean_robust_sandwich(kind, z, eps):
    mean = float(z.mean())
    assert optimistic_risk_dual(z, kind, eps).value <= mean + 1e-9
    assert mean <= robust(z, kind, eps) + 1e-9


# Cressie-Read index k of each generator (phi = f_k up to a constant factor)
CRESSIE_READ_INDEX = {
    DivergenceKind.CHI_SQUARE: 2.0, DivergenceKind.KL: 1.0,
    DivergenceKind.BURG: 0.0, DivergenceKind.HELLINGER: 0.5,
}


@pytest.mark.parametrize("kind", ALL_KINDS)
@properties
@given(z=costs, delta=st.floats(1e-2, 0.1))
def test_small_radius_limit_is_the_mean(kind, z, delta):
    # Both risks tend to the mean as eps -> 0, along
    #   robust - mean = mean - optimistic = sqrt(2 eps / phi''(1)) std(z) (1 + r).
    # Expanding phi to third order gives r = (k - 2) / 6 sqrt(2 eps / phi''(1)) skew(z) + O(eps),
    # with k the Cressie-Read index (r = 0 exactly for chi-square).  Since
    # |skew| <= max|z - mean| / std, choosing eps so that
    #   delta = sqrt(2 eps / phi''(1)) max|z - mean| / std
    # bounds the first-order term by (2 - k) / 6 delta; delta^2 covers the rest, whose
    # coefficient stays below 0.01 on such vectors, and the solver's error.
    std = float(z.std())
    assume(std > 1e-3)
    mean = float(z.mean())
    spread = float(np.max(np.abs(z - mean))) / std
    eps = curvature_at_one(kind) / 2.0 * (delta / spread) ** 2
    first_order = delta * std / spread  # sqrt(2 eps / phi''(1)) std(z)
    bound = (2.0 - CRESSIE_READ_INDEX[kind]) / 6.0 * delta + delta**2
    assert abs((robust(z, kind, eps) - mean) / first_order - 1.0) <= bound
    assert abs((mean - optimistic_risk_dual(z, kind, eps).value) / first_order - 1.0) <= bound


@properties
@given(z=costs, eps=radii)
def test_kl_matches_the_closed_form_reduced_dual(z, eps):
    # minimizing over log(gamma) keeps the one-dimensional search well scaled
    res = sp_optimize.minimize_scalar(
        lambda t: kl_reduced_dual(z, eps, math.exp(t)),
        bounds=(math.log(1e-10), math.log(1e4)), method="bounded", options={"xatol": 1e-10},
    )
    assert robust(z, DivergenceKind.KL, eps) == pytest.approx(res.fun, abs=1e-6)


# ----------------------------------------------------------------------
# the solve on (values, counts) is the solve on the repeated records
# ----------------------------------------------------------------------


@st.composite
def supports(draw):
    """Values (ties allowed) with a multiplicity of 1 to 20 each."""
    values = draw(hnp.arrays(
        np.float64, st.integers(1, 60), elements=st.floats(-2.0, 0.0, allow_subnormal=False)
    ))
    counts = draw(hnp.arrays(np.int64, values.size, elements=st.integers(1, 20)))
    return values, counts


def assert_close(got, expected, values):
    """Agreement to 1e-12 relative, or to a few ulps of the scale of ``values`` near 0."""
    floor = 4 * np.finfo(float).eps * float(np.max(np.abs(values)))
    assert abs(got - expected) <= max(1e-12 * abs(expected), floor), (got, expected)


@pytest.mark.parametrize("solve", [robust_risk_dual, optimistic_risk_dual])
@pytest.mark.parametrize("kind", ALL_KINDS)
@properties
@given(support=supports(), eps=radii)
def test_support_solve_is_the_solve_on_the_repeated_records(kind, solve, support, eps):
    values, counts = support
    assert_close(solve(values, kind, eps, counts=counts).value,
                 solve(np.repeat(values, counts), kind, eps).value, values)


@pytest.mark.parametrize("solve", [robust_risk_dual, optimistic_risk_dual])
@pytest.mark.parametrize("kind", ALL_KINDS)
@properties
@given(support=supports(), eps=radii, seed=st.integers(0, 2**32 - 1))
def test_order_of_the_support_does_not_matter(kind, solve, support, eps, seed):
    values, counts = support
    order = np.random.default_rng(seed).permutation(values.size)
    assert_close(solve(values[order], kind, eps, counts=counts[order]).value,
                 solve(values, kind, eps, counts=counts).value, values)


_DATASET = synthetic_multilabel_dataset(40, 3, 4, seed=5)
_LOGGING = train_logging_policy(_DATASET.subset(range(20)))
# a target policy away from the logging one, so the weighted costs spread out
_TARGET = LinearPolicy(
    _LOGGING.theta + np.random.default_rng(6).normal(size=_LOGGING.theta.shape), _LOGGING.action_space
)


@properties
@given(replay=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), delta=st.floats(0.01, 0.3))
def test_risk_intervals_match_the_per_record_solves(replay, seed, delta):
    log = collect_bandit_log(_DATASET, _LOGGING, replay, seed=seed)
    z = importance_weights(log, _TARGET).values
    intervals = risk_intervals(log, _TARGET, ALL_KINDS, delta)
    for kind, interval in zip(ALL_KINDS, intervals):
        eps = calibrated_radius(kind, delta, log.n)
        assert interval.n == log.n
        assert_close(interval.lower, optimistic_risk_dual(z, kind, eps).value, z)
        assert_close(interval.upper, robust_risk_dual(z, kind, eps).value, z)
