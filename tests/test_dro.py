"""Dual objective, solvers, oracle agreement and gradients."""

import math
import tracemalloc

import numpy as np
import pytest

from cfdro import dro
from cfdro.divergences import DivergenceKind
from cfdro.dro import (
    DualSolverOptions,
    SolverError,
    dual_gradient,
    dual_gradient_policy,
    dual_objective,
    kl_reduced_dual,
    optimistic_risk_dual,
    robust_risk_dual,
)
from cfdro.estimators import importance_weights

from conftest import make_two_record_log, make_two_record_policy
from oracles import eager_solve_beta, kl_softmax_risk, primal_oracle

ALL_KINDS = list(DivergenceKind)


def minimize_scalar_golden(fn, lo, hi, iters=140):
    """Plain golden-section minimizer used as a one-dimensional oracle."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return min(fc, fd)


class TestDualObjective:
    def test_chi_square_closed_form_at_zero_location(self):
        z = np.array([-0.9, -0.4, -0.1])
        eps, gamma = 0.3, 2.0  # all z >= -2 gamma, so the quadratic branch is active
        expected = gamma * eps + z.mean() + np.mean(z**2) / (4 * gamma)
        got = dual_objective(z, DivergenceKind.CHI_SQUARE, eps, 0.0, gamma)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_scale_convention(self):
        z = np.array([-1.0, -0.2])
        assert dual_objective(z, DivergenceKind.KL, 0.1, -0.5, 0.0) == math.inf
        assert dual_objective(z, DivergenceKind.KL, 0.1, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_jointly_convex_in_the_dual_pair(self, kind):
        rng = np.random.default_rng(0)
        z = rng.uniform(-2, 0, 12)
        for _ in range(40):
            b1, b2 = rng.uniform(-0.5, 1.0, 2)
            g1, g2 = rng.uniform(0.3, 3.0, 2)
            v1 = dual_objective(z, kind, 0.2, b1, g1)
            v2 = dual_objective(z, kind, 0.2, b2, g2)
            vm = dual_objective(z, kind, 0.2, (b1 + b2) / 2, (g1 + g2) / 2)
            if math.isfinite(v1) and math.isfinite(v2):
                assert vm <= (v1 + v2) / 2 + 1e-9


class TestRobustSolver:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_radius_returns_the_mean(self, kind):
        z = np.array([-1.3, -0.4, -0.9])
        point = robust_risk_dual(z, kind, 0.0)
        assert point.value == pytest.approx(float(z.mean()), abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_constant_vector_is_a_fixed_point(self, kind):
        z = np.full(7, -0.6)
        assert robust_risk_dual(z, kind, 0.8).value == pytest.approx(-0.6, abs=1e-12)
        assert optimistic_risk_dual(z, kind, 0.8).value == pytest.approx(-0.6, abs=1e-12)

    def test_two_point_chi_square_closed_form(self):
        z = np.array([-1.0, 0.0])
        got = robust_risk_dual(z, DivergenceKind.CHI_SQUARE, 0.5).value
        assert got == pytest.approx(-(1 - math.sqrt(0.5)) / 2, abs=1e-7)
        got = optimistic_risk_dual(z, DivergenceKind.CHI_SQUARE, 0.5).value
        assert got == pytest.approx(-(1 + math.sqrt(0.5)) / 2, abs=1e-7)

    @pytest.mark.parametrize(
        "kind,saturating_eps",
        [
            (DivergenceKind.CHI_SQUARE, 4.0),  # vertex divergence is n - 1
            (DivergenceKind.KL, 3.0),  # vertex divergence is log n
            (DivergenceKind.HELLINGER, 2.5),  # vertex divergence is below 2
        ],
    )
    def test_large_radius_saturates_at_the_maximum(self, kind, saturating_eps):
        z = np.array([-1.0, -0.7, -0.2])
        got = robust_risk_dual(z, kind, saturating_eps).value
        assert got == pytest.approx(-0.2, abs=1e-6)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_monotone_in_the_radius(self, kind):
        rng = np.random.default_rng(1)
        z = rng.uniform(-2, 0, 15)
        values = [robust_risk_dual(z, kind, eps).value for eps in (0.01, 0.1, 0.5, 2.0)]
        assert all(a <= b + 1e-9 for a, b in zip(values[:-1], values[1:]))
        optimistic = [optimistic_risk_dual(z, kind, eps).value for eps in (0.01, 0.1, 0.5, 2.0)]
        assert all(a >= b - 1e-9 for a, b in zip(optimistic[:-1], optimistic[1:]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sandwich(self, kind):
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = rng.uniform(-2, 0, rng.integers(2, 30))
            eps = rng.uniform(0.01, 1.5)
            lo = optimistic_risk_dual(z, kind, eps).value
            hi = robust_risk_dual(z, kind, eps).value
            assert lo <= z.mean() + 1e-8
            assert z.mean() <= hi + 1e-8

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_translation_equivariance(self, kind):
        rng = np.random.default_rng(3)
        z = rng.uniform(-2, 0, 25)
        base = robust_risk_dual(z, kind, 0.07).value
        shifted = robust_risk_dual(z + 0.4, kind, 0.07).value
        assert shifted == pytest.approx(base + 0.4, abs=1e-8)

    def test_variance_sensitivity(self):
        # equal means, different spreads: the wider vector is riskier
        narrow = np.array([-0.6, -0.5, -0.7, -0.6])
        wide = np.array([-0.6, -0.2, -1.0, -0.6])
        eps = 3.841459 / narrow.size
        r_narrow = robust_risk_dual(narrow, DivergenceKind.CHI_SQUARE, eps).value
        r_wide = robust_risk_dual(wide, DivergenceKind.CHI_SQUARE, eps).value
        assert narrow.mean() == wide.mean()
        assert r_wide > r_narrow + 1e-6

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            robust_risk_dual(np.array([-1.0, 0.0]), DivergenceKind.KL, -0.1)


class TestPrimalOracle:
    def test_single_atom(self):
        assert primal_oracle(np.array([-0.4]), DivergenceKind.KL, 0.7) == -0.4

    def test_matches_dual_on_two_atoms(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            z = rng.uniform(-2, 0, 2)
            for kind in ALL_KINDS:
                dual = robust_risk_dual(z, kind, 0.4).value
                oracle = primal_oracle(z, kind, 0.4, grid_resolution=1e-4)
                assert dual == pytest.approx(oracle, abs=1e-3)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            primal_oracle(np.array([-1.0, 0.0]), DivergenceKind.KL, -0.5)

    def test_strong_duality_spot_check(self):
        # the full 200-instance sweep runs in the acceptance suite
        rng = np.random.default_rng(5)
        for i in range(40):
            n = 2 if i % 2 == 0 else 3
            z = rng.uniform(-2, 0, n)
            res = 1e-4 if n == 2 else 5e-4
            for kind in ALL_KINDS:
                for eps in (0.1, 0.5, 2.0):
                    dual = robust_risk_dual(z, kind, eps).value
                    oracle = primal_oracle(z, kind, eps, res)
                    assert -1e-7 <= dual - oracle <= 2e-3


class TestKlClosedForm:
    def test_constant_vector(self):
        z = np.full(5, -0.3)
        for gamma in (0.05, 0.5, 2.0):
            assert kl_reduced_dual(z, 0.4, gamma) == pytest.approx(-0.3 + gamma * 0.4, abs=1e-12)

    def test_one_dimensional_minimization_matches_the_solver(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            z = rng.uniform(-2, 0, 20)
            eps = rng.uniform(0.01, 1.0)
            oracle = minimize_scalar_golden(
                lambda t: kl_reduced_dual(z, eps, math.exp(t)), math.log(1e-8), math.log(1e3)
            )
            assert robust_risk_dual(z, DivergenceKind.KL, eps).value == pytest.approx(
                oracle, abs=1e-6
            )

    def test_large_temperature_limits(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-2, 0, 12)
        assert kl_softmax_risk(z, 1e7) == pytest.approx(float(z.mean()), abs=1e-6)
        eps = 0.3
        big = 1e6
        assert kl_reduced_dual(z, eps, big) == pytest.approx(big * eps + z.mean(), rel=1e-6)

    def test_softmax_form_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            kl_softmax_risk(np.array([-1.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            kl_reduced_dual(np.array([-1.0, 0.0]), 0.1, -1.0)


class TestDualGradient:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_central_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 20:
            z = rng.uniform(-2, 0, 12)
            beta = rng.uniform(-0.5, 0.5)
            gamma = rng.uniform(0.4, 2.0)
            u = (z - beta) / gamma
            if kind is DivergenceKind.CHI_SQUARE and np.min(np.abs(u + 2.0)) < 0.1:
                continue
            if kind in (DivergenceKind.BURG, DivergenceKind.HELLINGER) and u.max() > 0.8:
                continue
            eps = 0.2
            gb, gg = dual_gradient(z, kind, eps, beta, gamma)
            h = 1e-6
            fd_b = (
                dual_objective(z, kind, eps, beta + h, gamma)
                - dual_objective(z, kind, eps, beta - h, gamma)
            ) / (2 * h)
            fd_g = (
                dual_objective(z, kind, eps, beta, gamma + h)
                - dual_objective(z, kind, eps, beta, gamma - h)
            ) / (2 * h)
            assert gb == pytest.approx(fd_b, rel=1e-6, abs=1e-8)
            assert gg == pytest.approx(fd_g, rel=1e-6, abs=1e-8)
            checked += 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_small_gradient_at_the_solution(self, kind):
        rng = np.random.default_rng(9)
        z = rng.uniform(-2, 0, 30)
        point = robust_risk_dual(z, kind, 0.15)
        gb, gg = dual_gradient(z, kind, 0.15, point.beta, max(point.gamma, 1e-12))
        assert math.hypot(gb, gg) <= 1e-3

    def test_policy_gradient_matches_finite_differences(self):
        log = make_two_record_log()
        policy = make_two_record_policy()
        kind, eps, beta, gamma = DivergenceKind.CHI_SQUARE, 0.3, -0.2, 1.5
        _, _, g_theta = dual_gradient_policy(log, policy, kind, eps, beta, gamma)
        h = 1e-6
        from dataclasses import replace

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
                fd = (f_up - f_down) / (2 * h)
                assert g_theta[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_unit_weight_policy_reduces_to_conjugate_chain(self):
        # with all weights equal to one, the parameter gradient is the
        # conjugate-derivative-weighted mean of cost-scaled score vectors
        log = make_two_record_log()
        theta = np.array([[np.log(0.3), np.log(0.7)], [np.log(0.4), np.log(0.6)], [0.0, 0.0]])
        from cfdro.policies import LinearPolicy, Multiclass
        from cfdro.divergences import conjugate_derivative

        matching = LinearPolicy(theta=theta, action_space=Multiclass(2))
        wc = importance_weights(log, matching)
        np.testing.assert_allclose(wc.weights, 1.0, atol=1e-12)
        kind, eps, beta, gamma = DivergenceKind.KL, 0.2, -0.5, 1.0
        _, _, g_theta = dual_gradient_policy(log, matching, kind, eps, beta, gamma)
        d1 = np.asarray(conjugate_derivative(kind, (wc.values - beta) / gamma))
        manual = sum(
            d1[i] * wc.values[i]
            * matching.weighted_grad_log_prob_sum(log.features[i], [int(log.actions[i])], [1.0])
            for i in range(log.n)
        ) / log.n
        np.testing.assert_allclose(g_theta, manual, atol=1e-12)

    def test_rejects_boundary_points(self):
        z = np.array([-0.2, 0.0])
        with pytest.raises(ValueError):
            dual_gradient(z, DivergenceKind.BURG, 0.1, -2.0, 0.5)
        with pytest.raises(ValueError):
            dual_gradient(z, DivergenceKind.KL, 0.1, 0.0, 0.0)


def _pinned_vectors():
    """Two seeded cost vectors of 500 records with the radius each is solved at."""
    normal = np.random.default_rng(2020).normal(size=500)
    rng = np.random.default_rng(2021)
    weighted = rng.exponential(size=500) * -rng.uniform(size=500)
    return {"normal": (normal, 0.05), "weighted": (weighted, 3.841458820694124 / 500)}


# (beta, gamma, value) as float.hex, recorded from the solver before each
# reduced-objective value was read from the inner solve's last pass
PINNED_SOLVES = {
    ("normal", "chi2", "robust"):
        ("-0x1.05bb7aa71f31cp-5", "0x1.2022bb3abd0a8p+1", "0x1.8b95f605b911cp-3"),
    ("normal", "chi2", "optimistic"):
        ("-0x1.05bb7aa7246bep-5", "0x1.2022bb3abd0a8p+1", "-0x1.0739d9aca4e3dp-2"),
    ("normal", "kl", "robust"):
        ("0x1.049ed1fac65a6p-3", "0x1.9708131705f39p+1", "0x1.251f70a0325bdp-2"),
    ("normal", "kl", "optimistic"):
        ("-0x1.877866ec11c9bp-3", "0x1.9792cacd89255p+1", "-0x1.66c3b7c83fc06p-2"),
    ("normal", "burg", "robust"):
        ("0x1.2db20057f66a7p-2", "0x1.b9ee9297533c9p+1", "0x1.2db0a64f5bbadp-2"),
    ("normal", "burg", "optimistic"):
        ("-0x1.6f6817431df89p-2", "0x1.b8fe91715ce4fp+1", "-0x1.6f68ea385f275p-2"),
    ("normal", "hellinger", "robust"):
        ("0x1.3ae1b46ad53cbp-2", "0x1.2fa5bbdd015bap+2", "0x1.b4575bb074d79p-2"),
    ("normal", "hellinger", "optimistic"):
        ("-0x1.7cc40a6ee88a9p-2", "0x1.302ab47928d09p+2", "-0x1.f66f33998cc2ap-2"),
    ("weighted", "chi2", "robust"):
        ("-0x1.09e42bcbddb40p-1", "0x1.ce78a6e35400fp+1", "-0x1.daeebf945d0b1p-2"),
    ("weighted", "chi2", "optimistic"):
        ("-0x1.09e42bcbde393p-1", "0x1.ce78a6e35400fp+1", "-0x1.2650f7cd8decep-1"),
    ("weighted", "kl", "robust"):
        ("-0x1.eb9104a298e8ep-2", "0x1.2918d736c3786p+2", "-0x1.c70b9a5f62d86p-2"),
    ("weighted", "kl", "optimistic"):
        ("-0x1.1e00c51d5bbd4p-1", "0x1.63ea7520b5ce5p+2", "-0x1.33e0f80e0cd3ap-1"),
    ("weighted", "burg", "robust"):
        ("-0x1.c9fc39071ec6cp-2", "0x1.13b20646973b6p+2", "-0x1.c9fc2be3eea70p-2"),
    ("weighted", "burg", "optimistic"):
        ("-0x1.36198b2f515d6p-1", "0x1.8badfcc25fda3p+2", "-0x1.3619a2deb44d6p-1"),
    ("weighted", "hellinger", "robust"):
        ("-0x1.c3c607ba38e34p-2", "0x1.7e07340c6980ep+2", "-0x1.ac4afeb5ab27bp-2"),
    ("weighted", "hellinger", "optimistic"):
        ("-0x1.37543b43675dcp-1", "0x1.175656192f888p+3", "-0x1.487f91b780f40p-1"),
}


@pytest.mark.parametrize("vector,kind,side", sorted(PINNED_SOLVES))
def test_solver_bits_are_pinned(vector, kind, side):
    z, eps = _pinned_vectors()[vector]
    solve = robust_risk_dual if side == "robust" else optimistic_risk_dual
    point = solve(z, DivergenceKind.from_name(kind), eps)
    got = tuple(float(x).hex() for x in (point.beta, point.gamma, point.value))
    assert got == PINNED_SOLVES[vector, kind, side]


@pytest.mark.parametrize("kind,robust,optimistic", [("chi2", 45, 46), ("kl", 62, 62)])
def test_inner_solves_expand_the_lower_end_only_when_read(monkeypatch, kind, robust, optimistic):
    # chi-square and KL find the lower end of the inner bracket by passes over z;
    # a warm Newton step inside the bracket never reads it (71/72 and 89/89
    # passes when every h-evaluation expanded it), and the bits stay pinned above
    passes = []
    mean_stats = dro._ReducedObjective._mean_stats

    def counted(self, beta, gamma):
        passes.append(beta)
        return mean_stats(self, beta, gamma)

    monkeypatch.setattr(dro._ReducedObjective, "_mean_stats", counted)
    z, eps = _pinned_vectors()["normal"]
    counts = []
    for solve in (robust_risk_dual, optimistic_risk_dual):
        passes.clear()
        solve(z, DivergenceKind.from_name(kind), eps)
        counts.append(len(passes))
    assert counts == [robust, optimistic]


@pytest.mark.parametrize("kind", [DivergenceKind.CHI_SQUARE, DivergenceKind.KL])
def test_deferred_lower_end_keeps_the_eager_solves_bits(monkeypatch, kind):
    # seeded vectors (trials 1 and 4 for KL, 20 and 32 for chi-square) on which a
    # Newton candidate falls below the first trial point, so that a solve that
    # read the unexpanded end there would differ
    rng = np.random.default_rng(123)
    cases = []
    for trial in range(33):
        n = int(rng.integers(2, 3000))
        if trial % 3 == 0:
            z = rng.normal(size=n)
        elif trial % 3 == 1:
            z = -rng.exponential(size=n) * rng.uniform(size=n)
        else:
            z = np.round(rng.normal(size=n) * 4) / 4
        eps = float(10 ** rng.uniform(-4, 0))
        if trial in (1, 4, 20, 32):
            cases.append((z, eps))

    def solves():
        out = []
        for z, eps in cases:
            values, counts = np.unique(z, return_counts=True)
            for solve in (robust_risk_dual, optimistic_risk_dual):
                for point in (solve(z, kind, eps), solve(values, kind, eps, counts=counts)):
                    out.append(tuple(float(x).hex() for x in (point.beta, point.gamma, point.value)))
        return out

    deferred = solves()
    monkeypatch.setattr(dro._ReducedObjective, "solve_beta", eager_solve_beta)
    assert solves() == deferred


def test_golden_section_values_come_from_the_inner_solve(monkeypatch):
    # each h-evaluation reads h from the inner solve's u (recomputed off root_tol),
    # so a solve never calls the public dual_objective
    calls = []
    objective = dro.dual_objective

    def counted(*args):
        calls.append(args[1:])
        return objective(*args)

    monkeypatch.setattr(dro, "dual_objective", counted)
    for z, eps in _pinned_vectors().values():
        for kind in ALL_KINDS:
            robust_risk_dual(z, kind, eps)
            optimistic_risk_dual(z, kind, eps)
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf, 1e-13])
def test_bracket_tol_below_float_resolution_is_rejected(tol):
    with pytest.raises(ValueError, match="bracket_tol"):
        DualSolverOptions(bracket_tol=tol)


def test_finest_bracket_tol_certifies():
    options = DualSolverOptions(bracket_tol=1e-12)
    for z, eps in _pinned_vectors().values():
        for kind in ALL_KINDS:
            robust_risk_dual(z, kind, eps, options)
            optimistic_risk_dual(z, kind, eps, options)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_uncertified_search_raises_with_its_best_point(monkeypatch, kind):
    # one golden-section step leaves the bracket far wider than 4 * bracket_tol
    monkeypatch.setattr(dro, "_MAX_ITERS", 1)
    z, eps = _pinned_vectors()["normal"]
    with pytest.raises(SolverError) as raised:
        robust_risk_dual(z, kind, eps)
    best = raised.value.best
    assert all(math.isfinite(x) for x in (best.beta, best.gamma, best.value))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_allocates_one_workspace_and_frees_it(kind):
    # three rows of len(z) floats (u and the two scratch rows); no pass allocates
    n = 100_000
    z = np.random.default_rng(2022).normal(size=n)
    tracemalloc.start()
    try:
        robust_risk_dual(z, kind, 0.05)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + 65536
    assert left <= 65536


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_support_solve_allocates_its_masses_and_one_workspace(kind):
    # on k values: three rows of k floats plus the masses counts / n
    k = 100_000
    rng = np.random.default_rng(2023)
    values, counts = rng.normal(size=k), rng.integers(1, 5, size=k)
    tracemalloc.start()
    try:
        robust_risk_dual(values, kind, 0.05, counts=counts)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * k + 65536
    assert left <= 65536


@pytest.mark.parametrize("solve", [robust_risk_dual, optimistic_risk_dual])
@pytest.mark.parametrize("counts", [
    [[1, 2, 3]],  # not 1-D
    [1, 2],  # shorter than z
    [1, 2, 3, 4],  # longer than z
    [1.0, 2.0, 3.0],  # not integers
    [True, True, True],  # booleans are not counts
    ["1", "2", "3"],
    [1, 0, 3],  # below 1
    [1, -2, 3],
])
def test_counts_are_checked_at_the_boundary(solve, counts):
    with pytest.raises(ValueError, match="counts"):
        solve(np.array([-0.2, -0.5, -0.9]), DivergenceKind.KL, 0.1, counts=np.array(counts))
