"""Generator and conjugate behavior, and the test oracle's primal divergences."""

import math

import numpy as np
import pytest

from cfdro.divergences import (
    _GENERATORS,
    DivergenceKind,
    conjugate_derivative,
    conjugate_second_derivative,
    curvature_at_one,
    phi,
    phi_conjugate,
)

from cfdro.dro import _mean

from oracles import _grid_divergences, _simplex_grid, scaled_conjugate, scaled_conjugate_grad

ALL_KINDS = list(DivergenceKind)


@pytest.mark.parametrize(
    "kind,t,expected",
    [
        (DivergenceKind.CHI_SQUARE, 1.0, 0.0),
        (DivergenceKind.KL, 2.0, 2.0 * math.log(2.0) - 1.0),
        (DivergenceKind.HELLINGER, 4.0, 1.0),
        (DivergenceKind.BURG, 1.0, 0.0),
        (DivergenceKind.CHI_SQUARE, 0.0, 1.0),
        (DivergenceKind.KL, 0.0, 1.0),
    ],
)
def test_generator_values(kind, t, expected):
    assert phi(kind, t) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_generator_is_coherent(kind):
    assert phi(kind, 1.0) == 0.0
    # convex along the domain: midpoint never above the chord
    ts = np.linspace(0.05, 5.0, 40)
    for a, b in zip(ts[:-1], ts[1:]):
        mid = phi(kind, (a + b) / 2)
        assert mid <= (phi(kind, a) + phi(kind, b)) / 2 + 1e-12


def test_generator_domain_errors():
    with pytest.raises(ValueError):
        phi(DivergenceKind.CHI_SQUARE, -0.5)
    # -log t diverges at zero: Burg's phi(0) is its limit, not an error
    assert phi(DivergenceKind.BURG, 0.0) == math.inf


@pytest.mark.parametrize(
    "kind,s,expected",
    [
        (DivergenceKind.CHI_SQUARE, -3.0, -1.0),
        (DivergenceKind.CHI_SQUARE, 2.0, 3.0),
        (DivergenceKind.KL, 0.0, 0.0),
        (DivergenceKind.BURG, 0.5, math.log(2.0)),
        (DivergenceKind.HELLINGER, 0.5, 1.0),
    ],
)
def test_conjugate_values(kind, s, expected):
    assert phi_conjugate(kind, s) == pytest.approx(expected, abs=1e-12)


def test_conjugate_domain_is_a_barrier_not_a_crash():
    assert phi_conjugate(DivergenceKind.BURG, 1.0) == math.inf
    assert phi_conjugate(DivergenceKind.BURG, 2.5) == math.inf
    assert phi_conjugate(DivergenceKind.HELLINGER, 1.0) == math.inf


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_conjugate_nondecreasing_and_convex(kind):
    s = np.linspace(-4.0, 0.9, 60)
    vals = np.asarray(phi_conjugate(kind, s))
    assert np.all(np.diff(vals) >= -1e-12)
    mids = np.asarray(phi_conjugate(kind, (s[:-1] + s[1:]) / 2))
    assert np.all(mids <= (vals[:-1] + vals[1:]) / 2 + 1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fenchel_young(kind):
    rng = np.random.default_rng(0)
    for s in rng.uniform(-3.0, 0.9, 25):
        conj = phi_conjugate(kind, s)
        ts = rng.uniform(0.0, 6.0, 200)
        if kind is DivergenceKind.BURG:
            ts = np.maximum(ts, 1e-6)
        gaps = conj - (s * ts - np.asarray(phi(kind, ts)))
        assert np.all(gaps >= -1e-12)
        # equality holds at the maximizer, which is the conjugate derivative
        t_star = conjugate_derivative(kind, s)
        if kind is DivergenceKind.BURG:
            t_star = max(t_star, 1e-300)
        attained = s * t_star - phi(kind, t_star)
        assert conj == pytest.approx(attained, abs=1e-8)


def test_scaled_conjugate_zero_scale_convention():
    assert scaled_conjugate(DivergenceKind.KL, 0.0, 0.5) == math.inf
    assert scaled_conjugate(DivergenceKind.KL, 0.0, -0.5) == 0.0
    assert scaled_conjugate(DivergenceKind.KL, 0.0, 0.0) == 0.0
    assert scaled_conjugate(DivergenceKind.CHI_SQUARE, 2.0, 2.0) == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(ValueError):
        scaled_conjugate(DivergenceKind.KL, -1.0, 0.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_scaled_conjugate_jointly_convex(kind):
    rng = np.random.default_rng(1)
    for _ in range(50):
        g1, g2 = rng.uniform(0.05, 3.0, 2)
        s1, s2 = rng.uniform(-2.0, 0.0, 2)
        v1 = scaled_conjugate(kind, g1, s1)
        v2 = scaled_conjugate(kind, g2, s2)
        vm = scaled_conjugate(kind, (g1 + g2) / 2, (s1 + s2) / 2)
        assert vm <= (v1 + v2) / 2 + 1e-9


@pytest.mark.parametrize("kind", [DivergenceKind.KL, DivergenceKind.BURG])
def test_scaled_conjugate_vanishes_as_scale_shrinks(kind):
    assert abs(scaled_conjugate(kind, 1e-8, -0.5)) <= 1e-6


@pytest.mark.parametrize(
    "kind,gamma,s,expected",
    [
        # finite-difference oracle: d/dgamma of gamma*(e^{s/gamma}-1) at s=0 is 0
        (DivergenceKind.KL, 1.0, 0.0, (1.0, 0.0)),
        (DivergenceKind.CHI_SQUARE, 1.0, 0.0, (1.0, 0.0)),
    ],
)
def test_scaled_conjugate_grad_values(kind, gamma, s, expected):
    d_ds, d_dg = scaled_conjugate_grad(kind, gamma, s)
    assert d_ds == pytest.approx(expected[0], abs=1e-12)
    assert d_dg == pytest.approx(expected[1], abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_scaled_conjugate_grad_matches_finite_differences(kind):
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 20:
        gamma = rng.uniform(0.2, 2.0)
        s = rng.uniform(-1.5, 0.5)
        u = s / gamma
        if kind is DivergenceKind.CHI_SQUARE and abs(u + 2.0) < 0.2:
            continue  # keep away from the kink
        if kind in (DivergenceKind.BURG, DivergenceKind.HELLINGER) and u > 0.8:
            continue
        d_ds, d_dg = scaled_conjugate_grad(kind, gamma, s)
        h = 1e-6
        fd_s = (scaled_conjugate(kind, gamma, s + h) - scaled_conjugate(kind, gamma, s - h)) / (2 * h)
        fd_g = (scaled_conjugate(kind, gamma + h, s) - scaled_conjugate(kind, gamma - h, s)) / (2 * h)
        assert d_ds == pytest.approx(fd_s, rel=1e-6, abs=1e-8)
        assert d_dg == pytest.approx(fd_g, rel=1e-6, abs=1e-8)
        checked += 1


def test_scaled_conjugate_grad_boundary_errors():
    with pytest.raises(ValueError):
        scaled_conjugate_grad(DivergenceKind.BURG, 1.0, 1.5)
    with pytest.raises(ValueError):
        scaled_conjugate_grad(DivergenceKind.KL, 0.0, 0.5)


# The primal oracle in tests/oracles.py writes each divergence to the uniform
# distribution with its own formulas; these tests tie those to the library's
# generator table, so a dual-versus-primal failure points at the solver.


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_divergence_zero_iff_equal(kind):
    d_sorted, order = _grid_divergences(kind, 4, 0.25)
    grid = _simplex_grid(4, 0.25)
    assert d_sorted[0] == 0.0
    np.testing.assert_array_equal(grid[order[0]], np.full(4, 0.25))
    assert d_sorted[1] > 0.0


def test_divergence_reference_values():
    grid = _simplex_grid(2, 0.1)
    for kind, q, expected in [
        (DivergenceKind.CHI_SQUARE, [0.7, 0.3], 0.16),
        (DivergenceKind.KL, [1.0, 0.0], math.log(2.0)),
    ]:
        d_sorted, order = _grid_divergences(kind, 2, 0.1)
        at = np.flatnonzero(np.all(np.isclose(grid[order], q, rtol=0.0, atol=1e-12), axis=1))
        assert at.size == 1
        assert d_sorted[at[0]] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_divergence_to_uniform_matches_generator_sum(kind):
    n = 3
    d_sorted, order = _grid_divergences(kind, n, 0.05)
    grid = _simplex_grid(n, 0.05)[order]
    direct = np.asarray(phi(kind, n * grid)).sum(axis=1) / n
    np.testing.assert_allclose(d_sorted, direct, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_generator_record_is_consistent(kind):
    # points inside every conjugate domain and away from the chi-square kink at -2
    s = np.linspace(-1.5, 0.5, 21)
    h = 1e-5
    d1 = conjugate_derivative(kind, s)
    d2 = conjugate_second_derivative(kind, s)
    fd1 = (phi_conjugate(kind, s + h) - phi_conjugate(kind, s - h)) / (2 * h)
    fd2 = (conjugate_derivative(kind, s + h) - conjugate_derivative(kind, s - h)) / (2 * h)
    np.testing.assert_allclose(d1, fd1, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(d2, fd2, rtol=1e-6, atol=1e-8)
    assert conjugate_derivative(kind, 0.0) == 1.0
    assert curvature_at_one(kind) == 1.0 / conjugate_second_derivative(kind, 0.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_table_formulas_agree_with_and_without_a_workspace(kind):
    # the dual solver passes a workspace, the pointwise functions and the trainers do not;
    # points cover chi-square's flat branch below -2 and, clamped as the barrier does,
    # the Burg/Hellinger bound (+inf) and beyond it
    gen = _GENERATORS[kind]
    points = [-40.0, -3.0, -2.0 - 1e-9, -2.0, -1.0, -0.25, 0.0, 0.5, 1.0 - 1e-12, 1.0, 1.5, 30.0]
    s = np.minimum(np.array(points), gen.domain)
    workspace = np.full((2, s.size), np.nan)  # stale contents must not leak into a result
    with np.errstate(over="ignore", divide="ignore"):
        fresh = gen.conjugate(s)
        assert np.all(gen.conjugate(s, workspace) == fresh)
        d1, d2 = gen.derivatives(s, np.asarray)
        # the means over every point, and over those inside the domain (finite for all kinds)
        for part in (slice(None), s < gen.domain):
            rows = workspace[:, : s[part].size]
            assert gen.derivatives(s[part], _mean, rows) == (_mean(d1[part]), _mean(d2[part]))
        for i, x in enumerate(s):
            scalar = np.asarray(x)
            assert gen.conjugate(scalar) == fresh[i]
            assert gen.derivatives(scalar, np.asarray) == (d1[i], d2[i])
    if gen.domain < math.inf:
        assert fresh[-1] == d1[-1] == d2[-1] == math.inf
    if kind is DivergenceKind.CHI_SQUARE:
        assert fresh[0] == -1.0 and d1[0] == 0.0 and d2[0] == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_first_derivative_alone_keeps_its_bits(kind):
    # the trainers ask for (phi*)' alone; it is the pair's first, and the second is not computed
    gen = _GENERATORS[kind]
    u = np.minimum(np.linspace(-40.0, 30.0, 1001), gen.domain)
    with np.errstate(over="ignore", divide="ignore"):
        d1, _ = gen.derivatives(u, np.asarray)
        reduced = []
        first, second = gen.derivatives(u, lambda x: reduced.append(x) or x, second=False)
    assert second is None and len(reduced) == 1
    assert first.tobytes() == d1.tobytes()


def test_curvature_values():
    assert curvature_at_one(DivergenceKind.CHI_SQUARE) == 2.0
    assert curvature_at_one(DivergenceKind.KL) == 1.0
    assert curvature_at_one(DivergenceKind.BURG) == 1.0
    assert curvature_at_one(DivergenceKind.HELLINGER) == 0.5


def test_kind_aliases():
    assert DivergenceKind.from_name("chi2") is DivergenceKind.CHI_SQUARE
    assert DivergenceKind.from_name("Hellinger") is DivergenceKind.HELLINGER
    with pytest.raises(ValueError):
        DivergenceKind.from_name("wasserstein")
