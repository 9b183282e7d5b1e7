"""Robust and optimistic reweighted risks via their two-dimensional convex dual.

The robust risk of a weighted-cost vector ``z`` at radius ``epsilon`` is the
supremum of ``q . z`` over reweightings ``q`` on the simplex whose divergence
from the uniform vector is at most ``epsilon``.  Strong duality reduces it to

    inf over (beta, gamma >= 0) of
        beta + gamma * epsilon + mean_i (gamma phi)*(z_i - beta),

a jointly convex two-dimensional program.  The solver here minimizes the
reduced function ``h(gamma) = min_beta g(beta, gamma)``: the inner step is an
exact one-dimensional minimization in ``beta`` (safeguarded Newton on the
stationarity condition), and the outer step is a golden-section search over
``log gamma``; ``h`` is convex in ``gamma`` by partial minimization, so the
search is globally correct.  A solve returns only a certified point: a finite
value whose bracket shrank to the tolerance, or the boundary optimum at the
``gamma`` floor; anything else raises :class:`SolverError`.

The empirical distribution may be given as distinct values ``z`` with
``counts``, the multiplicity of each.  The dual's mean then weights each
value by its mass ``counts / sum(counts)`` (one more row of floats), so every
pass runs over ``len(z)`` values, in another order of summation than on
``np.repeat(z, counts)``.

Each solve allocates one workspace of three rows of ``len(z)`` floats, reads
the constants of ``z`` (maximum, scale, standard deviation) once, and runs
under one ``np.errstate``; no pass over ``z`` allocates.  Every Newton pass
writes ``u = (z - beta) / gamma`` into the workspace, and when the inner
solve stops on its root tolerance, ``h`` is read from that same ``u`` (on
any other exit ``u`` is first recomputed at the returned ``beta``).  So
evaluating ``h(t)`` costs the inner solve's passes plus one conjugate pass,
in :func:`dual_objective`'s order of operations and with its bits.

Extended-real arithmetic is used throughout: out-of-domain conjugate values
propagate ``+inf`` as a barrier and no NaN ever escapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .divergences import _GENERATORS, DivergenceKind, conjugate_derivative
from .estimators import BanditLog, WeightedCosts, _scoring, _weighted_by
from .policies import LinearPolicy, _at

__all__ = [
    "DualPoint",
    "DualSolverOptions",
    "SolverError",
    "dual_objective",
    "robust_risk_dual",
    "optimistic_risk_dual",
    "kl_reduced_dual",
    "dual_gradient",
    "dual_gradient_policy",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class SolverError(RuntimeError):
    """Raised when a dual solve cannot certify convergence; carries the best iterate."""

    def __init__(self, message: str, best: "DualPoint"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class DualPoint:
    """A dual iterate ``(beta, gamma)`` together with its objective value."""

    beta: float
    gamma: float
    value: float

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


@dataclass(frozen=True)
class DualSolverOptions:
    """The outer search tolerance of the two-dimensional dual solver.

    ``bracket_tol`` is in log-gamma units; the objective error at
    termination is quadratic in it, so the default certifies values to
    roughly 1e-8 relative.  Below 1e-12 the bracket falls under float64
    resolution in log gamma and cannot certify, so it is rejected.
    """

    bracket_tol: float = 1e-4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bracket_tol) and self.bracket_tol >= 1e-12):
            raise ValueError(f"bracket_tol must be finite and at least 1e-12, got {self.bracket_tol!r}")


# the inner root tolerance, the golden-section cap and the outer log-gamma range
_ROOT_TOL = 1e-12
_MAX_ITERS = 200
_GAMMA_LOG_FLOOR = -40.0
_GAMMA_LOG_CAP = 45.0


def _as_values(z, epsilon: float = 0.0) -> np.ndarray:
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be nonnegative and finite")
    if isinstance(z, WeightedCosts):
        z = z.values
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("z must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("z must be finite")
    return arr


def _masses(counts, size: int) -> np.ndarray:
    """The masses ``counts / sum(counts)`` of a support of ``size`` values."""
    c = np.asarray(counts)
    if c.ndim != 1 or c.size != size or c.dtype.kind not in "iu" or not np.all(c >= 1):
        raise ValueError("counts must be a 1-D vector of integers of at least 1, one per value of z")
    return c / c.sum()


def dual_objective(z, kind: DivergenceKind, epsilon: float, beta: float, gamma: float) -> float:
    """Evaluate ``g(beta, gamma) = beta + gamma eps + mean_i (gamma phi)*(z_i - beta)``.

    Returns ``+inf`` when the conjugate domain is violated; never NaN.
    """
    zv = _as_values(z, epsilon)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    s = zv - beta
    if gamma == 0.0:
        if np.any(s > 0):
            return float("inf")
        return float(beta)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _objective_at(np.divide(s, gamma, out=s), _GENERATORS[kind], epsilon, beta, gamma, _mean)


def _objective_at(u: np.ndarray, gen, epsilon: float, beta: float, gamma: float, mean, rows=None):
    """``g(beta, gamma)`` from ``u = (z - beta) / gamma``, which it clamps in place.

    The clamp to the conjugate's domain bound makes the conjugate a barrier
    (``+inf`` at and beyond it).  ``mean`` is the solve's mean and ``rows``
    the table formulas' workspace.  Callers hold an ``np.errstate`` that
    ignores overflow, division by zero and invalid operations.
    """
    if gen.domain < math.inf:
        np.minimum(u, gen.domain, out=u)
    vals = gen.conjugate(u, rows)
    np.multiply(vals, gamma, out=vals)
    total = beta + gamma * epsilon + mean(vals)
    if math.isnan(total):  # pragma: no cover - defensive: inputs are finite
        raise FloatingPointError("dual objective produced NaN")
    return float(total)


def _mean(x: np.ndarray) -> float:
    if x.dtype == bool:  # chi-square's second derivative: count the mask
        return np.count_nonzero(x) / x.size
    # the same pairwise sum and division as ``x.mean()``, without its call overhead
    return float(np.add.reduce(x)) / x.size


def _mean_under(p: Optional[np.ndarray]):
    """The mean over a support whose values have masses ``p``; :func:`_mean` for None."""
    if p is None:
        return _mean
    # chi-square's second derivative comes as a mask, whose mean is its mass
    return lambda x: float(np.add.reduce(p, where=x) if x.dtype == bool else np.dot(x, p))


class _ReducedObjective:
    """Callable ``h(t) = min_beta g(beta, e^t)`` with a warm-started inner solve.

    One instance serves one solve.  It holds the solve's mean, the constants of
    ``z`` that the inner solve reads and a workspace of three rows of ``len(z)``
    floats: ``u = (z - beta) / gamma`` and the two scratch rows of the table
    formulas, so no pass over ``z`` allocates.  Calls run under the solve's
    ``np.errstate``, which lets exponential overflow propagate as ``inf``.
    """

    def __init__(self, zv: np.ndarray, kind: DivergenceKind, epsilon: float, mean):
        self.zv = zv
        self.gen = _GENERATORS[kind]
        self.epsilon = epsilon
        self.mean = mean
        self.zmax = float(zv.max())
        self.scale = max(1.0, float(np.max(np.abs(zv))))
        # the bits of ``zv.std()`` for the plain mean; the temporaries go before the workspace
        self.std = math.sqrt(mean(np.square(zv - mean(zv))))
        workspace = np.empty((3, zv.size))
        self.u, self.rows = workspace[0], (workspace[1], workspace[2])
        self.warm_beta: Optional[float] = None

    def __call__(self, t: float) -> "tuple[float, float]":
        gamma = math.exp(t)
        beta, at_root = self.solve_beta(gamma, self.warm_beta)
        self.warm_beta = beta
        # on _ROOT_TOL the last pass left this beta's u in the workspace
        u = self.u if at_root else self._fill_u(beta, gamma)
        return _objective_at(u, self.gen, self.epsilon, beta, gamma, self.mean, self.rows), beta

    def _fill_u(self, beta: float, gamma: float) -> np.ndarray:
        np.subtract(self.zv, beta, out=self.u)
        return np.divide(self.u, gamma, out=self.u)

    def _mean_stats(self, beta: float, gamma: float):
        """Mean conjugate first/second derivatives at ``u = (z - beta) / gamma``, left in ``u``."""
        return self.gen.derivatives(self._fill_u(beta, gamma), self.mean, self.rows)

    def solve_beta(self, gamma: float, warm: Optional[float]) -> "tuple[float, bool]":
        """Exact inner minimization over ``beta`` at fixed ``gamma > 0``.

        Solves the stationarity condition ``mean (phi*)'((z - beta)/gamma) = 1``;
        the left side is nonincreasing in ``beta``, so a bracketing Newton
        iteration is globally safe.  Returns ``beta`` and whether it stopped
        on ``_ROOT_TOL``, in which case ``self.u`` holds its ``u``.
        """
        hi = zmax = self.zmax  # mean derivative <= (phi*)'(0) = 1 here
        # chi-square and KL expand the lower end in passes over z, so only when a test
        # needs it; until then ``lo`` is their first trial point, at or above the end
        step, exact = gamma + self.std + 1e-3 * self.scale, self.gen.domain < math.inf
        lo = zmax - gamma * (self.gen.domain - 1e-9) if exact else zmax - step

        def lower() -> float:
            nonlocal lo, exact, step
            while not exact and step < math.inf:  # the first zmax - step * 3**k with mean (phi*)' > 1
                lo = zmax - step
                exact = self._mean_stats(lo, gamma)[0] > 1.0
                step *= 3.0
            return lo

        inside = warm is not None and warm < hi and (lo < warm or lower() < warm)
        beta = warm if inside else 0.5 * (lower() + hi)
        for _ in range(100):
            m, md = self._mean_stats(beta, gamma)
            if abs(m - 1.0) <= _ROOT_TOL:
                return beta, True
            if m > 1.0:
                lo, exact = beta, True
            else:
                hi = beta
            # Newton on log(m): exact for the exponential conjugate and far
            # better conditioned than Newton on m in its tail; else the midpoint
            newton = m > 0 and math.isfinite(m) and math.isfinite(md) and md > 0
            candidate = beta + math.log(m) * gamma * m / md if newton else math.nan
            if not (candidate < hi and (lo < candidate or lower() < candidate)):
                candidate = 0.5 * (lower() + hi)
            beta = candidate
            tol = 1e-15 * max(1.0, abs(hi))
            if hi - lo <= tol and hi - lower() <= tol:
                break
        return beta, False


def _bracket_and_golden(h: _ReducedObjective, t0: float, bracket_tol: float, floor: float):
    """Bracket a minimizer of the unimodal ``h`` in log-gamma, then golden-section it.

    ``floor`` guards the scale below which the inner location solve loses
    float64 resolution; at a boundary optimum (the reweighting fully
    concentrating) the value there is exact to within ``exp(floor)``.
    """
    t0 = min(max(t0, floor + 1.0), _GAMMA_LOG_CAP - 1.0)
    v0, _ = h(t0)
    step = 1.0
    t_lo, t_hi = t0 - step, t0 + step
    v_lo, _ = h(t_lo)
    v_hi, _ = h(t_hi)
    guard = 0
    while not (v0 <= v_lo and v0 <= v_hi):
        guard += 1
        if guard > 200:  # pragma: no cover - geometric expansion terminates
            break
        if v_lo < v0:
            t_hi, v_hi = t0, v0
            t0, v0 = t_lo, v_lo
            step *= 2.0
            t_lo = t0 - step
            if t_lo < floor:
                # value keeps improving toward gamma -> 0: the optimum sits
                # on the boundary (the reweighting concentrates fully)
                t_lo = floor
                v_lo, _ = h(t_lo)
                if v_lo <= v0:
                    beta, _ = h.solve_beta(math.exp(floor), h.warm_beta)
                    return floor, beta, v_lo, 0.0
            else:
                v_lo, _ = h(t_lo)
        else:
            t_lo, v_lo = t0, v0
            t0, v0 = t_hi, v_hi
            step *= 2.0
            t_hi = min(t0 + step, _GAMMA_LOG_CAP)  # never the cap: epsilon > 0 makes h coercive upward
            v_hi, _ = h(t_hi)
    a, b = t_lo, t_hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    vc, _ = h(c)
    vd, _ = h(d)
    for _ in range(_MAX_ITERS):
        if b - a <= bracket_tol:
            break
        if vc < vd:
            b, d, vd = d, c, vc
            c = b - _GOLDEN * (b - a)
            vc, _ = h(c)
        else:
            a, c, vc = c, d, vd
            d = a + _GOLDEN * (b - a)
            vd, _ = h(d)
    t_best = c if vc < vd else d
    v_best = min(vc, vd)
    beta, _ = h.solve_beta(math.exp(t_best), h.warm_beta)
    return t_best, beta, v_best, b - a


def robust_risk_dual(
    z,
    kind: DivergenceKind,
    epsilon: float,
    options: Optional[DualSolverOptions] = None,
    counts=None,
) -> DualPoint:
    """Solve the robust reweighted risk at radius ``epsilon``.

    Parameters
    ----------
    z:
        Weighted-cost vector (or :class:`WeightedCosts`).
    epsilon:
        Ambiguity radius; ``epsilon = 0`` short-circuits to the plain mean.
    counts:
        Multiplicity of each entry of ``z`` (integers of at least 1), or None
        for one each: the solve of ``np.repeat(z, counts)``, on ``len(z)`` values.

    Returns
    -------
    DualPoint
        The certified minimizer; its ``value`` attribute is the robust risk.

    Raises
    ------
    SolverError
        If the search cannot certify its point (a value that is not finite,
        or a bracket wider than ``4 * bracket_tol`` after the iteration cap
        away from the ``gamma`` floor).  The exception carries that point.
    """
    zv = _as_values(z, epsilon)
    mean_of = _mean_under(None if counts is None else _masses(counts, zv.size))
    bracket_tol = (options or DualSolverOptions()).bracket_tol
    mean = mean_of(zv)
    if epsilon == 0.0 or float(np.ptp(zv)) == 0.0:
        return DualPoint(beta=mean, gamma=0.0, value=mean)
    h = _ReducedObjective(zv, kind, epsilon, mean_of)
    t0 = math.log(max(h.std, 1e-3))
    floor = max(math.log(1e-12 * h.scale), _GAMMA_LOG_FLOOR)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t_best, beta, value, width = _bracket_and_golden(h, t0, bracket_tol, floor)
    point = DualPoint(beta=beta, gamma=math.exp(t_best), value=value)
    if math.isfinite(value) and (width <= bracket_tol * 4.0 or t_best <= floor):
        # at the floor the dual value may exceed max z, by at most gamma * epsilon
        return replace(point, value=min(value, h.zmax)) if t_best <= floor else point
    raise SolverError("dual solve failed to certify convergence", best=point)


def optimistic_risk_dual(
    z,
    kind: DivergenceKind,
    epsilon: float,
    options: Optional[DualSolverOptions] = None,
    counts=None,
) -> DualPoint:
    """Solve the optimistic (infimum) reweighted risk at radius ``epsilon``.

    Computed by negation: the infimum of ``q . z`` over the divergence ball
    equals minus the robust risk of ``-z`` over the same ball.  The returned
    dual variables refer to the internal maximization of ``-z``, with
    ``beta`` negated so the point stays in the original cost units.
    ``counts`` is as in :func:`robust_risk_dual`.
    """
    zv = _as_values(z)
    sol = robust_risk_dual(-zv, kind, epsilon, options, counts)
    return DualPoint(beta=-sol.beta, gamma=sol.gamma, value=-sol.value)


# ----------------------------------------------------------------------
# closed-form path for the exponential (KL) generator
# ----------------------------------------------------------------------


def kl_reduced_dual(z, epsilon: float, gamma: float) -> float:
    """KL dual with the location variable eliminated in closed form.

    ``h(gamma) = gamma * epsilon + gamma * log mean exp(z / gamma)``;
    minimizing this one-dimensional function over ``gamma > 0`` recovers
    the KL robust risk.  Overflow is avoided with a max shift.
    """
    zv = _as_values(z, epsilon)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    zmax = float(zv.max())
    shifted = np.exp((zv - zmax) / gamma)
    return float(gamma * epsilon + zmax + gamma * math.log(float(np.mean(shifted))))


# ----------------------------------------------------------------------
# gradients
# ----------------------------------------------------------------------


def _robust_value_grads(
    kind: DivergenceKind, epsilon: float, z, beta: float, gamma: float, bound,
    grads: bool = True, mean=_mean,
):
    """Value and analytic partials of the dual objective at ``gamma > 0``.

    Returns ``(value, d1, g_beta, g_gamma)`` where ``d1`` are the per-record
    conjugate derivatives (the chain weights for the policy gradient), or
    ``None`` when some ``u = (z - beta) / gamma`` reaches ``bound``: the
    conjugate's domain for the exact gradient, the overflow cap (``None``
    for no check) in the trainers.  Without ``grads`` it returns the value
    alone and computes no derivative.  ``mean`` takes every mean: the plain
    one, or a :func:`_mean_under` for distinct records with masses.
    """
    gen = _GENERATORS[kind]
    u = (z - beta) / gamma
    if bound is not None and float(np.maximum.reduce(u, initial=-np.inf)) >= bound:
        return None
    with np.errstate(over="ignore"):
        vals = gen.conjugate(u)
        value = beta + gamma * epsilon + gamma * mean(vals)
        if not grads:
            return value
        d1, _ = gen.derivatives(u, np.asarray, second=False)
    return value, d1, 1.0 - mean(d1), epsilon + mean(vals - u * d1)


def dual_gradient(z, kind: DivergenceKind, epsilon: float, beta: float, gamma: float):
    """Analytic partials of the dual objective with respect to ``beta`` and ``gamma``.

    Requires ``gamma > 0`` and the conjugate arguments strictly inside
    their domain; a boundary point raises ``ValueError`` so the caller can
    back off.
    """
    zv = _as_values(z, epsilon)
    if gamma <= 0:
        raise ValueError("dual_gradient requires gamma > 0")
    state = _robust_value_grads(kind, epsilon, zv, beta, gamma, _GENERATORS[kind].domain)
    if state is None:
        raise ValueError("point is outside the conjugate domain")
    value, d1, g_beta, g_gamma = state
    if not (math.isfinite(value) and np.all(np.isfinite(d1))):
        raise ValueError("gradient is not finite at this point")
    return g_beta, g_gamma


def dual_gradient_policy(
    log: BanditLog,
    policy: LinearPolicy,
    kind: DivergenceKind,
    epsilon: float,
    beta: float,
    gamma: float,
):
    """Full gradient ``(d/dbeta, d/dgamma, d/dtheta)`` of the dual objective.

    The policy enters through ``z_i = w_i c_i``, so by the chain rule the
    parameter gradient is ``mean_i (phi*)'(u_i) z_i grad log pi(a_i | x_i)``.
    """
    at, actions, xb = _scoring(log, policy)
    table = policy._row_table(xb, log.n)
    z = _weighted_by(log, policy._log_prob_rows(table, at, actions)).values
    g_beta, g_gamma = dual_gradient(z, kind, epsilon, beta, gamma)
    d1 = conjugate_derivative(kind, (z - beta) / gamma)
    g_theta = policy.score_gradient(_at(xb, at), policy._residual_rows(table, at, actions), d1 * z) / log.n
    return g_beta, g_gamma, g_theta
