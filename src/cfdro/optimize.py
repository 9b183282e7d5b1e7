"""Policy optimization: batch, stochastic and majorize-minimize trainers.

The robust trainers minimize the joint dual objective ``g(theta, beta,
gamma)`` over the policy parameters and both dual variables at once, at a
radius calibrated from the requested confidence level (no tunable radius is
exposed), on the weighted costs ``(c - rho) w + rho`` (``rho=0`` is plain
reweighting).  The majorize-minimize trainer replaces the weight ratio with its
log tangent at an anchor, yielding a fully convex inner problem, solved in
either mode like the weighted costs, and a monotone outer loop.  Every trainer
runs on one of two shared solvers: batch mode is one L-BFGS-B scaffold whose
trajectory reuses the evaluations L-BFGS-B already made, and stochastic mode
is one projected, clipped mini-batch SGD loop over ``[theta, (beta, gamma)]``
to which each trainer supplies its per-step gradient.  A batch evaluation scores
each distinct context once and sums over the distinct records by their shares
of the log, equal to the per-record objective up to rounding.  Reports carry
the iteration trajectory and can be serialized to CSV or JSON lines.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .data import _check_count
from .divergences import _GENERATORS, DivergenceKind
from .dro import DualPoint, SolverError, _mean_under, _robust_value_grads, robust_risk_dual
from .estimators import BanditLog, _byte_groups, _log_probs, _log_trick_costs, _penalized, _scoring
from .estimators import estimate_rho
from .intervals import calibrated_radius
from .policies import LinearPolicy, Multiclass

__all__ = [
    "OptimizerConfig",
    "IterationRecord",
    "TrainReport",
    "write_report",
    "train_dro",
    "train_poem",
    "train_dro_stochastic",
    "train_log_trick",
]


_TOLERANCE = 1e-10  # L-BFGS-B ftol
_STEP_DECAY = 1000.0  # the SGD step size decays as 1 / sqrt(1 + t / _STEP_DECAY)
_CLIP_NORM = 10.0
_EVAL_EVERY = 100  # SGD steps between full-log evaluations
_GAMMA_MIN = 1e-8  # keeps gamma off the dual's nonsmooth boundary at 0


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by all trainers.

    ``max_iters`` counts L-BFGS-B iterations in batch mode and SGD steps in
    stochastic mode, per outer step in the log trick; ``batch_size`` and
    ``step_size`` apply to the SGD loop, and ``seed`` draws its mini-batches.
    """

    mode: str = "batch"
    max_iters: int = 300
    batch_size: int = 64
    step_size: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("batch", "stochastic"):
            raise ValueError("mode must be 'batch' or 'stochastic'")
        for name in ("max_iters", "batch_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("max_iters", "batch_size", "step_size"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class IterationRecord:
    """One trajectory entry; ``beta`` and ``gamma`` are NaN for a trainer without duals.

    A batch entry holds the exact objective at an L-BFGS-B iterate.  An SGD
    run's first and last entries hold the exact full-log objective, and each
    entry in between the mean mini-batch objective of the steps since the
    previous one (for ``train_poem``, of the majorizer those steps descend).
    """

    iteration: int
    objective: float
    gradient_norm: float
    beta: float
    gamma: float
    elapsed: float


@dataclass
class TrainReport:
    """Outcome of one training run."""

    final_value: float
    iterations: int
    wall_time: float
    trajectory: "list[IterationRecord]" = field(default_factory=list)
    dual: Optional[DualPoint] = None
    converged: bool = False


def write_report(report: TrainReport, path) -> None:
    """Serialize the iteration trajectory; format chosen by suffix (.csv or .jsonl)."""
    target = Path(path)
    fields = ["iteration", "objective", "gradient_norm", "beta", "gamma", "elapsed"]
    if target.suffix == ".csv":
        with target.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for rec in report.trajectory:
                writer.writerow([getattr(rec, name) for name in fields])
    else:
        with target.open("w", encoding="utf-8") as fh:
            for rec in report.trajectory:
                fh.write(json.dumps({name: getattr(rec, name) for name in fields}) + "\n")


# ----------------------------------------------------------------------
# shared machinery
# ----------------------------------------------------------------------

# A builder is a pair (rows, costs): ``rows`` holds per-record arrays, the
# index of the record's context and the actions first (ids, or bits as floats
# that no kernel call has to cast), and ``costs(logp, *rows[2:])`` returns
# (z, coef) from the policy's log-probabilities of the actions; the gradient of
# sum_i d_i z_i is ``policy.score_gradient(xb, resid, d * coef)``, ``xb`` the
# records' contexts.  A mini-batch slices every array in ``rows`` with the same
# indices.  A run's ``contexts`` are the log's, bias-augmented.


def _weighted_costs(log: BanditLog, policy: LinearPolicy, rho: "float | str" = 0.0):
    """Builder of the weighted costs ``(c - rho) w + rho`` with the contexts; ``rho`` may be ``"mean"``."""
    if isinstance(rho, str):
        if rho != "mean":
            raise ValueError("rho must be a number or 'mean'")
        rho = estimate_rho(log)
    rho = float(rho)
    index, acts, contexts = _scoring(log, policy, group=True)  # a run weighs it hundreds of times

    def costs(logp, log_p0, centered):
        coef = centered * np.exp(logp - log_p0)
        return coef + rho, coef

    acts = acts if isinstance(log.action_space, Multiclass) else acts.astype(float)
    return (index, acts, np.log(log.propensities), log.costs - rho), costs, contexts


def _scored(policy: LinearPolicy, rows, costs, xb, at):
    """``(z, coef, resid)`` on ``rows`` from one pass over ``xb``, record i on row ``at[i]`` (i if None)."""
    table = policy._row_table(xb, len(rows[0]))
    logp = policy._log_prob_rows(table, at, rows[1])
    return (*costs(logp, *rows[2:]), policy._residual_rows(table, at, rows[1]))


def _distinct(rows):
    """One of each distinct record of ``rows`` (all entries, by bytes) and masses ``counts / n``."""
    first, _, counts = _byte_groups(np.column_stack(rows))
    return [a[first] for a in rows], counts / len(rows[0])


def _exact_dual(policy, rows, costs, kind, epsilon, contexts):
    """The exact dual point of ``policy``'s costs and its log-probabilities, from one score pass."""
    logp = _log_probs(policy, rows[0], rows[1], contexts)
    return robust_risk_dual(costs(logp, *rows[2:])[0], kind, epsilon), logp


_PENALTY_BASE = 1e8
_PENALTY_SLOPE = 1e4


def _lbfgs(fun, x0: np.ndarray, config: OptimizerConfig, record):
    """L-BFGS-B on ``fun`` (value and gradient); returns ``(x, iterations, converged, trajectory)``.

    ``record(iteration, x, value, grad)`` builds each trajectory entry from the
    evaluation L-BFGS-B already made at that iterate; ``fun`` is called again
    only if the iterate is not the last point evaluated.
    """
    from scipy import optimize as sp_optimize
    trajectory: "list[IterationRecord]" = []
    last: list = [None, None, None]  # x, value, gradient of the latest evaluation

    def note(x: np.ndarray) -> None:
        value, grad = last[1:] if np.array_equal(x, last[0]) else fun(x)
        trajectory.append(record(len(trajectory), x, value, grad))

    def evaluate(x: np.ndarray):
        value, grad = fun(x)
        last[:] = [x.copy(), value, grad]
        if not trajectory:  # L-BFGS-B evaluates x0 first
            note(x0)
        return value, grad

    res = sp_optimize.minimize(
        evaluate,
        x0,
        jac=True,
        method="L-BFGS-B",
        callback=note,
        options={"maxiter": config.max_iters, "ftol": _TOLERANCE, "gtol": 1e-9},
    )
    return res.x, res.nit, res.status == 0, trajectory


def _sgd(rows, w, config: OptimizerConfig, step, objective, value0: float, duals: bool, start):
    """Projected, clipped mini-batch SGD on ``w = [theta, (beta, gamma)]``; returns (theta, report).

    ``step(t, w, batch)`` returns the step-``t`` mini-batch objective value and
    gradient on the sliced ``rows``, or ``None`` to skip the step (it may
    adjust ``w`` in place).  ``objective(w)`` is the exact full-log value and
    ``value0`` its value at the start, which the trainer has from its own
    start-up pass.  The trajectory's first entry is ``value0`` and its last
    the exact value at the returned iterate, ``final_value``; the entries
    every ``_EVAL_EVERY`` steps in between hold the mean mini-batch value of
    the steps since the previous entry (NaN if every one was skipped), so the
    loop scores the full log once whatever ``max_iters`` is.  With ``duals``
    ``gamma = w[-1]`` is kept at or above ``_GAMMA_MIN``.  The run reports
    converged only if every step's gradient norm, every mini-batch mean in the
    trajectory and ``final_value`` are finite, and gamma ends above its floor.
    """
    n = len(rows[0])
    batch_size = min(config.batch_size, n)
    rng = np.random.default_rng(config.seed)
    trajectory: "list[IterationRecord]" = []
    last_norm, finite = 0.0, True
    total, count = 0.0, 0

    def record(t: int, value: float) -> None:
        beta, gamma = (float(w[-2]), float(w[-1])) if duals else (math.nan, math.nan)
        trajectory.append(
            IterationRecord(t, value, last_norm, beta, gamma, time.perf_counter() - start)
        )

    record(0, value0)
    for t in range(config.max_iters):
        if t and t % _EVAL_EVERY == 0:
            mean = total / count if count else math.nan
            finite = finite and math.isfinite(mean)
            record(t, mean)
            total, count = 0.0, 0
        idx = None if batch_size == n else rng.integers(0, n, size=batch_size)
        out = step(t, w, rows if idx is None else [a.take(idx, axis=0) for a in rows])
        if out is None:
            continue
        value, grad = out
        total, count = total + value, count + 1
        # the bits of np.linalg.norm, without its dispatch
        norm = last_norm = math.sqrt(grad @ grad)
        finite = finite and math.isfinite(norm)
        if norm > _CLIP_NORM:
            grad *= _CLIP_NORM / norm
        w -= config.step_size / math.sqrt(1.0 + t / _STEP_DECAY) * grad
        if duals:
            w[-1] = max(float(w[-1]), _GAMMA_MIN)

    final_value = objective(w)
    record(config.max_iters, final_value)
    dual = DualPoint(beta=float(w[-2]), gamma=float(w[-1]), value=final_value) if duals else None
    converged = finite and math.isfinite(final_value) and not (duals and w[-1] <= _GAMMA_MIN)
    report = TrainReport(
        final_value=final_value, iterations=config.max_iters, wall_time=time.perf_counter() - start,
        trajectory=trajectory, dual=dual, converged=converged,
    )
    return (w[:-2] if duals else w), report


def _robust_batch(kind, epsilon, policy_init: LinearPolicy, config: OptimizerConfig, rows, costs, contexts):
    """Joint quasi-Newton minimization of the dual objective over (theta, beta, log-gamma)."""
    cap = _GENERATORS[kind].cap
    start = time.perf_counter()
    distinct, p = _distinct(rows)
    xb, k, mean = contexts.take(distinct[0], 0), len(p), _mean_under(p)

    def unpack(w: np.ndarray):
        beta = float(w[-2])
        psi = min(float(w[-1]), 60.0)
        gamma = _GAMMA_MIN + math.exp(psi)
        return w[:-2], beta, psi, gamma

    def pack(theta_flat: np.ndarray, point: DualPoint) -> np.ndarray:
        gamma = max(point.gamma, _GAMMA_MIN * 2.0)
        return np.concatenate([theta_flat, [point.beta, math.log(gamma - _GAMMA_MIN)]])

    def fun(w: np.ndarray):
        theta_flat, beta, psi, gamma = unpack(w)
        policy = policy_init._with_theta(theta_flat)
        z, coef, resid = _scored(policy, distinct, costs, contexts, distinct[0])
        state = _robust_value_grads(kind, epsilon, z, beta, gamma, cap, mean=mean)
        if state is None:
            # linear penalty pushing back inside the conjugate domain
            imax = int(np.argmax(z))
            viol = (float(z[imax]) - beta) - cap * gamma
            g_theta = policy.score_gradient(xb, resid, np.where(np.arange(k) == imax, coef, 0.0))
            g_duals = [-_PENALTY_SLOPE, -_PENALTY_SLOPE * cap * math.exp(psi)]
            g = np.concatenate([_PENALTY_SLOPE * g_theta.ravel(), g_duals])
            return _PENALTY_BASE + _PENALTY_SLOPE * viol, g
        value, d1, g_beta, g_gamma = state
        g_theta = policy.score_gradient(xb, resid, p * d1 * coef)
        return value, np.concatenate([g_theta.ravel(), [g_beta, g_gamma * math.exp(psi)]])

    def record(iteration: int, w: np.ndarray, value: float, grad: np.ndarray) -> IterationRecord:
        _, beta, _, gamma = unpack(w)
        return IterationRecord(
            iteration, value, float(np.linalg.norm(grad)), beta, gamma, time.perf_counter() - start
        )

    # initialize the dual pair exactly at the starting policy, so a warm
    # start from a previous optimum is a fixed point of the joint solve
    point0, _ = _exact_dual(policy_init, rows, costs, kind, epsilon, contexts)
    w, iterations, converged, trajectory = _lbfgs(
        fun, pack(policy_init.theta.ravel(), point0), config, record
    )
    policy = policy_init._with_theta(w[:-2])
    final_point, _ = _exact_dual(policy, rows, costs, kind, epsilon, contexts)
    w_final = pack(w[:-2], final_point)
    trajectory.append(record(iterations, w_final, *fun(w_final)))
    report = TrainReport(
        final_value=final_point.value, iterations=iterations, wall_time=time.perf_counter() - start,
        trajectory=trajectory, dual=final_point, converged=converged,
    )
    return policy, report


def _robust_sgd(kind, epsilon, policy_init: LinearPolicy, config: OptimizerConfig, rows, costs, contexts):
    """Joint mini-batch SGD on the dual objective over (theta, beta, gamma), :func:`_robust_batch`'s twin.

    Each record contributes ``beta + gamma eps + (gamma phi)*(z_i - beta)``, so a uniform
    mini-batch average is an unbiased estimate of the full objective and its gradient.  A batch
    outside the conjugate domain doubles ``gamma``; one hundred in a row abort the run.
    """
    start = time.perf_counter()
    cap = _GENERATORS[kind].cap
    point0, logp0 = _exact_dual(policy_init, rows, costs, kind, epsilon, contexts)
    w0 = np.concatenate(
        [policy_init.theta.ravel(), [point0.beta, max(point0.gamma, _GAMMA_MIN)]]
    )
    inflations = 0

    def step(t: int, w: np.ndarray, batch):
        nonlocal inflations
        policy, xb = policy_init._with_theta(w[:-2]), contexts.take(batch[0], 0)
        z, coef, resid = _scored(policy, batch, costs, xb, None)  # a table row per record
        state = _robust_value_grads(kind, epsilon, z, float(w[-2]), float(w[-1]), cap)
        if state is None:
            w[-1] *= 2.0
            inflations += 1
            if inflations > 100:
                raise SolverError(
                    "mini-batch objective stayed outside the conjugate domain",
                    best=DualPoint(beta=float(w[-2]), gamma=float(w[-1]), value=math.inf),
                )
            return None
        inflations = 0
        value, d1, g_beta, g_gamma = state
        g_theta = policy.score_gradient(xb, resid, d1 * coef) / len(z)
        return value, np.concatenate([g_theta.ravel(), [g_beta, g_gamma]])

    def value_at(logp: np.ndarray, w: np.ndarray) -> float:
        z = costs(logp, *rows[2:])[0]
        value = _robust_value_grads(kind, epsilon, z, float(w[-2]), float(w[-1]), cap, grads=False)
        return math.inf if value is None else value

    def objective(w: np.ndarray) -> float:
        return value_at(_log_probs(policy_init._with_theta(w[:-2]), rows[0], rows[1], contexts), w)

    value0 = value_at(logp0, w0)
    theta, report = _sgd(rows, w0, config, step, objective, value0, duals=True, start=start)
    return policy_init._with_theta(theta), report


# ----------------------------------------------------------------------
# public trainers
# ----------------------------------------------------------------------


def train_dro(
    log: BanditLog,
    kind: DivergenceKind,
    delta: float,
    policy_init: LinearPolicy,
    config: OptimizerConfig = OptimizerConfig(),
    rho: "float | str" = 0.0,
):
    """Minimize the robust risk of the weighted costs at the radius calibrated from ``delta``.

    No radius hyper-parameter is exposed: the ambiguity size is always
    ``calibrated_radius(kind, delta, n)``.  The weighted costs are
    ``(c - rho) w + rho``: ``rho=0`` is plain reweighting, any other number
    is a control-variate center and ``"mean"`` centers at the logged costs'
    empirical mean.  ``config.mode`` selects the batch quasi-Newton path or
    :func:`train_dro_stochastic`.
    """
    if config.mode == "stochastic":
        return train_dro_stochastic(log, kind, delta, policy_init, config, rho)
    eps = calibrated_radius(kind, delta, log.n)
    return _robust_batch(kind, eps, policy_init, config, *_weighted_costs(log, policy_init, rho))


def train_dro_stochastic(
    log: BanditLog,
    kind: DivergenceKind,
    delta: float,
    policy_init: LinearPolicy,
    config: OptimizerConfig = OptimizerConfig(),
    rho: "float | str" = 0.0,
):
    """Stochastic counterpart of :func:`train_dro` (same ``rho``): SGD on per-sample dual terms."""
    eps = calibrated_radius(kind, delta, log.n)
    return _robust_sgd(kind, eps, policy_init, config, *_weighted_costs(log, policy_init, rho))


def train_poem(
    log: BanditLog,
    lam: float,
    policy_init: LinearPolicy,
    config: OptimizerConfig = OptimizerConfig(),
):
    """Minimize :func:`~cfdro.estimators.crm_objective`, the risk ``mean(z) + lam sqrt(var(z)/n)``.

    The objective is not convex in the policy parameters; the returned
    policy is a best-effort local minimum from the given initialization.
    In stochastic mode each nominal epoch takes one full pass to freeze the
    current mean ``m0`` and variance ``v0``; the concave square root and the
    ``-n mean^2`` term are replaced by their tangents there, leaving a
    per-record decomposable upper bound ``z_i + c (n/(n-1)) (z_i^2 - 2 m0 z_i)``
    with ``c = lam / (2 sqrt(n v0))``.  The whole log must therefore stay in
    memory; the inner steps use per-record gradients, and each step's value
    in the trajectory is the batch mean of that bound plus its constant, which
    makes it equal the objective at the point of the last full pass.
    """
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be nonnegative and finite")
    n = log.n
    if n < 2:
        raise ValueError("the penalized objective needs at least 2 records")
    start = time.perf_counter()
    rows, costs, contexts = _weighted_costs(log, policy_init)
    theta0 = policy_init.theta.ravel().copy()

    def full_costs(theta: np.ndarray) -> np.ndarray:
        return costs(_log_probs(policy_init._with_theta(theta), rows[0], rows[1], contexts), *rows[2:])[0]

    if config.mode == "stochastic":
        steps_per_epoch = -(-n // min(config.batch_size, n))
        m0 = scale = offset = 0.0
        z0 = full_costs(theta0)

        def step(t: int, theta: np.ndarray, batch):
            nonlocal m0, scale, offset
            if t % steps_per_epoch == 0:  # re-majorize from a full pass
                z_full = z0 if t == 0 else full_costs(theta)
                m0 = float(z_full.mean())
                v0 = max(float(z_full.var(ddof=1)), 1e-12)
                scale = 0.0 if lam == 0.0 else lam / (2.0 * math.sqrt(n * v0))
                # the bound's constant: it equals the objective at the anchor
                offset = lam * math.sqrt(v0 / n) + scale * ((n / (n - 1)) * m0 * m0 - v0)
            policy, xb = policy_init._with_theta(theta), contexts.take(batch[0], 0)
            z, coef, resid = _scored(policy, batch, costs, xb, None)  # a table row per record
            mult = 1.0 + scale * (n / (n - 1)) * (2.0 * z - 2.0 * m0)
            grad = policy.score_gradient(xb, resid, mult * coef)
            bound = z * (1.0 + scale * (n / (n - 1)) * (z - 2.0 * m0))
            value = float(np.add.reduce(bound)) / len(z) + offset
            return value, (grad / len(z)).ravel()

        def objective(theta: np.ndarray) -> float:
            return _penalized(full_costs(theta), lam)

        theta, report = _sgd(
            rows, theta0, config, step, objective, _penalized(z0, lam), duals=False, start=start
        )
        return policy_init._with_theta(theta), report

    distinct, p = _distinct(rows)
    mean_of, xb = _mean_under(p), contexts.take(distinct[0], 0)

    def fun(theta_flat: np.ndarray):
        policy = policy_init._with_theta(theta_flat)
        z, coef, resid = _scored(policy, distinct, costs, contexts, distinct[0])
        mean = mean_of(z)
        grad = policy.score_gradient(xb, resid, p * coef)
        variance = n / (n - 1) * mean_of(np.square(z - mean))
        value = mean + lam * math.sqrt(variance / n)
        if lam > 0 and variance > 1e-18:
            dv_coef = 2.0 * n / (n - 1) * p * (z - mean) * coef
            grad_var = policy.score_gradient(xb, resid, dv_coef)
            grad = grad + grad_var * (lam / (2.0 * math.sqrt(variance / n) * n))
        return value, grad.ravel()

    def record(iteration: int, theta_flat, value: float, grad: np.ndarray) -> IterationRecord:
        norm, elapsed = float(np.linalg.norm(grad)), time.perf_counter() - start
        return IterationRecord(iteration, value, norm, math.nan, math.nan, elapsed)

    theta, iterations, converged, trajectory = _lbfgs(fun, theta0, config, record)
    report = TrainReport(
        final_value=trajectory[-1].objective, iterations=iterations,
        wall_time=time.perf_counter() - start, trajectory=trajectory, converged=converged,
    )
    return policy_init._with_theta(theta), report


def train_log_trick(
    log: BanditLog,
    kind: DivergenceKind,
    delta: float,
    policy_init: LinearPolicy,
    config: OptimizerConfig = OptimizerConfig(),
    outer_iters: int = 20,
):
    """Majorize-minimize loop on the tangent upper bound of the weighted costs.

    Each outer step minimizes the robust objective of the convex surrogate
    anchored at the current policy, then re-anchors.  The surrogate equals
    the true weighted costs at the anchor and dominates them elsewhere
    (costs are nonpositive), so the true robust risk is nonincreasing
    across outer steps.  ``config.mode`` picks the inner runs' solver, each
    run draws its batches from ``config.seed``, and ``max_iters`` counts per
    run.  ``converged`` means the loop stalled: its last candidate moved the
    exact risk by at most ``_TOLERANCE``.
    """
    _check_count("outer_iters", outer_iters)
    if np.any(log.costs > 1e-12):
        raise ValueError("the tangent surrogate requires nonpositive costs")
    eps = calibrated_radius(kind, delta, log.n)
    start = time.perf_counter()
    anchor = policy_init
    trajectory: "list[IterationRecord]" = []
    rows, costs, contexts = _weighted_costs(log, policy_init)  # every surrogate shares the run's contexts

    def note(outer: int, point: DualPoint) -> None:
        elapsed = time.perf_counter() - start
        record = IterationRecord(outer, point.value, math.nan, point.beta, point.gamma, elapsed)
        trajectory.append(record)

    # each exact risk's score pass gives the log-probabilities the next surrogate is anchored on
    current, anchor_lp = _exact_dual(anchor, rows, costs, kind, eps, contexts)
    note(0, current)
    total_inner, stalled = 0, False
    inner = _robust_sgd if config.mode == "stochastic" else _robust_batch
    for outer in range(1, outer_iters + 1):
        candidate, inner_report = inner(
            kind, eps, anchor, config, *_log_trick_costs(log, anchor_lp, rows), contexts
        )
        total_inner += inner_report.iterations
        cand_point, cand_lp = _exact_dual(candidate, rows, costs, kind, eps, contexts)
        note(outer, cand_point)
        improved = cand_point.value <= current.value + 1e-12
        if improved:
            anchor, anchor_lp = candidate, cand_lp
        stalled = abs(current.value - cand_point.value) <= _TOLERANCE
        current = cand_point if improved else current
        if stalled or not improved:
            break
    report = TrainReport(
        final_value=current.value, iterations=total_inner, wall_time=time.perf_counter() - start,
        trajectory=trajectory, dual=current, converged=stalled,
    )
    return anchor, report
