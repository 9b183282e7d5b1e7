"""Confidence intervals for the true risk of a candidate policy.

The primary interval is asymptotic: the optimistic and robust reweighted
risks, evaluated at an ambiguity radius calibrated from the chi-square
quantile, sandwich the true risk with probability ``1 - delta`` in the
large-sample limit.  Two finite-time comparators (Hoeffding and empirical
Bernstein) are provided; they are valid at every sample size but much
wider.

Throughout this package ``delta`` is the failure probability: a
``delta = 0.05`` interval is a 95% confidence interval.

Calibration note: the asymptotic width of the robust-minus-optimistic
sandwich scales with ``sqrt(2 eps / phi''(1))``, so the radius that makes
the interval match the normal-theory quantile depends on the generator's
curvature at 1.  :func:`calibrated_radius` applies that correction, which
makes all four generators produce interchangeable intervals.

Each log's weighted costs are compressed once to their distinct values and
counts, on which every DRO interval is solved; a coverage study weighs each
(row, action) pair of its logs once.  The radius uses the number of records.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .divergences import DivergenceKind, curvature_at_one
from .dro import optimistic_risk_dual, robust_risk_dual
from .estimators import BanditLog, CostScale, importance_weights
from .policies import LinearPolicy, _check_fit, _with_bias

__all__ = [
    "RiskInterval",
    "chi2_quantile_1dof",
    "calibrated_radius",
    "dro_interval",
    "hoeffding_interval",
    "bernstein_interval",
    "risk_intervals",
    "CoverageRow",
    "coverage_experiment",
    "write_coverage_csv",
]


@dataclass(frozen=True)
class RiskInterval:
    """A two-sided interval for the true risk at failure probability ``delta``."""

    lower: float
    upper: float
    delta: float
    method: str
    n: int

    def __post_init__(self) -> None:
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.lower > self.upper + 1e-9:
            raise ValueError("interval endpoints are out of order")
        if self.lower > self.upper:  # solver noise below the 1e-9 slack
            object.__setattr__(self, "lower", self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@lru_cache(maxsize=64)
def chi2_quantile_1dof(p: float) -> float:
    """Quantile of the chi-square distribution with one degree of freedom.

    Computed by bisection on the closed-form CDF ``erf(sqrt(x / 2))`` to
    1e-9 absolute accuracy, keeping the calibration dependency-free and
    bit-deterministic.  Each ``p`` is bisected once; studies ask for a few.
    """
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    lo, hi = 0.0, 200.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if math.erf(math.sqrt(mid / 2.0)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrated_radius(kind: DivergenceKind, delta: float, n: int) -> float:
    """Ambiguity radius giving an asymptotic ``1 - delta`` two-sided interval.

    The base radius is the ``1 - delta`` chi-square quantile divided by
    ``n``; it is then scaled by ``phi''(1) / 2`` so that generators of
    different curvature induce the same local ball.  The chi-square
    generator (curvature 2) is the reference and gets the base radius
    unchanged.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    return chi2_quantile_1dof(1.0 - delta) / n * (curvature_at_one(kind) / 2.0)


def dro_interval(
    log: BanditLog, policy: LinearPolicy, kind: DivergenceKind, delta: float
) -> RiskInterval:
    """Asymptotic interval ``[optimistic, robust]`` at the calibrated radius."""
    z = importance_weights(log, policy)
    return _dro_bounds(*np.unique(z.values, return_counts=True), kind, delta)


def _dro_bounds(values, counts, kind: DivergenceKind, delta: float) -> RiskInterval:
    """The interval on the distinct weighted costs ``values``; ``n`` is their total count."""
    n = int(counts.sum())
    if n < 2:
        raise ValueError("the interval needs at least 2 records")
    eps = calibrated_radius(kind, delta, n)
    lower = optimistic_risk_dual(values, kind, eps, counts=counts).value
    upper = robust_risk_dual(values, kind, eps, counts=counts).value
    return RiskInterval(lower=lower, upper=upper, delta=delta, method=f"dro-{kind.value}", n=n)


def _resolve_weight_bound(z: np.ndarray, weight_bound: Optional[float]) -> float:
    if weight_bound is None:
        return float(np.max(np.abs(z)))
    if not math.isfinite(weight_bound) or weight_bound <= 0:
        raise ValueError("weight bound must be positive and finite")
    if np.any(np.abs(z) > weight_bound + 1e-9):
        raise ValueError("weighted costs exceed the stated bound")
    return float(weight_bound)


def hoeffding_interval(
    log: BanditLog,
    policy: LinearPolicy,
    delta: float,
    weight_bound: Optional[float] = None,
) -> RiskInterval:
    """Finite-time interval ``mean(z) +- W sqrt(log(2/delta) / (2n))``.

    ``W`` bounds the magnitude of the weighted costs; when omitted, the
    observed maximum is used (losing the finite-time guarantee but giving a
    serviceable default).
    """
    return _hoeffding_bounds(importance_weights(log, policy).values, delta, weight_bound)


def _hoeffding_bounds(z: np.ndarray, delta: float, weight_bound: Optional[float]) -> RiskInterval:
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    bound = _resolve_weight_bound(z, weight_bound)
    center = float(z.mean())
    half = bound * math.sqrt(math.log(2.0 / delta) / (2.0 * len(z)))
    return RiskInterval(center - half, center + half, delta, "hoeffding", len(z))


def bernstein_interval(
    log: BanditLog,
    policy: LinearPolicy,
    delta: float,
    weight_bound: Optional[float] = None,
) -> RiskInterval:
    """Empirical-Bernstein interval; variance-adaptive but still finite-time.

    Half-width ``sqrt(2 V log(2/delta) / n) + 7 W log(2/delta) / (3 (n-1))``
    with ``V`` the unbiased sample variance of the weighted costs and ``W``
    their range bound.
    """
    return _bernstein_bounds(importance_weights(log, policy).values, delta, weight_bound)


def _bernstein_bounds(z: np.ndarray, delta: float, weight_bound: Optional[float]) -> RiskInterval:
    n = len(z)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n < 2:
        raise ValueError("the empirical-Bernstein interval needs at least 2 records")
    bound = _resolve_weight_bound(z, weight_bound)
    center = float(z.mean())
    variance = float(z.var(ddof=1))
    loginv = math.log(2.0 / delta)
    half = math.sqrt(2.0 * variance * loginv / n) + 7.0 * bound * loginv / (3.0 * (n - 1))
    return RiskInterval(center - half, center + half, delta, "bernstein", n)


def risk_intervals(
    log: BanditLog,
    policy: LinearPolicy,
    kinds: Sequence[DivergenceKind],
    delta: float,
    weight_bound: Optional[float] = None,
) -> "list[RiskInterval]":
    """The DRO interval of each kind, then Hoeffding and Bernstein, from one weights pass."""
    z = importance_weights(log, policy).values
    return _intervals_of(z, np.unique(z, return_counts=True), kinds, delta, weight_bound)


def _intervals_of(z: np.ndarray, support, kinds, delta: float, weight_bound: Optional[float]):
    """:func:`risk_intervals` on the weighted costs ``z`` and their distinct values and counts."""
    intervals = [_dro_bounds(*support, kind, delta) for kind in kinds]
    return intervals + [fn(z, delta, weight_bound) for fn in (_hoeffding_bounds, _bernstein_bounds)]


# ----------------------------------------------------------------------
# coverage experiment
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageRow:
    """One interval computed on one regenerated log, with its coverage outcome."""

    method: str
    divergence: str
    n: int
    replication: int
    lower: float
    upper: float
    true_risk: float
    covered: int


_ALL_KINDS = tuple(DivergenceKind)


def coverage_experiment(
    dataset,
    policy: LinearPolicy,
    logging_policy: LinearPolicy,
    *,
    replications: int,
    delta: float = 0.05,
    kinds: Sequence[DivergenceKind] = _ALL_KINDS,
    n_values: Optional[Sequence[int]] = None,
    replay_counts: Optional[Sequence[int]] = None,
    weight_bound: Optional[float] = None,
    seed: int = 0,
) -> "list[CoverageRow]":
    """Repeatedly regenerate logs and record interval coverage of the exact risk.

    Exactly one of ``n_values`` (independent context draws per log) or
    ``replay_counts`` (full passes over the dataset rows per log) selects
    the log sizes.  The exact risk of ``policy`` is computed in rescaled
    cost units, matching the estimators.
    """
    # imported here: the data module sits above this one in the layering
    from .data import _check_count, _records
    from .policies import true_risk as exact_risk

    if (n_values is None) == (replay_counts is None):
        raise ValueError("specify exactly one of n_values or replay_counts")
    field = "n_values" if n_values is not None else "replay_counts"
    sizes = list(n_values if n_values is not None else replay_counts)
    _check_count(f"len({field})", len(sizes))
    for i, size in enumerate(sizes):
        _check_count(f"{field}[{i}]", size)
    _check_count("replications", replications)

    # each policy scores every row once, for all the study's logs
    for p in (logging_policy, policy):
        _check_fit(p, dataset)
    logged, target = [(p, p._row_table(_with_bias(dataset.features), 2)) for p in (logging_policy, policy)]
    if policy.action_space != logging_policy.action_space:  # both fit: one is multiclass
        raise ValueError("action_space: the policy and the logging policy are of different kinds")
    truth = float(CostScale.for_hamming(dataset.n_labels).apply(exact_risk(policy, dataset)))

    def replication(size: int, seed: int):
        """``sample_bandit_log`` or ``collect_bandit_log``, then ``risk_intervals``, bit for bit."""
        rng, m = np.random.default_rng(seed), dataset.n_rows
        row_idx = rng.integers(0, m, size=size) if n_values is not None else np.tile(np.arange(m), size)
        _, (inverse, counts), pairs, (props, _, costs) = _records(dataset, *logged, row_idx, rng)
        # each (row, action) pair's weighted cost; the support sums the counts of equal values
        z = np.exp(policy._log_prob_rows(target[1], *pairs) - np.log(props)) * costs
        values, index = np.unique(z, return_inverse=True)
        support = values, np.bincount(index, counts).astype(counts.dtype)
        return len(row_idx), _intervals_of(z[inverse], support, kinds, delta, weight_bound)

    rows: list[CoverageRow] = []
    seeds = np.random.SeedSequence(seed).spawn(len(sizes) * replications)
    for si, size in enumerate(sizes):
        for rep in range(replications):
            n, intervals = replication(size, int(seeds[si * replications + rep].generate_state(1)[0]))
            for iv, kind in zip(intervals, [k.value for k in kinds] + ["", ""]):
                method = "dro" if kind else iv.method
                rows.append(
                    CoverageRow(method, kind, n, rep, iv.lower, iv.upper, truth, int(iv.contains(truth)))
                )
    return rows


def write_coverage_csv(rows: Sequence[CoverageRow], path) -> None:
    """Write coverage rows as RFC-4180 CSV with a header."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "divergence", "n", "replication", "lower", "upper", "true_risk", "covered"]
        )
        for row in rows:
            writer.writerow(
                [row.method, row.divergence, row.n, row.replication,
                 repr(row.lower), repr(row.upper), repr(row.true_risk), row.covered]
            )
