"""Counterfactual risk estimators over a logged bandit history.

The logged history is a sequence of (context, action, logging propensity,
cost) records.  Estimators reweight the observed costs by the ratio of the
candidate policy's probability to the logging propensity.  Costs are kept
in two unit systems: the raw cost as produced by the environment (Hamming
distance, for supervised conversions) and a rescaled version in [-1, 0]
that the robust machinery requires; the affine map between the two lives
in :class:`CostScale`.

All per-record terms are independent; reductions use numpy's pairwise
summation so results are deterministic for a fixed record order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .policies import ActionSpace, LinearPolicy, Multiclass, _check_fit, _with_bias

__all__ = [
    "CostScale",
    "BanditLog",
    "WeightedCosts",
    "importance_weights",
    "ips_risk",
    "crm_objective",
    "cv_risk",
    "estimate_rho",
    "log_trick_upper_bound",
]


@dataclass(frozen=True)
class CostScale:
    """Affine map ``scaled = scale * raw + offset`` between cost unit systems."""

    scale: float
    offset: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and math.isfinite(self.offset)):
            raise ValueError("scale and offset must be finite")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def apply(self, raw):
        return self.scale * np.asarray(raw, dtype=float) + self.offset

    def invert(self, scaled):
        return (np.asarray(scaled, dtype=float) - self.offset) / self.scale

    @classmethod
    def identity(cls) -> "CostScale":
        return cls(1.0, 0.0)

    @classmethod
    def for_hamming(cls, n_labels: int) -> "CostScale":
        """Map Hamming costs in [0, L] onto [-1, 0] (best action cost -1)."""
        return cls(1.0 / n_labels, -1.0)


class _RecordFault(ValueError):
    """A rule of :class:`BanditLog` that record ``index`` breaks, the first record to do so."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


_CHECK_ITEMS = 1 << 20  # a rule's boolean temporaries stay near 1 MB


def _check_records(values: np.ndarray, rule, message: str) -> None:
    """Raise :class:`_RecordFault` at the first record (row of ``values``) with an entry that
    ``rule`` maps to False, a chunk of rows at a time (a scalar is one record)."""
    values = np.atleast_1d(values)
    rows = max(1, _CHECK_ITEMS // max(1, values[:1].size))
    for start in range(0, len(values), rows):
        ok = rule(values[start : start + rows])
        if not np.all(ok):
            first = int(np.argmin(ok))  # the flat position of the first False
            raise _RecordFault(message, start + first // (ok.size // ok.shape[0]))
        del ok  # so that two chunks' masks are never held at once


@dataclass(frozen=True)
class BanditLog:
    """Immutable logged bandit history.

    Attributes
    ----------
    features: ``(n, d)`` context matrix.
    actions: ``(n,)`` integer ids (multiclass) or ``(n, L)`` bit-vectors (factorized).
    propensities: ``(n,)`` logging probabilities of the recorded actions; strictly positive.
    costs_raw: ``(n,)`` costs in environment units.
    costs: ``(n,)`` rescaled costs in [-1, 0].

    A value that breaks a rule raises a ``ValueError`` whose ``index``
    attribute is the first record that breaks it.  The log owns its arrays:
    each is read-only and out of every caller's reach.  A read-only input
    (whose memory's owner is read-only too) is kept as given; any other
    becomes the log's own copy, made once, which for a list or another
    dtype is the conversion.  So a grouping of the rows holds for good.
    """

    features: np.ndarray
    actions: np.ndarray
    propensities: np.ndarray
    costs_raw: np.ndarray
    costs: np.ndarray
    action_space: ActionSpace
    cost_scale: CostScale

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        props = np.asarray(self.propensities, dtype=float)
        raw = np.asarray(self.costs_raw, dtype=float)
        scaled = np.asarray(self.costs, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("features must be a nonempty (n, d) matrix")
        _check_records(feats, np.isfinite, "features must be finite")
        n = feats.shape[0]
        if isinstance(self.action_space, Multiclass):
            ids = np.asarray(self.actions)
            if ids.dtype.kind == "f":
                integral = lambda v: np.isfinite(v) & (v == np.round(v))  # noqa: E731
                _check_records(ids, integral, "actions must be integer ids")
            acts = np.asarray(ids, dtype=int)
            if acts.shape != (n,):
                raise ValueError("multiclass actions must be a length-n id vector")
            in_range = lambda v: (v >= 0) & (v < self.action_space.n_actions)  # noqa: E731
            _check_records(acts, in_range, "action id out of range")
        else:
            bits = np.asarray(self.actions)
            if bits.shape != (n, self.action_space.n_labels):
                raise ValueError("factorized actions must be an (n, L) bit matrix")
            _check_records(bits, lambda v: (v == 0) | (v == 1), "factorized actions must be 0/1 bits")
            acts = np.asarray(bits, dtype=np.int8)
        for name, arr in (("propensities", props), ("costs_raw", raw), ("costs", scaled)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape (n,)")
            _check_records(arr, np.isfinite, f"{name} must be finite")
        _check_records(props, lambda v: (v > 0) & (v <= 1.0 + 1e-9), "propensities must lie in (0, 1]")
        in_range = lambda v: (v >= -1.0 - 1e-9) & (v <= 1e-9)  # noqa: E731
        _check_records(scaled, in_range, "rescaled costs must lie in [-1, 0]")
        named = dict(features=feats, actions=acts, propensities=props, costs_raw=raw, costs=scaled)
        for name, arr in named.items():
            if arr.flags.writeable or (isinstance(arr.base, np.ndarray) and arr.base.flags.writeable):
                # a conversion made a new array; any other is memory the caller can still write
                arr = arr if arr.flags.owndata and arr is not getattr(self, name) else arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def _contexts(self):
        """The distinct feature rows (by bytes) as ``np.unique``'s first index, inverse and counts."""
        return _byte_groups(self.features)


@dataclass(frozen=True)
class WeightedCosts:
    """Per-record importance weights and weighted costs for one candidate policy."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.shape != weights.shape or values.ndim != 1:
            raise ValueError("values and weights must be 1-D of equal length")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.values.shape[0]


def _scoring(log: BanditLog, *policies: LinearPolicy, group: bool = False):
    """``(at, actions, xb)`` once each policy fits the log: record i reads row ``at[i]`` of the
    bias-augmented ``xb`` (row i for ``at`` None), the log's m contexts if ``group`` or it holds its
    grouping, else its n rows; both score alike."""
    for policy in policies:
        _check_fit(policy, log)
    if group or "_contexts" in vars(log):
        first, at, _ = log._contexts
        return at, log.actions, _with_bias(log.features[first])
    return None, log.actions, _with_bias(log.features)


def _log_probs(policy: LinearPolicy, at, actions, xb) -> np.ndarray:
    """Each record's log-probability of its action, from one score pass over ``xb`` (see ``_scoring``)."""
    return policy._log_prob_rows(policy._row_table(xb, len(xb) if at is None else len(at)), at, actions)


def importance_weights(log: BanditLog, policy: LinearPolicy) -> WeightedCosts:
    """Per-record weights ``w_i = pi(a_i | x_i) / p0_i`` and weighted costs ``z_i = w_i c_i``."""
    return _weighted_by(log, _log_probs(policy, *_scoring(log, policy)))


def _weighted_by(log: BanditLog, logp: np.ndarray) -> WeightedCosts:
    """:func:`importance_weights` from the policy's log-probabilities of the logged actions."""
    weights = np.exp(logp - np.log(log.propensities))
    return WeightedCosts(values=weights * log.costs, weights=weights)


def _byte_groups(rows: np.ndarray):
    """``np.unique``'s first index, inverse and counts of a 2-D array's rows, compared by bytes.

    Byte equality keeps ``-0.0`` and ``0.0`` apart, so rows in one group are identical.
    Items are 8 bytes wide: neighbours in np.unique's stable void-key order compare as words.
    """
    rows = np.ascontiguousarray(rows)
    if not rows.shape[1]:  # rows of no bytes have no void keys; all are the one empty row
        return _runs(np.arange(len(rows)), ())
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    return _runs(np.argsort(keys, kind="stable"), rows.view(np.uint64).T)


def _runs(order: np.ndarray, keys):
    """``np.unique``'s first index, inverse and counts of the records that ``order`` sorts, whose
    neighbours differ where a key column does; a column at a time, so no sorted copy is made."""
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse, np.bincount(inverse)


def ips_risk(log: BanditLog, policy: LinearPolicy) -> float:
    """Importance-weighted empirical risk: the mean of the weighted costs."""
    return float(importance_weights(log, policy).values.mean())


def _penalized(z: np.ndarray, lam: float) -> float:
    """The CRM objective ``mean(z) + lam sqrt(var(z) / n)`` of ``n >= 2`` weighted costs ``z``."""
    return float(z.mean() + lam * math.sqrt(z.var(ddof=1) / len(z)))


def crm_objective(log: BanditLog, policy: LinearPolicy, lam: float) -> float:
    """The variance-penalized (CRM) risk ``ips + lam * sqrt(var / n)`` that ``train_poem`` minimizes."""
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be nonnegative and finite")
    if log.n < 2:
        raise ValueError("the penalized objective needs at least 2 records")
    return _penalized(importance_weights(log, policy).values, lam)


def cv_risk(log: BanditLog, policy: LinearPolicy, rho: float) -> float:
    """Control-variate risk ``mean((c_i - rho) w_i) + rho``.

    Unbiased for every ``rho`` because importance weights have unit mean
    under the logging policy; reduces to the plain weighted mean at
    ``rho = 0``.
    """
    wc = importance_weights(log, policy)
    return float(np.mean((log.costs - rho) * wc.weights) + rho)


def estimate_rho(log: BanditLog) -> float:
    """Empirical mean of the logged (rescaled) costs, the practical control-variate center."""
    return float(log.costs.mean())


def _log_trick_costs(log: BanditLog, anchor_lp: np.ndarray, rows):
    """Builder of the tangent upper bound ``w0 c (1 + log(pi / pi_anchor))`` on the row index and
    actions of ``rows``; ``anchor_lp`` holds the anchor's log-probabilities of the actions."""
    if np.any(np.isneginf(anchor_lp)):
        raise ValueError("anchor policy must have positive probability on logged actions")

    def costs(logp, lp_a, coef):
        log_ratio = np.maximum(logp - lp_a, -1e12)
        return coef * (1.0 + log_ratio), coef

    return (rows[0], rows[1], anchor_lp, _weighted_by(log, anchor_lp).values), costs


def log_trick_upper_bound(log: BanditLog, policy: LinearPolicy, anchor: LinearPolicy) -> float:
    """Tangent-majorized risk: convex in the policy parameters and above the weighted mean.

    Replaces each weight ratio ``pi / pi_anchor`` with its tangent
    ``1 + log(pi / pi_anchor)`` at the anchor, so the bound is exact at
    ``policy == anchor`` and valid whenever costs are nonpositive and the
    policy is log-concave.  It is the surrogate that ``train_log_trick`` minimizes.
    """
    if np.any(log.costs > 1e-12):
        raise ValueError("the tangent bound requires nonpositive costs")
    scoring = _scoring(log, policy, anchor)
    logp, anchor_lp = (_log_probs(p, *scoring) for p in (policy, anchor))
    if np.any(np.isneginf(logp - anchor_lp)):
        raise ValueError("policy assigns probability 0 to a logged action")
    rows, costs = _log_trick_costs(log, anchor_lp, scoring)
    return float(np.mean(costs(logp, *rows[2:])[0]))
