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

from .policies import ActionSpace, LinearPolicy, Multiclass

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


def _check_records(ok: np.ndarray, message: str) -> None:
    """Raise :class:`_RecordFault` at the first record (row of ``ok``) with a False entry."""
    if not np.all(ok):
        first = int(np.argmin(ok))  # the flat position of the first False
        raise _RecordFault(message, first // (ok.size // ok.shape[0]) if ok.ndim else 0)


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
    attribute is the first record that breaks it.  Each array is kept as a
    read-only view, so writes through the log raise.  An input that already
    has the stored dtype (float64 features, say) is not copied: the caller's
    array stays writable, and the log sees what is written into it.
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
        _check_records(np.isfinite(feats), "features must be finite")
        n = feats.shape[0]
        if isinstance(self.action_space, Multiclass):
            ids = np.asarray(self.actions)
            if ids.dtype.kind == "f":
                integral = np.isfinite(ids) & (ids == np.round(ids))
                _check_records(integral, "actions must be integer ids")
            acts = np.asarray(ids, dtype=int)
            if acts.shape != (n,):
                raise ValueError("multiclass actions must be a length-n id vector")
            in_range = (acts >= 0) & (acts < self.action_space.n_actions)
            _check_records(in_range, "action id out of range")
        else:
            bits = np.asarray(self.actions)
            if bits.shape != (n, self.action_space.n_labels):
                raise ValueError("factorized actions must be an (n, L) bit matrix")
            _check_records((bits == 0) | (bits == 1), "factorized actions must be 0/1 bits")
            acts = np.asarray(bits, dtype=np.int8)
        for name, arr in (("propensities", props), ("costs_raw", raw), ("costs", scaled)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape (n,)")
            _check_records(np.isfinite(arr), f"{name} must be finite")
        _check_records((props > 0) & (props <= 1.0 + 1e-9), "propensities must lie in (0, 1]")
        in_range = (scaled >= -1.0 - 1e-9) & (scaled <= 1e-9)
        _check_records(in_range, "rescaled costs must lie in [-1, 0]")
        named = dict(features=feats, actions=acts, propensities=props, costs_raw=raw, costs=scaled)
        for name, arr in named.items():
            arr = arr.view()
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


def _check_policy_matches(log: BanditLog, policy: LinearPolicy) -> None:
    if type(policy.action_space) is not type(log.action_space):
        raise ValueError("policy and log use different action space kinds")
    if policy.action_space != log.action_space:
        raise ValueError("policy and log disagree on the action space size")
    if policy.feature_dim != log.feature_dim:
        raise ValueError("policy and log disagree on the feature dimension")


def importance_weights(log: BanditLog, policy: LinearPolicy) -> WeightedCosts:
    """Per-record weights ``w_i = pi(a_i | x_i) / p0_i`` and weighted costs ``z_i = w_i c_i``."""
    _check_policy_matches(log, policy)
    return _weighted_by(log, policy.log_prob(log.features, log.actions))


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
    if lam < 0:
        raise ValueError("lam must be nonnegative")
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


def log_trick_upper_bound(log: BanditLog, policy: LinearPolicy, anchor: LinearPolicy) -> float:
    """Tangent-majorized risk: convex in the policy parameters and above the weighted mean.

    Replaces each weight ratio ``pi / pi_anchor`` with its tangent
    ``1 + log(pi / pi_anchor)`` at the anchor, so the bound is exact at
    ``policy == anchor`` and valid whenever costs are nonpositive and the
    policy is log-concave.
    """
    _check_policy_matches(log, policy)
    _check_policy_matches(log, anchor)
    if np.any(log.costs > 1e-12):
        raise ValueError("the tangent bound requires nonpositive costs")
    anchor_lp = anchor.log_prob(log.features, log.actions)
    anchor_wc = _weighted_by(log, anchor_lp)
    log_ratio = policy.log_prob(log.features, log.actions) - anchor_lp
    if np.any(np.isneginf(log_ratio)):
        raise ValueError("policy assigns probability 0 to a logged action")
    if np.any(anchor_wc.weights == 0):
        raise ValueError("anchor policy must have positive probability on logged actions")
    return float(np.mean(anchor_wc.weights * (1.0 + log_ratio) * log.costs))
