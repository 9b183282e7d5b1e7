"""Log-linear policies over discrete action spaces and labeled datasets.

Two parametrizations are provided.  ``Multiclass`` treats the action set as
``K`` mutually exclusive choices scored by a softmax over linear logits.
``FactorizedLabels`` treats an action as a bit-vector of ``L`` independent
Bernoulli decisions, each driven by its own linear logit; the joint action
probability is the product of the per-label probabilities.  Both are
log-concave in the parameter matrix, which the convex policy-optimization
surrogates rely on.

A bias feature is appended internally, so a policy over ``d``-dimensional
contexts carries a ``(d + 1, m)`` parameter matrix whose last row is the
per-logit intercept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

__all__ = [
    "Multiclass",
    "FactorizedLabels",
    "ActionSpace",
    "LinearPolicy",
    "LabeledDataset",
    "true_risk",
    "greedy_risk",
    "save_policy",
    "load_policy",
    "action_bitvectors",
]

_MAX_ENUMERABLE = 4096


@dataclass(frozen=True)
class Multiclass:
    """Action space of ``n_actions`` mutually exclusive choices."""

    n_actions: int

    def __post_init__(self) -> None:
        if self.n_actions < 2:
            raise ValueError("a multiclass space needs at least 2 actions")

    @property
    def n_logits(self) -> int:
        return self.n_actions


@dataclass(frozen=True)
class FactorizedLabels:
    """Action space of length-``n_labels`` bit-vectors with independent coordinates."""

    n_labels: int

    def __post_init__(self) -> None:
        if self.n_labels < 1:
            raise ValueError("a factorized space needs at least 1 label")

    @property
    def n_logits(self) -> int:
        return self.n_labels

    @property
    def n_actions(self) -> int:
        return 1 << self.n_labels


ActionSpace = Union[Multiclass, FactorizedLabels]


def _space_to_dict(space: ActionSpace) -> dict:
    if isinstance(space, Multiclass):
        return {"kind": "multiclass", "size": space.n_actions}
    return {"kind": "factorized", "size": space.n_labels}


def _space_from_dict(payload: dict) -> ActionSpace:
    if not isinstance(payload, dict):
        raise ValueError("an action space must be a JSON object")
    kind, size = payload.get("kind"), payload.get("size")
    if kind not in ("multiclass", "factorized"):
        raise ValueError(f"unknown action space kind {kind!r}")
    if type(size) is not int:
        raise ValueError(f"size must be a JSON integer, got {size!r}")
    return Multiclass(size) if kind == "multiclass" else FactorizedLabels(size)


def action_bitvectors(n_labels: int) -> np.ndarray:
    """Table of all ``2**n_labels`` bit-vectors; row ``k`` is the bits of ``k`` (LSB first)."""
    if n_labels > 12:
        raise ValueError("action enumeration limited to 12 labels")
    ids = np.arange(1 << n_labels)[:, None]
    return ((ids >> np.arange(n_labels)[None, :]) & 1).astype(np.int8)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=1, keepdims=True)`` by scipy's steps, bit for bit.

    The row max's ties are set aside and counted, as scipy does; a row whose
    result is not finite takes the direct ``log(sum(exp(a)))``, as there.
    """
    a_max = a.max(axis=1, keepdims=True)
    tied = a == a_max
    m = np.add.reduce(tied, axis=1, keepdims=True, dtype=float)
    with np.errstate(all="ignore"):
        s = np.add.reduce(np.exp(np.where(tied, -np.inf, a) - a_max), axis=1, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.add.reduce(np.exp(a), axis=1, keepdims=True)))
    return out


def _at(a: np.ndarray, rows) -> np.ndarray:
    """``a``'s rows ``rows``, or ``a`` itself for None."""
    return a if rows is None else a.take(rows, axis=0)


def _with_bias(x: np.ndarray) -> np.ndarray:
    """One context or a batch as ``(n, d + 1)`` rows ending in a bias feature of 1."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.hstack([x, np.ones((x.shape[0], 1))])


@dataclass(frozen=True)
class LinearPolicy:
    """Immutable linear policy with parameter matrix ``theta`` of shape ``(d + 1, n_logits)``.

    ``temperature`` divides the logits before the softmax / sigmoid, so
    larger values yield smoother (higher-entropy) policies without
    retraining.  Policies are value objects: all operations are pure and
    thread-safe, and sampling requires an explicit generator.
    """

    theta: np.ndarray
    action_space: ActionSpace
    temperature: float = 1.0

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2:
            raise ValueError("theta must be a 2-D matrix")
        if theta.shape[1] != self.action_space.n_logits:
            raise ValueError(
                f"theta has {theta.shape[1]} columns but the action space "
                f"needs {self.action_space.n_logits}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        if not 0 < self.temperature < np.inf:
            raise ValueError("temperature must be positive and finite")
        object.__setattr__(self, "theta", theta)

    def _with_theta(self, theta_flat: np.ndarray) -> "LinearPolicy":
        """This policy with ``theta_flat``, a float vector of ``theta.size``, taken unchecked."""
        policy = object.__new__(LinearPolicy)
        policy.__dict__.update(self.__dict__, theta=theta_flat.reshape(self.theta.shape))
        return policy

    @property
    def feature_dim(self) -> int:
        return self.theta.shape[0] - 1

    # ------------------------------------------------------------------
    # core probability computations (vectorized over records)
    # ------------------------------------------------------------------

    def _log_scores(self, xb: np.ndarray) -> np.ndarray:
        """Scores of bias-augmented rows: the logits, log-normalized for a multiclass space."""
        scores = xb @ self.theta / self.temperature
        if isinstance(self.action_space, Multiclass):
            return scores - _logsumexp(scores)
        return scores

    def score_gradient(self, xb: np.ndarray, resid: np.ndarray, coefficients) -> np.ndarray:
        """``sum_i coefficients[i] * grad_theta log pi(a_i | x_i)`` from the kernel's residual."""
        coef = np.asarray(coefficients, dtype=float)
        return xb.T @ (coef[:, None] * resid) / self.temperature

    def log_prob(self, x: np.ndarray, actions) -> np.ndarray:
        """Log probability of each action given its context.

        ``x`` may be a single context or a ``(n, d)`` batch; ``actions``
        are integer ids for a multiclass space and ``(..., L)`` bit-vectors
        for a factorized one.
        """
        xb = _with_bias(x)
        out = self._log_prob_rows(self._row_table(xb, len(xb)), None, actions)
        return float(out[0]) if np.ndim(x) == 1 else out

    def class_probabilities(self, x: np.ndarray) -> np.ndarray:
        """Softmax probabilities over actions (multiclass spaces only)."""
        if not isinstance(self.action_space, Multiclass):
            raise ValueError("class_probabilities is only defined for multiclass spaces")
        single = np.ndim(x) == 1
        probs = np.exp(self._log_scores(_with_bias(x)))
        return probs[0] if single else probs

    def label_probabilities(self, x: np.ndarray) -> np.ndarray:
        """Per-label Bernoulli probabilities (factorized spaces only)."""
        if not isinstance(self.action_space, FactorizedLabels):
            raise ValueError("label_probabilities is only defined for factorized spaces")
        from scipy.special import expit
        single = np.ndim(x) == 1
        probs = expit(self._log_scores(_with_bias(x)))
        return probs[0] if single else probs

    def joint_action_probabilities(self, x: np.ndarray) -> np.ndarray:
        """Probability of every action in one context, enumerated.

        For factorized spaces the enumeration covers all ``2**L``
        bit-vectors, ordered by their integer encoding.
        """
        if isinstance(self.action_space, Multiclass):
            return self.class_probabilities(x)
        if self.action_space.n_actions > _MAX_ENUMERABLE:
            raise ValueError("action space too large to enumerate")
        bits = action_bitvectors(self.action_space.n_labels)
        p = self.label_probabilities(x)
        return np.prod(np.where(bits == 1, p[None, :], 1.0 - p[None, :]), axis=1)

    def _row_table(self, xb: np.ndarray, n: int):
        """What ``n`` records read per row of the bias-augmented ``xb``, from one score pass.

        A multiclass space's log-normalized scores alone, or ``log sigma(s)``, ``log sigma(-s)``
        and ``sigma(s)``.  Read by row index, they give the per-record bits: numpy scores a row
        alike in any batch of two or more rows, so a lone row is scored twice when more than one
        record reads it.  The readers take ``rows=None`` for one record per row, ``n = len(xb)``.
        """
        s = self._log_scores(xb if len(xb) > 1 or n == 1 else np.repeat(xb, 2, axis=0))
        if isinstance(self.action_space, Multiclass):
            return (s,)
        from scipy.special import expit, log_expit
        # log sigma(+-s) by scipy's steps, which share log1p(exp(-|s|)); -0.0 and 0.0 keep every bit
        low = log_expit(np.abs(s))
        return low + np.minimum(s, -0.0), low - np.maximum(s, 0.0), expit(s)

    def _sample_rows(self, table, rows, rng: np.random.Generator):
        """One action per record, drawn on the table's row ``rows[i]`` (on row ``i`` for None)."""
        if not isinstance(self.action_space, Multiclass):
            drawn = _at(table[2], rows)  # sigma(s)
            return (rng.random(drawn.shape) < drawn).astype(np.int8)
        cdf = np.cumsum(np.exp(table[0]), axis=1)  # on every row of the table, 1 at the top
        cdf[:, -1] = 1.0
        drawn = _at(cdf, rows)
        return (rng.random(len(drawn))[:, None] < drawn).argmax(axis=1)

    def _log_prob_rows(self, table, rows, actions) -> np.ndarray:
        """Log-probability of each record's action on the table's row ``rows[i]`` (row ``i`` for None)."""
        if isinstance(self.action_space, Multiclass):
            s = table[0]
            return s.take((np.arange(len(s)) if rows is None else rows) * s.shape[1] + actions)
        set_bits = np.equal(actions, 1)  # not ==, which a list of bit-vectors answers with False
        return np.add.reduce(np.where(set_bits, _at(table[0], rows), _at(table[1], rows)), axis=1)

    def _residual_rows(self, table, rows, actions) -> np.ndarray:
        """Each record's ``onehot(a) - softmax`` or ``bits - sigmoid`` on the table's row ``rows[i]``."""
        if isinstance(self.action_space, Multiclass):
            resid = -np.exp(_at(table[0], rows))
            resid[np.arange(len(resid)), actions] += 1.0
            return resid
        return actions - _at(table[2], rows)

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def sample_actions(self, x: np.ndarray, rng: np.random.Generator):
        """Draw one action per context row; deterministic given the generator state."""
        xb = _with_bias(x)
        return self._sample_rows(self._row_table(xb, len(xb)), None, rng)

    def greedy_actions(self, x: np.ndarray):
        """Highest-probability action per context; ties resolve to the lowest index."""
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        if isinstance(self.action_space, Multiclass):
            return self.class_probabilities(xs).argmax(axis=1)
        # joint argmax factorizes; a label at exactly 1/2 ties toward 0,
        # which is the lexicographically smallest action
        return (self.label_probabilities(xs) > 0.5).astype(np.int8)

    # ------------------------------------------------------------------
    # gradients
    # ------------------------------------------------------------------

    def weighted_grad_log_prob_sum(
        self, x: np.ndarray, actions, coefficients: np.ndarray
    ) -> np.ndarray:
        """Compute ``sum_i coefficients[i] * grad_theta log pi(a_i | x_i)`` in one pass."""
        xb = _with_bias(x)
        resid = self._residual_rows(self._row_table(xb, len(xb)), None, actions)
        return self.score_gradient(xb, resid, coefficients)


@dataclass(frozen=True)
class LabeledDataset:
    """Rows of (features, label bit-vector) used for conversion and exact scoring."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int8)
        if feats.ndim != 2 or labels.ndim != 2:
            raise ValueError("features and labels must be 2-D")
        if feats.shape[0] != labels.shape[0]:
            raise ValueError("features and labels must have the same number of rows")
        if feats.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if labels.size and (labels.min() < 0 or labels.max() > 1):
            raise ValueError("labels must be 0/1 bit-vectors")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=int)
        return LabeledDataset(self.features[idx], self.labels[idx])


def true_risk(policy: LinearPolicy, dataset: LabeledDataset) -> float:
    """Exact expected Hamming cost of ``policy`` with contexts drawn uniformly from the rows.

    For factorized policies the expectation over actions has the closed
    form ``sum_j [ t_j (1 - p_j) + (1 - t_j) p_j ]`` per row; multiclass
    policies are scored by full enumeration of the action set.
    """
    t = dataset.labels.astype(float)
    if isinstance(policy.action_space, FactorizedLabels):
        if policy.action_space.n_labels != dataset.n_labels:
            raise ValueError("policy and dataset disagree on the number of labels")
        p = policy.label_probabilities(dataset.features)
        per_row = np.sum(t * (1.0 - p) + (1.0 - t) * p, axis=1)
        return float(per_row.mean())
    space = policy.action_space
    if space.n_actions > _MAX_ENUMERABLE:
        raise ValueError("multiclass action space too large for exact enumeration")
    n_labels = dataset.n_labels
    if space.n_actions != (1 << n_labels):
        raise ValueError("multiclass space must enumerate all label bit-vectors")
    bits = action_bitvectors(n_labels).astype(float)
    # Hamming(a, t) = sum(a) + sum(t) - 2 a.t for 0/1 vectors
    hamming = t.sum(axis=1, keepdims=True) + bits.sum(axis=1)[None, :] - 2.0 * t @ bits.T
    probs = policy.class_probabilities(dataset.features)
    return float(np.mean(np.sum(probs * hamming, axis=1)))


def greedy_risk(policy: LinearPolicy, dataset: LabeledDataset) -> float:
    """Exact Hamming risk of the deterministic argmax version of ``policy``.

    Reported alongside :func:`true_risk`; neither dominates the other in
    general, so both are surfaced rather than asserting an ordering.
    """
    space = policy.action_space
    if isinstance(space, Multiclass) and space.n_actions != (1 << dataset.n_labels):
        raise ValueError("multiclass space must enumerate all label bit-vectors")
    actions = policy.greedy_actions(dataset.features)
    return float(_hamming_costs(actions, dataset.labels, space).mean())


def _hamming_costs(actions, labels: np.ndarray, space: ActionSpace) -> np.ndarray:
    """Per-row Hamming distance between ``actions`` of ``space`` and the 0/1 ``labels`` rows."""
    if isinstance(space, Multiclass):
        actions = action_bitvectors(space.n_actions.bit_length() - 1)[np.asarray(actions, dtype=int)]
    return np.add.reduce(np.asarray(actions) != labels, axis=1, dtype=float)  # exact: a count


_CHECKPOINT_FORMAT = "cfdro-policy"
_CHECKPOINT_VERSION = 1


def save_policy(policy: LinearPolicy, path) -> None:
    """Write a policy checkpoint as versioned JSON; exact float round-trip."""
    payload = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "action_space": _space_to_dict(policy.action_space),
        "temperature": policy.temperature,
        "theta": [[float(v) for v in row] for row in policy.theta],
    }
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_policy(path) -> LinearPolicy:
    """Read a checkpoint written by :func:`save_policy`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError("not a policy checkpoint")
    if payload.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    missing = [key for key in ("theta", "action_space", "temperature") if key not in payload]
    if missing:
        raise ValueError(f"policy checkpoint has no {missing[0]!r}")
    if type(payload["temperature"]) not in (int, float):
        raise ValueError(f"temperature must be a JSON number, got {payload['temperature']!r}")
    return LinearPolicy(
        theta=np.asarray(payload["theta"], dtype=float),
        action_space=_space_from_dict(payload["action_space"]),
        temperature=float(payload["temperature"]),
    )
