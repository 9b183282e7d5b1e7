"""Supervised-to-bandit conversion pipeline.

A labeled multilabel dataset is turned into logged bandit feedback by (1)
splitting it, (2) fitting a smoothed linear logging policy on a small
fraction of the training rows, and (3) replaying the logging policy over
the training rows, recording for each sampled action its exact logging
probability and its Hamming cost against the true labels.  Raw Hamming
costs in ``[0, L]`` are affinely rescaled to ``[-1, 0]`` so that better
actions have smaller cost.

File formats (documented bit-exactly):

* LibSVM multilabel text, one row per line::

      label[,label]* index:value [index:value ...]

  Labels are 0-based positions into the label bit-vector; feature indices
  are 1-based.  Missing indices are zero.  An empty label field yields the
  all-zero label vector.

* Bandit logs as JSON lines: a header object with metadata followed by one
  record object per line with keys ``features``, ``action``, ``propensity``,
  ``cost_raw`` and ``cost_scaled``.
"""

from __future__ import annotations

import bisect
import json
import os
import stat
from array import array
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .estimators import BanditLog, CostScale, _byte_groups, _RecordFault, _runs
from .policies import (
    ActionSpace,
    FactorizedLabels,
    LabeledDataset,
    LinearPolicy,
    Multiclass,
    _hamming_costs,
    _logsumexp,
    _space_from_dict,
    _space_to_dict,
    _with_bias,
)

__all__ = [
    "SplitSpec",
    "DatasetSplits",
    "LoggingPolicyConfig",
    "parse_libsvm_multilabel",
    "write_libsvm_multilabel",
    "split_dataset",
    "train_logging_policy",
    "collect_bandit_log",
    "sample_bandit_log",
    "write_bandit_log",
    "read_bandit_log",
    "synthetic_multilabel_dataset",
]


@dataclass(frozen=True)
class SplitSpec:
    """Fractions for the train/validation/test partition and the logging subset."""

    train_frac: float = 0.5
    validation_frac: float = 0.25
    test_frac: float = 0.25
    logging_frac: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("train_frac", "validation_frac", "test_frac"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        if abs(self.train_frac + self.validation_frac + self.test_frac - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        if not 0 < self.logging_frac <= 1:
            raise ValueError("logging_frac must lie in (0, 1]")


@dataclass(frozen=True)
class DatasetSplits:
    train: LabeledDataset
    validation: LabeledDataset
    test: LabeledDataset
    logging: LabeledDataset
    indices: dict


def parse_libsvm_multilabel(
    path,
    n_features: Optional[int] = None,
    n_labels: Optional[int] = None,
) -> LabeledDataset:
    """Parse a multilabel LibSVM text file into dense features and label bit-vectors.

    Dimensions are inferred from the file when not given; explicit values
    may only enlarge them.  Malformed lines, duplicate feature indices and
    non-finite feature values raise with the offending line number.
    Indices and values keep the grammar of Python's ``int()`` and
    ``float()``.  The numbers are held in flat typed buffers until the
    dense matrix is filled, so the parse costs a few words per number.
    """
    columns, values, label_ids = array("q"), array("d"), array("q")
    widths, label_widths, linenos = array("q"), array("q"), array("q")
    ints = _Ints()
    max_feat = 0
    max_label = -1
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            label_token = tokens[0]
            feat_tokens = tokens[1:]
            if ":" in label_token:
                # empty label field: the line starts directly with features
                feat_tokens = tokens
                label_token = ""
            labels: list[int] = []
            if label_token:
                try:
                    labels = [int(part) for part in label_token.split(",") if part != ""]
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad label field {label_token!r}") from exc
                if labels:
                    if min(labels) < 0:
                        raise ValueError(f"line {lineno}: negative label")
                    max_label = max(max_label, max(labels))
            idx: list[int] = []
            if feat_tokens:
                # a token without ':' has an empty value, which float() rejects
                idx_strs, _, val_strs = zip(*map(str.partition, feat_tokens, repeat(":")))
                try:
                    idx = list(map(ints.__getitem__, idx_strs))
                    values.extend(map(float, val_strs))
                except ValueError:
                    _token_fault(lineno, feat_tokens)
                if min(idx) < 1 or len(set(idx)) < len(idx):
                    _token_fault(lineno, feat_tokens)
                max_feat = max(max_feat, max(idx))
            try:
                columns.extend(idx)
                label_ids.extend(labels)
            except OverflowError:
                pass  # past int64, the index sizes a matrix that np.zeros below refuses
            widths.append(len(idx))
            label_widths.append(len(labels))
            linenos.append(lineno)
    if not linenos:
        raise ValueError("empty dataset file")
    dim = max_feat if n_features is None else n_features
    n_lab = (max_label + 1) if n_labels is None else n_labels
    if dim < max_feat:
        raise ValueError(f"n_features={dim} is smaller than the largest index {max_feat}")
    if n_lab < max_label + 1:
        raise ValueError(f"n_labels={n_lab} is smaller than the largest label {max_label}")
    n_lab = max(n_lab, 1)
    features = np.zeros((len(linenos), dim))
    labels = np.zeros((len(linenos), n_lab), dtype=np.int8)
    rows = np.arange(len(linenos))
    cols = np.frombuffer(columns, dtype=np.int64)
    cols -= 1  # in place, in the buffer: indices are 1-based
    features[rows.repeat(widths), cols] = np.frombuffer(values)
    labels[rows.repeat(label_widths), np.frombuffer(label_ids, dtype=np.int64)] = 1
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"line {linenos[i]}: feature {j + 1} must be finite, got {features[i, j]}")
    return LabeledDataset(features, labels)


class _Ints(dict):
    """Each distinct string's ``int()``, converted on first lookup."""

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


def _token_fault(lineno: int, tokens: list[str]) -> None:
    """Raise the first fault a walk over a line's feature tokens, in order, meets."""
    seen: set[int] = set()
    for token in tokens:
        idx_str, _, val_str = token.partition(":")
        try:
            idx = int(idx_str)
            float(val_str)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad feature token {token!r}") from exc
        if idx < 1:
            raise ValueError(f"line {lineno}: feature indices are 1-based")
        if idx in seen:
            raise ValueError(f"line {lineno}: duplicate feature index {idx}")
        seen.add(idx)


def write_libsvm_multilabel(dataset: LabeledDataset, path) -> None:
    """Write a dataset in the multilabel LibSVM text format (nonzero features only)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for labels, row in zip(dataset.labels.tolist(), dataset.features.tolist()):
            labs = ",".join(str(j) for j, bit in enumerate(labels) if bit)
            # v != 0.0 skips -0.0 too, the rule np.flatnonzero follows
            feats = " ".join(f"{j}:{v!r}" for j, v in enumerate(row, start=1) if v != 0.0)
            fh.write((labs + " " + feats).strip() + "\n")


def split_dataset(dataset: LabeledDataset, spec: SplitSpec) -> DatasetSplits:
    """Seeded shuffle into disjoint train/validation/test, plus a logging subset of train."""
    m = dataset.n_rows
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(m)
    n_train = int(round(spec.train_frac * m))
    n_val = int(round(spec.validation_frac * m))
    n_train = max(1, min(n_train, m - 2))
    n_val = max(1, min(n_val, m - n_train - 1))
    train_idx = perm[:n_train]
    val_idx = perm[n_train : n_train + n_val]
    test_idx = perm[n_train + n_val :]
    n_logging = max(1, int(round(spec.logging_frac * n_train)))
    logging_idx = rng.choice(train_idx, size=n_logging, replace=False)
    return DatasetSplits(
        train=dataset.subset(train_idx),
        validation=dataset.subset(val_idx),
        test=dataset.subset(test_idx),
        logging=dataset.subset(logging_idx),
        indices={
            "train": train_idx.tolist(),
            "validation": val_idx.tolist(),
            "test": test_idx.tolist(),
            "logging": logging_idx.tolist(),
        },
    )


# the logging-policy fit's L-BFGS-B limits, and its weight decay on all rows but the bias
_LOGGING_MAX_ITERS = 300
_LOGGING_TOLERANCE = 1e-8
_LOGGING_L2 = 1e-4


@dataclass(frozen=True)
class LoggingPolicyConfig:
    """Supervised fit settings for the logging policy.

    ``temperature`` smooths the fitted policy after training, guaranteeing
    full support (and hence finite importance weights) on every action.
    """

    action_space: str = "factorized"
    temperature: float = 2.0

    def __post_init__(self) -> None:
        if self.action_space not in ("factorized", "multiclass"):
            raise ValueError("action_space must be 'factorized' or 'multiclass'")
        if not 0 < self.temperature < np.inf:
            raise ValueError("temperature must be positive and finite")


def train_logging_policy(
    dataset: LabeledDataset, config: LoggingPolicyConfig = LoggingPolicyConfig()
) -> LinearPolicy:
    """Fit a linear policy to the labels by regularized maximum likelihood.

    Factorized spaces use one logistic regression per label; multiclass
    spaces use a softmax cross-entropy against the integer encoding of the
    label bit-vector.  Weight decay excludes the bias row.
    """
    from scipy import optimize as sp_optimize
    from scipy.special import expit
    xb = _with_bias(dataset.features)
    m, d1 = xb.shape
    if config.action_space == "factorized":
        space: ActionSpace = FactorizedLabels(dataset.n_labels)
        targets = dataset.labels.astype(float)

        def data_term(scores: np.ndarray):
            # mean BCE over all (row, label) cells, in the stable log1p form
            loss = float(np.mean(np.logaddexp(0.0, scores) - targets * scores))
            return loss, xb.T @ (expit(scores) - targets) / (m * space.n_logits)

    else:
        n_labels = dataset.n_labels
        if n_labels > 12:
            raise ValueError("multiclass encoding limited to 12 labels")
        space = Multiclass(1 << n_labels)
        powers = 1 << np.arange(n_labels)
        classes = dataset.labels.astype(int) @ powers

        def data_term(scores: np.ndarray):
            lse = _logsumexp(scores)
            loss = float(np.mean(lse[:, 0] - scores[np.arange(m), classes]))
            probs = np.exp(scores - lse)
            probs[np.arange(m), classes] -= 1.0
            return loss, xb.T @ probs / m

    def objective(flat: np.ndarray):
        theta = flat.reshape(d1, space.n_logits)
        loss, grad = data_term(xb @ theta)
        loss += 0.5 * _LOGGING_L2 * float(np.sum(theta[:-1] ** 2))
        grad[:-1] += _LOGGING_L2 * theta[:-1]
        return loss, grad.ravel()

    result = sp_optimize.minimize(
        objective,
        np.zeros(d1 * space.n_logits),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": _LOGGING_MAX_ITERS, "ftol": _LOGGING_TOLERANCE, "gtol": 1e-10},
    )
    theta = result.x.reshape(d1, space.n_logits)
    return LinearPolicy(theta=theta, action_space=space, temperature=config.temperature)


def _fitted_table(dataset: LabeledDataset, policy: LinearPolicy, n: int):
    """``policy``'s row table on the dataset for ``n`` records, once the policy fits the dataset."""
    space, dim, labels = policy.action_space, dataset.feature_dim, dataset.n_labels
    if policy.feature_dim != dim:
        raise ValueError(f"feature_dim: the policy has {policy.feature_dim}, the dataset {dim}")
    if isinstance(space, FactorizedLabels) and space.n_labels != labels:
        raise ValueError(f"n_labels: the policy has {space.n_labels}, the dataset {labels}")
    if isinstance(space, Multiclass) and space.n_actions != 1 << labels:
        raise ValueError(f"n_actions: the policy has {space.n_actions}, {labels} labels need {1 << labels}")
    return policy._row_table(_with_bias(dataset.features), n)


def _records(dataset: LabeledDataset, policy0: LinearPolicy, table, row_idx, rng: np.random.Generator):
    """Actions drawn on rows ``row_idx``; the inverse and counts of their (row, action) pairs; each
    pair's row and action; and each pair's propensity, raw and scaled cost.  The pairs sort by
    ``np.lexsort`` of narrow keys (radix): the row, then the action id or its packed bits' bytes."""
    space, actions = policy0.action_space, policy0._sample_rows(table, row_idx, rng)
    keys = [row_idx.astype(np.min_scalar_type(dataset.n_rows))]
    if isinstance(space, Multiclass):
        keys.append(actions.astype(np.min_scalar_type(space.n_actions)))
    else:  # packbits is fast on a flat array, so each record's bits are padded to whole bytes
        bits = np.zeros((len(actions), -(-space.n_labels // 8) * 8), dtype=bool)
        bits[:, : space.n_labels] = actions
        keys.extend(np.packbits(bits).reshape(len(actions), -1).T)
    first, inverse, counts = _runs(np.lexsort(keys), keys)
    rows, acts = row_idx.take(first), actions.take(first, 0)
    propensities = np.exp(policy0._log_prob_rows(table, rows, acts))
    raw = _hamming_costs(acts, dataset.labels.take(rows, 0), space)
    scaled = CostScale.for_hamming(dataset.n_labels).apply(raw)
    return actions, (inverse, counts), (rows, acts), (propensities, raw, scaled)


def _log_from_rows(
    dataset: LabeledDataset, policy0: LinearPolicy, row_idx: np.ndarray, rng: np.random.Generator
) -> BanditLog:
    table = _fitted_table(dataset, policy0, len(row_idx))
    actions, (inverse, _), _, pairs = _records(dataset, policy0, table, row_idx, rng)
    space, scale = policy0.action_space, CostScale.for_hamming(dataset.n_labels)
    records = dataset.features[row_idx], actions, *(a[inverse] for a in pairs)  # each from its pair
    log = BanditLog(*records, action_space=space, cost_scale=scale)
    # record i's context is dataset row row_idx[i], byte for byte: so the log's grouping
    # follows from the dataset's m rows, with no sort of its n
    vars(log)["_contexts"] = _picked_groups(dataset.features, row_idx)
    return log


def _picked_groups(rows: np.ndarray, row_idx: np.ndarray):
    """``_byte_groups(rows[row_idx])`` from one grouping of ``rows``: the groups keep their
    byte-key order, those no index picks drop out, and each group's first index is its smallest
    position in ``row_idx``."""
    first, row_group, _ = _byte_groups(rows)
    counts = np.zeros(len(first), dtype=np.intp)  # counted per row, so no (n,) temporary
    np.add.at(counts, row_group, np.bincount(row_idx, minlength=len(rows)))
    used = counts > 0
    inverse = (np.cumsum(used) - 1)[row_group][row_idx]
    first = np.full(np.count_nonzero(used), len(row_idx))
    np.minimum.at(first, inverse, np.arange(len(row_idx)))
    return first, inverse, counts[used]


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def collect_bandit_log(
    dataset: LabeledDataset, policy0: LinearPolicy, replay_count: int, seed: int = 0
) -> BanditLog:
    """Replay the logging policy over every row ``replay_count`` times.

    Produces ``replay_count * n_rows`` records; each stores the exact
    probability the logging policy assigned to its sampled action.
    """
    _check_count("replay_count", replay_count)
    rng = np.random.default_rng(seed)
    row_idx = np.tile(np.arange(dataset.n_rows), replay_count)
    return _log_from_rows(dataset, policy0, row_idx, rng)


def sample_bandit_log(
    dataset: LabeledDataset, policy0: LinearPolicy, n: int, seed: int = 0
) -> BanditLog:
    """Collect ``n`` records with contexts drawn independently and uniformly from the rows."""
    _check_count("n", n)
    rng = np.random.default_rng(seed)
    drawn, inverse = np.unique(rng.integers(0, dataset.n_rows, size=n), return_inverse=True)
    return _log_from_rows(dataset.subset(drawn), policy0, inverse, rng)


_LOG_FORMAT = "cfdro-banditlog"
_LOG_VERSION = 1
_RECORD_KEYS = ("features", "action", "propensity", "cost_raw", "cost_scaled")
_WRITE_CHUNK = 4096


def write_bandit_log(log: BanditLog, path) -> None:
    """Serialize a bandit log as JSON lines: one metadata header, then one record per line.

    Each line is exactly ``json.dumps`` of its object.  For the records this
    holds because every value is finite: ``repr`` of a finite float and
    ``str`` of an int or an int list are what ``json.dumps`` writes.  A
    feature row that recurs in the log, as in a replayed conversion, is
    formatted once; only the texts of such rows are kept.
    """
    header = {
        "format": _LOG_FORMAT,
        "version": _LOG_VERSION,
        "n": log.n,
        "feature_dim": log.feature_dim,
        "action_space": _space_to_dict(log.action_space),
        "cost_scale": {"scale": log.cost_scale.scale, "offset": log.cost_scale.offset},
    }
    first, inverse, counts = log._contexts
    columns = (
        np.where(counts[inverse] > 1, inverse, -1),
        log.actions,
        log.propensities,
        log.costs_raw,
        log.costs,
    )
    texts: dict[int, str] = {}
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        # a chunk at a time, so the Python copies of the columns stay small
        for start in range(0, log.n, _WRITE_CHUNK):
            end = min(start + _WRITE_CHUNK, log.n)
            chunk = (column[start:end].tolist() for column in columns)
            # only the rows formatted, in record order: each context's first record
            fresh = first[inverse[start:end]] == np.arange(start, end)
            rows = iter(log.features[start:end][fresh].tolist())
            for group, action, prop, raw, scaled in zip(*chunk):
                if group < 0:
                    text = str(next(rows))
                elif (text := texts.get(group)) is None:
                    text = texts[group] = str(next(rows))
                fh.write(
                    f'{{"features": {text}, "action": {action}, "propensity": {prop!r}, '
                    f'"cost_raw": {raw!r}, "cost_scaled": {scaled!r}}}\n'
                )


def _parse_header(header: dict, file_bytes: Optional[int]):
    """Validate a log header and return its action space, cost scale, record count and dimension.

    ``file_bytes`` bounds the record count when the file's size is known:
    each number in a record line takes at least two bytes with its separator.
    """
    try:
        space_spec, dim, n = header["action_space"], header["feature_dim"], header["n"]
        scale_spec = header["cost_scale"]
    except KeyError as exc:
        raise ValueError(f"line 1: missing key {exc.args[0]!r}") from exc
    try:
        space = _space_from_dict(space_spec)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"line 1: action_space: {exc}") from exc
    try:
        scale = CostScale(**scale_spec)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"line 1: cost_scale: {exc}") from exc
    for key, value in (("feature_dim", dim), ("n", n)):
        if type(value) is not int or value < 0:
            raise ValueError(f"line 1: {key} must be a nonnegative integer")
    width = dim + (space.n_labels if isinstance(space, FactorizedLabels) else 1)
    if file_bytes is not None and 2 * width * n > file_bytes:
        raise ValueError(
            f"line 1: n: {n} records of {width} numbers cannot fit in {file_bytes} bytes"
        )
    return space, scale, n, dim


def read_bandit_log(path) -> BanditLog:
    """Read a log written by :func:`write_bandit_log`, validating every record.

    The header's counts size the arrays, which are filled one record at a
    time; a fault in a record names its line and field.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ValueError("missing or malformed log header") from exc
        if not isinstance(header, dict):
            raise ValueError("line 1: the header is not a JSON object")
        if header.get("format") != _LOG_FORMAT or header.get("version") != _LOG_VERSION:
            raise ValueError("not a recognized bandit-log file")
        info = os.fstat(fh.fileno())
        file_bytes = None  # a pipe has no size to check the count against
        if stat.S_ISREG(info.st_mode):
            file_bytes = info.st_size - len(header_line.encode())
        space, scale, n, dim = _parse_header(header, file_bytes)
        factorized = isinstance(space, FactorizedLabels)
        columns = (
            np.empty((n, dim)),
            np.empty((n, space.n_labels)) if factorized else np.empty(n, dtype=np.int64),
            np.empty(n),
            np.empty(n),
            np.empty(n),
        )
        count = 0
        blanks = []  # the record count at each blank line, to map a record to its line
        # exact types, so a JSON true or false is not a number
        numeric = (int, float)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                blanks.append(count)
                continue
            if count == n:
                # count the rest, so the mismatch error reports the file's true count
                count += 1 + sum(1 for rest in fh if rest.strip())
                break
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: {exc.msg} (column {exc.colno})") from exc
            if not isinstance(record, dict):
                raise ValueError(f"line {lineno}: the record is not a JSON object")
            try:
                values = [record[key] for key in _RECORD_KEYS]
            except KeyError as exc:
                raise ValueError(f"line {lineno}: missing key {exc.args[0]!r}") from exc
            vec, action, prop, raw, scaled = values
            if not isinstance(vec, list) or len(vec) != dim:
                raise ValueError(f"line {lineno}: feature dimension mismatch")
            if not (type(prop) in numeric and type(raw) in numeric and type(scaled) in numeric):
                key = next(k for k in _RECORD_KEYS[2:] if type(record[k]) not in numeric)
                raise ValueError(f"line {lineno}: {key} is not a number")
            if prop <= 0:
                raise ValueError(f"line {lineno}: nonpositive propensity")
            if factorized and (not isinstance(action, list) or len(action) != space.n_labels):
                raise ValueError(f"line {lineno}: action length mismatch")
            for key, column, value in zip(_RECORD_KEYS, columns, values):
                try:
                    column[count] = value
                except (ValueError, TypeError, OverflowError) as exc:
                    raise ValueError(f"line {lineno}: {key}: {exc}") from exc
            # an id column truncates 1.5 to 1
            if not factorized and columns[1][count] != action:
                raise ValueError(f"line {lineno}: action: {action!r} is not an integer id")
            count += 1
    if count != n:
        raise ValueError(f"header announces {n} records but file has {count}")
    try:
        # the columns are in BanditLog's field order
        return BanditLog(*columns, action_space=space, cost_scale=scale)
    except _RecordFault as exc:
        lineno = exc.index + 2 + bisect.bisect_right(blanks, exc.index)
        raise ValueError(f"line {lineno}: {exc}") from exc


def synthetic_multilabel_dataset(
    n_rows: int = 200,
    n_labels: int = 4,
    n_features: int = 5,
    seed: int = 7,
    label_noise: float = 0.5,
) -> LabeledDataset:
    """Deterministic synthetic multilabel dataset used by the tests and the CLI.

    Labels are thresholded noisy linear scores of Gaussian features, so the
    dataset is learnable by a linear policy but not separable.  The default
    dimensions keep a 10-row logging fit well-determined.
    """
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_rows, n_features))
    weights = rng.normal(scale=1.2, size=(n_features, n_labels))
    bias = rng.normal(scale=0.3, size=n_labels)
    scores = features @ weights + bias + rng.normal(scale=label_noise, size=(n_rows, n_labels))
    labels = (scores > 0).astype(np.int8)
    return LabeledDataset(features, labels)
