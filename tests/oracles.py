"""Reference implementations that the tests compare the library against.

``primal_oracle`` maximizes over a simplex grid with its own direct
generator formulas, independent of the library's generator table;
``kl_softmax_risk`` is the softmax-tilted form of the KL robust risk; the
scaled conjugate and its analytic partials check the dual's building block.
``write_bandit_log_by_records`` and ``write_libsvm_by_index`` are the plain
writers, one ``json.dumps`` per record and one numpy index per value, whose
bytes the library's writers must reproduce.  ``read_bandit_log_by_records``
is the plain reader, one ``json.loads`` and one store per record, whose
arrays and errors the library's reader must reproduce.  ``parse_libsvm_by_token`` is
the plain LibSVM parser, a dict of floats per row, whose arrays and errors
the library's parser must reproduce.  ``eager_solve_beta`` is the
dual solver's inner solve with its lower bracket end expanded up front.
``log_by_records`` and ``replication_by_records`` are a collection and a
coverage replication that weigh every record on its own, and
``scored_by_records`` is the trainers' score pass and ``log_prob_by_records``
the shared weighing path's, over every record; the library weighs each
distinct (row, action) pair once and scores each distinct context once, and
must give these bits.
``log_prob_and_residual_by_records`` and ``sample_by_records`` are the
per-record log-linear policy formulas, written with scipy's ``logsumexp``,
``log_expit`` and ``expit``, that the library's row-table readers must match.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import stat
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import expit, log_expit, logsumexp

from cfdro.data import _BITS, _LOG_FORMAT, _LOG_VERSION, _RECORD_KEYS, _parse_header
from cfdro.divergences import DivergenceKind, conjugate_derivative, phi_conjugate
from cfdro.dro import _ROOT_TOL, _as_values
from cfdro.estimators import BanditLog, CostScale, _RecordFault
from cfdro.intervals import _intervals_of
from cfdro.policies import (
    FactorizedLabels,
    LabeledDataset,
    Multiclass,
    _hamming_costs,
    _space_to_dict,
    _with_bias,
)


def write_bandit_log_by_records(log: BanditLog, path) -> None:
    """Write a bandit log with one ``json.dumps`` per header and record."""
    if isinstance(log.action_space, Multiclass):
        encode = lambda a: int(a)  # noqa: E731 - tiny per-record closure
    else:
        encode = lambda a: [int(b) for b in a]  # noqa: E731
    header = {
        "format": _LOG_FORMAT,
        "version": _LOG_VERSION,
        "n": log.n,
        "feature_dim": log.feature_dim,
        "action_space": _space_to_dict(log.action_space),
        "cost_scale": {"scale": log.cost_scale.scale, "offset": log.cost_scale.offset},
    }
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for i in range(log.n):
            record = {
                "features": [float(v) for v in log.features[i]],
                "action": encode(log.actions[i]),
                "propensity": float(log.propensities[i]),
                "cost_raw": float(log.costs_raw[i]),
                "cost_scaled": float(log.costs[i]),
            }
            fh.write(json.dumps(record) + "\n")


def read_bandit_log_by_records(path) -> BanditLog:
    """Read a bandit log with one ``json.loads`` and one store per column and record."""
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
        file_bytes = None
        if stat.S_ISREG(info.st_mode):
            file_bytes = info.st_size - len(header_line.encode())
        space, scale, n, dim = _parse_header(header, file_bytes)
        factorized = isinstance(space, FactorizedLabels)
        columns = (
            np.empty((n, dim)),
            np.empty((n, space.n_labels), dtype=np.int8) if factorized else np.empty(n, dtype=np.int64),
            np.empty(n),
            np.empty(n),
            np.empty(n),
        )
        count = 0
        blanks = []
        numeric = (int, float)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                blanks.append(count)
                continue
            if count == n:
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
                if key == "features":
                    # numpy parses a string and takes a boolean as a number; the reader takes neither
                    for v in vec:
                        if isinstance(v, (str, bool)):
                            raise ValueError(f"line {lineno}: features: {v!r} is not a number")
            bools = isinstance(action, bool) or factorized and any(isinstance(b, bool) for b in action)
            if factorized and (bools or not _BITS.issuperset(action)):
                raise ValueError(f"line {lineno}: action: {action!r} is not a vector of 0/1 bits")
            if not factorized and (bools or columns[1][count] != action):
                raise ValueError(f"line {lineno}: action: {action!r} is not an integer id")
            count += 1
    if count != n:
        raise ValueError(f"header announces {n} records but file has {count}")
    for column in columns:
        column.flags.writeable = False
    try:
        return BanditLog(*columns, action_space=space, cost_scale=scale)
    except _RecordFault as exc:
        lineno = exc.index + 2 + bisect.bisect_right(blanks, exc.index)
        raise ValueError(f"line {lineno}: {exc}") from exc


def parse_libsvm_by_token(
    path,
    n_features: Optional[int] = None,
    n_labels: Optional[int] = None,
) -> LabeledDataset:
    """Parse multilabel LibSVM text one token at a time, a dict of floats per row."""
    rows: list[tuple[list[int], dict[int, float], int]] = []
    max_feat = 0
    max_label = -1
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
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
                if any(lab < 0 for lab in labels):
                    raise ValueError(f"line {lineno}: negative label")
            feats: dict[int, float] = {}
            for token in feat_tokens:
                idx_str, _, val_str = token.partition(":")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad feature token {token!r}") from exc
                if idx < 1:
                    raise ValueError(f"line {lineno}: feature indices are 1-based")
                if idx in feats:
                    raise ValueError(f"line {lineno}: duplicate feature index {idx}")
                feats[idx] = val
            rows.append((labels, feats, lineno))
            if feats:
                max_feat = max(max_feat, max(feats))
            if labels:
                max_label = max(max_label, max(labels))
    if not rows:
        raise ValueError("empty dataset file")
    dim = max_feat if n_features is None else n_features
    n_lab = (max_label + 1) if n_labels is None else n_labels
    if dim < max_feat:
        raise ValueError(f"n_features={dim} is smaller than the largest index {max_feat}")
    if n_lab < max_label + 1:
        raise ValueError(f"n_labels={n_lab} is smaller than the largest label {max_label}")
    n_lab = max(n_lab, 1)
    features = np.zeros((len(rows), dim))
    labels = np.zeros((len(rows), n_lab), dtype=np.int8)
    for i, (labs, feats, _) in enumerate(rows):
        for idx, val in feats.items():
            features[i, idx - 1] = val
        for lab in labs:
            labels[i, lab] = 1
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"line {rows[i][2]}: feature {j + 1} must be finite, got {features[i, j]}")
    return LabeledDataset(features, labels)


def write_libsvm_by_index(dataset: LabeledDataset, path) -> None:
    """Write the multilabel LibSVM text one numpy index per nonzero value."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for i in range(dataset.n_rows):
            labs = ",".join(str(j) for j in np.flatnonzero(dataset.labels[i]))
            feats = " ".join(
                f"{j + 1}:{float(dataset.features[i, j])!r}"
                for j in np.flatnonzero(dataset.features[i])
            )
            # a row with no label and no nonzero feature would be a blank line, which parsers skip
            fh.write(((labs + " " + feats).strip() or "1:0.0") + "\n")


def scaled_conjugate(kind: DivergenceKind, gamma: float, s) -> "float | np.ndarray":
    """Evaluate the scaled conjugate ``(gamma phi)*(s) = gamma phi*(s / gamma)``.

    At ``gamma = 0`` the convention is ``+inf`` for ``s > 0`` and ``0``
    otherwise, which is the pointwise limit of the scaled conjugate from
    above for every supported generator.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    arr = np.asarray(s, dtype=float)
    if gamma == 0.0:
        out = np.where(arr > 0, np.inf, 0.0)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = gamma * np.asarray(phi_conjugate(kind, arr / gamma), dtype=float)
    return float(out) if np.ndim(s) == 0 else out


def scaled_conjugate_grad(kind: DivergenceKind, gamma: float, s: float) -> "tuple[float, float]":
    """Analytic partials of ``gamma phi*(s / gamma)`` with respect to ``s`` and ``gamma``.

    Requires ``gamma > 0`` and ``s / gamma`` strictly inside the conjugate's
    domain, where both conjugate terms are finite; otherwise it raises.

    Returns
    -------
    (d_ds, d_dgamma):
        ``d_ds = (phi*)'(u)`` and ``d_dgamma = phi*(u) - u (phi*)'(u)``
        evaluated at ``u = s / gamma``.
    """
    if gamma <= 0:
        raise ValueError("scaled_conjugate_grad requires gamma > 0")
    u = s / gamma
    d1 = float(conjugate_derivative(kind, u))
    val = float(phi_conjugate(kind, u))
    if not (np.isfinite(d1) and np.isfinite(val)):
        raise ValueError("conjugate gradient is not finite at this point")
    return d1, val - u * d1


def kl_softmax_risk(z, gamma: float) -> float:
    """Softmax-tilted weighted cost ``sum_i softmax(z / gamma)_i z_i`` at temperature ``gamma``."""
    zv = _as_values(z)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    shifted = np.exp((zv - float(zv.max())) / gamma)
    w = shifted / shifted.sum()
    return float(np.dot(w, zv))


# ----------------------------------------------------------------------
# brute-force primal oracle (small n)
# ----------------------------------------------------------------------

_GRID_CACHE: dict = {}
_DIV_CACHE: dict = {}
_VALUES_CACHE: dict = {}
_PREFIX_CACHE: dict = {}


def _simplex_grid(n: int, resolution: float) -> np.ndarray:
    steps = max(1, int(round(1.0 / resolution)))
    key = (n, steps)
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]
    if n == 1:
        grid = np.array([[1.0]])
    elif n == 2:
        q1 = np.linspace(0.0, 1.0, steps + 1)
        grid = np.column_stack([q1, 1.0 - q1])
    elif n == 3:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        mask = i + j <= steps
        i, j = i[mask], j[mask]
        grid = np.column_stack([i, j, steps - i - j]) / steps
    elif n == 4:
        pts = []
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                k = np.arange(steps + 1 - i - j)
                pts.append(np.column_stack([np.full_like(k, i), np.full_like(k, j), k, steps - i - j - k]))
        grid = np.vstack(pts) / steps
    else:
        raise ValueError("the simplex-grid oracle supports n <= 4 only")
    _GRID_CACHE[key] = grid
    return grid


def _grid_divergences(kind: DivergenceKind, n: int, resolution: float):
    steps = max(1, int(round(1.0 / resolution)))
    key = (kind, n, steps)
    if key in _DIV_CACHE:
        return _DIV_CACHE[key]
    grid = _simplex_grid(n, resolution)
    t = n * grid
    # direct formulas (kept independent of the library's generator table)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is DivergenceKind.CHI_SQUARE:
            vals = (t - 1.0) ** 2
        elif kind is DivergenceKind.KL:
            safe = np.where(t > 0, t, 1.0)
            vals = np.where(t > 0, t * np.log(safe) - t + 1.0, 1.0)
        elif kind is DivergenceKind.BURG:
            vals = np.where(t > 0, -np.log(np.where(t > 0, t, 1.0)) + t - 1.0, np.inf)
        else:
            vals = (np.sqrt(t) - 1.0) ** 2
    d = vals.mean(axis=1)
    # sort by divergence once so any radius becomes a prefix query
    order = np.argsort(d, kind="stable")
    out = (d[order], order)
    _DIV_CACHE[key] = out
    return out


def primal_oracle(z, kind: DivergenceKind, epsilon: float, grid_resolution: float = 1e-4) -> float:
    """Grid maximum of ``q . z`` over the feasible simplex slice; a lower bound on the true supremum.

    Intended as an independent test oracle for ``n <= 4``.  The grid points
    are sorted by divergence once and the objective's running maximum along
    that order is cached per vector, so sweeping several radii or
    generators over the same ``z`` costs one binary search each.
    """
    zv = _as_values(z)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    n = zv.size
    d_sorted, order = _grid_divergences(kind, n, grid_resolution)
    steps = max(1, int(round(1.0 / grid_resolution)))
    vkey = (n, steps, zv.tobytes())
    if _VALUES_CACHE.get("key") == vkey:
        values = _VALUES_CACHE["values"]
    else:
        values = _simplex_grid(n, grid_resolution) @ zv
        _VALUES_CACHE["key"] = vkey
        _VALUES_CACHE["values"] = values
    pkey = (kind, vkey)
    if _PREFIX_CACHE.get(kind, (None,))[0] == pkey:
        prefix = _PREFIX_CACHE[kind][1]
    else:
        prefix = np.maximum.accumulate(values[order])
        _PREFIX_CACHE[kind] = (pkey, prefix)
    count = int(np.searchsorted(d_sorted, epsilon + 1e-12, side="right"))
    # the uniform point has divergence 0, so the feasible set is never empty
    return float(prefix[count - 1])


def eager_solve_beta(h, gamma: float, warm):
    """``_ReducedObjective.solve_beta`` that expands the lower end before its first step.

    Chi-square and KL (an unbounded conjugate domain) triple the step below
    ``zmax`` until the mean derivative exceeds 1; the library defers that
    expansion until a test reads the end, and must return these bits.
    """
    zmax = h.zmax
    hi = zmax
    domain = h.gen.domain
    if domain < math.inf:
        lo = zmax - gamma * (domain - 1e-9)
    else:
        step = gamma + h.std + 1e-3 * h.scale
        lo = zmax - step
        while h._mean_stats(lo, gamma)[0] <= 1.0:
            step *= 3.0
            lo = zmax - step
    beta = warm if warm is not None and lo < warm < hi else 0.5 * (lo + hi)
    for _ in range(100):
        m, md = h._mean_stats(beta, gamma)
        if abs(m - 1.0) <= _ROOT_TOL:
            return beta, True
        if m > 1.0:
            lo = beta
        else:
            hi = beta
        if m > 0 and math.isfinite(m) and math.isfinite(md) and md > 0:
            candidate = beta + math.log(m) * gamma * m / md
        else:
            candidate = 0.5 * (lo + hi)
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        beta = candidate
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return beta, False


def log_by_records(dataset, policy0, row_idx, rng, table_records=None):
    """A log's arrays in ``BanditLog``'s order, drawn on rows ``row_idx``, every record weighed on its own.

    The row table is built for ``table_records`` records (default: the log's), as collection does.
    """
    n = len(row_idx) if table_records is None else table_records
    table = policy0._row_table(_with_bias(dataset.features), n)
    actions = policy0._sample_rows(table, row_idx, rng)
    propensities = np.exp(policy0._log_prob_rows(table, row_idx, actions))
    raw = _hamming_costs(actions, dataset.labels.take(row_idx, 0), policy0.action_space)
    costs = CostScale.for_hamming(dataset.n_labels).apply(raw)
    return dataset.features[row_idx], actions, propensities, raw, costs


def replication_by_records(dataset, policy, logging_policy, row_idx, rng, kinds, delta=0.05):
    """One coverage replication on rows ``row_idx``, every record weighed on its own.

    Returns the log's arrays, the weighted costs ``z``, their support
    ``np.unique(z, return_counts=True)`` and the intervals.
    """
    table = policy._row_table(_with_bias(dataset.features), 2)
    log = log_by_records(dataset, logging_policy, row_idx, rng, table_records=2)
    z = np.exp(policy._log_prob_rows(table, row_idx, log[1]) - np.log(log[2])) * log[4]
    support = np.unique(z, return_counts=True)
    return log, z, support, _intervals_of(z, support, kinds, delta, None)


def log_prob_and_residual_by_records(policy, xb, actions):
    """Each record's log-probability and score residual, ``onehot(a) - softmax`` or ``bits - sigmoid``,
    from its own row of the bias-augmented ``xb`` by the textbook formulas."""
    scores = xb @ policy.theta / policy.temperature
    if isinstance(policy.action_space, Multiclass):
        ids = np.atleast_1d(np.asarray(actions, dtype=int))
        log_softmax = scores - logsumexp(scores, axis=1, keepdims=True)
        return log_softmax[np.arange(len(ids)), ids], np.eye(scores.shape[1])[ids] - np.exp(log_softmax)
    bits = np.asarray(actions, dtype=float)
    logp = np.sum(bits * log_expit(scores) + (1.0 - bits) * log_expit(-scores), axis=1)
    return logp, bits - expit(scores)


def sample_by_records(policy, xb, rng):
    """One action per row of the bias-augmented ``xb``: a uniform draw against each row's
    softmax CDF (its top set to 1), or one per label against its sigmoid."""
    scores = xb @ policy.theta / policy.temperature
    if isinstance(policy.action_space, Multiclass):
        cdf = np.cumsum(np.exp(scores - logsumexp(scores, axis=1, keepdims=True)), axis=1)
        cdf[:, -1] = 1.0
        return np.argmax(rng.random(len(cdf))[:, None] < cdf, axis=1)
    return (rng.random(scores.shape) < expit(scores)).astype(np.int8)


def scored_by_records(policy, rows, costs, xb, at):
    """A trainer's ``(z, coef, resid)``, each record of ``rows`` gathering its row ``at[i]`` of ``xb``
    (row ``i`` if ``at`` is None) and scored alone."""
    logp, resid = log_prob_and_residual_by_records(policy, xb if at is None else xb[at], rows[1])
    return (*costs(logp, *rows[2:]), resid)


def log_prob_by_records(policy, at, actions, xb):
    """Each record's log-probability, the record gathering its row ``at[i]`` of ``xb`` (row ``i`` if
    ``at`` is None) and scored alone: the shared weighing path's formula, by records."""
    return log_prob_and_residual_by_records(policy, xb if at is None else xb[at], actions)[0]
