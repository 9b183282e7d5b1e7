"""Spans around the calls into cfdro's public functions, and the per-layer
metrics computed from them.

While a :class:`Tracer` is installed, every function named in ``TARGETS`` is
replaced, in each loaded ``cfdro`` module that refers to it, by a wrapper
that records one span per call: ``[name, start, end, parent, run, size,
flag]``.  ``name`` is ``<module>.<function>``; ``parent`` is the index of
the enclosing span (-1 at the top); ``run`` identifies the traced pass;
``size`` is the amount of work the call was given (records, bytes or
trainer iterations, see ``TARGETS``); ``flag`` marks a raised
``SolverError`` or an unconverged trainer.  Spans stay in memory until
:meth:`Tracer.write` is called.  Nothing under ``src/`` is changed: the
patching is undone when the tracer is removed.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

from cfdro.dro import SolverError

_NAME, _START, _END, _PARENT, _RUN, _SIZE, _FLAG = range(7)


def _rows(rec, args, out):
    x = args[1]  # method calls: (self, x, ...)
    rec[_SIZE] = len(x) if getattr(x, "ndim", 2) == 2 else 1


def _records(rec, args, out):
    rec[_SIZE] = len(args[0])


def _file_bytes(rec, args, out):
    rec[_SIZE] = os.path.getsize(args[1] if len(args) > 1 else args[0])


def _trainer(rec, args, out):
    report = out[1]
    rec[_SIZE] = report.iterations
    if not report.converged:
        rec[_FLAG] = "unconverged"


# (module, attribute, what to record about the call besides its times)
TARGETS = (
    ("data", "parse_libsvm_multilabel", _file_bytes),
    ("data", "split_dataset", None),
    ("data", "train_logging_policy", None),
    ("data", "collect_bandit_log", None),
    ("data", "sample_bandit_log", None),
    ("data", "write_bandit_log", _file_bytes),
    ("data", "read_bandit_log", _file_bytes),
    ("policies", "LinearPolicy.log_prob", _rows),
    ("policies", "LinearPolicy.weighted_grad_log_prob_sum", _rows),
    ("policies", "LinearPolicy.sample_actions", _rows),
    ("policies", "true_risk", None),
    ("policies", "greedy_risk", None),
    ("estimators", "importance_weights", None),
    ("dro", "robust_risk_dual", _records),
    ("dro", "optimistic_risk_dual", None),
    ("intervals", "dro_interval", None),
    ("intervals", "hoeffding_interval", None),
    ("intervals", "bernstein_interval", None),
    ("intervals", "coverage_experiment", None),
    ("optimize", "train_dro", _trainer),
    ("optimize", "train_dro_stochastic", _trainer),
    ("optimize", "train_poem", _trainer),
)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._open = []

    def wrap(self, name, fn, measure=None):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.run, 0, ""]
            open_.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except SolverError:
                rec[_FLAG] = "SolverError"
                raise
            finally:
                rec[_END] = perf_counter()
                open_.pop()
            if measure is not None:
                measure(rec, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every target in every loaded cfdro module; undo on exit."""
        modules = [m for key, m in sys.modules.items() if key == "cfdro" or key.startswith("cfdro.")]
        undo = []
        try:
            for module_name, attr, measure in TARGETS:
                module = importlib.import_module(f"cfdro.{module_name}")
                owner_name, _, fn_name = attr.rpartition(".")
                name = f"{module_name}.{fn_name}"
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[fn_name]
                    setattr(owner, fn_name, self.wrap(name, original, measure))
                    undo.append((owner, fn_name, original))
                    continue
                original = getattr(module, fn_name)
                wrapper = self.wrap(name, original, measure)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write(self, path):
        """Write all spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# Counts repeat exactly on a seeded re-run; the harness checks that they do.
COUNT_METRICS = (
    "data.collect_calls",
    "policies.log_prob_calls",
    "policies.grad_calls",
    "estimators.weights_calls",
    "dro.solves",
    "dro.solver_errors",
    "intervals.dro_intervals",
    "optimize.trainer_calls",
    "optimize.iterations",
    "optimize.unconverged",
    "trace.spans",
)


def _ratio(amount, base):
    return amount / base if base > 0 else 0.0


def _percentile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans, run):
    """Per-layer counts and times of one traced pass.

    Times are inclusive unless named ``self_s``: a span's self time is its
    duration minus the durations of its direct children (calls are nested
    and single-threaded, so children never overlap).
    """
    mine = [i for i, rec in enumerate(spans) if rec[_RUN] == run]
    child = {i: 0.0 for i in mine}
    for i in mine:
        parent = spans[i][_PARENT]
        if parent >= 0:
            child[parent] += spans[i][_END] - spans[i][_START]

    total, calls, size, self_s, durations = {}, {}, {}, {}, {}
    for i in mine:
        name, start, end = spans[i][_NAME], spans[i][_START], spans[i][_END]
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + spans[i][_SIZE]
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]
        durations.setdefault(name, []).append(end - start)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def sz(*names):
        return sum(size.get(n, 0) for n in names)

    # trainers called from outside the optimize layer (train_dro may hand
    # over to train_dro_stochastic, which must not count twice)
    top_trainers = [
        i for i in mine
        if spans[i][_NAME].startswith("optimize.")
        and not (spans[i][_PARENT] >= 0 and spans[spans[i][_PARENT]][_NAME].startswith("optimize."))
    ]
    train_s = sum(spans[i][_END] - spans[i][_START] for i in top_trainers)
    iterations = sum(spans[i][_SIZE] for i in top_trainers)
    solves = durations.get("dro.robust_risk_dual", [])
    return {
        "cli.self_s": self_s.get("cli", 0.0),
        "data.parse_s": t("data.parse_libsvm_multilabel"),
        "data.write_s": t("data.write_bandit_log"),
        "data.write_mb_per_s": _ratio(sz("data.write_bandit_log") / 1e6, t("data.write_bandit_log")),
        "data.read_s": t("data.read_bandit_log"),
        "data.read_mb_per_s": _ratio(sz("data.read_bandit_log") / 1e6, t("data.read_bandit_log")),
        "data.collect_calls": c("data.collect_bandit_log", "data.sample_bandit_log"),
        "data.collect_s": t("data.collect_bandit_log", "data.sample_bandit_log"),
        "data.fit_logging_s": t("data.train_logging_policy"),
        "policies.log_prob_calls": c("policies.log_prob"),
        "policies.log_prob_s": t("policies.log_prob"),
        "policies.log_prob_ns_per_record": _ratio(t("policies.log_prob") * 1e9, sz("policies.log_prob")),
        "policies.grad_calls": c("policies.weighted_grad_log_prob_sum"),
        "policies.grad_s": t("policies.weighted_grad_log_prob_sum"),
        "policies.grad_ns_per_record": _ratio(
            t("policies.weighted_grad_log_prob_sum") * 1e9, sz("policies.weighted_grad_log_prob_sum")
        ),
        "policies.sample_s": t("policies.sample_actions"),
        "estimators.weights_calls": c("estimators.importance_weights"),
        "estimators.weights_s": t("estimators.importance_weights"),
        "dro.solves": len(solves),
        "dro.solve_s": sum(solves),
        "dro.solve_ms_p50": statistics.median(solves) * 1e3 if solves else 0.0,
        "dro.solve_ms_p99": _percentile_ms(solves, 99),
        "dro.solve_ns_per_record": _ratio(sum(solves) * 1e9, sz("dro.robust_risk_dual")),
        "dro.solver_errors": sum(1 for i in mine if spans[i][_FLAG] == "SolverError"
                                 and spans[i][_NAME] == "dro.robust_risk_dual"),
        "intervals.dro_intervals": c("intervals.dro_interval"),
        "intervals.dro_interval_s": t("intervals.dro_interval"),
        "intervals.finite_s": t("intervals.hoeffding_interval", "intervals.bernstein_interval"),
        "intervals.self_s": self_s.get("intervals", 0.0),
        "optimize.trainer_calls": len(top_trainers),
        "optimize.train_s": train_s,
        "optimize.iterations": iterations,
        "optimize.iter_ms": train_s * 1e3 / iterations if iterations else 0.0,
        "optimize.unconverged": sum(1 for i in top_trainers if spans[i][_FLAG] == "unconverged"),
        "optimize.self_s": self_s.get("optimize", 0.0),
        "trace.spans": len(mine),
    }

