"""The benchmark's workloads: their inputs, CLI commands and output checks.

Each workload runs one or two ``cfdro`` commands on a synthetic multilabel
LibSVM file.  ``SIZES`` holds the full size, used by timed runs, and a toy
size, used by the smoke mode and by the reference check.

Run as a script, this module writes one workload's input file; the harness
times that, imports included, as the set-up:

    python3 perfbench/workloads.py <workload> <seed> <out_dir> [--smoke]
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cfdro.data import write_libsvm_multilabel  # noqa: E402
from cfdro.policies import LabeledDataset  # noqa: E402

ALGOS = "poem,dro-chi2,dro-kl,dro-burg,dro-hellinger"
DIVERGENCES = ("chi2", "kl", "burg", "hellinger")
INPUT_FILE = "dataset.svm"
COVERAGE_WORKLOADS = ("coverage-sweep", "dual-large")  # run the coverage command

# Why each size: evaluate-large keeps log I/O the main cost (a 1.2e4-record,
# ~6.5 MB JSONL log); coverage-sweep keeps 60 logs of 1e3-4e3 records so the
# per-solve cost dominates, with 60 DRO intervals per divergence so that a
# coverage of 0.9 is a safe bar for the ~0.96 the study reaches; dual-large
# solves on two 1e5-record logs, where the per-record cost dominates; the two
# optimize workloads share one file with 4000-record training logs, and
# their iteration caps keep a pass near 1.5-2.5 s so that a run holds many.
SIZES = {
    "evaluate-large": {
        "full": {"rows": 6000, "features": 20, "labels": 6, "replay": 4},
        "smoke": {"rows": 300, "features": 5, "labels": 4, "replay": 2},
    },
    "coverage-sweep": {
        "full": {"rows": 2000, "features": 8, "labels": 4, "replay_counts": "1,2,4",
                 "replications": 20, "min_coverage": 0.9},
        "smoke": {"rows": 300, "features": 5, "labels": 4, "replay_counts": "1,2",
                  "replications": 2, "min_coverage": 0.0},
    },
    "dual-large": {
        "full": {"rows": 2000, "features": 8, "labels": 4, "replay_counts": "100",
                 "replications": 2, "min_coverage": 0.0},
        "smoke": {"rows": 300, "features": 5, "labels": 4, "replay_counts": "4",
                  "replications": 1, "min_coverage": 0.0},
    },
    "optimize-batch": {
        "full": {"rows": 2000, "features": 50, "labels": 6, "mode": "batch", "max_iters": 30},
        "smoke": {"rows": 300, "features": 5, "labels": 4, "mode": "batch", "max_iters": 10},
    },
    "optimize-sgd": {
        "full": {"rows": 2000, "features": 50, "labels": 6, "mode": "stochastic", "max_iters": 1000},
        "smoke": {"rows": 300, "features": 5, "labels": 4, "mode": "stochastic", "max_iters": 200},
    },
}

# The labelling model is fixed; the seed draws the rows.  Seeds then change
# the data but not how hard the workload is.
_MODEL_SEED = 2011_06835


def make_dataset(rows, features, labels, seed):
    """Rows of Gaussian features with labels thresholded from a fixed noisy linear model."""
    model = np.random.default_rng([_MODEL_SEED, features, labels])
    weights = model.normal(scale=1.2, size=(features, labels))
    bias = model.normal(scale=0.3, size=labels)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, features))
    scores = x @ weights + bias + rng.normal(scale=0.5, size=(rows, labels))
    return LabeledDataset(x, (scores > 0).astype(np.int8))


def make_inputs(seed, size, out_dir):
    """Write the workload's input file into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = make_dataset(size["rows"], size["features"], size["labels"], seed)
    write_libsvm_multilabel(dataset, out_dir / INPUT_FILE)


def commands(name, seed, size, in_dir, out_dir):
    """The ``(command, argv)`` pairs of one pass, in order."""
    data = str(Path(in_dir) / INPUT_FILE)
    out = Path(out_dir)
    if name == "evaluate-large":
        conv = out / "convert"
        return [
            ("convert", ["convert", "--data", data, "--output-dir", str(conv),
                         "-P", str(size["replay"]), "--seed", str(seed)]),
            ("evaluate", ["evaluate", "--log", str(conv / "bandit_log.jsonl"),
                          "--policy", str(conv / "logging_policy.json"),
                          "--divergence", "all", "--output", str(out / "evaluate.csv")]),
        ]
    if name in COVERAGE_WORKLOADS:
        return [
            ("coverage", ["coverage", "--data", data, "--output-dir", str(out / "coverage"),
                          "--replay-counts", size["replay_counts"],
                          "--replications", str(size["replications"]),
                          "--divergence", "all", "--seed", str(seed)]),
        ]
    return [
        ("optimize", ["optimize", "--data", data, "--output-dir", str(out / "optimize"),
                      "--algos", ALGOS, "--lambda-grid", "0.01", "--repetitions", "1",
                      "--max-iters", str(size["max_iters"]), "--mode", size["mode"],
                      "--jobs", "1", "--seed", str(seed)]),
    ]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _check_log(rows, n, where):
    """Intervals of one log, keyed ``dro-<kind>``, ``hoeffding`` and ``bernstein``:
    optimistic <= IPS mean <= robust, and DRO < Bernstein < Hoeffding in width."""
    failures = []
    width = {key: float(r["upper"]) - float(r["lower"]) for key, r in rows.items()}
    hoeff = rows["hoeffding"]
    ips = (float(hoeff["lower"]) + float(hoeff["upper"])) / 2.0  # Hoeffding is symmetric
    for kind in DIVERGENCES:
        row = rows[f"dro-{kind}"]
        lower, upper = float(row["lower"]), float(row["upper"])
        if int(row["n"]) != n:
            failures.append(f"{where} dro-{kind}: n={row['n']}, log has {n} records")
        if not (_finite(lower, upper) and lower <= ips <= upper):
            failures.append(f"{where} dro-{kind}: IPS mean {ips!r} outside [{lower!r}, {upper!r}]")
        if not width[f"dro-{kind}"] < width["bernstein"] < width["hoeffding"]:
            failures.append(f"{where} dro-{kind}: widths not DRO < Bernstein < Hoeffding")
    return failures


def check(name, size, out_dir):
    """Return a list of failed output checks (empty when all hold)."""
    out = Path(out_dir)
    failures = []
    if name == "evaluate-large":
        rows = {r["method"]: r for r in _read_csv(out / "evaluate.csv")}
        n = json.loads((out / "convert" / "config.json").read_text())["n_records"]
        failures += _check_log(rows, n, "evaluate")
    elif name in COVERAGE_WORKLOADS:
        rows = _read_csv(out / "coverage" / "coverage.csv")
        logs = len(size["replay_counts"].split(",")) * size["replications"]
        if len(rows) != logs * (len(DIVERGENCES) + 2):
            failures.append(f"coverage.csv has {len(rows)} rows, expected {logs * 6}")
        for kind in DIVERGENCES:
            covered = [int(r["covered"]) for r in rows if r["method"] == "dro" and r["divergence"] == kind]
            rate = sum(covered) / max(len(covered), 1)
            if len(covered) != logs or rate < size["min_coverage"]:
                failures.append(f"dro-{kind}: coverage {rate:.3f} over {len(covered)} intervals")
        if not all(_finite(float(r["lower"]), float(r["upper"])) for r in rows):
            failures.append("coverage.csv has a non-finite endpoint")
        if name == "dual-large":
            by_log = {}
            for r in rows:
                key = r["method"] if r["method"] != "dro" else f"dro-{r['divergence']}"
                by_log.setdefault((int(r["n"]), r["replication"]), {})[key] = r
            for (n, rep), log_rows in by_log.items():
                failures += _check_log(log_rows, n, f"log n={n} replication {rep}")
    else:
        rows = _read_csv(out / "optimize" / "summary.csv")
        if [r["algorithm"] for r in rows] != ALGOS.split(","):
            failures.append("summary.csv does not list every algorithm once")
        for r in rows:
            risk = float(r["risk_mean"])
            if not (math.isfinite(risk) and 0.0 <= risk <= size["labels"]):
                failures.append(f"{r['algorithm']}: test risk {risk!r} outside [0, L]")
    return failures


def results(name, out_dir):
    """The numbers the reference check compares: interval endpoints or trained-policy risks."""
    out = Path(out_dir)
    if name == "evaluate-large":
        rows = _read_csv(out / "evaluate.csv")
        return {"intervals": [[r["method"], r["divergence"], float(r["lower"]), float(r["upper"])]
                              for r in rows]}
    if name in COVERAGE_WORKLOADS:
        rows = _read_csv(out / "coverage" / "coverage.csv")
        return {"intervals": [[f"{r['method']}-{r['divergence']}-{r['n']}-{r['replication']}",
                               r["divergence"], float(r["lower"]), float(r["upper"])] for r in rows]}
    rows = _read_csv(out / "optimize" / "details.csv")
    return {"risks": [[r["algorithm"], r["repetition"], float(r["risk"]), float(r["greedy_risk"])]
                      for r in rows]}


def mean_test_risk(name, out_dir):
    """Mean exact Hamming risk of the trained policies (0 for workloads that train none)."""
    if not name.startswith("optimize"):
        return 0.0
    rows = _read_csv(Path(out_dir) / "optimize" / "summary.csv")
    return sum(float(r["risk_mean"]) for r in rows) / len(rows)


def log_records(name, size, out_dir):
    """Bandit-log records one pass generates."""
    out = Path(out_dir)
    if name == "evaluate-large":
        return json.loads((out / "convert" / "config.json").read_text())["n_records"]
    if name in COVERAGE_WORKLOADS:
        rows = _read_csv(out / "coverage" / "coverage.csv")
        return sum(int(r["n"]) for r in rows if r["method"] == "hoeffding")
    # train and validation logs, with the CLI's default 0.5/0.25 split and -P 4
    m = size["rows"]
    return (round(0.5 * m) + round(0.25 * m)) * 4


if __name__ == "__main__":
    workload, seed, target = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    make_inputs(seed, SIZES[workload]["smoke" if "--smoke" in sys.argv[4:] else "full"], target)
