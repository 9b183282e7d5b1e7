"""Closed-loop benchmark of the cfdro command-line workflows.

Run from the repository root:

    python3 perfbench/run.py --workload coverage-sweep --seed 1 --seconds 15 --trace 0

One caller drives ``cfdro.cli.main(argv)`` in-process: each command starts
after the previous one returns, optimize runs with ``--jobs 1`` and BLAS is
held to ``BLAS_THREADS`` threads.  A *pass* runs the workload's commands
once on inputs made from ``--seed``; passes repeat until ``--seconds`` is
spent.  Every pass's outputs are checked, and must be byte-identical to the
first good pass's.  Before the passes, the workload also runs at toy size on a
fixed seed and its interval endpoints or trained-policy risks are compared
with ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see ``spans.py``), plus the tracing overhead.  Metric names and units
come from ``BENCHMARK.json``.  The last stdout line is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
machine notes, input sizes and pass times.  Traced runs write their spans
to ``.perfbench_out/<workload>.spans.jsonl``.

``--smoke`` runs the timed passes at toy size (used by ``test_smoke.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_FILE = HERE / "reference.json"

BLAS_THREADS = 1  # at most nproc; one thread keeps a single-caller run steady
SETUP_REPEATS = 3
MIN_PASSES = 2  # of each kind (untraced, traced) a run measures
REFERENCE_SEED = 7
INTERVAL_RTOL = 1e-9
# Trained policies go through L-BFGS or SGD iterations, which may amplify a
# last-digit change in the kernels; 1e-6 relative still catches a trainer
# that stops early or follows another path.
RISK_RTOL = 1e-6
COMMANDS = ("convert", "evaluate", "coverage", "optimize")


@dataclass
class Pass:
    traced: bool
    wall: float
    times: dict
    failures: list
    digest: str = ""
    layers: dict = field(default_factory=dict)


def _digest_dir(path):
    """SHA-256 over every file below ``path``, in sorted order, with its relative name."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_pass(workload, size, cmds, out, tracer=None):
    """Run one pass of ``cmds`` into a fresh ``out``; check its outputs outside the timed part."""
    from cfdro import cli
    from workloads import check

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    times, failures = {}, []
    start = perf_counter()
    for cmd, argv in cmds:
        call = cli.main if tracer is None else tracer.wrap(f"cli.{cmd}", cli.main)
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = call(argv)
        times[cmd] = perf_counter() - t0
        if code != 0:
            failures.append(f"{cmd} exited with code {code}")
    wall = perf_counter() - start
    if not failures:
        try:
            failures = check(workload, size, out)
        except (OSError, KeyError, ValueError) as exc:
            failures = [f"output check could not read the outputs: {exc!r}"]
    return Pass(tracer is not None, wall, times, failures, "" if failures else _digest_dir(out))


def _compare(got, want):
    failures = []
    for key, rows in want.items():
        rtol = INTERVAL_RTOL if key == "intervals" else RISK_RTOL
        if len(got.get(key, [])) != len(rows):
            failures.append(f"reference {key}: {len(got.get(key, []))} rows, expected {len(rows)}")
            continue
        for g, w in zip(got[key], rows):
            if g[:2] != w[:2]:
                failures.append(f"reference {key}: row {g[:2]} where {w[:2]} was recorded")
            elif any(abs(a - b) > rtol * max(abs(a), abs(b)) for a, b in zip(g[2:], w[2:])):
                failures.append(f"reference {key}: {g} differs from {w} beyond {rtol:g} relative")
    return failures


def reference_check(workload, work):
    """Run ``workload`` at toy size on ``REFERENCE_SEED`` and compare with ``reference.json``."""
    from workloads import SIZES, commands, make_inputs, results

    size = SIZES[workload]["smoke"]
    make_inputs(REFERENCE_SEED, size, work / "ref-inputs")
    cmds = commands(workload, REFERENCE_SEED, size, work / "ref-inputs", work / "ref-out")
    done = run_pass(workload, size, cmds, work / "ref-out")
    if done.failures:
        return done.failures
    want = json.loads(REFERENCE_FILE.read_text())["workloads"][workload]
    return _compare(results(workload, work / "ref-out"), want)


def set_up(workload, seed, smoke, work):
    """Make the inputs ``SETUP_REPEATS`` times in fresh interpreters; return the times."""
    from workloads import INPUT_FILE

    times, digests = [], set()
    for k in range(SETUP_REPEATS):
        target = work / f"inputs{k}"
        cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(target)]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd + (["--smoke"] if smoke else []))
        # A blocking wait: subprocess.run(timeout=...) polls, which rounds
        # the measured time up to 50 ms steps.
        watchdog = threading.Timer(150, proc.kill)
        watchdog.start()
        code = proc.wait()
        times.append(perf_counter() - t0)
        watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        digests.add(hashlib.sha256((target / INPUT_FILE).read_bytes()).hexdigest())
    return work / "inputs0", times, len(digests) == 1


def machine_notes():
    import numpy
    import scipy

    notes = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor(), "l3": None}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            notes["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                notes["cpu_model"],
            )
    with contextlib.suppress(OSError):
        notes["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    notes.update(
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas=f"{blas.get('name', '?')} {blas.get('version', '?')}",
        blas_threads=BLAS_THREADS,
    )
    return notes


def end_to_end(passes, setup_times):
    # The mean pass, that is measured time over passes made: host slowdowns
    # last seconds to tens of seconds, and a mean over every pass varied
    # less from run to run than the median pass did.
    return {
        "workflow_s": statistics.fmean(p.wall for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes, test_risk):
    """Median of each layer metric over the traced passes (counts are equal in all)."""
    from spans import COUNT_METRICS

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    metrics = {
        name: traced[0].layers[name] if name in COUNT_METRICS
        else statistics.median(p.layers[name] for p in traced)
        for name in traced[0].layers
    }
    base = statistics.median(p.wall for p in untraced)
    for cmd in COMMANDS:
        metrics[f"cli.{cmd}_s"] = statistics.median(p.times.get(cmd, 0.0) for p in untraced)
    metrics["intervals.per_s"] = metrics["intervals.dro_intervals"] / base
    metrics["optimize.test_risk"] = test_risk
    metrics["trace_overhead"] = statistics.median(p.wall for p in traced) / base - 1.0
    return metrics


def benchmark(args, spec):
    import workloads
    from spans import COUNT_METRICS, Tracer, layer_metrics

    size = workloads.SIZES[args.workload]["smoke" if args.smoke else "full"]
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        inputs, setup_times, inputs_repeat = set_up(args.workload, args.seed, args.smoke, work)
        failures = []
        attempted = failed = 0

        def record(problems):
            """Count one checked operation and keep its failures."""
            nonlocal attempted, failed
            attempted += 1
            failed += bool(problems)
            failures.extend(problems)

        record([] if inputs_repeat else ["set-up made different inputs from one seed"])
        record(reference_check(args.workload, work))

        out = work / "out"
        cmds = workloads.commands(args.workload, args.seed, size, inputs, out)
        tracer = Tracer() if args.trace else None
        passes = []
        first_digest = None
        start = perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.run = len(passes)
                with tracer.installed():
                    done = run_pass(args.workload, size, cmds, out, tracer)
                done.layers = layer_metrics(tracer.spans, tracer.run)
            else:
                done = run_pass(args.workload, size, cmds, out)
            passes.append(done)
            if not done.failures:
                first_digest = first_digest or done.digest
                if done.digest != first_digest:
                    done.failures.append("a pass wrote different outputs from the first good pass")
            record(done.failures)
            untraced = sum(not p.traced for p in passes)
            enough = untraced >= MIN_PASSES and (tracer is None or len(passes) - untraced >= MIN_PASSES)
            if enough and perf_counter() - start + done.wall > args.seconds:
                break

        last_ok = out.exists() and not passes[-1].failures
        if tracer is not None:
            counts = {tuple(p.layers[k] for k in COUNT_METRICS) for p in passes if p.traced}
            record([] if len(counts) == 1 else ["per-layer counts differ between traced passes"])
            risk = workloads.mean_test_risk(args.workload, out) if last_ok else 0.0
            values = per_layer(passes, risk)
            names = spec["per_layer"]
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"{args.workload}.spans.jsonl")
        else:
            values = end_to_end(passes, setup_times)
            names = spec["end_to_end"]
        input_file = inputs / workloads.INPUT_FILE
        notes = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "machine": machine_notes(),
            "inputs": {
                "rows": size["rows"],
                "features": size["features"],
                "labels": size["labels"],
                "input_bytes": input_file.stat().st_size,
                "log_records_per_pass": workloads.log_records(args.workload, size, out) if last_ok else None,
            },
            "setup_s": setup_times,
            "pass_s": [[round(p.wall, 6), p.traced] for p in passes],
            "reference": {"seed": REFERENCE_SEED, "interval_rtol": INTERVAL_RTOL, "risk_rtol": RISK_RTOL},
            "failures": failures[:20],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    missing = {m["name"] for m in names} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics emitted and metrics listed in BENCHMARK.json differ: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({"notes": notes}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="time the toy sizes")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cfdro" / "__init__.py").is_file():
        print(f"error: the cfdro sources are missing from {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    benchmark(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
