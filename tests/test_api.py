"""The package's public names: adding or removing one is a deliberate edit of this list; the
names the benchmark's tracer patches, which must resolve; and README's library quick start and
command-line examples."""

import importlib
import importlib.util
import math
import re
import shlex
from pathlib import Path

import cfdro
from cfdro.cli import build_parser

PUBLIC = {
    # submodules
    "data", "divergences", "dro", "estimators", "intervals", "optimize", "policies",
    # data
    "LoggingPolicyConfig", "SplitSpec", "collect_bandit_log", "parse_libsvm_multilabel",
    "read_bandit_log", "sample_bandit_log", "split_dataset", "synthetic_multilabel_dataset",
    "train_logging_policy", "write_bandit_log",
    # divergences
    "DivergenceKind", "phi", "phi_conjugate",
    # dro
    "DualPoint", "DualSolverOptions", "SolverError", "dual_gradient", "dual_gradient_policy",
    "dual_objective", "kl_reduced_dual", "optimistic_risk_dual", "robust_risk_dual",
    # estimators
    "BanditLog", "CostScale", "WeightedCosts", "crm_objective", "cv_risk", "estimate_rho",
    "importance_weights", "ips_risk", "log_trick_upper_bound",
    # intervals
    "RiskInterval", "bernstein_interval", "calibrated_radius", "chi2_quantile_1dof",
    "coverage_experiment", "dro_interval", "hoeffding_interval", "risk_intervals",
    "write_coverage_csv",
    # optimize
    "OptimizerConfig", "TrainReport", "train_dro", "train_dro_stochastic", "train_log_trick",
    "train_poem", "write_report",
    # policies
    "FactorizedLabels", "LabeledDataset", "LinearPolicy", "Multiclass", "greedy_risk",
    "load_policy", "save_policy", "true_risk",
}


def test_public_names_are_the_listed_set():
    assert len(cfdro.__all__) == len(set(cfdro.__all__))
    assert set(cfdro.__all__) == PUBLIC


def test_every_traced_name_resolves():
    # the benchmark's tracer patches these names in traced runs, and fails there on one that
    # was removed or renamed; resolved here as it resolves them, reading and patching nothing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(f"cfdro.{module_name}")
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            assert callable(getattr(module, owner_name).__dict__[fn_name]), attr
        else:
            assert callable(getattr(module, fn_name)), attr


def test_the_readmes_library_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})
    # report.final_value (interval.lower, interval.upper), then the exact risk
    value, lower, upper, risk = map(float, re.sub(r"[(),]", " ", capsys.readouterr().out).split())
    assert math.isfinite(value) and lower <= upper and risk >= 0.0


def test_the_readmes_command_line_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```$", readme, flags=re.S | re.M)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("cfdro ")]
    assert {argv[1] for argv in commands} == {"convert", "evaluate", "optimize", "coverage"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # a flag README misspells raises here
