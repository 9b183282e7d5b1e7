"""The package's public names: adding or removing one is a deliberate edit of this list."""

import cfdro

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
