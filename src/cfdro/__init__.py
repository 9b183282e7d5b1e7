"""Offline contextual-bandit policy evaluation and optimization with
distributionally robust estimators.

The package turns logged bandit feedback (context, action, logging
propensity, cost) into calibrated confidence intervals for the risk of any
candidate policy, and into trained policies that minimize a convex robust
objective instead of a point estimate.
"""

__version__ = "0.1.0"

from .data import (
    LoggingPolicyConfig,
    SplitSpec,
    collect_bandit_log,
    parse_libsvm_multilabel,
    read_bandit_log,
    sample_bandit_log,
    split_dataset,
    synthetic_multilabel_dataset,
    train_logging_policy,
    write_bandit_log,
)
from .divergences import (
    DivergenceKind,
    phi,
    phi_conjugate,
)
from .dro import (
    DualPoint,
    DualSolverOptions,
    SolverError,
    dual_gradient,
    dual_gradient_policy,
    dual_objective,
    kl_reduced_dual,
    optimistic_risk_dual,
    robust_risk_dual,
)
from .estimators import (
    BanditLog,
    CostScale,
    WeightedCosts,
    crm_objective,
    cv_risk,
    estimate_rho,
    importance_weights,
    ips_risk,
    log_trick_upper_bound,
)
from .intervals import (
    RiskInterval,
    bernstein_interval,
    calibrated_radius,
    chi2_quantile_1dof,
    coverage_experiment,
    dro_interval,
    hoeffding_interval,
    risk_intervals,
    write_coverage_csv,
)
from .optimize import (
    OptimizerConfig,
    TrainReport,
    train_dro,
    train_dro_stochastic,
    train_log_trick,
    train_poem,
    write_report,
)
from .policies import (
    FactorizedLabels,
    LabeledDataset,
    LinearPolicy,
    Multiclass,
    greedy_risk,
    load_policy,
    save_policy,
    true_risk,
)

__all__ = [name for name in dir() if not name.startswith("_")]
