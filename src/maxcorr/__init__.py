"""maxcorr: maximal-correlation analysis under marginal and moment constraints.

Capabilities
------------
* Exact maximal correlation of finite joints (spectral oracle, plus the
  correlation-ratio shortcut for binary targets): :mod:`maxcorr.hgr`.
* Separable lower bound computed from pairwise marginals alone, two
  independent ways: :mod:`maxcorr.lowerbound`.
* A certificate deciding whether the bound is attained over the whole
  marginal class, and construction of the attaining additive-structure
  joint: :mod:`maxcorr.tightness`.
* The moment-constrained continuous case with its Gaussian closed form and
  a discretized numerical witness: :mod:`maxcorr.gaussian`.
"""

__version__ = "0.1.0"

from .distributions import (
    AlphabetSpec,
    ConditionalTable,
    Dataset,
    DiscreteJoint,
    PairwiseMarginalSet,
    ValidationReport,
    additive_fixture,
    conditional_expectation,
    copy_fixture,
    empirical_joint,
    feasible_member,
    joint_from_arrays,
    joint_from_table,
    marginal_deviation,
    nonadditive_fixture,
    pairwise_from_dataset,
    pairwise_from_joint,
    permute_labels,
    perturb_joint,
    random_joint,
    sample_dataset,
    uniform_joint,
    validate_marginals,
)
from .gaussian import (
    GaussianMoments,
    discretize_bivariate_gaussian,
    min_hgr_gaussian,
    regression_vector,
)
from .hgr import GenericJoint, HgrResult, flatten_joint, hgr_binary, hgr_svd, pearson
from .lowerbound import (
    DesignSystem,
    LowerBoundResult,
    QdSystem,
    assemble_qd,
    design_matrix,
    gamma_lb_closed,
    gamma_lb_iterative,
    lsq_objective,
    rho_lb,
)
from .tightness import (
    AdditiveDecomposition,
    TightnessCertificate,
    check_tightness,
    construct_additive,
    h_value,
    is_additive,
    near_uniform_probe,
    tightness_gap,
)

__all__ = [
    "AlphabetSpec",
    "ConditionalTable",
    "Dataset",
    "DiscreteJoint",
    "PairwiseMarginalSet",
    "ValidationReport",
    "GaussianMoments",
    "GenericJoint",
    "HgrResult",
    "QdSystem",
    "LowerBoundResult",
    "DesignSystem",
    "TightnessCertificate",
    "AdditiveDecomposition",
    "additive_fixture",
    "assemble_qd",
    "check_tightness",
    "conditional_expectation",
    "construct_additive",
    "copy_fixture",
    "design_matrix",
    "discretize_bivariate_gaussian",
    "empirical_joint",
    "feasible_member",
    "flatten_joint",
    "gamma_lb_closed",
    "gamma_lb_iterative",
    "h_value",
    "hgr_binary",
    "hgr_svd",
    "is_additive",
    "joint_from_arrays",
    "joint_from_table",
    "lsq_objective",
    "marginal_deviation",
    "min_hgr_gaussian",
    "near_uniform_probe",
    "nonadditive_fixture",
    "pairwise_from_dataset",
    "pairwise_from_joint",
    "pearson",
    "permute_labels",
    "perturb_joint",
    "random_joint",
    "regression_vector",
    "rho_lb",
    "sample_dataset",
    "tightness_gap",
    "uniform_joint",
    "validate_marginals",
]
