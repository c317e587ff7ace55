"""Online k-of-N subset selection with core-vector reward proxies."""

from .adversary import (
    Adversary,
    HintSpec,
    adversary_from_config,
    generate_hints,
)
from .corevec import (
    AdmissibleVector,
    avg_submodular_shapley_check,
    core_membership,
    core_vectors,
    dictator_vector,
    find_dictator,
    hungarian_duals,
    marginal_vector,
    matching_core_vector,
    shapley_exact,
    tightest_alpha,
)
from .hypersimplex import (
    QuadraticObjective,
    afw_minimize,
    entropic_ftrl_argmax,
    euclidean_project,
    lmo,
)
from .policy import (
    OftrlPolicy,
    PricedPolicy,
    RegretLedger,
    RoundRecord,
    ScoreConfig,
    ScorePolicy,
    SemiBanditPolicy,
    augmented_regret_bound,
    static_regret_bound,
)
from .sampling import (
    draw,
    madow_marginal_measure,
    madow_sample,
    madow_support,
)
from .setfn import (
    CoverageFunction,
    MatchingRewardFunction,
    ModularFunction,
    SetFunction,
    check_monotone,
    check_submodular,
    distance_sup,
    estimate_rho,
)

__version__ = "0.1.0"
