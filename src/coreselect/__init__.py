"""Online k-of-N subset selection with core-vector reward proxies."""

from .adversary import (
    Adversary,
    HintSpec,
    adversary_from_config,
    generate_hints,
)
from .corevec import core_vectors, hungarian_duals
from .hypersimplex import (
    QuadraticObjective,
    afw_minimize,
    entropic_ftrl_argmax,
    euclidean_project,
    lmo,
)
from .oracles import (
    avg_submodular_shapley_check,
    check_monotone,
    check_submodular,
    core_membership,
    dictator_vector,
    estimate_rho,
    find_dictator,
    madow_marginal_measure,
    madow_support,
    marginal_vector,
    shapley_exact,
    tightest_alpha,
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
from .sampling import draw, madow_sample
from .setfn import (
    CoverageFunction,
    MatchingRewardFunction,
    ModularFunction,
    SetFunction,
    distance_sup,
)

__version__ = "0.1.0"
