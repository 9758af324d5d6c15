"""Core REF library: utilities, fitting, the mechanism, and fairness analysis."""

from .bargaining import NashBargainingSolution, nash_bargaining
from .ceei import CompetitiveEquilibrium, competitive_equilibrium
from .classify import ResourceGroup, ResourcePreference, classify, classify_many
from .edgeworth import CurveSegment, EdgeworthBox
from .fitting import CobbDouglasFit, fit_cobb_douglas, fit_cobb_douglas_batch
from .leontief_fit import LeontiefFit, fit_leontief
from .mechanism import (
    Agent,
    Allocation,
    AllocationProblem,
    proportional_elasticity,
    proportional_split,
    water_fill,
)
from .registry import (
    MECHANISM_REGISTRY,
    CreditMechanism,
    Mechanism,
    MechanismRegistry,
    SolveContext,
    cli_mechanism_names,
    controller_mechanism_names,
    create_mechanism,
    hierarchical_mechanism_names,
    mechanism_names,
    register_mechanism,
)
from .properties import (
    FairnessReport,
    check_fairness,
    envy_matrix,
    is_envy_free,
    is_pareto_efficient,
    mrs_spread,
    satisfies_sharing_incentives,
    sharing_incentive_margins,
    unfairness_index,
)
from .spl import (
    BestResponse,
    best_response,
    lying_utility,
    manipulation_gain,
    max_manipulation_gain,
)
from .utility import CobbDouglasUtility, LeontiefUtility, Utility, rescale_elasticities
from .welfare import (
    egalitarian_welfare,
    nash_welfare,
    weighted_system_throughput,
    weighted_utilities,
    weighted_utility,
)

__all__ = [
    "Agent",
    "Allocation",
    "AllocationProblem",
    "BestResponse",
    "CobbDouglasFit",
    "CreditMechanism",
    "MECHANISM_REGISTRY",
    "Mechanism",
    "MechanismRegistry",
    "SolveContext",
    "CompetitiveEquilibrium",
    "CobbDouglasUtility",
    "CurveSegment",
    "EdgeworthBox",
    "FairnessReport",
    "LeontiefFit",
    "LeontiefUtility",
    "NashBargainingSolution",
    "ResourceGroup",
    "ResourcePreference",
    "Utility",
    "best_response",
    "check_fairness",
    "classify",
    "classify_many",
    "cli_mechanism_names",
    "competitive_equilibrium",
    "controller_mechanism_names",
    "create_mechanism",
    "egalitarian_welfare",
    "envy_matrix",
    "fit_cobb_douglas",
    "fit_cobb_douglas_batch",
    "fit_leontief",
    "hierarchical_mechanism_names",
    "is_envy_free",
    "is_pareto_efficient",
    "lying_utility",
    "manipulation_gain",
    "max_manipulation_gain",
    "mechanism_names",
    "mrs_spread",
    "nash_bargaining",
    "nash_welfare",
    "proportional_elasticity",
    "proportional_split",
    "register_mechanism",
    "rescale_elasticities",
    "satisfies_sharing_incentives",
    "sharing_incentive_margins",
    "unfairness_index",
    "water_fill",
    "weighted_system_throughput",
    "weighted_utilities",
    "weighted_utility",
]
