"""Revenue-maximizing posted-price equilibrium for a durable-good seller with
limited commitment facing a binary-valuation buyer: cutoff solver, value
functions, mechanism construction, deviation verification, and simulation."""

from .core import MarketParams, belief, mu_bar_1, virtual_value
from .cutoffs import (
    CutoffTable,
    compute_cutoffs,
    indifference_gap,
)
from .mechanism import (
    ConstraintResiduals,
    Mechanism,
    MechanismConsistencyError,
    PostedPrice,
    Split,
    build_mechanism,
    check_binding_constraints,
    class_price,
    equilibrium_split,
    posted_price_view,
)
from .sim import MonteCarloSummary, PathRecord, PathStep, iter_paths, monte_carlo, simulate_path
from .value import buyer_rent, eval_R, seller_revenue
from .verify import (
    DeviationReport,
    EnvelopePoint,
    StructureReport,
    concave_envelope,
    deviation_scan,
    structure_checks,
)

__version__ = "0.1.0"

__all__ = [
    "MarketParams",
    "belief",
    "mu_bar_1",
    "virtual_value",
    "CutoffTable",
    "compute_cutoffs",
    "indifference_gap",
    "eval_R",
    "seller_revenue",
    "buyer_rent",
    "Split",
    "Mechanism",
    "PostedPrice",
    "ConstraintResiduals",
    "MechanismConsistencyError",
    "class_price",
    "equilibrium_split",
    "build_mechanism",
    "posted_price_view",
    "check_binding_constraints",
    "EnvelopePoint",
    "DeviationReport",
    "StructureReport",
    "concave_envelope",
    "deviation_scan",
    "structure_checks",
    "PathStep",
    "PathRecord",
    "MonteCarloSummary",
    "simulate_path",
    "iter_paths",
    "monte_carlo",
]
