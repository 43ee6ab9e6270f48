"""Model checking and parameter optimization for LTL with cost bounds.

Formulas in negation normal form may bound F and G operators by the cost a
run accumulates, per coordinate of a vector-weighted transition system.
The package decides satisfaction for fixed parameter values, for some
valuation, and for all valuations, and optimizes four min/max objectives
over the valuation space.

The top level exports the API that README "Library use" documents; every
other name is imported from its submodule.
"""

from .automata import AutomatonError, BuchiAutomaton, ltl_to_nba
from .formula import Formula, FormulaError, FragmentError, ParseError, parse
from .modelcheck import (
    ColoredCostGraph,
    ExistsResult,
    FixedResult,
    ModelCheckError,
    build_product,
    check_exists,
    check_fixed,
    verify_pumpable,
)
from .optimize import Objective, OptimizeResult, optimize_mc
from .system import SystemFormatError, TransitionSystem, parse_system
from .trace import (
    Changepoints,
    CostTrace,
    TraceError,
    changepoints,
    check_bounded,
    check_spaced,
    evaluate,
    make_spaced_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "AutomatonError",
    "BuchiAutomaton",
    "Changepoints",
    "ColoredCostGraph",
    "CostTrace",
    "ExistsResult",
    "FixedResult",
    "Formula",
    "FormulaError",
    "FragmentError",
    "ModelCheckError",
    "Objective",
    "OptimizeResult",
    "ParseError",
    "SystemFormatError",
    "TraceError",
    "TransitionSystem",
    "build_product",
    "changepoints",
    "check_bounded",
    "check_exists",
    "check_fixed",
    "check_spaced",
    "evaluate",
    "ltl_to_nba",
    "make_spaced_coloring",
    "optimize_mc",
    "parse",
    "parse_system",
    "verify_pumpable",
]
