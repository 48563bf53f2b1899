"""set2seu: gate-level SET fault sites mapped to multi-FF upset campaigns."""

from .campaign import (
    CampaignReport,
    FaultSpaceReport,
    SfiPlan,
    build_campaign,
    fault_space_total,
    random_multibit_space,
    sfi_sample_size,
)
from .cones import (
    FaninCone,
    FaultSite,
    cone_ff_set,
    enumerate_fault_sites,
    static_ff_set,
)
from .ffsets import FFSet, SetCollection, collect_cone_sets, collect_static_sets
from .netlist import (
    Circuit,
    CircuitStats,
    NetlistError,
    circuit_from_json,
    circuit_to_json,
    parse_bench,
    to_bench,
)
from .oracle import exhaustive_patterns, simulate
from .propagation import (
    CnfFormula,
    DifferencePattern,
    MiterInstance,
    PatternResult,
    build_miter,
    encode_cnf,
    enumerate_patterns,
    optimize_sets,
)
from .solver import SAT, UNKNOWN, UNSAT, CdclSolver, SolveResult, solve_cnf

__version__ = "0.1.0"

__all__ = [
    "CampaignReport",
    "CdclSolver",
    "Circuit",
    "CircuitStats",
    "CnfFormula",
    "DifferencePattern",
    "FFSet",
    "FaninCone",
    "FaultSite",
    "FaultSpaceReport",
    "MiterInstance",
    "NetlistError",
    "PatternResult",
    "SAT",
    "SetCollection",
    "SfiPlan",
    "SolveResult",
    "UNKNOWN",
    "UNSAT",
    "build_campaign",
    "build_miter",
    "circuit_from_json",
    "circuit_to_json",
    "collect_cone_sets",
    "collect_static_sets",
    "cone_ff_set",
    "encode_cnf",
    "enumerate_fault_sites",
    "enumerate_patterns",
    "exhaustive_patterns",
    "fault_space_total",
    "optimize_sets",
    "parse_bench",
    "random_multibit_space",
    "sfi_sample_size",
    "simulate",
    "solve_cnf",
    "static_ff_set",
    "to_bench",
]
