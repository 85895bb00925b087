"""Fault-tolerance toolkit for hypercube interconnection networks.

Builds the explicit path/cycle structure-cut families, validates them,
evaluates the closed-form structure/substructure connectivity values, and
cross-checks everything against brute-force minimality oracles at desk
scale.
"""

from .analysis import (
    CutVerdict,
    components_after_removal,
    g_extra_connectivity,
    path_neighbor_bound,
    validate_cut,
)
from .core import (
    Automorphism,
    Cube,
    adjacent,
    edge_mapping_automorphism,
    vertex_from_string,
    vertex_to_string,
)
from .cuts import (
    CubeStar,
    CutFamily,
    StructureKind,
    build_cycle_cut,
    build_path_cut,
)
from .embeddings import (
    CubeCycle,
    CubePath,
    embed_even_cycle,
    hamiltonian_through_edge,
    odd_path_between_adjacent,
    restrict_to_subcube,
)
from .formulas import (
    KappaValue,
    NotCoveredError,
    kappa_cycle,
    kappa_g_extra_formula,
    kappa_baseline,
    kappa_path,
    kappa_power_of_two_cycle,
    verify_budengs_inequality,
)
from .oracle import (
    BudgetError,
    OracleResult,
    SearchBudget,
    enumerate_copies,
    min_structure_cut,
)

__version__ = "0.1.0"

__all__ = [
    "Automorphism",
    "BudgetError",
    "Cube",
    "CubeCycle",
    "CubePath",
    "CubeStar",
    "CutFamily",
    "CutVerdict",
    "KappaValue",
    "NotCoveredError",
    "OracleResult",
    "SearchBudget",
    "StructureKind",
    "adjacent",
    "build_cycle_cut",
    "build_path_cut",
    "components_after_removal",
    "edge_mapping_automorphism",
    "embed_even_cycle",
    "enumerate_copies",
    "g_extra_connectivity",
    "hamiltonian_through_edge",
    "kappa_cycle",
    "kappa_g_extra_formula",
    "kappa_baseline",
    "kappa_path",
    "kappa_power_of_two_cycle",
    "min_structure_cut",
    "odd_path_between_adjacent",
    "path_neighbor_bound",
    "restrict_to_subcube",
    "validate_cut",
    "verify_budengs_inequality",
    "vertex_from_string",
    "vertex_to_string",
]
