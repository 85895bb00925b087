"""Fault-tolerance toolkit for hypercube interconnection networks.

Builds the explicit path/cycle structure-cut families, validates them,
evaluates the closed-form structure/substructure connectivity values, and
cross-checks everything against brute-force minimality oracles at desk
scale.

The package root exports the names of the README's library quick start;
every other name is imported from the module that defines it.
"""

from .analysis import validate_cut
from .cuts import StructureKind, build_cycle_cut, build_path_cut
from .formulas import kappa_cycle, kappa_path
from .oracle import SearchBudget, min_structure_cut

__version__ = "0.1.0"

__all__ = [
    "SearchBudget",
    "StructureKind",
    "build_cycle_cut",
    "build_path_cut",
    "kappa_cycle",
    "kappa_path",
    "min_structure_cut",
    "validate_cut",
]
