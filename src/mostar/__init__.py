"""Mostar index of trees.

Computation (a linear subtree-size pass checked against the quadratic
definitional oracle), constructors for the extremal tree families,
index-monotone tree surgeries, exhaustive free-tree enumeration, and a
brute-force verification harness for extremal claims over constrained
tree classes.
"""

from .enumeration import (
    DEFAULT_CAP,
    ConstraintSpec,
    EnumerationCapError,
    all_trees,
    prufer_to_edges,
    random_tree,
    trees_satisfying,
)
from .families import FamilySpec, ParameterError, build, parse_family_spec
from .io import (
    parse_edge_list,
    read_edge_list,
    to_dot,
    to_edge_list_text,
    tree_from_record,
    tree_record,
    write_edge_list,
)
from .transforms import (
    HypothesisError,
    TransformOutcome,
    contract_with_pendant,
    move_pendants_to_path_neighbor,
    rebalance_paths,
    relocate_branch,
    relocate_pendant,
    shift_branch_to_end,
)
from .tree import (
    EdgeSplit,
    SplitSequence,
    Tree,
    TreeStats,
    canonical_form,
    is_isomorphic,
    mostar_bfs,
    mostar_fast,
    psi_edge,
    stats,
)
from .verify import (
    REGISTRY,
    DegreeSequenceStructureReport,
    TheoremClaim,
    VerificationReport,
    check_claim,
    check_degree_sequence_structure,
    claim_ids,
    claimed_extremal,
    extremal_search,
)

__version__ = "0.1.0"

__all__ = [
    "Tree",
    "EdgeSplit",
    "SplitSequence",
    "TreeStats",
    "mostar_fast",
    "mostar_bfs",
    "psi_edge",
    "stats",
    "canonical_form",
    "is_isomorphic",
    "FamilySpec",
    "ParameterError",
    "build",
    "claimed_extremal",
    "parse_family_spec",
    "ConstraintSpec",
    "EnumerationCapError",
    "DEFAULT_CAP",
    "all_trees",
    "trees_satisfying",
    "random_tree",
    "prufer_to_edges",
    "TransformOutcome",
    "HypothesisError",
    "contract_with_pendant",
    "rebalance_paths",
    "move_pendants_to_path_neighbor",
    "shift_branch_to_end",
    "relocate_pendant",
    "relocate_branch",
    "TheoremClaim",
    "VerificationReport",
    "DegreeSequenceStructureReport",
    "REGISTRY",
    "claim_ids",
    "extremal_search",
    "check_claim",
    "check_degree_sequence_structure",
    "to_edge_list_text",
    "parse_edge_list",
    "write_edge_list",
    "read_edge_list",
    "to_dot",
    "tree_record",
    "tree_from_record",
    "__version__",
]
