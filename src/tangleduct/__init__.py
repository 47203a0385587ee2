"""Finite separation systems, tangles, and tree certificates.

The package answers one question constructively: given a finite separation
system and a family of stars, either exhibit a consistent orientation
avoiding every star of the family, or build a tree whose nodes all carry
stars from the family — never both, never neither (under the stated
hypotheses).  Everything returned is re-verified from first principles
before it reaches the caller.
"""

from .backends import (
    DEFAULT_CLOSURE_CAP,
    GROUND_CAP,
    GraphInput,
    build_set_universe,
    graph_separations,
    is_improper,
    side_masks,
)
from .cli import RunConfig, main, run
from .core import (
    OrientedSep,
    SeparationSystem,
    Universe,
    find_inconsistency,
    is_consistent,
    is_orientation,
    is_star,
    system_from_json_dict,
    system_to_json_dict,
)
from .duality import (
    Certificate,
    emulates_for_family,
    find_separator,
    shift_stree,
    standardize,
    strong_duality,
    verify_certificate,
    weak_duality,
)
from .errors import (
    FNotStandard,
    FNotStars,
    HypothesisFailure,
    InternalInvariant,
    MalformedInput,
    NoMatchingStar,
    NotFSeparable,
    RootLabelTrivial,
    ShiftLeftS,
    TangleductError,
    TargetNotAboveR,
    TooLarge,
)
from .essential import (
    essential_core,
    essentialize_stree,
    expand_to_family,
)
from .oracle import (
    CrossCheckReport,
    OrientationCensus,
    cross_check,
    enumerate_orientations,
    orientation_picks,
)
from .stree import (
    STree,
    StarFamily,
    contract_to_tight,
    is_order_respecting,
    is_over,
    prune_to_irredundant,
    star_sort_key,
    tighten_rooted,
    validate_stree,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CrossCheckReport",
    "DEFAULT_CLOSURE_CAP",
    "FNotStandard",
    "FNotStars",
    "GROUND_CAP",
    "GraphInput",
    "HypothesisFailure",
    "InternalInvariant",
    "MalformedInput",
    "NoMatchingStar",
    "NotFSeparable",
    "OrientationCensus",
    "OrientedSep",
    "RootLabelTrivial",
    "RunConfig",
    "STree",
    "SeparationSystem",
    "ShiftLeftS",
    "StarFamily",
    "TangleductError",
    "TargetNotAboveR",
    "TooLarge",
    "Universe",
    "build_set_universe",
    "contract_to_tight",
    "cross_check",
    "emulates_for_family",
    "enumerate_orientations",
    "essential_core",
    "essentialize_stree",
    "expand_to_family",
    "find_inconsistency",
    "find_separator",
    "graph_separations",
    "is_consistent",
    "is_improper",
    "is_order_respecting",
    "is_orientation",
    "is_over",
    "is_star",
    "main",
    "orientation_picks",
    "prune_to_irredundant",
    "run",
    "shift_stree",
    "side_masks",
    "standardize",
    "star_sort_key",
    "strong_duality",
    "system_from_json_dict",
    "system_to_json_dict",
    "tighten_rooted",
    "validate_stree",
    "verify_certificate",
    "weak_duality",
]
