"""Exact combinatorics of maximal rigid interval-decomposable representations.

The library models interval modules on the unit interval subdivided at
breakpoints, decides rigidity through an exact pairwise compatibility
predicate, enumerates maximal rigid configurations directly and through a
finite-quiver correspondence, and evaluates the closed-form counts with
arbitrary-precision integers.  Every nontrivial computation has an
independent oracle exercised by the test suite.
"""

__version__ = "0.1.0"

import types as _types

from .intervals import (
    CLOSED,
    OPEN,
    BoundaryKind,
    EmptyIntervalError,
    Interval,
    InvalidIntervalError,
    InvertedIntervalError,
    Point,
    compatible,
)
from .finite import (
    FiniteInterval,
    LinearQuiver,
    ResourceLimitError,
    RigidSet,
    all_intervals,
    enumerate_maximal_rigid,
    euler_form,
    ext_dim,
    ext_dim_resolution,
    hom_dim,
    hom_dim_bruteforce,
    is_maximal_rigid_set,
    is_rigid_set,
    is_tilting,
)
from .continuous import (
    LEFT,
    RIGHT,
    BadAnchorRangeError,
    BreakpointRep,
    Breakpoints,
    BreakSummand,
    DuplicateFamilyError,
    DuplicateSummandError,
    FamilyChoice,
    InvalidRepError,
    MissingFamilyError,
    NotRigidError,
    Side,
    all_break_summands,
    all_family_choices,
    enumerate_maximal_rigid_reps,
    is_maximal_rigid,
    is_rigid,
    is_uniform,
    sample_offsets,
    validate_rep,
)
from .bridge import (
    NotMaximalRigidImageError,
    RefinedRep,
    condense,
    discretized_compatible,
    expand,
    fiber_reps,
    project,
    pull_back_summands,
    segment_quiver,
)
from .counting import (
    NonPositiveCountError,
    binomial,
    catalan,
    continuous_count,
    projected_count,
)

# Every public, non-module name the imports above bind.
__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
)
