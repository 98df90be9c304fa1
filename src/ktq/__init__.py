"""Knot-theoretic ternary quasigroups, their homology, and link-diagram
invariants."""

from .algebra import (
    OpTable,
    TernaryQuasigroup,
    affine_table,
    check_a3,
    classify,
    derive_divisions,
    enumerate_ktqs,
    hat,
    parse_algebra,
    serialize_algebra,
    validate_quasigroup,
)
from .chains import (
    Chain,
    all_tuples,
    boundary,
    face_l,
    face_r,
    i_relator,
    is_d_degenerate,
    relator_generators,
    reverse_chain,
)
from .diagram import (
    Crossing,
    Diagram,
    associated_chain,
    colorings,
    is_valid_coloring,
    parse_correspondence,
    parse_diagram,
    serialize_diagram,
)
from .errors import FormatError, KtqError, MathError
from .homology import (
    Cochain,
    HomologyVariant,
    NAMED_VARIANTS,
    homology,
    parse_cocycle,
    serialize_cocycle,
    two_cocycles,
)
from .intlinalg import AbelianGroup, kernel_mod
from .invariants import GroupRingElement, invariant_report, state_sum

__version__ = "0.1.0"
