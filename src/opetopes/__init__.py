"""Two combinatorial encodings of opetopes, their validators and translations.

The poset side stores an opetope as a graded face poset (a face complex);
the tree side as a zoom complex of rooted trees linked by exact
constellations.  The translations between the two are implemented in
to_zoom and to_poset, round-trip witnesses in equivalence, brute-force
re-checks of the structural facts in oracle, and a seeded random
generator of valid instances in generator.
"""

from .diagnostics import (
    Diagnostic,
    IncomparableLoops,
    InternalError,
    NotAnIsomorphism,
    ParseError,
    RoundTripBroken,
    ValidationError,
)
from .poset import (
    LOOP,
    MINUS,
    PLUS,
    Dfc,
    ManyToOnePoset,
    delta_tree,
    dfc_diagnostics,
    dfc_validate,
    mop_diagnostics,
    mop_validate,
    path_order,
    sign_product,
)
from .trees import (
    Opetope,
    RootedTree,
    SubdividedTree,
    constellation_diagnostics,
    descendant_dots,
    opetope_diagnostics,
    opetope_validate,
    subdivided_as_tree,
    tree_diagnostics,
    tree_validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
