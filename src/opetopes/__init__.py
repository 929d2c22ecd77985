"""Two combinatorial encodings of opetopes, their validators and translations.

The poset side stores an opetope as a graded face poset (a face complex);
the tree side as a zoom complex of rooted trees linked by exact
constellations.  The translations between the two are implemented in
to_zoom and to_poset, round-trip witnesses and isomorphism search in
equivalence, and a seeded random generator of valid instances in
generator.  oracle is the reference side: the paper's constructions
that the command line never runs (path orders, source trees, whitedot
orders through loop paths, the functors' actions on isomorphisms) and
brute-force re-checks of the structural facts.
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
    dfc_diagnostics,
    dfc_validate,
    mop_diagnostics,
    mop_from_doc,
    mop_validate,
)
from .trees import (
    Opetope,
    RootedTree,
    constellation_diagnostics,
    opetope_diagnostics,
    opetope_validate,
    tree_diagnostics,
)

__all__ = [name for name in dir() if not name.startswith("_")]
