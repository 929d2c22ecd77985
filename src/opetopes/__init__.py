"""Two combinatorial encodings of opetopes, their validators and translations.

The poset side stores an opetope as a graded face poset (a face complex);
the tree side as a zoom complex of rooted trees linked by exact
constellations.  The translations between the two are implemented in
to_zoom and to_poset, round-trip witnesses and isomorphism search in
equivalence, and a seeded random generator of valid instances in
generator.  oracle is the reference side: the paper's constructions
that the command line never runs (path orders, source trees, whitedot
orders through loop paths, the functors' actions on isomorphisms) and
brute-force re-checks of the structural facts.  The package re-exports
nothing: each name is imported from the module that defines it.
"""
