"""Many-to-one posets and the face complexes built on them.

A many-to-one poset is a finite graded set of cells; each cell x of dimension >= 0 has a
set of sources delta(x) and a single target gamma(x), one dimension down.
A facet relation y < x carries a sign: minus (y a proper source), plus
(y the proper target) or loop (y simultaneously source and target).  A face complex
is such a poset with a greatest element, plus-cofaces for loops, oriented thinness
(unique sign-rule lozenge completions) and acyclic facet flow.  Validators
collect every violation instead of stopping at the first one.

A document becomes a poset in one read (mop_from_doc), which checks its
JSON types as it goes, takes an id to be a non-empty string as the
opetope reader does, edits nothing, and leaves out what it cannot place
and reports it; mop_validate adds the poset axioms and returns that same
poset, which dfc_validate checks as a face complex.
The face-complex check is defined only on a poset that mop_validate
returned: it trusts the poset axioms and does not test regularity again.
On a valid document the reading is a set test per record, and only a
record that fails it is listed reference by reference.
The signs add nothing to delta and gamma: sign(y, x) reads them, and
facets(x) lists delta(x) | gamma(x) in id order.  The constructor stores
the cells in id order, the one order every reader uses, and its one pass
grades them and reads the strata straight off delta/gamma: lam, the cells
of dim >= 0 in no gamma(x) - delta(x), and loops, the cells with
delta = gamma nonempty, and it adopts the maps it is handed.  The
face-complex checks decide each cell x from delta and gamma alone:
oriented thinness with the sign rule says that the boundary of the
boundary of x cancels, each cell below a facet of x met
once with each sign, which takes a few list and set operations per facet
of x instead of a walk over every chain z < y < x.  Only a cell that
fails is walked chain by chain, to list its faults; the local orders
are checked against one map from (x, z) to the sources of x that loop
on z, built in one pass over the cells of lam whose delta holds a cell
that mop_diagnostics' pass found looping, and the x of each stored order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .diagnostics import Diagnostic, ParseError, ValidationError, check_id, check_ids, make, sort_key

MINUS = "-"
PLUS = "+"
LOOP = "o"


class ManyToOnePoset:
    """Graded cell set with source/target facet maps and local loop orders.

    Its builders, mop_from_doc (checked by mop_validate) and
    to_poset.p_image, convert each map once and the constructor adopts it
    as handed: dim and a frozenset delta and gamma for every cell, and
    local_orders mapping (x, z) to a tuple, the stored order of the loops
    on z among the sources of x.  Immutable by convention.  cells are
    stored in id order; the strata lam and loops are read off delta/gamma
    in the constructor's one pass.
    """

    def __init__(self, dim, delta, gamma, local_orders):
        self.cells = tuple(sorted(dim))
        self.dim, self.delta, self.gamma, self.local_orders = dim, delta, gamma, local_orders

        self._by_dim: dict[int, list[str]] = {}
        proper_targets: set[str] = set()
        loops = []
        for x in self.cells:
            self._by_dim.setdefault(dim[x], []).append(x)
            d, g = delta[x], gamma[x]
            if d == g:
                if d:
                    loops.append(x)
            else:
                proper_targets.update(g - d)
        # the strata: lam, the cells of dim >= 0 that are never a proper target, and the loops
        self.lam = frozenset(c for c in self.cells if dim[c] >= 0 and c not in proper_targets)
        self.loops = frozenset(loops)

    # -- basic queries -------------------------------------------------

    @property
    def bottom(self) -> str:
        return self._by_dim[-1][0]

    @property
    def dimension(self) -> int:
        return max(self._by_dim)

    def grade(self, k: int) -> tuple[str, ...]:
        return tuple(self._by_dim.get(k, ()))

    def sign(self, y: str, x: str) -> str | None:
        """Sign of the facet relation y < x, or None when unrelated."""
        in_delta = y in self.delta[x]
        in_gamma = y in self.gamma[x]
        if in_delta and in_gamma:
            return LOOP
        if in_delta:
            return MINUS
        if in_gamma:
            return PLUS
        return None

    def facets(self, x: str) -> tuple[str, ...]:
        """The facets of x in id order."""
        return tuple(sorted(self.delta[x] | self.gamma[x]))

    def delta_minus(self, x: str) -> frozenset[str]:
        return self.delta[x] - self.gamma[x]

    def gamma_cell(self, x: str) -> str:
        """The unique target of x (dim(x) >= 0)."""
        (t,) = self.gamma[x]
        return t


# -- MOP validation ----------------------------------------------------


def mop_from_doc(doc) -> tuple[ManyToOnePoset, list[Diagnostic]]:
    """The poset a document describes, and the id-level faults met while reading it.

    The one reader of a face-complex document: ParseError on the first
    field of the wrong JSON type, met cell by cell (id, delta, gamma),
    then local order by local order, where an id, as in an opetope
    document, is a non-empty string (diagnostics.check_id).  An absent
    delta, gamma or local_orders reads as empty; the document is not
    edited.  A cell with a repeated id is left out, and so is a reference
    to an unknown or repeated facet, or a local order on unknown cells.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise ParseError("a DFC document is an object with a 'cells' array")
    out: list[Diagnostic] = []
    seen: set[str] = set()
    kept = []  # the first record of each good id
    for i, rec in enumerate(doc["cells"]):
        if not isinstance(rec, dict) or "id" not in rec:
            raise ParseError("each cell is an object with at least an 'id'")
        cid, delta, gamma = rec["id"], rec.get("delta", []), rec.get("gamma", [])
        # the common case, decided without a JSON path per field
        if not (type(cid) is str and cid and type(delta) is list and type(gamma) is list and all(type(v) is str and v for v in delta + gamma)):
            check_id(cid, ("cells", i, "id"))
            check_ids(delta, ("cells", i, "delta"))
            check_ids(gamma, ("cells", i, "gamma"))
        if cid in seen:
            out.append(make("DuplicateId", [cid], "cell ids", f"cell id {cid!r} appears twice"))
            continue
        seen.add(cid)
        kept.append(rec)
    # the local orders need only the ids, so a wrong type in them is met before any facet set is built
    orders = doc.get("local_orders", [])
    if not isinstance(orders, list):
        raise ParseError("local_orders must be an array")
    local_orders = {}
    for i, rec in enumerate(orders):
        if not isinstance(rec, dict) or not rec.keys() >= {"x", "z", "order"}:
            raise ParseError("each local order is an object with 'x', 'z' and 'order'")
        x, z, seq = rec["x"], rec["z"], rec["order"]
        check_id(x, ("local_orders", i, "x"))
        check_id(z, ("local_orders", i, "z"))
        check_ids(seq, ("local_orders", i, "order"))
        bad = [r for r in [x, z, *seq] if r not in seen]
        if bad:
            out.append(make("DanglingId", bad, "local orders", "local order references unknown cells"))
            continue
        if (x, z) in local_orders:
            out.append(make("DuplicateLocalOrder", [x, z], "local orders", f"two local orders stored at ({x!r}, {z!r})"))
            continue
        local_orders[(x, z)] = tuple(seq)
    dim, delta, gamma = {}, {}, {}
    for rec in kept:
        cid = rec["id"]
        d = rec.get("dim")
        if type(d) is not int or d < -1:  # a JSON true or false is not a dimension
            out.append(make("BadDimension", [cid], "gradation", f"dim of {cid!r} must be an integer >= -1"))
            d = -1
        dim[cid] = d
        for key, store in (("delta", delta), ("gamma", gamma)):
            refs = rec.get(key, [])
            facets = frozenset(refs)
            if len(facets) == len(refs) and facets <= seen:  # each a known cell, listed once
                store[cid] = facets
                continue
            ok = []
            local_seen = set()
            for r in refs:
                if r not in seen:
                    out.append(make("DanglingId", [cid, r], "cell ids", f"{key} of {cid!r} references unknown cell {r!r}"))
                elif r in local_seen:
                    out.append(make("DuplicateFacet", [cid, r], "cell ids", f"{key} of {cid!r} lists {r!r} twice"))
                else:
                    local_seen.add(r)
                    ok.append(r)
            store[cid] = frozenset(ok)
    return ManyToOnePoset(dim, delta, gamma, local_orders), out


def mop_diagnostics(mop: ManyToOnePoset) -> list[Diagnostic]:
    """Every violation of the many-to-one poset axioms; the facets of a poset read by mop_from_doc are all cells."""
    out: list[Diagnostic] = []
    if not mop.cells:
        return [make("BottomMissing", [], "bottom cell", "empty cell set")]

    bottoms = mop.grade(-1)
    if len(bottoms) == 0:
        out.append(make("BottomMissing", [], "bottom cell", "no cell of dimension -1"))
    elif len(bottoms) > 1:
        out.append(make("BottomNotUnique", bottoms, "bottom cell", "more than one cell of dimension -1"))
    for b in bottoms:
        if mop.delta[b] or mop.gamma[b]:
            out.append(make("BottomBoundary", [b], "bottom cell", "the bottom cell must have empty delta and gamma"))

    looping = set()  # the cells whose delta meets their gamma, the only possible loop sources
    for x in mop.cells:
        k, d, g = mop.dim[x], mop.delta[x], mop.gamma[x]
        inter = d & g
        if inter:
            looping.add(x)
        if k < 0:
            continue
        if len(g) != 1:
            out.append(make("GammaNotSingleton", [x], "gamma is a singleton", f"gamma of {x!r} has {len(g)} elements"))
        for y in d | g:
            if mop.dim[y] != k - 1:
                out.append(make("GradationBroken", [x, y], "gradation", f"facet {y!r} of {x!r} is not one dimension down"))
        if inter and d != g:
            out.append(make("LoopAxiomViolated", [x], "delta meets gamma only on loops", f"delta and gamma of {x!r} overlap without being equal"))
        if k == 0:
            if bottoms and (g != frozenset(bottoms[:1]) or d):
                out.append(make("ZeroCellBoundary", [x], "0-cells sit on the bottom", f"0-cell {x!r} must have empty delta and the bottom cell as gamma"))

    out.extend(_local_order_diagnostics(mop, looping))
    return sorted(set(out), key=sort_key)


def _local_order_diagnostics(mop: ManyToOnePoset, looping: set[str]) -> list[Diagnostic]:
    """The local-order faults; looping holds every cell whose delta meets its gamma (mop_diagnostics' pass)."""
    # only a cell with a looping cell in its delta can need a stored order
    needing = {x for x in mop.lam if mop.dim[x] >= 1 and not looping.isdisjoint(mop.delta[x])} if looping else set()
    sources: dict[tuple[str, str], set[str]] = {}  # (x, z): the proper sources of x that are loops on z
    for x in needing.union(x for x, _ in mop.local_orders):
        for y in mop.delta_minus(x) & looping:
            for z in mop.delta[y] & mop.gamma[y]:
                sources.setdefault((x, z), set()).add(y)
    required = {key for key, ys in sources.items() if len(ys) >= 2 and key[0] in needing}
    out = []  # in no order: mop_diagnostics sorts what it reports
    for x, z in required - mop.local_orders.keys():
        out.append(make("LocalOrderMissing", [x, z], "local order", f"{x!r} has several loop sources on {z!r} but no stored order"))
    for (x, z), seq in mop.local_orders.items():
        stored = set(seq)
        if len(stored) != len(seq) or stored != sources.get((x, z), set()):
            out.append(make("LocalOrderInvalid", [x, z, *seq], "local order", f"stored order at ({x!r}, {z!r}) is not an enumeration of the loop sources"))
    return out


def mop_validate(doc: dict) -> ManyToOnePoset:
    """The poset of a document, or ValidationError with every fault of its reading and every axiom it breaks (ParseError as mop_from_doc)."""
    mop, read = mop_from_doc(doc)
    diags = set(read).union(mop_diagnostics(mop))  # a fault read twice is reported once
    if diags:
        raise ValidationError(diags)
    return mop


# -- DFC validation ----------------------------------------------------


@dataclass(frozen=True)
class Dfc:
    """A validated face complex.

    iterated_targets[j] is the j-dimensional cell reached from the greatest
    element by iterating gamma.  The strata live on the poset: mop.lam and
    mop.loops, read per dimension by filtering mop.grade(k).
    """

    mop: ManyToOnePoset
    omega: str
    iterated_targets: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return self.mop.dimension

    @property
    def degenerate(self) -> bool:
        """Whether the 1-dimensional iterated target is a loop: the face-complex reading of trees.Opetope.degenerate."""
        return self.dimension >= 2 and self.iterated_targets[1] in self.mop.loops

    @property
    def bottom(self) -> str:
        return self.mop.bottom


def _keeps_facet_flow(mop: ManyToOnePoset, x: str, dm: dict, gm: dict) -> bool:
    """Whether the non-loop cell x of a regular poset is thin, keeps the sign rule and has an acyclic facet flow.

    dm and gm map each cell to its proper sources and proper targets
    (_facet_flow_diagnostics).  The chains z < y < x whose two signs multiply to +
    list z in plus, those whose signs multiply to - list z in minus: the
    two halves of the boundary of the boundary of x.  x is thin and keeps
    the sign rule exactly when they cancel, each z met once in each, that
    is when plus and minus repeat nothing and hold the same cells.
    """
    dx = mop.delta[x]
    (t,) = mop.gamma[x]
    plus = [*chain.from_iterable(map(dm.__getitem__, dx)), *gm[t]]
    minus = [*chain.from_iterable(map(gm.__getitem__, dx)), *dm[t]]
    covered = set(plus)
    if not (len(covered) == len(plus) == len(minus) and covered == set(minus)):
        return False
    loops = mop.loops
    if not loops.isdisjoint(dx):
        # a loop chain z <o y <- x needs another chain through z: a signed
        # one (now all in covered) or one through the target
        covered.update(mop.delta[t], mop.gamma[t])
        if not all(z in covered for y in dx if y in loops for z in mop.delta[y]):
            return False
    # The facet flow, b -> a when the target of b is a proper source of a.
    # A loop has no proper source and so no edge in.  The target t of x,
    # unless a loop, has no edge out: a proper source a of x with the
    # target of t among its proper sources would put that cell in plus
    # twice.  So a cycle runs through proper sources with proper sources
    # of their own, and along them the flow is a function, since each of
    # their proper sources is met once in plus.
    sources = [a for a in dx if dm[a]]
    if len(sources) < 2:
        return True
    owner = {z: a for a in sources for z in dm[a]}
    flow = {b: owner.get(w) for b in sources for w in mop.gamma[b]}
    walked: dict[str, int] = {}  # the source each walk set out from, by index
    for i, b in enumerate(sources):
        while b is not None and b not in walked:
            walked[b] = i
            b = flow.get(b)
        if b is not None and walked[b] == i:
            return False
    return True


def _facet_flow_diagnostics(mop: ManyToOnePoset) -> list[Diagnostic]:
    """Oriented thinness and acyclicity, decided per cell from delta and gamma; a cell that fails is listed chain by chain.

    The poset is regular, as mop_validate left it and untested here, so the
    proper sources and targets are delta and gamma emptied on the loops.
    """
    dm, gm, loops = mop.delta, mop.gamma, mop.loops
    if loops:
        proper = dict.fromkeys(loops, frozenset())
        dm, gm = {**dm, **proper}, {**gm, **proper}
    out = []
    for x in mop.cells:
        if mop.dim[x] >= 1 and x not in loops and not _keeps_facet_flow(mop, x, dm, gm):
            out.extend(_facet_flow_listing(mop, x))
    return out


def _facet_flow_listing(mop: ManyToOnePoset, x: str) -> list[Diagnostic]:
    """Every thinness, sign-rule and acyclicity violation at x, from one walk over the facets of its facets."""
    out = []
    # per facet z of a facet: the signed chains z < y < x as (y, alpha, beta), how many
    # y are not loops on z below a source, and the facets y with z as proper source
    signed: dict[str, list[tuple[str, str, str]]] = {}
    other: dict[str, int] = {}
    sources_on: dict[str, list[str]] = {}
    loop_chains = []  # (z, y) with y a loop on z and a proper source of x
    fac = mop.facets(x)
    for y in fac:
        alpha = mop.sign(y, x)
        for z in mop.facets(y):
            beta = mop.sign(z, y)
            if beta == MINUS:
                sources_on.setdefault(z, []).append(y)
            if alpha == MINUS and beta == LOOP:
                loop_chains.append((z, y))
                continue
            other[z] = other.get(z, 0) + 1
            if alpha != LOOP and beta != LOOP:
                signed.setdefault(z, []).append((y, alpha, beta))
    # a signed chain's completions are the other signed chains through its z
    for z, chains in signed.items():
        for y, alpha, beta in chains:
            comps = [c for c in chains if c[0] != y]
            if not comps:
                out.append(make("ThinnessMissingCompletion", [z, y, x], "oriented thinness", f"chain {z!r} <{beta} {y!r} <{alpha} {x!r} has no completion"))
            elif len(comps) > 1:
                out.append(make("ThinnessNonUnique", [z, y, x] + [c[0] for c in comps], "oriented thinness", f"chain {z!r} <{beta} {y!r} <{alpha} {x!r} has {len(comps)} completions"))
            else:
                y2, alpha2, beta2 = comps[0]
                # the sign rule: a lozenge carries an odd number of - among its four signs
                if (alpha, beta, alpha2, beta2).count(MINUS) % 2 == 0:
                    out.append(make("SignRuleViolated", [z, y, x, y2], "sign rule", f"lozenge over {z!r} < {y!r},{y2!r} < {x!r} breaks the sign rule"))
    for z, y in loop_chains:
        if not other.get(z):
            out.append(make("LoopChainMissingCompletion", [z, y, x], "oriented thinness (loop chains)", f"chain {z!r} <o {y!r} <- {x!r} has no admissible completion"))
    # the facet flow: b -> a when the target of b is a proper source of a
    # (on a poset mop_validate returned, each facet b of x has dim >= 0 and one target)
    succ = {b: [a for a in sources_on.get(mop.gamma_cell(b), ()) if a != b] for b in fac}
    cycle = _find_cycle(fac, succ)
    if cycle:
        out.append(make("AcyclicityCycle", [x, *cycle], "acyclicity", f"facet flow of {x!r} has a directed cycle"))
    return out


def _find_cycle(vertices, succ) -> list[str] | None:
    """The first directed cycle a depth-first search meets, closed by its first vertex."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in vertices}
    for root in vertices:
        if color[root] != WHITE:
            continue
        color[root] = GREY
        path, pending = [root], [iter(succ[root])]  # pending[i]: unexplored successors of path[i]
        while pending:
            for w in pending[-1]:
                if color[w] == GREY:
                    return path[path.index(w):] + [w]
                if color[w] == WHITE:
                    color[w] = GREY
                    path.append(w)
                    pending.append(iter(succ[w]))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


def dfc_diagnostics(mop: ManyToOnePoset) -> list[Diagnostic]:
    """Every face-complex axiom violation of a poset that mop_validate returned, the only posets it is defined on.

    Regularity and the other poset axioms, local orders included, are not tested again.
    """
    out: list[Diagnostic] = []
    # every facet lies one dimension down (mop_diagnostics), so climbing
    # cofaces from any cell ends at a maximal cell: one maximal cell is greatest
    faces = set().union(*mop.delta.values(), *mop.gamma.values())
    maximal = [c for c in mop.cells if c not in faces]
    if len(maximal) != 1:
        out.append(make("NoGreatestElement", maximal, "greatest element", f"{len(maximal)} maximal cells"))
    elif mop.dim[maximal[0]] < 0:  # a greatest 0-cell is the point {bottom < p}, the 0-opetope
        out.append(make("NoGreatestElement", maximal, "greatest element", "the bottom cell is the only maximal cell"))

    # a loop has a plus-coface exactly when it is a proper target
    for y in sorted(mop.loops & mop.lam):
        out.append(make("LoopWithoutPlusCoface", [y], "loops", f"loop {y!r} has no cell with {y!r} as proper target"))

    out.extend(_facet_flow_diagnostics(mop))
    return sorted(set(out), key=sort_key)


def dfc_validate(mop: ManyToOnePoset) -> Dfc:
    """The face complex on a poset that mop_validate returned (regularity not re-tested), or ValidationError."""
    diags = dfc_diagnostics(mop)
    if diags:
        raise ValidationError(diags)
    return trusted_dfc(mop)


def trusted_dfc(mop: ManyToOnePoset) -> Dfc:
    """The face complex on a poset known to satisfy its axioms; checks nothing."""
    n = mop.dimension
    (omega,) = mop.grade(n)  # the greatest element is the only top-dimensional cell
    targets = [omega]
    for _ in range(n):
        targets.append(mop.gamma_cell(targets[-1]))
    targets.reverse()  # index j = the j-dimensional iterated target
    return Dfc(mop, omega, tuple(targets))
