"""Reflector congruences, reflets, and simplicity deciders.

A reflector congruence on a hypergroup is an equivalence whose class
projection pulls products back coherently; the quotient is then again a
hypergroup (a reflet). Simplicity means exactly two reflets up to
isomorphism, which for a non-trivial carrier is equivalent to having no
congruence strictly between identity and total. Everything here is
exhaustive search over partitions, pruned, run on a hypergroup or on
the quotient of an adequate presentation, plus the independent
subgroup-side decider for coset structures.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice
from operator import or_
from typing import Iterator

from .core import (
    CapExceeded,
    EquivalenceRelation,
    Frozen,
    Hypergroup,
    find_isomorphism,
    members,
    products,
    quotient_table,
    saturation_identity,
)
from .groups import (
    DEFAULT_GROUP_CAP,
    GroupTable,
    Subgroup,
    check_subgroup_of,
    is_invariant_modulo,
    overgroups,
)
from .presentations import Presentation, quotient

DEFAULT_SIMPLICITY_CAP = 12


def is_reflector_congruence(h: Hypergroup, eq: EquivalenceRelation) -> bool:
    """The three-way saturation identity at every pair.

    For all x, y: sat(x.y) = union of x.y' over y' equivalent to y
    = union of x'.y over x' equivalent to x, where sat closes a subset
    under the equivalence. When this holds the class projection onto
    quotient_by(h, .) satisfies the four pulled-back product identities.
    """
    if eq.n != h.n:
        raise ValueError("relation carrier differs from hypergroup carrier")
    return saturation_identity(products(h), eq.class_of)


class ReflectorCongruence(Frozen):
    """eq, an equivalence on over's carrier that satisfies the saturation
    identity. _proved(over, eq) skips that check."""

    __slots__ = _fields = ("over", "eq")

    def _check(self):
        if not is_reflector_congruence(self.over, self.eq):
            raise ValueError("equivalence fails the saturation identity")


def quotient_by(h: Hypergroup, c: ReflectorCongruence) -> Hypergroup:
    """The reflet: classes, with [x].[y] = classes meeting x.y.

    Under a reflector congruence any representatives give the same class
    set, so only the k² products of the classes' least members are read.
    Classes are named after them, so the identity congruence reproduces h.
    A reflet is a hypergroup (the module docstring), so no axiom is checked.
    """
    if c.over != h:
        raise ValueError("congruence was validated over a different hypergroup")
    least = [(cm & -cm).bit_length() - 1 for cm in c.eq.class_masks]
    triples = (((x, y), w) for x in least for y in least for w in members(h.table[x][y]))
    q = quotient_table(h.names, triples, c.eq.class_of)
    return Hypergroup._proved(q.names, q.table)


def _node_ok(i, k, labels, cmask, rowsum, colsum, table, live, nextrow, nextcol):
    """Whether labels[0..i], in k classes, may still extend to a reflector
    congruence: at each pair of live[i], ..., live[0], every req lies in
    every pos, one test as each req lies in its own pos: the union of the
    reqs inside the meet of the pos. One class or only singletons pass
    untested: a prefix of the total or identity relation, reflector
    congruences of any hypergroup. live leaves out each x.y that is the
    carrier, where every pos is the carrier. No product of a hypergroup is
    empty, so one inside the labelled elements has s1pos = s1req | free."""
    if k == 1 or k == i + 1:
        return True
    pm = (2 << i) - 1  # the labelled elements
    free = ~pm  # the others, as an unbounded mask; -1 stands for all
    sat = {}  # e & pm -> its saturation, for this node's classes
    for x, y in chain.from_iterable(live[i::-1]):
        e = table[x][y]
        ep = e & pm
        s1req = sat.get(ep)
        if s1req is None:
            s1req, rest = 0, ep
            while rest:
                cm = cmask[labels[(rest & -rest).bit_length() - 1]]
                s1req |= cm
                rest &= ~cm
            sat[ep] = s1req
        s1pos = -1 if e & free else s1req | free
        s2req = rowsum[labels[y]][x]
        s3req = colsum[labels[x]][y]
        if (s1req | s2req | s3req) & ~(s1pos & (s2req | nextrow[x]) & (s3req | nextcol[y])):
            return False
    return True


def congruence_search(h: Hypergroup, cap: int = DEFAULT_SIMPLICITY_CAP
                      ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All reflector congruences as (class_of, class_masks) tuple pairs, in
    restricted-growth-string order.

    Backtracking over class labels for elements 0..n-1. At a node with
    elements 0..i labeled, each pair (x, y) of labeled elements yields
    three quantities that must ultimately coincide: the saturation of
    x.y, the row union over the class of y, and the column union over
    the class of x. For each we track the bits already forced (req) and
    the bits still attainable (pos); the node dies when some req escapes
    another's pos. With no elements left the req/pos pairs collapse and
    the test is exactly the final identity, so leaves need no recheck.

    The class masks and the row and column unions over each class are
    kept up to date: labelling i with c ORs column i and row i of the
    table into class c's unions for every x, and unlabelling restores
    the two lists it replaced. A node reads them and computes only the
    saturations, once per distinct x.y restricted to the labelled
    elements. Every labelled pair is re-tested at every node, not just
    those involving i: giving i a label only adds to the req sets and,
    as the suffix unions of unlabelled elements lose i, only shrinks the
    pos sets, so an older pair can fail anew. The pairs involving i go
    first, since a node that fails usually fails on one of them, then
    those involving i - 1, and so on. Two skips cannot change a verdict:
    a pair whose product is the whole carrier is never tested, as it
    passes every inclusion, and a node labelled as a prefix of the total
    or identity relation passes untested, as both are congruences. On a
    table equal to its transpose the test at (y, x) is the one at (x, y)
    with its row and column unions swapped, so only (x, y <= x) is tested.

    The search is a generator that yields the leaves in that fixed order;
    the caller stops it, and no node past the last leaf taken is tested.
    Leaves are tuples, not objects, as most callers only count them.
    """
    n = h.n
    if n > cap:
        raise CapExceeded(f"carrier size {n} exceeds simplicity cap {cap}")
    table, full = h.table, h.full_mask
    cols = list(zip(*table))
    # live[j]: the pairs (j, y <= j), then (x < j, j) unless mirrored, whose x.y is not the carrier
    mirrored = table == tuple(cols)
    live = [[(j, y) for y in range(j + 1) if table[j][y] != full]
            + [(x, j) for x in range(j) if not mirrored and cols[j][x] != full] for j in range(n)]
    # nextrow[j][x]: the union of x.y over y >= j; nextcol[j][y]: of x.y over x >= j
    nextrow = [[0] * n]
    nextcol = [[0] * n]
    for j in range(n - 1, -1, -1):
        nextrow.append(list(map(or_, nextrow[-1], cols[j])))
        nextcol.append(list(map(or_, nextcol[-1], table[j])))
    nextrow.reverse()
    nextcol.reverse()
    labels = [0] * n
    # cmask[c]: the labelled members of class c; rowsum[c][x]: the union of
    # x.y over labelled y in class c; colsum[c][y]: of x.y over labelled x in
    # c. Their lists are replaced, never changed in place, so may share one.
    cmask = [1] + [0] * (n - 1)
    rowsum = [list(cols[0])] + [[0] * n] * (n - 1)
    colsum = [list(table[0])] + [[0] * n] * (n - 1)

    def rec(i: int, top: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if i == n:
            # labels are in restricted-growth order; cmask[:top] are the classes
            yield tuple(labels), tuple(cmask[:top])
            return
        bit, row, col = 1 << i, table[i], cols[i]
        for lab in range(top + 1):
            labels[i], k = lab, max(top, lab + 1)
            rs, cs = rowsum[lab], colsum[lab]
            rowsum[lab] = list(map(or_, rs, col))
            colsum[lab] = list(map(or_, cs, row))
            cmask[lab] |= bit
            if _node_ok(i, k, labels, cmask, rowsum, colsum, table, live,
                        nextrow[i + 1], nextcol[i + 1]):
                # a stop at a leaf leaves the state below unrestored:
                # harmless, as it belongs to this one search
                yield from rec(i + 1, k)
            rowsum[lab], colsum[lab] = rs, cs
            cmask[lab] ^= bit

    try:
        yield from rec(1, 1)
    finally:
        del rec  # rec names itself: a cycle that would hold the state above


def reflector_congruences(h: Hypergroup,
                          cap: int = DEFAULT_SIMPLICITY_CAP) -> list[ReflectorCongruence]:
    """congruence_search's leaves as objects, for the tests and perfbench's count."""
    return [ReflectorCongruence._proved(h, EquivalenceRelation._proved(*leaf))
            for leaf in congruence_search(h, cap)]


def reflets(h: Hypergroup, cap: int = DEFAULT_SIMPLICITY_CAP) -> list[Hypergroup]:
    """Quotients by all reflector congruences, one per isomorphism class.

    Sorted by carrier size, then by the table read as a tuple of rows of
    masks (a canonical tiebreak independent of names).
    """
    kept: list[Hypergroup] = []
    for q in (quotient_by(h, ReflectorCongruence._proved(h, EquivalenceRelation._proved(*leaf)))
              for leaf in congruence_search(h, cap)):
        if all(find_isomorphism(q, other) is None for other in kept):
            kept.append(q)
    kept.sort(key=lambda q: (q.n, q.table))
    return kept


def is_simple(h: Hypergroup, cap: int = DEFAULT_SIMPLICITY_CAP) -> bool:
    """Exactly two reflets: the structure itself and the trivial one.

    Equivalent to having no reflector congruence besides identity and
    total, since a congruence with k classes yields a k-element reflet
    and 1 < k < n gives a third isomorphism type. The trivial hypergroup
    has one reflet, not two, so it is not simple. The search stops at
    the third congruence found.
    """
    return len(list(islice(congruence_search(h, cap), 3))) == 2


def bell_number(n: int) -> int:
    """Number of partitions of an n-set."""
    row = [1]  # a row of Bell's triangle, which starts with B(k)
    for _ in range(n):
        row = list(accumulate(row, initial=row[-1]))
    return row[0]


class SimplicityReport(Frozen):
    """simple, with its evidence: invariant_count, the reflector
    congruences or the subgroups invariant modulo H; checked, the
    candidates decided over, Bell(n) partitions or |[H, G]|; witness,
    the first proper invariant one, if any."""

    __slots__ = _fields = ("simple", "invariant_count", "checked", "witness")
    _defaults = (None,)

    def __bool__(self) -> bool:
        return self.simple


def simplicity_report(h: Hypergroup,
                      cap: int = DEFAULT_SIMPLICITY_CAP) -> SimplicityReport:
    """is_simple's verdict, counting the reflector congruences in one pass.

    Simple when exactly the identity and the total relation qualify; the
    witness is the first congruence strictly between them in
    restricted-growth order. Unlike is_simple the search runs to the end,
    so the count is exact, but only one congruence is held at a time.
    """
    count, witness = 0, None
    for labels, masks in congruence_search(h, cap):
        count += 1
        if witness is None and 1 < len(masks) < h.n:
            witness = EquivalenceRelation._proved(labels, masks)
    return SimplicityReport(count == 2, count, bell_number(h.n), witness)


def presentation_simplicity(p: Presentation,
                            cap: int = DEFAULT_SIMPLICITY_CAP) -> SimplicityReport:
    """Decide simplicity of the quotient by counting invariant coarsenings.

    The invariant coarsenings are the reflector congruences of the
    certified quotient (see simplicity_report). Raises NotAHypergroup (a
    ValueError) when p is not adequate.
    """
    h = Hypergroup.certify(quotient(p))
    if p.k == 1:
        raise ValueError("quotient is trivial, simplicity is undefined for it")
    return simplicity_report(h, cap)


def invariant_modulo_subgroups(g: GroupTable, h: Subgroup,
                               cap: int = DEFAULT_GROUP_CAP) -> list[Subgroup]:
    """All subgroups K with KxK = HxK = KxH for every x, in (order, mask) order.

    Such K lie in the interval [h, g], both ends included.
    """
    check_subgroup_of(g, h)
    return [k for k in overgroups(g, h.mask, cap) if is_invariant_modulo(g, h.mask, k.mask)]


def coset_simplicity_report(g: GroupTable, h: Subgroup,
                            cap: int = DEFAULT_GROUP_CAP) -> SimplicityReport:
    """Simplicity of the coset structure, decided on the interval [h, g].

    Simple when h and g are the only subgroups invariant modulo h (so not
    for h = g); the witness is the first invariant one strictly between.
    """
    check_subgroup_of(g, h)
    interval = overgroups(g, h.mask, cap)
    inv = [k for k in interval if is_invariant_modulo(g, h.mask, k.mask)]
    witness = next((k for k in inv if k.mask not in (h.mask, g.full_mask)), None)
    return SimplicityReport(len(inv) == 2, len(inv), len(interval), witness)


def is_simple_coset(g: GroupTable, h: Subgroup,
                    cap: int = DEFAULT_GROUP_CAP) -> bool:
    """coset_simplicity_report's verdict."""
    return coset_simplicity_report(g, h, cap).simple
