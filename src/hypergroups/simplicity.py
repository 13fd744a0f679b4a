"""Reflector congruences, reflets, and simplicity deciders.

A reflector congruence on a hypergroup is an equivalence whose class
projection pulls products back coherently; the quotient is then again a
hypergroup (a reflet). Simplicity means exactly two reflets up to
isomorphism, which for a non-trivial carrier is equivalent to having no
congruence strictly between identity and total. Everything here is
exhaustive search over partitions, pruned, plus the independent
subgroup-side decider for coset structures.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from operator import or_

from .core import (
    CapExceeded,
    EquivalenceRelation,
    Frozen,
    Hypergroup,
    find_isomorphism,
    products,
    quotient_table,
    saturation_identity,
)
from .groups import (
    DEFAULT_GROUP_CAP,
    GroupTable,
    Subgroup,
    is_invariant_modulo,
    overgroups,
)

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
    set, so every product may be read. Classes are named after their
    least members, so the identity congruence reproduces h itself.
    """
    if c.over != h:
        raise ValueError("congruence was validated over a different hypergroup")
    return Hypergroup.certify(quotient_table(h.names, products(h), c.eq.class_of))


def _node_ok(i, labels, cmask, rowsum, colsum, table, nextrow, nextcol):
    """Whether labels[0..i] may still extend to a reflector congruence:
    the six req/pos inclusions at every labelled pair, pairs with i first."""
    pm = (2 << i) - 1  # the labelled elements
    free = ~pm  # the others, as an unbounded mask; -1 stands for all
    sat = {}  # e & pm -> its saturation, for this node's classes
    for x, y in chain(zip(repeat(i), range(i + 1)), zip(range(i), repeat(i)),
                      product(range(i), repeat=2)):
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
        if e & free:
            s1pos = -1
        elif e:
            s1pos = s1req | free
        else:
            s1pos = 0
        s2req = rowsum[labels[y]][x]
        s2pos = s2req | nextrow[x]
        s3req = colsum[labels[x]][y]
        s3pos = s3req | nextcol[y]
        if (s2req & ~s1pos or s3req & ~s1pos
                or s1req & ~s2pos or s1req & ~s3pos
                or s2req & ~s3pos or s3req & ~s2pos):
            return False
    return True


def reflector_congruences(h: Hypergroup,
                          cap: int = DEFAULT_SIMPLICITY_CAP,
                          limit: int | None = None) -> list[ReflectorCongruence]:
    """All reflector congruences, in restricted-growth-string order.

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
    first, since a node that fails usually fails on one of them.

    limit, when given, stops the search after that many congruences
    (is_simple uses 3: any third congruence settles the verdict).
    """
    n = h.n
    if n > cap:
        raise CapExceeded(f"carrier size {n} exceeds simplicity cap {cap}")
    table = h.table
    cols = list(zip(*table))
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
    out: list[ReflectorCongruence] = []

    def rec(i: int, top: int) -> bool:
        if i == n:
            # labels are in restricted-growth order; cmask[:top] are the classes
            eq = EquivalenceRelation._proved(tuple(labels), tuple(cmask[:top]))
            out.append(ReflectorCongruence._proved(h, eq))
            return limit is not None and len(out) >= limit
        bit, row, col = 1 << i, table[i], cols[i]
        for lab in range(top + 1):
            labels[i] = lab
            rs, cs = rowsum[lab], colsum[lab]
            rowsum[lab] = list(map(or_, rs, col))
            colsum[lab] = list(map(or_, cs, row))
            cmask[lab] |= bit
            stop = (_node_ok(i, labels, cmask, rowsum, colsum, table,
                             nextrow[i + 1], nextcol[i + 1])
                    and rec(i + 1, max(top, lab + 1)))
            rowsum[lab], colsum[lab] = rs, cs
            cmask[lab] ^= bit
            if stop:
                return True
        return False

    rec(1, 1)
    return out


def reflets(h: Hypergroup, cap: int = DEFAULT_SIMPLICITY_CAP) -> list[Hypergroup]:
    """Quotients by all reflector congruences, one per isomorphism class.

    Sorted by carrier size, then by the table read as a tuple of rows of
    masks (a canonical tiebreak independent of names).
    """
    quotients = [quotient_by(h, c) for c in reflector_congruences(h, cap)]
    kept: list[Hypergroup] = []
    for q in quotients:
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
    return len(reflector_congruences(h, cap, limit=3)) == 2


def bell_number(n: int) -> int:
    """Number of partitions of an n-set."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
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
    """is_simple's verdict from the full list of reflector congruences.

    Simple when exactly the identity and the total relation qualify; the
    witness is the first congruence strictly between them in
    restricted-growth order. Unlike is_simple the search runs to the end,
    so the count is exact.
    """
    found = reflector_congruences(h, cap)
    witness = next((c.eq for c in found if 1 < c.eq.k < h.n), None)
    return SimplicityReport(len(found) == 2, len(found), bell_number(h.n), witness)


def invariant_modulo_subgroups(g: GroupTable, h: Subgroup,
                               cap: int = DEFAULT_GROUP_CAP) -> list[Subgroup]:
    """All subgroups K with KxK = HxK = KxH for every x, in (order, mask) order.

    Such K lie in the interval [h, g], both ends included.
    """
    return [k for k in overgroups(g, h.mask, cap) if is_invariant_modulo(g, h.mask, k.mask)]


def coset_simplicity_report(g: GroupTable, h: Subgroup,
                            cap: int = DEFAULT_GROUP_CAP) -> SimplicityReport:
    """Simplicity of the coset structure, decided on the interval [h, g].

    Simple when h and g are the only subgroups invariant modulo h (so not
    for h = g); the witness is the first invariant one strictly between.
    """
    interval = overgroups(g, h.mask, cap)
    inv = [k for k in interval if is_invariant_modulo(g, h.mask, k.mask)]
    witness = next((k for k in inv if k.mask not in (h.mask, g.full_mask)), None)
    return SimplicityReport(len(inv) == 2, len(inv), len(interval), witness)


def is_simple_coset(g: GroupTable, h: Subgroup,
                    cap: int = DEFAULT_GROUP_CAP) -> bool:
    """coset_simplicity_report's verdict."""
    return coset_simplicity_report(g, h, cap).simple
