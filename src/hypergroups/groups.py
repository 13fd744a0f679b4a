"""Finite groups as verified multiplication tables, plus subgroup machinery.

Groups enter the library as explicit tables (verified), as permutation
sets (closed under composition) or from a formula (Z/m and D_m, whose
group law is a theorem). Subgroups are bit masks over
the parent's carrier. Everything here feeds the coset constructions.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from .core import (CapExceeded, Frozen, Hypergroup, check_carrier_size, check_mask, mask_of,
                   members)

DEFAULT_GROUP_CAP = 120


class GroupError(ValueError):
    """A would-be group fails some axiom; kind names the first failure."""

    def __init__(self, kind: str, witness=None):
        self.kind = kind
        self.witness = witness
        msg = kind if witness is None else f"{kind} at {witness}"
        super().__init__(msg)


class GroupTable(Frozen):
    """A finite group: table[x][y] is the index of x*y.

    Construction raises GroupError, its kind naming the first check that
    fails: shape, entry range, associativity (lexicographically first bad
    triple), two-sided identity, inverses, names (n of them, unique and
    non-empty). identity and inverse are derived, and left out of ==,
    hash and repr; perms, the permutation realization when there is one,
    out of == and hash.

    Associativity is Light's test (Clifford & Preston, The Algebraic
    Theory of Semigroups, vol. 1): the a with (xa)y = x(ay) for all x, y
    are closed under the product, so it suffices to check the a of a
    generating set A, the one greedy_generators picks. Only when the test
    fails are all n^3 triples scanned, for the first bad one.
    """

    __slots__ = ("names", "table", "identity", "inverse", "perms")
    _fields = ("names", "table", "perms")
    _compared = ("names", "table")
    _defaults = (None,)

    def _check(self):
        table = self.table
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise GroupError("shape")
        for x in range(n):
            for y in range(n):
                if not (0 <= table[x][y] < n):
                    raise GroupError("range", (x, y))
        lists = [list(row) for row in table]
        gens = greedy_generators(n, lambda a: [row[a] for row in lists])
        if any(lists[tx[a]] != [tx[v] for v in lists[a]] for a in gens for tx in lists):
            # row by row: (xy)z over all z against x(yz); z only on a mismatch
            for x, tx in enumerate(lists):
                for y, ty in enumerate(lists):
                    left = lists[tx[y]]
                    if left != [tx[v] for v in ty]:
                        z = next(z for z in range(n) if left[z] != tx[ty[z]])
                        raise GroupError("associativity", (x, y, z))
        identity = next((e for e in range(n)
                         if all(table[e][x] == x and table[x][e] == x for x in range(n))), None)
        if identity is None:
            raise GroupError("identity")
        inverse = []
        for x in range(n):
            y = next((y for y in range(n) if table[x][y] == identity == table[y][x]), None)
            if y is None:
                raise GroupError("inverse", x)
            inverse.append(y)
        if len(self.names) != n or len(set(self.names)) != n or not all(self.names):
            raise GroupError("names")
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", tuple(inverse))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def greedy_generators(n: int, column: Callable[[int], list[int]]) -> dict[int, list[int]]:
    """A generating set A of the n elements, each a with its column
    column(a), the list of v.a over every v.

    A is chosen greedily, adding the greatest element not yet reached,
    where reached is A closed under right multiplication by A; for a group
    that at least doubles the reached subgroup, so |A| <= log2 n + 1.
    In a group of order n > 1 the first element chosen already reaches
    the identity, so an identity at index 0 is never spent as a
    generator. The columns are asked for in the order A is chosen, one
    per element of A.
    """
    cols, reached = {}, bytearray(n)
    while (a := reached.rfind(0)) != -1:
        cols[a] = column(a)
        reached, todo = bytearray(n), list(cols)
        while todo:
            v = todo.pop()
            if not reached[v]:
                reached[v] = 1
                todo += [c[v] for c in cols.values()]
    return cols


def verify_group(table: Sequence[Sequence[int]],
                 names: Optional[Sequence[str]] = None) -> GroupTable:
    """GroupTable(names, rows) with the rows as tuples; the elements are
    named g0, g1, ... when names is None."""
    return GroupTable(tuple(f"g{i}" for i in range(len(table))) if names is None
                      else tuple(names), tuple(tuple(row) for row in table))


def _perm_name(p: tuple[int, ...]) -> str:
    if len(p) <= 10:
        return "".join(str(i) for i in p)
    return ",".join(str(i) for i in p)


def from_permutations(perms: Sequence[Sequence[int]]) -> GroupTable:
    """Build a group from a set of permutations closed under composition.

    Composition is (p*q)[i] = p[q[i]]. Elements are sorted
    lexicographically, which puts the identity first.

    Only n.|A| compositions are made, v*a for every v and each a of the
    greedy generating set A. They prove closure: a finite set closed
    under right multiplication by a set that generates it is a group.
    Column y of the table is then read off the column of its parent y'
    in a tree of right multiplications from the identity, y = y'*a,
    since x*y = (x*y')*a, and y^-1 is the row of 0 in it; the table is
    not checked again. On a composition outside the set, every pair is
    composed in row-major order, for the first such pair.
    """
    ps = sorted({tuple(p) for p in perms})
    if not ps:
        raise GroupError("shape")
    deg = len(ps[0])
    for p in ps:
        if len(p) != deg or sorted(p) != list(range(deg)):
            raise GroupError("range", p)
    index = {p: i for i, p in enumerate(ps)}
    n = len(ps)
    try:
        gens = greedy_generators(
            n, lambda a: [index[tuple(map(p.__getitem__, ps[a]))] for p in ps])
    except KeyError:
        for p in ps:
            for q in ps:
                if tuple(map(p.__getitem__, q)) not in index:
                    raise GroupError("closure", (p, q)) from None
    cols = [None] * n
    cols[0] = list(range(n))
    tree = [0]
    for y in tree:
        for ca in gens.values():
            z = ca[y]
            if cols[z] is None:
                cols[z] = list(map(ca.__getitem__, cols[y]))
                tree.append(z)
    names = tuple(_perm_name(p) for p in ps)
    return GroupTable._proved(names, tuple(zip(*cols)), 0,
                              tuple(col.index(0) for col in cols), tuple(ps))


def check_group_order(order: int, cap: int, shown: object = None) -> None:
    """Refuse a group above the order cap before building it; shown, when
    given, stands for the order in the message."""
    if order > cap:
        raise CapExceeded(f"group order {order if shown is None else shown} exceeds cap {cap}")


def symmetric_group_order(m: int, cap: int = DEFAULT_GROUP_CAP) -> int:
    """m!, once the degree is valid and the order within cap. The product
    stops once it passes cap, so a huge degree is refused at once, as m!."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    order = 1
    for i in range(2, m + 1):
        order *= i
        check_group_order(order, cap, order if i == m else f"{m}!")
    return order


def symmetric_group(m: int, cap: int = DEFAULT_GROUP_CAP) -> GroupTable:
    symmetric_group_order(m, cap)
    return from_permutations(list(itertools.permutations(range(m))))


def cyclic_group(m: int) -> GroupTable:
    """Z/m under addition mod m. x + y mod m is a group law with identity
    0 and inverse -x mod m, so the table is returned proved, unchecked."""
    if m < 1:
        raise ValueError("order must be >= 1")
    table = tuple(tuple(range(x, m)) + tuple(range(x)) for x in range(m))
    return GroupTable._proved(tuple(str(i) for i in range(m)), table, 0,
                              tuple(-x % m for x in range(m)), None)


def dihedral_group(m: int) -> GroupTable:
    """Symmetries of the regular m-gon, order 2m; element i*2+j is r^i s^j.

    (r^i s^j)(r^k s^l) = r^(i + k*(-1)^j) s^(j xor l) is the group law of
    r^m = s^2 = 1, s r s = r^-1, with identity r^0 and inverses
    (r^i)^-1 = r^-i and (r^i s)^-1 = r^i s, so the table is returned
    proved, unchecked.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    table = tuple(tuple(2 * ((i + (k if j == 0 else -k)) % m) + (j ^ l)
                        for k in range(m) for l in range(2))
                  for i in range(m) for j in range(2))
    names = tuple(f"r{i}" if j == 0 else f"r{i}s" for i in range(m) for j in range(2))
    inverse = tuple(2 * (-i % m) if j == 0 else 2 * i + 1 for i in range(m) for j in range(2))
    return GroupTable._proved(names, table, 0, inverse, None)


def as_hypergroup(g: GroupTable):
    """The group as a univalent hypergroup on the same carrier: a group is a
    hypergroup, and GroupTable._check has proved g a group."""
    check_carrier_size(g.n)
    rows = tuple(tuple(1 << g.table[x][y] for y in range(g.n)) for x in range(g.n))
    return Hypergroup._proved(g.names, rows)


class Subgroup(Frozen):
    """A subgroup of parent, as the mask of its elements; checked in range
    and closed. _proved(parent, mask) skips both checks."""

    __slots__ = _fields = ("parent", "mask")

    def _check(self):
        g, m = self.parent, self.mask
        check_mask(m, g.n, GroupError)
        if not (m >> g.identity & 1):
            raise GroupError("identity not in subgroup")
        for x in members(m):
            if not (m >> g.inverse[x] & 1):
                raise GroupError("inverse", x)
            for y in members(m):
                if not (m >> g.table[x][y] & 1):
                    raise GroupError("closure", (x, y))

    @property
    def order(self) -> int:
        return self.mask.bit_count()


def check_subgroup_of(g: GroupTable, h: Subgroup) -> None:
    """Refuse a subgroup of a group other than g."""
    if h.parent != g:
        raise ValueError("subgroup belongs to a different group")


def stabilizer_subgroup(g: GroupTable, point: int) -> Subgroup:
    if g.perms is None:
        raise ValueError("stabilizer needs a permutation realization")
    deg = len(g.perms[0])
    if not (0 <= point < deg):
        raise ValueError(f"point {point} out of range for degree {deg}")
    m = mask_of(i for i, p in enumerate(g.perms) if p[point] == point)
    return Subgroup(g, m)


def coset_relation(g: GroupTable, kmask: int, side: str) -> tuple[int, ...]:
    """Labels of the cosets yK (side "right") or Ky (side "left") of a
    subgroup K, numbered in least-element order: one pass over y gives the
    coset of each unlabelled y the next label."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    check_mask(kmask, g.n, GroupError)
    table, ks = g.table, members(kmask)
    labels, top = [-1] * g.n, 0
    for y in range(g.n):
        if labels[y] == -1:  # y is the least member of its coset
            for z in ([table[y][k] for k in ks] if side == "right" else [table[k][y] for k in ks]):
                labels[z] = top
            top += 1
    return tuple(labels)


def generated(g: GroupTable, gens: int) -> int:
    """Mask of the subgroup generated by the masked elements."""
    check_mask(gens, g.n, GroupError)
    acc = 1 << g.identity
    frontier = acc
    gs = members(gens)  # finite: each inverse is a power of its element
    while frontier:
        new = 0
        for x in members(frontier):
            for s in gs:
                y = g.table[x][s]
                if not (acc >> y & 1):
                    new |= 1 << y
        acc |= new
        frontier = new
    return acc


def overgroups(g: GroupTable, hmask: int,
               cap: int = DEFAULT_GROUP_CAP) -> tuple[Subgroup, ...]:
    """The interval [H, G]: every subgroup containing H, sorted by (order, mask).

    Cyclic extension from H (Neubüser's method): each subgroup above H is
    <K, x> for a smaller one K in the interval, and every element of the
    left coset Kx gives the same <K, x>, so one x per coset is tried, its
    least member, outside K itself. H gets Subgroup's full check; every
    other mask comes from generated, closed by construction.
    """
    check_group_order(g.n, cap)
    found = {Subgroup(g, hmask).mask: hmask}  # subgroup -> generators of it
    todo = [hmask]
    while todo:
        km = todo.pop()
        top = 0
        for x, c in enumerate(coset_relation(g, km, "left")):
            if c == top:  # x is the least member of Kx
                top += 1
                if not km >> x & 1:
                    gens = found[km] | 1 << x
                    ext = generated(g, gens)
                    if ext not in found:
                        found[ext] = gens
                        todo.append(ext)
    return tuple(Subgroup._proved(g, m)
                 for m in sorted(found, key=lambda m: (m.bit_count(), m)))


def subgroups(g: GroupTable, cap: int = DEFAULT_GROUP_CAP) -> tuple[Subgroup, ...]:
    """All subgroups, sorted by (order, mask)."""
    return overgroups(g, 1 << g.identity, cap)


def is_normal(g: GroupTable, hmask: int) -> bool:
    """xH = Hx for every x; H must be a subgroup."""
    return coset_relation(g, hmask, "right") == coset_relation(g, hmask, "left")


def is_maximal(g: GroupTable, hmask: int, cap: int = DEFAULT_GROUP_CAP) -> bool:
    """Proper, and no subgroup sits strictly between it and the group."""
    return len(overgroups(g, hmask, cap)) == 2


def is_invariant_modulo(g: GroupTable, hmask: int, kmask: int) -> bool:
    """K is invariant modulo H: KxK = HxK = KxH for every x.

    Decided as H in K and Kx in HxK for all x, which is equivalent: x = e
    gives K = HK, which contains H; conversely KxK lies in HxKK = HxK,
    which lies in KxK, and inverting Kx in HxK gives yK in KyH for
    y = x^-1, so KyK lies in KyH, which lies in KyK.

    HxK is the union of the cosets yK over y in Hx, so with each y
    labelled by its coset yK, Kx lies in HxK when every label of k.x
    (k in K) is among those of h.x (h in H): O(n(|H| + |K|)) lookups.
    """
    check_mask(hmask, g.n, GroupError)
    check_mask(kmask, g.n, GroupError)
    if hmask & ~kmask:
        return False
    table = g.table
    hs, ks = members(hmask), members(kmask)
    label = [1 << c for c in coset_relation(g, kmask, "right")]  # label[z]: zK, as a bit
    for x in range(g.n):
        seen = 0
        for h in hs:
            seen |= label[table[h][x]]
        for k in ks:
            if not label[table[k][x]] & seen:
                return False
    return True
