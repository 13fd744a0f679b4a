"""Ways of making hypergroups.

Four families live here: coset structures on a group modulo an arbitrary
subgroup, the stabilizer tables they specialize to, the one-parameter
S(n, sizes) family interpolating beyond them, and the Utumi sum built
from a hypergroup plus a partition of its carrier. The canonical
presentation closes the loop: any multistructure is exhibited as a
quotient of a partial univalent operation.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import Sequence

from .core import (
    CapExceeded,
    Hypergroup,
    Multistructure,
    Frozen,
    check_carrier_size,
    is_group,
    members,
    product_of_sets,
    products,
    quotient_table,
    verify_axioms,
)
from .groups import (
    DEFAULT_GROUP_CAP,
    GroupTable,
    Subgroup,
    check_group_order,
    check_subgroup_of,
    coset_relation,
    from_permutations,
    stabilizer_subgroup,
)
from .presentations import (
    DEFAULT_TRAME_CAP,
    Presentation,
    Trame,
)


def _coset_structure(g: GroupTable, h: Subgroup, side: str) -> Hypergroup:
    # the group's multiplication read on cosets, named xH or Hx after
    # their least members. x.(y.h) and (h.x).y lie in the coset of x.y, so
    # every x times each least y (on xH), or each least x times every y
    # (on Hx), gives every product of cosets: n.k triples, k the index.
    # A hypergroup: both bracketings of xH.yH.zH give the cosets in xHyHzH, as on Hx
    check_subgroup_of(g, h)
    labels, least, table = coset_relation(g, h.mask, side), [], g.table
    for x, c in enumerate(labels):
        if c == len(least):  # x is the least member of its coset
            least.append(x)
    form, xs, ys = ("{}H", range(g.n), least) if side == "right" else ("H{}", least, range(g.n))
    triples = (((x, y), table[x][y]) for x in xs for y in ys)
    q = quotient_table(tuple(form.format(s) for s in g.names), triples, labels)
    return Hypergroup._proved(q.names, q.table)


def right_coset_hypergroup(g: GroupTable, h: Subgroup) -> Hypergroup:
    """Classes xH with (xH).(yH) = set of cosets meeting xHyH."""
    return _coset_structure(g, h, "right")


def left_coset_hypergroup(g: GroupTable, h: Subgroup) -> Hypergroup:
    """Classes Hx; the opposite of the right-coset structure."""
    return _coset_structure(g, h, "left")


def stabilizer_hypergroup(alpha: int) -> Hypergroup:
    """s_family((alpha,)), the coset space of S_alpha over a point stabilizer
    H: for y not in H, HyH is every permutation that moves the point, so
    x.y = K minus {x}, and e is right-neutral; x.x.x is K once alpha >= 3."""
    m = s_family((alpha,))
    return Hypergroup._proved(m.names, m.table)


def _s_family_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """sizes as a tuple, refused unless every block has size >= 1."""
    sizes = tuple(sizes)
    if not sizes or sizes[0] < 1:
        raise ValueError("need a first block of size >= 1")
    if any(p < 1 for p in sizes[1:]):
        raise ValueError("block sizes must be >= 1")
    return sizes


def s_family(sizes: Sequence[int]) -> Multistructure:
    """The table S(n, p_1..p_b) on K = A_0 + A_1 + ... (disjoint blocks).

    A_0 has size n and carries the distinguished element e = first of
    A_0. Products: x.e = {x}; for y in A_0 minus e, x.y = (block of x)
    minus {x}; for y = a_j in a later block A_j (j >= 1) and x in A_i,
    x.y = K minus A_i. Blocks A_i for i >= 1 may have any size p_i; the
    table is a multistructure, not always a hypergroup.
    """
    sizes = _s_family_sizes(sizes)
    n = sizes[0]
    total = sum(sizes)
    check_carrier_size(total)
    names = ["e"] + [f"y{i}" for i in range(1, n)]
    for b, p in enumerate(sizes[1:], start=1):
        names += [f"a{b}_{j}" for j in range(1, p + 1)]
    full = (1 << total) - 1
    table = []
    for lo, p in zip(itertools.accumulate(sizes, initial=0), sizes):
        block = (1 << lo + p) - (1 << lo)
        # x.y reads y only through its block: e, the rest of A_0, a later block
        table += [(1 << x,) + (block ^ 1 << x,) * (n - 1) + (full ^ block,) * (total - n)
                  for x in range(lo, lo + p)]
    return Multistructure(tuple(names), tuple(table))


class SFamilyClass(Enum):
    DHypergroup = "coset-realizable hypergroup"
    HypergroupNotD = "hypergroup but not a coset structure"
    EmptyProduct = "has an empty product"
    NotAssociative = "not associative"


def s_family_class(sizes: Sequence[int]) -> SFamilyClass:
    """Which of the four regimes the parameters fall in.

    In order: all blocks of size n (coset-realizable); n >= 3 with all
    sizes >= 3 and some size differing from n (hypergroup, never a coset
    structure); n >= 2 with some later block a singleton (an empty
    product appears); everything else (associativity fails). Refuses
    the sizes s_family refuses, except a carrier wider than the masks.
    """
    sizes = _s_family_sizes(sizes)
    n = sizes[0]
    rest = sizes[1:]
    if all(p == n for p in rest):
        return SFamilyClass.DHypergroup
    if n >= 3 and all(p >= 3 for p in rest):
        return SFamilyClass.HypergroupNotD
    if n >= 2 and any(p == 1 for p in rest):
        return SFamilyClass.EmptyProduct
    return SFamilyClass.NotAssociative


def s_family_group_realization(sizes: Sequence[int],
                               cap: int = DEFAULT_GROUP_CAP
                               ) -> tuple[GroupTable, Subgroup]:
    """A group G and subgroup H with G/H isomorphic to S(n, n,..,n).

    Only the all-blocks-equal case is realizable. G is the group of
    permutations of the b*n carrier points that map blocks onto blocks
    (order (n!)^b * b!), H the stabilizer of the first point.
    """
    sizes = tuple(sizes)
    if s_family_class(sizes) is not SFamilyClass.DHypergroup:
        raise ValueError("only the all-equal-sizes tables are coset structures")
    n, b = sizes[0], len(sizes)
    # the product stops once it passes cap, so a huge order is never formed
    order, shown = 1, f"{n}!^{b}*{b}!"
    blocks = itertools.chain.from_iterable(itertools.repeat(range(2, n + 1), b))
    for factor in itertools.chain(blocks, range(2, b + 1)):
        order *= factor
        check_group_order(order, cap, shown)
    perms = []
    for blockperm in itertools.permutations(range(b)):
        for within in itertools.product(itertools.permutations(range(n)), repeat=b):
            p = [0] * (n * b)
            for src_block in range(b):
                dst_block = blockperm[src_block]
                w = within[src_block]
                for i in range(n):
                    p[src_block * n + i] = dst_block * n + w[i]
            perms.append(tuple(p))
    g = from_permutations(perms)
    return g, stabilizer_subgroup(g, 0)


class UtumiInputError(ValueError):
    """The base structure, partition and zero fail a compatibility clause."""


class UtumiInput(Frozen):
    """Data for the sum x.y = x + (class of y).

    base: hypergroup written additively. partition: equivalence on the
    carrier. zero: element whose class is the singleton {zero} and which
    is right-neutral; additionally zero + x must contain x and stay
    inside the class of x.
    """

    __slots__ = _fields = ("base", "partition", "zero")

    def _check(self):
        h, eq, z = self.base, self.partition, self.zero
        if eq.n != h.n:
            raise UtumiInputError("partition carrier differs from base carrier")
        if not (0 <= z < h.n):
            raise UtumiInputError("zero out of range")
        if eq.class_mask(z) != 1 << z:
            raise UtumiInputError("class of zero must be the singleton {zero}")
        for x in range(h.n):
            if h.table[x][z] != 1 << x:
                raise UtumiInputError("zero must be right-neutral: x + 0 = {x}")
            zx = h.table[z][x]
            if not (zx >> x & 1):
                raise UtumiInputError("0 + x must contain x")
            if zx & ~eq.class_mask(x):
                raise UtumiInputError("0 + x must stay inside the class of x")


def utumi(data: UtumiInput) -> Multistructure:
    """The table x.y = x + ybar (sum over the class of y).

    x + ybar depends on y only through its class, so each row takes one
    sum per class. Always reproductive; associative exactly when class
    sums saturate (see utumi_is_associative).
    """
    m, eq = data.base, data.partition
    rows = []
    for x in range(m.n):
        sums = [product_of_sets(m, 1 << x, cm) for cm in eq.class_masks]
        rows.append(tuple(map(sums.__getitem__, eq.class_of)))
    return Multistructure(m.names, tuple(rows))


class UtumiAssociativity(Frozen):
    """associative, and when it fails the witness (x, class representative)."""

    __slots__ = _fields = ("associative", "witness")
    _defaults = (None,)

    def __bool__(self) -> bool:
        return self.associative


def utumi_is_associative(data: UtumiInput) -> UtumiAssociativity:
    """Associativity of the derived table.

    Holds iff for every x and class ybar: xbar + ybar equals the
    saturation of x + ybar. The first failing (x, least class member)
    in index order is the witness.
    """
    m, eq = data.base, data.partition
    for x in range(m.n):
        xbar = eq.class_mask(x)
        for cm in eq.class_masks:
            both = product_of_sets(m, xbar, cm)
            single = eq.sat(product_of_sets(m, 1 << x, cm))
            if both != single:
                return UtumiAssociativity(False, (x, members(cm)[0]))
    return UtumiAssociativity(True)


def utumi_simplicity_criterion(data: UtumiInput) -> bool:
    """Sufficient condition for simplicity of the derived hypergroup.

    Requires the base to be a group (univalent, associative). True when
    every class other than {zero} has some iterated sum (1..n terms)
    equal to the whole carrier. Sufficient only: a derived structure can
    be simple without passing this test.
    """
    m = data.base
    if not is_group(m):
        raise ValueError("criterion applies to a univalent base only")
    if not verify_axioms(m).associative:
        raise ValueError("criterion applies to an associative base only")
    # cm, cm + cm, ... with up to n terms, made only until one is the carrier
    sum_of = functools.partial(product_of_sets, m)
    return all(m.full_mask in itertools.accumulate(itertools.repeat(cm, m.n - 1), sum_of,
                                                   initial=cm)
               for cm in data.partition.class_masks if cm != 1 << data.zero)


def canonical_presentation(h: Multistructure, cap: int = DEFAULT_TRAME_CAP) -> Presentation:
    """Exhibit any multistructure as a quotient of a partial operation.

    The carrier is H x H^3 with one composable pair per witness triple:
    for each (a, b, c) with c in a.b, the pair ((a,t),(b,t)) with
    t = (a,b,c) composes to (c,t). Collapsing the copies of each element
    gives back the original table exactly.
    """
    n = h.n
    t_n = n * n ** 3
    if t_n > cap:
        raise CapExceeded(f"presentation carrier {t_n} exceeds cap {cap}")

    def idx(v: int, t3: int) -> int:
        return v * n ** 3 + t3

    names = [f"{v}|{a},{b},{c}" for v, a, b, c in itertools.product(h.names, repeat=4)]
    op = {}
    for (a, b), c in products(h):
        t3 = a * n * n + b * n + c
        op[idx(a, t3), idx(b, t3)] = idx(c, t3)
    r = tuple(v for v in range(n) for _ in range(n ** 3))
    return Presentation(Trame(tuple(names), op), r)
