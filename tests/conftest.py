import itertools

import pytest
from hypothesis import settings

from hypergroups.core import (
    AxiomReport,
    EquivalenceRelation,
    Hypergroup,
    Multistructure,
    members,
)
from hypergroups.groups import (
    GroupTable,
    Subgroup,
    cyclic_group,
    dihedral_group,
    from_permutations,
    symmetric_group,
    verify_group,
)
from hypergroups.constructions import UtumiInput, stabilizer_hypergroup, utumi

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


# --- oracle helpers: plain set arithmetic, no masks --------------------------


def table_sets(m):
    """The operation as frozensets of indices."""
    return [[frozenset(members(e)) for e in row] for row in m.table]


def set_product(tbl, xs, ys):
    out = set()
    for x in xs:
        for y in ys:
            out |= tbl[x][y]
    return frozenset(out)


def naive_axiom_report(m, triples=None):
    """verify_axioms by plain set arithmetic, one triple at a time.

    triples, when given, are the only associativity triples that can fail,
    in index order (the caller knows the rest hold); by default every
    triple is checked.
    """
    n = m.n
    tbl = table_sets(m)
    carrier = frozenset(range(n))
    if triples is None:
        triples = itertools.product(range(n), repeat=3)
    assoc = next((
        (x, y, z) for x, y, z in triples
        if set_product(tbl, tbl[x][y], [z]) != set_product(tbl, [x], tbl[y][z])), None)
    repro = next((
        x for x in range(n)
        if set_product(tbl, [x], carrier) != carrier
        or set_product(tbl, carrier, [x]) != carrier), None)
    empty = next(((x, y) for x in range(n) for y in range(n) if not tbl[x][y]), None)
    return AxiomReport(assoc is None, repro is None, empty is None, assoc, repro, empty)


def saturate(blocks, xs):
    out = set()
    for b in blocks:
        if b & xs:
            out |= b
    return frozenset(out)


def naive_reflector_partitions(m):
    """All partitions passing the saturation identity, by direct set math.

    Enumerates partitions recursively (element -> existing block or new
    block), independent of the library's restricted-growth machinery.
    """
    n = m.n
    tbl = table_sets(m)
    found = []

    def check(blocks):
        bl = [frozenset(b) for b in blocks]
        for x in range(n):
            bx = next(b for b in bl if x in b)
            for y in range(n):
                by = next(b for b in bl if y in b)
                sat = saturate(bl, tbl[x][y])
                row = set_product(tbl, [x], by)
                col = set_product(tbl, bx, [y])
                if not (sat == row == col):
                    return False
        return True

    def rec(i, blocks):
        if i == n:
            if check(blocks):
                found.append([sorted(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return found


def blocks_of(eq: EquivalenceRelation):
    return [sorted(members(cm)) for cm in eq.class_masks]


# --- group corpus -------------------------------------------------------------


def klein_group() -> GroupTable:
    table = [[x ^ y for y in range(4)] for x in range(4)]
    return verify_group(table, ("e", "a", "b", "c"))


def parity(p):
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


def alternating_subgroup(g: GroupTable) -> Subgroup:
    assert g.perms is not None
    mask = 0
    for i, p in enumerate(g.perms):
        if parity(p) == 0:
            mask |= 1 << i
    return Subgroup(g, mask)


@pytest.fixture(scope="session")
def sym3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def sym4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def z8():
    return cyclic_group(8)


@pytest.fixture(scope="session")
def dih8():
    return dihedral_group(4)


@pytest.fixture(scope="session")
def dih12():
    return dihedral_group(6)


@pytest.fixture(scope="session")
def klein():
    return klein_group()


@pytest.fixture(scope="session")
def utumi_z8():
    from hypergroups.groups import as_hypergroup
    base = as_hypergroup(cyclic_group(8))
    eq = EquivalenceRelation.from_blocks(8, [[0], [1, 4, 7], [2, 3, 5, 6]])
    return Hypergroup.certify(utumi(UtumiInput(base, eq, 0)))


@pytest.fixture(scope="session")
def small_hypergroup_corpus(sym3, klein):
    """Certified hypergroups with small carriers, varied provenance."""
    from hypergroups.groups import as_hypergroup, stabilizer_subgroup
    from hypergroups.constructions import right_coset_hypergroup, s_family
    out = [
        as_hypergroup(cyclic_group(1)),
        as_hypergroup(cyclic_group(2)),
        as_hypergroup(cyclic_group(3)),
        as_hypergroup(cyclic_group(4)),
        as_hypergroup(klein),
        stabilizer_hypergroup(3),
        stabilizer_hypergroup(4),
        Hypergroup.certify(s_family((3,))),
        right_coset_hypergroup(sym3, stabilizer_subgroup(sym3, 0)),
    ]
    return out
