import itertools

import pytest
from hypothesis import settings

from hypergroups.core import (
    AxiomReport,
    EquivalenceRelation,
    Frozen,
    Hypergroup,
    Multistructure,
    check_mask,
    members,
    product_of_sets,
    quotient_table,
    restricted_growth,
)
from hypergroups.groups import (
    GroupError,
    GroupTable,
    Subgroup,
    _perm_name,
    coset_relation,
    cyclic_group,
    dihedral_group,
    symmetric_group,
    verify_group,
)
from hypergroups.constructions import UtumiInput, stabilizer_hypergroup, utumi
from hypergroups.presentations import (
    Presentation,
    is_adequate,
    is_invariant_modulo_equiv,
    quotient,
)

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


def naive_is_reflector(f):
    """is_reflector by its definition: surjective, and for all x, y the
    sets f^-1 f(x.y), f^-1(f(x).f(y)), x.f^-1 f(y) and f^-1 f(x).y equal."""
    if not f.surjective:
        return False
    dom, cod = f.dom, f.cod
    for x in range(dom.n):
        for y in range(dom.n):
            a = f.pre(f.img(dom.table[x][y]))
            b = f.pre(product_of_sets(cod, 1 << f.image[x], 1 << f.image[y]))
            c = product_of_sets(dom, 1 << x, f.pre(f.img(1 << y)))
            d = product_of_sets(dom, f.pre(f.img(1 << x)), 1 << y)
            if not (a == b == c == d):
                return False
    return True


def naive_quotient_by(h, eq):
    """Names and table of the reflet by a class-mask loop: the classes
    meeting the product of least representatives, named after them."""
    reps = [members(cm)[0] for cm in eq.class_masks]
    table = tuple(
        tuple(sum(1 << c for c, cm in enumerate(eq.class_masks) if cm & h.table[a][b])
              for b in reps)
        for a in reps)
    return tuple(h.names[r] for r in reps), table


# --- subgroup oracles: plain-set closures, every x tried ---------------------


def naive_closure(g, elems):
    """The subgroup generated by elems, by multiplying until nothing is new."""
    acc = {g.identity} | set(elems)
    while True:
        new = {g.table[a][b] for a in acc for b in acc} - acc
        if not new:
            return frozenset(acc)
        acc |= new


def naive_overgroup_masks(g, hmask):
    """Masks of the subgroups containing H: extend each found subgroup by
    every element outside it; sorted by (order, mask)."""
    start = naive_closure(g, members(hmask))
    found, frontier = {start}, [start]
    while frontier:
        nxt = []
        for k in frontier:
            for x in range(g.n):
                ext = naive_closure(g, k | {x})
                if ext not in found:
                    found.add(ext)
                    nxt.append(ext)
        frontier = nxt
    masks = [sum(1 << x for x in k) for k in found]
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def naive_is_maximal(g, hmask, all_masks):
    """Proper, and no subgroup of the whole lattice strictly between."""
    return hmask != g.full_mask and not any(
        m not in (hmask, g.full_mask) and m & hmask == hmask for m in all_masks)


def set_mult(g: GroupTable, amask: int, bmask: int) -> int:
    check_mask(amask, g.n, GroupError)
    check_mask(bmask, g.n, GroupError)
    out = 0
    bs = members(bmask)
    for a in members(amask):
        row = g.table[a]
        for b in bs:
            out |= 1 << row[b]
    return out


def coset_mask(g: GroupTable, hmask: int, x: int, side: str) -> int:
    """side "right": the coset xH; side "left": the coset Hx."""
    if side == "right":
        return set_mult(g, 1 << x, hmask)
    if side == "left":
        return set_mult(g, hmask, 1 << x)
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def naive_coset_relation(g, hmask: int, side: str) -> tuple[int, ...]:
    """Labels of the coset partition, numbered in least-element order."""
    labels = [-1] * g.n
    for x in range(g.n):
        if labels[x] == -1:  # x is the least member of its coset
            for y in members(coset_mask(g, hmask, x, side)):
                labels[y] = x
    return restricted_growth(labels)


def naive_coset_structure(g, h, side):
    """right_coset_hypergroup (side "right") or left_coset_hypergroup
    (side "left") fed every product x.y of the group, n^2 triples."""
    form = "{}H" if side == "right" else "H{}"
    triples = (((x, y), w) for x, row in enumerate(g.table) for y, w in enumerate(row))
    return Hypergroup.certify(quotient_table(tuple(form.format(s) for s in g.names),
                                             triples, coset_relation(g, h.mask, side)))


def naive_is_invariant_modulo(g, hmask, kmask):
    """is_invariant_modulo by set products: H in K and Kx in HxK for all x."""
    if hmask & ~kmask:
        return False
    for x in range(g.n):
        kx = set_mult(g, kmask, 1 << x)
        hxk = set_mult(g, hmask, set_mult(g, 1 << x, kmask))
        if kx & ~hxk:
            return False
    return True


def full_scan_group_check(table):
    """verify_group's outcome with associativity scanned over all n^3
    triples: (kind, witness) of the first failure in its order, or
    ("group", (identity, inverse))."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        return "shape", None
    bad = next(((x, y) for x in range(n) for y in range(n)
                if not 0 <= table[x][y] < n), None)
    if bad is not None:
        return "range", bad
    bad = next(((x, y, z) for x, y, z in itertools.product(range(n), repeat=3)
                if table[table[x][y]][z] != table[x][table[y][z]]), None)
    if bad is not None:
        return "associativity", bad
    e = next((e for e in range(n)
              if all(table[e][x] == x == table[x][e] for x in range(n))), None)
    if e is None:
        return "identity", None
    inverse = []
    for x in range(n):
        y = next((y for y in range(n) if table[x][y] == e == table[y][x]), None)
        if y is None:
            return "inverse", x
        inverse.append(y)
    return "group", (e, tuple(inverse))


def all_pairs_from_permutations(perms):
    """from_permutations by composing all n^2 pairs, row by row; the first
    pair whose composition is outside the set is the closure witness."""
    ps = sorted({tuple(p) for p in perms})
    if not ps:
        raise GroupError("shape")
    deg = len(ps[0])
    for p in ps:
        if len(p) != deg or sorted(p) != list(range(deg)):
            raise GroupError("range", p)
    index = {p: i for i, p in enumerate(ps)}
    table = []
    for p in ps:
        row = []
        for q in ps:
            r = tuple(map(p.__getitem__, q))
            if r not in index:
                raise GroupError("closure", (p, q))
            row.append(index[r])
        table.append(tuple(row))
    return GroupTable(tuple(_perm_name(p) for p in ps), tuple(table), tuple(ps))


# --- brute routes that no verb takes ------------------------------------------


def identity_relation(n):
    """The equivalence whose classes are single elements."""
    return EquivalenceRelation(tuple(range(n)))


def total_relation(n):
    """The equivalence with one class."""
    return EquivalenceRelation((0,) * n)


def refines(a, b):
    """True when every class of a lies inside a class of b."""
    if a.n != b.n:
        return False
    image = {}
    for i, lab in enumerate(a.class_of):
        want = b.class_of[i]
        if image.setdefault(lab, want) != want:
            return False
    return True


def all_equivalences(n):
    """All equivalences on {0..n-1} in restricted-growth string order."""
    labels = [0] * n

    def rec(i, top):
        if i == n:
            yield EquivalenceRelation(tuple(labels))
            return
        for lab in range(top + 1):
            labels[i] = lab
            yield from rec(i + 1, max(top, lab + 1))

    if n == 0:
        return iter(())
    return rec(1, 1)


class CogroupReport(Frozen):
    """Row-family structure of a multistructure.

    blocks_partition: for every fixed x the distinct products {x.y : y}
    form a partition of the carrier. blocks_equipotent: those products all
    have the same size. columns_equipotent: for every fixed y the sizes
    |x.y| agree across x (a necessary trait of coset structures).
    """

    __slots__ = _fields = ("blocks_partition", "blocks_equipotent", "columns_equipotent")

    def __bool__(self) -> bool:
        return self.blocks_partition and self.blocks_equipotent


def cogroup_report(m: Multistructure) -> CogroupReport:
    n, full = m.n, m.full_mask
    partition = True
    equipotent = True
    for x in range(n):
        blocks = sorted(set(m.table[x]))
        if 0 in blocks:
            partition = False
        cover = 0
        for e in blocks:
            if cover & e:
                partition = False
            cover |= e
        if cover != full:
            partition = False
        sizes = {e.bit_count() for e in m.table[x]}
        if len(sizes) != 1:
            equipotent = False
    columns = all(
        len({m.table[x][y].bit_count() for x in range(n)}) == 1
        for y in range(n)
    )
    return CogroupReport(partition, equipotent, columns)


def is_cogroup(h):
    """Every row family partitions the carrier into equal-size blocks."""
    return bool(cogroup_report(h))


def reflect(p, s):
    """Quotient the presentation by a coarser invariant relation S.

    Preconditions: the presentation is adequate, R refines S, and S is
    invariant modulo R. Invariance makes the induced map from the
    R-quotient onto the S-quotient pull products back coherently, and
    the S-quotient is certified.
    """
    rep = is_adequate(p)
    if not rep:
        raise ValueError(f"presentation is not adequate: {rep}")
    if not is_invariant_modulo_equiv(p.trame, p.r, s):
        raise ValueError("relation is not invariant modulo the presentation")
    return Hypergroup.certify(quotient(Presentation(p.trame, s)))


# --- the congruence search with its state rebuilt at every node --------------


def naive_congruence_search(h, limit=None):
    """reflector_congruences as a plain backtracking that rebuilds the class
    masks and the row and column unions at every node, tests the pairs in
    row-major order and stops at the first failing one; (the class_of
    tuples found, in order, and the number of nodes tested)."""
    n = h.n
    table = h.table
    full = h.full_mask
    sufrow = [[0] * (n + 1) for _ in range(n)]
    sufcol = [[0] * (n + 1) for _ in range(n)]
    for x in range(n):
        for j in range(n - 1, -1, -1):
            sufrow[x][j] = sufrow[x][j + 1] | table[x][j]
            sufcol[x][j] = sufcol[x][j + 1] | table[j][x]
    labels = [0] * n
    out = []
    nodes = 0

    def node_ok(i: int) -> bool:
        nonlocal nodes
        nodes += 1
        # elements 0..i are labeled
        pm = (1 << (i + 1)) - 1
        free = full & ~pm
        k = max(labels[j] for j in range(i + 1)) + 1
        cmask = [0] * k
        for j in range(i + 1):
            cmask[labels[j]] |= 1 << j
        rowsum = [[0] * k for _ in range(i + 1)]
        colsum = [[0] * k for _ in range(i + 1)]
        for x in range(i + 1):
            tx = table[x]
            for y in range(i + 1):
                e = tx[y]
                rowsum[x][labels[y]] |= e
                colsum[y][labels[x]] |= e
        nextrow = [sr[i + 1] for sr in sufrow]
        nextcol = [sc[i + 1] for sc in sufcol]
        for x in range(i + 1):
            for y in range(i + 1):
                e = table[x][y]
                ep = e & pm
                s1req = 0
                for cm in cmask:
                    if cm & ep:
                        s1req |= cm
                if e & free:
                    s1pos = pm | free
                elif e:
                    s1pos = s1req | free
                else:
                    s1pos = 0
                s2req = rowsum[x][labels[y]]
                s2pos = s2req | nextrow[x]
                s3req = colsum[y][labels[x]]
                s3pos = s3req | nextcol[y]
                if (s2req & ~s1pos or s3req & ~s1pos
                        or s1req & ~s2pos or s1req & ~s3pos
                        or s2req & ~s3pos or s3req & ~s2pos):
                    return False
        return True

    def rec(i: int, top: int) -> bool:
        if i == n:
            eq = EquivalenceRelation(tuple(labels))
            out.append(eq.class_of)
            return limit is not None and len(out) >= limit
        for lab in range(top + 1):
            labels[i] = lab
            if node_ok(i) and rec(i + 1, max(top, lab + 1)):
                return True
        return False

    rec(1, 1)
    return out, nodes


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
