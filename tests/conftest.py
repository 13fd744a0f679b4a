import argparse
import functools
import itertools
import json
import re

import pytest
from hypothesis import settings

from hypergroups.cli import (
    _GEN_ARITY,
    _cmd_classify_s,
    _cmd_gen,
    _cmd_iso,
    _cmd_opposite,
    _cmd_reflets,
    _cmd_simple,
    _cmd_simple_coset,
    _cmd_trame,
    _cmd_verify,
)
from hypergroups.core import (
    AxiomReport,
    EquivalenceRelation,
    Frozen,
    Hypergroup,
    Multistructure,
    ParseError,
    check_mask,
    mask_of,
    members,
    product_of_sets,
    products,
    quotient_table,
    restricted_growth,
    verify_axioms,
)
from hypergroups.groups import (
    DEFAULT_GROUP_CAP,
    GroupError,
    GroupTable,
    Subgroup,
    _perm_name,
    coset_relation,
    cyclic_group,
    dihedral_group,
    subgroups,
    symmetric_group,
    verify_group,
)
from hypergroups.constructions import (
    UtumiInput,
    left_coset_hypergroup,
    right_coset_hypergroup,
    stabilizer_hypergroup,
    utumi,
)
from hypergroups.presentations import (
    DEFAULT_TRAME_CAP,
    Presentation,
    is_adequate,
    is_invariant_modulo_equiv,
    quotient,
)
from hypergroups.simplicity import DEFAULT_SIMPLICITY_CAP, reflector_congruences

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


class Mapping(Frozen):
    """A total map between two carriers, image[x] = f(x)."""

    __slots__ = _fields = ("dom", "cod", "image")

    def _check(self):
        if len(self.image) != self.dom.n:
            raise ValueError("image must assign every domain element")
        if any(not (0 <= v < self.cod.n) for v in self.image):
            raise ValueError("image value out of codomain range")

    def img(self, dmask: int) -> int:
        out = 0
        for x in members(dmask):
            out |= 1 << self.image[x]
        return out

    def pre(self, cmask: int) -> int:
        out = 0
        for x, v in enumerate(self.image):
            if cmask >> v & 1:
                out |= 1 << x
        return out

    @property
    def surjective(self) -> bool:
        return self.img(self.dom.full_mask) == self.cod.full_mask


def is_morphism(f: Mapping) -> bool:
    """f(x.y) == f(x).f(y) element-wise."""
    dom, cod = f.dom, f.cod
    for x in range(dom.n):
        for y in range(dom.n):
            if f.img(dom.table[x][y]) != cod.table[f.image[x]][f.image[y]]:
                return False
    return True


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


def axioms_hold(h):
    """The check a construction that a theorem covers leaves out: h passes
    verify_axioms, and certifying it gives h back."""
    return verify_axioms(h).is_hypergroup and Hypergroup.certify(h) == h


def all_triples_quotient_by(h, c):
    """quotient_by read off every product triple of h, not only those of
    the classes' least members."""
    return Hypergroup.certify(quotient_table(h.names, products(h), c.eq.class_of))


def tree_from_json(text):
    """core.from_json with the whole document decoded first: json's own
    errors, then the keys, the names, the row count and the rows, in that
    order."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict) or set(obj) != {"elements", "table"}:
        raise ParseError('structure JSON needs exactly the keys "elements" and "table"')
    names = obj["elements"]
    if (not isinstance(names, list) or not names
            or any(not isinstance(s, str) for s in names)):
        raise ParseError('"elements" must be a non-empty list of strings')
    if len(set(names)) != len(names):
        raise ParseError("duplicate element name")
    n = len(names)
    index = {s: i for i, s in enumerate(names)}
    rows = obj["table"]
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"table must have {n} rows")
    table = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"table row {i} must have {n} entries")
        out_row = []
        for j, entry in enumerate(row):
            if not isinstance(entry, list):
                raise ParseError(f"table entry ({i},{j}) must be a list of names")
            mask = 0
            for s in entry:
                if not isinstance(s, str) or s not in index:
                    raise ParseError(f"unknown element name {s!r} in entry ({i},{j})")
                mask |= 1 << index[s]
            out_row.append(mask)
        table.append(tuple(out_row))
    return Multistructure(tuple(names), tuple(table))


def naive_json_obj(m):
    """The canonical JSON form of core.to_json as a dict, one cell at a
    time: a fresh list of names per product."""
    return {
        "elements": list(m.names),
        "table": [[[m.names[z] for z in members(e)] for e in row] for row in m.table],
    }


def naive_utumi(data):
    """constructions.utumi one cell at a time: x + ybar for every pair."""
    m, eq = data.base, data.partition
    n = m.n
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            row.append(product_of_sets(m, 1 << x, eq.class_mask(y)))
        rows.append(tuple(row))
    return Multistructure(m.names, tuple(rows))


def naive_s_family(sizes):
    """The names and the table of sets of constructions.s_family, read one
    cell at a time off its docstring: x.e = {x}; x.y = (block of x) minus
    {x} for y in A_0 minus e; x.y = K minus (block of x) for y in a later
    block."""
    n = sizes[0]
    names = ["e"] + [f"y{i}" for i in range(1, n)]
    block_of = [0] * n
    for b, p in enumerate(sizes[1:], start=1):
        names += [f"a{b}_{j}" for j in range(1, p + 1)]
        block_of += [b] * p
    elements = range(len(names))
    rows = []
    for x in elements:
        own = {z for z in elements if block_of[z] == block_of[x]}
        rows.append([{x} if y == 0 else own - {x} if block_of[y] == 0 else set(elements) - own
                     for y in elements])
    return tuple(names), rows


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


def coarsest_congruence(h, labels):
    """The coarsest reflector congruence of h that refines the partition
    labels, as restricted-growth labels, found by partition refinement.

    With no product empty, a partition is a reflector congruence exactly
    when, for every x and every class C, (a) x.C and C.x are unions of
    classes and (b) x.y meets the same classes for every y in C, and so
    does y.x. Each round splits the classes by both rules, until a round
    splits none. A split leaves every congruence that refines the
    partition refining the split one, so the fixpoint is the greatest
    congruence below labels: Paige and Tarjan's coarsest stable
    refinement, with two kinds of splitter. No search is involved.
    """
    table, cols = h.table, list(zip(*h.table))
    labels = restricted_growth(labels)
    while True:
        k = max(labels) + 1
        # (b): the classes that each product meets, as a mask of labels
        met = {e: mask_of(labels[w] for w in members(e)) for e in set().union(*table)}
        # (a): the unions x.C and C.x, which no class may straddle
        unions = set()
        for x_row, x_col in zip(table, cols):
            row, col = [0] * k, [0] * k
            for lab, e, f in zip(labels, x_row, x_col):
                row[lab] |= e
                col[lab] |= f
            unions.update(row, col)
        inside = [[] for _ in labels]
        for i, u in enumerate(unions):
            for y in members(u):
                inside[y].append(i)
        refined = restricted_growth(
            (lab, tuple(met[e] for e in cols[y]), tuple(met[e] for e in table[y]), tuple(inside[y]))
            for y, lab in enumerate(labels))
        if max(refined) == k - 1:
            return labels
        labels = refined


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


def all_pairs_node_ok(i, labels, cmask, rowsum, colsum, table, nextrow, nextcol):
    """The search's per-node test with no pair and no node skipped: the six
    req/pos inclusions at every labelled pair, pairs with i first."""
    pm = (2 << i) - 1  # the labelled elements
    free = ~pm  # the others, as an unbounded mask; -1 stands for all
    sat = {}  # e & pm -> its saturation, for this node's classes
    for x, y in itertools.chain(zip(itertools.repeat(i), range(i + 1)),
                                zip(range(i), itertools.repeat(i)),
                                itertools.product(range(i), repeat=2)):
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


# --- the isomorphism search comparing one element at a time ----------------


def profile_invariant(m, x):
    """The candidate filter find_isomorphism used before it read the sizes
    of the powers of x: the sorted row and column product sizes, |x.x|,
    and whether x lies in x.x."""
    row = tuple(sorted(e.bit_count() for e in m.table[x]))
    col = tuple(sorted(m.table[y][x].bit_count() for y in range(m.n)))
    diag = m.table[x][x]
    return (row, col, diag.bit_count(), bool(diag >> x & 1))


def per_element_isomorphism(a, b):
    """find_isomorphism as it was before it compared masks, with its own
    candidate filter: candidates filtered by profile_invariant in index
    order, each pair with k compared on product size and then element by
    element over the prefix, and injectivity kept in a used list that
    every branch undoes."""
    n = a.n
    if n != b.n:
        return None
    inv_a = [profile_invariant(a, x) for x in range(n)]
    inv_b = [profile_invariant(b, x) for x in range(n)]
    if sorted(inv_a) != sorted(inv_b):
        return None
    candidates = [tuple(v for v in range(n) if inv_b[v] == inv_a[x]) for x in range(n)]
    g = [-1] * n
    used = [False] * n

    def consistent(k):
        for p in range(k + 1):
            for (s, t) in ((p, k), (k, p)):
                ae = a.table[s][t]
                be = b.table[g[s]][g[t]]
                if ae.bit_count() != be.bit_count():
                    return False
                for z in range(k + 1):
                    if (ae >> z & 1) != (be >> g[z] & 1):
                        return False
        for p in range(k):
            for q in range(k):
                if (a.table[p][q] >> k & 1) != (b.table[g[p]][g[q]] >> g[k] & 1):
                    return False
        return True

    def assign(k):
        if k == n:
            yield tuple(g)
            return
        for v in candidates[k]:
            if not used[v]:
                g[k], used[v] = v, True
                if consistent(k):
                    yield from assign(k + 1)
                used[v] = False

    return next(assign(0), None)


def is_set_isomorphism(a, b, g):
    """g is a bijection of the carriers with g(x.y) = g(x).g(y), checked on
    sets of indices."""
    ta, tb = table_sets(a), table_sets(b)
    return sorted(g) == list(range(b.n)) == list(range(a.n)) and all(
        frozenset(g[z] for z in ta[x][y]) == tb[g[x]][g[y]]
        for x in range(a.n) for y in range(a.n))


def direct_product(g, h):
    """G x H, the pair (x, y) at index x * |H| + y, named "(x,y)"."""
    table = [[h.n * g.table[x][u] + h.table[y][v] for u in range(g.n) for v in range(h.n)]
             for x in range(g.n) for y in range(h.n)]
    names = tuple(f"({a},{b})" for a in g.names for b in h.names)
    return verify_group(table, names)


def metacyclic_group(m, k, r):
    """Z_m ⋊ Z_k, the generator of Z_k acting on Z_m as multiplication by
    r (r^k = 1 mod m): (a, b).(c, d) = (a + r^b c, b + d), the pair (a, b)
    at index a * k + b."""
    table = [[(a + r ** b * c) % m * k + (b + d) % k for c in range(m) for d in range(k)]
             for a in range(m) for b in range(k)]
    return verify_group(table, tuple(f"({a},{b})" for a in range(m) for b in range(k)))


def quaternion_group():
    """Q8 = {±1, ±i, ±j, ±k}, the element s·u (sign s = ±1, unit u one
    of 1, i, j, k) at index 4 * (s == -1) + (index of u)."""
    # (1 if the sign is -1, index of the unit) of u.v for the units 1, i, j, k
    units = (((0, 0), (0, 1), (0, 2), (0, 3)), ((0, 1), (1, 0), (0, 3), (1, 2)),
             ((0, 2), (1, 3), (1, 0), (0, 1)), ((0, 3), (0, 2), (1, 1), (1, 0)))
    table = [[0] * 8 for _ in range(8)]
    for x, y in itertools.product(range(8), repeat=2):
        sign, unit = units[x % 4][y % 4]
        table[x][y] = 4 * ((x // 4 + y // 4 + sign) % 2) + unit
    return verify_group(table, ("1", "i", "j", "k", "-1", "-i", "-j", "-k"))


# --- group corpus -------------------------------------------------------------


def class_representatives(g):
    """One subgroup per conjugacy class: the first of subgroups(g) in it."""
    t, inv = g.table, g.inverse
    seen, reps = set(), []
    for h in subgroups(g):
        if h.mask not in seen:
            reps.append(h)
            seen |= {mask_of(t[t[x][y]][inv[x]] for y in members(h.mask)) for x in range(g.n)}
    return reps


@functools.cache
def class_coset_spaces():
    """(G, H, (right, left)): both coset spaces of one subgroup per
    conjugacy class of S5, D24 and S4 x Z2, up to index 64."""
    groups = (symmetric_group(5), dihedral_group(24),
              direct_product(symmetric_group(4), cyclic_group(2)))
    return tuple((g, h, (right_coset_hypergroup(g, h), left_coset_hypergroup(g, h)))
                 for g in groups for h in class_representatives(g) if g.n // h.order <= 64)


_CONGRUENCES = {}


def congruences_to_mask_width(h):
    """reflector_congruences(h, cap=64) as a tuple, searched once per table
    (the two spaces of a trivial H share one): the spaces of
    class_coset_spaces() take seconds to search."""
    if h.table not in _CONGRUENCES:
        _CONGRUENCES[h.table] = tuple(reflector_congruences(h, cap=64))
    return _CONGRUENCES[h.table]


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


# --- the argparse parser the command line's own reader replaced ---------------


def count(text: str) -> int:
    """A cap as the command line reads it: ASCII decimal digits, at least 1.
    Its name is the type argparse names in a refusal."""
    if re.fullmatch("[0-9]+", text) and int(text) >= 1:
        return int(text)
    raise ValueError(text)


def build_parser() -> argparse.ArgumentParser:
    # one parent per cap, so each verb accepts only the caps it reads
    cap_n = argparse.ArgumentParser(add_help=False)
    cap_n.add_argument("--cap-n", type=count, default=DEFAULT_SIMPLICITY_CAP,
                       help="carrier cap for congruence search (default 12)")
    cap_group = argparse.ArgumentParser(add_help=False)
    cap_group.add_argument("--cap-group", type=count, default=DEFAULT_GROUP_CAP,
                           help="group order cap (default 120)")
    cap_trame = argparse.ArgumentParser(add_help=False)
    cap_trame.add_argument("--cap-trame", type=count, default=DEFAULT_TRAME_CAP,
                           help="trame carrier cap (default 65536)")

    # @FILE reads further arguments from FILE, one a line
    ap = argparse.ArgumentParser(
        prog="hypergroups", fromfile_prefix_chars="@",
        description="finite hypergroups: generators, verifiers, simplicity deciders")
    sub = ap.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", parents=[cap_group, cap_trame], help="emit a structure as JSON")
    g.add_argument("kind", choices=list(_GEN_ARITY))
    g.add_argument("args", nargs="+")
    g.add_argument("--side", choices=["right", "left"], default="right")
    g.set_defaults(fn=_cmd_gen)

    v = sub.add_parser("verify", help="check the hypergroup axioms")
    v.add_argument("file")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("simple", parents=[cap_n], help="decide simplicity by search")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_simple)

    sc = sub.add_parser("simple-coset", parents=[cap_group],
                        help="decide coset-structure simplicity on the subgroup side")
    sc.add_argument("group")
    sc.add_argument("subgroup")
    sc.set_defaults(fn=_cmd_simple_coset)

    rf = sub.add_parser("reflets", parents=[cap_n],
                        help="list quotients by all reflector congruences")
    rf.add_argument("file")
    rf.set_defaults(fn=_cmd_reflets)

    i = sub.add_parser("iso", help="search for an isomorphism")
    i.add_argument("file1")
    i.add_argument("file2")
    i.set_defaults(fn=_cmd_iso)

    o = sub.add_parser("opposite", help="transpose the operation")
    o.add_argument("file")
    o.set_defaults(fn=_cmd_opposite)

    c = sub.add_parser("classify-s", help="classify S(n, sizes) parameters")
    c.add_argument("sizes", nargs="+")
    c.set_defaults(fn=_cmd_classify_s)

    t = sub.add_parser("trame", parents=[cap_trame], help="partial-operation files")
    t.add_argument("action", choices=["quotient", "adequate", "invariant"])
    t.add_argument("file")
    t.add_argument("--s", default=None,
                   help="coarser partition literal for 'invariant'")
    t.set_defaults(fn=_cmd_trame)

    return ap
