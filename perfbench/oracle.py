"""Answer checks made apart from the program under test.

Plain set arithmetic over frozensets of element indices. Nothing here
imports `hypergroups`: every expected answer is recomputed from a
definition, a closed form or a stated property, never read from a stored
copy of an earlier output.

A table is a list of rows of frozensets: table[x][y] is the product x.y.
"""

from __future__ import annotations

import itertools
import json


# --- structure files ---------------------------------------------------------


def load(text: str) -> tuple[list[str], list[list[frozenset]]]:
    obj = json.loads(text)
    names = obj["elements"]
    index = {s: i for i, s in enumerate(names)}
    table = [[frozenset(index[s] for s in entry) for entry in row] for row in obj["table"]]
    return names, table


def dump(names, table) -> str:
    """The canonical one-line JSON form the README documents."""
    obj = {"elements": list(names),
           "table": [[[names[z] for z in sorted(e)] for e in row] for row in table]}
    return json.dumps(obj, separators=(",", ":"))


# --- axioms ------------------------------------------------------------------


def first_assoc_witness(table):
    """First (x, y, z) in index order with (x.y).z != x.(y.z), or None.

    Products of a set with one element are cached by the set, which keeps
    dense tables (few distinct products) affordable.
    """
    n = len(table)
    cols = [[table[a][z] for a in range(n)] for z in range(n)]
    left: dict = {}
    right: dict = {}
    for x in range(n):
        row_x = table[x]
        for y in range(n):
            lset = row_x[y]
            for z in range(n):
                key = (lset, z)
                lhs = left.get(key)
                if lhs is None:
                    col = cols[z]
                    lhs = frozenset().union(*[col[a] for a in lset])
                    left[key] = lhs
                rset = table[y][z]
                key = (x, rset)
                rhs = right.get(key)
                if rhs is None:
                    rhs = frozenset().union(*[row_x[b] for b in rset])
                    right[key] = rhs
                if lhs != rhs:
                    return (x, y, z)
    return None


def first_repro_witness(table):
    n = len(table)
    full = frozenset(range(n))
    for x in range(n):
        row = frozenset().union(*table[x])
        col = frozenset().union(*[table[y][x] for y in range(n)])
        if row != full or col != full:
            return x
    return None


def first_empty_witness(table):
    for x, row in enumerate(table):
        for y, e in enumerate(row):
            if not e:
                return (x, y)
    return None


def axioms(table):
    return first_assoc_witness(table), first_repro_witness(table), first_empty_witness(table)


def assoc_fails_at(table, x, y, z) -> bool:
    lhs = frozenset().union(*[table[a][z] for a in table[x][y]])
    rhs = frozenset().union(*[table[x][b] for b in table[y][z]])
    return lhs != rhs


def is_hypergroup(table) -> bool:
    return (first_empty_witness(table) is None and first_repro_witness(table) is None
            and first_assoc_witness(table) is None)


# --- congruences -------------------------------------------------------------


def is_reflector_congruence(table, labels) -> bool:
    """sat(x.y) = union of x.y' over y' ~ y = union of x'.y over x' ~ x."""
    n = len(table)
    blocks: dict = {}
    for i, lab in enumerate(labels):
        blocks.setdefault(lab, set()).add(i)
    cls = [frozenset(blocks[labels[i]]) for i in range(n)]
    for x in range(n):
        for y in range(n):
            e = table[x][y]
            sat = frozenset().union(*[cls[z] for z in e])
            if frozenset().union(*[table[x][y2] for y2 in cls[y]]) != sat:
                return False
            if frozenset().union(*[table[x2][y] for x2 in cls[x]]) != sat:
                return False
    return True


def partitions(n: int):
    """Every partition of range(n) as restricted-growth labels."""
    labels = [0] * n

    def rec(i, top):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(top + 1):
            labels[i] = lab
            yield from rec(i + 1, max(top, lab + 1))

    return rec(1, 1) if n > 1 else iter([(0,) * n])


def congruences(table) -> list[tuple[int, ...]]:
    """All reflector congruences by a raw sweep over every partition."""
    return [p for p in partitions(len(table)) if is_reflector_congruence(table, p)]


def blocks_to_labels(n, blocks):
    labels = [-1] * n
    for b, block in enumerate(blocks):
        for i in block:
            if labels[i] != -1:
                return None
            labels[i] = b
    return None if -1 in labels else labels


def quotient(table, labels):
    """Classes in order of least member; [a].[b] = classes meeting a.b."""
    order = []
    for lab in labels:
        if lab not in order:
            order.append(lab)
    cidx = {lab: i for i, lab in enumerate(order)}
    rep = {}
    for i, lab in enumerate(labels):
        rep.setdefault(cidx[lab], i)
    k = len(order)
    return [[frozenset(cidx[labels[z]] for z in table[rep[a]][rep[b]]) for b in range(k)]
            for a in range(k)]


# --- isomorphism -------------------------------------------------------------


def preserves_products(ta, tb, g) -> bool:
    """g is a bijection with g(x.y) = g(x).g(y) for every pair."""
    n = len(ta)
    if len(tb) != n or sorted(g) != list(range(n)):
        return False
    return all(frozenset(g[z] for z in ta[x][y]) == tb[g[x]][g[y]]
               for x in range(n) for y in range(n))


def size_profile(table):
    """Sorted product sizes with row and column sums: an isomorphism invariant."""
    n = len(table)
    return sorted((len(table[x][x]), sorted(len(e) for e in table[x]),
                   sorted(len(table[y][x]) for y in range(n)),
                   x in table[x][x]) for x in range(n))


def invariant(table):
    """The size profile and whether the operation commutes."""
    n = len(table)
    return size_profile(table), all(table[x][y] == table[y][x]
                                    for x in range(n) for y in range(n))


def is_total(table) -> bool:
    full = frozenset(range(len(table)))
    return all(e == full for row in table for e in row)


def is_cyclic_group(table) -> bool:
    """Univalent, and some element's powers reach every element."""
    n = len(table)
    if any(len(e) != 1 for row in table for e in row):
        return False
    op = [[next(iter(e)) for e in row] for row in table]
    for g in range(n):
        seen, x = {g}, g
        for _ in range(n):
            x = op[x][g]
            seen.add(x)
        if len(seen) == n:
            return True
    return False


def isomorphic_small(ta, tb) -> bool:
    """Exhaustive search over all bijections; for carriers of at most 7."""
    n = len(ta)
    if n != len(tb) or size_profile(ta) != size_profile(tb):
        return False
    return any(preserves_products(ta, tb, g) for g in itertools.permutations(range(n)))


# --- closed forms ------------------------------------------------------------


def bell(n: int) -> int:
    """Bell numbers by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def tau(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def dihedral_normal_count(m: int) -> int:
    """Normal subgroups of the dihedral group of order 2m."""
    return tau(m) + (3 if m % 2 == 0 else 1)


# --- constructions restated --------------------------------------------------


def s_family(sizes):
    """S(n, p_1..p_b): x.e = {x}; x.y = block(x) - {x} for y in A_0 - e;
    x.a = K - block(x) for a in a later block."""
    names = ["e"] + [f"y{i}" for i in range(1, sizes[0])]
    for b, p in enumerate(sizes[1:], start=1):
        names += [f"a{b}_{j}" for j in range(1, p + 1)]
    block_of = [b for b, p in enumerate(sizes) for _ in range(p)]
    total = len(block_of)
    blocks = [frozenset(i for i in range(total) if block_of[i] == b) for b in range(len(sizes))]
    full = frozenset(range(total))
    table = []
    for x in range(total):
        row = []
        for y in range(total):
            if y == 0:
                row.append(frozenset([x]))
            elif block_of[y] == 0:
                row.append(blocks[block_of[x]] - {x})
            else:
                row.append(full - blocks[block_of[x]])
        table.append(row)
    return names, table


def s_family_regime(sizes) -> str:
    """The four regimes, first match wins: every later block the size of
    the first (coset-realisable); first >= 3 and every later block >= 3
    (hypergroup, no coset structure); first >= 2 and some later block a
    singleton (empty product); otherwise associativity fails."""
    n, rest = sizes[0], sizes[1:]
    if all(p == n for p in rest):
        return "DHypergroup"
    if n >= 3 and all(p >= 3 for p in rest):
        return "HypergroupNotD"
    if n >= 2 and any(p == 1 for p in rest):
        return "EmptyProduct"
    return "NotAssociative"


def cyclic(n):
    return [str(i) for i in range(n)], [[(x + y) % n for y in range(n)] for x in range(n)]


def symmetric(m):
    """Permutations in lexicographic order, (p*q)[i] = p[q[i]], named by
    their images (degree at most 10)."""
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(m))] for q in perms] for p in perms]
    return ["".join(map(str, p)) for p in perms], table, perms


def as_sets(gtable):
    return [[frozenset([v]) for v in row] for row in gtable]


def group_from_structure(names, table):
    """A univalent structure file read back as a group table."""
    return [[next(iter(e)) for e in row] for row in table]


def coset_space(names, gtable, h):
    """Right cosets xH numbered by least member, named by it plus 'H';
    (xH).(yH) = the cosets meeting xHyH."""
    label = [-1] * len(gtable)
    cos = []
    for x in range(len(gtable)):
        if label[x] == -1:
            c = frozenset(gtable[x][k] for k in h)
            for y in c:
                label[y] = len(cos)
            cos.append(c)
    table = [[frozenset(label[gtable[x][y]] for x in ca for y in cb) for cb in cos] for ca in cos]
    return [names[min(c)] + "H" for c in cos], table


def set_mult(gtable, a, b):
    return frozenset(gtable[x][y] for x in a for y in b)


def is_subgroup(gtable, k) -> bool:
    return bool(k) and all(gtable[x][y] in k for x in k for y in k)


def invariant_modulo(gtable, h, k) -> bool:
    """KxK = HxK = KxH for every x."""
    for x in range(len(gtable)):
        kxk = set_mult(gtable, k, set_mult(gtable, [x], k))
        if kxk != set_mult(gtable, h, set_mult(gtable, [x], k)):
            return False
        if kxk != set_mult(gtable, k, set_mult(gtable, [x], h)):
            return False
    return True


def utumi(gtable, labels):
    """x.y = x + (class of y) over a group written additively."""
    n = len(gtable)
    cls = [frozenset(z for z in range(n) if labels[z] == labels[y]) for y in range(n)]
    return [[frozenset(gtable[x][c] for c in cls[y]) for y in range(n)] for x in range(n)]


# --- trames ------------------------------------------------------------------


def parse_trame(text):
    """names, composable products {(u, v): w}, class label per element."""
    names, op, labels = None, {}, None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, body = line.partition(":")
        if key == "elements":
            names = body.split()
            index = {s: i for i, s in enumerate(names)}
        elif key == "compose":
            left, _, right = body.partition("->")
            u, v = (index[s] for s in left.split())
            op[u, v] = index[right.strip()]
        elif key == "classes":
            labels = [-1] * len(names)
            for b, chunk in enumerate(body.replace("}", "").split("{")[1:]):
                for s in chunk.split():
                    labels[index[s]] = b
    return names, op, labels


def trame_quotient(names, op, labels):
    """Class names are those of least members; classes in order of them."""
    order = []
    for lab in labels:
        if lab not in order:
            order.append(lab)
    cidx = {lab: i for i, lab in enumerate(order)}
    first = {}
    for i, lab in enumerate(labels):
        first.setdefault(cidx[lab], i)
    k = len(order)
    table = [[set() for _ in range(k)] for _ in range(k)]
    for (u, v), w in op.items():
        table[cidx[labels[u]]][cidx[labels[v]]].add(cidx[labels[w]])
    return ([names[first[c]] for c in range(k)],
            [[frozenset(e) for e in row] for row in table])


def trame_repro_witness(qtable):
    """First class X whose row or column cover misses a class, with the
    first missed class Y."""
    k = len(qtable)
    for x in range(k):
        row = frozenset().union(*qtable[x])
        col = frozenset().union(*[qtable[y][x] for y in range(k)])
        if len(row) != k or len(col) != k:
            return (x, next(y for y in range(k) if y not in row or y not in col))
    return None


def trame_invariant(op, r, s) -> bool:
    """S is invariant modulo R: R refines S and, over R-class products
    P.Q, satS(P.Q) = union of P.Q' (Q' ~S Q) = union of P'.Q (P' ~S P)."""
    image = {}
    for lab, slab in zip(r, s):
        if image.setdefault(lab, slab) != slab:
            return False
    kr = max(r) + 1
    prod = [[set() for _ in range(kr)] for _ in range(kr)]
    for (u, v), w in op.items():
        prod[r[u]][r[v]].add(r[w])
    block = {}
    for lab in range(kr):
        block.setdefault(image[lab], set()).add(lab)
    for p in range(kr):
        for q in range(kr):
            sat = set().union(*[block[image[w]] for w in prod[p][q]])
            if set().union(*[prod[p][q2] for q2 in block[image[q]]]) != sat:
                return False
            if set().union(*[prod[p2][q] for p2 in block[image[p]]]) != sat:
                return False
    return True
