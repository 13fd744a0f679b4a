"""Trames, quotients, adequacy, and invariance of coarser equivalences."""

import itertools
import random

import pytest

from hypergroups.core import (
    CapExceeded,
    Hypergroup,
    Multistructure,
    find_isomorphism,
    is_reflector,
    verify_axioms,
)
from hypergroups.groups import (
    Subgroup,
    as_hypergroup,
    coset_relation,
    cyclic_group,
    is_invariant_modulo,
    stabilizer_subgroup,
    subgroups,
    symmetric_group,
)
from hypergroups.presentations import (
    Presentation,
    Trame,
    group_trame,
    is_adequate,
    is_invariant_modulo_equiv,
    quotient,
)
from hypergroups.simplicity import presentation_simplicity
from hypergroups.constructions import (
    canonical_presentation,
    left_coset_hypergroup,
    right_coset_hypergroup,
    s_family,
)

from conftest import Mapping, all_equivalences, reflect


# --- oracles ------------------------------------------------------------------


def naive_canonical_presentation(h):
    """The names, op and labels of constructions.canonical_presentation
    by four nested loops: the element (v, (a, b, c)) at index
    v n^3 + a n^2 + b n + c, labelled v; the pair ((a,t),(b,t)) composes
    to (c,t) for each t = (a,b,c) with c in a.b."""
    n = h.n
    names, op, r = [], {}, []
    for v in range(n):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    names.append(f"{h.names[v]}|{h.names[a]},{h.names[b]},{h.names[c]}")
                    r.append(v)
                    t = (a * n + b) * n + c
                    if h.table[a][b] >> c & 1:
                        op[a * n ** 3 + t, b * n ** 3 + t] = c * n ** 3 + t
    return tuple(names), op, tuple(r)


def literal_chain_condition(t: Trame, r) -> bool:
    """The unsaturated two-chain comparison over class triples.

    Left chains take p among actual composable products of an X x Y pair
    (no closure under R), then compose (p, t) with t in Z; right chains
    dually. This weaker reading is pinned by counterexamples below as
    neither necessary nor sufficient for quotient associativity.
    """
    k = max(r) + 1
    cls = [[] for _ in range(k)]
    for i, lab in enumerate(r):
        cls[lab].append(i)
    prod = {}
    for (u, v), w in t.op.items():
        prod.setdefault((r[u], r[v]), set()).add(w)
    for x in range(k):
        for y in range(k):
            for z in range(k):
                lhs = set()
                for p in prod.get((x, y), ()):
                    for tt in cls[z]:
                        w = t.op.get((p, tt))
                        if w is not None:
                            lhs.add(r[w])
                rhs = set()
                for q in prod.get((y, z), ()):
                    for rr in cls[x]:
                        w = t.op.get((rr, q))
                        if w is not None:
                            rhs.add(r[w])
                if lhs != rhs:
                    return False
    return True


def literal_block_constancy(t: Trame, r, s) -> bool:
    """The existential per-block reading of invariance.

    For every S-class pair and composable (u, v) inside it, every (p, q)
    in the same pair of S-classes admits a composable pair in the
    R-classes of p and q whose product is S-equivalent to u.v. Pinned
    below as strictly weaker than the saturated form the library uses.
    """
    image = {}
    for i, lab in enumerate(r):
        if image.setdefault(lab, s[i]) != s[i]:
            return False
    ks = max(s) + 1
    scls = [[] for _ in range(ks)]
    for i, lab in enumerate(s):
        scls[lab].append(i)
    rcls = {}
    for i, lab in enumerate(r):
        rcls.setdefault(lab, []).append(i)
    for xh in range(ks):
        for yh in range(ks):
            for u in scls[xh]:
                for v in scls[yh]:
                    if (u, v) not in t.op:
                        continue
                    target = s[t.op[u, v]]
                    for p in scls[xh]:
                        for q in scls[yh]:
                            if not any(
                                    s[t.op[a, b]] == target
                                    for a in rcls[r[p]] for b in rcls[r[q]]
                                    if (a, b) in t.op):
                                return False
    return True


def trame_adequacy_scan(p: Presentation):
    """Both adequacy conditions checked element by element on the trame.

    Reproductivity: the classes of u.v over composable (u, v) with u in X
    (row coverage) and with v in X (column coverage) are all classes; the
    witness is (X, first Y missing from either). Associativity: for every
    class triple (X, Y, Z), composing the R-saturation of the products of
    X x Y with Z reaches the same classes as composing X with the
    R-saturation of the products of Y x Z; the witness is the first
    failing triple. Returns the four fields of an AdequacyReport.
    """
    t, r, k = p.trame, p.r, p.k
    cls = [[] for _ in range(k)]
    for i, lab in enumerate(r):
        cls[lab].append(i)
    prod = [[set() for _ in range(k)] for _ in range(k)]
    rowcov = [set() for _ in range(k)]
    colcov = [set() for _ in range(k)]
    for (u, v), w in t.op.items():
        prod[r[u]][r[v]].add(r[w])
        rowcov[r[u]].add(r[w])
        colcov[r[v]].add(r[w])
    repro_witness = None
    for x in range(k):
        missing = [y for y in range(k) if y not in rowcov[x] or y not in colcov[x]]
        if missing:
            repro_witness = (x, missing[0])
            break

    def sat_members(classes):
        return [e for c in classes for e in cls[c]]

    assoc_witness = None
    for x, y, z in itertools.product(range(k), repeat=3):
        lhs = {r[t.op[a, b]] for a in sat_members(prod[x][y]) for b in cls[z]
               if (a, b) in t.op}
        rhs = {r[t.op[a, b]] for a in cls[x] for b in sat_members(prod[y][z])
               if (a, b) in t.op}
        if lhs != rhs:
            assoc_witness = (x, y, z)
            break
    return (repro_witness is None, assoc_witness is None,
            repro_witness, assoc_witness)


def rclass_invariance(t: Trame, r, s) -> bool:
    """S invariant modulo R, by sets of R-classes over every R-class pair.

    R must refine S; then for all R-classes P, Q the S-saturation of P.Q,
    the union of P.Q' over Q' S-equivalent to Q, and the union of P'.Q
    over P' S-equivalent to P coincide.
    """
    image = {}
    for i, lab in enumerate(r):
        if image.setdefault(lab, s[i]) != s[i]:
            return False
    kr = max(r) + 1
    prod = {}
    for (u, v), w in t.op.items():
        prod.setdefault((r[u], r[v]), set()).add(r[w])
    block = {}
    for lab in range(kr):
        block.setdefault(image[lab], []).append(lab)
    for p in range(kr):
        for q in range(kr):
            sat = {c for w in prod.get((p, q), ()) for c in block[image[w]]}
            row = {c for q2 in block[image[q]] for c in prod.get((p, q2), ())}
            col = {c for p2 in block[image[p]] for c in prod.get((p2, q), ())}
            if not sat == row == col:
                return False
    return True


def bell_sweep_simplicity(p: Presentation):
    """(simple, invariant count, partitions checked) by lifting every
    partition of the R-classes to the trame and testing its invariance."""
    invariant = checked = 0
    for part in all_equivalences(p.k):
        checked += 1
        s = tuple(part.class_of[lab] for lab in p.r)
        invariant += rclass_invariance(p.trame, p.r, s)
    return invariant == 2, invariant, checked


def naive_quotient_sets(t: Trame, r):
    k = max(r) + 1
    out = [[set() for _ in range(k)] for _ in range(k)]
    for (u, v), w in t.op.items():
        out[r[u]][r[v]].add(r[w])
    return out


def random_presentation(seed: int) -> Presentation:
    rng = random.Random(seed)
    t_n = rng.randint(1, 8)
    names = tuple(f"t{i}" for i in range(t_n))
    style = rng.randrange(3)
    op = {}
    for u in range(t_n):
        for v in range(t_n):
            if style == 0 and rng.random() < 0.4:
                op[u, v] = rng.randrange(t_n)
            elif style == 1:
                op[u, v] = rng.randrange(t_n)
            elif style == 2 and rng.random() < 0.9:
                op[u, v] = (u + v) % t_n
    labels = []
    nxt = 0
    for _ in range(t_n):
        lab = rng.randint(0, nxt)
        labels.append(lab)
        if lab == nxt:
            nxt += 1
    return Presentation(Trame(names, op), tuple(labels))


def coset_presentation(g, hmask: int) -> Presentation:
    return Presentation(group_trame(g), coset_relation(g, hmask, "right"))


# --- construction and validation ------------------------------------------------


def test_trame_validation():
    with pytest.raises(ValueError):
        Trame((), {})
    with pytest.raises(ValueError):
        Trame(("a", "a"), {})
    with pytest.raises(ValueError):
        Trame(("a", "b"), {(0, 2): 0})
    with pytest.raises(ValueError):
        Trame(("a", "b"), {(0, 0): 5})


def test_presentation_validation():
    t = Trame(("a", "b"), {(0, 0): 0})
    with pytest.raises(ValueError):
        Presentation(t, (0,))
    with pytest.raises(ValueError):
        Presentation(t, (1, 0))
    with pytest.raises(ValueError):
        Presentation(t, (0, 2))
    assert Presentation(t, (0, 1)).k == 2
    assert Presentation(t, (0, 0)).k == 1


def test_quotient_carrier_cap():
    names = tuple(f"t{i}" for i in range(65))
    p = Presentation(Trame(names, {}), tuple(range(65)))
    with pytest.raises(CapExceeded):
        quotient(p)


# --- quotient anchors -----------------------------------------------------------


def test_identity_relation_returns_the_group(sym3):
    p = Presentation(group_trame(sym3), tuple(range(6)))
    assert quotient(p) == as_hypergroup(sym3).m


def test_quotient_matches_coset_hypergroup(sym3, z8, dih8):
    cases = [(sym3, 0b000011), (sym3, 0b011001),
             (z8, 0b00010001), (dih8, 0b11), (dih8, 0b01010101)]
    for g, hm in cases:
        sub = Subgroup(g, hm)
        right = right_coset_hypergroup(g, sub)
        q = quotient(Presentation(group_trame(g), coset_relation(g, hm, "right")))
        assert q.table == right.table
        left = left_coset_hypergroup(g, sub)
        ql = quotient(Presentation(group_trame(g), coset_relation(g, hm, "left")))
        assert ql.table == left.table


def test_quotient_against_naive_buckets():
    for seed in range(60):
        p = random_presentation(seed)
        q = quotient(p)
        want = naive_quotient_sets(p.trame, p.r)
        for x in range(p.k):
            for y in range(p.k):
                got = {c for c in range(p.k) if q.table[x][y] >> c & 1}
                assert got == want[x][y]


def test_single_element_trame():
    p = Presentation(Trame(("t",), {(0, 0): 0}), (0,))
    rep = is_adequate(p)
    assert rep.reproductive and rep.associative
    h = Hypergroup.certify(quotient(p))
    assert h.n == 1


def test_canonical_presentation_reproduces_tables(small_hypergroup_corpus):
    for h in small_hypergroup_corpus:
        p = canonical_presentation(h)
        assert p.trame.t_n == h.n ** 4
        q = quotient(p)
        assert q.table == h.table
        # each class after its least member, the copy (v, (0, 0, 0))
        first = ",".join([h.names[0]] * 3)
        assert q.names == tuple(f"{v}|{first}" for v in h.names)
        assert find_isomorphism(q, h.m) is not None
        assert bool(is_adequate(p))
    one = canonical_presentation(as_hypergroup(cyclic_group(1)))
    assert quotient(one).names == ("0|0,0,0",)


def test_canonical_presentation_matches_the_nested_loops():
    rng = random.Random(33)
    tables = [((0,),), ((1,),)]  # both one-element tables
    tables += [((a, b), (c, d)) for a, b, c, d in itertools.product(range(4), repeat=4)]
    tables += [tuple(tuple(rng.randrange(8) for _ in range(3)) for _ in range(3))
               for _ in range(60)]
    for table in tables:
        m = Multistructure(("e", "a", "bc")[:len(table)], table)
        p = canonical_presentation(m)
        assert (p.trame.names, p.trame.op, p.r) == naive_canonical_presentation(m), table


def test_canonical_presentation_cap():
    with pytest.raises(CapExceeded):
        canonical_presentation(s_family((3, 4)), cap=100)


# --- adequacy -------------------------------------------------------------------


def test_coset_presentations_are_adequate(sym3, z8, dih8):
    for g in (sym3, z8, dih8):
        for s in subgroups(g):
            assert bool(is_adequate(coset_presentation(g, s.mask)))


def test_nonassociative_s_family_fails_condition_two():
    m = s_family((2, 3))
    p = canonical_presentation(m)
    rep = is_adequate(p)
    va = verify_axioms(quotient(p))
    assert rep.reproductive and va.reproductive
    assert not rep.associative and not va.associative
    assert rep.assoc_witness == va.assoc_witness == (2, 1, 1)


def test_adequacy_equals_quotient_axioms_on_random_trames(sym3, z8):
    pool = [random_presentation(seed) for seed in range(700)]
    pool += [coset_presentation(g, s.mask)
             for g in (sym3, z8) for s in subgroups(g)]
    adequate_seen = 0
    for p in pool:
        rep = is_adequate(p)
        va = verify_axioms(quotient(p))
        assert rep.reproductive == va.reproductive, p
        assert rep.associative == va.associative, p
        if not rep.associative:
            assert rep.assoc_witness == va.assoc_witness
        if not rep.reproductive:
            assert rep.repro_witness[0] == va.repro_witness
        if rep.reproductive and rep.associative:
            adequate_seen += 1
            Hypergroup.certify(quotient(p))  # nonempty comes for free
    assert adequate_seen >= 30


def test_unsaturated_chain_condition_is_not_associativity():
    # sparse trame: 0.0 = 1 and 2.2 = 3, classes {0},{1,2},{3}; no chain
    # is ever composable so the unsaturated comparison holds vacuously,
    # yet the quotient fails associativity at (X0, X0, X1)
    a = Presentation(
        Trame(("p", "q", "r", "s"), {(0, 0): 1, (2, 2): 3}), (0, 1, 1, 2))
    assert literal_chain_condition(a.trame, a.r)
    rep = is_adequate(a)
    assert not rep.associative
    assert not verify_axioms(quotient(a)).associative
    assert rep.assoc_witness == (0, 0, 1)

    # total trame whose quotient is a hypergroup although the unsaturated
    # comparison fails at (X, X, Y)
    op = {(0, 0): 0, (0, 1): 0, (0, 2): 0,
          (1, 0): 0, (1, 1): 0, (1, 2): 2,
          (2, 0): 0, (2, 1): 2, (2, 2): 2}
    b = Presentation(Trame(("a", "b", "c"), op), (0, 0, 1))
    assert not literal_chain_condition(b.trame, b.r)
    assert bool(is_adequate(b))
    q = Hypergroup.certify(quotient(b))
    assert q.names == ("a", "c")
    assert q.table == ((0b01, 0b11), (0b11, 0b10))


# --- invariance -----------------------------------------------------------------


def test_invariance_trivial_cases(sym3):
    t = group_trame(sym3)
    r = coset_relation(sym3, 0b000011, "right")
    assert r == (0, 0, 1, 1, 2, 2)
    assert is_invariant_modulo_equiv(t, r, r)
    assert is_invariant_modulo_equiv(t, r, (0,) * 6)
    # an equivalence that does not coarsen r fails outright
    assert not is_invariant_modulo_equiv(t, r, coset_relation(sym3, 0b101, "right"))


def test_invariance_refuses_relations_of_the_wrong_length(sym3):
    t = group_trame(sym3)
    r = coset_relation(sym3, 0b000011, "right")
    for rr, ss in ((r[:5], r), (r, r + (2,))):
        with pytest.raises(ValueError, match="^relations must label every trame element$"):
            is_invariant_modulo_equiv(t, rr, ss)


def test_invariance_reads_r_labels_in_any_numbering():
    # R's labels need not be in restricted-growth order: (0, 2, 2) is the
    # relation (0, 1, 1), and a relabelled R decides as R does
    t = Trame(("a", "b", "c"), {(0, 0): 0, (1, 1): 2})
    for s in ((0, 0, 0), (0, 1, 1), (0, 0, 1), (0, 1, 2)):
        assert is_invariant_modulo_equiv(t, (0, 2, 2), s) == \
            is_invariant_modulo_equiv(t, (0, 1, 1), s), s
    assert not is_invariant_modulo_equiv(t, (0, 2, 2), (0, 0, 0))
    g = symmetric_group(3)
    r = coset_relation(g, stabilizer_subgroup(g, 0).mask, "right")
    shifted = tuple(7 - lab for lab in r)
    for h in subgroups(g):
        s = coset_relation(g, h.mask, "right")
        assert is_invariant_modulo_equiv(group_trame(g), shifted, s) == \
            is_invariant_modulo_equiv(group_trame(g), r, s)


def test_invariance_agrees_with_subgroup_invariance(sym3, z8, dih8):
    for g in (sym3, z8, dih8):
        t = group_trame(g)
        subs = subgroups(g)
        for hs in subs:
            r = coset_relation(g, hs.mask, "right")
            for ks in subs:
                s = coset_relation(g, ks.mask, "right")
                assert is_invariant_modulo_equiv(t, r, s) == \
                    is_invariant_modulo(g, hs.mask, ks.mask), (hs.mask, ks.mask)


def test_block_constancy_is_weaker_than_invariance(sym3):
    # merging the two non-neutral stabilizer cosets satisfies the
    # existential per-block condition, but the induced two-class map is
    # not a reflector of the three-class coset structure, and the
    # saturated invariance check refuses it
    t = group_trame(sym3)
    r = (0, 0, 1, 1, 2, 2)
    s = (0, 0, 1, 1, 1, 1)
    assert literal_block_constancy(t, r, s)
    assert not is_invariant_modulo_equiv(t, r, s)
    fine = Hypergroup.certify(quotient(Presentation(t, r)))
    coarse = Hypergroup.certify(quotient(Presentation(t, s)))
    f = Mapping(fine.m, coarse.m, (0, 1, 1))
    assert not is_reflector(f.dom, f.cod, f.image)
    with pytest.raises(ValueError):
        reflect(Presentation(t, r), s)


def test_invariance_passes_to_adequacy(sym3, z8, dih8):
    # every invariant coarsening of an adequate presentation is adequate
    pres = [coset_presentation(sym3, 0b000011),
            coset_presentation(z8, 0b00000001),
            coset_presentation(dih8, 0b11)]
    fired = 0
    for p in pres:
        assert bool(is_adequate(p))
        for part in all_equivalences(p.k):
            s = tuple(part.class_of[lab] for lab in p.r)
            if is_invariant_modulo_equiv(p.trame, p.r, s):
                fired += 1
                assert bool(is_adequate(Presentation(p.trame, s)))
    assert fired >= 6  # at least r itself and total, per presentation


def test_reflet_fibers_are_invariant(sym3):
    # every reflet found by congruence search has invariant fibers
    from hypergroups.simplicity import reflector_congruences
    pres = [coset_presentation(sym3, 0b000011),
            canonical_presentation(Hypergroup.certify(s_family((4,)))),
            coset_presentation(cyclic_group(6), 0b000001)]
    for p in pres:
        h = Hypergroup.certify(quotient(p))
        found = reflector_congruences(h)
        assert len(found) >= 2
        for c in found:
            s = tuple(c.eq.class_of[lab] for lab in p.r)
            assert is_invariant_modulo_equiv(p.trame, p.r, s)


def test_reflect_examples(sym3):
    p = coset_presentation(sym3, 0b000011)
    again = reflect(p, p.r)
    assert again.table == quotient(p).table
    one = reflect(p, (0,) * 6)
    assert one.n == 1
    sym4 = symmetric_group(4)
    p4 = coset_presentation(sym4, stabilizer_subgroup(sym4, 0).mask)
    assert reflect(p4, (0,) * 24).n == 1


# --- simplicity via presentations ----------------------------------------------


def test_presentation_simplicity_frozen_values(sym3):
    ps = presentation_simplicity(coset_presentation(sym3, 0b000011))
    assert (ps.simple, ps.invariant_count, ps.checked) == (True, 2, 5)
    assert bool(ps)
    z4 = presentation_simplicity(
        coset_presentation(cyclic_group(4), 0b0001))
    assert (z4.simple, z4.invariant_count, z4.checked) == (False, 3, 15)
    assert not bool(z4)
    z5 = presentation_simplicity(
        coset_presentation(cyclic_group(5), 0b00001))
    assert (z5.simple, z5.invariant_count, z5.checked) == (True, 2, 52)


def test_presentation_simplicity_agrees_with_reflet_count(sym3, z8, dih8):
    from hypergroups.simplicity import is_simple
    pres = [coset_presentation(sym3, 0b000011),
            coset_presentation(sym3, 0b011001),
            coset_presentation(z8, 0b00000001),
            coset_presentation(z8, 0b00010001),
            coset_presentation(dih8, 0b11),
            coset_presentation(dih8, 0b01010101)]
    for p in pres:
        ps = presentation_simplicity(p)
        assert ps.simple == is_simple(Hypergroup.certify(quotient(p))), p.r


def test_presentation_simplicity_errors(sym3, z8):
    with pytest.raises(ValueError):
        presentation_simplicity(
            Presentation(group_trame(sym3), (0,) * 6))  # trivial quotient
    with pytest.raises(CapExceeded):
        presentation_simplicity(coset_presentation(z8, 0b1), cap=4)
    bad = canonical_presentation(s_family((2, 3)))
    with pytest.raises(ValueError):
        presentation_simplicity(bad)  # not adequate


# --- the library against the element-level oracles ------------------------------


@pytest.fixture(scope="module")
def oracle_pool(sym3, z8, dih8):
    """1,500 random presentations, every right coset presentation of S3,
    Z8 and D8, and canonical presentations of small tables."""
    pool = [random_presentation(seed) for seed in range(1500)]
    pool += [coset_presentation(g, s.mask)
             for g in (sym3, z8, dih8) for s in subgroups(g)]
    pool += [canonical_presentation(m) for m in
             (s_family((3,)), s_family((1, 2)), as_hypergroup(cyclic_group(3)))]
    return pool


def test_adequacy_matches_trame_scan(oracle_pool):
    adequate = 0
    for p in oracle_pool:
        rep = is_adequate(p)
        want = trame_adequacy_scan(p)
        assert (rep.reproductive, rep.associative,
                rep.repro_witness, rep.assoc_witness) == want, (p.trame.op, p.r)
        adequate += bool(rep)
    assert len(oracle_pool) >= 1500 and 500 <= adequate <= len(oracle_pool) - 500


def test_invariance_matches_rclass_loop(oracle_pool):
    checks = invariant = 0
    for seed, p in enumerate(oracle_pool):
        rng = random.Random(seed)
        t_n = p.trame.t_n
        rels = [p.r, (0,) * t_n]
        for _ in range(3):  # coarsenings of R
            lift = [rng.randrange(p.k) for _ in range(p.k)]
            rels.append(tuple(lift[lab] for lab in p.r))
        for _ in range(2):  # arbitrary relations, mostly not coarser than R
            rels.append(tuple(rng.randrange(t_n) for _ in range(t_n)))
        for s in rels:
            got = is_invariant_modulo_equiv(p.trame, p.r, s)
            assert got == rclass_invariance(p.trame, p.r, s), (p.trame.op, p.r, s)
            checks += 1
            invariant += got
    assert checks >= 10000 and 2000 <= invariant <= checks - 2000


def test_invariance_above_64_classes_matches_rclass_loop():
    g = cyclic_group(70)
    t = group_trame(g)
    r = tuple(range(70))
    cases = {
        tuple(x % 35 for x in range(70)): True,  # cosets of {0, 35}
        tuple(x % 14 for x in range(70)): True,  # cosets of the order-5 subgroup
        tuple(x // 2 for x in range(70)): False,  # pairs {2i, 2i+1}
    }
    for s, want in cases.items():
        assert is_invariant_modulo_equiv(t, r, s) == want
        assert rclass_invariance(t, r, s) == want


def test_presentation_simplicity_matches_bell_sweep(oracle_pool):
    compared = simple = 0
    for p in oracle_pool:
        if not 2 <= p.k <= 8 or not is_adequate(p):
            continue
        ps = presentation_simplicity(p)
        assert (ps.simple, ps.invariant_count, ps.checked) == \
            bell_sweep_simplicity(p), (p.trame.op, p.r)
        compared += 1
        simple += ps.simple
    assert compared >= 200 and 10 <= simple <= compared - 10
