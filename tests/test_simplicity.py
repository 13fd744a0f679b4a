import random
import tracemalloc
from functools import reduce
from itertools import combinations, islice, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from hypergroups.core import (
    CapExceeded,
    EquivalenceRelation,
    Hypergroup,
    Multistructure,
    _invariants,
    find_isomorphism,
    from_json,
    is_group,
    mask_of,
    members,
    opposite,
    to_json,
    verify_axioms,
)
from hypergroups.groups import (
    Subgroup,
    as_hypergroup,
    coset_relation,
    cyclic_group,
    dihedral_group,
    is_maximal,
    is_normal,
    overgroups,
    stabilizer_subgroup,
    subgroups,
    symmetric_group,
)
from hypergroups.constructions import (
    UtumiInput,
    left_coset_hypergroup,
    right_coset_hypergroup,
    s_family,
    stabilizer_hypergroup,
    utumi,
    utumi_is_associative,
    utumi_simplicity_criterion,
)
from hypergroups.presentations import group_trame, is_invariant_modulo_equiv
from hypergroups import simplicity
from hypergroups.simplicity import (
    DEFAULT_SIMPLICITY_CAP,
    ReflectorCongruence,
    bell_number,
    congruence_search,
    coset_simplicity_report,
    invariant_modulo_subgroups,
    is_reflector_congruence,
    is_simple,
    is_simple_coset,
    quotient_by,
    reflector_congruences,
    reflets,
    simplicity_report,
)

from conftest import (
    all_equivalences,
    all_pairs_node_ok,
    all_triples_quotient_by,
    axioms_hold,
    blocks_of,
    class_coset_spaces,
    coarsest_congruence,
    congruences_to_mask_width,
    direct_product,
    identity_relation,
    is_set_isomorphism,
    naive_congruence_search,
    naive_is_invariant_modulo,
    naive_quotient_by,
    naive_reflector_partitions,
    quaternion_group,
    refines,
    saturate,
    set_product,
    table_sets,
    total_relation,
)


@pytest.fixture(scope="module")
def z4h():
    return as_hypergroup(cyclic_group(4))


@pytest.fixture(scope="module")
def z8h():
    return as_hypergroup(cyclic_group(8))


def test_saturation_identity_examples(z4h, utumi_z8):
    mod2 = EquivalenceRelation.from_blocks(4, [[0, 2], [1, 3]])
    assert is_reflector_congruence(z4h, mod2)
    # {0,1}{2,3} on Z4: col at (0,1) is {0,1}.1 = {1,2}, sat(0.1) = {0,1}
    halves = EquivalenceRelation.from_blocks(4, [[0, 1], [2, 3]])
    assert not is_reflector_congruence(z4h, halves)
    # the defining blocks of the Utumi structure are not a congruence of it:
    # sat(1.1) pulls in whole classes but the row union stays 1 + class(1)
    blocks = EquivalenceRelation.from_blocks(8, [[0], [1, 4, 7], [2, 3, 5, 6]])
    assert not is_reflector_congruence(utumi_z8, blocks)
    with pytest.raises(ValueError, match="carrier"):
        is_reflector_congruence(z4h, total_relation(5))


def test_congruence_revalidation(z4h):
    ReflectorCongruence(z4h, EquivalenceRelation.from_blocks(4, [[0, 2], [1, 3]]))
    with pytest.raises(ValueError, match="saturation"):
        ReflectorCongruence(z4h, EquivalenceRelation.from_blocks(4, [[0, 1], [2, 3]]))


@given(st.data())
def test_saturation_identity_matches_set_oracle(small_hypergroup_corpus, data):
    h = small_hypergroup_corpus[data.draw(st.integers(0, len(small_hypergroup_corpus) - 1))]
    raw = data.draw(st.lists(st.integers(0, h.n - 1), min_size=h.n, max_size=h.n))
    eq = EquivalenceRelation.from_labels(raw)
    tbl = table_sets(h.m)
    bl = [frozenset(b) for b in blocks_of(eq)]
    ok = True
    for x in range(h.n):
        bx = next(b for b in bl if x in b)
        for y in range(h.n):
            by = next(b for b in bl if y in b)
            sat = saturate(bl, tbl[x][y])
            if not (sat == set_product(tbl, [x], by) == set_product(tbl, bx, [y])):
                ok = False
    assert is_reflector_congruence(h, eq) == ok


def test_enumeration_matches_naive_oracle(small_hypergroup_corpus, z8h, utumi_z8):
    for h in small_hypergroup_corpus + [z8h, utumi_z8]:
        mine = sorted(blocks_of(c.eq) for c in reflector_congruences(h))
        naive = sorted(naive_reflector_partitions(h.m))
        assert mine == naive


def test_enumeration_order_frozen(z4h, z8h):
    labs = [tuple(c.eq.class_of) for c in reflector_congruences(z8h)]
    # restricted-growth strings in lexicographic order, total first
    assert labs == sorted(labs)
    assert labs == [
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 1, 0, 1, 0, 1),
        (0, 1, 2, 3, 0, 1, 2, 3),
        (0, 1, 2, 3, 4, 5, 6, 7),
    ]
    assert [tuple(c.eq.class_of) for c in reflector_congruences(z4h)] == [
        (0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 2, 3)]


def test_enumeration_limit_stops_early(z8h):
    first = list(islice(congruence_search(z8h, DEFAULT_SIMPLICITY_CAP), 1))
    assert len(first) == 1 and first[0].eq.k == 1
    assert len(list(islice(congruence_search(z8h, DEFAULT_SIMPLICITY_CAP), 3))) == 3
    assert len(reflector_congruences(z8h)) == 4


def test_enumeration_cap(z4h):
    with pytest.raises(CapExceeded, match="cap"):
        reflector_congruences(z4h, cap=3)
    with pytest.raises(CapExceeded):
        is_simple(stabilizer_hypergroup(13))


def total_hypergroup(n):
    return Hypergroup.certify(Multistructure(tuple(f"t{i}" for i in range(n)),
                                             (((1 << n) - 1,) * n,) * n))


def with_node_count(search, *args, **kwargs):
    """search(*args, **kwargs) and the number of nodes reflector_congruences
    tested on the way: the calls of its per-node test."""
    calls = 0
    node_ok = simplicity._node_ok

    def counted(*node):
        nonlocal calls
        calls += 1
        return node_ok(*node)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicity, "_node_ok", counted)
        return search(*args, **kwargs), calls


def assert_same_search(h, limit):
    found, nodes = with_node_count(lambda: list(islice(congruence_search(h, h.n), limit)))
    assert ([c.eq.class_of for c in found], nodes) == naive_congruence_search(h, limit), \
        (h.names, limit)


INFLATION_BASES = [as_hypergroup(cyclic_group(k)) for k in (1, 2, 3, 4)] + [
    stabilizer_hypergroup(3), total_hypergroup(2), total_hypergroup(3)]


@st.composite
def small_hypergroup_tables(draw):
    """Tables on 1-7 elements, mostly hypergroups: a small hypergroup with
    each element blown up into a block of copies (x'.y' = the blocks of
    x.y), or a dense random table; relabelled, now and then with a bit
    added."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(INFLATION_BASES))
        owner = []
        for u in range(base.n):
            room = 7 - len(owner) - (base.n - u - 1)  # one place kept for each later u
            owner += [u] * draw(st.integers(1, min(3, room)))
        block = [sum(1 << a for a, v in enumerate(owner) if v == u) for u in range(base.n)]
        rows = [[sum(block[w] for w in range(base.n) if base.table[owner[a]][owner[b]] >> w & 1)
                 for b in range(len(owner))] for a in range(len(owner))]
    else:
        n = draw(st.integers(1, 7))
        full = (1 << n) - 1
        rows = [[full & ~(draw(st.integers(0, full)) & draw(st.integers(0, full))
                          & draw(st.integers(0, full)))
                 for _ in range(n)] for _ in range(n)]
    n = len(rows)
    perm = draw(st.permutations(range(n)))
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = sum(1 << perm[w] for w in range(n) if rows[x][y] >> w & 1)
    for _ in range(draw(st.integers(0, 1))):
        x, y, w = (draw(st.integers(0, n - 1)) for _ in range(3))
        out[x][y] |= 1 << w
    return Multistructure(tuple(f"x{i}" for i in range(n)), tuple(map(tuple, out)))


@settings(max_examples=300)
@given(small_hypergroup_tables(), st.sampled_from([None, 1, 3]))
def test_congruence_search_matches_rebuilt_oracle_on_random_hypergroups(m, limit):
    # the same leaves in the same order after the same number of nodes
    assume(verify_axioms(m).is_hypergroup)
    assert_same_search(Hypergroup.certify(m), limit)


def test_congruence_search_matches_rebuilt_oracle(small_hypergroup_corpus, utumi_z8, dih12):
    hs = small_hypergroup_corpus + [as_hypergroup(g) for g in (cyclic_group(12), dih12,
                                                              cyclic_group(24))]
    for h in hs + [total_hypergroup(6), utumi_z8]:
        for limit in (None, 1, 3):
            assert_same_search(h, limit)


def test_congruence_search_leaves_match_checked_relations(small_hypergroup_corpus, utumi_z8):
    # the leaves skip EquivalenceRelation's check and mask build; rebuilt
    # through it, each has the same labels and class masks
    for h in small_hypergroup_corpus + [as_hypergroup(dihedral_group(6)), total_hypergroup(6),
                                        utumi_z8]:
        for c in reflector_congruences(h, cap=h.n):
            eq = EquivalenceRelation(c.eq.class_of)
            assert (c.eq.class_of, c.eq.class_masks) == (eq.class_of, eq.class_masks)


def test_congruence_search_node_counts():
    # pinned: a search that prunes less, or re-tests only the pairs that
    # involve the new element (266 nodes on D12, 451 on D16), fails here
    for h, nodes in ((as_hypergroup(cyclic_group(24)), 1216),
                     (as_hypergroup(dihedral_group(6)), 248),
                     (as_hypergroup(dihedral_group(8)), 426),
                     (as_hypergroup(cyclic_group(32)), 2171),
                     (total_hypergroup(8), 5294)):
        assert with_node_count(reflector_congruences, h, cap=64)[1] == nodes, h.names
    assert with_node_count(is_simple, as_hypergroup(cyclic_group(64)), cap=64) == (False, 586)


def test_meet_of_two_congruences_need_not_be_one():
    # reflector congruences are closed under join but not under meet
    rows = ((62, 63, 31, 59, 63, 23), (13, 62, 62, 59, 51, 61), (13, 62, 55, 19, 43, 58),
            (63, 57, 53, 61, 23, 55), (11, 63, 60, 13, 31, 54), (53, 59, 30, 23, 55, 31))
    h = Hypergroup.certify(Multistructure(tuple("abcdef"), rows))
    found = [c.eq.class_of for c in reflector_congruences(h)]
    assert found == [(0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 0), (0, 1, 0, 1, 1, 0),
                     (0, 1, 2, 3, 4, 5)]
    meet = EquivalenceRelation.from_labels(list(zip(found[1], found[2])))
    assert meet.class_of == (0, 1, 2, 3, 3, 0)
    assert not is_reflector_congruence(h, meet)


def with_checked_nodes(h):
    """Run reflector_congruences(h), comparing every node's verdict with
    all_pairs_node_ok, which skips no pair and no node; (the number of
    nodes that passed, the number that failed)."""
    node_ok = simplicity._node_ok
    verdicts = [0, 0]

    def checked(i, k, labels, cmask, rowsum, colsum, table, live, nextrow, nextcol):
        verdict = node_ok(i, k, labels, cmask, rowsum, colsum, table, live, nextrow, nextcol)
        assert verdict == all_pairs_node_ok(i, labels, cmask, rowsum, colsum, table,
                                            nextrow, nextcol), (h.names, labels[:i + 1])
        verdicts[verdict] += 1
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicity, "_node_ok", checked)
        reflector_congruences(h, cap=h.n)
    return verdicts[True], verdicts[False]


def skip_corpus():
    """Total hypergroups on 1-8 elements, C24, C31, C32, D12, D16, the
    S-family hypergroups on up to 9 elements, and the right and left coset
    spaces of S4 and S5 of index at most 12."""
    hs = [total_hypergroup(n) for n in range(1, 9)]
    hs += [as_hypergroup(g) for g in (cyclic_group(24), cyclic_group(31), cyclic_group(32),
                                      dihedral_group(6), dihedral_group(8))]
    for r in (1, 2, 3):
        for sizes in product(range(1, 10), repeat=r):
            if sum(sizes) <= 9 and verify_axioms(s_family(sizes)).is_hypergroup:
                hs.append(Hypergroup.certify(s_family(sizes)))
    for g in (symmetric_group(4), symmetric_group(5)):
        for sub in subgroups(g):
            if g.n // sub.order <= 12:
                hs += [right_coset_hypergroup(g, sub), left_coset_hypergroup(g, sub)]
    return hs


def test_node_verdicts_match_all_pairs():
    # the carrier-wide pairs and the total and identity prefixes are
    # skipped without changing any node's verdict, so the leaves agree too
    corpus = skip_corpus()
    passed = failed = 0
    for h in corpus:
        p, f = with_checked_nodes(h)
        passed, failed = passed + p, failed + f
    assert len(corpus) == 8 + 5 + 24 + 2 * (29 + 34)
    assert passed > 10000 and failed > 10000  # 10,647 and 12,955 when written


@settings(max_examples=100)
@given(small_hypergroup_tables())
def test_node_verdicts_match_all_pairs_on_random_hypergroups(m):
    assume(verify_axioms(m).is_hypergroup)
    with_checked_nodes(Hypergroup.certify(m))


def test_quotient_by_matches_all_triples():
    # reflets read off the least members' products equal the reflets read
    # off every product, compared by value
    compared = 0
    for h in skip_corpus():
        for c in reflector_congruences(h, cap=h.n):
            assert quotient_by(h, c) == all_triples_quotient_by(h, c), (h.names, c.eq)
            compared += 1
    assert compared == 5731


def test_reflets_pass_the_axioms():
    # quotient_by returns its table unchecked, as a reflet is a hypergroup;
    # the check it leaves out runs here, on the corpus above
    checked = 0
    for h in skip_corpus():
        for c in reflector_congruences(h, cap=h.n):
            assert axioms_hold(quotient_by(h, c)), (h.names, c.eq)
            checked += 1
    assert checked == 5731


def relabelled(m, perm):
    """m with element x renamed perm[x]: perm[x].perm[y] = perm(x.y)."""
    n = m.n
    names, rows = [None] * n, [[0] * n for _ in range(n)]
    for x in range(n):
        names[perm[x]] = m.names[x]
        for y in range(n):
            rows[perm[x]][perm[y]] = sum(1 << perm[w] for w in members(m.table[x][y]))
    return Multistructure(tuple(names), tuple(map(tuple, rows)))


def partitions_of(found, perm=None):
    """The congruences found as a set of partitions, each class a frozenset
    of elements, renamed by perm when given."""
    return {frozenset(frozenset(perm[x] if perm else x for x in members(cm))
                      for cm in c.eq.class_masks) for c in found}


@settings(max_examples=60)
@given(small_hypergroup_tables(), st.data())
def test_congruences_follow_a_relabelling(m, data):
    # the skips depend on element order; the answers must not
    assume(verify_axioms(m).is_hypergroup)
    h = Hypergroup.certify(m)
    perm = data.draw(st.permutations(range(h.n)))
    ph = Hypergroup.certify(relabelled(h, perm))
    found, pfound = reflector_congruences(h), reflector_congruences(ph)
    assert partitions_of(pfound) == partitions_of(found, perm)
    rep, prep = simplicity_report(h), simplicity_report(ph)
    assert (prep.simple, prep.invariant_count) == (rep.simple, rep.invariant_count)
    assert len(reflets(ph)) == len(reflets(h))
    op = Hypergroup.certify(opposite(h))
    assert [c.eq for c in reflector_congruences(op)] == [c.eq for c in found]


@settings(max_examples=100)
@given(small_hypergroup_tables(), st.data())
def test_isomorphisms_follow_a_relabelling(m, data):
    # the search assigns and tries elements in index order; whether it
    # finds an isomorphism may not depend on it
    perm = data.draw(st.permutations(range(m.n)))
    pm = relabelled(m, perm)
    inv, pinv = list(_invariants(m)), list(_invariants(pm))
    assert all(pinv[perm[x]] == inv[x] for x in range(m.n))
    g = find_isomorphism(m, pm)
    assert g is not None and is_set_isomorphism(m, pm, g)
    if data.draw(st.booleans()):
        k = data.draw(small_hypergroup_tables())
    else:  # a relabelled copy with one member of a product moved, so
        # that every product keeps its size
        rows = [list(r) for r in pm.table]
        x, y = data.draw(st.integers(0, m.n - 1)), data.draw(st.integers(0, m.n - 1))
        inside, outside = members(rows[x][y]), members(m.full_mask & ~rows[x][y])
        if inside and outside:
            rows[x][y] ^= (1 << data.draw(st.sampled_from(inside))
                           | 1 << data.draw(st.sampled_from(outside)))
        k = Multistructure(pm.names, tuple(map(tuple, rows)))
    g = find_isomorphism(m, k)
    assert g is None or is_set_isomorphism(m, k, g)
    pk = relabelled(k, data.draw(st.permutations(range(k.n))))
    assert (find_isomorphism(pm, k) is None) == (g is None) == (find_isomorphism(m, pk) is None)


def test_conjugate_subgroups_give_the_same_coset_report():
    # xH -> xg^-1 . gHg^-1 maps the right coset space of H onto that of
    # gHg^-1; the report on the interval [H, G] agrees with it
    cases = 0
    for grp in (symmetric_group(4), dihedral_group(6)):
        t, inv = grp.table, grp.inverse
        reports = {h.mask: coset_simplicity_report(grp, h) for h in subgroups(grp)}
        seen = set()
        for h in subgroups(grp):
            for x in range(grp.n):
                kmask = mask_of(t[t[x][y]][inv[x]] for y in members(h.mask))
                a, b = reports[h.mask], reports[kmask]
                assert (a.simple, a.invariant_count, a.checked) == \
                    (b.simple, b.invariant_count, b.checked)
                cases += 1
                if (h.mask, kmask) not in seen:
                    seen.add((h.mask, kmask))
                    rh = right_coset_hypergroup(grp, h).m
                    rk = right_coset_hypergroup(grp, Subgroup(grp, kmask)).m
                    g = find_isomorphism(rh, rk)
                    assert g is not None and is_set_isomorphism(rh, rk, g)
    assert cases == 912


def axiom_verdicts(m):
    rep = verify_axioms(m)
    return rep.associative, rep.reproductive, rep.all_products_nonempty


@settings(max_examples=60)
@given(small_hypergroup_tables(), st.data())
def test_axiom_verdicts_follow_a_relabelling(m, data):
    # the witnesses come first in index order and may move; the verdicts
    # may not. The relabelled table is read back from its JSON form.
    perm = data.draw(st.permutations(range(m.n)))
    assert axiom_verdicts(from_json(to_json(relabelled(m, perm)))) == axiom_verdicts(m)


def test_s_family_axiom_verdicts_follow_a_relabelling():
    # one table of each shape, and a copy with one product bit flipped
    rng = random.Random(23)
    seen = []
    for sizes in [(3, 2, 20, 15), (8, 1, 12, 12), (6, 6, 6, 6)]:
        m = s_family(sizes)
        rows = [list(row) for row in m.table]
        rows[rng.randrange(m.n)][rng.randrange(m.n)] ^= 1 << rng.randrange(m.n)
        flipped = Multistructure(m.names, tuple(map(tuple, rows)))
        for t in (m, flipped):
            want = axiom_verdicts(t)
            seen.append(want)
            perm = rng.sample(range(m.n), m.n)
            assert axiom_verdicts(from_json(to_json(relabelled(t, perm)))) == want
    assert seen == [(False, True, True)] * 2 + [(False, False, False)] * 2 + [
        (True, True, True), (False, True, True)]


def test_quotient_by_identity_reproduces(z8h):
    for h in (z8h, stabilizer_hypergroup(4)):
        c = ReflectorCongruence(h, identity_relation(h.n))
        assert quotient_by(h, c).m == h.m


def test_quotient_by_total_is_trivial(z8h):
    c = ReflectorCongruence(z8h, total_relation(8))
    q = quotient_by(z8h, c)
    assert q.n == 1 and q.names == ("0",) and q.table == ((1,),)


def test_quotient_tables(z4h, z8h):
    cs = reflector_congruences(z8h)
    # mod 4 classes reproduce the 4-cycle exactly, names from least members
    assert quotient_by(z8h, cs[2]).m == z4h.m
    q2 = quotient_by(z8h, cs[1])
    assert q2.names == ("0", "1") and q2.table == ((1, 2), (2, 1))
    assert is_group(q2.m)


def test_quotient_carrier_guard(z4h):
    c = reflector_congruences(z4h)[1]
    # equal table on a distinct object is fine, a different table is not
    assert quotient_by(as_hypergroup(cyclic_group(4)), c).n == 2
    with pytest.raises(ValueError, match="different"):
        quotient_by(stabilizer_hypergroup(3), c)


def test_quotient_by_matches_class_mask_oracle(z8h, utumi_z8, coset_test_set):
    # the quotient kernel against the class-mask loop, names included
    total6 = Hypergroup.certify(Multistructure(tuple("abcdef"), ((63,) * 6,) * 6))
    hs = [z8h, total6, utumi_z8] + [right_coset_hypergroup(g, sub)
                                    for g, sub in coset_test_set]
    compared = 0
    for h in hs:
        for c in reflector_congruences(h):
            q = quotient_by(h, c)
            assert (q.names, q.table) == naive_quotient_by(h, c.eq), (h.names, c.eq)
            compared += 1
    assert compared == 4 + 203 + 2 + 200  # Z8, total6 (Bell(6)), Utumi, coset spaces


def test_reflets_frozen(z4h, z8h, sym3, klein, utumi_z8):
    assert [q.n for q in reflets(z4h)] == [1, 2, 4]
    assert [q.n for q in reflets(z8h)] == [1, 2, 4, 8]
    assert [q.n for q in reflets(stabilizer_hypergroup(3))] == [1, 3]
    assert [q.n for q in reflets(stabilizer_hypergroup(4))] == [1, 4]
    assert [q.n for q in reflets(as_hypergroup(sym3))] == [1, 2, 6]
    assert [q.n for q in reflets(utumi_z8)] == [1, 8]
    assert [q.n for q in reflets(as_hypergroup(cyclic_group(1)))] == [1]
    # Klein: five congruences, the three 2-class quotients are isomorphic
    kh = as_hypergroup(klein)
    assert len(reflector_congruences(kh)) == 5
    assert [q.n for q in reflets(kh)] == [1, 2, 4]


def test_is_simple_frozen(z4h, z8h, klein, utumi_z8):
    assert not is_simple(as_hypergroup(cyclic_group(1)))  # trivial: one reflet
    assert is_simple(as_hypergroup(cyclic_group(2)))
    assert is_simple(as_hypergroup(cyclic_group(5)))
    assert not is_simple(z4h)
    assert not is_simple(z8h)
    assert not is_simple(as_hypergroup(klein))
    assert is_simple(stabilizer_hypergroup(2))
    assert is_simple(stabilizer_hypergroup(3))
    assert is_simple(stabilizer_hypergroup(4))
    assert is_simple(utumi_z8)


def test_is_simple_matches_naive_count(small_hypergroup_corpus, utumi_z8):
    for h in small_hypergroup_corpus + [utumi_z8]:
        naive = naive_reflector_partitions(h.m)
        assert is_simple(h) == (h.n > 1 and len(naive) == 2)


def test_simplicity_report_matches_naive_sweep(small_hypergroup_corpus, z8h, utumi_z8):
    witnesses = 0
    for h in small_hypergroup_corpus + [z8h, utumi_z8]:
        naive = naive_reflector_partitions(h.m)  # restricted-growth order
        proper = [p for p in naive if 1 < len(p) < h.n]
        rep = simplicity_report(h)
        assert (rep.simple, bool(rep)) == (len(naive) == 2,) * 2
        assert (rep.invariant_count, rep.checked) == (len(naive), bell_number(h.n))
        if proper:
            assert blocks_of(rep.witness) == proper[0]
            witnesses += 1
        else:
            assert rep.witness is None
    assert witnesses == 3  # C4, the Klein group and C8
    with pytest.raises(CapExceeded):
        simplicity_report(z8h, cap=7)


def test_simplicity_report_holds_one_congruence_at_a_time():
    # the total table on 8 has Bell(8) = 4,140 congruences; kept in a list
    # they take about 1 MB, counted one at a time about 11 KB
    h = total_hypergroup(8)
    tracemalloc.start()
    try:
        rep = simplicity_report(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.invariant_count, rep.witness.class_of) == (4140, (0,) * 7 + (1,))
    assert peak < 64 * 1024, peak


def test_bell_numbers():
    assert [bell_number(i) for i in range(13)] == [
        1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
    assert DEFAULT_SIMPLICITY_CAP == 12


def test_invariant_modulo_subgroups_frozen(sym3, dih8):
    triv = Subgroup(sym3, 1)
    assert [k.order for k in invariant_modulo_subgroups(sym3, triv)] == [1, 3, 6]
    stab = stabilizer_subgroup(sym3, 0)
    assert [k.mask for k in invariant_modulo_subgroups(sym3, stab)] == [
        stab.mask, sym3.full_mask]
    assert [k.order for k in invariant_modulo_subgroups(dih8, Subgroup(dih8, 1))] == [
        1, 2, 4, 4, 4, 8]
    # modulo the center {e, r2}: only subgroups containing it qualify
    center = Subgroup(dih8, (1 << 0) | (1 << 4))
    assert [k.order for k in invariant_modulo_subgroups(dih8, center)] == [2, 4, 4, 4, 8]


def test_subgroup_of_another_group_is_refused_by_both_routes():
    # D_3 and Z/6 both have six elements, so {0, 3} is a mask of D_3 too,
    # and only the parent tells the subgroup's group apart
    g, h = dihedral_group(3), Subgroup(cyclic_group(6), 0b1001)
    for entry in (right_coset_hypergroup, left_coset_hypergroup, coset_simplicity_report,
                  is_simple_coset, invariant_modulo_subgroups):
        with pytest.raises(ValueError, match="^subgroup belongs to a different group$"):
            entry(g, h)
    # a subgroup of an equal group, built apart, is a subgroup of g
    assert is_simple_coset(g, Subgroup(dihedral_group(3), 0b11)) == \
        is_simple_coset(g, Subgroup(g, 0b11))


def test_is_simple_coset_examples(sym3, sym4, z8, dih8):
    assert is_simple_coset(sym3, stabilizer_subgroup(sym3, 0))
    assert is_simple_coset(sym4, stabilizer_subgroup(sym4, 0))
    assert not is_simple_coset(sym3, Subgroup(sym3, sym3.full_mask))
    a3 = next(s for s in subgroups(sym3) if s.order == 3)
    assert is_simple_coset(sym3, a3)  # index-2 quotient is Z/2
    assert not is_simple_coset(z8, Subgroup(z8, 1))
    assert is_simple_coset(dih8, Subgroup(dih8, 0b01010101))
    z5 = cyclic_group(5)
    assert is_simple_coset(z5, Subgroup(z5, 1))


@pytest.fixture(scope="module")
def coset_test_set(sym3, sym4, dih8):
    groups = [sym3, sym4, dih8] + [cyclic_group(n) for n in range(1, 13)]
    return [(g, sub) for g in groups for sub in subgroups(g)
            if g.n // sub.order <= 12]


def test_coset_simplicity_dual_route(coset_test_set):
    # subgroup-side decider vs exhaustive congruence search on the quotient
    assert len(coset_test_set) >= 80
    for g, sub in coset_test_set:
        assert is_simple_coset(g, sub) == is_simple(right_coset_hypergroup(g, sub))


def test_coset_simplicity_report_counts_congruences(coset_test_set, dih12):
    # subgroups invariant modulo H <-> reflector congruences of G/H, on both sides
    pairs = coset_test_set + [(dih12, sub) for sub in subgroups(dih12)]
    witnesses = 0
    for g, sub in pairs:
        rep = coset_simplicity_report(g, sub)
        for build in (right_coset_hypergroup, left_coset_hypergroup):
            assert rep.invariant_count == simplicity_report(build(g, sub)).invariant_count, \
                (g.names, sub.mask, build.__name__)
        assert rep.simple == (rep.invariant_count == 2)
        assert rep.checked == len(overgroups(g, sub.mask))
        between = [k for k in overgroups(g, sub.mask)
                   if k.mask not in (sub.mask, g.full_mask)
                   and naive_is_invariant_modulo(g, sub.mask, k.mask)]
        assert rep.witness == (between[0] if between else None)
        if rep.witness is not None:
            k = rep.witness.mask
            assert k & sub.mask == sub.mask and k not in (sub.mask, g.full_mask)
            witnesses += 1
    assert len(pairs) == 96 and witnesses == 45


def test_coset_report_counts_congruences_past_index_12():
    # the same correspondence where the congruence search reaches beyond
    # the default cap: one subgroup per conjugacy class, as conjugate
    # subgroups give the same report and isomorphic coset spaces
    counts = []
    for g, sub, spaces in class_coset_spaces():
        if g.n // sub.order > 12:
            want = coset_simplicity_report(g, sub).invariant_count
            # a trivial H gives one table on both sides: search it once
            for h in {h.table: h for h in spaces}.values():
                assert len(congruences_to_mask_width(h)) == want, (g.names, sub.mask, h.names)
            counts.append(want)
    # 23 classes: 11 of S5, 5 of D24, 7 of S4 x Z2; the simple ones count 2
    assert sorted(counts) == [2] * 3 + [3] * 5 + [4] * 2 + [5] * 3 + [6] * 2 + [7] + \
        [8] * 2 + [9] * 2 + [10] * 2 + [11]


def test_coset_congruences_are_invariant_on_the_group_trame():
    # the trame route on the same spaces: a congruence of the cosets xH
    # or Hx, lifted through the coset labels, is invariant modulo the
    # cosets on the trame of G's whole multiplication
    trames, checked = {}, 0
    for g, sub, spaces in class_coset_spaces():
        if g.names not in trames:
            trames[g.names] = group_trame(g)
        for side, h in zip(("right", "left"), spaces):
            r = coset_relation(g, sub.mask, side)
            for c in congruences_to_mask_width(h):
                s = tuple(c.eq.class_of[lab] for lab in r)
                assert is_invariant_modulo_equiv(trames[g.names], r, s), (g.names, sub.mask, side)
                checked += 1
    assert checked == 620


def refinement_corpus():
    """(h, its reflector congruences) for C64, D16, D6 and the coset spaces
    of class_coset_spaces(), up to index 64, one per table."""
    hs = [as_hypergroup(g) for g in (cyclic_group(64), dihedral_group(16), dihedral_group(6))]
    hs += [h for _, _, spaces in class_coset_spaces() for h in spaces]
    return [(h, [c.eq for c in congruences_to_mask_width(h)])
            for h in {h.table: h for h in hs}.values()]


def join(a, b):
    """The finest equivalence that both equivalences a and b refine."""
    blocks = list(a.class_masks)
    for cm in b.class_masks:  # one block for those cm meets; blocks are disjoint
        blocks = [bl for bl in blocks if not bl & cm] + [sum(bl for bl in blocks if bl & cm)]
    return EquivalenceRelation.from_blocks(a.n, map(members, blocks))


def test_found_congruences_are_refinement_fixpoints():
    # partition refinement splits no class of a congruence the search found
    corpus = refinement_corpus()
    for h, found in corpus:
        for eq in found:
            assert coarsest_congruence(h, eq.class_of) == eq.class_of, (h.names, eq)
    assert (len(corpus), sum(len(found) for _, found in corpus)) == (110, 499)


def probes(h, found, rng):
    """Partitions Q near the congruences found: for each, two of its classes
    merged at random, and every class split into its members at even and
    at odd places; and two random partitions."""
    for eq in found:
        labels = eq.class_of
        if eq.k > 1:
            a, b = rng.sample(range(eq.k), 2)
            yield tuple(a if lab == b else lab for lab in labels)
        if eq.k < h.n:
            yield tuple((lab, (eq.class_masks[lab] & ((1 << y) - 1)).bit_count() % 2)
                        for y, lab in enumerate(labels))
    for _ in range(2):
        k = rng.randint(1, h.n)
        yield tuple(rng.randrange(k) for _ in range(h.n))


def test_coarsest_congruence_below_a_partition_is_found():
    # completeness: refinement from Q reaches the greatest congruence below
    # Q, so the search must have found it, and every congruence found below
    # Q refines it: of those, it has the fewest classes
    rng = random.Random(11)
    checked = moved = 0
    for h, found in refinement_corpus():
        for labels in probes(h, found, rng):
            q = EquivalenceRelation.from_labels(labels)
            fix = EquivalenceRelation(coarsest_congruence(h, labels))
            below = [eq for eq in found if refines(eq, q)]
            assert fix in below and all(refines(eq, fix) for eq in below), (h.names, labels)
            checked += 1
            moved += fix != q and 1 < fix.k < h.n  # refined onto a proper congruence
    assert (checked, moved) == (998, 185)


def test_join_of_two_congruences_is_found():
    # reflector congruences are closed under join
    joins = 0
    for h, found in refinement_corpus():
        for a, b in combinations(found, 2):
            assert join(a, b) in found, (h.names, a, b)
            joins += 1
    assert joins == 1149


def test_utumi_criterion_implies_simple_on_groups_to_order_8():
    # every partition with the zero alone, over every group of order 2-8
    z2, z4 = cyclic_group(2), cyclic_group(4)
    groups = [cyclic_group(k) for k in range(2, 9)] + [
        direct_product(z2, z2), symmetric_group(3), direct_product(z4, z2),
        reduce(direct_product, (z2,) * 3), dihedral_group(4), quaternion_group()]
    inputs = associative = criterion = 0
    for g in groups:
        base = as_hypergroup(g)
        for rest in all_equivalences(g.n - 1):
            labels = (0, *(c + 1 for c in rest.class_of))
            data = UtumiInput(base, EquivalenceRelation(labels), 0)
            inputs += 1
            if utumi_is_associative(data):
                associative += 1
                if utumi_simplicity_criterion(data):
                    criterion += 1
                    assert is_simple(Hypergroup.certify(utumi(data))), (g.names, labels)
    assert (inputs, associative, criterion) == (4720, 239, 21)


def test_left_right_coset_simplicity_duality(coset_test_set):
    for g, sub in coset_test_set:
        assert is_simple(right_coset_hypergroup(g, sub)) == \
            is_simple(left_coset_hypergroup(g, sub))


def test_reflet_correspondence(sym3, z8, dih8):
    # reflets of G/H are, up to isomorphism, the G/K over K invariant modulo H
    for g in (sym3, dih8, z8, cyclic_group(12)):
        for sub in subgroups(g):
            lhs = reflets(right_coset_hypergroup(g, sub))
            rhs = []
            for k in invariant_modulo_subgroups(g, sub):
                cand = right_coset_hypergroup(g, k)
                if all(find_isomorphism(cand, seen) is None for seen in rhs):
                    rhs.append(cand)
            assert len(lhs) == len(rhs)
            for q in lhs:
                assert sum(1 for r in rhs if find_isomorphism(q, r) is not None) == 1


def test_simple_pairs_at_maximal_non_normal(sym3, sym4):
    # both coset structures simple, neither a group, opposite yet unequal types
    found = 0
    for g in (sym3, sym4):
        for sub in subgroups(g):
            if sub.order == g.n or not is_maximal(g, sub.mask) or is_normal(g, sub.mask):
                continue
            r = right_coset_hypergroup(g, sub)
            l = left_coset_hypergroup(g, sub)
            assert is_simple(r) and is_simple(l)
            assert not is_group(r.m) and not is_group(l.m)
            assert find_isomorphism(r, l) is None
            assert find_isomorphism(Hypergroup.certify(opposite(r.m)), l) is not None
            found += 1
    assert found == 10  # three point stabilizers in Sym(3), 4 + 3 in Sym(4)


def test_group_simplicity_is_classical(sym3, dih8, klein):
    for n in range(1, 13):
        assert is_simple(as_hypergroup(cyclic_group(n))) == (n in (2, 3, 5, 7, 11))
    assert not is_simple(as_hypergroup(sym3))
    assert not is_simple(as_hypergroup(dih8))
    assert not is_simple(as_hypergroup(klein))


def _partitions_of(rest):
    if not rest:
        yield []
        return
    first, tail = rest[0], rest[1:]
    for p in _partitions_of(tail):
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1:]
        yield [[first]] + p


def test_utumi_criterion_implies_simple(sym3):
    cases = []
    for g in [cyclic_group(n) for n in (2, 3, 4, 5, 6)] + [sym3]:
        h = as_hypergroup(g)
        for p in _partitions_of(list(range(1, h.n))):
            cases.append((h, EquivalenceRelation.from_blocks(h.n, [[0]] + p)))
    rng = random.Random(0)
    for g in (cyclic_group(8), dihedral_group(4), cyclic_group(12)):
        h = as_hypergroup(g)
        for _ in range(40):
            labels = [0] + [1 + rng.randrange(h.n - 1) for _ in range(h.n - 1)]
            cases.append((h, EquivalenceRelation.from_labels(labels)))
    criterion_true = 0
    for h, eq in cases:
        data = UtumiInput(h, eq, 0)
        if not utumi_is_associative(data):
            continue
        if utumi_simplicity_criterion(data):
            criterion_true += 1
            assert is_simple(Hypergroup.certify(utumi(data)))
    assert criterion_true >= 5  # the implication must not pass vacuously
