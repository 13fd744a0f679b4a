import copy
from functools import reduce
import itertools
import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hypergroups import core
from hypergroups.core import (
    AxiomReport,
    CapExceeded,
    EquivalenceRelation,
    Hypergroup,
    Multistructure,
    NotAHypergroup,
    ParseError,
    _invariants,
    find_isomorphism,
    from_json,
    is_group,
    is_reflector,
    mask_of,
    members,
    opposite,
    power,
    product_of_sets,
    products,
    quotient_table,
    to_json,
    verify_axioms,
)

from hypergroups.constructions import (
    SFamilyClass,
    UtumiAssociativity,
    UtumiInput,
    left_coset_hypergroup,
    right_coset_hypergroup,
    s_family,
    s_family_class,
)
from hypergroups.groups import (GroupTable, Subgroup, as_hypergroup, cyclic_group,
                                dihedral_group, stabilizer_subgroup, subgroups, symmetric_group)
from hypergroups.presentations import AdequacyReport, Presentation, Trame
from hypergroups.simplicity import ReflectorCongruence, SimplicityReport

from conftest import (
    CogroupReport,
    Mapping,
    all_equivalences,
    cogroup_report,
    direct_product,
    identity_relation,
    is_cogroup,
    is_morphism,
    is_set_isomorphism,
    metacyclic_group,
    naive_axiom_report,
    naive_is_reflector,
    naive_json_obj,
    per_element_isomorphism,
    profile_invariant,
    quaternion_group,
    set_product,
    refines,
    table_sets,
    total_relation,
)


def cyclic_ms(n):
    rows = tuple(tuple(1 << ((x + y) % n) for y in range(n)) for x in range(n))
    return Multistructure(tuple(str(i) for i in range(n)), rows)


def test_mask_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert members(0b101001) == (0, 3, 5)
    assert members(0) == ()
    assert members(1) == (0,)
    assert members(1 << 63) == (63,)
    assert members(1 << 64) == (64,)
    assert members(1 << 64 | 1 << 2) == (2, 64)


def test_multistructure_validation():
    with pytest.raises(ValueError):
        Multistructure((), ())
    with pytest.raises(ValueError):
        Multistructure(("a", "a"), ((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        Multistructure(("a", "b"), ((1,), (1, 1)))
    with pytest.raises(ValueError):
        Multistructure(("a", "b"), ((4, 1), (1, 1)))
    # the entry range is [0, 2^n): both ends, in the last cell as well
    for bad in (((-1, 1), (1, 1)), ((1, 1), (1, -1)), ((1, 1), (1, 4))):
        with pytest.raises(ValueError):
            Multistructure(("a", "b"), bad)
    assert Multistructure(("a", "b"), ((3, 0), (0, 3))).table == ((3, 0), (0, 3))
    with pytest.raises(CapExceeded):
        Multistructure(tuple(f"x{i}" for i in range(65)),
                       tuple(tuple(1 for _ in range(65)) for _ in range(65)))


def test_product_of_sets_matches_set_oracle():
    m = cyclic_ms(5)
    tbl = table_sets(m)
    got = product_of_sets(m, mask_of([1, 2]), mask_of([0, 4]))
    want = set_product(tbl, [1, 2], [0, 4])
    assert frozenset(members(got)) == want


def test_product_of_sets_refuses_a_mask_outside_the_carrier():
    # -1 has infinitely many members and looped for ever; 1 << n indexed
    # past the table
    m = cyclic_ms(5)
    for mask in (-1, 1 << m.n):
        for xmask, ymask in ((mask, 1), (1, mask)):
            with pytest.raises(ValueError) as e:
                product_of_sets(m, xmask, ymask)
            assert e.value.args == ("range", mask)


def test_axioms_on_cyclic():
    rep = verify_axioms(cyclic_ms(6))
    assert rep.is_hypergroup
    assert rep.assoc_witness is None and rep.repro_witness is None


def test_assoc_witness_lex_first():
    # break one entry of Z/3: set 1.1 = {0} instead of {2}; row 0 stays
    # neutral so every (0,y,z) passes and the scan first trips at (1,1,2):
    # (1.1).2 = 0.2 = {2} but 1.(1.2) = 1.0 = {1}
    rows = [list(r) for r in cyclic_ms(3).table]
    rows[1][1] = 1 << 0
    m = Multistructure(("0", "1", "2"), tuple(tuple(r) for r in rows))
    rep = verify_axioms(m)
    assert not rep.associative
    assert rep.assoc_witness == (1, 1, 2)


def relabel(m, perm):
    """The copy of m with element i renamed perm[i]."""
    n = m.n
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = mask_of(perm[v] for v in members(m.table[x][y]))
    names = [""] * n
    for i in range(n):
        names[perm[i]] = m.names[i]
    return Multistructure(tuple(names), tuple(map(tuple, rows)))


# small associative tables, relabelled and perturbed below to put
# associativity witnesses anywhere in the scan
NEAR_HYPERGROUPS = [cyclic_ms(k) for k in range(1, 8)] + [
    s_family(sizes) for sizes in ((3,), (5,), (1, 1), (2, 2), (3, 3), (3, 4), (2, 2, 2))
] + [Multistructure(tuple("abcdef"[:k]), tuple(((1 << k) - 1,) * k for _ in range(k)))
      for k in (1, 4, 6)]  # total hypergroups


@st.composite
def small_tables(draw):
    """Tables on 1-7 elements: uniform random, or a relabelled associative
    table with up to two bits flipped."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        rows = tuple(tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
                     for _ in range(n))
        return Multistructure(tuple(f"x{i}" for i in range(n)), rows)
    base = draw(st.sampled_from(NEAR_HYPERGROUPS))
    m = relabel(base, draw(st.permutations(range(base.n))))
    rows = [list(r) for r in m.table]
    for _ in range(draw(st.integers(0, 2))):
        x, y, v = (draw(st.integers(0, m.n - 1)) for _ in range(3))
        rows[x][y] ^= 1 << v
    return Multistructure(m.names, tuple(map(tuple, rows)))


@settings(max_examples=400)
@given(small_tables())
def test_verify_axioms_matches_set_oracle(m):
    assert verify_axioms(m) == naive_axiom_report(m)


@pytest.mark.parametrize("sizes,seed", [
    ((6, 6, 6, 6), 0), ((3, 5, 8, 8), 1), ((4, 5, 6, 7, 8), 2),
    ((3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3), 3), ((8, 8, 8, 8, 8), 4)])
def test_verify_axioms_late_witness_on_permuted_s_family(sizes, seed):
    # one element removed from the product a.b, with a and b in the last
    # quarter of the carrier. The unflipped table is associative, so a
    # triple can fail only where its evaluation reads the entry (a, b):
    # x = a, z = b, (x, y) = (a, b) or (y, z) = (a, b); the oracle scans
    # just those, in index order.
    rng = random.Random(seed)
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    base = relabel(s_family(sizes), perm)
    assert s_family_class(sizes) in (SFamilyClass.DHypergroup, SFamilyClass.HypergroupNotD)
    a, b = rng.randrange(n - n // 4, n), rng.randrange(n - n // 4, n)
    rows = [list(r) for r in base.table]
    rows[a][b] ^= 1 << rng.choice(members(rows[a][b]))
    m = Multistructure(base.names, tuple(map(tuple, rows)))
    reads_ab = [(x, y, z) for x, y, z in itertools.product(range(n), repeat=3)
                if x == a or z == b or (x, y) == (a, b) or (y, z) == (a, b)]
    rep = verify_axioms(m)
    assert rep == naive_axiom_report(m, reads_ab)
    assert not rep.associative
    x, _, z = rep.assoc_witness
    assert x >= n // 2 and z >= n // 2


def test_empty_and_repro_witnesses():
    m = Multistructure(("a", "b"), ((0b01, 0), (0b01, 0b01)))
    rep = verify_axioms(m)
    assert rep.empty_witness == (0, 1)
    assert rep.repro_witness == 0
    assert not rep.is_hypergroup


def test_certify_raises_with_report():
    bad = Multistructure(("a", "b"), ((0b01, 0), (0b01, 0b01)))
    with pytest.raises(NotAHypergroup) as ei:
        Hypergroup.certify(bad)
    assert ei.value.report.empty_witness == (0, 1)


def test_products_lists_triples_row_major():
    m = Multistructure(("a", "b"), ((0b11, 0), (0b10, 0b01)))
    assert list(products(m)) == [((0, 0), 0), ((0, 0), 1), ((1, 0), 1), ((1, 1), 0)]
    c = cyclic_ms(5)
    assert quotient_table(c.names, products(c), tuple(range(5))) == c


def test_is_group_and_power():
    m = cyclic_ms(5)
    h = Hypergroup.certify(m)
    assert is_group(h)
    assert power(h, 2, 3) == 1 << 1  # 2+2+2 = 6 = 1 mod 5
    k = Hypergroup.certify(
        Multistructure(("e", "x"), ((0b01, 0b10), (0b10, 0b11))))
    assert not is_group(k)
    assert power(k, 1, 2) == 0b11


def test_power_and_mapping_refuse_what_they_cannot_evaluate():
    m = cyclic_ms(3)
    with pytest.raises(ValueError, match="^power needs k >= 1$"):
        power(m, 1, 0)
    with pytest.raises(ValueError, match="^image must assign every domain element$"):
        Mapping(m, m, (0, 1))
    with pytest.raises(ValueError, match="^image value out of codomain range$"):
        Mapping(m, m, (0, 1, 3))
    with pytest.raises(ValueError, match="^image must assign every domain element$"):
        is_reflector(m, m, (0, 1))
    with pytest.raises(ValueError, match="^image value out of codomain range$"):
        is_reflector(m, m, (0, 1, 3))


def test_opposite_involution_and_flags():
    m = cyclic_ms(4)
    assert opposite(opposite(m)) == m
    # non-abelian flavor: left-broken table keeps the transposed diagnosis
    rows = [list(r) for r in m.table]
    rows[1][2] = 0b0001
    broken = Multistructure(m.names, tuple(tuple(r) for r in rows))
    a = verify_axioms(broken)
    b = verify_axioms(opposite(broken))
    assert a.associative == b.associative
    assert a.reproductive == b.reproductive
    assert a.all_products_nonempty == b.all_products_nonempty


@given(st.integers(2, 5), st.data())
def test_opposite_flags_property(n, data):
    rows = tuple(
        tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
        for _ in range(n))
    m = Multistructure(tuple(f"x{i}" for i in range(n)), rows)
    a = verify_axioms(m)
    b = verify_axioms(opposite(m))
    assert (a.associative, a.reproductive, a.all_products_nonempty) == \
        (b.associative, b.reproductive, b.all_products_nonempty)


def test_morphism_and_reflector_on_stabilizer_merge():
    # merging the two non-neutral elements of the 3-element stabilizer
    # table onto Z/2-like codomain: a morphism exists but no reflector
    from hypergroups.constructions import stabilizer_hypergroup
    k = stabilizer_hypergroup(3)  # e, y1, y2
    cod = Multistructure(("E", "Y"), ((0b01, 0b10), (0b10, 0b11)))
    f = Mapping(k.m, cod, (0, 1, 1))
    assert f.surjective
    assert is_morphism(f)
    assert not is_reflector(f.dom, f.cod, f.image)


def test_identity_map_is_reflector():
    m = cyclic_ms(4)
    f = Mapping(m, m, (0, 1, 2, 3))
    assert is_reflector(f.dom, f.cod, f.image)
    assert is_morphism(f)


def test_reflector_total_collapse():
    m = cyclic_ms(4)
    one = Multistructure(("*",), ((1,),))
    f = Mapping(m, one, (0, 0, 0, 0))
    assert is_reflector(f.dom, f.cod, f.image)


def test_reflector_saturated_product_identity(small_hypergroup_corpus):
    # corollary of the pullback identities: the product of two saturated
    # singletons equals the preimage of the image product
    from hypergroups.simplicity import quotient_by, reflector_congruences
    for h in small_hypergroup_corpus:
        for c in reflector_congruences(h):
            q = quotient_by(h, c)
            f = Mapping(h.m, q.m, tuple(c.eq.class_of))
            assert is_reflector(f.dom, f.cod, f.image)
            for x in range(h.n):
                for y in range(h.n):
                    lhs = product_of_sets(
                        h.m, f.pre(f.img(1 << x)), f.pre(f.img(1 << y)))
                    rhs = f.pre(
                        product_of_sets(q.m, 1 << f.image[x], 1 << f.image[y]))
                    assert lhs == rhs


def test_is_reflector_matches_four_set_oracle(small_hypergroup_corpus):
    # domains: the corpus and random tables; maps: fibres of a reflector
    # congruence or random labels, onto the induced table, a perturbed
    # one or a random one, sometimes into a larger codomain
    from hypergroups.simplicity import reflector_congruences
    rng = random.Random(7)
    doms = [(h.m, [tuple(c.eq.class_of) for c in reflector_congruences(h)])
            for h in small_hypergroup_corpus if h.n <= 6]
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = tuple(tuple(rng.randint(0, (1 << n) - 1) for _ in range(n))
                     for _ in range(n))
        doms.append((Multistructure(tuple(map(str, range(n))), rows), []))
    maps = reflectors = 0
    for dom, fibres in doms:
        for _ in range(40):
            if fibres and rng.random() < 0.6:
                image = rng.choice(fibres)
            else:
                classes = rng.randint(1, dom.n)
                image = tuple(rng.randrange(classes) for _ in range(dom.n))
            k = max(image) + 1 + (rng.random() < 0.1)
            induced = [[0] * k for _ in range(k)]
            for x in range(dom.n):
                for y in range(dom.n):
                    for z in members(dom.table[x][y]):
                        induced[image[x]][image[y]] |= 1 << image[z]
            mode = rng.random()
            if mode < 0.2:
                induced = [[rng.randint(0, (1 << k) - 1) for _ in range(k)] for _ in range(k)]
            elif mode < 0.3:
                induced[rng.randrange(k)][rng.randrange(k)] ^= 1 << rng.randrange(k)
            cod = Multistructure(tuple(map(str, range(k))), tuple(map(tuple, induced)))
            f = Mapping(dom, cod, image)
            got = is_reflector(f.dom, f.cod, f.image)
            assert got == naive_is_reflector(f), (dom.table, cod.table, image)
            maps += 1
            reflectors += got
    assert maps > 10000 and 1000 < reflectors < maps - 1000


@given(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
def test_morphism_composition_descends(gimg):
    # f surjective morphism and g.f a morphism force g to be one
    dom = cyclic_ms(6)
    mid = cyclic_ms(3)
    f = Mapping(dom, mid, tuple(x % 3 for x in range(6)))
    assert f.surjective and is_morphism(f)
    g = Mapping(mid, mid, gimg)
    gf = Mapping(dom, mid, tuple(gimg[x % 3] for x in range(6)))
    if is_morphism(gf):
        assert is_morphism(g)


def test_morphism_composition_nonvacuous():
    # x -> 2x is an automorphism of Z/3, so the premise above does fire
    mid = cyclic_ms(3)
    g = Mapping(mid, mid, (0, 2, 1))
    assert is_morphism(g)


def test_find_isomorphism_positive_and_negative(klein):
    z4 = cyclic_ms(4)
    k4 = Multistructure(klein.names,
                        tuple(tuple(1 << klein.table[x][y] for y in range(4))
                              for x in range(4)))
    assert find_isomorphism(z4, k4) is None
    assert find_isomorphism(k4, z4) is None
    # relabeled copy of Z/4 under the permutation (0 2 1 3)
    perm = (0, 2, 1, 3)
    inv = [perm.index(i) for i in range(4)]
    rows = []
    for x in range(4):
        rows.append(tuple(1 << perm[(inv[x] + inv[y]) % 4] for y in range(4)))
    shuffled = Multistructure(("p", "q", "r", "s"), tuple(rows))
    g = find_isomorphism(z4, shuffled)
    assert g is not None
    for x in range(4):
        for y in range(4):
            img = 0
            for z in members(z4.table[x][y]):
                img |= 1 << g[z]
            assert img == shuffled.table[g[x]][g[y]]


@given(st.permutations(range(5)))
def test_find_isomorphism_on_random_relabelings(perm):
    base = cyclic_ms(5)
    inv = [perm.index(i) for i in range(5)]
    rows = tuple(
        tuple(1 << perm[(inv[x] + inv[y]) % 5] for y in range(5))
        for x in range(5))
    other = Multistructure(tuple(f"e{i}" for i in range(5)), rows)
    g = find_isomorphism(base, other)
    assert g is not None
    assert find_isomorphism(other, base) is not None


def iso_corpus():
    """Families of structures; a family's pairs of equal size meet the
    search's deep branches, a relabelled copy its answers."""
    from hypergroups.simplicity import reflets
    groups = [as_hypergroup(cyclic_group(k)).m for k in range(1, 17)] + [
        as_hypergroup(dihedral_group(k)).m for k in range(1, 9)]  # orders up to 16
    cosets = [f(g, h).m for g in (symmetric_group(4), dihedral_group(6)) for h in subgroups(g)
              for f in (right_coset_hypergroup, left_coset_hypergroup)]
    sfam = [s_family(sizes) for sizes in
            ((3,), (5,), (1, 1), (2, 2), (3, 3), (3, 4), (2, 2, 2), (1, 2, 3), (4, 4))]
    quotients = [q.m for h in (Hypergroup.certify(s_family((3, 3))),
                               as_hypergroup(cyclic_group(12))) for q in reflets(h)]
    return [groups, cosets, sfam, quotients]


def iso_corpus_pairs():
    """Each family's pairs of equal size, then each member against a
    relabelled copy."""
    rng = random.Random(24)
    pairs = []
    for family in iso_corpus():
        pairs += [(a, b) for a, b in itertools.product(family, repeat=2) if a.n == b.n]
        pairs += [(a, relabel(a, rng.sample(range(a.n), a.n))) for a in family]
    return pairs


def test_find_isomorphism_matches_per_element_oracle():
    # the first bijection in backtracking order, or None, as before
    pairs = iso_corpus_pairs()
    found = 0
    for a, b in pairs:
        g = find_isomorphism(a, b)
        assert g == per_element_isomorphism(a, b), (a.names, b.names)
        if g is not None:
            assert is_set_isomorphism(a, b, g)
            found += 1
    assert (len(pairs), found) == (1780, 660)


ISO_BASES = [cyclic_ms(k) for k in range(1, 9)] + [
    as_hypergroup(dihedral_group(k)).m for k in (2, 3, 4)] + [
    s_family(sizes) for sizes in ((3,), (1, 1), (2, 2), (1, 2), (3, 3), (2, 2, 2))] + [
    Multistructure(tuple("abcdefgh"[:k]), tuple(((1 << k) - 1,) * k for _ in range(k)))
    for k in (1, 5, 8)]  # total hypergroups


@st.composite
def iso_pairs(draw):
    """A table on 1-8 elements, the permutation drawn, and the copy
    relabelled by it, as it is, with one bit flipped, or with one member
    of a product moved to a non-member. The table is uniform random, has
    every product of one random size, or comes from ISO_BASES."""
    kind = draw(st.sampled_from(["uniform", "one size", "base"]))
    if kind == "base":
        a = draw(st.sampled_from(ISO_BASES))
    else:
        n = draw(st.integers(1, 8))
        size = draw(st.integers(1, n))
        entry = (st.integers(0, (1 << n) - 1) if kind == "uniform" else
                 st.sets(st.integers(0, n - 1), min_size=size, max_size=size).map(mask_of))
        a = Multistructure(tuple(f"x{i}" for i in range(n)),
                           tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)))
    perm = draw(st.permutations(range(a.n)))
    rows = [list(r) for r in relabel(a, perm).table]
    x, y = draw(st.integers(0, a.n - 1)), draw(st.integers(0, a.n - 1))
    inside, outside = members(rows[x][y]), members(a.full_mask & ~rows[x][y])
    change = draw(st.sampled_from(["none", "flip", "move"]))
    if change == "flip":
        rows[x][y] ^= 1 << draw(st.integers(0, a.n - 1))
    elif change == "move" and inside and outside:
        rows[x][y] ^= 1 << draw(st.sampled_from(inside)) | 1 << draw(st.sampled_from(outside))
    return a, perm, Multistructure(a.names, tuple(map(tuple, rows)))


@settings(max_examples=400)
@given(iso_pairs())
def test_find_isomorphism_matches_oracle_on_relabelled_and_perturbed_tables(drawn):
    a, perm, b = drawn
    pa = relabel(a, perm)  # uniform tables have empty products
    inv, pinv = [list(_invariants(m)) for m in (a, b)], list(_invariants(pa))
    assert all(pinv[perm[x]] == inv[0][x] for x in range(a.n))
    # the filter tells apart every two elements that the oracle's filter does
    old = [[profile_invariant(m, x) for x in range(m.n)] for m in (a, b)]
    assert all(old[0][x] == old[1][v] for x in range(a.n) for v in range(b.n)
               if inv[0][x] == inv[1][v])
    for a, b in ((a, b), (b, a)):
        g = find_isomorphism(a, b)
        assert g == per_element_isomorphism(a, b)
        assert g is None or is_set_isomorphism(a, b, g)


def assert_isomorphism_swaps(a, b):
    # a bijective morphism is an isomorphism: the inverse of the bijection
    # found maps b onto a, so the search finds one from b to a as well
    g = find_isomorphism(a, b)
    if g is None:
        assert find_isomorphism(b, a) is None
    else:
        assert is_set_isomorphism(b, a, sorted(range(a.n), key=g.__getitem__))
        assert find_isomorphism(b, a) is not None


def test_isomorphisms_swap_on_the_corpus():
    pairs = iso_corpus_pairs()
    for a, b in pairs:
        assert_isomorphism_swaps(a, b)
    assert len(pairs) == 1780


@settings(max_examples=200)
@given(iso_pairs())
def test_isomorphisms_swap_on_relabelled_and_perturbed_tables(drawn):
    a, _, b = drawn
    assert_isomorphism_swaps(a, b)


def test_find_isomorphism_on_groups_of_order_64():
    # ten direct products, with Q8 and D8 of order 8. Of a group, the
    # profiles and power sizes see only the element orders, and Z4^3 and
    # Q8xZ4xZ2 have the same ones: the counts of square roots and of
    # commuting elements refute them before the search, in either order.
    # Q8xZ4xZ2 and Z2xQ8xZ4 are one group
    q8, d8, z2, z4, z8 = (quaternion_group(), dihedral_group(4), cyclic_group(2),
                          cyclic_group(4), cyclic_group(8))
    factors = {"Q8xZ4xZ2": (q8, z4, z2), "Z4^3": (z4, z4, z4), "Q8xQ8": (q8, q8),
               "D8xD8": (d8, d8), "D8xQ8": (d8, q8), "Z2xQ8xZ4": (z2, q8, z4),
               "Q8xZ2^3": (q8, z2, z2, z2), "D8xZ2^3": (d8, z2, z2, z2),
               "D8xZ4xZ2": (d8, z4, z2), "Z8xZ8": (z8, z8)}
    groups = {name: as_hypergroup(reduce(direct_product, fs)).m for name, fs in factors.items()}
    same = {"Q8xZ4xZ2", "Z2xQ8xZ4"}
    for x, y in itertools.permutations(groups, 2):
        g = find_isomorphism(groups[x], groups[y])
        assert (g is not None) == ({x, y} == same), (x, y)
        assert g is None or is_set_isomorphism(groups[x], groups[y], g)


def test_each_count_alone_refutes_a_pair_of_groups():
    # the element orders agree within each pair. Z4 ⋊ Z4 and Z2 x Q8 have
    # the same centralizer sizes and differ in their square roots; M16 =
    # Z8 ⋊ Z2 and Z8 x Z2 have the same square roots and differ in their
    # centralizer sizes
    pairs = [(metacyclic_group(4, 4, 3), direct_product(cyclic_group(2), quaternion_group())),
             (metacyclic_group(8, 2, 5), direct_product(cyclic_group(8), cyclic_group(2)))]
    for pair in pairs:
        a, b = (as_hypergroup(g).m for g in pair)
        assert sorted(_invariants(a)) != sorted(_invariants(b))
        assert find_isomorphism(a, b) is None


def test_find_isomorphism_on_direct_products():
    # groups whose elements the candidate filter barely tells apart
    z2 = cyclic_group(2)
    c64 = as_hypergroup(cyclic_group(64)).m
    z2_4 = as_hypergroup(direct_product(direct_product(z2, z2), direct_product(z2, z2))).m
    z4_z2_2 = as_hypergroup(direct_product(cyclic_group(4), direct_product(z2, z2))).m
    assert find_isomorphism(c64, as_hypergroup(dihedral_group(32)).m) is None
    assert find_isomorphism(z2_4, z4_z2_2) is None
    # abelian groups of orders 32 and 64 that no bijection maps onto each
    # other: their counts of elements of each order differ
    z4, z8 = cyclic_group(4), cyclic_group(8)
    for factors, others in (((z2,) * 5, (z4, z2, z2, z2)), ((z2,) * 6, (z4,) + (z2,) * 4),
                            ((z4,) * 3, (z8, z4, z2)), ((z4, z4, z2, z2), (z4,) + (z2,) * 4)):
        assert find_isomorphism(*(as_hypergroup(reduce(direct_product, fs)).m
                                  for fs in (factors, others))) is None
    other = relabel(c64, random.Random(64).sample(range(64), 64))
    g = find_isomorphism(c64, other)
    assert g is not None and is_set_isomorphism(c64, other, g)


def test_cogroup_report(utumi_z8, sym3):
    # row of the Utumi table over Z/8 with classes {0},{1,4,7},{2,3,5,6}:
    # x.0={x}, x.1 has 3 elements, x.2 has 4, so the row blocks partition H
    # but are not equipotent; columns all have constant size |ybar|
    rep = cogroup_report(utumi_z8)
    assert rep.blocks_partition
    assert not rep.blocks_equipotent
    assert rep.columns_equipotent
    assert not is_cogroup(utumi_z8)
    from hypergroups.groups import as_hypergroup
    assert is_cogroup(as_hypergroup(sym3))
    from hypergroups.constructions import s_family
    rep2 = cogroup_report(Hypergroup.certify(s_family((3, 4))))
    assert rep2.blocks_partition
    assert not rep2.blocks_equipotent
    assert not is_cogroup(Hypergroup.certify(s_family((3, 4))))
    assert not rep2.columns_equipotent


def test_cogroup_report_failing_partition_clauses():
    # row 0 of each table breaks one clause of blocks_partition
    a, b, ab = 0b01, 0b10, 0b11
    empty = Multistructure(("a", "b"), ((0, ab), (a, b)))  # 0.0 is empty
    overlap = Multistructure(("a", "b"), ((a, ab), (a, b)))  # {a} meets {a, b}
    short = Multistructure(("a", "b"), ((a, a), (a, b)))  # b is in no 0.y
    got = [cogroup_report(m) for m in (empty, overlap, short)]
    assert got == [CogroupReport(False, False, False), CogroupReport(False, False, False),
                   CogroupReport(False, True, True)]


def test_equivalence_relation_basics():
    with pytest.raises(ValueError):
        EquivalenceRelation((1, 0))  # not restricted-growth
    with pytest.raises(ValueError, match="^relation over an empty carrier$"):
        EquivalenceRelation(())
    with pytest.raises(ValueError):
        EquivalenceRelation((0, 2))
    e = EquivalenceRelation.from_blocks(4, [[0, 2], [1], [3]])
    assert e.class_of == (0, 1, 0, 2)
    assert e.k == 3
    assert e.sat(mask_of([1, 2])) == mask_of([0, 1, 2])
    assert e.blocks() == ((0, 2), (1,), (3,))
    assert refines(identity_relation(3), total_relation(3))
    assert not refines(total_relation(3), identity_relation(3))
    assert refines(e, total_relation(4))
    assert refines(e, e)


def test_from_blocks_errors():
    # the CLI's partition messages, every missing element listed
    with pytest.raises(ParseError, match="^partition elements missing from blocks: 2$"):
        EquivalenceRelation.from_blocks(3, [[0, 1]])
    with pytest.raises(ParseError, match="^partition elements missing from blocks: 0 2$"):
        EquivalenceRelation.from_blocks(3, [[], [1]])
    with pytest.raises(ParseError, match="^element 1 in two blocks$"):
        EquivalenceRelation.from_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(ParseError, match="^unknown element name 5 in partition$"):
        EquivalenceRelation.from_blocks(3, [[0, 1, 5], [2]])
    with pytest.raises(ParseError, match="^unknown element name -1 in partition$"):
        EquivalenceRelation.from_blocks(3, [[0, -1, 1], [2]])


def test_all_equivalences_counts():
    bells = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, b in bells.items():
        eqs = list(all_equivalences(n))
        assert len(eqs) == b
        assert len({e.class_of for e in eqs}) == b
        assert eqs[0].class_of == (0,) * n  # total comes first


def test_json_roundtrip():
    m = cyclic_ms(3)
    assert from_json(to_json(m)) == m
    text = to_json(m)
    assert json.loads(text)["elements"] == ["0", "1", "2"]


def test_json_strictness():
    with pytest.raises(ParseError):
        from_json("not json")
    with pytest.raises(ParseError):
        from_json('{"elements":["a"],"table":[[["a"]]],"extra":1}')
    with pytest.raises(ParseError):
        from_json('{"elements":["a","a"],"table":[[["a"],["a"]],[["a"],["a"]]]}')
    with pytest.raises(ParseError):
        from_json('{"elements":["a","b"],"table":[[["a"],["zz"]],[["a"],["a"]]]}')
    with pytest.raises(ParseError):
        from_json('{"elements":["a","b"],"table":[[["a"]]]}')
    # entry order and duplicates inside a product list are tolerated
    m = from_json('{"elements":["a","b"],"table":[[["b","a","a"],["b"]],[["b"],["a"]]]}')
    assert m.table[0][0] == 0b11


def json_corpus():
    """Dense and sparse S-family tables, total tables, tables with empty
    products, groups, coset spaces, and names that need JSON escaping."""
    rng = random.Random(20261019)
    s4 = symmetric_group(4)
    stab = stabilizer_subgroup(s4, 0)
    out = [s_family(sizes) for sizes in ((3,), (3, 1), (2, 2), (2, 1, 1), (4, 4, 4),
                                         (8, 8, 8), (6, 5, 5, 8))]
    out += [Multistructure(tuple(f"t{i}" for i in range(n)), (((1 << n) - 1,) * n,) * n)
            for n in (1, 2, 24)]
    for n in (3, 5, 12):
        names = tuple(f"r{i}" for i in range(n))
        out.append(Multistructure(names, tuple(
            tuple(rng.choice((0, rng.getrandbits(n))) for _ in range(n)) for _ in range(n))))
    out += [as_hypergroup(g) for g in (cyclic_group(1), cyclic_group(8), cyclic_group(48), s4)]
    out += [right_coset_hypergroup(s4, stab), left_coset_hypergroup(s4, stab)]
    odd = ('"', "\\", "\u00e9", "v|a,b,c", "\u2603", "\n\t", "{1,2}", "\U0001d11e")
    out.append(Multistructure(odd, tuple(
        tuple(rng.getrandbits(len(odd)) for _ in odd) for _ in odd)))
    return out


def test_to_json_matches_the_per_cell_form(monkeypatch):
    corpus = json_corpus()
    # what to_json writes is read one row at a time, never decoded whole
    monkeypatch.setattr(core.json, "loads", None)
    for m in corpus:
        want = naive_json_obj(m)
        assert to_json(m) == json.dumps(want, separators=(",", ":"))
        assert from_json(to_json(m)) == Multistructure(m.names, m.table)
    assert len(corpus) == 20
    assert to_json(corpus[-1]).startswith(
        '{"elements":["\\"","\\\\","\\u00e9","v|a,b,c","\\u2603","\\n\\t","{1,2}",'
        '"\\ud834\\udd1e"],"table":[[[')


def test_to_json_encodes_each_name_and_product_once(monkeypatch):
    calls, encoded = [], []
    dumps = json.dumps

    def counting(mask):
        calls.append(mask)
        return members(mask)

    def encoding(obj):
        encoded.append(obj)
        return dumps(obj)

    corpus = json_corpus()
    monkeypatch.setattr(core, "members", counting)
    monkeypatch.setattr(core.json, "dumps", encoding)
    counts = []
    for m in corpus:
        calls.clear()
        encoded.clear()
        to_json(m)
        distinct = {e for row in m.table for e in row}
        assert sorted(calls) == sorted(distinct)
        # each name once, and never the document or a product
        assert encoded == list(m.names)
        counts.append(len(calls))
    assert counts[7:10] == [1, 1, 1] and counts[15:17] == [48, 24]


@pytest.mark.parametrize("sizes", [(3, 2, 20, 15), (8, 1, 12, 12), (6, 6, 6, 6)])
def test_from_json_holds_one_row_at_a_time(sizes):
    # the whole document decoded at once peaks at 9-10 times the text
    m = s_family(sizes)
    text = to_json(m)
    tracemalloc.start()
    try:
        read = from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == m
    assert peak < 2 * len(text)


@pytest.mark.parametrize("sizes", [(3, 2, 20, 15), (8, 1, 12, 12), (6, 6, 6, 6)])
def test_to_json_holds_few_copies_of_its_text(sizes):
    # one document built of per-cell lists, then encoded, peaks at 11-12
    # times the text; joined texts hold the rows and the document
    m = s_family(sizes)
    tracemalloc.start()
    try:
        text = to_json(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(naive_json_obj(m), separators=(",", ":"))
    assert peak < 4 * len(text)


def test_hypergroup_is_a_multistructure(small_hypergroup_corpus):
    # a certified hypergroup is its table: every reader of tables gives
    # the same answer on h as on the plain table h.m
    from hypergroups.constructions import (
        UtumiInput, UtumiInputError, canonical_presentation, utumi, utumi_is_associative)
    from hypergroups.simplicity import quotient_by, reflector_congruences
    for h in small_hypergroup_corpus:
        m = h.m
        assert isinstance(h, Multistructure) and type(m) is Multistructure
        assert verify_axioms(h) == AxiomReport(True, True, True)
        assert m == Multistructure(h.names, h.table) and h != m
        assert opposite(h) == opposite(m)
        assert is_group(h) == is_group(m)
        assert cogroup_report(h) == cogroup_report(m)
        assert to_json(h) == to_json(m)
        assert find_isomorphism(h, m) == find_isomorphism(m, m) \
            == find_isomorphism(m, h) == find_isomorphism(h, h)
        for x in range(h.n):
            assert [power(h, x, k) for k in (1, 2, 3)] == [power(m, x, k) for k in (1, 2, 3)]
            for ys in range(1 << h.n):
                assert product_of_sets(h, 1 << x, ys) == product_of_sets(m, 1 << x, ys)
        swap = tuple(reversed(range(h.n)))
        assert is_morphism(Mapping(h, h, swap)) == is_morphism(Mapping(m, m, swap))
        for c in reflector_congruences(h):
            q = quotient_by(h, c)
            f, g = Mapping(h, q, c.eq.class_of), Mapping(m, q.m, c.eq.class_of)
            assert f.dom is h and f.cod is q and f != g
            assert is_morphism(f) and is_morphism(g)
            assert is_reflector(f.dom, f.cod, f.image) and is_reflector(g.dom, g.cod, g.image)
        for eq in all_equivalences(h.n):
            try:
                on_h, on_m = UtumiInput(h, eq, 0), UtumiInput(m, eq, 0)
            except UtumiInputError:
                continue
            assert utumi(on_h) == utumi(on_m)
            assert utumi_is_associative(on_h) == utumi_is_associative(on_m)
        p, pm = canonical_presentation(h), canonical_presentation(m)
        assert (p.trame.names, p.trame.op, p.r) == (pm.trame.names, pm.trame.op, pm.r)


def test_hypergroup_validates_its_table_and_report():
    m = cyclic_ms(3)
    h = Hypergroup.certify(m)
    assert Hypergroup.certify(h) == h and h.m == m and h.m is not m
    with pytest.raises(ValueError, match="n x n"):
        Hypergroup(m.names, m.table[:2])
    with pytest.raises(NotAHypergroup):
        Hypergroup.certify(opposite(s_family((3, 1))))


def test_forged_groups_and_hypergroups_are_refused():
    # the identity, the inverses and the axiom report follow from the
    # table, so no constructor takes them: a table decides them alone
    c4 = cyclic_group(4)
    with pytest.raises(TypeError, match=r"^GroupTable\b"):
        GroupTable(c4.names, c4.table, 2, (0, 1, 2, 3))
    g = GroupTable(c4.names, c4.table)
    assert (g.identity, g.inverse) == (0, (0, 3, 2, 1)) and g == c4
    empty = (("a", "b"), ((0b01, 0), (0, 0)))
    with pytest.raises(TypeError, match=r"^Hypergroup\b"):
        Hypergroup(*empty, AxiomReport(True, True, True))
    with pytest.raises(NotAHypergroup) as e:
        Hypergroup(*empty)
    assert e.value.report.empty_witness == (0, 1)


# --- value semantics of the library's types ---------------------------------


def value_examples():
    """(a, b, c, fields) per value type: a and b are built apart and are
    equal, c differs from a, fields are the repr fields in order."""
    c3 = cyclic_ms(3)
    h = Hypergroup.certify(c3)
    s3 = symmetric_group(3)
    bare = GroupTable(s3.names, s3.table)  # equal: perms not compared
    stab = 0b11  # identity and the transposition fixing 0
    ident, total = identity_relation(3), total_relation(3)
    return [
        (c3, cyclic_ms(3), cyclic_ms(4), ("names", "table")),
        (h, Hypergroup(c3.names, c3.table),
         Hypergroup.certify(cyclic_ms(4)), ("names", "table")),
        (verify_axioms(c3), AxiomReport(True, True, True),
         AxiomReport(True, True, False, None, None, (0, 0)),
         ("associative", "reproductive", "all_products_nonempty",
          "assoc_witness", "repro_witness", "empty_witness")),
        (Mapping(c3, c3, (0, 1, 2)), Mapping(cyclic_ms(3), cyclic_ms(3), (0, 1, 2)),
         Mapping(c3, c3, (0, 2, 1)), ("dom", "cod", "image")),
        (cogroup_report(c3), CogroupReport(True, True, True),
         CogroupReport(True, False, True),
         ("blocks_partition", "blocks_equipotent", "columns_equipotent")),
        (EquivalenceRelation((0, 1, 0)), EquivalenceRelation.from_labels((5, 2, 5)),
         total, ("class_of",)),
        (EquivalenceRelation((0, 1, 0)), EquivalenceRelation._proved((0, 1, 0), (0b101, 0b010)),
         ident, ("class_of",)),
        (s3, bare, cyclic_group(6), ("names", "table", "perms")),
        (Subgroup(s3, stab), Subgroup._proved(bare, stab), Subgroup(s3, 1), ("parent", "mask")),
        (UtumiInput(h, ident, 0), UtumiInput(Hypergroup.certify(c3), ident, 0),
         UtumiInput(h, EquivalenceRelation((0, 1, 1)), 0), ("base", "partition", "zero")),
        (UtumiAssociativity(True), UtumiAssociativity(True, None),
         UtumiAssociativity(False, (1, 0)), ("associative", "witness")),
        (AdequacyReport(True, True), AdequacyReport(True, True, None, None),
         AdequacyReport(False, True, (0, 1)),
         ("reproductive", "associative", "repro_witness", "assoc_witness")),
        (ReflectorCongruence(h, ident), ReflectorCongruence._proved(h, EquivalenceRelation((0, 1, 2))),
         ReflectorCongruence(h, total), ("over", "eq")),
        (SimplicityReport(True, 2, 5), SimplicityReport(True, 2, 5, None),
         SimplicityReport(False, 3, 5, EquivalenceRelation((0, 0, 1))),
         ("simple", "invariant_count", "checked", "witness")),
    ]


def test_value_types_compare_and_hash_by_value():
    for a, b, c, fields in value_examples():
        assert a is not b and a == b and not a != b and hash(a) == hash(b), a
        assert a != c and not a == c, a
        assert len({a, b, c}) == 2
        assert a != object() and a != tuple(getattr(a, name) for name in fields)


def test_value_types_survive_copy_and_pickle():
    for a, _, _, fields in value_examples():
        for again in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(again) is type(a) and again == a and hash(again) == hash(a)
    p = Presentation(Trame(("a", "b"), {(0, 0): 1}), (0, 1))
    again = pickle.loads(pickle.dumps(p))
    assert (again.trame.names, again.trame.op, again.r, again.k) == (("a", "b"), {(0, 0): 1}, (0, 1), 2)


def test_value_types_ignore_derived_fields():
    # GroupTable.perms: the symmetric group against its bare table in value_examples
    e, f = EquivalenceRelation((0, 1, 0)), EquivalenceRelation((0, 1, 0))
    object.__setattr__(f, "class_masks", ())  # not compared, not hashed
    assert e == f and hash(e) == hash(f)
    g, h = cyclic_group(4), cyclic_group(4)
    object.__setattr__(h, "identity", 2)  # identity and inverse: neither, nor shown
    object.__setattr__(h, "inverse", (0, 1, 2, 3))
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    proved = EquivalenceRelation._proved((0, 1, 0), (0b101, 0b010))
    assert (proved.k, proved.blocks()) == (e.k, e.blocks()) == (2, ((0, 2), (1,)))


def test_hypergroup_differs_from_its_plain_table():
    m = cyclic_ms(3)
    h = Hypergroup.certify(m)
    assert h != m and m != h and h.m == m and m == h.m
    assert len({h, m}) == 2


def test_trames_and_presentations_compare_by_identity():
    t, u = Trame(("a", "b"), {(0, 0): 1}), Trame(("a", "b"), {(0, 0): 1})
    p, q = Presentation(t, (0, 1)), Presentation(t, (0, 1))
    assert t == t and t != u and p == p and p != q
    assert len({t, u, p, q}) == 4
    assert repr(t) == "Trame(names=('a', 'b'), op={(0, 0): 1})"
    assert repr(p) == f"Presentation(trame={t!r}, r=(0, 1))"
    for obj, fields in ((t, ("names", "op")), (p, ("trame", "r", "k"))):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))


def test_value_types_are_immutable():
    for a, _, _, fields in value_examples():
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
    with pytest.raises(AttributeError):
        EquivalenceRelation((0, 0)).class_masks = (3,)


def test_value_types_repr_names_fields_in_order():
    for a, _, _, fields in value_examples():
        body = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
        assert repr(a) == f"{type(a).__name__}({body})"
    assert repr(EquivalenceRelation((0, 1, 0))) == "EquivalenceRelation(class_of=(0, 1, 0))"
    assert repr(cyclic_ms(2)) == "Multistructure(names=('0', '1'), table=((1, 2), (2, 1)))"
    assert (repr(AdequacyReport(False, True, (0, 1)))
            == "AdequacyReport(reproductive=False, associative=True,"
               " repro_witness=(0, 1), assoc_witness=None)")


def test_value_types_refuse_wrong_arity():
    c3 = cyclic_ms(3)
    s3 = symmetric_group(3)
    for cls, values in ((AxiomReport, (True,)),
                        (Multistructure, (c3.names, c3.table, None)),
                        (GroupTable, (s3.names, s3.table, s3.perms, None)),
                        (Subgroup, (s3,))):
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\b"):
            cls(*values)


def test_reports_are_truthy_exactly_when_they_hold():
    for a, b, c in itertools.product((False, True), repeat=3):
        assert bool(CogroupReport(a, b, c)) == (a and b)
        assert bool(AdequacyReport(a, b)) == (a and b)
    for a in (False, True):
        assert bool(UtumiAssociativity(a)) == a
        assert bool(SimplicityReport(a, 2, 5)) == a
