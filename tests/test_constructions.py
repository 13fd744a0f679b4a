"""Coset structures, the S family, Utumi sums, canonical presentations."""

import itertools
import math
import random
import time

import pytest

from hypergroups import constructions
from hypergroups.core import (
    CapExceeded,
    EquivalenceRelation,
    Hypergroup,
    Multistructure,
    find_isomorphism,
    is_group,
    mask_of,
    members,
    opposite,
    power,
    product_of_sets,
    quotient_table,
    verify_axioms,
)
from hypergroups.groups import (
    Subgroup,
    as_hypergroup,
    cyclic_group,
    dihedral_group,
    generated,
    is_normal,
    stabilizer_subgroup,
    subgroups,
    symmetric_group,
)
from hypergroups.constructions import (
    SFamilyClass,
    UtumiInput,
    UtumiInputError,
    left_coset_hypergroup,
    right_coset_hypergroup,
    s_family,
    s_family_class,
    s_family_group_realization,
    stabilizer_hypergroup,
    utumi,
    utumi_is_associative,
    utumi_simplicity_criterion,
)

from conftest import (
    axioms_hold,
    class_coset_spaces,
    cogroup_report,
    identity_relation,
    naive_coset_structure,
    naive_s_family,
    naive_utumi,
    set_product,
    table_sets,
)


# --- coset structures -----------------------------------------------------------


def test_full_subgroup_gives_trivial(sym3):
    h = right_coset_hypergroup(sym3, Subgroup(sym3, sym3.full_mask))
    assert h.n == 1
    assert left_coset_hypergroup(sym3, Subgroup(sym3, sym3.full_mask)).n == 1


def test_sym3_stab_coset_table_frozen(sym3):
    h = right_coset_hypergroup(sym3, stabilizer_subgroup(sym3, 0))
    assert h.names == ("012H", "102H", "201H")
    assert h.table == ((0b001, 0b110, 0b110),
                       (0b010, 0b101, 0b101),
                       (0b100, 0b011, 0b011))


def coset_space_oracle(g, hmask, side):
    """Names and table of the coset space by frozenset coset products."""
    h = [x for x in range(g.n) if hmask >> x & 1]
    cosets, names = [], []
    for x in range(g.n):
        if side == "right":
            c, name = frozenset(g.table[x][y] for y in h), g.names[x] + "H"
        else:
            c, name = frozenset(g.table[y][x] for y in h), "H" + g.names[x]
        if c not in cosets:  # scanned in index order: x is its least member
            cosets.append(c)
            names.append(name)
    table = []
    for a in cosets:
        row = []
        for b in cosets:
            prod = {g.table[x][y] for x in a for y in b}
            row.append(frozenset(i for i, c in enumerate(cosets) if c & prod))
        table.append(row)
    return tuple(names), table


def test_coset_space_matches_set_oracle(sym3, sym4, dih8, dih12, z8, klein):
    compared = 0
    for g in (sym3, sym4, dih8, dih12, z8, klein):
        for s in subgroups(g):
            for side, build in (("right", right_coset_hypergroup),
                                ("left", left_coset_hypergroup)):
                h = build(g, s)
                assert (h.names, table_sets(h.m)) == \
                    coset_space_oracle(g, s.mask, side), (g.names, s.mask, side)
                compared += 1
    assert compared == 2 * (6 + 30 + 10 + 16 + 4 + 5)


def affine_subgroup_of_s5(s5):
    """AGL(1, 5), the maps x -> ax + b mod 5 with a != 0, inside S5."""
    index = {p: i for i, p in enumerate(s5.perms)}
    gens = [tuple((2 * x) % 5 for x in range(5)), tuple((x + 1) % 5 for x in range(5))]
    return Subgroup(s5, generated(s5, mask_of(index[p] for p in gens)))


def test_coset_space_matches_all_products_feed(sym4, dih12):
    # the coset space read off n.k products against the one read off all n^2
    s5 = symmetric_group(5)
    affine = affine_subgroup_of_s5(s5)
    cases = [(g, s) for g in (sym4, dih12, cyclic_group(12)) for s in subgroups(g)]
    cases += [(s5, stabilizer_subgroup(s5, 0)), (s5, affine)]
    for g, s in cases:
        for side, build in (("right", right_coset_hypergroup), ("left", left_coset_hypergroup)):
            assert build(g, s) == naive_coset_structure(g, s, side), (g.names, s.mask, side)
    assert affine.order == 20 and len(cases) == 30 + 16 + 6 + 2


def test_coset_space_products_counted(monkeypatch):
    # S5 over a point stabilizer: 120 elements times 5 cosets, not 120^2
    s5 = symmetric_group(5)
    stab = stabilizer_subgroup(s5, 0)
    counts = []

    def counting(names, triples, labels):
        triples = list(triples)
        counts.append(len(triples))
        return quotient_table(names, triples, labels)

    monkeypatch.setattr(constructions, "quotient_table", counting)
    right, left = right_coset_hypergroup(s5, stab), left_coset_hypergroup(s5, stab)
    assert counts == [600, 600] and right.n == left.n == 5


def test_coset_spaces_pass_the_axioms(sym4, dih12):
    # coset spaces are returned unchecked, as both bracketings of three
    # cosets give the cosets in their product; the check they leave out
    # runs here, on every subgroup of S4 and D6 and on one subgroup per
    # conjugacy class of S5, D24 and S4 x Z2 up to index 64
    spaces = [(g, s, (right_coset_hypergroup(g, s), left_coset_hypergroup(g, s)))
              for g in (sym4, dih12) for s in subgroups(g)]
    spaces += class_coset_spaces()
    for g, s, pair in spaces:
        for h in pair:
            assert axioms_hold(h), (g.names, s.mask, h.names)
    assert len(spaces) == 30 + 16 + 18 + 22 + 33


def test_normal_subgroup_gives_quotient_group(sym3):
    h = right_coset_hypergroup(sym3, Subgroup(sym3, 0b011001))
    assert is_group(h)
    assert h.table == ((0b01, 0b10), (0b10, 0b01))
    z2 = as_hypergroup(cyclic_group(2))
    assert find_isomorphism(h.m, z2.m) is not None


def test_subgroup_of_wrong_parent_rejected(sym3, dih8):
    with pytest.raises(ValueError):
        right_coset_hypergroup(sym3, Subgroup(dih8, 0b1))
    with pytest.raises(ValueError):
        left_coset_hypergroup(sym3, Subgroup(dih8, 0b1))


def test_subgroup_parent_is_compared_by_value():
    # an equal group built twice is the same group; a group of the same
    # order that is not equal is still refused
    g, again = symmetric_group(3), symmetric_group(3)
    stab = stabilizer_subgroup(again, 0)
    assert right_coset_hypergroup(g, stab) == right_coset_hypergroup(again, stab)
    with pytest.raises(ValueError, match="subgroup belongs to a different group"):
        right_coset_hypergroup(g, Subgroup(cyclic_group(6), 0b1001))


def test_coset_structure_theorems(sym3, dih8, z8):
    # right version univalent iff normal, the opposite of the right
    # version matches the left version, and left is isomorphic to right
    # exactly in the normal case (where both are the quotient group)
    for g in (sym3, dih8, z8):
        for s in subgroups(g):
            right = right_coset_hypergroup(g, s)
            left = left_coset_hypergroup(g, s)
            normal = is_normal(g, s.mask)
            assert is_group(right) == normal
            assert find_isomorphism(opposite(right.m), left.m) is not None
            assert (find_isomorphism(right.m, left.m) is not None) == normal
            if normal:
                assert right.table == left.table


# --- stabilizer tables ----------------------------------------------------------


def test_stabilizer_hypergroup_small():
    assert stabilizer_hypergroup(1).n == 1
    two = stabilizer_hypergroup(2)
    assert is_group(two)
    assert two.table == ((0b01, 0b10), (0b10, 0b01))
    with pytest.raises(ValueError, match=r"^degree must be >= 1$"):
        stabilizer_hypergroup(0)


def test_stabilizer_hypergroup_matches_coset_table(sym3):
    h = stabilizer_hypergroup(3)
    coset = right_coset_hypergroup(sym3, stabilizer_subgroup(sym3, 0))
    assert h.table == coset.table
    sym4 = symmetric_group(4)
    h4 = stabilizer_hypergroup(4)
    coset4 = right_coset_hypergroup(sym4, stabilizer_subgroup(sym4, 0))
    assert h4.table == coset4.table


def test_stabilizer_hypergroup_is_the_point_stabilizer_coset_space():
    # stabilizer_hypergroup returns s_family((alpha,)) unchecked, as this
    # coset space is a hypergroup
    for alpha in range(1, 6):
        g = symmetric_group(alpha)
        coset = right_coset_hypergroup(g, stabilizer_subgroup(g, 0))
        assert find_isomorphism(stabilizer_hypergroup(alpha), coset) is not None, alpha


def test_stabilizer_hypergroups_pass_the_axioms():
    for alpha in range(1, 13):
        assert axioms_hold(stabilizer_hypergroup(alpha)), alpha


def test_stabilizer_cube_covers_everything():
    for alpha in (3, 4, 5):
        h = stabilizer_hypergroup(alpha)
        for x in range(1, alpha):
            assert power(h, x, 2) == h.m.full_mask & ~(1 << x)
            assert power(h, x, 3) == h.m.full_mask
        assert power(h, 0, 3) == 1 << 0


# --- the S family ---------------------------------------------------------------


def test_s_family_validation():
    with pytest.raises(ValueError):
        s_family(())
    with pytest.raises(ValueError):
        s_family((0,))
    with pytest.raises(ValueError):
        s_family((2, 0))


def test_s_family_class_refuses_what_s_family_refuses():
    for sizes, msg in (((), "need a first block of size >= 1"),
                       ((0,), "need a first block of size >= 1"),
                       ((2, 0), "block sizes must be >= 1"),
                       ((3, -1), "block sizes must be >= 1")):
        for build in (s_family, s_family_class):
            with pytest.raises(ValueError) as err:
                build(sizes)
            assert str(err.value) == msg, (build, sizes)
    # only the table is wider than the masks; its class is still known
    assert s_family_class((65,)) is SFamilyClass.DHypergroup
    with pytest.raises(CapExceeded):
        s_family((65,))


def test_s_family_names_and_layout():
    m = s_family((3, 4))
    assert m.names == ("e", "y1", "y2", "a1_1", "a1_2", "a1_3", "a1_4")
    assert m.table[3][0] == 1 << 3                 # x.e = {x}
    assert m.table[3][1] == mask_of([4, 5, 6])     # a.y = block minus a
    assert m.table[3][4] == mask_of([0, 1, 2])     # a.a' = K minus block
    assert m.table[0][3] == mask_of([3, 4, 5, 6])  # e.a = K minus A0


def size_tuples(total):
    """Every tuple of positive block sizes summing to at most total."""
    def extend(sizes, left):
        yield sizes
        for p in range(1, left + 1):
            yield from extend(sizes + (p,), left - p)
    for n in range(1, total + 1):
        yield from extend((n,), total - n)


def test_s_family_matches_its_definition_cell_by_cell():
    count = 0
    for sizes in size_tuples(10):
        m = s_family(sizes)
        names, rows = naive_s_family(sizes)
        assert m.names == names, sizes
        assert table_sets(m) == rows, sizes
        count += 1
    # every composition of 1..10, so n = 1 and singleton later blocks too
    assert count == 2 ** 10 - 1


def test_s_family_singleton_block_empty_product():
    m = s_family((3, 1))
    assert m.table[3][1] == 0
    assert not verify_axioms(m).all_products_nonempty


def test_s_family_34_is_hypergroup_but_rows_unbalanced():
    h = Hypergroup.certify(s_family((3, 4)))
    rep = cogroup_report(h)
    assert rep.blocks_partition and not rep.blocks_equipotent


def test_s_family_class_examples():
    assert s_family_class((3, 3, 3)) is SFamilyClass.DHypergroup
    assert s_family_class((1, 1)) is SFamilyClass.DHypergroup
    assert s_family_class((4,)) is SFamilyClass.DHypergroup
    assert s_family_class((3, 4)) is SFamilyClass.HypergroupNotD
    assert s_family_class((3, 1)) is SFamilyClass.EmptyProduct
    assert s_family_class((2, 3)) is SFamilyClass.NotAssociative
    assert s_family_class((3, 2)) is SFamilyClass.NotAssociative
    assert s_family_class((1, 2)) is SFamilyClass.NotAssociative


def test_a5_case_identities_exact():
    # first regime: a lone A0 point with a bigger later block
    m = s_family((1, 2))  # e, a, b with A1 = {a, b}
    t = table_sets(m)
    a, b = 1, 2
    lhs = set_product(t, [a], t[a][a])   # a.(a.a)
    rhs = set_product(t, t[a][a], [a])   # (a.a).a
    assert b in rhs and b not in lhs
    assert lhs <= {a} | {0}

    # second regime: two A0 points, block of three
    m = s_family((2, 3))  # e, y, a, ...
    t = table_sets(m)
    y, a = 1, 2
    assert set_product(t, [a], t[y][y]) == {a}
    assert set_product(t, t[a][y], [y]) == {2, 3, 4}

    # third regime: three A0 points, block of two
    m = s_family((3, 2))  # e, y1, y2, a, b
    t = table_sets(m)
    y, a, bb = 1, 3, 4
    assert set_product(t, [a], t[y][y]) == {3, 4}
    assert t[a][y] == {bb}
    assert set_product(t, t[a][y], [y]) == {a}


def realization_order(sizes):
    return math.factorial(sizes[0]) ** len(sizes) * math.factorial(len(sizes))


def test_s_family_class_against_axioms_exhaustively():
    # all block-size tuples with carrier at most 12
    def tuples(limit):
        for total in range(1, limit + 1):
            for b in range(1, total + 1):
                for cut in itertools.combinations(range(1, total), b - 1):
                    parts = []
                    prev = 0
                    for c in list(cut) + [total]:
                        parts.append(c - prev)
                        prev = c
                    yield tuple(parts)

    seen = {c: 0 for c in SFamilyClass}
    for sizes in tuples(12):
        n, rest = sizes[0], sizes[1:]
        cond1 = all(p == n for p in rest)
        cond2 = n >= 3 and all(p >= 3 for p in rest) and any(p != n for p in rest)
        cond3 = n >= 2 and any(p == 1 for p in rest)
        assert cond1 + cond2 + cond3 <= 1  # regimes are mutually exclusive
        cls = s_family_class(sizes)
        seen[cls] += 1
        m = s_family(sizes)
        va = verify_axioms(m)
        if cls is SFamilyClass.DHypergroup:
            assert va.is_hypergroup
            if realization_order(sizes) <= 200:
                g, h = s_family_group_realization(sizes)
                coset = right_coset_hypergroup(g, h)
                assert find_isomorphism(coset.m, m) is not None
        elif cls is SFamilyClass.HypergroupNotD:
            assert va.is_hypergroup
            assert not cogroup_report(Hypergroup.certify(m)).blocks_equipotent
        elif cls is SFamilyClass.EmptyProduct:
            assert not va.all_products_nonempty
        else:
            assert not va.associative
    assert all(count > 0 for count in seen.values())


def test_realization_examples(sym3):
    g, h = s_family_group_realization((3,))
    assert g.table == sym3.table
    assert h.mask == 0b000011
    g2, h2 = s_family_group_realization((3, 3))
    assert g2.n == 72 and h2.order == 12
    coset = right_coset_hypergroup(g2, h2)
    assert find_isomorphism(coset.m, s_family((3, 3))) is not None
    g3, h3 = s_family_group_realization((1, 1, 1))
    assert g3.n == 6
    assert find_isomorphism(
        right_coset_hypergroup(g3, h3).m, s_family((1, 1, 1))) is not None
    g4, h4 = s_family_group_realization((2, 2))
    assert g4.n == 8
    assert find_isomorphism(
        right_coset_hypergroup(g4, h4).m, s_family((2, 2))) is not None


def test_realization_errors():
    with pytest.raises(ValueError):
        s_family_group_realization((3, 4))
    with pytest.raises(CapExceeded):
        s_family_group_realization((6,))
    with pytest.raises(CapExceeded):
        s_family_group_realization((3, 3), cap=10)
    # the cap triggers before any enumeration, so huge parameters return
    with pytest.raises(CapExceeded):
        s_family_group_realization((10, 10))


def test_huge_realization_order_refused_at_once():
    # (n!)^b * b! is multiplied factor by factor and stops once it passes
    # the cap, so a huge order is never formed nor printed in full
    for sizes, shown in [((2,) * 1500, "2!^1500*1500!"), ((3,) * 1000, "3!^1000*1000!"),
                         ((3, 3, 3), "3!^3*3!")]:
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as e:
            s_family_group_realization(sizes)
        assert time.perf_counter() - start < 1
        assert str(e.value) == f"group order {shown} exceeds cap 120"
    assert s_family_group_realization((3, 3), cap=72)[0].n == 72
    with pytest.raises(CapExceeded, match=r"group order 3!\^2\*2! exceeds cap 71"):
        s_family_group_realization((3, 3), cap=71)


# --- Utumi sums -----------------------------------------------------------------


def test_utumi_singleton_partition_is_the_base(sym3):
    base = as_hypergroup(sym3)
    data = UtumiInput(base, identity_relation(6), 0)
    assert utumi(data) == base.m
    assert bool(utumi_is_associative(data))


def test_utumi_z8_table_against_modular_oracle(utumi_z8):
    blocks = [[0], [1, 4, 7], [2, 3, 5, 6]]
    cls = {}
    for b in blocks:
        for x in b:
            cls[x] = b
    for x in range(8):
        for y in range(8):
            want = mask_of((x + a) % 8 for a in cls[y])
            assert utumi_z8.table[x][y] == want
    assert utumi_z8.table[1][1] == mask_of([0, 2, 5])


def test_utumi_input_clause_errors(z8):
    base = as_hypergroup(z8)
    with pytest.raises(UtumiInputError, match="carrier"):
        UtumiInput(base, identity_relation(4), 0)
    with pytest.raises(UtumiInputError, match="out of range"):
        UtumiInput(base, identity_relation(8), 9)
    with pytest.raises(UtumiInputError, match="singleton"):
        UtumiInput(base, EquivalenceRelation.from_blocks(
            8, [[0, 1], [2, 3, 4, 5, 6, 7]]), 0)
    with pytest.raises(UtumiInputError, match="right-neutral"):
        UtumiInput(base, identity_relation(8), 1)
    stab = stabilizer_hypergroup(3)
    with pytest.raises(UtumiInputError, match="inside the class"):
        UtumiInput(stab, identity_relation(3), 0)
    tilted = Multistructure(
        ("o", "p"), ((0b01, 0b01), (0b10, 0b11)))
    with pytest.raises(UtumiInputError, match="contain"):
        UtumiInput(tilted, identity_relation(2), 0)


def test_utumi_associativity_criterion_and_witness(z8):
    base = as_hypergroup(z8)
    good = UtumiInput(base, EquivalenceRelation.from_blocks(
        8, [[0], [1, 4, 7], [2, 3, 5, 6]]), 0)
    assert bool(utumi_is_associative(good))
    split = UtumiInput(base, EquivalenceRelation.from_blocks(
        8, [[0], [1], [2, 3, 4, 5, 6, 7]]), 0)
    rep = utumi_is_associative(split)
    assert not rep.associative
    assert rep.witness == (1, 1)
    assert verify_axioms(utumi(split)).associative == rep.associative

    z6 = as_hypergroup(cyclic_group(6))
    mixed = UtumiInput(z6, EquivalenceRelation.from_blocks(
        6, [[0], [1, 2], [3, 4, 5]]), 0)
    rep6 = utumi_is_associative(mixed)
    assert (rep6.associative, rep6.witness) == (False, (1, 1))


def random_zero_partition(rng, n):
    """A random partition of range(n) with 0 alone in its class."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    blocks = [[0]]
    for x in rest:
        if blocks[1:] and rng.random() < 0.6:
            rng.choice(blocks[1:]).append(x)
        else:
            blocks.append([x])
    return EquivalenceRelation.from_blocks(n, blocks)


def test_utumi_associativity_agrees_with_axioms_on_random_partitions():
    rng = random.Random(20260816)
    bases = [as_hypergroup(cyclic_group(m)) for m in (2, 3, 4, 6, 8)]
    bases.append(as_hypergroup(symmetric_group(3)))
    checked_true = 0
    for _ in range(300):
        base = rng.choice(bases)
        data = UtumiInput(base, random_zero_partition(rng, base.n), 0)
        rep = utumi_is_associative(data)
        va = verify_axioms(utumi(data))
        assert rep.associative == va.associative
        assert va.reproductive  # guaranteed by construction
        if rep.associative:
            checked_true += 1
    assert checked_true >= 20


def test_utumi_simplicity_criterion_values(z8, utumi_z8):
    base = as_hypergroup(z8)
    data = UtumiInput(base, EquivalenceRelation.from_blocks(
        8, [[0], [1, 4, 7], [2, 3, 5, 6]]), 0)
    assert utumi_simplicity_criterion(data)
    # the three-term sum of the size-3 class misses 0 (all such sums are
    # divisible by 3 modulo 8 only if... they simply never reach 0), the
    # four-term sum is everything, and two B terms already suffice
    a = mask_of([1, 4, 7])
    b = mask_of([2, 3, 5, 6])
    m = base.m
    aaa = product_of_sets(m, product_of_sets(m, a, a), a)
    assert aaa == mask_of([1, 2, 3, 4, 5, 6, 7])
    assert product_of_sets(m, aaa, a) == m.full_mask
    assert product_of_sets(m, b, b) == m.full_mask


def test_utumi_criterion_is_sufficient_only():
    from hypergroups.simplicity import is_simple
    z4 = as_hypergroup(cyclic_group(4))
    singles4 = UtumiInput(z4, identity_relation(4), 0)
    assert not utumi_simplicity_criterion(singles4)
    assert not is_simple(Hypergroup.certify(utumi(singles4)))
    z2 = as_hypergroup(cyclic_group(2))
    singles2 = UtumiInput(z2, identity_relation(2), 0)
    assert not utumi_simplicity_criterion(singles2)
    assert is_simple(Hypergroup.certify(utumi(singles2)))


# a univalent table with identity 0 that is not associative
LOOP5 = Multistructure(
    tuple("01234"),
    tuple(tuple(1 << v for v in row) for row in
          ((0, 1, 2, 3, 4),
           (1, 0, 3, 4, 2),
           (2, 3, 4, 0, 1),
           (3, 4, 1, 2, 0),
           (4, 2, 0, 1, 3))))


def test_utumi_criterion_preconditions():
    # stabilizer table with its non-neutral elements merged passes every
    # input clause (0 + x = K minus {0} stays inside the merged class)
    # but is not univalent, so the criterion refuses it
    stab = stabilizer_hypergroup(3)
    merged = UtumiInput(stab, EquivalenceRelation.from_blocks(
        3, [[0], [1, 2]]), 0)
    with pytest.raises(ValueError, match="univalent"):
        utumi_simplicity_criterion(merged)
    assert is_group(LOOP5) and not verify_axioms(LOOP5).associative
    with pytest.raises(ValueError, match="associative"):
        utumi_simplicity_criterion(
            UtumiInput(LOOP5, identity_relation(5), 0))


def utumi_corpus():
    """The Utumi inputs of the tests above, then random partitions of C8,
    C12, S3 and D8 with the zero 0 alone in its class."""
    z8 = as_hypergroup(cyclic_group(8))
    out = [
        UtumiInput(z8, EquivalenceRelation.from_blocks(8, [[0], [1, 4, 7], [2, 3, 5, 6]]), 0),
        UtumiInput(z8, EquivalenceRelation.from_blocks(8, [[0], [1], [2, 3, 4, 5, 6, 7]]), 0),
        UtumiInput(as_hypergroup(cyclic_group(6)),
                   EquivalenceRelation.from_blocks(6, [[0], [1, 2], [3, 4, 5]]), 0),
        UtumiInput(as_hypergroup(symmetric_group(3)), identity_relation(6), 0),
        UtumiInput(as_hypergroup(cyclic_group(4)), identity_relation(4), 0),
        UtumiInput(stabilizer_hypergroup(3), EquivalenceRelation.from_blocks(3, [[0], [1, 2]]), 0),
        UtumiInput(LOOP5, identity_relation(5), 0),
    ]
    rng = random.Random(20261019)
    for g in (cyclic_group(8), cyclic_group(12), symmetric_group(3), dihedral_group(4)):
        base = as_hypergroup(g)
        out += [UtumiInput(base, random_zero_partition(rng, base.n), 0) for _ in range(25)]
    return out


def test_utumi_matches_the_per_cell_sums():
    corpus = utumi_corpus()
    for data in corpus:
        assert utumi(data) == naive_utumi(data), data.partition
    assert len(corpus) == 107


def test_utumi_sums_counted(monkeypatch):
    # one sum x + ybar per element x and class ybar: n.k, not n^2
    calls = []

    def counting(m, xmask, ymask):
        calls.append((xmask, ymask))
        return product_of_sets(m, xmask, ymask)

    corpus = utumi_corpus()
    monkeypatch.setattr(constructions, "product_of_sets", counting)
    for data in corpus:
        calls.clear()
        utumi(data)
        m, eq = data.base, data.partition
        assert sorted(calls) == sorted(itertools.product(
            (1 << x for x in range(m.n)), eq.class_masks))

