"""Group verification, subgroup enumeration, and coset arithmetic."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypergroups import groups
from hypergroups.core import CapExceeded, mask_of, members
from hypergroups.groups import (
    GroupError,
    GroupTable,
    Subgroup,
    as_hypergroup,
    check_group_order,
    coset_relation,
    cyclic_group,
    dihedral_group,
    from_permutations,
    generated,
    is_invariant_modulo,
    is_maximal,
    is_normal,
    overgroups,
    stabilizer_subgroup,
    subgroups,
    symmetric_group,
    symmetric_group_order,
    verify_group,
)

from hypergroups.constructions import s_family_group_realization
from hypergroups.presentations import group_trame, is_invariant_modulo_equiv

from conftest import (
    all_pairs_from_permutations,
    alternating_subgroup,
    coset_mask,
    full_scan_group_check,
    naive_coset_relation,
    naive_is_invariant_modulo,
    naive_is_maximal,
    naive_overgroup_masks,
    parity,
    set_mult,
)


def mutated_z3():
    table = [[(x + y) % 3 for y in range(3)] for x in range(3)]
    table[1][1] = 0
    return table


def built_directly(table, names=None):
    """GroupTable(names, rows) without verify_group: the rows as tuples,
    the names g0, g1, ... by default."""
    names = tuple(f"g{i}" for i in range(len(table))) if names is None else names
    return GroupTable(names, tuple(tuple(row) for row in table))


# a group table is checked by its constructor, and verify_group only
# shapes its arguments: both must refuse a table with the same error
ROUTES = (verify_group, built_directly)


def test_verify_group_shape_and_range():
    for build in ROUTES:
        with pytest.raises(GroupError) as e:
            build([])
        assert e.value.kind == "shape"
        with pytest.raises(GroupError) as e:
            build([[0, 1], [0]])
        assert e.value.kind == "shape"
        with pytest.raises(GroupError) as e:
            build([[0, 1], [1, 2]])
        assert e.value.kind == "range"
        assert e.value.witness == (1, 1)


def test_verify_group_assoc_witness_matches_exhaustive_scan():
    table = mutated_z3()
    first = next(
        (x, y, z)
        for x, y, z in itertools.product(range(3), repeat=3)
        if table[table[x][y]][z] != table[x][table[y][z]])
    for build in ROUTES:
        with pytest.raises(GroupError) as e:
            build(table)
        assert e.value.kind == "associativity"
        assert e.value.witness == first == (1, 1, 2)


@pytest.mark.parametrize("group", ["c12", "s4"])
def test_verify_group_witness_on_corrupted_tables(group):
    # one entry changed per table, late in the scan as well as early;
    # the witness must be the first bad triple of the exhaustive scan
    g = cyclic_group(12) if group == "c12" else symmetric_group(4)
    n = g.n
    rng = random.Random(n)
    spots = [(n - 1, n - 1), (n - 1, n - 2), (n - 2, n - 1), (n // 2, n - 1), (1, 0)]
    spots += [(rng.randrange(n), rng.randrange(n)) for _ in range(6)]
    for x, y in spots:
        table = [list(row) for row in g.table]
        table[x][y] = (table[x][y] + rng.randrange(1, n)) % n
        first = next(
            (a, b, c)
            for a, b, c in itertools.product(range(n), repeat=3)
            if table[table[a][b]][c] != table[a][table[b][c]])
        for build in ROUTES:
            with pytest.raises(GroupError) as e:
                build(table)
            assert (e.value.kind, e.value.witness) == ("associativity", first), (x, y)


LIGHT_TEST_GROUPS = [g.table for g in (cyclic_group(6), symmetric_group(3), dihedral_group(4),
                                        cyclic_group(8), symmetric_group(4), cyclic_group(12))]


@st.composite
def group_tables_and_magmas(draw):
    """A group table with 0-3 entries changed, or a random magma on 1-5
    elements; relabelled."""
    if draw(st.booleans()):
        table = [list(row) for row in draw(st.sampled_from(LIGHT_TEST_GROUPS))]
        n = len(table)
        for _ in range(draw(st.integers(0, 3))):
            x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            table[x][y] = draw(st.integers(0, n - 1))
    else:
        n = draw(st.integers(1, 5))
        table = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    p = draw(st.permutations(range(n)))
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[p[x]][p[y]] = p[table[x][y]]
    return out


def verify_group_outcome(table, build=verify_group):
    try:
        g = build(table)
    except GroupError as e:
        return e.kind, e.witness
    return "group", (g.identity, g.inverse)


@settings(max_examples=600)
@given(group_tables_and_magmas())
def test_verify_group_light_test_matches_full_scan(table):
    assert (verify_group_outcome(table) == verify_group_outcome(table, built_directly)
            == full_scan_group_check(table))


def test_verify_group_checks_more_than_the_first_generator():
    # Z6 with x*y = x + y + 3 when x = y = 1 mod 3, its elements 0 and 3
    # swapped, then every x renamed 5 - x: the first generator, element 5,
    # reaches only {5, 2}, and every bad triple has its middle element
    # outside that, so the test must go on to more generators to see one
    table = [(1, 5, 0, 4, 2, 3), (5, 0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5),
             (4, 2, 3, 1, 5, 0), (2, 3, 4, 5, 0, 1), (3, 4, 5, 0, 1, 2)]
    first = next(iter(groups.greedy_generators(6, lambda a: [row[a] for row in table])))
    reached = {first, table[first][first]}
    assert first == 5 and reached == {5, 2} and table[2][5] in reached
    bad = [(x, y, z) for x, y, z in itertools.product(range(6), repeat=3)
           if table[table[x][y]][z] != table[x][table[y][z]]]
    assert bad and not {y for _, y, _ in bad} & reached
    for build in ROUTES:
        assert verify_group_outcome(table, build) == ("associativity", bad[0]) \
            == ("associativity", (0, 0, 1))


def test_verify_group_identity_and_inverse_failures():
    for build in ROUTES:
        with pytest.raises(GroupError) as e:
            build([[0, 0], [0, 0]])  # associative, no identity
        assert e.value.kind == "identity"
        with pytest.raises(GroupError) as e:
            build([[0, 1], [0, 1]])  # x.y = y: every x a left identity, none two-sided
        assert e.value.kind == "identity"
        with pytest.raises(GroupError) as e:
            build([[0, 1], [1, 1]])  # monoid, 1 has no inverse
        assert e.value.kind == "inverse"
        assert e.value.witness == 1
        with pytest.raises(GroupError) as e:
            build([[0]], names=("a", "b"))
        assert e.value.kind == "names"


def test_verify_group_accepts_z8(z8):
    assert z8.identity == 0
    assert z8.inverse == (0, 7, 6, 5, 4, 3, 2, 1)
    assert z8.names == tuple(str(i) for i in range(8))


def test_from_permutations_composition_convention(sym3):
    assert sym3.names == ("012", "021", "102", "120", "201", "210")
    assert sym3.identity == 0
    p = sym3.names.index("120")  # the map 0->1, 1->2, 2->0
    q = sym3.names.index("021")  # swaps 1 and 2
    # (p*q)[i] = p[q[i]]: 0->1, 1->0, 2->2
    assert sym3.names[sym3.table[p][q]] == "102"
    assert sym3.names[sym3.table[q][p]] == "210"


def test_from_permutations_rejects_bad_input():
    with pytest.raises(GroupError) as e:
        from_permutations([(0, 0, 1)])
    assert e.value.kind == "range"
    with pytest.raises(GroupError) as e:
        from_permutations([(0, 1, 2), (1, 2, 0)])  # missing (2,0,1)
    assert e.value.kind == "closure"


def from_permutations_outcome(build, perms):
    try:
        g = build(perms)
    except GroupError as e:
        return e.kind, e.witness
    return g.names, g.table, g.identity, g.inverse, g.perms


def cyclic_and_dihedral_permutations():
    """C_m as the rotations of m points, D_m as rotations and reflections."""
    for m in (1, 2, 3, 5, 8, 12):
        rotations = [tuple((i + k) % m for i in range(m)) for k in range(m)]
        yield rotations
        yield rotations + [tuple((k - i) % m for i in range(m)) for k in range(m)]


def test_from_permutations_matches_all_pairs_oracle():
    groups = [symmetric_group(m, 720).perms for m in range(1, 7)]
    groups.append([p for p in itertools.permutations(range(5)) if parity(p) == 0])
    for sizes in {(n,) * b for n in range(1, 7) for b in range(1, 7)}:
        try:
            groups.append(s_family_group_realization(sizes, 720)[0].perms)
        except CapExceeded:
            continue
    groups += cyclic_and_dihedral_permutations()
    seen = set()
    for perms in groups:
        key = frozenset(perms)
        if key in seen:
            continue
        seen.add(key)
        want = from_permutations_outcome(all_pairs_from_permutations, perms)
        assert len(want) == 5, want
        assert from_permutations_outcome(from_permutations, perms) == want
    assert len(seen) == 18


def test_from_permutations_failures_match_all_pairs_oracle(sym4):
    rng = random.Random(16)
    ps = list(sym4.perms)
    cases = [[], [(0, 0, 1)], [(1, 2)], [(0, 1), (0, 1, 2)], [(0, 1, 2), (0, 2)],
             [(1, 0)], [(1, 2, 0)], [(0, 1, 2), (1, 2, 0)]]
    for _ in range(300):
        cases.append(rng.sample(ps, rng.randint(1, 24)))
    cases += [[ps[i] for i in members(h.mask)] for h in subgroups(sym4)]
    kinds = collections.Counter()
    for perms in cases:
        want = from_permutations_outcome(all_pairs_from_permutations, perms)
        assert from_permutations_outcome(from_permutations, perms) == want, perms
        kinds[want[0] if len(want) == 2 else "group"] += 1
    assert kinds == {"closure": 292, "group": 41, "range": 4, "shape": 1}


def test_greedy_generators_skip_the_identity(monkeypatch):
    # greatest unreached element first: the identity at index 0 is
    # reached by the first generator and never spent as one
    chosen = []
    greedy = groups.greedy_generators

    def recording(n, column):
        cols = greedy(n, column)
        chosen.append(list(cols))
        return cols

    monkeypatch.setattr(groups, "greedy_generators", recording)
    builds = {"S6": lambda: symmetric_group(6, 720), "S5": lambda: symmetric_group(5),
              "S4": lambda: symmetric_group(4), "C48": lambda: cyclic_group(48),
              "D15": lambda: dihedral_group(15)}
    counts = {}
    for name, build in builds.items():
        chosen.clear()
        g = build()
        assert len(chosen) == 1 and g.identity not in chosen[0], name
        counts[name] = len(chosen[0])
    assert counts == {"S6": 4, "S5": 3, "S4": 3, "C48": 1, "D15": 2}


def test_symmetric_group_cap():
    assert symmetric_group(5).n == 120
    with pytest.raises(CapExceeded):
        symmetric_group(6)


def test_group_order_cap_stops_the_product():
    assert symmetric_group_order(5) == 120
    check_group_order(120, 120)
    with pytest.raises(CapExceeded, match=r"^group order 121 exceeds cap 120$"):
        check_group_order(121, 120)
    with pytest.raises(CapExceeded, match=r"^group order 720 exceeds cap 120$"):
        symmetric_group_order(6)
    # the product stops at 720, long before 10**7! could be formed
    with pytest.raises(CapExceeded, match=r"^group order 10000000! exceeds cap 120$"):
        symmetric_group_order(10 ** 7)
    with pytest.raises(CapExceeded, match=r"^group order 5040 exceeds cap 720$"):
        symmetric_group(7, cap=720)
    with pytest.raises(CapExceeded, match=r"^group order 8! exceeds cap 720$"):
        symmetric_group(8, cap=720)


def test_dihedral_group_table(dih8):
    assert dih8.n == 8
    r1 = dih8.names.index("r1")
    s = dih8.names.index("r0s")
    assert dih8.table[r1][s] != dih8.table[s][r1]  # non-abelian
    assert dih8.names[dih8.table[s][s]] == "r0"
    assert dih8.names[dih8.table[r1][dih8.names.index("r3")]] == "r0"
    # s r s = r^-1
    assert dih8.names[dih8.table[dih8.table[s][r1]][s]] == "r3"


def test_subgroups_of_z8(z8):
    subs = subgroups(z8)
    assert [(s.order, s.mask) for s in subs] == [
        (1, 0b00000001),
        (2, 0b00010001),
        (4, 0b01010101),
        (8, 0b11111111),
    ]


def test_subgroups_of_sym3(sym3):
    subs = subgroups(sym3)
    assert [(s.order, s.mask) for s in subs] == [
        (1, 0b000001),
        (2, 0b000011),
        (2, 0b000101),
        (2, 0b100001),
        (3, 0b011001),
        (6, 0b111111),
    ]


def test_subgroup_counts(dih8, sym4):
    assert len(subgroups(dih8)) == 10
    assert len(subgroups(sym4)) == 30


def test_lagrange(sym4):
    for s in subgroups(sym4):
        assert sym4.n % s.order == 0


def test_subgroup_validation(z8, klein):
    with pytest.raises(GroupError):
        Subgroup(z8, 0b10)  # identity missing
    with pytest.raises(GroupError) as e:
        Subgroup(z8, 0b0111)  # 2 has no inverse inside
    assert e.value.kind == "inverse"
    with pytest.raises(GroupError) as e:
        Subgroup(klein, 0b0111)  # self-inverse but a*b escapes
    assert e.value.kind == "closure"


def test_subgroup_refuses_a_mask_outside_its_group():
    # a bit past the carrier would index past the inverse table, and a
    # negative mask has infinitely many members; both are refused first
    g = cyclic_group(4)
    for mask in (0b10001, -1):
        for call in (Subgroup, overgroups, is_maximal):
            with pytest.raises(GroupError) as e:
                call(g, mask)
            assert (e.value.kind, e.value.witness) == ("range", mask)


@pytest.mark.parametrize("call", [
    lambda g, m: set_mult(g, m, 1),
    lambda g, m: set_mult(g, 1, m),
    lambda g, m: coset_mask(g, m, 1, "right"),
    lambda g, m: coset_mask(g, m, 1, "left"),
    lambda g, m: coset_relation(g, m, "right"),
    lambda g, m: coset_relation(g, m, "left"),
    generated,
    is_normal,
    lambda g, m: is_invariant_modulo(g, m, g.full_mask),
    lambda g, m: is_invariant_modulo(g, 1, m),
], ids=["set_mult_a", "set_mult_b", "coset_mask_right", "coset_mask_left",
        "coset_relation_right", "coset_relation_left", "generated",
        "is_normal", "is_invariant_modulo_h", "is_invariant_modulo_k"])
def test_mask_arguments_outside_the_group_are_refused(call):
    # -1 has infinitely many members, so is_normal looped for ever; 1 << n
    # indexed past the table in generated
    g = cyclic_group(4)
    for mask in (-1, 1 << g.n):
        with pytest.raises(GroupError) as e:
            call(g, mask)
        assert (e.value.kind, e.value.witness) == ("range", mask)


def test_stabilizer_subgroup(sym3, z8):
    st0 = stabilizer_subgroup(sym3, 0)
    assert st0.mask == 0b000011
    assert stabilizer_subgroup(sym3, 2).mask == mask_of(
        i for i, p in enumerate(sym3.perms) if p[2] == 2)
    with pytest.raises(ValueError):
        stabilizer_subgroup(z8, 0)  # no permutation realization
    with pytest.raises(ValueError):
        stabilizer_subgroup(sym3, 3)


def test_alternating_subgroup_of_sym3(sym3):
    assert alternating_subgroup(sym3).mask == 0b011001
    assert sorted(sym3.names[i] for i in members(0b011001)) == \
        ["012", "120", "201"]


def test_coset_masks_frozen(sym3):
    h = stabilizer_subgroup(sym3, 0).mask
    x = sym3.names.index("120")
    assert coset_mask(sym3, h, x, "right") == 0b001100  # {102, 120}
    assert coset_mask(sym3, h, x, "left") == 0b101000   # {120, 210}
    with pytest.raises(ValueError):
        coset_mask(sym3, h, x, "middle")


def test_cosets_partition_carrier(sym3, dih8):
    for g in (sym3, dih8):
        for s in subgroups(g):
            for side in ("right", "left"):
                seen = 0
                for x in range(g.n):
                    c = coset_mask(g, s.mask, x, side)
                    assert c.bit_count() == s.order
                    assert c >> x & 1
                    if c & seen:
                        assert c & seen == c  # equal or disjoint
                    seen |= c
                assert seen == g.full_mask


def test_coset_relation_matches_coset_masks(sym3, dih8, sym4, dih12):
    # the one coset kernel against a set product per element, both sides,
    # and normality against the cosets compared one x at a time
    cases = 0
    for g in (sym3, dih8, sym4, dih12, cyclic_group(12), dihedral_group(15)):
        for s in subgroups(g):
            for side in ("right", "left"):
                assert coset_relation(g, s.mask, side) == naive_coset_relation(g, s.mask, side), \
                    (g.names, s.mask, side)
                cases += 1
            assert is_normal(g, s.mask) == all(
                coset_mask(g, s.mask, x, "right") == coset_mask(g, s.mask, x, "left")
                for x in range(g.n))
            with pytest.raises(ValueError, match="side must be 'right' or 'left', got 'middle'"):
                coset_relation(g, s.mask, "middle")
    assert cases == 2 * (6 + 10 + 30 + 16 + 6 + 28)


def test_set_mult_against_perm_oracle(sym3):
    perms = sym3.perms
    idx = {p: i for i, p in enumerate(perms)}
    for amask in (0b000011, 0b011001, 0b100101, 0b111111):
        for bmask in (0b000001, 0b001100, 0b110011):
            want = 0
            for a in members(amask):
                for b in members(bmask):
                    comp = tuple(perms[a][perms[b][i]] for i in range(3))
                    want |= 1 << idx[comp]
            assert set_mult(sym3, amask, bmask) == want


@given(st.integers(1, 255), st.integers(1, 255), st.integers(1, 255))
def test_set_mult_associative(a, b, c):
    g = dihedral_group(4)
    lhs = set_mult(g, set_mult(g, a, b), c)
    rhs = set_mult(g, a, set_mult(g, b, c))
    assert lhs == rhs


def test_generated(z8, sym3):
    assert generated(z8, 1 << 2) == 0b01010101
    assert generated(z8, 1 << 1) == 0b11111111
    assert generated(sym3, 1 << sym3.names.index("120")) == 0b011001
    two_swaps = mask_of([sym3.names.index("021"), sym3.names.index("102")])
    assert generated(sym3, two_swaps) == 0b111111


def test_normality(sym3, dih8):
    assert is_normal(sym3, 0b011001)       # index-2 subgroup
    assert not is_normal(sym3, 0b000011)   # a point stabilizer
    for s in subgroups(dih8):
        # oracle: conjugation-closed under every generator
        closed = all(
            (1 << dih8.table[dih8.table[x][h]][dih8.inverse[x]]) & s.mask
            for x in range(dih8.n) for h in members(s.mask))
        assert is_normal(dih8, s.mask) == closed


def test_maximality(sym3, z8):
    assert is_maximal(sym3, 0b011001)
    assert is_maximal(sym3, 0b000011)  # order 2, nothing strictly between
    assert not is_maximal(z8, 0b00000001)
    assert not is_maximal(z8, 0b00010001)
    assert is_maximal(z8, 0b01010101)
    assert not is_maximal(sym3, 0b111111)  # proper required


def test_overgroups_match_lattice_filter(sym3, sym4, dih8, dih12, z8, klein):
    # the interval [H, G] is the whole lattice filtered by H in K, in the
    # same (order, mask) order; is_maximal agrees with the lattice sweep
    intervals = 0
    for g in (sym3, sym4, dih8, dih12, z8, klein):
        lattice = naive_overgroup_masks(g, 1 << g.identity)
        assert [s.mask for s in subgroups(g)] == lattice
        for hmask in lattice:
            got = [s.mask for s in overgroups(g, hmask)]
            assert got == [m for m in lattice if m & hmask == hmask], (g.names, hmask)
            assert is_maximal(g, hmask) == naive_is_maximal(g, hmask, lattice)
            intervals += 1
    assert intervals == 6 + 30 + 10 + 16 + 4 + 5


def test_overgroups_in_sym5():
    g = symmetric_group(5)
    stab = stabilizer_subgroup(g, 0).mask
    assert [s.mask for s in overgroups(g, stab)] == [stab, g.full_mask]
    assert is_maximal(g, stab)
    # Sym{2,3,4}: itself, times Sym{0,1}, the two point stabilisers, S5
    fix01 = mask_of(i for i, p in enumerate(g.perms) if p[0] == 0 and p[1] == 1)
    got = [s.mask for s in overgroups(g, fix01)]
    assert got == naive_overgroup_masks(g, fix01)
    assert [m.bit_count() for m in got] == [6, 12, 24, 24, 120]
    assert not is_maximal(g, fix01)


def test_overgroups_members_pass_the_full_subgroup_check(sym4, dih12):
    # overgroups wraps the masks generated has closed without re-checking
    # closure; every one of them passes the public constructor's check
    for g in (sym4, dih12, cyclic_group(12)):
        for h in subgroups(g):
            for k in overgroups(g, h.mask):
                assert k.parent is g and Subgroup(g, k.mask) == k


def test_overgroups_generated_call_counts(sym4, dih12):
    # pinned: overgroups tries one x per left coset Kx; trying every x
    # outside K gives the same interval with more calls, and only these
    # counts can see it
    def calls(g, hmask):
        count = 0
        closure = groups.generated

        def counted(*args):
            nonlocal count
            count += 1
            return closure(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups, "generated", counted)
            overgroups(g, hmask)
        return count

    sym5 = symmetric_group(5)
    for g, hmask, want in ((sym4, 1 << sym4.identity, 204),
                           (sym4, stabilizer_subgroup(sym4, 0).mask, 3),
                           (sym5, 1 << sym5.identity, 4169),
                           (sym5, stabilizer_subgroup(sym5, 0).mask, 4),
                           (dih12, 1 << dih12.identity, 58),
                           (cyclic_group(48), 1, 114)):
        assert calls(g, hmask) == want, (g.n, hmask)


def test_overgroups_refuse_non_subgroups_and_oversized_groups(sym3):
    with pytest.raises(GroupError):
        overgroups(sym3, 0b000110)  # no identity
    with pytest.raises(GroupError):
        is_maximal(sym3, 0b001011)  # not closed
    with pytest.raises(CapExceeded):
        overgroups(sym3, 1, cap=5)


def test_invariance_modulo_trivial_is_normality(sym3, dih8, z8):
    for g in (sym3, dih8, z8):
        triv = 1 << g.identity
        for s in subgroups(g):
            assert is_invariant_modulo(g, triv, s.mask) == \
                is_normal(g, s.mask)


def test_invariance_modulo_examples(sym3):
    h = stabilizer_subgroup(sym3, 0).mask
    assert is_invariant_modulo(sym3, h, 0b111111)
    assert is_invariant_modulo(sym3, h, h)
    # the alternating subgroup does not absorb the stabilizer
    assert not is_invariant_modulo(sym3, h, 0b011001)


def invariant_by_definition(g, hmask, kmask) -> bool:
    """KxK = HxK = KxH for every x, by plain set products."""
    h, k = members(hmask), members(kmask)

    def prod(a, b):
        return {g.table[u][v] for u in a for v in b}

    for x in range(g.n):
        kx, xk, xh = prod(k, [x]), prod([x], k), prod([x], h)
        if not prod(kx, k) == prod(h, xk) == prod(k, xh):
            return False
    return True


def test_invariance_modulo_matches_definition(sym3, sym4, dih8, dih12, z8, klein):
    pairs = invariant = 0
    for g in (sym3, sym4, dih8, dih12, z8, klein):
        subs = subgroups(g)
        for hs in subs:
            for ks in subs:
                got = is_invariant_modulo(g, hs.mask, ks.mask)
                assert got == invariant_by_definition(g, hs.mask, ks.mask), \
                    (g.names, hs.mask, ks.mask)
                pairs += 1
                invariant += got
    assert pairs >= 1000 and 100 <= invariant <= pairs - 100


def test_invariance_modulo_matches_set_products_and_trames(sym4, dih12):
    # coset labels against the set products and against the trame-level
    # check on the coset relations, every pair of subgroups, both sides
    pairs = 0
    for g in (sym4, dih12, cyclic_group(12)):
        t = group_trame(g)
        subs = [s.mask for s in subgroups(g)]
        rel = {(m, side): coset_relation(g, m, side) for m in subs for side in ("right", "left")}
        for hm in subs:
            for km in subs:
                got = is_invariant_modulo(g, hm, km)
                assert got == naive_is_invariant_modulo(g, hm, km), (g.names, hm, km)
                for side in ("right", "left"):
                    assert got == is_invariant_modulo_equiv(t, rel[hm, side], rel[km, side]), \
                        (g.names, hm, km, side)
                pairs += 1
    assert pairs == 1192


def test_as_hypergroup_univalent(sym3):
    from hypergroups.core import is_group
    h = as_hypergroup(sym3)
    assert is_group(h)
    assert h.table[1][2].bit_count() == 1


def test_parity_helper(sym3):
    assert [parity(p) for p in sym3.perms] == [0, 1, 1, 0, 0, 1]
