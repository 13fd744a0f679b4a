"""Guided tour of the library: constructions, verification, simplicity.

Run from the repository root after installing the package:

    python3 scripts/tour.py
"""

from hypergroups.core import (
    Hypergroup,
    find_isomorphism,
    is_group,
    members,
    opposite,
    power,
    verify_axioms,
)
from hypergroups.groups import (
    as_hypergroup,
    coset_relation,
    cyclic_group,
    stabilizer_subgroup,
    subgroups,
    symmetric_group,
)
from hypergroups.constructions import (
    UtumiInput,
    left_coset_hypergroup,
    right_coset_hypergroup,
    s_family,
    s_family_class,
    stabilizer_hypergroup,
    utumi,
    utumi_simplicity_criterion,
)
from hypergroups.core import EquivalenceRelation
from hypergroups.presentations import (
    Presentation,
    group_trame,
    is_adequate,
    quotient,
)
from hypergroups.simplicity import (
    is_simple,
    is_simple_coset,
    presentation_simplicity,
    reflets,
)


def show_table(h, title):
    print(f"\n{title}")
    width = max(len(n) for n in h.names)
    for x in range(h.n):
        row = []
        for y in range(h.n):
            row.append("{" + ",".join(h.names[z] for z in members(h.table[x][y])) + "}")
        print(f"  {h.names[x]:>{width}} | " + "  ".join(row))


def main():
    print("== coset spaces ==")
    g = symmetric_group(3)
    print(f"Sym(3) has {len(subgroups(g))} subgroups")
    stab = stabilizer_subgroup(g, 0)
    r = right_coset_hypergroup(g, stab)
    show_table(r, "right cosets of Stab(0) in Sym(3)")
    rep = verify_axioms(r.m)
    print(f"axioms: hypergroup={rep.is_hypergroup}, group={is_group(r.m)}")
    print(f"simple (congruence search) = {is_simple(r)}")
    print(f"simple (subgroup side)     = {is_simple_coset(g, stab)}")
    l = left_coset_hypergroup(g, stab)
    print(f"right vs left isomorphic: {find_isomorphism(r, l) is not None}")
    op = Hypergroup.certify(opposite(r.m))
    print(f"opposite(right) vs left isomorphic: {find_isomorphism(op, l) is not None}")

    print("\n== reflets of Z/8 ==")
    z8 = as_hypergroup(cyclic_group(8))
    for q in reflets(z8):
        print(f"  reflet on {q.n} element(s): {q.names}")

    print("\n== the Utumi cogroup on Z/8 ==")
    eq = EquivalenceRelation.from_blocks(8, [[0], [1, 4, 7], [2, 3, 5, 6]])
    data = UtumiInput(z8, eq, 0)
    u = Hypergroup.certify(utumi(data))
    show_table(u, "x.y = x + class(y), classes {0} {1,4,7} {2,3,5,6}")
    print(f"simple = {is_simple(u)}, sufficient sum criterion = "
          f"{utumi_simplicity_criterion(data)}")
    B = {2, 3, 5, 6}
    print(f"B+B = {sorted({(a + b) % 8 for a in B for b in B})} (reaches everything)")

    print("\n== point-stabilizer family ==")
    for alpha in (3, 4, 5):
        h = stabilizer_hypergroup(alpha)
        x = 1
        print(f"  alpha={alpha}: x^2 has {bin(power(h, x, 2)).count('1')} elements, "
              f"x^3 is everything: {power(h, x, 3) == h.m.full_mask}, "
              f"simple: {is_simple(h)}")

    print("\n== S-family classification ==")
    for sizes in ((3,), (3, 3), (3, 4), (2, 3), (3, 1), (1, 2)):
        print(f"  S{sizes}: {s_family_class(list(sizes)).name}")

    print("\n== presentations ==")
    t = group_trame(g)
    p = Presentation(t, coset_relation(g, stab.mask, "right"))
    print(f"coset presentation adequate: {bool(is_adequate(p))}")
    q = Hypergroup.certify(quotient(p))
    print(f"quotient elements: {q.names}")
    ps = presentation_simplicity(p)
    print(f"simple via invariant coarsenings: {ps.simple} "
          f"({ps.invariant_count} invariant of {ps.checked} checked)")
    print(f"same table as the coset space: {q.table == r.table}")


if __name__ == "__main__":
    main()
