"""Every table on one or two elements, checked on every route against
plain set arithmetic: each product any subset of the carrier, the empty
set included, so 2 tables of order 1 and 4^4 = 256 of order 2. Tsitouras
and Massouros ("On enumeration of hypergroups of order 3", Comput. Math.
Appl. 59 (2010) 519-523) count 1 and 14 hypergroups of these orders, in
1 and 8 isomorphism classes."""

from itertools import permutations, product

import pytest

from hypergroups.core import (
    Hypergroup,
    Multistructure,
    NotAHypergroup,
    find_isomorphism,
    verify_axioms,
)
from hypergroups.simplicity import bell_number, simplicity_report

from conftest import (
    is_set_isomorphism,
    naive_axiom_report,
    naive_reflector_partitions,
    table_sets,
)

ORDERS = (1, 2)


def every_table(n):
    """The (2^n)^(n^2) tables on n elements, in row-major order of their cells."""
    names = tuple(str(x) for x in range(n))
    for cells in product(range(1 << n), repeat=n * n):
        yield Multistructure(names, tuple(cells[x * n:(x + 1) * n] for x in range(n)))


TABLES = {n: list(every_table(n)) for n in ORDERS}


def naive_hypergroups(n):
    return [m for m in TABLES[n] if naive_axiom_report(m).is_hypergroup]


def least_relabelling(m):
    """The class of m up to isomorphism, as the least of its relabelled
    set tables: table[p[x]][p[y]] = p(x.y) for each permutation p."""
    n, sets = m.n, table_sets(m)
    forms = []
    for p in permutations(range(n)):
        out = [[None] * n for _ in range(n)]
        for x, y in product(range(n), repeat=2):
            out[p[x]][p[y]] = tuple(sorted(p[w] for w in sets[x][y]))
        forms.append(tuple(map(tuple, out)))
    return min(forms)


def test_every_table_is_counted():
    assert {n: len(tables) for n, tables in TABLES.items()} == {1: 2, 2: 256}
    assert all(len(set(tables)) == len(tables) for tables in TABLES.values())


@pytest.mark.parametrize("n", ORDERS)
def test_axiom_check_matches_set_arithmetic(n):
    # every verdict and every witness, the tables with empty products included
    for m in TABLES[n]:
        assert verify_axioms(m) == naive_axiom_report(m), m.table


def certifies(m):
    try:
        Hypergroup.certify(m)
    except NotAHypergroup:
        return False
    return True


def test_hypergroups_are_counted_and_certified():
    found = {n: naive_hypergroups(n) for n in ORDERS}
    assert {n: len(hs) for n, hs in found.items()} == {1: 1, 2: 14}
    for n in ORDERS:
        assert [m for m in TABLES[n] if certifies(m)] == found[n]


def test_isomorphism_classes_are_the_published_ones():
    # find_isomorphism answers for every ordered pair as the relabellings
    # do, and each bijection it returns is an isomorphism of the set tables
    classes = {}
    for n in ORDERS:
        hs = [Hypergroup.certify(m) for m in naive_hypergroups(n)]
        forms = [least_relabelling(h) for h in hs]
        for (a, fa), (b, fb) in product(zip(hs, forms), repeat=2):
            g = find_isomorphism(a, b)
            assert (g is not None) == (fa == fb), (a.table, b.table)
            assert g is None or is_set_isomorphism(a, b, g), (a.table, b.table, g)
        classes[n] = len(set(forms))
    assert classes == {1: 1, 2: 8}


def test_simplicity_report_counts_the_naive_congruences():
    # the congruences are the partitions that satisfy the three-way
    # identity: one at order 1, the trivial hypergroup, which is not
    # simple; identity and total at order 2, so all 14 are simple
    counts = {}
    for n in ORDERS:
        for m in naive_hypergroups(n):
            naive = naive_reflector_partitions(m)
            rep = simplicity_report(Hypergroup.certify(m))
            assert (rep.invariant_count, rep.checked, rep.witness) \
                == (len(naive), bell_number(n), None), m.table
            counts.setdefault(n, set()).add((rep.invariant_count, rep.simple))
    assert counts == {1: {(1, False)}, 2: {(2, True)}}
