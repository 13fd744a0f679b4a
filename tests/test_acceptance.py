"""End-to-end acceptance checks, one numbered test per claim.

Each test prints one `acceptance NN <label>: PASS/FAIL` line (visible
under -s or in failure output) and asserts the same condition, so the
-v listing doubles as the scorecard. 01 is split: 01a holds the
computational core, 01b pins an exact triple-sum claim that the
computation refutes; 01b is expected to stay red and documents why.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from hypergroups.core import (
    EquivalenceRelation,
    Hypergroup,
    find_isomorphism,
    is_group,
    opposite,
    power,
    verify_axioms,
)
from hypergroups.groups import (
    Subgroup,
    as_hypergroup,
    coset_relation,
    cyclic_group,
    dihedral_group,
    is_normal,
    stabilizer_subgroup,
    subgroups,
    symmetric_group,
)
from hypergroups.constructions import (
    SFamilyClass,
    UtumiInput,
    left_coset_hypergroup,
    canonical_presentation,
    right_coset_hypergroup,
    s_family,
    s_family_class,
    s_family_group_realization,
    stabilizer_hypergroup,
    utumi,
    utumi_is_associative,
    utumi_simplicity_criterion,
)
from hypergroups.presentations import (
    Presentation,
    Trame,
    group_trame,
    is_adequate,
    quotient,
)
from hypergroups.simplicity import (
    invariant_modulo_subgroups,
    is_simple,
    presentation_simplicity,
    reflets,
)

from conftest import alternating_subgroup, identity_relation, set_product, table_sets


def report(num, label, ok):
    print(f"acceptance {num} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hypergroups", *args],
                          capture_output=True, text=True)


UTUMI_ARGS = ("utumi", "cyc:8", "{0}|{1,4,7}|{2,3,5,6}", "0")


def test_01a_utumi_cogroup_simple_by_search(tmp_path):
    gen = run_cli("gen", *UTUMI_ARGS)
    path = tmp_path / "u.json"
    path.write_text(gen.stdout)
    ver = run_cli("verify", str(path))
    t0 = time.monotonic()
    simp = run_cli("simple", str(path))
    elapsed = time.monotonic() - t0
    verdict = json.loads(simp.stdout)
    B = {2, 3, 5, 6}
    BB = {(b1 + b2) % 8 for b1 in B for b2 in B}
    ok = (gen.returncode == 0 and ver.returncode == 0
          and json.loads(ver.stdout)["is_hypergroup"]
          and simp.returncode == 0 and verdict["simple"]
          and verdict["partition_space"] == 4140
          and verdict["congruences"] == 2
          and elapsed < 5.0
          and BB == set(range(8)))
    assert report("01a", "utumi cogroup simple by exhaustive search", ok)


def test_01b_utumi_triple_sum_covers_carrier():
    A = {1, 4, 7}
    AA = {(x + y) % 8 for x in A for y in A}
    AAA = {(x + y) % 8 for x in AA for y in A}
    ok = AAA == set(range(8))
    report("01b", "utumi triple sum covers the carrier", ok)
    assert ok, (
        "the sum A+A+A with A = {1,4,7} in Z/8 was claimed to be the whole "
        f"carrier, but computing it gives {sorted(AAA)}: the ten multisets "
        "a+b+c with a,b,c in {1,4,7} reduce mod 8 to {1,...,7}, never 0, "
        "so A+A+A = H minus {0}; the fourth power A+A+A+A does reach H, "
        "and the simplicity verdict of 01a is unaffected because the "
        "sufficient criterion only needs some iterated sum to reach H")


def test_02_stabilizer_family_identities():
    ok = True
    for alpha in range(3, 9):
        h = stabilizer_hypergroup(alpha)
        full = h.m.full_mask
        for x in range(alpha):
            ok = ok and h.table[x][0] == 1 << x
            for y in range(1, alpha):
                ok = ok and h.table[x][y] == full & ~(1 << x)
            if x:
                ok = ok and power(h, x, 2) == full & ~(1 << x)
                ok = ok and power(h, x, 3) == full
        ok = ok and is_simple(h) and not is_group(h.m)
    for alpha in (3, 4, 5):
        g = symmetric_group(alpha)
        q = right_coset_hypergroup(g, stabilizer_subgroup(g, 0))
        ok = ok and q.table == stabilizer_hypergroup(alpha).table
    assert report("02", "stabilizer family identities and simplicity", ok)


def test_03_reflet_correspondence(sym3, sym4, z8, dih8):
    pairs = [(sym3, stabilizer_subgroup(sym3, 0)),
             (sym4, stabilizer_subgroup(sym4, 0)),
             (sym4, alternating_subgroup(sym4))]
    pairs += [(z8, s) for s in subgroups(z8)]
    pairs += [(dih8, s) for s in subgroups(dih8)]
    ok = True
    for g, sub in pairs:
        lhs = reflets(right_coset_hypergroup(g, sub))
        rhs = []
        for k in invariant_modulo_subgroups(g, sub):
            cand = right_coset_hypergroup(g, k)
            if all(find_isomorphism(cand, seen) is None for seen in rhs):
                rhs.append(cand)
        ok = ok and len(lhs) == len(rhs)
        for q in lhs:
            ok = ok and sum(
                1 for r in rhs if find_isomorphism(q, r) is not None) == 1
    assert report("03", "reflet correspondence with invariant subgroups", ok)


def test_04_opposite_and_side_swap(sym3, sym4, dih8):
    ok = True
    for g in [sym3, sym4, dih8] + [cyclic_group(n) for n in range(1, 13)]:
        for sub in subgroups(g):
            if g.n // sub.order > 12:
                continue
            r = right_coset_hypergroup(g, sub)
            l = left_coset_hypergroup(g, sub)
            ok = ok and find_isomorphism(
                Hypergroup.certify(opposite(r.m)), l) is not None
            ok = ok and (find_isomorphism(r, l) is not None) == \
                is_normal(g, sub.mask)
            ok = ok and is_simple(r) == is_simple(l)
    assert report("04", "opposite and side-swap theorems", ok)


def test_05_simple_non_group_pairs(sym3, sym4):
    ok = True
    for g in (sym3, sym4):
        sub = stabilizer_subgroup(g, 0)
        r = right_coset_hypergroup(g, sub)
        l = left_coset_hypergroup(g, sub)
        ok = ok and is_simple(r) and is_simple(l)
        ok = ok and not is_group(r.m) and not is_group(l.m)
        ok = ok and find_isomorphism(r, l) is None
    assert report("05", "simple non-group pairs", ok)


def _size_tuples(limit, max_blocks):
    out = []
    for total in range(1, limit + 1):
        def rec(rest, acc):
            if rest == 0:
                out.append(tuple(acc))
                return
            if len(acc) == max_blocks:
                return
            for p in range(1, rest + 1):
                rec(rest - p, acc + [p])
        rec(total, [])
    return out


def test_06_s_family_classification():
    ok = True
    for sizes in _size_tuples(10, 3):
        cls = s_family_class(sizes)
        va = verify_axioms(s_family(sizes))
        if not va.all_products_nonempty:
            ok = ok and cls is SFamilyClass.EmptyProduct
        elif va.is_hypergroup:
            ok = ok and cls in (SFamilyClass.DHypergroup,
                                SFamilyClass.HypergroupNotD)
        else:
            ok = ok and cls is SFamilyClass.NotAssociative
    for sizes in ((3,), (4,), (5,), (3, 3), (2, 2)):
        g, sub = s_family_group_realization(sizes)
        q = right_coset_hypergroup(g, sub)
        h = Hypergroup.certify(s_family(sizes))
        ok = ok and find_isomorphism(q, h) is not None

    t = table_sets(s_family((1, 2)))
    a, b = 1, 2
    lhs = set_product(t, [a], t[a][a])
    rhs = set_product(t, t[a][a], [a])
    ok = ok and b in rhs and b not in lhs and lhs <= {a, 0}
    t = table_sets(s_family((2, 3)))
    y, a = 1, 2
    ok = ok and set_product(t, [a], t[y][y]) == {a}
    ok = ok and set_product(t, t[a][y], [y]) == {2, 3, 4}
    t = table_sets(s_family((3, 2)))
    y, a, bb = 1, 3, 4
    ok = ok and set_product(t, [a], t[y][y]) == {3, 4}
    ok = ok and t[a][y] == {bb}
    ok = ok and set_product(t, t[a][y], [y]) == {a}
    assert report("06", "s-family classification against axiom scan", ok)


def _random_presentation(seed):
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


def _coset_presentations(gs, max_index=12):
    out = []
    for g in gs:
        for sub in subgroups(g):
            if g.n // sub.order <= max_index:
                out.append(Presentation(
                    group_trame(g), coset_relation(g, sub.mask, "right")))
    return out


def test_07_adequacy_matches_quotient_axioms(sym3, sym4, z8, dih8):
    ps = [_random_presentation(seed) for seed in range(500)]
    ps += _coset_presentations([sym3, sym4, z8, dih8])
    ok = len(ps) >= 500
    for p in ps:
        rep = is_adequate(p)
        va = verify_axioms(quotient(p))
        ok = ok and rep.reproductive == va.reproductive
        ok = ok and rep.associative == va.associative
        ok = ok and bool(rep) == va.is_hypergroup
    assert report("07", "adequacy matches quotient axioms", ok)


def test_08_canonical_presentation_reproduces(small_hypergroup_corpus):
    ok = True
    for h in small_hypergroup_corpus:
        q = Hypergroup.certify(quotient(canonical_presentation(h)))
        ok = ok and find_isomorphism(q, h) is not None
    assert report("08", "canonical presentation reproduces the structure", ok)


def test_09_presentation_simplicity_corollary(sym3, sym4, z8, dih8):
    ok = True
    for g in (sym3, sym4):
        p = Presentation(group_trame(g), coset_relation(
            g, stabilizer_subgroup(g, 0).mask, "right"))
        ok = ok and presentation_simplicity(p).simple
    candidates = _coset_presentations([sym3, z8, dih8]) \
        + [_random_presentation(seed) for seed in range(80)]
    agreed = 0
    for p in candidates:
        if p.k < 2 or p.k > 12 or not is_adequate(p):
            continue
        want = is_simple(Hypergroup.certify(quotient(p)))
        ok = ok and presentation_simplicity(p).simple == want
        agreed += 1
    ok = ok and agreed >= 10
    assert report("09", "presentation simplicity corollary", ok)


def test_10_group_simplicity_is_classical(sym3, dih8, dih12, klein):
    gs = [cyclic_group(n) for n in range(1, 13)] + [klein, sym3, dih8, dih12]
    ok = True
    for g in gs:
        classical = g.n in (2, 3, 5, 7, 11)
        ok = ok and is_simple(as_hypergroup(g)) == classical
    assert report("10", "group simplicity is classical", ok)


def test_11_utumi_criterion_sufficient_not_necessary():
    rng = random.Random(0)
    instances = 0
    criterion_true = 0
    ok = True
    for n in range(2, 13):
        h = as_hypergroup(cyclic_group(n))
        for _ in range(25):
            labels = [0] + [1 + rng.randrange(max(n - 1, 1))
                            for _ in range(n - 1)]
            data = UtumiInput(h, EquivalenceRelation.from_labels(labels), 0)
            instances += 1
            if not utumi_is_associative(data):
                continue
            if utumi_simplicity_criterion(data):
                criterion_true += 1
                ok = ok and is_simple(Hypergroup.certify(utumi(data)))
    ok = ok and instances >= 200 and criterion_true >= 3
    # converse fails: Z/2 with singleton classes never sums to H, yet simple
    z2 = as_hypergroup(cyclic_group(2))
    data = UtumiInput(z2, identity_relation(2), 0)
    ok = ok and not utumi_simplicity_criterion(data)
    ok = ok and is_simple(Hypergroup.certify(utumi(data)))
    assert report("11", "utumi criterion sufficiency", ok)
