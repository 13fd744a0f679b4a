"""The three workloads: seeded inputs, pinned verb invocations, answer checks.

Inputs are built through the library (this is what `setup_s` times) and
written as files; the program under test receives only those files and
literal arguments. Each check compares an invocation's exit code and
stdout against `oracle`, which never imports the library.

Where a verdict's cost depends on the order of the elements (a scan that
stops at its first witness, a backtracking search), the seed changes the
element names only. Where the whole search space is always covered (a
table that passes every axiom), the seed also permutes the elements.
Either way the work in a round does not depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracle
from hypergroups.cli import format_trame
from hypergroups.constructions import (
    UtumiInput,
    canonical_presentation,
    right_coset_hypergroup,
    s_family,
    utumi,
)
from hypergroups.core import EquivalenceRelation, Multistructure, members, to_json
from hypergroups.groups import (
    Subgroup,
    cyclic_group,
    dihedral_group,
    from_permutations,
    generated,
    stabilizer_subgroup,
    symmetric_group,
)
from hypergroups.presentations import Trame


@dataclass
class Result:
    rc: int
    out: str
    err: str


@dataclass
class Job:
    """One verb invocation. kind "light" marks a small input, "refuse" an
    invocation whose correct outcome is a cap refusal (exit 3), "heavy"
    everything else."""

    name: str
    argv: list
    kind: str
    check: Callable  # (Result, {job name: Result}) -> failure text or None
    save_as: Optional[Path] = None  # stdout is written here for later jobs


# --- checks ------------------------------------------------------------------


def _once(fn):
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _names(names, idx):
    return None if idx is None else [names[i] for i in idx]


def _parse(res: Result, rc: int):
    """(answer, None) or (None, failure text)."""
    if res.rc != rc:
        return None, f"exit {res.rc}, want {rc}"
    if not res.out.endswith("\n") or res.out.count("\n") != 1:
        return None, "stdout is not one line"
    try:
        return json.loads(res.out), None
    except ValueError:
        return None, "stdout is not JSON"


def _compare(got, want) -> Optional[str]:
    if got != want:
        return f"answer {json.dumps(got)[:300]} != expected {json.dumps(want)[:300]}"
    return None


def _assoc_witness_holds(names, table, w) -> bool:
    x, y, z = (names.index(s) for s in w)
    return not oracle.assoc_fails_at(table, x, y, z)


def check_refusal(res: Result, outs) -> Optional[str]:
    if res.rc != 3:
        return f"exit {res.rc}, want 3 (cap refusal)"
    if res.out:
        return "a refusal printed to stdout"
    if not res.err.startswith("error:"):
        return "a refusal without an error line on stderr"
    return None


def check_text(expected_text: Callable[[], str]):
    """stdout must be exactly the oracle's canonical JSON plus a newline."""
    expected_text = _once(expected_text)

    def check(res, outs):
        if res.rc != 0:
            return f"exit {res.rc}, want 0"
        want = expected_text()
        if res.out != want + "\n":
            return f"output {res.out[:120]!r} differs from the oracle's {want[:120]!r}"
        return None
    return check


def check_verify(path, regime=None):
    """Verdict and first witnesses from the oracle. For S-family tables the
    oracle must also agree with the regime rule."""
    @_once
    def expected():
        names, t = oracle.load(_read(path))
        aw, rw, ew = oracle.axioms(t)
        ok = aw is None and rw is None and ew is None
        if regime is not None and not _regime_agrees(regime, aw, ew, ok):
            raise AssertionError(f"the oracle disagrees with the regime rule ({regime})")
        return names, t, (0 if ok else 1), {
            "is_hypergroup": ok, "associative": aw is None, "reproductive": rw is None,
            "all_products_nonempty": ew is None, "assoc_witness": _names(names, aw),
            "repro_witness": None if rw is None else names[rw],
            "empty_witness": _names(names, ew)}

    def check(res, outs):
        names, t, rc, want = expected()
        got, bad = _parse(res, rc)
        if bad:
            return bad
        w = got.get("assoc_witness")
        if w and _assoc_witness_holds(names, t, w):
            return f"reported witness {w} satisfies associativity"
        return _compare(got, want)
    return check


def _regime_agrees(regime, aw, ew, ok) -> bool:
    """The restated regime rule against the oracle's axiom verdict."""
    if regime in ("DHypergroup", "HypergroupNotD"):
        return ok
    if regime == "EmptyProduct":
        return ew is not None
    return aw is not None and ew is None


def check_classify(sizes):
    @_once
    def expected():
        regime = oracle.s_family_regime(sizes)
        names, t = oracle.s_family(sizes)
        aw, rw, ew = oracle.axioms(t)
        if not _regime_agrees(regime, aw, ew, aw is None and rw is None and ew is None):
            raise AssertionError(f"the oracle disagrees with the regime rule ({regime})")
        w = ew if ew is not None else aw
        return names, t, {"class": regime, "sizes": list(sizes), "witness": _names(names, w)}

    def check(res, outs):
        names, t, want = expected()
        got, bad = _parse(res, 0)
        if bad:
            return bad
        w = got.get("witness")
        if w and len(w) == 3 and _assoc_witness_holds(names, t, w):
            return f"reported witness {w} satisfies associativity"
        return _compare(got, want)
    return check


def check_opposite(path):
    def expected():
        names, t = oracle.load(_read(path))
        n = len(t)
        return oracle.dump(names, [[t[y][x] for y in range(n)] for x in range(n)])
    return check_text(expected)


def check_canon(path):
    """gen canon gives the input back byte for byte once each class name
    'v|a,b,c' is read as its element v."""
    def check(res, outs):
        got, bad = _parse(res, 0)
        if bad:
            return bad
        names = [s.split("|")[0] for s in got["elements"]]
        table = [[[s.split("|")[0] for s in e] for e in row] for row in got["table"]]
        back = json.dumps({"elements": names, "table": table}, separators=(",", ":"))
        if back != _read(path):
            return "gen canon did not reproduce its input"
        return None
    return check


def check_simple(path, count=None, pair=None):
    """Congruence count from a closed form or, for at most 8 elements, from
    a raw sweep over all partitions; the witness must be a reflector
    congruence strictly between identity and total. pair names a
    simple-coset job whose verdict and invariant-subgroup count must agree
    (reflector congruences of G/H match the subgroups invariant modulo H)."""
    memo = {}

    def expected(text):
        if text not in memo:
            names, t = oracle.load(text)
            n = len(t)
            c = count if count is not None else len(oracle.congruences(t))
            if count is not None and n <= 8 and len(oracle.congruences(t)) != count:
                raise AssertionError("closed form disagrees with the partition sweep")
            memo[text] = names, t, c
        return memo[text]

    def check(res, outs):
        names, t, c = expected(_read(path))
        n = len(t)
        simple = n > 1 and c == 2
        got, bad = _parse(res, 0 if simple else 1)
        if bad:
            return bad
        w = got.get("witness")
        if w is not None:
            labels = oracle.blocks_to_labels(n, [[names.index(s) for s in b] for b in w])
            if labels is None or not 1 < len(w) < n:
                return f"witness {w} is not a proper nontrivial partition"
            if not oracle.is_reflector_congruence(t, labels):
                return f"witness {w} fails the saturation identity"
        if pair is not None:
            other = outs[pair]
            if other.rc != res.rc:
                return f"verdict differs from {pair}"
            if json.loads(other.out)["subgroups_invariant"] != c:
                return f"{pair} counts other than the congruences"
        return _compare(got, {"simple": simple, "n": n, "partition_space": oracle.bell(n),
                              "congruences": c, "witness": w if c > 2 else None})
    return check


def check_reflets(path, closed_form=None):
    """Reflets up to isomorphism. closed_form "total": the total hypergroup
    of each size 1..n. closed_form "cyclic": the cyclic group of each order
    dividing n. Otherwise (at most 7 elements) the quotients by every
    congruence of a partition sweep, sorted into isomorphism classes by
    trying every bijection."""
    @_once
    def expected():  # [(size, test that a reported reflet is the expected one)]
        n = len(json.loads(_read(path))["elements"])
        if closed_form == "total":
            return [(k, oracle.is_total) for k in range(1, n + 1)]
        if closed_form == "cyclic":
            return [(d, oracle.is_cyclic_group) for d in range(1, n + 1) if n % d == 0]
        table = oracle.load(_read(path))[1]
        classes = []
        for labels in oracle.congruences(table):
            q = oracle.quotient(table, labels)
            if not any(oracle.isomorphic_small(q, other) for other in classes):
                classes.append(q)
        return sorted(((len(q), lambda r, q=q: oracle.isomorphic_small(r, q)) for q in classes),
                      key=lambda e: e[0])

    def check(res, outs):
        got, bad = _parse(res, 0)
        if bad:
            return bad
        want = expected()
        if got["count"] != len(want) or len(got["reflets"]) != len(want):
            return f"{got['count']} reflets, want {len(want)}"
        sizes = [len(r["elements"]) for r in got["reflets"]]
        if sizes != [k for k, _ in want]:
            return f"reflet sizes {sizes} differ from {[k for k, _ in want]}"
        pool = list(want)
        for r in got["reflets"]:
            q = oracle.load(json.dumps(r))[1]
            if not oracle.is_hypergroup(q):
                return "a reflet fails the axioms"
            match = next((i for i, (k, same) in enumerate(pool) if k == len(q) and same(q)), None)
            if match is None:
                return f"a reflet of size {len(q)} matches no expected one"
            pool.pop(match)
        return None
    return check


def check_iso(path_a, path_b, isomorphic: bool):
    """An isomorphic pair must come with a product-preserving bijection; a
    pair the oracle's invariants tell apart must be refused."""
    @_once
    def expected():
        _, ta = oracle.load(_read(path_a))
        nb, tb = oracle.load(_read(path_b))
        if not isomorphic and oracle.invariant(ta) == oracle.invariant(tb):
            raise AssertionError("the oracle's invariants do not separate this pair")
        return ta, nb, tb

    def check(res, outs):
        ta, nb, tb = expected()
        got, bad = _parse(res, 0 if isomorphic else 1)
        if bad:
            return bad
        if not isomorphic:
            return _compare(got, {"isomorphic": False, "bijection": None})
        g = got.get("bijection")
        if got.get("isomorphic") is not True or not isinstance(g, list):
            return "no bijection for an isomorphic pair"
        if any(s not in nb for s in g) or not oracle.preserves_products(
                ta, tb, [nb.index(s) for s in g]):
            return "the bijection does not preserve products"
        return None
    return check


def check_simple_coset(group, h, count):
    """count is the number of subgroups invariant modulo H, from a closed
    form; a witness must be a subgroup strictly between H and G that is
    invariant modulo H."""
    def check(res, outs):
        names, gt = group()
        hset = frozenset(names.index(s) for s in h)
        simple = count == 2 and len(hset) < len(gt)
        got, bad = _parse(res, 0 if simple else 1)
        if bad:
            return bad
        w = got.get("witness")
        if w is not None:
            if any(s not in names for s in w):
                return "witness names unknown elements"
            k = frozenset(names.index(s) for s in w)
            if not (oracle.is_subgroup(gt, k) and hset < k < frozenset(range(len(gt)))):
                return "witness is not a subgroup strictly between H and G"
            if not oracle.invariant_modulo(gt, hset, k):
                return "witness is not invariant modulo H"
        return _compare(got, {"simple": simple, "subgroups_invariant": count,
                              "witness": w if count > 2 else None})
    return check


def check_gen_coset(group, h):
    def expected():
        names, gt = group()
        return oracle.dump(*oracle.coset_space(names, gt, [names.index(s) for s in h]))
    return check_text(expected)


def check_trame_quotient(path):
    def expected():
        return oracle.dump(*oracle.trame_quotient(*oracle.parse_trame(_read(path))))
    return check_text(expected)


def check_trame_adequate(path):
    """Adequacy is the reproductivity and associativity of the quotient
    table, with the first failing class pair or triple as witness."""
    @_once
    def expected():
        names, t = oracle.trame_quotient(*oracle.parse_trame(_read(path)))
        rw = oracle.trame_repro_witness(t)
        aw = oracle.first_assoc_witness(t)
        ok = rw is None and aw is None
        return names, t, (0 if ok else 1), {
            "adequate": ok, "reproductive": rw is None, "associative": aw is None,
            "repro_witness": _names(names, rw), "assoc_witness": _names(names, aw)}

    def check(res, outs):
        names, t, rc, want = expected()
        got, bad = _parse(res, rc)
        if bad:
            return bad
        w = got.get("assoc_witness")
        if w and _assoc_witness_holds(names, t, w):
            return f"reported witness {w} satisfies associativity"
        return _compare(got, want)
    return check


def check_trame_invariant(path, s_blocks):
    @_once
    def expected():
        names, op, r = oracle.parse_trame(_read(path))
        index = {s: i for i, s in enumerate(names)}
        s = [0] * len(names)
        for b, block in enumerate(s_blocks):
            for name in block:
                s[index[name]] = b
        return oracle.trame_invariant(op, r, s)

    def check(res, outs):
        ok = expected()
        got, bad = _parse(res, 0 if ok else 1)
        return bad or _compare(got, {"invariant": ok})
    return check


def check_malformed(line_no):
    def check(res, outs):
        if res.rc != 2 or res.out:
            return f"exit {res.rc} with stdout {res.out[:60]!r}, want exit 2 and no stdout"
        if not res.err.startswith(f"error: line {line_no}:"):
            return f"error {res.err[:80]!r} does not name line {line_no}"
        return None
    return check


# --- inputs ------------------------------------------------------------------


class Builder:
    """Writes seeded input files into a work directory and collects jobs."""

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        self.jobs: list[Job] = []
        self.written: dict[str, tuple[Multistructure, list[int]]] = {}

    def add(self, name, argv, kind, check, save_as=None):
        self.jobs.append(Job(name, [str(a) for a in argv], kind, check, save_as))

    def names(self, n, prefix="q"):
        return [f"{prefix}{v}" for v in self.rng.sample(range(100, 100 + 20 * n), n)]

    def structure(self, tag, m, shuffle) -> str:
        """Write m under seeded names; with shuffle also in a seeded order.
        Keeps the written structure and the order in self.written[tag]."""
        m = getattr(m, "m", m)
        perm = list(range(m.n))
        if shuffle:
            self.rng.shuffle(perm)
        out = relabel(m, perm, self.names(m.n))
        self.written[tag] = out, perm
        path = self.work / f"{tag}.json"
        path.write_text(to_json(out), encoding="utf-8")
        return str(path)

    def text(self, name, content) -> str:
        path = self.work / name
        path.write_text(content, encoding="utf-8")
        return str(path)


def relabel(m: Multistructure, perm, names) -> Multistructure:
    """Element x of m becomes element perm[x], named names[perm[x]]."""
    n = m.n
    inv = [0] * n
    for x, p in enumerate(perm):
        inv[p] = x

    def img(mask):
        out = 0
        for z in members(mask):
            out |= 1 << perm[z]
        return out
    rows = tuple(tuple(img(m.table[inv[a]][inv[b]]) for b in range(n)) for a in range(n))
    return Multistructure(tuple(names), rows)


def univalent(g) -> Multistructure:
    """A group table as a structure, without certifying it again."""
    return Multistructure(g.names, tuple(tuple(1 << v for v in row) for row in g.table))


def total(n: int) -> Multistructure:
    full = (1 << n) - 1
    return Multistructure(tuple(str(i) for i in range(n)), ((full,) * n,) * n)


def _labels_literal(names, blocks):
    return "|".join("{" + ",".join(names[i] for i in b) + "}" for b in blocks)


def _perm_mask(g, *perms):
    index = {p: i for i, p in enumerate(g.perms)}
    return generated(g, sum(1 << index[p] for p in perms))


def _trame_file(b: Builder, tag, m) -> tuple[str, list[str]]:
    """The canonical presentation of m as a trame file under seeded element
    names (its own names 'v|a,b,c' hold commas, which the trame syntax
    reads as separators). Returns the path and the names in order."""
    p = canonical_presentation(m)
    names = b.names(p.trame.t_n, "t")
    t = Trame(tuple(names), p.trame.op)
    return b.text(f"{tag}.trame", format_trame(t, p.r)), names


# --- workloads ---------------------------------------------------------------


def axioms(b: Builder) -> None:
    rng = b.rng
    paths = {}
    for tag, sizes, shuffle in (("d24", (6, 6, 6, 6), True),
                                ("notd24", (4, 6, 6, 8), True),
                                ("empty33", (8, 1, 12, 12), False),
                                ("nassoc40", (3, 2, 20, 15), False)):
        paths[tag] = b.structure(tag, s_family(sizes), shuffle)
        b.add(f"verify-{tag}", ["verify", paths[tag]], "heavy",
              check_verify(paths[tag], oracle.s_family_regime(sizes)))
    # C24 with the classes {0}, K - {0} and the cosets of K, |K| = 8: an
    # associative Utumi sum, so verify scans every triple.
    lab = [0 if x == 0 else 1 if x % 3 == 0 else 2 + x % 3 for x in range(24)]
    u24 = utumi(UtumiInput(univalent(cyclic_group(24)), EquivalenceRelation.from_labels(lab), 0))
    for tag, m in (("total24", total(24)), ("utumi24", u24),
                   ("c48", univalent(cyclic_group(48))),
                   ("dih48", univalent(dihedral_group(24)))):
        paths[tag] = b.structure(tag, m, True)
        b.add(f"verify-{tag}", ["verify", paths[tag]], "heavy", check_verify(paths[tag]))

    # small inputs
    s34 = b.structure("s34", s_family((3, 4)), True)
    b.add("opposite-s34", ["opposite", s34], "light", check_opposite(s34))
    for sizes in ((rng.choice([2, 3]),) * rng.choice([2, 3]),
                  (3, rng.choice([4, 5]), rng.choice([3, 4])),
                  (rng.choice([2, 3]), 1, rng.choice([2, 3, 4])),
                  rng.choice([(2, 3), (1, 2), (3, 2), (2, 4), (1, 3, 3)])):
        b.add(f"classify-{'-'.join(map(str, sizes))}", ["classify-s", *sizes], "light",
              check_classify(sizes))
    sizes = (rng.randint(2, 4), rng.randint(1, 4), rng.randint(2, 4))
    b.add("gen-s-family", ["gen", "s-family", *sizes], "light",
          check_text(lambda: oracle.dump(*oracle.s_family(sizes))))
    stab = rng.randint(3, 8)
    b.add("gen-stab", ["gen", "stab", stab], "light",
          check_text(lambda: oracle.dump(*oracle.s_family((stab,)))))
    cyc = rng.randint(8, 16)
    b.add("gen-cyc", ["gen", "cyc", cyc], "light",
          check_text(lambda: oracle.dump(oracle.cyclic(cyc)[0],
                                         oracle.as_sets(oracle.cyclic(cyc)[1]))))
    b.add("gen-sym", ["gen", "sym", 4], "light",
          check_text(lambda: oracle.dump(oracle.symmetric(4)[0],
                                         oracle.as_sets(oracle.symmetric(4)[1]))))
    rest = rng.sample(range(1, 8), 7)
    blocks = [[0], sorted(rest[:3]), sorted(rest[3:])]
    z8 = [str(i) for i in range(8)]
    labels = oracle.blocks_to_labels(8, blocks)
    b.add("gen-utumi", ["gen", "utumi", "cyc:8", _labels_literal(z8, blocks), "0"], "light",
          check_text(lambda: oracle.dump(z8, oracle.utumi(oracle.cyclic(8)[1], labels))))
    u8 = b.structure("utumi8", utumi(UtumiInput(univalent(cyclic_group(8)),
                                                EquivalenceRelation.from_labels(labels), 0)),
                     False)
    b.add("verify-utumi8", ["verify", u8], "light", check_verify(u8))
    s33 = b.structure("s33", s_family((3, 3)), True)
    b.add("gen-canon-s33", ["gen", "canon", s33], "light", check_canon(s33))

    # canonical presentations of 4-element tables: 256 trame elements,
    # R-class c holding the 64 copies of element c
    b.structure("s31", s_family((3, 1)), False)
    b.structure("stab4", s_family((4,)), True)
    t4, t4names = _trame_file(b, "t4ok", b.written["stab4"][0])
    b.add("trame-adequate-t4ok", ["trame", "adequate", t4], "heavy", check_trame_adequate(t4))
    b.add("trame-quotient-t4ok", ["trame", "quotient", t4], "heavy", check_trame_quotient(t4))
    e = {b.written["stab4"][1][0]}  # where the neutral element e went
    seeded = {0} | {c for c in range(1, 4) if rng.randrange(2)}
    for tag, first in (("neutral", e), ("seeded", seeded)):
        coarse = [c for c in (first, set(range(4)) - first) if c]
        s_blocks = [[t4names[i] for i in range(256) if i // 64 in c] for c in coarse]
        lit = "|".join("{" + ",".join(blk) + "}" for blk in s_blocks)
        b.add(f"trame-invariant-{tag}", ["trame", "invariant", "--s", lit, t4], "heavy",
              check_trame_invariant(t4, s_blocks))
    tbad, _ = _trame_file(b, "t4bad", b.written["s31"][0])
    b.add("trame-adequate-t4bad", ["trame", "adequate", tbad], "heavy",
          check_trame_adequate(tbad))
    bad_line = rng.randint(2, 5)
    lines = ["elements: p q r s", "compose: p p -> p", "compose: p q -> r",
             "compose: q p -> q", "compose: r r -> s", "classes: {p q} {r s}"]
    lines[bad_line - 1] = rng.choice(["compose: p x -> q", "compose: p q r"])
    malformed = b.text("malformed.trame", "\n".join(lines) + "\n")
    b.add("trame-malformed", ["trame", "quotient", malformed], "light", check_malformed(bad_line))

    # built in full before the carrier cap refuses them
    b.add("refuse-gen-cyc-130", ["gen", "cyc", 130], "refuse", check_refusal)
    b.add("refuse-gen-s-family-400", ["gen", "s-family", 400], "refuse", check_refusal)


def congruences(b: Builder) -> None:
    paths = {}

    def put(tag, m, shuffle=True):
        paths[tag] = b.structure(tag, m, shuffle)
        return paths[tag]

    # groups: the congruences are the normal subgroups, d(n) of them for C_n
    for n in (7, 12):
        p = put(f"c{n}", univalent(cyclic_group(n)))
        b.add(f"simple-c{n}", ["simple", p], "light", check_simple(p, oracle.tau(n)))
    for m in (4, 6):
        p = put(f"dih{2 * m}", univalent(dihedral_group(m)))
        b.add(f"simple-dih{2 * m}", ["simple", p], "light",
              check_simple(p, oracle.dihedral_normal_count(m)))
    # S5 coset spaces over the maximal subgroups S4 and AGL(1,5): two
    # congruences each, as reflector congruences of G/H match the
    # subgroups invariant modulo H, all of which contain H
    g = symmetric_group(5)
    for tag, mask in (("s5-s4", stabilizer_subgroup(g, 0).mask),
                      ("s5-agl", _perm_mask(g, (1, 2, 3, 4, 0), (0, 2, 4, 1, 3)))):
        p = put(tag, right_coset_hypergroup(g, Subgroup(g, mask)))
        b.add(f"simple-{tag}", ["simple", p], "light", check_simple(p, 2))
    # small S-family tables and a Utumi sum: counted by a partition sweep
    for sizes in ((3, 3), (4, 4)):
        tag = "s" + "".join(map(str, sizes))
        p = put(tag, s_family(sizes))
        b.add(f"simple-{tag}", ["simple", p], "light", check_simple(p))
    eq = EquivalenceRelation.from_blocks(8, [[0], [1, 4, 7], [2, 3, 5, 6]])
    p = put("utumi", utumi(UtumiInput(univalent(cyclic_group(8)), eq, 0)))
    b.add("simple-utumi", ["simple", p], "light", check_simple(p))
    b.add("reflets-c12", ["reflets", paths["c12"]], "light",
          check_reflets(paths["c12"], "cyclic"))
    b.add("reflets-s33", ["reflets", paths["s33"]], "light", check_reflets(paths["s33"]))
    # isomorphism: relabelled copies, and pairs the oracle's invariants separate
    for tag in ("c12", "utumi"):
        other = put(f"{tag}-copy", b.written[tag][0])
        b.add(f"iso-{tag}", ["iso", paths[tag], other], "light",
              check_iso(paths[tag], other, True))
    put("s345", s_family((3, 4, 5)))
    put("s444", s_family((4, 4, 4)))
    for a, c in (("c12", "dih12"), ("s345", "s444")):
        b.add(f"iso-{a}-{c}", ["iso", paths[a], paths[c]], "light",
              check_iso(paths[a], paths[c], False))

    # larger cyclic groups, in their own order (the search depends on it),
    # and total hypergroups: on 8 elements all 4,140 partitions are
    # congruences, on 6 elements the 203 quotients fall into 6 reflets
    for n in (31, 32):
        p = put(f"c{n}", univalent(cyclic_group(n)), False)
        b.add(f"simple-c{n}", ["simple", p, "--cap-n", 64], "heavy",
              check_simple(p, oracle.tau(n)))
    p = put("total8", total(8))
    b.add("simple-total8", ["simple", p], "heavy", check_simple(p, oracle.bell(8)))
    p = put("total6", total(6))
    b.add("reflets-total6", ["reflets", p], "heavy", check_reflets(p, "total"))

    # refused after certification
    p = put("stab13", s_family((13,)), False)
    b.add("refuse-simple-13", ["simple", p], "refuse", check_refusal)
    b.add("refuse-reflets-13", ["reflets", p], "refuse", check_refusal)
    p = put("c48", univalent(cyclic_group(48)), False)
    b.add("refuse-simple-c48", ["simple", p], "refuse", check_refusal)


def cosets(b: Builder) -> None:
    rng = b.rng

    def group_of(spec):
        if spec.startswith("sym:"):
            names, t, _ = oracle.symmetric(int(spec[4:]))
            return lambda: (names, t)
        if spec.startswith("cyc:"):
            return lambda: oracle.cyclic(int(spec[4:]))

        @_once
        def from_file():
            names, t = oracle.load(_read(spec))
            return names, oracle.group_from_structure(names, t)
        return from_file

    def coset_pair(tag, spec, h, count, kind, index=None):
        """simple-coset on (G, H) unless count is None; for index <= 12
        also gen coset and simple on its output. That simple must agree
        with simple-coset or, where simple-coset is not run and H is
        maximal, find two congruences."""
        group = group_of(spec)
        lit = "{" + ",".join(h) + "}"
        if count is not None:
            b.add(f"simple-coset-{tag}", ["simple-coset", spec, lit], kind,
                  check_simple_coset(group, h, count))
        if index is not None and index <= 12:
            out = b.work / f"coset-{tag}.json"
            b.add(f"gen-coset-{tag}", ["gen", "coset", spec, lit], "light",
                  check_gen_coset(group, h), save_as=out)
            b.add(f"simple-gen-coset-{tag}", ["simple", str(out)], "light",
                  check_simple(out, 2 if count is None else count,
                               pair=None if count is None else f"simple-coset-{tag}"))

    s5_names, _, s5_perms = oracle.symmetric(5)
    s4_names, _, s4_perms = oracle.symmetric(4)

    def stab(names, perms):
        return [names[i] for i, p in enumerate(perms) if p[0] == 0]

    # A5 from a file, in a seeded order: it is simple, so {e} leaves two
    # invariant subgroups; the stabiliser A4 of a point is maximal (A5 is
    # 2-transitive on five points, hence primitive)
    even = [p for p in itertools.permutations(range(5))
            if sum(p[j] > p[i] for i in range(5) for j in range(i)) % 2 == 0]
    a5_group = from_permutations(even)
    a5 = b.structure("a5", univalent(a5_group), True)
    a5_names, perm = json.loads(_read(a5))["elements"], b.written["a5"][1]
    coset_pair("a5-e", a5, [a5_names[perm[a5_group.identity]]], 2, "heavy")
    coset_pair("a5-stab", a5, [a5_names[perm[i]] for i, p in enumerate(a5_group.perms)
                               if p[0] == 0], None, "light", 5)
    # S5 over two maximal subgroups: the stabiliser of a point and AGL(1,5)
    g5 = symmetric_group(5)
    agl = [g5.names[i] for i in members(_perm_mask(g5, (1, 2, 3, 4, 0), (0, 2, 4, 1, 3)))]
    coset_pair("s5-stab", "sym:5", stab(s5_names, s5_perms), None, "light", 5)
    coset_pair("s5-agl", "sym:5", agl, None, "light", 6)
    # S4: normal subgroups 1, V4, A4, S4; over V4 the normal ones above it
    coset_pair("s4-stab", "sym:4", stab(s4_names, s4_perms), 2, "light", 4)
    coset_pair("s4-e", "sym:4", ["0123"], 4, "light")
    coset_pair("s4-v4", "sym:4", ["0123", "1032", "2301", "3210"], 3, "light", 6)

    # the dihedral group of order 30 from a file, in a seeded order: {e}
    # gives its normal subgroups; <r^p, s> has prime index p, so is maximal
    d15 = b.structure("d15", univalent(dihedral_group(15)), True)
    d15_names, perm = json.loads(_read(d15))["elements"], b.written["d15"][1]

    def rs(i, j):  # r^i s^j, element 2i + j of dihedral_group
        return d15_names[perm[2 * i + j]]
    coset_pair("d15-e", d15, [rs(0, 0)], oracle.dihedral_normal_count(15), "heavy")
    p = rng.choice([3, 5])
    coset_pair("d15-max", d15, [rs(i, j) for i in range(0, 15, p) for j in (0, 1)],
               None, "light", p)

    # cyclic groups are abelian, so every K containing H is invariant
    # modulo H and the count is d(n / |H|)
    coset_pair("c48-e", "cyc:48", ["0"], oracle.tau(48), "heavy")
    p = rng.choice([2, 3])
    coset_pair("c48-max", "cyc:48", [str(i) for i in range(0, 48, p)], None, "light", p)

    # cyc:130 is built and checked as a group before the order cap refuses
    # it; sym:6 is refused before it is built
    b.add("refuse-simple-coset-cyc-130", ["simple-coset", "cyc:130", "{0}"], "refuse",
          check_refusal)
    b.add("refuse-simple-coset-sym-6", ["simple-coset", "sym:6", "stab:0"], "refuse",
          check_refusal)


WORKLOADS = {"axioms": axioms, "congruences": congruences, "cosets": cosets}


def build(workload: str, seed: int, work: Path) -> list[Job]:
    b = Builder(seed, work)
    WORKLOADS[workload](b)
    return b.jobs
