import json
import random
import subprocess
import sys
import time
from functools import reduce

import pytest

from hypergroups.cli import format_trame, parse_trame
from hypergroups.constructions import canonical_presentation, s_family
from hypergroups.core import (EquivalenceRelation, Hypergroup, Multistructure, ParseError,
                              restricted_growth, to_json)
from hypergroups.groups import (Subgroup, as_hypergroup, coset_relation, cyclic_group,
                                symmetric_group)
from hypergroups.presentations import Trame, group_trame
from hypergroups.simplicity import SimplicityReport

from conftest import direct_product, quaternion_group

STAB3 = ('{"elements":["e","y1","y2"],"table":[[["e"],["y1","y2"],["y1","y2"]],'
         '[["y1"],["e","y2"],["e","y2"]],[["y2"],["e","y1"],["e","y1"]]]}')
CYC4 = ('{"elements":["0","1","2","3"],"table":[[["0"],["1"],["2"],["3"]],'
        '[["1"],["2"],["3"],["0"]],[["2"],["3"],["0"],["1"]],'
        '[["3"],["0"],["1"],["2"]]]}')
COSET_R = ('{"elements":["012H","102H","201H"],"table":'
           '[[["012H"],["102H","201H"],["102H","201H"]],'
           '[["102H"],["012H","201H"],["012H","201H"]],'
           '[["201H"],["012H","102H"],["012H","102H"]]]}')
COSET_L = ('{"elements":["H012","H102","H120"],"table":'
           '[[["H012"],["H102"],["H120"]],'
           '[["H102","H120"],["H012","H120"],["H012","H102"]],'
           '[["H102","H120"],["H012","H120"],["H012","H102"]]]}')

TRAME_B = """# total operation on three symbols
elements: a b c
compose: a a -> a
compose: a b -> a
compose: a c -> a
compose: b a -> a
compose: b b -> a
compose: b c -> c
compose: c a -> a
compose: c b -> c
compose: c c -> c

classes: {a b} {c}
"""

TRAME_A = """elements: p q r s
compose: p p -> q
compose: r r -> s
classes: {p} {q r} {s}
"""


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hypergroups", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, text in [("stab3.json", STAB3 + "\n"), ("cyc4.json", CYC4 + "\n"),
                       ("coset.json", COSET_R + "\n"), ("a.trame", TRAME_A),
                       ("b.trame", TRAME_B)]:
        p = d / name
        p.write_text(text)
        paths[name] = str(p)
    for name, argv in [("cyc8.json", ["gen", "cyc", "8"]),
                       ("cyc1.json", ["gen", "cyc", "1"]),
                       ("utumi.json", ["gen", "utumi", "cyc:8",
                                       "{0}|{1,4,7}|{2,3,5,6}", "0"]),
                       ("sf23.json", ["gen", "s-family", "2", "3"]),
                       ("sf31.json", ["gen", "s-family", "3", "1"])]:
        r = run_cli(*argv)
        assert r.returncode == 0, r.stderr
        p = d / name
        p.write_text(r.stdout)
        paths[name] = str(p)
    t = group_trame(symmetric_group(3))
    rel = coset_relation(symmetric_group(3), 0b000011, "right")
    p = d / "sym3.trame"
    p.write_text(format_trame(t, rel))
    paths["sym3.trame"] = str(p)
    paths["dir"] = str(d)
    return paths


def test_gen_golden():
    assert run_cli("gen", "stab", "3").stdout == STAB3 + "\n"
    assert run_cli("gen", "cyc", "4").stdout == CYC4 + "\n"
    assert run_cli("gen", "coset", "sym:3", "stab:0", "--side", "right").stdout \
        == COSET_R + "\n"
    assert run_cli("gen", "coset", "sym:3", "stab:0", "--side", "left").stdout \
        == COSET_L + "\n"
    assert run_cli("gen", "stab", "3").returncode == 0


def test_gen_utumi_deterministic():
    argv = ("gen", "utumi", "cyc:8", "{0}|{1,4,7}|{2,3,5,6}", "0")
    r1, r2 = run_cli(*argv), run_cli(*argv)
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    obj = json.loads(r1.stdout)
    assert obj["elements"] == [str(i) for i in range(8)]
    # x.y = x + class(y): 1.1 = 1 + {1,4,7}
    assert obj["table"][1][1] == ["0", "2", "5"]
    assert obj["table"][1][2] == ["3", "4", "6", "7"]


def test_gen_canon_reproduces_input(files):
    r = run_cli("gen", "canon", files["cyc4.json"])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["elements"][0] == "0|0,0,0"
    canon = files["dir"] + "/canon4.json"
    with open(canon, "w") as fh:
        fh.write(r.stdout)
    ri = run_cli("iso", canon, files["cyc4.json"])
    assert ri.returncode == 0 and json.loads(ri.stdout)["isomorphic"]


def test_verify_hypergroup(files):
    r = run_cli("verify", files["cyc4.json"])
    assert r.returncode == 0
    assert r.stdout == ('{"is_hypergroup":true,"associative":true,'
                        '"reproductive":true,"all_products_nonempty":true,'
                        '"assoc_witness":null,"repro_witness":null,'
                        '"empty_witness":null}\n')


def test_verify_failures_with_witnesses(files):
    r = run_cli("verify", files["sf23.json"])
    assert r.returncode == 1
    assert json.loads(r.stdout) == {
        "is_hypergroup": False, "associative": False, "reproductive": True,
        "all_products_nonempty": True,
        "assoc_witness": ["a1_1", "y1", "y1"],
        "repro_witness": None, "empty_witness": None}
    r = run_cli("verify", files["sf31.json"])
    assert r.returncode == 1
    obj = json.loads(r.stdout)
    assert not obj["all_products_nonempty"]
    assert obj["empty_witness"] == ["a1_1", "y1"]
    assert obj["repro_witness"] == "y1"


def test_simple_golden(files):
    r = run_cli("simple", files["utumi.json"])
    assert r.returncode == 0
    assert r.stdout == ('{"simple":true,"n":8,"partition_space":4140,'
                        '"congruences":2,"witness":null}\n')
    r = run_cli("simple", files["cyc8.json"])
    assert r.returncode == 1
    assert r.stdout == ('{"simple":false,"n":8,"partition_space":4140,'
                        '"congruences":4,"witness":[["0","2","4","6"],'
                        '["1","3","5","7"]]}\n')
    r = run_cli("simple", files["cyc1.json"])
    assert r.returncode == 1
    assert json.loads(r.stdout) == {"simple": False, "n": 1,
                                    "partition_space": 1, "congruences": 1,
                                    "witness": None}


def test_simple_cap_and_input_errors(files):
    r = run_cli("simple", files["cyc8.json"], "--cap-n", "4")
    assert r.returncode == 3 and r.stdout == ""
    assert "exceeds" in r.stderr
    r = run_cli("simple", files["sf23.json"])
    assert r.returncode == 2
    assert "associativity" in r.stderr


def test_simple_coset_golden():
    r = run_cli("simple-coset", "sym:3", "stab:0")
    assert r.returncode == 0
    assert r.stdout == '{"simple":true,"subgroups_invariant":2,"witness":null}\n'
    r = run_cli("simple-coset", "cyc:4", "{0}")
    assert r.returncode == 1
    assert r.stdout == ('{"simple":false,"subgroups_invariant":3,'
                        '"witness":["0","2"]}\n')
    # explicit member list means the same subgroup
    r = run_cli("simple-coset", "sym:3", "{012,021}")
    assert r.returncode == 0 and json.loads(r.stdout)["simple"]


def test_simple_coset_on_s6(capsys):
    # the whole path at the largest group the cap allows: from_permutations,
    # the stabilizer, the interval [H, G] and the invariance tests
    import hypergroups.cli as cli
    assert cli.main(["simple-coset", "sym:6", "stab:0", "--cap-group", "720"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ('{"simple":true,"subgroups_invariant":2,"witness":null}\n', "")


def test_simple_coset_emits_the_library_report(monkeypatch, capsys):
    # the verb formats coset_simplicity_report and derives nothing itself
    import hypergroups.cli as cli
    calls = []

    def stub(g, h, cap):
        calls.append((g.n, h.mask, cap))
        if h.mask == 1:
            return SimplicityReport(True, 7, 9, Subgroup(g, 0b0101))
        return SimplicityReport(False, 1, 4, None)

    monkeypatch.setattr(cli, "coset_simplicity_report", stub)
    assert cli.main(["simple-coset", "cyc:4", "{0}", "--cap-group", "50"]) == 0
    assert capsys.readouterr().out == \
        '{"simple":true,"subgroups_invariant":7,"witness":["0","2"]}\n'
    assert cli.main(["simple-coset", "cyc:4", "{0,2}"]) == 1
    assert capsys.readouterr().out == \
        '{"simple":false,"subgroups_invariant":1,"witness":null}\n'
    assert calls == [(4, 1, 50), (4, 0b0101, 120)]


def test_simple_refuses_oversized_before_certifying(tmp_path):
    # 13 elements and not associative: the cap refuses it before the
    # axiom check could report the failure
    sf = tmp_path / "sf211.json"
    sf.write_text(run_cli("gen", "s-family", "2", "11").stdout)
    for verb in ("simple", "reflets"):
        r = run_cli(verb, str(sf))
        assert r.returncode == 3 and r.stdout == "", (verb, r.stderr)
        assert "exceeds" in r.stderr


def test_reflets_golden(files):
    r = run_cli("reflets", files["cyc4.json"])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["count"] == 3
    assert [len(q["elements"]) for q in obj["reflets"]] == [1, 2, 4]
    assert obj["reflets"][1] == {"elements": ["0", "1"],
                                 "table": [[["0"], ["1"]], [["1"], ["0"]]]}


def test_iso_verb(files):
    r = run_cli("iso", files["coset.json"], files["stab3.json"])
    assert r.returncode == 0
    assert r.stdout == '{"isomorphic":true,"bijection":["e","y1","y2"]}\n'
    r = run_cli("iso", files["cyc4.json"], files["stab3.json"])
    assert r.returncode == 1
    assert r.stdout == '{"isomorphic":false,"bijection":null}\n'


def total_hypergroup(n, shrunk=False):
    full = (1 << n) - 1
    table = [[full] * n for _ in range(n)]
    if shrunk:  # 0.1 is H minus {2}: every product of 2 or more elements is still H
        table[0][1] ^= 1 << 2
    return Hypergroup(tuple(map(str, range(n))), tuple(map(tuple, table)))


@pytest.mark.parametrize("pair", [
    # Z4^2 x Z2^2 and Z4 x Z2^4 differ in their counts of elements of order 4
    lambda: [as_hypergroup(reduce(direct_product, map(cyclic_group, orders)))
             for orders in ((4, 4, 2, 2), (4, 2, 2, 2, 2))],
    # the row of 0 differs in its product sizes, while every element of
    # both tables lies in its own square
    lambda: [total_hypergroup(12), total_hypergroup(12, shrunk=True)],
    # the element orders agree, but Z4^3 is abelian and 48 elements of
    # Q8 x Z4 x Z2 commute with half of it; in this order a search that
    # reached these tables would run for minutes
    lambda: [as_hypergroup(reduce(direct_product, gs)) for gs in (
        (quaternion_group(), cyclic_group(4), cyclic_group(2)), (cyclic_group(4),) * 3)],
], ids=["abelian-64", "total-12-shrunk", "q8-z4-z2-then-z4-cubed"])
def test_iso_refutes_before_searching(tmp_path, pair):
    # the candidate filter separates each pair before any search
    paths = []
    for i, h in enumerate(pair()):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(to_json(h))
    r = subprocess.run([sys.executable, "-m", "hypergroups", "iso", *map(str, paths)],
                       capture_output=True, text=True, timeout=20)
    assert r.returncode == 1 and r.stdout == '{"isomorphic":false,"bijection":null}\n', r.stderr


def test_opposite_involution(files):
    r = run_cli("opposite", files["coset.json"])
    assert r.returncode == 0
    a = json.loads(COSET_R)
    b = json.loads(r.stdout)
    for x in range(3):
        for y in range(3):
            assert b["table"][x][y] == a["table"][y][x]
    back = files["dir"] + "/opp.json"
    with open(back, "w") as fh:
        fh.write(r.stdout)
    assert run_cli("opposite", back).stdout == COSET_R + "\n"
    # the opposite of the right coset structure is the left one
    with open(files["dir"] + "/left.json", "w") as fh:
        fh.write(COSET_L + "\n")
    ri = run_cli("iso", back, files["dir"] + "/left.json")
    assert ri.returncode == 0 and json.loads(ri.stdout)["isomorphic"]


def test_classify_golden():
    cases = {
        ("3", "3"): '{"class":"DHypergroup","sizes":[3,3],"witness":null}',
        ("1", "2"): ('{"class":"NotAssociative","sizes":[1,2],'
                     '"witness":["a1_1","a1_1","a1_1"]}'),
        ("2", "3"): ('{"class":"NotAssociative","sizes":[2,3],'
                     '"witness":["a1_1","y1","y1"]}'),
        ("3", "1"): ('{"class":"EmptyProduct","sizes":[3,1],'
                     '"witness":["a1_1","y1"]}'),
        ("3", "2"): ('{"class":"NotAssociative","sizes":[3,2],'
                     '"witness":["a1_1","y1","y1"]}'),
        ("3", "4"): '{"class":"HypergroupNotD","sizes":[3,4],"witness":null}',
    }
    for sizes, want in cases.items():
        r = run_cli("classify-s", *sizes)
        assert r.returncode == 0 and r.stdout == want + "\n", sizes


def test_trame_quotient(files):
    r = run_cli("trame", "quotient", files["b.trame"])
    assert r.returncode == 0
    assert r.stdout == ('{"elements":["a","c"],"table":[[["a"],["a","c"]],'
                        '[["a","c"],["c"]]]}\n')
    # quotients are emitted even when not hypergroups; empty products stay []
    r = run_cli("trame", "quotient", files["a.trame"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["table"][2] == [[], [], []]


def test_trame_adequate(files):
    r = run_cli("trame", "adequate", files["b.trame"])
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"adequate": True, "reproductive": True,
                                    "associative": True, "repro_witness": None,
                                    "assoc_witness": None}
    r = run_cli("trame", "adequate", files["a.trame"])
    assert r.returncode == 1
    assert json.loads(r.stdout) == {
        "adequate": False, "reproductive": False, "associative": False,
        "repro_witness": ["p", "p"], "assoc_witness": ["p", "p", "q"]}


def test_trame_invariant(files):
    merge = run_cli("trame", "invariant", files["sym3.trame"],
                    "--s", "{012,021}|{102,120,201,210}")
    assert merge.returncode == 1 and merge.stdout == '{"invariant":false}\n'
    same = run_cli("trame", "invariant", files["sym3.trame"],
                   "--s", "{012,021}|{102,120}|{201,210}")
    assert same.returncode == 0 and same.stdout == '{"invariant":true}\n'
    total = run_cli("trame", "invariant", files["sym3.trame"],
                    "--s", "{012,021,102,120,201,210}")
    assert total.returncode == 0 and total.stdout == '{"invariant":true}\n'
    missing = run_cli("trame", "invariant", files["sym3.trame"])
    assert missing.returncode == 2 and "--s" in missing.stderr


def test_trame_invariant_above_64_classes(tmp_path):
    # C100 under the identity relation: 100 classes, past the mask width
    g = cyclic_group(100)
    path = tmp_path / "c100.trame"
    path.write_text(format_trame(group_trame(g), tuple(range(100))))
    cosets = "|".join(f"{{{i},{i + 50}}}" for i in range(50))
    r = run_cli("trame", "invariant", str(path), "--s", cosets)
    assert r.returncode == 0 and r.stdout == '{"invariant":true}\n', r.stderr
    pairs = "|".join(f"{{{2 * i},{2 * i + 1}}}" for i in range(50))
    r = run_cli("trame", "invariant", str(path), "--s", pairs)
    assert r.returncode == 1 and r.stdout == '{"invariant":false}\n', r.stderr


def test_trame_invariant_grows_with_the_pairs_not_the_classes(tmp_path):
    # 10,000 idempotents t.t = t, one class each: 10,000 composable pairs
    # over 10^8 class pairs; the --s literal stays under the 128 KB limit
    # Linux puts on one argument
    n = 10_000
    t = Trame(tuple(f"t{i}" for i in range(n)), {(i, i): i for i in range(n)})
    path = tmp_path / "idem.trame"
    path.write_text(format_trame(t, tuple(range(n))))
    singletons = "|".join(f"{{t{i}}}" for i in range(n))
    r = subprocess.run([sys.executable, "-m", "hypergroups", "trame", "invariant",
                        str(path), "--s", singletons],
                       capture_output=True, text=True, timeout=20)
    assert r.returncode == 0 and r.stdout == '{"invariant":true}\n', r.stderr


def test_trame_invariant_names_with_commas(tmp_path):
    # the canonical presentation of C2 names its elements v|a,b,c: blocks
    # split only on a '|' outside braces, names inside on whitespace
    p = canonical_presentation(as_hypergroup(cyclic_group(2)))
    path = tmp_path / "c2canon.trame"
    path.write_text(format_trame(p.trame, p.r))
    names = p.trame.names
    assert names[0] == "0|0,0,0" and names[8] == "1|0,0,0"
    cases = [
        ("{" + " ".join(names[:8]) + "}|{" + " ".join(names[8:]) + "}", 0),
        ("{" + " ".join(names) + "}", 0),
        ("{" + " ".join(names[:4] + names[8:12]) + "}|{"
         + " ".join(names[4:8] + names[12:]) + "}", 1),  # R does not refine S
    ]
    for literal, code in cases:
        r = run_cli("trame", "invariant", str(path), "--s", literal)
        assert r.returncode == code, (literal, r.stderr)
        assert r.stdout == ('{"invariant":true}\n' if code == 0 else '{"invariant":false}\n')
    r = run_cli("trame", "invariant", str(path), "--s", "{0|0,0,0}|{1|0,0,0}")
    assert r.returncode == 2 and "missing from blocks" in r.stderr


def test_trame_invariant_reads_s_from_a_file(tmp_path):
    # 20,000 singleton blocks make a literal over the 128 KB limit Linux
    # puts on one argument; @FILE passes it one argument a line
    n = 20_000
    t = Trame(tuple(f"t{i}" for i in range(n)), {(i, i): i for i in range(n)})
    path = tmp_path / "idem.trame"
    path.write_text(format_trame(t, tuple(range(n))))
    args = tmp_path / "s.args"
    args.write_text("--s\n" + "|".join(f"{{t{i}}}" for i in range(n)) + "\n")
    r = subprocess.run([sys.executable, "-m", "hypergroups", "trame", "invariant",
                        str(path), f"@{args}"],
                       capture_output=True, text=True, timeout=20)
    assert r.returncode == 0 and r.stdout == '{"invariant":true}\n', r.stderr


# element names holding commas and '|', as in canonical presentations, and braces
GRAMMAR_NAMES = ("e", "0|0,0,0", "1|0,0,1", "p", "q", "r", "x|y", "{x}")


def _three_writings(blocks):
    """A partition as a classes line writes it, as a '|'-joined comma
    literal and as whitespace-separated blocks with commas inside; a name
    holding a comma stands as its own word."""
    def commas(block):
        return ",".join(f" {s} " if "," in s else s for s in block)
    return (" ".join("{" + " ".join(b) + "}" for b in blocks),
            "|".join("{" + commas(b) + "}" for b in blocks),
            "  ".join("{" + commas(b) + "}" for b in blocks))


def test_one_partition_grammar(tmp_path, monkeypatch, capsys):
    import hypergroups.cli as cli
    names = GRAMMAR_NAMES
    group = tmp_path / "g8.json"
    group.write_text(to_json(Multistructure(names, as_hypergroup(cyclic_group(8)).table)))
    trame = tmp_path / "g8.trame"
    # written by hand: format_trame refuses the name {x}, which this
    # classes line reads back whole
    trame.write_text(f"elements: {' '.join(names)}\nclasses: {{{' '.join(names)}}}\n")
    seen = []
    monkeypatch.setattr(cli, "is_invariant_modulo_equiv", lambda t, r, s: not seen.append(s))
    rng = random.Random(10)
    for _ in range(20):
        labels = [0] + [rng.randint(1, 7) for _ in range(7)]  # e alone: the utumi zero
        want = restricted_growth(labels)
        blocks = [[s for s, lab in zip(names, labels) if lab == b] for b in set(labels)]
        rng.shuffle(blocks)
        for b in blocks:
            rng.shuffle(b)
        for text in _three_writings(blocks):
            assert parse_trame(f"elements: {' '.join(names)}\nclasses: {text}\n")[1] == want
            assert cli.main(["trame", "invariant", str(trame), "--s", text]) == 0
            assert seen.pop() == want, text
            assert cli.main(["gen", "utumi", str(group), text, "e"]) == 0
            out = capsys.readouterr().out.splitlines()
            # e.y = e + class(y) = class(y)
            assert restricted_growth(map(tuple, json.loads(out[1])["table"][0])) == want, text


def test_partition_written_either_way(tmp_path, capsys):
    import hypergroups.cli as cli
    pair = "elements: p q r s\ncompose: p p -> p\ncompose: p q -> r\n" \
           "compose: q p -> q\ncompose: r r -> s\n"
    path = tmp_path / "pair.trame"
    path.write_text(pair + "classes: {p q} {r s}\n")
    assert cli.main(["trame", "invariant", "--s", "{p q} {r s}", str(path)]) == 0
    assert capsys.readouterr().out == '{"invariant":true}\n'
    assert parse_trame(pair + "classes: {p,q}|{r,s}\n")[1] == (0, 0, 1, 1)


def test_blocks_read_alike_by_the_library_and_the_cli(capsys):
    # EquivalenceRelation.from_blocks and every CLI partition literal go
    # through core.block_labels: on random partitions, empty blocks
    # included, both give the labels of each element's block, and on the
    # same malformed block lists the same message, but for the quotes the
    # CLI puts around a name it read as a string
    import hypergroups.cli as cli
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randint(1, 12)
        blocks = [[] for _ in range(rng.randint(1, n + 2))]
        for x in rng.sample(range(n), n):
            rng.choice(blocks).append(x)
        block_of = {x: b for b, block in enumerate(blocks) for x in block}
        want = EquivalenceRelation.from_labels([block_of[x] for x in range(n)])
        assert EquivalenceRelation.from_blocks(n, blocks) == want
        named = [list(map(str, b)) for b in blocks if b]
        for text in _three_writings(named):
            assert cli._parse_partition(text, cyclic_group(n).names) == want.class_of, text
        bad = [list(b) for b in blocks]
        kind, b = rng.choice(("unknown", "twice", "missing")), rng.choice(bad)
        if kind == "unknown":
            b.insert(rng.randint(0, len(b)), rng.choice((-1, n, n + 5)))
        elif kind == "twice":
            b.insert(rng.randint(0, len(b)), rng.randrange(n))
        else:
            for x in rng.sample(range(n), rng.randint(1, n)):
                next(b for b in bad if x in b).remove(x)
        with pytest.raises(ParseError) as refused:
            EquivalenceRelation.from_blocks(n, bad)
        literal = " ".join("{" + " ".join(map(str, b)) + "}" for b in bad if b)
        assert cli.main(["gen", "utumi", f"cyc:{n}", literal, "0"]) == 2
        out, err = capsys.readouterr()
        assert (out, err.replace("'", "")) == ("", f"error: {refused.value}\n"), (bad, err)


def test_simple_has_no_method_option(capsys):
    import hypergroups.cli as cli
    with pytest.raises(SystemExit) as e:
        cli.parse_args(["simple", "f", "--method", "brute"])
    assert e.value.code == 2
    assert "unrecognized arguments: --method brute" in capsys.readouterr().err


def test_caps_refuse_before_building(monkeypatch, capsys):
    import hypergroups.cli as cli
    import hypergroups.constructions as constructions

    def build(*args):
        raise AssertionError("built before the cap refused")

    monkeypatch.setattr(cli, "cyclic_group", build)
    monkeypatch.setattr(constructions, "Multistructure", build)
    cases = [
        (["gen", "cyc", "130"], "carrier size 130 exceeds mask width 64"),
        (["simple-coset", "cyc:130", "{0}"], "group order 130 exceeds cap 120"),
        (["gen", "coset", "cyc:60", "{0}", "--cap-group", "50"],
         "group order 60 exceeds cap 50"),
        (["gen", "s-family", "40", "30"], "carrier size 70 exceeds mask width 64"),
        (["gen", "stab", "65"], "carrier size 65 exceeds mask width 64"),
        (["classify-s", "3", "62"], "carrier size 65 exceeds mask width 64"),
        (["gen", "cyc", "60", "--cap-group", "50"], "group order 60 exceeds cap 50"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"


def test_gen_refuses_before_building(monkeypatch, capsys, tmp_path):
    import hypergroups.cli as cli
    import hypergroups.constructions as constructions
    import hypergroups.groups as groups

    def build(*args):
        raise AssertionError("built before the cap refused")

    monkeypatch.setattr(groups, "from_permutations", build)
    monkeypatch.setattr(cli, "verify_group", build)
    monkeypatch.setattr(constructions, "Multistructure", build)
    c8 = tmp_path / "c8.json"
    c8.write_text(to_json(as_hypergroup(cyclic_group(8))))
    cases = [
        (["gen", "sym", "0"], 2, "degree must be >= 1"),
        (["gen", "sym", "6"], 3, "group order 720 exceeds cap 120"),
        (["gen", "sym", "5"], 3, "carrier size 120 exceeds mask width 64"),
        (["gen", "sym", "6", "--cap-group", "720"], 3,
         "carrier size 720 exceeds mask width 64"),
        (["gen", "coset", str(c8), "{0}", "--cap-group", "4"], 3,
         "group order 8 exceeds cap 4"),
        (["simple-coset", str(c8), "{0}", "--cap-group", "7"], 3,
         "group order 8 exceeds cap 7"),
        (["gen", "coset", "cyc:100", "{0}"], 3, "carrier size 100 exceeds mask width 64"),
    ]
    for argv, code, message in cases:
        assert cli.main(argv) == code, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n", argv


def test_trame_quotient_refuses_above_64_classes(tmp_path):
    path = tmp_path / "c65.trame"
    path.write_text(format_trame(group_trame(cyclic_group(65)), tuple(range(65))))
    r = run_cli("trame", "quotient", str(path))
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr == "error: carrier size 65 exceeds mask width 64\n"


def test_trame_parse_errors(tmp_path):
    cases = [
        ("elements: a b\ncompose: a q -> b\nclasses: {a b}\n",
         "line 2: unknown element name"),
        ("elements: a b\ncompose: a a -> b\ncompose: a a -> a\nclasses: {a b}\n",
         "line 3: conflicting product"),
        ("elements: a b\nclasses: {a}\n", "missing from classes: b"),
        ("elements: a b\nfrobnicate: yes\nclasses: {a b}\n",
         "line 2: unrecognized line"),
        ("compose: a a -> a\n", "line 1: compose before elements"),
        ("elements: a b\nclasses: {a b} {a}\n", "element 'a' in two blocks"),
        ("elements: a\nelements: a\nclasses: {a}\n", "line 2: duplicate elements line"),
        ("elements:\nclasses: {a}\n", "line 1: no element names"),
        ("elements: a b a\nclasses: {a b}\n", "line 1: duplicate element name"),
        ("classes: {a}\nelements: a\n", "line 1: classes before elements"),
        ("elements: a\nclasses: {a}\nclasses: {a}\n", "line 3: duplicate classes line"),
        ("# no elements\n", "no elements line"),
        ("elements: a\ncompose: a a -> a\n", "no classes line"),
    ]
    for i, (text, fragment) in enumerate(cases):
        p = tmp_path / f"bad{i}.trame"
        p.write_text(text)
        r = run_cli("trame", "quotient", str(p))
        assert r.returncode == 2 and fragment in r.stderr, (i, r.stderr)
    # a well-formed file over the trame cap is refused, not malformed
    p.write_text(TRAME_A)
    r = run_cli("trame", "quotient", "--cap-trame", "3", str(p))
    assert (r.returncode, r.stdout, r.stderr) == (3, "", "error: trame size 4 exceeds cap 3\n")


def test_input_error_exit_codes(files, tmp_path):
    assert run_cli("gen", "sym", "6").returncode == 3  # order 720 over the cap
    r = run_cli("gen", "utumi", "cyc:8", "{0}|{1,4}|{2,3,5,6}", "0")
    assert r.returncode == 2 and "partition" in r.stderr
    r = run_cli("gen", "utumi", "cyc:8", "{0}|{1,4,7}|{2,3,5,6}", "9")
    assert r.returncode == 2 and "zero" in r.stderr
    assert run_cli("verify", str(tmp_path / "nope.json")).returncode == 2
    trash = tmp_path / "trash.json"
    trash.write_text("{not json")
    r = run_cli("verify", str(trash))
    assert r.returncode == 2 and "invalid JSON" in r.stderr
    r = run_cli("gen", "coset", files["stab3.json"], "stab:0")
    assert r.returncode == 2 and "univalent" in r.stderr
    r = run_cli("simple-coset", "sym:3", "{012,042}")
    assert r.returncode == 2 and "unknown group element" in r.stderr
    r = run_cli("simple-coset", "sym:3", "{a}|{b}")
    assert (r.returncode, r.stderr) == (2, "error: a subgroup is one block like {a,b}, got 2\n")
    assert run_cli("gen", "nope", "1").returncode == 2
    assert run_cli("gen", "stab", "0").returncode == 2
    assert run_cli("gen", "s-family", "0").returncode == 2


def test_gen_argument_count(capsys):
    import hypergroups.cli as cli
    cases = [
        (["gen", "coset", "sym:3"], "gen coset takes 2 arguments, got 1"),
        (["gen", "utumi", "cyc:4"], "gen utumi takes 3 arguments, got 1"),
        (["gen", "utumi", "cyc:4", "{0}|{1,2,3}", "0", "extra"],
         "gen utumi takes 3 arguments, got 4"),
        (["gen", "cyc", "4", "5", "6"], "gen cyc takes 1 argument, got 3"),
        (["gen", "sym", "3", "4"], "gen sym takes 1 argument, got 2"),
        (["gen", "stab", "3", "3"], "gen stab takes 1 argument, got 2"),
        (["gen", "canon", "a.json", "b.json"], "gen canon takes 1 argument, got 2"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n", argv
    assert cli.main(["gen", "s-family", "2", "3", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["elements"][0] == "e"


def test_deeply_nested_json_is_malformed_input(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for argv in (["verify", str(deep)], ["iso", str(deep), str(deep)]):
        r = run_cli(*argv)
        assert r.returncode == 2 and r.stdout == "", argv
        assert r.stderr == "error: invalid JSON: nested too deeply\n"


def test_trame_roundtrip():
    sym3 = symmetric_group(3)
    t = group_trame(sym3)
    rel = coset_relation(sym3, 0b000011, "right")
    fixtures = [(t, rel)]
    canon = canonical_presentation(s_family((3, 3)))  # names like e|e,e,e
    fixtures.append((canon.trame, canon.r))
    for text in (TRAME_A, TRAME_B):
        fixtures.append(parse_trame(text))
    # names that hold the arrow: a compose line is four words, not split at '->'
    fixtures.append((Trame(("a->b", "->", "c"), {(0, 1): 1, (1, 1): 0, (2, 1): 2}), (0, 1, 0)))
    # braces, commas, bars and arrows: any name without whitespace or '}'
    fixtures.append((Trame(("{a", "{", "a,b", ",", "|", "a|b", "{,|->", "{{"),
                           {(0, 1): 2, (2, 3): 4, (5, 6): 7, (7, 7): 0}), (0, 1, 0, 2, 1, 3, 3, 2)))
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 6)
        names = tuple(f"t{i}" for i in range(n))
        op = {}
        for u in range(n):
            for v in range(n):
                if rng.random() < 0.4:
                    op[u, v] = rng.randrange(n)
        labels = [0] + [rng.randrange(n) for _ in range(n - 1)]
        seen = {}
        rel2 = tuple(seen.setdefault(lab, len(seen)) for lab in labels)
        fixtures.append((Trame(names, op), rel2))
    for trame, rel3 in fixtures:
        t2, r2 = parse_trame(format_trame(trame, rel3))
        assert t2.names == trame.names and t2.op == trame.op
        assert r2 == tuple(rel3)


def test_wide_structure_file_is_refused_before_its_rows(tmp_path):
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"elements": [f"x{i}" for i in range(65)], "table": []}))
    r = run_cli("verify", str(p))
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr == "error: carrier size 65 exceeds mask width 64\n"


def test_format_trame_refuses_names_it_cannot_write():
    # {a} {a}} would read back with the name {a}, {}{} with an empty block,
    # and a b as two names
    for names, bad in [(("a", "a}"), "a}"), (("}{",), "}{"), (("c", "a b", "d}"), "a b")]:
        t = Trame(names, {})
        with pytest.raises(ValueError) as e:
            format_trame(t, tuple(range(len(names))))
        assert str(e.value) == f"trame name {bad!r} holds whitespace or '}}'"


def test_non_string_entry_names_are_malformed_input(tmp_path):
    for i, (entry, shown) in enumerate([('["a"]', "['a']"), ('{"a":1}', "{'a': 1}")]):
        p = tmp_path / f"entry{i}.json"
        p.write_text('{"elements":["a"],"table":[[[' + entry + ']]]}')
        for argv in (["verify", str(p)], ["opposite", str(p)], ["iso", str(p), str(p)]):
            r = run_cli(*argv)
            assert r.returncode == 2 and r.stdout == "", argv
            assert r.stderr == f"error: unknown element name {shown} in entry (0,0)\n"
    elements = '"elements" must be a non-empty list of strings'
    for i, (text, message) in enumerate([
            ('{"elements":[],"table":[]}', elements),
            ('{"elements":"ab","table":[]}', elements),
            ('{"elements":["a",1],"table":[]}', elements),
            ('{"elements":["a","b"],"table":[[["a"],["b"]],[["a"]]]}',
             "table row 1 must have 2 entries"),
            ('{"elements":["a"],"table":[["a"]]}', "table entry (0,0) must be a list of names")]):
        p = tmp_path / f"shape{i}.json"
        p.write_text(text)
        r = run_cli("verify", str(p))
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n"), text


def test_huge_symmetric_degree_refused_at_once():
    # the product stops once it passes the cap, so m! is never formed in
    # full and never printed with millions of digits
    for argv, order in [(["gen", "sym", "10000000"], "10000000!"),
                        (["gen", "sym", "2000"], "2000!"),
                        (["simple-coset", "sym:2000", "stab:0"], "2000!")]:
        start = time.perf_counter()
        r = subprocess.run([sys.executable, "-m", "hypergroups", *argv],
                           capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 10, argv
        assert r.returncode == 3 and r.stdout == "", argv
        assert r.stderr == f"error: group order {order} exceeds cap 120\n"


def test_each_verb_accepts_only_the_caps_it_reads(files, capsys):
    import hypergroups.cli as cli
    caps = {"--cap-n": ("cap_n", 12), "--cap-group": ("cap_group", 120),
            "--cap-trame": ("cap_trame", 65536)}
    verbs = {
        ("gen", "cyc", "3"): {"--cap-group", "--cap-trame"},
        ("simple", "f"): {"--cap-n"},
        ("reflets", "f"): {"--cap-n"},
        ("simple-coset", "cyc:3", "{0}"): {"--cap-group"},
        ("trame", "quotient", "f"): {"--cap-trame"},
        ("verify", "f"): set(),
        ("iso", "f", "g"): set(),
        ("opposite", "f"): set(),
        ("classify-s", "3"): set(),
    }
    settable = 0
    for argv, reads in verbs.items():
        defaults = cli.parse_args(list(argv))
        for flag, (attr, default) in caps.items():
            if flag in reads:
                assert getattr(defaults, attr) == default
                assert getattr(cli.parse_args([*argv, flag, "7"]), attr) == 7
                settable += 1
            else:
                assert not hasattr(defaults, attr), (argv, flag)
                with pytest.raises(SystemExit) as e:
                    cli.parse_args([*argv, flag, "7"])
                assert e.value.code == 2, (argv, flag)
                assert "unrecognized arguments" in capsys.readouterr().err
    assert settable == 6
    r = run_cli("verify", files["cyc4.json"], "--cap-n", "3")
    assert r.returncode == 2 and r.stdout == ""
    assert "unrecognized arguments: --cap-n 3" in r.stderr
