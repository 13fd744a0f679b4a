"""The command line's exit-code contract, fuzzed in-process.

Every verb, fed small valid and malformed inputs, returns 0, 1, 2 or 3,
or stops on a usage error with SystemExit(2); no other exception escapes.
Inputs stay small (structures of at most 6 elements, trames of at most
8, groups of degree or order at most 6) and caps stay at their defaults
or lower, so nothing large is built.
"""

import contextlib
import io
import itertools
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hypergroups import cli
from hypergroups.constructions import s_family
from hypergroups.core import CapExceeded, ParseError, from_json, members, to_json
from hypergroups.groups import as_hypergroup, cyclic_group, symmetric_group

from conftest import build_parser, tree_from_json

NAMES = ("e", "a", "b", "c", "0", "1", "2", "3", "x,y", "012", "102", "|", "{")
GARBAGE = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
KNOWN = [to_json(as_hypergroup(cyclic_group(k))) for k in range(1, 7)] + [
    to_json(as_hypergroup(symmetric_group(3))),
    to_json(s_family((3,))),
    to_json(s_family((2, 2))),
    to_json(s_family((3, 1))),
]


def mostly(valid):
    """valid four times in five, garbage otherwise."""
    return st.sampled_from([True] * 4 + [False]).flatmap(lambda ok: valid if ok else GARBAGE)


SMALL_INT = mostly(st.integers(-1, 6).map(str))
SIZES = st.lists(SMALL_INT, min_size=1, max_size=4)
CAP_N = st.one_of(st.just([]), st.integers(-1, 12).map(lambda k: ["--cap-n", str(k)]))
CAP_GROUP = st.one_of(st.just([]), st.integers(-1, 120).map(lambda k: ["--cap-group", str(k)]))


@st.composite
def random_structure(draw):
    n = draw(st.integers(1, 6))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=n, max_size=n, unique=True))
    rows = draw(st.lists(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    table = [[[names[z] for z in members(e)] for e in row] for row in rows]
    return json.dumps({"elements": names, "table": table})


@st.composite
def mutated(draw, texts):
    """A valid text, or now and then one cut short, spliced with garbage
    or replaced by it."""
    text = draw(texts)
    how = draw(st.sampled_from(["keep"] * 4 + ["cut", "splice", "garbage"]))
    if how == "cut":
        return text[:draw(st.integers(0, len(text)))]
    if how == "splice":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(GARBAGE) + text[i:]
    return draw(GARBAGE) if how == "garbage" else text


@st.composite
def contents(draw, texts):
    """File bytes: a mutated text, or now and then bytes that are not UTF-8."""
    if draw(st.sampled_from([True] * 7 + [False])):
        return draw(mutated(texts)).encode()
    return b"\xff" + draw(st.binary(max_size=12))


STRUCTURE = contents(st.one_of(st.sampled_from(KNOWN), random_structure()))


@st.composite
def partition(draw, names, alone=None):
    """A mutated partition literal over names, with alone in a block of its own."""
    blocks = {}
    for name in names:
        blocks.setdefault(0 if name == alone else draw(st.integers(1, 3)), []).append(name)
    return draw(mutated(st.just("|".join("{" + ",".join(b) + "}" for b in blocks.values()))))


@st.composite
def trame_text(draw):
    n = draw(st.integers(1, 8))
    names = [f"t{i}" for i in range(n)]
    index = st.integers(0, n - 1)
    op = draw(st.dictionaries(st.tuples(index, index), index, max_size=16))
    blocks = {}
    for name in names:
        blocks.setdefault(draw(index), []).append(name)
    lines = ["elements: " + " ".join(names)]
    lines += [f"compose: {names[u]} {names[v]} -> {names[w]}" for (u, v), w in op.items()]
    lines.append("classes: " + " ".join("{" + " ".join(b) + "}" for b in blocks.values()))
    return "\n".join(lines) + "\n"


@st.composite
def group_args(draw):
    """(group, element names, subgroup, files): cyc:k or a file holding
    Z/k with the multiples of some d, or sym:k with a point stabilizer;
    now and then garbage in either place."""
    k = draw(st.integers(-1, 6))
    kind = draw(st.sampled_from(["cyc", "sym", "file"]))
    names = [str(i) for i in range(k)]
    files = {}
    if kind == "sym":
        group, sub = f"sym:{k}", f"stab:{draw(st.integers(-1, max(k, 0)))}"
    else:
        d = draw(st.integers(1, max(k, 1)))
        group, sub = f"cyc:{k}", "{" + ",".join(names[::d]) + "}"
        if kind == "file":
            group = "group.json"
            files[group] = draw(contents(st.just(to_json(as_hypergroup(cyclic_group(max(k, 1)))))))
    return draw(mostly(st.just(group))), names, draw(mostly(st.just(sub))), files


@st.composite
def gen_coset(draw):
    group, _, sub, files = draw(group_args())
    side = draw(st.sampled_from([[], ["--side", "left"], ["--side", "up"]]))
    return ["gen", "coset", group, sub, *side, *draw(CAP_GROUP)], files


@st.composite
def gen_utumi(draw):
    group, names, _, files = draw(group_args())
    zero = draw(st.sampled_from(["0", "1", "9"]))
    return ["gen", "utumi", group, draw(partition(names, alone=zero)), zero], files


@st.composite
def simple_coset(draw):
    group, _, sub, files = draw(group_args())
    return ["simple-coset", group, sub, *draw(CAP_GROUP)], files


@st.composite
def trame(draw):
    action = draw(st.sampled_from(["quotient", "adequate", "invariant"]))
    s = draw(st.one_of(st.just([]), partition([f"t{i}" for i in range(8)]).map(
        lambda lit: ["--s", lit])))
    return ["trame", action, "a.trame", *s], {"a.trame": draw(contents(trame_text()))}


def on_files(argv, *files, extra=st.just([])):
    """argv followed by extra, reading a structure from each named file."""
    return st.tuples(extra.map(lambda tail: [*argv, *tail]),
                     st.fixed_dictionaries({f: STRUCTURE for f in files}))


VERBS = {
    "gen-sym-cyc-stab": st.tuples(st.sampled_from(["sym", "cyc", "stab"]).flatmap(
        lambda kind: SMALL_INT.map(lambda k: ["gen", kind, k])), st.just({})),
    "gen-s-family": st.tuples(SIZES.map(lambda sizes: ["gen", "s-family", *sizes]), st.just({})),
    "gen-coset": gen_coset(),
    "gen-utumi": gen_utumi(),
    "gen-canon": on_files(["gen", "canon", "a.json"], "a.json"),
    "gen-any-arity": st.tuples(st.tuples(st.sampled_from(sorted(cli._GEN_ARITY)),
                                         st.lists(SMALL_INT, max_size=4)).map(
        lambda ka: ["gen", ka[0], *ka[1]]), st.just({})),
    "verify": on_files(["verify"], "a.json",
                       extra=st.sampled_from([["a.json"], ["missing.json"]])),
    "opposite": on_files(["opposite", "a.json"], "a.json"),
    "iso": on_files(["iso", "a.json", "b.json"], "a.json", "b.json"),
    "simple": on_files(["simple", "a.json"], "a.json", extra=CAP_N),
    "reflets": on_files(["reflets", "a.json"], "a.json", extra=CAP_N),
    "simple-coset": simple_coset(),
    "classify-s": st.tuples(SIZES.map(lambda sizes: ["classify-s", *sizes]), st.just({})),
    "trame": trame(),
    "garbage": st.tuples(st.lists(GARBAGE, max_size=4), st.just({})),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("verb", sorted(VERBS))
@settings(max_examples=25, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_verb_exits_with_a_contract_code(workdir, verb, data):
    argv, files = data.draw(VERBS[verb])
    for name, content in files.items():
        (workdir / name).write_bytes(content)
    argv = [str(workdir / t) if t.endswith((".json", ".trame")) else t for t in argv]
    try:
        code = cli.main(argv)
    except SystemExit as e:  # a usage error refuses the command line
        assert e.code == 2, argv
    else:
        assert code in (0, 1, 2, 3), argv


@settings(max_examples=40)
@given(random_structure())
def test_structure_json_roundtrip(text):
    m = from_json(text)
    assert from_json(to_json(m)) == m


def outcome(read, text):
    """What read makes of text: a structure, or the type and message of
    what it raised."""
    try:
        return read(text)
    except Exception as e:
        return type(e), str(e)


REWRITES = ["keep", "pretty", "spaced", "separator", "reordered", "duplicate-key", "extra-key",
            "bom", "trailing", "nan", "deep"]


@st.composite
def rewritten(draw, how):
    """A valid text, now and then cut short or spliced with garbage, then
    rewritten: pretty-printed or with its keys reordered when it decodes,
    spaces that JSON may or may not skip around each bracket, brace, colon
    or comma of one kind, another separator between two rows, a key
    repeated or added, a BOM before it, data after it, a NaN or an
    Infinity in its first entry, or that entry nested 100,000 deep."""
    text = draw(mutated(st.one_of(st.sampled_from(KNOWN), random_structure())))
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        obj = None
    if how == "pretty" and obj is not None:
        return json.dumps(obj, indent=draw(st.sampled_from([None, 0, 1, "\t", " \r\n"])))
    if how == "spaced":
        mark = draw(st.sampled_from("[]{}:,"))
        space = draw(st.sampled_from([" ", "\t\n", "\r", "\f", "\x0b", "\xa0", "\u3000"]))
        return text.replace(mark, space + mark + space)
    if how == "separator":
        between = draw(st.sampled_from([";", ":", "", " ", ",,"]))
        return text.replace("]],[[", "]]" + between + "[[", 1)
    if how == "reordered" and isinstance(obj, dict):
        return json.dumps(dict(reversed(obj.items())))
    if how == "duplicate-key":
        return text.replace(*draw(st.sampled_from([
            ('"table":', '"table":[],"table":'), ('"table":', '"table":[[["e"]]],"table":'),
            ('"elements":', '"elements":["zz"],"elements":')])), 1)
    if how == "extra-key":
        if draw(st.booleans()):
            return text.replace("{", '{"extra":1,', 1)
        return re.sub(r"\}\s*$", ',"extra":[]}', text)
    if how == "bom":
        return "\ufeff" + text
    if how == "trailing":
        return text + draw(st.sampled_from([" x", "{}", "]", " \n\t", ","]))
    if how == "nan":
        return re.sub(*draw(st.sampled_from([(r"\[\[\[[^\[\]]*\]", "[[NaN"),
                                             (r'\[\[\["', '[[[NaN,"'),
                                             (r'\["', '[Infinity,"')])), text, count=1)
    if how == "deep":
        return text.replace("[[[", "[[" + "[" * 100000, 1)
    return text


@pytest.mark.parametrize("how", REWRITES)
@settings(max_examples=40)
@given(data=st.data())
def test_row_reader_matches_tree_reader(how, data):
    text = data.draw(rewritten(how))
    assert outcome(from_json, text) == outcome(tree_from_json, text), text[:200]


def test_row_reader_matches_tree_reader_on_fixed_texts():
    # nesting too deep, a syntax error after a shape fault, the shape
    # faults, and a valid text with and without whitespace
    for text in ["[" * 100000, '{"elements":["a"],"table":[' + "[" * 100000,
                 '{"elements":["a"],"table":[[[' + "[" * 100000 + "]]]]]}",
                 '{"elements":["a"],"table":[[["b"]]] x',
                 '{"elements":["a","a"],"table":[[["a"]]],',
                 '{"elements":["a"],"table":[]}', '{"elements":["a"],"table":5}',
                 '{"elements":["a"],"table":[[["a"]],[["a"]]]}', '{"elements":["a"]}',
                 '{"elements":["a"],"table":[[["a"],["a"]],[["b"]]]}',
                 '{"elements":["a"],"table":[[["a"]]]}',
                 ' {\n"elements" :\t["a"] ,"table":[[ ["a"] ] ]}\r\n']:
        assert outcome(from_json, text) == outcome(tree_from_json, text), text[:60]


def test_wide_carrier_is_refused_before_its_rows():
    # the one intended difference: the tree reader refused the table shape
    for text in [json.dumps({"elements": [f"x{i}" for i in range(65)], "table": []}),
                 json.dumps({"table": [], "elements": [f"x{i}" for i in range(65)]})]:
        assert outcome(tree_from_json, text) == (ParseError, "table must have 65 rows")
        assert outcome(from_json, text) == (CapExceeded, "carrier size 65 exceeds mask width 64")


@pytest.mark.parametrize("files", [{"self.args": "@self.args"},
                                   {"a.args": "verify\n@b.args", "b.args": "@a.args"}])
def test_at_file_that_names_itself_is_malformed_input(tmp_path, monkeypatch, capsys, files):
    # the reader counts the @FILEs it reads, so a cycle of files is a
    # malformed command line, refused at the 101st file
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    assert cli.main(["@" + next(iter(files))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_at_file_named_twice_is_read_twice(tmp_path, capsys):
    # two @FILEs naming one file side by side are no cycle: each is
    # expanded, as argparse expands them
    (tmp_path / "a.json").write_text(to_json(as_hypergroup(cyclic_group(3))))
    args = tmp_path / "a.args"
    args.write_text(f"{tmp_path / 'a.json'}\n")
    argv = ["iso", f"@{args}", f"@{args}"]
    assert vars(cli.parse_args(argv)) == vars(build_parser().parse_args(argv))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == '{"isomorphic":true,"bijection":["0","1","2"]}\n'


def test_at_file_chain_past_100_files_is_malformed_input(tmp_path, capsys):
    # a chain of distinct files is refused at its 101st file, long before
    # the interpreter's recursion limit
    for k in range(100):
        (tmp_path / f"{k}.args").write_text(f"@{tmp_path / f'{k + 1}.args'}\n")
    (tmp_path / "100.args").write_text("classify-s\n3\n")
    assert cli.main([f"@{tmp_path / '1.args'}"]) == 0
    assert cli.main([f"@{tmp_path / '0.args'}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: more than 100 @FILE arguments\n"


def test_at_file_that_is_not_utf8_is_malformed_input(tmp_path, capsys):
    args = tmp_path / "bad.args"
    args.write_bytes(b"\xff\n")
    assert cli.main([f"@{args}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: 'utf-8' codec can't decode")


# --- counts: every integer on the command line is read by one reader ----------

DIGITS_5000 = "1" * 5000  # past the interpreter's default limit on int() digits


def test_bad_counts_name_their_argument(capsys):
    # a cap is a count of at least 1, refused as a usage error; a positional
    # count, or one after sym:, cyc: or stab:, is refused with one error
    # line naming the argument, and the library refuses the counts below 1
    caps = [(verb, option) for verb, (_, _, _, options) in cli._VERBS.items()
            for option, spec in options.items() if isinstance(spec, int)]
    assert len(caps) == 6
    for (verb, option), value in itertools.product(
            caps, ["0", "-1", "x", "+3", "1_0", " 12", "\u0663", "\uff13", DIGITS_5000]):
        with pytest.raises(SystemExit) as stop:
            cli.main([verb, option, value])
        assert stop.value.code == 2
        out, err = capsys.readouterr()
        usage, error = err.splitlines()
        assert out == "" and usage.startswith(f"usage: hypergroups {verb} [-h] ")
        assert error == f"hypergroups {verb}: error: argument {option}: invalid count value: " \
                        f"{value!r}", (verb, option, value[:8])
    counts = [(["gen", "sym", "#"], "args"), (["gen", "cyc", "#"], "args"),
              (["gen", "stab", "#"], "args"), (["gen", "s-family", "2", "#"], "args"),
              (["classify-s", "#", "3"], "sizes"), (["gen", "coset", "sym:#", "{0}"], "group"),
              (["simple-coset", "cyc:#", "{0}"], "group"),
              (["simple-coset", "sym:3", "stab:#"], "subgroup")]
    for (argv, name), value in itertools.product(
            counts, ["x", "+3", "1_0", "\u0663", DIGITS_5000]):
        argv = [t.replace("#", value) for t in argv]
        assert cli.main(argv) == 2, argv[:3]
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: argument {name}: invalid count value: {value!r}\n")
    for argv in (["gen", "cyc", "0"], ["gen", "s-family", "0"], ["simple-coset", "sym:0", "{0}"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.endswith(" >= 1\n"), argv
    assert cli.main(["gen", "cyc", "007"]) == 0
    assert capsys.readouterr().out == to_json(as_hypergroup(cyclic_group(7))) + "\n"


# --- the command-line reader against the argparse parser it replaced ----------

CAP = ["7", "-1", "0", " 12"]
# verb: (the pools its positionals are drawn from, the last repeated one to
# three times when it takes several; each option's spellings, prefixes
# included, with its values; --cap is ambiguous in gen)
VALID = {
    "gen": ([["sym", "cyc", "coset", "s-family", "utumi", "canon"], ["3", "-1", "", "cyc:3"]],
            {("--cap-group", "--cap-g", "--cap"): CAP, ("--cap-trame", "--cap-t"): CAP,
             ("--side", "--si", "--s"): ["right", "left"]}),
    "verify": ([["f.json", "", "-1"]], {}),
    "simple": ([["f.json", "a b"]], {("--cap-n", "--cap", "--c"): CAP}),
    "simple-coset": ([["cyc:3", "sym:3"], ["{0}", "stab:0"]],
                     {("--cap-group", "--cap", "--c"): CAP}),
    "reflets": ([["f.json"]], {("--cap-n", "--cap-"): CAP}),
    "iso": ([["a.json", "-1"], ["b.json", ""]], {}),
    "opposite": ([["f.json"]], {}),
    "classify-s": ([["3", "-1", "x"]], {}),
    "trame": ([["quotient", "adequate", "invariant"], ["f.trame"]],
              {("--cap-trame", "--cap", "--c"): CAP, ("--s",): ["{t0}", "", "-1", "a b", "-x=1"]}),
}
POSITIONALS = ["sym", "quotient", "3", "-1", "", "a b", "f.json"]
OPTIONS = ["--cap-n", "--cap-group", "--cap-trame", "--side", "--s", "--cap", "--cap-",
           "--cap-g", "--c", "--si", "--bogus"]
VALUES = ["7", "-1", "", "x", "left", "up", "{t0}", "a b", "-x", "-h", "--cap-n"]
ALONE = ["-h", "--help", "--he", "-x", "-1", "-", "--bogus", "--cap"]


def spelled(draw, option, value):
    """option and value as '--opt v' or '--opt=v', now and then without value."""
    return draw(st.sampled_from([[option, value], [f"{option}={value}"], [option]]))


@st.composite
def fault(draw, positional=True):
    """One piece that may not fit the verb: a positional, an option, or a
    token that stands alone."""
    what = draw(st.sampled_from(["alone", "option"] + ["positional"] * positional))
    if what == "option":
        return spelled(draw, draw(st.sampled_from(OPTIONS)), draw(st.sampled_from(VALUES)))
    return [draw(st.sampled_from(ALONE if what == "alone" else POSITIONALS))]


@st.composite
def command_line(draw, workdir, verb):
    """(argv, files): verb with its positionals and options in any
    order, now and then a fault among them or before the verb, a '--', a
    run of arguments moved into an @FILE or into one inside it, or an
    @FILE that does not exist."""
    pools, options = VALID.get(verb, ([], {}))
    pieces = [[draw(st.sampled_from(pool))] for pool in pools]
    if verb in ("gen", "classify-s"):
        pieces += [[draw(st.sampled_from(pools[-1]))] for _ in range(draw(st.integers(0, 2)))]
    if pieces and draw(st.sampled_from([False] * 4 + [True])):
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    for spellings, values in options.items():
        for _ in range(draw(st.integers(0, 1))):
            piece = spelled(draw, draw(st.sampled_from(spellings)), draw(st.sampled_from(values)))
            pieces.insert(draw(st.integers(0, len(pieces))), piece)
    if draw(st.sampled_from([False, True])):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(fault()))
    before = draw(st.sampled_from([[], [], draw(fault(positional=False))]))
    argv = before + [verb] * bool(verb) + [t for piece in pieces for t in piece]
    if draw(st.booleans()):
        first = draw(st.sampled_from([min(len(before) + 1, len(argv))] * 4 + [0]))
        argv.insert(draw(st.integers(first, len(argv))), "--")
    files = {}
    for name in ["outer.args", "inner.args"][:draw(st.sampled_from([0, 0, 1, 2])) * bool(argv)]:
        inside = files.get("outer.args", argv)
        i = draw(st.integers(0, len(inside) - 1))
        j = draw(st.integers(i + 1, len(inside)))
        files[name] = inside[i:j]
        inside[i:j] = [f"@{workdir / name}"]
    if draw(st.sampled_from([False] * 9 + [True])):
        argv.insert(draw(st.integers(0, len(argv))), f"@{workdir / 'missing.args'}")
    return argv, files


def argparse_parse(argv):
    return build_parser().parse_args(argv)


def reading(parse, argv):
    """What parse makes of argv: its fields; or, when it exits, the first
    three words of its help (exit 0) or the error line after its usage."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as e:
        if e.code == 0:
            return 0, out.getvalue().split()[:3]
        assert err.getvalue().startswith("usage: hypergroups")
        return e.code, re.search(r"^hypergroups.*", err.getvalue(), re.M | re.S)[0]


@pytest.mark.parametrize("verb", [*VALID, "ge", None])
@settings(max_examples=80)
@given(data=st.data())
def test_reader_reads_command_lines_as_argparse_did(workdir, verb, data):
    argv, files = data.draw(command_line(workdir, verb))
    for name, lines in files.items():
        (workdir / name).write_text("".join(line + "\n" for line in lines))
    assert reading(cli.parse_args, argv) == reading(argparse_parse, argv)


def test_reader_departs_from_argparse_only_where_named(tmp_path):
    # argparse drops the first '--' among the values of each argument, even
    # one attached with '=' or one after the '--' that ended the options,
    # and may leave [] where the verb reads a string; the reader keeps '--'
    for argv, field, argparse_value, value in [
            (["trame", "invariant", "f", "--s=--"], "s", [], "--"),
            (["iso", "--", "a", "--"], "file2", [], "--"),
            (["gen", "sym", "--", "--", "3"], "args", ["3"], ["--", "3"])]:
        assert getattr(build_parser().parse_args(argv), field) == argparse_value
        assert getattr(cli.parse_args(argv), field) == value
    # argparse reads -hX as -h -X and refuses an argument attached to -h or
    # --help, though -hh is -h -h; the reader knows no option -hX or -h=X and
    # shows the help for --help=X
    for argv, token in [(["-hh", "verify", "f"], "-hh"), (["simple", "f", "-hx"], "-hx"),
                        (["verify", "f", "-h=x"], "-h=x")]:
        assert reading(cli.parse_args, argv) == (
            2, f"hypergroups: error: unrecognized arguments: {token}\n")
    assert reading(argparse_parse, ["-hh", "verify", "f"])[0] == 0
    assert reading(argparse_parse, ["simple", "f", "-hx"]) == (
        2, "hypergroups simple: error: argument -h/--help: ignored explicit argument 'x'\n")
    assert reading(cli.parse_args, ["iso", "--he=x"]) == (0, ["usage:", "hypergroups", "iso"])
    assert reading(argparse_parse, ["iso", "--he=x"]) == (
        2, "hypergroups iso: error: argument -h/--help: ignored explicit argument 'x'\n")
    # argparse recurses through a cycle of @FILEs until RecursionError
    (tmp_path / "self.args").write_text(f"@{tmp_path / 'self.args'}\n")
    with pytest.raises(RecursionError):
        build_parser().parse_args([f"@{tmp_path / 'self.args'}"])
    with pytest.raises(ParseError, match="^more than 100 @FILE arguments$"):
        cli.parse_args([f"@{tmp_path / 'self.args'}"])
    # argparse expands any number of @FILEs; the reader reads 100 in all,
    # side by side or nested
    (tmp_path / "3.args").write_text("3\n")
    argv = ["classify-s", *[f"@{tmp_path / '3.args'}"] * 100]
    assert cli.parse_args(argv).sizes == argparse_parse(argv).sizes == ["3"] * 100
    assert argparse_parse(argv + argv[1:2]).sizes == ["3"] * 101
    with pytest.raises(ParseError, match="^more than 100 @FILE arguments$"):
        cli.parse_args(argv + argv[1:2])
