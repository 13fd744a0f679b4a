"""Command-line front end.

Verbs: gen, verify, simple, simple-coset, reflets, iso, opposite,
classify-s, trame. Structures travel as canonical JSON on stdout; all
diagnostics go to stderr. Each verb returns its line and its verdict, and
main alone writes the line and maps the verdict and any error to the exit
code: 0 computed (or positive verdict), 1 negative verdict from a predicate
verb, 2 malformed input, 3 a size cap was exceeded.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from types import SimpleNamespace
from typing import Container, Iterator, NoReturn, Optional, Sequence

from .core import (
    CapExceeded,
    EquivalenceRelation,
    Hypergroup,
    Multistructure,
    ParseError,
    block_labels,
    check_carrier_size,
    find_isomorphism,
    from_json,
    is_group,
    mask_of,
    members,
    opposite,
    to_json,
    verify_axioms,
)
from .groups import (
    DEFAULT_GROUP_CAP,
    GroupTable,
    Subgroup,
    as_hypergroup,
    check_group_order,
    cyclic_group,
    stabilizer_subgroup,
    symmetric_group,
    symmetric_group_order,
    verify_group,
)
from .constructions import (
    UtumiInput,
    canonical_presentation,
    left_coset_hypergroup,
    right_coset_hypergroup,
    s_family,
    s_family_class,
    stabilizer_hypergroup,
    utumi,
)
from .presentations import (
    DEFAULT_TRAME_CAP,
    Presentation,
    Trame,
    is_adequate,
    is_invariant_modulo_equiv,
    quotient,
)
from .simplicity import (
    DEFAULT_SIMPLICITY_CAP,
    coset_simplicity_report,
    reflets,
    simplicity_report,
)


def _read_structure(path: str) -> Multistructure:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def _read_hypergroup(path: str, cap_n: int) -> Hypergroup:
    """A structure for congruence search, refused by size before certify."""
    m = _read_structure(path)
    if m.n > cap_n:
        raise CapExceeded(f"carrier size {m.n} exceeds simplicity cap {cap_n}")
    return Hypergroup.certify(m)


# A '}' after a name ends its block: a hard end when '{' follows it, or
# '|' or the end of the text after any whitespace; a soft end when other
# whitespace follows. A known name may hold a soft end, never a hard one.
_CLOSE = re.compile(r"\}(?=[\s{|]|\Z)")
_WORDS = (re.compile(r"(?:[^\s}]|\}(?!\{|\s*(?:\||\Z)))*"),  # up to whitespace or a hard end
          re.compile(r"(?:[^\s}]|\}(?![\s{|]|\Z))*"))  # up to whitespace or any end
_PARTS = (re.compile(r"(?:[^\s,}]|\}(?!\{|\s*(?:\||\Z)))*"),  # the same, also up to a comma
          re.compile(r"(?:[^\s,}]|\}(?![\s{|]|\Z))*"))
_BETWEEN_BLOCKS, _SPACE = re.compile(r"[\s|]*"), re.compile(r"\s*")


def _read_blocks(text: str, known: Container[str]) -> list[list[str]]:
    """The blocks of a literal like {0}|{1,4,7} {2 3 5 6}, each a list of names.

    Blocks are {...} groups separated by whitespace and/or '|'. Inside a
    block, words are separated by whitespace and the names in a word by
    commas, but a word, or a comma-separated part of one, that is a known
    name is taken whole. A block ends at a '}' followed by '{', by '|' or
    the end of the text after any whitespace, or by other whitespace
    outside such a name. So names may hold commas, braces and '|'.
    """
    blocks, pos = [], _BETWEEN_BLOCKS.match(text).end()
    while pos < len(text):
        if text[pos] != "{":
            raise ParseError(f"expected a block like {{a,b}} at {text[pos:pos + 30]!r}")
        block, pos, closed, word = [], pos + 1, False, True
        while not closed:
            gap = _SPACE.match(text, pos).end()
            word, pos = word or gap > pos, gap  # at the start of a word?
            if pos == len(text):
                raise ParseError("unterminated block")
            # the first known candidate, else the last: an unknown name, or none
            for pat in _WORDS + _PARTS if word else _PARTS:
                name = pat.match(text, pos)[0]
                if name in known:
                    break
            if name:
                block.append(name)
            pos += len(name)
            closed = _CLOSE.match(text, pos) is not None
            pos += closed or text.startswith(",", pos)
            word = False
        if not block:
            raise ParseError("empty block")
        blocks.append(block)
        pos = _BETWEEN_BLOCKS.match(text, pos).end()
    return blocks


def _parse_partition(text: str, names: Sequence[str], noun: str = "blocks") -> tuple[int, ...]:
    """block_labels of the partition of names that text writes in blocks."""
    return block_labels(names, _read_blocks(text, set(names)), noun)


def _count(text: str, name: str, low: int = 0) -> int:
    """text read as a count of at least low: ASCII decimal digits alone, leading
    zeros allowed, so no sign, '_', space or non-ASCII digit, and no more digits
    than the interpreter converts (4300 by default)."""
    try:
        if text.isascii() and text.isdigit() and (k := int(text)) >= low:
            return k
    except ValueError:  # past the interpreter's digit limit
        pass
    raise ParseError(f"argument {name}: invalid count value: {text!r}")


def _load_group(arg: str, cap: int) -> GroupTable:
    """sym:M, cyc:M, or a path to a univalent structure in JSON."""
    if arg.startswith("sym:"):
        return symmetric_group(_count(arg[4:], "group"), cap)
    if arg.startswith("cyc:"):
        order = _count(arg[4:], "group")
        check_group_order(order, cap)
        return cyclic_group(order)
    ms = _read_structure(arg)
    if not is_group(ms):
        raise ParseError("group file is not univalent: some product is not one element")
    check_group_order(ms.n, cap)
    return verify_group([[e.bit_length() - 1 for e in row] for row in ms.table], ms.names)


def _load_subgroup(g: GroupTable, arg: str) -> Subgroup:
    """stab:P (permutation groups only) or an explicit list {names}."""
    if arg.startswith("stab:"):
        return stabilizer_subgroup(g, _count(arg[5:], "subgroup"))
    index = {s: i for i, s in enumerate(g.names)}
    blocks = _read_blocks(arg, index)
    if len(blocks) != 1:
        raise ParseError(f"a subgroup is one block like {{a,b}}, got {len(blocks)}")
    for name in blocks[0]:
        if name not in index:
            raise ParseError(f"unknown group element {name!r}")
    return Subgroup(g, mask_of(index[name] for name in blocks[0]))


# --- trame DSL ---------------------------------------------------------------


def parse_trame(text: str) -> tuple[Trame, tuple[int, ...]]:
    """Line-oriented trame files.

    elements: a b c
    compose: a b -> c
    classes: {a b} {c}

    Blank lines and lines starting with # are skipped. The elements line
    separates names by whitespace, and a compose line is exactly the four
    words u v -> w, so a name may contain '->'. The classes line defines the
    presentation's equivalence in the one partition syntax that --s and
    gen utumi read (see _read_blocks): blocks separated by whitespace
    and/or '|', names inside a block by whitespace or commas.
    """
    names: Optional[list[str]] = None
    index: dict[str, int] = {}
    op: dict[tuple[int, int], int] = {}
    labels: Optional[tuple[int, ...]] = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("elements:"):
            if names is not None:
                raise ParseError(f"line {ln}: duplicate elements line")
            names = line[len("elements:"):].split()
            if not names:
                raise ParseError(f"line {ln}: no element names")
            if len(set(names)) != len(names):
                raise ParseError(f"line {ln}: duplicate element name")
            index = {s: i for i, s in enumerate(names)}
        elif line.startswith("compose:"):
            if names is None:
                raise ParseError(f"line {ln}: compose before elements")
            words = line[len("compose:"):].split()
            if len(words) != 4 or words[2] != "->":
                raise ParseError(f"line {ln}: compose needs 'u v -> w'")
            del words[2]
            for s in words:
                if s not in index:
                    raise ParseError(f"line {ln}: unknown element name {s!r}")
            u, v, w = (index[s] for s in words)
            if op.setdefault((u, v), w) != w:
                raise ParseError(f"line {ln}: conflicting product for {words[0]} {words[1]}")
        elif line.startswith("classes:"):
            if names is None:
                raise ParseError(f"line {ln}: classes before elements")
            if labels is not None:
                raise ParseError(f"line {ln}: duplicate classes line")
            try:
                labels = _parse_partition(line[len("classes:"):], names, "classes")
            except ParseError as e:
                raise ParseError(f"line {ln}: {e}") from None
        else:
            raise ParseError(f"line {ln}: unrecognized line {line.split(':')[0]!r}")
    if names is None:
        raise ParseError("no elements line")
    if labels is None:
        raise ParseError("no classes line")
    return Trame(tuple(names), op), labels


def format_trame(t: Trame, r: Sequence[int]) -> str:
    """Canonical text form, which parse_trame inverts. A name holding
    whitespace or a '}' cannot be written (names a and a} in two classes
    would read back wrong), and ValueError names the first such name."""
    bad = next((s for s in t.names if re.search(r"[\s}]", s)), None)
    if bad is not None:
        raise ValueError(f"trame name {bad!r} holds whitespace or '}}'")
    lines = ["elements: " + " ".join(t.names)]
    for (u, v), w in sorted(t.op.items()):
        lines.append(f"compose: {t.names[u]} {t.names[v]} -> {t.names[w]}")
    k = max(r) + 1
    blocks = [[] for _ in range(k)]
    for i, lab in enumerate(r):
        blocks[lab].append(t.names[i])
    lines.append("classes: " + " ".join("{" + " ".join(b) + "}" for b in blocks))
    return "\n".join(lines) + "\n"


def _read_trame(path: str) -> tuple[Trame, tuple[int, ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trame(fh.read())


# --- verb handlers -----------------------------------------------------------


# the gen kinds and their positional argument counts; None: one or more
_GEN_ARITY = {"sym": 1, "cyc": 1, "coset": 2, "stab": 1, "s-family": None, "utumi": 3, "canon": 1}


def _cmd_gen(args) -> tuple[object, bool]:
    kind, arity, given = args.kind, _GEN_ARITY[args.kind], len(args.args)
    if arity is not None and given != arity:
        raise ParseError(f"gen {kind} takes {arity} argument{'s' * (arity > 1)}, got {given}")
    if kind in ("sym", "cyc"):
        k = _count(args.args[0], "args")
        check_carrier_size(symmetric_group_order(k, args.cap_group) if kind == "sym" else k)
        m = as_hypergroup(_load_group(f"{kind}:{k}", args.cap_group))
    elif kind == "stab":
        m = stabilizer_hypergroup(_count(args.args[0], "args"))
    elif kind == "coset":
        g = _load_group(args.args[0], args.cap_group)
        h = _load_subgroup(g, args.args[1])
        build = right_coset_hypergroup if args.side == "right" else left_coset_hypergroup
        m = build(g, h)
    elif kind == "s-family":
        m = s_family([_count(p, "args") for p in args.args])
    elif kind == "utumi":
        g = _load_group(args.args[0], args.cap_group)
        base = as_hypergroup(g)
        part = EquivalenceRelation(_parse_partition(args.args[1], g.names))
        zname = args.args[2]
        if zname not in g.names:
            raise ParseError(f"unknown zero element {zname!r}")
        m = utumi(UtumiInput(base, part, g.names.index(zname)))
    else:  # canon
        m = quotient(canonical_presentation(_read_structure(args.args[0]), args.cap_trame))
    return to_json(m), True


def _cmd_verify(args) -> tuple[object, bool]:
    m = _read_structure(args.file)
    rep = verify_axioms(m)
    nm = m.names
    return {
        "is_hypergroup": rep.is_hypergroup,
        "associative": rep.associative,
        "reproductive": rep.reproductive,
        "all_products_nonempty": rep.all_products_nonempty,
        "assoc_witness": [nm[i] for i in rep.assoc_witness] if rep.assoc_witness else None,
        "repro_witness": nm[rep.repro_witness] if rep.repro_witness is not None else None,
        "empty_witness": [nm[i] for i in rep.empty_witness] if rep.empty_witness else None,
    }, rep.is_hypergroup


def _cmd_simple(args) -> tuple[object, bool]:
    h = _read_hypergroup(args.file, args.cap_n)
    rep = simplicity_report(h, args.cap_n)
    return {
        "simple": rep.simple,
        "n": h.n,
        "partition_space": rep.checked,
        "congruences": rep.invariant_count,
        "witness": ([[h.names[i] for i in block] for block in rep.witness.blocks()]
                    if rep.witness is not None else None),
    }, rep.simple


def _cmd_simple_coset(args) -> tuple[object, bool]:
    g = _load_group(args.group, args.cap_group)
    rep = coset_simplicity_report(g, _load_subgroup(g, args.subgroup), args.cap_group)
    return {
        "simple": rep.simple,
        "subgroups_invariant": rep.invariant_count,
        "witness": ([g.names[i] for i in members(rep.witness.mask)]
                    if rep.witness is not None else None),
    }, rep.simple


def _cmd_reflets(args) -> tuple[object, bool]:
    rs = reflets(_read_hypergroup(args.file, args.cap_n), args.cap_n)
    return '{"count":%d,"reflets":[%s]}' % (len(rs), ",".join(map(to_json, rs))), True


def _cmd_iso(args) -> tuple[object, bool]:
    a = _read_structure(args.file1)
    b = _read_structure(args.file2)
    g = find_isomorphism(a, b)
    return {
        "isomorphic": g is not None,
        "bijection": [b.names[v] for v in g] if g is not None else None,
    }, g is not None


def _cmd_opposite(args) -> tuple[object, bool]:
    return to_json(opposite(_read_structure(args.file))), True


def _cmd_classify_s(args) -> tuple[object, bool]:
    sizes = [_count(p, "sizes") for p in args.sizes]
    cls = s_family_class(sizes)
    m = s_family(sizes)
    rep = verify_axioms(m)
    witness = rep.empty_witness or rep.assoc_witness
    return {"class": cls.name, "sizes": sizes,
            "witness": [m.names[i] for i in witness] if witness else None}, True


def _cmd_trame(args) -> tuple[object, bool]:
    t, r = _read_trame(args.file)
    if t.t_n > args.cap_trame:
        raise CapExceeded(f"trame size {t.t_n} exceeds cap {args.cap_trame}")
    p = Presentation(t, r)
    if args.action == "quotient":
        return to_json(quotient(p)), True
    if args.action == "adequate":
        rep = is_adequate(p)
        names = quotient(p).names
        return {
            "adequate": bool(rep),
            "reproductive": rep.reproductive,
            "associative": rep.associative,
            "repro_witness": [names[i] for i in rep.repro_witness] if rep.repro_witness else None,
            "assoc_witness": [names[i] for i in rep.assoc_witness] if rep.assoc_witness else None,
        }, bool(rep)
    # args.action == "invariant", the last of its choices
    if args.s is None:
        raise ParseError("trame invariant needs --s CLASSES")
    ok = is_invariant_modulo_equiv(t, r, _parse_partition(args.s, t.names))
    return {"invariant": ok}, ok


# verb: (handler, help line, positionals, options). A positional maps to its
# choices or None, and a last one named with a trailing '+' takes one or more
# arguments; an option, none a prefix of another, to its choices (the first
# the default), None for a string, or the int default of a cap, a count >= 1.
_VERBS = {
    "gen": (_cmd_gen, "emit a structure as JSON", {"kind": tuple(_GEN_ARITY), "args+": None},
            {"--cap-group": DEFAULT_GROUP_CAP, "--cap-trame": DEFAULT_TRAME_CAP,
             "--side": ("right", "left")}),
    "verify": (_cmd_verify, "check the hypergroup axioms", {"file": None}, {}),
    "simple": (_cmd_simple, "decide simplicity by search", {"file": None},
               {"--cap-n": DEFAULT_SIMPLICITY_CAP}),
    "simple-coset": (_cmd_simple_coset, "decide coset-structure simplicity on the subgroup side",
                     {"group": None, "subgroup": None}, {"--cap-group": DEFAULT_GROUP_CAP}),
    "reflets": (_cmd_reflets, "list quotients by all reflector congruences", {"file": None},
                {"--cap-n": DEFAULT_SIMPLICITY_CAP}),
    "iso": (_cmd_iso, "search for an isomorphism", {"file1": None, "file2": None}, {}),
    "opposite": (_cmd_opposite, "transpose the operation", {"file": None}, {}),
    "classify-s": (_cmd_classify_s, "classify S(n, sizes) parameters", {"sizes+": None}, {}),
    "trame": (_cmd_trame, "partial-operation files",
              {"action": ("quotient", "adequate", "invariant"), "file": None},
              {"--cap-trame": DEFAULT_TRAME_CAP, "--s": None}),
}


def _stop(verb: Optional[str], error: Optional[str] = None) -> NoReturn:
    """Exit as argparse does: 2 on a usage error, 0 on -h, after the usage line."""
    usage = "usage: hypergroups [-h] {" + ",".join(_VERBS) + "} ..."
    if verb is not None:
        _, _, positionals, options = _VERBS[verb]
        shown = {name: "{" + ",".join(spec) + "}" if isinstance(spec, tuple) else
                 name[2:].replace("-", "_").upper() if name[0] == "-" else
                 f"{name[:-1]} [{name[:-1]} ...]" if name[-1] == "+" else name
                 for name, spec in {**options, **positionals}.items()}
        usage = f"usage: hypergroups {verb} [-h] " + " ".join(
            [f"[{o} {shown[o]}]" for o in options] + [shown[p] for p in positionals])
    if error is not None:
        sys.stderr.write(f"{usage}\nhypergroups{' ' + verb if verb else ''}: error: {error}\n")
        sys.exit(2)
    lines = [f"  {n:<13} {entry[1]}" for n, entry in _VERBS.items() if verb in (None, n)]
    sys.stdout.write("\n".join([usage, "", *lines, ""]))
    sys.exit(0)


def _checked(verb: Optional[str], name: str, spec, value: str):
    if isinstance(spec, tuple) and value not in spec:
        _stop(verb, f"argument {name}: invalid choice: {value!r} "
                    f"(choose from {', '.join(map(repr, spec))})")
    try:
        return _count(value, name, 1) if isinstance(spec, int) else value
    except ParseError as e:
        _stop(verb, str(e))


def _expand(argv: Sequence[str], reads: Iterator[int]) -> Iterator[str]:
    """argv with each @FILE replaced by its lines, expanded in turn. reads counts
    the @FILEs of one command line, and the 101st is refused: a cycle, a chain
    or a tree of files stops there alike."""
    for arg in argv:
        if not arg.startswith("@"):
            yield arg
            continue
        if next(reads) == 100:
            raise ParseError("more than 100 @FILE arguments")
        try:
            with open(arg[1:], encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as e:
            _stop(None, str(e))
        yield from _expand(lines, reads)


def _read(token: str, names: Sequence[str], verb: Optional[str]):
    """How argparse reads token against the option names: None for a positional,
    else (option, the argument after its '=' or None), option None when unknown.
    A long option may be cut to a prefix of it alone; one of two is refused."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, tail = token.partition("=")
    found = [name for name in names if name == token or token[1] == "-" and name.startswith(head)]
    if len(found) > 1:
        _stop(verb, f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], tail if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, None)


def _parse_verb(verb: str, tokens: list[str]) -> tuple[SimpleNamespace, list[str]]:
    """One verb's fields read left to right as argparse reads them, and the rest."""
    fn, _, positionals, options = _VERBS[verb]
    values = {o: spec[0] if isinstance(spec, tuple) else spec for o, spec in options.items()}
    slots = list(positionals.items())
    cut = (tokens + ["--"]).index("--")  # after it, only positionals; the end reads as one
    read = [_read(t, ("-h", "--help", *options), verb) for t in tokens[:cut]]
    read += ["--"] + [None] * len(tokens[cut + 1:])
    given, extras, i, took, closed = [], [], 0, False, False
    while i < len(tokens):
        t, r = tokens[i], read[i]
        i += 1
        # a '+' positional takes one run of arguments, closed by an option
        room = len(given) < len(slots) or slots[-1][0].endswith("+") and not closed
        if r is None and room:
            given.append(_checked(verb, *slots[min(len(given), len(slots) - 1)], t))
        elif r is None or r == "--" and not (took or i < len(tokens) and room):
            extras.append(t)  # a '--' next to a positional is dropped
        elif r != "--":
            closed, (option, value) = len(given) >= len(slots), r
            if option is None:
                extras.append(t)
            elif option in ("-h", "--help"):
                _stop(verb)
            else:
                if value is None:
                    if read[i] is not None:
                        _stop(verb, f"argument {option}: expected one argument")
                    value, i = tokens[i], i + 1
                values[option] = _checked(verb, option, options[option], value)
        took = r is None and room
    missing = [name.rstrip("+") for name, _ in slots[len(given):]]
    if missing:
        _stop(verb, f"the following arguments are required: {', '.join(missing)}")
    values.update((name.rstrip("+"), given[j:] if name.endswith("+") else given[j])
                  for j, (name, _) in enumerate(slots))
    return SimpleNamespace(verb=verb, fn=fn, **{
        name.lstrip("-").replace("-", "_"): value for name, value in values.items()}), extras


def parse_args(argv: Optional[Sequence[str]] = None) -> SimpleNamespace:
    """argv (sys.argv[1:] by default) read against _VERBS as argparse read it."""
    tokens = list(_expand(sys.argv[1:] if argv is None else argv, itertools.count()))
    for i, t in enumerate(tokens + ["--"]):  # before the verb: -h, or unknown options
        if t == "--" or not (r := _read(t, ("-h", "--help"), None)):
            break
        if r[0] is not None:
            _stop(None)
    if tokens[i:] in ([], ["--"]):
        _stop(None, "the following arguments are required: verb")
    ns, extras = _parse_verb(_checked(None, "verb", tuple(_VERBS), tokens[i]), tokens[i + 1:])
    if tokens[:i] + extras:
        _stop(None, f"unrecognized arguments: {' '.join(tokens[:i] + extras)}")
    return ns


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(argv)
        out, verdict = args.fn(args)
        sys.stdout.write((out if isinstance(out, str) else json.dumps(out, separators=(",", ":")))
                         + "\n")
        return 0 if verdict else 1
    except (CapExceeded, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 3 if isinstance(e, CapExceeded) else 2
