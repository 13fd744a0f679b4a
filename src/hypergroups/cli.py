"""Command-line front end.

Verbs: gen, verify, simple, simple-coset, reflets, iso, opposite,
classify-s, trame. Structures travel as canonical JSON on stdout; all
diagnostics go to stderr. Exit codes: 0 computed (or positive verdict),
1 negative verdict from a predicate verb, 2 malformed input, 3 a size
cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Container, Optional, Sequence

from .core import (
    CapExceeded,
    EquivalenceRelation,
    Hypergroup,
    Multistructure,
    ParseError,
    check_carrier_size,
    find_isomorphism,
    from_json,
    is_group,
    json_obj,
    mask_of,
    members,
    opposite,
    restricted_growth,
    verify_axioms,
)
from .groups import (
    DEFAULT_GROUP_CAP,
    GroupError,
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


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _read_structure(path: str) -> Multistructure:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def _read_hypergroup(path: str, cap_n: int) -> Hypergroup:
    """A structure for congruence search, refused by size before certify."""
    m = _read_structure(path)
    if m.n > cap_n:
        raise CapExceeded(f"carrier size {m.n} exceeds simplicity cap {cap_n}")
    return Hypergroup.certify(m)


def _parse_brace_list(token: str, known: Container[str]) -> list[str]:
    """Names in a brace list like {a,b} or {a b}.

    Entries are separated by whitespace; an entry that is not a known
    name is split on commas, so names that hold commas stay whole.
    """
    token = token.strip()
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError(f"expected a brace list like {{a,b}}, got {token!r}")
    inner = token[1:-1].strip()
    if not inner:
        raise ParseError("empty brace list")
    parts = []
    for entry in inner.split():
        parts += [entry] if entry in known else [p for p in entry.split(",") if p]
    return parts


def _split_blocks(literal: str) -> list[str]:
    """Split a partition literal on the '|' characters outside braces."""
    chunks, start, inside = [], 0, False
    for i, ch in enumerate(literal):
        if ch in "{}":
            inside = ch == "{"
        elif ch == "|" and not inside:
            chunks.append(literal[start:i])
            start = i + 1
    chunks.append(literal[start:])
    return chunks


def _parse_partition(literal: str, names: Sequence[str]) -> EquivalenceRelation:
    """Blocks like {0}|{1,4,7}|{2,3,5,6} over element names."""
    index = {s: i for i, s in enumerate(names)}
    blocks = []
    for chunk in _split_blocks(literal):
        block = []
        for name in _parse_brace_list(chunk, index):
            if name not in index:
                raise ParseError(f"unknown element name {name!r} in partition")
            block.append(index[name])
        blocks.append(block)
    try:
        return EquivalenceRelation.from_blocks(len(names), blocks)
    except ValueError as e:
        raise ParseError(f"bad partition: {e}") from None


def _load_group(arg: str, cap: int) -> GroupTable:
    """sym:M, cyc:M, or a path to a univalent structure in JSON."""
    if arg.startswith("sym:"):
        return symmetric_group(int(arg[4:]), cap)
    if arg.startswith("cyc:"):
        order = int(arg[4:])
        check_group_order(order, cap)
        return cyclic_group(order)
    ms = _read_structure(arg)
    if not is_group(ms):
        raise GroupError("range", "file structure is not univalent")
    check_group_order(ms.n, cap)
    return verify_group([[e.bit_length() - 1 for e in row] for row in ms.table], ms.names)


def _load_subgroup(g: GroupTable, arg: str) -> Subgroup:
    """stab:P (permutation groups only) or an explicit list {names}."""
    if arg.startswith("stab:"):
        return stabilizer_subgroup(g, int(arg[5:]))
    index = {s: i for i, s in enumerate(g.names)}
    elems = []
    for name in _parse_brace_list(arg, index):
        if name not in index:
            raise ParseError(f"unknown group element {name!r}")
        elems.append(index[name])
    return Subgroup(g, mask_of(elems))


# --- trame DSL ---------------------------------------------------------------


def parse_trame(text: str) -> tuple[Trame, tuple[int, ...]]:
    """Line-oriented trame files.

    elements: a b c
    compose: a b -> c
    classes: {a b} {c}

    Blank lines and lines starting with # are skipped. The classes line
    defines the presentation's equivalence; like the elements line it
    separates names by whitespace only, so names may hold commas.
    """
    names: Optional[list[str]] = None
    index: dict[str, int] = {}
    op: dict[tuple[int, int], int] = {}
    labels: Optional[list[int]] = None
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
            body = line[len("compose:"):]
            if "->" not in body:
                raise ParseError(f"line {ln}: compose needs 'u v -> w'")
            left, _, right = body.partition("->")
            args = left.split()
            target = right.split()
            if len(args) != 2 or len(target) != 1:
                raise ParseError(f"line {ln}: compose needs 'u v -> w'")
            for s in args + target:
                if s not in index:
                    raise ParseError(f"line {ln}: unknown element name {s!r}")
            u, v, w = index[args[0]], index[args[1]], index[target[0]]
            if (u, v) in op and op[u, v] != w:
                raise ParseError(f"line {ln}: conflicting product for "
                                 f"{args[0]} {args[1]}")
            op[u, v] = w
        elif line.startswith("classes:"):
            if names is None:
                raise ParseError(f"line {ln}: classes before elements")
            if labels is not None:
                raise ParseError(f"line {ln}: duplicate classes line")
            body = line[len("classes:"):].strip()
            labels = [-1] * len(names)
            block_no = 0
            pos = 0
            while pos < len(body):
                if body[pos].isspace():
                    pos += 1
                    continue
                if body[pos] != "{":
                    raise ParseError(f"line {ln}: expected '{{' in classes")
                end = body.find("}", pos)
                if end == -1:
                    raise ParseError(f"line {ln}: unterminated block")
                for s in body[pos + 1:end].split():
                    if s not in index:
                        raise ParseError(f"line {ln}: unknown element name {s!r}")
                    if labels[index[s]] != -1:
                        raise ParseError(f"line {ln}: element {s!r} in two blocks")
                    labels[index[s]] = block_no
                block_no += 1
                pos = end + 1
            missing = [names[i] for i, lab in enumerate(labels) if lab == -1]
            if missing:
                raise ParseError(f"line {ln}: elements missing from classes: "
                                 + " ".join(missing))
        else:
            raise ParseError(f"line {ln}: unrecognized line {line.split(':')[0]!r}")
    if names is None:
        raise ParseError("no elements line")
    if labels is None:
        raise ParseError("no classes line")
    return Trame(tuple(names), op), restricted_growth(labels)


def format_trame(t: Trame, r: Sequence[int]) -> str:
    """Canonical text form; parse_trame inverts it exactly."""
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


def _cmd_gen(args) -> int:
    kind, arity, given = args.kind, _GEN_ARITY[args.kind], len(args.args)
    if arity is not None and given != arity:
        raise ParseError(f"gen {kind} takes {arity} argument{'s' * (arity > 1)}, got {given}")
    if kind == "sym":
        degree = int(args.args[0])
        check_carrier_size(symmetric_group_order(degree, args.cap_group))
        m = as_hypergroup(symmetric_group(degree, args.cap_group))
    elif kind == "cyc":
        order = int(args.args[0])
        check_carrier_size(order)
        check_group_order(order, args.cap_group)
        m = as_hypergroup(cyclic_group(order))
    elif kind == "stab":
        m = stabilizer_hypergroup(int(args.args[0]))
    elif kind == "coset":
        g = _load_group(args.args[0], args.cap_group)
        h = _load_subgroup(g, args.args[1])
        build = right_coset_hypergroup if args.side == "right" else left_coset_hypergroup
        m = build(g, h)
    elif kind == "s-family":
        m = s_family([int(p) for p in args.args])
    elif kind == "utumi":
        g = _load_group(args.args[0], args.cap_group)
        base = as_hypergroup(g)
        part = _parse_partition(args.args[1], g.names)
        zname = args.args[2]
        if zname not in g.names:
            raise ParseError(f"unknown zero element {zname!r}")
        m = utumi(UtumiInput(base, part, g.names.index(zname)))
    else:  # canon
        m = quotient(canonical_presentation(_read_structure(args.args[0]), args.cap_trame))
    _emit(json_obj(m))
    return 0


def _cmd_verify(args) -> int:
    m = _read_structure(args.file)
    rep = verify_axioms(m)
    nm = m.names
    _emit({
        "is_hypergroup": rep.is_hypergroup,
        "associative": rep.associative,
        "reproductive": rep.reproductive,
        "all_products_nonempty": rep.all_products_nonempty,
        "assoc_witness": [nm[i] for i in rep.assoc_witness] if rep.assoc_witness else None,
        "repro_witness": nm[rep.repro_witness] if rep.repro_witness is not None else None,
        "empty_witness": [nm[i] for i in rep.empty_witness] if rep.empty_witness else None,
    })
    return 0 if rep.is_hypergroup else 1


def _cmd_simple(args) -> int:
    h = _read_hypergroup(args.file, args.cap_n)
    rep = simplicity_report(h, args.cap_n)
    _emit({
        "simple": rep.simple,
        "n": h.n,
        "partition_space": rep.checked,
        "congruences": rep.invariant_count,
        "witness": ([[h.names[i] for i in block] for block in rep.witness.blocks()]
                    if rep.witness is not None else None),
    })
    return 0 if rep else 1


def _cmd_simple_coset(args) -> int:
    g = _load_group(args.group, args.cap_group)
    rep = coset_simplicity_report(g, _load_subgroup(g, args.subgroup), args.cap_group)
    _emit({
        "simple": rep.simple,
        "subgroups_invariant": rep.invariant_count,
        "witness": ([g.names[i] for i in members(rep.witness.mask)]
                    if rep.witness is not None else None),
    })
    return 0 if rep else 1


def _cmd_reflets(args) -> int:
    rs = reflets(_read_hypergroup(args.file, args.cap_n), args.cap_n)
    _emit({"count": len(rs), "reflets": [json_obj(q) for q in rs]})
    return 0


def _cmd_iso(args) -> int:
    a = _read_structure(args.file1)
    b = _read_structure(args.file2)
    g = find_isomorphism(a, b)
    _emit({
        "isomorphic": g is not None,
        "bijection": [b.names[v] for v in g] if g is not None else None,
    })
    return 0 if g is not None else 1


def _cmd_opposite(args) -> int:
    m = _read_structure(args.file)
    _emit(json_obj(opposite(m)))
    return 0


def _cmd_classify_s(args) -> int:
    sizes = [int(p) for p in args.sizes]
    cls = s_family_class(sizes)
    m = s_family(sizes)
    rep = verify_axioms(m)
    witness = rep.empty_witness or rep.assoc_witness
    _emit({"class": cls.name, "sizes": sizes,
           "witness": [m.names[i] for i in witness] if witness else None})
    return 0


def _cmd_trame(args) -> int:
    t, r = _read_trame(args.file)
    if t.t_n > args.cap_trame:
        raise CapExceeded(f"trame size {t.t_n} exceeds cap {args.cap_trame}")
    p = Presentation(t, r)
    if args.action == "quotient":
        _emit(json_obj(quotient(p)))
        return 0
    if args.action == "adequate":
        rep = is_adequate(p)
        names = quotient(p).names
        _emit({
            "adequate": bool(rep),
            "reproductive": rep.reproductive,
            "associative": rep.associative,
            "repro_witness": [names[i] for i in rep.repro_witness] if rep.repro_witness else None,
            "assoc_witness": [names[i] for i in rep.assoc_witness] if rep.assoc_witness else None,
        })
        return 0 if rep else 1
    # args.action == "invariant", the last of its choices
    if args.s is None:
        raise ParseError("trame invariant needs --s CLASSES")
    part = _parse_partition(args.s, t.names)
    ok = is_invariant_modulo_equiv(t, r, tuple(part.class_of))
    _emit({"invariant": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    # one parent per cap, so each verb accepts only the caps it reads
    cap_n = argparse.ArgumentParser(add_help=False)
    cap_n.add_argument("--cap-n", type=int, default=DEFAULT_SIMPLICITY_CAP,
                       help="carrier cap for congruence search (default 12)")
    cap_group = argparse.ArgumentParser(add_help=False)
    cap_group.add_argument("--cap-group", type=int, default=DEFAULT_GROUP_CAP,
                           help="group order cap (default 120)")
    cap_trame = argparse.ArgumentParser(add_help=False)
    cap_trame.add_argument("--cap-trame", type=int, default=DEFAULT_TRAME_CAP,
                           help="trame carrier cap (default 65536)")

    ap = argparse.ArgumentParser(
        prog="hypergroups",
        description="finite hypergroups: generators, verifiers, simplicity deciders")
    sub = ap.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", parents=[cap_group, cap_trame], help="emit a structure as JSON")
    g.add_argument("kind", choices=list(_GEN_ARITY))
    g.add_argument("args", nargs="+")
    g.add_argument("--side", choices=["right", "left"], default="right")
    g.set_defaults(fn=_cmd_gen)

    v = sub.add_parser("verify", help="check the hypergroup axioms")
    v.add_argument("file")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("simple", parents=[cap_n], help="decide simplicity by search")
    s.add_argument("file")
    s.add_argument("--method", choices=["brute"], default="brute")
    s.set_defaults(fn=_cmd_simple)

    sc = sub.add_parser("simple-coset", parents=[cap_group],
                        help="decide coset-structure simplicity on the subgroup side")
    sc.add_argument("group")
    sc.add_argument("subgroup")
    sc.set_defaults(fn=_cmd_simple_coset)

    rf = sub.add_parser("reflets", parents=[cap_n],
                        help="list quotients by all reflector congruences")
    rf.add_argument("file")
    rf.set_defaults(fn=_cmd_reflets)

    i = sub.add_parser("iso", help="search for an isomorphism")
    i.add_argument("file1")
    i.add_argument("file2")
    i.set_defaults(fn=_cmd_iso)

    o = sub.add_parser("opposite", help="transpose the operation")
    o.add_argument("file")
    o.set_defaults(fn=_cmd_opposite)

    c = sub.add_parser("classify-s", help="classify S(n, sizes) parameters")
    c.add_argument("sizes", nargs="+")
    c.set_defaults(fn=_cmd_classify_s)

    t = sub.add_parser("trame", parents=[cap_trame], help="partial-operation files")
    t.add_argument("action", choices=["quotient", "adequate", "invariant"])
    t.add_argument("file")
    t.add_argument("--s", default=None,
                   help="coarser partition literal for 'invariant'")
    t.set_defaults(fn=_cmd_trame)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
