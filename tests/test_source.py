"""Properties of the library's source text."""

import ast
import collections
import importlib
import pathlib
import re
import subprocess
import sys

import hypergroups

ROOT = pathlib.Path(__file__).resolve().parent.parent


def library_trees():
    for path in sorted(pathlib.Path(hypergroups.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def tracer_wrapped():
    """perfbench/tracer.py's WRAPPED: layer -> the names it patches."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"])


def identifiers(tree):
    """Every identifier the code reads or binds, by name only."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def attributes(tree):
    """Every name the code reads or binds as an attribute, .name."""
    return (node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_no_assert_statements_in_library():
    # cross-checks live in the tests: python -O strips asserts, and
    # otherwise every call pays for them
    found = []
    for name, tree in library_trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_function_local_imports():
    # the modules import each other without a cycle, so every import
    # sits at the top of its module
    found = set()
    for name, tree in library_trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(found) == []


def test_value_semantics_are_defined_only_in_frozen():
    # construction, equality, hashing and the trusted constructor have one
    # definition, core.Frozen's; Trame and Presentation go back to identity,
    # and the other constructors belong to the two exception classes
    value_methods = {"__init__", "__eq__", "__hash__", "_proved"}
    defined, assigned = [], []
    for name, tree in library_trees():
        owner = {id(node): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in value_methods):
                defined.append(f"{name}:{owner.get(id(node))}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {getattr(t, "id", getattr(t, "attr", None))
                         for target in targets for t in ast.walk(target)}
                if bound & value_methods:
                    assigned.append(f"{name}:{owner.get(id(node))}: {ast.unparse(node)}")
    assert sorted(defined) == ["core.py:Frozen.__eq__", "core.py:Frozen.__hash__",
                               "core.py:Frozen.__init__", "core.py:Frozen._proved",
                               "core.py:NotAHypergroup.__init__", "groups.py:GroupError.__init__"]
    identity = "__eq__, __hash__ = (object.__eq__, object.__hash__)"
    assert sorted(assigned) == [f"presentations.py:Presentation: {identity}",
                                f"presentations.py:Trame: {identity}"]


def call_sites(names):
    """Where src/ calls each of names, or an attribute of one (N.attr(...),
    keyed by attr): callee -> sorted module.function of the calls, the
    innermost function, or the module at top level."""
    calls = collections.defaultdict(list)
    for name, tree in library_trees():
        owner = {}
        for fn in ast.walk(tree):  # outer functions first: the innermost wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), f"{name[:-3]}.{fn.name}") for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f, where = node.func, owner.get(id(node), name[:-3])
                if isinstance(f, ast.Name) and f.id in names:
                    calls[f.id].append(where)
                elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                      and f.value.id in names):
                    calls[f.attr].append(where)
    return {k: sorted(v) for k, v in calls.items()}


def test_hypergroups_are_certified_only_where_the_table_comes_from_outside():
    # a table read from a file, or one that is a hypergroup only when a
    # presentation is adequate, goes through certify; a construction that
    # a theorem makes a hypergroup returns it through _proved, and the
    # axiom check it leaves out lives in the tests. No function builds a
    # Hypergroup by calling the class, which would check it again.
    assert call_sites({"Hypergroup"}) == {
        "certify": ["cli._read_hypergroup", "simplicity.presentation_simplicity"],
        "_proved": ["constructions._coset_structure", "constructions.stabilizer_hypergroup",
                    "groups.as_hypergroup", "simplicity.quotient_by"],
    }


def test_groups_are_checked_only_where_the_table_comes_from_outside():
    # a group a formula or a closure proof makes is returned through
    # GroupTable._proved; only a table read from a group file goes through
    # verify_group, the one caller of the checking constructor
    assert call_sites({"GroupTable", "verify_group"}) == {
        "_proved": ["groups.cyclic_group", "groups.dihedral_group",
                    "groups.from_permutations"],
        "GroupTable": ["groups.verify_group"],
        "verify_group": ["cli._load_group"],
    }


def test_blocks_become_labels_only_in_block_labels():
    # one reader from partition blocks to labels: the three refusals of a
    # partition are raised only in core, and only from_blocks and the CLI's
    # partition literal call core.block_labels, the function raising them
    refusals = (" in partition", " in two blocks", "partition elements missing from ")
    raised = collections.Counter()
    for name, tree in library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                raised.update((name, text) for c in ast.walk(node)
                              if isinstance(c, ast.Constant) and isinstance(c.value, str)
                              for text in refusals if text in c.value)
    assert raised == {("core.py", text): 1 for text in refusals}
    assert call_sites({"block_labels"}) == {
        "block_labels": ["cli._parse_partition", "core.from_blocks"]}


def test_command_line_counts_are_read_only_in_count():
    # one reader decides what a count is: int( is written in cli once,
    # inside _count, so every integer the command line holds goes through it
    text = (pathlib.Path(hypergroups.__file__).parent / "cli.py").read_text(encoding="utf-8")
    reader = re.search(r"^def _count\(.*?(?=^\S)", text, re.M | re.S)[0]
    assert re.findall(r"\bint\(", text) == re.findall(r"\bint\(", reader) == ["int("]


def test_tracer_wrapped_names_exist():
    # the traced benchmark replay patches every WRAPPED name with getattr,
    # so a name that no longer exists crashes it
    wrapped = tracer_wrapped()
    missing = [f"{mod}.{name}" for mod, names in wrapped.items() for name in names
               if not callable(getattr(importlib.import_module(f"hypergroups.{mod}"),
                                       name, None))]
    assert len(wrapped) == 6 and missing == []


def unreached_public_names(count_wrapped=True):
    """The public names of src/ that nothing reaches outside their own
    definition; count_wrapped=False leaves out the names that
    perfbench/tracer.py's WRAPPED spells as strings."""
    trees = dict(library_trees())
    others = [ast.parse(path.read_text(encoding="utf-8")) for path in
              [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]]
    reached, read = collections.Counter(), collections.Counter()
    for tree in [*trees.values(), *others]:
        reached.update(identifiers(tree))
        read.update(attributes(tree))
    if count_wrapped:
        reached.update(name for names in tracer_wrapped().values() for name in names)
    readme = (ROOT / "README.md").read_text(encoding="utf-8").split("```")
    spans = " ".join(readme[1::2] + [span for text in readme[0::2]
                                     for span in text.split("`")[1::2]])
    reached.update(re.findall(r"\w+", spans))
    read.update(re.findall(r"\.(\w+)", spans))
    unreached = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs = [(node.name, node, reached, identifiers)]
                defs += [(f"{node.name}.{m.name}", m, read, attributes) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                defs = [(node.name, node, reached, identifiers)]
            elif isinstance(node, ast.Assign):
                defs = [(t.id, node, reached, identifiers) for t in node.targets
                        if isinstance(t, ast.Name)]
            else:
                defs = []
            for qualname, d, count, names_in in defs:
                name = qualname.rpartition(".")[2]
                if not name.startswith("_") and count[name] == list(names_in(d)).count(name):
                    unreached.append(f"{file[:-3]}.{qualname}")
    return sorted(unreached)


def test_public_names_are_reached_outside_the_tests():
    # every public top-level name of the library, and every public method of
    # its classes, is reached outside its own definition: from the library,
    # scripts/*.py, perfbench/*.py (WRAPPED names some by string) or a code
    # span of README.md; what only the tests reach belongs in tests/.
    # Names are matched by spelling, not resolved. A top-level name counts
    # as reached when any identifier is spelled like it; a method only when
    # an attribute .name is, so a local variable order does not reach
    # Subgroup.order, though GroupTable.identity would still reach
    # EquivalenceRelation.identity. An allowed name that is reached, or no
    # longer defined, fails too.
    allowed = {
        "groups.is_normal": "the paper's group-side vocabulary",
        "groups.is_maximal": "the paper's group-side vocabulary",
        "groups.Subgroup.order": "the paper's |H|, read by the tests",
    }
    assert unreached_public_names() == sorted(allowed)


def test_names_reached_only_through_the_tracer():
    # these stay in src/ only because the traced benchmark replay patches
    # them by name; once WRAPPED stops naming them they move to tests/,
    # and this list shrinks with it
    only_wrapped = set(unreached_public_names(count_wrapped=False)) - set(unreached_public_names())
    assert sorted(only_wrapped) == ["constructions.s_family_group_realization",
                                    "constructions.utumi_is_associative",
                                    "core.is_reflector",
                                    "simplicity.invariant_modulo_subgroups"]


def test_modules_import_only_the_layers_below():
    # core, then groups and presentations on it, then simplicity and
    # constructions on those three, then cli on all five; the package's
    # __init__ imports nothing, so each name has one import path, its module
    layers = {
        "__init__": set(),
        "__main__": {"cli"},
        "core": set(),
        "groups": {"core"},
        "presentations": {"core"},
        "simplicity": {"core", "groups", "presentations"},
        "constructions": {"core", "groups", "presentations"},
        "cli": {"core", "groups", "presentations", "simplicity", "constructions"},
    }
    found = {name[:-3]: {node.module for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.level}
             for name, tree in library_trees()}
    assert found == layers
    src = pathlib.Path(hypergroups.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hypergroups; "
            "print(sorted(m for m in sys.modules if m.startswith('hypergroups.')))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_runtime_imports_only_the_standard_library():
    # the runtime is stdlib-only (dependencies = []): every import is
    # relative or names a top-level standard-library module
    found = []
    for name, tree in library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            found += [f"{name}:{node.lineno}:{top}" for top in tops
                      if top not in sys.stdlib_module_names]
    assert found == []


def test_startup_loads_no_dataclasses_inspect_or_argparse():
    # every invocation pays for what importing the command line and reading
    # a command line load; dataclasses alone brings in inspect, ast, dis and
    # tokenize, and argparse brings in gettext, whose first parser loads locale
    src = pathlib.Path(hypergroups.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hypergroups.cli as cli; "
            "cli.main(['classify-s', '3', '3']); "
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout == '{"class":"DHypergroup","sizes":[3,3],"witness":null}\n[]\n'
