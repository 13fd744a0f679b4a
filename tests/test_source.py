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


def test_tracer_wrapped_names_exist():
    # the traced benchmark replay patches every WRAPPED name with getattr,
    # so a name that no longer exists crashes it
    wrapped = tracer_wrapped()
    missing = [f"{mod}.{name}" for mod, names in wrapped.items() for name in names
               if not callable(getattr(importlib.import_module(f"hypergroups.{mod}"),
                                       name, None))]
    assert len(wrapped) == 6 and missing == []


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
        "core.Mapping.pre": "goes to the tests with Mapping once the tracer stops wrapping is_reflector",
    }
    trees = dict(library_trees())
    others = [ast.parse(path.read_text(encoding="utf-8")) for path in
              [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]]
    reached, read = collections.Counter(), collections.Counter()
    for tree in [*trees.values(), *others]:
        reached.update(identifiers(tree))
        read.update(attributes(tree))
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
    assert sorted(unreached) == sorted(allowed)


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


def test_startup_loads_neither_dataclasses_nor_inspect():
    # every invocation pays for what importing the command line loads;
    # dataclasses alone brings in inspect, ast, dis and tokenize
    src = pathlib.Path(hypergroups.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hypergroups.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
