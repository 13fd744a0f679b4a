"""Properties of the library's source text."""

import ast
import importlib
import pathlib
import subprocess
import sys

import hypergroups


def library_trees():
    for path in sorted(pathlib.Path(hypergroups.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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
    # equality, hashing and the trusted constructor have one definition,
    # core.Frozen's; Trame and Presentation go back to identity
    value_methods = {"__eq__", "__hash__", "_proved"}
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
                               "core.py:Frozen._proved"]
    identity = "__eq__, __hash__ = (object.__eq__, object.__hash__)"
    assert sorted(assigned) == [f"presentations.py:Presentation: {identity}",
                                f"presentations.py:Trame: {identity}"]


def test_tracer_wrapped_names_exist():
    # the traced benchmark replay patches every WRAPPED name with getattr,
    # so a name that no longer exists crashes it
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"])
    missing = [f"{mod}.{name}" for mod, names in wrapped.items() for name in names
               if not callable(getattr(importlib.import_module(f"hypergroups.{mod}"),
                                       name, None))]
    assert len(wrapped) == 6 and missing == []


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
