"""Package-wide checks: no floating point in the sources, no import from
outside the standard library, no module-level definition or method that
only the tests reach, apart from the named references that the package
re-exports and the named uncalled methods, a start-up that leaves the
modules only some calls need unimported, and the README's library quick
tour runs as printed."""

import ast
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import parafock
from parafock.cli import main

PACKAGE = Path(parafock.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"


def float_uses(tree):
    """(line, what) for each float literal, use of the name float, __float__
    method or math.sqrt in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "float"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "__float__":
            yield node.lineno, "__float__"
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "math":
            yield node.lineno, "math.sqrt"
        elif isinstance(node, ast.ImportFrom) and node.module == "math" \
                and any(alias.name == "sqrt" for alias in node.names):
            yield node.lineno, "from math import sqrt"


def test_float_scan_sees_each_form():
    src = ("import math\nfrom math import sqrt\nx = 0.5\ny = float(1)\n"
           "z = math.sqrt(2)\nclass A:\n    def __float__(self):\n"
           "        return 1\n")
    kinds = [what for _, what in float_uses(ast.parse(src))]
    assert sorted(kinds) == sorted(["from math import sqrt",
                                    "float literal 0.5", "float",
                                    "math.sqrt", "__float__"])


def test_package_has_no_floating_point():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{line}: {what}" for path in modules
             for line, what in float_uses(ast.parse(path.read_text()))]
    assert found == []


def absolute_imports(tree):
    """(line, top-level module name) for each absolute import in a parsed
    module, at any depth; relative imports are left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_import_scan_sees_each_form():
    src = ("from __future__ import annotations\nimport os.path, numpy as np\n"
           "from typing import NamedTuple\nfrom . import verma\n"
           "from .symfunc import conjugate\ndef f():\n    import sympy.core\n")
    found = sorted(absolute_imports(ast.parse(src)))
    assert found == [(1, "__future__"), (2, "numpy"), (2, "os"),
                     (3, "typing"), (7, "sympy")]
    assert [name for _, name in found
            if name not in sys.stdlib_module_names] == ["numpy", "sympy"]


def test_package_imports_only_the_standard_library():
    """The core stays dependency-free: every absolute import in the package
    names a module of the standard library."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{line}: {name}" for path in modules
             for line, name in absolute_imports(ast.parse(path.read_text()))
             if name not in sys.stdlib_module_names]
    assert found == []


# Imported on first use only: dataclasses (with the inspect, ast and dis it
# pulls in) is not used, and only --format csv reads csv.
NOT_AT_START_UP = ("csv", "dataclasses", "inspect")

START_UP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import parafock.cli
print(sorted(set(sys.argv[2:]) & set(sys.modules)))
sys.exit(parafock.cli.main(["gk-table", "--m", "1", "--n", "1", "--p", "1",
                            "--levels", "1", "--format", "csv"]))
"""


def test_cli_start_up_leaves_dataclasses_inspect_and_csv_unimported(capsys):
    """A fresh interpreter without site imports the CLI without the
    NOT_AT_START_UP modules; its --format csv call then prints the CSV
    projection of the JSON records."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_UP_CHILD, str(PACKAGE.parent),
         *NOT_AT_START_UP], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, _, projection = proc.stdout.partition("\n")
    assert loaded == "[]"
    assert main(["gk-table", "--m", "1", "--n", "1", "--p", "1",
                 "--levels", "1"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    header, *rows = csv.reader(io.StringIO(projection))
    assert len(rows) == len(records) > 1
    assert [{k: json.loads(cell) for k, cell in zip(header, row) if cell}
            for row in rows] == records


def unreferenced_definitions(sources):
    """(module, line, name) for each module-level def or class of the
    {module name: source} map, and each method ("Class.method") of a
    module-level class, that nothing references.

    A module-level definition counts as referenced only by name in its own
    module, in a from-import from its own module (so parafock/__init__.py's
    imports count), or as an attribute of a name bound to its module, as
    `from . import patterns as gz` binds gz; a same-named attribute of any
    other object does not count.  A method counts where any module reads
    it as an attribute or a string names it, as VermaEngine.__init__ names
    the methods it caches; dunder methods are left out, Python calls them."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set()       # (module, name) of the module-level references
    attributes = set()
    strings = set()
    for module, tree in trees.items():
        bound = {}     # name -> the module a relative import binds it to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    used.update((node.module, alias.name)
                                for alias in node.names)
                else:
                    bound.update((alias.asname or alias.name, alias.name)
                                 for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) \
                        and node.value.id in bound:
                    used.add((bound[node.value.id], node.attr))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                strings.add(node.value)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)) \
                    and (module, node.name) not in used:
                found.append((module, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(module, item.lineno, f"{node.name}.{item.name}")
                          for item in node.body
                          if isinstance(item, functions)
                          and not (item.name.startswith("__")
                                   and item.name.endswith("__"))
                          and item.name not in attributes | strings]
    return found


def test_unreferenced_scan_sees_each_form():
    sources = {
        "a": "def by_attr(): pass\ndef by_import(): pass\n"
             "def by_name(): pass\nx = by_name()\n"
             "def unused(): pass\nclass Unused:\n"
             "    def method(self): pass\n",
        "b": "from . import a\nfrom .a import by_import\na.by_attr()\n",
    }
    assert unreferenced_definitions(sources) == [
        ("a", 5, "unused"), ("a", 6, "Unused"), ("a", 7, "Unused.method")]


def test_unreferenced_scan_counts_only_references_to_the_module():
    """A module-level definition is not referenced by a same-named
    attribute of another object, nor by a same-named name or from-import
    elsewhere; an attribute of an alias bound to its module counts."""
    sources = {
        "a": "def cartan(): pass\ndef by_alias(): pass\n",
        "b": "from . import a as alias\nfrom .c import cartan\n"
             "alias.by_alias()\ndef read(rec):\n    return rec.cartan\n"
             "read(cartan)\n",
        "c": "cartan = 1\n",
    }
    assert unreferenced_definitions(sources) == [("a", 1, "cartan")]


def test_unreferenced_scan_sees_a_test_only_method():
    """A method of a used class that only a test would call is reported;
    one read as an attribute, named by a string or a dunder is not."""
    sources = {
        "a": "class Engine:\n"
             "    def __init__(self):\n"
             "        setattr(self, 'by_string', None)\n"
             "    def by_attr(self): pass\n"
             "    def by_string(self): pass\n"
             "    def test_only(self): pass\n",
        "b": "from .a import Engine\nEngine().by_attr()\n",
    }
    assert unreferenced_definitions(sources) == [
        ("a", 6, "Engine.test_only")]


# Methods of module-level classes that no module calls.  A validated
# NamedTuple's _make builds through its checking __new__, so that _make and
# _replace (which calls _make) validate too; the scan does not follow the
# inherited _replace.
UNCALLED_METHODS = {
    f"{name}._make": "the validating _make of a NamedTuple"
    for name in ("GeneratorId", "GZPattern", "ParsingVariant",
                 "SignedSqrtRational")
}


def test_package_defines_nothing_only_tests_reach():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert "__init__" in sources
    found = {name for _, _, name in unreferenced_definitions(sources)}
    assert found == set(UNCALLED_METHODS)


# Module-level definitions that only parafock/__init__.py's re-exports
# reach: no command calls them, and each is a reference the tests compare
# a command's path with.
EXPORT_ONLY = {
    "gram_blocks_up_to": "every content's own block, the walk the orbit "
                         "walk is tested against",
    "lr_coefficient": "one LR coefficient, the reference for the LR tableau "
                      "counts the character identity sums",
    "has_arm_leg_offset": "the Frobenius arm-leg test that "
                          "offset_family_partitions is checked against",
    "pattern_weight": "a validated pattern's doubled weight, which the "
                      "tests of the vacuum shift and the diagonal labels read",
    "cartan": "the Cartan element h_k, which the tests of [c_j^+, c_j^-] "
              "compare against",
}


def test_export_only_definitions_are_the_named_references():
    """Without __init__.py, whose from-imports re-export the API, exactly
    the EXPORT_ONLY names and the UNCALLED_METHODS are unreferenced; each
    EXPORT_ONLY name is still exported."""
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    found = {name for _, _, name in unreferenced_definitions(sources)}
    assert found == set(EXPORT_ONLY) | set(UNCALLED_METHODS)
    assert all(hasattr(parafock, name) for name in EXPORT_ONLY)


def readme_quick_tour():
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block in the quick tour"
    return match.group(1)


def test_readme_quick_tour_runs():
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", readme_quick_tour()],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
