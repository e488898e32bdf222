"""Package-wide checks: no floating point in the sources, no module-level
definition or method that only the tests reach, apart from the named
references that the package re-exports and the named uncalled methods, and
the README's library quick tour runs as printed."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import parafock

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


# Methods of module-level classes that no module calls, each kept for its
# callers outside the package.
UNCALLED_METHODS = {
    "VermaEngine.act": "the module action on vectors, which the tests of "
                       "the triple relations and contravariance apply",
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
