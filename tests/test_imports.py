"""The package imports only the standard library and its own modules,
its command line starts without the introspection modules, and its
scalar protocol has no type branches."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "trigbethe"

# modules that no request needs and that cost start-up time:
# dataclasses imports inspect, which imports ast, dis and tokenize
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def foreign_imports(source: str, depth: int) -> list[str]:
    """The imports of a module that leave the standard library or, for a
    relative import, the package; depth is the module's nesting below the
    package root (1 for a module of the top-level package)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            if node.level > depth:
                out.append("." * node.level + (node.module or ""))
            continue
        else:
            continue
        out += [name for name in names
                if name.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        depth = len(path.relative_to(PACKAGE.parent).parts) - 1
        assert foreign_imports(path.read_text(encoding="utf-8"), depth) == [], path


def test_foreign_imports_flags_third_party_and_escaping_imports():
    source = ("import json, numpy.linalg\nfrom fractions import Fraction\n"
              "from .field import zeta\nfrom ..other import thing\n"
              "def f():\n    import sympy\n")
    assert foreign_imports(source, 1) == ["numpy.linalg", "..other", "sympy"]
    assert foreign_imports(source, 2) == ["numpy.linalg", "sympy"]


def unused_imports(source: str) -> list[str]:
    """The names a module imports, at any depth, and never reads.  A name
    is read where it appears as an identifier anywhere in the module,
    inside a string that parses as an expression (a string type hint)
    too; __future__ imports and star imports bind nothing to read."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names
                      if alias.name != "*"]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                hint = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(hint) if isinstance(n, ast.Name))
    return [name for name in bound if name not in read]


def test_package_modules_read_every_import():
    # a package __init__ imports to re-export
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    for path in modules:
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path


def test_unused_imports_flags_a_seeded_import():
    source = ("from __future__ import annotations\nimport os.path, re as regex\n"
              "from typing import Iterable, Sequence\n"
              "def f(x: 'Sequence[int]') -> None:\n"
              "    from fractions import Fraction\n    import json\n"
              "    return os.sep, Fraction\n")
    assert unused_imports(source) == ["regex", "Iterable", "json"]
    # the same guard, on a package module with one import seeded into it
    layers = (PACKAGE / "layers.py").read_text(encoding="utf-8")
    assert unused_imports(layers) == []
    assert unused_imports("import heapq\n" + layers) == ["heapq"]


def introspection_at_start_up(statement: str) -> list[str]:
    """The INTROSPECTION modules that running statement adds to a fresh
    interpreter started with PYTHONPATH=src."""
    script = ("import sys\nbare = set(sys.modules)\n" + statement +
              "\nprint(*sorted(set(sys.modules) - bare))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return [name for name in INTROSPECTION if name in out]


def test_cli_start_up_loads_no_introspection_module():
    assert introspection_at_start_up("import trigbethe.cli") == []


def test_introspection_at_start_up_flags_a_seeded_import():
    assert "dataclasses" in introspection_at_start_up(
        "import trigbethe.cli, dataclasses")


def type_branches(source: str, name: str) -> list[str]:
    """name:line and construct of each type branch in the module source
    called name: a hasattr call anywhere, and outside field.py an
    isinstance test against FieldElement (bare, dotted or in a tuple).
    The point construction reads any ring through its scalar protocol,
    so only the field itself may ask whether a value is one of its
    elements."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "hasattr":
            out.append((node.lineno, "hasattr"))
        elif node.func.id == "isinstance" and name != "field.py" and \
                len(node.args) == 2:
            named = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node.args[1])
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            if "FieldElement" in named:
                out.append((node.lineno, "isinstance FieldElement"))
    return [f"{name}:{line} {what}" for line, what in sorted(out)]


def test_package_makes_no_type_branch():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        assert type_branches(path.read_text(encoding="utf-8"), path.name) == []


def test_type_branches_flags_seeded_constructs():
    source = ("from . import field\nfrom .field import FieldElement\n"
              "def f(u, v):\n    if hasattr(u, 'coeffs'):\n        return 1\n"
              "    if isinstance(u, FieldElement):\n        return 2\n"
              "    if isinstance(v, (int, field.FieldElement)):\n"
              "        return 3\n    return isinstance(u, int)\n")
    assert type_branches(source, "bethe.py") == [
        "bethe.py:4 hasattr", "bethe.py:6 isinstance FieldElement",
        "bethe.py:8 isinstance FieldElement"]
    # field.py may test for its own elements, never probe with hasattr
    assert type_branches(source, "field.py") == ["field.py:4 hasattr"]
    # the same guard, on a package module with one branch seeded into it
    poly = (PACKAGE / "poly.py").read_text(encoding="utf-8")
    seeded = poly.replace("        return Poly.constant(self.nvars, other)",
                          "        if hasattr(other, 'coeffs'):\n"
                          "            return Poly.constant(self.nvars, other)")
    line = 1 + poly.count("\n", 0, poly.index("Poly.constant(self.nvars, other)"))
    assert type_branches(poly, "poly.py") == []
    assert type_branches(seeded, "poly.py") == [f"poly.py:{line} hasattr"]
