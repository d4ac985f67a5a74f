"""The package imports only the standard library and its own modules."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trigbethe"


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
