"""Every memoizing site of the package is listed here, with its reason.

Finite data of a type lives in its RootSystem's tables (RootSystem.memo);
a decorator that keeps values elsewhere is a second cache, so each one
the package has is named below and a new one fails the guard.  Each
table the RootSystem docstring lists is filled at exactly one
rs.memo("<table>", ...) call, and no call fills a table it does not list.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from trigbethe.roots import RootSystem

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trigbethe"

MEMOIZERS = {"cache", "cached_property", "lru_cache"}

SITES = {
    "bethe.XPoint.residuals": "a value of one point, kept on the point",
    "bethe.XPoint.reduced": "a value of one point, kept on the point",
    "roots.RootSystem.weyl_order": "one integer of the type, on its root "
                                   "system",
    "roots._of_type": "the one RootSystem of a type, which owns the tables",
    "field.cyclotomic_polynomial": "integer coefficients per order, shared "
                                   "by every field of that order",
    "spin.chain_operators": "the constant integer operators of an n-site "
                            "chain, per n",
    "cli.build_parser": "the argument parser, built once per process",
}


def memo_sites(source: str, module: str) -> list[str]:
    """The qualified names (module.Class.function) at which a functools
    memoizer is applied, as a decorator or a call, however it is spelled:
    imported by name or alias, or read off the module or an alias of it.
    A call outside any function or class is named after the module."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name in MEMOIZERS}

    def memoizer(expr) -> bool:
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Name):
            return expr.id in names
        return (isinstance(expr, ast.Attribute) and expr.attr in MEMOIZERS
                and isinstance(expr.value, ast.Name)
                and expr.value.id in modules)

    out = []

    def visit(nodes, scope: str) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                inner = f"{scope}.{node.name}"
                if any(map(memoizer, node.decorator_list)):
                    out.append(inner)
                visit(node.body, inner)
            else:
                if isinstance(node, ast.Call) and memoizer(node.func):
                    out.append(scope)
                visit(ast.iter_child_nodes(node), scope)

    visit(tree.body, module)
    return out


def test_package_memoizes_only_at_the_listed_sites():
    modules = sorted(p for p in PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = []
    for path in modules:
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        found += memo_sites(path.read_text(encoding="utf-8"), module)
    assert sorted(found) == sorted(SITES)


def test_memo_sites_flags_every_spelling():
    source = ("import functools\nimport functools as ft\n"
              "from functools import cached_property, lru_cache as lc\n"
              "from functools import reduce\n"
              "class A:\n    @cached_property\n    def x(self): ...\n"
              "    @functools.cached_property\n    def y(self): ...\n"
              "    def z(self): ...\n"
              "@ft.cache\ndef f(): ...\n@lc(maxsize=None)\ndef g(): ...\n"
              "@functools.lru_cache\ndef h(): ...\n"
              "@reduce\ndef k(): ...\n"
              "def m():\n    return ft.cache(len)\n"
              "n = functools.cache(len)\n")
    assert memo_sites(source, "mod") == [
        "mod.A.x", "mod.A.y", "mod.f", "mod.g", "mod.h", "mod.m", "mod"]
    # a cached_property seeded into a package module is flagged
    layers = (PACKAGE / "layers.py").read_text(encoding="utf-8")
    assert memo_sites(layers, "layers") == []
    seeded = layers.replace(
        "class Layer(NamedTuple):",
        "from functools import cached_property\n\n\n"
        "class Layer(NamedTuple):\n"
        "    @cached_property\n    def seeded(self):\n        return 1\n", 1)
    assert seeded != layers
    assert memo_sites(seeded, "layers") == ["layers.Layer.seeded"]


def memo_tables(source: str) -> list:
    """The table every .memo(...) call names, in source order; None for a
    call whose table is not a string literal."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "memo":
            table = node.args[0] if node.args else None
            out.append(table.value if isinstance(table, ast.Constant)
                       and isinstance(table.value, str) else None)
    return out


def table_faults(sources: dict[str, str]) -> list[str]:
    """The tables, by name, that the RootSystem docstring lists but that
    are not filled at exactly one memo call of sources, or that a call
    fills but the docstring does not list."""
    listed = re.findall(r'^    - "(\w+)"', RootSystem.__doc__, re.M)
    sites = Counter(table for source in sources.values()
                    for table in memo_tables(source))
    return sorted(str(table) for table in set(sites) | set(listed)
                  if sites[table] != 1 or table not in listed)


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.rglob("*.py"))}


def test_each_listed_table_has_one_memo_site():
    sources = _package_sources()
    assert sum(len(memo_tables(source)) for source in sources.values()) == 14
    assert table_faults(sources) == []


def test_table_faults_flags_a_second_or_unlisted_site():
    sources = _package_sources()
    roots = sources["roots.py"]
    # a second site of a listed table, or a site of a table not listed
    for seeded, fault in (('rs.memo("chain", (), tuple)', "chain"),
                          ('rs.memo("word", (), tuple)', "word"),
                          ('rs.memo(name, (), tuple)', "None")):
        sources["roots.py"] = \
            f"{roots}\n\ndef seeded(rs):\n    return {seeded}\n"
        assert table_faults(sources) == [fault]
