"""Every parameter with a default in the package is listed here, with a
call that sets it to another value.

A default that no caller varies is a second calling convention that only
the tests reach, so each one the package has is named below, with the
call that passes the parameter, and a new one fails the guard.  Outside
the package only the benchmark worker is named: it calls cli.main with
argv, as every in-process caller does, while the console script passes
none.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trigbethe"

# "module.function(parameter)": (the calling module.function, why the
# default stays)
DEFAULTS = {
    "cli.main(argv)": (
        "perfbench.worker.run_request",
        "the console script passes no argv; in-process callers pass it"),
    "field._straight_line(coord)": (
        "field.CyclotomicField.__init__",
        "the whole product, and its constant term alone"),
    "hecke.exact_commutator_check(first_only)": (
        "cli._check_hecke",
        "the sign control of check hecke stops at its first failure"),
    "hecke.HeckeAlgebra.__init__(relation_sign)": (
        "cli._check_hecke",
        "the sign control of check hecke flips the exchange rule"),
    "layers.enumerate_layers(stats)": (
        "cli._enumeration",
        "enumerate counts the walk's work; the point draw passes none"),
    "poly.Poly.__init__(terms)": (
        "hecke.HeckeAlgebra.x_times",
        "hecke builds its zero polynomials from the default"),
}


def _functions(tree: ast.AST, module: str):
    """(qualified name, node) of every function of a module, methods
    named after their class."""
    def visit(nodes, scope):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{scope}.{node.name}", node
                yield from visit(node.body, f"{scope}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{scope}.{node.name}")
    yield from visit(tree.body, module)


def defaults(source: str, module: str) -> list[str]:
    """"module.function(parameter)" for every parameter with a default,
    positional or keyword-only, lambdas included."""
    tree = ast.parse(source)
    out = [f"{module}.<lambda>" for node in ast.walk(tree)
           if isinstance(node, ast.Lambda)
           and (node.args.defaults or any(node.args.kw_defaults))]
    for name, node in _functions(tree, module):
        args = node.args
        positional = args.posonlyargs + args.args
        with_default = positional[len(positional) - len(args.defaults):]
        with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]
        out += [f"{name}({a.arg})" for a in with_default]
    return out


def _package_defaults() -> list[str]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        found += defaults(path.read_text(encoding="utf-8"), module)
    return found


def test_package_has_only_the_listed_defaults():
    assert sorted(_package_defaults()) == sorted(DEFAULTS)


def _parameter(entry: str) -> tuple[str, str, int]:
    """(name a call spells, parameter, its position in a call) of an
    entry: a method's self is not passed, and __init__ is called by its
    class name."""
    function, param = entry[:-1].split("(")
    module = function.split(".")[0]
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    node = dict(_functions(ast.parse(source), module))[function]
    names = [a.arg for a in node.args.posonlyargs + node.args.args]
    parts = function.split(".")
    if len(parts) > 2:
        names = names[1:]
    called = parts[-2] if parts[-1] == "__init__" else parts[-1]
    return called, param, names.index(param)


def _sets(caller: ast.AST, called: str, param: str, index: int) -> bool:
    for node in ast.walk(caller):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name == called and (len(node.args) > index or any(
                k.arg == param for k in node.keywords)):
            return True
    return False


def test_each_listed_default_is_set_by_its_caller():
    for entry, (caller, _) in DEFAULTS.items():
        called, param, index = _parameter(entry)
        parts = caller.split(".")
        if parts[0] == "perfbench":
            path, module = ROOT / "perfbench" / f"{parts[1]}.py", \
                ".".join(parts[:2])
        else:
            path, module = PACKAGE / f"{parts[0]}.py", parts[0]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        node = dict(_functions(tree, module))[caller]
        assert _sets(node, called, param, index), entry


def test_defaults_flags_every_spelling():
    source = ("def f(a, b=1, *, c=2, d): ...\n"
              "class A:\n    def g(self, x=None): ...\n"
              "    class B:\n        def h(self, /, y=0): ...\n"
              "def k(a, b): ...\n"
              "m = lambda z=3: z\n")
    assert sorted(defaults(source, "mod")) == [
        "mod.<lambda>", "mod.A.B.h(y)", "mod.A.g(x)", "mod.f(b)", "mod.f(c)"]
    # a default seeded into a package module is flagged
    layers = (PACKAGE / "layers.py").read_text(encoding="utf-8")
    seeded = layers.replace("seed: int) -> Point:",
                            "seed: int = 0) -> Point:", 1)
    assert seeded != layers
    assert "layers.generic_point(seed)" in defaults(seeded, "layers")
    assert "layers.generic_point(seed)" not in defaults(layers, "layers")


def test_a_caller_that_keeps_the_default_is_caught():
    tree = ast.parse("def c():\n    enumerate_layers(rs, field)\n"
                     "def d():\n    x.enumerate_layers(rs, field, stats)\n"
                     "def e():\n    enumerate_layers(rs, field, stats=s)\n")
    calls = dict(_functions(tree, "mod"))
    assert [_sets(calls[f"mod.{f}"], "enumerate_layers", "stats", 2)
            for f in "cde"] == [False, True, True]
