"""Every src/ definition runs or is read in a fixed CLI sweep, or is listed.

The library is what the CLI runs: a definition that no request runs or
reads belongs next to the tests that call it, unless an open ROADMAP
item is about to give it a caller.  A fresh interpreter (so no cache of
an earlier test hides a call) runs the sweep under sys.setprofile.  It
records the src/ code objects called and the module-level names that
code reads (read with dis): a global as module.name in the module of its
code object, an import from a module as that module.name, and an
attribute of a global, such as spin.mat_mul, as global.attribute.  The
parent adds the reads of import-time code, the module and class bodies
compiled from each source file, and the names in the type hints of
executed functions and of those bodies, in the module of the hint.

Every module-level function and every method must run.  Every
module-level class and value (the package's own dunders aside) must be
read; a name in a hint counts for a value, such as a type alias, and not
for a class, since a hint runs nothing.  Any other attribute read, such
as .rank, reads no module-level name.  A definition that does neither is
on ALLOWED, with the open ROADMAP item that decides it, or as a
debugging display.

The sweep: check all on A2, B2, G2 and A3 at seed 1; every enumerate
target on G2 in json and dot; enumerate layers --format dot on B3, whose
poset runs layer_contains; every 40th point of the frozen subspace pool.
One request of each verb adds --stats.  Run this file as a script to
print each definition the sweep neither runs nor reads, with its kind or
its reason.
"""

import ast
import contextlib
import dis
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trigbethe"

# neither run nor read on purpose: definition -> the ROADMAP item that
# decides it, or debugging display
ALLOWED = {
    "field.CyclotomicField.__repr__": "debugging display",
    "field.FieldElement.__repr__": "debugging display",
    "nested.Chart.__repr__": "debugging display",
    "poly.Poly.__repr__": "debugging display",
    "roots.RootSystem.__repr__": "debugging display",
    # item 1: perfbench/tracer.py wraps these names
    "linalg.mat_inverse": "item 1",
    "linalg.nullspace": "item 1",
    "linalg._unit_like": "item 1",
    "field.CyclotomicField.element": "item 1",
    "lattice.int_rank": "item 1",
    # no request raises a field element to a power since points on layers
    # are read off character exponents, but the tracer wraps __pow__ as
    # field.pow; the tests and their oracles call it and the field's unit
    "field.FieldElement.__pow__": "item 1",
    "field.CyclotomicField.one": "item 1",
    # the tracer wraps the normal-form product, which check hecke no
    # longer forms (it reads [x_k, s_b] off the exchange formula); the
    # tests take it as their oracle, and item 9 needs it to test whether
    # the images of the BMO family commute
    "hecke.HeckeAlgebra.multiply": "item 1",
    "hecke.HeckeAlgebra.move_across_word": "item 1",
    "hecke.HeckeAlgebra.commutator": "item 1",
    # the rational functions of tests/oracles.py lift and subtract field
    # elements through these; item 7 brings that code to src/
    "field.FieldElement.coeffs": "item 7",
    "field.FieldElement.__rsub__": "item 7",
    # item 9: the degree-one quantum side is their caller, or they move
    "hecke.HeckeAlgebra.bmo": "item 9",
    "hecke.HeckeAlgebra.family": "item 9",
    "hecke.HeckeAlgebra.x": "item 9",
    "hecke.HeckeAlgebra.add": "item 9",
    "hecke.HeckeAlgebra.sub": "item 9",
    "hecke.HeckeAlgebra.scale": "item 9",
    "hecke.q_power": "item 9",
}

ENUMERATE_TARGETS = ["roots", "layers", "building-set", "nested-sets",
                     "boundary-strata"]

# the opcodes that read a global, and those that read an attribute
GLOBALS = {"LOAD_GLOBAL", "LOAD_NAME"}
ATTRIBUTES = {"LOAD_ATTR", "LOAD_METHOD", "LOAD_SUPER_ATTR"}


def sweep_requests() -> list[tuple[list[str], str | None]]:
    """(argv, stdin) of every request of the sweep."""
    reference = json.loads((ROOT / "perfbench" / "data" / "reference.json")
                           .read_text(encoding="utf-8"))
    runs = [(["check", "all", "--type", label, "--seed", "1"], None)
            for label in ("A2", "B2", "G2", "A3")]
    runs += [(["enumerate", target, "--type", "G2", "--format", fmt], None)
             for target in ENUMERATE_TARGETS for fmt in ("json", "dot")]
    runs.append((["enumerate", "layers", "--type", "B3", "--format", "dot"],
                 None))
    runs += [(["subspace", "-"], entry["spec"])
             for entry in reference["pool"][::40]]
    for verb in ("check", "enumerate", "subspace"):
        argv = next(argv for argv, _ in runs if argv[0] == verb)
        argv.append("--stats")
    return runs


def names_read(code: CodeType) -> set[str]:
    """module.name of each module-level name code reads: a global in the
    module of code, a name imported from a module, an attribute of a
    global (a module's attribute, if the global is a module)."""
    module = Path(code.co_filename).stem
    out, previous, source = set(), None, None
    for ins in dis.get_instructions(code):
        if ins.opname in GLOBALS:
            out.add(f"{module}.{ins.argval}")
        elif ins.opname == "IMPORT_NAME":
            source = ins.argval.rpartition(".")[2]
        elif ins.opname == "IMPORT_FROM":
            out.add(f"{source}.{ins.argval}")
        elif ins.opname in ATTRIBUTES and previous.opname in GLOBALS:
            out.add(f"{previous.argval}.{ins.argval}")
        previous = ins
    return out


def sweep() -> dict[str, list[str]]:
    """module.qualname of every package code object the sweep calls, and
    the names that code reads."""
    from trigbethe import cli

    package = Path(cli.__file__).resolve().parent
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for argv, stdin in sweep_requests():
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            sys.setprofile(profile)
            try:
                cli.main(argv)
            finally:
                sys.setprofile(None)
    ours = [code for code in called
            if Path(code.co_filename).resolve().parent == package]
    return {"executed": sorted({f"{Path(code.co_filename).stem}."
                                f"{code.co_qualname}" for code in ours}),
            "reads": sorted(set().union(*map(names_read, ours)))}


def hint_names(node) -> set[str]:
    """The names a type hint mentions, in a string hint too."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def hints(module: str, *nodes) -> set[str]:
    """module.name of the names in the type hints of the nodes and of
    what they hold."""
    out = set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation:
            out |= hint_names(sub.annotation)
        elif isinstance(sub, ast.FunctionDef) and sub.returns:
            out |= hint_names(sub.returns)
    return {f"{module}.{name}" for name in out}


def definitions(mod: str, tree: ast.Module):
    """(module.qualname, kind, node) of every module-level function, class
    and value (the package's own dunders aside) and every method."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            yield f"{mod}.{top.name}", "class", top
            for item in top.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{mod}.{top.name}.{item.name}", "function", item
        elif isinstance(top, ast.FunctionDef):
            yield f"{mod}.{top.name}", "function", top
        elif isinstance(top, ast.Assign) or \
                isinstance(top, ast.AnnAssign) and top.value:
            targets = top.targets if isinstance(top, ast.Assign) \
                else [top.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield f"{mod}.{t.id}", "value", top


def flagged(package: Path = PACKAGE) -> dict[str, str]:
    """kind of every definition of the package that the sweep, run on it
    in a fresh interpreter, neither runs nor reads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, "--json"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ran = json.loads(proc.stdout)
    executed, reads = set(ran["executed"]), set(ran["reads"])
    kinds, hinted = {}, set()
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        # import-time code: the module body and the class bodies in it
        todo = [compile(source, str(path), "exec")]
        while todo:
            code = todo.pop()
            reads |= names_read(code)
            todo += [c for c in code.co_consts if isinstance(c, CodeType)
                     and not c.co_flags & inspect.CO_OPTIMIZED]
        for key, kind, node in definitions(path.stem, ast.parse(source)):
            kinds[key] = kind
            if kind == "class":
                hinted |= hints(path.stem, *(
                    item for item in node.body
                    if isinstance(item, ast.AnnAssign)))
            elif kind == "value" or key in executed:
                hinted |= hints(path.stem, node)
    seen = {"function": executed, "class": reads, "value": reads | hinted}
    return {key: kind for key, kind in kinds.items()
            if key not in seen[kind]}


def test_every_function_runs_in_the_sweep_or_is_listed():
    assert set(flagged()) == set(ALLOWED)


def test_allowed_entries_name_an_open_roadmap_item():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    for key, reason in ALLOWED.items():
        if reason != "debugging display":
            assert reason in ("item 1", "item 7", "item 9"), key
            assert f"\n{reason.split()[1]}. **" in roadmap, (key, reason)


def test_guard_flags_seeded_dead_definitions(tmp_path):
    # eight definitions that no request runs or reads, in a copy of the
    # package: a constant, a class and its method, a class named only in
    # a hint of executed code, a function, an alias named only in the
    # hint of that function, a constant read only by the listed
    # hecke.q_power, and a constant named like an attribute that
    # requests read everywhere (.rank); an alias named in a hint of
    # executed code is read
    package = shutil.copytree(PACKAGE, tmp_path / "trigbethe",
                              ignore=shutil.ignore_patterns("__pycache__"))
    for name, old, new, added in [
            ("spin.py", "def commute(a: Mat, b: Mat) -> bool:",
             "def commute(a: LiveAlias, b: Mat) -> Hinted:",
             "LiveAlias = list\nDeadAlias = list\nDEAD = 1\n"
             "class Dead:\n    def method(self):\n        return 2\n"
             "class Hinted:\n    pass\n"
             "def dead(x: DeadAlias):\n    return x\nrank = 3\n"),
            ("hecke.py", "    out = Fraction(1)\n", "    out = Fraction(ONE)\n",
             "ONE = 1\n")]:
        path = package / name
        source = path.read_text(encoding="utf-8")
        assert old in source
        path.write_text(source.replace(old, new) + added, encoding="utf-8")
    want = {"spin.DEAD": "value", "spin.Dead": "class",
            "spin.Dead.method": "function", "spin.Hinted": "class",
            "spin.dead": "function", "spin.DeadAlias": "value",
            "hecke.ONE": "value", "spin.rank": "value"}
    found = flagged(package)
    assert set(found) == set(ALLOWED) | set(want)
    assert {key: found[key] for key in want} == want


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        print(json.dumps(sweep()))
    else:
        found = flagged()
        for key in sorted(set(found) | set(ALLOWED)):
            print(key, ALLOWED.get(key, f"{found.get(key)}, unlisted")
                  + ("" if key in found else ", runs or is read now"))
