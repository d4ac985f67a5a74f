"""Every src/ function and method runs in a fixed CLI sweep, or is listed.

test_reachability reads the source and cannot see a method that is
reachable by name yet never called, nor a dunder method, which it
counts as reached with its class.  This test runs the requests and
records what executes: a fresh interpreter (so no cache of an earlier
test hides a call) runs the sweep under sys.setprofile, and every
module-level function and class method of src/ must appear among the
code objects called, unless it is on the reachability test's ALLOWED
list or on UNEXECUTED below.

The sweep: check all on A2, B2, G2 and A3 at seed 1; every enumerate
target on G2 in json and dot; enumerate layers --format dot on B3, whose
poset runs layer_contains; every 40th point of the frozen subspace pool.
One request of each verb adds --stats.  Run this file as a script to
print what the sweep leaves unexecuted.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from test_reachability import ALLOWED, PACKAGE, Package

ROOT = PACKAGE.parents[1]

# never executed on purpose: definition -> why it stays
UNEXECUTED = {
    "field.CyclotomicField.__repr__": "debugging display",
    "field.FieldElement.__repr__": "debugging display",
    "nested.Chart.__repr__": "debugging display",
    "poly.Poly.__repr__": "debugging display",
    "roots.RootSystem.__repr__": "debugging display",
    # the rational functions of tests/oracles.py lift and subtract field
    # elements through these; ROADMAP item 7 brings that code to src/
    "field.FieldElement.coeffs": "item 7",
    "field.FieldElement.__rsub__": "item 7",
    # bmo sums its members with it (item 9); the reachability scan counts
    # it reached through the name add of other receivers
    "hecke.HeckeAlgebra.add": "item 9",
    # no request raises a field element to a power since points on layers
    # are read off character exponents, but perfbench/tracer.py wraps
    # __pow__ as field.pow (item 1); the scan reaches it as a dunder of a
    # reached class, and one, the field's unit, through it; the tests and
    # their oracles call both
    "field.FieldElement.__pow__": "item 1",
    "field.CyclotomicField.one": "item 1",
}

ENUMERATE_TARGETS = ["roots", "layers", "building-set", "nested-sets",
                     "boundary-strata"]


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


def executed() -> set[str]:
    """module.qualname of every src/ function and method the sweep calls."""
    from trigbethe import cli

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
    return {f"{Path(code.co_filename).stem}.{code.co_qualname}"
            for code in called
            if Path(code.co_filename).resolve().parent == PACKAGE}


def unexecuted() -> set[str]:
    """The functions and methods of src/ the sweep, run in a fresh
    interpreter, never calls."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, "--json"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ran = set(json.loads(proc.stdout))
    defs = {key for key, node in Package(PACKAGE).defs.items()
            if isinstance(node, ast.FunctionDef)}
    return defs - ran


def test_every_function_runs_in_the_sweep_or_is_listed():
    assert unexecuted() == set(ALLOWED) | set(UNEXECUTED)


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        print(json.dumps(sorted(executed())))
    else:
        for key in sorted(unexecuted()):
            print(key, ALLOWED.get(key) or UNEXECUTED.get(key, ""))
