"""Call tracing of the program's public functions, from outside the program.

``Tracer.install`` replaces each function in TARGETS by a wrapper that
counts calls and measures total and self time.  A module-level function
is replaced in every ``trigbethe`` module that holds it, under whatever
name it was imported (``from .linalg import rank as mat_rank``), so a
call through any import site is seen; a method is replaced on its class.

Self time is a call's duration minus the time covered by wrapped calls it
made.  Total time is counted for the outermost call of a recursion only.
Coarse functions (``span=True``) also leave a span: name, start, end,
parent span and request.  Leaf arithmetic leaves none, only per-parent
counts and self times, so a trace of millions of field operations stays
small.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (metric name, module, attribute path, keeps spans)
TARGETS = [
    ("field.mul", "trigbethe.field", "FieldElement.__mul__", False),
    ("field.mul", "trigbethe.field", "FieldElement.__rmul__", False),
    ("field.add", "trigbethe.field", "FieldElement.__add__", False),
    ("field.add", "trigbethe.field", "FieldElement.__radd__", False),
    ("field.inverse", "trigbethe.field", "FieldElement.inverse", False),
    ("field.pow", "trigbethe.field", "FieldElement.__pow__", False),
    ("field.is_one", "trigbethe.field", "FieldElement.is_one", False),
    ("field.element", "trigbethe.field", "CyclotomicField.element", False),
    ("field.parse", "trigbethe.field", "CyclotomicField.parse", False),
    ("linalg.rref", "trigbethe.linalg", "rref", False),
    ("linalg.mat_inverse", "trigbethe.linalg", "mat_inverse", False),
    ("linalg.nullspace", "trigbethe.linalg", "nullspace", False),
    ("linalg.rank", "trigbethe.linalg", "rank", False),
    ("lattice.smith_normal_form", "trigbethe.lattice", "smith_normal_form", False),
    ("lattice.hermite_normal_form", "trigbethe.lattice", "hermite_normal_form",
     False),
    ("lattice.int_rank", "trigbethe.lattice", "int_rank", False),
    ("layers.enumerate_layers", "trigbethe.layers", "enumerate_layers", True),
    ("layers.poset_relations", "trigbethe.layers", "poset_relations", True),
    ("layers.layer_contains", "trigbethe.layers", "layer_contains", False),
    ("layers.generic_point", "trigbethe.layers", "generic_point", False),
    ("roots.weyl_elements", "trigbethe.roots", "RootSystem.weyl_elements", True),
    ("roots.inverse_matrix", "trigbethe.roots", "RootSystem.inverse_matrix", False),
    ("roots.matrix_of_word", "trigbethe.roots", "RootSystem.matrix_of_word", False),
    ("roots.inversion_set", "trigbethe.roots", "RootSystem.inversion_set", False),
    ("bethe.weyl_action_report", "trigbethe.bethe", "weyl_action_report", True),
    ("bethe.act", "trigbethe.bethe", "HolonomySpace.act", False),
    ("bethe.h_transport", "trigbethe.bethe", "HolonomySpace.h_transport", False),
    ("bethe.XPoint.subspace", "trigbethe.bethe", "XPoint.subspace", True),
    ("bethe.recover_data", "trigbethe.bethe", "recover_data", True),
    ("bethe.xpoint_from_dict", "trigbethe.bethe", "xpoint_from_dict", True),
    ("bethe.sample_xpoints", "trigbethe.bethe", "sample_xpoints", True),
    ("bethe.injectivity_pool", "trigbethe.bethe", "injectivity_pool", True),
    ("nested.maximal_nested_sets", "trigbethe.nested", "maximal_nested_sets", True),
    ("nested.Chart.hamiltonian_coeffs", "trigbethe.nested",
     "Chart.hamiltonian_coeffs", False),
    ("poly.mul", "trigbethe.poly", "Poly.__mul__", False),
    ("poly.mul", "trigbethe.poly", "Poly.__rmul__", False),
    ("hecke.multiply", "trigbethe.hecke", "HeckeAlgebra.multiply", False),
    ("hecke.move_across_word", "trigbethe.hecke", "HeckeAlgebra.move_across_word",
     False),
    ("hecke.commutator", "trigbethe.hecke", "HeckeAlgebra.commutator", True),
    ("spin.trig_hamiltonian", "trigbethe.spin", "trig_hamiltonian", True),
    ("spin.commute", "trigbethe.spin", "commute", True),
    ("typea.spans_match", "trigbethe.typea", "spans_match", True),
    ("cli.main", "trigbethe.cli", "main", True),
    ("cli.build_parser", "trigbethe.cli", "build_parser", True),
]


def _rref_entries(args):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


# Work counts taken from a call's arguments or result: name -> (metric, fn).
_COUNTS = {
    "linalg.rref": ("linalg.rref.entries", lambda args, res: _rref_entries(args)),
    "layers.enumerate_layers": ("layers.enumerate_layers.layers_out",
                                lambda args, res: len(res)),
}


class Tracer:
    """Counters, times and spans of one traced pass."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s, depth]
        self.by_parent: dict[tuple, list] = {}  # (parent, name) -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.sites: dict[str, list[str]] = {}   # name -> patched import sites
        self.request = -1
        self._frames: list[list] = []           # [name, child_s]
        self._span_stack: list[int] = []

    def install(self) -> None:
        for name, module, path, span in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, span)
            if outer:
                setattr(owner, attr, wrapper)
                self.sites.setdefault(name, []).append(f"{module}.{path}")
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "trigbethe":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self.sites.setdefault(name, []).append(f"{mod_name}.{key}")

    def _wrap(self, name, fn, span):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        frames = self._frames
        span_stack = self._span_stack
        spans = self.spans
        by_parent = self.by_parent
        count = _COUNTS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = frames[-1][0] if frames else ""
            frame = [name, 0.0]
            frames.append(frame)
            stat[3] += 1
            if span:
                span_id = len(spans)
                spans.append(None)
                span_stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dt = end - start
                frames.pop()
                stat[3] -= 1
                own = dt - frame[1]
                stat[0] += 1
                stat[2] += own
                if not stat[3]:
                    stat[1] += dt
                if frames:
                    frames[-1][1] += dt
                agg = by_parent.get((parent, name))
                if agg is None:
                    agg = by_parent[(parent, name)] = [0, 0.0]
                agg[0] += 1
                agg[1] += own
                if span:
                    span_stack.pop()
                    spans[span_id] = (name, start, end,
                                      span_stack[-1] if span_stack else -1,
                                      self.request)
            if count is not None:
                metric, fn_count = count
                counts[metric] = counts.get(metric, 0) + fn_count(args, result)
            return result

        return wrapper

    def report(self) -> dict:
        """Plain-data summary: per-function stats, per-parent leaves, spans."""
        return {
            "stats": {n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                      for n, s in self.stats.items()},
            "by_parent": [[p, n, a[0], a[1]]
                          for (p, n), a in sorted(self.by_parent.items())],
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
            "sites": self.sites,
        }
