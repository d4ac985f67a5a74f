"""Command line interface.

Three verbs: enumerate (inventories of roots, torus layers, building
sets, nested families, boundary strata), subspace (evaluate one point
description to its limit subspace), and check (self-contained exact
verifications).  All JSON output is deterministic: keys sorted, scalars
rendered as exact strings, indices 1-based.

Exit status: 0 success / all checks passed, 1 a check failed, 2 bad
usage or bad input data.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from collections import Counter
from json.encoder import encode_basestring_ascii

from . import spin, typea
from .bethe import (PointStream, injectivity_pool, recover_data,
                    sample_xpoints, weyl_action_report, xpoint_from_dict)
from .field import CyclotomicField, default_field_order
from .hecke import HeckeAlgebra, exact_commutator_check
from .layers import (building_set, enumerate_layers, gamma_divisors,
                     is_indecomposable, layer_to_dict, poset_relations,
                     restrict, subset_layers)
from .linalg import rref
from .nested import Chart, maximal_nested_sets
from .roots import MAX_WEYL_ORDER, RootSystem, root_system

SCHEMA = 1

# spin-chain sizes of the type-independent checks (commutativity, typea)
SPIN_SIZES = (2, 3)


def _field_for(rs: RootSystem, explicit: int | None) -> CyclotomicField:
    return CyclotomicField(default_field_order(rs.family)
                           if explicit is None else explicit)


def _emit(args, payload) -> None:
    """Write the payload to stdout or --out; an --out that cannot be
    written is bad usage (exit 2), reported through main."""
    if isinstance(payload, str):
        text = payload
    else:
        out: list[str] = []
        _write_json(payload, "\n", out)
        out.append("\n")
        text = "".join(out)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: "
                             f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append json.dumps(obj, indent=2, sort_keys=True) to out, newline
    being a line break plus the current indent; dict keys are strings,
    lists and tuples both arrays.  json.dumps, pure Python on 3.11 when
    it indents, is left only scalars other than strings and ints."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (dict, list, tuple)):
        keyed = isinstance(obj, dict)
        inner = newline + "  "
        sep = ("{" if keyed else "[") + inner
        for item in sorted(obj) if keyed else obj:
            if keyed:
                out.append(sep + encode_basestring_ascii(item) + ": ")
                item = obj[item]
            else:
                out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + ("}" if keyed else "]") if obj
                   else "{}" if keyed else "[]")
    elif obj.__class__ is int:
        out.append(int.__repr__(obj))
    else:
        out.append(json.dumps(obj))   # bool, None, float, or json's TypeError


def _layer_facts(layer, indecomposable: bool) -> dict:
    """The entries of a layer that dropping coordinates outside its
    lattice's support leaves unchanged.  The layer's basis spans a
    saturated lattice, so when the roots span it too gamma is empty and
    the Smith form is not needed."""
    return {"gamma": [] if layer.roots_span_lattice
            else gamma_divisors(layer.roots_pos, layer.ambient_dim),
            "indecomposable": indecomposable}


# ----------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args) -> int:
    rs = root_system(args.type)
    field = _field_for(rs, args.field_order)
    if args.format == "dot" and args.target not in ("layers", "nested-sets"):
        print("dot output is only available for layers and nested-sets",
              file=sys.stderr)
        return 2
    stats = Counter(walks=0, lattices=0, inserts=0, smith_forms=0, layers=0)
    _emit(args, _enumeration(args, rs, field, stats))
    if args.stats:
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    return 0


def _enumeration(args, rs: RootSystem, field: CyclotomicField,
                 stats: Counter):
    """The payload of one enumerate request; the layer walk and the poset
    add their counts to stats."""
    if args.target == "roots":
        return {
            "schema": SCHEMA,
            "type": rs.label,
            "rank": rs.rank,
            "cartan": [list(r) for r in rs.cartan],
            "symmetrizers": list(rs.sym),
            "positive_roots": [list(a) for a in rs.positive_roots],
            "positive_count": len(rs.positive_roots),
            "weyl_order": rs.weyl_order,
        }

    if args.target == "nested-sets":
        base = list(rs.simple_roots)
        edges = rs.nonorthogonal_edges(base)
        families = maximal_nested_sets(rs.rank, edges)
        if args.format == "dot":
            return _nested_dot(families)
        return {
            "schema": SCHEMA,
            "type": rs.label,
            "vertices": rs.rank,
            "edges": [[i + 1, j + 1] for i, j in edges],
            "count": len(families),
            "families": [[[v + 1 for v in sorted(s)] for s in fam]
                         for fam in families],
        }

    if args.target == "boundary-strata":
        # one walk of the full arrangement: every sub-arrangement's layers
        # are read from it, and gamma and indecomposability computed once
        layers = enumerate_layers(rs, field, stats)
        facts = [_layer_facts(l, is_indecomposable(rs, l)) for l in layers]
        strata = [{**layer_to_dict(restrict(layers[k], subset)), **facts[k],
                   "I": [i + 1 for i in subset]}
                  for subset, ks in subset_layers(layers).items()
                  for k in ks]
        return {
            "schema": SCHEMA,
            "type": rs.label,
            "field_order": field.order,
            "count": len(strata),
            "strata": strata,
        }
    # the building set is the indecomposable layers, so it is not asked twice
    chosen = args.target == "building-set"
    layers = building_set(rs, field, stats) if chosen \
        else enumerate_layers(rs, field, stats)
    if args.format == "dot":
        return _layers_dot(layers, stats)
    return {
        "schema": SCHEMA,
        "type": rs.label,
        "field_order": field.order,
        "count": len(layers),
        "layers": [{**layer_to_dict(l), **_layer_facts(
            l, chosen or is_indecomposable(rs, l))} for l in layers],
    }


def _layers_dot(layers, stats: Counter) -> str:
    lines = ["digraph layers {", "  rankdir=BT;"]
    for i, l in enumerate(layers):
        basis = "; ".join(",".join(map(str, r)) for r in l.basis) or "torus"
        chars = ", ".join(str(v) for v in l.char_values)
        label = f"dim {l.dim}\\n{basis}"
        if chars:
            label += f"\\nchi = {chars}"
        lines.append(f'  L{i} [label="{label}"];')
    for i, j in sorted(poset_relations(layers, stats)):
        lines.append(f"  L{i} -> L{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _nested_dot(families) -> str:
    lines = ["digraph nested {", "  rankdir=BT;"]
    for f, fam in enumerate(families):
        lines.append(f"  subgraph cluster_{f} {{")
        lines.append(f'    label="family {f + 1}";')
        for k, s in enumerate(fam):
            text = "{" + ",".join(str(v + 1) for v in sorted(s)) + "}"
            lines.append(f'    N{f}_{k} [label="{text}"];')
        for k, s in enumerate(fam):
            for m, t in enumerate(fam):
                if s < t and not any(s < u < t for u in fam):
                    lines.append(f"    N{f}_{k} -> N{f}_{m};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# subspace


def _cmd_subspace(args) -> int:
    start = time.perf_counter()
    try:
        if args.specfile == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.specfile, encoding="utf-8") as fh:
                data = json.load(fh)
        x = xpoint_from_dict(data)
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        print(f"bad point description: {exc}", file=sys.stderr)
        return 2
    parsed = time.perf_counter()
    vectors = x.subspace()
    built = time.perf_counter()
    rows, _ = rref(vectors)
    reduced = time.perf_counter()
    rec = None if x.word else recover_data(x.space, vectors)
    recovered = time.perf_counter()
    labels = x.space.labels()
    basis = [{labels[k]: str(c) for k, c in enumerate(row) if not c == 0}
             for row in rows]
    payload = {
        "schema": SCHEMA,
        "input": x.to_dict(),
        "dimension": len(rows),
        "basis": basis,
    }
    if rec is not None:
        payload["recovered"] = {
            "centralized": [list(a) for a in rec.centralized_pos],
            "units": [{"root": list(a), "value": str(v)}
                      for a, v in sorted(rec.unit_values.items())],
            "vanishing": [list(a) for a in rec.vanishing],
        }
    _emit(args, payload)
    if args.stats:
        marks = [start, parsed, built, reduced, recovered, time.perf_counter()]
        seconds = {stage: round(b - a, 6) for stage, a, b in zip(
            ("parse", "build", "reduce", "recover", "emit"), marks, marks[1:])}
        print(json.dumps({"seconds": seconds, "generators": len(vectors),
                          "basis_entries": sum(map(len, basis))},
                         sort_keys=True), file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# check


def _spin_samples(args, stream: PointStream) -> list[tuple]:
    """(n, s, x, images) for each chain size n and s < --samples: x the
    integer point of a seeded torus point, images the reindexed
    trigonometric elements at x.  Both type-independent checks read them,
    drawn once per request and kept on its stream."""
    if stream.spin_samples is None:
        stream.spin_samples = []
        for n in SPIN_SIZES:
            src, tgt = typea.TrigSource(n), typea.RationalTarget(n)
            for s in range(args.samples):
                x = typea.integer_point(
                    typea.sample_z(n, args.seed * 1009 + s))
                images = [typea.reindex_map(src, tgt, vec)
                          for vec in src.bethe_span(x)]
                stream.spin_samples.append((n, s, x, images))
    return stream.spin_samples


def _check_commutativity(args, stream: PointStream) -> dict:
    """Spin-chain identities on integer operators at the integer point of
    each sample (see the spin module and _spin_failures)."""
    bad = []
    total = 0
    for n, s, x, images in _spin_samples(args, stream):
        rng = random.Random(f"spin-check-{n}-{args.seed}-{s}")
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        failed = _spin_failures(typea.RationalTarget(n), x, images,
                                [[a, 0], [0, b]])
        bad += [f"n={n} s={s} {f}" for f in failed]
        total += n * (n - 1) // 2 + n
    return {"name": "commutativity", "passed": not bad,
            "type_independent": True, "n": list(SPIN_SIZES),
            "detail": f"{total} spin identities exact" if not bad
            else "; ".join(bad[:4])}


def _spin_failures(tgt: typea.RationalTarget, x, images,
                   theta) -> list[str]:
    """The identities that fail at the integer point x, images its reindexed
    elements: [H_i, H_j] = 0 for i < j, then image + x_k H_k = 0 for each
    k, on the built operators."""
    n = tgt.n
    hams = [spin.trig_hamiltonian(theta, x, k, n) for k in range(1, n + 1)]
    failed = [f"[H{i + 1},H{j + 1}] != 0"
              for i in range(n) for j in range(i + 1, n)
              if not spin.commute(hams[i], hams[j])]
    for k, (img, ham) in enumerate(zip(images, hams), start=1):
        # 2 P_k image = -(2 x_k P_k H_k), P_k = prod_{j != k} (x_k - x_j)
        image = spin.combination(
            spin.pair_vector_terms(tgt.pairs, img, theta, n), n)
        if image != [{c: -v for c, v in row.items()} for row in ham]:
            failed.append(f"image(k={k}) != -z_k H_k")
    return failed


def _check_rank(args, stream: PointStream) -> dict:
    rs = stream.rs
    pts = sample_xpoints(stream, args.samples)
    dims = [len(x.reduced) for x in pts]
    bad = [d for d in dims if d != rs.rank]
    return {"name": "rank", "passed": not bad, "points": len(pts),
            "exhaustive": False,
            "detail": f"{len(pts)} subspaces of dimension {rs.rank}"
            if not bad else f"dimensions {sorted(set(dims))}, want {rs.rank}"}


def _check_injectivity(args, stream: PointStream) -> dict:
    pts = injectivity_pool(stream, args.samples)
    seen: dict[tuple, int] = {}
    collisions = []
    for i, x in enumerate(pts):
        key = tuple(tuple(str(c) for c in row) for row in x.reduced)
        if key in seen:
            collisions.append((seen[key], i))
        else:
            seen[key] = i
    return {"name": "injectivity", "passed": not collisions,
            "points": len(pts), "exhaustive": False,
            "detail": f"{len(pts)} points, all subspaces distinct"
            if not collisions else f"collisions at {collisions[:4]}"}


def _check_triangularity(args, stream: PointStream) -> dict:
    rs = stream.rs
    base = list(rs.simple_roots)
    edges = rs.nonorthogonal_edges(base)
    families = maximal_nested_sets(rs.rank, edges)
    bad = []
    for fam in families:
        chart = Chart(base, rs.positive_roots, fam)
        m = chart.chain_matrix()
        k = len(m)
        # unitriangular, so its determinant is 1
        if not (all(m[i][i] == 1 for i in range(k)) and
                all(m[i][j] == 0 for i in range(k) for j in range(i))):
            bad.append(chart.sets)
    return {"name": "triangularity", "passed": not bad,
            "charts": len(families), "exhaustive": True,
            "detail": f"{len(families)} chain matrices unitriangular, det 1"
            if not bad else f"{len(bad)} charts fail"}


def _check_hecke(args, stream: PointStream) -> dict:
    rs = stream.rs
    pairs = rs.rank * (rs.rank - 1) // 2
    entry = {"name": "hecke", "exhaustive": True, "pairs": pairs}
    if not pairs:
        return {**entry, "passed": True, "coefficients": 0,
                "detail": "rank 1: a single operator, nothing to commute "
                          "(vacuous); sign control not run"}
    tested, bad = exact_commutator_check(HeckeAlgebra(rs))
    _, flipped = exact_commutator_check(HeckeAlgebra(rs, relation_sign=-1),
                                        first_only=True)
    failures = sorted({f"[Q{i + 1},Q{j + 1}] != 0" for i, j, _ in bad})
    if not flipped:
        failures.append("sign-flipped exchange rule still commutes")
    return {**entry, "passed": not failures, "coefficients": tested,
            "detail": f"[Q_i,Q_j] = 0 for all {pairs} pairs i<j at every q "
                      f"off the arrangement ({tested} coefficients); sign "
                      "control detects the flip"
            if not failures else "; ".join(failures[:4])}


def _check_typea(args, stream: PointStream) -> dict:
    bad = []
    for n, s, x, images in _spin_samples(args, stream):
        scaled_bad, spans_ok = typea.check_sample(typea.RationalTarget(n), x,
                                                  images)
        bad += [f"n={n} s={s} k={k} scaled identity" for k in scaled_bad]
        if not spans_ok:
            bad.append(f"n={n} s={s} span equality")
    return {"name": "typea", "passed": not bad,
            "type_independent": True, "n": list(SPIN_SIZES),
            "detail": "images equal scaled rational elements; spans equal"
            if not bad else "; ".join(bad[:4])}


def _check_weyl(args, stream: PointStream) -> dict:
    report = weyl_action_report(stream.rs, stream.field, args.seed,
                                args.samples)
    failed = [k for k in ("group_law", "delta_transport", "bethe_transport",
                          "twist_formula", "control") if not report[k]]
    return {"name": "weyl", "passed": not failed, **report,
            "detail": f"{report['relations']} Coxeter relations hold, so "
                      f"rho is a representation of all {report['elements']} "
                      "elements; delta and Bethe transport (at a symbolic "
                      "point) on every generator; rho(w) from inversion sets "
                      "equals the generator product on the longest element "
                      f"and {report['twists'] - 1} sampled twists; sign "
                      "control detects the flip"
            if not failed else f"failed: {', '.join(failed)}"}


# the checks that draw points, for which the PointStream tables all of W
_DRAWING = ("rank", "injectivity")

# each check reads the parsed arguments and the request's PointStream
_CHECKS = {
    "commutativity": _check_commutativity,
    "rank": _check_rank,
    "injectivity": _check_injectivity,
    "triangularity": _check_triangularity,
    "hecke": _check_hecke,
    "typea": _check_typea,
    "weyl": _check_weyl,
}


def _cmd_check(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be positive, got {args.samples}")
    rs = root_system(args.type)
    field = _field_for(rs, args.field_order)
    names = list(_CHECKS) if args.what == "all" else [args.what]
    if any(n in _DRAWING for n in names) and rs.weyl_order > MAX_WEYL_ORDER:
        raise ValueError(f"check {args.what} tables the Weyl group of "
                         f"{rs.label}, |W| = {rs.weyl_order}, which exceeds "
                         f"the maximum {MAX_WEYL_ORDER}")
    # one point stream per request: rank and injectivity read its prefix
    stream = PointStream(rs, field, args.seed)
    results, seconds = [], {}
    for name in names:
        start = time.perf_counter()
        results.append(_CHECKS[name](args, stream))
        seconds[name] = round(time.perf_counter() - start, 6)
    payload = {
        "schema": SCHEMA,
        "type": rs.label,
        "field_order": field.order,
        "seed": args.seed,
        "samples": args.samples,
        "checks": results,
        "passed": all(r["passed"] for r in results),
    }
    _emit(args, payload)
    if args.stats:
        print(json.dumps({"check_seconds": seconds, "points": stream.built,
                          "reductions": stream.reductions}), file=sys.stderr)
    return 0 if payload["passed"] else 1


# ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it and
    fills a fresh Namespace per call, so in-process callers share it."""
    parser = argparse.ArgumentParser(
        prog="trigbethe",
        description="Exact commuting families on root-system holonomy "
                    "algebras and their limit subspaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def type_and_field(p):
        p.add_argument("--type", default="A2",
                       help="root system label, e.g. A2, B3, G2 (default A2)")
        p.add_argument("--field-order", type=int, default=None,
                       help="cyclotomic field order (default 6; 12 for F4)")

    def out(p):
        p.add_argument("--out", default=None, help="write output to a file")

    p_enum = sub.add_parser("enumerate", help="inventories as JSON or DOT")
    p_enum.add_argument("target", choices=[
        "roots", "layers", "building-set", "nested-sets", "boundary-strata"])
    type_and_field(p_enum)
    out(p_enum)
    p_enum.add_argument("--format", choices=["json", "dot"], default="json")
    p_enum.add_argument("--stats", action="store_true",
                        help="write the layer walk's and the poset's work "
                             "counters as one JSON line to stderr")

    p_sub = sub.add_parser("subspace",
                           help="limit subspace of one point description")
    p_sub.add_argument("specfile", help="JSON file ('-' for stdin); the "
                       "type and field order come from the description")
    out(p_sub)
    p_sub.add_argument("--stats", action="store_true",
                       help="write the wall seconds of parse, build, reduce, "
                            "recover and emit, the generators built and the "
                            "nonzero basis entries as one JSON line to stderr")

    p_check = sub.add_parser("check", help="exact structural verifications")
    p_check.add_argument("what", choices=[*_CHECKS, "all"], type=str.lower)
    type_and_field(p_check)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--samples", type=int, default=6)
    p_check.add_argument("--stats", action="store_true",
                         help="write the wall seconds of each check, the "
                              "points sampled and the subspaces row-reduced "
                              "as one JSON line to stderr")
    out(p_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "subspace":
            return _cmd_subspace(args)
        return _cmd_check(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
