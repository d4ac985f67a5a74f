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
from fractions import Fraction

from . import spin, typea
from .bethe import (PointStream, injectivity_pool, recover_data,
                    sample_xpoints, weyl_action_report, xpoint_from_dict)
from .field import DEFAULT_FIELD_ORDER, CyclotomicField, default_field_order
from .hecke import HeckeAlgebra, exact_commutator_check
from .layers import (RootAmbient, building_set, enumerate_layers,
                     gamma_divisors, is_indecomposable, layer_to_dict,
                     poset_relations, restrict, subset_layers)
from .linalg import det, rref
from .nested import Chart, maximal_nested_sets
from .roots import RootSystem, root_system

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
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: "
                             f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _layer_facts(amb: RootAmbient, layer) -> dict:
    """The entries of a layer that dropping coordinates outside its
    lattice's support leaves unchanged."""
    return {"gamma": gamma_divisors(layer.roots_pos, amb.dim),
            "indecomposable": is_indecomposable(amb, layer)}


# ----------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args) -> int:
    rs = root_system(args.type)
    field = _field_for(rs, args.field_order)
    if args.format == "dot" and args.target not in ("layers", "nested-sets"):
        print("dot output is only available for layers and nested-sets",
              file=sys.stderr)
        return 2
    stats = Counter(walks=0, lattices=0, inserts=0, layers=0)
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
                         for fam in (_ordered_family(f) for f in families)],
        }

    amb = RootAmbient.from_root_system(rs, field)
    if args.target == "boundary-strata":
        # one walk of the full arrangement: every sub-arrangement's layers
        # are read from it, and gamma and indecomposability computed once
        layers = enumerate_layers(amb, stats)
        facts = [_layer_facts(amb, l) for l in layers]
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
    layers = (building_set(amb, stats) if args.target == "building-set"
              else enumerate_layers(amb, stats))
    if args.format == "dot":
        return _layers_dot(layers, stats)
    return {
        "schema": SCHEMA,
        "type": rs.label,
        "field_order": field.order,
        "count": len(layers),
        "layers": [{**layer_to_dict(l), **_layer_facts(amb, l)}
                   for l in layers],
    }


def _ordered_family(fam) -> list:
    return sorted(fam, key=lambda s: (len(s), tuple(sorted(s))))


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
        ordered = _ordered_family(fam)
        lines.append(f"  subgraph cluster_{f} {{")
        lines.append(f'    label="family {f + 1}";')
        for k, s in enumerate(ordered):
            text = "{" + ",".join(str(v + 1) for v in sorted(s)) + "}"
            lines.append(f'    N{f}_{k} [label="{text}"];')
        for k, s in enumerate(ordered):
            for m, t in enumerate(ordered):
                if s < t and not any(s < u < t for u in ordered):
                    lines.append(f"    N{f}_{k} -> N{f}_{m};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# subspace


def _cmd_subspace(args) -> int:
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
    vectors = x.subspace()
    rows, _ = rref(vectors)
    labels = x.space.labels()
    basis = [{labels[k]: str(c) for k, c in enumerate(row) if not c == 0}
             for row in rows]
    payload = {
        "schema": SCHEMA,
        "input": x.to_dict(),
        "dimension": len(rows),
        "basis": basis,
    }
    if not x.word:
        rec = recover_data(x.space, vectors)
        payload["recovered"] = {
            "centralized": [list(a) for a in rec.centralized_pos],
            "units": [{"root": list(a), "value": str(v)}
                      for a, v in sorted(rec.unit_values.items())],
            "vanishing": [list(a) for a in rec.vanishing],
        }
    _emit(args, payload)
    return 0


# ----------------------------------------------------------------------
# check


def _check_commutativity(args, stream: PointStream) -> dict:
    """Spin-chain identities on integer operators: z is rational and theta
    integral, so each H_k and each represented image is a rational
    combination of the chain's constant operators, and both identities
    are tested on integer_combination()s."""
    field = CyclotomicField(DEFAULT_FIELD_ORDER)
    bad = []
    total = 0
    for n in SPIN_SIZES:
        src = typea.TrigSource(n, field)
        tgt = typea.RationalTarget(n, field)
        for s in range(args.samples):
            rng = random.Random(f"spin-check-{n}-{args.seed}-{s}")
            z = typea.sample_z(field, n, args.seed * 1009 + s)
            zq = [v.as_rational() for v in z]
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            theta = [[a, 0], [0, b]]
            terms = [spin.hamiltonian_terms(theta, zq, k, n)
                     for k in range(1, n + 1)]
            hams = [spin.integer_combination(t, n) for t in terms]
            for i in range(n):
                for j in range(i + 1, n):
                    total += 1
                    if not spin.commute(hams[i], hams[j]):
                        bad.append(f"n={n} s={s} [H{i + 1},H{j + 1}] != 0")
            for k in range(1, n + 1):
                total += 1
                img = typea.reindex_map(src, tgt, src.bethe(z, k))
                rep = spin.pair_vector_terms(
                    tgt.pairs, [c.as_rational() for c in img], theta, n)
                # image == -z_k H_k, i.e. image + z_k H_k == 0
                scaled = [(zq[k - 1] * c, key) for c, key in terms[k - 1]]
                if any(spin.integer_combination(rep + scaled, n)):
                    bad.append(f"n={n} s={s} image(k={k}) != -z_k H_k")
    return {"name": "commutativity", "passed": not bad,
            "type_independent": True, "n": list(SPIN_SIZES),
            "detail": f"{total} spin identities exact" if not bad
            else "; ".join(bad[:4])}


def _check_rank(args, stream: PointStream) -> dict:
    rs = stream.rs
    pts = sample_xpoints(stream, args.samples)
    dims = [len(stream.reduced(x)) for x in pts]
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
        key = tuple(tuple(str(c) for c in row) for row in stream.reduced(x))
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
        unitriangular = all(m[i][i] == 1 for i in range(k)) and \
            all(m[i][j] == 0 for i in range(k) for j in range(i))
        d = det([[Fraction(v) for v in row] for row in m]) if k else Fraction(1)
        if not unitriangular or d != 1:
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
    field = CyclotomicField(DEFAULT_FIELD_ORDER)
    bad = []
    for n in SPIN_SIZES:
        src = typea.TrigSource(n, field)
        tgt = typea.RationalTarget(n, field)
        for s in range(args.samples):
            z = typea.sample_z(field, n, args.seed * 577 + s)
            scaled_bad, spans_ok = typea.check_sample(src, tgt, z)
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
