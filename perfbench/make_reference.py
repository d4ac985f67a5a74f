"""Regenerate perfbench/data/reference.json from the program as it stands.

    PYTHONPATH=src python3 perfbench/make_reference.py

The reference holds what the benchmark checks outputs against:

* ``pool``: the frozen candidate points of the ``subspace`` workload, each
  with the digest of its ``trigbethe subspace -`` stdout.  The points are
  drawn here, from a fixed generator seed, by this file's own code; the
  program's samplers and layer enumeration are not used, so a later change
  to them cannot change the workload.  The program is only asked to
  accept each candidate (exit 0) and to render it.
* ``pool_sha256`` and ``corpus_sha256``: digests of the pool and of the
  corpus ``workloads.subspace_corpus`` selects for seeds 0..31.
* ``census``: stdout digests of the ``census`` requests and of the small
  requests the self-test uses.
* ``check_names``: the checks ``check all`` must report.

Run it only on a commit whose outputs are known to be right; every later
run of the benchmark compares against what it records.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import run_request  # noqa: E402

from trigbethe.field import CyclotomicField  # noqa: E402
from trigbethe.nested import maximal_nested_sets  # noqa: E402
from trigbethe.roots import root_system  # noqa: E402

GENERATOR_SEED = 20251231
CORPUS_SEEDS = range(32)


def run_cli(argv, stdin_text=None):
    res = run_request({"argv": argv, "stdin": stdin_text})
    return res["rc"], res["out"]


def generic_value(rng, field):
    """A unit far from the roots of unity: a rational, or dense in Q(zeta_N)."""
    if rng.random() < 0.5:
        return field.from_rational(Fraction(rng.randint(2, 40), rng.randint(2, 40)))
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(field.degree)]
    coeffs[0] += rng.randint(2, 5)
    return field.element(coeffs)


def torsion_value(rng, field):
    return field.zeta(rng.randrange(field.order))


def centralizer(rs, field, subset, y):
    """Positive roots supported on subset whose character is 1 at y."""
    out = []
    for a in rs.positive_roots:
        if any(a[i] for i in range(rs.rank) if i not in subset):
            continue
        val = field.one()
        for yi, i in zip(y, subset):
            if a[i]:
                val = val * yi ** a[i]
        if val.is_one():
            out.append(a)
    return out


def draw(rng, rs, field, kind):
    """One candidate point description of the given kind, or None."""
    n = rs.rank
    subset = tuple(range(n))
    if kind == "boundary" and rng.random() < 0.5:
        subset = tuple(i for i in range(n) if rng.random() < 0.7)
    torsion = {"interior": 0.0, "boundary": 0.85}.get(kind, 0.6)
    y = [torsion_value(rng, field) if rng.random() < torsion
         else generic_value(rng, field) for _ in subset]
    cen = centralizer(rs, field, subset, y)
    if not subset or (not cen if kind in ("torsion", "boundary")
                      else cen and kind == "interior"):
        return None
    base = rs.base_of(cen)
    families = maximal_nested_sets(len(base), rs.nonorthogonal_edges(base))
    sets = families[rng.randrange(len(families))] if base else ()
    tops = [s for s in sets if not any(s < q for q in sets)]
    tvals = []
    for s in sets:
        if s in tops:
            tvals.append(Fraction(rng.randint(1, 40), rng.randint(1, 9)))
        elif kind == "boundary" and rng.random() < 0.6:
            tvals.append(Fraction(0))
        else:
            tvals.append(Fraction(rng.randint(1, 40), rng.randint(1, 40)))
    if kind == "boundary" and Fraction(0) not in tvals:
        return None
    spec = {"type": rs.label, "field_order": field.order,
            "I": [i + 1 for i in subset], "y": [str(v) for v in y],
            "S": [[v + 1 for v in sorted(s)] for s in sets],
            "t": [str(t) for t in tvals]}
    if kind == "twisted":
        spec["w"] = [rng.randrange(n) + 1 for _ in range(rng.randint(1, 5))]
    return spec


def make_pool():
    rng = random.Random(GENERATOR_SEED)
    pool = []
    for (label, order), kind in product(workloads.SUBSPACE_CONFIGS,
                                        workloads.SUBSPACE_KINDS):
        rs, field = root_system(label), CyclotomicField(order)
        seen = set()
        tries = 0
        while len(seen) < workloads.POOL_PER_GROUP:
            tries += 1
            if tries > 100000:
                raise RuntimeError(f"cannot draw {kind} points for {label}")
            spec = draw(rng, rs, field, kind)
            if spec is None:
                continue
            text = json.dumps(spec, sort_keys=True)
            if text in seen:
                continue
            rc, out = run_cli(["subspace", "-"], text)
            if rc != 0:
                continue
            seen.add(text)
            pool.append({"group": f"{label}/{order}/{kind}", "spec": text,
                         "sha256": workloads.sha256(out)})
    return pool


def write_reference():
    ref = {"pool": make_pool()}
    ref["pool_sha256"] = workloads.pool_digest(ref["pool"])
    ref["corpus_sha256"] = {
        str(s): workloads.corpus_digest(workloads.subspace_corpus(ref["pool"], s))
        for s in CORPUS_SEEDS}
    ref["census"] = {}
    for argv in workloads.CENSUS + workloads.SELFTEST_ENUMERATE:
        rc, out = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"{argv} exited {rc}")
        ref["census"][" ".join(argv)] = workloads.sha256(out)
    rc, out = run_cli(["check", "all", "--type", "A2"])
    ref["check_names"] = [c["name"] for c in json.loads(out)["checks"]]
    path = Path(__file__).resolve().parent / "data" / "reference.json"
    path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(ref['pool'])} pool points")


if __name__ == "__main__":
    write_reference()
