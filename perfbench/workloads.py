"""Workload definitions, the input corpus and the output oracle.

A request is ``{"argv": [...], "stdin": text or None, "expect": ...}``:
the argument vector handed to ``trigbethe.cli.main`` and what its output
is judged against.  This module imports nothing from the program under
test, so the harness can run against any commit.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("census", "verify", "subspace")

# census: the same four requests for every seed.  Each (verb, type) pair
# appears once, so nothing a cache kept between requests could reuse that
# a CLI user would not also reuse.
CENSUS = [
    ["enumerate", "layers", "--type", "B4", "--format", "dot"],
    ["enumerate", "boundary-strata", "--type", "C4"],
    ["enumerate", "building-set", "--type", "D4"],
    ["enumerate", "layers", "--type", "A4"],
]

VERIFY_TYPES = ("A2", "B2", "G2", "A3")

# Checks that fail at the reference commit for some seeds.  They count as
# failed requests, but do not mark the run's outputs as wrong; any other
# failing check does.  injectivity: the pool it checks can hold one point
# of the compactification under two descriptions that differ by a Weyl
# element of the point's centralizer, and the two give the same subspace.
# `check all --type G2 --seed 0` holds {"I":[2],"y":["1"],"S":[[1]],"t":["1"]}
# with and without w=[2]; `--type A2 --seed 14` holds y=["1","1"],
# t=["0","1"] with S=[[2],[1,2]] and with S=[[1],[1,2]], w=[1,2,1].
KNOWN_FAILING_CHECKS = {"injectivity"}

# subspace: (type, field order) configurations and point kinds.  The pool
# holds POOL_PER_GROUP points per (configuration, kind); a seed selects
# PER_GROUP of each, so every corpus has the same mix.
SUBSPACE_CONFIGS = (("A3", 6), ("B3", 6), ("C3", 6), ("A4", 6), ("D4", 6),
                    ("G2", 6), ("B3", 12), ("G2", 12))
SUBSPACE_KINDS = ("interior", "torsion", "boundary", "twisted")
POOL_PER_GROUP = 40
PER_GROUP = 10

# Small requests for the harness self-test, digests kept in the reference.
SELFTEST_ENUMERATE = [
    ["enumerate", "layers", "--type", "A2"],
    ["enumerate", "boundary-strata", "--type", "G2"],
    ["enumerate", "building-set", "--type", "B2"],
    ["enumerate", "layers", "--type", "G2", "--format", "dot"],
]


class CorpusError(Exception):
    """The reference data or the corpus drawn from it is not the recorded one."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pool_digest(pool) -> str:
    return sha256(json.dumps(pool, sort_keys=True))


def corpus_digest(corpus) -> str:
    return sha256("\n".join(entry["spec"] for entry in corpus))


def subspace_corpus(pool, seed: int):
    """PER_GROUP pool entries from every group, in a seed-shuffled order."""
    rng = random.Random(f"subspace-corpus-{seed}")
    groups: dict[str, list] = {}
    for entry in pool:
        groups.setdefault(entry["group"], []).append(entry)
    picked = []
    for name in sorted(groups):
        picked += rng.sample(groups[name], PER_GROUP)
    rng.shuffle(picked)
    return picked


def requests(workload: str, seed: int, ref: dict) -> list[dict]:
    """The request list of one pass; raises CorpusError on drifted inputs."""
    if workload == "census":
        return [{"argv": argv, "stdin": None,
                 "expect": {"sha256": ref["census"][" ".join(argv)]}}
                for argv in CENSUS]
    if workload == "verify":
        return [{"argv": ["check", "all", "--type", t, "--seed", str(seed)],
                 "stdin": None, "expect": {"check": t}}
                for t in VERIFY_TYPES]
    if workload == "subspace":
        if pool_digest(ref["pool"]) != ref["pool_sha256"]:
            raise CorpusError("subspace pool does not match its recorded digest")
        corpus = subspace_corpus(ref["pool"], seed)
        want = ref["corpus_sha256"].get(str(seed))
        if want is not None and corpus_digest(corpus) != want:
            raise CorpusError(f"subspace corpus for seed {seed} changed")
        return [{"argv": ["subspace", "-"], "stdin": e["spec"],
                 "expect": {"sha256": e["sha256"]}} for e in corpus]
    raise ValueError(f"unknown workload {workload!r}")


def judge(req: dict, rc, out: str, check_names) -> str:
    """'ok', 'failed' (a known defect) or 'wrong' for one request's result.

    enumerate and subspace output must be byte-identical to the reference.
    A check is judged on what it verifies: the requested type, every
    reference check present, every check passed, and an exit code that
    agrees with the verdict.
    """
    expect = req["expect"]
    if "sha256" in expect:
        return "ok" if rc == 0 and sha256(out) == expect["sha256"] else "wrong"
    try:
        payload = json.loads(out)
        checks = {c["name"]: c["passed"] for c in payload["checks"]}
        label = payload["type"]
    except (ValueError, KeyError, TypeError):
        return "wrong"
    failing = {name for name, passed in checks.items() if passed is not True}
    if label != expect["check"] or not set(check_names) <= set(checks) \
            or rc != (1 if failing else 0) or payload.get("passed") != (not failing):
        return "wrong"
    if not failing:
        return "ok"
    return "failed" if failing <= KNOWN_FAILING_CHECKS else "wrong"
