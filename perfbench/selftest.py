"""Self-test of the benchmark harness, at small sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout whose outputs match the reference.  It
shows that a corrupted stdout and a check reporting ``passed: false``
count as failed, that stdout is byte-identical with tracing on and off,
that the wrappers reach every import site and leave the expected
per-layer metrics non-zero, and that every metric run.py prints is named
in BENCHMARK.json and matches ``[A-Za-z0-9_.-]+``.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import run
import workloads

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def tiny_requests(ref) -> dict:
    """Small stand-ins for the three workloads, through the same verbs."""
    census = [{"argv": argv, "stdin": None,
               "expect": {"sha256": ref["census"][" ".join(argv)]}}
              for argv in workloads.SELFTEST_ENUMERATE]
    verify = [{"argv": ["check", "all", "--type", t, "--seed", "0"],
               "stdin": None, "expect": {"check": t}} for t in ("A2", "G2")]
    groups = {}
    for entry in ref["pool"]:
        if entry["group"].startswith(("G2/", "B3/12/")):
            groups.setdefault(entry["group"], entry)
    subspace = [{"argv": ["subspace", "-"], "stdin": e["spec"],
                 "expect": {"sha256": e["sha256"]}} for e in groups.values()]
    return {"census": census, "verify": verify, "subspace": subspace}


def test_judge(ref, reqs, results) -> None:
    names = ref["check_names"]
    verdicts = [workloads.judge(q, r["rc"], r["out"], names)
                for q, r in zip(reqs, results)]
    expect(verdicts[:-1] == ["ok"] * (len(reqs) - 1) and verdicts[-1] == "failed",
           "reference outputs pass; check all G2 --seed 0 is the known failure")
    caught = []
    for q, r in zip(reqs, results):
        corrupted = [r["out"][: len(r["out"]) // 2]]
        if "sha256" in q["expect"]:
            corrupted.append(r["out"].replace("1", "2", 1))
        caught += [workloads.judge(q, r["rc"], c, names) == "wrong" for c in corrupted]
    expect(all(caught), "a truncated stdout, and a changed digit in enumerate or "
           "subspace output, is judged wrong")
    a2 = reqs[-2]
    payload = json.loads(results[-2]["out"])
    payload["checks"][1]["passed"] = False
    payload["passed"] = False
    bad = json.dumps(payload)
    expect(workloads.judge(a2, 1, bad, names) == "wrong"
           and workloads.judge(a2, 0, bad, names) == "wrong",
           "a check reporting passed: false is judged wrong, whatever the exit code")
    payload["checks"] = payload["checks"][2:]
    payload["passed"] = True
    expect(workloads.judge(a2, 0, json.dumps(payload), names) == "wrong",
           "a check list missing a reference check is judged wrong")
    fake = run.Pass(0.0, [dict(r) for r in results], 0, None)
    fake.results[0]["out"] += "\n"
    attempted, failed, wrong = run.judge_passes(reqs, [fake], ref)
    expect((attempted, failed, wrong) == (len(reqs), 2, 1),
           "judge_passes counts a wrong output and the known failure as failed")


def test_tracing(ref, tiny) -> None:
    deadline = time.monotonic() + 600
    outputs = {}
    for name, reqs in tiny.items():
        plain = run.run_pass(reqs, deadline)
        outputs[name] = plain.results
        traced = run.run_pass(reqs, deadline, trace=True)
        expect([r["out"] for r in plain.results] == [r["out"] for r in traced.results],
               f"{name}: stdout byte-identical with tracing on and off")
        n_sub = sum(r["argv"][0] == "subspace" for r in reqs)
        values = run.layer_values(traced, n_sub)
        zeros = [m for m in run.EXPECT_NONZERO[name] if not values[m]]
        expect(not zeros, f"{name}: expected per-layer metrics non-zero {zeros or ''}")
    test_judge(ref, tiny["census"] + tiny["verify"],
               outputs["census"] + outputs["verify"])
    sites = traced.trace["sites"]
    wanted = {"linalg.rref": ["trigbethe.cli.rref", "trigbethe.bethe.rref"],
              "linalg.rank": ["trigbethe.bethe.mat_rank"],
              "layers.enumerate_layers": ["trigbethe.cli.enumerate_layers"],
              "bethe.weyl_action_report": ["trigbethe.cli.weyl_action_report"],
              "lattice.smith_normal_form": ["trigbethe.layers.smith_normal_form"]}
    missing = [s for name, want in wanted.items() for s in want
               if s not in sites.get(name, [])]
    expect(not missing, f"wrappers replace names bound by import {missing or ''}")


def test_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "subspace",
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=run.ROOT, timeout=170)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        names = list(result["metrics"])
        printed = all(any(n in line for line in lines[:-1]) for n in names)
        expect(proc.returncode == 0 and result["correct"] and printed,
               f"--trace {trace}: run exits 0, correct, prints every metric by name")
        expect(all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names),
               f"--trace {trace}: every metric name matches [A-Za-z0-9_.-]+")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == {n: v["unit"] for n, v in result["metrics"].items()},
               f"--trace {trace}: metrics and units are those BENCHMARK.json declares")


def main() -> int:
    ref = json.loads((run.HERE / "data" / "reference.json").read_text())
    test_tracing(ref, tiny_requests(ref))
    test_metric_names()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
