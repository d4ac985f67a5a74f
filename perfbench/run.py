"""Benchmark of the trigbethe command line, end to end and per module.

    python3 perfbench/run.py --workload census|verify|subspace|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Every pass runs its whole request list through ``trigbethe.cli.main`` in
one fresh child process (perfbench/worker.py), one client in a closed
loop, so caches start cold on every pass as they do for a CLI user.  At
most one pass runs at a time.  A run makes as many passes as fit in
``--seconds`` at the workload's nominal pass time (NOMINAL_PASS_S), at
least one, so the same arguments always do the same work.

Every end-to-end timing is reported at one fixed host speed: each
request's time is scaled by a calibration kernel timed around it in the
same process (calibrate.py), and set-up time by a burst of the kernel run
just after it.  The raw figures are printed on the lines above the result.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and reports the per-module metrics of the
traced ones plus the tracing overhead.  Every output is checked against
perfbench/data/reference.json (see workloads.judge).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Spans of
the first traced pass go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10    # set-up-only child processes per run, besides the passes
RUN_LIMIT_S = 170    # a run gives up (without a result) after this long
CAL_PERIOD_S = 0.1   # calibration kernel period while requests run
CAL_WINDOW_S = 0.5   # samples this close to a request calibrate it
SETUP_SAMPLES = 20   # kernel burst that calibrates set-up time

# Seconds of one untraced pass at about the reference speed; traced passes
# take about TRACE_COST times longer.
NOMINAL_PASS_S = {"census": 14.0, "verify": 9.0, "subspace": 7.5}
TRACE_COST = 1.3

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("request_p50_ms", "ms"),
]

PER_LAYER = [
    ("field.mul.calls", "count"), ("field.mul.self_s", "s"),
    ("field.inverse.calls", "count"), ("field.inverse.self_s", "s"),
    ("field.pow.calls", "count"), ("field.add.calls", "count"),
    ("field.element.calls", "count"), ("field.is_one.calls", "count"),
    ("field.parse.calls", "count"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("linalg.rref.entries", "count"), ("linalg.mat_inverse.calls", "count"),
    ("linalg.nullspace.calls", "count"), ("linalg.rank.calls", "count"),
    ("lattice.smith_normal_form.calls", "count"),
    ("lattice.smith_normal_form.self_s", "s"),
    ("lattice.hermite_normal_form.calls", "count"),
    ("lattice.hermite_normal_form.self_s", "s"),
    ("lattice.int_rank.calls", "count"),
    ("layers.enumerate_layers.calls", "count"),
    ("layers.enumerate_layers.self_s", "s"),
    ("layers.enumerate_layers.total_s", "s"),
    ("layers.enumerate_layers.layers_out", "count"),
    ("layers.enumerate_layers.snf_per_layer", "ratio"),
    ("layers.poset_relations.total_s", "s"),
    ("layers.layer_contains.calls", "count"),
    ("layers.generic_point.calls", "count"),
    ("roots.weyl_elements.total_s", "s"),
    ("roots.inverse_matrix.calls", "count"), ("roots.inverse_matrix.self_s", "s"),
    ("roots.matrix_of_word.calls", "count"),
    ("roots.inversion_set.calls", "count"),
    ("bethe.weyl_action_report.total_s", "s"),
    ("bethe.act.calls", "count"), ("bethe.act.self_s", "s"),
    ("bethe.h_transport.calls", "count"),
    ("bethe.XPoint.subspace.calls", "count"),
    ("bethe.XPoint.subspace.per_request", "count"),
    ("bethe.recover_data.total_s", "s"),
    ("bethe.xpoint_from_dict.total_s", "s"),
    ("bethe.sample_xpoints.total_s", "s"),
    ("bethe.injectivity_pool.total_s", "s"),
    ("nested.maximal_nested_sets.calls", "count"),
    ("nested.Chart.hamiltonian_coeffs.calls", "count"),
    ("nested.Chart.hamiltonian_coeffs.self_s", "s"),
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("hecke.multiply.calls", "count"), ("hecke.multiply.self_s", "s"),
    ("hecke.move_across_word.calls", "count"),
    ("hecke.commutator.total_s", "s"),
    ("spin.trig_hamiltonian.total_s", "s"),
    ("spin.commute.total_s", "s"),
    ("typea.spans_match.total_s", "s"),
    ("cli.main.self_s", "s"), ("cli.build_parser.total_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.unexpected_zeros", "count"),
]

# Per-layer metrics that read non-zero on a workload at the reference
# commit.  A zero there usually means a wrapper missed an import site;
# run.py warns and counts them in trace.unexpected_zeros, and the
# self-test fails on them.  (A change that removes a layer's work on
# purpose may zero one legitimately, so it is not a wrong output.)
_ALL = ["field.mul.calls", "field.mul.self_s", "field.pow.calls",
        "field.element.calls", "field.is_one.calls",
        "linalg.rref.calls", "linalg.rref.self_s", "linalg.rref.entries",
        "cli.main.self_s", "cli.build_parser.total_s", "cli.output_bytes"]
EXPECT_NONZERO = {
    "census": _ALL + [
        "field.inverse.calls", "field.inverse.self_s",
        "linalg.mat_inverse.calls",
        "lattice.smith_normal_form.calls", "lattice.smith_normal_form.self_s",
        "lattice.hermite_normal_form.calls", "lattice.hermite_normal_form.self_s",
        "lattice.int_rank.calls",
        "layers.enumerate_layers.calls", "layers.enumerate_layers.self_s",
        "layers.enumerate_layers.total_s", "layers.enumerate_layers.layers_out",
        "layers.enumerate_layers.snf_per_layer", "layers.poset_relations.total_s",
        "layers.layer_contains.calls"],
    "verify": _ALL + [
        "field.add.calls", "field.inverse.calls", "field.inverse.self_s",
        "linalg.mat_inverse.calls", "linalg.nullspace.calls", "linalg.rank.calls",
        "layers.generic_point.calls",
        "roots.weyl_elements.total_s", "roots.inverse_matrix.calls",
        "roots.inverse_matrix.self_s", "roots.matrix_of_word.calls",
        "roots.inversion_set.calls",
        "bethe.weyl_action_report.total_s", "bethe.act.calls", "bethe.act.self_s",
        "bethe.h_transport.calls", "bethe.XPoint.subspace.calls",
        "bethe.sample_xpoints.total_s", "bethe.injectivity_pool.total_s",
        "nested.maximal_nested_sets.calls",
        "nested.Chart.hamiltonian_coeffs.calls",
        "nested.Chart.hamiltonian_coeffs.self_s",
        "poly.mul.calls", "poly.mul.self_s", "hecke.multiply.calls",
        "hecke.multiply.self_s", "hecke.move_across_word.calls",
        "hecke.commutator.total_s", "spin.trig_hamiltonian.total_s",
        "spin.commute.total_s", "typea.spans_match.total_s"],
    "subspace": _ALL + [
        "field.add.calls", "field.inverse.calls", "field.inverse.self_s", "field.parse.calls",
        "linalg.mat_inverse.calls", "linalg.nullspace.calls", "linalg.rank.calls",
        "roots.inverse_matrix.calls", "roots.inverse_matrix.self_s",
        "roots.matrix_of_word.calls", "roots.inversion_set.calls",
        "bethe.act.calls", "bethe.act.self_s", "bethe.h_transport.calls",
        "bethe.XPoint.subspace.calls", "bethe.XPoint.subspace.per_request",
        "bethe.recover_data.total_s", "bethe.xpoint_from_dict.total_s",
        "nested.Chart.hamiltonian_coeffs.calls",
        "nested.Chart.hamiltonian_coeffs.self_s"],
}


class HarnessError(Exception):
    """A pass could not be run or its report could not be read."""


def speed(samples, t0, t1) -> float:
    """Reference kernel time over the mean kernel time within CAL_WINDOW_S
    of [t0, t1] (the nearest sample if none is that close)."""
    near = [d for t, d in samples if t0 - CAL_WINDOW_S <= t <= t1 + CAL_WINDOW_S]
    if not near:
        near = [min(samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]]
    return REFERENCE_S / statistics.fmean(near)


@dataclass
class Pass:
    setup_s: float        # spawn until trigbethe.cli is imported and the job loaded
    results: list         # per request: rc, out, err, s, t0, t1
    maxrss_kb: int
    trace: dict | None
    samples: list | None = None   # calibration kernel (start, seconds), untraced only
    setup_samples: int = 0        # the first ones, taken right after set-up

    @property
    def run_s(self) -> float:
        """Raw wall time of the requests."""
        return sum(r["s"] for r in self.results)

    @property
    def setup_at_ref(self) -> float:
        burst = self.samples[:self.setup_samples]
        return self.setup_s * REFERENCE_S / statistics.fmean(d for _, d in burst)

    @property
    def latencies_at_ref(self) -> list:
        return [r["s"] * speed(self.samples, r["t0"], r["t1"]) for r in self.results]


def run_pass(requests, deadline, trace=False, setup_only=False) -> Pass:
    job = {"src": str(ROOT / "src"), "trace": trace, "setup_only": setup_only,
           "period": CAL_PERIOD_S, "setup_samples": SETUP_SAMPLES,
           "requests": [{"argv": r["argv"], "stdin": r["stdin"]} for r in requests]}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("out of time before the pass started")
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    try:
        *results, done = [json.loads(line) for line in proc.stdout.splitlines()]
    except ValueError as exc:
        raise HarnessError(f"unreadable worker report: {exc}") from exc
    if len(results) != (0 if setup_only else len(requests)):
        raise HarnessError(f"worker returned {len(results)} results "
                           f"for {len(requests)} requests")
    return Pass(done["ready"] - start, results, done["maxrss_kb"], done.get("trace"),
                done.get("samples"), done.get("setup_samples", 0))


def pass_count(workload, seconds, trace) -> int:
    """Passes (pairs, traced) that fit in `seconds` at the nominal pass time."""
    cost = NOMINAL_PASS_S[workload] * (1 + TRACE_COST if trace else 1)
    return max(1, int(seconds // cost))


def layer_values(p: Pass, n_subspace: int) -> dict:
    """Per-layer metric values of one traced pass (overhead added later)."""
    stats, counts = p.trace["stats"], p.trace["counts"]
    snf_in_enum = sum(row[2] for row in p.trace["by_parent"]
                      if row[:2] == ["layers.enumerate_layers",
                                     "lattice.smith_normal_form"])
    layers_out = counts.get("layers.enumerate_layers.layers_out", 0)
    sub_calls = stats.get("bethe.XPoint.subspace", {}).get("calls", 0)
    special = {
        "layers.enumerate_layers.snf_per_layer":
            snf_in_enum / layers_out if layers_out else 0.0,
        "bethe.XPoint.subspace.per_request":
            sub_calls / n_subspace if n_subspace else 0.0,
        "cli.output_bytes": sum(len(r["out"].encode()) for r in p.results),
    }
    out = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif field in ("calls", "total_s", "self_s"):
            out[name] = stats.get(base, {}).get(field, 0)
        elif base != "trace":
            out[name] = counts.get(name, 0)
    return out


@dataclass
class Measurement:
    correct: bool
    attempted: int
    failed: int
    metrics: dict          # name -> (value, unit, sample description)
    summary: str


def judge_passes(requests, passes, ref):
    attempted = failed = wrong = 0
    for p in passes:
        for req, res in zip(requests, p.results):
            verdict = workloads.judge(req, res["rc"], res["out"], ref["check_names"])
            attempted += 1
            if verdict != "ok":
                failed += 1
            if verdict == "wrong":
                wrong += 1
                if wrong <= 3:
                    print(f"wrong output: {' '.join(req['argv'])} exit {res['rc']}: "
                          f"{res['err'].strip()[-500:]}", file=sys.stderr)
    return attempted, failed, wrong


def measure(workload, seed, seconds, trace, ref) -> Measurement:
    deadline = time.monotonic() + RUN_LIMIT_S
    requests = workloads.requests(workload, seed, ref)
    n = pass_count(workload, seconds, trace)
    if not trace:
        probes = [run_pass(requests, deadline, setup_only=True)
                  for _ in range(SETUP_PROBES)]
        passes = [run_pass(requests, deadline) for _ in range(n)]
        traced = []
    else:
        pairs = [(run_pass(requests, deadline), run_pass(requests, deadline, trace=True))
                 for _ in range(n)]
        passes = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
    attempted, failed, wrong = judge_passes(requests, passes + traced, ref)
    if traced and any(t.results[i]["out"] != u.results[i]["out"]
                      for u, t in pairs for i in range(len(requests))):
        print("stdout differs between traced and untraced passes", file=sys.stderr)
        wrong += 1

    k = len(passes)
    metrics = {}
    if not trace:
        # each distinct request's median over passes, then the median of those
        lat = [statistics.median(ms) for ms in
               zip(*([s * 1000 for s in p.latencies_at_ref] for p in passes))]
        setups = [p.setup_at_ref for p in probes + passes]
        raw_setup = statistics.median(p.setup_s for p in probes + passes)
        metrics["setup_s"] = (statistics.median(setups), f"median of {len(setups)} "
                              f"set-ups at reference speed (raw {raw_setup:.4f})")
        metrics["run_s"] = (statistics.median(sum(p.latencies_at_ref) for p in passes),
                            f"median of {k} passes at reference speed; raw: "
                            + " ".join(f"{p.run_s:.3f}" for p in passes))
        metrics["peak_rss_mb"] = (statistics.median(p.maxrss_kb / 1024 for p in passes),
                                  f"median of {k} passes")
        raw_p50 = statistics.median(statistics.median(r["s"] * 1000 for r in rs)
                                    for rs in zip(*(p.results for p in passes)))
        metrics["request_p50_ms"] = (statistics.median(lat), f"median of {len(lat)} "
                                     f"distinct requests' medians over {k} passes at "
                                     f"reference speed (raw {raw_p50:.3f})")
        units = dict(END_TO_END)
    else:
        n_sub = sum(r["argv"][0] == "subspace" for r in requests)
        per_pass = [layer_values(t, n_sub) for t in traced]
        desc = f"{len(traced)} traced passes"
        for name in per_pass[0]:
            values = [v[name] for v in per_pass]
            if name.endswith(("calls", "entries", "layers_out", "output_bytes")) \
                    and len(set(values)) > 1:
                print(f"{name} differs between traced passes: {values}",
                      file=sys.stderr)
            metrics[name] = (statistics.median(values), desc)
        metrics["trace.overhead_s"] = (
            statistics.median(t.run_s for t in traced)
            - statistics.median(p.run_s for p in passes),
            f"traced minus untraced run_s, {k} pairs")
        zeros = [n for n in EXPECT_NONZERO[workload] if not metrics[n][0]]
        for name in zeros:
            print(f"warning: {name} reads 0 on {workload}", file=sys.stderr)
        metrics["trace.unexpected_zeros"] = (len(zeros), desc)
        units = dict(PER_LAYER)
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / f"trace-{workload}-seed{seed}.json").write_text(
            json.dumps(traced[0].trace) + "\n")
    summary = (f"{workload} seed {seed}: {k} untraced + {len(traced)} traced "
               f"passes of {len(requests)} requests; failed {failed}/{attempted} "
               f"(failed_ratio {failed / attempted:.4f}), wrong outputs {wrong}")
    return Measurement(wrong == 0, attempted, failed,
                       {n: (v, units[n], d) for n, (v, d) in metrics.items()},
                       summary)


def print_measurement(m: Measurement, prefix=""):
    print(m.summary)
    for name, (value, unit, desc) in m.metrics.items():
        print(f"  {prefix}{name:<42} {value:>14.6g} {unit:<6} {desc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trigbethe" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'trigbethe'} is missing",
              file=sys.stderr)
        return 2
    ref = json.loads((HERE / "data" / "reference.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), ref)
    except (HarnessError, workloads.CorpusError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, m in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        print_measurement(m, prefix)
        metrics.update({prefix + n: {"value": v, "unit": u}
                        for n, (v, u, _) in m.metrics.items()})
    print(json.dumps({
        "correct": all(m.correct for m in results.values()),
        "attempted": sum(m.attempted for m in results.values()),
        "failed": sum(m.failed for m in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
