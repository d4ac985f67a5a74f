"""One benchmark pass, run by run.py in a fresh child process.

Reads a job from stdin: ``{"src": ..., "requests": [{"argv", "stdin"}],
"trace": bool, "setup_only": bool, "period": s, "setup_samples": n}``.
It imports ``trigbethe.cli``, loads the job, notes the monotonic time at which it is ready (the end of
set-up), then calls ``trigbethe.cli.main(argv)`` for each request in turn,
one client in a closed loop, with the request's stdin, stdout and stderr
bound to in-memory files.

An untraced job also times the calibration kernel (calibrate.py): a burst
of ``setup_samples`` right after set-up, and every ``period`` seconds while
the requests run.  A request's seconds leave out the time of the samples
taken during it.

It writes one JSON line per request (exit code, stdout, stderr, seconds,
start and end on the perf_counter clock) and a last line with the ready
time, the peak resident memory, the kernel samples and, when traced, the
trace.

"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import trigbethe.cli
from calibrate import Sampler


def run_request(req: dict, sampler: Sampler | None = None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(req["stdin"] or "")
    spent = sampler.spent if sampler else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = trigbethe.cli.main(req["argv"])
    except SystemExit as exc:   # argparse rejecting the arguments
        rc = exc.code
    except Exception:  # noqa: BLE001 -- recorded, and judged as a wrong output
        rc = None
        err.write(traceback.format_exc())
    finally:
        end = time.perf_counter()
        sys.stdin = saved_stdin
    interrupted = sampler.spent - spent if sampler else 0.0
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
            "s": end - start - interrupted, "t0": start, "t1": end}


def main() -> int:
    job = json.load(sys.stdin)
    ready = time.monotonic()
    src = Path(job["src"]).resolve()
    if src not in Path(trigbethe.cli.__file__).resolve().parents:
        print(f"trigbethe was imported from {trigbethe.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3
    done: dict = {"ready": ready}
    sampler = None if job["trace"] else Sampler(job["period"])
    if sampler is not None:
        for _ in range(job["setup_samples"]):
            sampler.sample()
    if not job["setup_only"]:
        tracer = None
        if job["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        else:
            sampler.start()
        for i, req in enumerate(job["requests"]):
            if tracer is not None:
                tracer.request = i
            result = run_request(req, sampler)
            sys.stdout.write(json.dumps(result) + "\n")
        if tracer is not None:
            done["trace"] = tracer.report()
        else:
            sampler.stop()
            sampler.sample()
    if sampler is not None:
        done["samples"] = sampler.samples
        done["setup_samples"] = job["setup_samples"]
    done["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(done) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
