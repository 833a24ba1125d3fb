"""One benchmark process: set-up, then (in ``run`` mode) the timed loop.

Started by ``run.py`` in a fresh interpreter, so that set-up time and peak
memory belong to one workload.  Reads its instructions as JSON on stdin and
prints its measurements as one JSON line on stdout.

Set-up time is the time from before ``import finslerlab`` until the
workload's models are built, plus the one-off part of the first result:
the first result is computed twice on the same fixed input, and the second
(warm) time is subtracted from the first (cold) one.  What remains is the
lazy work a fresh process pays once: jet product tables, sphere quadrature
rules, the first ``scipy.special`` import.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402


def _digest(first) -> str | None:
    """Digest of the CLI report bytes of the first result, if it has one."""
    if isinstance(first, tuple) and isinstance(first[1], str):
        return hashlib.sha256(first[1].encode()).hexdigest()
    return None


def main() -> int:
    job = json.loads(sys.stdin.read())
    import finslerlab

    here = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(finslerlab.__file__).startswith(here + os.sep):
        print(f"finslerlab imported from {finslerlab.__file__}, not from {here}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]()
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    with tracer.root("bench.setup") if tracer else contextlib.nullcontext():
        workload.build()
        t_ready = time.perf_counter() - T_START
        t0 = time.perf_counter()
        first = workload.first()
        cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm_first = workload.first()
    warm = time.perf_counter() - t0
    out = {
        "setup_s": t_ready + cold - warm,
        "digests": [_digest(first), _digest(warm_first)],
    }
    if job["mode"] == "run":
        out.update(timed_loop(workload, job, tracer))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def timed_loop(workload, job: dict, tracer) -> dict:
    """Run operations until ``seconds`` have passed.

    Only the operation itself is timed; the oracle runs after it, untimed
    and untraced.
    """
    rng = np.random.default_rng(job["seed"])
    op_times: list[float] = []
    failures: list[str] = []
    failed = 0
    report_bytes = 0
    deadline = time.perf_counter() + job["seconds"]
    for inputs in workload.inputs(rng):
        t0 = time.perf_counter()
        try:
            with tracer.root("bench.op") if tracer else contextlib.nullcontext():
                result = workload.run(inputs)
        except Exception as err:  # a failed operation is counted, not fatal
            problems = [f"{type(err).__name__}: {err}"]
        else:
            problems = None
        op_times.append(time.perf_counter() - t0)
        if problems is None:
            report_bytes += workload.report_bytes(result)
            problems = workload.check(inputs, result)
        if problems:
            failed += 1
            failures.extend(problems[:3])
        if time.perf_counter() >= deadline:
            break
    out = {
        "op_times": op_times,
        "points": len(op_times) * workload.points_per_op,
        "failed": failed,
        "failures": failures[:20],
    }
    if tracer:
        from spans import layer_metrics

        out["layers"] = layer_metrics(tracer, len(op_times), out["points"], report_bytes)
        out["spans"] = len(tracer.name)
        os.makedirs(job["trace_dir"], exist_ok=True)
        path = os.path.join(job["trace_dir"], f"{workload.name}-seed{job['seed']}.npz")
        tracer.write(path)
        out["trace_file"] = path
    return out


if __name__ == "__main__":
    sys.exit(main())
