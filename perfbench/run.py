"""finslerlab benchmark launcher.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check-randers3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in fresh single-threaded processes (``worker.py``):
set-up-only processes to sample set-up time, then one process that also
runs the timed closed loop (one caller, waiting for each result).  With
``--trace 0`` the last line of output is the end-to-end result, with
``--trace 1`` it carries the per-layer metrics of a traced run.  The lines
before it print every metric with its unit, and the machine, versions,
commit and ``src/`` line counts the numbers belong to.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes whose set-up times give the median
WORKER_TIMEOUT_S = 150
TRACE_DIR = ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(job: dict) -> dict:
    """Run one worker in a fresh interpreter and return its measurements."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {job['workload']} exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker for {job['workload']} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    job = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "trace_dir": TRACE_DIR}
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(dict(job, mode="setup")))
    main = spawn(dict(job, mode="run"))
    setups.append(main)
    digests = {d for s in setups for d in s["digests"]}
    deterministic = len(digests) == 1
    op_times = main["op_times"]
    attempted = len(op_times)
    result = {
        "correct": deterministic,
        "attempted": attempted,
        "failed": main["failed"],
    }
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in main["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "points_per_s": main["points"] / sum(op_times),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result["metrics"] = metrics
    notes = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "points": main["points"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "deterministic_report": deterministic,
        "failures": main["failures"],
    }
    if trace:
        notes["spans"] = main["spans"]
        notes["trace_file"] = main["trace_file"]
        notes["traced_points_per_s"] = main["points"] / sum(op_times)
    return {"result": result, "notes": notes}


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    lines = {}
    for path in sorted(glob.glob(os.path.join("src", "finslerlab", "*.py"))):
        with open(path) as handle:
            lines[os.path.basename(path)[:-3]] = sum(1 for _ in handle)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "versions": versions,
        "commit": git_commit(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def report(outcome: dict) -> None:
    notes = outcome["notes"]
    result = outcome["result"]
    print(f"== {notes['workload']} (seed {notes['seed']}, {notes['seconds']} s)")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    print("notes " + json.dumps(notes, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "finslerlab", "__init__.py")):
        print("error: run from the root of a finslerlab checkout (src/finslerlab not found)",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine " + json.dumps(machine(), sort_keys=True))
    outcomes = []
    try:
        for name in names:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(outcome)
            outcomes.append(outcome)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for outcome in outcomes:
        print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
