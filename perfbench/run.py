"""Benchmark of graphlimitlab's acceptance drivers, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory, so nothing needs installing.  Workloads are listed in
workloads.py.  Every repetition runs in a fresh worker process, one at a
time, so module caches never carry over between repetitions.

--trace 0 measures the end-to-end metrics: after a few set-up-only
processes, repetitions run back to back for about S seconds (at least
one; another starts while it would end no more than half a repetition
past S), each on its own input seed derived from N, and each metric is
the median over them.  --trace 1 runs one untraced and one traced
repetition and reports the per-layer metrics of the traced one; both
outputs must hash alike.

End-to-end metrics, per repetition: wall_s is the workload's run time
after set-up; cpu_s the worker's user+sys CPU seconds over the same
span.  Both are printed as measured, but the gated metrics are
wall_ref_s and cpu_ref_s: the same spans less the host-speed probes'
own time, at the probes' reference speed (probe.py), because a shared
host's CPU speed drifts more from run to run than the bounds allow.
setup_s runs from spawning the worker until imports are done and
inputs are built; peak_rss_mib is the worker's peak resident set.
Failed repetitions are reported as the result's ``failed`` out of
``attempted`` (ops_failed), not as a metric.

Every repetition's output is checked (invariants at any seed, and the
sha256 recorded in workloads.py at the reference seed).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the run environment and the
sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_ONLY_RUNS = 6
RUN_LIMIT_S = 170.0  # a run, all its workers included, ends within this
# The drivers make no BLAS calls; a one-thread pool keeps numpy's import,
# part of set-up, from starting a thread per core and keeps the load to
# one thread.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")

END_TO_END = (("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))
# measured at the host's speed of the moment; printed, not gated
AS_MEASURED = ("wall_s", "cpu_s")


def _repetition(workload: str, seed: int, trace: bool, deadline: float,
                setup_only=False) -> dict:
    """Run the worker once; a crash or a check that fails sets problems."""
    command = [sys.executable, WORKER, workload, str(seed), "1" if trace else "0"]
    spawned = time.monotonic()
    command.append(repr(spawned))
    if setup_only:
        command.append("setup")
    timeout = max(1.0, deadline - spawned)
    try:
        done = subprocess.run(command, cwd=ROOT, env=WORKER_ENV,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker killed after {timeout:.0f} s"]}
    try:
        record = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"problems": [f"worker exited with {done.returncode} and no "
                               f"record: {done.stderr.strip()[-2000:]}"]}
    if done.returncode != 0 and not record.get("problems"):
        record["problems"] = [f"worker exited with {done.returncode}"]
    return record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    """sha256 over the library sources, which names the code under test
    also in a checkout that is not a git work tree."""
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(source)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, source).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _commit() -> str:
    """The commit under test, or 'unknown' outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _input_seed(seed: int, repetition: int) -> int:
    """The input seed of a run's repetition: --seed itself for the first,
    so the reference seed is checked, and one derived from it for each
    further one, so a run's median spans several inputs."""
    if repetition == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{repetition}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _untraced(workload: str, seed: int, seconds: float, deadline: float):
    setups = [_repetition(workload, seed, False, deadline, setup_only=True)
              for _ in range(SETUP_ONLY_RUNS)]
    start = time.monotonic()
    reps = []
    while True:
        reps.append(_repetition(workload, _input_seed(seed, len(reps)),
                                False, deadline))
        now = time.monotonic()
        mean = (now - start) / len(reps)
        # stop when stopping now ends nearer to S seconds than one more
        # repetition of average length would, so the runs average S
        if now - start + mean / 2 > seconds or now + 1.5 * mean > deadline:
            break
    timed = [rep for rep in reps if not rep.get("problems")]
    metrics = {}
    for name, unit in END_TO_END:
        source = setups + reps if name == "setup_s" else timed
        values = [rep[name] for rep in source if name in rep]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    notes = {"repetitions": len(reps), "timed": len(timed),
             "setup_samples": sum("setup_s" in rep for rep in setups + reps),
             "probes": sum(rep["probes"] for rep in timed)}
    for name in AS_MEASURED + ("wall_ref_s",):
        notes[f"{name}_samples"] = [rep[name] for rep in timed]
    for name in AS_MEASURED:
        if timed:
            notes[f"{name}_median"] = statistics.median(notes[f"{name}_samples"])
    return setups + reps, metrics, notes


def _traced(workload: str, seed: int, deadline: float):
    import tracer
    plain = _repetition(workload, seed, False, deadline)
    traced = _repetition(workload, seed, True, deadline)
    reps = [plain, traced]
    if not plain.get("problems") and not traced.get("problems") \
            and plain["digest"] != traced["digest"]:
        traced["problems"] = ["traced output differs from the untraced output"]
    metrics = {}
    if "layers" in traced:
        units = {name: unit for name, unit, _, _ in tracer.LAYER_METRICS}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in traced["layers"].items()}
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        if "wall_s" in plain:  # the untraced one ran with probes
            metrics["trace.overhead_s"] = {
                "value": traced["wall_s"] - plain["wall_s"] + plain["probe_s"],
                "unit": "s"}
    return reps, metrics, {"repetitions": len(reps)}


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "graphlimitlab", "__init__.py")):
        print(f"error: no graphlimitlab sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    environment = _environment()
    environment["load_start"] = os.getloadavg()
    if args.trace:
        processes, metrics, notes = _traced(args.workload, args.seed, deadline)
    else:
        processes, metrics, notes = _untraced(args.workload, args.seed,
                                              args.seconds, deadline)
    environment["load_end"] = os.getloadavg()

    # every worker process counts as an attempt, set-up probes included
    failed = [record for record in processes if record.get("problems")]
    for record in failed:
        for problem in record["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
    attempted = len(processes)
    print(json.dumps({"environment": environment}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "ops_failed": f"{len(failed)}/{attempted}", **notes}))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
