"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED [setup]

SPAWNED is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so set-up time runs
from there until imports are done and inputs are built.  With ``setup``
the worker stops after set-up.  With TRACE 1 the layer functions are
wrapped first (see tracer.py); with TRACE 0 host-speed probes run
alongside the workload (see probe.py).  A fresh process per repetition means the
census caches and the canonical_key cache start empty every time.

Prints one JSON record as the last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")


def _representatives() -> int:
    from graphlimitlab import census
    return sum(len(reps) for levels in census._census_cache.values()
               for m, reps in levels.items() if m > 0)


def main(argv) -> int:
    name, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    setup_only = argv[4:] == ["setup"]
    record = {}
    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        sys.path.insert(0, SOURCE)  # the checkout's library, never an installed one
        import probe
        from workloads import REFERENCE_SEED, WORKLOADS
        workload = WORKLOADS[name]
        spans = None
        if trace:
            import tracer
            spans = tracer.Tracer()
            tracer.install(spans)
        run = workload.prepare(workdir, seed)
        ready = time.monotonic()
        record["setup_s"] = ready - spawned
        if not setup_only:
            before = resource.getrusage(resource.RUSAGE_SELF)
            if trace:
                output = run()
            else:
                with probe.Probes(workload.probe) as probes:
                    output = run()
            record["wall_s"] = time.monotonic() - ready
            usage = resource.getrusage(resource.RUSAGE_SELF)
            record["cpu_s"] = (usage.ru_utime + usage.ru_stime
                               - before.ru_utime - before.ru_stime)
            if not trace:
                record["probes"] = len(probes.wall)
                record["probe_s"] = sum(probes.wall)
                record["wall_ref_s"] = workload.probe.rescale(record["wall_s"],
                                                              probes.wall)
                record["cpu_ref_s"] = workload.probe.rescale(record["cpu_s"],
                                                             probes.cpu)
            record["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # KiB on Linux
            record["digest"] = hashlib.sha256(output).hexdigest()
            problems = workload.check(output)
            if seed == REFERENCE_SEED and record["digest"] != workload.reference:
                problems.append(f"output sha256 {record['digest']} differs from "
                                f"the reference {workload.reference}")
            record["problems"] = problems
            if spans is not None:
                record["layers"] = tracer.layer_metrics(spans, _representatives())
    except Exception:  # reported to the parent, which counts the failure
        record["problems"] = [traceback.format_exc()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 1 if record.get("problems") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
