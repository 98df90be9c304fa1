"""One-off reference trace of the long baseline rows (not a workload).

    python3 perfbench/reference.py

Traces, once each, the jobs too long to repeat in every benchmark run:
``homology z5affine --degree 2`` in plain and N, and the order-4
``enumerate --filter all_quasigroups --dedup``.  Prints each job's wall
time and the share of traced job time per layer and per span, so the split
can be set beside the ``homology`` and ``enumerate`` workloads.  Takes
several minutes.
"""

import json
import os
import shutil
import sys

import run
from workloads import Job

RESULTS = {}


def keep_last_line(name):
    def check(out):
        RESULTS[name] = out.strip().splitlines()[-1]
        return []

    return check


JOBS = [
    Job(name, argv, keep_last_line(name)) for name, argv in [
        ("z5affine-H2-none-quot", ["homology", "fixtures/z5affine.ktq", "--degree", "2"]),
        ("z5affine-H2-D-quot",
         ["homology", "fixtures/z5affine.ktq", "--degree", "2", "--relators", "D"]),
        ("order4-all_quasigroups-dedup",
         ["enumerate", "--order", "4", "--filter", "all_quasigroups", "--dedup"]),
    ]
]


def main():
    os.chdir(run.ROOT)
    work = os.path.join(run.WORK, "reference-%d" % os.getpid())
    os.makedirs(work)
    try:
        for job in JOBS:
            r = run.run_job(job, work, True)
            tr = r.trace or {}
            job_s = tr.get("total", {}).get("cli.main", 0.0) or 1.0
            print(json.dumps({
                "job": r.name,
                "wall_s": round(r.seconds, 2),
                "result": RESULTS.get(r.name),
                "problems": r.problems,
                "layers": {k: round(v / job_s, 3) for k, v in sorted(tr.get("layers", {}).items())},
                "spans_self": {k: round(v / job_s, 3) for k, v in sorted(tr.get("self", {}).items())
                               if v / job_s >= 0.005},
            }), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
