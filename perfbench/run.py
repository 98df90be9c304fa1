"""Benchmark of the ``ktq`` command line.

    python3 perfbench/run.py --workload {homology,compare,enumerate}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A closed loop with one client: each job
is one ``ktq`` process (``perfbench/job.py`` around ``ktq.cli.cli_main``),
started after the previous one ended, and its stdout is checked by the
job's oracle.  The job set is repeated, in an order shuffled by the seed,
while another set still fits in S seconds; at least one set runs.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
one untraced set runs first, then traced sets for the rest of the S
seconds, and the per-layer metrics are printed together with the tracing
overhead.  The last line of stdout is the JSON result; every job's time and
every failure go to stderr, and failures are counted in ``failed``.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from workloads import WORKLOADS, Job, make_jobs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB = os.path.join("perfbench", "job.py")
WORK = ".perfbench_work"
JOB_TIMEOUT_S = 150
WARM_UP = Job("warm-up", ["verify", "fixtures/z3linear.ktq"], lambda out: [])


@dataclass
class JobResult:
    name: str
    seconds: float
    setup: Optional[float]  # None when the command handler was not reached
    rss_mb: float
    problems: List[str]
    trace: Optional[dict]


def run_job(job, work, trace):
    """Run one job to completion and check its output."""
    report = os.path.join(work, "report.json")
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    if os.path.exists(report):
        os.remove(report)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, JOB, report, "1" if trace else "0", "--"] + job.argv
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        end = time.monotonic()
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    problems = []
    data = {}
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-300:].strip()
        problems.append("exit code %d: %s" % (proc.returncode, tail))
    else:
        try:
            with open(report, encoding="utf-8") as fh:
                data = json.load(fh)
            problems.extend(job.check(stdout))
        except Exception as exc:  # a malformed output must not stop the run
            problems.append("unreadable result: %r" % (exc,))
    setup = data["handler_at"] - start if "handler_at" in data else None
    return JobResult(job.name, end - start, setup, usage.ru_maxrss / 1024.0, problems,
                     data.get("trace"))


def run_sets(jobs, rng, work, trace, seconds):
    """Run the job set repeatedly while another set fits in ``seconds``."""
    sets = []
    begin = time.monotonic()
    order = list(jobs)
    while True:
        rng.shuffle(order)
        t0 = time.monotonic()
        results = [run_job(job, work, trace) for job in order]
        elapsed = time.monotonic() - t0
        for r in results:
            print("%-32s %8.3f s%s" % (r.name, r.seconds, " traced" if trace else ""), file=sys.stderr)
            for p in r.problems:
                print("FAILED %s: %s" % (r.name, p), file=sys.stderr)
        sets.append((elapsed, results))
        if time.monotonic() - begin + elapsed > seconds:
            return sets


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(sets):
    per_job = {}
    for _, results in sets:
        for r in results:
            per_job.setdefault(r.name, []).append(r.seconds)
    job_medians = [median(v) for v in per_job.values()]
    results = [r for _, rs in sets for r in rs]
    return {
        "setup_s": (median([r.setup for r in results if r.setup is not None]), "s"),
        "wall_s": (median([elapsed for elapsed, _ in sets]), "s"),
        "job_p50_s": (median(job_medians), "s"),
        "job_max_s": (max(job_medians), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
    }


LAYERS = ("cli", "algebra", "chains", "homology", "intlinalg", "diagram", "invariants")


def layer_metrics(results):
    """Per-layer metrics of one traced set, summed over its jobs."""
    total, own, layers, counts = {}, {}, {}, {}
    distinct = 0
    for r in results:
        tr = r.trace or {}
        for acc, key in ((total, "total"), (own, "self"), (layers, "layers"), (counts, "counts")):
            for k, v in tr.get(key, {}).items():
                acc[k] = acc.get(k, 0) + v
        distinct += tr.get("colorings_distinct", 0)

    def T(name):
        return total.get(name, 0.0)

    def S(name):
        return own.get(name, 0.0)

    def C(name):
        return counts.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.self_s": (S("cli.main"), "s"),
        "algebra.classify_s": (T("algebra.parse") + T("algebra.classify"), "s"),
        "algebra.enumerate.self_s": (S("algebra.enumerate"), "s"),
        "algebra.check_a3_s": (T("algebra.check_a3"), "s"),
        "algebra.check_a3.calls": (C("algebra.check_a3.calls"), "count"),
        "algebra.a3_pass_ratio": (ratio(C("algebra.check_a3.pass"), C("algebra.check_a3.calls")), "ratio"),
        "algebra.canonical_form_s": (T("algebra.canonical_form"), "s"),
        "algebra.canonical_form.calls": (C("algebra.canonical_form.calls"), "count"),
        "chains.boundary_tuple_s": (T("chains.boundary_tuple"), "s"),
        "chains.boundary_tuple.calls": (C("chains.boundary_tuple.calls"), "count"),
        "chains.relator_generators_s": (T("chains.relator_generators"), "s"),
        "homology.boundary_matrix.self_s": (S("homology.boundary_matrix"), "s"),
        "homology.boundary_matrix.cells": (C("homology.boundary_matrix.cells"), "count"),
        "homology.boundary_matrix.nnz": (C("homology.boundary_matrix.nnz"), "count"),
        "homology.homology.self_s": (S("homology.homology"), "s"),
        "homology.checker_init.self_s": (S("homology.checker_init"), "s"),
        "homology.checker_equal.calls": (C("homology.checker_equal.calls"), "count"),
        "homology.two_cocycles.self_s": (S("homology.two_cocycles"), "s"),
        "intlinalg.solve_s": (T("intlinalg.solve"), "s"),
        "intlinalg.solve.calls": (C("intlinalg.solve.calls"), "count"),
        "intlinalg.solve.hit_ratio": (ratio(C("intlinalg.solve.hits"), C("intlinalg.solve.calls")), "ratio"),
        "intlinalg.snf_s": (T("intlinalg.snf"), "s"),
        "intlinalg.snf.cells": (C("intlinalg.snf.cells"), "count"),
        "intlinalg.snf.nnz": (C("intlinalg.snf.nnz"), "count"),
        "intlinalg.column_hnf_s": (T("intlinalg.column_hnf"), "s"),
        "intlinalg.column_hnf.calls": (C("intlinalg.column_hnf.calls"), "count"),
        "intlinalg.column_hnf.cells": (C("intlinalg.column_hnf.cells"), "count"),
        "diagram.parse_s": (T("diagram.parse"), "s"),
        "diagram.colorings_s": (T("diagram.colorings"), "s"),
        "diagram.colorings.calls": (C("diagram.colorings.calls"), "count"),
        "diagram.colorings.found": (C("diagram.colorings.found"), "count"),
        "diagram.colorings.distinct_ratio": (ratio(distinct, C("diagram.colorings.calls")), "ratio"),
        "diagram.matched_colorings.self_s": (S("diagram.matched_colorings"), "s"),
        "diagram.matched.pairs": (C("diagram.matched.pairs"), "count"),
        "diagram.associated_chain_s": (T("diagram.associated_chain"), "s"),
        "invariants.state_sum.self_s": (S("invariants.state_sum"), "s"),
        "invariants.state_sum.calls": (C("invariants.state_sum.calls"), "count"),
        "invariants.report.self_s": (S("invariants.report"), "s"),
        "trace.job_s": (T("cli.main"), "s"),
    }
    for layer in LAYERS[1:]:  # the cli layer is cli.self_s above
        m[layer + ".self_s"] = (layers.get(layer, 0.0), "s")
    return m


def per_layer(untraced, traced):
    per_set = [layer_metrics(results) for _, results in traced]
    out = {name: (median([m[name][0] for m in per_set]), unit)
           for name, (_, unit) in per_set[0].items()}
    overhead = median([e for e, _ in traced]) - median([e for e, _ in untraced])
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ktq", "cli.py")):
        print("no ktq sources under %s/src; run from a checkout" % ROOT, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        rng = random.Random(args.seed)
        jobs = make_jobs(args.workload, ROOT, work, rng.getrandbits(64))
        run_job(WARM_UP, work, False)  # warm the bytecode and file caches
        if args.trace:
            untraced = run_sets(jobs, rng, work, False, 0)
            traced = run_sets(jobs, rng, work, True, args.seconds - untraced[0][0])
            metrics = per_layer(untraced, traced)
            sets = untraced + traced
        else:
            sets = run_sets(jobs, rng, work, False, args.seconds)
            metrics = end_to_end(sets)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    results = [r for _, rs in sets for r in rs]
    failed = sum(1 for r in results if r.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
