"""One workload in one fresh process; started by run.py, never by hand.

The worker times set-up (importing pwinterp with numpy and scipy, then a
tiny warm-up run of the workload), generates the workload's inputs from
the seed, runs the job list over and over until the time budget is spent,
reads peak memory, and only then runs the oracles.  A pass over the job
list is timed as the sum of each job's median duration.  With
``--trace 1`` it spends half the budget untraced and half traced, so the
difference of the two is the tracing overhead.  The last line on
standard output is a JSON object for run.py.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import traceback
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class JobRun:
    job: int              # index into the workload's job list
    wall_s: float
    cpu_s: float
    warnings: int
    output: object


class JobError:
    """Stands in for the output of a job that raised."""


def run_jobs(jobs, budget_s, caught, tracer=None) -> list[JobRun]:
    """Run the job list in order, over and over, as one closed-loop client.

    The first full pass always runs.  After it, the next job starts only
    while its previous duration still fits in ``budget_s``, so long jobs
    do not overrun the budget and the whole budget is used.
    """
    runs = []
    last = {}
    start = perf_counter()
    for n in itertools.count():
        j = n % len(jobs)
        if n >= len(jobs) and perf_counter() - start + last[j] > budget_s:
            return runs
        if tracer is not None:
            tracer.job = (j, n)
        n_warn = len(caught)
        c0, t0 = process_time(), perf_counter()
        try:
            out = jobs[j].run()
        except Exception:
            traceback.print_exc()
            out = JobError()
        last[j] = perf_counter() - t0
        runs.append(JobRun(j, last[j], process_time() - c0,
                           len(caught) - n_warn, out))


def per_pass(runs, field, stat=statistics.median) -> float:
    """One pass over the job list: ``stat`` of ``field`` over each job's
    runs, summed over the jobs."""
    by_job = defaultdict(list)
    for r in runs:
        by_job[r.job].append(getattr(r, field))
    return sum(stat(v) for v in by_job.values())


def count_failures(jobs, runs) -> int:
    failed = 0
    for r in runs:
        job = jobs[r.job]
        if isinstance(r.output, JobError):
            failed += 1
            continue
        try:
            reason = job.check(r.output)
        except Exception:
            traceback.print_exc()
            reason = "oracle raised"
        if reason is not None:
            sys.stderr.write(f"{job.name}: {reason}\n")
            failed += 1
    return failed


def context_metrics(layers, plain, traced) -> dict:
    """Whole-process figures around the layer metrics: CPU time and
    warnings of an untraced pass, and what tracing added to the wall."""
    layer_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    return {
        "proc.cpu_s": per_pass(plain, "cpu_s"),
        "numerics.warnings": per_pass(plain, "warnings"),
        "trace.overhead_s": (per_pass(traced, "wall_s")
                             - per_pass(plain, "wall_s")),
        "trace.unattributed_s": (per_pass(traced, "wall_s", statistics.mean)
                                 - layer_s),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = perf_counter()
    import workloads
    expected_src = os.path.join(ROOT, "src", "pwinterp")
    if os.path.dirname(os.path.abspath(workloads.pw.__file__)) != expected_src:
        raise SystemExit(f"pwinterp imported from {workloads.pw.__file__}, "
                         f"not from {expected_src}")
    workloads.warm_up(args.workload, args.workdir)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    budget = args.seconds / 2 if args.trace else args.seconds
    tracer = traced = None
    if args.trace:
        import tracing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plain = run_jobs(wl.jobs, budget, caught)
        if args.trace:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                traced = run_jobs(wl.jobs, budget, caught, tracer)
            finally:
                uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = plain + (traced or [])
    try:
        failed = count_failures(wl.jobs, runs)
    finally:
        wl.cleanup()
    result = {
        "setup_s": setup_s,
        "wall_s": per_pass(plain, "wall_s"),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(runs),
        "failed": failed,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(Counter(r.job for r in traced))
        layers.update(context_metrics(layers, plain, traced))
        result["layers"] = layers
        tracer.write(os.path.join(
            args.workdir, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
