"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verdict-sweep --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  The workload runs in a fresh worker process
that imports pwinterp from ``src/`` with BLAS and OpenMP limited to one
thread.  With ``--trace 0`` the result holds the end-to-end metrics listed
in BENCHMARK.json; set-up is measured in that worker and in further
set-up-only workers, and its median is reported.  With ``--trace 1`` it
holds the per-layer metrics of a traced run.  The last line of standard
output is the result; a missing source tree or a failed worker exits
non-zero without one.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5          # the measuring worker and set-up-only workers
DEADLINE_S = 170.0         # the whole run, set-up workers included
WORKER_TIMEOUT_S = 140.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker(args, timeout, *extra) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # a fixed hash seed removes one source of process-to-process variation
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR, *extra]
    # on timeout, run() kills the worker and waits for it to end
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "pwinterp",
                                       "__init__.py")):
        raise SystemExit("no pwinterp source tree under src/")
    os.makedirs(WORKDIR, exist_ok=True)

    # set-up samples are taken before and after the measuring worker, so a
    # burst of load on the machine cannot cover all of them
    setup = []
    if not args.trace:
        setup = [worker(args, 30, "--setup-only")["setup_s"]
                 for _ in range(SETUP_SAMPLES // 2)]
    res = worker(args, WORKER_TIMEOUT_S)
    if args.trace:
        declared = spec["per_layer"]
        values = res["layers"]
    else:
        setup.append(res["setup_s"])
        while len(setup) < SETUP_SAMPLES:
            left = DEADLINE_S - (time.monotonic() - start)
            if left < 10:
                break
            setup.append(worker(args, left, "--setup-only")["setup_s"])
        declared = spec["end_to_end"]
        values = {
            "wall_s": res["wall_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_rate": 1.0 - res["failed"] / res["attempted"],
        }
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
