#!/usr/bin/env python3
"""Capacity sweep for the perfbench workloads.

Runs each workload at multiples of the offered rate fixed in
BENCHMARK.json's command and prints, per rate, whether the run kept up:
its exit code, success ratio, backlog growth, the schedule's p99
lateness and the cores the system used. The driver pins every thread of
the system under test to one CPU, so the highest rate that keeps up is
what one core sustains for that workload; the fixed rates are meant to
sit at about half of it.

    python3 perfbench/capacity.py [--workloads a,b] [--seconds 8] \
        [--multiples 1,1.5,2,2.5,3] [--seed 1]

A rate keeps up when the run exits 0 with success_ratio 1, no growing
backlog, and batches sent no later than LATE_MS_P99_MAX behind schedule
at p99. Above capacity the ingest queue fills, records are refused and
the oracle cannot replay the window, so the run exits 1: that is the
expected outcome here, not an error of this script. Run from the root
of a checkout.
"""

import argparse
import json
import os
import subprocess

from run import build, build_dir, load_spec, parse_rates, parse_validity

LATE_MS_P99_MAX = 10.0


def rates_in_command(spec):
    command = spec["command"]
    items = [command[i + 1] for i, arg in enumerate(command[:-1])
             if arg == "--rate"]
    return parse_rates(items)


def run_at(driver, workload, rate, seconds, seed):
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--rate", repr(rate),
           "--work-dir", work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"metrics": {}}
    validity, growing = parse_validity(proc.stderr.decode())
    metrics = result["metrics"]
    ratio = metrics.get("success_ratio", {}).get("value", 0.0)
    kept_up = (proc.returncode == 0 and ratio == 1 and not growing and
               validity.get("late_ms_p99", 0.0) <= LATE_MS_P99_MAX)
    return proc.returncode, ratio, validity, metrics, kept_up


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--multiples", default="1,1.5,2,2.5,3")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    spec = load_spec()
    rates = rates_in_command(spec)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    multiples = [float(x) for x in args.multiples.split(",")]
    driver = build("perfbench_driver")
    print("%-15s %5s %10s %4s %8s %10s %10s %6s %9s %s" % (
        "workload", "x", "rate", "exit", "success", "backlog", "late_p99",
        "cores", "cpu_us", "kept up"))
    for w in workloads:
        best = None
        failed_at = None
        for x in multiples:
            rate = rates[w] * x
            code, ratio, v, metrics, ok = run_at(driver, w, rate,
                                                 args.seconds, args.seed)
            cpu = metrics.get("cpu_us_per_rec", {}).get("value", 0.0)
            print("%-15s %5.2f %10.0f %4d %8.4f %10.1f %10.3f %6.3f %9.4f %s" %
                  (w, x, rate, code, ratio, v.get("backlog_growth", 0.0),
                   v.get("late_ms_p99", 0.0), v.get("sut_cores", 0.0), cpu,
                   "yes" if ok else "no"), flush=True)
            if ok:
                best = rate
            else:
                failed_at = rate
                break
        limit = ("not at %.0f rec/s" % failed_at if failed_at
                 else "the highest rate tried")
        print("%-15s keeps up at %s rec/s, %s (fixed rate %.0f)" %
              (w, "%.0f" % best if best else "no", limit, rates[w]),
              flush=True)


if __name__ == "__main__":
    main()
