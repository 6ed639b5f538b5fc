#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

Runs every workload of BENCHMARK.json N times with the benchmark's own
command (seeds base..base+N-1), alternating the workload order from round
to round so slow drift on the machine spreads over all workloads, and
prints each metric's median, quartiles and relative IQR (quartile
distance over the median, as statistics.quantiles(values, n=4) gives
the quartiles) next to the metric's bound. A spread at or above a third
of its bound is flagged. It also prints, per workload, the range of
the validity figures each run writes to standard error (backlog growth,
the schedule's p99 lateness, the cores the system used), which show
whether the offered rates stayed within the machine's capacity.

    python3 perfbench/steadiness.py --runs 10 --save set1.json
    python3 perfbench/steadiness.py --runs 10 --save set2.json --seed 100
    python3 perfbench/steadiness.py --compare set1.json set2.json

--compare takes two saved sets of the same commit (or a parent and a
change) and prints, per workload and metric, how far the second median
moved from the first in the metric's worse direction, against its bound.
Run from the root of a checkout; saved sets go where --save says.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, load_spec, parse_validity


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rel_iqr(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def run_once(spec, workload, seed, trace, seconds):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr.decode()[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    values, _ = parse_validity(proc.stderr.decode())
    validity = {"validity." + k: v for k, v in values.items()}
    return metrics, validity


def collect(spec, runs, seed, trace, seconds, workloads):
    values = {w: {} for w in workloads}
    for r in range(runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            metrics, validity = run_once(spec, w, seed + r, trace, seconds)
            for k, v in list(metrics.items()) + list(validity.items()):
                values[w].setdefault(k, []).append(v)
            print("round %d/%d %-15s %s" % (
                r + 1, runs, w, " ".join(
                    "%s=%.4g" % (k, v) for k, v in metrics.items()
                    if trace or k in BOUNDS)), file=sys.stderr)
    return values


BOUNDS = {}


def report(values):
    for w, metrics in values.items():
        print("\n%s" % w)
        print("  %-34s %12s %12s %12s %8s %7s" %
              ("metric", "q1", "median", "q3", "rel_iqr", "bound"))
        for k, vs in metrics.items():
            if k.startswith("validity."):
                continue
            q1, med, q3 = quartiles(vs)
            spread = rel_iqr(vs)
            bound = BOUNDS.get(k)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print("  %-34s %12.5g %12.5g %12.5g %8.4f %7s%s" % (
                k, q1, med, q3, spread,
                "" if bound is None else "%.2f" % bound, flag))
        for k, vs in metrics.items():
            if k.startswith("validity."):
                print("  %-34s min %10.5g  max %10.5g" % (k, min(vs), max(vs)))


def compare(a, b, spec):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better.update({m["name"]: m["better"] for m in spec["per_layer"]})
    print("%-15s %-34s %12s %12s %9s %7s" %
          ("workload", "metric", "median A", "median B", "worse by", "bound"))
    ok = True
    for w in a:
        for k in a[w]:
            if k.startswith("validity.") or k not in b.get(w, {}):
                continue
            ma = statistics.median(a[w][k])
            mb = statistics.median(b[w][k])
            if ma == 0:
                continue
            worse = (mb - ma) / ma if better.get(k) == "lower" else \
                (ma - mb) / ma
            bound = BOUNDS.get(k)
            flag = ""
            if bound is not None and worse > bound:
                flag = "  <-- beyond bound"
                ok = False
            print("%-15s %-34s %12.5g %12.5g %+9.4f %7s%s" % (
                w, k, ma, mb, worse,
                "" if bound is None else "%.2f" % bound, flag))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--save", help="write the raw values here (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    spec = load_spec()
    BOUNDS.update({m["name"]: m["bound"] for m in spec["end_to_end"]})
    if args.compare:
        with open(args.compare[0]) as f:
            a = json.load(f)
        with open(args.compare[1]) as f:
            b = json.load(f)
        sys.exit(0 if compare(a, b, spec) else 1)

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    seconds = args.seconds or spec["run_seconds"]
    values = collect(spec, args.runs, args.seed, args.trace, seconds,
                     workloads)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    report(values)


if __name__ == "__main__":
    main()
