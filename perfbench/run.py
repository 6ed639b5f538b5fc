#!/usr/bin/env python3
"""Benchmark entry point for topkmon (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> --rate <workload>=<records/s> [--rate ...]
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run builds perfbench_driver
from the checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only re-check the build. The offered
rate of each workload is a constant passed on the command line (it lives
in BENCHMARK.json's command), never measured at run time.

The last line of standard output is the driver's JSON result, after this
script has checked that it names exactly the metrics BENCHMARK.json
declares, with their units. Build output, diagnostics and the
environment stamp go to standard error. Any failure -- a build error, an
incomplete result, a wrong answer from the system -- exits non-zero.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=log)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build step failed: %s\n%s" % (" ".join(cmd), tail))
    binary = os.path.join(out, target)
    if not os.path.exists(binary):
        fail("build produced no %s" % binary)
    return binary


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


VALIDITY = re.compile(r"^validity: (.*)$", re.M)


def parse_validity(stderr_text):
    """The driver's `validity:` line as {name: value}, plus whether it
    flagged a growing backlog; ({}, False) when there is no such line."""
    m = VALIDITY.search(stderr_text)
    if not m:
        return {}, False
    values = {}
    for item in m.group(1).split():
        name, sep, value = item.partition("=")
        if sep:
            values[name] = float(value)
    return values, "GROWING" in m.group(1)


def parse_rates(items):
    rates = {}
    for item in items:
        name, sep, value = item.partition("=")
        try:
            rate = float(value)
        except ValueError:
            rate = 0.0
        if not sep or rate <= 0:
            fail("bad --rate %r (want <workload>=<records/s>)" % item)
        rates[name] = rate
    return rates


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(result))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            fail("metric %s has unit %r, BENCHMARK.json says %r" %
                 (name, got[name].get("unit"), unit))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rate", action="append", default=[])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.call([build("perfbench_selftest")]))

    spec = load_spec()
    names = [w["name"] for w in spec.get("workloads", [])]
    if args.workload not in names:
        fail("unknown workload %r (BENCHMARK.json has %s)" %
             (args.workload, ", ".join(names)))
    rates = parse_rates(args.rate)
    if args.workload not in rates:
        fail("no --rate for workload %r" % args.workload)

    driver = build("perfbench_driver")
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rate", repr(rates[args.workload]), "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("driver exited with %d and no result" % proc.returncode)
    result = check_result(lines[-1], spec, args.trace == 1)
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        fail("driver exited with %d, correct=%s" %
             (proc.returncode, result["correct"]), 1)


if __name__ == "__main__":
    main()
