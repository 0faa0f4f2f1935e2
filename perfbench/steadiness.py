#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady.

Runs two sets of timed runs, alternating between them run by run, and
prints per workload and metric each set's median and quartiles, the
quartile spread as a share of the median, and the gap between the two
medians as a share of the metric's bound from BENCHMARK.json. Set A
uses seeds 1, 2, ... and set B seeds 101, 102, ..., so the check also
shows that results on a second seed agree within the bounds.

    python3 perfbench/steadiness.py                      # 10 runs per set
    python3 perfbench/steadiness.py --runs 5 --workloads serve-mix
    python3 perfbench/steadiness.py --exact              # count metrics

Exits non-zero if a spread (setup_s included) reaches a third of its
bound, a gap exceeds its bound, or a run fails. With --exact it instead
runs each workload's traced run twice on one seed and requires the
count metrics to repeat exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_A = 1
SEED_B = 101
EXACT = ("nvm.insns_per_request", "storage.fixes_per_step_tuple",
         "server.response_bytes_per_request")


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(command),
                                               proc.returncode))
    result = json.loads(lines[-1])
    spin = [float(line.split()[3]) for line in lines
            if line.startswith("# diagnostic host.spin_rate_before")]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if spin:
        values["host.spin_rate_before"] = spin[0]
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_exact(spec, seconds):
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        first = run(name, 1, seconds, 1)
        second = run(name, 1, seconds, 1)
        timed = [run(name, 1, seconds, 0) for _ in range(2)]
        pairs = [(m, first.get(m), second.get(m)) for m in EXACT]
        pairs.append(("store_bytes_per_xml_byte",
                      timed[0]["store_bytes_per_xml_byte"],
                      timed[1]["store_bytes_per_xml_byte"]))
        for metric, a, b in pairs:
            same = a == b
            ok = ok and same
            print("%-14s %-34s %-22r %-22r %s" % (
                name, metric, a, b, "same" if same else "DIFFERENT"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload (default 10)")
    parser.add_argument("--workloads", nargs="*",
                        help="workloads to run (default: all)")
    parser.add_argument("--seconds", type=float,
                        help="window per run (default: run_seconds)")
    parser.add_argument("--exact", action="store_true",
                        help="check that the count metrics repeat exactly")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    if args.exact:
        sys.exit(0 if check_exact(spec, seconds) else 1)

    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(args.runs):
        for label, base in (("A", SEED_A), ("B", SEED_B)):
            for workload in workloads:
                values = run(workload, base + i, seconds, 0)
                results[(workload, label)].append(values)
                print("# run %d set %s %-14s qps %.1f spin %.0f" % (
                    i, label, workload, values["qps"],
                    values.get("host.spin_rate_before", 0)),
                    file=sys.stderr, flush=True)

    ok = True
    print("%-14s %-26s %8s | %12s %12s %12s %7s | %12s %12s %12s %7s | %8s" % (
        "workload", "metric", "bound", "A q1", "A median", "A q3", "spread",
        "B q1", "B median", "B q3", "spread", "gap/bnd"))
    for workload in workloads:
        for metric, bound in bounds.items():
            row = []
            spreads = []
            medians = []
            for label in "AB":
                values = [r[metric] for r in results[(workload, label)]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0
                row += [q1, q2, q3, spread]
                spreads.append(spread)
                medians.append(q2)
            gap = abs(medians[1] - medians[0]) / medians[0] if medians[0] else 0
            steady = max(spreads) < bound / 3
            within = gap <= bound
            ok = ok and steady and within
            print("%-14s %-26s %8.3f | %12.6g %12.6g %12.6g %7.3f | "
                  "%12.6g %12.6g %12.6g %7.3f | %8.2f %s" % (
                      (workload, metric, bound) + tuple(row) +
                      (gap / bound, "" if steady and within else "<-- NOT STEADY")))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
