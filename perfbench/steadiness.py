#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--seconds N]
                                    [--workload W ...]

Runs each workload once per seed (seeds first-seed .. first-seed+runs-1)
through perfbench/run.py and prints, per metric, the median of the runs
and the spread: the distance between the first and third quartile
(Python's statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json. Raw results are appended
to .bench_build/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    metrics = manifest["end_to_end"]
    log = os.path.join(ROOT, ".bench_build", "steadiness.jsonl")
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, cwd=ROOT)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (w, seed, out.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            with open(log, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
            if not result["correct"]:
                print("%s seed %d: incorrect (%d of %d failed)"
                      % (w, seed, result["failed"], result["attempted"]))
                ok = False
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                  flush=True)
        for m in metrics:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m["bound"]
            flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "TOO NOISY")
            print("  %-8s %-22s median %-12.6g spread %6.2f%%  bound %g%%  %s"
                  % (w, m["name"], statistics.median(xs), 100 * spread, 100 * bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
