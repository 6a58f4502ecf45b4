#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

Run from the repository root:

    python3 perfbench/prove.py --seeds 1-10 [--workloads serve_cold,dse_sweep]
                               [--seconds 20] [--record LABEL]

For every workload and seed this runs `perfbench/run.py ... --trace 0`,
then prints, per metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread
(third minus first quartile, over the median). End-to-end metrics from
BENCHMARK.json are checked against a third of their bound (`setup_s`
excepted, as its spread is not bounded). With `--record LABEL` the
medians and quartiles, with the core count and the checked-out commit,
are appended as one line to perfbench/trajectory.jsonl.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROW = re.compile(r"^  (\S+)\s+(-?[0-9.eE+-]+)\s+(\S+)$")


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect\n{proc.stdout}")
    shown = {}
    for line in lines[:-1]:
        m = ROW.match(line)
        if m:
            shown[m.group(1)] = (float(m.group(2)), m.group(3))
    for name, metric in result["metrics"].items():
        shown[name] = (metric["value"], metric["unit"])
    return shown


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True, check=False).stdout.strip()
    entry = {"label": args.record, "commit": commit or None,
             "date": datetime.date.today().isoformat(),
             "nproc": os.cpu_count(), "seconds": args.seconds,
             "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds) for s in args.seeds]
        print(f"{workload} ({len(runs)} seeds, {args.seconds} s each)")
        table = {}
        for name, (_, unit) in runs[0].items():
            values = [r[name][0] for r in runs]
            stats = summarize(values)
            stats["unit"] = unit
            table[name] = stats
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = stats["spread"] < bound / 3
                steady &= ok
                verdict = f"bound {bound}: {'ok' if ok else 'TOO WIDE'}"
            print(f"  {name:<24} median {stats['median']:<14.6g} q1 {stats['q1']:<14.6g}"
                  f" q3 {stats['q3']:<14.6g} spread {stats['spread']:.4f} {unit:<6} {verdict}")
        entry["workloads"][workload] = table
    if args.record:
        with open(os.path.join(HERE, "trajectory.jsonl"), "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        print("appended to perfbench/trajectory.jsonl")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
