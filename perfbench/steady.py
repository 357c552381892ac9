#!/usr/bin/env python3
"""Steadiness check: run one workload k times, each with another seed, and
print every end-to-end metric's median, quartiles and spread
((Q3 - Q1) / median) next to its bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload synth --runs 10 [--seed0 1]
                                [--out results.json]

Run from the root of the checkout.  A spread below a third of the bound
is steady.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr}")
        lines = p.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        res["raw"] = json.loads(lines[-2])["raw"]
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in res["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: failed share {sorted(shares)} "
          f"({'same' if len(shares) == 1 else 'DIFFERS'}), "
          f"all correct: {all(r['correct'] for r in runs)}")
    summary = {}
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        raw = [r["raw"][name]["value"] for r in runs]
        rq1, _, rq3 = statistics.quantiles(raw, n=4)
        rmed = statistics.median(raw)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "raw_median": rmed, "raw_spread": (rq3 - rq1) / rmed}
        flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"  {name:15s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {bound}  {flag}  "
              f"(raw median {rmed:.6g}, spread {(rq3 - rq1) / rmed:.4f})")
    if args.out:
        json.dump({"workload": args.workload, "runs": runs,
                   "summary": summary}, open(args.out, "w"), indent=1)


if __name__ == "__main__":
    main()
