#!/usr/bin/env python3
"""Steadiness tool: runs the benchmark N times per workload, each time with
another seed, and prints per metric the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--workloads burst,trickle] [--runs 10]
                                [--first-seed 1] [--trace 0|1] [--out FILE]

Run from the root of a checkout. Besides the end-to-end metrics it reports
two spreads of raw walls the run prints on its "# detail" line: the external
JIT compiler time of the serial cold phase and the wall of the control-plane
churn section. Quartiles are statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a sample of >= 2 values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def parse_output(text):
    """(result object, detail object) from one run's stdout."""
    lines = text.strip().splitlines()
    detail = {}
    for line in lines:
        if line.startswith("# detail "):
            detail = json.loads(line[len("# detail "):])
    return json.loads(lines[-1]), detail


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (rc={proc.returncode}): {' '.join(cmd)}")
    return parse_output(proc.stdout)


def table(rows, bounds):
    out = [f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
           f"{'spread':>7} {'bound':>6}  verdict"]
    for name, values in rows:
        med, q1, q3, sp = spread(values)
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif sp < bound / 3:
            verdict = "steady"
        elif sp <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
        bstr = f"{bound:6.3f}" if bound is not None else "     -"
        out.append(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                   f"{sp:7.3f} {bstr}  {verdict}")
    return "\n".join(out)


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default="")
    args = p.parse_args(argv)
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for w in workloads:
        results, details = [], []
        for i in range(args.runs):
            res, det = run_once(w, args.first_seed + i, bench["run_seconds"],
                                args.trace)
            results.append(res)
            details.append(det)
            print(f"{w} seed {args.first_seed + i}: done", file=sys.stderr)
        raw[w] = {"results": results, "details": details}
        names = list(results[0]["metrics"])
        rows = [(n, [r["metrics"][n]["value"] for r in results])
                for n in names]
        rows.append(("detail.cold_jit_compile_s",
                     [statistics.median(d["cold_jit_compile_s"])
                      for d in details]))
        rows.append(("detail.churn_wall_s",
                     [statistics.median(d["churn_wall_s"]) for d in details]))
        print(f"\n== {w}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(table(rows, bounds))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
