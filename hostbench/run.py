#!/usr/bin/env python3
"""Build and run the host-time benchmark, or compare two sets of runs.

Run from the repository root:

  python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
  python3 hostbench/run.py [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  python3 hostbench/run.py --compare BASE.jsonl NEW.jsonl

The first form builds hostbench/benchmark.exe with dune (shared cache
off, so nothing is written outside the checkout) and runs one workload;
its last line of output is the result object.  Without --workload every
workload of BENCHMARK.json runs, one child process at a time, so each
reports its own peak RSS and only one process loads the machine.
--out appends one JSON line per run ({"workload", "seed", "trace",
"result"}) to FILE.

--compare reads two such files and prints, per metric and workload, each
side's median and quartiles, and a verdict against the bound declared in
BENCHMARK.json: regressed, unchanged, better, or unresolved when either
side's quartile spread is wider than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "hostbench", "benchmark.exe")
WORK = os.path.join("_build", "hostbench")


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./hostbench/benchmark.exe"],
        env=env,
        stdout=sys.stderr,
    )
    return proc.returncode == 0


def run_one(spec, workload, seed, seconds, trace, out):
    proc = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--work", WORK],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{workload}: no result line", file=sys.stderr)
        return 1
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        print(f"{workload}: metrics {sorted(set(result['metrics']) ^ declared)} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps(result))
    if out:
        with open(out, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                "result": result}) + "\n")
    return proc.returncode


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(spec, base_path, new_path):
    def rows(path):
        out = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    run = json.loads(line)
                    for name, m in run["result"]["metrics"].items():
                        out.setdefault((run["workload"], name), []).append(m["value"])
        return out

    base, new = rows(base_path), rows(new_path)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressed = 0
    print(f"{'workload':<13} {'metric':<34} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b, n = base[key], new[key]
        bq1, bmed, bq3 = quartiles(b)
        nq1, nmed, nq3 = quartiles(n)
        m = metrics.get(name, {})
        sign = -1.0 if m.get("better") == "higher" else 1.0
        change = sign * (nmed - bmed) / bmed if bmed else 0.0
        bound = m.get("bound")
        if bound is None:
            verdict = "(no bound)"
        else:
            spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                         (nq3 - nq1) / nmed if nmed else 0.0)
            all_better = all(sign * (x - y) < 0 for x in n for y in b)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "regressed"
                regressed += 1
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "unchanged"
        print(f"{workload:<13} {name:<34} "
              f"{bmed:>11.5g} [{bq1:.5g}, {bq3:.5g}]".ljust(80)
              + f"{nmed:>11.5g} [{nq1:.5g}, {nq3:.5g}]".ljust(31)
              + f"{100 * change:>+7.1f}% "
              + (f"{bound:>6.2f}" if bound is not None else "     -")
              + f"  {verdict}")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isfile("BENCHMARK.json")):
        print("run.py: run from the root of a full checkout of the repository",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 3
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    status = 0
    for workload in [args.workload] if args.workload else names:
        status = max(status, run_one(spec, workload, args.seed, seconds, args.trace,
                                     args.out))
    return status


if __name__ == "__main__":
    sys.exit(main())
