#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of one build.

    python3 perfbench/steady.py [--workloads serve_warm,batch_sweep]
                                [--runs 10] [--sets 2] [--seconds N]

Runs perfbench/run.py --trace 0 `runs` times per set and workload, each
run with another seed (set s, run i uses seed 1000*s + i + 1), then
prints for every end-to-end metric of BENCHMARK.json, per set, the median
and quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median. A metric is flagged when

  * a set's spread exceeds a third of the metric's bound,
  * a later set's median differs from the first set's, in either
    direction, by more than the bound, or
  * it is sim_cycles_per_instr or image_bits_per_instr and any two runs
    differ at all: those are deterministic, so a difference is a bug.

Exit status 1 when anything is flagged. --save FILE writes the raw values.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

DETERMINISTIC = ("sim_cycles_per_instr", "image_bits_per_instr")


def run_once(root, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} operations failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def differs_by(first, later):
    """Relative difference of `later` from `first`, either direction."""
    return abs(later - first) / first if first else 0.0


def main():
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--save", help="write the raw values as JSON")
    args = ap.parse_args()

    raw = {}
    flagged = []
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = [run_once(root, workload, 1000 * s + i + 1, args.seconds)
                    for i in range(args.runs)]
            sets.append(runs)
        raw[workload] = sets
        print(f"\n{workload}: {args.sets} sets x {args.runs} runs")
        print(f"  {'metric':22} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'vs set 0':>8} {'bound':>6}  "
              "verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            first_median = None
            for s, runs in enumerate(sets):
                values = [r[name] for r in runs]
                q1, med, q3, sp = spread(values)
                notes = []
                if name in DETERMINISTIC and len(set(values)) > 1:
                    notes.append("DIFFERS (deterministic metric)")
                if sp > metric["bound"] / 3:
                    notes.append("spread > bound/3")
                if first_median is None:
                    first_median = med
                delta = differs_by(first_median, med)
                if delta > metric["bound"]:
                    notes.append("median differs from set 0 by > bound")
                verdict = "; ".join(notes) or "ok"
                if notes:
                    flagged.append(f"{workload}/{name} set {s}: {verdict}")
                print(f"  {name:22} {s:>3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {100 * sp:7.2f}% {100 * delta:7.2f}% "
                      f"{metric['bound']:6.2f}"
                      f"  {verdict}")
            if name in DETERMINISTIC:
                every = {r[name] for runs in sets for r in runs}
                if len(every) > 1:
                    flagged.append(f"{workload}/{name}: differs across sets")

    if args.save:
        Path(args.save).write_text(json.dumps(raw, indent=1))
    print("\nflagged:" if flagged else "\nall metrics steady")
    for f in flagged:
        print("  " + f)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
