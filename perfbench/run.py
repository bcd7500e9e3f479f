#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve_warm --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt: the program's libraries, the
uhm_serve daemon and the uhm_perfbench program) into the build directory
named by $CARGO_TARGET_DIR, default .bench_build; later runs rebuild
incrementally. uhm_perfbench's last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and prints the layer ledger above the result. Workload constants live in
perfbench/config.json; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_warm", "serve_cold", "batch_sweep")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file() or \
            not (root / "bench" / "bench_common.cc").is_file():
        fail("no program sources next to perfbench/ (src/, bench/); "
             "run from the root of a full checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(root / "perfbench"), "-B",
                   str(build_dir), "-DCMAKE_BUILD_TYPE=Release"], 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
               "uhm_perfbench", "uhm_serve"], 840)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build(root, build_dir)

    # Relative paths keep the daemon's unix socket path short.
    run_dir = os.path.relpath(build_dir / "run", root)
    os.makedirs(run_dir, exist_ok=True)
    cmd = [
        str(build_dir / "uhm_perfbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        "--config=perfbench/config.json",
        "--serve-bin=" + os.path.relpath(
            build_dir / "src" / "serve" / "uhm_serve", root),
        f"--run-dir={run_dir}",
    ]
    if args.trace:
        cmd.append(f"--spans={run_dir}/spans-{args.workload}-"
                   f"{args.seed}.jsonl")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
