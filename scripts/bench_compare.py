#!/usr/bin/env python3
"""Compare two BENCH_*.json files and flag wall-clock regressions.

Walks both documents in parallel and prints a per-metric delta for
every numeric leaf (nested objects and arrays included; array elements
are matched by their "scheme"/"name"/"label" key when present, by
position otherwise). Metrics whose name marks them as wall-clock
timings (``*_ns_per_instr``, ``*_ms``, ``*_ns``) are regression-checked:
if the candidate is more than the threshold slower than the baseline,
the script exits non-zero and lists the offenders.

Speedup-style metrics (``speedup``, ``*_speedup``) are reported but not
gated — they are ratios of two noisy timings and swing twice as hard as
either input. Counting metrics (``instrs``, ``iters``, ...) are
compared for drift but never gate either.

A gate that silently stops gating is an error too: a timing metric of
the baseline that the candidate lacks (a renamed key), or a comparison
in which no timing metric is gated at all, exits 2.

Usage: bench_compare.py BASELINE.json CANDIDATE.json [--threshold=0.10]
Exit status: 0 if no timing regressed past the threshold, 1 otherwise,
2 on malformed input or a lost gate.
"""

import json
import sys

# Suffixes that mark a metric as a host wall-clock timing (gated).
TIMING_SUFFIXES = ("_ns_per_instr", "_ms", "_ns")
# Metric names reported but never gated.
UNGATED = ("speedup",)


def is_timing(name):
    return name.endswith(TIMING_SUFFIXES)


def is_ungated(name):
    return name == "speedup" or name.endswith("_speedup")


def element_key(element, index):
    """Stable identity of an array element for cross-file matching."""
    if isinstance(element, dict):
        for key in ("scheme", "name", "label"):
            if key in element:
                return str(element[key])
    return str(index)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def timing_leaves(doc, path, out):
    """Collect the paths of every gated timing leaf under @p doc."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            timing_leaves(value, path + [key], out)
    elif isinstance(doc, list):
        for i, el in enumerate(doc):
            timing_leaves(el, path + [element_key(el, i)], out)
    elif is_number(doc) and path and is_timing(path[-1]) \
            and not is_ungated(path[-1]):
        out.append(".".join(path))


def walk(base, cand, path, rows, missing):
    """Collect (path, base, cand) rows for every shared numeric leaf,
    and in @p missing the baseline's timing leaves the candidate
    lacks."""
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in base:
            if key in cand:
                walk(base[key], cand[key], path + [key], rows, missing)
            else:
                timing_leaves(base[key], path + [key], missing)
    elif isinstance(base, list) and isinstance(cand, list):
        cand_by_key = {
            element_key(el, i): el for i, el in enumerate(cand)
        }
        for i, el in enumerate(base):
            key = element_key(el, i)
            if key in cand_by_key:
                walk(el, cand_by_key[key], path + [key], rows, missing)
            else:
                timing_leaves(el, path + [key], missing)
    elif is_number(base) and is_number(cand):
        rows.append((".".join(path), float(base), float(cand)))
    else:
        timing_leaves(base, path, missing)


def main(argv):
    threshold = 0.10
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        with open(paths[0]) as f:
            base = json.load(f)
        with open(paths[1]) as f:
            cand = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print("bench_compare: %s" % e, file=sys.stderr)
        return 2

    rows = []
    missing = []
    walk(base, cand, [], rows, missing)
    if not rows:
        print("bench_compare: no shared numeric metrics", file=sys.stderr)
        return 2

    gated = 0
    regressions = []
    print("%-55s %12s %12s %9s" % ("metric", "baseline", "candidate",
                                   "delta"))
    for name, b, c in rows:
        delta = (c - b) / b if b else 0.0
        gate = ""
        if is_timing(name) and not is_ungated(name):
            gated += 1
            if delta > threshold:
                regressions.append((name, b, c, delta))
                gate = "  << REGRESSION"
        print("%-55s %12.4g %12.4g %+8.1f%%%s"
              % (name, b, c, delta * 100, gate))

    if missing:
        print("\nbench_compare: %d baseline timing metric(s) missing "
              "from the candidate, so not gated:" % len(missing),
              file=sys.stderr)
        for name in missing:
            print("  %s" % name, file=sys.stderr)
        return 2
    if gated == 0:
        print("\nbench_compare: no timing metric was gated",
              file=sys.stderr)
        return 2
    if regressions:
        print("\n%d wall-clock metric(s) regressed more than %.0f%%:"
              % (len(regressions), threshold * 100))
        for name, b, c, delta in regressions:
            print("  %s: %.4g -> %.4g (%+.1f%%)"
                  % (name, b, c, delta * 100))
        return 1
    print("\nno wall-clock regression beyond %.0f%%" % (threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
