#!/usr/bin/env python3
"""Print the text size of the machine's run loops in a build directory.

The run loops are the functions that include the micro-op core
(src/uhm/vm_ops.inc): the instantiations of Machine::runDtbFast and
Machine::runConventionalFast, and Machine::runTrace. Eleven in all. The
sizes come from ``nm -S`` on the object that defines them
(``uhm_uhm.dir/machine.cc.o``), so the build needs only the uhm_uhm
library.

Usage: loop_text.py BUILD_DIR [--max-bytes=N]
Exit status: 0 when all eleven loops are found (each at most N bytes,
when given), 1 when a loop is missing or over N, 2 when no object is
found or nm fails.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

LOOPS = 11
LOOP_NAME = re.compile(
    r"uhm::Machine::(runDtbFast<.*>\(\)|runConventionalFast<.*>\(\)"
    r"|runTrace\(unsigned int\))$")


def loop_sizes(obj):
    """(name, bytes) of each run loop defined in @p obj, largest first."""
    out = subprocess.run(["nm", "-S", "-C", str(obj)], check=True,
                         capture_output=True, text=True).stdout
    loops = []
    for line in out.splitlines():
        fields = line.split(maxsplit=3)
        # address size type name; only code symbols count.
        if len(fields) == 4 and fields[2] in "TtWw":
            name = fields[3]
            name = name[len("void "):] if name.startswith("void ") else name
            if LOOP_NAME.match(name):
                loops.append((name, int(fields[1], 16)))
    return sorted(loops, key=lambda loop: -loop[1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", type=Path)
    ap.add_argument("--max-bytes", type=int, default=None,
                    help="fail when any one loop is larger")
    args = ap.parse_args()

    objs = sorted(args.build_dir.glob("**/uhm_uhm.dir/machine.cc.o"))
    if not objs:
        print(f"loop_text: no uhm_uhm.dir/machine.cc.o under "
              f"{args.build_dir}", file=sys.stderr)
        return 2
    try:
        loops = loop_sizes(objs[0])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"loop_text: nm failed: {e}", file=sys.stderr)
        return 2

    for name, size in loops:
        print(f"{size:8d}  {name}")
    print(f"{sum(size for _, size in loops):8d}  total, {len(loops)} loops "
          f"({objs[0]})")

    status = 0
    if len(loops) != LOOPS:
        print(f"loop_text: found {len(loops)} run loops, want {LOOPS}",
              file=sys.stderr)
        status = 1
    if args.max_bytes is not None:
        for name, size in loops:
            if size > args.max_bytes:
                print(f"loop_text: {name} is {size} bytes, over "
                      f"{args.max_bytes}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
