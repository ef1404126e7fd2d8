#!/usr/bin/env python3
"""CLI parity check: `fmmio simulate` is a one-cell sweep.

Usage: cli_parity.py /path/to/fmmio

For each case, runs `fmmio simulate`, `fmmio query --op simulate` (in
process) and `fmmio sweep` with the same cell flags and asserts they
report the same loads, stores and total I/O — random schedules
included, which all three must seed with task_seed(seed, 0), and
`--remat --policy opt`, which all three must run (rematerialisation
forces LRU).  Then asserts that an unknown --schedule or --policy is a
one-line usage error with exit code 2 in simulate, sweep and query.

Exit code 0 iff every assertion holds.
"""
import json
import re
import subprocess
import sys

CASES = [
    ["--n", "16", "--m", "32", "--schedule", "random", "--seed", "7"],
    ["--n", "16", "--m", "64", "--remat", "--policy", "opt"],
]

BAD_VALUES = [["--schedule", "rnd"], ["--policy", "belady"]]


def fail(message):
    print("cli_parity: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def run(argv):
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_ok(argv):
    code, out, err = run(argv)
    if code != 0:
        fail("%r exited %d: %s" % (argv, code, err.strip()))
    return out


def from_simulate(fmmio, flags):
    out = run_ok([fmmio, "simulate", "strassen"] + flags)
    match = re.search(r"loads=(\d+) stores=(\d+) total=(\d+)", out)
    if match is None:
        fail("no I/O line in simulate output:\n" + out)
    return tuple(int(g) for g in match.groups())


def from_query(fmmio, flags):
    out = run_ok([fmmio, "query", "--op", "simulate", "--alg", "strassen"] +
                 flags)
    result = json.loads(out)["result"]
    return result["loads"], result["stores"], result["total_io"]


def from_sweep(fmmio, flags):
    out = run_ok([fmmio, "sweep", "--alg", "strassen"] + flags)
    # The table row: Kind Algorithm n M I/O Recomp ...
    for line in out.splitlines():
        cols = line.split()
        if cols[:2] == ["simulate", "strassen"]:
            return int(cols[4])
    fail("no simulate row in sweep output:\n" + out)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    fmmio = argv[1]
    for flags in CASES:
        simulate = from_simulate(fmmio, flags)
        query = from_query(fmmio, flags)
        if simulate != query:
            fail("%s: simulate (loads, stores, total) %r != query %r" %
                 (" ".join(flags), simulate, query))
        total = from_sweep(fmmio, flags)
        if total != simulate[2]:
            fail("%s: sweep total %d != simulate total %d" %
                 (" ".join(flags), total, simulate[2]))
    cell = ["--n", "16", "--m", "64"]
    for bad in BAD_VALUES:
        for argv_ in ([fmmio, "simulate", "strassen"] + cell + bad,
                      [fmmio, "sweep", "--alg", "strassen"] + cell + bad,
                      [fmmio, "query", "--op", "simulate", "--alg",
                       "strassen"] + cell + bad):
            code, out, err = run(argv_)
            lines = (out + err).strip().splitlines()
            if code != 2 or len(lines) != 1:
                fail("%r: want exit 2 with one line, got exit %d:\n%s" %
                     (argv_, code, out + err))
    print("cli_parity: OK (%d cases, %d bad values)" %
          (len(CASES), len(BAD_VALUES)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
