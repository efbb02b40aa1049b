#!/usr/bin/env python3
"""Rewrites pinned.txt: every instance digest of the canonical and held-out runs.

    python3 perfbench/pin.py

Run from the repository root, only after a deliberate change of report
bytes, and say so in the change that carries the new pins.
"""

import os

import run

CANONICAL_SEED = 20030617
HELD_OUT_SEED = 20031120

HEADER = """\
# FNV-1a digests of each workload's report JSON (compact), one line per
# instance seed of the canonical (20030617) and held-out (20031120) runs:
#   workload instance-seed hex-digest
# Regenerate with `python3 perfbench/pin.py` after a deliberate output change.
"""


def main():
    binary = run.build()
    threads = len(os.sched_getaffinity(0))
    lines = []
    for workload, k in run.INSTANCES.items():
        for base in (CANONICAL_SEED, HELD_OUT_SEED):
            for i in range(k):
                seed = base + run.STRIDE * i
                rec = run.call(binary, "run", workload, seed, threads)
                if rec is None or not rec["ok"]:
                    run.fail(f"{workload} seed {seed} produced no report")
                lines.append(f"{workload} {seed} {rec['digest']}\n")
    (run.BENCH / "pinned.txt").write_text(HEADER + "".join(lines))


if __name__ == "__main__":
    main()
