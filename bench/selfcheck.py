#!/usr/bin/env python3
"""Reproducibility self-check of the benchmark.

    python3 bench/selfcheck.py [--seed 1] [--workload NAME ...]

For each workload: the same seed must give identical inputs and a different
seed different ones; two traced runs with the same seed, each in a fresh
process, must give identical counts and accuracy figures.  Exits 1 on any
mismatch.  Takes a few minutes, mostly the traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Figures that depend on the inputs alone, never on timing.
EXACT = (
    "sdpi.sstar_calls",
    "sdpi.evals_per_call",
    "sdpi.search_win_ratio",
    "sdpi.mean_sstar",
    "sdpi.grid_only_evals",
    "sdpi.multistart_only_evals",
    "rate_distortion.ba_calls",
    "rate_distortion.ba_iterations",
    "rate_distortion.ba_failures",
    "rate_distortion.oracle_gap_bits",
    "error_rate",
)


def traced_record(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=sorted(W.WORKLOADS))
    args = ap.parse_args(argv)

    bad = []
    for name in args.workload or sorted(W.WORKLOADS):
        def digest(seed):
            return W.inputs_digest(W.inputs(W.make(name), seed, 1))

        if digest(args.seed) != digest(args.seed):
            bad.append(f"{name}: seed {args.seed} gave different inputs twice")
        if digest(args.seed) == digest(args.seed + 1):
            bad.append(f"{name}: seeds {args.seed} and {args.seed + 1} gave the same inputs")
        first, second = traced_record(name, args.seed), traced_record(name, args.seed)
        if first["inputs_sha256"] != second["inputs_sha256"]:
            bad.append(f"{name}: the two runs saw different inputs")
        for key in EXACT:
            a, b = first["metrics"][key], second["metrics"][key]
            status = "same" if a == b else "DIFFERENT"
            print(f"{name:14s} {key:34s} {a!r:>24} {b!r:>24} {status}")
            if a != b:
                bad.append(f"{name}: {key} {a!r} != {b!r}")
    for line in bad:
        print(f"SELF-CHECK FAILED: {line}", file=sys.stderr)
    print("self-check", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
