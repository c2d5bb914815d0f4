#!/usr/bin/env python3
"""Dump the s* answers of a source tree on named corpora, and diff two dumps.

    python3 tools/sstar_answers.py dump OUT [--corpus NAME ...] [--tree DIR]
    python3 tools/sstar_answers.py diff A B

``dump`` imports ``sdpibounds`` from ``DIR/src`` (default: the checkout that
holds this script), so one copy of the tool dumps any tree, a parent commit
included.  It writes one JSON line per ``sstar`` call: the corpus, a key
naming the case, the direction, the input alphabet size of that direction
(``inputs``), every ``SdpiResult.to_dict()`` field and the call's seconds.
The corpora (all three by default):

- ``bench``: the benchmark's s* inputs at seeds 1 and 9001 and ``--seconds
  40``, read through ``bench/workloads.py``: each ``bounds-small`` joint in
  both directions, as ``full_report`` solves it, and each ``sstar-gauss``
  joint in ``x_to_y``, as that workload calls it (144 results);
- ``fuzz``: 600 draws of 2-4 x 2-6 joints from ``default_rng(20261019)``,
  by draw mod 3 dense Dirichlet(1), Dirichlet(0.3) with cells zeroed at rate
  0.35, or Dirichlet(0.05); a draw with an empty row or column is skipped and
  keeps its number; both directions (1,098 results);
- ``gauss``: quantized Gaussians at 21 levels and 60 rho in [0.15, 0.95],
  and at 5 to 65 levels and 18 rho in [-0.9, 0.95], ``x_to_y`` only: each
  joint equals its transpose bit for bit, so both directions agree.

``diff`` reports per corpus: how many results are identical in every
``SdpiResult`` field and how many in value, values that rise or fall by
more than 1e-12 relative, how many ``rho_m_squared`` values changed bits and
their largest relative move, cases whose ``evaluations`` changed at an
unchanged value, witnesses (``argmax_q``) gained or lost with their lead over
rho_m^2, witnesses whose ``first_order_gap`` crosses 1e-6 either way with
their value move, ``method`` changes, cases in one dump only, and the
evaluations and seconds of each dump, in total and by input alphabet size,
so that a change to one size shows where it moved.  It adds no gate and
always exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REL_TOL = 1e-12
GAP_TOL = 1e-6
BENCH_SEEDS = (1, 9001)
BENCH_SECONDS = 40
FUZZ_SEED, FUZZ_DRAWS = 20261019, 600
# Every SdpiResult field; a record's seconds is not one.
RESULT_FIELDS = ("value", "argmax_q", "rho_m_squared", "method", "evaluations", "first_order_gap")


def _load(tree: Path) -> None:
    """Import the sdpibounds package of tree/src, and tree/bench's modules."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import sdpibounds

    where = Path(sdpibounds.__file__).resolve()
    if (tree / "src").resolve() not in where.parents:
        raise SystemExit(f"sdpibounds was imported from {where}, not from {tree / 'src'}")


def bench_cases():
    import workloads
    from sdpibounds import quantized_gaussian_joint

    for seed in BENCH_SEEDS:
        for name in ("bounds-small", "sstar-gauss"):
            wl = workloads.make(name)
            for i, op in enumerate(workloads.inputs(wl, seed, BENCH_SECONDS)):
                key = f"{name}/seed{seed}/op{i}"
                if name == "bounds-small":
                    for direction in ("x_to_y", "y_to_x"):
                        yield key, op.args["j"], direction
                else:
                    yield key, quantized_gaussian_joint(op.args["rho"], op.args["levels"]), "x_to_y"


def fuzz_cells(rng, kind, n):
    """n cells of one fuzz joint of class kind, 0 to 2 (fuzz_joint)."""
    if kind == 0:
        return rng.dirichlet(np.ones(n))
    if kind == 1:
        P = rng.dirichlet(np.full(n, 0.3))
        P[rng.random(n) < 0.35] = 0.0
        return P
    return rng.dirichlet(np.full(n, 0.05))


@lru_cache(maxsize=1)
def _fuzz_tables():
    """The unnormalized cells of every fuzz draw, in draw order."""
    rng = np.random.default_rng(FUZZ_SEED)
    tables = []
    for i in range(FUZZ_DRAWS):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        tables.append(fuzz_cells(rng, i % 3, nx * ny).reshape(nx, ny))
    return tables


def fuzz_joint(i):
    """Draw i of the fuzz, or None when it has an empty row or column."""
    from sdpibounds import JointDistribution

    P = _fuzz_tables()[i]
    if (P.sum(axis=1) == 0).any() or (P.sum(axis=0) == 0).any():
        return None
    return JointDistribution(P / P.sum())


def fuzz_cases():
    for i in range(FUZZ_DRAWS):
        if (j := fuzz_joint(i)) is not None:
            for direction in ("x_to_y", "y_to_x"):
                yield f"draw{i}", j, direction


def gauss_cases():
    from sdpibounds import quantized_gaussian_joint

    # The 21-level scan shares its last rho with the grid, so keys name the part.
    cases = [("scan", 21, rho) for rho in np.linspace(0.15, 0.95, 60)]
    cases += [("grid", levels, rho) for levels in range(5, 66) for rho in np.linspace(-0.9, 0.95, 18)]
    for part, levels, rho in cases:
        yield (f"{part}/levels{levels}/rho{float(rho)!r}",
               quantized_gaussian_joint(float(rho), levels), "x_to_y")


# Each corpus yields (key, joint, direction); a key and direction name one case.
CORPORA = {"bench": bench_cases, "fuzz": fuzz_cases, "gauss": gauss_cases}


def dump(out: Path, corpora: list[str]) -> int:
    """Write one JSON line per case of each corpus to out; returns the count."""
    from sdpibounds import sstar

    count = 0
    with out.open("w") as fh:
        for corpus in corpora:
            for key, j, direction in CORPORA[corpus]():
                t0 = time.perf_counter()
                res = sstar(j, direction)
                seconds = time.perf_counter() - t0
                inputs = j.x_size if direction == "x_to_y" else j.y_size
                record = {"corpus": corpus, "key": key, "direction": direction,
                          "inputs": inputs, **res.to_dict(), "seconds": seconds}
                fh.write(json.dumps(record) + "\n")
                count += 1
    return count


def read(path: Path) -> dict:
    """{(corpus, key, direction): record} of one dump."""
    records = {}
    for line in path.read_text().splitlines():
        r = json.loads(line)
        records[(r["corpus"], r["key"], r["direction"])] = r
    return records


def _lead(r: dict) -> float:
    """How far a result's value leads its rho_m^2, relative."""
    return (r["value"] - r["rho_m_squared"]) / r["rho_m_squared"] if r["rho_m_squared"] else math.inf


@dataclass
class CorpusDiff:
    """Differences between two dumps on one corpus; each list holds text lines."""

    matched: int = 0
    identical: int = 0
    same_values: int = 0
    largest_move: float = 0.0
    rho_moved: int = 0
    rho_largest_move: float = 0.0
    rises: list = field(default_factory=list)
    falls: list = field(default_factory=list)
    gained: list = field(default_factory=list)
    lost: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    methods: list = field(default_factory=list)
    recounted: list = field(default_factory=list)
    only_in_one: list = field(default_factory=list)
    evaluations: list = field(default_factory=lambda: [0, 0])
    seconds: list = field(default_factory=lambda: [0.0, 0.0])
    # {input alphabet size: [evaluations A, B, seconds A, B]}
    by_inputs: dict = field(default_factory=dict)

    def changes(self) -> list:
        return (self.rises + self.falls + self.gained + self.lost + self.gaps + self.methods
                + self.recounted + self.only_in_one)


def _relative_move(a: float, b: float) -> float:
    """b - a relative to a, or absolute where a is 0."""
    return (b - a) / abs(a) if a else b - a


def compare(a: dict, b: dict) -> dict:
    """{corpus: CorpusDiff} of dump b against dump a."""
    out = {}
    for case in sorted(a.keys() | b.keys()):
        d = out.setdefault(case[0], CorpusDiff())
        name = f"{case[1]} {case[2]}"
        if case not in a or case not in b:
            d.only_in_one.append(f"only in {'B' if case in b else 'A'}: {name}")
            continue
        ra, rb = a[case], b[case]
        d.matched += 1
        d.evaluations[0] += ra["evaluations"]
        d.evaluations[1] += rb["evaluations"]
        d.seconds[0] += ra["seconds"]
        d.seconds[1] += rb["seconds"]
        size = d.by_inputs.setdefault(ra["inputs"], [0, 0, 0.0, 0.0])
        for i, (r, f) in enumerate(((ra, "evaluations"), (rb, "evaluations"),
                                    (ra, "seconds"), (rb, "seconds"))):
            size[i] += r[f]
        va, vb = ra["value"], rb["value"]
        d.identical += all(ra[f] == rb[f] for f in RESULT_FIELDS)
        d.same_values += va == vb
        move = _relative_move(va, vb)
        d.largest_move = max(d.largest_move, abs(move))
        ma, mb = ra["rho_m_squared"], rb["rho_m_squared"]
        d.rho_moved += ma != mb
        d.rho_largest_move = max(d.rho_largest_move, abs(_relative_move(ma, mb)))
        if move > REL_TOL:
            d.rises.append(f"rise {move:.3g}: {name} {va!r} -> {vb!r}")
        elif move < -REL_TOL:
            d.falls.append(f"fall {move:.3g}: {name} {va!r} -> {vb!r}")
        if (ra["argmax_q"] is None) != (rb["argmax_q"] is None):
            lists, r = (d.lost, ra) if rb["argmax_q"] is None else (d.gained, rb)
            lists.append(f"witness {'lost' if lists is d.lost else 'gained'}: {name}, "
                         f"leads rho_m^2 by {_lead(r):.3g} relative ({r['value']!r})")
        elif ra["argmax_q"] is not None and (ra["first_order_gap"] > GAP_TOL) != (
                rb["first_order_gap"] > GAP_TOL):
            d.gaps.append(f"gap {'up' if rb['first_order_gap'] > GAP_TOL else 'down'}: {name} "
                          f"{ra['first_order_gap']:.3g} -> {rb['first_order_gap']:.3g}, "
                          f"value move {move:.3g}")
        if ra["method"] != rb["method"]:
            d.methods.append(f"method: {name} {ra['method']} -> {rb['method']}")
        if va == vb and ra["evaluations"] != rb["evaluations"]:
            d.recounted.append(f"evaluations at an unchanged value: {name} "
                               f"{ra['evaluations']:,} -> {rb['evaluations']:,}")
    return out


def report(diffs: dict) -> str:
    lines = []
    for corpus, d in diffs.items():
        (ea, eb), (sa, sb) = d.evaluations, d.seconds
        lines.append(
            f"{corpus}: {d.matched} results, {d.identical} identical in every result field, "
            f"{d.same_values} values bit-identical, largest move "
            f"{d.largest_move:.3g} relative; {d.rho_moved} rho_m^2 values changed bits, "
            f"largest move {d.rho_largest_move:.3g} relative; {len(d.rises)} rises and "
            f"{len(d.falls)} falls beyond {REL_TOL:g}, {len(d.gained)} witnesses gained and "
            f"{len(d.lost)} lost, {len(d.gaps)} witness gaps across {GAP_TOL:g}, "
            f"{len(d.methods)} method changes, {len(d.recounted)} evaluation counts changed "
            f"at an unchanged value; evaluations {ea:,} -> {eb:,}, "
            f"seconds {sa:.3f} -> {sb:.3f}")
        lines += [f"  {k} inputs: evaluations {ea:,} -> {eb:,}, seconds {sa:.3f} -> {sb:.3f}"
                  for k, (ea, eb, sa, sb) in sorted(d.by_inputs.items())]
        lines += [f"  {line}" for line in d.changes()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write the answers of one tree")
    p.add_argument("out", type=Path)
    p.add_argument("--corpus", nargs="+", action="extend", choices=sorted(CORPORA))
    p.add_argument("--tree", type=Path, default=ROOT)
    p = sub.add_parser("diff", help="compare two dumps, B against A")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        _load(args.tree)
        count = dump(args.out, list(dict.fromkeys(args.corpus or CORPORA)))
        print(f"{count} results written to {args.out}")
    else:
        print(report(compare(read(args.a), read(args.b))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
