"""Seeded inputs, the operations that consume them, and the answer checks.

Each workload draws its inputs in stratified blocks: one block covers every
stratum of the properties the run time depends on (alphabet sizes, quantizer
levels, op kind, the place of a parameter in its range) once, and the seed
draws every value inside its stratum.  Runs with different seeds then see
the same mix, which keeps their figures comparable, while the seed still
decides every number the library receives.  ``block_seconds`` sets the
size of a run: it holds ``round(seconds / block_seconds)`` whole blocks, at
least one, so the ops of a run depend on the seed and ``seconds`` alone.

The library is called through module attributes (``bounds.full_report``,
``rate_distortion.rd_curve`` ...) so that the traced run can patch those
attributes.  The checks use functions bound at import time, before any
patching, so checking never produces spans.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sdpibounds import bounds, gaussian, rate_distortion, sdpi
from sdpibounds.bounds import RateDistortionTuple, sum_rate_bound
from sdpibounds.probability import Distribution, JointDistribution
from sdpibounds.rate_distortion import DistortionMatrix, binary_hamming_rd
from sdpibounds.sdpi import divergence_ratio, maximal_correlation

# Library errors an operation may raise on a valid input today.  They count
# as failed operations; any other exception is a fault of the benchmark.
LIBRARY_ERRORS = (ValueError, RuntimeError)

SSTAR_LOWER_SLACK = 1e-12
WITNESS_REL_TOL = 1e-9
DATA_PROCESSING_SLACK = 1e-9
DISTORTION_SLACK = 1e-6
ORACLE_TOL = 1e-4


@dataclass
class Op:
    """One library call with its inputs; ``kind`` selects how it runs."""

    kind: str
    args: dict
    label: str
    closed_form: str = ""

    def digest_into(self, h) -> None:
        h.update(self.kind.encode())
        for key in sorted(self.args):
            value = self.args[key]
            h.update(key.encode())
            if isinstance(value, (JointDistribution, Distribution)):
                h.update(value.probs.tobytes())
            elif isinstance(value, DistortionMatrix):
                h.update(value.costs.tobytes())
            elif isinstance(value, RateDistortionTuple):
                h.update(repr((value.rx, value.ry, value.dx, value.dy)).encode())
            else:
                h.update(repr(value).encode())


@dataclass
class Verdict:
    """Outcome of checking one answer."""

    problems: list[str] = field(default_factory=list)
    sstar_values: list[float] = field(default_factory=list)
    oracle_gap: float | None = None


def inputs_digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        op.digest_into(h)
    return h.hexdigest()


def _rng(seed: int, tag: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, block])


def _strata(rng, m: int) -> list[float]:
    """m draws from [0, 1), one in each 1/m slice, in seeded order."""
    return [float(v) for v in (rng.permutation(m) + rng.uniform(size=m)) / m]


def _full_support_joint(rng, nx: int, ny: int) -> JointDistribution:
    p = rng.dirichlet(np.ones(nx * ny))
    p = 0.9 * p + 0.1 / (nx * ny)
    return JointDistribution(p.reshape(nx, ny))


def _hamming_dmax(p: np.ndarray) -> float:
    """Zero-rate distortion of a source under Hamming distortion."""
    return float(1.0 - p.max())


def _check_sstar(v: Verdict, value: float, rho_m2: float, what: str) -> None:
    v.sstar_values.append(value)
    if not (rho_m2 - SSTAR_LOWER_SLACK <= value <= 1.0):
        v.problems.append(f"{what}: s* {value!r} outside [rho_m^2 {rho_m2!r}, 1]")


def check_sdpi_result(v: Verdict, res, j: JointDistribution, direction: str) -> None:
    """Witness check for an ``SdpiResult`` the benchmark holds.

    The ratio at the witness must match ``value`` to WITNESS_REL_TOL
    relative, or to SSTAR_LOWER_SLACK absolute: on the bundled independent
    pair the solver reports 6.9e-14 (cancellation inside rel_entr) where
    the witness recomputes exactly 0.
    """
    if res.argmax_q is None:
        return
    again = divergence_ratio(res.argmax_q, j, direction)
    if abs(again - res.value) > WITNESS_REL_TOL * abs(res.value) + SSTAR_LOWER_SLACK:
        v.problems.append(
            f"witness ratio {again!r} does not reproduce s* {res.value!r} ({direction})"
        )


def uniform_hamming_rd(k: int, target: float) -> float:
    """Closed-form R(D) of a uniform k-ary source under Hamming distortion."""
    if target >= 1.0 - 1.0 / k:
        return 0.0
    h = 0.0 if target <= 0.0 else -target * math.log2(target) - (1 - target) * math.log2(1 - target)
    return math.log2(k) - h - target * math.log2(k - 1)


# --------------------------------------------------------------------------
# bounds-small: full_report on small joints (both directions, grid + ascent)

_DATA = Path(__file__).resolve().parents[1] / "src" / "sdpibounds" / "data"
BUNDLED = ("quaternary", "dsbs_p10", "independent_binary")


def _bundled_joint(name: str) -> JointDistribution:
    return JointDistribution.from_dict(json.loads((_DATA / f"{name}.json").read_text()))


class BoundsSmall:
    """Each op is ``full_report(j, hamming(nx), hamming(ny), tuple)``.

    A block holds one random joint for every (nx, ny) in {2,3,4}^2 plus the
    three bundled joints, in seeded order.
    """

    name = "bounds-small"
    tag = 1
    block_seconds = 20.0

    def __init__(self):
        self._bundled = [_bundled_joint(n) for n in BUNDLED]

    def _op(self, rng, j: JointDistribution) -> Op:
        px, py = j.probs.sum(axis=1), j.probs.sum(axis=0)
        dx = float(rng.uniform(0.1, 0.9)) * _hamming_dmax(px)
        dy = float(rng.uniform(0.1, 0.9)) * _hamming_dmax(py)
        rx = float(rng.uniform(0.0, math.log2(j.x_size)))
        ry = float(rng.uniform(0.0, math.log2(j.y_size)))
        t = RateDistortionTuple(rx, ry, dx, dy)
        return Op("full_report", {"j": j, "t": t}, f"{j.x_size}x{j.y_size}")

    def block(self, seed: int, index: int) -> list[Op]:
        rng = _rng(seed, self.tag, index)
        joints = [_full_support_joint(rng, nx, ny) for nx in (2, 3, 4) for ny in (2, 3, 4)]
        joints += self._bundled
        ops = [self._op(rng, j) for j in joints]
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup(self) -> list[Op]:
        return [self._op(np.random.default_rng(0), self._bundled[1])]

    def run(self, op: Op):
        j, t = op.args["j"], op.args["t"]
        dxm = DistortionMatrix.hamming(j.x_size)
        dym = DistortionMatrix.hamming(j.y_size)
        return bounds.full_report(j, dxm, dym, t)

    def check(self, op: Op, reports) -> Verdict:
        v = Verdict()
        j = op.args["j"]
        rho_m2 = maximal_correlation(j) ** 2
        by_name = {r.name: r for r in reports}
        sum_rate = by_name["sum-rate"]
        inputs = by_name["coupled-rate-x"].inputs
        _check_sstar(v, inputs["sstar_xy"], rho_m2, "x_to_y")
        _check_sstar(v, inputs["sstar_yx"], rho_m2, "y_to_x")
        rhs = sum_rate_bound(
            sum_rate.inputs["rho_star"],
            sum_rate.inputs["rate_function_x"],
            sum_rate.inputs["rate_function_y"],
        )
        if sum_rate.rhs != rhs:
            v.problems.append(f"sum-rate rhs {sum_rate.rhs!r} != sum_rate_bound {rhs!r}")
        return v


# --------------------------------------------------------------------------
# sstar-gauss: quantized Gaussian joints, k > 4, so only the ascent runs

LEVELS = (9, 17, 33)
RHO_RANGE = (0.2, 0.9)
GAUSS_BLOCK = 12


class SstarGauss:
    """Each op is ``quantized_gaussian_joint(rho, levels)`` then ``sstar``.

    A block splits [0.2, 0.9] into twelve strata and draws one rho in each;
    every run of three neighbouring strata gets the three level counts in
    seeded order, so each level sees rho across the whole range.
    """

    name = "sstar-gauss"
    tag = 2
    block_seconds = 20.0

    def block(self, seed: int, index: int) -> list[Op]:
        rng = _rng(seed, self.tag, index)
        lo, hi = RHO_RANGE
        levels = [LEVELS[i] for _ in range(GAUSS_BLOCK // len(LEVELS))
                  for i in rng.permutation(len(LEVELS))]
        offsets = rng.uniform(size=GAUSS_BLOCK)
        ops = [
            Op("gauss", {"rho": lo + (hi - lo) * (s + offsets[s]) / GAUSS_BLOCK, "levels": lv},
               f"levels={lv}")
            for s, lv in enumerate(levels)
        ]
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup(self) -> list[Op]:
        return [Op("gauss", {"rho": 0.5, "levels": 3}, "warmup")]

    def run(self, op: Op):
        j = gaussian.quantized_gaussian_joint(op.args["rho"], op.args["levels"])
        return j, sdpi.sstar(j, "x_to_y")

    def check(self, op: Op, outcome) -> Verdict:
        j, res = outcome
        v = Verdict()
        rho = op.args["rho"]
        _check_sstar(v, res.value, maximal_correlation(j) ** 2, "x_to_y")
        if res.value > rho * rho + DATA_PROCESSING_SLACK:
            v.problems.append(f"s* {res.value!r} exceeds rho^2 {rho * rho!r}")
        check_sdpi_result(v, res, j, "x_to_y")
        return v


# --------------------------------------------------------------------------
# rd-mixed: Blahut-Arimoto and slope bisection, no sdpi code

RD_CURVE_POINTS = 33
# Ops per block and kind for each source class.  BA cost on random sources
# varies from milliseconds to seconds with no input property that predicts
# it, so they are a small share of a block; the closed-form classes, whose
# cost is smooth in their stratified parameters, carry the rest.
RD_COUNTS = {"binary": 4, "uniform": 4, "random-hamming": 1, "random-costs": 1}


class RdMixed:
    """Each op is ``rd_at_distortion`` at a feasible target or ``rd_curve``.

    Source classes: a binary source and a uniform k-ary source under
    Hamming distortion (both have closed forms), and a random 2-8 symbol
    source under Hamming or under a random zero-diagonal cost matrix.  A
    block holds ``RD_COUNTS[class]`` ops of each kind per class; the binary
    parameter, the alphabet size and the target's place between the least
    and the zero-rate distortion are each drawn one per stratum.
    """

    name = "rd-mixed"
    tag = 3
    block_seconds = 4.0

    def _source(self, rng, cls: str, u: float):
        if cls == "binary":
            p = 0.05 + 0.9 * u
            return Distribution([p, 1.0 - p]), DistortionMatrix.hamming(2), "binary"
        n = 2 + int(7 * u)
        if cls == "uniform":
            return Distribution.uniform(n), DistortionMatrix.hamming(n), "uniform"
        src = Distribution(rng.dirichlet(np.ones(n)))
        if cls == "random-hamming":
            return src, DistortionMatrix.hamming(n), ""
        costs = rng.uniform(0.1, 1.0, size=(n, n))
        np.fill_diagonal(costs, 0.0)
        return src, DistortionMatrix(costs), ""

    def block(self, seed: int, index: int) -> list[Op]:
        rng = _rng(seed, self.tag, index)
        ops = []
        for cls, m in RD_COUNTS.items():
            for kind in ("rd_at", "rd_curve"):
                for su, tu in zip(_strata(rng, m), _strata(rng, m)):
                    src, d, closed = self._source(rng, cls, su)
                    args = {"source": src, "d": d}
                    if kind == "rd_at":
                        dmin = float(src.probs @ d.costs.min(axis=1))
                        dmax = float((src.probs @ d.costs).min())
                        args["target"] = dmin + (0.05 + 0.9 * tu) * (dmax - dmin)
                    ops.append(Op(kind, args, f"{cls} n={src.alphabet_size}", closed))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup(self) -> list[Op]:
        src, d = Distribution([0.3, 0.7]), DistortionMatrix.hamming(2)
        return [Op("rd_at", {"source": src, "d": d, "target": 0.1}, "warmup"),
                Op("rd_curve", {"source": src, "d": d}, "warmup")]

    def run(self, op: Op):
        a = op.args
        if op.kind == "rd_at":
            return rate_distortion.rd_at_distortion(a["source"], a["d"], a["target"])
        return rate_distortion.rd_curve(a["source"], a["d"], RD_CURVE_POINTS)

    def _oracle(self, op: Op, distortion: float) -> float:
        p = op.args["source"].probs
        if op.closed_form == "binary":
            return binary_hamming_rd(float(p[0]), distortion)
        return uniform_hamming_rd(p.shape[0], distortion)

    def check(self, op: Op, outcome) -> Verdict:
        v = Verdict()
        points = [outcome] if op.kind == "rd_at" else list(outcome.points)
        if op.kind == "rd_at" and outcome.distortion > op.args["target"] + DISTORTION_SLACK:
            v.problems.append(
                f"distortion {outcome.distortion!r} above target {op.args['target']!r}"
            )
        if op.closed_form:
            gap = max(abs(pt.rate - self._oracle(op, pt.distortion)) for pt in points)
            v.oracle_gap = gap
            if gap > ORACLE_TOL:
                v.problems.append(f"rate off the closed form by {gap:.3e} bits")
        return v


WORKLOADS = {w.name: w for w in (BoundsSmall, SstarGauss, RdMixed)}


def make(name: str):
    return WORKLOADS[name]()


def inputs(wl, seed: int, seconds: float) -> list[Op]:
    """The ops of one run: whole blocks, about ``seconds`` at the baseline."""
    blocks = max(1, round(seconds / wl.block_seconds))
    return [op for b in range(blocks) for op in wl.block(seed, b)]
