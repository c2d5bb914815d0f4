"""Outer-bound checks for distributed source coding rate tuples.

Every check reports lhs, rhs, slack = lhs - rhs and satisfied = slack >= -1e-9,
always oriented so the bound asserts lhs >= rhs.  These are necessary
conditions: a satisfied report never certifies that a rate tuple is
achievable.  When the contraction constants fed in are themselves lower
bounds (which is what the solver guarantees), a satisfied report is still
reliable, but a violated one is only suggestive, since the true constants
could raise the lhs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError
from .probability import JointDistribution, marginals
from .rate_distortion import DistortionMatrix, rd_at_distortion
from .sdpi import SdpiResult, sstar

SLACK_TOLERANCE = 1e-9


def _check_unit(value: float, what: str) -> float:
    if not (np.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{what} must lie in [0,1], got {value!r}")
    return float(value)


def _check_nonneg(value: float, what: str) -> float:
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError(f"{what} must be finite and >= 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class RateDistortionTuple:
    """An operating point: rates in bits per symbol, average distortions."""

    rx: float
    ry: float
    dx: float
    dy: float

    def __post_init__(self):
        for field in ("rx", "ry", "dx", "dy"):
            _check_nonneg(getattr(self, field), field)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality, oriented as lhs >= rhs."""

    name: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    inputs: dict
    note: str = ""

    @classmethod
    def build(cls, name: str, lhs: float, rhs: float, inputs: dict, note: str = "") -> "BoundReport":
        slack = lhs - rhs
        return cls(name, lhs, rhs, slack, bool(slack >= -SLACK_TOLERANCE), dict(inputs), note)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "satisfied": self.satisfied,
            "inputs": dict(self.inputs),
            "note": self.note,
        }


@dataclass(frozen=True)
class CeoQuery:
    """Rates of k agents observing noisy views of one source, plus the
    contraction constant of each view and the rate the source demands."""

    rates: tuple
    sstars: tuple
    target_rate: float

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        sstars = tuple(float(s) for s in self.sstars)
        if len(rates) == 0 or len(rates) != len(sstars):
            raise ValueError(
                f"need matching nonempty rate/constant lists, got {len(rates)} and {len(sstars)}"
            )
        for r in rates:
            _check_nonneg(r, "agent rate")
        for s in sstars:
            _check_unit(s, "agent contraction constant")
        _check_nonneg(self.target_rate, "target_rate")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "sstars", sstars)


@dataclass(frozen=True)
class CommonRandomnessQuery:
    """Common randomness C extracted per R bits of one-way communication."""

    rate: float
    common_randomness: float
    sstar: float

    def __post_init__(self):
        _check_nonneg(self.rate, "rate")
        _check_nonneg(self.common_randomness, "common_randomness")
        _check_unit(self.sstar, "sstar")


def coupled_rate_check(
    t: RateDistortionTuple,
    sstar_yx: float,
    sstar_xy: float,
    rx_of_dx: float,
    ry_of_dy: float,
) -> list[BoundReport]:
    """The two cross-coupled rate constraints.

    Each terminal must fund its own rate-distortion requirement, with the
    other terminal's rate discounted by the contraction constant toward it:

        rx + sstar_yx * ry >= R_X(dx)
        ry + sstar_xy * rx >= R_Y(dy)
    """
    _check_unit(sstar_yx, "sstar_yx")
    _check_unit(sstar_xy, "sstar_xy")
    _check_nonneg(rx_of_dx, "rx_of_dx")
    _check_nonneg(ry_of_dy, "ry_of_dy")
    shared = {"rx": t.rx, "ry": t.ry, "dx": t.dx, "dy": t.dy,
              "sstar_yx": sstar_yx, "sstar_xy": sstar_xy}
    vacuous = "rate function is zero at this distortion; the constraint is vacuous"
    return [
        BoundReport.build(
            "coupled-rate-x",
            t.rx + sstar_yx * t.ry,
            rx_of_dx,
            {**shared, "rate_function": rx_of_dx},
            note=vacuous if rx_of_dx == 0.0 else "",
        ),
        BoundReport.build(
            "coupled-rate-y",
            t.ry + sstar_xy * t.rx,
            ry_of_dy,
            {**shared, "rate_function": ry_of_dy},
            note=vacuous if ry_of_dy == 0.0 else "",
        ),
    ]


def sum_rate_bound(rho_star_value: float, rx_of_dx: float, ry_of_dy: float) -> float:
    """Smallest sum rate the coupled constraints allow.

    Adding the two constraints and dividing by (1 + rho*) gives

        rx + ry >= (R_X(dx) + R_Y(dy)) / (1 + rho*).
    """
    _check_unit(rho_star_value, "rho_star_value")
    _check_nonneg(rx_of_dx, "rx_of_dx")
    _check_nonneg(ry_of_dy, "ry_of_dy")
    return (rx_of_dx + ry_of_dy) / (1.0 + rho_star_value)


def independent_coding_penalty(rho_star_value: float) -> float:
    """Fraction of the two independent rate requirements the coupling can waive.

    rho* = 0 forces the full independent sum; the discount grows to 1/2 as
    rho* -> 1, and is monotone in between.
    """
    _check_unit(rho_star_value, "rho_star_value")
    return rho_star_value / (1.0 + rho_star_value)


def ceo_bound_check(q: CeoQuery) -> BoundReport:
    """Weighted agent rates must fund the source's rate requirement:

        sum_i sstar_i * r_i >= target_rate.
    """
    lhs = float(np.dot(q.sstars, q.rates))
    return BoundReport.build(
        "ceo-sum",
        lhs,
        q.target_rate,
        {"rates": list(q.rates), "sstars": list(q.sstars), "target_rate": q.target_rate},
    )


def cr_ratio_bound(q: CommonRandomnessQuery) -> BoundReport:
    """Common randomness per communicated bit is capped by 1/(1 - sstar)."""
    if q.rate == 0.0:
        raise ValueError("ratio undefined at zero communication rate")
    ratio = q.common_randomness / q.rate
    inputs = {"rate": q.rate, "common_randomness": q.common_randomness, "sstar": q.sstar}
    if q.sstar == 1.0:
        return BoundReport.build(
            "cr-ratio", np.inf, ratio, inputs,
            note="cap is infinite at contraction constant 1; the bound is vacuous",
        )
    return BoundReport.build("cr-ratio", 1.0 / (1.0 - q.sstar), ratio, inputs)


def _both_directions(j: JointDistribution) -> tuple[SdpiResult, SdpiResult, float]:
    """(x_to_y result, y_to_x result, rho*) through this module's sstar.
    sdpi._posed poses y_to_x as x_to_y on the transpose of j.probs, so a
    joint equal to its transpose bit for bit poses the same arrays both
    ways: it is solved once and reported both ways."""
    xy = sstar(j, "x_to_y")
    symmetric = j.x_size == j.y_size and j.probs.tobytes() == j.probs.T.tobytes()
    yx = xy if symmetric else sstar(j, "y_to_x")
    return xy, yx, max(xy.value, yx.value)


def rho_star(j: JointDistribution) -> float:
    """max of the two directional contraction constants."""
    return _both_directions(j)[2]


def full_report(
    j: JointDistribution,
    dx_matrix: DistortionMatrix,
    dy_matrix: DistortionMatrix,
    t: RateDistortionTuple,
) -> list[BoundReport]:
    """Estimate both contraction constants, evaluate the rate functions at
    the tuple's distortions, and run every applicable check."""
    if dx_matrix.x_size != j.x_size:
        raise DimensionMismatchError(
            f"x distortion matrix has {dx_matrix.x_size} rows, joint has x alphabet {j.x_size}"
        )
    if dy_matrix.x_size != j.y_size:
        raise DimensionMismatchError(
            f"y distortion matrix has {dy_matrix.x_size} rows, joint has y alphabet {j.y_size}"
        )
    px, py = marginals(j)
    res_xy, res_yx, rho = _both_directions(j)
    rx_req = rd_at_distortion(px, dx_matrix, t.dx).rate
    ry_req = rd_at_distortion(py, dy_matrix, t.dy).rate

    reports = [
        replace(r, inputs={**r.inputs, "rho_star": rho})
        for r in coupled_rate_check(t, res_yx.value, res_xy.value, rx_req, ry_req)
    ]
    reports.append(
        BoundReport.build(
            "sum-rate",
            t.rx + t.ry,
            sum_rate_bound(rho, rx_req, ry_req),
            {"rx": t.rx, "ry": t.ry, "dx": t.dx, "dy": t.dy,
             "rate_function_x": rx_req, "rate_function_y": ry_req, "rho_star": rho},
        )
    )
    return reports
