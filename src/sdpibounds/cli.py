"""Command line front end.

Results go to stdout (JSON, or CSV for the figure command), diagnostics to
stderr.  Exit codes: 0 success, 2 unreadable input (bad JSON, missing
fields, bad flags), 3 well-formed input that violates a model invariant or
lies outside an operation's domain, 4 filesystem trouble.

Floats in emitted JSON and CSV are rounded to 12 significant digits, which
keeps byte-identical output for identical inputs.  Non-finite
values (the vacuous common-randomness cap) serialize as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bounds import (
    CeoQuery,
    CommonRandomnessQuery,
    RateDistortionTuple,
    _both_directions,
    ceo_bound_check,
    cr_ratio_bound,
    full_report,
)
from .errors import ConvergenceError
from .gaussian import figure_data, rows_to_csv
from .probability import Distribution, JointDistribution, _is_real
from .rate_distortion import DistortionMatrix, rd_at_distortion, rd_curve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


class InputFormatError(Exception):
    """Input file or flag value that cannot be interpreted at all."""


def _round_floats(obj):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(payload, out_path: str | None) -> None:
    text = json.dumps(_round_floats(payload), indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise InputFormatError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(payload, (dict, list)):
        raise InputFormatError(f"{path}: expected a JSON object")
    return payload


def _from_dict(cls, payload, path: str):
    try:
        return cls.from_dict(payload)
    except (KeyError, TypeError, OverflowError) as e:
        raise InputFormatError(f"{path}: missing or malformed field ({e})") from e


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise InputFormatError(f"{flag}: expected comma-separated numbers, got {text!r}") from e


def _cmd_sstar(args) -> None:
    j = _from_dict(JointDistribution, _load_json(args.joint), args.joint)
    xy, yx, rho = _both_directions(j)
    _emit_json({"x_to_y": xy.to_dict(), "y_to_x": yx.to_dict(), "rho_star": rho}, args.out)


def _cmd_rd(args) -> None:
    source = _from_dict(Distribution, _load_json(args.source), args.source)
    d = None
    if args.distortion:
        d = _from_dict(DistortionMatrix, _load_json(args.distortion), args.distortion)
    if args.curve is not None:
        payload = rd_curve(source, d, args.curve).to_dict()
    else:
        payload = rd_at_distortion(source, d, args.target).to_dict()
    _emit_json(payload, args.out)


def _cmd_bounds(args) -> None:
    j = _from_dict(JointDistribution, _load_json(args.joint), args.joint)
    dxm = _from_dict(DistortionMatrix, _load_json(args.dx_costs), args.dx_costs)
    dym = _from_dict(DistortionMatrix, _load_json(args.dy_costs), args.dy_costs)
    t = RateDistortionTuple(rx=args.rx, ry=args.ry, dx=args.dx, dy=args.dy)
    _emit_json([r.to_dict() for r in full_report(j, dxm, dym, t)], args.out)


def _cmd_gauss_figures(args) -> None:
    grid = None
    if args.grid:
        payload = _load_json(args.grid)
        if not (isinstance(payload, list) and all(
            isinstance(pair, list) and len(pair) == 2 and all(_is_real(v) for v in pair)
            for pair in payload
        )):
            raise InputFormatError(f"{args.grid}: expected a JSON list of [dx, dy] number pairs")
        try:
            grid = [(float(dx), float(dy)) for dx, dy in payload]
        except OverflowError as e:
            raise InputFormatError(f"{args.grid}: grid value out of the float range ({e})") from e
    rows = figure_data(args.rho, grid)
    rows_to_csv(rows, args.out or sys.stdout)
    print(f"{len(rows)} rows at rho={args.rho!r}", file=sys.stderr)


def _cmd_ceo(args) -> None:
    q = CeoQuery(
        rates=tuple(_float_list(args.rates, "--rates")),
        sstars=tuple(_float_list(args.sstars, "--sstars")),
        target_rate=args.target_rate,
    )
    _emit_json(ceo_bound_check(q).to_dict(), args.out)


def _cmd_cr(args) -> None:
    q = CommonRandomnessQuery(
        rate=args.rate,
        common_randomness=args.randomness,
        sstar=args.sstar,
    )
    _emit_json(cr_ratio_bound(q).to_dict(), args.out)


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one line, like every other input error."""

    def error(self, message):
        raise InputFormatError(message)


def _add_globals(target, default):
    target.add_argument("--out", default=default,
                        help="write output here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sdpibounds",
        description="Contraction constants and outer bounds for distributed source coding.",
    )
    _add_globals(parser, None)
    # The same flag is accepted after the subcommand; SUPPRESS keeps the
    # subparser from stomping a value parsed at the top level.
    shared = _Parser(add_help=False)
    _add_globals(shared, argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sstar", parents=[shared],
                       help="contraction constants of a joint distribution")
    p.add_argument("joint", help="joint distribution JSON file")
    p.set_defaults(func=_cmd_sstar)

    p = sub.add_parser("rd", parents=[shared], help="rate-distortion point or curve of a source")
    p.add_argument("source", help="source pmf JSON file")
    p.add_argument("distortion", nargs="?", default=None,
                   help="distortion matrix JSON file (default: Hamming)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--target", type=float, help="distortion target")
    g.add_argument("--curve", type=int, help="sample an n-point curve")
    p.set_defaults(func=_cmd_rd)

    p = sub.add_parser("bounds", parents=[shared], help="evaluate all outer bounds for a rate tuple")
    p.add_argument("joint", help="joint distribution JSON file")
    p.add_argument("dx_costs", help="X distortion matrix JSON file")
    p.add_argument("dy_costs", help="Y distortion matrix JSON file")
    p.add_argument("--rx", type=float, required=True)
    p.add_argument("--ry", type=float, required=True)
    p.add_argument("--dx", type=float, required=True)
    p.add_argument("--dy", type=float, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gauss-figures", parents=[shared], help="Gaussian bound comparison as CSV")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--grid", default=None, help="JSON file with [dx, dy] pairs")
    p.set_defaults(func=_cmd_gauss_figures)

    p = sub.add_parser("ceo", parents=[shared], help="weighted sum-rate check for the CEO setting")
    p.add_argument("--rates", required=True, help="comma-separated agent rates")
    p.add_argument("--sstars", required=True, help="comma-separated agent constants")
    p.add_argument("--target-rate", type=float, required=True)
    p.set_defaults(func=_cmd_ceo)

    p = sub.add_parser("cr", parents=[shared], help="common randomness per communicated bit")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--randomness", type=float, required=True)
    p.add_argument("--sstar", type=float, required=True)
    p.set_defaults(func=_cmd_cr)

    return parser


def _parse_args(argv):
    try:
        args, extras = _build_parser().parse_known_args(argv)
    except InputFormatError:
        # argparse sets an unknown flag before the subcommand aside and reads
        # its value as the subcommand; name the flag instead.
        flags = _Parser(add_help=False)
        _add_globals(flags, None)
        rest = flags.parse_known_args(argv)[1]
        if rest and rest[0].startswith("-"):
            raise InputFormatError(f"unrecognized arguments: {rest[0]}") from None
        raise
    if extras:
        # Name the first one alone, as above, not the value after it too.
        raise InputFormatError(f"unrecognized arguments: {extras[0]}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        args.func(args)
    except InputFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except SystemExit as e:
        return int(e.code or 0)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())
