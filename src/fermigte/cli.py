"""Command-line front end; every computation is a subcommand.

Scalar results are emitted as JSON objects (never holding NaN or an
infinity), tables as CSV.  ``sweep`` is the one way a figure table is
built: :mod:`scan`'s column builders on the figure grids defined here,
printed under the figure's header in _HEADERS.  Solver tolerances and
search brackets default beside their solvers in :mod:`scan` and
:mod:`bisep`.  Exit codes: 0 success, 2 validation/domain error or an
output path that cannot be written, 3 bracket or convergence error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from . import bisep, couplings, geometry, scan, tristate, witnesses
from .errors import BracketError, ConvergenceFailure, DomainError
from .specfun import Dimensionality, f_factor

_FIG_KFR = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 2.59]
_FIG2_KFR = [0.0, 1.0, 2.0, 2.5, 2.59]
# Figure 1a's limit rows inset the coincident-pair endpoints x/r = 0 and 1 by
# half a default grid step: the limit is defined there, but the digests pin these rows.
_LIMIT_INSET = 0.0025
# grid points per sweep axis; figure 1a at the maximum is 70,000 rows
MAX_POINTS = 10_000
# each figure table's CSV header: its two axes, then its value columns
_HEADERS = {
    "1a": ("kfr", "x_over_r", *scan._BOUND_COLUMNS),
    "1b": ("kfr", "y_over_r", *scan._BOUND_COLUMNS),
    "2": ("kfr", "theta", "q_star"),
    "3": ("dim", "kfr", *scan._BOUND_COLUMNS),
}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _scalar(quantity: str, dim: str | None, value: float, tol: float | None) -> str:
    return _json(
        {"quantity": quantity, "dim": dim, "value": value, "tolerance_used": tol}
    )


# each er geometry's flags and defaults; a shape's besides kfr are its <name>_shape's arguments
_ER_FLAGS = {
    "collinear": {"kfr": 0.0, "x_over_r": 0.5},
    "isosceles": {"kfr": 0.0, "y_over_r": 0.0},
    "polar": {"kfr": 0.0, "theta": 0.0, "q_over_r": 0.0},
    "equilateral": {"kfr": 0.0},
    "triangle": {"d12": None, "d13": None, "d23": None, "limit": False},
}


def _state(args: argparse.Namespace) -> tuple[couplings.Couplings, str | None]:
    """(couplings, dim) of a distance triple or an er geometry; dim is None
    wherever the weights are the vanishing-size limit, which has no dim:
    in limit mode, below the switch of from_shape (kfr * max(shape) <
    LIMIT_SWITCH) or of from_config (every distance below it)."""
    if args.command == "er":
        own = _ER_FLAGS[args.geometry]
        # the er parser leaves every flag not given out of args
        stray = [n for n in vars(args) if n not in own and any(n in f for f in _ER_FLAGS.values())]
        if stray:
            flags = ", ".join("--" + n.replace("_", "-") for n in stray)
            raise DomainError(f"--geometry {args.geometry} does not take {flags}")
        args = argparse.Namespace(**{**own, **vars(args)})
        if args.geometry != "triangle":
            shape_of = getattr(geometry, f"{args.geometry}_shape")
            shape = shape_of(*[getattr(args, n) for n in own if n != "kfr"])
            c = couplings.from_shape(shape, args.kfr, Dimensionality(args.dim))
            return c, None if args.kfr * max(shape) < couplings.LIMIT_SWITCH else args.dim
        if None in (args.d12, args.d13, args.d23):
            raise DomainError("--geometry triangle needs --d12, --d13 and --d23")
    if args.limit:
        return couplings.zero_limit(args.d12, args.d13, args.d23), None
    cfg = geometry.TriangleConfig(args.d12, args.d13, args.d23, Dimensionality(args.dim))
    c = couplings.from_config(cfg)
    return c, None if max(cfg.distances()) < couplings.LIMIT_SWITCH else args.dim


class _Parser(argparse.ArgumentParser):
    """argparse that reads every negative float form (-1e-1, -inf, -nan) as
    a value, not as an option, and reports a parse error in one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache  # one parser per process: building it costs more than most commands
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gte-fermi",
        description="Genuine tripartite entanglement of three localized "
        "spins in the degenerate Fermi gas.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("f", help="correlation kernel f(x)", parents=[common])
    p.add_argument("--dim", choices=["2d", "3d"], required=True)
    p.add_argument("--x", type=float, required=True)

    for name, text in (
        ("couplings", "singlet weights of a distance triple"),
        ("rho3", "8x8 reduced density matrix dump"),
        ("werner", "invariant coordinates of the state"),
    ):
        p = sub.add_parser(name, help=text, parents=[common])
        p.add_argument("--dim", choices=["2d", "3d"], default="3d")
        for d in ("--d12", "--d13", "--d23"):
            p.add_argument(d, type=float, required=True)
        p.add_argument("--limit", action="store_true", help="use the vanishing-size limit")

    p = sub.add_parser(
        "witness-scan", help="extremal grid scan of GHZ/W witnesses", parents=[common]
    )
    p.add_argument("--detail", action="store_true", help="include per-family minima")

    p = sub.add_parser(
        "er", help="robustness lower bound for a named geometry", parents=[common],
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--geometry", choices=list(_ER_FLAGS), required=True)
    p.add_argument("--dim", choices=["2d", "3d"], default="3d")
    p.add_argument("--kfr", type=float, help="0 (the default) selects the limit mode")
    for name in ("x-over-r", "y-over-r", "theta", "q-over-r", "d12", "d13", "d23"):
        p.add_argument(f"--{name}", type=float)
    p.add_argument("--limit", action="store_true")

    p = sub.add_parser("gte-distance", help="GTE distance threshold", parents=[common])
    p.add_argument("--dim", choices=["2d", "3d"], required=True)
    p.add_argument("--method", choices=["witness", "polygon"], required=True)
    p.add_argument(
        "--tol",
        type=float,
        help=f"bisection tolerance (default {scan.DEFAULT_TOL:g} for witness, "
        f"{bisep.DEFAULT_TOL:g} for polygon)",
    )
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"))

    p = sub.add_parser(
        "sweep", help="figure-style parameter sweep (CSV)", parents=[common]
    )
    p.add_argument("--figure", choices=["1a", "1b", "2", "3"], required=True)
    p.add_argument("--dim", choices=["2d", "3d"], help="figures 1a, 1b and 2 (default 3d)")
    p.add_argument(
        "--points", type=int, default=201,
        help=f"grid points per axis, 2 to {MAX_POINTS}; figure 2 takes max(2, N // 2) angles",
    )

    p = sub.add_parser(
        "polygon",
        help="vertices of the exact biseparability hull, the six lens corners "
        "(CSV); exits 2 where the corners overlap",
        parents=[common],
    )
    p.add_argument("--rplus", type=float, required=True)
    p.add_argument("--r3", type=float, default=0.0)

    return parser


def _limit_safe(grid: list[float]) -> list[float]:
    return [min(max(x, _LIMIT_INSET), 1.0 - _LIMIT_INSET) for x in grid]


def _csv(header, rows) -> str:
    buf = io.StringIO()
    scan.write_csv(header, rows, buf)
    return buf.getvalue()


def _run_sweep(args: argparse.Namespace) -> str:
    if args.figure == "3" and args.dim is not None:
        raise DomainError("--figure 3 covers both dims and takes no --dim")
    dim = Dimensionality(args.dim or "3d")
    n = args.points
    if not 2 <= n <= MAX_POINTS:
        raise DomainError(f"--points must lie in [2, {MAX_POINTS}], got {n}")
    if args.figure == "1a":
        grid = np.linspace(0.0, 1.0, n).tolist()
        # only the limit row (_FIG_KFR[0] = 0) takes the inset grid
        shape = geometry.collinear_shape
        limit = scan._grid_table(dim, _FIG_KFR[:1], _limit_safe(grid), shape)
        rows = [*zip(*limit), *zip(*scan._grid_table(dim, _FIG_KFR[1:], grid, shape))]
    elif args.figure == "1b":
        grid = np.linspace(0.0, 1.0, n).tolist()
        rows = zip(*scan._grid_table(dim, _FIG_KFR, grid, geometry.isosceles_shape))
    elif args.figure == "2":
        thetas = np.linspace(0.0, math.pi / 2.0, max(2, n // 2)).tolist()
        rows = zip(*scan._polar_table(dim, _FIG2_KFR, thetas))
    else:
        grid = [0.0] + np.linspace(0.015, 3.0, n).tolist()
        rows = zip(*scan._distance_table([Dimensionality.TWO_D, Dimensionality.THREE_D], grid))
    return _csv(_HEADERS[args.figure], rows)


def dispatch(args: argparse.Namespace) -> str:
    cmd = args.command
    if cmd == "f":
        return _scalar("f_factor", args.dim, f_factor(Dimensionality(args.dim), args.x), None)
    if cmd in ("couplings", "rho3", "werner", "er"):
        c, dim = _state(args)
        if cmd == "couplings":
            violations = couplings.validate(c)
            return _json({"quantity": "couplings", "dim": dim, **asdict(c), "violations": violations})
        if cmd == "rho3":
            return tristate.matrix_to_text(tristate.rho3(c))
        if cmd == "werner":
            w = tristate.werner_coords(c)
            return _json({"quantity": "werner_coords", "dim": dim, **asdict(w)})
        return _scalar("er_lower_bound", dim, witnesses.er_lower_bound(c), None)
    if cmd == "witness-scan":
        report = asdict(witnesses.grid_scan_ghz_w())
        if not args.detail:
            del report["per_family"]
        return _json(report)
    if cmd == "gte-distance":
        dim = Dimensionality(args.dim)
        bracket = tuple(args.bracket) if args.bracket else None
        if args.method == "witness":
            tol = scan.DEFAULT_TOL if args.tol is None else args.tol
            value = scan.find_rmin(dim, tol=tol, prescan_range=bracket)
            return _scalar("gte_distance_lower_bound", args.dim, value, tol)
        tol = bisep.DEFAULT_TOL if args.tol is None else args.tol
        value = bisep.r_max_solver(dim, bracket=bracket, tol=tol)
        return _scalar("gte_distance_upper_bound", args.dim, value, tol)
    if cmd == "sweep":
        return _run_sweep(args)
    if cmd == "polygon":
        return _csv(("r1", "r2"), bisep.corner_hexagon(args.rplus, args.r3))
    raise DomainError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(dispatch(args), args.out)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
