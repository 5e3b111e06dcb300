"""Parameter sweeps and threshold solvers for witnessed GTE.

Sweeps tabulate the robustness lower bound along the standard
configuration families, each given by its unit-separation shape in
:mod:`geometry`.  Every sweep point goes through the float core of
:func:`couplings.from_shape`, so a separation value of 0 selects the
exact vanishing-size limit (shape-only couplings) instead of a
small-distance proxy, with the same checks as any finite separation; the
point runs from shape to weights to bound on bare floats and builds no
configuration or coupling object.  Every figure shape puts fermions 1
and 3 at unit separation, so d13 = kfr * 1.0 == kfr exactly, and each
collinear, isosceles or polar row at one kfr evaluates the kernel f(kfr)
once.  Sweeps run serially, because the work holds the interpreter
lock.  Every threshold (r_min, q*(theta), and r_max in :mod:`bisep`)
is one bracket-then-bisect solve: :func:`first_switch` finds the first
pre-scan grid step where a predicate stops holding, which keeps the
oscillating kernel tails' later crossings out of play, and
:func:`bisect_switch` narrows that step to the tolerance.  The r_min and
q* pre-scans hand :func:`first_switch` a generator, so they stop
evaluating at the first switch (the q grid is built once per sweep and
shared by its rows); r_max evaluates its whole pre-scan, because it also
checks that there is no second switch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain, pairwise
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from . import couplings as cpl
from . import geometry
from .errors import BracketError, ConvergenceFailure, DomainError
from .specfun import X_MAX, Dimensionality, f_factor
from .witnesses import GTE_THRESHOLD, _er_bound

SWEEP_COLUMNS = ("er_lower_bound", "witness_value", "p12", "p13", "p23")

DEFAULT_TOL = 1e-6  # final bracket width of r_min (1/k_F) and q* (units of r)
RMIN_RANGE = (0.1, 4.0)
RMIN_PRESCAN_STEP = 0.05
POLAR_PRESCAN_POINTS = 33

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: named independent variables plus derived values."""

    indep: tuple[tuple[str, object], ...]
    er: float
    witness_value: float
    p12: float
    p13: float
    p23: float


@dataclass(frozen=True)
class PolarBoundaryRow:
    """Witnessed-GTE boundary radius q* at one (kfr, theta)."""

    kfr: float
    theta: float
    q_star: float


def check_tol(tol: float, name: str = "tol") -> None:
    """DomainError unless 0 < tol < inf (a solver's final bracket width)."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {tol}")


def first_switch(flags: Iterable[bool]) -> int | None:
    """Index i of the first flags[i] and not flags[i + 1], or None; reads flags up to i + 1."""
    return next((i for i, (a, b) in enumerate(pairwise(flags)) if a and not b), None)


def bisect_switch(before: Callable[[float], bool], a: float, b: float, tol: float) -> float:
    """Midpoint of [a, b], bisected to width tol keeping before(a) True and
    before(b) False; ConvergenceFailure if 200 steps do not get there.

    Logs one DEBUG record per solve: the bracket, the number of steps (one
    call of before each) and the final width."""
    bracket = (a, b)
    for steps in range(200):
        if b - a <= tol:
            _log.debug("bisect_switch bracket=%r steps=%d width=%r", bracket, steps, b - a)
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        if before(mid):
            a = mid
        else:
            b = mid
    raise ConvergenceFailure("bisection failed to reach tolerance")


def _row(indep: tuple[tuple[str, object], ...], w: cpl.Weights) -> SweepRow:
    p12, p13, p23 = w
    return SweepRow(
        indep=indep,
        er=_er_bound(p12, p13, p23),
        witness_value=3.0 * max(p12 + p13, p12 + p23, p13 + p23),
        p12=p12,
        p13=p13,
        p23=p23,
    )


def _unit_kernel(dim: Dimensionality, kfr: float) -> float | None:
    """f(kfr): the kernel at the 1-3 distance of every figure shape, which
    sits at unit separation, so that d13 = kfr * 1.0 == kfr exactly.  None
    where f_factor would raise, leaving the error to the point that meets it."""
    return f_factor(dim, kfr) if 0.0 <= kfr <= X_MAX else None


def _shape_sweep(
    dim: Dimensionality,
    kfr_values: Sequence[float],
    grid: Sequence[float],
    name: str,
    shape_of: Callable[[float], geometry.Shape],
) -> list[SweepRow]:
    rows = []
    for kfr in kfr_values:
        f13 = _unit_kernel(dim, kfr)
        rows += [
            _row((("kfr", kfr), (name, v)), cpl._shape_weights(shape_of(v), kfr, dim, f13))
            for v in grid
        ]
    return rows


def sweep_collinear(
    dim: Dimensionality,
    kfr_values: Sequence[float],
    x_over_r_grid: Sequence[float],
) -> list[SweepRow]:
    return _shape_sweep(dim, kfr_values, x_over_r_grid, "x_over_r", geometry.collinear_shape)


def sweep_isosceles(
    dim: Dimensionality,
    kfr_values: Sequence[float],
    y_over_r_grid: Sequence[float],
) -> list[SweepRow]:
    return _shape_sweep(dim, kfr_values, y_over_r_grid, "y_over_r", geometry.isosceles_shape)


def _polar_row(dim: Dimensionality, kfr: float, theta: float) -> Callable[[float], bool]:
    """The q* predicate of one polar row: witnessed GTE at radius q.

    The row's direction (cos, sin of theta) and f(kfr) are evaluated once,
    here; each q costs the shape, two kernels, the weights and the bound."""
    direction = geometry._polar_direction(theta)
    f13 = _unit_kernel(dim, kfr)

    def gte(q: float) -> bool:
        shape = geometry._polar_at(direction, q)
        if min(shape) == 0.0:
            # Coincident pair (theta = 0, q = 1/2): the weights are (0, 0, 1)
            # at every kfr, whose best witness value 3 stays below 1 + sqrt(5).
            return False
        return _er_bound(*cpl._shape_weights(shape, kfr, dim, f13)) > 0.0

    return gte


def sweep_polar_boundary(
    dim: Dimensionality,
    kfr_values: Sequence[float],
    theta_grid: Sequence[float],
    q_tol: float = DEFAULT_TOL,
) -> list[PolarBoundaryRow]:
    """Boundary radius q*(theta) separating witnessed GTE (q < q*) from none.

    Rows where GTE holds on the whole radius report q* = 1/2 and rows
    where it holds nowhere report q* = 0, keeping the table rectangular.

    Logs one DEBUG record per row: kfr, theta, the pre-scan's switch index
    (None when there is none) and the number of pre-scan points evaluated
    (1 when the centre shows no GTE, all of them when the whole radius does).
    """
    check_tol(q_tol, "q_tol")
    qs = np.linspace(0.0, 0.5, POLAR_PRESCAN_POINTS).tolist()

    def q_star(kfr: float, theta: float) -> float:
        gte = _polar_row(dim, kfr, theta)
        centre = gte(qs[0])
        i = first_switch(chain([True], (gte(q) for q in qs[1:]))) if centre else None
        read = 1 if not centre else len(qs) if i is None else i + 2
        _log.debug(
            "sweep_polar_boundary row kfr=%r theta=%r switch=%s read=%d", kfr, theta, i, read
        )
        if i is not None:
            return bisect_switch(gte, qs[i], qs[i + 1], q_tol)
        return 0.5 if centre else 0.0

    rows = [(kfr, theta) for kfr in kfr_values for theta in theta_grid]
    return [PolarBoundaryRow(kfr, theta, q_star(kfr, theta)) for kfr, theta in rows]


def sweep_distance(
    dims: Sequence[Dimensionality],
    kfr_grid: Sequence[float],
) -> list[SweepRow]:
    """Robustness bound of the symmetric collinear family versus separation."""
    shape = geometry.collinear_shape(0.5)
    return [
        _row((("dim", dim.value), ("kfr", kfr)), cpl._shape_weights(shape, kfr, dim))
        for dim in dims
        for kfr in kfr_grid
    ]


def find_rmin(
    dim: Dimensionality,
    tol: float = DEFAULT_TOL,
    prescan_range: tuple[float, float] | None = None,
) -> float:
    """Separation where the energy witness stops certifying GTE.

    For the symmetric collinear family, locates the first sign change of
    3*(p12 + p23) - (1 + sqrt(5)) on a pre-scan grid and bisects it; the
    pre-scan keeps later, oscillation-induced crossings out of play.  The
    pre-scan range (RMIN_RANGE by default) must be increasing and inside
    the kernels' domain (0, X_MAX].

    Logs one DEBUG record per solve: the pre-scan's switch index (None
    when there is none) and the number of pre-scan points evaluated.
    """
    check_tol(tol)
    lo, hi = prescan_range if prescan_range is not None else RMIN_RANGE
    if not 0.0 < lo < hi <= X_MAX:
        raise DomainError(
            f"prescan range must be increasing within (0, {X_MAX}], got ({lo}, {hi})"
        )

    def certified(r: float) -> bool:
        c = cpl.from_config(geometry.collinear(r, 0.5, dim))
        return 3.0 * (c.p12 + c.p23) - GTE_THRESHOLD > 0.0

    # arange can step past hi by a rounding error; the kernels stop at X_MAX
    grid = np.minimum(np.arange(lo, hi + 0.5 * RMIN_PRESCAN_STEP, RMIN_PRESCAN_STEP), hi)
    i = first_switch(certified(float(r)) for r in grid)
    _log.debug("find_rmin prescan switch=%s read=%d", i, len(grid) if i is None else i + 2)
    if i is None:
        raise BracketError(f"no sign change of the witness margin on [{lo}, {hi}]")
    return bisect_switch(certified, float(grid[i]), float(grid[i + 1]), tol)


def analytic_limit_thresholds() -> dict[str, float]:
    """Closed-form GTE thresholds of the vanishing-size limit curves.

    The limit witness value 3/(1 - u + u**2) crosses 1 + sqrt(5) at
    u = (1 -+ sqrt(3*(sqrt(5) - 2)))/2 on the collinear family, and the
    isosceles/polar boundary sits at y = sqrt(3*(sqrt(5) - 2))/2; the two
    values sum to 1/2.
    """
    y = math.sqrt(3.0 * (math.sqrt(5.0) - 2.0)) / 2.0
    return {"x_over_r": 0.5 - y, "y_over_r": y}


def _format_cell(value: object) -> str:
    if isinstance(value, str):
        return value
    return f"{value:.12g}"


def write_csv(columns: Sequence[str], rows: Iterable[Sequence[object]], stream: TextIO) -> None:
    """Rectangular CSV with 12-significant-digit numeric cells."""
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_format_cell(v) for v in row) + "\n")


def sweep_table(rows: Sequence[SweepRow]) -> tuple[list[str], list[list[object]]]:
    columns = [name for name, _ in rows[0].indep] + list(SWEEP_COLUMNS)
    data = [
        [v for _, v in r.indep] + [r.er, r.witness_value, r.p12, r.p13, r.p23]
        for r in rows
    ]
    return columns, data


def polar_table(rows: Sequence[PolarBoundaryRow]) -> tuple[list[str], list[list[object]]]:
    return ["kfr", "theta", "q_star"], [[r.kfr, r.theta, r.q_star] for r in rows]
