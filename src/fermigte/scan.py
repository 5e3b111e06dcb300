"""Parameter sweeps and threshold solvers for witnessed GTE.

Sweeps tabulate the robustness lower bound along the standard
configuration families, each given by its unit-separation shape in
:mod:`geometry`; a separation value of 0 selects the exact vanishing-size
limit (shape-only couplings), with the same checks as any finite
separation.  Sweeps run on numpy arrays, through the array forms of the
scalar point chain shape -> weights -> bound, which keep its operation
order, and never raise mid-table: the array path marks the points that a
scalar check rejects, an invalid kfr or grid value included, and the
sweep raises the error that the scalar chain raises at the first failing
point.  The collinear and isosceles tables are one array evaluation each
(the distance table one per dimension), with each grid value's shape
from its scalar shape function, so every cell is the scalar chain's, bit
for bit, wherever numpy's sin, cos and sqrt round as math's.

Every threshold (r_min, q*(theta), and r_max in :mod:`bisep`) is one
bracket-then-bisect solve: a pre-scan finds the first grid step where a
predicate stops holding, which keeps the oscillating kernel tails' later
crossings out of play, and a bisection narrows that step to the
tolerance.  r_min and r_max are single solves through
:func:`first_switch` and :func:`bisect_switch`; the r_min pre-scan stops
at the first switch, while r_max evaluates its whole pre-scan, because
it also checks that there is no second switch.

The polar table solves all its q* rows in lock step, each reading the
same points as its own solve would: pre-scan grid point j is evaluated
on every row whose flags are all True so far, and the switched rows are
bisected together, each on its own one-step bracket.  Every row is read
at its first point, q = 0, and a row with an invalid kfr or theta fails
there.  :func:`_polar_gte` takes its distances from
:func:`polar_shape`'s formula on np.hypot, which may differ from
math.hypot in the last bit; the table depends only on the signs of the
bound.  The sweep raises once, at its end, the error of the first
failing row's own solve.

Every table has one flat row type (:data:`CollinearRow`,
:data:`IsoscelesRow`, :data:`DistanceRow`, :class:`PolarBoundaryRow`),
whose ``_fields`` are the table's CSV header, so an empty sweep still has
a header; :func:`write_csv` formats a whole table body in one
%-operation.
"""

from __future__ import annotations

import logging
import math
from itertools import chain, pairwise, repeat
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from . import couplings as cpl
from . import geometry
from .errors import BracketError, ConvergenceFailure, DomainError
from .specfun import X_MAX, Dimensionality
from .witnesses import GTE_THRESHOLD, _er_parts

DEFAULT_TOL = 1e-6  # final bracket width of r_min (1/k_F) and q* (units of r)
RMIN_RANGE = (0.1, 4.0)
RMIN_PRESCAN_STEP = 0.05
POLAR_PRESCAN_POINTS = 33
MAX_BISECTIONS = 200  # the step limit of bisect_switch

_log = logging.getLogger(__name__)


# the row types of the sweep tables: the point's variables, then its bound and weights
_BOUND_COLUMNS = [(c, float) for c in ("er_lower_bound", "witness_value", "p12", "p13", "p23")]
CollinearRow = NamedTuple("CollinearRow", [("kfr", float), ("x_over_r", float), *_BOUND_COLUMNS])
IsoscelesRow = NamedTuple("IsoscelesRow", [("kfr", float), ("y_over_r", float), *_BOUND_COLUMNS])
DistanceRow = NamedTuple("DistanceRow", [("dim", str), ("kfr", float), *_BOUND_COLUMNS])


class PolarBoundaryRow(NamedTuple):
    """Witnessed-GTE boundary radius q* at one (kfr, theta)."""

    kfr: float
    theta: float
    q_star: float


def check_tol(tol: float) -> None:
    """DomainError unless 0 < tol < inf (a solver's final bracket width)."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")


def first_switch(flags: Iterable[bool]) -> int | None:
    """Index i of the first flags[i] and not flags[i + 1], or None; reads flags up to i + 1."""
    return next((i for i, (a, b) in enumerate(pairwise(flags)) if a and not b), None)


def _log_bisection(bracket: tuple[float, float], steps: int, width: float) -> None:
    _log.debug("bisect_switch bracket=%r steps=%d width=%r", bracket, steps, width)


def bisect_switch(before: Callable[[float], bool], a: float, b: float, tol: float) -> float:
    """Midpoint of [a, b], bisected to width tol keeping before(a) True and
    before(b) False; ConvergenceFailure if MAX_BISECTIONS steps do not get there.

    Logs one DEBUG record per solve: the bracket, the number of steps (one
    call of before each) and the final width."""
    bracket = (a, b)
    for steps in range(MAX_BISECTIONS):
        if b - a <= tol:
            _log_bisection(bracket, steps, b - a)
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        if before(mid):
            a = mid
        else:
            b = mid
    raise ConvergenceFailure("bisection failed to reach tolerance")


def _or_nan(rule: Callable[[float], tuple], value: float, size: int) -> tuple:
    """rule(value), or size NaNs where rule raises DomainError: a point
    that :func:`cpl._weights_array` rejects."""
    try:
        return rule(value)
    except DomainError:
        return (math.nan,) * size


def _sweep_columns(
    dim: Dimensionality,
    kfr_values: Sequence[float],
    grid: Sequence[float],
    shape_of: Callable[[float], geometry.Shape],
) -> list[list[float]]:
    """The columns er_lower_bound, witness_value, p12, p13, p23 over the
    points (kfr, grid value), kfr-major.  A point fails where shape_of
    rejects its grid value or the weights' checks reject it, kfr's included."""
    shapes = [_or_nan(shape_of, v, 3) for v in grid]
    n, m = len(shapes), len(kfr_values)
    s12, s13, s23 = np.tile(np.reshape(np.array(shapes, dtype=float), (-1, 3)), (m, 1)).T
    kfr = np.repeat(np.array(kfr_values, dtype=float), n)
    p12, p13, p23, ok = cpl._weights_array(dim, kfr, s12, s13, s23)
    if not ok.all():
        first = int(np.argmin(ok))
        k, v = kfr_values[first // n], grid[first % n]
        cpl.from_shape(shape_of(v), k, dim)  # raises its error
    return [c.tolist() for c in (*_er_parts(p12, p13, p23, np.maximum), p12, p13, p23)]


def _grid_sweep(row, dim, kfr_values, grid, shape_of) -> list:
    columns = _sweep_columns(dim, kfr_values, grid, shape_of)
    kfr = [k for k in kfr_values for _ in grid]
    return list(map(row._make, zip(kfr, list(grid) * len(kfr_values), *columns)))


def sweep_collinear(
    dim: Dimensionality,
    kfr_values: Sequence[float],
    x_over_r_grid: Sequence[float],
) -> list[CollinearRow]:
    return _grid_sweep(CollinearRow, dim, kfr_values, x_over_r_grid, geometry.collinear_shape)


def sweep_isosceles(
    dim: Dimensionality,
    kfr_values: Sequence[float],
    y_over_r_grid: Sequence[float],
) -> list[IsoscelesRow]:
    return _grid_sweep(IsoscelesRow, dim, kfr_values, y_over_r_grid, geometry.isosceles_shape)


def _polar_gte(
    dim: Dimensionality, kfr: np.ndarray, cos: np.ndarray, sin: np.ndarray, q: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Witnessed GTE at radius q (one for all rows, or one per row) on the
    polar rows (kfr, theta) with theta's direction (cos, sin), and the mask
    of the points that a check of the scalar chain rejects (where the GTE
    flag means nothing).

    The point chain shape -> weights -> bound runs on arrays in the scalar
    chain's operation order, and nothing raises: an invalid kfr, or an
    invalid theta's direction (NaN, NaN), is rejected at every q.  The
    coincident pair (theta = 0, q = 1/2) has the weights (0, 0, ~1) at
    every kfr, whose best witness value 3 stays below 1 + sqrt(5).
    """
    s12, s23 = geometry._polar_distances(q, cos, sin, np)
    p12, p13, p23, ok = cpl._weights_array(dim, kfr, s12, 1.0, s23)
    return _er_parts(p12, p13, p23, np.maximum)[0] > 0.0, ~ok


def sweep_polar_boundary(
    dim: Dimensionality,
    kfr_values: Sequence[float],
    theta_grid: Sequence[float],
) -> list[PolarBoundaryRow]:
    """Boundary radius q*(theta) separating witnessed GTE (q < q*) from none.

    Rows where GTE holds on the whole radius report q* = 1/2 and rows
    where it holds nowhere report q* = 0, keeping the table rectangular;
    any other q* is bisected to a bracket of width DEFAULT_TOL.  Every
    row reads the same points as its own bracket-then-bisect solve
    (:func:`first_switch`, then :func:`bisect_switch`).  An error is the
    one the first failing row raises; a row with an invalid kfr or theta
    fails at its first point, q = 0.

    Logs one DEBUG record per row before the first failing row: kfr,
    theta, the pre-scan's switch index (None when there is none) and the
    number of pre-scan points evaluated (1 when the centre shows no GTE,
    all of them when the whole radius does); each bisected row follows
    with its bisect_switch record.  A failing row that reached its
    bisection logs its pre-scan record.
    """
    qs = np.linspace(0.0, 0.5, POLAR_PRESCAN_POINTS)
    grid = qs.tolist()
    pairs = [(kfr, theta) for kfr in kfr_values for theta in theta_grid]
    n = len(pairs)
    direction = [_or_nan(geometry._polar_direction, t, 2) for t in theta_grid]
    cos, sin = np.tile(np.reshape(direction, (-1, 2)), (len(kfr_values), 1)).T
    kfr = np.repeat(np.asarray(kfr_values, dtype=float), len(theta_grid))
    # NaN while a row is fine, else the q of its first rejected point
    failed_at = np.full(n, math.nan)
    switch, steps = np.full(n, -1), np.zeros(n, dtype=int)

    live = np.arange(n)
    for j, q in enumerate(grid):
        if not live.size:
            break
        gte, bad = _polar_gte(dim, kfr[live], cos[live], sin[live], q)
        failed_at[live[bad]] = q
        if j:
            switch[live[~(gte | bad)]] = j - 1
        live = live[gte & ~bad]
    # live: the rows with GTE on the whole radius

    # each row's bracket [a, b] of q*; (0, 0) where the centre shows no GTE.
    # A 1/64-wide bracket always reaches DEFAULT_TOL in 14 steps.
    a, b = np.zeros(n), np.zeros(n)
    a[live] = b[live] = 0.5
    active = np.flatnonzero(switch >= 0)
    a[active], b[active] = qs[switch[active]], qs[switch[active] + 1]
    while (active := active[b[active] - a[active] > DEFAULT_TOL]).size:
        mid = 0.5 * (a[active] + b[active])
        gte, bad = _polar_gte(dim, kfr[active], cos[active], sin[active], mid)
        failed_at[active[bad]] = mid[bad]
        a[active] = np.where(gte, mid, a[active])
        b[active] = np.where(gte, b[active], mid)
        steps[active] += 1
        active = active[~bad]
    failed = np.flatnonzero(~np.isnan(failed_at))
    first = int(failed[0]) if failed.size else n
    switch, steps, q_star, width = (v.tolist() for v in (switch, steps, 0.5 * (a + b), b - a))

    # the failing row logged its pre-scan if it failed in its bisection
    logged = first + (first < n and switch[first] >= 0)
    if _log.isEnabledFor(logging.DEBUG):
        for k in range(logged):
            i = switch[k]
            read = i + 2 if i >= 0 else 1 if q_star[k] == 0.0 else POLAR_PRESCAN_POINTS
            _log.debug(
                "sweep_polar_boundary row kfr=%r theta=%r switch=%s read=%d",
                *pairs[k], None if i < 0 else i, read,
            )
            if i >= 0 and k < first:
                _log_bisection((grid[i], grid[i + 1]), steps[k], width[k])
    if first < n:
        # the scalar point chain's error at the failing point, on the
        # distances the array path used
        row_kfr, theta = pairs[first]
        row_cos, row_sin = geometry._polar_direction(theta)  # raises for an invalid theta
        s12, s23 = geometry._polar_distances(failed_at[first:first + 1], row_cos, row_sin, np)
        cpl.from_shape((s12.item(), 1.0, s23.item()), row_kfr, dim)  # raises its error
    return [PolarBoundaryRow(kfr, theta, q) for (kfr, theta), q in zip(pairs, q_star)]


def sweep_distance(
    dims: Sequence[Dimensionality],
    kfr_grid: Sequence[float],
) -> list[DistanceRow]:
    """Robustness bound of the symmetric collinear family versus separation."""
    rows = []
    for dim in dims:
        columns = _sweep_columns(dim, kfr_grid, [0.5], geometry.collinear_shape)
        rows += map(DistanceRow._make, zip(repeat(dim.value), kfr_grid, *columns))
    return rows


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
        c = cpl.from_config(geometry.scaled(r, geometry._SYMMETRIC_COLLINEAR, dim))
        return 3.0 * (c.p12 + c.p23) - GTE_THRESHOLD > 0.0

    # the clip undoes arange stepping past hi by a rounding error (the kernels
    # stop at X_MAX); on a range that is not a whole number of steps arange
    # stops short of hi, and hi closes the grid
    grid = np.minimum(np.arange(lo, hi + 0.5 * RMIN_PRESCAN_STEP, RMIN_PRESCAN_STEP), hi)
    if hi - grid[-1] > 1e-9:
        grid = np.append(grid, hi)
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


def write_csv(columns: Sequence[str], rows: Iterable[Sequence[object]], stream: TextIO) -> None:
    """Rectangular CSV with 12-significant-digit numeric cells.

    Each column keeps the type of its first cell: a str column prints its
    text, any other column prints "%.12g".  The body is one %-operation on
    the row template repeated once per row.  A row with more or fewer cells
    than columns, which would shift cells between rows, raises ValueError
    before anything is written."""
    rows = list(rows)
    if set(map(len, rows)) - {len(columns)}:
        raise ValueError(f"every CSV row must have {len(columns)} cells, one per column")
    stream.write(",".join(columns) + "\n")
    if rows:
        template = ",".join("%s" if isinstance(v, str) else "%.12g" for v in rows[0]) + "\n"
        stream.write((template * len(rows)) % tuple(chain.from_iterable(rows)))
