"""Parameter sweeps and threshold solvers for witnessed GTE.

Sweeps tabulate the robustness lower bound along the standard
configuration families, each given by its unit-separation shape in
:mod:`geometry`.  A point is decided by its unit shape: every kfr with
kfr * max(shape) < LIMIT_SWITCH, 0 included, takes the exact
vanishing-size limit of the unit shape itself.  Sweeps run on numpy
arrays, through the array forms of the scalar point chain shape ->
weights -> bound, which keep its operation order.  The collinear and
isosceles tables are one array evaluation each (the distance table one
per dimension), with each grid value's shape from its scalar shape
function, so every cell is the scalar chain's, bit for bit, wherever
numpy's sin, cos and sqrt round as math's; they never raise mid-table:
the array path marks the points that a scalar check rejects, an invalid
kfr or grid value included, and the sweep raises the error that the
scalar chain raises at the first failing point.

Every threshold (r_min, q*(theta), and r_max in :mod:`bisep`) is one
bracket-then-bisect solve: a pre-scan finds the first grid step where a
predicate stops holding, which keeps the oscillating kernel tails' later
crossings out of play, and a bisection narrows that step to the
tolerance.  r_min and r_max are single solves through
:func:`first_switch` and :func:`bisect_switch`; the r_min pre-scan stops
at the first switch, while r_max evaluates its whole pre-scan, because
it also checks that there is no second switch.

The polar table solves all its q* rows in lock step, each finding the
switch and q* of its own solve: each pre-scan call evaluates the next
POLAR_PRESCAN_CHUNK = 4 grid points on every row whose flags are all
True so far, a row's first False ends its switch step (so a row reads
at most three grid points past its switch), and the switched rows are
bisected together, each on its own one-step bracket.  The rows are
checked on the scalar chain before any point is read, each theta and
kfr once: every radius of a valid theta is a valid unit shape, every
centre q = 0 the shape (0.5, 1, 0.5), and d13 = kfr the largest scaled
distance, so a row whose theta's direction and centre pass is valid at
every radius, and a failing table reads no point.  A valid row's branch
and f13 hold at every radius (:func:`_row_constants`), and every point,
the centre included, is :func:`_polar_gte`, the checked chain's GTE flag
from the unit shape's s12 and s23 alone.  They come from
:func:`polar_shape`'s formula on np.hypot, which may differ from
math.hypot in the last bit; the table depends only on the bound's signs.

Every table is columns: two axes laid out kfr-major (dim-major for the
distance table) by :func:`_product_table`, then its values.  The sweeps'
rows (:data:`CollinearRow`, :data:`IsoscelesRow`, :data:`DistanceRow`,
:data:`PolarBoundaryRow`, whose ``_fields`` are the CSV header) are the
library's view of them, with float axes; the CLI prints them with each
axis value's "%.12g" text made once, which :func:`write_csv` prints as it
prints any str cell, a whole table body in one %-operation.
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
from .specfun import X_MAX, Dimensionality, _f_array
from .witnesses import GTE_THRESHOLD, _er_parts

DEFAULT_TOL = 1e-6  # final bracket width of r_min (1/k_F) and q* (units of r)
RMIN_RANGE = (0.1, 4.0)
RMIN_PRESCAN_STEP = 0.05
POLAR_PRESCAN_POINTS = 33
POLAR_PRESCAN_CHUNK = 4  # grid radii per row in each lock-step pre-scan call

_log = logging.getLogger(__name__)


# the row types of the sweep tables: the point's variables, then its bound and
# weights, or the witnessed-GTE boundary radius q* at (kfr, theta)
_BOUND_COLUMNS = [(c, float) for c in ("er_lower_bound", "witness_value", "p12", "p13", "p23")]
CollinearRow = NamedTuple("CollinearRow", [("kfr", float), ("x_over_r", float), *_BOUND_COLUMNS])
IsoscelesRow = NamedTuple("IsoscelesRow", [("kfr", float), ("y_over_r", float), *_BOUND_COLUMNS])
DistanceRow = NamedTuple("DistanceRow", [("dim", str), ("kfr", float), *_BOUND_COLUMNS])
PolarBoundaryRow = NamedTuple("PolarBoundaryRow", [(c, float) for c in ("kfr", "theta", "q_star")])


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
    before(b) False; ConvergenceFailure when no float splits the bracket.

    Logs one DEBUG record per solve: the bracket, the number of steps (one
    call of before each) and the final width."""
    bracket, steps = (a, b), 0
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            raise ConvergenceFailure(f"tol={tol!r} is below the float spacing of [{a!r}, {b!r}]")
        if before(mid):
            a = mid
        else:
            b = mid
        steps += 1
    _log_bisection(bracket, steps, b - a)
    return 0.5 * (a + b)


def _or_nan(rule: Callable[[float], tuple], value: float, size: int) -> tuple:
    """rule(value), or size NaNs where rule raises DomainError: a point
    that :func:`cpl._weights_array` rejects."""
    try:
        return rule(value)
    except DomainError:
        return (math.nan,) * size


def _bound_columns(dim, kfr_values, grid, shape_of) -> list[list[float]]:
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


def _product_table(outer: Sequence, inner: Sequence, values: Iterable[list]) -> list[list]:
    """The columns of the table over (outer, inner), outer-major: each outer cell
    once per inner cell, the inner axis once per outer cell, then the values."""
    return [[v for v in outer for _ in inner], list(inner) * len(outer), *values]


def _rows(row: type, columns: list[list]) -> list:
    """The table's rows as the NamedTuple type row, each made at C level by tuple.__new__."""
    return list(map(tuple.__new__, repeat(row), zip(*columns)))


def _grid_table(dim, kfr_values, grid, shape_of, axis: Callable = list) -> list[list]:
    """The columns of a kfr-major grid sweep: axis(kfr_values) and axis(grid)
    laid out by :func:`_product_table`, then :func:`_bound_columns`."""
    return _product_table(axis(kfr_values), axis(grid), _bound_columns(dim, kfr_values, grid, shape_of))


def sweep_collinear(
    dim: Dimensionality, kfr_values: Sequence[float], x_over_r_grid: Sequence[float]
) -> list[CollinearRow]:
    return _rows(CollinearRow, _grid_table(dim, kfr_values, x_over_r_grid, geometry.collinear_shape))


def sweep_isosceles(
    dim: Dimensionality, kfr_values: Sequence[float], y_over_r_grid: Sequence[float]
) -> list[IsoscelesRow]:
    return _rows(IsoscelesRow, _grid_table(dim, kfr_values, y_over_r_grid, geometry.isosceles_shape))


def _row_constants(dim: Dimensionality, kfr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The branch (the unit-shape limit below LIMIT_SWITCH) and f13 of valid
    polar rows: d13 = kfr is the largest distance at every radius."""
    return kfr < cpl.LIMIT_SWITCH, _f_array(dim, kfr)


def _polar_gte(
    dim: Dimensionality, kfr: np.ndarray, cos: np.ndarray, sin: np.ndarray, q: float | np.ndarray,
    limit: np.ndarray, f13: np.ndarray,
) -> np.ndarray:
    """Witnessed GTE at radius q (one for all points, or one per point) on
    valid polar rows (kfr, theta) with theta's direction (cos, sin), given
    their :func:`_row_constants`: the checked chain's flag, bit for bit,
    with its formulas on the unit shape's s12, s13 = 1 and s23 alone (limit
    rows) or on those scaled by kfr (kernel rows), since no point of a valid
    row is rejected.  The coincident pair (theta = 0, q = 1/2) has the weights
    (0, 0, ~1) at every kfr, whose best witness value 3 stays below
    1 + sqrt(5)."""
    s12, s23 = geometry._polar_distances(q, cos, sin, np)
    p12, p13, p23 = np.empty((3, kfr.size))
    i = np.flatnonzero(limit)
    if i.size:
        p12[i], p13[i], p23[i] = cpl._limit_formula(s12[i], 1.0, s23[i], 1.0, np)
    i = np.flatnonzero(~limit)
    if i.size:
        f12, f23 = _f_array(dim, (kfr[i] * np.array((s12[i], s23[i]))).ravel()).reshape(2, -1)
        _, p12[i], p13[i], p23[i] = cpl._kernel_formula(f12, f13[i], f23)
    return _er_parts(p12, p13, p23, np.maximum)[0] > 0.0


def _polar_table(dim, kfr_values, theta_grid, axis: Callable = list) -> list[list]:
    """The columns of :func:`sweep_polar_boundary`, solved and logged as it says:
    axis(kfr_values) and axis(theta_grid) by :func:`_product_table`, then q*."""
    qs = np.linspace(0.0, 0.5, POLAR_PRESCAN_POINTS)
    grid, m = qs.tolist(), len(theta_grid)
    n = len(kfr_values) * m
    direction = []
    if n:
        # a row is valid iff its theta's direction and its centre (0.5, 1, 0.5)
        # pass; the first checks in kfr-major row order are theta_0, kfr_0, the
        # other thetas, then the other kfrs, so the first invalid row raises
        direction.append(geometry._polar_direction(theta_grid[0]))
        cpl.from_shape(geometry._SYMMETRIC_COLLINEAR, kfr_values[0], dim)
        direction += map(geometry._polar_direction, theta_grid[1:])
        for row_kfr in kfr_values[1:]:
            cpl.from_shape(geometry._SYMMETRIC_COLLINEAR, row_kfr, dim)
    cos, sin = np.tile(np.reshape(direction, (-1, 2)), (len(kfr_values), 1)).T
    kfr = np.repeat(np.asarray(kfr_values, dtype=float), m)
    switch, steps = np.full(n, -1), np.zeros(n, dtype=int)
    limit, f13 = _row_constants(dim, kfr)

    def row_gte(rows: np.ndarray, q: float | np.ndarray) -> np.ndarray:
        return _polar_gte(dim, kfr[rows], cos[rows], sin[rows], q, limit[rows], f13[rows])

    live = np.flatnonzero(row_gte(np.arange(n), 0.0))
    for j in range(1, POLAR_PRESCAN_POINTS, POLAR_PRESCAN_CHUNK):
        if not live.size:
            break
        chunk = qs[j : j + POLAR_PRESCAN_CHUNK]
        rows, q = np.repeat(live, chunk.size), np.tile(chunk, live.size)
        gte = row_gte(rows, q).reshape(-1, chunk.size)
        held = gte.all(axis=1)
        # the first False in a switched row's chunk ends its switch step
        switch[live[~held]] = j - 1 + np.argmin(gte[~held], axis=1)
        live = live[held]
    # live: the rows with GTE on the whole radius

    # each row's bracket [a, b] of q*; (0, 0) where the centre shows no GTE.
    # A 1/64-wide bracket always reaches DEFAULT_TOL in 14 steps.
    a, b = np.zeros(n), np.zeros(n)
    a[live] = b[live] = 0.5
    active = np.flatnonzero(switch >= 0)
    a[active], b[active] = qs[switch[active]], qs[switch[active] + 1]
    while (active := active[b[active] - a[active] > DEFAULT_TOL]).size:
        mid = 0.5 * (a[active] + b[active])
        gte = row_gte(active, mid)
        a[active] = np.where(gte, mid, a[active])
        b[active] = np.where(gte, b[active], mid)
        steps[active] += 1
    switch, steps, q_star, width = (v.tolist() for v in (switch, steps, 0.5 * (a + b), b - a))

    if _log.isEnabledFor(logging.DEBUG):
        for k, i in enumerate(switch):
            read = i + 2 if i >= 0 else 1 if q_star[k] == 0.0 else POLAR_PRESCAN_POINTS
            _log.debug(
                "sweep_polar_boundary row kfr=%r theta=%r switch=%s read=%d",
                kfr_values[k // m], theta_grid[k % m], None if i < 0 else i, read,
            )
            if i >= 0:
                _log_bisection((grid[i], grid[i + 1]), steps[k], width[k])
    return _product_table(axis(kfr_values), axis(theta_grid), [q_star])


def sweep_polar_boundary(
    dim: Dimensionality, kfr_values: Sequence[float], theta_grid: Sequence[float]
) -> list[PolarBoundaryRow]:
    """Boundary radius q*(theta) separating witnessed GTE (q < q*) from none.

    Rows where GTE holds on the whole radius report q* = 1/2 and rows
    where it holds nowhere report q* = 0, keeping the table rectangular;
    any other q* is bisected to a bracket of width DEFAULT_TOL.  Every
    row finds the switch and q* of its own bracket-then-bisect solve
    (:func:`first_switch`, then :func:`bisect_switch`); its pre-scan reads
    POLAR_PRESCAN_CHUNK = 4 grid points per call, up to the end of the
    chunk that holds its switch.  A table with an invalid kfr or theta
    raises its first invalid row's scalar error (rows in kfr-major order)
    and reads no point.

    Logs one DEBUG record per row: kfr, theta, the pre-scan's switch
    index (None when there is none) and the number of pre-scan points
    that the row's own solve reads (1 when the centre shows no GTE, all of
    them when the whole radius does; the chunk's points past the switch
    are not counted); each bisected row follows with its bisect_switch record.
    """
    return _rows(PolarBoundaryRow, _polar_table(dim, kfr_values, theta_grid))


def _distance_table(dims, kfr_grid, axis: Callable = list) -> list[list]:
    """The columns of :func:`sweep_distance`: each dim's name and axis(kfr_grid)
    laid out by :func:`_product_table`, then each dim's bound columns in turn."""
    values = [_bound_columns(dim, kfr_grid, [0.5], geometry.collinear_shape) for dim in dims]
    values = [list(chain.from_iterable(c)) for c in zip(*values)]
    return _product_table([dim.value for dim in dims], axis(kfr_grid), values)


def sweep_distance(dims: Sequence[Dimensionality], kfr_grid: Sequence[float]) -> list[DistanceRow]:
    """Robustness bound of the symmetric collinear family versus separation."""
    return _rows(DistanceRow, _distance_table(dims, kfr_grid))


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
