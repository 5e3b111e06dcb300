"""Parameter sweeps and threshold solvers for witnessed GTE.

Every figure table is columns: two axes laid out kfr-major (dim-major for
the distance table) by :func:`_product_table`, then its values.  Every
table point is a unit shape (s12, 1, s23) at a separation kfr, and
f(kfr) is computed once per kfr: the collinear, isosceles and distance
tables take each grid value's shape from its :mod:`geometry` shape
function, and the polar table each radius's from polar_shape's formula
on np.hypot (which may differ from math.hypot in the last bit; that
table depends only on the bound's signs).  One array evaluator,
:func:`cpl._unit_weights`, gives every point's weights, so every cell is
the scalar chain's (from_shape, then the bound), bit for bit, wherever
numpy's sin, cos and sqrt round as math's.  The tables check nothing:
every point of the CLI's figure grids is one that from_shape accepts.

Every threshold (r_min, q*(theta), and r_max in :mod:`bisep`) is one
bracket-then-bisect solve: a pre-scan finds the first grid step where a
predicate stops holding, which keeps the oscillating kernel tails' later
crossings out of play, and a bisection narrows that step to the
tolerance.  r_min and r_max are single solves through
:func:`first_switch` and :func:`bisect_switch`; the r_min pre-scan stops
at the first switch, while r_max evaluates its whole pre-scan, because
it also checks that there is no second switch.  The polar table solves
all its rows in lock step, each as its own solve would.

``gte-fermi sweep`` is the one way a figure table is made: it prints the
columns of :func:`_grid_table`, :func:`_polar_table` or
:func:`_distance_table`, whose axis values' text :func:`_cells` makes once.
"""

from __future__ import annotations

import logging
import math
from itertools import chain, pairwise
from typing import Callable, Iterable, Sequence, TextIO

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


_BOUND_COLUMNS = ("er_lower_bound", "witness_value", "p12", "p13", "p23")


def _bound_columns(dim, kfr_values, grid, shape_of) -> list[list[float]]:
    """The columns _BOUND_COLUMNS over the points (kfr, grid value),
    kfr-major: each grid value's unit shape from shape_of at every kfr."""
    n, kfr_axis = len(grid), np.array(kfr_values, dtype=float)
    s12, _, s23 = np.tile(np.array([shape_of(v) for v in grid], dtype=float), (kfr_axis.size, 1)).T
    kfr, f13 = np.repeat(kfr_axis, n), np.repeat(_f_array(dim, kfr_axis), n)
    p12, p13, p23 = cpl._unit_weights(dim, kfr, f13, s12, s23)
    return [c.tolist() for c in (*_er_parts(p12, p13, p23, np.maximum), p12, p13, p23)]


def _product_table(outer: Sequence, inner: Sequence, values: Iterable[list]) -> list[list]:
    """The columns of the table over (outer, inner), outer-major: each outer cell
    once per inner cell, the inner axis once per outer cell, then the values."""
    return [[v for v in outer for _ in inner], list(inner) * len(outer), *values]


def _grid_table(dim, kfr_values, grid, shape_of) -> list[list]:
    """Figure 1a's or 1b's columns: the text axes kfr and grid value by
    :func:`_product_table`, then :func:`_bound_columns`."""
    return _product_table(_cells(kfr_values), _cells(grid), _bound_columns(dim, kfr_values, grid, shape_of))


def _polar_table(dim, kfr_values, theta_grid) -> list[list]:
    """Figure 2's columns: the text axes kfr and theta by :func:`_product_table`,
    then the radius q*(theta) separating witnessed GTE (q < q*) from none.

    q* = 1/2 where GTE holds on the whole radius and q* = 0 where it holds
    nowhere, keeping the table rectangular; any other q* is bisected to a
    bracket of width DEFAULT_TOL.  Each row finds the switch and q* of its
    own bracket-then-bisect solve (:func:`first_switch`, then
    :func:`bisect_switch`), all rows in lock step: each pre-scan call reads
    the next POLAR_PRESCAN_CHUNK radii of every row whose flags are all True
    so far, and the switched rows are bisected together, each on its own
    one-step bracket.

    Logs one DEBUG record per row: kfr, theta, the pre-scan's switch index
    (None when there is none) and the number of pre-scan points that the
    row's own solve reads (1 when the centre shows no GTE, all of them when
    the whole radius does; the chunk's points past the switch are not
    counted); each bisected row follows with its bisect_switch record."""
    qs = np.linspace(0.0, 0.5, POLAR_PRESCAN_POINTS)
    grid, m = qs.tolist(), len(theta_grid)
    n, kfr_axis = len(kfr_values) * m, np.array(kfr_values, dtype=float)
    cos, sin = np.tile(np.array([geometry._polar_direction(t) for t in theta_grid]).T, len(kfr_values))
    kfr, f13 = np.repeat(kfr_axis, m), np.repeat(_f_array(dim, kfr_axis), m)
    switch, steps = np.full(n, -1), np.zeros(n, dtype=int)

    def row_gte(rows: np.ndarray, q: float | np.ndarray) -> np.ndarray:
        s12, s23 = geometry._polar_distances(q, cos[rows], sin[rows], np)
        return _er_parts(*cpl._unit_weights(dim, kfr[rows], f13[rows], s12, s23), np.maximum)[0] > 0.0

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
    return _product_table(_cells(kfr_values), _cells(theta_grid), [q_star])


def _distance_table(dims, kfr_grid) -> list[list]:
    """Figure 3's columns, the symmetric collinear family's bound versus
    separation: each dim's name and the text axis kfr by
    :func:`_product_table`, then each dim's bound columns in turn."""
    values = [_bound_columns(dim, kfr_grid, [0.5], geometry.collinear_shape) for dim in dims]
    values = [list(chain.from_iterable(c)) for c in zip(*values)]
    return _product_table([dim.value for dim in dims], _cells(kfr_grid), values)


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


_NUMBER = "%.12g"  # the text of a numeric CSV cell


def _cells(values: Iterable[float]) -> list[str]:
    """Each value's numeric CSV cell, as :func:`write_csv` prints it."""
    return [_NUMBER % v for v in values]


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
        template = ",".join("%s" if isinstance(v, str) else _NUMBER for v in rows[0]) + "\n"
        stream.write((template * len(rows)) % tuple(chain.from_iterable(rows)))
