"""Biseparability geometry of collective-rotation-invariant states.

At a fixed section (r_plus, r3) of the invariant coordinates, every state
satisfying the Eggeling-Werner inequalities

    -1 < r1 - 2*r_plus < 0,
    3*r2**2 + 3*r3**2 + (1 - 3*r_plus)**2 <= (r1 - 2*r_plus)**2

is separable across the 1|23 cut.  These points form a convex lens in the
(r1, r2) plane: a straight side r1 = 2*r_plus - 1 facing away from the
origin and a curved side facing it, meeting at two corners.  The lens is
a strict subset of the 1|23-separable states (the twirled product |000>,
r_plus = 1, r1 = 0, lies outside it), so it certifies separability but
never entanglement.  The 12|3 and 13|2 lenses are the +-2*pi/3 rotations
of that lens about the origin.  Every state inside the convex hull of the
three lenses is a mixture of separable states, hence biseparable, so the
hull gives an honest upper bound on the separation below which the
symmetric collinear configuration is genuinely tripartite entangled.

The six lens corners are lens points, so their hexagon lies inside the
hull on every section and a bound built on it stays honest.  While the
corners keep their hexagon order (half-height below sqrt(3)*(1 - 2*r_plus),
i.e. r_plus < 1/3 at r3 = 0) each curved side leaves its corners on the
inner side of the neighbouring hexagon edges, and the hexagon is the hull
itself; sampling the lens boundaries finds no other hull vertex there.
The threshold solver therefore bisects (with :func:`scan.bisect_switch`)
on the corner margin: the sign of the point's signed distance to the
nearest edge of :func:`corner_hexagon`'s vertex tuple, the vertices that
the polygon dump prints.  Once the corners overlap (r_plus >= 1/3 at
r3 = 0) the hull has curved sides; no threshold or figure visits those
sections and they are rejected.
"""

from __future__ import annotations

import logging
import math
from functools import partial

import numpy as np

from .couplings import from_config
from .errors import BracketError, DomainError, EmptyRegionError
from .geometry import _SYMMETRIC_COLLINEAR, scaled
from .scan import bisect_switch, check_tol, first_switch
from .specfun import Dimensionality
from .tristate import werner_coords

DEFAULT_TOL = 1e-5
MEMBERSHIP_TOL = 1e-9
PRESCAN_POINTS = 32
_BRACKETS = {Dimensionality.THREE_D: (2.0, 3.2), Dimensionality.TWO_D: (1.8, 3.0)}
# the symmetric collinear lens corners first overlap at 5.137 (3D) and 4.646
# (2D) (a 1e-3-step scan up to 12), each rounded down
_HI_LIMITS = {Dimensionality.THREE_D: 5.13, Dimensionality.TWO_D: 4.64}

_SQRT3 = math.sqrt(3.0)
_THIRD = 2.0 * math.pi / 3.0  # 12|3 is +third, 13|2 is -third
_COS_P, _SIN_P = math.cos(_THIRD), math.sin(_THIRD)
_COS_M, _SIN_M = math.cos(-_THIRD), math.sin(-_THIRD)

_log = logging.getLogger(__name__)


def corner_hexagon(r_plus: float, r3: float = 0.0) -> tuple[tuple[float, float], ...]:
    """Hexagon of the six lens corners of the section (r_plus, r3),
    counterclockwise from the lower 1|23 corner.

    The 1|23 corners are r1 = 2*r_plus - 1, r2 = +-sqrt((1 - c**2 -
    3*r3**2)/3) with c = 1 - 3*r_plus; the other four are their +-2*pi/3
    rotations.  The hexagon is always inside the hull of the lenses, and
    is that hull while the corners keep this order, which is the only
    case accepted (r_plus < 1/3 at r3 = 0).  EmptyRegionError where no
    state satisfies the inequalities, DomainError where the corners overlap.
    """
    c = 1.0 - 3.0 * r_plus
    if not 3.0 * r3 * r3 + c * c < 1.0:
        raise EmptyRegionError(
            f"no state satisfies the separability inequalities at "
            f"r_plus={r_plus}, r3={r3}"
        )
    r1 = 2.0 * r_plus - 1.0
    r2 = math.sqrt((1.0 - c * c - 3.0 * r3 * r3) / 3.0)
    if not r2 < -_SQRT3 * r1:
        raise DomainError(
            f"the lens corners overlap at r_plus={r_plus}, r3={r3}, "
            "so the hull has curved sides; no polygon is given there"
        )
    return (
        (r1, -r2),
        (_COS_P * r1 - _SIN_P * r2, _SIN_P * r1 + _COS_P * r2),
        (_COS_P * r1 - _SIN_P * -r2, _SIN_P * r1 + _COS_P * -r2),
        (_COS_M * r1 - _SIN_M * r2, _SIN_M * r1 + _COS_M * r2),
        (_COS_M * r1 - _SIN_M * -r2, _SIN_M * r1 + _COS_M * -r2),
        (r1, r2),
    )


def _margin(vertices: tuple[tuple[float, float], ...], r1: float, r2: float) -> float:
    """Signed distance from (r1, r2) to the nearest edge line of the convex
    polygon with these vertices (counterclockwise), positive inside.

    Inside the polygon this is the distance to its boundary; outside it is
    negative and no larger in magnitude than that distance.  A non-finite
    point has a NaN margin, so it is never inside.
    """
    if not (math.isfinite(r1) and math.isfinite(r2)):
        return math.nan
    margin = math.inf
    for (ax, ay), (bx, by) in zip(vertices, vertices[1:] + vertices[:1]):
        ex, ey = bx - ax, by - ay
        margin = min(margin, (ex * (r2 - ay) - ey * (r1 - ax)) / math.hypot(ex, ey))
    return margin


def _symmetric_point(dim: Dimensionality, separation: float):
    """Section (r_plus, r3) and (r1, r2) point of the symmetric collinear
    configuration."""
    wc = werner_coords(from_config(scaled(separation, _SYMMETRIC_COLLINEAR, dim)))
    return (wc.r_plus, wc.r3), (wc.r1, wc.r2)


def _outside(dim: Dimensionality, separation: float) -> bool:
    """r_max_solver's predicate: the symmetric collinear point lies outside
    its own section's corner hexagon by more than MEMBERSHIP_TOL, or the
    section is empty."""
    section, (r1, r2) = _symmetric_point(dim, separation)
    try:
        vertices = corner_hexagon(*section)
    except EmptyRegionError:
        return True
    return not _margin(vertices, r1, r2) >= -MEMBERSHIP_TOL


def r_max_solver(
    dim: Dimensionality,
    bracket: tuple[float, float] | None = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Upper bound on the GTE distance from the biseparability hull.

    Bisects the separation of the symmetric collinear configuration on
    the sign of its (r1, r2) point's margin in the corner hexagon of the
    configuration's own section (inside within MEMBERSHIP_TOL counts as
    inside).  The section is recomputed at every step because r_plus
    drifts with the separation.  The hexagon's corners are biseparable,
    so inside implies biseparable and the crossing bounds the GTE
    distance from above; on the sections visited (r_plus < 1/3, r3 = 0)
    the hexagon is the exact hull, so the bound is the hull's own.  An
    empty section (the weights round past their bounds at separations
    below ~5e-3) holds no biseparable state and counts as outside.  A
    PRESCAN_POINTS grid over the bracket must show a single
    outside-to-inside switch.  The bracket must start above 0 and end at
    or below _HI_LIMITS[dim], beyond which the lens corners overlap.

    Logs one DEBUG record per solve: the pre-scan's switch index (None
    when there is none) and its PRESCAN_POINTS outside flags.
    """
    check_tol(tol)
    lo, hi = bracket if bracket is not None else _BRACKETS[dim]
    if not 0.0 < lo < hi < math.inf:
        raise DomainError(f"bracket must be finite, increasing and above 0, got ({lo}, {hi})")
    if hi > _HI_LIMITS[dim]:
        raise DomainError(
            f"bracket end {hi} is above {_HI_LIMITS[dim]}, where the {dim.value} "
            "symmetric collinear lens corners start to overlap"
        )

    outside = partial(_outside, dim)
    grid = np.linspace(lo, hi, PRESCAN_POINTS).tolist()
    flags = [outside(r) for r in grid]
    i = first_switch(flags)
    _log.debug("r_max_solver prescan switch=%s outside=%r", i, flags)
    if not flags[0] or i is None or any(flags[i + 1 :]):
        raise BracketError(
            f"hull-membership predicate is not a single outside->inside "
            f"switch on [{lo}, {hi}] (outside flags {flags})"
        )
    return bisect_switch(outside, grid[i], grid[i + 1], tol)
