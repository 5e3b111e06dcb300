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
on the bare corner margin: the sign of the point's signed distance to the
nearest edge of the closed-form corners, computed straight from their
vertex tuple.  Only the public :func:`corner_hexagon`, whose vertices the
dump prints, wraps the corners in a :class:`ConvexRegion` and runs its
convexity check; both share one corner computation, so the solver sees the
vertices of that hexagon.  Once
the corners overlap (r_plus >= 1/3 at r3 = 0) the hull has curved sides;
no threshold or figure visits those sections and they are rejected.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .couplings import from_config
from .errors import BracketError, DomainError, EmptyRegionError
from .geometry import collinear
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


@dataclass(frozen=True)
class SectionSpec:
    """Section of the invariant-coordinate space at fixed (r_plus, r3)."""

    r_plus: float
    r3: float = 0.0


@dataclass(frozen=True)
class ConvexRegion:
    """Convex polygon in the (r1, r2) plane, vertices counterclockwise."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) < 3:
            raise DomainError(f"polygon needs at least 3 vertices, got {len(v)}")
        n = len(v)
        for i in range(n):
            ax, ay = v[i]
            bx, by = v[(i + 1) % n]
            cx, cy = v[(i + 2) % n]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross < -1e-12:
                raise DomainError("vertices are not in convex counterclockwise order")

    def as_array(self) -> np.ndarray:
        return np.array(self.vertices, dtype=float)


def _check_section(sec: SectionSpec) -> float:
    """Return (1 - 3*r_plus); raise when the 1|23 region is empty."""
    c = 1.0 - 3.0 * sec.r_plus
    if not 3.0 * sec.r3 * sec.r3 + c * c < 1.0:
        raise EmptyRegionError(
            f"no state satisfies the separability inequalities at "
            f"r_plus={sec.r_plus}, r3={sec.r3}"
        )
    return c


def _corners(sec: SectionSpec) -> tuple[tuple[float, float], ...]:
    """The six lens corners of :func:`corner_hexagon`, without the
    ConvexRegion check (the corners are convex whenever they are returned)."""
    c = _check_section(sec)
    r1 = 2.0 * sec.r_plus - 1.0
    r2 = math.sqrt((1.0 - c * c - 3.0 * sec.r3 * sec.r3) / 3.0)
    if not r2 < -_SQRT3 * r1:
        raise DomainError(
            f"the lens corners overlap at r_plus={sec.r_plus}, r3={sec.r3}, "
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


def corner_hexagon(sec: SectionSpec) -> ConvexRegion:
    """Hexagon of the six lens corners, counterclockwise from the lower
    1|23 corner.

    The 1|23 corners are r1 = 2*r_plus - 1, r2 = +-sqrt((1 - c**2 -
    3*r3**2)/3) with c = 1 - 3*r_plus; the other four are their +-2*pi/3
    rotations.  The hexagon is always inside the hull of the lenses, and
    is that hull while the corners keep this order, which is the only
    case accepted (r_plus < 1/3 at r3 = 0).
    """
    return ConvexRegion(_corners(sec))


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


def polygon_to_csv(region: ConvexRegion) -> str:
    """CSV dump of the hull vertices, counterclockwise, 12 digits."""
    lines = ["r1,r2"]
    for x, y in region.vertices:
        lines.append(f"{x:.12g},{y:.12g}")
    return "\n".join(lines) + "\n"


def _symmetric_point(dim: Dimensionality, separation: float):
    """Section and (r1, r2) point of the symmetric collinear configuration."""
    c = from_config(collinear(separation, 0.5, dim))
    wc = werner_coords(c)
    return SectionSpec(wc.r_plus, wc.r3), (wc.r1, wc.r2)


def _outside(dim: Dimensionality, separation: float) -> bool:
    """r_max_solver's predicate: the symmetric collinear point lies outside
    its own section's corner hexagon by more than MEMBERSHIP_TOL, or the
    section is empty."""
    sec, (r1, r2) = _symmetric_point(dim, separation)
    try:
        vertices = _corners(sec)
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
    outside-to-inside switch.  The bracket must end at or below
    _HI_LIMITS[dim], beyond which the lens corners overlap.

    Logs one DEBUG record per solve: the pre-scan's switch index (None
    when there is none) and its PRESCAN_POINTS outside flags.
    """
    check_tol(tol)
    lo, hi = bracket if bracket is not None else _BRACKETS[dim]
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"bracket must be finite and increasing, got ({lo}, {hi})")
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
