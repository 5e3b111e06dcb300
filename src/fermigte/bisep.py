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
The threshold solver therefore works on the closed-form hexagon, bisecting
(with :func:`scan.bisect_switch`) on the sign of the point's signed
distance to its nearest edge, and the vertex dump is the hexagon.  Once
the corners overlap (r_plus >= 1/3 at r3 = 0) the hull has curved sides;
no threshold or figure visits those sections and they are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def corner_hexagon(sec: SectionSpec) -> ConvexRegion:
    """Hexagon of the six lens corners, counterclockwise from the lower
    1|23 corner.

    The 1|23 corners are r1 = 2*r_plus - 1, r2 = +-sqrt((1 - c**2 -
    3*r3**2)/3) with c = 1 - 3*r_plus; the other four are their +-2*pi/3
    rotations.  The hexagon is always inside the hull of the lenses, and
    is that hull while the corners keep this order, which is the only
    case accepted (r_plus < 1/3 at r3 = 0).
    """
    c = _check_section(sec)
    r1 = 2.0 * sec.r_plus - 1.0
    r2 = math.sqrt((1.0 - c * c - 3.0 * sec.r3 * sec.r3) / 3.0)
    if not r2 < -math.sqrt(3.0) * r1:
        raise DomainError(
            f"the lens corners overlap at r_plus={sec.r_plus}, r3={sec.r3}, "
            "so the hull has curved sides; no polygon is given there"
        )

    def rotated(a: float, y: float) -> tuple[float, float]:
        ca, sa = math.cos(a), math.sin(a)
        return (ca * r1 - sa * y, sa * r1 + ca * y)

    third = 2.0 * math.pi / 3.0  # 12|3 is +third, 13|2 is -third
    return ConvexRegion(
        (
            (r1, -r2),
            rotated(third, r2),
            rotated(third, -r2),
            rotated(-third, r2),
            rotated(-third, -r2),
            (r1, r2),
        )
    )


def hull_margin(region: ConvexRegion, r1: float, r2: float) -> float:
    """Signed distance from (r1, r2) to the nearest edge line, positive inside.

    Inside the polygon this is the distance to its boundary; outside it is
    negative and no larger in magnitude than that distance.
    """
    v = region.vertices
    n = len(v)
    margin = math.inf
    for i in range(n):
        ax, ay = v[i]
        bx, by = v[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        margin = min(margin, (ex * (r2 - ay) - ey * (r1 - ax)) / math.hypot(ex, ey))
    return margin


def point_in_hull(
    region: ConvexRegion, r1: float, r2: float, tol: float = MEMBERSHIP_TOL
) -> bool:
    """True when (r1, r2) lies inside the hull or within tol of its boundary."""
    return hull_margin(region, r1, r2) >= -tol


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
    outside-to-inside switch.
    """
    check_tol(tol)
    lo, hi = bracket if bracket is not None else _BRACKETS[dim]
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"bracket must be finite and increasing, got ({lo}, {hi})")

    def outside(separation: float) -> bool:
        sec, point = _symmetric_point(dim, separation)
        try:
            hexagon = corner_hexagon(sec)
        except EmptyRegionError:
            return True
        return not point_in_hull(hexagon, *point)

    grid = np.linspace(lo, hi, PRESCAN_POINTS)
    flags = [outside(r) for r in grid]
    i = first_switch(flags)
    if not flags[0] or i is None or any(flags[i + 1 :]):
        raise BracketError(
            f"hull-membership predicate is not a single outside->inside "
            f"switch on [{lo}, {hi}] (outside flags {flags})"
        )
    return bisect_switch(outside, float(grid[i]), float(grid[i + 1]), tol)
