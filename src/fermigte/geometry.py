"""Three-fermion configurations as dimensionless pairwise distances.

Only the three relative distances k_F*r_ij matter for the reduced spin
state, so configurations are stored as a distance triple rather than as
coordinates.  Each standard arrangement (collinear, isosceles, a point
in polar coordinates about the midpoint of a fixed pair, and the
equilateral triangle) is a shape function that validates its arguments
and returns the distances at unit 1-3 separation; :func:`scaled` turns
any shape into the configuration at separation kfr > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .specfun import Dimensionality

_TRI_TOL = 1e-12

# distances (d12, d13, d23) of a configuration at unit 1-3 separation
Shape = tuple[float, float, float]


def check_distances(d: Shape) -> None:
    """Raise DomainError unless the distances are finite and nonnegative, at
    most one vanishes (two fermions may coincide, but not two pairs at once)
    and none exceeds the sum of the other two by more than 1e-12 times the
    largest (one subnormal spacing where that is 0), at every scale."""
    d12, d13, d23 = d
    dmax = max(d)
    # NaN fails its own comparison; an infinity shows as dmax
    if not (0.0 <= d12 and 0.0 <= d13 and 0.0 <= d23 and dmax < math.inf):
        raise DomainError(f"distances must be finite and nonnegative, got {d}")
    # d12 and one other distance, or d13 and d23, are nonzero
    if not ((d12 != 0.0 and (d13 != 0.0 or d23 != 0.0)) or (d13 != 0.0 and d23 != 0.0)):
        raise DomainError("at most one pairwise distance may vanish")
    # where 1e-12 * dmax underflows to 0, one subnormal spacing: three
    # rounded subnormal distances break the triangle inequality by at most that
    tol = _TRI_TOL * dmax or 5e-324
    if not (d12 <= d13 + d23 + tol and d13 <= d12 + d23 + tol and d23 <= d12 + d13 + tol):
        raise DomainError(f"triangle inequality violated for {d}")


@dataclass(frozen=True)
class TriangleConfig:
    """Pairwise distances k_F*r_ij of three localized fermions; the triple
    must pass :func:`check_distances`."""

    d12: float
    d13: float
    d23: float
    dim: Dimensionality

    def __post_init__(self) -> None:
        check_distances(self.distances())

    def distances(self) -> tuple[float, float, float]:
        return (self.d12, self.d13, self.d23)


def scaled(kfr: float, shape: Shape, dim: Dimensionality) -> TriangleConfig:
    """The configuration of a unit-separation shape at separation kfr > 0."""
    if not kfr > 0.0:
        raise DomainError(f"kfr must be positive, got {kfr}")
    d12, d13, d23 = shape
    return TriangleConfig(kfr * d12, kfr * d13, kfr * d23, dim)


def collinear_shape(x_over_r: float) -> Shape:
    """Three fermions on a line: 1 and 3 at unit separation, 2 between
    them at fraction x_over_r of the way from 1 to 3."""
    if not 0.0 <= x_over_r <= 1.0:
        raise DomainError(f"x_over_r must lie in [0, 1], got {x_over_r}")
    return (x_over_r, 1.0, 1.0 - x_over_r)


# fermion 2 midway between 1 and 3: the family every distance threshold follows
_SYMMETRIC_COLLINEAR = collinear_shape(0.5)


def isosceles_shape(y_over_r: float) -> Shape:
    """Fermions 1 and 3 form a unit base; fermion 2 sits a distance
    y_over_r above the midpoint of the base."""
    if not 0.0 <= y_over_r < math.inf:
        raise DomainError(f"y_over_r must be nonnegative and finite, got {y_over_r}")
    side = math.hypot(0.5, y_over_r)
    return (side, 1.0, side)


def polar_shape(theta: float, q_over_r: float) -> Shape:
    """Fermion 2 at polar coordinates (theta, q_over_r) about the midpoint
    of fermions 1 and 3 at unit separation.

    theta is measured from the 1-3 axis; the physically distinct range is
    [0, pi/2] but any |theta| <= pi is accepted (mirror symmetry).
    """
    cos_theta, sin_theta = _polar_direction(theta)
    if not 0.0 <= q_over_r <= 0.5:
        raise DomainError(f"q_over_r must lie in [0, 1/2], got {q_over_r}")
    d12, d23 = _polar_distances(q_over_r, cos_theta, sin_theta, math)
    return (d12, 1.0, d23)


def _polar_distances(q, cos, sin, m):
    """polar_shape's d12, d23 on floats (m = math) or arrays (m = numpy)."""
    px, py = q * cos, q * sin
    return m.hypot(px + 0.5, py), m.hypot(px - 0.5, py)


def _polar_direction(theta: float) -> tuple[float, float]:
    """The (cosine, sine) of theta that :func:`polar_shape` scales by q_over_r."""
    if not abs(theta) <= math.pi:
        raise DomainError(f"theta must lie in [-pi, pi], got {theta}")
    # cosine via the complement of |theta| so that the quarter turn lands
    # exactly on the isosceles shape (sin(pi/2 - pi/2) is 0 while
    # cos(pi/2) is not) and the axis mirror theta -> -theta is bit-exact
    return math.sin(math.pi / 2.0 - abs(theta)), math.sin(theta)


def equilateral_shape() -> Shape:
    """All three fermions mutually at unit separation."""
    return (1.0, 1.0, 1.0)
