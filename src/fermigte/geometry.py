"""Three-fermion configurations as dimensionless pairwise distances.

Only the three relative distances k_F*r_ij matter for the reduced spin
state, so configurations are stored as a distance triple rather than as
coordinates.  Constructors cover the standard arrangements: collinear,
isosceles, a point in polar coordinates about the midpoint of a fixed
pair, and the equilateral triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .specfun import Dimensionality

_TRI_TOL = 1e-12


@dataclass(frozen=True)
class TriangleConfig:
    """Pairwise distances k_F*r_ij of three localized fermions.

    At most one distance may vanish (two fermions may coincide, but not
    two pairs at once) and the triple must be realizable by three points,
    i.e. satisfy the triangle inequality up to a 1e-12 relative slack.
    """

    d12: float
    d13: float
    d23: float
    dim: Dimensionality

    def __post_init__(self) -> None:
        d = (self.d12, self.d13, self.d23)
        if not all(0.0 <= v < math.inf for v in d):
            raise DomainError(f"distances must be finite and nonnegative, got {d}")
        if sum(1 for v in d if v > 0.0) < 2:
            raise DomainError("at most one pairwise distance may vanish")
        tol = _TRI_TOL * max(1.0, max(d))
        if (
            self.d12 > self.d13 + self.d23 + tol
            or self.d13 > self.d12 + self.d23 + tol
            or self.d23 > self.d12 + self.d13 + tol
        ):
            raise DomainError(f"triangle inequality violated for {d}")

    def distances(self) -> tuple[float, float, float]:
        return (self.d12, self.d13, self.d23)


def _check_kfr(kfr: float) -> None:
    if not kfr > 0.0:
        raise DomainError(f"kfr must be positive, got {kfr}")


def collinear(kfr: float, x_over_r: float, dim: Dimensionality) -> TriangleConfig:
    """Three fermions on a line: 1 and 3 a distance kfr apart, 2 between
    them at fraction x_over_r of the way from 1 to 3."""
    _check_kfr(kfr)
    if not 0.0 <= x_over_r <= 1.0:
        raise DomainError(f"x_over_r must lie in [0, 1], got {x_over_r}")
    return TriangleConfig(kfr * x_over_r, kfr, kfr * (1.0 - x_over_r), dim)


def isosceles(kfr: float, y_over_r: float, dim: Dimensionality) -> TriangleConfig:
    """Fermions 1 and 3 form a base of length kfr; fermion 2 sits a
    distance y_over_r * kfr above the midpoint of the base."""
    _check_kfr(kfr)
    if y_over_r < 0.0:
        raise DomainError(f"y_over_r must be nonnegative, got {y_over_r}")
    side = kfr * math.hypot(0.5, y_over_r)
    return TriangleConfig(side, kfr, side, dim)


def polar(kfr: float, theta: float, q_over_r: float, dim: Dimensionality) -> TriangleConfig:
    """Fermion 2 at polar coordinates (theta, q_over_r) about the midpoint
    of fermions 1 and 3, in units of their separation kfr.

    theta is measured from the 1-3 axis; the physically distinct range is
    [0, pi/2] but any |theta| <= pi is accepted (mirror symmetry).
    """
    _check_kfr(kfr)
    if abs(theta) > math.pi:
        raise DomainError(f"theta must lie in [-pi, pi], got {theta}")
    if not 0.0 <= q_over_r <= 0.5:
        raise DomainError(f"q_over_r must lie in [0, 1/2], got {q_over_r}")
    # cosine via the complement of |theta| so that the quarter turn lands
    # exactly on the isosceles constructor (sin(pi/2 - pi/2) is 0 while
    # cos(pi/2) is not) and the axis mirror theta -> -theta is bit-exact
    px = q_over_r * math.sin(math.pi / 2.0 - abs(theta))
    py = q_over_r * math.sin(theta)
    d12 = kfr * math.hypot(px + 0.5, py)
    d23 = kfr * math.hypot(px - 0.5, py)
    return TriangleConfig(d12, kfr, d23, dim)


def equilateral(kfr: float, dim: Dimensionality) -> TriangleConfig:
    """All three fermions mutually separated by kfr."""
    _check_kfr(kfr)
    return TriangleConfig(kfr, kfr, kfr, dim)
