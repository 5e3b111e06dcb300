"""Singlet weights of the three-spin reduced state.

The reduced density matrix of three localized spins in the degenerate
Fermi gas is a mixture of the maximally mixed state and the three pair
singlets.  The weight of the singlet on pair ij is

    p_ij = (-f_ij**2 + f12*f13*f23) / D,
    D    = -2 + f12**2 + f13**2 + f23**2 - f12*f13*f23,

with f_ij the correlation kernel at the pair distance.  All three weights
share the denominator D, which vanishes as the whole configuration
shrinks; in that limit the kernels behave as f = 1 - a*x**2 + O(x**4) and
the dimension constant a cancels, leaving the exact shape-only limit

    p_ij = (d_ik**2 + d_jk**2 - d_ij**2) / (d12**2 + d13**2 + d23**2),

identical for the 2D and 3D gases.  A coincident pair ij (d_ij = 0) has
the limit weights exactly p_ij = 1 and 0 on the other pairs, as the kernel
formula has at every scale.  Only the equilateral shape is rejected in
limit mode: there the ratio is doubly singular and the closed form is not
trusted.

The formulas are written once, for floats and arrays alike, in
:func:`_kernel_formula` and :func:`_limit_formula`, and the validity of a
distance triple once, in :func:`geometry._distance_checks`, whose slack
is relative to the largest distance, so that only the shape decides.
Every figure table point is a unit shape (s12, 1, s23) at a separation
kfr: :func:`_unit_weights` is :func:`from_shape` over arrays of them,
given f(kfr) once per kfr, and :func:`_unit_checks` its checks as a mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, DomainError, InvalidCouplingsError
from .geometry import Shape, TriangleConfig, _TRI_TOL, _distance_checks, check_distances
from .specfun import X_MAX, Dimensionality, _f_array, f_factor

# Below this configuration scale the direct formula drowns in cancellation
# noise (|D|, about a tenth of the summed squared distances, falls under
# ~1e-7) and the shape-only limit takes over.
LIMIT_SWITCH = 1e-3
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class Couplings:
    """Singlet weights (p12, p13, p23) and their sum p.

    The weights of a state satisfy |p_ij| <= 1 for each pair and |p| <= 1,
    and make rho3 positive semidefinite; use :func:`validate` to check all
    three within a 1e-9 slack.  Non-finite weights raise
    InvalidCouplingsError.
    """

    p12: float
    p13: float
    p23: float
    p: float = field(init=False)

    def __post_init__(self) -> None:
        p = self.p12 + self.p13 + self.p23
        # a sum holding a NaN or an infinity is never finite
        if not math.isfinite(p):
            raise InvalidCouplingsError(f"singlet weights must be finite, got {self.as_tuple()}")
        object.__setattr__(self, "p", p)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p12, self.p13, self.p23)


def _kernel_formula(f12, f13, f23):
    """D and the weights (p12, p13, p23) of three kernel values, floats or
    arrays.  The kernels of three points form a positive semidefinite matrix,
    so D <= f12*f13*f23 - 1 < 0; once the largest distance reaches
    LIMIT_SWITCH, D stays below -1e-7 (about -1.5e-7 at worst, for the 3D
    collinear midpoint shape at the switch), so D needs no floor."""
    prod = f12 * f13 * f23
    denom = -2.0 + f12 * f12 + f13 * f13 + f23 * f23 - prod
    return (denom, (-f12 * f12 + prod) / denom, (-f13 * f13 + prod) / denom,
            (-f23 * f23 + prod) / denom)


def _limit_formula(d12, d13, d23, dmax, m):
    """The limit weights of checked distances whose largest is dmax, on
    floats (m = math) or arrays (m = numpy)."""
    # an exact power-of-two scaling puts dmax in [1/2, 1): no square under- or overflows
    e = -m.frexp(dmax)[1]
    u12, u13, u23 = m.ldexp(d12, e), m.ldexp(d13, e), m.ldexp(d23, e)
    s12, s13, s23 = u12 * u12, u13 * u13, u23 * u23
    total = s12 + s13 + s23
    return (s13 + s23 - s12) / total, (s12 + s23 - s13) / total, (s12 + s13 - s23) / total


def from_shape(shape: Shape, kfr: float, dim: Dimensionality) -> Couplings:
    """Singlet weights of a unit-separation shape at separation kfr, which
    must be finite and nonnegative (checked before the shape).

    The unit shape decides: it must pass check_distances, and wherever
    kfr * max(shape) < LIMIT_SWITCH, kfr = 0 included, the weights are
    :func:`zero_limit` of the unit shape itself, for both dimensions; above
    the switch, the kernel formula of the scaled distances, each <= X_MAX.
    """
    if not 0.0 <= kfr < math.inf:
        raise DomainError(f"kfr must be finite and nonnegative, got {kfr}")
    if kfr * max(shape) < LIMIT_SWITCH:
        return zero_limit(*shape)
    check_distances(shape)
    f12, f13, f23 = (f_factor(dim, kfr * d) for d in shape)
    return Couplings(*_kernel_formula(f12, f13, f23)[1:])


def from_config(cfg: TriangleConfig) -> Couplings:
    """Singlet weights for a configuration of three fermions.

    Falls back to :func:`zero_limit` when all three distances are below
    LIMIT_SWITCH = 1e-3 (the shape-only limit), which raises
    DegenerateDenominatorError for the equilateral shape.
    """
    d12, d13, d23 = cfg.distances()
    if max(d12, d13, d23) < LIMIT_SWITCH:
        return zero_limit(d12, d13, d23)
    dim = cfg.dim
    _, p12, p13, p23 = _kernel_formula(f_factor(dim, d12), f_factor(dim, d13), f_factor(dim, d23))
    return Couplings(p12, p13, p23)


def zero_limit(d12: float, d13: float, d23: float) -> Couplings:
    """Singlet weights in the vanishing-size limit; only ratios matter.

    Dimension independent.  The distances must pass check_distances, at
    any scale; the equilateral shape is rejected.
    """
    check_distances((d12, d13, d23))
    dmax = max(d12, d13, d23)
    if dmax - min(d12, d13, d23) <= _TRI_TOL * dmax:
        raise DegenerateDenominatorError(
            "the equilateral shape is doubly singular in the vanishing-size "
            "limit; evaluate at finite separation instead"
        )
    return Couplings(*_limit_formula(d12, d13, d23, dmax, math))


def _unit_weights(dim: Dimensionality, kfr, f13, s12, s23) -> tuple[np.ndarray, ...]:
    """The weights (p12, p13, p23) of the unit shapes (s12, 1, s23) at
    separations kfr, over arrays, given f13 = f(kfr), and the mask of the
    points on the limit branch: element for element :func:`from_shape`'s
    branch and weights, bit for bit, wherever :func:`_unit_checks` passes.

    The limit branch, kfr * max(s12, 1, s23) < LIMIT_SWITCH, takes the limit
    formula of the unit shape, and the kernel branch the kernel formula of
    the scaled distances.  Nothing is checked.
    """
    smax = np.maximum(np.maximum(s12, 1.0), s23)
    p12, p13, p23 = np.empty((3, smax.size))
    limit = kfr * smax < LIMIT_SWITCH
    i = np.flatnonzero(limit)
    if i.size:
        p12[i], p13[i], p23[i] = _limit_formula(s12[i], 1.0, s23[i], smax[i], np)
    i = np.flatnonzero(~limit)
    if i.size:
        # one kernel call for both distances: its cost is mostly per call
        f12, f23 = _f_array(dim, (kfr[i] * np.array((s12[i], s23[i]))).ravel()).reshape(2, -1)
        _, p12[i], p13[i], p23[i] = _kernel_formula(f12, f13[i], f23)
    return p12, p13, p23, limit


def _unit_checks(kfr, s12, s23, limit):
    """The mask of the unit shapes (s12, 1, s23) at separations kfr, over
    arrays, that pass :func:`from_shape`'s checks on the branch that
    :func:`_unit_weights` gives (limit): kfr and the unit shape, then on
    the limit branch no equilateral shape and on the kernel branch a
    largest scaled distance of at most X_MAX."""
    smax = np.maximum(np.maximum(s12, 1.0), s23)
    finite, single_zero, triangle = _distance_checks(s12, 1.0, s23, smax)
    equilateral = smax - np.minimum(np.minimum(s12, 1.0), s23) <= _TRI_TOL * smax
    # NaN fails every comparison; the limit branch stays below X_MAX
    branch = np.where(limit, ~equilateral, kfr * smax <= X_MAX)
    return (0.0 <= kfr) & finite & single_zero & triangle & branch


def _min_eigenvalue(c: Couplings) -> float:
    """Smallest eigenvalue of the state with these weights (tristate.rho3):
    (1 - p)/8 on the spin-3/2 quartet and (1 + p)/8 - s/4 on the two
    spin-1/2 doublets, with s**2 = sum p_ij**2 - sum over pairs of p_ij*p_kl."""
    s = math.sqrt(((c.p12 - c.p13) ** 2 + (c.p12 - c.p23) ** 2 + (c.p13 - c.p23) ** 2) / 2.0)
    return min((1.0 - c.p) / 8.0, (1.0 + c.p) / 8.0 - s / 4.0)


def validate(c: Couplings) -> list[str]:
    """Names of the violated physical bounds, empty when all hold.

    Each pair weight must satisfy |p_ij| <= 1; when all pair bounds hold
    the sum must satisfy |p| <= 1, and when that holds too the weights
    must be a state's (rho3 >= 0, its smallest eigenvalue in closed form).
    All checks carry a 1e-9 slack.
    """
    out = []
    for name in ("p12", "p13", "p23"):
        if abs(getattr(c, name)) > 1.0 + BOUND_TOL:
            out.append(f"|{name}| ≤ 1 violated")
    if not out and abs(c.p) > 1.0 + BOUND_TOL:
        out.append("|p| ≤ 1 violated")
    if not out and _min_eigenvalue(c) < -BOUND_TOL:
        out.append("rho3 ≥ 0 violated")
    return out


def bound_excess(c: Couplings) -> float:
    """Largest amount by which any physical bound is exceeded (0 if none);
    positivity is exceeded by minus rho3's smallest eigenvalue."""
    worst = -_min_eigenvalue(c)
    for v in (c.p12, c.p13, c.p23, c.p):
        worst = max(worst, abs(v) - 1.0)
    return max(0.0, worst)
