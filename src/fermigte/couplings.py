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
:func:`from_config` takes :func:`zero_limit` below LIMIT_SWITCH and the
kernel formula above it; :func:`from_shape` is :func:`zero_limit` of a
unit shape at kfr = 0 and :func:`from_config` of the scaled shape
elsewhere; :class:`Couplings` rejects non-finite weights.
:func:`_weights_array` is :func:`from_shape` over arrays for the sweeps
in :mod:`scan`, with the checks, a kfr's included, as a mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, InvalidCouplingsError
from .geometry import Shape, TriangleConfig, _TRI_TOL, _distance_checks, check_distances, scaled
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
    s12 = u12 * u12
    s13 = u13 * u13
    s23 = u23 * u23
    total = s12 + s13 + s23
    return (s13 + s23 - s12) / total, (s12 + s23 - s13) / total, (s12 + s13 - s23) / total


def from_shape(shape: Shape, kfr: float, dim: Dimensionality) -> Couplings:
    """Singlet weights of a unit-separation shape at separation kfr.

    kfr = 0 selects the exact vanishing-size limit (:func:`zero_limit`
    of the shape, the same for both dimensions); any other kfr is
    :func:`from_config` of the shape scaled to kfr, which must be positive.
    """
    return zero_limit(*shape) if kfr == 0.0 else from_config(scaled(kfr, shape, dim))


def from_config(cfg: TriangleConfig) -> Couplings:
    """Singlet weights for a configuration of three fermions.

    Falls back to :func:`zero_limit` when all three distances are below
    LIMIT_SWITCH = 1e-3 (the shape-only limit), which raises
    DegenerateDenominatorError for the equilateral shape; above the switch
    the shared denominator stays below -1e-7.
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


def _weights_array(
    dim: Dimensionality, kfr: np.ndarray | float, s12, s13, s23
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`from_shape` element for element on unit shapes (s12, s13, s23)
    at separations kfr, over arrays: the same checks and branches, each
    calling the float path's formula, and the mask ``ok`` of the elements
    whose checks pass.

    kfr = 0 takes the limit branch of the unit shape; any other kfr scales
    it, and a kfr that :func:`geometry.scaled` rejects (negative or NaN)
    leaves distances that the distance checks reject.  ok is False exactly
    where :func:`from_shape` raises, and a rejected point keeps NaN weights;
    nothing raises or warns here, whatever the input.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zero = kfr == 0.0
        scale = np.where(zero, 1.0, kfr)
        d12, d13, d23 = scale * s12, scale * s13, scale * s23
        dmax = np.maximum(np.maximum(d12, d13), d23)
        finite, single_zero, triangle = _distance_checks(d12, d13, d23, dmax)
        checked = finite & single_zero & triangle
        limit = (dmax < LIMIT_SWITCH) | zero
        # each branch evaluates the points that pass its checks and leaves the
        # rest NaN: zero_limit rejects the equilateral shape, f_factor a distance above X_MAX
        p12, p13, p23 = np.full((3, *d12.shape), math.nan)
        equilateral = dmax - np.minimum(np.minimum(d12, d13), d23) <= _TRI_TOL * dmax
        i = np.flatnonzero(checked & limit & ~equilateral)
        if i.size:
            p12[i], p13[i], p23[i] = _limit_formula(d12[i], d13[i], d23[i], dmax[i], np)
        i = np.flatnonzero(checked & ~limit & (dmax <= X_MAX))
        if i.size:
            # one kernel call for the three distances: its cost is mostly per call
            f12, f13, f23 = _f_array(dim, np.concatenate((d12[i], d13[i], d23[i]))).reshape(3, -1)
            _, p12[i], p13[i], p23[i] = _kernel_formula(f12, f13, f23)
        # Couplings rejects non-finite weights, the NaN of a rejected point among them
        ok = np.isfinite(p12 + p13 + p23)
    return p12, p13, p23, ok


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
