"""Spin-correlation kernels of the degenerate (zero-temperature) Fermi gas.

Two localized fermions a dimensionless distance x = k_F*r apart have their
spin correlations controlled by a single kernel,

    f(x) = 2 J1(x)/x   (two-dimensional gas),
    f(x) = 3 j1(x)/x   (three-dimensional gas),

with J1 the first-order Bessel function and j1 the spherical Bessel
function.  Both kernels equal 1 at contact, satisfy |f| <= 1 and decay
to zero at large separation.  All lengths in this package are the
dimensionless products k_F*r, so the Fermi momentum never appears
explicitly.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from scipy.special import j1 as _j1

from .errors import DomainError

# Validated working range for the kernels; the interesting physics lives
# well below x ~ 10.
X_MAX = 50.0

# Below this the kernels are evaluated from their power series so that the
# removable singularity at x = 0 is exact and smooth.
_SERIES_SWITCH = 1e-3

# Ratio denominators 2m(2m+3), m = 1, 2, ..., of the series of
# spherical_j1; below x = 0.5 its terms fall under 1e-20 by m = 8.
_J1_SERIES_DENOMS = tuple(2.0 * m * (2.0 * m + 3.0) for m in range(1, 11))


class Dimensionality(Enum):
    """Spatial dimension of the gas; selects which kernel applies."""

    TWO_D = "2d"
    THREE_D = "3d"


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind J1 on the working range [0, 50]."""
    if not 0.0 <= x <= X_MAX:
        raise DomainError(f"bessel_j1 requires 0 <= x <= {X_MAX}, got {x}")
    return float(_j1(x))


def spherical_j1(x: float) -> float:
    """Spherical Bessel function j1(x) = sin(x)/x**2 - cos(x)/x, x >= 0.

    The closed form loses accuracy near zero where the two 1/x poles
    cancel, so a power series takes over below x = 0.5; absolute error
    stays below 1e-14 everywhere, with j1(0) = 0 exactly.
    """
    if x < 0.0:
        raise DomainError(f"spherical_j1 requires x >= 0, got {x}")
    if x < 0.5:
        # j1(x) = sum_m (-1)^m x^(2m+1) / (2^m m! (2m+3)!!)
        term = x / 3.0
        total = term
        neg_x2 = -x * x
        for denom in _J1_SERIES_DENOMS:
            if abs(term) <= 1e-20:
                break
            term *= neg_x2 / denom
            total += term
        return total
    return math.sin(x) / (x * x) - math.cos(x) / x


def _f_small_x(dim: Dimensionality, x: float) -> float:
    """Series branch of the kernel; valid (to ~1e-22) for x <= 1e-3."""
    x2 = x * x
    if dim is Dimensionality.THREE_D:
        return 1.0 - x2 / 10.0 + x2 * x2 / 280.0
    return 1.0 - x2 / 8.0 + x2 * x2 / 192.0


def f_factor(dim: Dimensionality, x: float) -> float:
    """Correlation kernel f(x) for the chosen gas dimension.

    Returns exactly 1 at x = 0 (the removable singularity) and satisfies
    |f| <= 1; absolute error <= 1e-12 on the working range [0, 50].
    """
    if not 0.0 <= x <= X_MAX:
        raise DomainError(f"f_factor requires 0 <= x <= {X_MAX}, got {x}")
    if x < _SERIES_SWITCH:
        return _f_small_x(dim, x)
    if dim is Dimensionality.THREE_D:
        return 3.0 * spherical_j1(x) / x
    return 2.0 * bessel_j1(x) / x


def _f_array(dim: Dimensionality, x: np.ndarray) -> np.ndarray:
    """:func:`f_factor` element for element on a float array.

    The same branches, constants and operation order as the scalar chain
    (:func:`_f_small_x`, the series and closed form of
    :func:`spherical_j1`, :func:`bessel_j1`), so each value is the scalar
    one wherever numpy's sin and cos round as the math module's do.  An x
    outside [0, X_MAX] raises f_factor's DomainError for the first one.
    """
    inside = (x >= 0.0) & (x <= X_MAX)
    if not inside.all():
        f_factor(dim, float(x[np.argmin(inside)]))
    out = np.empty_like(x)
    small = x < _SERIES_SWITCH
    x2 = x[small] * x[small]
    if dim is Dimensionality.THREE_D:
        out[small] = 1.0 - x2 / 10.0 + x2 * x2 / 280.0
    else:
        out[small] = 1.0 - x2 / 8.0 + x2 * x2 / 192.0
    rest = ~small
    if dim is Dimensionality.TWO_D:
        xr = x[rest]
        out[rest] = 2.0 * _j1(xr) / xr
        return out
    series = rest & (x < 0.5)
    xs = x[series]
    term = xs / 3.0
    total = term
    neg_x2 = -xs * xs
    for denom in _J1_SERIES_DENOMS:
        # each element stops where its scalar loop breaks
        live = np.abs(term) > 1e-20
        if not live.any():
            break
        term = np.where(live, term * (neg_x2 / denom), term)
        total = np.where(live, total + term, total)
    out[series] = 3.0 * total / xs
    closed = rest & ~series
    xc = x[closed]
    out[closed] = 3.0 * (np.sin(xc) / (xc * xc) - np.cos(xc) / xc) / xc
    return out
