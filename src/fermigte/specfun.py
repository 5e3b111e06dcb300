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

J1 is the Cephes j1 that scipy.special.j1 evaluates, ported bit for bit so
that no run imports scipy.special, most of the package's import time.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
import scipy  # noqa: F401  perfbench/run.py's metadata() reads sys.modules["scipy"]

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


def _j1_near(x):
    """Cephes j1 for 0 <= x <= 5, on a float or an array.

    RP(z)/RQ(z) x (z - Z1)(z - Z2) in z = x*x, RQ monic and Z1, Z2 the
    squares of J1's first two zeros.
    """
    z = x * x
    return (
        (((-8.99971225705559398224e8 * z + 4.52228297998194034323e11) * z
          - 7.27494245221818276015e13) * z + 3.68295732863852883286e15)
        / (((((((((z + 6.20836478118054335476e2) * z + 2.56987256757748830383e5) * z
                 + 8.35146791431949253037e7) * z + 2.21511595479792499675e10) * z
               + 4.74914122079991414898e12) * z + 7.84369607876235854894e14) * z
             + 8.95222336184627338078e16) * z + 5.32278620332680085395e18))
        * x * (z - 1.46819706421238932572e1) * (z - 4.92184563216946036703e1)
    )


def _j1_far(x, m):
    """Cephes j1 for x > 5, on a float (m = math) or an array (m = numpy).

    sqrt(2/(pi x)) (P cos(x - 3pi/4) - (5/x) Q sin(x - 3pi/4)), QQ monic.
    """
    w = 5.0 / x
    z = w * w
    p = (
        ((((((7.62125616208173112003e-4 * z + 7.31397056940917570436e-2) * z
             + 1.12719608129684925192e0) * z + 5.11207951146807644818e0) * z
           + 8.42404590141772420927e0) * z + 5.21451598682361504063e0) * z
         + 1.00000000000000000254e0)
        / ((((((5.71323128072548699714e-4 * z + 6.88455908754495404082e-2) * z
               + 1.10514232634061696926e0) * z + 5.07386386128601488557e0) * z
             + 8.39985554327604159757e0) * z + 5.20982848682361821619e0) * z
           + 9.99999999999999997461e-1)
    )
    q = (
        (((((((5.10862594750176621635e-2 * z + 4.98213872951233449420e0) * z
               + 7.58238284132545283818e1) * z + 3.66779609360150777800e2) * z
             + 7.10856304998926107277e2) * z + 5.97489612400613639965e2) * z
           + 2.11688757100572135698e2) * z + 2.52070205858023719784e1)
        / (((((((z + 7.42373277035675149943e1) * z + 1.05644886038262816351e3) * z
               + 4.98641058337653607651e3) * z + 9.56231892404756170795e3) * z
             + 7.99704160447350683650e3) * z + 2.82619278517639096600e3) * z
           + 3.36093607810698293419e2)
    )
    xn = x - 2.35619449019234492885
    return (p * m.cos(xn) - w * q * m.sin(xn)) * 0.79788456080286535588 / m.sqrt(x)


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind J1 on the working range [0, 50]."""
    if not 0.0 <= x <= X_MAX:
        raise DomainError(f"bessel_j1 requires 0 <= x <= {X_MAX}, got {x}")
    return float(_j1_near(x) if x <= 5.0 else _j1_far(x, math))


def _j1_series(x):
    """j1(x) = sum_m (-1)^m x^(2m+1) / (2^m m! (2m+3)!!) for 0 <= x < 0.5, on
    a float or an array.  Once a term is at most 1e-20, every later term is
    below half an ulp of the sum, so adding it changes no bit."""
    term = x / 3.0
    total = term
    neg_x2 = -x * x
    for denom in _J1_SERIES_DENOMS:
        # not in place: on an array, total starts as the term array itself
        term = term * (neg_x2 / denom)
        total = total + term
    return total


def _j1_closed(x, m):
    """j1's closed form for x >= 0.5, on a float (m = math) or an array (m = numpy)."""
    return m.sin(x) / (x * x) - m.cos(x) / x


def spherical_j1(x: float) -> float:
    """Spherical Bessel function j1(x) = sin(x)/x**2 - cos(x)/x, x >= 0.

    The closed form loses accuracy near zero where the two 1/x poles
    cancel, so a power series takes over below x = 0.5; absolute error
    stays below 1e-14 everywhere, with j1(0) = 0 exactly.
    """
    if not 0.0 <= x < math.inf:
        raise DomainError(f"spherical_j1 requires 0 <= x < inf, got {x}")
    return _j1_series(x) if x < 0.5 else _j1_closed(x, math)


def _f_small_x(dim: Dimensionality, x: float) -> float:
    """Series branch of the kernel (float or array); to ~1e-22 for x <= 1e-3."""
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

    One loop over three pieces, each a mask and the scalar path's own
    formula (the small-x series, then J1's two branches or j1's series and
    closed form), so each value is the scalar one where numpy's sin, cos
    and sqrt round as math's; the printed digits of the collinear,
    isosceles and distance tables rest on that rounding.  A piece that holds
    no point is skipped: its formula is 6 to 60 numpy calls, costly even on
    no elements.  Nothing is checked and nothing raises: every x must be
    finite and nonnegative, and only the values on f_factor's domain
    [0, X_MAX] are f_factor's.
    """
    small = x < _SERIES_SWITCH
    # above the series f = c * j(x) / x, with j's two branches split at `low`
    if dim is Dimensionality.TWO_D:
        c, low, near, far = 2.0, x <= 5.0, _j1_near, lambda v: _j1_far(v, np)
    else:
        c, low, near, far = 3.0, x < 0.5, _j1_series, lambda v: _j1_closed(v, np)
    pieces = (
        (small, lambda v: _f_small_x(dim, v)),
        (~small & low, lambda v: c * near(v) / v),
        (~low, lambda v: c * far(v) / v),
    )
    out = np.empty_like(x)
    for mask, formula in pieces:
        if mask.any():
            out[mask] = formula(x[mask])
    return out
