"""Explicit 8x8 three-spin reduced density matrix and invariant coordinates.

Basis convention, fixed once for the whole package: basis index
b = 4*b1 + 2*b2 + b3 with bit 0 = spin up and bit 1 = spin down, qubit
order (1, 2, 3).  The state is

    rho3 = (1-p)/8 * I8 + sum_ij p_ij |S_ij><S_ij| (x) I/2,

with |S_ij> the singlet on pair ij and the normalized identity on the
remaining qubit.  rho3 is invariant under collective single-qubit
rotations, i.e. it is a three-qubit Werner state; its invariant
coordinates are

    r_plus = (1-p)/2,   r0 = (1+p)/2,
    r1 = (p12 + p13 - 2*p23)/2,   r2 = sqrt(3)/2 * (p13 - p12),   r3 = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .couplings import Couplings, bound_excess, validate
from .errors import ConvergenceFailure, InvalidCouplingsError, NonHermitianInputError

HERMITICITY_TOL = 1e-10

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)

# Axis order (pair_a, pair_b, rest) feeding physical qubits (1, 2, 3).
_PAIR_AXES = {
    (1, 2): (0, 1, 2),
    (1, 3): (0, 2, 1),
    (2, 3): (2, 0, 1),
}


def _pair_term(pair: tuple[int, int]) -> np.ndarray:
    """Singlet projector on `pair` tensored with I/2 on the third qubit."""
    m = np.kron(np.outer(_SINGLET, _SINGLET), np.eye(2) / 2.0)
    t = m.reshape((2,) * 6)
    perm = list(_PAIR_AXES[pair])
    perm = perm + [a + 3 for a in perm]
    return t.transpose(perm).reshape(8, 8).astype(complex)


_TERMS = {pair: _pair_term(pair) for pair in _PAIR_AXES}
_I8 = np.eye(8, dtype=complex)


@dataclass(frozen=True)
class WernerCoords:
    """Coordinates of the collective-rotation-invariant representation."""

    r_plus: float
    r0: float
    r1: float
    r2: float
    r3: float


def _assemble(p12: float, p13: float, p23: float) -> np.ndarray:
    """Raw assembly of the mixture; no physicality checks."""
    p = p12 + p13 + p23
    return (
        (1.0 - p) / 8.0 * _I8
        + p12 * _TERMS[(1, 2)]
        + p13 * _TERMS[(1, 3)]
        + p23 * _TERMS[(2, 3)]
    )


def rho3(c: Couplings) -> np.ndarray:
    """8x8 reduced density matrix for the given singlet weights.

    Raises InvalidCouplingsError when a bound of :func:`couplings.validate`
    is exceeded by more than 1e-6 (|p_ij| <= 1, |p| <= 1, or a smallest
    eigenvalue above -1e-6); smaller excesses (rounding from the kernel
    evaluation) only warn.
    """
    excess = bound_excess(c)
    if excess > 1e-6:
        raise InvalidCouplingsError(
            f"coupling bounds exceeded by {excess:.3e}: {validate(c)}"
        )
    if excess > 0.0 and validate(c):
        warnings.warn(
            f"coupling bounds exceeded by {excess:.3e}; proceeding", stacklevel=2
        )
    return _assemble(c.p12, c.p13, c.p23)


def werner_coords(c: Couplings) -> WernerCoords:
    """Invariant coordinates (r_plus, r0, r1, r2, r3) of rho3."""
    return WernerCoords(
        r_plus=(1.0 - c.p) / 2.0,
        r0=(1.0 + c.p) / 2.0,
        r1=(c.p12 + c.p13 - 2.0 * c.p23) / 2.0,
        r2=3.0 / (2.0 * math.sqrt(3.0)) * (c.p13 - c.p12),
        r3=0.0,
    )


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def expectation(rho: np.ndarray, obs: np.ndarray) -> float:
    """Re Tr(rho * obs) for Hermitian rho and obs (both checked to 1e-10)."""
    for name, m in (("rho", rho), ("obs", obs)):
        defect = _hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise NonHermitianInputError(
                f"{name} deviates from Hermiticity by {defect:.3e}"
            )
    value = complex(np.trace(rho @ obs))
    if abs(value.imag) > HERMITICITY_TOL:
        raise NonHermitianInputError(
            f"trace acquired an imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (physicality check)."""
    defect = _hermiticity_defect(rho)
    if defect > HERMITICITY_TOL:
        raise NonHermitianInputError(
            f"matrix deviates from Hermiticity by {defect:.3e}"
        )
    try:
        w = np.linalg.eigvalsh(rho)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    return float(w[0])


def matrix_to_text(m: np.ndarray) -> str:
    """Row-major dump, one row per line, entries 're+imi' at 17 digits."""
    lines = []
    for row in np.asarray(m, dtype=complex):
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row))
    return "\n".join(lines) + "\n"
