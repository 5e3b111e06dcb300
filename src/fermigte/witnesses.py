"""Witnesses of genuine tripartite entanglement (GTE).

Two families are provided.

Projector witnesses: Lambda*I - |psi><psi| with |psi> a GHZ- or W-type
state built on arbitrary local bases, Lambda the maximal squared overlap
between |psi> and the biseparable set (1/2 for the GHZ family, 2/3 for
the W family).  An exhaustive scan over the extremal parameter grid shows
these never go negative on the Fermi-gas reduced state.

Energy witnesses: the pair-correlation observable

    W_m = sigma_i . sigma_m + sigma_m . sigma_k

(middle spin m, outer spins i, k) detects GTE whenever |<W_m>| exceeds
1 + sqrt(5).  Rescaled to have largest eigenvalue at most 1, it feeds the
dual representation of the generalized robustness and yields a closed
lower bound

    E_R >= max_m max(0, (3*|p_im + p_mk| - 1 - sqrt(5)) / (5 + sqrt(5))).

Both signs of the observable are carried so the bound is insensitive to
the sign convention of the singlet expectation.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .couplings import Couplings
from .errors import DomainError
from .tristate import _assemble, expectation, rho3

GTE_THRESHOLD = 1.0 + math.sqrt(5.0)
_NORM = 5.0 + math.sqrt(5.0)

GHZ_OVERLAP = 0.5
W_OVERLAP = 2.0 / 3.0

# The three distinct members of the energy-witness family, keyed by the
# conventional permutation labels; the value is the shared (middle) spin.
# "132" denotes the remaining distinct observable (middle spin 1): its
# literal digit reading would duplicate "231".
PERM_MIDDLE = {"123": 2, "231": 3, "132": 1}

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True)
class LocalBasis:
    """Orthonormal single-qubit basis |n>, |-n> on the Bloch sphere.

    |n>  = cos(theta/2)|up> + e^{i phi} sin(theta/2)|down>
    |-n> = -e^{-i phi} sin(theta/2)|up> + cos(theta/2)|down>

    The phase of |-n> is fixed so that at theta = 0 the pair is exactly
    (|up>, |down>).
    """

    theta: float = 0.0
    phi: float = 0.0

    def ket(self) -> np.ndarray:
        return np.array(
            [
                math.cos(self.theta / 2.0),
                np.exp(1.0j * self.phi) * math.sin(self.theta / 2.0),
            ],
            dtype=complex,
        )

    def ket_flip(self) -> np.ndarray:
        return np.array(
            [
                -np.exp(-1.0j * self.phi) * math.sin(self.theta / 2.0),
                math.cos(self.theta / 2.0),
            ],
            dtype=complex,
        )


@dataclass(frozen=True)
class WitnessOperator:
    """Hermitian witness matrix with a certified largest-eigenvalue bound."""

    matrix: np.ndarray = field(repr=False)
    lambda_max_bound: float


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def _products(bases: tuple[LocalBasis, LocalBasis, LocalBasis]) -> tuple[tuple, tuple]:
    """GHZ kets (|n1,n2,n3>, |-n1,-n2,-n3>), W kets (|n1,n2,-n3>, |n1,-n2,n3>, |-n1,n2,n3>)."""
    (k1, f1), (k2, f2), (k3, f3) = ((b.ket(), b.ket_flip()) for b in bases)
    ghz = (_kron3(k1, k2, k3), _kron3(f1, f2, f3))
    return ghz, (_kron3(k1, k2, f3), _kron3(k1, f2, k3), _kron3(f1, k2, k3))


def _ghz(alpha: float, up: np.ndarray, dn: np.ndarray) -> np.ndarray:
    return (up + np.exp(1.0j * alpha) * dn) / math.sqrt(2.0)


def _w(beta: float, gamma: float, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a + np.exp(1.0j * beta) * b + np.exp(1.0j * gamma) * c) / math.sqrt(3.0)


def ghz_state(alpha: float, bases: tuple[LocalBasis, LocalBasis, LocalBasis]) -> np.ndarray:
    """(|n1,n2,n3> + e^{i alpha} |-n1,-n2,-n3>) / sqrt(2)."""
    return _ghz(alpha, *_products(bases)[0])


def w_state(
    beta: float, gamma: float, bases: tuple[LocalBasis, LocalBasis, LocalBasis]
) -> np.ndarray:
    """(|n1,n2,-n3> + e^{i beta}|n1,-n2,n3> + e^{i gamma}|-n1,n2,n3>) / sqrt(3)."""
    return _w(beta, gamma, *_products(bases)[1])


def projective_witness(psi: np.ndarray, lam: float) -> WitnessOperator:
    """Lambda*I - |psi><psi| for a normalized 8-vector psi.

    Only the GHZ (1/2) and W (2/3) overlaps are certified; other values
    are accepted but flagged with a warning, since the biseparable
    maximization is not performed here.
    """
    psi = np.asarray(psi, dtype=complex)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-12:
        raise DomainError(f"witness state must be normalized, |psi| = {norm}")
    if not (abs(lam - GHZ_OVERLAP) < 1e-12 or abs(lam - W_OVERLAP) < 1e-12):
        warnings.warn(
            f"overlap bound {lam} is not certified for arbitrary states; "
            "the operator may fail to be a GTE witness",
            stacklevel=2,
        )
    return WitnessOperator(lam * np.eye(8, dtype=complex) - np.outer(psi, psi.conj()), lam)


def _single(op: np.ndarray, qubit: int) -> np.ndarray:
    mats = [np.eye(2, dtype=complex)] * 3
    mats[qubit - 1] = op
    return _kron3(*mats)


def pauli_dot(i: int, j: int) -> np.ndarray:
    """sigma_i . sigma_j as an 8x8 matrix in the fixed basis."""
    if i == j or not {i, j} <= {1, 2, 3}:
        raise DomainError(f"need two distinct qubits out of 1..3, got ({i}, {j})")
    out = np.zeros((8, 8), dtype=complex)
    for s in _PAULI:
        out += _single(s, i) @ _single(s, j)
    return out


def _middle(perm: str | int) -> int:
    key = str(perm)
    if key not in PERM_MIDDLE:
        raise DomainError(f"perm must be one of {sorted(PERM_MIDDLE)}, got {perm}")
    return PERM_MIDDLE[key]


def energy_observable(perm: str | int) -> np.ndarray:
    """Pair-correlation observable of the labeled family member.

    Its spectrum is {2, -4, 0}; a mean value beyond 1 + sqrt(5) in
    magnitude certifies GTE.
    """
    m = _middle(perm)
    a, b = sorted({1, 2, 3} - {m})
    return pauli_dot(a, m) + pauli_dot(m, b)


def _pair_sum(c: Couplings, middle: int) -> float:
    if middle == 1:
        return c.p12 + c.p13
    if middle == 2:
        return c.p12 + c.p23
    return c.p13 + c.p23


def energy_gte_test(c: Couplings, perm: str | int) -> bool:
    """True when the labeled energy witness certifies GTE for c."""
    return 3.0 * abs(_pair_sum(c, _middle(perm))) > GTE_THRESHOLD


def bounded_energy_witness(perm: str | int, sign: int) -> WitnessOperator:
    """((1+sqrt(5))*I + sign*W_perm) / (5+sqrt(5)), sign in {+1, -1}.

    Both signs are valid GTE witnesses with largest eigenvalue <= 1, so
    both are feasible for the dual form of the generalized robustness;
    sign -1 saturates the eigenvalue bound exactly.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    w = energy_observable(perm)
    matrix = (GTE_THRESHOLD * np.eye(8, dtype=complex) + sign * w) / _NORM
    bound = 1.0 if sign == -1 else (3.0 + math.sqrt(5.0)) / _NORM
    return WitnessOperator(matrix, bound)


def er_lower_bound(c: Couplings) -> float:
    """Closed-form lower bound on the generalized robustness of GTE.

    Maximizes the rescaled energy-witness violation over the three family
    members and both observable signs; agrees with the matrix path
    :func:`er_lower_bound_matrix` to machine precision.
    """
    return _er_bound(c.p12, c.p13, c.p23)


def _er_bound(p12: float, p13: float, p23: float) -> float:
    """The float core of :func:`er_lower_bound`."""
    return max(
        0.0,
        (3.0 * abs(p12 + p13) - GTE_THRESHOLD) / _NORM,  # middle spin 1
        (3.0 * abs(p12 + p23) - GTE_THRESHOLD) / _NORM,  # middle spin 2
        (3.0 * abs(p13 + p23) - GTE_THRESHOLD) / _NORM,  # middle spin 3
    )


def er_lower_bound_matrix(c: Couplings) -> float:
    """Same bound evaluated through the explicit 8x8 operators."""
    rho = rho3(c)
    best = 0.0
    for perm in PERM_MIDDLE:
        for sign in (1, -1):
            w = bounded_energy_witness(perm, sign)
            best = max(best, -expectation(rho, w.matrix))
    return best


_GRID = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
# the eight vertex states' singlet weights (p12, p13, p23)
_VERTICES = tuple(itertools.product((-1.0, 1.0), repeat=3))


@dataclass(frozen=True)
class GridScanReport:
    """Outcome of the exhaustive extremal-grid witness scan."""

    min_value: float
    argmin: dict
    nodes_evaluated: int
    per_family: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "min_value": self.min_value,
            "argmin": self.argmin,
            "nodes_evaluated": self.nodes_evaluated,
        }
        if self.per_family is not None:
            out["per_family"] = self.per_family
        return out


def _grid_kets():
    """Per grid ket in scan order: family, phases, angles, node values over _VERTICES."""
    rhos = np.stack([_assemble(*v) for v in _VERTICES])
    for theta2, theta3, phi3 in itertools.product(_GRID, repeat=3):
        bases = (LocalBasis(0.0, 0.0), LocalBasis(theta2, 0.0), LocalBasis(theta3, phi3))
        angles = {
            "theta1": 0.0,
            "phi1": 0.0,
            "phi2": 0.0,
            "theta2": theta2,
            "theta3": theta3,
            "phi3": phi3,
        }
        ghz, w = _products(bases)
        states = [("ghz", {"alpha": a}, _ghz(a, *ghz)) for a in _GRID]
        states += [
            ("w", {"beta": b, "gamma": g}, _w(b, g, *w))
            for b, g in itertools.product(_GRID, repeat=2)
        ]
        for family, phases, psi in states:
            lam = GHZ_OVERLAP if family == "ghz" else W_OVERLAP
            # one stacked product per ket, rounded per node as np.vdot(psi, rho @ psi)
            values = [lam - float(np.vdot(psi, row).real) for row in rhos @ psi]
            yield family, phases, angles, values


def grid_scan_ghz_w(detail: bool = False) -> GridScanReport:
    """Scan Tr(rho * Pi) over the extremal parameter grid of both families.

    The trace is linear in each p_ij and trigonometric in the angles, so
    its extrema over the admissible box lie on p_ij in {-1, +1} and
    angles on multiples of pi/2; collective rotation invariance pins
    theta1 = phi1 = phi2 = 0.  The scan evaluates every remaining node
    (the vertex states need not be positive semidefinite) and returns the
    global minimum; a nonnegative result means neither family can detect
    GTE anywhere in the admissible parameter range.
    """
    best = math.inf
    best_node: dict = {}
    nodes = 0
    family_min = {"ghz": math.inf, "w": math.inf}
    for family, phases, angles, values in _grid_kets():
        nodes += len(values)
        low = min(values)  # the first of equal minima, as a node-by-node scan keeps
        family_min[family] = min(family_min[family], low)
        if low < best:
            best = low
            best_node = {
                "family": family,
                "p": list(_VERTICES[values.index(low)]),
                "angles": dict(angles),
                "phases": dict(phases),
            }
    return GridScanReport(
        min_value=best,
        argmin=best_node,
        nodes_evaluated=nodes,
        per_family=family_min if detail else None,
    )
