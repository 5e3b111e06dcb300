"""Witnesses of genuine tripartite entanglement (GTE).

Two families are provided.

Projector witnesses: Lambda*I - |psi><psi| with |psi> a GHZ- or W-type
ket on local bases |n>, |-n> of the Bloch sphere, Lambda the maximal
squared overlap between |psi> and the biseparable set (1/2 for the GHZ
family, 2/3 for the W family; Bourennane et al., PRL 92, 087902 (2004)).
:func:`grid_scan_ghz_w` evaluates them on the extremal parameter grid
and reports the first minimum that a node-by-node scan would keep; it
shows these never go negative on the Fermi-gas reduced state.

Energy witnesses: the pair-correlation observable

    W_m = sigma_i . sigma_m + sigma_m . sigma_k

(middle spin m, outer spins i, k) has mean value -3*(p_im + p_mk) on
rho3 and certifies GTE below -(1 + sqrt(5)).  Rescaled to
((1 + sqrt(5))*I + W_m) / (5 + sqrt(5)), whose largest eigenvalue is
below 1, it feeds the dual representation of the generalized robustness
and yields a closed lower bound on the couplings of a state (rho3
positive semidefinite)

    E_R >= max_m max(0, (3*(p_im + p_mk) - 1 - sqrt(5)) / (5 + sqrt(5))).

The opposite sign ((1 + sqrt(5))*I - W_m) / (5 + sqrt(5)) is positive
definite (smallest eigenvalue (sqrt(5) - 1)/(5 + sqrt(5)) ~ 0.1708), so
it detects nothing and is not carried: it would enter the closed bound
only below p_im + p_mk = -(1 + sqrt(5))/3, and every state has
p_im + p_mk >= -2/3.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .couplings import Couplings
from .errors import DomainError
from .tristate import _assemble, _embed, expectation, rho3

GTE_THRESHOLD = 1.0 + math.sqrt(5.0)
_NORM = 5.0 + math.sqrt(5.0)

GHZ_OVERLAP = 0.5
W_OVERLAP = 2.0 / 3.0

_log = logging.getLogger(__name__)

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _is_spin(v) -> bool:  # 1, 2 or 3 as an int or numpy integer; a bool or 2.0 is none
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v in (1, 2, 3)


def pauli_dot(i: int, j: int) -> np.ndarray:
    """sigma_i . sigma_j as an 8x8 matrix in the fixed basis."""
    if i == j or not (_is_spin(i) and _is_spin(j)):
        raise DomainError(f"need two distinct qubits out of 1..3, got ({i}, {j})")
    out = np.zeros((8, 8), dtype=complex)
    for s in _PAULI:
        out += _embed(s, (i,)) @ _embed(s, (j,))
    return out


def energy_observable(m: int) -> np.ndarray:
    """W_m, the pair-correlation observable of middle spin m in {1, 2, 3}.

    Its spectrum is {2, -4, 0}; a mean value below -(1 + sqrt(5))
    certifies GTE.
    """
    if not _is_spin(m):
        raise DomainError(f"middle spin must be 1, 2 or 3, got {m!r}")
    a, b = sorted({1, 2, 3} - {m})
    return pauli_dot(a, m) + pauli_dot(m, b)


def bounded_energy_witness(m: int) -> np.ndarray:
    """((1+sqrt(5))*I + W_m) / (5+sqrt(5)), the 8x8 rescaled energy witness.

    Its largest eigenvalue is (3+sqrt(5))/(5+sqrt(5)) < 1, so it is
    feasible for the dual form of the generalized robustness; its mean
    value on rho3 is (1 + sqrt(5) - 3*(p_im + p_mk)) / (5+sqrt(5)),
    negative exactly when W_m certifies GTE.
    """
    return (GTE_THRESHOLD * np.eye(8, dtype=complex) + energy_observable(m)) / _NORM


def er_lower_bound(c: Couplings) -> float:
    """Closed-form lower bound on the generalized robustness of GTE.

    Maximizes the rescaled energy-witness violation over the middle spins
    m = 1, 2, 3; agrees with the matrix path :func:`er_lower_bound_matrix` to
    machine precision.  Its domain is the couplings of a state.
    """
    return _er_parts(c.p12, c.p13, c.p23, max)[0]


def _er_parts(p12, p13, p23, mx):
    """The E_R bound and the best energy-witness value 3*(p_im + p_mk) over
    middle spins 1, 2 and 3, on floats (mx = max) or arrays (mx = np.maximum).
    Rounding is monotone, so the best value's term is the largest term."""
    best = mx(mx(3.0 * (p12 + p13), 3.0 * (p12 + p23)), 3.0 * (p13 + p23))
    return mx(0.0, (best - GTE_THRESHOLD) / _NORM), best


def er_lower_bound_matrix(c: Couplings) -> float:
    """Same bound evaluated through the three explicit 8x8 operators."""
    rho = rho3(c)
    best = 0.0
    for m in (1, 2, 3):
        best = max(best, -expectation(rho, bounded_energy_witness(m)))
    return best


_GRID = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
# the eight vertex states' singlet weights (p12, p13, p23)
_VERTICES = tuple(itertools.product((-1.0, 1.0), repeat=3))
# Scan order: basis triple (theta2, theta3, phi3), then its 4 GHZ kets
# (alpha) and 16 W kets (beta, gamma), then the vertex states.
_TRIPLES = tuple(itertools.product(_GRID, repeat=3))
_KETS = tuple(("ghz", {"alpha": a}) for a in _GRID) + tuple(
    ("w", {"beta": b, "gamma": g}) for b, g in itertools.product(_GRID, repeat=2)
)
# each grid ket's family and overlap bound, in scan order
_GHZ = np.array([family == "ghz" for family, _ in _KETS] * len(_TRIPLES))
_LAM = np.where(_GHZ, GHZ_OVERLAP, W_OVERLAP)
# A node is evaluated exactly when its screened value lies within this of
# its family's screened minimum; the screen's rounding error is below
# 1e-13 (see _screen), so every exactly minimal node is confirmed.
_CONFIRM_MARGIN = 1e-9


@dataclass(frozen=True)
class GridScanReport:
    """Outcome of the exhaustive extremal-grid witness scan."""

    min_value: float
    argmin: dict
    nodes_evaluated: int
    per_family: dict


def _vertex_rhos() -> np.ndarray:
    return np.stack([_assemble(*v) for v in _VERTICES])


def _local_kets(theta: float, phi: float) -> np.ndarray:
    """The orthonormal single-qubit basis on the Bloch sphere, rows |n>, |-n>:

    |n>  = cos(theta/2)|up> + e^{i phi} sin(theta/2)|down>
    |-n> = -e^{-i phi} sin(theta/2)|up> + cos(theta/2)|down>

    The phase of |-n> is fixed so that at theta = 0 the pair is exactly
    (|up>, |down>).
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, np.exp(1.0j * phi) * s], [-np.exp(-1.0j * phi) * s, c]], dtype=complex)


def _grid_kets() -> np.ndarray:
    """Every grid ket, shape (1280, 8) in scan order, by broadcasting over
    the grid: with theta1 = phi1 = phi2 = 0 and |s1 s2 s3> the product of
    the local kets (s = n or -n),

    GHZ: (|n,n,n> + e^{i alpha} |-n,-n,-n>) / sqrt(2)
    W:   (|n,n,-n> + e^{i beta} |n,-n,n> + e^{i gamma} |-n,n,n>) / sqrt(3)
    """
    local = [
        np.array(list(itertools.starmap(_local_kets, angles)))
        for angles in ([(0.0, 0.0)], [(theta, 0.0) for theta in _GRID], itertools.product(_GRID, repeat=2))
    ]
    # products[t, s1, s2, s3] = |s1> (x) |s2> (x) |s3> on triple t, s = 0 for |n>, 1 for |-n>
    products = np.einsum("uai,xbj,yck->xyabcijk", *local).reshape(len(_TRIPLES), 2, 2, 2, 8)[:, None]
    alpha = np.array(_GRID)[:, None]
    beta, gamma = np.array(list(itertools.product(_GRID, repeat=2))).T[:, :, None]
    ghz = (products[:, :, 0, 0, 0] + np.exp(1.0j * alpha) * products[:, :, 1, 1, 1]) / math.sqrt(2.0)
    w = (
        products[:, :, 0, 0, 1]
        + np.exp(1.0j * beta) * products[:, :, 0, 1, 0]
        + np.exp(1.0j * gamma) * products[:, :, 1, 0, 0]
    ) / math.sqrt(3.0)
    return np.concatenate([ghz, w], axis=1).reshape(-1, 8)


def _node_value(rhos: np.ndarray, psis: np.ndarray, k: int, v: int) -> float:
    """The exact value of node (grid ket k, vertex state v), rounded as
    lam - Re np.vdot(psi, rho @ psi)."""
    psi = psis[k]
    return _LAM[k] - float(np.vdot(psi, rhos[v] @ psi).real)


def _screen(rhos: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Every node value lam - Re psi^H rho psi at once, shape (kets, vertex
    states) in scan order.

    The vertex states are real symmetric, so with psi = a + ib the form is
    a^T rho a + b^T rho b in real arithmetic: per vertex state one real
    product of the stacked a and b rows with rho and one row-wise dot.  Its
    sums run in another order than np.vdot's, so a value may differ from the
    exact one in the last bits: psi is a unit vector and every row of a
    vertex rho has absolute sum at most 1, so each form's 128 terms add up
    to at most 1 in size and its rounding error is below
    128 * 2**-52 < 1e-13.
    """
    parts = np.concatenate([psis.real, psis.imag])
    # one vertex at a time, so that no (vertex, 2 * ket, 8) product array is held
    forms = []
    for rho in rhos.real:
        both = np.einsum("kn,kn->k", parts, parts @ rho)
        forms.append(both[: len(psis)] + both[len(psis) :])
    return _LAM[:, None] - np.stack(forms, axis=1)


def grid_scan_ghz_w() -> GridScanReport:
    """Scan Tr(rho * Pi) over the extremal parameter grid of both families.

    The trace is linear in each p_ij and trigonometric in the angles, so
    its extrema over the admissible box lie on p_ij in {-1, +1} and
    angles on multiples of pi/2; collective rotation invariance pins
    theta1 = phi1 = phi2 = 0.  The scan evaluates every remaining node
    (the vertex states need not be positive semidefinite) and returns the
    global minimum and each family's; a nonnegative result means neither
    family can detect GTE anywhere in the admissible parameter range.

    The report equals that of a node-by-node scan in scan order, each
    value lam - Re np.vdot(psi, rho @ psi), which keeps the first of equal
    minima.  All nodes are screened at once in real arithmetic
    (:func:`_screen`, a^T rho a + b^T rho b for psi = a + ib, each value
    within 1e-13 of the exact one), and exactly the nodes within
    _CONFIRM_MARGIN of their own family's screened minimum are evaluated
    again exactly (:func:`_node_value`).  A node that can be its family's
    minimum screens at most 1e-13 above its exact value, so it is among
    them, and every node left out screens above that minimum.

    Logs one DEBUG record per call: the nodes screened, the nodes confirmed,
    and the largest |screen - exact| among them.
    """
    rhos = _vertex_rhos()
    psis = _grid_kets()
    values = _screen(rhos, psis)
    # each family's screened minimum; the global minimum is one of the two
    cut = np.where(_GHZ, values[_GHZ].min(), values[~_GHZ].min())
    picked = np.nonzero(values <= cut[:, None] + _CONFIRM_MARGIN)
    screened = values[picked]
    values[picked] = [_node_value(rhos, psis, k, v) for k, v in zip(*picked)]
    error = float(np.abs(values[picked] - screened).max())
    _log.debug("grid_scan_ghz_w nodes=%d confirmed=%d screen_error=%r", values.size, screened.size, error)
    # row-major order is scan order, so np.argmin keeps the first of equal minima
    k, v = np.unravel_index(np.argmin(values), values.shape)
    family, phases = _KETS[k % len(_KETS)]
    theta2, theta3, phi3 = _TRIPLES[k // len(_KETS)]
    angles = {"theta1": 0.0, "phi1": 0.0, "phi2": 0.0, "theta2": theta2, "theta3": theta3, "phi3": phi3}
    return GridScanReport(
        min_value=float(values[k, v]),
        argmin={"family": family, "p": list(_VERTICES[v]), "angles": angles, "phases": dict(phases)},
        nodes_evaluated=values.size,
        per_family={"ghz": float(values[_GHZ].min()), "w": float(values[~_GHZ].min())},
    )
