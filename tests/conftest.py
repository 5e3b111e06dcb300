"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the code paths they check: Bessel
values come from a truncated power series, the minimum eigenvalue from a
cyclic Jacobi sweep on the real embedding of the Hermitian matrix, the
biseparability hull from sampled lens boundaries and qhull, random
states from direct Haar sampling, polar q* rows from the public
configuration, coupling and bound objects solved one row at a time, the
rows of the other figure sweeps from the scalar point chain one point at a
time, CSV table bodies one row at a time, and the GHZ/W grid scan from kets
built with their own local kets and np.kron products, evaluated and
compared one node at a time, the energy-witness verdict and the closed E_R
bound of both observable signs straight from the weights,
and states of the Werner family from singlet terms built as (I - SWAP)/4.
The parser of the rho3 text dump, which the package only writes, is here too.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from fermigte import (
    Dimensionality,
    TriangleConfig,
    couplings_from_config,
    couplings_zero_limit,
    er_lower_bound,
)
from fermigte.couplings import from_shape
from fermigte.geometry import collinear_shape, polar_shape, scaled
from fermigte.tristate import _assemble


def j1_series(x: float, terms: int = 30) -> float:
    """Ascending power series of J1, truncated at `terms` terms."""
    total = 0.0
    for m in range(terms):
        total += (-1) ** m * (x / 2.0) ** (2 * m + 1) / (
            math.factorial(m) * math.factorial(m + 1)
        )
    return total


def j1_series_with_break(x: float) -> float:
    """The series branch of spherical_j1 written with an early exit: the
    ratio loop over 2m(2m+3), m = 1..10, stops before the first step whose
    term is at most 1e-20, element by element."""
    term = x / 3.0
    total = term
    neg_x2 = -x * x
    for m in range(1, 11):
        if abs(term) <= 1e-20:
            break
        term *= neg_x2 / (2.0 * m * (2.0 * m + 3.0))
        total += term
    return total


SQRT5 = math.sqrt(5.0)

# outer pairs of each energy-witness label's middle spin (2, 3 and 1)
ENERGY_PAIRS = {"123": ("p12", "p23"), "231": ("p13", "p23"), "132": ("p12", "p13")}


def energy_gte_test(c, perm) -> bool:
    """True when the labeled energy witness certifies GTE for c:
    3*(p_im + p_mk) > 1 + sqrt(5) on the middle spin's two pairs."""
    a, b = ENERGY_PAIRS[str(perm)]
    return 3.0 * (getattr(c, a) + getattr(c, b)) > 1.0 + SQRT5


def er_two_sign_oracle(p12: float, p13: float, p23: float) -> float:
    """The closed E_R bound over both signs of every energy witness:
    (3*|p_im + p_mk| - 1 - sqrt(5)) / (5 + sqrt(5)) per middle spin,
    maximized with 0."""
    sums = (p12 + p13, p12 + p23, p13 + p23)
    return max([0.0] + [(3.0 * abs(s) - (1.0 + SQRT5)) / (5.0 + SQRT5) for s in sums])


def sweep_oracle(dim, kfr_values, grid, shape_of) -> list[tuple]:
    """The rows of sweep_collinear or sweep_isosceles (shape_of naming the
    family) as flat tuples (kfr, grid value, bound, witness value, weights),
    one point at a time, kfr-major: the shape, the scalar weights of
    from_shape and the E_R bound and best witness value written out.
    Raises the first point's error."""
    rows = []
    for kfr in kfr_values:
        for v in grid:
            weights = from_shape(shape_of(v), kfr, dim).as_tuple()
            rows.append((kfr, v, *_point_bound(*weights), *weights))
    return rows


def distance_oracle(dims, kfr_grid) -> list[tuple]:
    """The rows of sweep_distance as flat tuples (dim, kfr, ...), one point
    at a time, as in sweep_oracle."""
    rows = []
    for dim in dims:
        for kfr in kfr_grid:
            weights = from_shape(collinear_shape(0.5), kfr, dim).as_tuple()
            rows.append((dim.value, kfr, *_point_bound(*weights), *weights))
    return rows


def csv_body_oracle(template: str, rows) -> str:
    """A CSV table body written one row at a time, template % row per row."""
    return "".join(template % tuple(row) for row in rows)


def _point_bound(p12, p13, p23) -> tuple[float, float]:
    """(E_R bound, best witness value): the largest of 0 and the three
    rescaled energy-witness violations, and 3 times the largest pair sum."""
    sums = (p12 + p13, p12 + p23, p13 + p23)
    er = max(0.0, *[(3.0 * s - (1.0 + SQRT5)) / (5.0 + SQRT5) for s in sums])
    return er, 3.0 * max(sums)


def singlet_term(i: int, j: int) -> np.ndarray:
    """|S_ij><S_ij| (x) I/2 as (I - SWAP_ij)/4, the swap permuting the bits
    of the basis index b = 4*b1 + 2*b2 + b3."""
    swap = np.zeros((8, 8))
    for b in range(8):
        bits = [(b >> (3 - q)) & 1 for q in (1, 2, 3)]
        bits[i - 1], bits[j - 1] = bits[j - 1], bits[i - 1]
        swap[4 * bits[0] + 2 * bits[1] + bits[2], b] = 1.0
    return (np.eye(8) - swap) / 4.0


SINGLET_TERMS = np.stack([singlet_term(1, 2), singlet_term(1, 3), singlet_term(2, 3)])


def werner_states(p: np.ndarray) -> np.ndarray:
    """(1 - p)/8 * I + sum_ij p_ij |S_ij><S_ij| (x) I/2 for each row
    (p12, p13, p23) of p."""
    p = np.asarray(p, dtype=float)
    return np.eye(8) / 8.0 + np.einsum("nk,kab->nab", p, SINGLET_TERMS - np.eye(8) / 8.0)


def psd_werner_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """n weight triples of positive semidefinite Werner states: random
    directions from the maximally mixed state, taken to the boundary of the
    state set (where the smallest eigenvalue, linear along the ray, reaches
    0) and, for the second half, shrunk by a uniform factor into its inside."""
    d = rng.normal(size=(n, 3))
    lam = np.linalg.eigvalsh(werner_states(d) - np.eye(8) / 8.0)[:, 0]
    p = d * (-1.0 / (8.0 * lam))[:, None]
    p[n // 2 :] *= rng.uniform(0.0, 1.0, size=(n - n // 2, 1))
    return p


def bisect_root(f, a: float, b: float, iters: int = 200) -> float:
    fa = f(a)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if (fa > 0.0) != (f(mid) > 0.0):
            b = mid
        else:
            a, fa = mid, f(mid)
    return 0.5 * (a + b)


def polar_gte(dim: Dimensionality, kfr: float, theta: float, q: float) -> bool:
    """Witnessed GTE at one polar point, through the public objects; a
    coincident pair (theta = 0, q = 1/2) shows none."""
    if kfr == 0.0:
        d = polar_shape(theta, q)
        return min(d) > 0.0 and er_lower_bound(couplings_zero_limit(*d)) > 0.0
    cfg = scaled(kfr, polar_shape(theta, q), dim)
    return min(cfg.distances()) > 0.0 and er_lower_bound(couplings_from_config(cfg)) > 0.0


def polar_q_star(dim, kfr, theta, tol=1e-6, calls=None):
    """q* of one polar row, solved on its own: a 33-point pre-scan of
    [0, 1/2] up to the first True -> False step, then bisection of that step
    to width tol (at most 200 steps).  Appends the q of every evaluation to
    calls when given."""

    def gte(q):
        if calls is not None:
            calls.append(q)
        return polar_gte(dim, kfr, theta, q)

    qs = [j / 64.0 for j in range(33)]
    if not gte(qs[0]):
        return 0.0
    for j in range(1, len(qs)):
        if not gte(qs[j]):
            a, b = qs[j - 1], qs[j]
            break
    else:
        return 0.5
    for _ in range(200):
        if b - a <= tol:
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        if gte(mid):
            a = mid
        else:
            b = mid
    raise AssertionError("bisection did not converge")


def matrix_from_text(text: str) -> np.ndarray:
    """Inverse of fermigte.matrix_to_text: one row per line, entries 're+imi'."""
    rows = []
    for line in text.strip().splitlines():
        rows.append([complex(tok.replace("i", "j")) for tok in line.split()])
    return np.array(rows, dtype=complex)


def jacobi_min_eig(h: np.ndarray, sweeps: int = 100, tol: float = 1e-14) -> float:
    """Smallest eigenvalue via cyclic Jacobi on the real 2n x 2n embedding.

    The embedding [[Re, -Im], [Im, Re]] of a Hermitian matrix is symmetric
    with every eigenvalue of the original doubled.
    """
    h = np.asarray(h, dtype=complex)
    a = np.block([[h.real, -h.imag], [h.imag, h.real]])
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= tol:
                    continue
                off = max(off, abs(a[p, q]))
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off <= tol:
            break
    return float(np.min(np.diag(a)))


def lens_points(r_plus: float, r3: float, n: int) -> np.ndarray:
    """Boundary samples of the three Eggeling-Werner lenses on a section.

    The 1|23 lens is -1 <= t <= 0 with t = r1 - 2*r_plus and
    3*r2**2 + 3*r3**2 + (1 - 3*r_plus)**2 <= t**2; its curved side is
    sampled at n + 1 values of t, from the corners (t = -1) to the tip.
    The 12|3 and 13|2 lenses are its +-2*pi/3 rotations.
    """
    c2 = (1.0 - 3.0 * r_plus) ** 2 + 3.0 * r3 * r3
    t = np.linspace(-1.0, -math.sqrt(c2), n + 1)
    r2 = np.sqrt(np.maximum(t * t - c2, 0.0) / 3.0)
    r1 = 2.0 * r_plus + t
    lens = np.column_stack([np.concatenate([r1, r1]), np.concatenate([r2, -r2])])
    parts = []
    for angle in (0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0):
        ca, sa = math.cos(angle), math.sin(angle)
        parts.append(lens @ np.array([[ca, sa], [-sa, ca]]))
    return np.vstack(parts)


def lens_hull(r_plus: float, r3: float, n: int) -> np.ndarray:
    """Vertices of the convex hull of lens_points, counterclockwise from
    the lexicographically smallest (r1, r2): the lower 1|23 corner while
    the lenses keep their corners apart."""
    pts = lens_points(r_plus, r3, n)
    verts = pts[ConvexHull(pts).vertices]
    start = np.lexsort((verts[:, 1], verts[:, 0]))[0]
    return np.roll(verts, -start, axis=0)


def in_lens_hull(r_plus: float, r3: float, point, n: int, tol: float = 1e-9) -> bool:
    """True when point is inside the hull of lens_points or within tol of it."""
    eq = ConvexHull(lens_points(r_plus, r3, n)).equations
    return bool(np.all(eq[:, :2] @ np.asarray(point) + eq[:, 2] <= tol))


_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def random_su2(rng: np.random.Generator) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    gen = sum(a * s for a, s in zip(axis, _PAULIS))
    return math.cos(angle / 2.0) * np.eye(2) - 1.0j * math.sin(angle / 2.0) * gen


def random_config(rng: np.random.Generator) -> TriangleConfig:
    """Realizable distance triple with all k_F * d_ij in [0.05, 20]."""
    while True:
        pts = rng.uniform(0.0, 10.0, size=(3, 2))
        d = (
            float(np.hypot(*(pts[0] - pts[1]))),
            float(np.hypot(*(pts[0] - pts[2]))),
            float(np.hypot(*(pts[1] - pts[2]))),
        )
        if min(d) >= 0.05 and max(d) <= 20.0:
            dim = Dimensionality.THREE_D if rng.random() < 0.5 else Dimensionality.TWO_D
            return TriangleConfig(*d, dim)


def haar_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=n) + 1.0j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_biseparable(rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state separable across a random bipartition."""
    single = haar_state(2, rng)
    pair = haar_state(4, rng)
    cut = rng.integers(3)
    if cut == 0:  # 1|23
        return np.kron(single, pair)
    if cut == 1:  # 12|3
        return np.kron(pair, single)
    # 13|2: pair on qubits (1, 3), single on qubit 2
    return np.einsum("ik,j->ijk", pair.reshape(2, 2), single).reshape(8)


GRID = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
VERTICES = list(itertools.product((-1.0, 1.0), repeat=3))
GHZ_OVERLAP, W_OVERLAP = 0.5, 2.0 / 3.0


def reference_grid_kets():
    """Every grid ket from its own np.kron products, in the operand order of
    the GHZ and W definitions; the local kets are written out directly,
    |n> = (cos(theta/2), e^{i phi} sin(theta/2)) and
    |-n> = (-e^{-i phi} sin(theta/2), cos(theta/2))."""

    def kron3(a, b, c):
        return np.kron(np.kron(a, b), c)

    def local(theta, phi):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([c, np.exp(1.0j * phi) * s]), np.array([-np.exp(-1.0j * phi) * s, c])

    ghz, w = [], []
    for t2, t3, f3 in itertools.product(GRID, repeat=3):
        (k1, x1), (k2, x2), (k3, x3) = local(0.0, 0.0), local(t2, 0.0), local(t3, f3)
        for a in GRID:
            ghz.append((kron3(k1, k2, k3) + np.exp(1.0j * a) * kron3(x1, x2, x3)) / math.sqrt(2.0))
        for b, g in itertools.product(GRID, repeat=2):
            w.append(
                (
                    kron3(k1, k2, x3)
                    + np.exp(1.0j * b) * kron3(k1, x2, k3)
                    + np.exp(1.0j * g) * kron3(x1, k2, k3)
                )
                / math.sqrt(3.0)
            )
    return np.array(ghz), np.array(w)


def reference_node_values():
    """Every grid-scan node value in scan order (basis triple, then the 4 GHZ
    and 16 W kets, then the 8 vertex states), one rho @ psi product per node."""
    rhos = [_assemble(*v) for v in VERTICES]
    ghz, w = reference_grid_kets()
    values = []
    for t in range(64):
        kets = [(GHZ_OVERLAP, psi) for psi in ghz[4 * t : 4 * t + 4]]
        kets += [(W_OVERLAP, psi) for psi in w[16 * t : 16 * t + 16]]
        for lam, psi in kets:
            values += [lam - float(np.real(np.vdot(psi, rho @ psi))) for rho in rhos]
    return np.array(values)


def grid_scan_oracle():
    """(min_value, argmin, per_family) of the GHZ/W grid scan, one node at a
    time in scan order; a strict < keeps the first of equal minima."""
    values = iter(reference_node_values().tolist())
    best, argmin = math.inf, None
    per_family = {"ghz": math.inf, "w": math.inf}
    for t2, t3, f3 in itertools.product(GRID, repeat=3):
        angles = {"theta1": 0.0, "phi1": 0.0, "phi2": 0.0, "theta2": t2, "theta3": t3, "phi3": f3}
        kets = [("ghz", {"alpha": a}) for a in GRID]
        kets += [("w", {"beta": b, "gamma": g}) for b, g in itertools.product(GRID, repeat=2)]
        for family, phases in kets:
            for p in VERTICES:
                value = next(values)
                per_family[family] = min(per_family[family], value)
                if value < best:
                    best = value
                    argmin = {"family": family, "p": list(p), "angles": angles, "phases": phases}
    return best, argmin, per_family


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
