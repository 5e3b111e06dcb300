"""The three-qubit basis convention, applied in one place (tristate._embed).

The rho3 dump, which prints the state's 8x8 matrix at 17 digits, is pinned
by its SHA-256 at three triangles.  The operators placed on their qubits by
_embed are compared with oracles built here: np.kron chains for the Pauli
products and the energy witnesses, and an entry-by-entry rule for an
arbitrary operator on an ordered pair of qubits.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from fermigte import bounded_energy_witness, pauli_dot
from fermigte.cli import main
from fermigte.tristate import _embed

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
ORDERED_PAIRS = list(itertools.permutations((1, 2, 3), 2))

# SHA-256 of `gte-fermi rho3` at a 3D, a 2D and a vanishing-size triangle
RHO3_DUMPS = {
    "--d12 0.7 --d13 1.3 --d23 0.8": "6a8ee09a1bfe65eee46fd33bc8041d87af60fd1e4712ec334cff5f8d1f67c655",
    "--d12 0.7 --d13 1.3 --d23 0.8 --dim 2d": "0c64f04ff92569354a70d15b27e983a3f4834c288a70248006af9a0b67eedea0",
    "--d12 0.5 --d13 1.0 --d23 0.6 --limit": "ef332aed365ef9c981d0b1f5520668bfe23274d8843242d984c135f24fc30d11",
}


def kron_chain(ops: dict[int, np.ndarray]) -> np.ndarray:
    """ops[q] on each listed qubit q and the identity on the others, as
    kron(kron(qubit 1, qubit 2), qubit 3)."""
    a, b, c = (ops.get(q, np.eye(2, dtype=complex)) for q in (1, 2, 3))
    return np.kron(np.kron(a, b), c)


def pair_oracle(op: np.ndarray, i: int, j: int) -> np.ndarray:
    """The 8x8 operator with entries op[(b_i, b_j), (c_i, c_j)] where the
    third qubit's bits agree, basis index 4*b1 + 2*b2 + b3."""
    (k,) = {1, 2, 3} - {i, j}
    out = np.zeros((8, 8), dtype=op.dtype)
    for row, col in itertools.product(range(8), repeat=2):
        b = {q: (row >> (3 - q)) & 1 for q in (1, 2, 3)}
        c = {q: (col >> (3 - q)) & 1 for q in (1, 2, 3)}
        if b[k] == c[k]:
            out[row, col] = op[2 * b[i] + b[j], 2 * c[i] + c[j]]
    return out


@pytest.mark.parametrize("args", RHO3_DUMPS)
def test_rho3_dump_is_unchanged(args, capsys):
    assert main(["rho3", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == RHO3_DUMPS[args]


@pytest.mark.parametrize("i, j", ORDERED_PAIRS)
def test_pauli_dot_equals_its_kron_chain(i, j):
    expect = sum(kron_chain({i: s, j: s}) for s in PAULI)
    assert np.array_equal(pauli_dot(i, j), expect)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_bounded_energy_witness_equals_its_kron_chain(m):
    a, b = sorted({1, 2, 3} - {m})
    # W_m = sigma_a . sigma_m + sigma_m . sigma_b
    observable = sum(kron_chain({a: s, m: s}) for s in PAULI)
    observable = observable + sum(kron_chain({m: s, b: s}) for s in PAULI)
    expect = ((1.0 + math.sqrt(5.0)) * np.eye(8, dtype=complex) + observable) / (5.0 + math.sqrt(5.0))
    assert np.array_equal(bounded_energy_witness(m), expect)


@pytest.mark.parametrize("i, j", ORDERED_PAIRS)
def test_embed_places_a_pair_operator_in_the_order_given(i, j):
    # a generic 4x4 operator: no symmetry hides a swapped pair of qubits
    op = np.arange(16.0).reshape(4, 4) + 1.0j * np.arange(16.0).reshape(4, 4).T ** 2
    assert np.array_equal(_embed(op, (i, j)), pair_oracle(op, i, j))


@pytest.mark.parametrize("q", (1, 2, 3))
def test_embed_places_a_single_qubit_operator(q):
    op = np.array([[1.0, 2.0 - 1.0j], [3.0j, 4.0]])
    assert np.array_equal(_embed(op, (q,)), kron_chain({q: op}))
