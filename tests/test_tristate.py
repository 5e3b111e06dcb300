import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigte import (
    Couplings,
    Dimensionality,
    couplings_from_config,
    expectation,
    matrix_to_text,
    min_eigenvalue,
    pauli_dot,
    rho3,
    werner_coords,
)
from fermigte.errors import (
    InvalidCouplingsError,
    NonHermitianInputError,
)
from fermigte.geometry import collinear_shape, scaled

from conftest import jacobi_min_eig, matrix_from_text, random_config, random_su2

D2, D3 = Dimensionality.TWO_D, Dimensionality.THREE_D

LIMIT = Couplings(2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0)

p_st = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestRho3:
    def test_uncorrelated_is_maximally_mixed(self):
        assert np.allclose(rho3(Couplings(0.0, 0.0, 0.0)), np.eye(8) / 8.0, atol=1e-15)

    def test_limit_state_corner_elements(self):
        m = rho3(LIMIT)
        assert abs(m[0b000, 0b000]) <= 1e-15
        assert abs(m[0b000, 0b111]) <= 1e-15

    def test_pure_pair_singlet_elements(self):
        m = rho3(Couplings(1.0, 0.0, 0.0))
        assert m[0b010, 0b010] == pytest.approx(0.25, abs=1e-15)
        assert m[0b010, 0b100] == pytest.approx(-0.25, abs=1e-15)

    def test_rejects_far_out_of_bounds(self):
        with pytest.raises(InvalidCouplingsError):
            rho3(Couplings(1.0 + 1e-5, 0.0, 0.0))

    def test_rejects_weights_of_no_state(self):
        with pytest.raises(InvalidCouplingsError, match=r"rho3 ≥ 0 violated"):
            rho3(Couplings(-0.9, 0.9, 0.9))

    def test_warns_on_rounding_excess(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            # p12 and p exceed 1 by 5e-7; the smallest eigenvalue is -6.25e-8
            rho3(Couplings(1.0 + 5e-7, 0.0, 0.0))
        assert len(rec) == 1

    def test_physicality_over_random_configs(self, rng):
        for _ in range(200):
            c = couplings_from_config(random_config(rng))
            m = rho3(c)
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
            assert abs(np.trace(m).real - 1.0) <= 1e-12
            assert abs(np.trace(m).imag) <= 1e-12
            assert min_eigenvalue(m) >= -1e-10

    def test_collective_rotation_invariance(self, rng):
        m = rho3(couplings_from_config(scaled(1.3, collinear_shape(0.3), D3)))
        for _ in range(20):
            u = random_su2(rng)
            u3 = np.kron(np.kron(u, u), u)
            assert np.max(np.abs(u3 @ m @ u3.conj().T - m)) <= 1e-10

    def test_pair_correlations(self, rng):
        # Tr(rho sigma_i . sigma_j) = -3 p_ij with the singlet convention
        for _ in range(20):
            c = couplings_from_config(random_config(rng))
            m = rho3(c)
            for pair, p in (((1, 2), c.p12), ((1, 3), c.p13), ((2, 3), c.p23)):
                assert expectation(m, pauli_dot(*pair)) == pytest.approx(
                    -3.0 * p, abs=1e-12
                )


class TestWernerCoords:
    def test_limit_values(self):
        w = werner_coords(LIMIT)
        assert w.r_plus == pytest.approx(0.0, abs=1e-15)
        assert w.r0 == pytest.approx(1.0, abs=1e-15)
        assert w.r1 == pytest.approx(-0.5, abs=1e-15)
        assert w.r2 == pytest.approx(-math.sqrt(3.0) / 2.0, abs=1e-15)
        assert w.r3 == 0.0

    def test_threshold_values(self):
        w = werner_coords(Couplings(0.539345, -0.160702, 0.539345))
        assert w.r_plus == pytest.approx(0.041, abs=5e-4)
        assert w.r1 == pytest.approx(-0.350, abs=5e-4)
        assert w.r2 == pytest.approx(math.sqrt(3.0) * w.r1, abs=1e-15)

    def test_uncorrelated(self):
        w = werner_coords(Couplings(0.0, 0.0, 0.0))
        assert (w.r_plus, w.r0, w.r1, w.r2, w.r3) == (0.5, 0.5, 0.0, 0.0, 0.0)

    @given(p_st, p_st, p_st)
    @settings(max_examples=200, deadline=None)
    def test_sum_rule_and_vanishing_r3(self, p12, p13, p23):
        w = werner_coords(Couplings(p12, p13, p23))
        assert w.r_plus + w.r0 == pytest.approx(1.0, abs=1e-15)
        assert w.r3 == 0.0

    def test_symmetric_collinear_ray(self, rng):
        # mirror symmetry pins the state to the line r2 = sqrt(3) r1
        for _ in range(20):
            kfr = float(rng.uniform(0.1, 6.0))
            w = werner_coords(couplings_from_config(scaled(kfr, collinear_shape(0.5), D3)))
            assert w.r2 == pytest.approx(math.sqrt(3.0) * w.r1, abs=1e-14)


class TestExpectation:
    def test_identity(self):
        assert expectation(np.eye(8, dtype=complex) / 8.0, np.eye(8, dtype=complex)) == (
            pytest.approx(1.0, abs=1e-15)
        )

    def test_energy_witness_magnitude(self):
        from fermigte import energy_observable

        value = expectation(rho3(LIMIT), energy_observable(2))
        assert abs(value) == pytest.approx(4.0, abs=1e-12)

    def test_traceless_observable_on_mixed_state(self):
        obs = pauli_dot(1, 2)
        assert expectation(rho3(Couplings(0.0, 0.0, 0.0)), obs) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_rejects_non_hermitian(self):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NonHermitianInputError):
            expectation(np.eye(8, dtype=complex) / 8.0, bad)


class TestMinEigenvalue:
    def test_maximally_mixed(self):
        assert min_eigenvalue(np.eye(8, dtype=complex) / 8.0) == pytest.approx(
            0.125, abs=1e-15
        )

    def test_limit_state_is_positive(self):
        assert min_eigenvalue(rho3(LIMIT)) >= -1e-10

    def test_rank_one_projector(self):
        m = np.zeros((8, 8), dtype=complex)
        m[0, 0] = 1.0
        assert min_eigenvalue(m) == pytest.approx(0.0, abs=1e-15)

    def test_against_jacobi_oracle(self, rng):
        for _ in range(10):
            c = couplings_from_config(random_config(rng))
            m = rho3(c)
            assert min_eigenvalue(m) == pytest.approx(jacobi_min_eig(m), abs=1e-10)


class TestMatrixDump:
    def test_round_trip(self):
        m = rho3(couplings_from_config(scaled(1.9, collinear_shape(0.4), D2)))
        again = matrix_from_text(matrix_to_text(m))
        assert np.array_equal(m, again)

    def test_format_shape(self):
        text = matrix_to_text(np.eye(8, dtype=complex) / 8.0)
        lines = text.strip().splitlines()
        assert len(lines) == 8
        assert all(len(line.split()) == 8 for line in lines)
        assert lines[0].split()[0] == "0.125+0i"
