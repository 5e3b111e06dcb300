import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fermigte import (
    Couplings,
    GTE_THRESHOLD,
    bounded_energy_witness,
    couplings_from_config,
    couplings_zero_limit,
    energy_observable,
    er_lower_bound,
    er_lower_bound_matrix,
    expectation,
    grid_scan_ghz_w,
    rho3,
)
import fermigte.witnesses as witnesses_module
from fermigte.couplings import LIMIT_SWITCH
from fermigte.errors import DomainError
from fermigte.geometry import TriangleConfig
from fermigte.witnesses import (
    _KETS,
    _NORM,
    _TRIPLES,
    GHZ_OVERLAP,
    W_OVERLAP,
    _grid_kets,
    _node_values,
    _screen,
    _vertex_rhos,
)

from conftest import (
    energy_gte_test,
    er_two_sign_oracle,
    grid_scan_oracle,
    jacobi_min_eig,
    psd_werner_weights,
    random_biseparable,
    random_config,
    reference_grid_kets,
    reference_node_values,
    werner_states,
)

LIMIT = couplings_zero_limit(0.5, 1.0, 0.5)
MIDDLES = (1, 2, 3)

SQRT5 = math.sqrt(5.0)

p_st = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def grid_kets_by_family():
    """The scan's grid kets split by family, each in scan order."""
    ghz = np.array([family == "ghz" for family, _ in _KETS] * len(_TRIPLES))
    psis = _grid_kets()
    return psis[ghz], psis[~ghz]


class TestGridKets:
    # rows 0-3 are the standard triple's GHZ kets (alpha), rows 4-19 its W
    # kets (beta outer, gamma inner)
    def test_standard_ghz(self):
        expect = np.zeros(8, dtype=complex)
        expect[0] = expect[7] = 1.0 / math.sqrt(2.0)
        assert np.allclose(_grid_kets()[0], expect, atol=1e-15)

    def test_ghz_pi(self):
        expect = np.zeros(8, dtype=complex)
        expect[0], expect[7] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
        assert _KETS[2] == ("ghz", {"alpha": math.pi})
        assert np.allclose(_grid_kets()[2], expect, atol=1e-15)

    def test_standard_w(self):
        expect = np.zeros(8, dtype=complex)
        expect[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
        assert np.allclose(_grid_kets()[4], expect, atol=1e-15)

    def test_w_phase_placement(self):
        expect = np.zeros(8, dtype=complex)
        expect[[1, 4]] = 1.0 / math.sqrt(3.0)
        expect[2] = -1.0 / math.sqrt(3.0)
        assert _KETS[12] == ("w", {"beta": math.pi, "gamma": 0.0})
        assert np.allclose(_grid_kets()[12], expect, atol=1e-14)

    def test_kets_are_normalized(self):
        assert np.allclose(np.linalg.norm(_grid_kets(), axis=1), 1.0, rtol=0.0, atol=1e-14)


def projector_witness(lam, psi):
    """Lambda*I - |psi><psi|, the witness the grid scan evaluates."""
    return lam * np.eye(8) - np.outer(psi, psi.conj())


class TestProjectorOnStates:
    def test_on_its_own_state(self):
        v = _grid_kets()[0]
        w = projector_witness(GHZ_OVERLAP, v)
        assert expectation(np.outer(v, v.conj()), w) == pytest.approx(-0.5, abs=1e-14)

    def test_w_witness_on_maximally_mixed(self):
        v = _grid_kets()[4]
        w = projector_witness(W_OVERLAP, v)
        value = expectation(np.eye(8, dtype=complex) / 8.0, w)
        assert value == pytest.approx(13.0 / 24.0, abs=1e-14)

    def test_w_witness_on_reduced_state(self):
        # the singlet cross terms cancel, leaving 2/3 - (1-p)/8
        c = couplings_zero_limit(0.3, 1.0, 0.8)
        v = _grid_kets()[4]
        w = projector_witness(W_OVERLAP, v)
        assert expectation(rho3(c), w) == pytest.approx(2.0 / 3.0 - (1.0 - c.p) / 8.0, abs=1e-13)


class TestEnergyObservable:
    @pytest.mark.parametrize("m", MIDDLES)
    def test_traceless(self, m):
        assert abs(np.trace(energy_observable(m))) <= 1e-14

    @pytest.mark.parametrize("m", MIDDLES)
    def test_spectrum(self, m):
        w = energy_observable(m)
        eigs = np.linalg.eigvalsh(w)
        expect = np.array([-4.0, -4.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0])
        assert np.allclose(eigs, expect, atol=1e-12)
        # independent cross-check of the extremes
        assert jacobi_min_eig(w) == pytest.approx(-4.0, abs=1e-10)
        assert jacobi_min_eig(-w) == pytest.approx(-2.0, abs=1e-10)

    def test_distinct_members(self):
        mats = [energy_observable(m) for m in MIDDLES]
        assert not np.allclose(mats[0], mats[1])
        assert not np.allclose(mats[0], mats[2])
        assert not np.allclose(mats[1], mats[2])

    def test_limit_state_magnitude(self):
        value = expectation(rho3(LIMIT), energy_observable(2))
        assert abs(value) == pytest.approx(4.0, abs=1e-12)
        assert abs(value) > GTE_THRESHOLD

    def test_rejects_unknown_middle_spin(self):
        for m in (0, 4, "2"):
            with pytest.raises(DomainError):
                energy_observable(m)


def minus_sign_operator(m):
    """((1+sqrt(5))*I - W_m) / (5+sqrt(5)), the opposite-sign partner of
    the bounded energy witness, which the package does not carry."""
    return ((1.0 + SQRT5) * np.eye(8) - energy_observable(m)) / (5.0 + SQRT5)


class TestEnergyGteTest:
    # energy_gte_test is the test oracle; these pin it to the operators
    def test_limit_state(self):
        assert energy_gte_test(LIMIT, 2) is True
        assert expectation(rho3(LIMIT), bounded_energy_witness(2)) < 0.0

    def test_equilateral_below_threshold(self):
        for p in (-1.0 / 3.0, 0.0, 1.0 / 3.0):
            c = Couplings(p, p, p)
            assert not any(energy_gte_test(c, m) for m in MIDDLES)

    def test_uncorrelated(self):
        assert energy_gte_test(Couplings(0.0, 0.0, 0.0), 2) is False

    def test_agrees_with_the_witness_operator(self, rng):
        for p in psd_werner_weights(rng, 100).tolist():
            c = Couplings(*p)
            for m in MIDDLES:
                value = expectation(rho3(c), bounded_energy_witness(m))
                if abs(value) > 1e-9:
                    assert energy_gte_test(c, m) is (value < 0.0)


class TestBoundedWitness:
    @pytest.mark.parametrize("m", MIDDLES)
    def test_is_the_plus_sign_operator(self, m):
        w = bounded_energy_witness(m)
        expect = ((1.0 + SQRT5) * np.eye(8, dtype=complex) + energy_observable(m)) / (5.0 + SQRT5)
        assert np.array_equal(w, expect)
        assert np.linalg.eigvalsh(w)[-1] == pytest.approx((3.0 + SQRT5) / (5.0 + SQRT5), abs=1e-12)

    def test_takes_no_sign(self):
        with pytest.raises(TypeError):
            bounded_energy_witness(2, 1)

    @pytest.mark.parametrize("m", MIDDLES)
    def test_minus_sign_saturates_unity(self, m):
        w = minus_sign_operator(m)
        assert np.linalg.eigvalsh(w)[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", MIDDLES)
    def test_minus_sign_is_positive_definite(self, m):
        # so the sign -1 half never detects GTE, and is not carried
        w = minus_sign_operator(m)
        expect = (SQRT5 - 1.0) / (5.0 + SQRT5)
        assert np.linalg.eigvalsh(w)[0] == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.1708203932, abs=1e-10)

    @pytest.mark.parametrize("m", MIDDLES)
    def test_plus_sign_bound(self, m):
        w = bounded_energy_witness(m)
        expect = (3.0 + SQRT5) / (5.0 + SQRT5)
        assert np.linalg.eigvalsh(w)[-1] == pytest.approx(expect, abs=1e-12)

    def test_dual_feasibility(self):
        for m in MIDDLES:
            w = bounded_energy_witness(m)
            assert np.linalg.eigvalsh(w)[-1] <= 1.0 + 1e-10

    def test_detecting_sign_on_limit_state(self):
        value = expectation(rho3(LIMIT), bounded_energy_witness(2))
        assert value == pytest.approx((1.0 + SQRT5 - 4.0) / (5.0 + SQRT5), abs=1e-12)

    def test_nonnegative_on_biseparable(self, rng):
        wits = [bounded_energy_witness(m) for m in MIDDLES]
        for _ in range(1000):
            v = random_biseparable(rng)
            for w in wits:
                assert float(np.real(np.vdot(v, w @ v))) >= -1e-10

    def test_three_operators_per_matrix_bound(self, monkeypatch):
        built = []
        krons = []
        kron = np.kron

        def counting(m):
            built.append(m)
            return bounded_energy_witness(m)

        def counting_kron(a, b):
            krons.append(None)
            return kron(a, b)

        monkeypatch.setattr(witnesses_module, "bounded_energy_witness", counting)
        monkeypatch.setattr(np, "kron", counting_kron)
        er_lower_bound_matrix(LIMIT)
        assert sorted(built) == sorted(MIDDLES)
        # the Pauli construction: 2 krons per single-qubit operator, 24 per witness
        assert len(krons) == 72


class TestErLowerBound:
    def test_limit_value(self):
        expect = (3.0 - SQRT5) / (5.0 + SQRT5)
        assert expect == pytest.approx(0.1055728090, abs=1e-9)
        assert er_lower_bound(LIMIT) == pytest.approx(expect, abs=1e-9)

    def test_equilateral_always_zero(self):
        for p in np.linspace(-1.0 / 3.0, 1.0 / 3.0, 7):
            assert er_lower_bound(Couplings(float(p), float(p), float(p))) == 0.0

    def test_vanishes_at_witness_threshold(self):
        c = Couplings(0.539345, -0.160702, 0.539345)
        assert er_lower_bound(c) == pytest.approx(0.0, abs=1e-4)

    def test_matrix_path_agreement(self, rng):
        for p in psd_werner_weights(rng, 200).tolist():
            c = Couplings(*p)
            assert abs(er_lower_bound(c) - er_lower_bound_matrix(c)) <= 1e-12

    @given(p_st, p_st, p_st)
    @settings(max_examples=100, deadline=None)
    def test_relabel_invariance(self, p12, p13, p23):
        assume(abs(p12 + p13 + p23) <= 1.0)
        # swapping particles 1 and 3 maps (p12, p13, p23) -> (p23, p13, p12)
        a = er_lower_bound(Couplings(p12, p13, p23))
        b = er_lower_bound(Couplings(p23, p13, p12))
        assert a == b

    def test_nonnegative(self):
        assert er_lower_bound(Couplings(0.0, 0.0, 0.0)) == 0.0

    @given(p_st, p_st, p_st)
    @settings(max_examples=300, deadline=None)
    # pair sums -1.5, -1.5, -1.0: no state has them; the sign +1 formula gives 0
    @example(-1.0, -0.5, -0.5)
    def test_equals_the_per_middle_formula(self, p12, p13, p23):
        # exact: the closed form is one sign +1 formula per middle spin,
        # maximized with 0
        sums = (p12 + p13, p12 + p23, p13 + p23)
        expect = max([0.0] + [(3.0 * s - GTE_THRESHOLD) / _NORM for s in sums])
        assert er_lower_bound(Couplings(p12, p13, p23)) == expect

    def test_non_state_weights_take_the_sign_plus_formula(self):
        c = Couplings(-1.0, -0.5, -0.5)
        assert min(np.linalg.eigvalsh(werner_states([[-1.0, -0.5, -0.5]])[0])) < 0.0
        assert er_two_sign_oracle(c.p12, c.p13, c.p23) > 0.0
        assert er_lower_bound(c) == 0.0

    def test_equals_the_two_sign_oracle_on_states(self, rng):
        # every state's bound is unchanged by dropping the sign -1 half
        seen = set()
        for k in range(2000):
            cfg = random_config(rng)
            if k % 4 == 0:  # shrink below LIMIT_SWITCH: the limit branch
                scale = 10.0 ** rng.uniform(-8.0, -5.0)
                cfg = TriangleConfig(cfg.d12 * scale, cfg.d13 * scale, cfg.d23 * scale, cfg.dim)
            limit = max(cfg.d12, cfg.d13, cfg.d23) < LIMIT_SWITCH
            seen.add((cfg.dim, limit))
            c = couplings_from_config(cfg)
            assert er_lower_bound(c) == er_two_sign_oracle(c.p12, c.p13, c.p23)
        assert len(seen) == 4

    def test_pair_sums_of_states_are_at_least_minus_two_thirds(self, rng):
        p = psd_werner_weights(rng, 20000)
        assert np.linalg.eigvalsh(werner_states(p))[:, 0].min() >= -1e-12
        sums = np.concatenate([p[:, 0] + p[:, 1], p[:, 0] + p[:, 2], p[:, 1] + p[:, 2]])
        assert sums.min() >= -2.0 / 3.0 - 1e-12
        # attained at p_ij = -1/3, a state on the boundary of the state set
        corner = werner_states([[-1.0 / 3.0] * 3])[0]
        assert min(np.linalg.eigvalsh(corner)) == pytest.approx(0.0, abs=1e-15)


class TestGridScan:
    def test_negative_result(self):
        report = grid_scan_ghz_w()
        assert report.min_value >= -1e-12
        assert report.nodes_evaluated == 10240

    def test_node_count_breakdown(self):
        # W family alone: 8 vertex states x 4 theta2 x 4 theta3 x 4 phi3
        # x 4 beta x 4 gamma
        assert 8 * 4 * 4 * 4 * 4 * 4 == 8192
        report = grid_scan_ghz_w()
        assert set(report.per_family) == {"ghz", "w"}
        assert report.per_family["ghz"] >= -1e-12
        assert report.per_family["w"] >= -1e-12

    def test_grid_kets_equal_the_reference(self):
        # by value: a zero may differ in sign from the kron products' one
        ghz, w = grid_kets_by_family()
        ref_ghz, ref_w = reference_grid_kets()
        assert len(ref_ghz) + len(ref_w) == 1280
        assert np.array_equal(ghz, ref_ghz)
        assert np.array_equal(w, ref_w)

    def test_pinned_minimum(self):
        # the JSON prints this rounding-noise value, so it must not drift
        report = grid_scan_ghz_w()
        assert report.min_value == -1.1102230246251565e-16
        assert report.argmin == {
            "family": "w",
            "p": [1.0, 1.0, -1.0],
            "angles": dict.fromkeys(("theta1", "phi1", "phi2", "theta2", "theta3", "phi3"), 0.0),
            "phases": {"beta": 0.0, "gamma": math.pi},
        }

    def test_every_node_value_matches_a_per_node_product(self):
        # the exact path multiplies all vertex states by a ket at once; a
        # stacked product that rounds differently from rho @ psi fails here
        expect = reference_node_values()
        rhos, psis = _vertex_rhos(), _grid_kets()
        values = np.array([v for k in range(len(psis)) for v in _node_values(rhos, psis, k)])
        assert len(values) == len(expect) == 10240
        assert np.array_equal(values, expect)
        assert grid_scan_ghz_w().min_value == expect.min()

    def test_screen_is_within_rounding_of_every_node(self):
        screen = _screen(_vertex_rhos(), _grid_kets())
        assert screen.shape == (1280, 8)
        assert np.max(np.abs(screen.ravel() - reference_node_values())) <= 1e-12

    @pytest.mark.parametrize("perturbation", ["none", "noise", "ghz_far_above"])
    def test_matches_the_node_by_node_oracle(self, monkeypatch, rng, perturbation):
        # the confirmation recovers every reported value exactly from the
        # screen, from one off by up to 1e-11 per node (far above its
        # rounding, far below the margin), and from one that puts every GHZ
        # ket far above the W minimum (each family's own minimum is confirmed)
        offset = {
            "none": 0.0,
            "noise": rng.uniform(-1e-11, 1e-11, size=(len(_TRIPLES) * len(_KETS), 8)),
            "ghz_far_above": np.array([[family == "ghz"] for family, _ in _KETS] * len(_TRIPLES), dtype=float),
        }[perturbation]
        screen = witnesses_module._screen
        monkeypatch.setattr(witnesses_module, "_screen", lambda *args: screen(*args) + offset)
        min_value, argmin, per_family = grid_scan_oracle()
        report = grid_scan_ghz_w()
        assert report.min_value == min_value
        assert report.argmin == argmin
        assert report.per_family == per_family

    def test_builds_no_product_ket_with_kron(self, monkeypatch):
        # the kets come from one broadcast, so the exact pass rebuilds none
        calls = []
        kron = np.kron

        def counting_kron(a, b):
            calls.append(None)
            return kron(a, b)

        monkeypatch.setattr(np, "kron", counting_kron)
        report = grid_scan_ghz_w()
        assert report.nodes_evaluated == 10240
        assert calls == []

    def test_logs_one_record_per_scan(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="fermigte"):
            grid_scan_ghz_w()
        (record,) = [r for r in caplog.records if r.name == "fermigte.witnesses"]
        assert record.levelno == logging.DEBUG
        nodes, kets, error = record.args
        assert nodes == 10240
        assert 0 < kets <= 1280
        assert 0.0 <= error <= 1e-12

    def test_silent_by_default(self, caplog):
        grid_scan_ghz_w()
        assert not [r for r in caplog.records if r.name.startswith("fermigte")]

    def test_ghz_value_at_limit_couplings(self):
        # with p = 1 the GHZ overlap vanishes, so Tr(rho Pi) = 1/2
        v = _grid_kets()[0]
        w = projector_witness(GHZ_OVERLAP, v)
        assert expectation(rho3(LIMIT), w) == pytest.approx(0.5, abs=1e-14)

    def test_grid_witnesses_nonnegative_on_biseparables(self, rng):
        ghz, w = grid_kets_by_family()
        b = np.array([random_biseparable(rng) for _ in range(1000)])
        ghz_overlap = np.max(np.abs(ghz.conj() @ b.T) ** 2)
        w_overlap = np.max(np.abs(w.conj() @ b.T) ** 2)
        assert GHZ_OVERLAP - ghz_overlap >= -1e-10
        assert W_OVERLAP - w_overlap >= -1e-10
