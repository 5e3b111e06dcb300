import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermigte import (
    Couplings,
    Dimensionality,
    TriangleConfig,
    couplings_from_config,
    couplings_zero_limit,
    f_factor,
    sweep_collinear,
    validate_couplings,
)
from fermigte.couplings import LIMIT_SWITCH, _kernel_formula, _min_eigenvalue, from_shape
from fermigte.errors import (
    DegenerateDenominatorError,
    DomainError,
    FermiGteError,
    InvalidCouplingsError,
)
from fermigte.geometry import (
    collinear_shape,
    equilateral_shape,
    isosceles_shape,
    polar_shape,
    scaled,
)
from fermigte.specfun import X_MAX

from conftest import psd_werner_weights, public_couplings, random_config, unit_points, werner_states

D2, D3 = Dimensionality.TWO_D, Dimensionality.THREE_D


class TestZeroLimit:
    def test_evenly_spaced_collinear(self):
        c = couplings_zero_limit(0.5, 1.0, 0.5)
        assert abs(c.p12 - 2.0 / 3.0) <= 1e-15
        assert abs(c.p13 + 1.0 / 3.0) <= 1e-15
        assert abs(c.p23 - 2.0 / 3.0) <= 1e-15

    def test_isosceles_pair_sum(self):
        # sides (s, 1, s) with s^2 = 1/4 + y^2 give p12 + p23 = 2/(3/2 + 2y^2)
        for y in (0.0, 0.1, 0.3, 0.42, 0.7):
            s = math.hypot(0.5, y)
            c = couplings_zero_limit(s, 1.0, s)
            assert c.p12 + c.p23 == pytest.approx(2.0 / (1.5 + 2.0 * y * y), abs=1e-14)

    def test_collinear_pair_sum(self):
        # sides (u, 1, 1-u) give p12 + p23 = 1/(1 - u + u^2)
        for u in (0.1, 0.25, 0.5, 0.8):
            c = couplings_zero_limit(u, 1.0, 1.0 - u)
            assert c.p12 + c.p23 == pytest.approx(1.0 / (1.0 - u + u * u), abs=1e-14)

    def test_coincident_pair(self):
        # the coincident pair takes the whole singlet weight, exactly
        assert couplings_zero_limit(0.0, 1.0, 1.0).as_tuple() == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            couplings_zero_limit(bad, 1.0, 1.0)

    def test_rejects_equilateral(self):
        with pytest.raises(DegenerateDenominatorError):
            couplings_zero_limit(1.0, 1.0, 1.0)

    def test_rejects_unrealizable(self):
        with pytest.raises(DomainError):
            couplings_zero_limit(0.1, 1.0, 0.5)

    def test_triangle_config_rejects_the_same_triple(self):
        # both forgive 1e-12 of the longest side, and no more, at any scale
        d = (1e-3, 1e-3, 2e-3 + 1e-14)
        for check in (lambda: TriangleConfig(*d, D3), lambda: couplings_zero_limit(*d)):
            with pytest.raises(DomainError, match="triangle inequality"):
                check()

    @pytest.mark.parametrize("scale", [2.0**-1000, 1e-300, 1e-160, 1e160, 1e300, 2.0**1000])
    def test_scale_free_without_underflow(self, scale):
        # the squares of these distances underflow or overflow unscaled
        shape = (1.0, 1.0, 1.5)
        ref = couplings_zero_limit(*shape).as_tuple()
        got = couplings_zero_limit(*(scale * v for v in shape)).as_tuple()
        assert got == pytest.approx(ref, abs=1e-15)
        if math.frexp(scale)[0] == 0.5:
            assert got == ref  # a power of two scales exactly

    @pytest.mark.parametrize("dim", [D3, D2])
    def test_validated_against_direct_evaluation(self, dim):
        # the closed form must match the defining formula at scale 1e-4
        shapes = [(0.5, 1.0, 0.5), (0.3, 1.0, 0.8), (0.9, 1.0, 0.4), (1.0, 0.7, 0.5)]
        for shape in shapes:
            lim = couplings_zero_limit(*shape)
            cfg = TriangleConfig(*(1e-4 * s for s in shape), dim)
            direct = couplings_from_config(cfg)
            for a, b in zip(lim.as_tuple(), direct.as_tuple()):
                assert abs(a - b) <= 1e-6

    def test_dimension_independent(self):
        # the limit is shape-only: 2D and 3D evaluations converge to it
        shape = (0.4, 1.0, 0.7)
        lim = couplings_zero_limit(*shape)
        for dim in (D2, D3):
            direct = couplings_from_config(TriangleConfig(*(2e-4 * s for s in shape), dim))
            for a, b in zip(lim.as_tuple(), direct.as_tuple()):
                assert abs(a - b) <= 1e-6


class TestFromConfig:
    def test_falls_back_to_limit_below_switch(self):
        cfg = TriangleConfig(2e-4, 4e-4, 2e-4, D3)
        c = couplings_from_config(cfg)
        lim = couplings_zero_limit(2e-4, 4e-4, 2e-4)
        assert c.as_tuple() == lim.as_tuple()

    def test_far_apart_weights_vanish(self):
        for dim, d in ((D2, (30.0, 30.0, 30.0)), (D3, (32.0, 35.0, 31.0))):
            c = couplings_from_config(TriangleConfig(*d, dim))
            assert all(abs(p) <= 0.01 for p in c.as_tuple())

    def test_three_d_threshold_weights(self):
        c = couplings_from_config(scaled(2.5964, collinear_shape(0.5), D3))
        assert c.p12 == pytest.approx(0.539345, abs=1e-5)
        assert c.p23 == pytest.approx(0.539345, abs=1e-5)
        assert c.p13 == pytest.approx(-0.160702, abs=1e-5)

    @pytest.mark.parametrize("dim", [D2, D3])
    @pytest.mark.parametrize("s", [1e-6, 1e-4, 9.99e-4, 1e-3, 1e-2, 1.0])
    def test_coincident_pair_at_any_scale(self, dim, s):
        # f12 = 1 gives p12 = 1 and p13 = p23 = 0 at every scale, on both
        # sides of LIMIT_SWITCH
        c = couplings_from_config(TriangleConfig(0.0, s, s, dim))
        assert c.as_tuple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)

    def test_shrinking_equilateral_rejected(self):
        with pytest.raises(DegenerateDenominatorError):
            couplings_from_config(scaled(5e-4, equilateral_shape(), D3))

    def test_equilateral_symmetric(self):
        for kfr in (0.3, 1.0, 4.0):
            c = couplings_from_config(scaled(kfr, equilateral_shape(), D3))
            assert c.p12 == c.p13 == c.p23

    def test_sum_stored_consistently(self):
        c = couplings_from_config(scaled(1.7, collinear_shape(0.3), D2))
        assert c.p == c.p12 + c.p13 + c.p23

    def test_limit_mode_convergence_rate(self, rng):
        # error against the limit falls as the square of the scale
        for _ in range(8):
            while True:
                p2, p3 = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
                d = np.array(
                    [np.hypot(*p2), np.hypot(*p3), np.hypot(*(p3 - p2))]
                )
                d /= d.max()
                if d.min() > 0.2 and d.max() - d.min() > 1e-3 * d.max():
                    break
            lim = couplings_zero_limit(*d)

            def err(eps):
                c = couplings_from_config(TriangleConfig(*(eps * d), D3))
                return max(abs(a - b) for a, b in zip(c.as_tuple(), lim.as_tuple()))

            ratio = err(1e-2) / err(1e-3)
            assert ratio == pytest.approx(100.0, rel=0.25)


class TestFromShape:
    def test_zero_separation_is_the_limit(self):
        shape = collinear_shape(0.3)
        for dim in (D2, D3):
            assert from_shape(shape, 0.0, dim) == couplings_zero_limit(*shape)

    def test_finite_separation_scales_the_shape(self):
        # above the switch; below it the unit shape's limit, subnormal kfrs included
        shape = collinear_shape(0.3)
        assert from_shape(shape, 1.7, D2) == couplings_from_config(scaled(1.7, shape, D2))
        for kfr in (5e-324, 2e-323, 1e-300, 5e-4):
            assert from_shape(shape, kfr, D2) == couplings_zero_limit(*shape)

    @pytest.mark.parametrize("kfr", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
    def test_rejects_bad_separation(self, kfr):
        # kfr is checked before the shape, so an invalid shape shows the kfr error
        for shape in (collinear_shape(0.3), (2.0, 1.0, 0.5)):
            with pytest.raises(DomainError) as info:
                from_shape(shape, kfr, D3)
            assert str(info.value) == f"kfr must be finite and nonnegative, got {kfr}"

    def test_equilateral_has_no_limit(self):
        with pytest.raises(DegenerateDenominatorError):
            from_shape(equilateral_shape(), 0.0, D3)


def _outcome(fn):
    """fn()'s value, or the type and message of the package error it raises."""
    try:
        return fn()
    except FermiGteError as exc:
        return type(exc), str(exc)


class TestFloatCore:
    """from_shape gives from_config's (or the limit's) weights and errors,
    and the sweeps' array form the same values and checks, bit for bit."""

    # straddles LIMIT_SWITCH, where the shape-only limit hands over to the
    # kernel formula, and reaches down to the subnormals
    KFRS = [0.0, 5e-324, 2e-323, 1e-310, 2e-4, 5e-4, 9.99e-4, 1e-3, 1.0005e-3, 1.5e-3, 3e-3]
    KFRS += [0.02, 0.5, 1.0, 2.59, 7.3, 49.0, 50.0, 60.0, -1.0, math.nan, math.inf]
    SHAPES = [collinear_shape(x) for x in (0.0, 0.1, 0.5, 0.77, 1.0)]
    SHAPES += [isosceles_shape(y) for y in (0.0, 0.3, math.sqrt(3.0) / 2.0, 1.2)]
    SHAPES += [polar_shape(t, q) for t in (0.0, 0.7, math.pi / 2.0) for q in (0.0, 0.21, 0.5)]
    SHAPES += [equilateral_shape()]

    @staticmethod
    def _public(shape, kfr, dim):
        return public_couplings(shape, kfr, dim).as_tuple()

    @pytest.mark.parametrize("dim", [D2, D3])
    def test_from_shape_equals_from_config(self, dim):
        kinds = Counter()
        for shape in self.SHAPES:
            for kfr in self.KFRS:
                got = _outcome(lambda: from_shape(shape, kfr, dim).as_tuple())
                assert got == _outcome(lambda: self._public(shape, kfr, dim)), (shape, kfr)
                if isinstance(got[0], type):
                    kinds[got[0]] += 1
                else:
                    kinds["limit" if max(shape) * abs(kfr) < LIMIT_SWITCH else "direct"] += 1
        assert set(kinds) == {"limit", "direct", DegenerateDenominatorError, DomainError}

    @staticmethod
    def _array(dim, points):
        """The array form on (shape, kfr) points, as lists: the weights and the mask."""
        (s12, s13, s23), kfr = np.array([d for d, _ in points]).T, np.array([k for _, k in points])
        assert set(s13.tolist()) == {1.0}  # every point is a unit shape
        *weights, ok = unit_points(dim, kfr, s12, s23)
        return [w.tolist() for w in weights], ok.tolist()

    @pytest.mark.parametrize("dim", [D2, D3])
    def test_array_form_equals_from_config(self, dim):
        # every (shape, kfr) point alone, those that the checks reject
        # included: the mask rejects exactly the points whose public chain
        # (from_config of the scaled triple, or the limit of the unit shape)
        # raises, and the weights are that chain's
        cases = list(itertools.product(self.SHAPES, self.KFRS))
        kinds = Counter()
        oks, good = [], []
        for shape, kfr in cases:
            want = _outcome(lambda: self._public(shape, kfr, dim))
            weights, (ok,) = self._array(dim, [(shape, kfr)])
            assert ok is not isinstance(want[0], type), (shape, kfr, want)
            oks.append(ok)
            if ok:
                assert tuple(w for (w,) in weights) == want, (shape, kfr)
                kinds[kfr * max(shape) < LIMIT_SWITCH] += 1
                good.append(want)
                if kfr == 0.0:  # a power of two changes no limit weight
                    tiny = TriangleConfig(*(2.0**-20 * d for d in shape), dim)
                    assert couplings_from_config(tiny).as_tuple() == want, shape
            else:
                kinds[want[0]] += 1
        assert set(kinds) == {True, False, DegenerateDenominatorError, DomainError}
        # all cases as one array, in any mix of branches
        (p12, p13, p23), ok = self._array(dim, cases)
        assert ok == oks
        assert [w for w, v in zip(zip(p12, p13, p23), ok) if v] == good

    @pytest.mark.parametrize("dim", [D2, D3])
    def test_array_form_equals_from_shape(self, dim):
        # every (shape, kfr) point in one array: the mask is False exactly where
        # from_shape raises, and every kfr > 0 below the switch, subnormals
        # included, gives the kfr = 0 weights bit for bit or the same error type
        points = list(itertools.product(self.SHAPES, self.KFRS))
        weights, ok = self._array(dim, points)
        below = 0
        for (shape, kfr), *got, valid in zip(points, *weights, ok):
            want = _outcome(lambda: from_shape(shape, kfr, dim).as_tuple())
            assert valid is not isinstance(want[0], type), (shape, kfr, want)
            if valid:
                assert repr(tuple(got)) == repr(want), (shape, kfr)
            if 0.0 < kfr * max(shape) < LIMIT_SWITCH:
                at_zero = _outcome(lambda: from_shape(shape, 0.0, dim).as_tuple())
                assert (want if valid else want[0]) == (at_zero if valid else at_zero[0])
                below += 1
        # each shape meets at least the three subnormal kfrs, 2e-4 and 5e-4
        assert below >= 5 * len(self.SHAPES)

    @pytest.mark.parametrize("dim", [D2, D3])
    def test_array_form_masks_non_finite_weights(self, dim, monkeypatch):
        # a table never returns a non-finite weight: a NaN kernel value at
        # d23 = 1 - 0.9, injected on the array and the float path alike, makes
        # the table raise Couplings' error at that point, before the later
        # point that the shape function rejects
        import fermigte.couplings as couplings_module

        d23 = 1.0 - 0.9
        real_array, real_float = couplings_module._f_array, couplings_module.f_factor

        def nan_array(dim, x):
            return np.where(x == d23, math.nan, real_array(dim, x))

        def nan_float(dim, x):
            return math.nan if x == d23 else real_float(dim, x)

        monkeypatch.setattr(couplings_module, "_f_array", nan_array)
        monkeypatch.setattr(couplings_module, "f_factor", nan_float)
        with pytest.raises(InvalidCouplingsError):
            sweep_collinear(dim, [1.0], [0.5, 0.9, 1.5])
        monkeypatch.undo()
        assert len(sweep_collinear(dim, [1.0], [0.5, 0.9])) == 2


@st.composite
def near_degenerate_triples(draw):
    """A triple whose longest side, in any slot, exceeds the sum of the other
    two by 0.5e-12 or 2e-12 of itself, at scales from 1e-4 to 1e2."""
    scale = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-4, 1))
    u = draw(st.floats(0.0, 1.0))
    short = [scale * u, scale * (1.0 - u)]
    longest = (short[0] + short[1]) * (1.0 + draw(st.sampled_from([0.5e-12, 2e-12])))
    slot = draw(st.integers(0, 2))
    return (*short[:slot], longest, *short[slot:])


@given(st.sampled_from([D2, D3]), near_degenerate_triples())
# a triple that TriangleConfig once accepted below unit size, and its CLI twin
@example(D3, (1e-4, 1e-4, 2e-4 + 5e-13))
@example(D2, (0.01, 0.01, 0.0200000000005))
@settings(max_examples=200, deadline=None)
def test_triangle_config_raises_exactly_when_from_config_would(dim, d):
    config = _outcome(lambda: TriangleConfig(*d, dim).distances())
    # below LIMIT_SWITCH from_config checks the triple again in zero_limit,
    # which is scale-free, so its verdict must be TriangleConfig's at every scale
    limit = _outcome(lambda: couplings_zero_limit(*d).as_tuple())
    assert isinstance(config[0], type) == isinstance(limit[0], type), (d, config, limit)
    if config == d and max(d) <= X_MAX:
        couplings_from_config(TriangleConfig(*d, dim))  # raises nothing


# a unit shape at a separation kfr on either side of LIMIT_SWITCH: fermions
# 1 and 3 at unit distance, fermion 2 at (u, w), so that u = w = 0 and
# u = 1, w = 0 make a coincident pair
@given(
    st.sampled_from([D2, D3]),
    st.floats(min_value=1e-6, max_value=X_MAX / 2.0),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
)
@example(D3, 1e-4, 0.0, 0.0)
@example(D2, 9.99e-4, 1.0, 0.0)
@example(D3, LIMIT_SWITCH, 0.0, 0.0)
@example(D2, 1e-2, 1.0, 0.0)
@settings(max_examples=300, deadline=None)
def test_array_form_equals_from_config_on_drawn_shapes(dim, kfr, u, w):
    shape = (math.hypot(u, w), 1.0, math.hypot(1.0 - u, w))
    want = _outcome(lambda: public_couplings(shape, kfr, dim).as_tuple())
    s12, s23, kfrs = (np.array([v]) for v in (shape[0], shape[2], kfr))
    *weights, (ok,) = (v.tolist() for v in unit_points(dim, kfrs, s12, s23))
    # the mask rejects exactly the points whose public chain raises
    assert ok is not isinstance(want[0], type), (shape, kfr, want)
    if ok:
        assert tuple(p for (p,) in weights) == want, (shape, kfr)


# a valid configuration whose largest distance is at least LIMIT_SWITCH: fermions
# 1 and 3 at distance `side`, fermion 2 at (u, w) in units of side; u = w = 0
# makes 1 and 2 coincide.  Every distance stays within the kernels' domain.
@given(
    st.sampled_from([D2, D3]),
    st.floats(min_value=LIMIT_SWITCH, max_value=X_MAX / 2.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(D3, LIMIT_SWITCH, 0.5, 0.0)  # the smallest |D|, about 1.5e-7
@example(D2, LIMIT_SWITCH, 0.5, 0.0)
@example(D3, LIMIT_SWITCH, 0.0, 0.0)
@example(D3, LIMIT_SWITCH, 0.5, math.sqrt(3.0) / 2.0)
@settings(max_examples=300, deadline=None)
def test_denominator_is_bounded_away_from_zero_above_the_switch(dim, side, u, w):
    cfg = TriangleConfig(side * math.hypot(u, w), side, side * math.hypot(1.0 - u, w), dim)
    assert max(cfg.distances()) >= LIMIT_SWITCH
    denom, *_ = _kernel_formula(*(f_factor(dim, d) for d in cfg.distances()))
    assert denom <= -5e-8


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_couplings_reject_non_finite_weights(slot, bad):
    weights = [0.2, 0.2, 0.2]
    weights[slot] = bad
    with pytest.raises(InvalidCouplingsError):
        Couplings(*weights)


class TestValidate:
    def test_limit_values_pass(self):
        assert validate_couplings(Couplings(2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0)) == []

    def test_sum_bound(self):
        assert validate_couplings(Couplings(1.0, 1.0, 1.0)) == ["|p| ≤ 1 violated"]

    def test_pair_bound(self):
        assert validate_couplings(Couplings(-1.5, 0.0, 0.0)) == ["|p12| ≤ 1 violated"]

    def test_random_physical_configs_pass(self, rng):
        for _ in range(300):
            c = couplings_from_config(random_config(rng))
            assert validate_couplings(c) == []

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="ROADMAP item 9: the direct formula's cancellation just above LIMIT_SWITCH "
        "puts p - 1 at 1.12e-9, above BOUND_TOL",
    )
    def test_physical_triangle_just_above_the_limit_switch_passes(self):
        # the same triangle warns in `gte-fermi rho3` and lists the violation
        # in `gte-fermi couplings`; its shape-only limit has p - 1 = 2.2e-16
        d = (0.0011907394226019225, 5.782988592738067e-05, 0.0012468651436408225)
        assert max(d) > LIMIT_SWITCH
        assert validate_couplings(couplings_zero_limit(*d)) == []
        assert validate_couplings(couplings_from_config(TriangleConfig(*d, D3))) == []

    def test_weights_of_no_state(self):
        # every pair and sum bound holds, yet rho3's smallest eigenvalue is -0.2125
        c = Couplings(-0.9, 0.9, 0.9)
        assert _min_eigenvalue(c) == pytest.approx(-0.2125, abs=1e-15)
        assert validate_couplings(c) == ["rho3 ≥ 0 violated"]

    def test_state_boundary(self, rng):
        # on the boundary of the state set within the slack, past it outside
        p = psd_werner_weights(rng, 2000)[:1000]
        assert all(validate_couplings(Couplings(*w)) == [] for w in p.tolist())
        assert all(validate_couplings(Couplings(*w)) for w in ((1.0 + 1e-6) * p).tolist())

    def test_min_eigenvalue_is_rho3s(self, rng):
        # states and weights of no state alike, against an independent 8x8 build
        p = np.concatenate([psd_werner_weights(rng, 2000), rng.uniform(-1.0, 1.0, (2000, 3))])
        want = np.linalg.eigvalsh(werner_states(p))[:, 0]
        got = [_min_eigenvalue(Couplings(*w)) for w in p.tolist()]
        assert np.max(np.abs(np.array(got) - want)) <= 1e-14


def _permute(cfg: TriangleConfig, perm: tuple[int, int, int]) -> TriangleConfig:
    d = {(1, 2): cfg.d12, (1, 3): cfg.d13, (2, 3): cfg.d23}

    def get(a, b):
        return d[tuple(sorted((perm[a - 1], perm[b - 1])))]

    return TriangleConfig(get(1, 2), get(1, 3), get(2, 3), cfg.dim)


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_relabeling_equivariance(a, b, cos_angle):
    # distances from two side lengths and the included angle at fermion 1
    d23 = math.sqrt(max(a * a + b * b - 2.0 * a * b * cos_angle, 0.0))
    if d23 < 1e-6:
        return
    cfg = TriangleConfig(a, b, d23, D3)
    base = couplings_from_config(cfg)
    weights = {(1, 2): base.p12, (1, 3): base.p13, (2, 3): base.p23}
    for perm in itertools.permutations((1, 2, 3)):
        permuted = couplings_from_config(_permute(cfg, perm))

        def expect(i, j):
            return weights[tuple(sorted((perm[i - 1], perm[j - 1])))]

        assert permuted.p12 == pytest.approx(expect(1, 2), rel=1e-12, abs=1e-12)
        assert permuted.p13 == pytest.approx(expect(1, 3), rel=1e-12, abs=1e-12)
        assert permuted.p23 == pytest.approx(expect(2, 3), rel=1e-12, abs=1e-12)
