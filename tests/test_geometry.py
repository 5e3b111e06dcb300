import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermigte import Dimensionality, TriangleConfig
from fermigte.errors import DomainError
from fermigte.geometry import (
    _distance_checks,
    check_distances,
    collinear_shape,
    equilateral_shape,
    isosceles_shape,
    polar_shape,
    scaled,
)

D2, D3 = Dimensionality.TWO_D, Dimensionality.THREE_D

kfr_st = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False)


def triangle_ok(cfg: TriangleConfig, tol: float = 1e-12) -> bool:
    d12, d13, d23 = cfg.distances()
    slack = tol * max(1.0, d12, d13, d23)
    return (
        d12 <= d13 + d23 + slack
        and d13 <= d12 + d23 + slack
        and d23 <= d12 + d13 + slack
    )


class TestCollinear:
    def test_midpoint(self):
        assert scaled(2.0, collinear_shape(0.5), D3).distances() == (1.0, 2.0, 1.0)

    def test_coincident_endpoint(self):
        assert scaled(2.0, collinear_shape(0.0), D3).distances() == (0.0, 2.0, 2.0)

    def test_quarter(self):
        assert scaled(1.0, collinear_shape(0.25), D2).distances() == (0.25, 1.0, 0.75)

    def test_domain(self):
        with pytest.raises(DomainError):
            scaled(1.0, collinear_shape(1.5), D3)
        with pytest.raises(DomainError):
            scaled(0.0, collinear_shape(0.5), D3)


class TestIsosceles:
    def test_flat_is_symmetric_collinear(self):
        assert scaled(2.0, isosceles_shape(0.0), D3).distances() == (1.0, 2.0, 1.0)

    def test_equilateral_height(self):
        cfg = scaled(1.0, isosceles_shape(math.sqrt(3.0) / 2.0), D3)
        for d in cfg.distances():
            assert d == pytest.approx(1.0, abs=1e-15)

    def test_right_height(self):
        cfg = scaled(2.0, isosceles_shape(0.5), D2)
        assert cfg.distances() == (math.sqrt(2.0), 2.0, math.sqrt(2.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            scaled(1.0, isosceles_shape(-0.1), D3)


class TestPolar:
    def test_origin_is_midpoint(self):
        for theta in (0.0, 0.7, math.pi / 2.0):
            assert scaled(2.0, polar_shape(theta, 0.0), D3).distances() == (1.0, 2.0, 1.0)

    def test_vertical_matches_isosceles(self):
        vertical = scaled(2.0, polar_shape(math.pi / 2.0, 0.5), D3)
        assert vertical.distances() == scaled(2.0, isosceles_shape(0.5), D3).distances()

    def test_on_axis_reaches_partner(self):
        d12, d13, d23 = scaled(2.0, polar_shape(0.0, 0.5), D3).distances()
        assert (d12, d13) == (2.0, 2.0)
        assert d23 == pytest.approx(0.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            scaled(1.0, polar_shape(0.3, 0.6), D3)
        with pytest.raises(DomainError):
            scaled(1.0, polar_shape(3.5, 0.3), D3)


class TestEquilateral:
    @pytest.mark.parametrize("kfr", [0.1, 1.0, 2.5])
    def test_all_equal(self, kfr):
        assert scaled(kfr, equilateral_shape(), D3).distances() == (kfr, kfr, kfr)


class TestTriangleConfig:
    def test_rejects_two_zero_distances(self):
        with pytest.raises(DomainError):
            TriangleConfig(0.0, 0.0, 1.0, D3)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            TriangleConfig(-0.1, 1.0, 1.0, D3)

    def test_rejects_unrealizable(self):
        with pytest.raises(DomainError):
            TriangleConfig(1.0, 1.0, 2.5, D3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            TriangleConfig(bad, 1.0, 1.0, D3)

    def test_collinear_equality_allowed(self):
        TriangleConfig(1.0, 2.0, 1.0, D3)

    # the threshold solvers hand in np.float64 distances, whose comparisons
    # give np.bool_ (adding two of those is a logical or, not a count)
    @pytest.mark.parametrize(
        "d", [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)]
    )
    def test_rejects_two_zero_float64_distances(self, d):
        with pytest.raises(DomainError, match="at most one pairwise distance may vanish"):
            TriangleConfig(*map(np.float64, d), D3)

    @pytest.mark.parametrize("d", [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (0.5, 1.0, 0.5)])
    def test_accepts_float64_distances_with_at_most_one_zero(self, d):
        assert TriangleConfig(*map(np.float64, d), D3).distances() == d

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_rejects_non_finite_float64(self, bad, slot):
        d = [np.float64(1.0)] * 3
        d[slot] = np.float64(bad)
        with pytest.raises(DomainError, match="distances must be finite and nonnegative"):
            TriangleConfig(*d, D3)


class TestCheckDistances:
    @pytest.mark.parametrize("d", [(2.5, 1.0, 1.0), (1.0, 2.5, 1.0), (1.0, 1.0, 2.5)])
    def test_each_side_is_checked(self, d):
        with pytest.raises(DomainError, match="triangle inequality"):
            check_distances(d)

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_slack_is_relative(self, scale):
        # an excess of half of 1e-12 of the largest distance passes, twice it fails
        check_distances((scale, scale, 2.0 * scale * (1.0 + 0.5e-12)))
        with pytest.raises(DomainError, match="triangle inequality"):
            check_distances((scale, scale, 2.0 * scale * (1.0 + 2e-12)))

    def test_an_underflowing_slack_is_one_subnormal_spacing(self):
        # 1e-12 of 2e-323 underflows to 0; rounding three subnormal distances
        # breaks the triangle inequality by at most one spacing, 5e-324
        check_distances((1e-323, 2e-323, 5e-324))
        with pytest.raises(DomainError, match="triangle inequality"):
            check_distances((5e-324, 2e-323, 5e-324))
        d12, d13, d23 = (np.array(v) for v in ([1e-323, 5e-324], [2e-323] * 2, [5e-324] * 2))
        assert _distance_checks(d12, d13, d23, d13)[2].tolist() == [True, False]


# distances whose power-of-two multiples below are exact: no under- or overflow
distance_st = st.sampled_from([0.0, -1.0, math.nan, math.inf]) | st.floats(1e-100, 1e100)


@given(
    st.tuples(distance_st, distance_st, distance_st) | st.tuples(distance_st, distance_st).map(
        lambda d: (d[0], d[1], (d[0] + d[1]) * (1.0 + 1e-12))
    ),
    st.integers(-100, 100),
)
@settings(max_examples=300, deadline=None)
@example((1e-4, 1e-4, 2e-4 + 5e-13), 20)
@example((1.0, 1.0, 2.0 * (1.0 + 0.5e-12)), -20)
def test_check_distances_is_scale_free(d, e):
    # a power of two scales every distance, sum and slack exactly
    def outcome(d):
        try:
            check_distances(d)
        except DomainError as exc:
            return str(exc).split(" for ")[0].split(", got")[0]

    assert outcome(d) == outcome(tuple(math.ldexp(v, e) for v in d))


@given(kfr_st, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_collinear_realizable(kfr, x):
    assert triangle_ok(scaled(kfr, collinear_shape(x), D3))


@given(kfr_st, st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_isosceles_realizable(kfr, y):
    assert triangle_ok(scaled(kfr, isosceles_shape(y), D2))


@given(
    kfr_st,
    st.floats(min_value=0.0, max_value=math.pi / 2.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
@example(kfr=8.0, theta=1e-6, q=0.5)
def test_polar_realizable_and_mirror(kfr, theta, q):
    cfg = scaled(kfr, polar_shape(theta, q), D3)
    assert triangle_ok(cfg)
    # reflection across the 1-3 axis leaves every distance unchanged
    assert scaled(kfr, polar_shape(-theta, q), D3).distances() == cfg.distances()
    # reflection across the perpendicular bisector swaps the roles of 1 and 3;
    # sin(pi - theta) is exact only to an absolute ulp, so near the coincident
    # pair the slack is absolute in units of the configuration scale
    swapped = scaled(kfr, polar_shape(math.pi - theta, q), D3).distances()
    assert swapped[0] == pytest.approx(cfg.d23, rel=1e-12, abs=1e-15 * kfr)
    assert swapped[2] == pytest.approx(cfg.d12, rel=1e-12, abs=1e-15 * kfr)
    assert swapped[1] == cfg.d13


@given(kfr_st, st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_isosceles_equals_vertical_polar(kfr, q):
    vertical = scaled(kfr, polar_shape(math.pi / 2.0, q), D3)
    assert scaled(kfr, isosceles_shape(q), D3).distances() == vertical.distances()


@given(
    kfr_st,
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_constructors_scale_their_shapes_bit_for_bit(kfr, x, y, theta, q):
    shapes = [collinear_shape(x), isosceles_shape(y), polar_shape(theta, q), equilateral_shape()]
    for shape in shapes:
        assert scaled(kfr, shape, D3).distances() == tuple(kfr * d for d in shape)


@pytest.mark.parametrize(
    "shape, args",
    [
        (collinear_shape, (-0.1,)),
        (collinear_shape, (1.5,)),
        (collinear_shape, (math.nan,)),
        (isosceles_shape, (-0.3,)),
        (isosceles_shape, (math.nan,)),
        (isosceles_shape, (math.inf,)),
        (polar_shape, (4.0, 0.3)),
        (polar_shape, (math.nan, 0.3)),
        (polar_shape, (0.3, 0.7)),
        (polar_shape, (0.3, -0.1)),
        (polar_shape, (0.3, math.nan)),
    ],
)
def test_shapes_reject_out_of_domain_arguments(shape, args):
    with pytest.raises(DomainError):
        shape(*args)
