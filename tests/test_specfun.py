import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j1 as scipy_j1

from fermigte import Dimensionality, bessel_j1, f_factor, spherical_j1
from fermigte.errors import DomainError
from fermigte.specfun import (
    _J1_SERIES_DENOMS,
    _SERIES_SWITCH,
    X_MAX,
    _f_array,
    _f_small_x,
    _j1_series,
)

from conftest import bisect_root, j1_series, j1_series_with_break

D2, D3 = Dimensionality.TWO_D, Dimensionality.THREE_D


class TestBesselJ1:
    def test_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_series_oracle_at_one(self):
        # frozen from the 30-term ascending series
        assert j1_series(1.0) == pytest.approx(0.44005058574493355, abs=1e-15)
        assert bessel_j1(1.0) == pytest.approx(0.44005058574493355, abs=1e-12)

    def test_first_root(self):
        root = bisect_root(j1_series, 3.0, 4.5)
        assert root == pytest.approx(3.8317059702075123, abs=1e-12)
        assert abs(bessel_j1(root)) <= 1e-10

    def test_against_series_on_moderate_range(self):
        for x in np.linspace(0.0, 12.0, 241):
            assert bessel_j1(float(x)) == pytest.approx(j1_series(float(x)), abs=1e-12)

    @pytest.mark.parametrize("x", [-1.0, -1e-12, 50.0001, 100.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            bessel_j1(x)


class TestCephesJ1:
    """J1 is the Cephes j1 that scipy.special.j1 evaluates, bit for bit."""

    def grid(self):
        edges = [5.0, math.nextafter(5.0, math.inf), math.nextafter(5.0, -math.inf)]
        edges += [_SERIES_SWITCH, X_MAX]
        # the asymptotic branch's leading coefficients weigh most just above
        # x = 5; there the band catches a one-ulp change of PP[0] or PQ[0]
        band = np.linspace(5.0, 5.01, 200_001)[1:]
        return np.concatenate([np.linspace(_SERIES_SWITCH, X_MAX, 250_001), band, edges])

    def test_scalar_equals_scipy(self):
        xs = self.grid()
        want = scipy_j1(xs).tolist()
        assert [x for x, w in zip(xs.tolist(), want) if bessel_j1(x) != w] == []

    def test_array_kernel_equals_scalar(self):
        xs = self.grid()
        got = _f_array(D2, xs).tolist()
        assert [x for x, g in zip(xs.tolist(), got) if g != f_factor(D2, x)] == []

    def test_returns_a_python_float(self):
        assert type(bessel_j1(np.float64(7.5))) is float


class TestSphericalJ1:
    def test_zero(self):
        assert spherical_j1(0.0) == 0.0

    def test_at_pi(self):
        # sin(pi)/pi^2 - cos(pi)/pi = 1/pi
        assert spherical_j1(math.pi) == pytest.approx(1.0 / math.pi, abs=1e-14)

    def test_first_root(self):
        # first positive solution of tan(x) = x
        root = bisect_root(lambda x: math.tan(x) - x, 4.1, 4.6)
        assert root == pytest.approx(4.493409457909064, abs=1e-12)
        assert abs(spherical_j1(root)) <= 1e-10

    def test_series_matches_closed_form_at_switch(self):
        # both branches around the internal switch at x = 0.5
        for x in (0.499999, 0.5, 0.500001):
            closed = math.sin(x) / (x * x) - math.cos(x) / x
            assert spherical_j1(x) == pytest.approx(closed, abs=1e-13)

    @pytest.mark.parametrize("x", [-0.1, -math.inf, math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError, match="spherical_j1 requires 0 <= x < inf"):
            spherical_j1(x)


def _series_while(x):
    """The series branch of spherical_j1 as a while loop over m: (value, terms)."""
    term = x / 3.0
    total = term
    m = 0
    while abs(term) > 1e-20:
        m += 1
        term *= -x * x / (2.0 * m * (2.0 * m + 3.0))
        total += term
    return total, m


class TestSphericalJ1Series:
    """The bounded series loop over _J1_SERIES_DENOMS is the while loop, bit for bit."""

    EDGES = [0.0, 5e-324, 1e-300, 1e-160, 1e-20, 1e-10, 1e-3, 0.1, 0.25, 0.4999]
    EDGES += [math.nextafter(0.5, 0.0)]

    def sample(self):
        rng = random.Random(20261018)
        return [0.5 * rng.random() for _ in range(100_000)] + self.EDGES

    def test_equals_the_while_loop(self):
        for x in self.sample():
            assert spherical_j1(x) == _series_while(x)[0], x

    def test_denominator_table_is_never_exhausted(self):
        assert _J1_SERIES_DENOMS == tuple(2.0 * m * (2.0 * m + 3.0) for m in range(1, 11))
        # the terms grow with x, so the largest x below 0.5 needs the most
        worst = _series_while(math.nextafter(0.5, 0.0))[1]
        assert max(_series_while(x)[1] for x in self.sample()) == worst
        assert worst < len(_J1_SERIES_DENOMS)


def _bits(x) -> list[int]:
    """The IEEE bit patterns of a float or an array, sign bit included."""
    return np.atleast_1d(np.asarray(x, dtype=np.float64)).view(np.int64).tolist()


_BELOW_HALF = math.nextafter(0.5, 0.0)
# uniform on [0, 0.5), log-uniform down to the subnormals, and the edges
_SERIES_FLOATS = st.one_of(
    st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
    st.floats(min_value=-320.0, max_value=0.0).map(lambda e: min(10.0**e, _BELOW_HALF)),
    st.sampled_from([0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-20, _BELOW_HALF]),
)


class TestSeriesWithoutBreak:
    """Summing all of _J1_SERIES_DENOMS gives the early-exit loop's sum, bit
    for bit and in sign: the terms after the exit are below half an ulp."""

    @given(_SERIES_FLOATS)
    @settings(max_examples=2_000, deadline=None)
    def test_float(self, x):
        assert _bits(_j1_series(x)) == _bits(j1_series_with_break(x))
        assert _bits(spherical_j1(x)) == _bits(j1_series_with_break(x))

    @given(st.lists(st.floats(min_value=_SERIES_SWITCH, max_value=0.5, exclude_max=True), max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_array_kernel(self, xs):
        want = [3.0 * j1_series_with_break(x) / x for x in xs]
        assert _bits(_f_array(D3, np.array(xs, dtype=float))) == _bits(want)


class TestFFactor:
    def test_contact_limit_is_exactly_one(self):
        assert f_factor(D3, 0.0) == 1.0
        assert f_factor(D2, 0.0) == 1.0

    def test_three_d_at_one(self):
        # 3*(sin(1) - cos(1)) by the closed form
        oracle = 3.0 * (math.sin(1.0) - math.cos(1.0))
        assert f_factor(D3, 1.0) == pytest.approx(oracle, abs=1e-9)

    def test_branch_agreement_at_switch(self):
        for dim, closed in (
            (D3, lambda x: 3.0 * spherical_j1(x) / x),
            (D2, lambda x: 2.0 * bessel_j1(x) / x),
        ):
            x = 1e-3
            assert abs(_f_small_x(dim, x) - closed(x)) <= 1e-13

    def test_small_x_expansion(self):
        for dim, c in ((D3, 10.0), (D2, 8.0)):
            for x in np.linspace(1e-5, 1e-2, 50):
                x = float(x)
                assert abs(f_factor(dim, x) - (1.0 - x * x / c)) <= x**4

    def test_bounded_by_one_on_working_range(self):
        # 1e5-point sample of |f| <= 1 across [0, 50], both gases
        xs = np.linspace(0.0, X_MAX, 50_000)
        for dim in (D2, D3):
            assert all(abs(f_factor(dim, float(x))) <= 1.0 for x in xs)

    def test_decays_at_large_x(self):
        for dim in (D2, D3):
            for x in np.linspace(30.0, X_MAX, 100):
                assert abs(f_factor(dim, float(x))) < 0.05

    @given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_bound_property(self, x):
        assert abs(f_factor(D3, x)) <= 1.0
        assert abs(f_factor(D2, x)) <= 1.0

    @pytest.mark.parametrize("x", [-1e-9, 50.1, math.nan])
    def test_domain(self, x):
        for dim in (D2, D3):
            with pytest.raises(DomainError):
                f_factor(dim, x)


class TestArrayKernel:
    """_f_array is f_factor element for element, bit for bit, on every branch."""

    def sample(self):
        rng = random.Random(20261019)
        edges = [0.0, 5e-324, 1e-300, 1e-8, math.nextafter(_SERIES_SWITCH, 0.0), _SERIES_SWITCH]
        edges += [0.25, math.nextafter(0.5, 0.0), 0.5, 1.0, math.pi, 49.999, X_MAX]
        small = [_SERIES_SWITCH * rng.random() for _ in range(5_000)]
        series = [_SERIES_SWITCH + (0.5 - _SERIES_SWITCH) * rng.random() for _ in range(20_000)]
        closed = [0.5 + (X_MAX - 0.5) * rng.random() for _ in range(50_000)]
        return edges + small + series + closed

    @pytest.mark.parametrize("dim", [D2, D3])
    def test_equals_f_factor(self, dim):
        xs = self.sample()
        got = _f_array(dim, np.array(xs)).tolist()
        assert all(g == f_factor(dim, x) for g, x in zip(got, xs))
        # x = 0, the small-x series, the j1 series (3D) and the closed form
        branches = {(x > 0.0) + (x >= _SERIES_SWITCH) + (x >= 0.5) for x in xs}
        assert branches == {0, 1, 2, 3}

    @pytest.mark.parametrize("dim", [D2, D3])
    def test_empty(self, dim):
        assert _f_array(dim, np.array([])).shape == (0,)

    # each branch left without points in turn: the small-x series, then the
    # 2D near (x <= 5) and far J1 branches or the 3D j1 series and closed form
    @pytest.mark.parametrize(
        "dim, lo, hi",
        [
            (D2, _SERIES_SWITCH, X_MAX),
            (D2, 5.0 + 1e-9, X_MAX),
            (D2, 0.0, 5.0),
            (D3, _SERIES_SWITCH, X_MAX),
            (D3, 0.5, X_MAX),
            (D3, 0.0, math.nextafter(0.5, 0.0)),
        ],
    )
    def test_a_branch_without_points(self, dim, lo, hi):
        xs = [x for x in self.sample() if lo <= x <= hi]
        got = _f_array(dim, np.array(xs)).tolist()
        assert _bits(got) == _bits([f_factor(dim, x) for x in xs])
