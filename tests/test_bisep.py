import math

import numpy as np
import pytest
from scipy.spatial.distance import directed_hausdorff

from fermigte import (
    Dimensionality,
    SectionSpec,
    collinear,
    corner_hexagon,
    couplings_from_config,
    find_rmin,
    hull_margin,
    point_in_hull,
    r_max_solver,
    werner_coords,
)
from fermigte.bisep import ConvexRegion, _symmetric_point, polygon_to_csv
from fermigte.errors import BracketError, DomainError, EmptyRegionError

from conftest import in_lens_hull, lens_hull

D2, D3 = Dimensionality.TWO_D, Dimensionality.THREE_D

SEC = SectionSpec(0.041, 0.0)
SQRT3 = math.sqrt(3.0)


class TestRegionBoundary:
    """The boundary of the biseparable region on a section: the corner hexagon."""

    def test_points_satisfy_inequalities(self):
        # rotated back onto the 1|23 lens, each pair of corners meets its inequalities
        pts = corner_hexagon(SEC).as_array()
        c = 1.0 - 3.0 * 0.041
        third = 2.0 * math.pi / 3.0
        for pair, angle in (([5, 0], 0.0), ([1, 2], -third), ([3, 4], third)):
            ca, sa = math.cos(angle), math.sin(angle)
            for r1, r2 in pts[pair] @ np.array([[ca, sa], [-sa, ca]]):
                t = r1 - 2.0 * 0.041
                assert -1.0 - 1e-12 <= t < 0.0
                assert 3.0 * r2 * r2 + c * c <= t * t + 1e-12

    def test_leftmost_value(self):
        pts = corner_hexagon(SEC).as_array()
        assert pts[:, 0].min() == pytest.approx(2.0 * 0.041 - 1.0, abs=1e-12)

    def test_transverse_extent(self):
        # solve 3*r2^2 + (1 - 3*r_plus)^2 = 1
        pts = corner_hexagon(SEC).as_array()
        expect = math.sqrt((1.0 - (1.0 - 3.0 * 0.041) ** 2) / 3.0)
        assert expect == pytest.approx(0.277411247068, abs=1e-12)
        assert pts[0, 1] == pytest.approx(-expect, abs=1e-12)
        assert pts[-1, 1] == pytest.approx(expect, abs=1e-12)

    def test_rotated_partitions(self):
        # 12|3 corners (vertices 1, 2) and 13|2 corners (3, 4) rotate the 1|23 pair
        pts = corner_hexagon(SEC).as_array()
        base = pts[[5, 0]]
        for idx, angle in (([1, 2], 2.0 * math.pi / 3.0), ([3, 4], -2.0 * math.pi / 3.0)):
            ca, sa = math.cos(angle), math.sin(angle)
            rot = base @ np.array([[ca, sa], [-sa, ca]])
            assert np.allclose(pts[idx], rot, atol=1e-15)

    @pytest.mark.parametrize("r_plus", [0.0, -0.1, 2.0 / 3.0, 0.9, math.nan])
    def test_empty_section(self, r_plus):
        with pytest.raises(EmptyRegionError):
            corner_hexagon(SectionSpec(r_plus, 0.0))


class TestHull:
    def test_contains_origin(self):
        assert point_in_hull(corner_hexagon(SEC), 0.0, 0.0)

    def test_threshold_point_outside(self):
        hull = corner_hexagon(SEC)
        assert not point_in_hull(hull, -0.35, SQRT3 * -0.35)
        assert not point_in_hull(hull, -0.35, -0.6062)

    def test_rotation_symmetric(self):
        hull = corner_hexagon(SEC).as_array()
        angle = 2.0 * math.pi / 3.0
        ca, sa = math.cos(angle), math.sin(angle)
        rotated = hull @ np.array([[ca, sa], [-sa, ca]])
        dist = max(
            directed_hausdorff(hull, rotated)[0], directed_hausdorff(rotated, hull)[0]
        )
        assert dist <= 1e-15

    def test_vertices_inside_with_tolerance(self):
        hull = corner_hexagon(SEC)
        for x, y in hull.vertices:
            assert point_in_hull(hull, x, y, tol=1e-9)

    def test_csv_dump(self):
        text = polygon_to_csv(corner_hexagon(SEC))
        lines = text.strip().splitlines()
        assert lines[0] == "r1,r2"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert len(first) == 2
        float(first[0]), float(first[1])


class TestCornerHexagon:
    def test_equals_sampled_hull_vertices(self):
        # both start at the lower 1|23 corner and run counterclockwise
        for r_plus in np.linspace(0.013, 0.096, 8):
            hexagon = corner_hexagon(SectionSpec(float(r_plus), 0.0)).as_array()
            for n in (2048, 4096):
                sampled = lens_hull(float(r_plus), 0.0, n)
                assert sampled.shape == (6, 2)
                assert np.allclose(hexagon, sampled, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("r_plus", [0.34, 0.5])
    def test_rejects_overlapping_corners(self, r_plus):
        with pytest.raises(DomainError):
            corner_hexagon(SectionSpec(r_plus, 0.0))

    def test_empty_section(self):
        with pytest.raises(EmptyRegionError):
            corner_hexagon(SectionSpec(0.0, 0.0))


class TestHullMargin:
    SQUARE = ConvexRegion(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)))

    def test_distance_to_nearest_edge(self):
        assert hull_margin(self.SQUARE, 1.0, 0.25) == 0.25
        assert hull_margin(self.SQUARE, 1.75, 1.0) == 0.25
        assert hull_margin(self.SQUARE, 1.0, 1.0) == 1.0

    def test_sign(self):
        assert hull_margin(self.SQUARE, 1.0, -0.5) == -0.5
        assert hull_margin(self.SQUARE, 2.0, 1.0) == 0.0
        assert hull_margin(self.SQUARE, 3.0, 3.0) < 0.0

    def test_straight_side_of_hexagon(self):
        # the 1|23 straight side r1 = 2*r_plus - 1 is the nearest edge here
        hexagon = corner_hexagon(SEC)
        edge = 2.0 * 0.041 - 1.0
        assert hull_margin(hexagon, edge + 0.01, 0.0) == pytest.approx(0.01, abs=1e-15)
        assert hull_margin(hexagon, edge - 0.01, 0.0) == pytest.approx(-0.01, abs=1e-15)


class TestRMaxSolver:
    def test_three_d_threshold(self):
        value = r_max_solver(D3, tol=1e-5)
        assert value == pytest.approx(2.5988, abs=2e-3)

    def test_two_d_threshold(self):
        value = r_max_solver(D2, tol=1e-5)
        assert value == pytest.approx(2.3599, abs=2e-3)

    def test_upper_bound_exceeds_witness_bound(self):
        for dim in (D3, D2):
            r_lo = find_rmin(dim)
            r_hi = r_max_solver(dim, tol=1e-5)
            assert r_lo < r_hi
            assert r_hi - r_lo <= 0.005

    def test_crossing_semantics(self):
        value = r_max_solver(D3, tol=1e-5)
        sec, point = _symmetric_point(D3, value + 1e-3)
        assert in_lens_hull(sec.r_plus, sec.r3, point, 2048)
        sec, point = _symmetric_point(D3, value - 1e-3)
        assert not in_lens_hull(sec.r_plus, sec.r3, point, 2048)

    def test_bracket_without_crossing(self):
        with pytest.raises(BracketError):
            r_max_solver(D3, bracket=(3.0, 3.2), tol=1e-5)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(DomainError):
            r_max_solver(D3, tol=tol)

    def test_symmetric_point_on_werner_ray(self):
        sec, (r1, r2) = _symmetric_point(D3, 2.6)
        w = werner_coords(couplings_from_config(collinear(2.6, 0.5, D3)))
        assert (sec.r_plus, r1, r2) == (w.r_plus, w.r1, w.r2)
        assert r2 == pytest.approx(SQRT3 * r1, abs=1e-14)
