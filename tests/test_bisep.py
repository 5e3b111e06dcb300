import math

import numpy as np
import pytest
from scipy.spatial.distance import directed_hausdorff

from fermigte import (
    Dimensionality,
    SectionSpec,
    bisep_hull,
    collinear,
    corner_hexagon,
    couplings_from_config,
    find_rmin,
    hull_margin,
    in_region,
    in_region_1_23,
    point_in_hull,
    r_max_solver,
    region_boundary,
    werner_coords,
)
from fermigte.bisep import PARTITIONS, ConvexRegion, _symmetric_point, polygon_to_csv
from fermigte.errors import BracketError, DomainError, EmptyRegionError

D2, D3 = Dimensionality.TWO_D, Dimensionality.THREE_D

SEC = SectionSpec(0.041, 0.0)
SQRT3 = math.sqrt(3.0)


class TestInRegion:
    def test_interior_point(self):
        # t = -0.9: (1 - 3*0.041)^2 = 0.769129 <= 0.81
        assert in_region_1_23(SEC, -0.818, 0.0) is True

    def test_wrong_side_of_linear_bound(self):
        assert in_region_1_23(SEC, 0.1, 0.0) is False

    def test_outside_quadratic_bound(self):
        assert in_region_1_23(SEC, -0.35, -0.606) is False

    def test_rotation_maps_regions(self, rng):
        for _ in range(200):
            r1 = float(rng.uniform(-0.95, -0.75))
            r2 = float(rng.uniform(-0.28, 0.28))
            if not in_region_1_23(SEC, r1, r2):
                continue
            for partition, angle in (("12|3", 2.0 * math.pi / 3.0), ("13|2", -2.0 * math.pi / 3.0)):
                ca, sa = math.cos(angle), math.sin(angle)
                assert in_region(SEC, partition, ca * r1 - sa * r2, sa * r1 + ca * r2)

    def test_unknown_partition(self):
        with pytest.raises(DomainError):
            in_region(SEC, "2|13", 0.0, 0.0)


class TestRegionBoundary:
    def test_points_satisfy_inequalities(self):
        pts = region_boundary(SEC, "1|23", 256)
        assert all(in_region_1_23(SEC, float(x), float(y), tol=1e-9) for x, y in pts)

    def test_leftmost_value(self):
        pts = region_boundary(SEC, "1|23", 256)
        assert pts[:, 0].min() == pytest.approx(2.0 * 0.041 - 1.0, abs=1e-12)

    def test_transverse_extent(self):
        # solve 3*r2^2 + (1 - 3*r_plus)^2 = 1
        pts = region_boundary(SEC, "1|23", 256)
        expect = math.sqrt((1.0 - (1.0 - 3.0 * 0.041) ** 2) / 3.0)
        assert expect == pytest.approx(0.277411247068, abs=1e-12)
        assert pts[:, 1].max() == pytest.approx(expect, abs=1e-12)
        assert pts[:, 1].min() == pytest.approx(-expect, abs=1e-12)

    def test_rotated_partitions(self):
        base = region_boundary(SEC, "1|23", 128)
        for partition, angle in (("12|3", 2.0 * math.pi / 3.0), ("13|2", -2.0 * math.pi / 3.0)):
            rotated = region_boundary(SEC, partition, 128)
            ca, sa = math.cos(angle), math.sin(angle)
            rot = base @ np.array([[ca, sa], [-sa, ca]])
            assert np.allclose(rotated, rot, atol=1e-15)

    def test_minimum_samples(self):
        with pytest.raises(DomainError):
            region_boundary(SEC, "1|23", 32)

    @pytest.mark.parametrize("r_plus", [0.0, -0.1, 2.0 / 3.0, 0.9, math.nan])
    def test_empty_section(self, r_plus):
        with pytest.raises(EmptyRegionError):
            region_boundary(SectionSpec(r_plus, 0.0), "1|23", 256)


class TestHull:
    def test_contains_origin(self):
        hull = bisep_hull(SEC, 2048)
        assert point_in_hull(hull, 0.0, 0.0)

    def test_threshold_point_outside(self):
        hull = bisep_hull(SEC, 2048)
        assert not point_in_hull(hull, -0.35, SQRT3 * -0.35)
        assert not point_in_hull(hull, -0.35, -0.6062)

    def test_rotation_symmetric(self):
        hull = bisep_hull(SEC, 2048).as_array()
        angle = 2.0 * math.pi / 3.0
        ca, sa = math.cos(angle), math.sin(angle)
        rotated = hull @ np.array([[ca, sa], [-sa, ca]])
        dist = max(
            directed_hausdorff(hull, rotated)[0], directed_hausdorff(rotated, hull)[0]
        )
        assert dist <= 1e-3

    def test_vertices_inside_with_tolerance(self):
        hull = bisep_hull(SEC, 256)
        for x, y in hull.vertices:
            assert point_in_hull(hull, x, y, tol=1e-9)

    def test_refinement_only_grows(self):
        coarse = bisep_hull(SEC, 256)
        fine = bisep_hull(SEC, 512)
        for x, y in coarse.vertices:
            assert point_in_hull(fine, x, y, tol=1e-12)

    def test_csv_dump(self):
        text = polygon_to_csv(bisep_hull(SEC, 256))
        lines = text.strip().splitlines()
        assert lines[0] == "r1,r2"
        assert len(lines) >= 4
        first = lines[1].split(",")
        assert len(first) == 2
        float(first[0]), float(first[1])


class TestCornerHexagon:
    def test_equals_sampled_hull_vertices(self):
        # both start at the lower 1|23 corner and run counterclockwise
        for r_plus in np.linspace(0.013, 0.096, 8):
            sec = SectionSpec(float(r_plus), 0.0)
            hexagon = corner_hexagon(sec).as_array()
            for n in (2048, 4096):
                sampled = bisep_hull(sec, n).as_array()
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
        assert point_in_hull(bisep_hull(sec, 2048), *point)
        sec, point = _symmetric_point(D3, value - 1e-3)
        assert not point_in_hull(bisep_hull(sec, 2048), *point)

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
