import io
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import directed_hausdorff

from fermigte import (
    Dimensionality,
    corner_hexagon,
    couplings_from_config,
    find_rmin,
    r_max_solver,
    werner_coords,
)
from fermigte.bisep import (
    _BRACKETS,
    _HI_LIMITS,
    MEMBERSHIP_TOL,
    PRESCAN_POINTS,
    _margin,
    _symmetric_point,
)
from fermigte.errors import BracketError, DomainError, EmptyRegionError
from fermigte.geometry import collinear_shape, scaled
from fermigte.scan import bisect_switch, write_csv

from conftest import in_lens_hull, lens_hull

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

D2, D3 = Dimensionality.TWO_D, Dimensionality.THREE_D

SEC = (0.041, 0.0)
SQRT3 = math.sqrt(3.0)


def _inside(vertices, r1, r2, tol=MEMBERSHIP_TOL):
    """The solver's membership test: inside, or within tol of the boundary."""
    return _margin(vertices, r1, r2) >= -tol


class TestRegionBoundary:
    """The boundary of the biseparable region on a section: the corner hexagon."""

    def test_points_satisfy_inequalities(self):
        # rotated back onto the 1|23 lens, each pair of corners meets its inequalities
        pts = np.array(corner_hexagon(*SEC))
        c = 1.0 - 3.0 * 0.041
        third = 2.0 * math.pi / 3.0
        for pair, angle in (([5, 0], 0.0), ([1, 2], -third), ([3, 4], third)):
            ca, sa = math.cos(angle), math.sin(angle)
            for r1, r2 in pts[pair] @ np.array([[ca, sa], [-sa, ca]]):
                t = r1 - 2.0 * 0.041
                assert -1.0 - 1e-12 <= t < 0.0
                assert 3.0 * r2 * r2 + c * c <= t * t + 1e-12

    def test_leftmost_value(self):
        pts = np.array(corner_hexagon(*SEC))
        assert pts[:, 0].min() == pytest.approx(2.0 * 0.041 - 1.0, abs=1e-12)

    def test_transverse_extent(self):
        # solve 3*r2^2 + (1 - 3*r_plus)^2 = 1
        pts = np.array(corner_hexagon(*SEC))
        expect = math.sqrt((1.0 - (1.0 - 3.0 * 0.041) ** 2) / 3.0)
        assert expect == pytest.approx(0.277411247068, abs=1e-12)
        assert pts[0, 1] == pytest.approx(-expect, abs=1e-12)
        assert pts[-1, 1] == pytest.approx(expect, abs=1e-12)

    def test_rotated_partitions(self):
        # 12|3 corners (vertices 1, 2) and 13|2 corners (3, 4) rotate the 1|23 pair
        pts = np.array(corner_hexagon(*SEC))
        base = pts[[5, 0]]
        for idx, angle in (([1, 2], 2.0 * math.pi / 3.0), ([3, 4], -2.0 * math.pi / 3.0)):
            ca, sa = math.cos(angle), math.sin(angle)
            rot = base @ np.array([[ca, sa], [-sa, ca]])
            assert np.allclose(pts[idx], rot, atol=1e-15)

    @pytest.mark.parametrize("r_plus", [0.0, -0.1, 2.0 / 3.0, 0.9, math.nan])
    def test_empty_section(self, r_plus):
        with pytest.raises(EmptyRegionError):
            corner_hexagon(r_plus)


class TestHull:
    def test_contains_origin(self):
        assert _inside(corner_hexagon(*SEC), 0.0, 0.0)

    def test_threshold_point_outside(self):
        hull = corner_hexagon(*SEC)
        assert not _inside(hull, -0.35, SQRT3 * -0.35)
        assert not _inside(hull, -0.35, -0.6062)

    def test_rotation_symmetric(self):
        hull = np.array(corner_hexagon(*SEC))
        angle = 2.0 * math.pi / 3.0
        ca, sa = math.cos(angle), math.sin(angle)
        rotated = hull @ np.array([[ca, sa], [-sa, ca]])
        dist = max(
            directed_hausdorff(hull, rotated)[0], directed_hausdorff(rotated, hull)[0]
        )
        assert dist <= 1e-15

    def test_vertices_inside_with_tolerance(self):
        hull = corner_hexagon(*SEC)
        for x, y in hull:
            assert _inside(hull, x, y, tol=1e-9)

    def test_csv_dump(self):
        # the polygon subcommand's table: a header, then one row per vertex
        hexagon = corner_hexagon(*SEC)
        buf = io.StringIO()
        write_csv(("r1", "r2"), hexagon, buf)
        assert len(hexagon) == 6
        assert buf.getvalue() == "r1,r2\n" + "".join(f"{x:.12g},{y:.12g}\n" for x, y in hexagon)


class TestCornerHexagon:
    def test_equals_sampled_hull_vertices(self):
        # both start at the lower 1|23 corner and run counterclockwise
        for r_plus in np.linspace(0.013, 0.096, 8):
            hexagon = np.array(corner_hexagon(float(r_plus)))
            for n in (2048, 4096):
                sampled = lens_hull(float(r_plus), 0.0, n)
                assert sampled.shape == (6, 2)
                assert np.allclose(hexagon, sampled, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("r_plus", [0.34, 0.5])
    def test_rejects_overlapping_corners(self, r_plus):
        with pytest.raises(DomainError):
            corner_hexagon(r_plus)

    def test_empty_section(self):
        with pytest.raises(EmptyRegionError):
            corner_hexagon(0.0, 0.0)


# every section of the grid r_plus 0.001..0.337 step 0.004 x r3 0..0.58
# step 0.02: 1,965 hexagons, 578 empty sections, 7 with overlapping corners
GRID_SECTIONS = [
    (r_plus, r3)
    for r_plus in np.linspace(0.001, 0.337, 85).tolist()
    for r3 in np.linspace(0.0, 0.58, 30).tolist()
]
PROBES = ((0.0, 0.0), (-0.35, SQRT3 * -0.35), (-0.35, -0.6062), (0.3, -0.2), (-0.9, 0.1))


def _outcome(make, sec):
    try:
        return make(*sec)
    except (EmptyRegionError, DomainError) as exc:
        return type(exc), str(exc)


def _reference_corners(r_plus, r3):
    # the corner formula with cos/sin of +-2*pi/3 taken at every rotation
    c = 1.0 - 3.0 * r_plus
    r1 = 2.0 * r_plus - 1.0
    r2 = math.sqrt((1.0 - c * c - 3.0 * r3 * r3) / 3.0)

    def rotated(a, y):
        ca, sa = math.cos(a), math.sin(a)
        return (ca * r1 - sa * y, sa * r1 + ca * y)

    third = 2.0 * math.pi / 3.0
    return (
        (r1, -r2),
        rotated(third, r2),
        rotated(third, -r2),
        rotated(-third, r2),
        rotated(-third, -r2),
        (r1, r2),
    )


def _reference_margin(v, r1, r2):
    # edge i runs from v[i] to v[(i + 1) % n]
    n = len(v)
    margin = math.inf
    for i in range(n):
        ax, ay = v[i]
        bx, by = v[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        margin = min(margin, (ex * (r2 - ay) - ey * (r1 - ax)) / math.hypot(ex, ey))
    return margin


class TestBareCorners:
    """The hexagon's corners and margin equal the independent oracles bit for bit."""

    def test_grid_outcomes(self):
        outcomes = [_outcome(corner_hexagon, sec) for sec in GRID_SECTIONS]
        kinds = Counter(o[0] if isinstance(o[0], type) else "corners" for o in outcomes)
        assert kinds == {"corners": 1965, EmptyRegionError: 578, DomainError: 7}
        for sec, outcome in zip(GRID_SECTIONS, outcomes):
            if isinstance(outcome[0], tuple):
                assert outcome == _reference_corners(*sec)

    def test_hexagons_are_convex_and_counterclockwise(self):
        # every turn of every returned hexagon is a left turn, up to 1e-12
        for sec in GRID_SECTIONS:
            v = _outcome(corner_hexagon, sec)
            if not isinstance(v[0], tuple):
                continue
            assert len(v) == 6
            for (ax, ay), (bx, by), (cx, cy) in zip(v, v[1:] + v[:1], v[2:] + v[:2]):
                assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) >= -1e-12

    def test_margin_equals_hull_margin(self):
        for sec in GRID_SECTIONS:
            vertices = _outcome(corner_hexagon, sec)
            if not isinstance(vertices[0], tuple):
                continue
            for r1, r2 in PROBES + vertices:
                assert _margin(vertices, r1, r2) == _reference_margin(vertices, r1, r2)


def _reference_r_max(dim, bracket, tol):
    """r_max through the public hexagon and membership test, over a
    np.float64 pre-scan grid."""
    lo, hi = bracket if bracket is not None else _BRACKETS[dim]

    def outside(separation):
        sec, point = _symmetric_point(dim, separation)
        try:
            hexagon = corner_hexagon(*sec)
        except EmptyRegionError:
            return True
        return not _inside(hexagon, *point)

    grid = np.linspace(lo, hi, PRESCAN_POINTS)
    flags = [outside(r) for r in grid]
    i = flags.index(False) - 1
    assert i >= 0 and not any(flags[i + 1 :])
    return bisect_switch(outside, float(grid[i]), float(grid[i + 1]), tol)


class TestRMaxSolverExact:
    @pytest.mark.parametrize("tol", workloads.TOLS)
    @pytest.mark.parametrize("bracket", range(4))
    @pytest.mark.parametrize("dim", ["3d", "2d"])
    def test_equals_the_public_hexagon_path(self, dim, bracket, tol):
        d = Dimensionality(dim)
        rng = workloads.BRACKETS[("polygon", dim)][bracket]
        assert r_max_solver(d, bracket=rng, tol=tol) == _reference_r_max(d, rng, tol)


class TestHullMargin:
    SQUARE = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0))

    def test_distance_to_nearest_edge(self):
        assert _margin(self.SQUARE, 1.0, 0.25) == 0.25
        assert _margin(self.SQUARE, 1.75, 1.0) == 0.25
        assert _margin(self.SQUARE, 1.0, 1.0) == 1.0

    def test_sign(self):
        assert _margin(self.SQUARE, 1.0, -0.5) == -0.5
        assert _margin(self.SQUARE, 2.0, 1.0) == 0.0
        assert _margin(self.SQUARE, 3.0, 3.0) < 0.0

    def test_straight_side_of_hexagon(self):
        # the 1|23 straight side r1 = 2*r_plus - 1 is the nearest edge here
        hexagon = corner_hexagon(*SEC)
        edge = 2.0 * 0.041 - 1.0
        assert _margin(hexagon, edge + 0.01, 0.0) == pytest.approx(0.01, abs=1e-15)
        assert _margin(hexagon, edge - 0.01, 0.0) == pytest.approx(-0.01, abs=1e-15)


class TestNonFinitePoint:
    """A point with a NaN or infinite coordinate has a NaN margin: never inside."""

    @pytest.fixture(params=[(b, slot) for b in (math.nan, math.inf, -math.inf) for slot in (0, 1)])
    def point(self, request):
        bad, slot = request.param
        point = [0.0, 0.0]  # inside the hexagon
        point[slot] = bad
        return tuple(point)

    def test_margin_is_nan(self, point):
        hexagon = corner_hexagon(*SEC)
        assert _inside(hexagon, 0.0, 0.0)
        assert math.isnan(_margin(hexagon, *point))
        assert not _inside(hexagon, *point)

    def test_solver_predicate_counts_it_outside(self, monkeypatch, point):
        import fermigte.bisep as bisep_module

        monkeypatch.setattr(bisep_module, "_symmetric_point", lambda dim, r: (SEC, point))
        assert bisep_module._outside(D3, 2.0) is True


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
        assert in_lens_hull(*sec, point, 2048)
        sec, point = _symmetric_point(D3, value - 1e-3)
        assert not in_lens_hull(*sec, point, 2048)

    @pytest.mark.parametrize("dim", [D3, D2])
    def test_every_separation_up_to_the_limit_has_a_hexagon(self, dim):
        # from above the empty sections (below ~7e-3) to the limit, in 1e-3 steps
        hi = _HI_LIMITS[dim]
        for r in np.append(np.arange(0.01, hi, 1e-3), hi).tolist():
            sec, _ = _symmetric_point(dim, r)
            assert len(corner_hexagon(*sec)) == 6

    @pytest.mark.parametrize("dim, first_overlap", [(D3, 5.137), (D2, 4.646)])
    def test_limit_rounds_down_the_first_overlap(self, dim, first_overlap):
        assert first_overlap - 0.01 < _HI_LIMITS[dim] < first_overlap
        with pytest.raises(DomainError):
            corner_hexagon(*_symmetric_point(dim, first_overlap)[0])

    @pytest.mark.parametrize("dim", [D3, D2])
    def test_rejects_a_bracket_past_the_limit(self, dim):
        lo = _BRACKETS[dim][0]
        with pytest.raises(DomainError, match=f"above {_HI_LIMITS[dim]}"):
            r_max_solver(dim, bracket=(lo, math.nextafter(_HI_LIMITS[dim], math.inf)))
        default = r_max_solver(dim)
        assert r_max_solver(dim, bracket=(lo, _HI_LIMITS[dim])) == pytest.approx(default, abs=2e-5)

    @pytest.mark.parametrize("lo", [0.0, -1.0, math.nan])
    def test_rejects_a_bracket_from_zero_or_below(self, lo):
        with pytest.raises(DomainError, match="above 0"):
            r_max_solver(D3, bracket=(lo, 3.0))

    def test_bracket_without_crossing(self):
        with pytest.raises(BracketError):
            r_max_solver(D3, bracket=(3.0, 3.2), tol=1e-5)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(DomainError):
            r_max_solver(D3, tol=tol)

    def test_symmetric_point_on_werner_ray(self):
        (r_plus, r3), (r1, r2) = _symmetric_point(D3, 2.6)
        w = werner_coords(couplings_from_config(scaled(2.6, collinear_shape(0.5), D3)))
        assert (r_plus, r3, r1, r2) == (w.r_plus, w.r3, w.r1, w.r2)
        assert r2 == pytest.approx(SQRT3 * r1, abs=1e-14)
