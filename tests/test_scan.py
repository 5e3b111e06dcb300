import contextlib
import io
import itertools
import logging
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermigte import (
    CollinearRow,
    Couplings,
    Dimensionality,
    DistanceRow,
    IsoscelesRow,
    PolarBoundaryRow,
    analytic_limit_thresholds,
    couplings_from_config,
    couplings_zero_limit,
    er_lower_bound,
    find_rmin,
    r_max_solver,
    sweep_collinear,
    sweep_distance,
    sweep_isosceles,
    sweep_polar_boundary,
)
from fermigte.cli import _FIG2_KFR, _FIG_KFR, _limit_safe, main
from fermigte.couplings import LIMIT_SWITCH
from fermigte.errors import BracketError, ConvergenceFailure, DomainError
from fermigte.geometry import collinear_shape, isosceles_shape, polar_shape, scaled
from fermigte.scan import (
    DEFAULT_TOL,
    POLAR_PRESCAN_CHUNK,
    POLAR_PRESCAN_POINTS,
    RMIN_PRESCAN_STEP,
    bisect_switch,
    first_switch,
    write_csv,
)

from conftest import csv_body_oracle, distance_oracle, polar_gte, polar_q_star, sweep_oracle

D2, D3 = Dimensionality.TWO_D, Dimensionality.THREE_D

# every float (signed zeros, infinities, nan, subnormals) and Python ints
csv_numbers = st.floats(allow_subnormal=True) | st.integers(min_value=-(10**300), max_value=10**300)

# closed-form thresholds, digits pinned against a 40-digit evaluation of
# x = (1 - sqrt(3*(sqrt(5)-2)))/2 and y = sqrt(3*(sqrt(5)-2))/2
X_STAR = 0.0792257337659036
Y_STAR = 0.4207742662340964


def limit_er_collinear(x: float) -> float:
    return er_lower_bound(couplings_zero_limit(x, 1.0, 1.0 - x))


def limit_er_isosceles(y: float) -> float:
    s = math.hypot(0.5, y)
    return er_lower_bound(couplings_zero_limit(s, 1.0, s))


def bisect_predicate(pred, lo, hi, tol=1e-10):
    # pred must be True at lo and False at hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFindRmin:
    def test_three_d(self):
        assert find_rmin(D3, tol=1e-6) == pytest.approx(2.5964, abs=5e-4)

    def test_two_d(self):
        assert find_rmin(D2, tol=1e-6) == pytest.approx(2.3588, abs=5e-4)

    def test_couplings_at_crossing(self):
        r = find_rmin(D3, tol=1e-6)
        c = couplings_from_config(scaled(r, collinear_shape(0.5), D3))
        assert c.p12 == pytest.approx(0.539345, abs=1e-5)
        assert c.p23 == pytest.approx(0.539345, abs=1e-5)
        assert c.p13 == pytest.approx(-0.160702, abs=1e-5)

    def test_no_crossing_raises(self):
        with pytest.raises(BracketError):
            find_rmin(D3, tol=1e-6, prescan_range=(3.0, 4.0))

    def test_range_narrower_than_a_prescan_step(self):
        # the pre-scan grid ends at hi, so (2.59, 2.60) is one grid interval
        assert RMIN_PRESCAN_STEP > 2.60 - 2.59
        r = find_rmin(D3, tol=1e-6, prescan_range=(2.59, 2.60))
        assert r == pytest.approx(2.596409, abs=1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(DomainError):
            find_rmin(D3, tol=tol)

    @pytest.mark.parametrize(
        "prescan_range", [(4.0, 3.0), (math.nan, 3.0), (2.0, math.inf), (0.0, 3.0), (1.0, 60.0)]
    )
    def test_rejects_bad_prescan_range(self, prescan_range):
        with pytest.raises(DomainError):
            find_rmin(D3, prescan_range=prescan_range)

    def test_below_polygon_bound(self):
        for dim in (D3, D2):
            r_lo = find_rmin(dim, tol=1e-6)
            r_hi = r_max_solver(dim, tol=1e-5)
            assert r_lo < r_hi
            assert r_hi - r_lo <= 0.005


class TestAnalyticThresholds:
    def test_values(self):
        t = analytic_limit_thresholds()
        assert t["x_over_r"] == pytest.approx(X_STAR, abs=1e-12)
        assert t["y_over_r"] == pytest.approx(Y_STAR, abs=1e-12)

    def test_complementarity(self):
        t = analytic_limit_thresholds()
        assert t["x_over_r"] + t["y_over_r"] == pytest.approx(0.5, abs=1e-15)


class TestSweepCollinear:
    def test_limit_row_at_midpoint(self):
        rows = sweep_collinear(D3, [0.0], [0.5])
        expect = (3.0 * (4.0 / 3.0) - 1.0 - math.sqrt(5.0)) / (5.0 + math.sqrt(5.0))
        assert rows[0].er_lower_bound == pytest.approx(expect, abs=1e-12)
        assert rows[0].witness_value == pytest.approx(4.0, abs=1e-12)

    def test_limit_positivity_window(self):
        # nonzero strictly inside (x*, 1-x*), zero outside
        for x in (0.02, 0.079, 0.921, 0.98):
            assert limit_er_collinear(x) == 0.0
        for x in (0.0795, 0.3, 0.5, 0.7, 0.9205):
            assert limit_er_collinear(x) > 0.0

    def test_limit_crossing_matches_closed_form(self):
        crossing = bisect_predicate(
            lambda x: limit_er_collinear(x) == 0.0, 0.01, 0.4
        )
        assert crossing == pytest.approx(analytic_limit_thresholds()["x_over_r"], abs=1e-4)

    def test_near_gte_distance(self):
        rows = sweep_collinear(D3, [2.59], [0.5])
        assert 0.0 <= rows[0].er_lower_bound <= 1e-3

    def test_row_recompute_invariant(self):
        rows = sweep_collinear(D3, [0.0, 1.0, 2.0], [0.2, 0.5, 0.8])
        for row in rows:
            assert row.er_lower_bound == er_lower_bound(Couplings(row.p12, row.p13, row.p23))


class TestSweepIsosceles:
    def test_limit_monotone_decreasing(self):
        ys = list(np.linspace(0.0, 0.9, 60))
        rows = sweep_isosceles(D3, [0.0], ys)
        ers = [r.er_lower_bound for r in rows]
        assert all(b <= a + 1e-15 for a, b in zip(ers, ers[1:]))

    def test_limit_crossing(self):
        crossing = bisect_predicate(
            lambda y: limit_er_isosceles(y) > 0.0, 0.1, 0.8
        )
        assert crossing == pytest.approx(Y_STAR, abs=1e-4)

    def test_equilateral_row_is_zero(self):
        y_eq = math.sqrt(3.0) / 2.0
        for kfr in (0.5, 1.0, 2.0, 5.0):
            rows = sweep_isosceles(D3, [kfr], [y_eq])
            assert rows[0].er_lower_bound == 0.0

    def test_finite_kfr_below_limit(self):
        for y in (0.0, 0.2):
            finite = sweep_isosceles(D3, [1.0], [y])[0].er_lower_bound
            limit = sweep_isosceles(D3, [0.0], [y])[0].er_lower_bound
            assert finite <= limit


class TestSweepPolarBoundary:
    def test_limit_circle(self):
        thetas = list(np.linspace(0.0, math.pi / 2.0, 9))
        rows = sweep_polar_boundary(D3, [0.0], thetas)
        qs = [r.q_star for r in rows]
        assert max(qs) - min(qs) <= 1e-6
        assert qs[0] == pytest.approx(Y_STAR, abs=1e-4)

    def test_boundary_squeezes_with_distance(self):
        q_at = {}
        for kfr in (1.0, 2.0, 2.5):
            rows = sweep_polar_boundary(D3, [kfr], [math.pi / 2.0])
            q_at[kfr] = rows[0].q_star
        assert q_at[1.0] > q_at[2.0] > q_at[2.5] > 0.0

    def test_vanishes_beyond_gte_distance(self):
        thetas = list(np.linspace(0.0, math.pi / 2.0, 5))
        rows = sweep_polar_boundary(D3, [2.7], thetas)
        assert all(r.q_star == 0.0 for r in rows)

    def test_saturated_rows_report_endpoints(self, monkeypatch):
        # the physics never saturates the quarter disk, so exercise the
        # all-true / all-false reporting through a stubbed predicate
        import fermigte.scan as scan_module

        def constant(gte):  # the centre and every later radius
            monkeypatch.setattr(scan_module, "_polar_gte", lambda d, kfr, *a: np.full(kfr.size, gte))

        constant(True)
        rows = sweep_polar_boundary(D3, [1.0], [0.3])
        assert rows[0].q_star == 0.5
        constant(False)
        rows = sweep_polar_boundary(D3, [1.0], [0.3])
        assert rows[0].q_star == 0.0


class TestBracketThenBisect:
    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], None),
            ([True], None),
            ([True, True, True], None),
            ([False, False, False], None),
            ([False, True, True], None),
            ([False, True, False, True], 1),
            ([True, False, True, False], 0),
            ([True, True, True, False], 2),
        ],
        ids=[
            "empty",
            "single",
            "all-true",
            "all-false",
            "no-switch-after-leading-false",
            "leading-false",
            "first-of-two",
            "last-step",
        ],
    )
    def test_first_switch(self, flags, expected):
        assert first_switch(flags) == expected

    def test_first_switch_reads_no_flag_past_the_switch(self):
        def flags():
            yield from (True, True, False)
            raise AssertionError("read a flag past the switch")

        assert first_switch(flags()) == 1

    def test_bisect_switch_logs_its_steps(self, caplog):
        calls = []

        def before(x):
            calls.append(x)
            return x < math.sqrt(2.0)

        with caplog.at_level(logging.DEBUG, logger="fermigte"):
            bisect_switch(before, 1.0, 2.0, 1e-9)
        (record,) = [r for r in caplog.records if r.name == "fermigte.scan"]
        assert record.levelno == logging.DEBUG
        bracket, steps, width = record.args
        assert bracket == (1.0, 2.0)
        assert steps == len(calls) == 30
        assert width == 2.0**-30

    def test_library_logger_is_silent_by_default(self):
        handlers = logging.getLogger("fermigte").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_r_max_solver_logs_its_prescan_flags(self, monkeypatch, caplog):
        import fermigte.bisep as bisep_module

        seen = []
        real = bisep_module._outside

        def counting(dim, separation):
            seen.append(real(dim, separation))
            return seen[-1]

        monkeypatch.setattr(bisep_module, "_outside", counting)
        with caplog.at_level(logging.DEBUG, logger="fermigte"):
            r_max_solver(D3, tol=1e-5)
        (prescan,) = [r for r in caplog.records if r.name == "fermigte.bisep"]
        (bisection,) = [r for r in caplog.records if r.name == "fermigte.scan"]
        assert prescan.levelno == logging.DEBUG
        i, flags = prescan.args
        assert flags == seen[: bisep_module.PRESCAN_POINTS]
        assert len(flags) == bisep_module.PRESCAN_POINTS
        assert i == first_switch(flags)
        assert flags[: i + 1] == [True] * (i + 1) and not any(flags[i + 1 :])
        assert len(seen) == len(flags) + bisection.args[1]

    @pytest.mark.parametrize("prescan_range", [None, (3.0, 4.0)], ids=["switch", "no-switch"])
    def test_find_rmin_logs_the_flags_it_read(self, monkeypatch, caplog, prescan_range):
        import fermigte.scan as scan_module

        # one coupling evaluation per predicate call
        calls = []
        real = scan_module.cpl.from_config
        monkeypatch.setattr(scan_module.cpl, "from_config", lambda cfg: calls.append(cfg) or real(cfg))
        raises = pytest.raises(BracketError) if prescan_range else contextlib.nullcontext()
        with caplog.at_level(logging.DEBUG, logger="fermigte"), raises:
            find_rmin(D3, prescan_range=prescan_range)
        records = [r for r in caplog.records if r.name == "fermigte.scan"]
        prescan = records[0]
        assert prescan.levelno == logging.DEBUG
        assert prescan.msg.startswith("find_rmin")
        i, read = prescan.args
        if prescan_range is None:
            (bisection,) = records[1:]
            assert read == i + 2
            assert len(calls) == read + bisection.args[1]
        else:
            assert (i, records[1:]) == (None, [])
            assert read == len(calls) == 21

    def test_solver_records_are_silent_by_default(self, caplog):
        assert not logging.getLogger("fermigte").isEnabledFor(logging.DEBUG)
        find_rmin(D3)
        r_max_solver(D3)
        assert [r for r in caplog.records if r.name.startswith("fermigte")] == []

    def test_bisect_switch_brackets_the_switch(self):
        root = bisect_switch(lambda x: x < math.sqrt(2.0), 1.0, 2.0, 1e-12)
        assert abs(root - math.sqrt(2.0)) <= 1e-12

    def test_bisect_switch_returns_midpoint_of_narrow_bracket(self):
        assert bisect_switch(lambda x: pytest.fail("no step needed"), 1.0, 1.5, 0.5) == 1.25

    def test_bisect_switch_tolerance_below_float_spacing(self):
        with pytest.raises(ConvergenceFailure):
            bisect_switch(lambda x: x < 1.3, 1.0, 2.0, 1e-300)

    def test_bisect_switch_stops_where_no_float_splits_the_bracket(self):
        # 52 halvings of [1, 2] reach the float spacing 2**-52 at 1.3
        calls = []

        def before(x):
            calls.append(x)
            return x < 1.3

        with pytest.raises(ConvergenceFailure) as info:
            bisect_switch(before, 1.0, 2.0, 1e-300)
        assert len(calls) <= 60
        # one line naming the tolerance and the bracket it could not split
        below = math.nextafter(1.3, 1.0)
        assert str(info.value) == f"tol=1e-300 is below the float spacing of [{below!r}, 1.3]"

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "solve",
        [lambda tol: find_rmin(D3, tol=tol), lambda tol: r_max_solver(D3, tol=tol)],
        ids=["find_rmin", "r_max_solver"],
    )
    def test_solvers_reject_bad_tolerance(self, solve, tol):
        with pytest.raises(DomainError, match="^tol must be positive and finite"):
            solve(tol)


@pytest.fixture
def polar_rows(monkeypatch):
    """(kfr, theta, q) of each point a polar predicate call reads, in call
    order; theta is read back from the directions that the sweep takes from
    geometry._polar_direction."""
    import fermigte.scan as scan_module

    theta_of = {}
    real = scan_module.geometry._polar_direction

    def recording(theta):
        theta_of[real(theta)] = theta
        return real(theta)

    monkeypatch.setattr(scan_module.geometry, "_polar_direction", recording)

    def points(kfr, cos, sin, q):
        columns = (v.tolist() for v in (kfr, cos, sin, np.broadcast_to(q, kfr.shape)))
        return [(k, theta_of[(c, s)], qk) for k, c, s, qk in zip(*columns)]

    return points


@pytest.fixture
def polar_calls(monkeypatch, polar_rows):
    # (kfr, theta) -> q of every row-predicate evaluation on that row, the centre included
    import fermigte.scan as scan_module

    calls, real = {}, scan_module._polar_gte

    def counting(dim, kfr, cos, sin, q, *row_constants):
        for k, theta, qk in polar_rows(kfr, cos, sin, q):
            calls.setdefault((k, theta), []).append(qk)
        return real(dim, kfr, cos, sin, q, *row_constants)

    monkeypatch.setattr(scan_module, "_polar_gte", counting)
    return calls


def chunked(calls):
    """The radii the table reads on a row whose own solve reads calls: its
    pre-scan reads on to the end of the chunk that holds the first False."""
    grid = np.linspace(0.0, 0.5, POLAR_PRESCAN_POINTS).tolist()
    n = next((k for k, (q, g) in enumerate(zip(calls, grid)) if q != g), min(len(calls), len(grid)))
    return grid[: 1 + POLAR_PRESCAN_CHUNK * math.ceil((n - 1) / POLAR_PRESCAN_CHUNK)] + calls[n:]


class TestLazyPrescan:
    @pytest.mark.parametrize("kfr, theta", [(2.0, math.pi / 2.0), (1.0, 0.3)])
    def test_polar_row_stops_at_the_first_switch(self, polar_calls, caplog, kfr, theta):
        qs = [float(q) for q in np.linspace(0.0, 0.5, POLAR_PRESCAN_POINTS)]
        flags = [polar_gte(D3, kfr, theta, q) for q in qs]
        i = next(k for k in range(len(qs) - 1) if flags[k] and not flags[k + 1])
        assert i + 2 < POLAR_PRESCAN_POINTS
        with caplog.at_level(logging.DEBUG, logger="fermigte"):
            (row,) = sweep_polar_boundary(D3, [kfr], [theta])
        (record,) = [r for r in caplog.records if r.msg.startswith("bisect_switch")]
        steps = record.args[1]
        calls = polar_calls[(kfr, theta)]
        # the centre, then the pre-scan's chunks up to the one holding the first False
        read = 1 + min(32, 4 * math.ceil((i + 1) / 4))
        assert POLAR_PRESCAN_CHUNK == 4 and i + 2 <= read <= i + 2 + 3
        assert len(calls) == read + steps
        assert calls[:read] == qs[:read]
        assert all(qs[i] < q < qs[i + 1] for q in calls[read:])
        assert qs[i] < row.q_star < qs[i + 1]

    def test_polar_row_without_gte_at_the_centre_makes_one_evaluation(self, polar_calls):
        (row,) = sweep_polar_boundary(D3, [2.7], [0.3])
        assert row.q_star == 0.0
        assert polar_calls == {(2.7, 0.3): [0.0]}

    def test_r_max_prescan_still_checks_for_a_second_switch(self, monkeypatch):
        import fermigte.bisep as bisep_module

        # outside, inside, outside again, inside: two outside->inside switches
        outside = [True] * 10 + [False] * 5 + [True] * 5 + [False] * 12
        assert len(outside) == bisep_module.PRESCAN_POINTS
        flags = iter(outside)
        monkeypatch.setattr(bisep_module, "_outside", lambda *a: next(flags))
        with pytest.raises(BracketError):
            r_max_solver(D3, tol=1e-5)
        assert next(flags, None) is None


class TestPolarFloatPath:
    """Figure 2's rows equal a per-row solver on the public objects, evaluation for evaluation."""

    @pytest.mark.parametrize("dim", [D2, D3])
    @pytest.mark.parametrize("points", [181, 201, 221])
    def test_figure_rows_equal_the_public_path(self, dim, points, polar_calls):
        # the theta grid of `sweep --figure 2 --points <points>`
        thetas = np.linspace(0.0, math.pi / 2.0, points // 2).tolist()
        rows = sweep_polar_boundary(dim, _FIG2_KFR, thetas)
        ref_calls = {(kfr, theta): [] for kfr in _FIG2_KFR for theta in thetas}
        ref = [
            (kfr, theta, polar_q_star(dim, kfr, theta, 1e-6, calls))
            for (kfr, theta), calls in ref_calls.items()
        ]
        assert [(r.kfr, r.theta, r.q_star) for r in rows] == ref
        assert polar_calls == {key: chunked(calls) for key, calls in ref_calls.items()}

    def test_rows_log_their_prescan(self, polar_calls, caplog):
        kfrs, thetas = [0.0, 1.0, 2.7], [0.0, 0.3, math.pi / 2.0]
        with caplog.at_level(logging.DEBUG, logger="fermigte"):
            sweep_polar_boundary(D3, kfrs, thetas)
        records = [r for r in caplog.records if r.name == "fermigte.scan"]
        assert all(r.levelno == logging.DEBUG for r in records)
        qs = np.linspace(0.0, 0.5, POLAR_PRESCAN_POINTS).tolist()
        for kfr, theta in itertools.product(kfrs, thetas):
            (k,) = [k for k, r in enumerate(records) if r.args[:2] == (kfr, theta)]
            assert records[k].msg.startswith("sweep_polar_boundary")
            _, _, i, read = records[k].args
            flags = [polar_gte(D3, kfr, theta, q) for q in qs]
            calls = polar_calls[(kfr, theta)]
            assert calls[:read] == qs[:read]
            if not flags[0]:
                assert (i, read) == (None, 1)
                assert len(calls) == 1
            else:
                # read counts the points of the row's own solve, as before the
                # chunked pre-scan; the table reads on to its chunk's end
                assert i == first_switch(flags) is not None
                assert read == i + 2
                bisection = records[k + 1]
                assert bisection.msg.startswith("bisect_switch")
                assert len(calls) == len(chunked(qs[:read])) + bisection.args[1]

    def test_every_prescan_bracket_takes_14_bisection_steps(self):
        # each pre-scan step is exactly 1/64 wide and halves to DEFAULT_TOL
        # in 14 steps, far above the float spacing on [0, 1/2]
        (width,) = set(np.diff(np.linspace(0.0, 0.5, POLAR_PRESCAN_POINTS)).tolist())
        assert width == 1 / 64
        assert width / 2**14 <= DEFAULT_TOL < width / 2**13

    @pytest.mark.parametrize("dim", ["2d", "3d"])
    @pytest.mark.parametrize("points", [2, 181, 201, 221])
    def test_every_figure_bisection_takes_14_steps(self, dim, points, capsys, caplog):
        with caplog.at_level(logging.DEBUG, logger="fermigte.scan"):
            assert main(["sweep", "--figure", "2", "--dim", dim, "--points", str(points)]) == 0
        capsys.readouterr()
        records = iter(caplog.records)
        rows = 0
        for record in records:
            assert record.msg.startswith("sweep_polar_boundary row")
            rows += 1
            if record.args[2] is not None:
                bisection = next(records)
                assert bisection.msg.startswith("bisect_switch")
                assert bisection.args[1] == 14
        assert rows == len(_FIG2_KFR) * max(2, points // 2)

    def test_saturated_row_logs_every_prescan_point(self, monkeypatch, caplog):
        import fermigte.scan as scan_module

        calls = []

        def always(dim, kfr, cos, sin, q, limit, f13):
            calls.extend(np.broadcast_to(q, kfr.shape).tolist())
            return np.ones(kfr.size, bool)

        monkeypatch.setattr(scan_module, "_polar_gte", always)
        with caplog.at_level(logging.DEBUG, logger="fermigte"):
            sweep_polar_boundary(D3, [1.0], [0.3])
        (record,) = [r for r in caplog.records if r.name == "fermigte.scan"]
        assert record.args == (1.0, 0.3, None, POLAR_PRESCAN_POINTS)
        assert calls == np.linspace(0.0, 0.5, POLAR_PRESCAN_POINTS).tolist()

    def test_row_records_are_silent_by_default(self, caplog):
        assert not logging.getLogger("fermigte").isEnabledFor(logging.DEBUG)
        sweep_polar_boundary(D3, [1.0, 2.7], [0.0, 0.3])
        assert [r for r in caplog.records if r.name.startswith("fermigte")] == []


def _error(call):
    """(type, message) of the error call raises; fails if it returns."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestLockStep:
    """All rows of a sweep are solved together; each row reads what its own solve reads."""

    KFRS = [0.0, 1.0, 2.59, 2.7]
    # theta = 0 meets the coincident pair at q = 1/2
    THETAS = [0.0, 1e-3, 0.7, math.pi / 2.0]

    @pytest.mark.parametrize("dim", [D2, D3])
    def test_rows_equal_the_per_row_oracle(self, dim, polar_calls):
        rows = sweep_polar_boundary(dim, self.KFRS, self.THETAS)
        ref_calls = {}
        for row in rows:
            calls = ref_calls.setdefault((row.kfr, row.theta), [])
            assert row.q_star == polar_q_star(dim, row.kfr, row.theta, 1e-6, calls), row
        assert [(r.kfr, r.theta) for r in rows] == list(itertools.product(self.KFRS, self.THETAS))
        assert polar_calls == {key: chunked(calls) for key, calls in ref_calls.items()}
        reads = {len(c) for c in polar_calls.values()}
        assert 1 in reads and any(n > POLAR_PRESCAN_POINTS for n in reads)

    @pytest.mark.parametrize(
        "kfrs, thetas, point",
        [
            ([60.0], [0.3], (60.0, 0.3, 0.0)),
            ([1.0, -1.0], [0.3, 0.7], (-1.0, 0.3, 0.0)),
            ([1.0], [0.3, 4.0, 5.0], (1.0, 4.0, 0.0)),
            ([60.0, 1.0], [0.3, 4.0], (60.0, 0.3, 0.0)),
            ([math.nan], [0.3], (math.nan, 0.3, 0.0)),
            ([1.0, -1], [0.3], (-1, 0.3, 0.0)),
        ],
        ids=["kfr-above-range", "kfr-negative", "theta-4", "kfr-before-theta", "kfr-nan", "kfr-int"],
    )
    def test_domain_errors_are_the_scalar_errors(self, kfrs, thetas, point, polar_calls):
        # the error of the first failing row, at the first point it reads
        want = _error(lambda: polar_gte(D3, *point))
        assert want[0] is not AssertionError
        assert _error(lambda: sweep_polar_boundary(D3, kfrs, thetas)) == want
        # the rows are checked on the scalar chain: an invalid table reads no point
        assert polar_calls == {}

    def test_a_rejected_point_replays_its_own_distances(self, monkeypatch):
        # kfr = 60 puts d13 = 60 past the kernels' domain at the centre; the
        # error comes from the row's own centre shape (0.5, 1, 0.5), not from
        # a rebuilt polar shape
        import fermigte.scan as scan_module

        shapes, real = [], scan_module.cpl.from_shape

        def recording(shape, *args):
            shapes.append(shape)
            return real(shape, *args)

        monkeypatch.setattr(scan_module.geometry, "polar_shape", lambda *a: pytest.fail("rebuilt"))
        monkeypatch.setattr(scan_module.cpl, "from_shape", recording)
        with pytest.raises(DomainError, match="f_factor requires 0 <= x <= 50.0, got 60.0"):
            sweep_polar_boundary(D3, [60.0], [0.3])
        monkeypatch.undo()
        assert repr(shapes) == repr([polar_shape(0.3, 0.0)]) == repr([(0.5, 1.0, 0.5)])

    @pytest.mark.parametrize(
        "kfrs, thetas, point",
        [
            ([1.0, 2.7, 60.0], [0.3, 0.7], (60.0, 0.3, 0.0)),
            ([1.0, 2.7], [0.3, 0.7, 4.0], (1.0, 4.0, 0.0)),
        ],
        ids=["kfr-above-range", "theta-4"],
    )
    def test_an_invalid_row_after_valid_rows_reads_no_point(
        self, kfrs, thetas, point, polar_calls, caplog
    ):
        # the valid rows before it, some of which would be bisected, are not
        # read, and no row logs a record
        want = _error(lambda: polar_gte(D3, *point))
        with caplog.at_level(logging.DEBUG, logger="fermigte"):
            assert _error(lambda: sweep_polar_boundary(D3, kfrs, thetas)) == want
        assert [r for r in caplog.records if r.name == "fermigte.scan"] == []
        assert polar_calls == {}

    @pytest.mark.parametrize("dim", [D2, D3])
    def test_a_kfr_below_the_switch_gives_the_kfr_0_rows(self, dim):
        # the unit shape decides below LIMIT_SWITCH: subnormal kfrs included,
        # every row is the kfr = 0 row, bit for bit
        kfrs, thetas = [0.0, 5e-324, 2e-323, 5e-4], [0.0, 0.3, 1.2, math.pi / 2.0]
        q_stars = [r.q_star for r in sweep_polar_boundary(dim, kfrs, thetas)]
        limit = q_stars[: len(thetas)]
        assert 0.0 < min(limit) and max(limit) < 0.5
        assert repr(q_stars) == repr(limit * len(kfrs))

    @pytest.mark.parametrize("kfr", [0.0, 5e-4, 1.0])
    def test_a_coincident_pair_shows_no_gte_and_no_error(self, kfr):
        # theta = 0, q = 1/2 puts fermion 2 on fermion 3, as in the per-row oracle
        import fermigte.scan as scan_module

        kfrs = np.array([kfr])
        cos, sin = (np.array([v]) for v in scan_module.geometry._polar_direction(0.0))
        gte, rejected = checked_polar_gte(D3, kfrs, cos, sin, 0.5)
        assert (gte.tolist(), rejected.tolist()) == ([False], [False])
        row_constants = scan_module._row_constants(D3, kfrs)
        assert scan_module._polar_gte(D3, kfrs, cos, sin, 0.5, *row_constants).tolist() == [False]
        assert polar_gte(D3, kfr, 0.0, 0.5) is False

    @pytest.mark.parametrize("dim", [D2, D3])
    def test_each_call_reads_at_most_one_chunk_per_row(self, dim, monkeypatch, polar_rows):
        # the pre-scan evaluates POLAR_PRESCAN_CHUNK radii per row at a time,
        # not its whole grid at once
        import fermigte.scan as scan_module

        per_row = []

        real = scan_module._polar_gte

        def measuring(dim, kfr, cos, sin, q, *row_constants):
            rows = Counter((k, theta) for k, theta, _ in polar_rows(kfr, cos, sin, q))
            per_row.append(max(rows.values()))
            return real(dim, kfr, cos, sin, q, *row_constants)

        monkeypatch.setattr(scan_module, "_polar_gte", measuring)
        thetas = np.linspace(0.0, math.pi / 2.0, 100).tolist()
        sweep_polar_boundary(dim, _FIG2_KFR, thetas)
        # the centre, at most 8 pre-scan calls, then 14 bisection steps
        assert 1 + 14 < len(per_row) <= 1 + 8 + 14
        assert max(per_row) == POLAR_PRESCAN_CHUNK


def checked_polar_gte(dim, kfr, cos, sin, q):
    """The checked array chain at polar points: the GTE flag from
    cpl._weights_array and _er_parts, and the mask of the points that a
    check of the scalar chain rejects (where the flag means nothing)."""
    import fermigte.scan as scan_module

    s12, s23 = scan_module.geometry._polar_distances(q, cos, sin, np)
    p12, p13, p23, ok = scan_module.cpl._weights_array(dim, kfr, s12, 1.0, s23)
    return scan_module._er_parts(p12, p13, p23, np.maximum)[0] > 0.0, ~ok


def nan_direction(theta):
    """theta's (cos, sin), or (NaN, NaN) for a theta that it rejects: a
    direction that the checked chain rejects at every radius."""
    import fermigte.scan as scan_module

    return scan_module._or_nan(scan_module.geometry._polar_direction, theta, 2)


def _outcome(fn):
    """fn()'s rows as tuples, or its error's (type, message)."""
    try:
        rows = fn()
    except Exception as exc:  # any error must be the oracle's
        return type(exc), str(exc)
    return [tuple(r) for r in rows]


def polar_oracle(dim, kfrs, thetas):
    """The polar rows solved one at a time by polar_q_star; the first
    raising row's error ends the table."""
    pairs = itertools.product(kfrs, thetas)
    return [(kfr, theta, polar_q_star(dim, kfr, theta)) for kfr, theta in pairs]


@given(
    dim=st.sampled_from([D2, D3]),
    kfrs=st.lists(
        st.sampled_from([0.0, 5e-324, 1e-310, -1.0, 60.0, math.nan]) | st.floats(0.0, 3.0),
        max_size=3,
    ),
    thetas=st.lists(
        st.sampled_from([0.0, math.pi / 2.0, math.pi, -math.pi, 4.0, math.nan])
        | st.floats(-3.5, 3.5),
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
@example(dim=D3, kfrs=[1.0, 5e-324], thetas=[0.3])
@example(dim=D3, kfrs=[2.7, 1.0], thetas=[0.0, 0.7])
# the limit branch (kfr 0 and below LIMIT_SWITCH) and the kernel branch in one table
@example(dim=D2, kfrs=[0.0, 5e-4, 2.5], thetas=[0.0, math.pi / 2.0])
@example(dim=D3, kfrs=[2.5, 0.0, 5e-4], thetas=[math.pi / 2.0, 0.0])
# an empty table checks no row, an invalid theta's or kfr's included
@example(dim=D3, kfrs=[], thetas=[4.0])
@example(dim=D3, kfrs=[60.0], thetas=[])
def test_drawn_polar_grids_equal_the_row_by_row_oracle(dim, kfrs, thetas):
    got = _outcome(lambda: sweep_polar_boundary(dim, kfrs, thetas))
    assert got == _outcome(lambda: polar_oracle(dim, kfrs, thetas))


# kfr: normal floats up to 60 (the kernels' domain ends at 50), multiples of
# the smallest subnormal, zero, negative values and NaN
polar_kfrs = (
    st.floats(2.2250738585072014e-308, 60.0)
    | st.integers(0, 2**53).map(lambda k: k * 5e-324)
    | st.sampled_from([0.0, -0.0, 50.0, math.nextafter(50.0, 60.0), LIMIT_SWITCH, math.nan])
    | st.floats(max_value=-5e-324)
)


@given(
    dim=st.sampled_from([D2, D3]),
    kfr=polar_kfrs,
    theta=st.floats(-4.0, 4.0) | st.sampled_from([math.pi, -math.pi, math.inf, math.nan]),
    # every radius the sweep reads, a pre-scan point j/64 or a bisection
    # midpoint, is a multiple of 2**-20 in [0, 1/2]
    m=st.integers(0, 2**19),
)
@settings(max_examples=500, deadline=None)
@example(dim=D2, kfr=math.nextafter(50.0, 60.0), theta=math.pi, m=2**18)
# the unit shape decides: d12 = d23 = kfr/2 would round to 0 at the centre
@example(dim=D3, kfr=5e-324, theta=0.3, m=2**19)
def test_a_polar_point_is_rejected_only_where_its_centre_is(dim, kfr, theta, m):
    # the fact that lets the table check each row at its centre alone: d13 =
    # kfr is the largest distance at every q, and every centre is (0.5, 1, 0.5)
    cos, sin, kfrs = (np.array([v]) for v in (*nan_direction(theta), kfr))

    def rejected(q):
        return checked_polar_gte(dim, kfrs, cos, sin, q)[1].item()

    assert rejected(0.0) or not rejected(m / 2**20)
    if abs(theta) <= math.pi:
        assert repr(polar_shape(theta, 0.0)) == repr((0.5, 1.0, 0.5))


@given(
    dim=st.sampled_from([D2, D3]),
    kfr=polar_kfrs,
    theta=st.floats(-4.0, 4.0)
    | st.sampled_from([math.pi, -math.pi, 4.0, -4.0, math.inf, -math.inf, math.nan]),
)
@settings(max_examples=500, deadline=None)
@example(dim=D3, kfr=5e-324, theta=0.3)
@example(dim=D3, kfr=1e-323, theta=math.pi)
@example(dim=D2, kfr=math.nextafter(50.0, 60.0), theta=0.3)
@example(dim=D2, kfr=50.0, theta=math.nextafter(math.pi, 4.0))
def test_a_polar_centre_is_rejected_exactly_where_the_scalar_checks_raise(dim, kfr, theta):
    # the fact that lets the table check its rows on the scalar chain: the
    # checked array chain rejects a row's centre exactly where theta's
    # direction or the centre shape (0.5, 1, 0.5) at kfr raises
    import fermigte.scan as scan_module

    cos, sin, kfrs = (np.array([v]) for v in (*nan_direction(theta), kfr))
    rejected = checked_polar_gte(dim, kfrs, cos, sin, 0.0)[1].item()
    try:
        scan_module.geometry._polar_direction(theta)
        scan_module.cpl.from_shape(scan_module.geometry._SYMMETRIC_COLLINEAR, kfr, dim)
    except DomainError:
        assert rejected
    else:
        assert not rejected


@given(
    dim=st.sampled_from([D2, D3]),
    # (kfr, theta, m) per row: kfr 0 and below LIMIT_SWITCH (the limit
    # branch), or up to the kernels' domain end (the kernel branch)
    rows=st.lists(
        st.tuples(
            st.just(0.0)
            | st.floats(0.0, LIMIT_SWITCH, exclude_min=True, exclude_max=True)
            | st.floats(LIMIT_SWITCH / 4.0, 4.0 * LIMIT_SWITCH)
            | st.floats(2.2250738585072014e-308, 50.0),
            st.floats(-math.pi, math.pi) | st.sampled_from([0.0, math.pi / 2.0]),
            st.integers(0, 2**19),
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=300, deadline=None)
@example(dim=D2, rows=[(0.0, 0.0, 2**19), (5e-4, math.pi / 2.0, 2**17), (2.5, 0.0, 2**19)])
@example(dim=D3, rows=[(2.5, math.pi / 2.0, 3 * 2**14), (0.0, math.pi / 2.0, 1), (50.0, 0.3, 2**19)])
@example(dim=D3, rows=[(LIMIT_SWITCH, 0.3, 2**18), (math.nextafter(LIMIT_SWITCH, 0.0), 0.3, 2**18)])
# the centres, which the table reads through the same evaluator, on both branches
@example(dim=D2, rows=[(0.0, 0.3, 0), (5e-4, 0.0, 0), (2.5, math.pi / 2.0, 0)])
@example(dim=D3, rows=[(2.5, 0.0, 0), (0.0, math.pi / 2.0, 0), (5e-4, -0.7, 0)])
def test_a_cleared_row_evaluates_as_the_checked_chain(dim, rows):
    # a valid row's weights, and so its GTE flag, come from its row
    # constants alone, bit for bit, at every radius the sweep can read (a
    # multiple of 2**-20, the centre included)
    import fermigte.scan as scan_module

    weights, real = [], scan_module._er_parts

    def recording(p12, p13, p23, mx):
        weights.append(np.array([p12, p13, p23]).tobytes())
        return real(p12, p13, p23, mx)

    kfr, theta, m = (np.array(v) for v in zip(*rows))
    cos, sin = np.array([scan_module.geometry._polar_direction(t) for t in theta]).T
    valid = ~checked_polar_gte(dim, kfr, cos, sin, 0.0)[1]
    kfr, cos, sin, q = (v[valid] for v in (kfr, cos, sin, m / 2**20))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan_module, "_er_parts", recording)
        got = scan_module._polar_gte(dim, kfr, cos, sin, q, *scan_module._row_constants(dim, kfr))
        want = checked_polar_gte(dim, kfr, cos, sin, q)[0]
    assert got.tolist() == want.tolist()
    assert weights[0] == weights[1]


FAMILIES = {
    "collinear": (sweep_collinear, collinear_shape),
    "isosceles": (sweep_isosceles, isosceles_shape),
}


def family_outcomes(family, dim, kfrs, grid):
    """The outcome of the array sweep and of the per-point oracle; each
    float is compared by repr as well, so a signed zero shows."""
    sweep, shape_of = FAMILIES[family]
    got = _outcome(lambda: sweep(dim, kfrs, grid))
    want = _outcome(lambda: sweep_oracle(dim, kfrs, grid, shape_of))
    return (got, repr(got)), (want, repr(want))


# kfr lists that straddle the limit switch and reach the kernels' domain end,
# with an invalid kfr anywhere in the table
kfr_values = st.lists(
    st.sampled_from([0.0, 50.0])
    | st.floats(LIMIT_SWITCH / 4.0, 4.0 * LIMIT_SWITCH)
    | st.floats(0.0, 50.0, allow_subnormal=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 60.0]),
    min_size=1,
    max_size=4,
)


class TestArraySweeps:
    """The 1a, 1b and 3 sweeps, one array evaluation per table, equal the
    per-point scalar chain cell for cell and raise its errors."""

    @pytest.mark.parametrize("dim", [D2, D3])
    @pytest.mark.parametrize("points", [181, 201, 221])
    def test_cli_figure_grids(self, dim, points):
        grid = np.linspace(0.0, 1.0, points).tolist()
        cases = [
            ("collinear", _FIG_KFR[:1], _limit_safe(grid)),
            ("collinear", _FIG_KFR[1:], grid),
            ("isosceles", _FIG_KFR, grid),
        ]
        for family, kfrs, g in cases:
            got, want = family_outcomes(family, dim, kfrs, g)
            assert isinstance(want[0], list) and got == want, (family, kfrs[0])
        kfr_grid = [0.0] + np.linspace(0.015, 3.0, points).tolist()
        got = _outcome(lambda: sweep_distance([D2, D3], kfr_grid))
        assert repr(got) == repr(distance_oracle([D2, D3], kfr_grid))

    @given(
        dim=st.sampled_from([D2, D3]),
        kfrs=kfr_values,
        grid=st.lists(st.floats(0.0, 1.0, allow_subnormal=True), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    @example(dim=D3, kfrs=[0.0, LIMIT_SWITCH, 1.0005e-3], grid=[5e-324, 0.5, 1.0 - 2**-53])
    def test_drawn_collinear_grids(self, dim, kfrs, grid):
        got, want = family_outcomes("collinear", dim, kfrs, grid)
        assert got == want

    @given(
        dim=st.sampled_from([D2, D3]),
        kfrs=kfr_values,
        grid=st.lists(st.floats(0.0, 1.0) | st.floats(0.0, 1e4), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    # at kfr = 0 a wide shape keeps the limit of its unit shape
    @example(dim=D2, kfrs=[0.0, 1e-3], grid=[0.1, 2000.0, 5e-324])
    def test_drawn_isosceles_grids(self, dim, kfrs, grid):
        got, want = family_outcomes("isosceles", dim, kfrs, grid)
        assert got == want

    @given(kfrs=kfr_values)
    @settings(max_examples=100, deadline=None)
    def test_drawn_distance_grids(self, kfrs):
        got = _outcome(lambda: sweep_distance([D2, D3], kfrs))
        assert repr(got) == repr(_outcome(lambda: distance_oracle([D2, D3], kfrs)))

    @pytest.mark.parametrize(
        "family, kfrs, grid",
        [
            *[(f, [k], [0.5]) for f in FAMILIES for k in (-1.0, math.nan, math.inf, 60.0)],
            ("collinear", [1.0], [0.2, 1.5]),
            ("isosceles", [1.0], [0.2, -0.1]),
            # the equilateral limit point
            ("isosceles", [0.0], [0.2, math.sqrt(3.0) / 2.0]),
            # invalid points after valid rows
            ("collinear", [0.5, 2.0, 60.0, -1.0], [0.1, 0.9]),
            ("collinear", [0.5, 0.0], [0.3, 0.0, 1.5]),
            ("isosceles", [2.5, 1.0], [0.0, 0.4, 1e6]),
            ("isosceles", [1.0, -1.0], [0.2, -0.1]),
        ],
    )
    @pytest.mark.parametrize("dim", [D2, D3])
    def test_errors_are_the_scalar_errors(self, family, kfrs, grid, dim):
        got, want = family_outcomes(family, dim, kfrs, grid)
        assert isinstance(want[0], tuple) and got == want

    @pytest.mark.parametrize("kfrs", [[-1.0], [math.nan], [math.inf], [60.0], [0.5, 2.0, 60.0]])
    def test_distance_errors_are_the_scalar_errors(self, kfrs):
        got = _outcome(lambda: sweep_distance([D2, D3], kfrs))
        assert isinstance(got, tuple) and got == _outcome(lambda: distance_oracle([D2, D3], kfrs))


class TestSweepDistance:
    def test_limit_endpoint(self):
        rows = sweep_distance([D3], [0.0])
        assert rows[0].er_lower_bound == pytest.approx(0.1055728090, abs=1e-9)

    def test_monotone_decreasing_up_to_rmin(self):
        for dim in (D3, D2):
            rmin = find_rmin(dim, tol=1e-6)
            grid = [0.0] + list(np.linspace(rmin / 200.0, rmin, 200))
            rows = sweep_distance([dim], grid)
            ers = [r.er_lower_bound for r in rows]
            assert all(b <= a + 1e-15 for a, b in zip(ers, ers[1:]))

    def test_reaches_zero_at_rmin(self):
        for dim, rmin in ((D3, 2.5964), (D2, 2.3588)):
            rows = sweep_distance([dim], [rmin + 5e-4])
            assert rows[0].er_lower_bound == 0.0

    def test_dim_column(self):
        rows = sweep_distance([D2, D3], [1.0])
        assert rows[0].dim == "2d"
        assert rows[1].dim == "3d"


class TestCsvOutput:
    @pytest.mark.parametrize(
        "argv, row, header",
        [
            (["--figure", "1a"], CollinearRow, "kfr,x_over_r,er_lower_bound,witness_value,p12,p13,p23"),
            (["--figure", "1b"], IsoscelesRow, "kfr,y_over_r,er_lower_bound,witness_value,p12,p13,p23"),
            (["--figure", "2"], PolarBoundaryRow, "kfr,theta,q_star"),
            (["--figure", "3"], DistanceRow, "dim,kfr,er_lower_bound,witness_value,p12,p13,p23"),
        ],
        ids=["1a", "1b", "2", "3"],
    )
    def test_row_fields_are_the_cli_header(self, capsys, argv, row, header):
        assert main(["sweep", *argv, "--points", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == header == ",".join(row._fields)

    FIG_GRID = np.linspace(0.0, 1.0, 201).tolist()
    FIG2_THETAS = np.linspace(0.0, math.pi / 2.0, 100).tolist()

    @pytest.mark.parametrize(
        "sweep, row, count",
        [
            (lambda: sweep_collinear(D3, [0.0, 1.0], [0.3, 0.5]), CollinearRow, 4),
            (lambda: sweep_isosceles(D3, [0.0, 1.0], [0.3, 0.5]), IsoscelesRow, 4),
            (lambda: sweep_distance([D2, D3], [0.0, 1.0]), DistanceRow, 4),
            (lambda: sweep_polar_boundary(D3, [2.7, 1.0], [0.0, 0.5]), PolarBoundaryRow, 4),
            (lambda: sweep_collinear(D3, _FIG_KFR, TestCsvOutput.FIG_GRID), CollinearRow, 1407),
            (lambda: sweep_isosceles(D2, _FIG_KFR, TestCsvOutput.FIG_GRID), IsoscelesRow, 1407),
            (lambda: sweep_distance([D2, D3], TestCsvOutput.FIG_GRID), DistanceRow, 402),
            (lambda: sweep_polar_boundary(D3, _FIG2_KFR, TestCsvOutput.FIG2_THETAS), PolarBoundaryRow, 500),
        ],
        ids=["collinear", "isosceles", "distance", "polar", "fig-1a", "fig-1b", "fig-3", "fig-2"],
    )
    def test_each_sweep_returns_its_row_type(self, sweep, row, count):
        # every row is the row class with one cell per field, so that its
        # _fields name the CSV columns
        rows = sweep()
        assert len(rows) == count
        assert all(type(r) is row and len(r) == len(row._fields) for r in rows)

    @staticmethod
    def library_csv(figure: str, dim: Dimensionality, points: int) -> str:
        """`gte-fermi sweep`'s table written from the library sweeps' rows on
        the CLI's grids: figure 1a is its limit row on the inset grid, then
        the rest."""
        grid = np.linspace(0.0, 1.0, points).tolist()
        if figure == "1a":
            rows = sweep_collinear(dim, _FIG_KFR[:1], _limit_safe(grid))
            rows += sweep_collinear(dim, _FIG_KFR[1:], grid)
        elif figure == "1b":
            rows = sweep_isosceles(dim, _FIG_KFR, grid)
        elif figure == "2":
            thetas = np.linspace(0.0, math.pi / 2.0, max(2, points // 2)).tolist()
            rows = sweep_polar_boundary(dim, _FIG2_KFR, thetas)
        else:
            rows = sweep_distance([D2, D3], [0.0] + np.linspace(0.015, 3.0, points).tolist())
        buf = io.StringIO()
        write_csv(type(rows[0])._fields, rows, buf)
        return buf.getvalue()

    @staticmethod
    def cli_csv(figure: str, dim: Dimensionality, points: int) -> str:
        out = io.StringIO()
        dim_flag = [] if figure == "3" else ["--dim", dim.value]
        with contextlib.redirect_stdout(out):
            assert main(["sweep", "--figure", figure, *dim_flag, "--points", str(points)]) == 0
        return out.getvalue()

    TABLES = [("1a", D2), ("1a", D3), ("1b", D2), ("1b", D3), ("2", D2), ("2", D3), ("3", D3)]

    @pytest.mark.parametrize("points", [2, 3, 201])
    @pytest.mark.parametrize("figure, dim", TABLES)
    def test_the_cli_prints_the_library_rows(self, figure, dim, points):
        # the CLI's text-axis columns and the library's rows are two views
        # of one table and print the same bytes
        assert self.cli_csv(figure, dim, points) == self.library_csv(figure, dim, points)

    @given(st.sampled_from(TABLES), st.integers(2, 600))
    @settings(max_examples=30, deadline=None)
    def test_the_cli_prints_the_library_rows_at_drawn_points(self, table, points):
        assert self.cli_csv(*table, points) == self.library_csv(*table, points)

    @pytest.mark.parametrize(
        "sweep, row",
        [
            (lambda: sweep_collinear(D3, [], [0.5]), CollinearRow),
            (lambda: sweep_collinear(D3, [1.0], []), CollinearRow),
            (lambda: sweep_isosceles(D3, [], [0.5]), IsoscelesRow),
            (lambda: sweep_isosceles(D3, [0.0, 1.0], []), IsoscelesRow),
            (lambda: sweep_distance([D3], []), DistanceRow),
            (lambda: sweep_polar_boundary(D3, [1.0], []), PolarBoundaryRow),
            (lambda: sweep_polar_boundary(D3, [], [0.3]), PolarBoundaryRow),
        ],
        ids=[
            "collinear-no-kfr", "collinear-no-grid", "isosceles-no-kfr", "isosceles-no-grid",
            "distance", "polar-no-theta", "polar-no-kfr",
        ],
    )
    def test_an_empty_sweep_writes_the_header_only(self, sweep, row):
        rows = sweep()
        assert rows == []
        buf = io.StringIO()
        write_csv(row._fields, rows, buf)
        assert buf.getvalue() == ",".join(row._fields) + "\n"

    @pytest.mark.parametrize(
        "columns, rows",
        [
            # six cells, as two rows of three have: one format call alone accepts them
            (["a", "b", "c"], [(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0)]),
            (["a", "b", "c"], [(1.0, 2.0), (3.0, 4.0)]),
            (["a"], [(1.0, 2.0)]),
        ],
        ids=["ragged", "narrow", "wide"],
    )
    def test_write_csv_rejects_rows_that_do_not_fit_the_columns(self, columns, rows):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="cells, one per column"):
            write_csv(columns, rows, buf)
        assert buf.getvalue() == ""

    def test_write_csv_formatting(self):
        buf = io.StringIO()
        write_csv(["a", "b"], [[1.0 / 3.0, "2d"]], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "0.333333333333,2d"

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet=st.characters(blacklist_characters=",\n\r"), max_size=8),
                csv_numbers,
                csv_numbers,
            ),
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    @example([])  # the header only
    @example([("2d", 0.0, -0.0), ("3d", math.inf, -math.inf), ("%s", math.nan, 5e-324)])
    @example([("", 1e300, -1e-300), ("x", 7, -(10**20)), ("y", True, 2.2250738585072014e-308)])
    def test_write_csv_matches_the_per_cell_formatter(self, rows):
        # the rows arrive as a generator, read once
        buf = io.StringIO()
        write_csv(["dim", "a", "b"], (row for row in rows), buf)
        expect = "dim,a,b\n" + "".join(f"{d},{a:.12g},{b:.12g}\n" for d, a, b in rows)
        assert buf.getvalue() == expect

    @given(
        st.integers(0, 2),
        st.lists(st.tuples(csv_numbers, csv_numbers, csv_numbers), max_size=8),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    @example(1, [(-0.0, 5e-324, 1e300), (math.nan, -1e300, 2.2250738585072014e-309)], False)
    @example(0, [(-0.0, 5e-324, 1e300), (math.nan, -1e300, 2.2250738585072014e-309)], True)
    @example(2, [(-0.0, 5e-324, 1e300), (math.nan, -1e300, 2.2250738585072014e-309)], True)
    @example(1, [], False)
    def test_write_csv_equals_the_per_row_writer(self, text_columns, rows, as_generator):
        # the first text_columns cells of a row are str: two in the CLI's
        # tables (their axis columns), one in the library's figure 3 rows (dim)
        rows = [tuple(f"{v!r}" if i < text_columns else v for i, v in enumerate(row)) for row in rows]
        template = ",".join(["%s"] * text_columns + ["%.12g"] * (3 - text_columns)) + "\n"
        expect = "a,b,c\n" + csv_body_oracle(template, rows)
        # the stream already holds text, as a table written after others does
        buf = io.StringIO()
        buf.write("earlier\n")
        start = buf.tell()
        write_csv(("a", "b", "c"), (row for row in rows) if as_generator else rows, buf)
        assert buf.getvalue()[start:] == expect
        assert buf.tell() - start == len(expect)
