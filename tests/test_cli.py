import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermigte
from fermigte import Dimensionality, er_lower_bound, scan
from fermigte.couplings import from_shape as couplings_from_shape
from fermigte.geometry import (
    collinear_shape,
    equilateral_shape,
    isosceles_shape,
    polar_shape,
    scaled,
)
from fermigte.cli import MAX_POINTS, build_parser, main

from conftest import lens_hull, matrix_from_text


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_f(self, capsys):
        code, out, _ = run(capsys, ["f", "--dim", "3d", "--x", "1.0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["quantity"] == "f_factor"
        assert payload["value"] == pytest.approx(3.0 * (math.sin(1.0) - math.cos(1.0)), abs=1e-12)

    def test_couplings_limit(self, capsys):
        code, out, _ = run(
            capsys,
            ["couplings", "--dim", "3d", "--d12", "0.5", "--d13", "1.0", "--d23", "0.5", "--limit"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p12"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert payload["p13"] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert payload["p23"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert payload["violations"] == []

    def test_er_limit_collinear(self, capsys):
        code, out, _ = run(
            capsys, ["er", "--geometry", "collinear", "--kfr", "0", "--x-over-r", "0.5"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.105573, abs=1e-6)
        assert payload["value"] == pytest.approx(
            (3.0 - math.sqrt(5.0)) / (5.0 + math.sqrt(5.0)), abs=1e-9
        )

    @pytest.mark.parametrize(
        "geometry, flags, shape",
        [
            ("collinear", [], collinear_shape(0.5)),
            ("collinear", ["--x-over-r", "0.3"], collinear_shape(0.3)),
            ("isosceles", ["--y-over-r", "0.4"], isosceles_shape(0.4)),
            ("polar", ["--theta", "0.3", "--q-over-r", "0.2"], polar_shape(0.3, 0.2)),
            ("equilateral", [], equilateral_shape()),
        ],
    )
    def test_er_takes_its_geometry_flags(self, capsys, geometry, flags, shape):
        args = ["er", "--geometry", geometry, "--dim", "2d", "--kfr", "1.5", *flags]
        code, out, _ = run(capsys, args)
        assert code == 0
        c = couplings_from_shape(shape, 1.5, Dimensionality.TWO_D)
        assert json.loads(out)["value"] == er_lower_bound(c)

    def test_werner(self, capsys):
        code, out, _ = run(
            capsys,
            ["werner", "--d12", "0.5", "--d13", "1.0", "--d23", "0.5", "--limit"],
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["r_plus"] == pytest.approx(0.0, abs=1e-12)
        assert payload["r3"] == 0.0

    def test_gte_distance_witness(self, capsys):
        code, out, _ = run(capsys, ["gte-distance", "--dim", "3d", "--method", "witness"])
        assert code == 0
        payload = json.loads(out)
        assert payload["quantity"] == "gte_distance_lower_bound"
        assert payload["value"] == pytest.approx(2.5964, abs=5e-4)
        assert payload["tolerance_used"] == 1e-6


class TestLimitModeDim:
    """Limit weights have no dimension: a limit-mode result reports dim null
    and reads the same under either --dim."""

    TRIANGLE = ["--d12", "0.5", "--d13", "1", "--d23", "0.7"]

    @pytest.mark.parametrize(
        "args",
        [
            ["couplings", *TRIANGLE, "--limit"],
            ["werner", *TRIANGLE, "--limit"],
            ["rho3", *TRIANGLE, "--limit"],
            ["er", "--geometry", "triangle", *TRIANGLE, "--limit"],
            ["er", "--geometry", "collinear", "--x-over-r", "0.3"],
            ["er", "--geometry", "isosceles", "--kfr", "0", "--y-over-r", "0.4"],
            ["er", "--geometry", "polar", "--kfr", "0", "--theta", "0.3", "--q-over-r", "0.2"],
        ],
    )
    def test_output_ignores_dim(self, capsys, args):
        outs = []
        for dim in ("2d", "3d"):
            code, out, err = run(capsys, [*args, "--dim", dim])
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        if args[0] != "rho3":
            assert json.loads(outs[0])["dim"] is None

    @pytest.mark.parametrize(
        "args",
        [
            ["couplings", *TRIANGLE],
            ["werner", *TRIANGLE],
            ["er", "--geometry", "triangle", *TRIANGLE],
            ["er", "--geometry", "collinear", "--kfr", "1.5"],
        ],
    )
    def test_finite_size_reports_its_dim(self, capsys, args):
        code, out, _ = run(capsys, [*args, "--dim", "2d"])
        assert code == 0
        assert json.loads(out)["dim"] == "2d"


class TestRecordKeys:
    """Each JSON record lists its keys in one fixed order."""

    TRIANGLE = ["--d12", "0.5", "--d13", "1", "--d23", "0.7"]

    @pytest.mark.parametrize("limit", [[], ["--limit"]])
    @pytest.mark.parametrize(
        "command, keys",
        [
            ("couplings", ["quantity", "dim", "p12", "p13", "p23", "p", "violations"]),
            ("werner", ["quantity", "dim", "r_plus", "r0", "r1", "r2", "r3"]),
        ],
    )
    def test_triangle_records(self, capsys, command, keys, limit):
        code, out, _ = run(capsys, [command, *self.TRIANGLE, *limit])
        assert code == 0
        assert list(json.loads(out)) == keys

    @pytest.mark.parametrize(
        "detail, keys",
        [
            ([], ["min_value", "argmin", "nodes_evaluated"]),
            (["--detail"], ["min_value", "argmin", "nodes_evaluated", "per_family"]),
        ],
    )
    def test_witness_scan_record(self, capsys, detail, keys):
        code, out, _ = run(capsys, ["witness-scan", *detail])
        assert code == 0
        assert list(json.loads(out)) == keys


class TestParserReuse:
    """cli.main builds its parser once per process; a call reads as it does
    with a parser of its own."""

    @pytest.mark.parametrize(
        "calls",
        [
            [
                ["er", "--geometry", "collinear", "--x-over-r", "0.3"],
                ["er", "--geometry", "isosceles"],
            ],
            [
                ["er", "--geometry", "collinear", "--kfr", "1", "--bogus"],
                ["er", "--geometry", "polar"],
            ],
            [["sweep", "--figure", "1b", "--points", "5"], ["polygon", "--rplus", "0.041"]],
        ],
        ids=["no-stray-flag", "after-a-parse-error", "sweep-then-polygon"],
    )
    def test_calls_in_a_row_read_as_alone(self, capsys, calls):
        in_a_row = [run(capsys, argv) for argv in calls]
        assert build_parser() is build_parser()
        alone = []
        for argv in calls:
            build_parser.cache_clear()
            alone.append(run(capsys, argv))
        assert in_a_row == alone
        assert [code for code, _, _ in alone] == ([2, 0] if "--bogus" in calls[0] else [0, 0])


def test_2d_runs_never_import_scipy_special():
    # a fresh interpreter: the test modules themselves import scipy.special
    script = (
        "import contextlib, io, sys\n"
        "from fermigte import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['f', '--dim', '2d', '--x', '7.5']),\n"
        "             cli.main(['sweep', '--figure', '2', '--dim', '2d', '--points', '21'])]\n"
        "print(codes, 'scipy.special' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fermigte.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.stdout.strip() == "[0, 0] False", done.stderr


class TestMatrixAndTables:
    def test_rho3_round_trip(self, capsys):
        args = ["rho3", "--d12", "0.5", "--d13", "1.0", "--d23", "0.5", "--limit"]
        code, out, _ = run(capsys, args)
        assert code == 0
        m = matrix_from_text(out)
        assert m.shape == (8, 8)
        assert abs(np.trace(m) - 1.0) <= 1e-12
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12

    def test_determinism(self, capsys):
        args = ["rho3", "--d12", "0.7", "--d13", "1.3", "--d23", "0.8", "--dim", "2d"]
        _, first, _ = run(capsys, args)
        _, second, _ = run(capsys, args)
        assert first == second

    def test_polygon_csv(self, capsys):
        code, out, _ = run(capsys, ["polygon", "--rplus", "0.041"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r1,r2"
        assert len(lines) == 7

    # non-empty sections, 17 of the 23 with r3 > 0
    @pytest.mark.parametrize(
        "r_plus, r3",
        [
            (r_plus, r3)
            for r_plus in (0.005, 0.041, 0.1, 0.2, 0.3, 0.33)
            for r3 in (0.0, 0.05, 0.2, 0.4, 0.55)
            if 3.0 * r3 * r3 + (1.0 - 3.0 * r_plus) ** 2 < 1.0
        ],
    )
    def test_polygon_matches_sampled_hull(self, capsys, r_plus, r3):
        code, out, _ = run(capsys, ["polygon", "--rplus", repr(r_plus), "--r3", repr(r3)])
        assert code == 0
        vertices = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
        expected = lens_hull(r_plus, r3, 2048)
        assert vertices.shape == expected.shape == (6, 2)
        assert np.allclose(vertices, expected, rtol=0.0, atol=1e-12)

    def test_witness_scan_json(self, capsys):
        code, out, _ = run(capsys, ["witness-scan"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"min_value", "argmin", "nodes_evaluated"}
        assert payload["min_value"] >= -1e-12
        assert payload["nodes_evaluated"] == 10240
        assert set(payload["argmin"]) == {"family", "p", "angles", "phases"}

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--figure", "1a", "--points", "11"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kfr,x_over_r,er_lower_bound,witness_value,p12,p13,p23"
        assert len(lines) == 1 + 7 * 11

    def test_sweep_figure3_has_both_dims(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--figure", "3", "--points", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("dim,kfr")
        dims = {line.split(",")[0] for line in lines[1:]}
        assert dims == {"2d", "3d"}

    @pytest.mark.parametrize("dim", ["2d", "3d"])
    def test_sweep_figure3_rejects_dim(self, capsys, dim):
        code, out, err = run(capsys, ["sweep", "--figure", "3", "--dim", dim, "--points", "5"])
        assert (code, out) == (2, "")
        assert err == "error: --figure 3 covers both dims and takes no --dim\n"

    def test_sweep_dim_defaults_to_3d(self, capsys):
        outs = [run(capsys, ["sweep", "--figure", "1b", *dim, "--points", "5"]) for dim in ([], ["--dim", "3d"])]
        assert outs[0] == outs[1] and outs[0][0] == 0

    @pytest.mark.parametrize(
        "figure, sweep",
        [
            ("1a", "sweep_collinear"),
            ("1b", "sweep_isosceles"),
            ("2", "sweep_polar_boundary"),
            ("3", "sweep_distance"),
        ],
    )
    def test_sweep_grids_are_python_floats(self, capsys, monkeypatch, figure, sweep):
        # the per-point kernels run on plain floats, not np.float64 scalars
        seen = []
        real = getattr(scan, sweep)

        def spy(*args):
            seen.extend(v for a in args if isinstance(a, list) for v in a)
            return real(*args)

        monkeypatch.setattr(scan, sweep, spy)
        code, _, _ = run(capsys, ["sweep", "--figure", figure, "--points", "6"])
        assert code == 0
        grids = [v for v in seen if not isinstance(v, Dimensionality)]
        assert len(grids) >= 6
        assert all(type(v) is float for v in grids), {type(v) for v in grids}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code = main(["f", "--dim", "2d", "--x", "0.5", "--out", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["quantity"] == "f_factor"


class TestExitCodes:
    def test_validation_error(self, capsys):
        code, out, err = run(
            capsys,
            ["couplings", "--d12", "1", "--d13", "1", "--d23", "1", "--limit"],
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, ["f", "--dim", "3d", "--x", "-1"])
        assert code == 2
        assert "error:" in err

    def test_convergence_error(self, capsys):
        code, _, err = run(
            capsys,
            ["gte-distance", "--dim", "3d", "--method", "polygon", "--bracket", "3.0", "3.2"],
        )
        assert code == 3
        assert "error:" in err

    def test_bad_flags(self, capsys):
        assert main(["gte-distance", "--dim", "4d", "--method", "witness"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["couplings", "--dim", "3d", "--d12", "1"],
             "the following arguments are required: --d13, --d23"),
            (["sweep", "--figure", "5"], "argument --figure: invalid choice"),
            (["f", "--dim", "3d", "--x", "1", "--y", "2"], "unrecognized arguments: --y 2"),
            (["f", "--dim", "3d", "--x", "one"], "argument --x: invalid float value"),
            (["launch"], "argument command: invalid choice"),
        ],
        ids=["missing-flag", "bad-choice", "unknown-flag", "bad-float", "bad-command"],
    )
    def test_parse_errors_are_one_line(self, capsys, args, message):
        # argparse words the rest of a message (its choice lists, its quoting)
        # differently from one Python release to the next
        code, out, err = run(capsys, args)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith(f"error: {message}") and err.endswith("\n")

    def test_help_keeps_its_usage(self, capsys):
        code, out, err = run(capsys, ["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: gte-fermi")

    @pytest.mark.parametrize(
        "args, code, err",
        [
            (["er", "--geometry", "polar", "--kfr", "1", "--theta", "-1e-1", "--q-over-r", "0.2"],
             0, ""),
            (["couplings", "--d12", "1", "--d13", "-inf", "--d23", "1"],
             2, "error: distances must be finite and nonnegative, got (1.0, -inf, 1.0)\n"),
            (["f", "--dim", "3d", "--x", "-NaN"],
             2, "error: f_factor requires 0 <= x <= 50.0, got nan\n"),
            (["gte-distance", "--dim", "3d", "--method", "witness", "--bracket", "-1E+2", "3"],
             2, "error: prescan range must be increasing within (0, 50.0], got (-100.0, 3.0)\n"),
        ],
        ids=["theta-exponent", "d13-minus-inf", "x-minus-nan", "bracket-exponent"],
    )
    def test_negative_floats_read_as_values(self, capsys, args, code, err):
        # a negative float in any form is a flag's value, given after the flag or after "="
        got = run(capsys, args)
        assert got[::2] == (code, err)
        joined = [f"{a}={b}" for a, b in zip(args[1::2], args[2::2])]
        if "--bracket" not in args:
            assert run(capsys, [args[0], *joined]) == got

    @pytest.mark.parametrize(
        "args",
        [
            ["gte-distance", "--dim", "3d", "--method", "polygon", "--tol", "0"],
            ["gte-distance", "--dim", "3d", "--method", "witness", "--tol", "-1"],
            ["f", "--dim", "3d", "--x", "nan"],
            ["couplings", "--d12", "nan", "--d13", "1", "--d23", "1"],
            ["couplings", "--d12", "nan", "--d13", "1", "--d23", "1", "--limit"],
            ["sweep", "--figure", "1a", "--points", "0"],
            ["sweep", "--figure", "1a", "--points", "100000000000000000000"],
            ["sweep", "--figure", "2", "--points", "100000000000000000000"],
            ["sweep", "--figure", "2", "--points", str(MAX_POINTS + 1)],
            ["polygon", "--rplus", "nan"],
            ["gte-distance", "--dim", "3d", "--method", "polygon", "--bracket", "2", "inf"],
            ["gte-distance", "--dim", "3d", "--method", "witness", "--bracket", "4", "3"],
            ["gte-distance", "--dim", "3d", "--method", "witness", "--bracket", "nan", "3"],
            ["er", "--geometry", "equilateral", "--kfr", "0"],
            ["er", "--geometry", "collinear", "--kfr", "1", "--limit"],
            ["er", "--geometry", "triangle", "--d12", "1", "--d13", "1", "--d23", "1", "--kfr", "1"],
            ["er", "--geometry", "collinear", "--y-over-r", "0.3"],
            ["er", "--geometry", "equilateral", "--kfr", "1", "--theta", "0.2"],
            ["polygon", "--rplus", "0.34"],
            ["polygon", "--rplus", "0.5"],
        ],
        ids=[
            "polygon-tol-0",
            "witness-tol-neg",
            "f-nan",
            "couplings-nan",
            "limit-nan",
            "points-0",
            "points-1e20-figure-1a",
            "points-1e20-figure-2",
            "points-above-max",
            "rplus-nan",
            "bracket-inf",
            "witness-bracket-decreasing",
            "witness-bracket-nan",
            "equilateral-limit",
            "er-collinear-limit-flag",
            "er-triangle-kfr",
            "er-collinear-y-over-r",
            "er-equilateral-theta",
            "polygon-corners-overlap-0.34",
            "polygon-corners-overlap-0.5",
        ],
    )
    def test_invalid_input(self, capsys, args):
        code, out, err = run(capsys, args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_er_names_the_flags_its_geometry_does_not_take(self, capsys):
        args = ["er", "--geometry", "collinear", "--kfr", "1", "--limit", "--theta", "0.2"]
        code, out, err = run(capsys, args)
        assert (code, out) == (2, "")
        assert err == "error: --geometry collinear does not take --limit, --theta\n"

    def test_out_path_cannot_be_opened(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, ["f", "--dim", "3d", "--x", "1", "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["witness", "polygon"])
    def test_tolerance_below_float_spacing(self, capsys, method):
        args = ["gte-distance", "--dim", "3d", "--method", method, "--tol", "1e-300"]
        code, out, err = run(capsys, args)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["polygon", "--rplus", "0.041"],
            ["gte-distance", "--dim", "3d", "--method", "polygon"],
        ],
        ids=["polygon", "gte-distance"],
    )
    def test_n_samples_is_rejected(self, capsys, args):
        code, out, _ = run(capsys, args + ["--n-samples", "256"])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("dim, limit", [("3d", "5.13"), ("2d", "4.64")])
    def test_polygon_bracket_past_the_corner_overlap(self, capsys, dim, limit):
        args = ["gte-distance", "--dim", dim, "--method", "polygon", "--bracket", "2.5", "6"]
        code, out, err = run(capsys, args)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: bracket end 6.0 is above {limit}, where the {dim} "
            "symmetric collinear lens corners start to overlap\n"
        )

    @pytest.mark.parametrize("lo", ["0", "-1"])
    def test_polygon_bracket_from_zero_or_below(self, capsys, lo):
        args = ["gte-distance", "--dim", "3d", "--method", "polygon", "--bracket", lo, "3"]
        code, out, err = run(capsys, args)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: bracket must be finite, increasing and above 0, got ({float(lo)}, 3.0)\n"
        )

    def test_witness_bracket_without_crossing(self, capsys):
        args = ["gte-distance", "--dim", "3d", "--method", "witness", "--bracket", "3", "4"]
        code, out, err = run(capsys, args)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_witness_bracket_agrees_with_default(self, capsys):
        base = ["gte-distance", "--dim", "3d", "--method", "witness"]
        _, default, _ = run(capsys, base)
        code, narrow, _ = run(capsys, base + ["--bracket", "2.4", "2.8"])
        assert code == 0
        assert json.loads(narrow)["value"] == pytest.approx(
            json.loads(default)["value"], abs=1e-6
        )

    def test_witness_bracket_narrower_than_a_prescan_step(self, capsys):
        args = ["gte-distance", "--dim", "3d", "--method", "witness", "--bracket", "2.59", "2.60"]
        code, out, _ = run(capsys, args)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.596409, abs=1e-6)

    @pytest.mark.parametrize("dim", ["2d", "3d"])
    @pytest.mark.parametrize("lo", ["0.1", "1"])
    def test_witness_bracket_up_to_the_kernel_domain(self, capsys, dim, lo):
        base = ["gte-distance", "--dim", dim, "--method", "witness"]
        _, default, _ = run(capsys, base)
        code, wide, _ = run(capsys, base + ["--bracket", lo, "50"])
        assert code == 0
        assert json.loads(wide)["value"] == pytest.approx(
            json.loads(default)["value"], abs=1e-6
        )

    @pytest.mark.parametrize("lo", ["0.0005", "0.002"])
    def test_polygon_bracket_from_empty_sections(self, capsys, lo):
        # below ~5e-3 the symmetric state's section is empty: outside the hull
        base = ["gte-distance", "--dim", "3d", "--method", "polygon"]
        _, default, _ = run(capsys, base)
        code, wide, _ = run(capsys, base + ["--bracket", lo, "3"])
        assert code == 0
        assert json.loads(wide)["value"] == pytest.approx(
            json.loads(default)["value"], abs=2e-5
        )

    @pytest.mark.parametrize(
        "shape_args",
        [
            ["--geometry", "collinear", "--x-over-r", "-0.1"],
            ["--geometry", "collinear", "--x-over-r", "1.5"],
            ["--geometry", "collinear", "--x-over-r", "nan"],
            ["--geometry", "isosceles", "--y-over-r", "-0.3"],
            ["--geometry", "isosceles", "--y-over-r", "inf"],
            ["--geometry", "polar", "--theta", "4", "--q-over-r", "0.3"],
            ["--geometry", "polar", "--theta", "nan", "--q-over-r", "0.3"],
            ["--geometry", "polar", "--theta", "0.3", "--q-over-r", "0.7"],
            ["--geometry", "polar", "--theta", "0.3", "--q-over-r", "-0.1"],
        ],
        ids=[
            "x-negative",
            "x-above-1",
            "x-nan",
            "y-negative",
            "y-inf",
            "theta-above-pi",
            "theta-nan",
            "q-above-half",
            "q-negative",
        ],
    )
    def test_limit_mode_checks_the_shape(self, capsys, shape_args):
        results = [run(capsys, ["er", *shape_args, "--kfr", kfr]) for kfr in ("0", "1")]
        for code, out, err in results:
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
        assert results[0][2] == results[1][2]


class TestTinyConfigurations:
    def test_limit_couplings_at_1e_300(self, capsys):
        args = ["couplings", "--d12", "1e-300", "--d13", "1e-300", "--d23", "1.5e-300", "--limit"]
        code, out, _ = run(capsys, args)
        assert code == 0
        payload = json.loads(out)
        assert payload["p12"] == pytest.approx(9.0 / 17.0, abs=1e-15)
        assert payload["p23"] == pytest.approx(-1.0 / 17.0, abs=1e-15)

    def test_finite_kfr_below_the_limit_switch(self, capsys):
        values = []
        for kfr in ("1e-200", "0"):
            code, out, _ = run(capsys, ["er", "--geometry", "collinear", "--kfr", kfr])
            assert code == 0
            values.append(json.loads(out)["value"])
        assert values[0] == pytest.approx(values[1], abs=1e-12)

    def test_subnormal_polar_point_one_spacing_outside_the_triangle(self, capsys):
        # the scaled distances round to (1e-323, 2e-323, 5e-324): d13 exceeds
        # d12 + d23 by one subnormal spacing, where 1e-12 of d13 underflows to
        # 0; the point is decided by its unit shape and evaluates
        args = ["er", "--geometry", "polar", "--kfr", "2e-323", "--theta", "0",
                "--q-over-r", "0.12500000000000006"]
        d = scaled(2e-323, polar_shape(0.0, 0.12500000000000006), Dimensionality.THREE_D)
        assert d.distances() == (1e-323, 2e-323, 5e-324)
        code, out, err = run(capsys, args)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] > 0.0

    @pytest.mark.parametrize(
        "shape_args",
        [
            ["--geometry", "polar", "--theta", "0", "--q-over-r", "0.125"],
            ["--geometry", "collinear", "--x-over-r", "0.3"],
            ["--geometry", "isosceles", "--y-over-r", "0.2"],
        ],
        ids=["polar", "collinear", "isosceles"],
    )
    def test_a_subnormal_kfr_gives_the_limit_bound(self, capsys, shape_args):
        # below the limit switch every kfr takes the limit of the unit shape
        # itself, so every tiny kfr prints the --kfr 0 value bit for bit
        values = []
        for kfr in ("0", "5e-324", "2e-323", "1e-300", "5e-4"):
            code, out, err = run(capsys, ["er", *shape_args, "--kfr", kfr])
            assert (code, err) == (0, ""), kfr
            values.append(json.loads(out)["value"])
        assert values[0] > 0.0
        assert [v.hex() for v in values] == [values[0].hex()] * 5


class TestCoincidentPair:
    """Two fermions may coincide at any scale, the vanishing-size limit included."""

    def test_polar_limit_at_the_coincident_point(self, capsys):
        args = ["er", "--geometry", "polar", "--theta", "0", "--q-over-r", "0.5", "--kfr", "0"]
        code, out, err = run(capsys, args)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["value"] == 0.0
        assert payload["dim"] is None

    @pytest.mark.parametrize("kfr", ["0", "1e-4", "1e-2"])
    def test_collinear_endpoint_below_and_above_the_limit_switch(self, capsys, kfr):
        args = ["er", "--geometry", "collinear", "--kfr", kfr, "--x-over-r", "0"]
        code, out, err = run(capsys, args)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == 0.0


# property test over argument lists

_SPECIAL = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "x"])


def _number(lo, hi, *typical):
    """Float flag values: mostly in [lo, hi] or typical, plus any float and
    the special values above."""
    return st.one_of(
        st.sampled_from(typical) if typical else st.nothing(),
        st.floats(min_value=lo, max_value=hi).map(repr),
        st.floats().map(repr),
        _SPECIAL,
    )


_DISTANCE = _number(0.0, 3.0)
_COUNT = st.one_of(
    st.integers(min_value=-3, max_value=300), st.sampled_from([MAX_POINTS + 1, 10**20])
).map(str)
_DIM = st.sampled_from(["2d", "3d", "4d"])
_TRIANGLE = {
    "--dim": _DIM,
    ("--d12", "--d13", "--d23"): st.one_of(
        st.sampled_from(
            [("0.5", "1", "0.5"), ("0.3", "1", "0.8"), ("1", "1", "1"), ("1e-300", "1e-300", "1.5e-300")]
        ),
        st.tuples(_DISTANCE, _DISTANCE, _DISTANCE),
    ),
    "--limit": None,
}
# subcommand -> flag -> value strategy (None: a switch without a value)
_FLAGS = {
    "f": {"--dim": _DIM, "--x": _number(-1.0, 60.0)},
    "couplings": _TRIANGLE,
    "rho3": _TRIANGLE,
    "werner": _TRIANGLE,
    "witness-scan": {"--detail": None},
    "er": {
        "--geometry": st.sampled_from(
            ["collinear", "isosceles", "polar", "equilateral", "triangle", "square"]
        ),
        "--kfr": _number(0.0, 5.0, "0"),
        "--x-over-r": _number(-0.5, 1.5),
        "--y-over-r": _number(-0.5, 2.0),
        "--theta": _number(-4.0, 4.0),
        "--q-over-r": _number(-0.2, 0.7),
        **_TRIANGLE,
    },
    "gte-distance": {
        "--dim": _DIM,
        "--method": st.sampled_from(["witness", "polygon"]),
        "--tol": _number(0.0, 0.1, "1e-5", "1e-6", "1e-300"),
        "--bracket": st.one_of(
            st.sampled_from([("2.2", "2.8"), ("1", "3.5")]),
            st.tuples(_number(-1.0, 60.0), _number(-1.0, 60.0)),
        ),
    },
    "sweep": {"--figure": st.sampled_from(["1a", "1b", "2", "3"]), "--dim": _DIM, "--points": _COUNT},
    "polygon": {
        "--rplus": _number(-0.1, 0.5, "0.041"),
        "--r3": _number(-0.1, 0.6, "0"),
    },
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]

    def pair(flag, value):  # either form: "--flag value" or "--flag=value"
        return [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]

    for flags, values in _FLAGS[command].items():
        if draw(st.integers(0, 4)) == 0:  # leave out about one flag in five
            continue
        if values is None:
            argv.append(flags)
        elif isinstance(flags, tuple):
            for f, v in zip(flags, draw(values)):
                argv += pair(f, v)
        elif flags == "--bracket":
            argv += [flags, *draw(values)]
        else:
            argv += pair(flags, draw(values))
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _check_output(command, out):
    if command == "rho3":
        assert np.isfinite(matrix_from_text(out)).all()
    elif command in ("sweep", "polygon"):
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows)
        cells = [c for r in rows[1:] for c in r if c not in ("2d", "3d")]
        assert all(math.isfinite(float(c)) for c in cells)
    else:
        json.loads(out, parse_constant=_reject_constant)


@given(_argv())
@settings(max_examples=150, deadline=None)
def test_any_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 0:
        _check_output(argv[0], out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
