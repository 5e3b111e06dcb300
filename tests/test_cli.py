import json
import math

import numpy as np
import pytest

from fermigte import matrix_from_text
from fermigte.cli import main


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
        code, out, _ = run(capsys, ["polygon", "--rplus", "0.041", "--n-samples", "256"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r1,r2"
        assert len(lines) >= 4

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
        "args",
        [
            ["gte-distance", "--dim", "3d", "--method", "polygon", "--tol", "0"],
            ["gte-distance", "--dim", "3d", "--method", "witness", "--tol", "-1"],
            ["f", "--dim", "3d", "--x", "nan"],
            ["couplings", "--d12", "nan", "--d13", "1", "--d23", "1"],
            ["couplings", "--d12", "nan", "--d13", "1", "--d23", "1", "--limit"],
            ["sweep", "--figure", "1a", "--points", "0"],
            ["polygon", "--rplus", "nan"],
            ["gte-distance", "--dim", "3d", "--method", "polygon", "--bracket", "2", "inf"],
            ["gte-distance", "--dim", "3d", "--method", "witness", "--bracket", "4", "3"],
            ["gte-distance", "--dim", "3d", "--method", "witness", "--bracket", "nan", "3"],
            ["er", "--geometry", "polar", "--theta", "0", "--q-over-r", "0.5", "--kfr", "0"],
            ["er", "--geometry", "equilateral", "--kfr", "0"],
        ],
        ids=[
            "polygon-tol-0",
            "witness-tol-neg",
            "f-nan",
            "couplings-nan",
            "limit-nan",
            "points-0",
            "rplus-nan",
            "bracket-inf",
            "witness-bracket-decreasing",
            "witness-bracket-nan",
            "polar-limit-coincident",
            "equilateral-limit",
        ],
    )
    def test_invalid_input(self, capsys, args):
        code, out, err = run(capsys, args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_n_samples_only_for_polygon(self, capsys):
        args = ["gte-distance", "--dim", "3d", "--method", "polygon", "--n-samples", "256"]
        assert main(args) == 2
        capsys.readouterr()

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
