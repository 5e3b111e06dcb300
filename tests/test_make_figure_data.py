import importlib.util
import json
from pathlib import Path

import pytest

from fermigte.cli import main as cli_main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_figure_data.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("make_figure_data", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_the_cli_tables_and_thresholds(script, tmp_path, capsys):
    outdir = tmp_path / "data"
    assert script.main(["--outdir", str(outdir), "--points", "21"]) == 0
    names = {p.name for p in outdir.iterdir()}
    assert names == set(script.TABLES) | {"thresholds.json"}
    for name, command in script.TABLES.items():
        if command[0] == "sweep":
            command = command + ["--points", "21"]
        capsys.readouterr()
        assert cli_main(command) == 0
        assert (outdir / name).read_text() == capsys.readouterr().out
    summary = json.loads((outdir / "thresholds.json").read_text())
    assert set(summary) == {
        "limit_shape_thresholds",
        "r_min_2d",
        "r_max_2d",
        "r_min_3d",
        "r_max_3d",
    }


def test_fails_on_a_cli_error(script, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(script.TABLES, "polygon_rplus_0.041.csv", ["polygon", "--rplus", "nan"])
    assert script.main(["--outdir", str(tmp_path), "--points", "21"]) == 2
    assert "exited with 2" in capsys.readouterr().err
    assert not (tmp_path / "thresholds.json").exists()


def error_line(err: str) -> str:
    """err, which must be one "error: ..." line, without its newline."""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    return err[:-1]


def test_fails_on_an_outdir_that_is_a_file(script, tmp_path, capsys):
    # exit 2 and one error line, as the CLI's unwritable --out
    outdir = tmp_path / "data"
    outdir.write_text("")
    assert script.main(["--outdir", str(outdir), "--points", "21"]) == 2
    captured = capsys.readouterr()
    assert str(outdir) in error_line(captured.err)
    assert captured.out == "" and outdir.read_text() == ""


def test_fails_on_an_unwritable_thresholds_file(script, tmp_path, monkeypatch, capsys):
    # the solvers stubbed: the write, not the thresholds, is under test
    monkeypatch.setattr(script, "find_rmin", lambda dim: 2.5)
    monkeypatch.setattr(script, "r_max_solver", lambda dim: 2.6)
    (tmp_path / "thresholds.json").mkdir()
    assert script.main(["--outdir", str(tmp_path), "--points", "21"]) == 2
    assert "thresholds.json" in error_line(capsys.readouterr().err)
    assert {p.name for p in tmp_path.iterdir()} == set(script.TABLES) | {"thresholds.json"}
