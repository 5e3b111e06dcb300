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
