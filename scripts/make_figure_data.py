#!/usr/bin/env python3
"""Regenerate the standard figure data sets as CSV (plus threshold JSON).

Writes into --outdir (default ./data): the robustness curves along the
collinear and isosceles families, the polar GTE boundary, the
distance sweep for both gas dimensions, the biseparability polygon at
the symmetric-configuration section, and a JSON summary of the four
distance/shape thresholds.  Each CSV is the output of one ``gte-fermi``
command, so the grids are the CLI's own.
"""

import argparse
import json
import pathlib
import sys

from fermigte import Dimensionality, analytic_limit_thresholds, cli, find_rmin, r_max_solver

# output file -> gte-fermi arguments; sweeps also get --points
TABLES = {
    "collinear_3d.csv": ["sweep", "--figure", "1a", "--dim", "3d"],
    "isosceles_3d.csv": ["sweep", "--figure", "1b", "--dim", "3d"],
    "polar_boundary_3d.csv": ["sweep", "--figure", "2", "--dim", "3d"],
    "distance_both.csv": ["sweep", "--figure", "3"],
    "polygon_rplus_0.041.csv": ["polygon", "--rplus", "0.041"],
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="data")
    parser.add_argument("--points", type=int, default=201)
    args = parser.parse_args(argv)

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, command in TABLES.items():
        if command[0] == "sweep":
            command = command + ["--points", str(args.points)]
        path = out / name
        code = cli.main(command + ["--out", str(path)])
        if code != 0:
            print(f"gte-fermi {' '.join(command)} exited with {code}", file=sys.stderr)
            return code
        print(f"wrote {path}")

    summary = {"limit_shape_thresholds": analytic_limit_thresholds()}
    for d in (Dimensionality.TWO_D, Dimensionality.THREE_D):
        summary[f"r_min_{d.value}"] = find_rmin(d)
        summary[f"r_max_{d.value}"] = r_max_solver(d)
    (out / "thresholds.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out / 'thresholds.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
