"""Record the reference outputs the workloads check against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: the value of every ``thresholds``
request and the SHA-256 of every ``figures`` output.  Run it only at a
commit whose outputs are known good; the recorded file then pins later
commits to those outputs (thresholds to 10x the request's tolerance,
figures byte for byte).  Takes about a minute, mostly polygon solves.
"""

from __future__ import annotations

import json
import sys

from harness import SRC

sys.path.insert(0, str(SRC))

import fermigte  # noqa: E402
import fermigte.cli  # noqa: E402
import workloads as w  # noqa: E402


def main() -> int:
    thresholds = {}
    for method, dim in w.BRACKETS:
        for tol in w.TOLS:
            for bracket in range(len(w.BRACKETS[(method, dim)])):
                key = w.threshold_key(method, dim, tol, bracket)
                thresholds[key] = w.threshold_request(fermigte, method, dim, tol, bracket)
                print(key, thresholds[key], file=sys.stderr)
    figures = {}
    for argv in w.all_figure_argvs():
        code, out, err = w.run_cli(fermigte.cli, argv)
        if code != 0:
            raise SystemExit(f"{argv}: exit {code}: {err}")
        figures[" ".join(argv)] = w.sha256(out)
    w.REFERENCE.write_text(
        json.dumps({"thresholds": thresholds, "figures": figures}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
