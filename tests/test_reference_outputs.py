"""The recorded outputs in ``perfbench/reference.json`` are reproduced.

These are the checks behind the benchmark's ``ok_frac``: every
``gte-distance`` threshold request lies within 10x its tolerance of the
recorded value, and every figure table hashes to its recorded SHA-256.
Thresholds are not compared bit for bit because other numpy/scipy builds
may round the kernels differently in the last place.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import fermigte  # noqa: E402
import fermigte.cli  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference()
THRESHOLD_REQUESTS = [
    (method, dim, tol, bracket)
    for (method, dim), brackets in workloads.BRACKETS.items()
    for tol in workloads.TOLS
    for bracket in range(len(brackets))
]
FIGURE_ARGVS = workloads.all_figure_argvs()


def test_every_recorded_output_is_checked():
    keys = {workloads.threshold_key(*request) for request in THRESHOLD_REQUESTS}
    assert keys == set(REFERENCE["thresholds"])
    assert {" ".join(argv) for argv in FIGURE_ARGVS} == set(REFERENCE["figures"])


@pytest.mark.parametrize("method, dim, tol, bracket", THRESHOLD_REQUESTS)
def test_threshold(method, dim, tol, bracket):
    key = workloads.threshold_key(method, dim, tol, bracket)
    value = workloads.threshold_request(fermigte, method, dim, tol, bracket)
    assert abs(value - REFERENCE["thresholds"][key]) <= 10.0 * tol


@pytest.mark.parametrize("argv", FIGURE_ARGVS, ids=" ".join)
def test_figure_digest(argv):
    code, out, err = workloads.run_cli(fermigte.cli, argv)
    assert code == 0, err
    assert workloads.sha256(out) == REFERENCE["figures"][" ".join(argv)]
