"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all)
and then asserts, so a red criterion is both visible and failing.
"""

import json
import math
import time

import numpy as np

from fermigte import (
    Couplings,
    Dimensionality,
    bounded_energy_witness,
    couplings_from_config,
    couplings_zero_limit,
    energy_observable,
    er_lower_bound,
    er_lower_bound_matrix,
    expectation,
    find_rmin,
    grid_scan_ghz_w,
    min_eigenvalue,
    r_max_solver,
    rho3,
    sweep_polar_boundary,
    validate_couplings,
)
from fermigte.bisep import _symmetric_point
from fermigte.cli import main
from fermigte.geometry import collinear_shape, equilateral_shape, scaled

from conftest import (
    in_lens_hull,
    psd_werner_weights,
    random_biseparable,
    random_config,
    random_su2,
)

D2, D3 = Dimensionality.TWO_D, Dimensionality.THREE_D
SQRT5 = math.sqrt(5.0)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def run_cli(capsys, args):
    start = time.perf_counter()
    code = main(args)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code}"
    return json.loads(out), elapsed


def test_criterion_01_witness_distance(capsys):
    results = {}
    for dim, expect in (("3d", 2.5964), ("2d", 2.3588)):
        payload, elapsed = run_cli(
            capsys, ["gte-distance", "--dim", dim, "--method", "witness"]
        )
        results[dim] = (payload["value"], elapsed, expect)
    ok = all(abs(v - e) <= 5e-4 and t < 1.0 for v, t, e in results.values())
    detail = ", ".join(
        f"{d}: {v:.5f} (ref {e}) in {t:.3f}s" for d, (v, t, e) in results.items()
    )
    report(1, "witness lower bound", ok, detail)


def test_criterion_02_threshold_couplings():
    r = find_rmin(D3, tol=1e-6)
    c = couplings_from_config(scaled(r, collinear_shape(0.5), D3))
    ok = (
        abs(c.p12 - 0.539345) <= 1e-5
        and abs(c.p23 - 0.539345) <= 1e-5
        and abs(c.p13 + 0.160702) <= 1e-5
    )
    report(
        2,
        "couplings at 3D threshold",
        ok,
        f"p12={c.p12:.6f}, p13={c.p13:.6f} at r={r:.6f}",
    )


def test_criterion_03_polygon_distance(capsys):
    results = {}
    for dim, expect in (("3d", 2.5988), ("2d", 2.3599)):
        payload, elapsed = run_cli(
            capsys, ["gte-distance", "--dim", dim, "--method", "polygon"]
        )
        results[dim] = (payload["value"], elapsed, expect)

    def sampled_inside(dim, r, n_samples):
        sec, point = _symmetric_point(Dimensionality(dim), r)
        return in_lens_hull(*sec, point, n_samples)

    # sampled hulls at either resolution put the crossing within 1e-4
    stable = all(
        not sampled_inside(d, v - 1e-4, n) and sampled_inside(d, v + 1e-4, n)
        for d, (v, _, _) in results.items()
        for n in (2048, 4096)
    )
    ok = (
        all(abs(v - e) <= 2e-3 and t < 10.0 for v, t, e in results.values())
        and stable
    )
    detail = (
        ", ".join(f"{d}: {v:.5f} (ref {e}) in {t:.2f}s" for d, (v, t, e) in results.items())
        + f", 2048/4096-sample hulls cross within 1e-4: {stable}"
    )
    report(3, "polygon upper bound", ok, detail)


def test_criterion_04_ordering_and_gap():
    details = []
    ok = True
    for dim in (D3, D2):
        lo = find_rmin(dim, tol=1e-6)
        hi = r_max_solver(dim, tol=1e-5)
        ok &= lo < hi and hi - lo <= 0.005
        details.append(f"{dim.value}: r_min={lo:.5f} < r_max={hi:.5f}, gap={hi - lo:.4f}")
    report(4, "bound ordering and gap", ok, "; ".join(details))


def test_criterion_05_collinear_limit():
    lim = couplings_zero_limit(0.5, 1.0, 0.5)
    exact = (
        abs(lim.p12 - 2.0 / 3.0) <= 1e-12
        and abs(lim.p13 + 1.0 / 3.0) <= 1e-12
        and abs(lim.p23 - 2.0 / 3.0) <= 1e-12
    )
    worst = 0.0
    for dim in (D3, D2):
        direct = couplings_from_config(scaled(1e-3, collinear_shape(0.5), dim))
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(direct.as_tuple(), lim.as_tuple())),
        )
    ok = exact and worst <= 1e-5
    report(
        5,
        "evenly spaced collinear limit",
        ok,
        f"limit exact to 1e-12, direct at k_F r = 1e-3 within {worst:.2e}",
    )


def test_criterion_06_witness_value_and_robustness():
    lim = couplings_zero_limit(0.5, 1.0, 0.5)
    w_value = expectation(rho3(lim), energy_observable(2))
    er = er_lower_bound(lim)
    expect = (3.0 - SQRT5) / (5.0 + SQRT5)
    ok = abs(abs(w_value) - 4.0) <= 1e-12 and abs(er - expect) <= 1e-9
    report(
        6,
        "limit witness value and E_R",
        ok,
        f"|<W_2>|={abs(w_value):.12f}, E_R={er:.10f} (ref {expect:.10f})",
    )


def _bisect(pred, lo, hi, tol=1e-10):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_07_analytic_thresholds():
    x_cross = _bisect(
        lambda x: er_lower_bound(couplings_zero_limit(x, 1.0, 1.0 - x)) == 0.0,
        0.01,
        0.4,
    )
    y_cross = _bisect(
        lambda y: er_lower_bound(
            couplings_zero_limit(math.hypot(0.5, y), 1.0, math.hypot(0.5, y))
        )
        > 0.0,
        0.1,
        0.8,
    )
    rows = sweep_polar_boundary(D3, [0.0], list(np.linspace(0.0, math.pi / 2.0, 9)))
    qs = [r.q_star for r in rows]
    spread = max(qs) - min(qs)
    ok = (
        abs(x_cross - 0.0792255) <= 1e-4
        and abs(y_cross - 0.4207745) <= 1e-4
        and spread <= 1e-6
        and abs(qs[0] - 0.420775) <= 1e-4
    )
    report(
        7,
        "limit-mode thresholds",
        ok,
        f"x*={x_cross:.6f}, y*={y_cross:.6f}, polar radius {qs[0]:.6f} "
        f"with theta spread {spread:.1e}",
    )


def test_criterion_08_grid_scan_negative_result():
    start = time.perf_counter()
    rep = grid_scan_ghz_w()
    elapsed = time.perf_counter() - start
    ok = rep.min_value >= -1e-12 and elapsed < 5.0
    report(
        8,
        "GHZ/W grid scan",
        ok,
        f"min {rep.min_value:.2e} over {rep.nodes_evaluated} nodes in {elapsed:.2f}s",
    )


def test_criterion_09_equilateral_null():
    worst = 0.0
    for dim in (D3, D2):
        for kfr in np.linspace(0.1, 10.0, 100):
            worst = max(
                worst, er_lower_bound(couplings_from_config(scaled(float(kfr), equilateral_shape(), dim)))
            )
    ok = worst == 0.0
    report(9, "equilateral null result", ok, f"max E_R = {worst}")


def test_criterion_10_physicality_suite(rng):
    worst = {"herm": 0.0, "trace": 0.0, "eig": 0.0, "su2": 0.0}
    violations = 0
    for _ in range(1000):
        cfg = random_config(rng)
        c = couplings_from_config(cfg)
        if validate_couplings(c):
            violations += 1
        m = rho3(c)
        worst["herm"] = max(worst["herm"], float(np.max(np.abs(m - m.conj().T))))
        worst["trace"] = max(worst["trace"], abs(complex(np.trace(m)) - 1.0))
        worst["eig"] = min(worst["eig"], min_eigenvalue(m))
        for _ in range(2):
            u = random_su2(rng)
            u3 = np.kron(np.kron(u, u), u)
            worst["su2"] = max(
                worst["su2"], float(np.max(np.abs(u3 @ m @ u3.conj().T - m)))
            )
    ok = (
        worst["herm"] <= 1e-12
        and worst["trace"] <= 1e-12
        and worst["eig"] >= -1e-10
        and worst["su2"] <= 1e-10
        and violations == 0
    )
    report(
        10,
        "physicality over 1000 configs",
        ok,
        f"herm {worst['herm']:.1e}, trace {worst['trace']:.1e}, "
        f"min eig {worst['eig']:.1e}, su2 {worst['su2']:.1e}, "
        f"bound violations {violations}",
    )


def test_criterion_11_dual_feasibility_and_paths(rng):
    max_eig = max(
        float(np.linalg.eigvalsh(bounded_energy_witness(m))[-1])
        for m in (1, 2, 3)
    )
    worst_gap = 0.0
    for p in psd_werner_weights(rng, 1000).tolist():
        c = Couplings(*p)
        worst_gap = max(worst_gap, abs(er_lower_bound(c) - er_lower_bound_matrix(c)))
    wits = [bounded_energy_witness(m) for m in (1, 2, 3)]
    most_negative = 0.0
    for _ in range(1000):
        v = random_biseparable(rng)
        for w in wits:
            most_negative = min(most_negative, float(np.real(np.vdot(v, w @ v))))
    ok = max_eig <= 1.0 + 1e-10 and worst_gap <= 1e-12 and most_negative >= -1e-10
    report(
        11,
        "dual feasibility and path agreement",
        ok,
        f"max eig {max_eig:.12f}, path gap {worst_gap:.1e}, "
        f"biseparable min {most_negative:.1e}",
    )


def test_criterion_12_monotonicity():
    ok = True
    details = []
    for dim in (D3, D2):
        rmin = find_rmin(dim, tol=1e-6)
        grid = np.linspace(rmin / 200.0, rmin, 200)
        ers = [
            er_lower_bound(couplings_from_config(scaled(float(r), collinear_shape(0.5), dim)))
            for r in grid
        ]
        increases = max(
            (b - a for a, b in zip(ers, ers[1:])), default=0.0
        )
        ok &= increases <= 1e-15
        details.append(f"{dim.value}: max step {increases:.1e}")
    report(12, "robustness monotone in separation", ok, "; ".join(details))
