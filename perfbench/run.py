"""Benchmark of the fermigte package: one named workload, one seed.

    python3 perfbench/run.py --workload thresholds --seed 1 --seconds 30 --trace 0

Run from a checkout; the package is imported from its ``src`` directory,
not from an installed copy.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``); the line before it holds the run's metadata.  A traced run
also writes its spans to ``.perfbench/trace-<workload>-<seed>.json``.
End-to-end timings are scaled to a reference host speed by ``harness.Gauge``;
the line before the result also gives them raw.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness as h
from workloads import WORKLOADS, run_cli

SETUP_PROBES = 7
IMPORT_PROBES = 3
SPAWN_PROBE = ["f", "--dim", "3d", "--x", "1.0"]
TRACE_DIR = h.ROOT / ".perfbench"

# Functions whose calls and self time are reported, and nested calls that
# are counted: (ancestor, callee) -> metric.
CALLS = (
    "bisep.r_max_solver",
    "bisep.bisep_hull",
    "bisep.point_in_hull",
    "scan.find_rmin",
    "specfun.f_factor",
    "geometry.config",
    "couplings.from_config",
    "couplings.zero_limit",
    "witnesses.er_lower_bound",
    "tristate.rho3",
    "tristate.min_eigenvalue",
    "tristate.werner_coords",
    "tristate.expectation",
    "witnesses.er_lower_bound_matrix",
    "witnesses.bounded_energy_witness",
)
SELF = CALLS[:-1] + (
    "bisep.region_boundary",
    "scan.sweep_collinear",
    "scan.sweep_isosceles",
    "scan.sweep_distance",
    "scan.sweep_polar_boundary",
    "scan.write_csv",
    "witnesses.grid_scan_ghz_w",
    "cli.main",
)
WATCH = {
    "bisep.bisep_hull": ("bisep.r_max_solver",),
    "couplings.from_config": ("scan.find_rmin",),
    "witnesses.er_lower_bound": ("scan.sweep_polar_boundary",),
    "witnesses.bounded_energy_witness": ("witnesses.er_lower_bound_matrix",),
}


def _counting(counter: str, amount):
    """Hook that adds ``amount(args, result)`` to a tracer counter."""

    def hook(tracer, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counters[counter] += amount(args, kwargs, result)
            return result

        return call

    return hook


def _csv_bytes(tracer, fn):
    def call(columns, rows, stream):
        start = stream.tell()
        fn(columns, rows, stream)
        tracer.counters["scan.write_csv.bytes"] += stream.tell() - start

    return call


HOOKS = {
    "bisep.region_boundary": _counting("bisep.hull.samples_in", lambda a, k, r: len(r)),
    "bisep.bisep_hull": _counting("bisep.hull.vertices_out", lambda a, k, r: len(r.vertices)),
    "witnesses.grid_scan_ghz_w": _counting("witnesses.grid_scan_ghz_w.nodes", lambda a, k, r: r.nodes_evaluated),
    "scan.sweep_polar_boundary": _counting("scan.sweep_polar_boundary.rows", lambda a, k, r: len(r)),
    "scan.write_csv": _csv_bytes,
}


def build(name: str, seed: int):
    """Import the package from the checkout and make the workload ready to
    run its first operation."""
    sys.path.insert(0, str(h.SRC))
    import fermigte
    import fermigte.cli  # noqa: F401  (the CLI module is not imported by the package)

    if not Path(fermigte.__file__).resolve().is_relative_to(h.SRC):
        raise SystemExit(f"error: fermigte imported from {fermigte.__file__}, not {h.SRC}")
    wl = WORKLOADS[name](fermigte, seed)
    wl.make_pass(0)
    wl.warm_up()
    return wl


class SetupProbes:
    """``SETUP_PROBES`` set-up launches spread evenly over ``seconds`` of
    the run, between its passes, so that they see the same host speed as
    the run's gauge readings."""

    def __init__(self, probe: list[str], seconds: float):
        self.probe = probe
        self.every_s = seconds / SETUP_PROBES
        self.start = time.perf_counter()
        self.raw_s: list[float] = []

    def run_due(self, k: int) -> None:
        while len(self.raw_s) < SETUP_PROBES and time.perf_counter() - self.start >= len(self.raw_s) * self.every_s:
            self.raw_s.append(h.time_until_ready(self.probe))

    def finish(self) -> None:
        while len(self.raw_s) < SETUP_PROBES:
            self.raw_s.append(h.time_until_ready(self.probe))


def metadata(args, loadavg: str | None) -> dict:
    commit = None
    if (h.ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=h.ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((h.SRC / "fermigte").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "blas_env": {k: os.environ.get(k) for k in h.BLAS_ENV},
        "loadavg": loadavg,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(pass_s: list[float], latencies_s: list[float], setup_s: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(pass_s),
        "op_p50_ms": h.percentile(latencies_s, 0.5) * 1e3,
        "op_p90_ms": h.percentile(latencies_s, 0.9) * 1e3,
    }


def end_to_end(wl, m: h.Measurement, setup: list[float]) -> dict:
    if wl.name == "cli":
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {name: _metric(value, name.rsplit("_", 1)[1]) for name, value in timings(m.pass_s, m.latencies_s, setup).items()}
    out["peak_rss_mb"] = _metric(rss_kb / 1024.0, "MB")
    out["ok_frac"] = _metric(m.ok_frac, "ratio")
    return out


def gauge_summary(gauge: h.Gauge) -> dict:
    q = statistics.quantiles(gauge.readings, n=4)
    return {"ref_s": gauge.ref_s, "readings": len(gauge.readings), "quartiles_s": q}


def _spawn_overhead(wl) -> float:
    """Median over a fixed request of (subprocess wall - in-process
    ``cli.main`` wall): what launching an interpreter adds to a request."""
    samples = []
    for _ in range(IMPORT_PROBES):
        child = h.run_child(["-m", "fermigte.cli", *SPAWN_PROBE])
        t0 = time.perf_counter()
        run_cli(wl.fm.cli, SPAWN_PROBE)
        samples.append(child.wall_s - (time.perf_counter() - t0))
    return statistics.median(samples)


def per_layer(wl, plain, traced, tracer) -> tuple[dict, dict]:
    n = len(traced.pass_s)
    t = tracer
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = _metric(t.calls(name) / n, "count/pass")
    for name in SELF:
        out[f"{name}.self_s"] = _metric(t.self_s(name) / n, "s/pass")

    def ratio(num, den):
        return num / den if den else 0.0

    nested, counters = t.nested, t.counters
    samples, vertices = counters["bisep.hull.samples_in"], counters["bisep.hull.vertices_out"]
    out["bisep.hull.samples_in"] = _metric(samples / n, "count/pass")
    out["bisep.hull.vertices_out"] = _metric(vertices / n, "count/pass")
    out["bisep.hull.vertex_yield"] = _metric(ratio(vertices, samples), "ratio")
    out["bisep.r_max_solver.hulls_per_solve"] = _metric(
        ratio(nested[("bisep.r_max_solver", "bisep.bisep_hull")], t.calls("bisep.r_max_solver")), "count"
    )
    out["scan.find_rmin.margin_evals_per_solve"] = _metric(
        ratio(nested[("scan.find_rmin", "couplings.from_config")], t.calls("scan.find_rmin")), "count"
    )
    out["scan.sweep_polar_boundary.er_evals_per_row"] = _metric(
        ratio(
            nested[("scan.sweep_polar_boundary", "witnesses.er_lower_bound")],
            counters["scan.sweep_polar_boundary.rows"],
        ),
        "count",
    )
    out["scan.write_csv.bytes"] = _metric(counters["scan.write_csv.bytes"] / n, "bytes/pass")
    out["witnesses.grid_scan_ghz_w.nodes"] = _metric(counters["witnesses.grid_scan_ghz_w.nodes"] / n, "count/pass")
    out["witnesses.bounded_energy_witness.calls_per_matrix_bound"] = _metric(
        ratio(
            nested[("witnesses.er_lower_bound_matrix", "witnesses.bounded_energy_witness")],
            t.calls("witnesses.er_lower_bound_matrix"),
        ),
        "count",
    )
    imports = [
        h.parse_importtime(h.run_child(["-X", "importtime", "-c", "import fermigte.cli"]).stderr)
        for _ in range(IMPORT_PROBES)
    ]
    out["cli.import_s"] = _metric(statistics.median([i["import_s"] for i in imports]), "s")
    out["cli.import.numpy_s"] = _metric(statistics.median([i["numpy_s"] for i in imports]), "s")
    out["cli.import.scipy_special_s"] = _metric(statistics.median([i["scipy_s"] for i in imports]), "s")
    out["cli.spawn_overhead_s"] = _metric(_spawn_overhead(wl), "s")
    out["trace.overhead"] = _metric(statistics.median(traced.pass_s) / statistics.median(plain.pass_s), "ratio")
    return out, imports


def findings(wl, traced, tracer, setup, layer) -> dict:
    """Where a traced pass spends its time, against the expected leader."""
    pass_s = sum(traced.raw_pass_s)

    def share(*names):
        return sum(tracer.total_s(n) for n in names) / pass_s

    top = sorted(tracer.stats, key=lambda n: -tracer.self_s(n))[:5]
    out = {"top_self_s_per_pass": {n: tracer.self_s(n) / len(traced.pass_s) for n in top}}
    if wl.name == "thresholds":
        out["claim"] = "bisep.bisep_hull has the largest self time"
        out["holds"] = bool(top) and top[0] == "bisep.bisep_hull"
        out["share_of_pass"] = share("bisep.bisep_hull")
    elif wl.name == "figures":
        out["claim"] = "grid_scan_ghz_w and sweep_polar_boundary take most of a pass"
        out["share_of_pass"] = share("witnesses.grid_scan_ghz_w", "scan.sweep_polar_boundary")
        out["holds"] = out["share_of_pass"] > 0.5
    elif wl.name == "states":
        out["claim"] = "er_lower_bound_matrix takes most of a pass"
        out["share_of_pass"] = share("witnesses.er_lower_bound_matrix")
        out["holds"] = out["share_of_pass"] > 0.5
    else:
        bare = statistics.median([h.time_until_ready(["-c", "print('ready')"]) for _ in range(IMPORT_PROBES)])
        imp = layer["cli.import_s"]["value"]
        numpy_s = layer["cli.import.numpy_s"]["value"]
        scipy_s = layer["cli.import.scipy_special_s"]["value"]
        parts = {
            "interpreter_start": bare,
            "import_numpy": numpy_s,
            "import_scipy_special": scipy_s,
            "import_other": imp - numpy_s - scipy_s,
            "rest": statistics.median(setup) - bare - imp,
        }
        out["claim"] = "importing scipy.special is the largest part of setup_s"
        out["setup_parts_s"] = parts
        out["holds"] = max(parts, key=parts.get) == "import_scipy_special"
    return out


def write_trace(args, meta, tracer, imports) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.json"
    doc = {
        "meta": meta,
        "functions": {n: {"calls": s[0], "total_s": s[1], "self_s": s[2]} for n, s in tracer.stats.items()},
        "nested": [[a, b, c] for (a, b), c in tracer.nested.items()],
        "counters": dict(tracer.counters),
        "imports": imports,
        "span_fields": ["op", "name", "start_s", "end_s", "parent"],
        "spans": tracer.spans,
        "spans_dropped": tracer.dropped,
    }
    path.write_text(json.dumps(doc))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (h.SRC / "fermigte" / "__init__.py").is_file():
        print(f"error: no package source at {h.SRC / 'fermigte'}", file=sys.stderr)
        return 2
    os.environ.pop("GTE_FERMI_THREADS", None)
    if args.probe_setup:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = None
    probe = [str(Path(__file__).resolve()), "--probe-setup", "--workload", args.workload, "--seed", str(args.seed)]
    gauge = h.Gauge()
    wl = build(args.workload, args.seed)
    meta = metadata(args, loadavg)
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    setup_probes = SetupProbes(probe, untraced_s)
    plain = h.run_passes(wl.make_pass, untraced_s, gauge=gauge, before_pass=setup_probes.run_due)
    setup_probes.finish()
    speed = gauge.ref_s / statistics.median(gauge.readings)
    setup = [t * speed for t in setup_probes.raw_s]
    meta["setup_samples_s"] = setup

    if args.trace:
        tracer = h.Tracer()
        tracer.watch = WATCH
        tracer.install(HOOKS)

        def next_op(op, latency):
            tracer.op += 1

        try:
            traced = h.run_passes(wl.make_pass, args.seconds / 2, next_op, gauge=gauge)
        finally:
            tracer.uninstall()
        metrics, imports = per_layer(wl, plain, traced, tracer)
        meta["findings"] = findings(wl, traced, tracer, setup_probes.raw_s, metrics)
        meta["traced_passes"] = len(traced.pass_s)
        runs = (plain, traced)
    else:
        metrics = end_to_end(wl, plain, setup)
        meta["raw"] = timings(plain.raw_pass_s, plain.raw_latencies_s, setup_probes.raw_s)
        runs = (plain,)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    n_ops = len(plain.latencies_s)
    meta.update(
        ops=n_ops,
        passes=len(plain.pass_s),
        pass_s=plain.pass_s,
        raw_pass_s=plain.raw_pass_s,
        gauge=gauge_summary(gauge),
        samples_beyond_p90=h.samples_beyond(n_ops, 0.9),
        errors=[e for r in runs for e in r.errors][:5],
    )
    if wl.name == "cli":
        meta["known_defects"] = [p for p in [wl.nan_probe()] if not p["ok"]]
    if args.trace:
        meta["trace_file"] = str(write_trace(args, meta, tracer, imports).relative_to(h.ROOT))
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
