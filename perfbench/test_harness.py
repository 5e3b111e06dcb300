"""Self-tests of the benchmark harness: self-time accounting, wrapper
removal, the percentile rule, host-speed scaling and failure counting.

    PYTHONPATH=src python -m pytest -q perfbench/test_harness.py
"""

import sys
import time

import pytest

import harness as h

if str(h.SRC) not in sys.path:
    sys.path.insert(0, str(h.SRC))

import fermigte  # noqa: E402
import fermigte.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 4.0, 10.0, 20.0, 22.0])
    tracer = h.Tracer(clock=lambda: next(ticks))
    tracer.watch = {"inner": ("outer",)}
    inner = tracer.wrap("inner", lambda: "x")

    def outer_body():
        return inner()

    outer = tracer.wrap("outer", outer_body)
    assert outer() == "x"  # outer 0..10 around inner 1..4
    assert inner() == "x"  # inner 20..22, outside outer
    assert tracer.stats["outer"] == [1, 10.0, 7.0]
    assert tracer.stats["inner"] == [2, 5.0, 5.0]
    assert tracer.nested[("outer", "inner")] == 1
    (op0, n0, s0, e0, p0), (op1, n1, s1, e1, p1), (_, _, _, _, p2) = tracer.spans
    assert (n0, s0, e0, p0) == ("outer", 0.0, 10.0, -1)
    assert (n1, s1, e1, p1) == ("inner", 1.0, 4.0, 0)
    assert p2 == -1


def test_self_time_survives_an_exception():
    ticks = iter([0.0, 2.0, 3.0, 5.0])
    tracer = h.Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap("inner", fail)
    outer = tracer.wrap("outer", lambda: inner())
    with pytest.raises(ValueError):
        outer()
    assert tracer.stats["outer"] == [1, 5.0, 4.0]
    assert tracer.stats["inner"] == [1, 1.0, 1.0]


def _bindings():
    mods = [fermigte] + [sys.modules[f"fermigte.{m}"] for m in h.LAYERS]
    out = {(mod.__name__, k): v for mod in mods for k, v in vars(mod).items()}
    out[("TriangleConfig", "__init__")] = fermigte.geometry.TriangleConfig.__dict__["__init__"]
    return out


def test_wrappers_are_removed_after_a_traced_run():
    before = _bindings()
    original = fermigte.couplings.from_config
    tracer = h.Tracer()
    tracer.watch = run.WATCH
    tracer.install(run.HOOKS)
    try:
        assert fermigte.couplings.from_config is not original
        # the alias in another module is the same wrapper, so it is counted too
        assert fermigte.bisep.from_config is fermigte.couplings.from_config
        assert fermigte.couplings_from_config is fermigte.couplings.from_config
        workloads.run_cli(fermigte.cli, ["werner", "--d12", "0.5", "--d13", "0.9", "--d23", "0.6"])
        fermigte.scan.find_rmin(fermigte.Dimensionality("3d"))
    finally:
        tracer.uninstall()
    assert tracer.calls("cli.main") == 1
    assert tracer.calls("geometry.config") >= 2
    assert tracer.calls("couplings.from_config") == tracer.nested[("scan.find_rmin", "couplings.from_config")] + 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_percentile_rule():
    xs = [float(v) for v in range(100, 0, -1)]
    assert h.percentile(xs, 0.5) == 50.0
    assert h.percentile(xs, 0.9) == 90.0
    assert h.percentile([7.0], 0.9) == 7.0
    # p90 has ten samples beyond it only from 100 samples on
    assert h.samples_beyond(100, 0.9) == 10
    assert h.samples_beyond(99, 0.9) == 9
    with pytest.raises(ValueError):
        h.percentile([], 0.5)


def test_gauge_scales_a_time_by_the_readings_near_it():
    g = h.Gauge(window_s=1.0, ref_s=2.0)
    g.times = [0.0, 0.5, 10.0, 10.5]
    g.readings = [1.0, 1.0, 4.0, 4.0]
    assert g.scale(3.0, 0.2, 0.4) == 6.0  # host at twice the reference speed
    assert g.scale(3.0, 10.1, 10.2) == 1.5  # host at half of it
    assert g.scale(3.0, 5.0, 5.1) == 3.0 * 2.0 / 2.5  # none near: all readings
    assert g.scale(3.0, 6.0, 8.0) == 1.5  # a 2-s interval looks 5 s out, to 10.0


class _FixedGauge(h.Gauge):
    def read(self):
        self.times.append(time.perf_counter())
        self.readings.append(2.0 * self.ref_s)


def test_run_passes_scales_latencies_and_keeps_them_raw():
    gauge = _FixedGauge(every_s=1e-9)
    ops = [h.Op("sleep", lambda: time.sleep(0.002), lambda _: None)] * 3
    m = h.run_passes(lambda k: ops, seconds=0.0, gauge=gauge)
    assert len(m.raw_latencies_s) == 3 and min(m.raw_latencies_s) >= 0.002
    assert m.latencies_s == pytest.approx([t / 2.0 for t in m.raw_latencies_s])
    assert m.pass_s == pytest.approx([sum(m.latencies_s)])
    assert m.raw_pass_s == pytest.approx([sum(m.raw_latencies_s)])


def test_wrong_output_raises_the_failure_share():
    wl = workloads.Thresholds(fermigte, seed=0)
    good = wl._op("witness", "3d", 1e-6, 0)
    wrong = wl._op("witness", "3d", 1e-6, 0)
    wrong.run = lambda: 2.5970  # within 1e-4 of nothing the paper reports
    raising = wl._op("witness", "3d", 1e-6, 0)
    raising.run = lambda: 1 / 0
    m = h.run_passes(lambda k: [good, wrong, raising], seconds=0.0)
    assert (m.attempted, m.failed) == (3, 2)
    assert m.ok_frac == pytest.approx(1 / 3)
    assert "paper" in m.errors[0] and "ZeroDivisionError" in m.errors[1]


def test_checks_reject_wrong_figures_states_and_cli_outputs():
    fig = workloads.Figures(fermigte, seed=0)._op(["polygon", "--rplus", workloads.POLYGON_RPLUS])
    assert fig.check(fig.run()) is None
    assert fig.check((0, "r1,r2\n", "")) is not None
    state = workloads.States(fermigte, seed=0)._op((0.5, 0.9, 0.6), "3d")
    lam, er, er_matrix = state.run()
    assert state.check((lam, er, er_matrix)) is None
    assert state.check((lam, er, er_matrix + 1e-9)) is not None
    assert state.check((-1e-6, er, er_matrix)) is not None
    # the non-JSON literal NaN is refused, so a NaN result cannot pass
    with pytest.raises(ValueError):
        workloads.parse_output(["f"], '{"value": NaN}')


def test_every_figures_request_has_one_recorded_digest():
    digests = workloads.load_reference()["figures"]
    argvs = workloads.all_figure_argvs()
    assert sorted(" ".join(a) for a in argvs) == sorted(digests)
    # figure 3 sweeps both dims whatever --dim says, so it takes none
    assert all("--dim" not in a for a in argvs if a[:3] == ["sweep", "--figure", "3"])
    wl = workloads.Figures(fermigte, seed=0)
    assert {op.kind for k in range(20) for op in wl.make_pass(k)} <= set(digests)


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | encodings",
            "import time:      2000 |     150000 |       numpy",
            "import time:       500 |      14000 |               scipy",
            "import time:      1000 |     370000 |             scipy.special",
            "import time:       400 |     550000 |   fermigte",
            "import time:       400 |     560000 | fermigte.cli",
        ]
    )
    assert h.parse_importtime(text) == {"import_s": 0.56, "numpy_s": 0.15, "scipy_s": 0.37}
