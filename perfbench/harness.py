"""Measurement machinery shared by the workloads: the percentile rule, the
pass loop that times operations and checks their outputs, the tracer that
wraps the package's public functions, the host-speed gauge and the
child-process helpers.

Everything here is standard library and numpy; the package under test is
imported only by the caller, from the checkout's ``src`` directory.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
import types
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The package modules, in the order the north star lists its layers.
LAYERS = ("specfun", "geometry", "couplings", "tristate", "witnesses", "bisep", "scan", "cli")

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

CHILD_TIMEOUT_S = 120.0


# ---------------------------------------------------------------- statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples that lie above the nearest-rank q-percentile of n samples.

    A percentile is resolved when at least ten samples lie beyond it, so
    p90 needs a run of at least 100 operations.
    """
    return n - max(1, math.ceil(q * n))


# ---------------------------------------------------------------- pass loop


@dataclass
class Op:
    """One operation: ``run`` does the timed work, ``check`` returns None
    when its output is correct and a one-line reason otherwise."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


# ---------------------------------------------------------------- host speed

GAUGE_REF_S = 0.0015
GAUGE_EVERY_S = 0.2
# Readings within max(GAUGE_WINDOW_S, GAUGE_WINDOW_OPS x the operation's
# own duration) of an operation scale it: a short operation needs readings
# close in time to follow the host's speed changes; a long one has readings
# only at its ends and needs those of several operations.
GAUGE_WINDOW_S = 1.0
GAUGE_WINDOW_OPS = 2.5
_GAUGE_POINTS = [((i * 7919) % 3001 / 3001.0, (i * 104729) % 2999 / 2999.0) for i in range(600)]
_GAUGE_X = np.linspace(0.0, 1.0, 4096)
_GAUGE_H = np.add.outer(np.arange(8.0), np.arange(8.0)) + 1j * np.subtract.outer(np.arange(8.0), np.arange(8.0))


def _gauge_loop() -> int:
    """Fixed work in the benchmark's own code, in the proportions the
    package's hot paths mix them: interpreted arithmetic, a sort and
    monotone-chain scan over 600 points, small-array numpy and 8x8
    Hermitian eigenvalues."""
    s = 0
    for i in range(3000):
        s += i * i
    hull: list[tuple[float, float]] = []
    for p in sorted(_GAUGE_POINTS):
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1]) - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
        ) <= 0:
            hull.pop()
        hull.append(p)
    for _ in range(4):
        y = np.sqrt(3.0 * _GAUGE_X**2 + 1.0) - _GAUGE_X
        np.argsort(np.vstack([_GAUGE_X, y]).T[:, 1])
    for _ in range(8):
        np.linalg.eigvalsh(_GAUGE_H)
    return s + len(hull)


class Gauge:
    """Host speed, read from a fixed loop that does not touch the package.

    A shared host changes speed by up to 1.8x, for seconds to minutes at a
    time, as the load of other tenants on its cores comes and goes.  A
    reading is the median time of three repeats of ``_gauge_loop``; a run
    takes one per ``every_s`` between its operations.  ``scale`` turns a
    time measured from ``t0`` to ``t1`` into the time at the speed where
    one loop takes ``ref_s``: it multiplies by ``ref_s`` over the median of
    the readings taken within ``window_s``, or ``GAUGE_WINDOW_OPS`` times the
    interval's length if longer, of that interval.  A change to the package moves the scaled times exactly
    as it moves the raw ones; the host's speed changes cancel, up to how
    differently they slow the package and the loop.
    """

    def __init__(self, every_s: float = GAUGE_EVERY_S, window_s: float = GAUGE_WINDOW_S, ref_s: float = GAUGE_REF_S):
        self.every_s = every_s
        self.window_s = window_s
        self.ref_s = ref_s
        self.times: list[float] = []
        self.readings: list[float] = []

    def read(self) -> None:
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            _gauge_loop()
            samples.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.readings.append(statistics.median(samples))

    def read_if_due(self) -> None:
        """One reading per ``every_s`` since the last one (at most ten), so
        that readings are spread evenly over time however long the
        operations between them are."""
        since = time.perf_counter() - self.times[-1] if self.times else math.inf
        for _ in range(int(min(10.0, since / self.every_s))):
            self.read()

    def scale(self, dt: float, t0: float, t1: float) -> float:
        w = max(self.window_s, GAUGE_WINDOW_OPS * (t1 - t0))
        lo = bisect.bisect_left(self.times, t0 - w)
        hi = bisect.bisect_right(self.times, t1 + w)
        near = self.readings[lo:hi] or self.readings
        return dt * self.ref_s / statistics.median(near)


@dataclass
class Measurement:
    """Timings of one run.  ``pass_s`` and ``latencies_s`` are scaled to the
    gauge's reference speed when the run had a gauge; the ``raw_`` lists
    are as the clock read them."""

    pass_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    raw_pass_s: list[float] = field(default_factory=list)
    raw_latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def run_passes(
    make_pass: Callable[[int], list[Op]],
    seconds: float,
    after_op: Callable[[Op, float], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
    gauge: Gauge | None = None,
    before_pass: Callable[[int], None] | None = None,
) -> Measurement:
    """Run passes 0, 1, 2, ... until the next pass would overrun ``seconds``.

    A pass's time is the sum of its operations' latencies; building the
    pass, checking outputs, reading the ``gauge`` and ``before_pass(k)``
    are not timed.  At least one pass runs.  ``after_op(op, latency_s)``
    is called after each operation with its raw latency.
    """
    m = Measurement()
    spans: list[tuple[float, float]] = []
    sizes: list[int] = []
    start = clock()
    while True:
        if before_pass is not None:
            before_pass(len(sizes))
        ops = make_pass(len(sizes))
        total = 0.0
        for op in ops:
            if gauge is not None:
                gauge.read_if_due()
            t0 = clock()
            try:
                out = op.run()
                err = None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            dt = t1 - t0
            spans.append((t0, t1))
            if err is None:
                err = op.check(out)
            total += dt
            m.raw_latencies_s.append(dt)
            m.attempted += 1
            if err is not None:
                m.failed += 1
                if len(m.errors) < 5:
                    m.errors.append(f"{op.kind}: {err}")
            if after_op is not None:
                after_op(op, dt)
        m.raw_pass_s.append(total)
        sizes.append(len(ops))
        if clock() - start + total > seconds:
            break
    if gauge is None:
        m.latencies_s = list(m.raw_latencies_s)
    else:
        for _ in range(3):  # readings after the last operation
            gauge.read()
        m.latencies_s = [gauge.scale(dt, t0, t1) for dt, (t0, t1) in zip(m.raw_latencies_s, spans)]
    i = 0
    for n in sizes:
        m.pass_s.append(sum(m.latencies_s[i : i + n]))
        i += n
    return m


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans around every public function of the package's modules.

    ``install`` rebinds each public function at every module attribute that
    holds it (``fermigte.bisep.from_config`` is the same object as
    ``fermigte.couplings.from_config``), so calls between modules are
    captured too; ``uninstall`` puts every original back.  Self time is a
    span's duration minus the durations of its direct child spans.  Spans
    are kept in memory (the first ``span_cap`` of them; aggregates cover
    all) and written out by the caller.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, span_cap: int = 50_000):
        self.clock = clock
        self.span_cap = span_cap
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.dropped = 0
        self.op = 0
        self.counters: Counter = Counter()
        # (ancestor, name) pairs whose nested calls are counted
        self.watch: dict[str, tuple[str, ...]] = {}
        self.nested: Counter = Counter()
        self._active: Counter = Counter()
        self._stack: list[list] = []  # [child_s, span index]
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """Return ``fn`` recording a span called ``name``.

        ``hook(tracer, fn)`` may return a replacement callable that updates
        ``tracer.counters``; it runs inside the span.
        """
        inner = hook(self, fn) if hook is not None else fn
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active, clock = self._stack, self._active, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for anc in self.watch.get(name, ()):
                if active[anc]:
                    self.nested[(anc, name)] += 1
            parent = stack[-1][1] if stack else -1
            if len(self.spans) < self.span_cap:
                idx = len(self.spans)
                self.spans.append([self.op, name, 0.0, 0.0, parent])
            else:
                idx = -1
                self.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if idx >= 0:
                    self.spans[idx][2] = t0
                    self.spans[idx][3] = t1

        return traced

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, hooks: dict[str, Callable] | None = None) -> None:
        """Wrap the public functions of every layer module, at every binding."""
        hooks = hooks or {}
        pkg = importlib.import_module("fermigte")
        mods = [pkg] + [importlib.import_module(f"fermigte.{m}") for m in LAYERS]
        for layer in LAYERS:
            mod = importlib.import_module(f"fermigte.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, hooks.get(name))
                for owner in mods:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, bound, traced)
        # Constructing (and validating) a configuration is the geometry
        # layer's unit of work; the class itself stays in place.
        cfg = importlib.import_module("fermigte.geometry").TriangleConfig
        self._patch(cfg, "__init__", self.wrap("geometry.config", cfg.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]


# ---------------------------------------------------------------- children


def child_env() -> dict[str, str]:
    """Fixed environment for child interpreters: the package from the
    checkout's ``src``, no ``GTE_FERMI_THREADS``, nothing else inherited."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
    }


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


def run_child(args: list[str]) -> ChildResult:
    """Run ``python args...`` from the checkout root and reap it with
    ``wait4``, which gives this child's own peak resident set size."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    data: dict[str, bytes] = {}
    readers = [
        threading.Thread(target=lambda k=k, s=s: data.__setitem__(k, s.read()))
        for k, s in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for t in readers:
        t.start()
    for t in readers:
        t.join(max(0.0, CHILD_TIMEOUT_S - (time.perf_counter() - t0)))
    if any(t.is_alive() for t in readers):
        proc.kill()
        for t in readers:
            t.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(
        proc.returncode,
        data["out"].decode(),
        data["err"].decode(),
        wall,
        usage.ru_maxrss,
    )


def time_until_ready(args: list[str]) -> float:
    """Seconds from launching ``python args...`` until it prints ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-300:]}")
    return ready


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import costs in seconds from ``python -X importtime`` output.

    Each value is the cumulative time of an entry, which includes the
    modules first imported beneath it: ``import_s`` for the outermost
    ``fermigte`` entries (everything ``import fermigte.cli`` pulls in),
    ``numpy_s`` for ``numpy`` and ``scipy_s`` for ``scipy.special``.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    if not rows:
        raise RuntimeError("no -X importtime output")
    top = min(indent for _, indent, _ in rows)
    return {
        "import_s": sum(c for c, i, n in rows if i == top and n.split(".")[0] == "fermigte") / 1e6,
        "numpy_s": sum(c for c, _, n in rows if n == "numpy") / 1e6,
        "scipy_s": sum(c for c, _, n in rows if n == "scipy.special") / 1e6,
    }
