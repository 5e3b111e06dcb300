"""The four workloads.  Each draws its inputs from ``random.Random`` seeded
with (seed, pass index), so the same seed gives the same inputs, and
builds one pass of operations at a time.  A pass has a fixed composition;
the seed picks parameters only, so passes cost about the same on every
seed and ``wall_s`` (the median pass time) compares across seeds.

thresholds  in-process ``gte-distance`` requests.  Two polygon solves (one
            per dim) and one witness solve per pass, so the median
            operation is a polygon solve: hull construction is the cost.
figures     in-process ``gte-fermi`` table regeneration: sweeps 1a, 1b, 2,
            3, the polygon dump at r_plus = 0.041 and witness-scan, each
            output compared byte for byte with its recorded digest.
states      random triangles through the 8x8 operator path.
cli         ``python -m fermigte.cli`` subprocess requests; interpreter
            start and imports sit on every request's blocking path.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

from harness import Op, run_child

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Paper values, 4 decimals, in units of 1/k_F.
PAPER = {
    ("witness", "3d"): 2.5964,
    ("witness", "2d"): 2.3588,
    ("polygon", "3d"): 2.5988,
    ("polygon", "2d"): 2.3599,
}
PAPER_TOL = 1e-4
TOLS = (1e-5, 1e-6)
# Index 0 is the solver's default bracket; the rest are narrower ones that
# still hold exactly one crossing.
BRACKETS = {
    ("polygon", "3d"): (None, (2.4, 2.8), (2.5, 2.7), (2.55, 2.65)),
    ("polygon", "2d"): (None, (2.2, 2.5), (2.3, 2.4), (2.33, 2.39)),
    ("witness", "3d"): (None, (1.0, 3.5), (2.0, 3.0), (2.4, 2.8)),
    ("witness", "2d"): (None, (1.0, 3.5), (2.0, 3.0), (2.2, 2.6)),
}

FIGURES = ("1a", "1b", "2", "3")
POINTS = (181, 201, 221)
POLYGON_RPLUS = "0.041"

STATES_PER_PASS = 50
STATES_LOG_SCALE = (-4.0, math.log10(3.0))
ER_AGREE = 1e-12
MIN_EIG_FLOOR = -1e-9

NAN_PROBE = ["f", "--dim", "3d", "--x", "nan"]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``gte-fermi argv`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def threshold_key(method: str, dim: str, tol: float, bracket: int) -> str:
    return f"{method}/{dim}/{tol:g}/{bracket}"


def threshold_request(fm, method: str, dim: str, tol: float, bracket: int) -> float:
    """The value ``gte-distance`` would print for this request."""
    d = fm.Dimensionality(dim)
    rng = BRACKETS[(method, dim)][bracket]
    if method == "witness":
        if rng is None:
            return fm.scan.find_rmin(d, tol=tol)
        return fm.scan.find_rmin(d, tol=tol, prescan_range=rng)
    return fm.bisep.r_max_solver(d, bracket=rng, tol=tol)


def sweep_argv(figure: str, dim: str, points: int) -> list[str]:
    """``sweep`` arguments; figure 3 covers both dims and takes no ``--dim``."""
    argv = ["sweep", "--figure", figure]
    if figure != "3":
        argv += ["--dim", dim]
    return argv + ["--points", str(points)]


def all_figure_argvs() -> list[list[str]]:
    """Every output the figures workload can request."""
    out = [["polygon", "--rplus", POLYGON_RPLUS], ["witness-scan"], ["witness-scan", "--detail"]]
    for points in POINTS:
        out += [sweep_argv(fig, dim, points) for fig in FIGURES for dim in ("2d", "3d")]
    return list({" ".join(a): a for a in out}.values())


def random_triangle(rng: random.Random, scale: float) -> tuple[float, float, float]:
    """Distances of three uniform points in the unit square, rescaled so the
    longest is ``scale``; every shape occurs."""
    while True:
        p = [(rng.random(), rng.random()) for _ in range(3)]
        d = (math.dist(p[0], p[1]), math.dist(p[0], p[2]), math.dist(p[1], p[2]))
        if min(d) > 1e-9 * max(d):
            m = max(d)
            return tuple(x / m * scale for x in d)


class Workload:
    name = ""

    def __init__(self, fm, seed: int):
        self.fm = fm
        self.seed = seed

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{k}")

    def make_pass(self, k: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Load what the first operation would otherwise load lazily."""
        fm = self.fm
        c = fm.couplings.from_config(fm.geometry.TriangleConfig(0.5, 0.9, 0.6, fm.Dimensionality("3d")))
        fm.tristate.min_eigenvalue(fm.tristate.rho3(c))
        fm.witnesses.er_lower_bound_matrix(c)


class Thresholds(Workload):
    name = "thresholds"

    def __init__(self, fm, seed):
        super().__init__(fm, seed)
        self.ref = load_reference()["thresholds"]

    def make_pass(self, k):
        rng = self.rng(k)
        # The two polygon solves take one tolerance each and one of them the
        # default bracket, so passes cost about the same whatever the seed.
        tols = rng.sample(TOLS, 2) + [rng.choice(TOLS)]
        brackets = rng.sample([0, rng.randrange(1, 4)], 2) + [rng.randrange(4)]
        reqs = [("polygon", "2d"), ("polygon", "3d"), ("witness", rng.choice(("2d", "3d")))]
        ops = [self._op(m, d, t, b) for (m, d), t, b in zip(reqs, tols, brackets)]
        rng.shuffle(ops)
        return ops

    def _op(self, method, dim, tol, bracket):
        key = threshold_key(method, dim, tol, bracket)
        ref = self.ref[key]
        paper = PAPER[(method, dim)]

        def check(value):
            if abs(value - paper) > PAPER_TOL:
                return f"{key} = {value!r}, paper {paper}"
            if abs(value - ref) > 10.0 * tol:
                return f"{key} = {value!r}, recorded {ref!r}"
            return None

        return Op(key, lambda: threshold_request(self.fm, method, dim, tol, bracket), check)


class Figures(Workload):
    name = "figures"

    def __init__(self, fm, seed):
        super().__init__(fm, seed)
        self.digests = load_reference()["figures"]

    def make_pass(self, k):
        rng = self.rng(k)
        argvs = [sweep_argv(fig, rng.choice(("2d", "3d")), rng.choice(POINTS)) for fig in FIGURES]
        argvs.append(["polygon", "--rplus", POLYGON_RPLUS])
        argvs.append(["witness-scan"] + (["--detail"] if rng.random() < 0.5 else []))
        rng.shuffle(argvs)
        return [self._op(argv) for argv in argvs]

    def _op(self, argv):
        key = " ".join(argv)
        digest = self.digests[key]

        def check(result):
            code, out, err = result
            if code != 0:
                return f"{key}: exit {code}: {err.strip()}"
            if sha256(out) != digest:
                return f"{key}: output differs from the recorded digest"
            return None

        return Op(key, lambda: run_cli(self.fm.cli, argv), check)


class States(Workload):
    name = "states"

    def make_pass(self, k):
        rng = self.rng(k)
        ops = []
        for _ in range(STATES_PER_PASS):
            scale = 10.0 ** rng.uniform(*STATES_LOG_SCALE)
            ops.append(self._op(random_triangle(rng, scale), rng.choice(("2d", "3d"))))
        return ops

    def _op(self, d, dim):
        fm = self.fm
        kind = "limit" if max(d) < fm.couplings.LIMIT_SWITCH else "direct"

        def run():
            c = fm.couplings.from_config(fm.geometry.TriangleConfig(*d, fm.Dimensionality(dim)))
            rho = fm.tristate.rho3(c)
            lam = fm.tristate.min_eigenvalue(rho)
            fm.tristate.werner_coords(c)
            return lam, fm.witnesses.er_lower_bound(c), fm.witnesses.er_lower_bound_matrix(c)

        def check(result):
            lam, er, er_matrix = result
            if not abs(er - er_matrix) <= ER_AGREE:
                return f"{d} {dim}: E_R closed form {er!r} vs matrix {er_matrix!r}"
            if not lam >= MIN_EIG_FLOOR:
                return f"{d} {dim}: minimum eigenvalue {lam!r}"
            return None

        return Op(kind, run, check)


def _num(x: float) -> str:
    return repr(float(x))


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def parse_output(argv: list[str], text: str):
    """Parse stdout the way a consumer would: JSON for scalars, CSV for
    tables, complex entries for the rho3 dump.  Raises on malformed text."""
    cmd = argv[0]
    if cmd in ("polygon", "sweep"):
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        if not body or any(len(r) != len(header) for r in body):
            raise ValueError("CSV is empty or not rectangular")
        return header, [[c if c in ("2d", "3d") else float(c) for c in r] for r in body]
    if cmd == "rho3":
        rows = [[complex(t.replace("i", "j")) for t in line.split()] for line in text.splitlines()]
        if len(rows) != 8 or any(len(r) != 8 for r in rows):
            raise ValueError("rho3 dump is not 8x8")
        return rows
    return json.loads(text, parse_constant=_reject_constant)


class Cli(Workload):
    """Nine requests per pass: the eight valid kinds once each and one
    request that is out of domain and must exit 2."""

    name = "cli"

    def __init__(self, fm, seed):
        super().__init__(fm, seed)
        self.peak_rss_kb = 0  # largest child peak RSS so far

    def make_pass(self, k):
        rng = self.rng(k)
        argvs = [
            self._f(rng),
            self._triangle(rng, "couplings"),
            self._triangle(rng, "werner"),
            self._triangle(rng, "rho3"),
            self._er(rng),
            ["gte-distance", "--dim", rng.choice(("2d", "3d")), "--method", "witness", "--tol", repr(rng.choice(TOLS))],
            ["polygon", "--rplus", f"{rng.uniform(0.013, 0.096):.4f}"],
            ["sweep", "--figure", "3", "--points", str(rng.choice((101, 201)))],
        ]
        expected = [0] * len(argvs)
        argvs.append(self._invalid(rng))
        expected.append(2)
        order = list(range(len(argvs)))
        rng.shuffle(order)
        return [self._op(argvs[i], expected[i]) for i in order]

    @staticmethod
    def _f(rng):
        return ["f", "--dim", rng.choice(("2d", "3d")), "--x", f"{rng.uniform(0.0, 12.0):.6f}"]

    @staticmethod
    def _triangle(rng, cmd):
        d = random_triangle(rng, rng.uniform(0.2, 3.0))
        argv = [cmd, "--dim", rng.choice(("2d", "3d")), "--d12", _num(d[0]), "--d13", _num(d[1]), "--d23", _num(d[2])]
        return argv + (["--limit"] if rng.random() < 0.25 else [])

    @staticmethod
    def _er(rng):
        kind = rng.choice(("collinear", "isosceles", "polar", "equilateral"))
        kfr = 0.0 if kind != "equilateral" and rng.random() < 0.3 else rng.uniform(0.1, 3.0)
        argv = ["er", "--geometry", kind, "--dim", rng.choice(("2d", "3d")), "--kfr", f"{kfr:.6f}"]
        if kind == "collinear":
            argv += ["--x-over-r", f"{rng.uniform(0.05, 0.95):.6f}"]
        elif kind == "isosceles":
            argv += ["--y-over-r", f"{rng.uniform(0.0, 1.0):.6f}"]
        elif kind == "polar":
            argv += ["--theta", f"{rng.uniform(0.05, 1.5):.6f}", "--q-over-r", f"{rng.uniform(0.0, 0.45):.6f}"]
        return argv

    @staticmethod
    def _invalid(rng):
        dim = rng.choice(("2d", "3d"))
        return rng.choice(
            (
                ["f", "--dim", dim, "--x", f"{-rng.uniform(0.1, 5.0):.6f}"],
                ["f", "--dim", dim, "--x", f"{rng.uniform(51.0, 90.0):.6f}"],
                ["couplings", "--dim", dim, "--d12", "0.5", "--d13", "3.0", "--d23", "1.0"],
                ["werner", "--d12", "0.7", "--d13", "0.7", "--d23", "0.7", "--limit"],
                ["er", "--geometry", "equilateral", "--dim", dim, "--kfr", "0"],
                ["er", "--geometry", "polar", "--kfr", "1.5", "--q-over-r", f"{rng.uniform(0.6, 0.9):.6f}"],
                ["gte-distance", "--dim", dim, "--method", "polygon", "--bracket", "3.0", "2.0"],
            )
        )

    def _op(self, argv, expected_code):
        key = " ".join(argv)

        def run():
            result = run_child(["-m", "fermigte.cli", *argv])
            self.peak_rss_kb = max(self.peak_rss_kb, result.maxrss_kb)
            return result

        def check(result):
            if result.returncode != expected_code:
                return f"{key}: exit {result.returncode}, expected {expected_code}: {result.stderr.strip()[-200:]}"
            code, out, _ = run_cli(self.fm.cli, argv)
            if code != expected_code:
                return f"{key}: in-process exit {code}, expected {expected_code}"
            if expected_code != 0:
                lines = result.stderr.splitlines()
                if result.stdout or len(lines) != 1 or not lines[0].startswith("error: "):
                    return f"{key}: expected one 'error:' line and no output"
                return None
            try:
                got = parse_output(argv, result.stdout)
            except (ValueError, IndexError) as exc:
                return f"{key}: unparseable output: {exc}"
            if got != parse_output(argv, out):
                return f"{key}: values differ from the in-process result"
            return None

        return Op(argv[0], run, check)

    def warm_up(self):
        pass

    def nan_probe(self) -> dict:
        """The known ``f --x nan`` defect: a non-finite input must exit 2."""
        result = run_child(["-m", "fermigte.cli", *NAN_PROBE])
        return {
            "argv": NAN_PROBE,
            "exit": result.returncode,
            "stdout": result.stdout.strip()[:200],
            "ok": result.returncode == 2 and not result.stdout,
        }


WORKLOADS = {w.name: w for w in (Thresholds, Figures, States, Cli)}
