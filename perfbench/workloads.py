"""The four benchmark workloads: seeded inputs, timed operations and their checks.

A workload is built from a seed alone.  It hands qtrig only the generated
inputs and exposes a fixed list of operations (one pass); every pass runs the
same list, so passes are comparable and their outputs must be identical.
Each operation carries a reference check that runs after timing, against
the independent mpmath values in reference.py.

Inputs are drawn so that no operation is expected to fail: intervals are
certified and rational denominators kept clear of zero with a float64
evaluation of the product formula that lives here, not in the package.
"""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from typing import Callable

import numpy as np

# How the installed `qtrig` console script starts the CLI.
CLI_ENTRY = "import sys; from qtrig.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120
SAMPLES = 1000          # eval-sweep points per curve or basis table
CHECK_POINTS = 4        # seeded interior sample indices checked per output
LOG_Q = (math.log(0.4), math.log(3.5))
HALF_PI = math.pi / 2


def _unchanged(out):
    return out


@dataclass
class Op:
    """One timed call.  run() is timed; finish() and check() are not."""

    kind: str
    run: Callable
    check: Callable                       # (reference module, output) -> bool
    finish: Callable = _unchanged
    points: int = 0
    degree: int = 0


@dataclass
class Raised:
    """Stands in for the output of an operation that raised."""

    error: str


# ---------------------------------------------------------------- generation

def _kernel_f64(x, y, q):
    return 0.5 * (q + 1.0) * np.sin(y - x) + 0.5 * (q - 1.0) * np.sin(y + x)


def basis_f64(n, xs, q, a, b):
    """(len(xs), n+1) product-formula basis in float64, for input guards only."""
    xs = np.asarray(xs, dtype=float)[:, None]
    qi = q ** np.arange(n)
    ones = np.ones((xs.shape[0], 1))
    pre = np.hstack([ones, np.cumprod(_kernel_f64(a, xs, qi), axis=1)])
    suf = np.hstack([ones, np.cumprod(_kernel_f64(xs, b, qi), axis=1)])
    if q == 1.0:
        row = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    else:
        row = np.ones(n + 1)
        for k in range(1, n + 1):
            row[k] = row[k - 1] * (1.0 - q ** (n - k + 1)) / (1.0 - q ** k)
    return row * pre * suf[:, ::-1] / np.prod(_kernel_f64(a, b, qi))


def _certified(n, q, a, b):
    # a wider margin than the package's 1e-12, so a draw never sits on the edge
    return bool(np.min(np.abs(_kernel_f64(a, b, q ** np.arange(n + 1)))) > 1e-9)


def _log_uniform_q(rng):
    return float(np.exp(rng.uniform(*LOG_Q)))


def _general_interval(rng, n, q):
    """Seeded certified interval of length 0.3-1.2, as in tests/conftest.py."""
    while True:
        a = float(rng.uniform(-3.0, 3.0))
        b = a + float(rng.uniform(0.3, 1.2))
        if _certified(n, q, a, b):
            return a, b


def _denominator_clear(n, xs, q, a, b, w, margin):
    terms = basis_f64(n, xs, q, a, b) * w
    den = terms.sum(axis=1)
    return bool(np.all(np.abs(den) > margin * np.abs(terms).sum(axis=1)))


def _mixed_weights(rng, n, q, a, b):
    """Weights with one negative interior entry that keep the denominator positive.

    Each weight is scaled by 1/max B_k over the interval, so the negative
    term is at most 5% of any neighbour's peak whatever q does to the
    relative sizes of the B_k.  Only used on quarter periods, where B_k >= 0.
    """
    grid = np.linspace(a, b, 1024)
    peak = basis_f64(n, grid, q, a, b).max(axis=0)
    while True:
        u = rng.uniform(0.5, 2.0, size=n + 1)
        u[int(rng.integers(1, n))] = -0.05
        w = u / peak
        if _denominator_clear(n, np.linspace(a, b, SAMPLES), q, a, b, w, 1e-3) and \
                _denominator_clear(n, grid, q, a, b, w, 1e-3):
            return w


def _check_indices(rng, count):
    return sorted({0, count - 1, *rng.choice(np.arange(1, count - 1), CHECK_POINTS, replace=False).tolist()})


def _all_finite(arrays):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in arrays)


# ---------------------------------------------------------------- eval-sweep

class EvalSweep:
    """Curve sampling at 1000 points: direct, tableau, basis tables, rational."""

    name = "eval-sweep"

    def __init__(self, seed, rundir):
        rng = np.random.default_rng([seed, 1])
        quarter_ks = [int(k) - 1 for k in rng.permutation(4)]
        planar_slots = rng.permutation(3).tolist()    # which planar degree keeps the quarter
        q_one = int(rng.integers(6))
        self.cases = []
        for i, (dim, n) in enumerate((d, n) for d in (2, 3) for n in (3, 10, 30)):
            q = 1.0 if i == q_one else _log_uniform_q(rng)
            rank = (3, 10, 30).index(n)
            # 3-d polygons take three quarter periods; the planar ones take the
            # fourth and two general intervals
            general = dim == 2 and planar_slots[rank] != 0
            if general:
                while True:
                    a, b = _general_interval(rng, n, q)
                    w = rng.uniform(0.5, 2.0, size=n + 1)
                    if _denominator_clear(n, np.linspace(a, b, SAMPLES), q, a, b, w, 1e-6):
                        break
            else:
                k = quarter_ks[rank if dim == 3 else 3]
                a, b = k * HALF_PI, (k + 1) * HALF_PI
            points = rng.uniform(-3.0, 3.0, size=(n + 1, dim))
            if dim == 3:
                w = _mixed_weights(rng, n, q, a, b)
            elif not general:
                w = rng.uniform(0.5, 2.0, size=n + 1)
            self.cases.append(dict(
                dim=dim, n=n, q=q, a=a, b=b, points=points, weights=w,
                method="alg1" if dim == 2 else "alg2",
                check_idx=_check_indices(rng, SAMPLES),
            ))

    def ops(self, traced=False):
        return [op for c in self.cases for op in _sweep_ops(c)]

    def warmup(self):
        # first calls of every entry point on the smallest case; no certificate
        from qtrig import ControlPolygon, Interval, rational_sample, sample_curve

        c = self.cases[0]
        iv = Interval(c["a"], c["b"])
        poly = ControlPolygon(c["points"])
        for method in ("direct", "alg1", "alg2"):
            sample_curve(poly, c["q"], iv, 2, method)
        rational_sample(poly, np.ones(c["n"] + 1), c["q"], iv, 2)

    def close(self):
        pass


def _sweep_ops(c):
    """Direct and tableau sweeps, a basis table and a rational sweep of one case."""
    from qtrig import basis, curve, kernel, rational

    sample_curve, basis_all_direct = curve.sample_curve, basis.basis_all_direct
    rational_sample = rational.rational_sample
    n, q, w, method = c["n"], c["q"], c["weights"], c["method"]
    iv = kernel.Interval(c["a"], c["b"])
    poly = curve.ControlPolygon(c["points"])
    xs = np.linspace(iv.a, iv.b, SAMPLES).tolist()
    pts, idx = c["points"].tolist(), c["check_idx"]

    def curve_check(weights):
        def check(ref, out):
            if len(out) != SAMPLES or not _all_finite([s.point for s in out]):
                return False
            return all(ref.check_curve_point(out[i].point, pts, out[i].x, q, iv.a, iv.b, weights) for i in idx)

        return check

    def table_check(ref, out):
        if len(out) != SAMPLES or not _all_finite(out):
            return False
        return all(ref.check_basis(out[i], n, xs[i], q, iv.a, iv.b) for i in idx)

    return [
        Op("direct", lambda: sample_curve(poly, q, iv, SAMPLES, "direct"), curve_check(None),
           points=SAMPLES, degree=n),
        Op("tableau", lambda: sample_curve(poly, q, iv, SAMPLES, method), curve_check(None),
           points=SAMPLES, degree=n),
        Op("table", lambda: [basis_all_direct(n, x, q, iv).values for x in xs], table_check,
           points=SAMPLES, degree=n),
        Op("rational", lambda: rational_sample(poly, w, q, iv, SAMPLES), curve_check(w),
           points=SAMPLES, degree=n),
    ]


# ---------------------------------------------------------------- point-query

class PointQuery:
    """A stream of single-x calls at degrees 1-6, as the README example makes."""

    name = "point-query"
    CASES_PER_DEGREE = 8

    def __init__(self, seed, rundir):
        rng = np.random.default_rng([seed, 2])
        pool = [(k * HALF_PI, (k + 1) * HALF_PI) for k in (-1, 0, 1, 2)] + [(math.pi / 8, math.pi / 4)]
        self.cases = []
        for n in range(1, 7):
            for j in range(self.CASES_PER_DEGREE):
                while True:
                    q = 1.0 if j == 0 else _log_uniform_q(rng)
                    if rng.random() < 0.75:
                        a, b = pool[int(rng.integers(len(pool)))]
                        if not _certified(n, q, a, b):
                            continue
                    else:
                        a, b = _general_interval(rng, n, q)
                    x = float(rng.uniform(a, b))
                    w = rng.uniform(0.5, 2.0, size=n + 1)
                    # the test suite's guard: sum |B_k| <= 50 at the point
                    if np.abs(basis_f64(n, [x], q, a, b)).sum() > 50.0:
                        continue
                    if _denominator_clear(n, [x], q, a, b, w, 1e-6):
                        break
                dim = int(rng.integers(1, 4))
                r = int(rng.integers(0, n + 1))
                self.cases.append(dict(
                    n=n, q=q, a=a, b=b, x=x, weights=w,
                    points=rng.uniform(-3.0, 3.0, size=(n + 1, dim)),
                    variant=("alg1", "alg2")[j % 2], r=r, k=int(rng.integers(0, n - r + 1)),
                ))

    def ops(self, traced=False):
        return [op for c in self.cases for op in _point_ops(c)]

    def warmup(self):
        for op in self.ops()[:10]:
            op.run()

    def close(self):
        pass


def _point_ops(c):
    """The ten single-x calls on one case, in the order a caller would make them."""
    from qtrig import basis, curve, kernel, rational

    f_direct, f_rec1, f_rec2 = basis.basis_all_direct, basis.basis_all_recurrence1, basis.basis_all_recurrence2
    f_eval, f_alg1, f_alg2 = curve.evaluate_direct, curve.evaluate_alg1, curve.evaluate_alg2
    f_inter, f_certify = curve.intermediate_explicit, kernel.certify_interval
    f_rbasis, f_reval = rational.rational_basis_all, rational.rational_evaluate
    n, q, x, w, a, b = c["n"], c["q"], c["x"], c["weights"], c["a"], c["b"]
    variant, r, k = c["variant"], c["r"], c["k"]
    iv = kernel.Interval(a, b)
    poly = curve.ControlPolygon(c["points"])
    pts = c["points"].tolist()
    return [
        Op("basis_all_direct", lambda: f_direct(n, x, q, iv),
           lambda ref, o: ref.check_basis(o.values, n, x, q, a, b), degree=n),
        Op("basis_all_recurrence1", lambda: f_rec1(n, x, q, iv),
           lambda ref, o: ref.check_basis(o.values, n, x, q, a, b, tol=ref.RECURRENCE_TOL), degree=n),
        Op("basis_all_recurrence2", lambda: f_rec2(n, x, q, iv),
           lambda ref, o: ref.check_basis(o.values, n, x, q, a, b, tol=ref.RECURRENCE_TOL), degree=n),
        Op("evaluate_direct", lambda: f_eval(poly, x, q, iv),
           lambda ref, o: ref.check_curve_point(o, pts, x, q, a, b), degree=n),
        Op("evaluate_alg1", lambda: f_alg1(poly, x, q, iv).apex,
           lambda ref, o: ref.check_curve_point(o, pts, x, q, a, b), degree=n),
        Op("evaluate_alg2", lambda: f_alg2(poly, x, q, iv).apex,
           lambda ref, o: ref.check_curve_point(o, pts, x, q, a, b), degree=n),
        Op("intermediate_explicit", lambda: f_inter(variant, r, k, x, poly, q, iv),
           lambda ref, o: ref.check_tableau_entry(o, variant, r, k, x, pts, q, a, b), degree=n),
        Op("rational_basis_all", lambda: f_rbasis(n, x, q, iv, w),
           lambda ref, o: ref.check_rational_basis(o.values, n, x, q, a, b, w), degree=n),
        Op("rational_evaluate", lambda: f_reval(poly, w, x, q, iv),
           lambda ref, o: ref.check_curve_point(o, pts, x, q, a, b, weights=w), degree=n),
        Op("certify_interval", lambda: f_certify(iv, q, n),
           lambda ref, o: ref.check_certificate(o.valid, o.min_abs_denominator, n, q, a, b), degree=n),
    ]


# ---------------------------------------------------------------- tp-check

class TpCheck:
    """Collocation followed by the exhaustive total-positivity check."""

    name = "tp-check"
    SWEEP_DEGREES = (1, 2, 3, 4)
    SWEEP_QS = (0.5, 1.0, 1.5, 3.0)
    GRID = 6

    def __init__(self, seed, rundir):
        rng = np.random.default_rng([seed, 3])
        cases = []

        def quarter(k):
            return k * HALF_PI, (k + 1) * HALF_PI

        def interior(a, b, count):
            # jittered interior grid: strictly increasing, well separated
            steps = (np.arange(1, count + 1) + rng.uniform(-0.3, 0.3, size=count)) / (count + 1)
            return (a + (b - a) * steps).tolist()

        # (a) the scripts/shape_sweep.py grid: many tiny matrices
        for n in self.SWEEP_DEGREES:
            for q in self.SWEEP_QS:
                for k in (-1, 0, 1, 2):
                    a, b = quarter(k)
                    for family in ("quantum", "rational"):
                        w = rng.uniform(0.5, 2.0, size=n + 1) if family == "rational" else None
                        cases.append(dict(group="sweep", family=family, n=n, q=q, a=a, b=b,
                                          points=interior(a, b, self.GRID), weights=w, expect=True))
        # (b) large strictly totally positive matrices on quarter periods
        for family, n, count in (("quantum", 9, 10), ("classical", 7, 8), ("rational", 8, 9)):
            a, b = quarter(int(rng.integers(-1, 3)))
            w = rng.uniform(0.5, 2.0, size=n + 1) if family == "rational" else None
            cases.append(dict(group="large", family=family, n=n, q=_log_uniform_q(rng), a=a, b=b,
                              points=interior(a, b, count), weights=w, expect=True))
        # (c) endpoints included: TP with zero minors, not strictly TP
        for family, n in (("quantum", 5), ("classical", 5), ("rational", 4)):
            for k in (-1, 0, 1, 2):
                a, b = quarter(k)
                w = rng.uniform(0.5, 2.0, size=n + 1) if family == "rational" else None
                cases.append(dict(group="endpoints", family=family, n=n, q=_log_uniform_q(rng), a=a, b=b,
                                  points=np.linspace(a, b, self.GRID).tolist(), weights=w, expect=True))
        # (d) off the quarter grid, q near 0.5: not TP, with a negative witness
        for n in (3, 4, 5):
            for _ in range(4):
                a = 0.3 + float(rng.uniform(-0.05, 0.05))
                b = 1.5 + float(rng.uniform(-0.05, 0.05))
                cases.append(dict(group="not-tp", family="quantum", n=n, q=float(rng.uniform(0.45, 0.55)),
                                  a=a, b=b, points=interior(a, b, self.GRID), weights=None, expect=False))
        for c in cases:
            c["check_col"] = int(rng.integers(len(c["points"])))
        self.cases = cases

    def ops(self, traced=False):
        from qtrig import kernel, shape

        collocation, tp_check = shape.collocation, shape.total_positivity_check
        ops = []
        for c in self.cases:
            iv = kernel.Interval(c["a"], c["b"])

            def run(c=c, iv=iv):
                m = collocation(c["family"], c["n"], c["q"], iv, c["points"], weights=c["weights"])
                return m, tp_check(m)

            ops.append(Op(c["group"], run, self._check(c), degree=c["n"]))
        return ops

    @staticmethod
    def _check(c):
        def check(ref, out):
            matrix, report = out
            entries = matrix.entries
            if entries.shape != (c["n"] + 1, len(c["points"])) or not _all_finite([entries]):
                return False
            if report.is_tp != c["expect"]:
                return False
            col = entries[:, c["check_col"]]
            x = c["points"][c["check_col"]]
            if c["family"] == "quantum":
                ok = ref.check_basis(col, c["n"], x, c["q"], c["a"], c["b"])
            elif c["family"] == "classical":
                ok = ref.check_basis(col, c["n"], x, 1.0, c["a"], c["b"])
            else:
                ok = ref.check_rational_basis(col, c["n"], x, c["q"], c["a"], c["b"], c["weights"])
            if ok and not c["expect"]:
                ok = ref.check_negative_witness(report.witness, c["family"], c["n"], c["q"], c["a"], c["b"],
                                                c["points"], c["weights"], report.tolerance)
            return ok

        return check

    def warmup(self):
        self.ops()[0].run()

    def close(self):
        pass


# ---------------------------------------------------------------- cli-batch

@dataclass
class Job:
    argv: list
    expect: int
    kind: str                       # how the output is checked
    out: str = None                 # output file, if the job writes one
    spec: dict = field(default_factory=dict)


class CliBatch:
    """The qtrig command, one invocation at a time, as the README uses it."""

    name = "cli-batch"

    def __init__(self, seed, rundir):
        rng = np.random.default_rng([seed, 4])
        self.rundir = rundir
        os.makedirs(rundir, exist_ok=True)
        arch = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 2.0], [3.0, 0.0]])
        arch[1:3, 1] += rng.uniform(-0.5, 0.5, size=2)
        arch_path = self._write("arch.json", {"points": arch.tolist(), "weights": [1, 1, 1, 1]})
        scalar = np.array([1.0, -1.5, 2.0, -1.0, 0.5]) + rng.uniform(-0.2, 0.2, size=5)
        scalar_path = self._write("scalar.json", {"points": scalar.tolist()})
        quarter = (0.0, HALF_PI)
        qs = [float(rng.uniform(1.1, 3.0)) for _ in range(8)]
        mixed = _mixed_weights(rng, 3, qs[7], *quarter)
        arch_spec = dict(points=arch.tolist(), a=quarter[0], b=quarter[1])
        gallery = [str(v) for v in ("--q", 1.1, "--q", 1.2, "--q", 1.3)]
        out = lambda name: os.path.join(rundir, name)  # noqa: E731
        self.jobs = [
            Job(["basis", "--degree", "3", "--q", repr(qs[0]), "--interval", "0,pi/2", "--out", out("b.csv")],
                0, "basis-csv", out("b.csv"), dict(n=3, q=qs[0], a=0.0, b=HALF_PI)),
            Job(["basis", "--degree", "5", "--q", repr(qs[1]), "--interval", "pi/8,pi/4", "--format", "json",
                 "--out", out("b.json")],
                0, "basis-json", out("b.json"), dict(n=5, q=qs[1], a=math.pi / 8, b=math.pi / 4)),
            # the scripts/make_figures.py gallery
            Job(["basis", "--degree", "3", *gallery, "--interval", "pi/8,pi/4", "--format", "svg",
                 "--samples", "129", "--out", out("g1.svg")], 0, "svg", out("g1.svg"), dict(polylines=12)),
            Job(["basis", "--degree", "3", *gallery, "--interval", "0,pi/2", "--format", "svg",
                 "--samples", "129", "--out", out("g2.svg")], 0, "svg", out("g2.svg"), dict(polylines=12)),
            Job(["rational", "--basis", "--degree", "3", "--weights", "1,1,1,1", *gallery, "--interval", "0,pi/2",
                 "--format", "svg", "--samples", "129", "--out", out("g3.svg")], 0, "svg", out("g3.svg"),
                dict(polylines=12)),
            Job(["rational", "--polygon", arch_path, "--q", "1", "--q", "2", "--q", "3", "--interval", "0,pi/2",
                 "--format", "svg", "--samples", "129", "--out", out("g4.svg")], 0, "svg", out("g4.svg"),
                dict(polylines=4)),
            Job(["curve", "--polygon", arch_path, "--q", repr(qs[2]), "--interval", "0,pi/2", "--method", "alg1",
                 "--format", "json", "--out", out("c.json")], 0, "curve-json", out("c.json"),
                dict(arch_spec, q=qs[2])),
            Job(["curve", "--polygon", arch_path, "--q", repr(qs[3]), "--interval", "0,pi/2", "--out", out("c.csv")],
                0, "curve-csv", out("c.csv"), dict(arch_spec, q=qs[3])),
            Job(["curve", "--polygon", arch_path, "--q", repr(qs[4]), "--interval", "0,pi/2", "--method", "alg2",
                 "--format", "svg", "--out", out("c.svg")], 0, "svg", out("c.svg"), dict(polylines=2)),
            Job(["rational", "--basis", "--degree", "3", "--q", repr(qs[5]), "--interval", "0,pi/2",
                 "--out", out("rb.csv")], 0, "rbasis-csv", out("rb.csv"),
                dict(n=3, q=qs[5], a=0.0, b=HALF_PI, weights=[1.0] * 4)),
            Job(["rational", "--polygon", arch_path, "--q", repr(qs[6]), "--interval", "0,pi/2", "--format", "json",
                 "--out", out("r.json")], 0, "curve-json", out("r.json"),
                dict(arch_spec, q=qs[6], weights=[1.0] * 4)),
            Job(["rational", "--polygon", arch_path, "--weights", ",".join(repr(float(v)) for v in mixed),
                 "--q", repr(qs[7]), "--interval", "0,pi/2", "--out", out("rm.csv")], 0, "curve-csv", out("rm.csv"),
                dict(arch_spec, q=qs[7], weights=mixed.tolist())),
            Job(["check", "tp", "--degree", "3", "--q", repr(qs[0]), "--interval", "0,pi/2"], 0, "check",
                spec=dict(name="tp")),
            Job(["check", "hull", "--polygon", arch_path, "--q", repr(qs[1]), "--interval", "0,pi/2"], 0, "check",
                spec=dict(name="hull")),
            Job(["check", "vdp", "--polygon", arch_path, "--q", repr(qs[2]), "--interval", "0,pi/2"], 0, "check",
                spec=dict(name="vdp")),
            Job(["check", "signs", "--polygon", scalar_path, "--q", repr(qs[3]), "--interval", "0,pi/2"], 0, "check",
                spec=dict(name="signs")),
            # documented failures: usage, invalid interval, singular denominator, violation
            Job(["basis", "--q", "2", "--interval", "0,pi/2"], 1, "error"),
            Job(["basis", "--degree", "3", "--q", "1", "--interval", "0,pi"], 2, "error"),
            Job(["rational", "--polygon", arch_path, "--weights", "1,-3,-3,1", "--q", repr(qs[4]),
                 "--interval", "0,pi/2"], 3, "error"),
            Job(["check", "tp", "--degree", "4", "--q", repr(float(rng.uniform(0.45, 0.55))),
                 "--interval", "0.3,1.5"], 4, "check", spec=dict(name="tp")),
        ]

    def _write(self, name, obj):
        path = os.path.join(self.rundir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def ops(self, traced=False):
        """Subprocess invocations; a traced run calls qtrig.cli.main in process."""
        ops = []
        for job in self.jobs:
            run = self._in_process(job.argv) if traced else self._subprocess(job.argv)
            ops.append(Op(job.kind, run, self._check(job), finish=self._finish(job)))
        return ops

    @staticmethod
    def _subprocess(argv):
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]

        def run():
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            return proc.returncode, proc.stdout, proc.stderr

        return run

    def _in_process(self, argv):
        from qtrig import cli

        def run():
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()

        return run

    @staticmethod
    def _finish(job):
        def finish(result):
            if isinstance(result, Raised) or job.out is None or result[0] != 0:
                return result, None
            with open(job.out, "rb") as fh:
                return result, fh.read()

        return finish

    @staticmethod
    def _check(job):
        def check(ref, out):
            result, data = out
            code, stdout, stderr = result
            if code != job.expect or "Traceback" in stderr:
                return False
            if job.kind == "error":
                return stderr.startswith("qtrig:")
            if job.kind == "check":
                lines = stdout.splitlines()
                payload = json.loads(lines[1])
                passed = job.expect == 0
                return lines[0] == f"{job.spec['name']}: {'PASS' if passed else 'FAIL'}" and \
                    payload["pass"] is passed
            text = data.decode("utf-8")
            if job.kind == "svg":
                root = ET.fromstring(text)
                lines = [el for el in root if el.tag.endswith("polyline")]
                coords = [float(v) for el in lines for pair in el.get("points").split() for v in pair.split(",")]
                return len(lines) == job.spec["polylines"] and all(math.isfinite(v) for v in coords)
            return _check_table(ref, job, text)

        return check

    def warmup(self):
        # one invocation, so interpreter and imports are warm in the OS cache
        self._subprocess(["basis", "--degree", "1", "--q", "1", "--interval", "0,pi/2", "--samples", "2"])()

    def close(self):
        import shutil

        shutil.rmtree(self.rundir, ignore_errors=True)


def _check_table(ref, job, text):
    """Check CSV/JSON basis and curve output rows against the reference."""
    s = job.spec
    if job.kind.endswith("csv"):
        lines = text.splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        xs, values = [r[0] for r in rows], [r[1:] for r in rows]
    else:
        records = json.loads(text)
        xs = [r["x"] for r in records]
        values = [r.get("values", r.get("point")) for r in records]
    if len(xs) != 129 or not _all_finite(values):
        return False
    for i in (0, 37, 64, 101, 128):
        x, got = xs[i], values[i]
        if job.kind.startswith("basis"):
            ok = ref.check_basis(got, s["n"], x, s["q"], s["a"], s["b"])
        elif job.kind.startswith("rbasis"):
            ok = ref.check_rational_basis(got, s["n"], x, s["q"], s["a"], s["b"], s["weights"])
        else:
            ok = ref.check_curve_point(got, s["points"], x, s["q"], s["a"], s["b"], s.get("weights"))
        if not ok:
            return False
    return True


WORKLOADS = {cls.name: cls for cls in (EvalSweep, PointQuery, TpCheck, CliBatch)}
