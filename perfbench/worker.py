"""One measurement process: set up a workload, time its passes, then check outputs.

Started by run.py in a fresh interpreter with qtrig's sources on PYTHONPATH.
It prints "ready" once set-up (imports, input generation, warm-up) is done,
so the parent can time set-up from process start; with --probe it exits
there.  Otherwise it runs passes of the workload's operations in a closed
loop (one caller, the next call after the previous returns) for --seconds,
reads peak RSS, and only then imports the mpmath reference and checks the
outputs.  The result is one JSON line on stdout.

With --trace 1 it runs untraced passes first, then the same passes with
span tracing installed, and reports per-layer metrics instead.
"""

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibration
import workloads
from calibration import calibrated

MIN_PASSES = 3
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)
UNTRACED_SHARE = 0.4        # of --seconds, in a traced run
START_PROBES = 5            # fresh interpreters per import timing in a traced run
# Peak RSS is read after this many passes: later passes repeat the same
# inputs, and only the benchmark's own latency log would keep growing.
RSS_AFTER_PASSES = 2


def _canon(obj):
    """A value that compares equal exactly when two outputs are bit-identical."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(v) for v in obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(_canon(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, float):
        return obj.hex()
    return obj


def digest(obj):
    return hashlib.sha1(repr(_canon(obj)).encode()).digest()


def tail_percentile(count):
    """Highest candidate percentile with at least ten operations beyond it."""
    return next(p for p in TAIL_CANDIDATES if count * (1.0 - p / 100.0) >= 10.0)


class Passes:
    """Closed-loop passes over one op list; keeps the first outputs for checking.

    Latencies are kept raw and in calibrated seconds (see calibration.py).
    """

    def __init__(self, rss_children=False):
        self.rss_children = rss_children
        self.rss_mb = None
        self.walls = []
        self.raw = []                  # per pass, raw seconds per op
        self.latencies = []            # per pass, calibrated seconds per op
        self.clock = None
        self.first = None              # finished outputs of the first pass
        self.digests = None
        self.mismatches = 0
        self.ops = None

    def run(self, ops, seconds, min_passes):
        begin = time.perf_counter()
        clock = self.clock = calibration.Clock()
        while True:
            outs, lat, cal = [], [], []
            t0 = time.perf_counter()
            for op in ops:
                cal.append(clock.tick())
                s = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # a raising op is a failed op, not a crash
                    out = workloads.Raised(f"{type(exc).__name__}: {exc}")
                lat.append(time.perf_counter() - s)
                outs.append(out)
            clock.sample()
            self.walls.append(time.perf_counter() - t0)
            self.raw.append(lat)
            self.latencies.append([t * clock.factor(i) for t, i in zip(lat, cal)])
            if len(self.walls) <= RSS_AFTER_PASSES:
                self.rss_mb = peak_rss_mb(self.rss_children)
            outs = [op.finish(out) for op, out in zip(ops, outs)]
            digests = [digest(out) for out in outs]
            if self.first is None:
                self.first, self.digests, self.ops = outs, digests, ops
            else:
                self.mismatches += sum(d != e for d, e in zip(digests, self.digests))
            elapsed = time.perf_counter() - begin
            if len(self.walls) >= min_passes and elapsed + self.walls[-1] > seconds:
                return

    @property
    def count(self):
        return sum(len(lat) for lat in self.latencies)


def check_outputs(passes):
    """Descriptions of the first-pass outputs that fail their reference check."""
    import reference

    bad = []
    for i, (op, out) in enumerate(zip(passes.ops, passes.first)):
        try:
            ok = not isinstance(out, workloads.Raised) and op.check(reference, out)
        except Exception as exc:  # a malformed output is a failed op
            ok = False
            out = workloads.Raised(f"{type(exc).__name__}: {exc}")
        if not ok:
            bad.append(f"op {i} ({op.kind}): {out.error if isinstance(out, workloads.Raised) else 'reference check failed'}")
    return bad


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def pass_seconds(latencies):
    """One pass over the fixed inputs, as the sum of each op's median across passes."""
    return float(np.median(np.array(latencies), axis=0).sum())


def end_to_end(passes):
    lat_ms = np.array(passes.latencies).ravel() * 1e3
    pct = tail_percentile(len(passes.ops) * MIN_PASSES)
    metrics = {
        "wall_s": pass_seconds(passes.latencies),
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_tail_ms": float(np.percentile(lat_ms, pct)),
    }
    detail = {
        "passes": len(passes.walls),
        "ops_per_pass": len(passes.ops),
        "tail_percentile": pct,
        "ops_beyond_tail": int(np.sum(lat_ms > metrics["op_tail_ms"])),
        "raw_wall_s": pass_seconds(passes.raw),
        "raw_pass_walls_s": passes.walls,
        "calibration_s": statistics.median(passes.clock.samples),
    }
    return metrics, detail


def fresh_start_times():
    """Median calibrated seconds for a bare interpreter and for one that imports qtrig.cli."""
    bare, imported = [], []
    for _ in range(START_PROBES):
        for cmd, sink in (("pass", bare), ("import qtrig.cli", imported)):
            run = lambda: subprocess.run([sys.executable, "-c", cmd], check=True, timeout=60)  # noqa: E731
            sink.append(calibrated(run))
    return statistics.median(bare), statistics.median(imported) - statistics.median(bare)


def route_throughputs(ops, latencies):
    """Calibrated points per second by evaluation route; only eval-sweep ops carry points."""
    routes = {"direct": ("direct", "table"), "tableau": ("tableau",), "rational": ("rational",)}
    out = {}
    for route, tag in [(r, "") for r in routes] + [("direct", "_n30"), ("tableau", "_n30")]:
        pairs = [(op.points, t) for lat in latencies for op, t in zip(ops, lat)
                 if op.points and op.kind in routes[route] and (not tag or op.degree == 30)]
        secs = sum(t for _, t in pairs)
        out[f"route.{route}_points_per_s{tag}"] = sum(p for p, _ in pairs) / secs if secs else 0.0
    return out


def per_layer(tracer, traced, untraced, workload):
    import trace

    # span times are raw; one factor per phase puts them in calibrated seconds
    scale = calibration.REFERENCE_S / statistics.median(traced.clock.samples)
    m = tracer.layer_metrics(len(traced.walls))
    calls, counters = m["calls"], m["counters"]
    self_s = {k: v * scale for k, v in m["self_s"].items()}
    c = lambda name: calls.get(name, 0.0)  # noqa: E731
    s = lambda *names: sum(self_s.get(n, 0.0) for n in names)  # noqa: E731
    traced_wall = pass_seconds(traced.latencies)
    untraced_wall = pass_seconds(untraced.latencies)
    traced_op_s = statistics.fmean(sum(lat) for lat in traced.raw)   # raw, calibration excluded
    start_s, import_s = fresh_start_times()
    metrics = {
        "qcalc.q_binomial_row.calls": c("qcalc.q_binomial_row"),
        "qcalc.q_binomial_row.self_s": s("qcalc.q_binomial_row"),
        "qcalc.q_powers.calls": c("qcalc.q_powers"),
        "qcalc.q_powers.self_s": s("qcalc.q_powers"),
        "kernel.certify_interval.calls": c("kernel.certify_interval"),
        "kernel.certify_interval.self_s": s("kernel.certify_interval"),
        "kernel.kernel_tables.calls": c("kernel.kernel_tables"),
        "kernel.kernel_tables.self_s": s("kernel.kernel_tables"),
        "kernel.kernel_evals": counters.get("kernel.kernel_evals", 0.0),
        "basis.basis_all_direct.calls": c("basis.basis_all_direct"),
        "basis.basis_all_direct.self_s": s("basis.basis_all_direct"),
        "basis.recurrence.self_s": s("basis.basis_all_recurrence1", "basis.basis_all_recurrence2"),
        "curve.sample_curve.self_s": s("curve.sample_curve"),
        "curve.tableau.calls": c("curve.evaluate_alg1") + c("curve.evaluate_alg2"),
        "curve.tableau.self_s": s("curve.evaluate_alg1", "curve.evaluate_alg2"),
        "curve.evaluate_direct.self_s": s("curve.evaluate_direct"),
        "curve.intermediate_explicit.self_s": s("curve.intermediate_explicit"),
        "curve.points": c("curve.evaluate_direct") + c("curve.evaluate_alg1") + c("curve.evaluate_alg2"),
        "rational.rational_sample.self_s": s("rational.rational_sample"),
        "rational.rational_basis_all.calls": c("rational.rational_basis_all"),
        "rational.rational_basis_all.self_s": s("rational.rational_basis_all"),
        "rational.denominator_certificate.self_s": s("rational.denominator_certificate"),
        "rational.denominator_evals": m["denominator_evals"],
        "shape.collocation.self_s": s("shape.collocation"),
        "shape.total_positivity_check.self_s": s("shape.total_positivity_check"),
        "shape.minors_checked": counters.get("shape.minors_checked", 0.0),
        "shape.minors_total": counters.get("shape.minors_total", 0.0),
        "shape.point_in_hull.calls": c("shape.point_in_hull"),
        "shape.point_in_hull.self_s": s("shape.point_in_hull"),
        "shape.convex_hull.self_s": s("shape.convex_hull"),
        "shape.sign_changes.self_s": s("shape.sign_changes_seq", "shape.sign_changes_function"),
        "export.render_csv.self_s": s("export.render_csv"),
        "export.render_json_records.self_s": s("export.render_json_records"),
        "export.render_svg.self_s": s("export.render_svg"),
        "export.read_polygon_json.self_s": s("export.read_polygon_json"),
        "export.bytes_out": counters.get("export.bytes_out", 0.0),
        "cli.interpreter_start_s": start_s,
        "cli.import_s": import_s,
        "cli.main.self_s": s("cli.main"),
        "bench.self_s": (traced_op_s - m["root_s"]) * scale,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.spans": m["spans"],
    }
    total = metrics["shape.minors_total"]
    metrics["shape.minors_checked_frac"] = metrics["shape.minors_checked"] / total if total else 0.0
    for layer in trace.LAYERS:
        metrics[f"{layer}.self_s"] = m["layer_self_s"].get(layer, 0.0) * scale
    metrics.update(route_throughputs(untraced.ops, untraced.latencies))
    # exact accounting in raw time: layer self times plus the benchmark's own
    # time add up to the time spent inside timed ops
    shares = {k: metrics[f"{k}.self_s"] / (traced_op_s * scale) for k in (*trace.LAYERS, "bench")}
    detail = {
        "untraced_passes": len(untraced.walls),
        "traced_passes": len(traced.walls),
        "ops_per_pass": len(traced.ops),
        "self_share_of_op_time": shares,
        "top_self_s": sorted(self_s.items(), key=lambda kv: -kv[1])[:8],
    }
    if workload == "cli-batch":
        per_invocation = {k: v * scale / len(traced.ops) for k, v in m["layer_self_s"].items()}
        per_invocation.update({"cli.interpreter_start_s": start_s, "cli.import_s": import_s})
        detail["per_invocation_s"] = per_invocation
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--probe", action="store_true", help="exit once set-up is done")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.rundir)
    try:
        wl.warmup()
        print("ready", flush=True)
        if args.probe:
            return 0
        if args.trace:
            result = traced_run(wl, args)
        else:
            result = plain_run(wl, args)
    finally:
        wl.close()
    result["provenance"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    print(json.dumps(result), flush=True)
    return 0


def plain_run(wl, args):
    passes = Passes(rss_children=wl.name == "cli-batch")
    passes.run(wl.ops(), args.seconds, MIN_PASSES)
    metrics, detail = end_to_end(passes)
    metrics["peak_rss_mb"] = passes.rss_mb
    bad = check_outputs(passes)
    detail["failures"] = bad[:20]
    failed = len(bad) * len(passes.walls) + passes.mismatches
    return {"attempted": passes.count, "failed": failed, "metrics": metrics, "detail": detail}


def traced_run(wl, args):
    import trace

    untraced = Passes()
    untraced.run(wl.ops(traced=True), args.seconds * UNTRACED_SHARE, 1)
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = Passes()
        traced.run(wl.ops(traced=True), args.seconds * (1.0 - UNTRACED_SHARE), 1)
    finally:
        tracer.uninstall()
    spans_path = Path(args.rundir).parent / f"spans-{wl.name}-{args.seed}.npz"
    tracer.save(spans_path)
    metrics, detail = per_layer(tracer, traced, untraced, wl.name)
    # traced outputs must equal the untraced ones bit for bit
    mismatches = untraced.mismatches + traced.mismatches + sum(
        d != e for d, e in zip(traced.digests, untraced.digests)) * len(traced.walls)
    bad = check_outputs(traced)
    detail["failures"] = bad[:20]
    detail["spans_file"] = str(spans_path)
    failed = len(bad) * (len(traced.walls) + len(untraced.walls)) + mismatches
    return {"attempted": traced.count + untraced.count, "failed": failed, "metrics": metrics, "detail": detail}


if __name__ == "__main__":
    sys.exit(main())
