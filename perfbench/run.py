"""qtrig benchmark: one command, one workload, every metric by name with its unit.

    python3 perfbench/run.py --workload eval-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a qtrig checkout; the package is taken from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.  The
full result, with provenance and details, is appended to --out as one JSON
line; perfbench/compare.py reads two such files.

Set-up time is measured here, in the parent: five fresh worker processes
are timed from spawn to their "ready" line (imports, input generation,
warm-up) and the median is reported.  Like every time the benchmark
reports, it is in calibrated seconds (see calibration.py).
Workers run with one BLAS/OpenMP thread, and this process and all it starts
are pinned to one of the allowed cores.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 5
WORKER_SLACK_S = 150        # beyond --seconds, for set-up, checks and tracing
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_worker(args, rundir, env, probe):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--rundir", str(rundir)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready: {line!r}")
    return proc, ready


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def provenance(args):
    info = {"seed": args.seed, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "blas_threads": {v: "1" for v in THREAD_VARS},
            "git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                capture_output=True, text=True)
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
            info["git_dirty"] = bool(status.stdout.strip())
    return info


def measure(args):
    env = worker_env()
    scratch = ROOT / ".perfbench"
    rundir = scratch / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    # compile and cache the package once, untimed, so no set-up sample pays for it
    subprocess.run([sys.executable, "-c", "import qtrig, qtrig.cli"], env=env, cwd=ROOT, check=True, timeout=120)
    raw, setups = [], []
    for i in range(SETUP_PROBES):
        # calibration loops run only while no worker runs, so they never compete
        before = calibration.loop_seconds()
        proc, ready = start_worker(args, f"{rundir}-probe{i}", env, probe=True)
        finish(proc, 60)
        raw.append(ready)
        setups.append(ready * calibration.factor(before, calibration.loop_seconds()))
    proc, ready = start_worker(args, rundir, env, probe=False)
    result = json.loads(finish(proc, args.seconds + WORKER_SLACK_S).strip().splitlines()[-1])
    result["provenance"].update(provenance(args))
    result["detail"]["raw_setup_s"] = raw + [ready]
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".perfbench/results.jsonl", help="file the full result is appended to")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qtrig" / "__init__.py").is_file():
        print(f"perfbench: no qtrig sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    # One core for this process and every process it starts: the calibration
    # loops then measure the speed of the core the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        result = measure(args)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: worker did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    final = {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"],
             "metrics": metrics}

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**final, "provenance": result["provenance"], "detail": result["detail"]}) + "\n")

    print(f"{args.workload}  seed {args.seed}  {args.seconds} s  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    for line in result["detail"].get("failures", []):
        print(f"  FAILED {line}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
