"""Compare two sets of benchmark results, one row per workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py --summary RESULTS.jsonl

Each file holds the result lines run.py appends to its --out file; give
each side several runs with different seeds.  For every workload, each
metric of BENCHMARK.json shows the ratio of the new median to the base
median, then the median and quartiles (statistics.quantiles, n=4) of each
side, and a verdict:

  unresolved  either side's spread (q3 - q1) / median exceeds the metric's
              bound, unless every new run is better than every base run
  worse       the new median is worse than the base by more than the bound
  better      the new median is better by more than the base's own spread
  same        otherwise

Per-layer metrics (from --trace 1 runs) have no bound and show ratios only.
--summary prints the medians and quartiles of one file as JSON, the form
kept in perfbench/trajectory.json.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{trace flag: {workload: {metric: [values]}}}."""
    runs = {0: defaultdict(lambda: defaultdict(list)), 1: defaultdict(lambda: defaultdict(list))}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            prov = rec["provenance"]
            for name, m in rec["metrics"].items():
                runs[prov["trace"]][prov["workload"]][name].append(m["value"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(metric, base, new):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b_med, n_med = quartiles(base)[1], quartiles(new)[1]
    better_all = max(new) < min(base) if lower else min(new) > max(base)
    if (spread(base) > bound or spread(new) > bound) and not better_all:
        return "unresolved"
    change = (n_med - b_med) / abs(b_med) * (1 if lower else -1)   # > 0 means worse
    if change > bound:
        return "worse"
    if -change > spread(base):
        return "better"
    return "same"


def cell(name, base, new, metric=None):
    b, n = quartiles(base), quartiles(new)
    ratio = n[1] / b[1] if b[1] else float("nan")
    tag = f" {verdict(metric, base, new)}" if metric else ""
    return (f"{name} {ratio:.3f}x{tag} (base {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}] n={len(base)}; "
            f"new {n[1]:.4g} [{n[0]:.4g}, {n[2]:.4g}] n={len(new)})")


def compare(base_path, new_path, spec):
    base, new = load(base_path), load(new_path)
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in [w["name"] for w in spec["workloads"]]:
            b, n = base[trace].get(workload), new[trace].get(workload)
            if not b or not n:
                continue
            cells = [cell(m["name"], b[m["name"]], n[m["name"]], m if trace == 0 else None)
                     for m in metrics if b.get(m["name"]) and n.get(m["name"])]
            print(f"{workload} [{'per-layer' if trace else 'end-to-end'}]: " + " | ".join(cells))


def summary(path, spec):
    runs = load(path)
    out = {}
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload, values in runs[trace].items():
            for m in metrics:
                if values.get(m["name"]):
                    q1, med, q3 = quartiles(values[m["name"]])
                    out.setdefault(workload, {})[m["name"]] = {
                        "median": med, "q1": q1, "q3": q3, "runs": len(values[m["name"]]), "unit": m["unit"]}
    print(json.dumps(out, indent=1, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+", help="BASE NEW, or one file with --summary")
    ap.add_argument("--summary", action="store_true")
    args = ap.parse_args(argv)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.summary and len(args.files) == 1:
        summary(args.files[0], spec)
    elif not args.summary and len(args.files) == 2:
        compare(args.files[0], args.files[1], spec)
    else:
        ap.error("give BASE NEW, or one file with --summary")
    return 0


if __name__ == "__main__":
    sys.exit(main())
