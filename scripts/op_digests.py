"""Print one digest per benchmark workload and seed, to compare two commits' outputs bit for bit.

Runs one pass of the operations of each named perfbench workload at each
seed and prints "<workload> <seed> <sha1>", where the sha1 is taken over
that pass's op digests (perfbench/worker.py's `digest`, which tells two
outputs apart unless they are bit-identical).  The cli-batch children run
the qtrig command from this checkout's src/.  Run it on both commits and
compare with diff:

    python3 scripts/op_digests.py > a.txt
    python3 scripts/op_digests.py eval-sweep --seeds 1 7 > b.txt
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path[:0] = [SRC, str(ROOT / "perfbench")]
os.environ["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")

import workloads  # noqa: E402
from worker import digest  # noqa: E402


def pass_digest(workload, seed):
    """The sha1 over the op digests of one pass of workload at seed."""
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.WORKLOADS[workload](seed, os.path.join(tmp, "run"))
        try:
            sha = hashlib.sha1()
            for op in wl.ops():
                try:
                    out = op.run()
                except Exception as exc:  # a raising op has an output too, as in a timed pass
                    out = workloads.Raised(f"{type(exc).__name__}: {exc}")
                sha.update(digest(op.finish(out)))
            return sha.hexdigest()
        finally:
            wl.close()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*", help=f"any of {', '.join(sorted(workloads.WORKLOADS))} (default: all)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(workloads.WORKLOADS))
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}")
    for workload in args.workloads or sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            print(workload, seed, pass_digest(workload, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
