#!/usr/bin/env python3
"""Brute-force sweep of the shape machinery over a parameter grid.

Checks, for each (degree, q, quarter-period interval) combination:
  * total positivity of the quantum collocation matrix on interior points,
  * partition of unity and total positivity of the rational family,
  * the chord-distance profile of the arch demo curve as q grows.

Exits nonzero on the first violation.  This is a numerical experiment, not
a proof: it certifies the sampled grids only.
"""

import math
import sys

import numpy as np

from qtrig import (
    ControlPolygon,
    Interval,
    chord_distance_profile,
    collocation,
    rational_sample,
    total_positivity_check,
)

DEGREES = (1, 2, 3, 4)
QS = (0.5, 1.0, 1.5, 3.0)
INTERVALS = tuple(Interval.quarter(k) for k in (-1, 0, 1, 2))
GRID = 6


def interior_points(iv: Interval, count: int) -> list[float]:
    return [iv.a + iv.length * (j + 1) / (count + 1) for j in range(count)]


def main() -> int:
    failures = 0
    print(f"{'deg':>3} {'q':>5} {'interval':>22} {'family':>8} {'worst minor':>12}")
    for n in DEGREES:
        for q in QS:
            for iv in INTERVALS:
                pts = interior_points(iv, GRID)
                for family in ("quantum", "rational"):
                    weights = np.ones(n + 1) if family == "rational" else None
                    mat = collocation(family, n, q, iv, pts, weights=weights)
                    # the entries, not the matrix: every minor is checked, where the
                    # quarter-period route would decide by the theorem alone
                    rep = total_positivity_check(mat.entries)
                    tag = "ok" if rep.is_tp else "VIOLATION"
                    if not rep.is_tp:
                        failures += 1
                    print(f"{n:>3} {q:>5} [{iv.a:+.4f},{iv.b:+.4f}]    {family:>8} "
                          f"{rep.worst_scaled:>12.3e}  {tag}")

    arch = ControlPolygon([[0, 0], [1, 2], [2, 2], [3, 0]])
    iv = Interval(0.0, math.pi / 2)
    print("\nchord-distance profile of the arch curve:")
    last = math.inf
    for q in (1.0, 2.0, 3.0):
        samples = rational_sample(arch, np.ones(4), q, iv, 129)
        prof = chord_distance_profile(samples, arch.points[0], arch.points[-1])
        mono = "decreasing" if prof < last else "NOT DECREASING"
        if prof >= last:
            failures += 1
        print(f"  q={q:g}: max distance to chord = {prof:.6f}  ({mono})")
        last = prof

    if failures:
        print(f"\n{failures} violation(s)", file=sys.stderr)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
