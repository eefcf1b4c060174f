# The tier-1 CI job: the test suite, the benchmark passes and the
# console-script checks of the installed `qtrig` command.
#
# Run from the root of a checkout after installing numpy, pytest,
# hypothesis and mpmath and then `pip install -e . --no-build-isolation`:
#
#     bash -eo pipefail scripts/ci.sh
#
# Every command must end with the exit code and payload named beside it.

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

# Benchmark passes agree and match the reference.
# eval-sweep and point-query also at a second seed, and eval-sweep at
# the held-out seed 7: the product route, the tableau sweeps and the
# single-x routes meet the reference on more than one input set
for run in eval-sweep:1 eval-sweep:2 eval-sweep:7 point-query:1 point-query:2 tp-check:1 cli-batch:1; do
  last=$(python3 perfbench/run.py --workload "${run%:*}" --seed "${run#*:}" --seconds 3 --trace 0 | tail -n 1)
  echo "$last"
  case "$last" in *'"correct": true'*) ;; *) exit 1 ;; esac
done

# Traced benchmark passes match the untraced ones.  They run after the loop
# above: a traced run saves its spans into .perfbench/, which only the
# untraced runs' default --out creates
for workload in eval-sweep point-query tp-check cli-batch; do
  last=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace 1 | tail -n 1)
  echo "$last"
  case "$last" in *'"correct": true'*) ;; *) exit 1 ;; esac
done

# Console script: the interval certificate comes before the q-binomial row,
# so both invalid intervals exit 2: the first though row 200 at q = 3
# overflows, the second without building its O(n^2) row of degree 6000
code=0
qtrig basis --degree 200 --q 3 --interval 0,pi || code=$?
test "$code" -eq 2
code=0
timeout 20 qtrig basis --degree 6000 --q 0.5 --interval 0,pi/2 --samples 2 || code=$?
test "$code" -eq 2

# Console script: a basis table whose running products overflow exits 1
# with one error line, no numpy warning and no table
code=0
out=$(qtrig basis --degree 34 --q 4 --interval -1,0.2 --samples 11 2>&1) || code=$?
test "$code" -eq 1
test "$out" = "qtrig: error: degree 34, q=4.0: the basis leaves float64 at x = -0.88"

# Console script: the first command takes the quarter-period route; the second, off the
# quarter grid, takes the exhaustive one and must exit 4 (not TP); the
# rational pair runs collocation()'s route decision on weights: all
# positive takes the structural route, one negative the exhaustive one
qtrig check tp --degree 9 --q 1.5 --interval 0,pi/2 --grid 12
code=0
qtrig check tp --degree 4 --q 0.5 --interval 0.3,1.5 || code=$?
test "$code" -eq 4
qtrig check tp --degree 4 --q 2 --interval 0,pi/2 --weights 1,2,1,2,1 \
  | grep -F '"route": "quarter-period Vandermonde"'
code=0
out=$(qtrig check tp --degree 4 --q 2 --interval 0,pi/2 --weights 1,2,-0.01,2,1) || code=$?
test "$code" -eq 4
echo "$out" | grep -F '"route": "exhaustive"'

# 3 x 100 collocations off the quarter grid, exhaustive: C(100, 2) and
# C(100, 3) column sets are more than one stack holds, so the check takes
# them in runs of column sets, unranked at order 3; not TP at q = 0.5, TP at
# q = 1.5
code=0
out=$(qtrig check tp --degree 2 --q 0.5 --interval 0.3,1.5 --grid 100) || code=$?
test "$code" -eq 4
echo "$out" | grep -F '"minors_checked": 176850'
echo "$out" | grep -F '"route": "exhaustive"'
out=$(qtrig check tp --degree 2 --q 1.5 --interval 0.3,1.4 --grid 100)
echo "$out" | grep -F '"minors_checked": 176850'
echo "$out" | grep -F '"route": "exhaustive"'
