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
# eval-sweep, point-query and tp-check also at a second seed and at the
# held-out seed 7: the product route, the tableau sweeps, the single-x
# routes (the recurrences among them) and the collocations of a few points,
# taken one point at a time, meet the reference on more than one input set
for run in eval-sweep:1 eval-sweep:2 eval-sweep:7 point-query:1 point-query:2 point-query:7 \
    tp-check:1 tp-check:2 tp-check:7 cli-batch:1; do
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
# positive takes the structural route, one negative the exhaustive one,
# whose count and worst minor, bit for bit, pin the mixed-weight rows
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
echo "$out" | grep -F '"minors_checked": 461'
echo "$out" | grep -F '"worst_minor": -0.0005991242355416167'

# Console script: the default 6 x 6 off-grid check takes all its orders in
# one batch from the tiles kept for its shape; its count and its worst
# minor, bit for bit, are those of the check that took them order by order
code=0
out=$(qtrig check tp --degree 5 --q 0.5 --interval 0.3,1.5) || code=$?
test "$code" -eq 4
echo "$out" | grep -F '"minors_checked": 923'
echo "$out" | grep -F '"worst_minor": -93.90948584930146'

# Console script: shapes with an order over one tile take a batch per tile,
# a path no benchmark workload runs.  7 x 7 is the first such shape and
# 11 x 6 (the default --grid 6 at degree 10) a taller one; both pinned bit
# for bit
code=0
out=$(qtrig check tp --degree 6 --q 0.5 --interval 0.3,1.5 --grid 7) || code=$?
test "$code" -eq 4
echo "$out" | grep -F '"minors_checked": 3431'
echo "$out" | grep -F '"worst_minor": -8.934413289879672'
code=0
out=$(qtrig check tp --degree 10 --q 0.5 --interval 0.3,1.5) || code=$?
test "$code" -eq 4
echo "$out" | grep -F '"minors_checked": 12375'
echo "$out" | grep -F '"worst_minor": -958070874486.2351'

# Console script: the route is read before the minor cap.  A 21 x 30
# quarter-period collocation, far over the cap, passes by its route without
# a minor checked; off the quarter grid a 10 x 30 one is collocated and then
# refused by the exhaustive route's cap
out=$(timeout 5 qtrig check tp --degree 20 --q 1.5 --interval 0,pi/2 --grid 30)
echo "$out" | grep -F '"route": "quarter-period Vandermonde"'
echo "$out" | grep -F '"minors_checked": 0'
code=0
out=$(qtrig check tp --degree 9 --q 1.5 --interval 0.3,1.4 --grid 30 2>&1) || code=$?
test "$code" -eq 1
test "$out" = "qtrig: error: matrix has 847660527 square submatrices, refusing to enumerate more than 1000000"

# Console script: CSV takes exactly one --q, refused before any table is
# built, so --q 1 does not meet its invalid interval on [0, pi] first
code=0
out=$(qtrig basis --degree 3 --q 1 --q 2 --interval 0,pi 2>&1) || code=$?
test "$code" -eq 1
test "$out" = "qtrig: error: csv output supports exactly one --q, got 2"

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

# A 2 x 200 collocation off the quarter grid, exhaustive and TP: its
# C(200, 2) = 19,900 order-2 column sets take five tiles, unranked, a path
# no benchmark workload runs; count and worst minor pinned bit for bit
out=$(qtrig check tp --degree 1 --q 0.5 --interval 0.3,1.5 --grid 200)
echo "$out" | grep -F '"minors_checked": 20300'
echo "$out" | grep -F '"worst_minor": 0.006405432860407831'

# Console script: 1000-point alg1 and alg2 sweeps of a 31-point planar
# polygon, the degree that dominates eval-sweep's tableau sweeps, exit 0
# with a header and 1000 data rows each
polygon=$(mktemp)
python3 -c 'import json, math
print(json.dumps({"points": [[math.cos(k * math.pi / 30), (1 + k % 3) * math.sin(k * math.pi / 30)] for k in range(31)]}))' > "$polygon"
for method in alg1 alg2; do
  rows=$(qtrig curve --polygon "$polygon" --q 1.5 --interval 0,pi/2 --method "$method" --samples 1000 | tail -n +2 | wc -l)
  test "$rows" -eq 1000
done
rm -f "$polygon"
