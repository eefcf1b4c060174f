"""Independent reference values for judging qtrig's outputs.

Everything here is computed in 30-digit mpmath and shares no code with the
package.  The basis is the product formula evaluated with prefix and suffix
products of the kernel; on [0, pi/2] it is also cross-checked against the
closed form q^(i^2 - n i) [n choose i]_q sin^i x cos^(n-i) x, whose
q-binomial comes from the q-factorial quotient rather than the Pascal
recurrence the package uses.

Import this module only after the timed region and after peak RSS has been
read: mpmath is not part of what is being measured.
"""

import math

import mpmath as mp

DPS = 30
# Tier-1 tolerances (tests/test_basis.py, tests/test_acceptance.py).
BASIS_TOL = 1e-12        # basis values, relative to max(1, max |B_k|)
RECURRENCE_TOL = 1e-11   # degree-raising recurrences, same scale
CURVE_TOL = 1e-11        # curve points, relative to max(1, polygon diameter)
MASS_LIMIT = 50.0        # above this, float64 evaluation is ill-conditioned:
                         # the test suite discards such cases, here they are
                         # checked for finiteness only
CERT_TOL = 1e-12         # certificate minimum |d(a, b; q^i)|, relative


def _kernel(x, y, q):
    return (q + 1) / 2 * mp.sin(y - x) + (q - 1) / 2 * mp.sin(y + x)


def _qbinom_row(n, q):
    """[n choose k]_q for k = 0..n as a q-factorial quotient."""
    if q == 1:
        return [mp.mpf(math.comb(n, k)) for k in range(n + 1)]
    row = [mp.mpf(1)]
    for k in range(1, n + 1):
        row.append(row[-1] * (1 - q ** (n - k + 1)) / (1 - q ** k))
    return row


def basis(n, x, q, a, b):
    """B_0..B_n at x on [a, b], as mpf values."""
    with mp.workdps(DPS):
        x, q, a, b = mp.mpf(x), mp.mpf(q), mp.mpf(a), mp.mpf(b)
        powers = [q ** i for i in range(n)]
        prefix = [mp.mpf(1)]
        suffix = [mp.mpf(1)]
        den = mp.mpf(1)
        for qi in powers:
            prefix.append(prefix[-1] * _kernel(a, x, qi))
            suffix.append(suffix[-1] * _kernel(x, b, qi))
            den *= _kernel(a, b, qi)
        row = _qbinom_row(n, q)
        return [row[k] * prefix[k] * suffix[n - k] / den for k in range(n + 1)]


def quarter_basis(n, x, q):
    """Closed form of the basis on [0, pi/2]."""
    with mp.workdps(DPS):
        x, q = mp.mpf(x), mp.mpf(q)
        row = _qbinom_row(n, q)
        s, c = mp.sin(x), mp.cos(x)
        return [q ** (i * i - n * i) * row[i] * s ** i * c ** (n - i) for i in range(n + 1)]


def min_abs_denominator(n, q, a, b):
    """min over i = 0..n of |d(a, b; q^i)|, the quantity certify_interval reports."""
    with mp.workdps(DPS):
        q, a, b = mp.mpf(q), mp.mpf(a), mp.mpf(b)
        return min(abs(_kernel(a, b, q ** i)) for i in range(n + 1))


def _finite(values):
    return all(math.isfinite(float(v)) for v in values)


def _within(got, want, tol, scale):
    return all(abs(float(g) - float(w)) <= tol * scale for g, w in zip(got, want))


def is_quarter_zero(a, b):
    return abs(a) <= 1e-12 and abs(b - math.pi / 2) <= 1e-12


def check_basis(got, n, x, q, a, b, tol=BASIS_TOL):
    """got: length n+1 sequence of floats for B_0..B_n at x."""
    got = [float(v) for v in got]
    if len(got) != n + 1 or not _finite(got):
        return False
    want = basis(n, x, q, a, b)
    if float(sum(abs(w) for w in want)) > MASS_LIMIT:
        return True
    scale = max(1.0, max(abs(float(w)) for w in want))
    if not _within(got, want, tol, scale):
        return False
    if is_quarter_zero(a, b):
        # The closed form holds on the exact [0, pi/2]; the float interval ends
        # 6e-17 short of it, which near b can move the basis by more than the
        # tolerance.  Cross-check only where the closed form describes the
        # float interval, i.e. where it agrees with the product formula.
        closed = quarter_basis(n, x, q)
        if _within(want, closed, tol, scale):
            return _within(got, closed, tol, scale)
    return True


def rational_basis(n, x, q, a, b, weights):
    """(R_0..R_n, conditioning sum|w_k B_k| / |sum w_k B_k|, basis mass)."""
    with mp.workdps(DPS):
        bk = basis(n, x, q, a, b)
        terms = [mp.mpf(float(w)) * v for w, v in zip(weights, bk)]
        den = sum(terms)
        cond = sum(abs(t) for t in terms) / abs(den) if den != 0 else mp.inf
        return [t / den for t in terms], float(cond), float(sum(abs(v) for v in bk))


def check_rational_basis(got, n, x, q, a, b, weights):
    got = [float(v) for v in got]
    if len(got) != n + 1 or not _finite(got):
        return False
    want, cond, mass = rational_basis(n, x, q, a, b, weights)
    if cond > MASS_LIMIT or mass > MASS_LIMIT:
        return True
    scale = max(1.0, max(abs(float(w)) for w in want))
    return _within(got, want, RECURRENCE_TOL, scale)


def _combine(coeffs, points):
    dim = len(points[0])
    return [sum(c * mp.mpf(float(p[j])) for c, p in zip(coeffs, points)) for j in range(dim)]


def diameter(points):
    return max(
        math.dist(p, r) for p in points for r in points
    ) if len(points) > 1 else 0.0


def check_curve_point(got, points, x, q, a, b, weights=None):
    """got: the curve point at x; points: control points as lists of floats."""
    got = [float(v) for v in got]
    if len(got) != len(points[0]) or not _finite(got):
        return False
    n = len(points) - 1
    with mp.workdps(DPS):
        if weights is None:
            coeffs = basis(n, x, q, a, b)
            if float(sum(abs(c) for c in coeffs)) > MASS_LIMIT:
                return True
        else:
            coeffs, cond, mass = rational_basis(n, x, q, a, b, weights)
            if cond > MASS_LIMIT or mass > MASS_LIMIT:
                return True
        want = _combine(coeffs, points)
    return _within(got, want, CURVE_TOL, max(1.0, diameter(points)))


def tableau_entry(variant, r, k, x, points, q, a, b):
    """Stage-r point k of the corner-cutting scheme, run step by step in mpmath.

    This is the recursion, not the closed form intermediate_explicit uses.
    """
    n = len(points) - 1
    with mp.workdps(DPS):
        x, q, a, b = mp.mpf(x), mp.mpf(q), mp.mpf(a), mp.mpf(b)
        row = [[mp.mpf(float(v)) for v in p] for p in points]
        for s in range(r):
            den = _kernel(a, b, q ** (n - s - 1))
            nxt = []
            for j in range(n - s):
                lower = _kernel(x, b, q ** (n - s - j - 1)) / den
                upper = _kernel(a, x, q ** j) / den
                if variant == "alg1":
                    cl, cu = q ** j * lower, upper
                else:
                    cl, cu = lower, q ** (n - s - j - 1) * upper
                nxt.append([cl * u + cu * v for u, v in zip(row[j], row[j + 1])])
            row = nxt
        return row[k]


def check_tableau_entry(got, variant, r, k, x, points, q, a, b):
    got = [float(v) for v in got]
    if len(got) != len(points[0]) or not _finite(got):
        return False
    n = len(points) - 1
    if float(sum(abs(v) for v in basis(n, x, q, a, b))) > MASS_LIMIT:
        return True
    want = tableau_entry(variant, r, k, x, points, q, a, b)
    return _within(got, want, CURVE_TOL, max(1.0, diameter(points)))


def check_certificate(valid, min_abs, n, q, a, b):
    want = float(min_abs_denominator(n, q, a, b))
    return bool(valid) == (want > 1e-12) and abs(float(min_abs) - want) <= CERT_TOL * max(1.0, want)


def minor(entries_mp, rows, cols):
    with mp.workdps(DPS):
        return mp.det(mp.matrix([[entries_mp[i][j] for j in cols] for i in rows]))


def collocation_entries(family, n, q, a, b, points, weights=None):
    """entries[i][j] = phi_i(points[j]) for the three collocation families."""
    cols = []
    for x in points:
        if family == "quantum":
            cols.append(basis(n, x, q, a, b))
        elif family == "classical":
            cols.append(basis(n, x, 1.0, a, b))
        else:
            cols.append(rational_basis(n, x, q, a, b, weights)[0])
    return [[cols[j][i] for j in range(len(points))] for i in range(n + 1)]


def check_negative_witness(witness, family, n, q, a, b, points, weights, tolerance):
    """True when the reported witness minor is negative beyond tolerance at 30 digits."""
    if witness is None:
        return False
    rows, cols = witness
    entries = collocation_entries(family, n, q, a, b, points, weights)
    det = minor(entries, rows, cols)
    with mp.workdps(DPS):
        scale = mp.mpf(1)
        for i in rows:
            scale *= max(abs(entries[i][j]) for j in cols)
        return float(det / scale) < -tolerance
