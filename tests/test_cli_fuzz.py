"""Property: every qtrig command line ends in a documented exit code.

Hypothesis draws argv for each subcommand, with degrees 0-12 and three
out-of-range cases, q values, valid and invalid intervals, mixed-sign
weights and polygon files of 1-3 dims, malformed ones included.  Each flag
is drawn only for the commands that read it, and one draw in eight appends
a flag the command does not read.  Whatever the input, the exit code is one
of 0-4, stderr holds no traceback and the output holds no nan or inf; an
unread flag exits 1 with no output.

A second property draws only well-posed checks, the setting of the paper's
shape claims: a quarter period, q in [0.5, 3], positive weights, degree 1-6
and a generic polygon at scale 1.  There every check must exit 0 and PASS.
"""

import json
import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qtrig.cli import main

# (degree, q) pairs whose products or powers leave float64 on [0, pi/2]
FAR_CASES = [(40, 3.0), (150, 0.9), (700, 3.0)]
INTERVALS = ["0,pi/2", "pi/8,pi/4", "pi,3pi/2", "-pi/2,0", "0.3,1.4", "-1.2,0.5",
             "0,pi", "0,3pi/2", "1,1", "2,1", "0,pi/0", "0", "a,b", "0,inf"]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

reals = st.floats(min_value=-4.0, max_value=4.0)
weight = st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                   st.sampled_from([0.0, 1e-300, 1.7e308]))
MALFORMED = [
    '{"points": [[0, 0],\n [1, ]]}', "[]", "{}", '{"points": []}', '{"points": 3}',
    '{"points": [[0, 1], [2]]}', '{"points": [["a"], ["b"]]}', '{"points": [[NaN], [1]]}',
    '{"points": [[1e400], [1]]}', '{"points": [[[0]]]}', '{"points": [null]}',
    '{"points": [[0], [1]], "weights": {"w": 1}}', '{"points": [[0], [1]], "weights": [1]}',
    '{"points": [[0], [1]], "weights": "ab"}', '{"points": [[0], [1]], "weights": [1, NaN]}',
    # ints beyond the float range, which json reads exactly
    '{"points": [[1%s], [1]]}' % ("0" * 400), '{"points": [[0], [1]], "weights": [1, 1%s]}' % ("0" * 400),
]


@st.composite
def degree_and_q(draw, max_degree=12):
    if max_degree == 12 and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(FAR_CASES))
    q = draw(st.one_of(reals, st.sampled_from([0.0, 1.0, 0.5, 2.0, 3.0])))
    return draw(st.integers(0, max_degree)), q


def _weights(draw, n):
    count = n + 1 if draw(st.integers(0, 7)) else draw(st.integers(1, 4))
    return draw(st.lists(weight, min_size=count, max_size=count))


def _polygon_text(draw, n, dim):
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(MALFORMED))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    scale = draw(st.sampled_from([0.0, 1.0, 10.0, 1e300]))
    data = {"points": (scale * rng.uniform(-1.0, 1.0, size=(n + 1, dim))).tolist()}
    if draw(st.booleans()):
        data["weights"] = _weights(draw, n)
    return json.dumps(data)


# the flags each command reads besides --q, --interval, --out and --digits
READS = {
    "basis": ("--samples", "--degree", "--format"),
    "curve": ("--samples", "--polygon", "--method", "--format"),
    "rational": ("--samples", "--polygon", "--weights", "--format"),
    "rational --basis": ("--samples", "--degree", "--weights", "--format"),
    "check tp": ("--degree", "--weights", "--grid", "--tolerance"),
    "check vdp": ("--samples", "--polygon", "--weights", "--grid"),
    "check hull": ("--samples", "--polygon", "--weights"),
    "check signs": ("--samples", "--polygon"),
}
FLAG_VALUES = {"--samples": "5", "--degree": "3", "--polygon": "poly.json", "--weights": "1,1",
               "--grid": "6", "--tolerance": "1e-6", "--method": "alg1", "--format": "csv"}


@st.composite
def command_lines(draw, directory):
    """(argv, polygon file text or None, whether argv holds a flag the command does not read)."""
    command = draw(st.sampled_from(list(READS)))
    reads = READS[command]
    n, q = draw(degree_and_q(6 if command == "check tp" else 12))
    argv = command.split() + ["--q", repr(q), "--interval", draw(st.sampled_from(INTERVALS))]
    if "--samples" in reads and draw(st.booleans()):
        argv += ["--samples", str(draw(st.integers(-1, 12)))]
    if "--degree" in reads:
        argv += ["--degree", str(n)]
    text = None
    if "--polygon" in reads:
        dim = {"check signs": 1, "check vdp": 2, "check hull": 2}.get(command)
        if dim is None or draw(st.integers(0, 7)) == 0:  # any dim, sometimes a wrong one
            dim = draw(st.integers(1, 3))
        text = _polygon_text(draw, n, dim)
        argv += ["--polygon", str(directory / "poly.json")]
    if "--weights" in reads and draw(st.booleans()):
        argv += ["--weights", ",".join(map(repr, _weights(draw, n)))]
    if "--method" in reads:
        argv += ["--method", draw(st.sampled_from(["direct", "alg1", "alg2"]))]
    if command == "check tp":
        argv += ["--grid", str(draw(st.integers(1, 6)))]
    if command == "check vdp" and draw(st.booleans()):
        argv += ["--grid", str(draw(st.integers(-1, 6)))]
    if "--tolerance" in reads and draw(st.booleans()):
        argv += ["--tolerance", draw(st.sampled_from(["0", "1e-12", "1e-9", "1e-6",
                                                      "nan", "inf", "-1e-9"]))]
    if "--format" in reads:
        argv += ["--format", draw(st.sampled_from(["csv", "json", "svg"]))]
    unread = draw(st.integers(0, 7)) == 0
    if unread:
        flag = draw(st.sampled_from([f for f in FLAG_VALUES if f not in reads]))
        argv += [flag, FLAG_VALUES[flag]]
    return argv, text, unread


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_ends_in_a_documented_exit_code(directory, data):
    argv, text, unread = data.draw(command_lines(directory), label="command line")
    if text is not None:
        (directory / "poly.json").write_text(text)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert not NON_FINITE.search(out.getvalue())
    if code == 0:
        assert out.getvalue()
    if unread:
        assert code == 1 and not out.getvalue()


QUARTERS = ["-pi/2,0", "0,pi/2", "pi/2,pi", "pi,3pi/2"]


@st.composite
def well_posed_checks(draw, directory):
    """(argv, polygon file text or None) of a check whose property the paper proves."""
    command = draw(st.sampled_from(["tp", "hull", "vdp", "signs"]))
    n = draw(st.integers(1, 6))
    q = draw(st.floats(min_value=0.5, max_value=3.0))
    argv = ["check", command, "--q", repr(q), "--interval", draw(st.sampled_from(QUARTERS))]
    weights = draw(st.lists(st.floats(min_value=0.25, max_value=4.0), min_size=n + 1, max_size=n + 1))
    if command != "signs" and draw(st.booleans()):
        argv += ["--weights", ",".join(map(repr, weights))]
    if command == "tp":
        return argv + ["--degree", str(n), "--grid", str(draw(st.integers(1, 6)))], None
    argv += ["--samples", str(draw(st.integers(16, 256))), "--polygon", str(directory / "poly.json")]
    if command == "vdp":
        argv += ["--grid", str(draw(st.integers(1, 10)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    points = rng.uniform(-1.0, 1.0, size=(n + 1, 1 if command == "signs" else 2))
    return argv, json.dumps({"points": points.tolist()})


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_well_posed_checks_pass(directory, data):
    argv, text = data.draw(well_posed_checks(directory), label="command line")
    if text is not None:
        (directory / "poly.json").write_text(text)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 0, (out.getvalue(), err.getvalue())
    assert out.getvalue().split("\n")[0].endswith(": PASS")
