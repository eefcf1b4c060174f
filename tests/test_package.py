import inspect
import os
import subprocess
import sys
from pathlib import Path

import qtrig
from qtrig import basis, curve, errors, kernel, qcalc, rational, shape

LAYERS = (errors, qcalc, kernel, basis, curve, rational, shape)
# the T_n fit and the q = 1 closed form are test oracles (tests/oracles.py)
RETIRED = ("tn_design_matrix", "tn_membership_residual", "FIT_CONDITION_LIMIT",
           "IllConditionedFitError", "classical_trig_basis")
ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# runs the qtrig command in a fresh interpreter, then prints the modules it loaded
FOOTPRINT = "import sys; from qtrig.cli import main; code = main(sys.argv[1:]); print(code, *sorted(sys.modules))"


def test_package_exports_each_layer_all_once():
    names = [name for module in LAYERS for name in module.__all__]
    assert qtrig.__all__ == names
    assert len(set(names)) == len(names)
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(qtrig, name) is getattr(module, name)
    for module in (qtrig, *LAYERS):
        for name in RETIRED:
            assert not hasattr(module, name), (module.__name__, name)


def _fresh(argv, code=FOOTPRINT):
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=ENV,
                          cwd=ROOT, timeout=60)


def _footprint(argv):
    """Exit code, stderr and loaded qtrig and numpy modules of one qtrig command in a fresh interpreter."""
    proc = _fresh(argv)
    code, *modules = proc.stdout.split()
    return int(code), proc.stderr, {m for m in modules if m.split(".")[0] in ("qtrig", "numpy")}


def test_python_m_qtrig_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "qtrig", "check", "tp", "--degree", "3", "--q", "1.5",
         "--interval", "0,pi/2"],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("tp: PASS\n")


def test_public_functions_stay_plain_functions():
    # the one memo wraps a private helper, so a public function can still
    # be told apart, and wrapped, as a plain function
    for name in qtrig.__all__:
        obj = getattr(qtrig, name)
        if callable(obj) and not isinstance(obj, type):
            assert inspect.isfunction(obj), name


def test_results_that_hold_arrays_compare_and_hash_by_identity():
    # a field-wise == of two arrays has no truth value, and an array no hash
    iv = qtrig.Interval(0.3, 1.4)

    def results():
        polygon = qtrig.ControlPolygon([[0.0, 0.0], [1.0, 2.0]])
        samples = qtrig.sample_curve(polygon, 1.3, iv, 3)
        return (qtrig.basis_all_direct(1, 0.9, 1.3, iv), polygon, samples[0], samples,
                qtrig.evaluate_alg1(polygon, 0.9, 1.3, iv), qtrig.collocation("quantum", 1, 1.3, iv, [0.5, 0.9]))

    first, second = results(), results()
    assert [type(a).__name__ for a in first] == ["BasisVector", "ControlPolygon", "CurveSample", "CurveSamples",
                                                 "DeCasteljauTableau", "CollocationMatrix"]
    for a, other in zip(first, second):
        assert (a == other) is False, type(a).__name__
        assert a == a
        assert len({a, a, other}) == 2


def test_a_bare_import_loads_no_layer_and_a_public_name_loads_them_all():
    # a dunder probe, such as inspect.unwrap's, answers without loading
    code = ("import sys, qtrig; probe = hasattr(qtrig, '__wrapped__'); bare = sorted(sys.modules); "
            "qtrig.collocation; print(probe, *bare); print(*sorted(sys.modules))")
    (probe, *bare), loaded = (line.split() for line in _fresh([], code).stdout.splitlines())
    assert probe == "False"
    bare, loaded = set(bare), set(loaded)
    assert {m for m in bare if m.startswith("qtrig")} == {"qtrig"} and "numpy" not in bare
    assert {layer.__name__ for layer in LAYERS} <= loaded


def test_a_basis_table_loads_only_the_layers_it_runs(tmp_path):
    code, err, modules = _footprint(["basis", "--degree", "3", "--q", "1.5", "--interval", "0,pi/2",
                                     "--out", str(tmp_path / "b.csv")])
    assert (code, err) == (0, "")
    qtrig_modules = {m for m in modules if m.startswith("qtrig")}
    assert qtrig_modules == {"qtrig", "qtrig.cli", "qtrig.errors", "qtrig.qcalc", "qtrig.kernel", "qtrig.basis",
                             "qtrig.export"}


def test_a_curve_loads_neither_rational_nor_shape(tmp_path):
    polygon = tmp_path / "arch.json"
    polygon.write_text('{"points": [[0, 0], [1, 2], [2, 2], [3, 0]]}')
    code, err, modules = _footprint(["curve", "--polygon", str(polygon), "--q", "1.5", "--interval", "0,pi/2",
                                     "--out", str(tmp_path / "c.csv")])
    assert (code, err) == (0, "")
    assert "qtrig.curve" in modules and not {"qtrig.rational", "qtrig.shape"} & modules


def test_a_usage_error_exits_before_numpy_loads():
    code, err, modules = _footprint(["basis", "--q", "2", "--interval", "0,pi/2"])
    assert (code, err) == (1, "qtrig: error: the following arguments are required: --degree\n")
    assert "numpy" not in modules
