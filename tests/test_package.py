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


def test_python_m_qtrig_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qtrig", "check", "tp", "--degree", "3", "--q", "1.5",
         "--interval", "0,pi/2"],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
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
