import qtrig
from qtrig import basis, curve, errors, kernel, qcalc, rational, shape

LAYERS = (errors, qcalc, kernel, basis, curve, rational, shape)


def test_package_exports_each_layer_all_once():
    names = [name for module in LAYERS for name in module.__all__]
    assert qtrig.__all__ == names
    assert len(set(names)) == len(names)
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(qtrig, name) is getattr(module, name)
