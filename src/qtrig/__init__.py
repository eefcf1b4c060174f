"""Quantum trigonometric Bernstein bases, Bezier-type curves and shape analysis.

The package is built around a one-parameter deformation of the circular
Bernstein basis.  The kernel d(x, y; q) = (q+1)/2 sin(y-x) + (q-1)/2 sin(y+x)
replaces sin(y - x); setting q = 1 recovers the classical constructions.
Everything is plain float64 with pure functions and immutable containers.
Each layer module declares its public names in its own __all__; the package
re-exports them all.

The layers load on first use: `import qtrig` loads none of them, and the
first request for any other name, `__all__` included (so `from qtrig import
*` too), loads all seven in the order below and binds their public names
here.  A submodule import such as `from qtrig.basis import basis_matrix`
loads only that layer and what it imports, so the qtrig command loads what
a subcommand runs and a usage error none of it.
"""

__version__ = "0.1.0"

_LAYERS = ("errors", "qcalc", "kernel", "basis", "curve", "rational", "shape")


def __getattr__(name):
    # a dunder probe (copy, pickle, inspect, import machinery) is never a
    # public name: answering it without loading keeps a half-imported package as it is
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    names = []
    for layer in _LAYERS:
        module = import_module(f"{__name__}.{layer}")
        for public in module.__all__:
            globals()[public] = getattr(module, public)
        names += module.__all__
    globals()["__all__"] = names
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
