"""Quantum trigonometric Bernstein bases, Bezier-type curves and shape analysis.

The package is built around a one-parameter deformation of the circular
Bernstein basis.  The kernel d(x, y; q) = (q+1)/2 sin(y-x) + (q-1)/2 sin(y+x)
replaces sin(y - x); setting q = 1 recovers the classical constructions.
Everything is plain float64 with pure functions and immutable containers.
Each layer module declares its public names in its own __all__; the package
re-exports them all.
"""

from . import basis, curve, errors, kernel, qcalc, rational, shape
from .errors import *  # noqa: F401,F403
from .qcalc import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .basis import *  # noqa: F401,F403
from .curve import *  # noqa: F401,F403
from .rational import *  # noqa: F401,F403
from .shape import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (errors, qcalc, kernel, basis, curve, rational, shape)
           for name in module.__all__]
