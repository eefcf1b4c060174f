"""Quantum trigonometric Bernstein bases, Bezier-type curves and shape analysis.

The package is built around a one-parameter deformation of the circular
Bernstein basis.  The kernel d(x, y; q) = (q+1)/2 sin(y-x) + (q-1)/2 sin(y+x)
replaces sin(y - x); setting q = 1 recovers the classical constructions.
Everything is plain float64 with pure functions and immutable containers.
"""

from .errors import (
    FloatRangeError,
    IllConditionedFitError,
    InvalidIntervalError,
    MinorCapExceededError,
    QTrigError,
    SingularDenominatorError,
)
from .qcalc import (
    q_binomial,
    q_binomial_row,
    q_powers,
    validate_q,
)
from .kernel import (
    Interval,
    ValidityCertificate,
    certify_interval,
    trig_kernel,
    kernel_tables,
)
from .basis import (
    BasisVector,
    basis_all_direct,
    basis_all_recurrence1,
    basis_all_recurrence2,
    basis_matrix,
    classical_trig_basis,
)
from .curve import (
    ControlPolygon,
    CurveSample,
    CurveSamples,
    DeCasteljauTableau,
    evaluate_alg1,
    evaluate_alg2,
    evaluate_direct,
    intermediate_explicit,
    sample_curve,
    tn_design_matrix,
    tn_membership_residual,
)
from .rational import (
    chord_distance_profile,
    denominator_certificate,
    point_segment_distance,
    rational_basis_all,
    rational_basis_matrix,
    rational_evaluate,
    rational_sample,
)
from .shape import (
    CollocationMatrix,
    TPReport,
    collocation,
    convex_hull,
    minor_count,
    point_in_hull,
    sign_changes_seq,
    total_positivity_check,
)

__version__ = "0.1.0"

__all__ = [
    "QTrigError",
    "InvalidIntervalError",
    "SingularDenominatorError",
    "MinorCapExceededError",
    "IllConditionedFitError",
    "FloatRangeError",
    "validate_q",
    "q_binomial",
    "q_binomial_row",
    "q_powers",
    "trig_kernel",
    "Interval",
    "ValidityCertificate",
    "certify_interval",
    "kernel_tables",
    "BasisVector",
    "basis_all_direct",
    "basis_matrix",
    "basis_all_recurrence1",
    "basis_all_recurrence2",
    "classical_trig_basis",
    "ControlPolygon",
    "CurveSample",
    "CurveSamples",
    "DeCasteljauTableau",
    "evaluate_direct",
    "evaluate_alg1",
    "evaluate_alg2",
    "intermediate_explicit",
    "sample_curve",
    "tn_design_matrix",
    "tn_membership_residual",
    "rational_basis_all",
    "rational_evaluate",
    "rational_basis_matrix",
    "rational_sample",
    "denominator_certificate",
    "chord_distance_profile",
    "point_segment_distance",
    "CollocationMatrix",
    "TPReport",
    "collocation",
    "minor_count",
    "total_positivity_check",
    "sign_changes_seq",
    "convex_hull",
    "point_in_hull",
]
