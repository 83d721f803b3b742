"""Degeneracy tests for Gram matrices of hyperbolic configurations.

The package works in the linear model of hyperbolic n-space: the upper
sheet of the two-sheeted hyperboloid inside flat space with signature
(n, 1), the timelike coordinate last.  Families of points, horospheres,
cooriented hyperplanes and cooriented Euclidean spheres are tested for
incidence with a common umbilical hypersurface by checking whether the
matrix of their pairwise invariants is singular, and the witnessing
surface is recovered from the kernel.

The generators (``generate``, ``GenSpec``, ``Configuration``,
``default_count``, ``perturb``) and their random stream ``SplitMix64``
are imported on first use, so a program that only tests families does
not load them.
"""

from .errors import (
    DegenerateDatum,
    DimensionMismatch,
    GeometryError,
    HypothesisViolated,
    InfeasibleParams,
    InvalidInput,
    NoCommonTangent,
    NoReliableKernel,
    NormalSearchFailed,
    NotDegenerate,
    NotSymmetric,
    OutsideBall,
    SchemaViolation,
)
from .genkind import GenKind
from .lorentz import (
    DEFAULT_TOL,
    DegeneracyVerdict,
    SignClass,
    classify,
    degeneracy,
    first_nonzero_positive,
    gram,
    inner,
    metric_diag,
    norm_sq,
    null_basis,
)
from .models import (
    ball_distance,
    ball_to_hyperboloid,
    boundary_to_lightlike,
    halfspace_to_hyperboloid,
    horosphere_chart,
    horosphere_ideal_centre,
    horosphere_point,
    hyperboloid_to_ball,
    hyperboloid_to_halfspace,
    lightlike_to_boundary,
    normal_to_sphere_or_plane,
    sphere_lift,
    sphere_lifts,
)
from .objects import (
    HOROSPHERE_LEVEL,
    CoHyperplane,
    CoSphereE,
    EquidistantBranch,
    EuclideanPlane,
    Horosphere,
    HPoint,
    Hypersphere,
    HyperplaneRelation,
    RelationKind,
    Surface,
    contains,
    distance,
    half_dist_sinh_sq,
    inversive_distance,
    lambda_length,
    same_centre,
    sigma,
    sigma_decode,
    tangent_length,
    tau,
)
from .theorems import (
    MAX_FAMILY,
    Alternative,
    CaseyCase,
    CaseyCaseKind,
    CaseyResult,
    CoroDResult,
    EuclideanCaseKind,
    EuclideanCaseyCase,
    FourTermRelation,
    PennerResult,
    Ptolemy1Result,
    SurfaceKind,
    UmbilicalFit,
    WitnessReport,
    casey_classify,
    casey_test,
    casey_witness_check,
    corollary_d_test,
    fit_umbilical,
    four_term_relation,
    half_dist_matrix,
    lambda_sq_matrix,
    penner_test,
    ptolemy1_test,
    ptolemy2_classify,
    ptolemy2_test,
    sigma_matrix,
    tau_matrix,
    umbilical_datum,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported when the name is first read
_LAZY = {
    "Configuration": "generators",
    "GenSpec": "generators",
    "default_count": "generators",
    "generate": "generators",
    "perturb": "generators",
    "SplitMix64": "rng",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "DEFAULT_TOL",
    "HOROSPHERE_LEVEL",
    "Alternative",
    "CaseyCase",
    "CaseyCaseKind",
    "CaseyResult",
    "CoHyperplane",
    "CoSphereE",
    "Configuration",
    "CoroDResult",
    "DegenerateDatum",
    "DegeneracyVerdict",
    "DimensionMismatch",
    "EquidistantBranch",
    "EuclideanCaseKind",
    "EuclideanCaseyCase",
    "EuclideanPlane",
    "FourTermRelation",
    "GenKind",
    "GenSpec",
    "GeometryError",
    "HPoint",
    "Horosphere",
    "HyperplaneRelation",
    "Hypersphere",
    "HypothesisViolated",
    "InfeasibleParams",
    "InvalidInput",
    "MAX_FAMILY",
    "NoCommonTangent",
    "NoReliableKernel",
    "NormalSearchFailed",
    "NotDegenerate",
    "NotSymmetric",
    "OutsideBall",
    "PennerResult",
    "Ptolemy1Result",
    "RelationKind",
    "SchemaViolation",
    "SignClass",
    "SplitMix64",
    "Surface",
    "SurfaceKind",
    "UmbilicalFit",
    "WitnessReport",
    "ball_distance",
    "ball_to_hyperboloid",
    "boundary_to_lightlike",
    "casey_classify",
    "casey_test",
    "casey_witness_check",
    "classify",
    "contains",
    "corollary_d_test",
    "default_count",
    "degeneracy",
    "distance",
    "first_nonzero_positive",
    "fit_umbilical",
    "four_term_relation",
    "generate",
    "gram",
    "half_dist_matrix",
    "half_dist_sinh_sq",
    "halfspace_to_hyperboloid",
    "horosphere_chart",
    "horosphere_ideal_centre",
    "horosphere_point",
    "hyperboloid_to_ball",
    "hyperboloid_to_halfspace",
    "inner",
    "inversive_distance",
    "lambda_length",
    "lambda_sq_matrix",
    "lightlike_to_boundary",
    "metric_diag",
    "norm_sq",
    "normal_to_sphere_or_plane",
    "null_basis",
    "penner_test",
    "perturb",
    "ptolemy1_test",
    "ptolemy2_classify",
    "ptolemy2_test",
    "same_centre",
    "sigma",
    "sigma_decode",
    "sigma_matrix",
    "sphere_lift",
    "sphere_lifts",
    "tangent_length",
    "tau",
    "tau_matrix",
    "umbilical_datum",
]
