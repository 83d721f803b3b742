"""Degeneracy tests for Gram matrices of hyperbolic configurations.

The package works in the linear model of hyperbolic n-space: the upper
sheet of the two-sheeted hyperboloid inside flat space with signature
(n, 1), the timelike coordinate last.  Families of points, horospheres,
cooriented hyperplanes and cooriented Euclidean spheres are tested for
incidence with a common umbilical hypersurface by checking whether the
matrix of their pairwise invariants is singular, and the witnessing
surface is recovered from the kernel.

Every public name is imported from its submodule on first use, so
``import lorentzgram`` loads neither numpy nor any submodule, and a
program that only tests families never loads the generators.
"""

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_EXPORTS = {
    "DegenerateDatum": "errors",
    "DimensionMismatch": "errors",
    "GeometryError": "errors",
    "HypothesisViolated": "errors",
    "InfeasibleParams": "errors",
    "InvalidInput": "errors",
    "NoCommonTangent": "errors",
    "NoReliableKernel": "errors",
    "NormalSearchFailed": "errors",
    "NotDegenerate": "errors",
    "NotSymmetric": "errors",
    "OutsideBall": "errors",
    "SchemaViolation": "errors",
    "GenKind": "genkind",
    "DEFAULT_TOL": "lorentz",
    "DegeneracyVerdict": "lorentz",
    "SignClass": "lorentz",
    "classify": "lorentz",
    "degeneracy": "lorentz",
    "first_nonzero_positive": "lorentz",
    "gram": "lorentz",
    "inner": "lorentz",
    "metric_diag": "lorentz",
    "norm_sq": "lorentz",
    "null_basis": "lorentz",
    "ball_distance": "models",
    "ball_to_hyperboloid": "models",
    "boundary_to_lightlike": "models",
    "halfspace_to_hyperboloid": "models",
    "horosphere_chart": "models",
    "horosphere_ideal_centre": "models",
    "horosphere_point": "models",
    "hyperboloid_to_ball": "models",
    "hyperboloid_to_halfspace": "models",
    "lightlike_to_boundary": "models",
    "normal_to_sphere_or_plane": "models",
    "sphere_lift": "models",
    "sphere_lifts": "models",
    "HOROSPHERE_LEVEL": "objects",
    "CoHyperplane": "objects",
    "CoSphereE": "objects",
    "EquidistantBranch": "objects",
    "EuclideanPlane": "objects",
    "Horosphere": "objects",
    "HPoint": "objects",
    "Hypersphere": "objects",
    "HyperplaneRelation": "objects",
    "RelationKind": "objects",
    "Surface": "objects",
    "contains": "objects",
    "distance": "objects",
    "half_dist_sinh_sq": "objects",
    "inversive_distance": "objects",
    "lambda_length": "objects",
    "same_centre": "objects",
    "sigma": "objects",
    "sigma_decode": "objects",
    "tangent_length": "objects",
    "tau": "objects",
    "MAX_FAMILY": "theorems",
    "Alternative": "theorems",
    "CaseyCase": "theorems",
    "CaseyCaseKind": "theorems",
    "CaseyResult": "theorems",
    "CoroDResult": "theorems",
    "EuclideanCaseKind": "theorems",
    "EuclideanCaseyCase": "theorems",
    "FourTermRelation": "theorems",
    "PennerResult": "theorems",
    "Ptolemy1Result": "theorems",
    "SurfaceKind": "theorems",
    "UmbilicalFit": "theorems",
    "WitnessReport": "theorems",
    "casey_classify": "theorems",
    "casey_test": "theorems",
    "casey_witness_check": "theorems",
    "corollary_d_test": "theorems",
    "fit_umbilical": "theorems",
    "four_term_relation": "theorems",
    "half_dist_matrix": "theorems",
    "lambda_sq_matrix": "theorems",
    "penner_test": "theorems",
    "ptolemy1_test": "theorems",
    "ptolemy2_classify": "theorems",
    "ptolemy2_test": "theorems",
    "sigma_matrix": "theorems",
    "tau_matrix": "theorems",
    "umbilical_datum": "theorems",
    "Configuration": "generators",
    "GenSpec": "generators",
    "default_count": "generators",
    "generate": "generators",
    "perturb": "generators",
    "SplitMix64": "rng",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
