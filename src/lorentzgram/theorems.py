"""Gram-determinant criteria for umbilical incidence, with converse
classification and witness extraction.

Every test follows the same template: build the symmetric matrix of
pairwise invariants for the input family, decide degeneracy by singular
value ratio, and, when degenerate, recover a geometric witness from the
kernel.  The correspondences implemented here:

* penner_test: n+1 horospheres, matrix of squared lambda lengths; the
  kernel certifies that the ideal centres span the boundary of a common
  hyperplane.
* ptolemy1_test: n+1 points on a common horosphere or hypersphere, matrix
  of sinh^2(rho/2); degeneracy certifies a common hyperplane through the
  points.
* ptolemy2_test / ptolemy2_classify: n+2 points, same matrix; degeneracy
  certifies a common horosphere, hypersphere, hyperplane or equidistant
  branch, and the classifier recovers which.
* casey_test / casey_classify: n+1 cooriented hyperplanes, matrix of sigma
  invariants; degeneracy (for some coorientation) certifies one of three
  tangency or incidence configurations.
* corollary_d_test: n+2 cooriented Euclidean spheres, matrix of tau
  invariants; equivalent to the hyperplane case one dimension up through
  the sphere lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateDatum,
    DimensionMismatch,
    GeometryError,
    HypothesisViolated,
    InvalidInput,
    NoReliableKernel,
    NormalSearchFailed,
    NotDegenerate,
)
from .lorentz import (
    DEFAULT_TOL,
    DegeneracyVerdict,
    SignClass,
    as_vector,
    classify,
    codim1_test,
    degeneracy,
    first_nonzero_positive,
    gram,
    inner,
    metric_diag,
    norm_sq,
    null_basis,
)
from .models import lightlike_to_boundary, normal_to_sphere_or_plane, sphere_lift
from .objects import (
    HOROSPHERE_LEVEL,
    CoHyperplane,
    CoSphereE,
    EquidistantBranch,
    EuclideanPlane,
    Horosphere,
    HPoint,
    Hypersphere,
    _concentric,
    _lambda_sq,
)

MAX_FAMILY = 16  # sign searches enumerate 2^(count-1) assignments


# ---------------------------------------------------------------------------
# matrix builders


def lambda_sq_matrix(horospheres: Sequence[Horosphere]) -> np.ndarray:
    """Matrix of squared lambda lengths -<rep_i, rep_j>, zero on the diagonal
    and on concentric pairs."""
    return _lambda_sq([h.rep for h in horospheres])


def half_dist_matrix(points: Sequence[HPoint]) -> np.ndarray:
    """Matrix of sinh^2(rho_ij / 2) = max(0, -(<p_i, p_j> + 1)/2), zero diagonal."""
    B = -(gram([p.coords for p in points]) + 1.0) / 2.0
    np.fill_diagonal(B, 0.0)
    return np.where(B > 0.0, B, 0.0)


def sigma_matrix(hyperplanes: Sequence[CoHyperplane]) -> np.ndarray:
    """Matrix of sigma invariants (<n_i, n_j> - 1)/2 of cooriented hyperplanes,
    zero diagonal."""
    C = (gram([h.normal for h in hyperplanes]) - 1.0) / 2.0
    np.fill_diagonal(C, 0.0)
    return C


def _tau_parts(spheres: Sequence[CoSphereE]) -> tuple[np.ndarray, np.ndarray]:
    """The two coorientation-free halves of the tau matrix of a sphere family.

    Entry (i, j) of the first is |c_i - c_j|^2 - (r_i - r_j)^2, of the
    second |c_i - c_j|^2 - (r_i + r_j)^2: the bracket of objects.tau for
    coinciding and for opposite coorientations.  The squares go through
    float_power, which calls the C library's pow as Python's float ** does,
    so every entry equals objects.tau bit for bit (x * x differs from pow in
    the last bit for about one input in 1300).
    """
    if any(s.centre.shape != spheres[0].centre.shape for s in spheres):
        raise DimensionMismatch("spheres live in different dimensions")
    c = np.stack([s.centre for s in spheres])
    r = np.array([s.radius for s in spheres])
    d2 = np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=-1)
    same = d2 - np.float_power(r[:, None] - r[None, :], 2.0)
    opposite = d2 - np.float_power(r[:, None] + r[None, :], 2.0)
    return same, opposite


def _signed_tau(parts: tuple[np.ndarray, np.ndarray], eps: np.ndarray) -> np.ndarray:
    """Tau matrices for the coorientations in eps, one (m,) vector or a (k, m) stack.

    Entry (i, j) is ee (d2 - (r_i - ee r_j)^2) with ee = eps_i eps_j, as in
    objects.tau; the diagonal is zero because ee is +1 there.
    """
    same, opposite = parts
    ee = eps[..., :, None] * eps[..., None, :]
    return ee * np.where(ee > 0, same, opposite)


def tau_matrix(spheres: Sequence[CoSphereE]) -> np.ndarray:
    """Matrix of tau invariants of cooriented Euclidean spheres, zero diagonal."""
    ss = list(spheres)
    return _signed_tau(_tau_parts(ss), np.array([s.eps for s in ss], dtype=float))


# ---------------------------------------------------------------------------
# the four-term product relation


class Alternative(Enum):
    ALT12_34 = "alt12_34"
    ALT13_24 = "alt13_24"
    ALT14_23 = "alt14_23"


@dataclass(frozen=True)
class FourTermRelation:
    """Which pairing product equals the sum of the other two, if any.

    products holds (x12*x34, x13*x24, x14*x23); residual is the smallest
    violation |p_k - (s - p_k)| over the three alternatives.
    """

    which: Optional[Alternative]
    products: tuple[float, float, float]
    residual: float


def four_term_relation(values, tol: float = DEFAULT_TOL) -> FourTermRelation:
    """Test the three-alternative product relation on a 4x4 value matrix.

    The input holds nonnegative symmetric values with zero diagonal (lambda
    lengths, chord lengths 2 sinh(rho/2), or tangent lengths).  When several
    alternatives hold within tol, the first in the 12|34 < 13|24 < 14|23
    order is returned, whichever has the smaller residual.
    """
    x = np.asarray(values, dtype=float)
    if x.shape != (4, 4):
        raise InvalidInput(f"expected a 4x4 matrix, got {x.shape}")
    scale = max(float(np.max(np.abs(x))), 1.0)
    if float(np.max(np.abs(x - x.T))) > 1e-12 * scale:
        raise InvalidInput("value matrix must be symmetric")
    if float(np.max(np.abs(np.diag(x)))) > 1e-12 * scale:
        raise InvalidInput("value matrix must have zero diagonal")
    if float(np.min(x)) < -1e-12 * scale:
        raise InvalidInput("values must be nonnegative")
    products = (
        float(x[0, 1] * x[2, 3]),
        float(x[0, 2] * x[1, 3]),
        float(x[0, 3] * x[1, 2]),
    )
    total = sum(products)
    residuals = [abs(2.0 * p - total) for p in products]
    holding = [alt for alt, r in zip(Alternative, residuals) if r <= tol * total]
    which = holding[0] if holding else None
    return FourTermRelation(which=which, products=products, residual=min(residuals))


# ---------------------------------------------------------------------------
# horosphere criterion


@dataclass(frozen=True, eq=False)
class PennerResult:
    verdict: DegeneracyVerdict
    witness: Optional[CoHyperplane]
    same_centre: bool
    residual: Optional[float]


def _check_family(vectors: np.ndarray, expected: int) -> None:
    if vectors.shape[0] != expected:
        raise DimensionMismatch(
            f"need {expected} objects for ambient dimension {vectors.shape[1] - 1}, "
            f"got {vectors.shape[0]}"
        )


def penner_test(horospheres: Sequence[Horosphere], tol: float = DEFAULT_TOL) -> PennerResult:
    """Do the ideal centres of n+1 horospheres bound a common hyperplane?

    Degeneracy of the squared-lambda-length matrix is the criterion.  When
    it fires and the centres are not all equal, the witness is the
    hyperplane whose boundary carries every centre; its normal annihilates
    every representative.
    """
    hs = list(horospheres)
    if not all(isinstance(h, Horosphere) for h in hs):
        raise InvalidInput("penner_test expects horospheres")
    reps = np.stack([h.rep for h in hs])
    _check_family(reps, reps.shape[1])
    all_same = bool(np.all(_concentric(reps)[0]))
    verdict = degeneracy(lambda_sq_matrix(hs), tol)
    if not verdict.is_degenerate or all_same:
        return PennerResult(verdict, None, all_same, None)
    _, w = codim1_test(reps, tol)
    if w is None:
        # the two eigenvalue problems can disagree only at the threshold edge
        return PennerResult(verdict, None, False, None)
    q = norm_sq(w)
    if q <= 0:
        raise NormalSearchFailed("recovered normal is not spacelike")
    witness = CoHyperplane(first_nonzero_positive(w / math.sqrt(q)))
    residual = float(max(abs(inner(r, witness.normal)) for r in reps))
    return PennerResult(verdict, witness, False, residual)


# ---------------------------------------------------------------------------
# point criteria


PointSurface = Union[Horosphere, Hypersphere, EquidistantBranch, np.ndarray]


def umbilical_datum(surface: PointSurface) -> np.ndarray:
    """Vector u with <x, u> = (<u, u> - 1)/2 for every x on the surface.

    Horospheres give a lightlike datum, hyperspheres a timelike one with
    square norm -exp(2r), equidistant branches a spacelike one.  A raw
    coordinate vector passes through unchecked, which admits any umbilical
    hypersurface that is not a hyperplane.
    """
    if isinstance(surface, Horosphere):
        return surface.rep / math.sqrt(2.0)
    if isinstance(surface, Hypersphere):
        return math.exp(surface.radius) * surface.centre.coords
    if isinstance(surface, EquidistantBranch):
        c = surface.offset + math.hypot(surface.offset, 1.0)
        return c * surface.normal
    return as_vector(surface)


@dataclass(frozen=True, eq=False)
class Ptolemy1Result:
    verdict: DegeneracyVerdict
    witness: Optional[CoHyperplane]
    residual: Optional[float]


def ptolemy1_test(
    points: Sequence[HPoint], surface: PointSurface, tol: float = DEFAULT_TOL
) -> Ptolemy1Result:
    """Do n+1 points of a common horosphere or hypersphere span a hyperplane?

    Degeneracy of the sinh^2(rho/2) matrix is the criterion.  Membership on
    the surface is a hypothesis and is checked first.  The witness
    hyperplane is recovered by shifting the points by the umbilical datum,
    reading a normal off the shifted span, and correcting it back.
    """
    ps = [p if isinstance(p, HPoint) else HPoint(p) for p in points]
    coords = np.stack([p.coords for p in ps])
    _check_family(coords, coords.shape[1])
    u = umbilical_datum(surface)
    if u.shape[0] != coords.shape[1]:
        raise DimensionMismatch("surface and points live in different dimensions")
    q = norm_sq(u)
    level = (q - 1.0) / 2.0
    uscale = 1.0 + float(np.max(np.abs(u))) ** 2
    for p in ps:
        scale = (1.0 + float(np.max(np.abs(p.coords)))) * (1.0 + float(np.max(np.abs(u))))
        if abs(inner(p.coords, u) - level) > max(tol, 1e-7) * scale:
            raise HypothesisViolated("a point is not on the supplied surface")
    if min(abs(q - 1.0), abs(q + 1.0)) <= 1e-9 * uscale:
        raise DegenerateDatum("umbilical datum has square norm too close to +1 or -1")
    verdict = degeneracy(half_dist_matrix(ps), tol)
    if not verdict.is_degenerate:
        return Ptolemy1Result(verdict, None, None)
    shifted = coords - u
    h = null_basis(shifted, nullity=1)[:, 0]
    w_shift = h * metric_diag(coords.shape[1])
    mu = 2.0 * inner(u, w_shift) / (q - 1.0)
    w = w_shift - mu * u
    qw = norm_sq(w)
    if qw <= 0:
        raise NormalSearchFailed("recovered normal is not spacelike")
    witness = CoHyperplane(first_nonzero_positive(w / math.sqrt(qw)))
    residual = float(max(abs(inner(p.coords, witness.normal)) for p in ps))
    return Ptolemy1Result(verdict, witness, residual)


def ptolemy2_test(points: Sequence[HPoint], tol: float = DEFAULT_TOL) -> DegeneracyVerdict:
    """Do n+2 points lie on a common horosphere, hypersphere, hyperplane or
    equidistant branch?  Degeneracy of the sinh^2(rho/2) matrix decides."""
    ps = [p if isinstance(p, HPoint) else HPoint(p) for p in points]
    coords = np.stack([p.coords for p in ps])
    _check_family(coords, coords.shape[1] + 1)
    return degeneracy(half_dist_matrix(ps), tol)


class SurfaceKind(Enum):
    HOROSPHERE = "horosphere"
    HYPERSPHERE = "hypersphere"
    HYPERPLANE = "hyperplane"
    EQUIDISTANT_BRANCH = "equidistant_branch"


@dataclass(frozen=True, eq=False)
class UmbilicalFit:
    """A fitted umbilical hypersurface: all points satisfy <p, datum> = offset.

    datum is normalized per kind: the standard horosphere representative,
    the forward unit timelike centre (offset is then -cosh r), or a unit
    spacelike normal with offset 0 (hyperplane) or offset > 0 (equidistant
    branch).
    """

    kind: SurfaceKind
    datum: np.ndarray
    offset: float
    residual: float

    def surface(self) -> Union[Horosphere, Hypersphere, CoHyperplane, EquidistantBranch]:
        if self.kind is SurfaceKind.HOROSPHERE:
            return Horosphere(self.datum)
        if self.kind is SurfaceKind.HYPERSPHERE:
            return Hypersphere(HPoint(self.datum), math.acosh(-self.offset))
        if self.kind is SurfaceKind.HYPERPLANE:
            return CoHyperplane(self.datum)
        return EquidistantBranch(self.datum, self.offset)


def _fit_from_direction(coords: np.ndarray, y: np.ndarray, tol: float) -> UmbilicalFit:
    """Normalize a common direction <p_i, y> = const into an UmbilicalFit."""
    if float(np.max(np.abs(y))) <= tol:
        raise NoReliableKernel("fitted direction vanishes")
    kind = classify(y, tol)
    levels = coords @ (y * metric_diag(coords.shape[1]))
    if kind is SignClass.LIGHTLIKE:
        if y[-1] < 0:
            y, levels = -y, -levels
        m = float(np.mean(levels))
        if m >= 0:
            raise NoReliableKernel("lightlike fit has nonnegative level")
        rep = y / (-m * math.sqrt(2.0))
        datum, offset = rep, HOROSPHERE_LEVEL
    elif kind is SignClass.TIMELIKE:
        c = y / math.sqrt(-norm_sq(y))
        if c[-1] < 0:
            c = -c
        s = float(np.mean(coords @ (c * metric_diag(coords.shape[1]))))
        if s > -1.0 + 1e-12:
            raise NoReliableKernel("timelike fit puts points at imaginary radius")
        datum, offset, kind_out = c, s, SurfaceKind.HYPERSPHERE
        residual = float(np.max(np.abs(coords @ (datum * metric_diag(coords.shape[1])) - offset)))
        return UmbilicalFit(kind_out, datum, offset, residual)
    else:
        v = y / math.sqrt(norm_sq(y))
        m = float(np.mean(coords @ (v * metric_diag(coords.shape[1]))))
        if abs(m) <= tol:
            datum, offset = first_nonzero_positive(v), 0.0
            residual = float(np.max(np.abs(coords @ (datum * metric_diag(coords.shape[1])))))
            return UmbilicalFit(SurfaceKind.HYPERPLANE, datum, offset, residual)
        if m < 0:
            v, m = -v, -m
        residual = float(np.max(np.abs(coords @ (v * metric_diag(coords.shape[1])) - m)))
        return UmbilicalFit(SurfaceKind.EQUIDISTANT_BRANCH, v, m, residual)
    residual = float(np.max(np.abs(coords @ (datum * metric_diag(coords.shape[1])) - offset)))
    return UmbilicalFit(SurfaceKind.HOROSPHERE, datum, offset, residual)


def ptolemy2_classify(points: Sequence[HPoint], tol: float = DEFAULT_TOL) -> UmbilicalFit:
    """Recover which umbilical hypersurface carries n+2 degenerate points.

    The points are appended a unit spacelike coordinate, making them
    lightlike one dimension up; a spacelike normal of their span decomposes
    into the surface datum and its offset.
    """
    ps = [p if isinstance(p, HPoint) else HPoint(p) for p in points]
    verdict = ptolemy2_test(ps, tol)
    if not verdict.is_degenerate:
        raise NotDegenerate("points are not degenerate at this tolerance")
    coords = np.stack([p.coords for p in ps])
    m, dim = coords.shape
    lifted = np.concatenate([np.ones((m, 1)), coords], axis=1)
    svals = np.linalg.svd(lifted, compute_uv=False)
    nullity = max(1, int(np.sum(svals <= tol * max(svals[0], 1.0))))
    basis = null_basis(lifted, nullity=nullity)
    candidates = basis * metric_diag(dim + 1)[:, None]
    eigvals, eigvecs = np.linalg.eigh(gram(candidates.T))
    if eigvals[-1] <= tol:
        raise NormalSearchFailed("span admits no spacelike normal")
    w = candidates @ eigvecs[:, -1]
    w = w / math.sqrt(eigvals[-1])
    v = w[1:]
    if float(np.max(np.abs(v))) <= tol * max(1.0, abs(w[0])):
        raise NoReliableKernel("normal has no component in the original space")
    return _fit_from_direction(coords, v, tol)


def fit_umbilical(points: Sequence[HPoint], tol: float = DEFAULT_TOL) -> UmbilicalFit:
    """Fit the umbilical hypersurface through n+1 points directly.

    Solves <p_i - p_1, y> = 0 for a common direction y and classifies it.
    With generically placed points the fit is unique; when several
    hypersurfaces fit, one of them is returned.
    """
    ps = [p if isinstance(p, HPoint) else HPoint(p) for p in points]
    coords = np.stack([p.coords for p in ps])
    _check_family(coords, coords.shape[1])
    diffs = coords[1:] - coords[0]
    h = null_basis(diffs * metric_diag(coords.shape[1]), nullity=1)[:, 0]
    return _fit_from_direction(coords, h, tol)


# ---------------------------------------------------------------------------
# cooriented hyperplane criterion


class CaseyCaseKind(Enum):
    TANGENT_HYPERPLANE_AT_INFINITY = "tangent_hyperplane_at_infinity"
    COMMON_IDEAL_POINT = "common_ideal_point"
    ORTHOGONAL_EQUALLY_INCLINED = "orthogonal_equally_inclined"


@dataclass(frozen=True, eq=False)
class CaseyCase:
    """Witness data for one of the three degenerate hyperplane configurations.

    Exactly the fields of the matching kind are populated: a unit spacelike
    tangent_normal, or a forward lightlike ideal_point, or the pair
    (orthogonal_normal, inclined_normal) with the inclination value.
    """

    kind: CaseyCaseKind
    tangent_normal: Optional[np.ndarray] = None
    ideal_point: Optional[np.ndarray] = None
    orthogonal_normal: Optional[np.ndarray] = None
    inclined_normal: Optional[np.ndarray] = None
    inclination: Optional[float] = None


@dataclass(frozen=True, eq=False)
class CaseyResult:
    signs: tuple[int, ...]
    verdict: DegeneracyVerdict
    case: Optional[CaseyCase]


@dataclass(frozen=True)
class WitnessReport:
    residual: float
    passed: bool
    failures: tuple[str, ...]


def _signed_sigma(G: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Sigma matrices of the normals with Gram matrix G flipped by signs.

    signs is one (m,) vector or a (k, m) stack; the result has shape
    signs.shape + (m,), and is exactly symmetric because gram's G is.
    """
    C = (signs[..., :, None] * signs[..., None, :] * G - 1.0) / 2.0
    diag = np.arange(G.shape[0])
    C[..., diag, diag] = 0.0
    return C


_SIGN_BLOCK = 128  # sign vectors per stacked eigensolve; larger blocks only cost memory


def _sign_blocks(m: int):
    """All sign vectors with leading +1, lexicographic with +1 before -1,
    as (k, m) blocks of at most _SIGN_BLOCK rows."""
    total = 1 << (m - 1)
    weights = 1 << np.arange(m - 2, -1, -1)  # bit of assignment k that flips entry i
    for start in range(0, total, _SIGN_BLOCK):
        k = np.arange(start, min(start + _SIGN_BLOCK, total))
        signs = np.ones((k.size, m))
        signs[:, 1:] -= 2.0 * ((k[:, None] & weights) != 0)
        yield signs


def _sign_spectra(matrices_of, m: int):
    """Per block of _sign_blocks(m): the signs, and for each row the smallest
    |eigenvalue| and the largest floored at 1, from one stacked eigensolve
    of matrices_of(signs)."""
    for signs in _sign_blocks(m):
        sigmas = np.abs(np.linalg.eigvalsh(matrices_of(signs)))
        yield signs, sigmas.min(axis=1), np.maximum(sigmas.max(axis=1), 1.0)


def _sign_search(matrices_of, m: int) -> tuple[np.ndarray, float]:
    """Sign vector minimizing the singular value ratio of its matrix.

    matrices_of maps a (k, m) block of sign vectors to the (k, m, m) stack
    of their matrices.  Ties keep the earliest vector of _sign_blocks(m):
    argmin takes the first within a block, and a later block must be
    strictly smaller.
    """
    best_signs, best_ratio = None, None
    for signs, smin, smax in _sign_spectra(matrices_of, m):
        ratios = smin / smax
        i = int(np.argmin(ratios))
        if best_ratio is None or ratios[i] < best_ratio:
            best_signs, best_ratio = signs[i].copy(), float(ratios[i])
    return best_signs, best_ratio


def _forward_unit(v: np.ndarray) -> np.ndarray:
    v = v / float(np.linalg.norm(v))
    return -v if v[-1] < 0 else v


def _case_iii(u: np.ndarray, w: np.ndarray, alpha: float) -> CaseyCase:
    """Assemble the orthogonal/equally-inclined witness pair.

    u is unit spacelike with <n_i, u> = 0; w is independent of u with
    <n_i, w> = alpha for all i.  Adding enough of u to w makes the result
    spacelike with square norm above alpha^2, which caps the inclination
    below 1 while preserving the constant inner products.
    """
    a = abs(inner(w, u))
    s = 1.0 if inner(w, u) >= 0 else -1.0
    qw = norm_sq(w)
    t = a + math.sqrt(max(0.0, alpha * alpha - qw)) + 1.0
    z = w + (t * s) * u
    qz = norm_sq(z)
    while qz <= alpha * alpha + 1e-12:
        t *= 2.0
        z = w + (t * s) * u
        qz = norm_sq(z)
    w_star = first_nonzero_positive(z / math.sqrt(qz))
    lam = abs(alpha) / math.sqrt(qz)
    return CaseyCase(
        CaseyCaseKind.ORTHOGONAL_EQUALLY_INCLINED,
        orthogonal_normal=first_nonzero_positive(u),
        inclined_normal=w_star,
        inclination=lam,
    )


def _classify_from_kernel(ns: np.ndarray, kernel: np.ndarray, tol: float) -> CaseyCase:
    """Turn a kernel vector of the sigma matrix into a geometric witness.

    Follows the converse construction: the weighted sum v of the normals
    either is itself the witness (spacelike: common tangent hyperplane at
    infinity; lightlike: common ideal point), or it vanishes and a
    two-dimensional complement of the normal differences supplies the
    witness pair.
    """
    dim = ns.shape[1]
    D = metric_diag(dim)
    v = ns.T @ kernel
    vscale = float(np.sum(np.abs(kernel)) * np.max(np.abs(ns)))
    if float(np.max(np.abs(v))) > tol * (1.0 + vscale):
        nu = norm_sq(v)
        if abs(nu) <= tol * (1.0 + float(np.max(np.abs(v))) ** 2):
            return CaseyCase(CaseyCaseKind.COMMON_IDEAL_POINT, ideal_point=_forward_unit(v))
        if nu < 0:
            raise NoReliableKernel("weighted normal combination is timelike")
        return CaseyCase(
            CaseyCaseKind.TANGENT_HYPERPLANE_AT_INFINITY,
            tangent_normal=first_nonzero_positive(v / math.sqrt(nu)),
        )
    # v ~ 0: the differences n_i - n_last span at most n-1 dimensions, so
    # their orthogonal complement holds at least a plane to choose from
    diffs = ns[:-1] - ns[-1]
    svals = np.linalg.svd(diffs * D, compute_uv=False)
    smax = max(float(svals[0]), 1.0) if svals.size else 1.0
    nullity = max(2, dim - int(np.sum(svals > tol * smax)))
    B = null_basis(diffs * D, nullity=nullity)
    c = B.T @ (D * ns[-1])
    cnorm = float(np.linalg.norm(c))
    if cnorm <= tol * (1.0 + float(np.max(np.abs(ns)))):
        u, w, alpha = B[:, 0], B[:, 1], float(c[1])
    else:
        coeff = null_basis(c[None, :], nullity=B.shape[1] - 1)[:, 0]
        u = B @ coeff
        w = B @ (c / cnorm)
        alpha = cnorm
    cls = classify(u, tol)
    if cls is SignClass.LIGHTLIKE:
        return CaseyCase(CaseyCaseKind.COMMON_IDEAL_POINT, ideal_point=_forward_unit(u))
    if cls is SignClass.SPACELIKE:
        return _case_iii(u / math.sqrt(norm_sq(u)), w, alpha)
    # u timelike: project w off u and renormalize
    u = u / math.sqrt(-norm_sq(u))
    y = w + inner(w, u) * u
    qy = norm_sq(y)
    if qy <= tol:
        raise NoReliableKernel("projected witness direction degenerates")
    y = y / math.sqrt(qy)
    alpha = alpha / math.sqrt(qy)
    if abs(abs(alpha) - 1.0) <= tol:
        return CaseyCase(
            CaseyCaseKind.TANGENT_HYPERPLANE_AT_INFINITY,
            tangent_normal=first_nonzero_positive(y),
        )
    if abs(alpha) <= tol:
        return _case_iii(y, u, 0.0)
    if abs(alpha) > 1.0:
        raise NoReliableKernel("inclination outside the unit interval")
    z = y / alpha + math.sqrt(max(0.0, 1.0 / alpha**2 - 1.0)) * u
    qz = norm_sq(z)
    return CaseyCase(
        CaseyCaseKind.TANGENT_HYPERPLANE_AT_INFINITY,
        tangent_normal=first_nonzero_positive(z / math.sqrt(qz)),
    )


def casey_classify(hyperplanes: Sequence[CoHyperplane], tol: float = DEFAULT_TOL) -> CaseyCase:
    """Classify a degenerate cooriented hyperplane family into its case.

    The coorientations are taken as given (no sign search).  Raises
    NotDegenerate when the sigma matrix is not singular at this tolerance.
    The three cases can overlap; the returned one is whichever the kernel
    construction reaches, and it is always checkable with
    casey_witness_check.
    """
    ns = np.stack([h.normal for h in hyperplanes])
    _check_family(ns, ns.shape[1])
    C = sigma_matrix(list(hyperplanes))
    verdict = degeneracy(C, tol)
    if not verdict.is_degenerate:
        raise NotDegenerate("sigma matrix is not degenerate at this tolerance")
    residual = float(np.max(np.abs(C @ verdict.kernel)))
    if residual > max(tol, 1e-7) * (verdict.sigma_max + 1.0):
        raise NoReliableKernel("kernel residual too large to classify")
    return _classify_from_kernel(ns, verdict.kernel, tol)


def casey_test(
    hyperplanes: Sequence[CoHyperplane], tol: float = DEFAULT_TOL, search: bool = True
) -> CaseyResult:
    """Degeneracy test for n+1 cooriented hyperplanes.

    With search enabled, all 2^n coorientation flips (the first hyperplane
    held fixed) are tried and the assignment minimizing the singular value
    ratio is reported; ties break towards the lexicographically earliest
    sign vector with +1 before -1.  When the winner is degenerate the case
    classification runs on the flipped normals.
    """
    hps = list(hyperplanes)
    if not all(isinstance(h, CoHyperplane) for h in hps):
        raise InvalidInput("casey_test expects cooriented hyperplanes")
    ns = np.stack([h.normal for h in hps])
    _check_family(ns, ns.shape[1])
    m = ns.shape[0]
    if m > MAX_FAMILY:
        raise InvalidInput(f"family too large for sign search (max {MAX_FAMILY})")
    G = gram(ns)
    if search:
        signs, _ = _sign_search(lambda s: _signed_sigma(G, s), m)
    else:
        signs = np.ones(m)
    verdict = degeneracy(_signed_sigma(G, signs), tol)
    case = None
    if verdict.is_degenerate:
        case = _classify_from_kernel(ns * signs[:, None], verdict.kernel, tol)
    return CaseyResult(signs=tuple(int(s) for s in signs), verdict=verdict, case=case)


def _common_value_gap(values, size: float) -> float:
    """Largest |value - c| for the common value c = +-size signed like the mean."""
    values = np.asarray(values)
    c = size if float(np.mean(values)) >= 0 else -size
    return float(np.max(np.abs(values - c)))


def casey_witness_check(
    case: CaseyCase, hyperplanes: Sequence[CoHyperplane], tol: float = 1e-7
) -> WitnessReport:
    """Verify a classification witness against the defining equations.

    The residual is the largest violation over the family; unit-norm
    defects of the witness vectors count towards it.  The equations see
    the coorientations: a tangent normal must meet every hyperplane normal
    in one common value c = +-1, an inclined normal in one common c =
    +-lambda, with the sign of c taken from the mean, so flipping one
    hyperplane of a tangent or inclined witness fails the check.  For the
    inclination case the bounds 0 <= lambda < 1 and linear independence of
    the pair are checked separately and can fail the report outright.
    """
    ns = np.stack([h.normal for h in hyperplanes])
    failures: list[str] = []
    if case.kind is CaseyCaseKind.TANGENT_HYPERPLANE_AT_INFINITY:
        w = as_vector(case.tangent_normal)
        residual = max(
            _common_value_gap([inner(n, w) for n in ns], 1.0),
            abs(norm_sq(w) - 1.0),
        )
    elif case.kind is CaseyCaseKind.COMMON_IDEAL_POINT:
        w = as_vector(case.ideal_point)
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0:
            return WitnessReport(math.inf, False, ("zero witness",))
        w = w / wnorm
        residual = max(
            float(np.max(np.abs([inner(n, w) for n in ns]))),
            abs(norm_sq(w)),
        )
    elif case.kind is CaseyCaseKind.ORTHOGONAL_EQUALLY_INCLINED:
        u = as_vector(case.orthogonal_normal)
        v = as_vector(case.inclined_normal)
        lam = float(case.inclination)
        residual = max(
            float(np.max(np.abs([inner(n, u) for n in ns]))),
            _common_value_gap([inner(n, v) for n in ns], lam),
            abs(norm_sq(u) - 1.0),
            abs(norm_sq(v) - 1.0),
        )
        if not (0.0 <= lam < 1.0):
            failures.append("inclination outside [0, 1)")
        svals = np.linalg.svd(np.stack([u, v]), compute_uv=False)
        if svals[-1] <= 1e-9 * svals[0]:
            failures.append("witness pair not independent")
    else:
        raise InvalidInput(f"unknown case kind {case.kind}")
    passed = residual <= tol and not failures
    return WitnessReport(residual=residual, passed=passed, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Euclidean sphere criterion


class EuclideanCaseKind(Enum):
    COMMON_TANGENT_SPHERE_OR_PLANE = "common_tangent_sphere_or_plane"
    COMMON_INTERSECTION_POINT = "common_intersection_point"
    ORTHOGONAL_EQUALLY_INCLINED = "orthogonal_equally_inclined"


@dataclass(frozen=True, eq=False)
class EuclideanCaseyCase:
    """Euclidean reading of a degenerate cooriented sphere family."""

    kind: EuclideanCaseKind
    tangent_surface: Optional[Union[CoSphereE, EuclideanPlane]] = None
    meeting_point: Optional[np.ndarray] = None
    meeting_point_at_infinity: bool = False
    orthogonal_surface: Optional[Union[CoSphereE, EuclideanPlane]] = None
    inclined_surface: Optional[Union[CoSphereE, EuclideanPlane]] = None
    inclination: Optional[float] = None


@dataclass(frozen=True, eq=False)
class CoroDResult:
    signs: tuple[int, ...]
    verdict: DegeneracyVerdict
    case: Optional[CaseyCase]
    euclidean: Optional[EuclideanCaseyCase]


def _euclidean_case(case: CaseyCase) -> EuclideanCaseyCase:
    if case.kind is CaseyCaseKind.TANGENT_HYPERPLANE_AT_INFINITY:
        return EuclideanCaseyCase(
            EuclideanCaseKind.COMMON_TANGENT_SPHERE_OR_PLANE,
            tangent_surface=normal_to_sphere_or_plane(case.tangent_normal),
        )
    if case.kind is CaseyCaseKind.COMMON_IDEAL_POINT:
        point = lightlike_to_boundary(case.ideal_point)
        return EuclideanCaseyCase(
            EuclideanCaseKind.COMMON_INTERSECTION_POINT,
            meeting_point=point,
            meeting_point_at_infinity=point is None,
        )
    return EuclideanCaseyCase(
        EuclideanCaseKind.ORTHOGONAL_EQUALLY_INCLINED,
        orthogonal_surface=normal_to_sphere_or_plane(case.orthogonal_normal),
        inclined_surface=normal_to_sphere_or_plane(case.inclined_normal),
        inclination=case.inclination,
    )


def corollary_d_test(
    spheres: Sequence[CoSphereE], tol: float = DEFAULT_TOL, search: bool = True
) -> CoroDResult:
    """Casey-type test for n+2 cooriented spheres in R^n.

    Works on the tau matrix directly; when degenerate, the spheres are
    lifted to hyperplane normals one dimension up, where the tau matrix
    equals -4 R C R for the sigma matrix C and radius diagonal R (checked
    numerically), and the hyperplane classification is translated back to
    Euclidean terms.
    """
    ss = list(spheres)
    if not all(isinstance(s, CoSphereE) for s in ss):
        raise InvalidInput("corollary_d_test expects cooriented Euclidean spheres")
    n = ss[0].n
    if any(s.n != n for s in ss):
        raise DimensionMismatch("spheres live in different dimensions")
    if len(ss) != n + 2:
        raise DimensionMismatch(f"need {n + 2} spheres in R^{n}, got {len(ss)}")
    if len(ss) > MAX_FAMILY:
        raise InvalidInput(f"family too large for sign search (max {MAX_FAMILY})")
    m = len(ss)
    parts = _tau_parts(ss)
    eps = np.array([s.eps for s in ss], dtype=float)
    if search:
        signs, _ = _sign_search(lambda sg: _signed_tau(parts, eps * sg), m)
    else:
        signs = np.ones(m)
    D = _signed_tau(parts, eps * signs)
    verdict = degeneracy(D, tol)
    if not verdict.is_degenerate:
        return CoroDResult(tuple(int(s) for s in signs), verdict, None, None)
    lifts = [sphere_lift(s.with_eps(int(s.eps * sg))) for s, sg in zip(ss, signs)]
    C = sigma_matrix(lifts)
    radii = np.array([s.radius for s in ss])
    R = np.outer(radii, radii)
    gap = np.abs(D + 4.0 * R * C)
    allowed = 1e-10 * np.maximum(np.maximum(np.abs(D), 4.0 * R * np.abs(C)), 1.0)
    if np.any(gap > allowed):
        raise GeometryError("tau matrix disagrees with the lifted sigma matrix")
    lift_verdict = degeneracy(C, tol)
    if lift_verdict.is_degenerate != verdict.is_degenerate:
        raise GeometryError("lifted degeneracy test disagrees with the direct one")
    ns = np.stack([h.normal for h in lifts])
    case = _classify_from_kernel(ns, lift_verdict.kernel, tol)
    return CoroDResult(tuple(int(s) for s in signs), verdict, case, _euclidean_case(case))
