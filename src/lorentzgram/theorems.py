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

import functools
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
    as_vector,
    degeneracy,
    first_nonzero_positive,
    gram,
    inner,
    metric_diag,
    norm_sq,
    _dot,
    _finite_dot,
    _lightlike,
    _products,
    _require_finite,
    _verdict,
)
from .models import lightlike_to_boundary, normal_to_sphere_or_plane, sphere_lifts
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
_STRUCTURE = 1e-9  # every threshold of a witness's structure; tol decides verdicts alone
_WITNESS_TOL = 1e-7  # largest residual casey_witness_check passes
_ON_SURFACE = 1e-7  # largest relative distance of a ptolemy1 point from its surface


# ---------------------------------------------------------------------------
# matrix builders


def lambda_sq_matrix(horospheres: Sequence[Horosphere]) -> np.ndarray:
    """Matrix of squared lambda lengths -<rep_i, rep_j>, zero on the diagonal
    and on concentric pairs."""
    return _lambda_sq(Horosphere.family(horospheres))


def half_dist_matrix(points: Sequence[HPoint]) -> np.ndarray:
    """Matrix of sinh^2(rho_ij / 2) = max(0, -(<p_i, p_j> + 1)/2), zero diagonal."""
    B = -(gram(HPoint.family(points)) + 1.0) / 2.0
    np.fill_diagonal(B, 0.0)
    return np.where(B > 0.0, B, 0.0)


def sigma_matrix(hyperplanes: Sequence[CoHyperplane]) -> np.ndarray:
    """Matrix of sigma invariants (<n_i, n_j> - 1)/2 of cooriented hyperplanes,
    zero diagonal."""
    G = gram(CoHyperplane.family(hyperplanes))
    return _signed_sigma(G, np.ones(G.shape[0]))


def _signed_sigma(G: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Sigma matrices of the normals with Gram matrix G flipped by signs.

    signs is one (m,) vector or a (k, m) stack; the result has shape
    signs.shape + (m,), and is exactly symmetric because gram's G is.
    """
    C = (signs[..., :, None] * signs[..., None, :] * G - 1.0) / 2.0
    diag = np.arange(G.shape[0])
    C[..., diag, diag] = 0.0
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
    c, r, _ = CoSphereE.family(spheres)
    # far or huge spheres overflow to inf here; casey_e rejects that before its search
    with np.errstate(over="ignore", invalid="ignore"):
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
    return _signed_tau(_tau_parts(spheres), CoSphereE.family(spheres)[2])


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


def relation_tangents(spheres: Sequence[CoSphereE], tol: float = DEFAULT_TOL, search: bool = True):
    """(signs, verdict, squares) of four cooriented spheres: the flip that
    corollary_d_test's search picks, with real tangent lengths certifying a
    degenerate flip, the verdict of its tau matrix, and the squared tangent
    lengths e_i e_j tau_ij, e = eps * signs, or None when one is negative."""
    parts = _tau_parts(spheres)
    _require_finite(*parts)  # before the search, whose stacked eigensolves need it
    eps = CoSphereE.family(spheres)[2]

    def squares(sg, verdict=None):
        t2 = np.where(np.outer(eps * sg, eps * sg) > 0, *parts)
        return t2 if (t2 >= 0.0).all() else None

    signs, verdict, _ = _searched_verdict(
        lambda sg: _signed_tau(parts, eps * sg), eps.size, tol, search, squares
    )
    return tuple(int(s) for s in signs), verdict, squares(signs)


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


def _hyperplane_witness(w: np.ndarray, X: np.ndarray) -> tuple[CoHyperplane, float]:
    """The hyperplane of the recovered normal w, scaled to unit length, and
    its residual: the largest |<x, normal>| over the rows x of X."""
    q = norm_sq(w)
    if q <= 0:
        raise NormalSearchFailed("recovered normal is not spacelike")
    witness = CoHyperplane(first_nonzero_positive(w / math.sqrt(q)))
    return witness, float(np.max(np.abs(X @ (witness.normal * metric_diag(X.shape[1])))))


def penner_test(horospheres: Sequence[Horosphere], tol: float = DEFAULT_TOL) -> PennerResult:
    """Do the ideal centres of n+1 horospheres bound a common hyperplane?

    Degeneracy of the squared-lambda-length matrix is the criterion.  When
    it fires and the centres are not all equal, the witness is the
    hyperplane whose boundary carries every centre; its normal annihilates
    every representative.  Since det G = -det(reps)^2, the normal is the
    Lorentzian dual of the Euclidean null vector of the representatives.
    """
    reps = Horosphere.family(horospheres)
    _check_family(reps, reps.shape[1])
    concentric = _concentric(reps)
    all_same = bool(np.all(concentric[0]))
    verdict = degeneracy(_lambda_sq(reps, concentric), tol)
    if not verdict.is_degenerate or all_same:
        return PennerResult(verdict, None, all_same, None)
    w = _kernel(reps, 1)[:, -1] * metric_diag(reps.shape[1])
    witness, residual = _hyperplane_witness(first_nonzero_positive(w / np.linalg.norm(w)), reps)
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
    the surface is a hypothesis and is checked first, at a fixed relative
    distance of 1e-7 whatever tol is.  The witness
    hyperplane is recovered by shifting the points by the umbilical datum,
    reading a normal off the shifted span, and correcting it back.
    """
    coords = HPoint.family(points)
    _check_family(coords, coords.shape[1])
    u = umbilical_datum(surface)
    if u.shape[0] != coords.shape[1]:
        raise DimensionMismatch("surface and points live in different dimensions")
    D = metric_diag(coords.shape[1])
    q = norm_sq(u)
    level = (q - 1.0) / 2.0
    umax = float(np.max(np.abs(u)))
    scale = (1.0 + np.max(np.abs(coords), axis=1)) * (1.0 + umax)
    if np.any(np.abs(coords @ (u * D) - level) > _ON_SURFACE * scale):
        raise HypothesisViolated("a point is not on the supplied surface")
    if min(abs(q - 1.0), abs(q + 1.0)) <= 1e-9 * (1.0 + umax**2):
        raise DegenerateDatum("umbilical datum has square norm too close to +1 or -1")
    verdict = degeneracy(half_dist_matrix(points), tol)
    if not verdict.is_degenerate:
        return Ptolemy1Result(verdict, None, None)
    w_shift = _kernel(coords - u, 1)[:, -1] * D
    mu = 2.0 * inner(u, w_shift) / (q - 1.0)
    return Ptolemy1Result(verdict, *_hyperplane_witness(w_shift - mu * u, coords))


def ptolemy2_test(points: Sequence[HPoint], tol: float = DEFAULT_TOL) -> DegeneracyVerdict:
    """Do n+2 points lie on a common horosphere, hypersphere, hyperplane or
    equidistant branch?  Degeneracy of the sinh^2(rho/2) matrix decides."""
    coords = HPoint.family(points)
    _check_family(coords, coords.shape[1] + 1)
    return degeneracy(half_dist_matrix(points), tol)


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


def _fit_from_direction(coords: np.ndarray, y: np.ndarray) -> UmbilicalFit:
    """Normalize a common direction <p_i, y> = const into an UmbilicalFit."""
    if float(np.max(np.abs(y))) <= _STRUCTURE:
        raise NoReliableKernel("fitted direction vanishes")
    q = _dot(y, y)  # y is read off validated points
    D = metric_diag(coords.shape[1])
    if _lightlike(q, y, _STRUCTURE):
        levels = coords @ (y * D)
        if y[-1] < 0:
            y, levels = -y, -levels
        m = float(np.mean(levels))
        if m >= 0:
            raise NoReliableKernel("lightlike fit has nonnegative level")
        kind, datum, offset = SurfaceKind.HOROSPHERE, y / (-m * math.sqrt(2.0)), HOROSPHERE_LEVEL
    elif q < 0:
        c = y / math.sqrt(-q)
        if c[-1] < 0:
            c = -c
        s = float(np.mean(coords @ (c * D)))
        if s > -1.0 + 1e-12:
            raise NoReliableKernel("timelike fit puts points at imaginary radius")
        kind, datum, offset = SurfaceKind.HYPERSPHERE, c, s
    else:
        v = y / math.sqrt(q)
        m = float(np.mean(coords @ (v * D)))
        if abs(m) <= _STRUCTURE:
            kind, datum, offset = SurfaceKind.HYPERPLANE, first_nonzero_positive(v), 0.0
        else:
            kind, datum, offset = SurfaceKind.EQUIDISTANT_BRANCH, (v if m > 0 else -v), abs(m)
    residual = float(np.max(np.abs(coords @ (datum * D) - offset)))
    return UmbilicalFit(kind, datum, offset, residual)


def ptolemy2_classify(points: Sequence[HPoint], tol: float = DEFAULT_TOL) -> UmbilicalFit:
    """Recover which umbilical hypersurface carries n+2 degenerate points.

    The points are appended a unit spacelike coordinate, making them
    lightlike one dimension up; a spacelike normal of their span decomposes
    into the surface datum and its offset.

    tol decides degeneracy alone.  The structure (the span's nullity, the
    normal, the kind of the fitted direction) is decided at a fixed
    threshold of 1e-9: points degenerate at a looser tol alone may have no
    fit there, and raise NoReliableKernel or NormalSearchFailed.
    """
    if not ptolemy2_test(points, tol).is_degenerate:
        raise NotDegenerate("points are not degenerate at this tolerance")
    return _ptolemy2_fit(points)


def _kernel(rows: np.ndarray, least: int) -> np.ndarray:
    """Orthonormal columns spanning the null space of rows, no fewer than
    least of them, from one full SVD: the rank counts the singular values
    above _STRUCTURE times the largest, floored at 1."""
    _, svals, vt = np.linalg.svd(rows)
    rank = int(np.sum(svals > _STRUCTURE * svals.max(initial=1.0)))
    return vt[min(rank, rows.shape[1] - least) :].T


def _ptolemy2_fit(points: Sequence[HPoint]) -> UmbilicalFit:
    """ptolemy2_classify of the points, already found degenerate."""
    coords = HPoint.family(points)
    m, dim = coords.shape
    basis = _kernel(np.concatenate([np.ones((m, 1)), coords], axis=1), 1)
    candidates = basis * metric_diag(dim + 1)[:, None]
    eigvals, eigvecs = np.linalg.eigh(gram(candidates.T))
    if eigvals[-1] <= _STRUCTURE:
        raise NormalSearchFailed("span admits no spacelike normal")
    w = candidates @ eigvecs[:, -1]
    w = w / math.sqrt(eigvals[-1])
    v = w[1:]
    if float(np.max(np.abs(v))) <= _STRUCTURE * max(1.0, abs(w[0])):
        raise NoReliableKernel("normal has no component in the original space")
    return _fit_from_direction(coords, v)


def fit_umbilical(points: Sequence[HPoint]) -> UmbilicalFit:
    """Fit the umbilical hypersurface through n+1 points directly.

    Solves <p_i - p_1, y> = 0 for a common direction y and classifies it.
    With generically placed points the fit is unique; when several
    hypersurfaces fit, one of them is returned.
    """
    coords = HPoint.family(points)
    _check_family(coords, coords.shape[1])
    diffs = coords[1:] - coords[0]
    h = _kernel(diffs * metric_diag(coords.shape[1]), 1)[:, -1]
    return _fit_from_direction(coords, h)


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


@dataclass(frozen=True)
class WitnessReport:
    residual: float
    passed: bool
    failures: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class CaseyResult:
    """witness_report is casey_witness_check of case on the normals flipped
    by signs when the search already ran it, else None."""

    signs: tuple[int, ...]
    verdict: DegeneracyVerdict
    case: Optional[CaseyCase]
    witness_report: Optional[WitnessReport] = None


_SIGN_BLOCK = 128  # sign vectors per stacked eigensolve; larger blocks only cost memory
_GIVEN = np.zeros(1, dtype=np.int64)  # sign vector 0: every sign +1
_EPS = float(np.finfo(float).eps)
_PLUS_MINUS = np.array([1.0, -1.0])


def _signs_of(k: np.ndarray, length: int) -> np.ndarray:
    """The sign vectors of the given length numbered k: entry i is -1 when
    bit length - 1 - i of k is set.  Numbered from 0 up, the vectors below
    2^(length-1) have a leading +1 and run lexicographically, +1 before -1."""
    return _PLUS_MINUS[(k[:, None] >> np.arange(length - 1, -1, -1)) & 1]


@functools.cache
def _sign_table(length: int) -> np.ndarray:
    """_signs_of every k below 2^length, read-only."""
    table = _signs_of(np.arange(1 << length), length)
    table.flags.writeable = False
    return table


def _solved(matrices_of, m: int, rows: np.ndarray):
    """Per block of at most _SIGN_BLOCK of the sign vectors numbered rows
    (each below 2^(m-1)), in order: the signs, their matrices_of stack,
    and per matrix the ratio of its smallest |eigenvalue| to its largest
    floored at 1, from one stacked eigvalsh."""
    for start in range(0, rows.size, _SIGN_BLOCK):
        signs = _signs_of(rows[start : start + _SIGN_BLOCK], m)
        matrices = matrices_of(signs)
        sigmas = np.abs(np.linalg.eigvalsh(matrices))
        yield signs, matrices, sigmas.min(axis=1) / np.maximum(sigmas.max(axis=1), 1.0)


def _screen(tol: float, m: int) -> float:
    """Largest eigvalsh ratio of a vector that degeneracy(matrix, tol) can
    call degenerate: its eigh and the stacked eigvalsh each round an
    eigenvalue by less than 32 m eps times the largest."""
    return tol + 64.0 * m * _EPS


def _candidates(m: int, ratio: float, rank_one):
    """(rows, pencil): the numbers of the sign vectors of m objects whose
    ratio the _SignPencil of rank_one cannot place above ratio, and that
    pencil; or every number and None without rank_one or below 7 objects,
    where the certificate's fixed cost (one eigh, the table of y, its
    counts) is at least that of the 32 solves it would save."""
    if m < 7 or rank_one is None:
        return np.arange(1 << (m - 1)), None
    pencil = _SignPencil(*rank_one)
    return pencil.uncertain(ratio), pencil


def _sign_search(matrices_of, m: int, tol: float, certify, rank_one=None):
    """The coorientation casey_test and corollary_d_test report.

    The first sign vector in _signs_of order whose matrix
    degeneracy(., min(tol, DEFAULT_TOL)) calls degenerate, and for which
    certify(signs, verdict) returns a witness, wins: one certified
    degenerate coorientation is all the converse needs.  When no vector
    qualifies, the vector of least singular value ratio wins, the earliest
    on ties.  Returns (signs, ratio, verdict, witness): ratio is the
    stacked eigvalsh ratio of signs; verdict and certify's witness are
    given for a qualifying vector and are None for the least ratio.  A
    degenerate verdict is the same at tol.

    A tol looser than DEFAULT_TOL does not widen the search: it would add
    the near-cancelling vectors of rank-deficient families, hundreds at
    m = 16 for an orth_equal family at 1e-7, each costing a classification
    whose witness fails.  Without them the least ratio is reported, and it
    is as degenerate as any of them.

    matrices_of maps a (k, m) block of sign vectors to the (k, m, m) stack
    of their matrices.  The given coorientation (vector 0, every sign +1)
    is solved first, and ends the search when it qualifies.  The other
    _candidates of the screen, the largest ratio that can be degenerate,
    follow in order, in chunks of 1, 4, 16, ... up to _SIGN_BLOCK vectors,
    so that a hit early in the order ends the search.  Each chunk is
    solved in one stacked eigvalsh; only a vector whose ratio is at most
    the screen gets a verdict, and since the matrices are finite and
    exactly symmetric by construction, its _verdict is taken without
    degeneracy's checks.  rank_one = (M, rho, b) states that the matrix of
    s has the spectrum of M + rho (s*b)(s*b)^T.  The least solved ratio
    wins when every vector was solved or it is at most the screen, since
    each unsolved vector is then certified above it; otherwise
    _SignPencil.least finds the least ratio.  Vector 0 is solved once.
    The answer is that of solving every vector in order.
    """
    tol = min(tol, DEFAULT_TOL)
    screen = _screen(tol, m)
    rows, pencil, best, given = _GIVEN, None, None, None
    start, size = 0, 1
    while start < rows.size:
        signs, matrices, ratios = next(_solved(matrices_of, m, rows[start : start + size]))
        for i in np.flatnonzero(ratios <= screen):
            verdict = _verdict(matrices[i], tol)
            if verdict.is_degenerate:
                witness = certify(signs[i], verdict)
                if witness is not None:
                    return signs[i], float(ratios[i]), verdict, witness
        i = int(ratios.argmin())  # the earliest on ties
        if best is None or ratios[i] < best[1]:
            best = signs[i], float(ratios[i])
        start, size = start + size, min(4 * size, _SIGN_BLOCK)
        if given is None:  # vector 0 does not qualify: the other candidates follow
            given = best[1]
            rows, pencil = _candidates(m, screen, rank_one)
            rows, start, size = rows[rows > 0], 0, 1
    if pencil is None or best[1] <= screen:
        return (*best, None, None)
    row, ratio = pencil.least(
        best[1], lambda rows: np.concatenate([r for _, _, r in _solved(matrices_of, m, rows)]), given
    )
    return _signs_of(np.array([row]), m)[0], ratio, None, None


def _sigma_rank_one(G: np.ndarray):
    """(M, rho, b) of the sigma matrices: _signed_sigma(G, s) has the
    spectrum of G/2 - s s^T/2, the diagonal of G read as exactly 1."""
    M = G / 2.0
    np.fill_diagonal(M, 0.5)
    return M, -0.5, np.ones(G.shape[0])


def _tau_rank_one(parts: tuple[np.ndarray, np.ndarray], eps: np.ndarray, radii: np.ndarray):
    """(M, rho, b) of the tau matrices: _signed_tau(parts, eps * s) has the
    spectrum of A + 2 (e*r)(e*r)^T, e = eps * s, A = (same + opposite)/2."""
    same, opposite = parts
    return (same + opposite) / 2.0, 2.0, eps * radii


_SEEDS = 8  # rows solved per round of _SignPencil.least
_FEW = 32  # rows that cost less to solve than to bound further
_NEWTON_ROWS = 2048  # the most rows that get the Newton bound on smax
_NEWTON_STEPS = 4  # for the outer secular root; an unconverged row keeps the chord bound


class _SignPencil:
    """Certified spectral bounds for the matrices K_s = M + rho z z^T,
    z = s*b, over the sign vectors s numbered below 2^(m-1) (see _signs_of).

    With M = Q diag(lam) Q^T, K_s has the spectrum of diag(lam) + rho y y^T
    with y = Q^T z.  Sylvester's law of inertia on the bordered matrix
    [[diag(lam) - mu, y], [y^T, -1/rho]] counts its eigenvalues below mu:
    #{lam_i < mu} + [h(mu) < 0] - [rho > 0], where h(mu) = -1/rho -
    sum y_i^2 / (lam_i - mu).  A row whose counts at T and -T agree has no
    eigenvalue in [-T, T).

    eta bounds the distance between the computed spectra and that of
    diag(lam) + rho y y^T: the backward error of eigh, the rounding of y
    and of the built matrices, and the error of eigvalsh on the rows that
    are solved (together below 1 m eps scale on every generated family).
    A count at a mu within 2 eta of some lam_i, or with |h| inside its
    rounding bound, is not trusted, and its row is kept.
    """

    def __init__(self, M: np.ndarray, rho: float, b: np.ndarray):
        m = b.size
        self.lam, Q = np.linalg.eigh(M)
        self.rho = rho
        # y for every sign vector, the sum of the rows of V = b*Q with the
        # signs s: the high and the low bits of the row index are summed
        # apart, and the halves added by broadcasting.  The table is built
        # transposed, so that y2 is Fortran-ordered and a matvec over every
        # row runs along the rows
        V = b[:, None] * Q
        h = (m - 1) // 2
        high = V[0] + _sign_table(h) @ V[1 : h + 1]
        low = _sign_table(m - 1 - h) @ V[h + 1 :]
        Y = np.empty((m, len(high), len(low)))
        Y[:] = high.T[:, :, None]
        Y += low.T[:, None, :]
        self.y2 = np.square(Y, out=Y).reshape(m, -1).T
        n = len(self.y2)
        # every row has sum y_i^2 = |b|^2 but for rounding; mass bounds it
        self.mass = float(b @ b) * (1.0 + 1e-9)
        scale = float(np.max(np.abs(self.lam))) + abs(rho) * self.mass
        self.eta = 32.0 * m * _EPS * scale
        self.weyl = scale + 2.0 * self.eta  # bounds every computed |eigenvalue|
        self.gamma = 2.0 * (m + 4) * _EPS  # relative rounding of a sum of m terms
        self.smax = np.full(n, np.nan)  # Newton bounds, filled on demand

    def _count(self, y2: np.ndarray, mu: np.ndarray):
        """Eigenvalues below mu for the rows y2, and whether each count is
        untrusted, as (rows, k) arrays.  mu is k values shared by every
        row, each at least 2 eta off every lam_i, which costs a matvec
        apiece, or one row of k values per row."""
        lam = self.lam
        j = np.searchsorted(lam, mu)  # lam_i < mu exactly for i < j
        # the lam_i nearest mu are its neighbours in the sorted lam
        gap = np.minimum(np.abs(lam[np.maximum(j - 1, 0)] - mu),
                         np.abs(lam[np.minimum(j, lam.size - 1)] - mu))
        d = lam - mu[..., None]
        if mu.ndim == 1:
            # einsum, not BLAS: a threaded gemv over every row stalls when
            # another process holds the second core
            s = np.einsum("ij,kj->ik", y2, np.reciprocal(d, out=d))
            near = False
        else:
            near = gap < 2.0 * self.eta
            d[near] = 1.0
            s = np.einsum("ij,ikj->ik", y2, np.reciprocal(d, out=d))
        h = -1.0 / self.rho - s
        count = j + (h < 0) - (self.rho > 0)
        # sum y_i^2 / |lam_i - mu| <= mass / gap bounds the terms of h; a
        # row nearer than 2 eta is untrusted whatever the bound
        bound = 1.0 / abs(self.rho) + self.mass / np.maximum(gap, self.eta)
        untrusted = near | (np.abs(h) <= self.gamma * bound)
        return count, untrusted

    def _clear(self, y2: np.ndarray, T) -> np.ndarray:
        """Mask of the rows y2 certified to have no eigenvalue in [-T, T),
        for one T or one per row."""
        T = np.asarray(T)
        count, untrusted = self._count(y2, np.stack([T, -T], axis=-1))
        return (count[:, 0] == count[:, 1]) & ~(untrusted[:, 0] | untrusted[:, 1])

    def _off_spectrum(self, T: float) -> float:
        """T widened until +-T sit at least 2 eta from every lam_i, by one ulp
        at least per step: T + 2 eta can round back within 2 eta of lam_i."""
        while True:
            near = np.abs(np.abs(self.lam) - T) < 2.0 * self.eta
            if not near.any():
                return T
            widened = float(np.max(np.abs(self.lam[near]))) + 2.0 * self.eta
            T = max(widened, math.nextafter(T, math.inf))

    def _outer_gaps(self):
        """The end of lam the outer root leaves from, and the gaps g_i >= 0
        of every lam_i to it."""
        end = 0 if self.rho < 0 else -1
        return end, np.abs(self.lam - self.lam[end])

    @functools.cached_property
    def _inner(self) -> np.ndarray:
        """Per row, a bound on the eigenvalue at the end of lam the outer
        root does not leave.

        That eigenvalue moves inward by t: for rho > 0 it solves rho y_1^2
        / t = 1 + rho sum_{i>1} y_i^2 / (g_i - t), t in (0, g_2), with g_i
        = lam_i - lam_1 >= g_2, so t^2 - B t + rho y_1^2 g_2 <= 0 with B =
        g_2 + rho sum y_i^2, and t is at least the lesser root, which only
        falls when mass stands in for the sum (mirrored for rho < 0).
        """
        end, step = (0, 1) if self.rho > 0 else (-1, -1)
        g2 = abs(float(self.lam[end + step] - self.lam[end]))
        c = abs(self.rho) * self.y2[:, end] * g2
        B = g2 + abs(self.rho) * self.mass
        t = 2.0 * c / np.maximum(B + np.sqrt(np.maximum(B * B - 4.0 * c, 0.0)), _EPS)
        return self.lam[end] + step * t * (1.0 - 1e-9)

    def _smax_from(self, d: np.ndarray, inner: np.ndarray) -> np.ndarray:
        """A bound on the largest computed |eigenvalue| from a bound d on
        the distance of the outer root from its end of lam, and _inner: the
        spectrum lies between the two."""
        end, _ = self._outer_gaps()
        outer = self.lam[end] - d if self.rho < 0 else self.lam[end] + d
        return np.maximum(np.abs(outer), np.abs(inner)) + 2.0 * self.eta

    @functools.cached_property
    def _chord(self) -> np.ndarray:
        """Per row, a bound on the largest computed |eigenvalue| from two
        sums over the row.

        The outer root lies at the distance d from its end of lam where
        |rho| sum y_i^2 / (g_i + d) = 1.  On [0, G], G = max g_i, 1/(g + d)
        lies below its chord, so |rho| (Y/d - S/(d (G + d))) >= 1 with Y =
        sum y_i^2 and S = sum y_i^2 g_i: d is at most the positive root of
        d^2 + (G - P) d - Q = 0, Q = |rho| (Y G - S) >= 0, for any P >=
        |rho| Y, such as |rho| mass.  A row whose root overflows keeps
        Weyl's bound.
        """
        _, g = self._outer_gaps()
        G, P = float(g.max()), abs(self.rho) * self.mass
        # float_power is the C pow that Python's ** calls, but overflows to inf
        with np.errstate(over="ignore", invalid="ignore"):
            Q = abs(self.rho) * np.maximum(np.einsum("ij,j->i", self.y2, G - g), 0.0)
            disc = np.sqrt(np.float_power(G - P, 2.0) + 4.0 * Q)
            # the form of the root without cancellation for the sign of P - G
            d = (P - G + disc) / 2.0 if P >= G else 2.0 * Q / np.maximum(G - P + disc, _EPS)
            bound = self._smax_from(d * (1.0 + 1e-9) + 2.0 * self.eta, self._inner)
        return np.where(np.isfinite(disc), bound, self.weyl)

    def _smax_bound(self, rows: np.ndarray, y2: np.ndarray) -> np.ndarray:
        """Per row, a certified bound on the largest computed |eigenvalue|,
        near the truth where the outer root sets it.

        Newton on the concave 1/sum(...) climbs to the outer root's
        distance d, from near Jensen's bound d >= |rho| Y - S/Y; the
        widened iterate is certified by one count, or the chord bound
        stays, as it does where a division by zero or an overflow leaves the
        iterate not finite.
        """
        todo = np.isnan(self.smax[rows])
        if todo.any():
            lam, y2, r, rows = self.lam, y2[todo], abs(self.rho), rows[todo]
            end, g = self._outer_gaps()
            Y = self.mass
            d = np.maximum(r * Y - np.einsum("ij,j->i", y2, g) / Y, self.eta)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                for _ in range(_NEWTON_STEPS):
                    q = 1.0 / (g + d[:, None])
                    psi = np.einsum("ij,ij->i", y2, q)
                    d = d + psi * (r * psi - 1.0) / np.einsum("ij,ij->i", y2, q * q)
            formed = np.isfinite(d)
            d = np.where(formed, d, 0.0) * (1.0 + 1e-6) + 2.0 * self.eta
            outer = lam[end] - d if self.rho < 0 else lam[end] + d
            count, untrusted = self._count(y2, outer[:, None])
            certified = formed & (count[:, 0] == (0 if self.rho < 0 else lam.size)) & ~untrusted[:, 0]
            bound = self._smax_from(d, self._inner[rows])
            self.smax[rows] = np.where(certified, np.minimum(bound, self._chord[rows]), self._chord[rows])
        return self.smax[rows]

    def uncertain(self, ratio: float, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The rows (all, or those listed) whose singular value ratio
        smin / max(smax, 1) is not certified to exceed ratio.

        Weyl's bound on smax serves all rows with one matvec per count.
        The rows it kept are retried with each row's chord bound on smax,
        and, if at most _NEWTON_ROWS are left, with its Newton bound; once
        _FEW rows or fewer are left, no further stage runs.
        """
        if rows is None:
            rows = np.arange(len(self.y2))
        y2 = self.y2 if rows.size == len(self.y2) else self.y2[rows]
        slack = 1.0 + 1e-9  # keeps the rounded quotient of a dropped row above ratio
        T = ratio * max(self.weyl, 1.0) * slack + 3.0 * self.eta
        keep = ~self._clear(y2, self._off_spectrum(T))
        rows = rows[keep]
        # a per-row bound on smax tightens T only where ratio, not eta, sets it
        if rows.size <= _FEW or ratio * max(self.weyl, 1.0) <= self.eta:
            return rows
        y2 = y2[keep]
        T = ratio * np.maximum(self._chord[rows], 1.0) * slack + 3.0 * self.eta
        keep = ~self._clear(y2, T)
        rows, y2 = rows[keep], y2[keep]
        if _FEW < rows.size <= _NEWTON_ROWS:
            T = ratio * np.maximum(self._smax_bound(rows, y2), 1.0) * slack + 3.0 * self.eta
            rows = rows[~self._clear(y2, T)]
        return rows

    def least(self, best: float, solve, given: float) -> tuple[int, float]:
        """The row of least exact ratio, the earliest on ties, and its ratio.

        solve(rows) returns the exact ratios of the listed rows, given is
        the exact ratio of row 0, and best is the least exact ratio of rows
        solved before, given included.  Each round solves the _SEEDS
        unsolved rows of least estimated ratio and keeps the rows that
        uncertain(best) cannot place above the new best.  Rounds stop at
        _FEW rows, or when one drops no row; the unsolved rows left are
        then solved.  The estimate is |h(0)|, proportional to |det K_s| by
        the determinant lemma, over the chord bound on smax.
        """
        lam = np.where(np.abs(self.lam) < self.eta, self.eta, self.lam)
        score = np.abs(1.0 / self.rho + np.einsum("ij,j->i", self.y2, 1.0 / lam))
        score /= np.maximum(self._chord, 1.0)
        ratios = np.full(len(self.y2), np.nan)
        ratios[0] = given
        rows = np.arange(len(self.y2))
        while rows.size > _FEW:
            fresh = rows[np.isnan(ratios[rows])]
            if not fresh.size:
                break
            if fresh.size > _SEEDS:
                fresh = np.sort(fresh[np.argpartition(score[fresh], _SEEDS)[:_SEEDS]])
            ratios[fresh] = solve(fresh)
            best = min(best, float(np.min(ratios[fresh])))
            kept = self.uncertain(best, rows)
            if kept.size == rows.size:
                break
            rows = kept
        fresh = rows[np.isnan(ratios[rows])]
        if fresh.size:
            ratios[fresh] = solve(fresh)
        i = rows[int(np.argmin(ratios[rows]))]
        return int(i), float(ratios[i])


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
    wu = _dot(w, u)
    s = 1.0 if wu >= 0 else -1.0
    t = abs(wu) + math.sqrt(max(0.0, alpha * alpha - _dot(w, w))) + 1.0
    z = w + (t * s) * u
    qz = _dot(z, z)
    while qz <= alpha * alpha + 1e-12:
        t *= 2.0
        z = w + (t * s) * u
        qz = _dot(z, z)
    w_star = first_nonzero_positive(z / math.sqrt(qz))
    lam = abs(alpha) / math.sqrt(qz)
    return CaseyCase(
        CaseyCaseKind.ORTHOGONAL_EQUALLY_INCLINED,
        orthogonal_normal=first_nonzero_positive(u),
        inclined_normal=w_star,
        inclination=lam,
    )


def _classify_from_kernel(ns: np.ndarray, kernel: np.ndarray) -> CaseyCase:
    """Turn a kernel vector of the sigma matrix into a geometric witness.

    Follows the converse construction: the weighted sum v of the normals
    either is itself the witness (spacelike: common tangent hyperplane at
    infinity; lightlike: common ideal point), or it vanishes and a
    two-dimensional complement of the normal differences supplies the
    witness pair.

    The structure (v ~ 0, lightlike, rank) is decided at the fixed
    threshold _STRUCTURE whatever tol called the matrix degenerate: a
    looser threshold calls an exact family's tangent witness lightlike or
    zero.  A kernel with none of the structures there raises
    NoReliableKernel.  ns is a validated family: every product is _dot.
    """
    v = ns.T @ kernel
    big = float(np.abs(ns).max())
    if float(np.abs(v).max()) > _STRUCTURE * (1.0 + float(np.abs(kernel).sum()) * big):
        nu = _dot(v, v)
        if _lightlike(nu, v, _STRUCTURE):
            return CaseyCase(CaseyCaseKind.COMMON_IDEAL_POINT, ideal_point=_forward_unit(v))
        if nu < 0:
            raise NoReliableKernel("weighted normal combination is timelike")
        return CaseyCase(
            CaseyCaseKind.TANGENT_HYPERPLANE_AT_INFINITY,
            tangent_normal=first_nonzero_positive(v / math.sqrt(nu)),
        )
    # v ~ 0: the differences n_i - n_last span at most n-1 dimensions, so
    # their orthogonal complement holds at least a plane to choose from
    D = metric_diag(ns.shape[1])
    B = _kernel((ns[:-1] - ns[-1]) * D, 2)
    c = B.T @ (D * ns[-1])
    cnorm = float(np.linalg.norm(c))
    if cnorm <= _STRUCTURE * (1.0 + big):
        u, w, alpha = B[:, 0], B[:, 1], float(c[1])
    else:
        coeff = _kernel(c[None, :], B.shape[1] - 1)[:, 0]
        u = B @ coeff
        w = B @ (c / cnorm)
        alpha = cnorm
    qu = _dot(u, u)
    if _lightlike(qu, u, _STRUCTURE):
        return CaseyCase(CaseyCaseKind.COMMON_IDEAL_POINT, ideal_point=_forward_unit(u))
    if qu > 0:
        return _case_iii(u / math.sqrt(qu), w, alpha)
    # u timelike: project w off u and renormalize
    u = u / math.sqrt(-qu)
    y = w + _dot(w, u) * u
    qy = _dot(y, y)
    if qy <= _STRUCTURE:
        raise NoReliableKernel("projected witness direction degenerates")
    y = y / math.sqrt(qy)
    alpha = alpha / math.sqrt(qy)
    if abs(abs(alpha) - 1.0) <= _STRUCTURE:
        return CaseyCase(
            CaseyCaseKind.TANGENT_HYPERPLANE_AT_INFINITY,
            tangent_normal=first_nonzero_positive(y),
        )
    if abs(alpha) <= _STRUCTURE:
        return _case_iii(y, u, 0.0)
    if abs(alpha) > 1.0:
        raise NoReliableKernel("inclination outside the unit interval")
    z = y / alpha + math.sqrt(max(0.0, 1.0 / alpha**2 - 1.0)) * u
    qz = _dot(z, z)
    return CaseyCase(
        CaseyCaseKind.TANGENT_HYPERPLANE_AT_INFINITY,
        tangent_normal=first_nonzero_positive(z / math.sqrt(qz)),
    )


def _checked_case(ns: np.ndarray, kernel: np.ndarray) -> Optional[tuple[CaseyCase, WitnessReport]]:
    """The case classified from a kernel of the sigma matrix of the normals
    ns (coorientations applied) with its casey_witness_check report, or None
    when the classification fails or the report does not pass."""
    try:
        case = _classify_from_kernel(ns, kernel)
    except GeometryError:
        return None
    report = casey_witness_check(case, ns)
    return (case, report) if report.passed else None


def _searched_verdict(matrices_of, m: int, tol: float, search: bool, certify, rank_one=None):
    """(signs, verdict, witness) of _sign_search, or of the given signs (all
    +1) without search and their verdict at tol.  MAX_FAMILY bounds the
    search alone.  The matrices are finite and exactly symmetric by
    construction, so verdicts skip degeneracy's checks."""
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    signs, verdict, witness = np.ones(m), None, None
    if search:
        if m > MAX_FAMILY:
            raise InvalidInput(f"family too large for sign search (max {MAX_FAMILY})")
        signs, _, verdict, witness = _sign_search(matrices_of, m, tol, certify, rank_one)
    if verdict is None:
        verdict = _verdict(matrices_of(signs), tol)
    return signs, verdict, witness


def _searched_case(matrices_of, m: int, tol: float, search: bool, frame, rank_one):
    """(signs, verdict, case, witness_report) of casey_test or
    corollary_d_test, whose matrices over sign vectors are matrices_of.

    frame(signs, verdict) gives the flipped normals and the kernel vector
    of their sigma matrix.  A degenerate verdict with no certified case
    from the search is classified from them; case is None when the kernel
    has no structure at _STRUCTURE, as at a looser tol alone.
    """
    signs, verdict, checked = _searched_verdict(
        matrices_of, m, tol, search, lambda s, v: _checked_case(*frame(s, v)), rank_one
    )
    case, report = checked or (None, None)
    if case is None and verdict.is_degenerate:
        ns, kernel = frame(signs, verdict)
        try:
            case = _classify_from_kernel(ns, kernel)
        except NoReliableKernel:
            pass
    return tuple(int(s) for s in signs), verdict, case, report


def casey_classify(hyperplanes: Sequence[CoHyperplane], tol: float = DEFAULT_TOL) -> CaseyCase:
    """Classify a degenerate cooriented hyperplane family into its case.

    The coorientations are taken as given (no sign search).  Raises
    NotDegenerate when the sigma matrix is not singular at this tolerance.
    The three cases can overlap; the returned one is whichever the kernel
    construction reaches, and it is always checkable with
    casey_witness_check.
    """
    ns = CoHyperplane.family(hyperplanes)
    _check_family(ns, ns.shape[1])
    C = sigma_matrix(hyperplanes)
    verdict = degeneracy(C, tol)
    if not verdict.is_degenerate:
        raise NotDegenerate("sigma matrix is not degenerate at this tolerance")
    residual = float(np.max(np.abs(C @ verdict.kernel)))
    if residual > _WITNESS_TOL * (verdict.sigma_max + 1.0):
        raise NoReliableKernel("kernel residual too large to classify")
    return _classify_from_kernel(ns, verdict.kernel)


def casey_test(
    hyperplanes: Sequence[CoHyperplane], tol: float = DEFAULT_TOL, search: bool = True
) -> CaseyResult:
    """Degeneracy test for n+1 cooriented hyperplanes.

    With search enabled, the 2^n coorientation flips (the first hyperplane
    held fixed) are tried in lexicographic order with +1 before -1.  The
    first flip whose sigma matrix is degenerate at tol (capped at
    DEFAULT_TOL for the search), and whose witness passes
    casey_witness_check, is reported and ends the search.  A flip
    that is degenerate at tol by near-cancellation, with no witness, does
    not count.  When no flip qualifies, the flip of least singular value
    ratio is reported, the earliest on ties.  When the reported flip is
    degenerate, the case classification runs on the flipped normals; case
    is None when it finds no structure (see _classify_from_kernel).
    """
    ns = CoHyperplane.family(hyperplanes)
    _check_family(ns, ns.shape[1])
    m = ns.shape[0]
    G = gram(ns)
    _require_finite(G)  # before the search, whose stacked eigensolves need it
    return CaseyResult(*_searched_case(
        lambda s: _signed_sigma(G, s), m, tol, search,
        lambda s, v: (ns * s[:, None], v.kernel), _sigma_rank_one(G),
    ))


def casey_witness_check(
    case: CaseyCase,
    hyperplanes: Union[Sequence[CoHyperplane], np.ndarray],
    tol: float = _WITNESS_TOL,
) -> WitnessReport:
    """Verify a classification witness against the defining equations.

    The family is given as cooriented hyperplanes or as the (m, n+1) array
    of their normals.

    The residual is the largest violation over the family; unit-norm
    defects of the witness vectors count towards it.  The equations see
    the coorientations: a tangent normal must meet every hyperplane normal
    in one common value c = +-1, an inclined normal in one common c =
    +-lambda, with the sign of c taken from the mean, so flipping one
    hyperplane of a tangent or inclined witness fails the check.  For the
    inclination case the bounds 0 <= lambda < 1 and linear independence of
    the pair are checked separately and can fail the report outright.
    """
    ns = hyperplanes
    if not isinstance(ns, np.ndarray):
        ns = CoHyperplane.family(ns)
    elif not np.isfinite(ns).all():
        raise InvalidInput("coordinates must be finite")
    # (witness vector, its square norm, its common value with the normals)
    if case.kind is CaseyCaseKind.TANGENT_HYPERPLANE_AT_INFINITY:
        terms = [(case.tangent_normal, 1.0, 1.0)]
    elif case.kind is CaseyCaseKind.COMMON_IDEAL_POINT:
        w = as_vector(case.ideal_point)
        with np.errstate(over="ignore"):
            wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0:
            return WitnessReport(math.inf, False, ("zero witness",))
        if wnorm == math.inf:  # w / wnorm would be a zero witness that passes
            raise InvalidInput("inner product is not representable")
        terms = [(w / wnorm, 0.0, 0.0)]
    elif case.kind is CaseyCaseKind.ORTHOGONAL_EQUALLY_INCLINED:
        lam = float(case.inclination)
        terms = [(case.orthogonal_normal, 1.0, 0.0), (case.inclined_normal, 1.0, lam)]
    else:
        raise InvalidInput(f"unknown case kind {case.kind}")
    witnesses, gaps, defects = [as_vector(x) for x, _, _ in terms], [], []
    for w, (_, norm, value) in zip(witnesses, terms):
        if ns.ndim != 2 or ns.shape[1] != w.shape[0]:
            raise DimensionMismatch(f"rows of shape {ns.shape} and length {w.shape[0]} differ")
        q = _finite_dot(w, w)
        products = _products(ns, w)  # all of them in one batch
        c = value if float(products.sum()) / products.size >= 0 else -value  # signed like the mean
        gaps.append(float(np.abs(products - c).max()))
        defects.append(abs(q - norm))
    residual = max(gaps + defects)
    failures: list[str] = []
    if case.kind is CaseyCaseKind.ORTHOGONAL_EQUALLY_INCLINED:
        if not (0.0 <= lam < 1.0):
            failures.append("inclination outside [0, 1)")
        svals = np.linalg.svd(np.array(witnesses), compute_uv=False)
        if svals[-1] <= 1e-9 * svals[0]:
            failures.append("witness pair not independent")
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
    """lifts is sphere_lifts of the spheres when a case was classified on
    them, else None; witness_report is as in CaseyResult, on the lifts.
    euclidean, the Euclidean reading of case, is built when first read."""

    signs: tuple[int, ...]
    verdict: DegeneracyVerdict
    case: Optional[CaseyCase]
    lifts: Optional[np.ndarray] = None
    witness_report: Optional[WitnessReport] = None

    @functools.cached_property
    def euclidean(self) -> Optional[EuclideanCaseyCase]:
        return None if self.case is None else _euclidean_case(self.case)


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
    equals -4 R C R for the sigma matrix C and radius diagonal R.  So R k
    spans the kernel of C for the kernel k of tau; the hyperplane
    classification runs on it and is translated back to Euclidean terms.
    The coorientation search and a case of None follow casey_test: the
    first flip whose tau matrix is degenerate at tol (capped at DEFAULT_TOL
    for the search) and whose witness checks on the flipped lifts, else the
    flip of least ratio.
    """
    c, radii, eps = CoSphereE.family(spheres)
    m, n = c.shape
    if m != n + 2:
        raise DimensionMismatch(f"need {n + 2} spheres in R^{n}, got {m}")
    parts = _tau_parts(spheres)
    _require_finite(*parts)  # before the search, whose stacked eigensolves need it

    @functools.cache
    def lifts() -> np.ndarray:
        # only a degenerate tau matrix needs the lifts
        return sphere_lifts(spheres)

    def frame(sg: np.ndarray, verdict: DegeneracyVerdict):
        k = radii * verdict.kernel
        return lifts() * sg[:, None], k / np.linalg.norm(k)

    signs, verdict, case, report = _searched_case(
        lambda sg: _signed_tau(parts, eps * sg), m, tol, search,
        frame, _tau_rank_one(parts, eps, radii),
    )
    if case is None:
        return CoroDResult(signs, verdict, None)
    return CoroDResult(signs, verdict, case, lifts(), report)
