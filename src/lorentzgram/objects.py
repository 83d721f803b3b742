"""Geometric objects in hyperbolic n-space and their pairwise invariants.

Points, horospheres, cooriented hyperplanes, hyperspheres and equidistant
branches all carry a coordinate representative in R^{n,1}.  Cooriented
Euclidean spheres live separately in R^n and only meet the Lorentzian world
through the lift in the models module.

Conventions fixed here:

* a horosphere is the level set {x : <x, rep> = -1/sqrt(2)} of a forward
  lightlike representative, so the representative is unique (not just up to
  scale) and lambda lengths come straight from inner products;
* hyperplane coorientation is the choice of unit spacelike normal;
* an equidistant branch is one component {x : <x, normal> = offset} with
  offset != 0 of the equidistant locus around the hyperplane <x, normal> = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NoCommonTangent
from .lorentz import DEFAULT_TOL, as_vector, gram, inner, metric_diag

HOROSPHERE_LEVEL = -1.0 / math.sqrt(2.0)

# validation slack for object invariants (unit norms, hyperboloid membership)
_CHECK_TOL = 1e-9
# arccosh/arcsinh arguments may sit this far outside their domain before we
# refuse to clamp
_DOMAIN_SLACK = 1e-7


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _safe_acosh(x: float) -> float:
    if x < 1.0 - _DOMAIN_SLACK:
        raise InvalidInput(f"arccosh argument {x} is below 1 beyond tolerance")
    return math.acosh(max(x, 1.0))


# ---------------------------------------------------------------------------
# validators: each checks every row of a (k, d) array in one pass and raises
# its type's message when some row fails.  rows() and family() are the one
# boundary between objects and arrays: rows() checks an array and views its
# rows as objects, of which a constructor is the one-row case, and family()
# gives a family of objects back as one array.


@functools.cache
def _signature(dim: int) -> np.ndarray:
    d = metric_diag(dim)
    d.flags.writeable = False
    return d


def _check_norms(V: np.ndarray, target: float, message: str) -> None:
    """Every row v of V must have <v, v> within _CHECK_TOL (1 + |v|_inf^2)
    of target.

    The squares are floats, not Python numbers: a row whose |v|_inf^2
    overflows is not representable, and fails like any other.  Such a row
    has an infinite or nan <v, v>, so a family whose every <v, v> is within
    _CHECK_TOL of target passes without the scales.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        W = V * V
        norms = (W @ _signature(V.shape[1])).tolist()
        if all(abs(q - target) <= _CHECK_TOL for q in norms):
            return
        squares = W.max(axis=1).tolist()
    for q, s in zip(norms, squares):
        if not (abs(q - target) <= _CHECK_TOL * (1.0 + s) and s < math.inf):
            raise InvalidInput(message)


def _check_points(X: np.ndarray) -> None:
    _check_norms(X, -1.0, "point is not on the unit hyperboloid")
    if not all(t > 0 for t in X[:, -1].tolist()):
        raise InvalidInput("point is on the backward sheet")


def _check_reps(R: np.ndarray) -> None:
    _check_norms(R, 0.0, "representative must be lightlike")
    if not all(t > 0 for t in R[:, -1].tolist()):
        raise InvalidInput("representative must be forward pointing")


def _check_normals(N: np.ndarray) -> None:
    _check_norms(N, 1.0, "normal must be unit spacelike")


def _check_radii(radii) -> None:
    if not all(r > 0 for r in radii):
        raise InvalidInput("radius must be positive")


def _check_spheres(C: np.ndarray, radii, eps) -> None:
    if not np.isfinite(C).all():
        raise InvalidInput("centre must be finite")
    _check_radii(radii)
    if not all(e in (1, -1) for e in eps):
        raise InvalidInput("eps must be +1 or -1")


def _views(cls, **columns) -> list:
    """Objects of cls whose fields take one row each of the checked columns,
    built without the constructor, which would check them again."""
    k = len(next(iter(columns.values())))
    objs = [object.__new__(cls) for _ in range(k)]
    for name, column in columns.items():
        for obj, value in zip(objs, column):
            obj.__dict__[name] = value
    return objs


def _gather(cls, objects, field: str) -> tuple[list, np.ndarray]:
    """A family of objects of cls as a list, and the array of their field,
    one row each.  An empty family, or one holding another type, raises
    InvalidInput; vectors of mixed lengths raise DimensionMismatch."""
    objs = list(objects)
    if not objs or not all(isinstance(o, cls) for o in objs):
        raise InvalidInput(f"expected a nonempty family of {cls.__name__} objects")
    try:
        return objs, np.array([o.__dict__[field] for o in objs])
    except ValueError:  # ragged
        raise DimensionMismatch("objects live in different dimensions") from None


class _Vector:
    """The body of a vector object, a dataclass with one field: its
    coordinate vector in R^{n,1}, checked by the check its class is
    declared with."""

    def __init_subclass__(cls, check):
        cls._check = staticmethod(check)
        (cls._field,) = cls.__annotations__

    def __post_init__(self):
        v = as_vector(self.__dict__[self._field])
        self._check(v[None])
        object.__setattr__(self, self._field, _frozen(v))

    @classmethod
    def rows(cls, V: np.ndarray) -> list:
        """One object per row of a finite (k, n+1) array, checked in one pass;
        the vectors are row views of one read-only copy."""
        cls._check(V)
        return _views(cls, **{cls._field: _frozen(V)})

    @classmethod
    def family(cls, objects) -> np.ndarray:
        """The (k, n+1) array of the vectors of a family of objects, one row each."""
        return _gather(cls, objects, cls._field)[1]

    @property
    def n(self) -> int:
        return self.__dict__[self._field].shape[0] - 1


@dataclass(frozen=True, eq=False)
class HPoint(_Vector, check=_check_points):
    """Point on the forward hyperboloid sheet {<x,x> = -1, x_last > 0}."""

    coords: np.ndarray


@dataclass(frozen=True, eq=False)
class Horosphere(_Vector, check=_check_reps):
    """Horosphere encoded by its forward lightlike representative.

    The surface is {x on the hyperboloid : <x, rep> = -1/sqrt(2)}.  Scaling
    the representative moves the horosphere among the concentric family
    around the same ideal centre.
    """

    rep: np.ndarray


@dataclass(frozen=True, eq=False)
class CoHyperplane(_Vector, check=_check_normals):
    """Cooriented hyperplane {x : <x, normal> = 0} with unit spacelike normal."""

    normal: np.ndarray

    def flipped(self) -> "CoHyperplane":
        return CoHyperplane(-self.normal)


@dataclass(frozen=True, eq=False)
class Hypersphere:
    """Metric sphere of given radius around a point of hyperbolic space."""

    centre: HPoint
    radius: float

    def __init__(self, centre: HPoint, radius: float):
        if not isinstance(centre, HPoint):
            centre = HPoint(centre)
        _check_radii([radius])
        object.__setattr__(self, "centre", centre)
        object.__setattr__(self, "radius", float(radius))

    @classmethod
    def rows(cls, X: np.ndarray, radii) -> list["Hypersphere"]:
        """One hypersphere per row of a (k, n+1) array of centres and k radii."""
        return [cls(c, r) for c, r in zip(HPoint.rows(X), radii)]

    @property
    def n(self) -> int:
        return self.centre.n


@dataclass(frozen=True, eq=False)
class EquidistantBranch:
    """One branch {x : <x, normal> = offset} of an equidistant hypersurface."""

    normal: np.ndarray
    offset: float

    def __init__(self, normal, offset: float):
        v = as_vector(normal)
        _check_normals(v[None])
        if offset == 0:
            raise InvalidInput("offset must be nonzero (zero offset is the hyperplane itself)")
        object.__setattr__(self, "normal", _frozen(v))
        object.__setattr__(self, "offset", float(offset))

    @property
    def n(self) -> int:
        return self.normal.shape[0] - 1


@dataclass(frozen=True, eq=False)
class CoSphereE:
    """Cooriented Euclidean hypersphere in R^n: centre, radius, sign eps."""

    centre: np.ndarray
    radius: float
    eps: int

    def __init__(self, centre, radius: float, eps: int = 1):
        c = np.asarray(centre, dtype=float)
        if c.ndim != 1 or c.shape[0] < 1:
            raise InvalidInput("centre must be a 1-d coordinate vector")
        _check_spheres(c[None], [radius], [eps])
        object.__setattr__(self, "centre", _frozen(c))
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "eps", int(eps))

    @classmethod
    def rows(cls, C: np.ndarray, radii, eps) -> list["CoSphereE"]:
        """One sphere per row of a (k, n) array of centres with k radii and
        k signs, checked in one pass; the centres are row views of one copy."""
        _check_spheres(C, radii, eps)
        return _views(
            cls, centre=_frozen(C), radius=[float(r) for r in radii], eps=[int(e) for e in eps]
        )

    @classmethod
    def family(cls, spheres) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (k, n) array of the centres of a family of spheres, one row
        each, with their k radii and k signs as float arrays."""
        ss, centres = _gather(cls, spheres, "centre")
        return centres, np.array([s.radius for s in ss]), np.array([s.eps for s in ss], dtype=float)

    @property
    def n(self) -> int:
        return self.centre.shape[0]

    def with_eps(self, eps: int) -> "CoSphereE":
        return CoSphereE(self.centre, self.radius, eps)


@dataclass(frozen=True, eq=False)
class EuclideanPlane:
    """Affine hyperplane {x : x . normal = offset} in R^n, witness output only."""

    normal: np.ndarray
    offset: float

    def __init__(self, normal, offset: float):
        v = np.asarray(normal, dtype=float)
        nrm = float(np.linalg.norm(v))
        if nrm == 0:
            raise InvalidInput("plane normal must be nonzero")
        object.__setattr__(self, "normal", _frozen(v / nrm))
        object.__setattr__(self, "offset", float(offset) / nrm)


# ---------------------------------------------------------------------------
# pairwise quantities


def distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance, arccosh(-<p, q>)."""
    if p.coords.shape != q.coords.shape:
        raise DimensionMismatch("points live in different dimensions")
    # arccosh loses half the digits near 1, so equal inputs short-circuit
    if p is q or np.array_equal(p.coords, q.coords):
        return 0.0
    return _safe_acosh(-inner(p.coords, q.coords))


def half_dist_sinh_sq(p: HPoint, q: HPoint) -> float:
    """sinh^2 of half the distance, computed as -(<p, q> + 1)/2."""
    if p.coords.shape != q.coords.shape:
        raise DimensionMismatch("points live in different dimensions")
    return max(0.0, -(inner(p.coords, q.coords) + 1.0) / 2.0)


def _concentric(reps: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Boolean matrix of the pairs of representatives (rows) that share their
    ideal centre: scaled to max-norm 1, they agree within tol entrywise."""
    u = reps / np.max(np.abs(reps), axis=1, keepdims=True)
    return np.max(np.abs(u[:, None, :] - u[None, :, :]), axis=-1) <= tol


def same_centre(a: Horosphere, b: Horosphere, tol: float = DEFAULT_TOL) -> bool:
    """Do two horospheres share their ideal centre (parallel representatives)?"""
    return bool(_concentric(Horosphere.family([a, b]), tol)[0, 1])


def _lambda_sq(reps, concentric: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared lambda lengths -<rep_i, rep_j> of a family of representatives,
    zero on concentric pairs and the diagonal; concentric is their
    _concentric matrix when the caller has it.

    A value below zero is clamped to +0.0 within the domain slack; beyond it
    the first one in row-major order raises InvalidInput.
    """
    A = -gram(reps)
    R = np.asarray(reps, dtype=float)
    A[_concentric(R) if concentric is None else concentric] = 0.0
    rmax = np.max(np.abs(R), axis=1)
    bad = A < -_DOMAIN_SLACK * np.maximum(np.outer(rmax, rmax), 1.0)
    if np.any(bad):
        raise InvalidInput(f"sqrt argument {A[bad][0]} is negative beyond tolerance")
    return np.where(A > 0.0, A, 0.0)


def lambda_length(a: Horosphere, b: Horosphere) -> float:
    """Penner lambda length sqrt(-<rep_a, rep_b>); zero for concentric pairs."""
    return math.sqrt(_lambda_sq(Horosphere.family([a, b]))[0, 1])


def sigma(a: CoHyperplane, b: CoHyperplane) -> float:
    """Cooriented hyperplane invariant (<n_a, n_b> - 1)/2.

    The value encodes the mutual position piecewise: sinh^2 of half the
    common perpendicular length for disjoint pairs with coinciding
    coorientations, -cosh^2 of the half length for opposite coorientations,
    -sin^2 of half the dihedral angle for intersecting pairs, and 0 or -1
    for tangency at infinity.
    """
    if a.normal.shape != b.normal.shape:
        raise DimensionMismatch("hyperplanes live in different dimensions")
    if a is b or np.array_equal(a.normal, b.normal):
        return 0.0
    return (inner(a.normal, b.normal) - 1.0) / 2.0


class RelationKind(Enum):
    TANGENT_AT_INFINITY_SAME = "tangent_at_infinity_same"
    TANGENT_AT_INFINITY_OPPOSITE = "tangent_at_infinity_opposite"
    INTERSECTING = "intersecting"
    DISJOINT_SAME = "disjoint_same"
    DISJOINT_OPPOSITE = "disjoint_opposite"


@dataclass(frozen=True)
class HyperplaneRelation:
    """Decoded mutual position of two cooriented hyperplanes.

    value is the dihedral angle for intersecting pairs, the common
    perpendicular length for disjoint pairs, and None for tangency.
    """

    kind: RelationKind
    value: Optional[float]


def sigma_decode(value: float, tol: float = DEFAULT_TOL) -> HyperplaneRelation:
    """Invert the piecewise meaning of the sigma invariant."""
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    if abs(value) <= tol:
        return HyperplaneRelation(RelationKind.TANGENT_AT_INFINITY_SAME, None)
    if abs(value + 1.0) <= tol:
        return HyperplaneRelation(RelationKind.TANGENT_AT_INFINITY_OPPOSITE, None)
    if value > 0:
        return HyperplaneRelation(RelationKind.DISJOINT_SAME, 2.0 * math.asinh(math.sqrt(value)))
    if value > -1.0:
        return HyperplaneRelation(RelationKind.INTERSECTING, 2.0 * math.asin(math.sqrt(-value)))
    return HyperplaneRelation(RelationKind.DISJOINT_OPPOSITE, 2.0 * _safe_acosh(math.sqrt(-value)))


def inversive_distance(a: CoSphereE, b: CoSphereE) -> float:
    """Signed inversive distance of two cooriented Euclidean spheres."""
    if a.centre.shape != b.centre.shape:
        raise DimensionMismatch("spheres live in different dimensions")
    d2 = float(np.sum((a.centre - b.centre) ** 2))
    return a.eps * b.eps * (d2 - a.radius**2 - b.radius**2) / (2.0 * a.radius * b.radius)


def tau(a: CoSphereE, b: CoSphereE) -> float:
    """Quadratic tangency invariant eps_a eps_b (|c_a - c_b|^2 - (r_a - eps_a eps_b r_b)^2).

    Equals 2 r_a r_b (iota + 1) for the inversive distance iota, and is the
    squared length of the relevant common tangent segment when one exists.
    """
    if a.centre.shape != b.centre.shape:
        raise DimensionMismatch("spheres live in different dimensions")
    ee = a.eps * b.eps
    d2 = float(np.sum((a.centre - b.centre) ** 2))
    return ee * (d2 - (a.radius - ee * b.radius) ** 2)


def tangent_length(a: CoSphereE, b: CoSphereE) -> float:
    """Length of the common tangent segment selected by the coorientations.

    Coinciding signs select the external tangent, opposite signs the
    internal one.  Raises NoCommonTangent when that segment does not exist
    (the radicand eps_a eps_b tau is negative).
    """
    radicand = a.eps * b.eps * tau(a, b)
    if radicand < 0:
        raise NoCommonTangent("spheres admit no common tangent of the requested kind")
    return math.sqrt(radicand)


Surface = Union[Horosphere, Hypersphere, CoHyperplane, EquidistantBranch]


def contains(surface: Surface, p: HPoint, tol: float = DEFAULT_TOL) -> bool:
    """Membership of a point on a surface, up to tol on the defining equation."""
    if isinstance(surface, Horosphere):
        return abs(inner(surface.rep, p.coords) - HOROSPHERE_LEVEL) <= tol
    if isinstance(surface, Hypersphere):
        return abs(-inner(surface.centre.coords, p.coords) - math.cosh(surface.radius)) <= tol
    if isinstance(surface, CoHyperplane):
        return abs(inner(surface.normal, p.coords)) <= tol
    if isinstance(surface, EquidistantBranch):
        return abs(inner(surface.normal, p.coords) - surface.offset) <= tol
    raise InvalidInput(f"unsupported surface type {type(surface).__name__}")
