"""Conversions between the hyperboloid, ball and upper half-space models,
plus the two bridges the theorems rely on: flat charts on horospheres and
the lift of cooriented Euclidean spheres to hyperplane normals one
dimension up.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, InvalidInput, OutsideBall
from .lorentz import as_vector, gram, inner, metric_diag, null_basis
from .objects import (
    HOROSPHERE_LEVEL,
    CoHyperplane,
    CoSphereE,
    EuclideanPlane,
    Horosphere,
    HPoint,
    _check_normals,
)

_SQRT2 = math.sqrt(2.0)


def hyperboloid_to_ball(p: Union[HPoint, np.ndarray]) -> np.ndarray:
    """Stereographic projection to the open unit ball, b = spatial/(1 + last)."""
    x = p.coords if isinstance(p, HPoint) else HPoint(p).coords
    return x[:-1] / (1.0 + x[-1])


def ball_points(B: np.ndarray) -> np.ndarray:
    """Inverse projection of each row of a (k, n) array of ball points to
    hyperboloid coordinates; raises OutsideBall within 1e-12 of the boundary.

    |b|^2 is each row's own dot product (vecdot sums a row as b @ b does),
    so a row converts to the same bits alone as in a family.
    """
    r2 = np.vecdot(B, B)
    if (r2 >= (1.0 - 1e-12) ** 2).any():
        raise OutsideBall("point is not strictly inside the unit ball")
    return np.concatenate([2.0 * B, (1.0 + r2)[:, None]], axis=1) / (1.0 - r2)[:, None]


def ball_to_hyperboloid(b) -> HPoint:
    """Inverse projection of one ball point; see ball_points."""
    bv = np.asarray(b, dtype=float)
    if bv.ndim != 1:
        raise InvalidInput("ball point must be a 1-d coordinate vector")
    return HPoint(ball_points(bv[None])[0])


def ball_normals(P: np.ndarray, orientation=None) -> np.ndarray:
    """Unit normals of hyperplanes given in the ball model, one per row.

    Without orientation the rows are directions d of hyperplanes through the
    origin, with normal (d, 0).  With orientation (k signs +-1) they are the
    poles p, |p| > 1, of hyperplanes off the origin, with normal
    o (p, 1) / sqrt(|p|^2 - 1).
    """
    if orientation is None:
        return np.concatenate([P, np.zeros((P.shape[0], 1))], axis=1)
    r2 = np.vecdot(P, P)  # as in ball_points
    if (r2 <= 1.0).any():
        raise InvalidInput("bad pole form")
    vt = np.asarray(orientation) / np.sqrt(r2 - 1.0)
    return np.concatenate([vt[:, None] * P, vt[:, None]], axis=1)


def ball_reps(D: np.ndarray, scale) -> np.ndarray:
    """Horosphere representatives s (d, 1) from ideal centres d on the unit
    sphere (rows) and k scales s."""
    return np.asarray(scale, dtype=float)[:, None] * np.concatenate(
        [D, np.ones((D.shape[0], 1))], axis=1
    )


def ball_distance(b1, b2) -> float:
    """Hyperbolic distance read off from ball coordinates."""
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    d2 = float(np.sum((b1 - b2) ** 2))
    den = (1.0 - float(b1 @ b1)) * (1.0 - float(b2 @ b2))
    return math.acosh(1.0 + 2.0 * d2 / den)


def hyperboloid_to_halfspace(p: HPoint) -> tuple[np.ndarray, float]:
    """Upper half-space coordinates (z in R^{n-1}, t > 0).

    The distinguished ideal point sent to infinity is the direction
    (0, ..., 0, 1, 1).
    """
    x = p.coords if isinstance(p, HPoint) else HPoint(p).coords
    t = 1.0 / (x[-1] - x[-2])
    return x[:-2] * t, t


def halfspace_to_hyperboloid(z, t: float) -> HPoint:
    """Inverse of hyperboloid_to_halfspace."""
    zv = np.asarray(z, dtype=float)
    if not (t > 0):
        raise InvalidInput("half-space height must be positive")
    a = float(zv @ zv) + t * t
    return HPoint(np.concatenate([zv / t, [(a - 1.0) / (2.0 * t), (a + 1.0) / (2.0 * t)]]))


def _horosphere_frame(h: Horosphere) -> tuple[np.ndarray, np.ndarray]:
    """Adapted frame (m, F) for a horosphere representative ell = rep.

    m is the companion forward lightlike vector with <ell, m> = -1 and F has
    as columns a Lorentz-orthonormal spacelike basis of {ell, m}^perp.  The
    construction is deterministic in the representative.
    """
    ell = h.rep
    dim = ell.shape[0]
    d = ell[:-1] / ell[-1]
    m0 = np.concatenate([-d, [1.0]])
    m = m0 / (-inner(ell, m0))
    rows = np.stack([ell * metric_diag(dim), m * metric_diag(dim)])
    B = null_basis(rows, nullity=dim - 2)
    # the Gram matrix of B is positive definite (the complement of a lightlike
    # pair is spacelike), so Cholesky orthonormalizes the basis under the form
    L = np.linalg.cholesky(gram(B.T))
    F = B @ np.linalg.inv(L).T
    return m, F


def horosphere_chart(h: Horosphere, p: HPoint) -> np.ndarray:
    """Flat chart of a horosphere, one coordinate array per point on it.

    Chart distances equal 2 sinh(rho/2) for the ambient hyperbolic distance
    rho between points of the horosphere, i.e. the chart realizes the
    intrinsic Euclidean metric.  The chart is unique up to a Euclidean
    isometry; this one is fixed by the frame construction.
    """
    if h.rep.shape != p.coords.shape:
        raise DimensionMismatch("horosphere and point live in different dimensions")
    _, F = _horosphere_frame(h)
    return F.T @ (p.coords * metric_diag(h.rep.shape[0]))


def _chart_inverse(h: Horosphere, frame: tuple[np.ndarray, np.ndarray], zv: np.ndarray) -> np.ndarray:
    """Coordinates of the point of h with chart coordinates zv, given h's
    _horosphere_frame; a family on one horosphere shares the frame."""
    m, F = frame
    if zv.shape[0] != F.shape[1]:
        raise DimensionMismatch("chart coordinates have the wrong length")
    alpha = (float(zv @ zv) + 1.0) / _SQRT2
    beta = 1.0 / _SQRT2
    return alpha * h.rep + beta * m + F @ zv


def horosphere_point(h: Horosphere, zeta) -> HPoint:
    """Point of the horosphere with the given chart coordinates (chart inverse)."""
    zv = np.asarray(zeta, dtype=float)
    return HPoint(_chart_inverse(h, _horosphere_frame(h), zv))


def _lift_rows(C: np.ndarray, radii, eps) -> np.ndarray:
    # |c|^2 is each row's own dot product (vecdot sums a row as c @ c does) and
    # r^2 float_power, the C pow of Python's **: a sphere lifts alone as in a family
    a = np.vecdot(C, C) - np.float_power(radii, 2.0)
    scale = np.array(eps, dtype=float) / np.array(radii, dtype=float)
    V = np.concatenate([C, ((a - 1.0) / 2.0)[:, None], ((a + 1.0) / 2.0)[:, None]], axis=1)
    return V * scale[:, None]


def sphere_lifts(spheres: Sequence[CoSphereE]) -> np.ndarray:
    """Hyperplane normals of a family of cooriented spheres of R^n, one row
    each of a (k, n+2) array, checked unit spacelike in one pass.

    Row i is sphere_lift(spheres[i]).normal.  An unrepresentable lift (a
    radius so small that the normal overflows) raises InvalidInput.
    """
    ss = list(spheres)
    C = np.array([s.centre for s in ss])  # np.stack costs four times as much
    V = _lift_rows(C, [s.radius for s in ss], [s.eps for s in ss])
    _check_normals(V)
    return V


def sphere_lift(s: CoSphereE) -> CoHyperplane:
    """Lift a cooriented sphere of R^n to a hyperplane normal in R^{n+1,1}.

    The normal is eps * (c, (|c|^2 - r^2 - 1)/2, (|c|^2 - r^2 + 1)/2) / r,
    a unit spacelike vector; inner products of lifts equal minus the
    inversive distance of the spheres.
    """
    return CoHyperplane(_lift_rows(s.centre[None], [s.radius], [s.eps])[0])


def normal_to_sphere_or_plane(v, tol: float = 1e-9) -> Union[CoSphereE, EuclideanPlane]:
    """Invert sphere_lift on a unit spacelike normal of R^{n+1,1}.

    Normals whose last two coordinates agree (up to tol, relative) have no
    finite-sphere preimage and decode as an affine hyperplane of R^n.
    """
    w = as_vector(v)
    parts = _sphere_parts(w, tol)
    if parts is None:
        return EuclideanPlane(w[:-2], (w[-2] + w[-1]) / 2.0)
    return CoSphereE(*parts)


def _sphere_parts(w: np.ndarray, tol: float = 1e-9) -> Optional[tuple[np.ndarray, float, int]]:
    """(centre, radius, eps) of the sphere that lifts to the finite normal w,
    or None for an affine hyperplane; see normal_to_sphere_or_plane."""
    k = float(w[-1] - w[-2])
    scale = float(np.max(np.abs(w)))
    if abs(k) <= tol * max(scale, 1.0):
        return None
    return w[:-2] / k, 1.0 / abs(k), 1 if k > 0 else -1


def lightlike_to_boundary(w, tol: float = 1e-12) -> Optional[np.ndarray]:
    """Boundary point of the half-space model named by a lightlike vector.

    Returns the point of R^n, or None for the point at infinity.  The
    vector (p, (|p|^2-1)/2, (|p|^2+1)/2) decodes to p.
    """
    v = as_vector(w)
    k = float(v[-1] - v[-2])
    scale = float(np.max(np.abs(v)))
    if abs(k) <= tol * max(scale, 1.0):
        return None
    return v[:-2] / k


def boundary_to_lightlike(p) -> np.ndarray:
    """Lightlike representative of a boundary point of R^n (inverse of above)."""
    pv = np.asarray(p, dtype=float)
    q = float(pv @ pv)
    return np.concatenate([pv, [(q - 1.0) / 2.0, (q + 1.0) / 2.0]])


def horosphere_ideal_centre(h: Horosphere) -> np.ndarray:
    """Ideal centre of a horosphere as a point of the unit sphere (ball model)."""
    return h.rep[:-1] / h.rep[-1]
