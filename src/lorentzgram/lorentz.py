"""Core linear algebra for the Lorentzian vector space R^{n,1}.

Vectors are plain numpy arrays of length n+1 holding coordinates
(x_1, ..., x_n, x_{n+1}).  The bilinear form is

    <x, y> = x_1 y_1 + ... + x_n y_n - x_{n+1} y_{n+1},

so the last coordinate carries the minus sign.  The hyperboloid model of
hyperbolic n-space is the sheet {<x, x> = -1, x_{n+1} > 0}.

Each vector is validated once.  as_vector is the one validator, called
where a vector enters from outside (the public functions here, the object
constructors; a scene's families enter as arrays that the command line
checks whole); code that already holds a validated array, the witness
reading and checking in theorems included, takes <x, y> as _dot(x, y), the
same arithmetic as inner without validating again, and <r, y> for each row
r of a family as _products(R, y).

The module also owns the degeneracy test used by every theorem in the
package: a symmetric matrix of inner products is "degenerate" when its
smallest singular value is negligible against the largest.  That ratio test
is scale-robust where a raw determinant threshold is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotSymmetric

DEFAULT_TOL = 1e-9


def as_vector(x) -> np.ndarray:
    """Coerce to a float coordinate vector and check it is usable.

    Vectors must have length at least 3 (hyperbolic dimension at least 2)
    and finite entries.  Input that breaks these rules, or is not a vector
    of numbers at all, raises InvalidInput.
    """
    try:
        v = np.asarray(x, dtype=float)
    except (TypeError, ValueError):  # not numbers, or ragged
        raise InvalidInput("expected a coordinate vector of numbers") from None
    if v.ndim != 1:
        raise InvalidInput(f"expected a 1-d coordinate vector, got shape {v.shape}")
    if v.shape[0] < 3:
        raise InvalidInput(f"need at least 3 coordinates, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise InvalidInput("coordinates must be finite")
    return v


def metric_diag(dim: int) -> np.ndarray:
    """Diagonal of the bilinear form on R^{dim-1,1}: (+1, ..., +1, -1)."""
    d = np.ones(dim)
    d[-1] = -1.0
    return d


def inner(x, y) -> float:
    """Lorentzian inner product, minus sign on the last coordinate.

    Raises InvalidInput when the product of finite vectors is not
    representable (it overflows).
    """
    xv, yv = as_vector(x), as_vector(y)
    if xv.shape != yv.shape:
        raise DimensionMismatch(f"lengths {xv.shape[0]} and {yv.shape[0]} differ")
    return _finite_dot(xv, yv)


def _dot(xv: np.ndarray, yv: np.ndarray) -> float:
    return float(np.dot(xv[:-1], yv[:-1]) - xv[-1] * yv[-1])


def _products(R: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """_dot(r, yv) for each row r of a validated 2-d R, bit for bit: vecdot
    sums a row as np.dot does, where R @ (D * yv) or einsum do not."""
    return np.vecdot(R[:, :-1], yv[:-1]) - R[:, -1] * yv[-1]


def _finite_dot(xv: np.ndarray, yv: np.ndarray) -> float:
    """_dot of two validated vectors, raising InvalidInput in place of an
    overflow warning when the product is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = _dot(xv, yv)
    if not math.isfinite(q):
        raise InvalidInput("inner product is not representable")
    return q


def norm_sq(x) -> float:
    """Lorentzian square norm <x, x>."""
    return inner(x, x)


class SignClass(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def classify(x, tol: float = DEFAULT_TOL) -> SignClass:
    """Causal character of a vector.

    A vector counts as lightlike when |<x, x>| <= tol * (1 + |x|_inf^2),
    which keeps the decision invariant under rescaling of x up to the
    additive guard for near-zero vectors.
    """
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    v = as_vector(x)
    q = _finite_dot(v, v)
    if _lightlike(q, v, tol):
        return SignClass.LIGHTLIKE
    return SignClass.SPACELIKE if q > 0 else SignClass.TIMELIKE


def _lightlike(q: float, v: np.ndarray, tol: float) -> bool:
    """classify's test of a vector v with <v, v> = q.  |v|_inf^2 is one of
    the terms of q, so it is finite when q is."""
    return abs(q) <= tol * (1.0 + float(np.abs(v).max()) ** 2)


def gram(vectors: Sequence) -> np.ndarray:
    """Gram matrix of a family of vectors under the Lorentzian form.

    The result is read-only and exactly symmetric.  The family is checked
    in one pass; when that fails, as_vector names the first bad vector
    (InvalidInput), and a family of valid vectors is empty (InvalidInput)
    or has mixed lengths (DimensionMismatch).
    """
    try:
        V = np.asarray(vectors, dtype=float)
    except ValueError:  # ragged
        V = np.empty(0)
    if V.ndim != 2 or not V.size or V.shape[1] < 3 or not np.isfinite(V).all():
        if not [as_vector(v) for v in vectors]:
            raise InvalidInput("need at least one vector")
        raise DimensionMismatch("vectors have mixed lengths")
    X = (V * metric_diag(V.shape[1])) @ V.T
    X = (X + X.T) / 2.0  # force exact symmetry in storage
    X.flags.writeable = False
    return X


def _require_finite(*matrices: np.ndarray) -> None:
    """Raise InvalidInput unless every entry of the matrices is finite."""
    if not all(np.isfinite(M).all() for M in matrices):
        raise InvalidInput("matrix entries must be finite")


@dataclass(frozen=True, eq=False)
class DegeneracyVerdict:
    """Outcome of the singular-value degeneracy test.

    kernel is a unit coefficient vector with M @ kernel ~ 0; it is present
    exactly when is_degenerate holds.
    """

    is_degenerate: bool
    det_value: float
    sigma_min: float
    sigma_max: float
    kernel: Optional[np.ndarray]


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude entry (earliest on ties) is positive."""
    k = int(np.abs(v).argmax())
    return -v + 0.0 if v[k] < 0 else v + 0.0  # adding 0.0 clears negative zeros


def first_nonzero_positive(v: np.ndarray) -> np.ndarray:
    """Flip sign so the first non-negligible entry is positive."""
    scale = float(np.abs(v).max())
    if scale == 0.0:
        return v + 0.0
    for entry in v:
        if abs(entry) > 1e-12 * scale:
            return -v + 0.0 if entry < 0 else v + 0.0
    return v + 0.0


def degeneracy(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> DegeneracyVerdict:
    """Decide whether a symmetric matrix is singular up to tolerance.

    The verdict is sigma_min <= tol * max(sigma_max, 1), computed from a
    symmetric eigendecomposition.  Note the guard constant: matrices whose
    entries are uniformly tiny (sigma_max far below 1) are treated as
    degenerate, so the test is only scale-free while sigma_max stays of
    order 1 or larger.

    Raises NotSymmetric when the input is asymmetric beyond 1e-12 relative.
    """
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {M.shape}")
    _require_finite(M)
    scale = max(float(np.abs(M).max()), 1.0)
    if float(np.abs(M - M.T).max()) > 1e-12 * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")
    return _verdict((M + M.T) / 2.0, tol)


def _verdict(S: np.ndarray, tol: float) -> DegeneracyVerdict:
    """degeneracy's verdict on S, which must be finite and exactly symmetric,
    and tol, which must be positive: the caller has checked both.  Code that
    built S so by construction calls this directly."""
    eigvals, eigvecs = np.linalg.eigh(S)
    sigmas = np.abs(eigvals)
    i_min = int(sigmas.argmin())
    sigma_min = float(sigmas[i_min])
    sigma_max = float(sigmas.max())
    # finite eigenvalues whose product overflows give an infinite det, which
    # the report encoder refuses; it is not a warning.  math.prod multiplies
    # in the order ndarray.prod does, without a floating-point error state
    det_value = math.prod(eigvals.tolist())
    is_degenerate = sigma_min <= tol * max(sigma_max, 1.0)
    kernel = _canonical_sign(eigvecs[:, i_min].copy()) if is_degenerate else None
    return DegeneracyVerdict(
        is_degenerate=is_degenerate,
        det_value=det_value,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        kernel=kernel,
    )


def null_basis(rows: np.ndarray, nullity: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the Euclidean null space of `rows`.

    The basis is simply the right-singular vectors for the smallest
    `nullity` singular values, which is the right notion when the caller
    knows the rank deficiency from geometry.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    vt = np.linalg.svd(rows)[2]
    d = rows.shape[1]
    if nullity <= 0:
        return np.zeros((d, 0))
    return vt[d - nullity:].T
