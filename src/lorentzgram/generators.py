"""Deterministic construction of test families, degenerate and generic.

Degenerate kinds start from an explicit witness (a surface, an ideal
point, or a normal pair) and build the family inside the witness's
incidence locus, so the theorem guarantees degeneracy exactly; generic
kinds sample freely.  Either way the draw is rejected and retried until
margin thresholds hold: the expected number of near-zero singular values,
a comfortable gap to the rest of the spectrum, and pairwise separation of
the objects.  Everything is driven by a single seeded stream, so equal
specs reproduce equal configurations bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import GeometryError, InfeasibleParams, InvalidInput
from .genkind import PARAM_KEYS, GenKind
from .lorentz import _dot, first_nonzero_positive, gram, metric_diag, norm_sq, null_basis
from .models import (
    _chart_inverse,
    _horosphere_frame,
    _sphere_parts,
    normal_to_sphere_or_plane,
    sphere_lifts,
)
from .objects import (
    CoHyperplane,
    CoSphereE,
    EquidistantBranch,
    Horosphere,
    HPoint,
    Hypersphere,
)
from .rng import SplitMix64
from .theorems import (
    MAX_FAMILY,
    _candidates,
    _sigma_rank_one,
    _signed_sigma,
    _solved,
    half_dist_matrix,
    lambda_sq_matrix,
    sigma_matrix,
    tau_matrix,
)

MAX_ATTEMPTS = 100
INF = math.inf

DEGENERATE_MARGIN = 1e-10  # expected kernel eigenvalues must sit below this
ROBUST_MARGIN = 1e-5  # the rest of the spectrum must sit above this


@dataclass(frozen=True)
class GenSpec:
    kind: Union[GenKind, str]
    n: int
    seed: int = 0
    count: Optional[int] = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Configuration:
    """A generated family plus the data it was built around.

    surface is the common incidence surface when one exists by
    construction; witness carries the construction's witness object
    (hyperplane, normal pair, ideal direction, or meeting point).  Both
    are None for generic kinds.
    """

    kind: GenKind
    n: int
    objects: tuple
    surface: object = None
    witness: object = None
    params: dict = field(default_factory=dict)


def _coerce_kind(kind: Union[GenKind, str]) -> GenKind:
    if isinstance(kind, GenKind):
        return kind
    try:
        return GenKind(kind)
    except ValueError:
        raise InvalidInput(f"unknown generator kind {kind!r}") from None


def _spectrum_ok(M: np.ndarray, deficiency: int) -> bool:
    s = np.sort(np.abs(np.linalg.eigvalsh(M)))
    smax = max(float(s[-1]), 1.0)
    if deficiency > 0 and float(s[deficiency - 1]) > DEGENERATE_MARGIN * smax:
        return False
    if deficiency < s.size and float(s[deficiency]) < ROBUST_MARGIN * smax:
        return False
    return True


def _min_pairwise(vectors: Sequence[np.ndarray]) -> float:
    """Least max-norm distance between two of a family of finite vectors
    (the rows of a (k, d) array), inf below two."""
    V = np.asarray(vectors)
    i, j = np.triu_indices(V.shape[0], 1)
    if not i.size:
        return math.inf
    return float(np.abs(V[i] - V[j]).max(axis=1).min())


def _family(cls, rows: list) -> tuple:
    """The objects of cls (HPoint, Horosphere or CoHyperplane) with the
    given coordinate rows, checked in one pass."""
    return tuple(cls.rows(np.stack(rows)))


# The generators' vectors are finite by construction, so their Lorentzian
# products are taken as _dot, without validating each vector again.


def _random_spacelike_unit(rng: SplitMix64, dim: int, basis=None) -> np.ndarray:
    """A random unit spacelike vector of R^dim, or of the span of basis's
    columns when a basis is given."""
    while True:
        v = rng.normals(dim) if basis is None else basis @ rng.normals(basis.shape[1])
        q = _dot(v, v)
        if q > 0.05 * float(v @ v):
            return v / math.sqrt(q)


def _random_lightlike(rng: SplitMix64, dim: int) -> np.ndarray:
    d = rng.unit_vector(dim - 1)
    s = math.exp(rng.uniform_in(-0.7, 0.7))
    return s * np.concatenate([d, [1.0]])


def _random_point(rng: SplitMix64, dim: int, spread: float) -> np.ndarray:
    """Coordinates of a random point of the hyperboloid."""
    spatial = spread * rng.normals(dim - 1)
    last = math.sqrt(1.0 + float(spatial @ spatial))
    return np.concatenate([spatial, [last]])


def _lightlike_around(rng: SplitMix64, w: np.ndarray):
    """Endless lightlike vectors t (f + F u) orthogonal to the spacelike w,
    (f, F) its orthocomplement frame, u uniform on the unit sphere and
    log t uniform on [-0.7, 0.7].  Each is drawn only when it is asked for."""
    f_time, F = _orthocomplement_frame(w)
    while True:
        u = rng.unit_vector(F.shape[1])
        t = math.exp(rng.uniform_in(-0.7, 0.7))
        yield t * (f_time[:, 0] + F @ u)


def _orthocomplement_frame(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame of the orthogonal complement of the vector x.

    Returns (timelike columns, spacelike columns), each set normalized to
    square norm -1 or +1 and mutually orthogonal; timelike columns are
    flipped forward.  The complement must be non-degenerate.
    """
    dim = x.shape[0]
    N = null_basis((x * metric_diag(dim))[None, :], nullity=dim - 1)
    vals, vecs = np.linalg.eigh(gram(N.T))
    if float(np.min(np.abs(vals))) < 1e-10:
        raise GeometryError("orthogonal complement is numerically degenerate")
    cols = N @ (vecs / np.sqrt(np.abs(vals)))
    time = cols[:, vals < 0]
    space = cols[:, vals > 0]
    for k in range(time.shape[1]):
        if time[-1, k] < 0:
            time[:, k] = -time[:, k]
    return time, space


def _surface_frame(surface) -> tuple[np.ndarray, np.ndarray]:
    """The frame _surface_point places points of the surface in: the chart
    frame of a horosphere, else the orthocomplement frame of the centre or
    normal.  It draws no random numbers, so a family computes it once."""
    if isinstance(surface, Horosphere):
        return _horosphere_frame(surface)
    if isinstance(surface, Hypersphere):
        return _orthocomplement_frame(surface.centre.coords)
    return _orthocomplement_frame(surface.normal)


def _surface_point(rng: SplitMix64, surface, frame, spread: float) -> np.ndarray:
    """Coordinates of a random point of the surface, whose _surface_frame
    is frame."""
    if isinstance(surface, Horosphere):
        k = surface.rep.shape[0] - 2
        return _chart_inverse(surface, frame, spread * rng.normals(k))
    f_time, F = frame
    if isinstance(surface, Hypersphere):
        u = rng.unit_vector(F.shape[1])
        return math.cosh(surface.radius) * surface.centre.coords + math.sinh(
            surface.radius
        ) * (F @ u)
    y = spread * rng.normals(F.shape[1])
    h = math.sqrt(1.0 + float(y @ y)) * f_time[:, 0] + F @ y
    if isinstance(surface, CoHyperplane):
        return h
    lam = surface.offset
    return lam * surface.normal + math.hypot(lam, 1.0) * h


# ---------------------------------------------------------------------------
# kind builders: (rng, n, count, params) -> (objects, surface, witness,
# extra params), or None for a draw to throw away.  Points are placed on a
# surface drawn first by one of the (rng, dim, params) -> surface below.


def _horosphere(rng: SplitMix64, dim: int, params: dict) -> Horosphere:
    return Horosphere(_random_lightlike(rng, dim))


def _hypersphere(rng: SplitMix64, dim: int, params: dict) -> Hypersphere:
    radius = params.get("radius")
    radius = float(radius) if radius is not None else rng.uniform_in(0.3, 1.5)
    if radius <= 0:
        raise InfeasibleParams("hypersphere radius must be positive")
    return Hypersphere(HPoint(_random_point(rng, dim, 0.6)), radius)


def _equidistant(rng: SplitMix64, dim: int, params: dict) -> EquidistantBranch:
    offset = params.get("offset")
    offset = float(offset) if offset is not None else rng.uniform_in(0.2, 1.2)
    if offset == 0:
        raise InfeasibleParams("equidistant offset must be nonzero")
    return EquidistantBranch(_random_spacelike_unit(rng, dim), offset)


def _hyperplane(rng: SplitMix64, dim: int, params: dict) -> CoHyperplane:
    return CoHyperplane(_random_spacelike_unit(rng, dim))


def _points_on(surface):
    """The builder of points on the random surface surface() draws."""

    def build(rng, n, count, params):
        where = surface(rng, n + 1, params)
        frame, spread = _surface_frame(where), float(params.get("spread", 1.0))
        points = [_surface_point(rng, where, frame, spread) for _ in range(count)]
        return _family(HPoint, points), where, None, {}

    return build


def _horospheres_on_boundary(rng, n, count, params):
    w = first_nonzero_positive(_random_spacelike_unit(rng, n + 1))
    reps = list(islice(_lightlike_around(rng, w), count))
    return _family(Horosphere, reps), None, CoHyperplane(w), {}


def _hyperplanes_tangent(rng, n, count, params):
    w = first_nonzero_positive(_random_spacelike_unit(rng, n + 1))
    normals = [w + v for v in islice(_lightlike_around(rng, w), count)]
    return _family(CoHyperplane, normals), None, w, {}


def _hyperplanes_ideal_point(rng, n, count, params):
    dim = n + 1
    v = _random_lightlike(rng, dim)
    v = v / float(np.linalg.norm(v))
    basis = null_basis((v * metric_diag(dim))[None, :], nullity=dim - 1)
    normals = [_random_spacelike_unit(rng, dim, basis) for _ in range(count)]
    return _family(CoHyperplane, normals), None, v, {}


def _hyperplanes_orth_equal(rng, n, count, params):
    lam = params.get("inclination")
    if lam is not None and not 0.0 <= float(lam) < 1.0:
        raise InfeasibleParams("inclination must lie in [0, 1)")
    dim = n + 1
    u = first_nonzero_positive(_random_spacelike_unit(rng, dim))
    f_time, F = _orthocomplement_frame(u)
    w_star, f = F[:, 0], f_time[:, 0]
    if n == 2:
        # in the hyperbolic plane the two witness equations pin the family
        # to at most two distinct lines, so one of them must repeat
        theta, r = rng.uniform_in(-0.8, 0.8), rng.uniform_in(0.3, 1.2)
        lam = float(lam) if lam is not None else rng.uniform_in(0.1, 0.9)
        alpha = lam / math.cosh(r)
        v0 = math.cosh(theta) * w_star + math.sinh(theta) * f
        v = first_nonzero_positive(alpha * v0 + math.sqrt(1.0 - alpha * alpha) * u)
        ts = [theta + r, theta - r] + [theta + r if rng.sign() > 0 else theta - r] * (count - 2)
        normals = [math.cosh(t) * w_star + math.sinh(t) * f for t in ts]
    else:
        rest = np.concatenate([F[:, 1:], f_time], axis=1)  # signature (n-2, 1)
        lam = float(lam) if lam is not None else rng.uniform_in(0.1, 0.9)
        tilt = math.sqrt(1.0 - lam * lam)
        normals = [
            lam * w_star + tilt * _random_spacelike_unit(rng, dim, rest) for _ in range(count)
        ]
        v = first_nonzero_positive(w_star)
    return _family(CoHyperplane, normals), None, (u, v, lam), {"inclination": lam}


def _generic_points(rng, n, count, params):
    spread = float(params.get("spread", 1.0))
    points = [_random_point(rng, n + 1, spread) for _ in range(count)]
    return _family(HPoint, points), None, None, {}


def _generic_horospheres(rng, n, count, params):
    reps = [_random_lightlike(rng, n + 1) for _ in range(count)]
    return _family(Horosphere, reps), None, None, {}


def _generic_hyperplanes(rng, n, count, params):
    normals = [first_nonzero_positive(_random_spacelike_unit(rng, n + 1)) for _ in range(count)]
    return _family(CoHyperplane, normals), None, None, {}


def _spheres_tangent(rng, n, count, params):
    while True:
        w = _random_spacelike_unit(rng, n + 2)  # ambient dimension after the lift
        circle = normal_to_sphere_or_plane(w)
        if isinstance(circle, CoSphereE) and 0.05 < circle.radius < 20.0:
            break
    parts = []
    for v in islice(_lightlike_around(rng, w), count):
        sphere = _sphere_parts(w + v)
        if sphere is None or not 1e-3 < sphere[1] < 50.0:
            return None
        parts.append(sphere)
    centres, radii, eps = zip(*parts)
    return tuple(CoSphereE.rows(np.stack(centres), radii, eps)), circle, w, {}


def _spheres_through_point(rng, n, count, params):
    meet = 1.5 * rng.normals(n)
    centres, radii, eps = [], [], []
    for _ in range(count):
        d = math.exp(rng.uniform_in(-1.0, 1.0))
        centres.append(meet + d * rng.unit_vector(n))
        radii.append(d)
        eps.append(rng.sign())
    return tuple(CoSphereE.rows(np.stack(centres), radii, eps)), None, meet, {}


# ---------------------------------------------------------------------------
# checks: the separation of the objects and the spectrum of their matrix


def _apart(keys) -> bool:
    return _min_pairwise(keys) >= 1e-3


def _points_ok(points, deficiency: int) -> bool:
    B = half_dist_matrix(points)
    off = B[~np.eye(len(points), dtype=bool)]
    return float(np.min(off)) >= 1e-4 and _spectrum_ok(B, deficiency)


def _surface_points_ok(points, n: int) -> bool:
    # count - (n + 1) kernel vectors: the points lie on one surface
    return _points_ok(points, max(0, len(points) - (n + 1)))


def _horospheres_ok(horos, deficiency: int) -> bool:
    return _apart(Horosphere.family(horos)) and _spectrum_ok(lambda_sq_matrix(horos), deficiency)


def _on_boundary_ok(horos, n: int) -> bool:
    # centres in at least two directions
    directions = {tuple(np.round(h.rep / h.rep[-1], 6)) for h in horos}
    return len(directions) >= 2 and _horospheres_ok(horos, max(1, len(horos) - n))


def _hyperplanes_ok(planes, n: int) -> bool:
    return _apart(CoHyperplane.family(planes)) and _spectrum_ok(sigma_matrix(planes), 1)


def _orth_equal_ok(planes, n: int) -> bool:
    if n > 2:
        return _hyperplanes_ok(planes, n)
    distinct = {tuple(np.round(h.normal, 9)) for h in planes}
    return len(distinct) >= 2 and _spectrum_ok(sigma_matrix(planes), 1)


def _generic_hyperplanes_ok(planes, n: int) -> bool:
    ns = CoHyperplane.family(planes)
    return _apart(ns) and _robust_under_every_sign(gram(ns))


def _robust_under_every_sign(G: np.ndarray) -> bool:
    """Is the sigma matrix of the normals with Gram matrix G at least
    ROBUST_MARGIN from singular under every coorientation the sign search
    might try?  Only the assignments the rank-one certificate cannot place
    above the margin are solved."""
    m = G.shape[0]
    rows, _ = _candidates(m, ROBUST_MARGIN, _sigma_rank_one(G))
    solved = _solved(lambda signs: _signed_sigma(G, signs), m, rows)
    return not any(np.any(ratios < ROBUST_MARGIN) for _, _, ratios in solved)


def _spheres_ok(spheres, lifts: bool = False) -> bool:
    """Are the spheres apart, with one kernel vector of their tau matrix
    and, when lifts is set, of the sigma matrix of their lifts?"""
    if not _apart([np.concatenate([s.centre, [s.radius, s.eps]]) for s in spheres]):
        return False
    if lifts and not _spectrum_ok(sigma_matrix(CoHyperplane.rows(sphere_lifts(spheres))), 1):
        return False
    return _spectrum_ok(tau_matrix(spheres), 1)


# ---------------------------------------------------------------------------
# the kind table and the entry points


class _Kind(NamedTuple):
    extra: int  # the default count is n + extra
    fewest: float  # the counts the kind can build run from n + fewest
    most: float  # to n + most (and from 2 to MAX_FAMILY whatever the kind)
    build: Callable  # see "kind builders" above
    check: Callable  # (objects, n) -> is the draw admissible?


# Counts outside a kind's range are refused before the first draw.  A kind
# with one count is built for that count; the other limits are ranks that
# no draw could pass: up to n horospheres centred on a hyperplane's boundary
# are independent, so their matrix has no kernel, while the matrix of points
# (rank <= n + 2), horospheres (n + 1) or hyperplanes (n + 2) is singular
# beyond its rank, so no generic family of that count exists.
_KINDS = {
    GenKind.POINTS_ON_HOROSPHERE: _Kind(2, -INF, INF, _points_on(_horosphere), _surface_points_ok),
    GenKind.POINTS_ON_HYPERSPHERE: _Kind(
        2, -INF, INF, _points_on(_hypersphere), _surface_points_ok
    ),
    GenKind.POINTS_ON_HYPERPLANE: _Kind(2, -INF, INF, _points_on(_hyperplane), _surface_points_ok),
    GenKind.POINTS_ON_EQUIDISTANT: _Kind(
        2, -INF, INF, _points_on(_equidistant), _surface_points_ok
    ),
    GenKind.HOROSPHERES_ON_HYPERPLANE_BOUNDARY: _Kind(
        1, 1, INF, _horospheres_on_boundary, _on_boundary_ok
    ),
    GenKind.HYPERPLANES_TANGENT_AT_INFINITY: _Kind(1, 1, 1, _hyperplanes_tangent, _hyperplanes_ok),
    GenKind.HYPERPLANES_COMMON_IDEAL_POINT: _Kind(
        1, 1, 1, _hyperplanes_ideal_point, _hyperplanes_ok
    ),
    GenKind.HYPERPLANES_ORTH_EQUAL: _Kind(1, 1, 1, _hyperplanes_orth_equal, _orth_equal_ok),
    GenKind.GENERIC_POINTS: _Kind(2, -INF, 2, _generic_points, lambda pts, n: _points_ok(pts, 0)),
    GenKind.GENERIC_HOROSPHERES: _Kind(
        1, -INF, 1, _generic_horospheres, lambda horos, n: _horospheres_ok(horos, 0)
    ),
    GenKind.GENERIC_HYPERPLANES: _Kind(1, -INF, 2, _generic_hyperplanes, _generic_hyperplanes_ok),
    GenKind.SPHERES_TANGENT_TO_CIRCLE: _Kind(
        2, 2, 2, _spheres_tangent, lambda spheres, n: _spheres_ok(spheres, lifts=True)
    ),
    GenKind.SPHERES_THROUGH_POINT: _Kind(
        2, 2, 2, _spheres_through_point, lambda spheres, n: _spheres_ok(spheres)
    ),
}


def default_count(kind: Union[GenKind, str], n: int) -> int:
    return n + _KINDS[_coerce_kind(kind)].extra


def generate(spec: GenSpec) -> Configuration:
    """Build the configuration a spec describes; equal specs agree bitwise.

    Draws from the seed's stream are rejected and redrawn, up to
    MAX_ATTEMPTS times, until the kind's check admits one."""
    kind = _coerce_kind(spec.kind)
    row = _KINDS[kind]
    n = int(spec.n)
    if n < 2:
        raise InfeasibleParams("ambient dimension must be at least 2")
    count = int(spec.count) if spec.count is not None else n + row.extra
    fewest, most = n + row.fewest, n + row.most
    if fewest == most and count != most:
        raise InfeasibleParams(f"{kind.value} requires exactly {most} objects")
    if count < fewest:
        raise InfeasibleParams(f"{kind.value} needs at least {fewest} objects at n = {n}")
    if count > most:
        raise InfeasibleParams(f"{kind.value} takes at most {most} objects at n = {n}")
    if count < 2:
        raise InfeasibleParams("need at least two objects")
    if count > MAX_FAMILY:
        raise InfeasibleParams(f"family too large (max {MAX_FAMILY})")
    params = dict(spec.params or {})
    for key in PARAM_KEYS:
        if params.get(key) is not None and not math.isfinite(float(params[key])):
            raise InfeasibleParams(f"{key} must be finite, got {params[key]}")
    seed = int(spec.seed)
    rng = SplitMix64(seed)
    for _ in range(MAX_ATTEMPTS):
        # parameters too large for a double: math.cosh of a radius of 800,
        # numpy's square of a spread of 1e200, or a point of radius 700
        # whose largest coordinate squared overflows the object's own check
        try:
            with np.errstate(over="raise", invalid="raise"):
                built = row.build(rng, n, count, params)
                admitted = built is not None and row.check(built[0], n)
        except (OverflowError, FloatingPointError, InvalidInput) as exc:
            raise InfeasibleParams(f"parameters overflow the {kind.value} family: {exc}") from exc
        if admitted:
            objects, surface, witness, extra = built
            params.update(seed=seed, **extra)
            return Configuration(kind, n, objects, surface, witness, params)
    raise GeometryError(f"no admissible configuration after {MAX_ATTEMPTS} attempts")


def perturb(config: Configuration, magnitude: float, seed: int = 0) -> Configuration:
    """Jitter every object by roughly the given magnitude, keeping validity.

    Points stay on the hyperboloid, representatives stay lightlike, and
    normals stay unit spacelike; what breaks is the exact incidence the
    family was built with.  Magnitude zero returns the configuration
    unchanged.  The surface and witness fields are carried over as the
    reference the jitter started from.
    """
    if magnitude < 0:
        raise InvalidInput("perturbation magnitude must be nonnegative")
    if magnitude == 0:
        return config
    rng = SplitMix64(seed)
    moved = []
    for obj in config.objects:
        if isinstance(obj, HPoint):
            spatial = obj.coords[:-1] + magnitude * rng.normals(obj.coords.shape[0] - 1)
            last = math.sqrt(1.0 + float(spatial @ spatial))
            moved.append(HPoint(np.concatenate([spatial, [last]])))
        elif isinstance(obj, Horosphere):
            spatial = obj.rep[:-1] + magnitude * obj.rep[-1] * rng.normals(obj.rep.shape[0] - 1)
            r = float(np.linalg.norm(spatial))
            scale = math.exp(magnitude * rng.normal())
            moved.append(Horosphere(scale * np.concatenate([spatial * (obj.rep[-1] / r), [obj.rep[-1]]])))
        elif isinstance(obj, CoHyperplane):
            cand = obj.normal + magnitude * rng.normals(obj.normal.shape[0])
            q = norm_sq(cand)
            if q <= 0:
                raise GeometryError("perturbation pushed a normal off the spacelike cone")
            moved.append(CoHyperplane(cand / math.sqrt(q)))
        elif isinstance(obj, CoSphereE):
            centre = obj.centre + magnitude * rng.normals(obj.centre.shape[0])
            radius = obj.radius * math.exp(magnitude * rng.normal())
            moved.append(CoSphereE(centre, radius, obj.eps))
        else:
            raise InvalidInput(f"cannot perturb {type(obj).__name__}")
    return Configuration(
        config.kind, config.n, tuple(moved), config.surface, config.witness, dict(config.params)
    )
