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


# ---------------------------------------------------------------------------
# kind builders: (rng, n, count, params) -> (objects, surface, witness,
# extra params), or None for a draw to throw away.  Points are placed on a
# surface drawn first by one of the (rng, dim, params) -> (surface, place)
# below, where place(rng, spread) draws the coordinates of one point of the
# surface in a frame the draw computes once.


def _horosphere(rng: SplitMix64, dim: int, params: dict):
    h = Horosphere(_random_lightlike(rng, dim))
    frame = _horosphere_frame(h)
    return h, lambda rng, spread: _chart_inverse(h, frame, spread * rng.normals(dim - 2))


def _hypersphere(rng: SplitMix64, dim: int, params: dict):
    radius = params.get("radius")
    radius = float(radius) if radius is not None else rng.uniform_in(0.3, 1.5)
    if radius <= 0:
        raise InfeasibleParams("hypersphere radius must be positive")
    sphere = Hypersphere(HPoint(_random_point(rng, dim, 0.6)), radius)
    centre = sphere.centre.coords
    _, F = _orthocomplement_frame(centre)
    c, s = math.cosh(sphere.radius), math.sinh(sphere.radius)
    return sphere, lambda rng, spread: c * centre + s * (F @ rng.unit_vector(F.shape[1]))


def _on_hyperplane(normal: np.ndarray) -> Callable:
    """place(rng, spread) on the hyperplane orthogonal to normal."""
    f_time, F = _orthocomplement_frame(normal)

    def place(rng, spread):
        y = spread * rng.normals(F.shape[1])
        return math.sqrt(1.0 + float(y @ y)) * f_time[:, 0] + F @ y

    return place


def _equidistant(rng: SplitMix64, dim: int, params: dict):
    offset = params.get("offset")
    offset = float(offset) if offset is not None else rng.uniform_in(0.2, 1.2)
    if offset == 0:
        raise InfeasibleParams("equidistant offset must be nonzero")
    branch = EquidistantBranch(_random_spacelike_unit(rng, dim), offset)
    on_plane, lam = _on_hyperplane(branch.normal), branch.offset
    return branch, lambda rng, spread: (
        math.hypot(lam, 1.0) * on_plane(rng, spread) + lam * branch.normal
    )


def _hyperplane(rng: SplitMix64, dim: int, params: dict):
    plane = CoHyperplane(_random_spacelike_unit(rng, dim))
    return plane, _on_hyperplane(plane.normal)


def _points_on(surface):
    """The builder of points on the random surface surface() draws."""

    def build(rng, n, count, params):
        where, place = surface(rng, n + 1, params)
        spread = float(params.get("spread", 1.0))
        return _family(HPoint, [place(rng, spread) for _ in range(count)]), where, None, {}

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
# checks: (objects, kernel, n) -> is the draw admissible?  The rule admits
# objects that are apart and whose matrix has exactly kernel eigenvalues
# near zero, the rest well clear of it.

_MATRIX = {Horosphere: lambda_sq_matrix, CoHyperplane: sigma_matrix, CoSphereE: tau_matrix}


def _apart(objects) -> bool:
    """Are the vectors of the horospheres or hyperplanes, or the centre,
    radius and sign of each sphere, 1e-3 apart?"""
    if isinstance(objects[0], CoSphereE):
        return _min_pairwise(np.column_stack(CoSphereE.family(objects))) >= 1e-3
    return _min_pairwise(type(objects[0]).family(objects)) >= 1e-3


def _admit(objects, kernel: int, n: int = 0) -> bool:
    """The rule, which needs no n; points are apart when every
    sinh^2(rho/2) is at least 1e-4."""
    if isinstance(objects[0], HPoint):
        M = half_dist_matrix(objects)
        apart = float(np.min(M[~np.eye(len(objects), dtype=bool)])) >= 1e-4
        return apart and _spectrum_ok(M, kernel)
    return _apart(objects) and _spectrum_ok(_MATRIX[type(objects[0])](objects), kernel)


def _on_boundary_ok(horos, kernel: int, n: int) -> bool:
    # centres in at least two directions
    directions = {tuple(np.round(h.rep / h.rep[-1], 6)) for h in horos}
    return len(directions) >= 2 and _admit(horos, kernel)


def _orth_equal_ok(planes, kernel: int, n: int) -> bool:
    if n > 2:
        return _admit(planes, kernel)
    distinct = {tuple(np.round(h.normal, 9)) for h in planes}
    return len(distinct) >= 2 and _spectrum_ok(sigma_matrix(planes), kernel)


def _spheres_tangent_ok(spheres, kernel: int, n: int) -> bool:
    # apart, then the sigma matrix of the lifts, then tau: the last two can
    # raise, and this order decides which error a draw ends with
    if not _apart(spheres):
        return False
    lifts = CoHyperplane.rows(sphere_lifts(spheres))
    return _spectrum_ok(sigma_matrix(lifts), kernel) and _spectrum_ok(tau_matrix(spheres), kernel)


def _robust_ok(planes, kernel: int, n: int) -> bool:
    return _apart(planes) and _robust_under_every_sign(gram(CoHyperplane.family(planes)))


def _robust_under_every_sign(G: np.ndarray) -> bool:
    """Is the sigma matrix of the normals with Gram matrix G at least
    ROBUST_MARGIN from singular under every coorientation the sign search
    might try?  Only the assignments the rank-one certificate cannot place
    above the margin are solved."""
    m = G.shape[0]
    rows, _ = _candidates(m, ROBUST_MARGIN, _sigma_rank_one(G))
    solved = _solved(lambda signs: _signed_sigma(G, signs), m, rows)
    return not any(np.any(ratios < ROBUST_MARGIN) for _, _, ratios in solved)


# ---------------------------------------------------------------------------
# the kind table and the entry points


class _Kind(NamedTuple):
    extra: int  # the default count is n + extra
    fewest: float  # the counts the kind can build run from n + fewest
    most: float  # to n + most (and from 2 to MAX_FAMILY whatever the kind)
    rank: int  # the kind's matrix has rank at most n + rank
    build: Callable  # see "kind builders" above
    check: Callable = _admit  # see "checks" above


# An admitted draw shows exactly max(0, count - n - rank) kernel vectors.
# Counts outside a kind's range are refused before the first draw.  A kind
# with one count is built for that count; the other limits are ranks that
# no draw could pass: up to n horospheres centred on a hyperplane's boundary
# are independent, so their matrix has no kernel, while the matrix of points
# (rank <= n + 2), horospheres (n + 1) or hyperplanes (n + 2) is singular
# beyond its rank, so no generic family of that count exists.
_KINDS = {
    GenKind.POINTS_ON_HOROSPHERE: _Kind(2, -INF, INF, 1, _points_on(_horosphere)),
    GenKind.POINTS_ON_HYPERSPHERE: _Kind(2, -INF, INF, 1, _points_on(_hypersphere)),
    GenKind.POINTS_ON_HYPERPLANE: _Kind(2, -INF, INF, 1, _points_on(_hyperplane)),
    GenKind.POINTS_ON_EQUIDISTANT: _Kind(2, -INF, INF, 1, _points_on(_equidistant)),
    GenKind.HOROSPHERES_ON_HYPERPLANE_BOUNDARY: _Kind(
        1, 1, INF, 0, _horospheres_on_boundary, _on_boundary_ok
    ),
    GenKind.HYPERPLANES_TANGENT_AT_INFINITY: _Kind(1, 1, 1, 0, _hyperplanes_tangent),
    GenKind.HYPERPLANES_COMMON_IDEAL_POINT: _Kind(1, 1, 1, 0, _hyperplanes_ideal_point),
    GenKind.HYPERPLANES_ORTH_EQUAL: _Kind(1, 1, 1, 0, _hyperplanes_orth_equal, _orth_equal_ok),
    GenKind.GENERIC_POINTS: _Kind(2, -INF, 2, 2, _generic_points),
    GenKind.GENERIC_HOROSPHERES: _Kind(1, -INF, 1, 1, _generic_horospheres),
    GenKind.GENERIC_HYPERPLANES: _Kind(1, -INF, 2, 2, _generic_hyperplanes, _robust_ok),
    GenKind.SPHERES_TANGENT_TO_CIRCLE: _Kind(2, 2, 2, 1, _spheres_tangent, _spheres_tangent_ok),
    GenKind.SPHERES_THROUGH_POINT: _Kind(2, 2, 2, 1, _spheres_through_point),
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
    kernel = max(0, count - n - row.rank)
    for _ in range(MAX_ATTEMPTS):
        # parameters too large for a double: math.cosh of a radius of 800,
        # numpy's square of a spread of 1e200, or a point of radius 700
        # whose largest coordinate squared overflows the object's own check
        try:
            with np.errstate(over="raise", invalid="raise"):
                built = row.build(rng, n, count, params)
                admitted = built is not None and row.check(built[0], kernel, n)
        except (OverflowError, FloatingPointError, InvalidInput) as exc:
            raise InfeasibleParams(f"parameters overflow the {kind.value} family: {exc}") from exc
        if admitted:
            objects, surface, witness, extra = built
            params.update(seed=seed, **extra)
            return Configuration(kind, n, objects, surface, witness, params)
    raise GeometryError(f"no admissible configuration after {MAX_ATTEMPTS} attempts")


def _moved(obj, magnitude: float, rng: SplitMix64):
    """obj jittered by magnitude with draws from rng, as perturb moves it."""
    if isinstance(obj, HPoint):
        spatial = obj.coords[:-1] + magnitude * rng.normals(obj.coords.shape[0] - 1)
        return HPoint(np.concatenate([spatial, [math.sqrt(1.0 + float(spatial @ spatial))]]))
    if isinstance(obj, Horosphere):
        t = obj.rep[-1]
        spatial = obj.rep[:-1] + magnitude * t * rng.normals(obj.rep.shape[0] - 1)
        r = float(np.linalg.norm(spatial))
        scale = math.exp(magnitude * rng.normal())
        return Horosphere(scale * np.concatenate([spatial * (t / r), [t]]))
    if isinstance(obj, CoHyperplane):
        cand = obj.normal + magnitude * rng.normals(obj.normal.shape[0])
        q = norm_sq(cand)
        if q <= 0:
            raise GeometryError("perturbation pushed a normal off the spacelike cone")
        return CoHyperplane(cand / math.sqrt(q))
    if isinstance(obj, CoSphereE):
        centre = obj.centre + magnitude * rng.normals(obj.centre.shape[0])
        return CoSphereE(centre, obj.radius * math.exp(magnitude * rng.normal()), obj.eps)
    raise InvalidInput(f"cannot perturb {type(obj).__name__}")


def perturb(config: Configuration, magnitude: float, seed: int = 0) -> Configuration:
    """Jitter every object by roughly the given magnitude, keeping validity.

    Points stay on the hyperboloid, representatives stay lightlike, and
    normals stay unit spacelike; what breaks is the exact incidence the
    family was built with.  Magnitude zero returns the configuration
    unchanged.  The surface and witness fields are carried over as the
    reference the jitter started from.
    """
    if not math.isfinite(magnitude):
        raise InvalidInput(f"perturbation magnitude must be finite, got {magnitude}")
    if magnitude < 0:
        raise InvalidInput("perturbation magnitude must be nonnegative")
    if magnitude == 0:
        return config
    rng = SplitMix64(seed)
    # moves that overflow a double, or that scale a representative or a
    # radius down to zero, are refused as one InvalidInput
    try:
        with np.errstate(over="raise", invalid="raise"):
            moved = [_moved(obj, magnitude, rng) for obj in config.objects]
    except (OverflowError, FloatingPointError, InvalidInput) as exc:
        raise InvalidInput(f"perturbation of magnitude {magnitude} fails: {exc}") from exc
    return Configuration(
        config.kind, config.n, tuple(moved), config.surface, config.witness, dict(config.params)
    )
