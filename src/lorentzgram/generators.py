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
from typing import Optional, Sequence, Union

import numpy as np

from .errors import GeometryError, InfeasibleParams, InvalidInput
from .genkind import GenKind
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
    _sigma_rank_one,
    _sign_candidates,
    _sign_spectra,
    _signed_sigma,
    half_dist_matrix,
    lambda_sq_matrix,
    sigma_matrix,
    tau_matrix,
)

MAX_ATTEMPTS = 100

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


def default_count(kind: Union[GenKind, str], n: int) -> int:
    kind = _coerce_kind(kind)
    if kind in (
        GenKind.POINTS_ON_HOROSPHERE,
        GenKind.POINTS_ON_HYPERSPHERE,
        GenKind.POINTS_ON_HYPERPLANE,
        GenKind.POINTS_ON_EQUIDISTANT,
        GenKind.GENERIC_POINTS,
        GenKind.SPHERES_TANGENT_TO_CIRCLE,
        GenKind.SPHERES_THROUGH_POINT,
    ):
        return n + 2
    return n + 1


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


def _random_spacelike_unit(rng: SplitMix64, dim: int) -> np.ndarray:
    while True:
        v = rng.normals(dim)
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


def _orthocomplement_frame(vectors: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame of the orthogonal complement of independent rows.

    Returns (timelike columns, spacelike columns), each set normalized to
    square norm -1 or +1 and mutually orthogonal; timelike columns are
    flipped forward.  The complement must be non-degenerate.
    """
    arr = np.atleast_2d(np.asarray(vectors, dtype=float))
    D = metric_diag(dim)
    N = null_basis(arr * D, nullity=dim - arr.shape[0])
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
        x = surface.centre.coords
    elif isinstance(surface, (CoHyperplane, EquidistantBranch)):
        x = surface.normal
    else:
        raise InvalidInput(f"cannot sample points on {type(surface).__name__}")
    return _orthocomplement_frame(x[None, :], x.shape[0])


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


def _points_family(rng: SplitMix64, surface, count: int, spread: float) -> tuple:
    frame = _surface_frame(surface)
    return _family(HPoint, [_surface_point(rng, surface, frame, spread) for _ in range(count)])


def _attempts(builder, check):
    for _ in range(MAX_ATTEMPTS):
        config = builder()
        if check(config):
            return config
    raise GeometryError(f"no admissible configuration after {MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# kind builders


def _gen_points_on_surface(kind: GenKind, n: int, count: int, seed: int, params: dict):
    rng = SplitMix64(seed)
    spread = float(params.get("spread", 1.0))
    dim = n + 1
    deficiency = max(0, count - (n + 1))

    def build():
        if kind is GenKind.POINTS_ON_HOROSPHERE:
            surface = Horosphere(_random_lightlike(rng, dim))
        elif kind is GenKind.POINTS_ON_HYPERSPHERE:
            radius = float(params.get("radius", 0.0)) or rng.uniform_in(0.3, 1.5)
            if radius <= 0:
                raise InfeasibleParams("hypersphere radius must be positive")
            surface = Hypersphere(HPoint(_random_point(rng, dim, 0.6)), radius)
        elif kind is GenKind.POINTS_ON_HYPERPLANE:
            surface = CoHyperplane(_random_spacelike_unit(rng, dim))
        else:
            offset = float(params.get("offset", 0.0)) or rng.uniform_in(0.2, 1.2)
            if offset == 0:
                raise InfeasibleParams("equidistant offset must be nonzero")
            surface = EquidistantBranch(_random_spacelike_unit(rng, dim), offset)
        points = _points_family(rng, surface, count, spread)
        return Configuration(kind, n, points, surface=surface, params=dict(params, seed=seed))

    def check(config):
        B = half_dist_matrix(config.objects)
        off = B[~np.eye(count, dtype=bool)]
        if off.size and float(np.min(off)) < 1e-4:
            return False
        return _spectrum_ok(B, deficiency)

    return _attempts(build, check)


def _gen_horospheres_on_boundary(n: int, count: int, seed: int, params: dict):
    rng = SplitMix64(seed)
    dim = n + 1

    def build():
        w = first_nonzero_positive(_random_spacelike_unit(rng, dim))
        f_time, F = _orthocomplement_frame(w[None, :], dim)
        reps = []
        for _ in range(count):
            u = rng.unit_vector(F.shape[1])
            s = math.exp(rng.uniform_in(-0.7, 0.7))
            reps.append(s * (f_time[:, 0] + F @ u))
        return Configuration(
            GenKind.HOROSPHERES_ON_HYPERPLANE_BOUNDARY,
            n,
            _family(Horosphere, reps),
            witness=CoHyperplane(w),
            params=dict(params, seed=seed),
        )

    def check(config):
        reps = [h.rep for h in config.objects]
        if _min_pairwise(reps) < 1e-3:
            return False
        distinct_dirs = {tuple(np.round(r / r[-1], 6)) for r in reps}
        if len(distinct_dirs) < 2:
            return False
        return _spectrum_ok(lambda_sq_matrix(config.objects), max(1, count - n))

    return _attempts(build, check)


def _gen_hyperplanes_tangent(n: int, count: int, seed: int, params: dict):
    rng = SplitMix64(seed)
    dim = n + 1

    def build():
        w = first_nonzero_positive(_random_spacelike_unit(rng, dim))
        f_time, F = _orthocomplement_frame(w[None, :], dim)
        normals = []
        for _ in range(count):
            u = rng.unit_vector(F.shape[1])
            t = math.exp(rng.uniform_in(-0.7, 0.7))
            normals.append(w + t * (f_time[:, 0] + F @ u))
        return Configuration(
            GenKind.HYPERPLANES_TANGENT_AT_INFINITY,
            n,
            _family(CoHyperplane, normals),
            witness=w,
            params=dict(params, seed=seed),
        )

    def check(config):
        ns = [h.normal for h in config.objects]
        if _min_pairwise(ns) < 1e-3:
            return False
        return _spectrum_ok(sigma_matrix(list(config.objects)), 1)

    return _attempts(build, check)


def _gen_hyperplanes_ideal_point(n: int, count: int, seed: int, params: dict):
    rng = SplitMix64(seed)
    dim = n + 1

    def build():
        v = _random_lightlike(rng, dim)
        v = v / float(np.linalg.norm(v))
        basis = null_basis((v * metric_diag(dim))[None, :], nullity=dim - 1)
        normals = []
        for _ in range(count):
            while True:
                y = rng.normals(dim - 1)
                cand = basis @ y
                q = _dot(cand, cand)
                if q > 0.05 * float(cand @ cand):
                    normals.append(cand / math.sqrt(q))
                    break
        return Configuration(
            GenKind.HYPERPLANES_COMMON_IDEAL_POINT,
            n,
            _family(CoHyperplane, normals),
            witness=v,
            params=dict(params, seed=seed),
        )

    def check(config):
        ns = [h.normal for h in config.objects]
        if _min_pairwise(ns) < 1e-3:
            return False
        return _spectrum_ok(sigma_matrix(list(config.objects)), 1)

    return _attempts(build, check)


def _gen_hyperplanes_orth_equal(n: int, count: int, seed: int, params: dict):
    rng = SplitMix64(seed)
    dim = n + 1
    lam_param = params.get("inclination")
    if lam_param is not None and not 0.0 <= float(lam_param) < 1.0:
        raise InfeasibleParams("inclination must lie in [0, 1)")

    def build_general():
        u = first_nonzero_positive(_random_spacelike_unit(rng, dim))
        f_time, F = _orthocomplement_frame(u[None, :], dim)
        w_star = F[:, 0]
        rest = np.concatenate([F[:, 1:], f_time], axis=1)  # signature (n-2, 1)
        lam = float(lam_param) if lam_param is not None else rng.uniform_in(0.1, 0.9)
        normals = []
        for _ in range(count):
            while True:
                y = rng.normals(rest.shape[1])
                q_dir = rest @ y
                q = _dot(q_dir, q_dir)
                if q > 0.05 * float(q_dir @ q_dir):
                    q_dir = q_dir / math.sqrt(q)
                    break
            normals.append(lam * w_star + math.sqrt(1.0 - lam * lam) * q_dir)
        return normals, u, first_nonzero_positive(w_star), lam

    def build_plane():
        # in the hyperbolic plane the two witness equations pin the family
        # to at most two distinct lines, so one of them must repeat
        u = first_nonzero_positive(_random_spacelike_unit(rng, dim))
        f_time, F = _orthocomplement_frame(u[None, :], dim)
        w_star, f = F[:, 0], f_time[:, 0]
        theta = rng.uniform_in(-0.8, 0.8)
        r = rng.uniform_in(0.3, 1.2)
        lam = float(lam_param) if lam_param is not None else rng.uniform_in(0.1, 0.9)
        alpha = lam / math.cosh(r)
        beta = math.sqrt(1.0 - alpha * alpha)
        v0 = math.cosh(theta) * w_star + math.sinh(theta) * f
        v = first_nonzero_positive(alpha * v0 + beta * u)
        ts = [theta + r, theta - r] + [theta + r if rng.sign() > 0 else theta - r] * (count - 2)
        normals = [math.cosh(t) * w_star + math.sinh(t) * f for t in ts]
        return normals, u, v, lam

    def build():
        normals, u, v, lam = build_plane() if n == 2 else build_general()
        return Configuration(
            GenKind.HYPERPLANES_ORTH_EQUAL,
            n,
            _family(CoHyperplane, normals),
            witness=(u, v, lam),
            params=dict(params, seed=seed, inclination=lam),
        )

    def check(config):
        ns = [h.normal for h in config.objects]
        if n > 2 and _min_pairwise(ns) < 1e-3:
            return False
        if n == 2 and len({tuple(np.round(x, 9)) for x in ns}) < 2:
            return False
        return _spectrum_ok(sigma_matrix(list(config.objects)), 1)

    return _attempts(build, check)


def _gen_generic_points(n: int, count: int, seed: int, params: dict):
    rng = SplitMix64(seed)
    spread = float(params.get("spread", 1.0))
    dim = n + 1

    def build():
        points = _family(HPoint, [_random_point(rng, dim, spread) for _ in range(count)])
        return Configuration(GenKind.GENERIC_POINTS, n, points, params=dict(params, seed=seed))

    def check(config):
        B = half_dist_matrix(config.objects)
        off = B[~np.eye(count, dtype=bool)]
        if off.size and float(np.min(off)) < 1e-4:
            return False
        return _spectrum_ok(B, 0)

    return _attempts(build, check)


def _gen_generic_horospheres(n: int, count: int, seed: int, params: dict):
    rng = SplitMix64(seed)
    dim = n + 1

    def build():
        horos = _family(Horosphere, [_random_lightlike(rng, dim) for _ in range(count)])
        return Configuration(GenKind.GENERIC_HOROSPHERES, n, horos, params=dict(params, seed=seed))

    def check(config):
        reps = [h.rep for h in config.objects]
        if _min_pairwise(reps) < 1e-3:
            return False
        return _spectrum_ok(lambda_sq_matrix(config.objects), 0)

    return _attempts(build, check)


def _gen_generic_hyperplanes(n: int, count: int, seed: int, params: dict):
    rng = SplitMix64(seed)
    dim = n + 1

    def build():
        normals = _family(
            CoHyperplane,
            [first_nonzero_positive(_random_spacelike_unit(rng, dim)) for _ in range(count)],
        )
        return Configuration(
            GenKind.GENERIC_HYPERPLANES, n, normals, params=dict(params, seed=seed)
        )

    def check(config):
        ns = np.stack([h.normal for h in config.objects])
        if _min_pairwise(ns) < 1e-3:
            return False
        return _robust_under_every_sign(gram(ns))

    return _attempts(build, check)


def _robust_under_every_sign(G: np.ndarray) -> bool:
    """Is the sigma matrix of the normals with Gram matrix G at least
    ROBUST_MARGIN from singular under every coorientation the sign search
    might try?  Only the assignments the rank-one certificate cannot place
    above the margin are solved."""
    m = G.shape[0]
    rows = _sign_candidates(_sigma_rank_one(G), m, ROBUST_MARGIN)
    spectra = _sign_spectra(lambda signs: _signed_sigma(G, signs), m, rows)
    return not any(np.any(smin < ROBUST_MARGIN * smax) for _, smin, smax in spectra)


def _gen_spheres_tangent(n: int, count: int, seed: int, params: dict):
    rng = SplitMix64(seed)
    dim = n + 2  # ambient dimension after the lift

    def build():
        while True:
            w = _random_spacelike_unit(rng, dim)
            witness = normal_to_sphere_or_plane(w)
            if isinstance(witness, CoSphereE) and 0.05 < witness.radius < 20.0:
                break
        f_time, F = _orthocomplement_frame(w[None, :], dim)
        parts = []
        for _ in range(count):
            u = rng.unit_vector(F.shape[1])
            t = math.exp(rng.uniform_in(-0.7, 0.7))
            sphere = _sphere_parts(w + t * (f_time[:, 0] + F @ u))
            if sphere is None or not 1e-3 < sphere[1] < 50.0:
                return None
            parts.append(sphere)
        centres, radii, eps = zip(*parts)
        return Configuration(
            GenKind.SPHERES_TANGENT_TO_CIRCLE,
            n,
            tuple(CoSphereE.rows(np.stack(centres), radii, eps)),
            surface=witness,
            witness=w,
            params=dict(params, seed=seed),
        )

    def check(config):
        if config is None:
            return False
        keys = [np.concatenate([s.centre, [s.radius, s.eps]]) for s in config.objects]
        if _min_pairwise(keys) < 1e-3:
            return False
        lifts = CoHyperplane.rows(sphere_lifts(config.objects))
        if not _spectrum_ok(sigma_matrix(lifts), 1):
            return False
        return _spectrum_ok(tau_matrix(list(config.objects)), 1)

    return _attempts(build, check)


def _gen_spheres_through_point(n: int, count: int, seed: int, params: dict):
    rng = SplitMix64(seed)

    def build():
        meet = 1.5 * rng.normals(n)
        centres, radii, eps = [], [], []
        for _ in range(count):
            d = math.exp(rng.uniform_in(-1.0, 1.0))
            centres.append(meet + d * rng.unit_vector(n))
            radii.append(d)
            eps.append(rng.sign())
        return Configuration(
            GenKind.SPHERES_THROUGH_POINT,
            n,
            tuple(CoSphereE.rows(np.stack(centres), radii, eps)),
            witness=meet,
            params=dict(params, seed=seed),
        )

    def check(config):
        keys = [np.concatenate([s.centre, [s.radius, s.eps]]) for s in config.objects]
        if _min_pairwise(keys) < 1e-3:
            return False
        return _spectrum_ok(tau_matrix(list(config.objects)), 1)

    return _attempts(build, check)


# ---------------------------------------------------------------------------
# entry points


_FIXED_COUNT_KINDS = {
    GenKind.HYPERPLANES_TANGENT_AT_INFINITY,
    GenKind.HYPERPLANES_COMMON_IDEAL_POINT,
    GenKind.HYPERPLANES_ORTH_EQUAL,
    GenKind.SPHERES_TANGENT_TO_CIRCLE,
    GenKind.SPHERES_THROUGH_POINT,
}


def generate(spec: GenSpec) -> Configuration:
    """Build the configuration a spec describes; equal specs agree bitwise."""
    kind = _coerce_kind(spec.kind)
    n = int(spec.n)
    if n < 2:
        raise InfeasibleParams("ambient dimension must be at least 2")
    count = int(spec.count) if spec.count is not None else default_count(kind, n)
    if count != default_count(kind, n) and kind in _FIXED_COUNT_KINDS:
        raise InfeasibleParams(f"{kind.value} requires exactly {default_count(kind, n)} objects")
    if count < 2:
        raise InfeasibleParams("need at least two objects")
    if count > MAX_FAMILY:
        raise InfeasibleParams(f"family too large (max {MAX_FAMILY})")
    params = dict(spec.params or {})
    seed = int(spec.seed)

    if kind in (
        GenKind.POINTS_ON_HOROSPHERE,
        GenKind.POINTS_ON_HYPERSPHERE,
        GenKind.POINTS_ON_HYPERPLANE,
        GenKind.POINTS_ON_EQUIDISTANT,
    ):
        return _gen_points_on_surface(kind, n, count, seed, params)
    if kind is GenKind.HOROSPHERES_ON_HYPERPLANE_BOUNDARY:
        return _gen_horospheres_on_boundary(n, count, seed, params)
    if kind is GenKind.HYPERPLANES_TANGENT_AT_INFINITY:
        return _gen_hyperplanes_tangent(n, count, seed, params)
    if kind is GenKind.HYPERPLANES_COMMON_IDEAL_POINT:
        return _gen_hyperplanes_ideal_point(n, count, seed, params)
    if kind is GenKind.HYPERPLANES_ORTH_EQUAL:
        return _gen_hyperplanes_orth_equal(n, count, seed, params)
    if kind is GenKind.GENERIC_POINTS:
        return _gen_generic_points(n, count, seed, params)
    if kind is GenKind.GENERIC_HOROSPHERES:
        return _gen_generic_horospheres(n, count, seed, params)
    if kind is GenKind.GENERIC_HYPERPLANES:
        return _gen_generic_hyperplanes(n, count, seed, params)
    if kind is GenKind.SPHERES_TANGENT_TO_CIRCLE:
        return _gen_spheres_tangent(n, count, seed, params)
    return _gen_spheres_through_point(n, count, seed, params)


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
