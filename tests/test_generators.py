"""Generator contracts: bitwise determinism, incidence by construction,
margin guarantees, and perturbation behavior."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorentzgram as lg
from lorentzgram import generators, theorems
from lorentzgram.cli import canonical_json, config_to_scene_doc, object_to_record

ALL_KINDS = [k.value for k in lg.GenKind]

# finite parameters whose family overflows a double; at a radius of 700 the
# points are finite but their coordinates' squares are not
OVERFLOWING_PARAMS = [
    ("points_on_hypersphere", "radius", 800.0),
    ("points_on_hypersphere", "radius", 710.0),
    ("points_on_hypersphere", "radius", 700.0),
    ("points_on_horosphere", "spread", 1e200),
    ("generic_points", "spread", 1e200),
    ("points_on_equidistant", "offset", 1e308),
]

DEGENERATE_KINDS = [
    "points_on_horosphere", "points_on_hypersphere", "points_on_hyperplane",
    "points_on_equidistant", "horospheres_on_hyperplane_boundary",
    "hyperplanes_tangent_at_infinity", "hyperplanes_common_ideal_point",
    "hyperplanes_orth_equal", "spheres_tangent_to_circle", "spheres_through_point",
]


def family_matrix(cfg: lg.Configuration) -> np.ndarray:
    obj = cfg.objects[0]
    if isinstance(obj, lg.HPoint):
        return lg.half_dist_matrix(cfg.objects)
    if isinstance(obj, lg.Horosphere):
        return lg.lambda_sq_matrix(cfg.objects)
    if isinstance(obj, lg.CoHyperplane):
        return lg.sigma_matrix(list(cfg.objects))
    return lg.tau_matrix(list(cfg.objects))


def raw_arrays(cfg: lg.Configuration) -> list:
    out = []
    for obj in cfg.objects:
        if isinstance(obj, lg.HPoint):
            out.append(obj.coords)
        elif isinstance(obj, lg.Horosphere):
            out.append(obj.rep)
        elif isinstance(obj, lg.CoHyperplane):
            out.append(obj.normal)
        else:
            out.append(np.concatenate([obj.centre, [obj.radius, float(obj.eps)]]))
    return out


class TestDeterminism:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_equal_specs_agree_bitwise(self, kind):
        a = lg.generate(lg.GenSpec(kind, 2, seed=101))
        b = lg.generate(lg.GenSpec(kind, 2, seed=101))
        for x, y in zip(raw_arrays(a), raw_arrays(b)):
            assert np.array_equal(x, y)

    def test_enum_and_string_kinds_agree(self):
        a = lg.generate(lg.GenSpec(lg.GenKind.GENERIC_POINTS, 3, seed=5))
        b = lg.generate(lg.GenSpec("generic_points", 3, seed=5))
        for x, y in zip(raw_arrays(a), raw_arrays(b)):
            assert np.array_equal(x, y)

    def test_seeds_differ(self):
        a = lg.generate(lg.GenSpec("generic_points", 3, seed=1))
        b = lg.generate(lg.GenSpec("generic_points", 3, seed=2))
        assert not np.array_equal(raw_arrays(a)[0], raw_arrays(b)[0])


class TestMargins:
    @pytest.mark.parametrize("kind", DEGENERATE_KINDS)
    def test_degenerate_kinds_are_degenerate(self, kind):
        for n in (2, 3):
            cfg = lg.generate(lg.GenSpec(kind, n, seed=7))
            M = family_matrix(cfg)
            if isinstance(cfg.objects[0], lg.CoSphereE):
                # coorientations enter the sphere test through the sign search
                res = lg.corollary_d_test(cfg.objects)
                assert res.verdict.is_degenerate, (kind, n)
            else:
                s = np.sort(np.abs(np.linalg.eigvalsh(M)))
                assert s[0] <= 1e-10 * max(s[-1], 1.0), (kind, n)
                assert s[1] >= 1e-5 * max(s[-1], 1.0) or len(cfg.objects) > n + 1, (kind, n)

    @pytest.mark.parametrize(
        "kind", ["generic_points", "generic_horospheres", "generic_hyperplanes"]
    )
    def test_generic_kinds_are_robustly_nondegenerate(self, kind):
        for n in (2, 3):
            cfg = lg.generate(lg.GenSpec(kind, n, seed=9))
            s = np.sort(np.abs(np.linalg.eigvalsh(family_matrix(cfg))))
            assert s[0] >= 1e-5 * max(s[-1], 1.0), (kind, n)


def every_ratio(G: np.ndarray) -> np.ndarray:
    """The sigma matrix's smallest |eigenvalue| over its largest floored at
    1, for every assignment, solved in one stack."""
    m = G.shape[0]
    signs = theorems._signs_of(np.arange(1 << (m - 1)), m)
    sigmas = np.abs(np.linalg.eigvalsh(theorems._signed_sigma(G, signs)))
    return sigmas.min(axis=1) / np.maximum(sigmas.max(axis=1), 1.0)


def exhaustive_robust(G: np.ndarray) -> bool:
    """The generator's sign check solved for every assignment."""
    return not np.any(every_ratio(G) < generators.ROBUST_MARGIN)


def least_ratio(G: np.ndarray) -> float:
    return float(np.min(every_ratio(G)))


class TestGenericCertificate:
    """The generic_hyperplanes check solves only the assignments the
    rank-one certificate cannot place above ROBUST_MARGIN; its answer must
    be the exhaustive one."""

    def test_accepted_families(self, monkeypatch):
        for n in range(5, 13):
            for seed in (0, 1):
                cfg = lg.generate(lg.GenSpec("generic_hyperplanes", n, seed=seed))
                G = lg.gram([h.normal for h in cfg.objects])
                assert generators._robust_under_every_sign(G) is True
                assert exhaustive_robust(G) is True
                # a margin at the family's own least ratio, and a hair either side
                least = least_ratio(G)
                for factor in (1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.001):
                    monkeypatch.setattr(generators, "ROBUST_MARGIN", least * factor)
                    got = generators._robust_under_every_sign(G)
                    assert got == exhaustive_robust(G), (n, seed, factor)
                    assert got == (factor < 1.0) or factor == 1.0, (n, seed, factor)
                monkeypatch.undo()

    def test_families_near_the_margin(self):
        # blending a tangent family into a generic one lifts the least
        # ratio over the sign search from rounding level past the margin
        for n in (6, 9):
            tangent = lg.generate(lg.GenSpec("hyperplanes_tangent_at_infinity", n, seed=3))
            generic = lg.generate(lg.GenSpec("generic_hyperplanes", n, seed=3))
            a = np.stack([h.normal for h in tangent.objects])
            b = np.stack([h.normal for h in generic.objects])
            answers, near = set(), 0
            for t in np.geomspace(1e-7, 1.0, 36):
                v = a + t * (b - a)
                q = np.sum(v * v * lg.metric_diag(n + 1), axis=1)
                if np.any(q <= 0.1):
                    continue
                G = lg.gram(v / np.sqrt(q)[:, None])
                want = exhaustive_robust(G)
                assert generators._robust_under_every_sign(G) == want, (n, t)
                answers.add(want)
                near += 0.5 < least_ratio(G) / generators.ROBUST_MARGIN < 2.0
            assert answers == {True, False}, n
            assert near >= 1, n


class TestIncidence:
    def test_points_sit_on_their_surface(self):
        for kind in ("points_on_horosphere", "points_on_hypersphere",
                     "points_on_hyperplane", "points_on_equidistant"):
            cfg = lg.generate(lg.GenSpec(kind, 3, seed=11))
            for p in cfg.objects:
                assert lg.contains(cfg.surface, p, 1e-12)

    def test_horosphere_centres_on_witness_boundary(self):
        cfg = lg.generate(lg.GenSpec("horospheres_on_hyperplane_boundary", 3, seed=13))
        w = cfg.witness.normal
        for h in cfg.objects:
            assert abs(lg.inner(h.rep, w)) <= 1e-12 * float(np.max(np.abs(h.rep)))

    def test_tangent_hyperplanes_pair_to_one(self):
        cfg = lg.generate(lg.GenSpec("hyperplanes_tangent_at_infinity", 3, seed=15))
        for h in cfg.objects:
            assert lg.inner(h.normal, cfg.witness) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_point_orthogonality(self):
        cfg = lg.generate(lg.GenSpec("hyperplanes_common_ideal_point", 3, seed=17))
        for h in cfg.objects:
            assert abs(lg.inner(h.normal, cfg.witness)) <= 1e-12

    def test_orth_equal_witness_equations(self):
        for n in (2, 3):
            cfg = lg.generate(lg.GenSpec("hyperplanes_orth_equal", n, seed=19))
            u, v, lam = cfg.witness
            for h in cfg.objects:
                assert abs(lg.inner(h.normal, u)) <= 1e-12
                assert abs(lg.inner(h.normal, v)) == pytest.approx(lam, abs=1e-12)

    def test_spheres_touch_witness_circle(self):
        cfg = lg.generate(lg.GenSpec("spheres_tangent_to_circle", 2, seed=21))
        for s in cfg.objects:
            pairing = lg.inner(lg.sphere_lift(s).normal, cfg.witness)
            assert pairing == pytest.approx(1.0, abs=1e-10)

    def test_spheres_pass_through_witness_point(self):
        cfg = lg.generate(lg.GenSpec("spheres_through_point", 2, seed=23))
        for s in cfg.objects:
            gap = float(np.linalg.norm(s.centre - cfg.witness))
            assert gap == pytest.approx(s.radius, rel=1e-12)


class TestParams:
    def test_radius_and_offset_respected(self):
        cfg = lg.generate(lg.GenSpec("points_on_hypersphere", 3, seed=25,
                                     params={"radius": 0.7}))
        assert cfg.surface.radius == 0.7
        cfg = lg.generate(lg.GenSpec("points_on_equidistant", 3, seed=25,
                                     params={"offset": 0.9}))
        assert cfg.surface.offset == 0.9

    def test_inclination_respected(self):
        cfg = lg.generate(lg.GenSpec("hyperplanes_orth_equal", 3, seed=27,
                                     params={"inclination": 0.35}))
        assert cfg.witness[2] == 0.35

    def test_inclination_domain(self):
        with pytest.raises(lg.InfeasibleParams):
            lg.generate(lg.GenSpec("hyperplanes_orth_equal", 3, params={"inclination": 1.0}))

    def test_count_rules(self):
        assert lg.default_count(lg.GenKind.GENERIC_POINTS, 3) == 5
        assert lg.default_count(lg.GenKind.GENERIC_HYPERPLANES, 3) == 4
        with pytest.raises(lg.InfeasibleParams):
            lg.generate(lg.GenSpec("hyperplanes_tangent_at_infinity", 3, count=6))
        with pytest.raises(lg.InfeasibleParams):
            lg.generate(lg.GenSpec("generic_points", 3, count=1))
        with pytest.raises(lg.InfeasibleParams):
            lg.generate(lg.GenSpec("generic_points", 3, count=lg.MAX_FAMILY + 1))
        cfg = lg.generate(lg.GenSpec("points_on_horosphere", 3, seed=29, count=4))
        assert len(cfg.objects) == 4

    @pytest.mark.parametrize("kind,key,value", OVERFLOWING_PARAMS)
    def test_overflowing_params_are_infeasible(self, kind, key, value):
        # cosh(800) overflows a double, and so do numpy's squares of the
        # others: the spec is refused, without a warning from the arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lg.InfeasibleParams, match=f"overflow the {kind} family"):
                lg.generate(lg.GenSpec(kind, 3, params={key: value}))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key,kind", [
        ("spread", "points_on_horosphere"), ("spread", "generic_points"),
        ("radius", "points_on_hypersphere"), ("offset", "points_on_equidistant"),
        ("inclination", "hyperplanes_orth_equal"), ("spread", "generic_hyperplanes"),
    ])
    def test_non_finite_params_are_infeasible(self, key, kind, value):
        # refused up front, naming the key, whether the kind reads it or not
        with pytest.raises(lg.InfeasibleParams, match=f"^{key} must be finite"):
            lg.generate(lg.GenSpec(kind, 3, seed=1, params={key: value}))

    def test_dimension_floor(self):
        with pytest.raises(lg.InfeasibleParams):
            lg.generate(lg.GenSpec("generic_points", 1))

    def test_unknown_kind(self):
        with pytest.raises(lg.InvalidInput):
            lg.generate(lg.GenSpec("nonsense", 3))


class TestPerturb:
    def test_zero_magnitude_is_identity(self):
        cfg = lg.generate(lg.GenSpec("points_on_horosphere", 3, seed=31))
        assert lg.perturb(cfg, 0.0) is cfg

    def test_negative_magnitude_rejected(self):
        cfg = lg.generate(lg.GenSpec("generic_points", 2, seed=31))
        with pytest.raises(lg.InvalidInput):
            lg.perturb(cfg, -0.1)

    def test_perturbed_objects_stay_valid(self):
        for kind in ("points_on_horosphere", "horospheres_on_hyperplane_boundary",
                     "hyperplanes_tangent_at_infinity", "spheres_through_point"):
            cfg = lg.generate(lg.GenSpec(kind, 2, seed=33))
            moved = lg.perturb(cfg, 1e-2, seed=1)
            assert len(moved.objects) == len(cfg.objects)
            assert type(moved.objects[0]) is type(cfg.objects[0])

    def test_perturbation_is_deterministic(self):
        cfg = lg.generate(lg.GenSpec("generic_points", 3, seed=35))
        a = lg.perturb(cfg, 1e-3, seed=4)
        b = lg.perturb(cfg, 1e-3, seed=4)
        for x, y in zip(raw_arrays(a), raw_arrays(b)):
            assert np.array_equal(x, y)

    def test_perturbation_breaks_degeneracy(self):
        cfg = lg.generate(lg.GenSpec("horospheres_on_hyperplane_boundary", 3, seed=37))
        assert lg.penner_test(cfg.objects).verdict.is_degenerate
        moved = lg.perturb(cfg, 1e-2, seed=2)
        assert not lg.penner_test(moved.objects).verdict.is_degenerate

    @pytest.mark.parametrize("kind", ["generic_horospheres", "spheres_through_point"])
    def test_magnitudes_that_overflow_raise_invalid_input(self, kind):
        # a scale that overflows (3e3, 1e300) or underflows to zero (1e3), or
        # a magnitude that is not finite, raises one error naming the
        # perturbation, with no OverflowError or RuntimeWarning on the way
        cfg = lg.generate(lg.GenSpec(kind, 3, seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for magnitude in (1e3, 3e3, 1e300, math.inf, math.nan):
                with pytest.raises(lg.InvalidInput, match="perturbation"):
                    lg.perturb(cfg, magnitude)

    def test_small_perturbation_moves_points_slightly(self):
        cfg = lg.generate(lg.GenSpec("generic_points", 3, seed=39))
        moved = lg.perturb(cfg, 1e-6, seed=3)
        for p, q in zip(cfg.objects, moved.objects):
            gap = float(np.max(np.abs(p.coords - q.coords)))
            assert 0.0 < gap < 1e-4


# sha256 per kind over golden_grid: generation must reproduce these bytes
# exactly, whatever the order of its array operations.  They were taken with
# numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64, SkylakeX kernels); a BLAS or LAPACK
# build that rounds a frame's SVD or eigh differently gives other bytes.
GOLDEN_DIGESTS = {
    "points_on_horosphere": "26352cdf280950c101c010fcc876bc2fa320beb92a40b3a82cbce3fb0eac9662",
    "points_on_hypersphere": "1fa6a4924ec6d1c47902eabe04a490f3946189f8756026e0580e847b1377b3b4",
    "points_on_hyperplane": "622611a263a75a520d98fbc3b65f0d125ee5af6c045317ddfcb3112a47a4d107",
    "points_on_equidistant": "5d49664a0cda36cb36261a05f7b1e326e8d10da99c1a46cfe2d09dac21f8094d",
    "horospheres_on_hyperplane_boundary": "d04df7f166c82f63267ad92fa78311f2ae9bdea2c534a37a4051cba25a39e7e9",
    "hyperplanes_tangent_at_infinity": "a4313e3e6809a290d5b9eb031fbede36df35584e2cbd85312d374989d3b6f78e",
    "hyperplanes_common_ideal_point": "ff76c5c59f41adcccb2156e5c43d8f73c8a64f6003862d9390da9d2262513515",
    "hyperplanes_orth_equal": "94ba46b639abfafc6d0fdefad6560c53efc4d2b9515810fcc5b0cb5c53389876",
    "generic_points": "729e2a9cfb247127759cc52e6af73ffcbd66a460ea625dce749b00e3f9ea6b42",
    "generic_horospheres": "d02455b0dd82fd5f2b4d22ff67ecaf3aee574be23d66cde285308c3ab56787df",
    "generic_hyperplanes": "29be34a27581fa11fcdb5802b0e64429af7355794eb9e8d2ee92afbf46ae8415",
    "spheres_tangent_to_circle": "b5890f7d3624ed43344c05187f75b95d77e2e20ce574923af6deb2648eb7c175",
    "spheres_through_point": "e02f180feeb28eb9758b50c4df36440e78dfe0949bf7531068f9c442e61fe6a4",
}
GOLDEN_PARAMS = ({}, {"spread": 0.5, "radius": 0.8, "offset": 0.4})


def golden_grid(kind: str):
    """Each spec of the grid (n = 2..15, seeds 0-2, each of GOLDEN_PARAMS)
    with the canonical JSON of its scene, hyperboloid then ball records, or
    the message of the error it raises."""
    for n in range(2, 16):
        for seed in range(3):
            for params in GOLDEN_PARAMS:
                try:
                    cfg = lg.generate(lg.GenSpec(kind, n, seed=seed, params=params))
                except lg.GeometryError as exc:
                    yield f"{type(exc).__name__}: {exc}\n"
                    continue
                for disk in (False, True):
                    yield canonical_json(config_to_scene_doc(cfg, disk=disk))


class TestGoldenBytes:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_generated_bytes_are_pinned(self, kind):
        digest = hashlib.sha256()
        for text in golden_grid(kind):
            digest.update(text.encode())
        assert digest.hexdigest() == GOLDEN_DIGESTS[kind]

    def test_grid_covers_rejected_specs(self):
        # the n + 2 kinds exceed MAX_FAMILY at n = 15, and their message is pinned
        rejected = [t for t in golden_grid("generic_points") if not t.startswith("{")]
        assert rejected == ["InfeasibleParams: family too large (max 16)\n"] * 6


def min_pairwise_loop(vectors) -> float:
    """The per-pair loop the array expression of _min_pairwise replaced."""
    worst = math.inf
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            worst = min(worst, float(np.max(np.abs(vectors[i] - vectors[j]))))
    return worst


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 17).flatmap(lambda k: st.integers(1, 6).flatmap(
    lambda d: st.lists(st.lists(st.floats(-1e300, 1e300), min_size=d, max_size=d),
                       min_size=k, max_size=k))))
def test_min_pairwise_matches_the_pair_loop(rows):
    vectors = [np.array(r) for r in rows]
    want = np.float64(min_pairwise_loop(vectors)).tobytes()
    assert np.float64(generators._min_pairwise(vectors)).tobytes() == want
    if rows:
        assert np.float64(generators._min_pairwise(np.array(rows))).tobytes() == want


# What the golden grid leaves out: counts other than the default for every
# kind that accepts one, explicit inclinations, and perturbed families.
# Counts off the default have no scene form, so these digests are taken
# over each configuration's own fields: objects, surface, witness, params.
VARIABLE_COUNT_KINDS = [
    "points_on_horosphere", "points_on_hypersphere", "points_on_hyperplane",
    "points_on_equidistant", "horospheres_on_hyperplane_boundary",
    "generic_points", "generic_horospheres", "generic_hyperplanes",
]
FIXED_COUNT_KINDS = [k for k in ALL_KINDS if k not in VARIABLE_COUNT_KINDS]
PINNED_DIGESTS = {
    "count:points_on_horosphere": "3bc2ba113423ece25a8a4ca5522768c6fd96ef8edfbd78dd843981b24b9bc9f5",
    "count:points_on_hypersphere": "4d2ea21bca47654e59848bbcdbda248cf6e0ee5fe82eb35c78ec431a149b6085",
    "count:points_on_hyperplane": "a3c42cbd3e143c19300cdb8921456b305f91a0aa5dc30078231e411f3c9815b8",
    "count:points_on_equidistant": "b3f1879acaaa02576b095ccb282747e3b490f82a2de305c4f72abae563bc6b06",
    "count:horospheres_on_hyperplane_boundary": "bf2a888906437b12ba589fbcd74fcc1322c788251f05788bc815f471275a7c6f",
    "count:generic_points": "a852273555cb222689e1e4700eceab992cd8c7a7bc8442b64e8fe20e5f64267c",
    "count:generic_horospheres": "ff5cccb9f434faee968a07b986c7be38c10752589cc0bc135d9939cf310a60f0",
    "count:generic_hyperplanes": "d18f10e3e0f23a993a7b6f9af7e907cd911bc69bbe66ea7ac3bdbe6e17c64d68",
    "inclination": "5d7f5fdecd41fe9b1901382e4e305c69fb8c600afd6d79d8e7b9724aeabbc102",
    "perturb": "c7745eaedaea4e4598668b613d14fd89f00f266f18ba8fd26c832986dceaa393",
}


def config_text(make) -> str:
    """Canonical JSON of the configuration make() returns, or the message
    of the error it raises."""
    try:
        cfg = make()
    except lg.GeometryError as exc:
        return f"{type(exc).__name__}: {exc}\n"

    def plain(x):
        if x is None or isinstance(x, (np.ndarray, tuple, float)):
            return x
        return object_to_record(x)

    return canonical_json({
        "kind": cfg.kind.value, "n": cfg.n, "params": cfg.params,
        "objects": [object_to_record(o) for o in cfg.objects],
        "surface": plain(cfg.surface), "witness": plain(cfg.witness),
    })


# the counts a kind's matrix rank allows, as offsets from n; the other
# variable-count kinds take any count from 2 to MAX_FAMILY
COUNT_RANGES = {
    "horospheres_on_hyperplane_boundary": (1, math.inf),
    "generic_points": (-math.inf, 2),
    "generic_horospheres": (-math.inf, 1),
    "generic_hyperplanes": (-math.inf, 2),
}


def grid_counts(kind: str):
    """(n, count, is the count in the kind's range) over the count grid."""
    fewest, most = COUNT_RANGES.get(kind, (-math.inf, math.inf))
    for n in (2, 3, 5):
        for count in range(2, n + 5):
            yield n, count, n + fewest <= count <= n + most


def count_grid(kind: str):
    for n, count, admitted in grid_counts(kind):
        for seed in (0, 1) if admitted else ():
            yield config_text(lambda: lg.generate(lg.GenSpec(kind, n, seed=seed, count=count)))


def inclination_grid():
    for n in (2, 3, 4, 6):
        for lam in (0.0, 0.2, 0.5, 0.9):
            for seed in range(3):
                spec = lg.GenSpec("hyperplanes_orth_equal", n, seed=seed, params={"inclination": lam})
                yield config_text(lambda: lg.generate(spec))


def perturbed_grid():
    for kind in ALL_KINDS:
        cfg = lg.generate(lg.GenSpec(kind, 3, seed=1))
        for seed in range(3):
            yield config_text(lambda: lg.perturb(cfg, 1e-3, seed))


def grid_digest(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()


# the matrix of each variable-count kind but generic_hyperplanes has rank at
# most n + r, so an admitted family of count objects has exactly
# max(0, count - n - r) kernel vectors
RANK_OFFSETS = {
    "points_on_horosphere": 1, "points_on_hypersphere": 1, "points_on_hyperplane": 1,
    "points_on_equidistant": 1, "horospheres_on_hyperplane_boundary": 0,
    "generic_points": 2, "generic_horospheres": 1,
}


@pytest.mark.parametrize("kind", list(RANK_OFFSETS))
def test_every_admitted_count_has_the_kernel_of_its_rank(kind):
    for n, count, admitted in grid_counts(kind):
        for seed in (0, 1) if admitted else ():
            cfg = lg.generate(lg.GenSpec(kind, n, seed=seed, count=count))
            s = np.sort(np.abs(np.linalg.eigvalsh(family_matrix(cfg))))
            scale = max(float(s[-1]), 1.0)
            kernel = max(0, count - n - RANK_OFFSETS[kind])
            assert np.all(s[:kernel] <= 1e-10 * scale), (n, count, seed)
            assert np.all(s[kernel:] >= 1e-5 * scale), (n, count, seed)


class TestPinnedBytes:
    @pytest.mark.parametrize("kind", VARIABLE_COUNT_KINDS)
    def test_counts_are_pinned(self, kind):
        assert grid_digest(count_grid(kind)) == PINNED_DIGESTS[f"count:{kind}"]

    def test_inclinations_are_pinned(self):
        assert grid_digest(inclination_grid()) == PINNED_DIGESTS["inclination"]

    def test_perturbed_families_are_pinned(self):
        assert grid_digest(perturbed_grid()) == PINNED_DIGESTS["perturb"]

    @pytest.mark.parametrize("kind", VARIABLE_COUNT_KINDS)
    def test_counts_outside_the_rank_are_refused_before_a_draw(self, kind, monkeypatch):
        # the check could never admit these, so no stream is even seeded
        monkeypatch.setattr(generators, "SplitMix64", None)
        refused = [(n, count) for n, count, admitted in grid_counts(kind) if not admitted]
        if kind == "generic_hyperplanes":
            refused.append((12, 16))  # each draw would run the sign search
        for n, count in refused:
            with pytest.raises(lg.InfeasibleParams, match=f"{kind} (needs at least|takes at most)"):
                lg.generate(lg.GenSpec(kind, n, seed=1, count=count))
        want = {"horospheres_on_hyperplane_boundary": 7, "generic_points": 6,
                "generic_horospheres": 9, "generic_hyperplanes": 7}
        assert len(refused) == want.get(kind, 0)

    @pytest.mark.parametrize("kind", FIXED_COUNT_KINDS)
    def test_fixed_counts_reject_others(self, kind):
        count = lg.default_count(kind, 3)
        assert len(lg.generate(lg.GenSpec(kind, 3, seed=1, count=count)).objects) == count
        for other in (count - 1, count + 1):
            with pytest.raises(lg.InfeasibleParams, match="requires exactly"):
                lg.generate(lg.GenSpec(kind, 3, seed=1, count=other))
