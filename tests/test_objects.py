"""Geometric objects and pairwise invariants, checked against independent
oracles: root-finding along explicit geodesics for lambda lengths, direct
minimization for common perpendicular lengths, and closed-form Euclidean
tangent lengths."""

import math

import numpy as np
import pytest
from scipy import optimize

import lorentzgram as lg
from lorentzgram.rng import SplitMix64


def random_hpoint(rng: SplitMix64, dim: int, spread: float = 1.0) -> lg.HPoint:
    spatial = spread * rng.normals(dim - 1)
    return lg.HPoint(np.concatenate([spatial, [math.sqrt(1.0 + float(spatial @ spatial))]]))


class TestValidation:
    def test_point_must_sit_on_sheet(self):
        with pytest.raises(lg.InvalidInput):
            lg.HPoint([0.0, 0.0, 2.0])
        with pytest.raises(lg.InvalidInput):
            lg.HPoint([0.0, 0.0, -1.0])

    def test_horosphere_rep_lightlike_forward(self):
        with pytest.raises(lg.InvalidInput):
            lg.Horosphere([1.0, 0.0, 2.0])
        with pytest.raises(lg.InvalidInput):
            lg.Horosphere([1.0, 0.0, -1.0])

    def test_hyperplane_normal_unit(self):
        with pytest.raises(lg.InvalidInput):
            lg.CoHyperplane([2.0, 0.0, 0.0])

    @pytest.mark.parametrize("make, coords, message", [
        (lg.HPoint, [0.5, 0.0, 1.0], "point is not on the unit hyperboloid"),
        (lg.HPoint, [0.0, 0.0, -1.0], "point is on the backward sheet"),
        (lg.Horosphere, [1.0, 0.0, 2.0], "representative must be lightlike"),
        (lg.Horosphere, [1.0, 0.0, -1.0], "representative must be forward pointing"),
        (lg.CoHyperplane, [2.0, 0.0, 0.0], "normal must be unit spacelike"),
        (lg.CoHyperplane, [0.0, 0.0, 1.0], "normal must be unit spacelike"),
        (lambda v: lg.EquidistantBranch(v, 1.0), [0.0, 1.0, 0.5],
         "normal must be unit spacelike"),
        (lg.HPoint, [0.0, float("nan"), 1.0], "coordinates must be finite"),
        (lg.CoHyperplane, [1.0, 0.0], "need at least 3 coordinates, got 2"),
        # |v|_inf^2 overflows, so the check cannot be taken: the vector fails it
        (lg.HPoint, [1e200, 0.0, 1e200], "point is not on the unit hyperboloid"),
        (lg.Horosphere, [1e200, 0.0, 1e200], "representative must be lightlike"),
        (lg.CoHyperplane, [1e200, 0.0, 1e200], "normal must be unit spacelike"),
    ])
    def test_constructor_messages(self, make, coords, message):
        # each constructor validates its vector once, through as_vector
        with pytest.raises(lg.InvalidInput) as err:
            make(coords)
        assert str(err.value) == message

    @pytest.mark.parametrize("make, good, bad, message", [
        (lg.HPoint, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], "point is on the backward sheet"),
        (lg.Horosphere, [1.0, 0.0, 1.0], [1.0, 0.0, 2.0], "representative must be lightlike"),
        (lg.CoHyperplane, [1.0, 0.0, 0.0], [1e200, 0.0, 1e200], "normal must be unit spacelike"),
    ])
    def test_rows_are_the_family_case(self, make, good, bad, message):
        # one check over the rows, then read-only row views of one array
        objs = make.rows(np.array([good, good]))
        single = make(good)
        for obj in objs:
            (value,) = vars(obj).values()
            assert value.tobytes() == next(iter(vars(single).values())).tobytes()
            with pytest.raises(ValueError):
                value[0] = 7.0
        with pytest.raises(lg.InvalidInput) as err:
            make.rows(np.array([good, bad, good]))
        assert str(err.value) == message

    def test_hypersphere_radius(self):
        with pytest.raises(lg.InvalidInput):
            lg.Hypersphere(lg.HPoint([0.0, 0.0, 1.0]), 0.0)

    def test_equidistant_offset_nonzero(self):
        with pytest.raises(lg.InvalidInput):
            lg.EquidistantBranch([1.0, 0.0, 0.0], 0.0)

    def test_cosphere(self):
        with pytest.raises(lg.InvalidInput):
            lg.CoSphereE([0.0, 0.0], 1.0, 2)
        s = lg.CoSphereE([1.0, 2.0], 0.5, -1)
        assert s.with_eps(1).eps == 1

    def test_euclidean_plane_normalizes(self):
        p = lg.EuclideanPlane([0.0, 2.0], 4.0)
        assert np.allclose(p.normal, [0.0, 1.0])
        assert p.offset == pytest.approx(2.0)

    def test_arrays_frozen(self):
        p = random_hpoint(SplitMix64(1), 3)
        with pytest.raises(ValueError):
            p.coords[0] = 7.0


class TestDistance:
    def test_frozen_boost(self):
        p = lg.HPoint([0.0, 0.0, 1.0])
        q = lg.HPoint([math.sinh(1.0), 0.0, math.cosh(1.0)])
        assert lg.distance(p, q) == pytest.approx(1.0, abs=1e-14)

    def test_self_distance_zero(self):
        p = random_hpoint(SplitMix64(2), 4)
        assert lg.distance(p, p) == 0.0

    def test_half_dist_dual_path(self):
        rng = SplitMix64(4)
        for _ in range(50):
            p, q = random_hpoint(rng, 4), random_hpoint(rng, 4)
            rho = lg.distance(p, q)
            assert lg.half_dist_sinh_sq(p, q) == pytest.approx(
                math.sinh(rho / 2.0) ** 2, rel=1e-11, abs=1e-13
            )


class TestLambdaLength:
    def test_frozen_sqrt2(self):
        h1 = lg.Horosphere([1.0, 0.0, 1.0])
        h2 = lg.Horosphere([-1.0, 0.0, 1.0])
        assert lg.lambda_length(h1, h2) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_concentric_pair(self):
        h1 = lg.Horosphere([1.0, 0.0, 1.0])
        h2 = lg.Horosphere([3.0, 0.0, 3.0])
        assert lg.same_centre(h1, h2)
        assert lg.lambda_length(h1, h2) == 0.0

    def test_geodesic_crossing_oracle(self):
        # walk the geodesic joining the two ideal centres and find where it
        # crosses each horosphere; the lambda length must be exp(delta/2)
        # for the signed gap delta between the crossing parameters
        rng = SplitMix64(6)
        checked = 0
        while checked < 100:
            d1 = rng.unit_vector(2)
            d2 = rng.unit_vector(2)
            if abs(float(d1 @ d2)) > 0.99:
                continue
            checked += 1
            l1 = math.exp(rng.uniform_in(-0.5, 0.5)) * np.concatenate([d1, [1.0]])
            l2 = math.exp(rng.uniform_in(-0.5, 0.5)) * np.concatenate([d2, [1.0]])
            norm = math.sqrt(-2.0 * lg.inner(l1, l2))

            def gamma(t):
                return (math.exp(t) * l1 + math.exp(-t) * l2) / norm

            level = -1.0 / math.sqrt(2.0)
            f1 = lambda t: lg.inner(gamma(t), l1) - level
            f2 = lambda t: lg.inner(gamma(t), l2) - level
            # tight bracket: e^|t| multiplies the ~1e-16 lightlike defect
            t1 = optimize.brentq(f1, -12.0, 12.0, xtol=1e-13)
            t2 = optimize.brentq(f2, -12.0, 12.0, xtol=1e-13)
            expected = math.exp((t1 - t2) / 2.0)
            got = lg.lambda_length(lg.Horosphere(l1), lg.Horosphere(l2))
            assert got == pytest.approx(expected, rel=1e-9)


class TestSigma:
    N1 = lg.CoHyperplane([1.0, 0.0, 0.0])
    N2 = lg.CoHyperplane([math.cosh(1.0), 0.0, math.sinh(1.0)])

    def test_frozen_common_perpendicular(self):
        s = lg.sigma(self.N1, self.N2)
        assert s == pytest.approx(math.sinh(0.5) ** 2, rel=1e-14)
        rel = lg.sigma_decode(s)
        assert rel.kind is lg.RelationKind.DISJOINT_SAME
        assert rel.value == pytest.approx(1.0, abs=1e-12)

    def test_perpendicular_minimization_oracle(self):
        # direct search for the closest pair of points on the two geodesics
        f_time = np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])
        f_space = np.array([0.0, 1.0, 0.0])

        def cosh_dist(args):
            s, t = args
            g1 = np.array([0.0, math.sinh(t), math.cosh(t)])
            g2 = math.cosh(s) * f_time + math.sinh(s) * f_space
            return -lg.inner(g1, g2)

        res = optimize.minimize(cosh_dist, [0.1, 0.1], method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-14})
        assert math.acosh(res.fun) == pytest.approx(1.0, abs=1e-6)

    def test_identical_is_exact_zero(self):
        assert lg.sigma(self.N1, lg.CoHyperplane([1.0, 0.0, 0.0])) == 0.0

    def test_flip_identity(self):
        rng = SplitMix64(8)
        for _ in range(25):
            while True:
                a = rng.normals(3)
                if lg.norm_sq(a) > 0.05:
                    break
            while True:
                b = rng.normals(3)
                if lg.norm_sq(b) > 0.05:
                    break
            ha = lg.CoHyperplane(a / math.sqrt(lg.norm_sq(a)))
            hb = lg.CoHyperplane(b / math.sqrt(lg.norm_sq(b)))
            assert lg.sigma(ha.flipped(), hb) + lg.sigma(ha, hb) == pytest.approx(-1.0, abs=1e-12)

    def test_decode_intersecting(self):
        theta = 0.8
        n2 = lg.CoHyperplane([math.cos(theta), math.sin(theta), 0.0])
        rel = lg.sigma_decode(lg.sigma(self.N1, n2))
        assert rel.kind is lg.RelationKind.INTERSECTING
        assert rel.value == pytest.approx(theta, abs=1e-12)

    def test_decode_opposite(self):
        rel = lg.sigma_decode(lg.sigma(self.N1, self.N2.flipped()))
        assert rel.kind is lg.RelationKind.DISJOINT_OPPOSITE
        assert rel.value == pytest.approx(1.0, abs=1e-12)

    def test_decode_tangent(self):
        n2 = lg.CoHyperplane([1.0, 2.0, 2.0])
        s = lg.sigma(self.N1, n2)
        assert s == 0.0
        assert lg.sigma_decode(s).kind is lg.RelationKind.TANGENT_AT_INFINITY_SAME
        s_opp = lg.sigma(self.N1.flipped(), n2)
        assert lg.sigma_decode(s_opp).kind is lg.RelationKind.TANGENT_AT_INFINITY_OPPOSITE


class TestEuclideanInvariants:
    def test_tangent_lengths_frozen(self):
        a = lg.CoSphereE([0.0, 0.0], 2.0, 1)
        b = lg.CoSphereE([5.0, 0.0], 1.0, 1)
        assert lg.tangent_length(a, b) == pytest.approx(math.sqrt(24.0))
        assert lg.tangent_length(a, b.with_eps(-1)) == pytest.approx(4.0)
        c = lg.CoSphereE([0.0, 0.0], 1.0, 1)
        d = lg.CoSphereE([3.0, 0.0], 1.0, -1)
        assert lg.tangent_length(c, d) == pytest.approx(math.sqrt(5.0))

    def test_tangent_circles_identity(self):
        rng = SplitMix64(10)
        for _ in range(25):
            r1 = math.exp(rng.uniform_in(-1.0, 1.0))
            r2 = math.exp(rng.uniform_in(-1.0, 1.0))
            direction = rng.unit_vector(2)
            a = lg.CoSphereE([0.0, 0.0], r1, 1)
            b = lg.CoSphereE((r1 + r2) * direction, r2, 1)
            assert lg.tangent_length(a, b) == pytest.approx(2.0 * math.sqrt(r1 * r2), rel=1e-12)
            assert lg.inversive_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_tau_iota_identity(self):
        rng = SplitMix64(12)
        for _ in range(25):
            a = lg.CoSphereE(rng.normals(3), math.exp(rng.normal() / 2), rng.sign())
            b = lg.CoSphereE(rng.normals(3), math.exp(rng.normal() / 2), rng.sign())
            lhs = lg.tau(a, b)
            rhs = 2.0 * a.radius * b.radius * (lg.inversive_distance(a, b) + 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)

    def test_no_common_tangent(self):
        a = lg.CoSphereE([0.0, 0.0], 1.0, 1)
        b = lg.CoSphereE([1.0, 0.0], 1.0, -1)
        with pytest.raises(lg.NoCommonTangent):
            lg.tangent_length(a, b)


class TestContains:
    def test_each_surface_kind(self):
        for kind in ("points_on_horosphere", "points_on_hypersphere",
                     "points_on_hyperplane", "points_on_equidistant"):
            cfg = lg.generate(lg.GenSpec(kind, 3, seed=21))
            for p in cfg.objects:
                assert lg.contains(cfg.surface, p, 1e-9)

    def test_rejects_off_surface(self):
        h = lg.Horosphere([0.0, 0.0, 1.0, 1.0])
        assert not lg.contains(h, lg.HPoint([0.0, 0.0, 0.0, 1.0]), 1e-9)
