"""Property-based invariants: randomized algebraic identities that must hold
for every valid input, not just the frozen cases."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lorentzgram as lg

finite = st.floats(allow_nan=False, allow_infinity=False)


def _unit_normal(time_part: float, angle: float) -> lg.CoHyperplane:
    # spacelike unit vector: |spatial|^2 - t^2 = 1 exactly
    s = math.sqrt(1.0 + time_part * time_part)
    return lg.CoHyperplane([s * math.cos(angle), s * math.sin(angle), time_part])


normals = st.builds(_unit_normal, st.floats(-2.0, 2.0),
                    st.floats(0.0, 2.0 * math.pi))


class TestDegeneracy:
    @given(st.integers(0, 10_000), st.booleans(), st.sampled_from([2, 3]),
           st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_scale_robustness(self, seed, degenerate, n, factor):
        kind = "horospheres_on_hyperplane_boundary" if degenerate else "generic_horospheres"
        cfg = lg.generate(lg.GenSpec(kind, n, seed=seed))
        M = lg.lambda_sq_matrix(cfg.objects)
        base = lg.degeneracy(M)
        # scaling every rep by factor scales the matrix by factor^2
        scaled = lg.degeneracy(factor * factor * M)
        for v in (base, scaled):
            ratio = v.sigma_min / max(v.sigma_max, 1.0)
            assume(not 1e-12 < ratio < 1e-6)
        assert base.is_degenerate == scaled.is_degenerate == degenerate

    @given(st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12))
    @settings(max_examples=100)
    def test_kernel_certificate_on_singular_matrices(self, entries):
        B = np.array(entries).reshape(4, 3)
        M = B @ B.T
        v = lg.degeneracy(M)
        assert v.sigma_min <= v.sigma_max
        assert v.is_degenerate
        assert v.kernel is not None
        residual = float(np.max(np.abs(M @ v.kernel)))
        bound = 1e-9 * (v.sigma_max + 1.0) * float(np.max(np.abs(v.kernel)))
        assert residual <= bound


class TestSigma:
    @given(normals, normals)
    @settings(max_examples=200)
    def test_decode_matches_direct_classification(self, n1, n2):
        t = lg.inner(n1.normal, n2.normal)
        # sigma = (t - 1)/2 and sigma_decode's tol 1e-9 read |t -+ 1| <= 2e-9
        # as tangency; only the rounding edge of that band is left out
        gap = abs(abs(t) - 1.0)
        assume(abs(gap - 2e-9) > 1e-12)
        relation = lg.sigma_decode(lg.sigma(n1, n2))
        if gap < 2e-9:
            assert relation.kind is (lg.RelationKind.TANGENT_AT_INFINITY_SAME if t > 0
                                     else lg.RelationKind.TANGENT_AT_INFINITY_OPPOSITE)
        elif abs(t) < 1.0:
            assert relation.kind is lg.RelationKind.INTERSECTING
        elif t > 1.0:
            assert relation.kind is lg.RelationKind.DISJOINT_SAME
            assert relation.value == pytest.approx(math.acosh(t), rel=1e-6)
        else:
            assert relation.kind is lg.RelationKind.DISJOINT_OPPOSITE
            assert relation.value == pytest.approx(math.acosh(-t), rel=1e-6)

    @given(normals, normals)
    @settings(max_examples=200)
    def test_coorientation_flips(self, n1, n2):
        t = lg.inner(n1.normal, n2.normal)
        flipped1 = lg.CoHyperplane(-n1.normal)
        flipped2 = lg.CoHyperplane(-n2.normal)
        tol = 1e-12 * (1.0 + abs(t))
        assert abs(lg.sigma(flipped1, n2) - (-t - 1.0) / 2.0) <= tol
        assert abs(lg.sigma(flipped1, flipped2) - lg.sigma(n1, n2)) <= tol


class TestFourTerm:
    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 4.0))
    @settings(max_examples=200)
    def test_named_product_equals_sum_of_others(self, p1, p2, x12):
        # realize products (p1, p2, p1 + p2) so one alternative holds exactly
        values = np.zeros((4, 4))
        values[0, 1] = values[1, 0] = p1
        values[2, 3] = values[3, 2] = 1.0
        values[0, 2] = values[2, 0] = p2
        values[1, 3] = values[3, 1] = 1.0
        values[0, 3] = values[3, 0] = (p1 + p2) / x12
        values[1, 2] = values[2, 1] = x12
        rel = lg.four_term_relation(values)
        assert rel.which is lg.Alternative.ALT14_23
        total = sum(rel.products)
        named = rel.products[2]
        assert abs(2.0 * named - total) <= 1e-9 * total


class TestTau:
    @given(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
           st.floats(0.05, 3.0), st.floats(0.05, 3.0),
           st.booleans(), st.booleans())
    @settings(max_examples=200)
    def test_lift_reproduces_tau(self, centres, r1, r2, out1, out2):
        c1, c2 = np.array(centres[:2]), np.array(centres[2:])
        assume(float(np.linalg.norm(c1 - c2)) > 1e-6)
        a = lg.CoSphereE(c1, r1, 1 if out1 else -1)
        b = lg.CoSphereE(c2, r2, 1 if out2 else -1)
        direct = lg.tau(a, b)
        via_lift = -4.0 * r1 * r2 * lg.sigma(lg.sphere_lift(a), lg.sphere_lift(b))
        assert abs(direct - via_lift) <= 1e-9 * max(1.0, abs(direct))

    @given(st.integers(1, 9).flatmap(lambda n: st.lists(
        st.tuples(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
                  st.floats(1e-3, 1e3), st.sampled_from([1, -1])),
        min_size=1, max_size=16)))
    @settings(max_examples=200)
    def test_family_lifts_match_single_lifts(self, family):
        # the array lift of a family holds each sphere's own lift, bit for bit
        spheres = [lg.CoSphereE(c, r, e) for c, r, e in family]
        lifts = lg.sphere_lifts(spheres)
        assert lifts.shape == (len(spheres), spheres[0].n + 2)
        for row, s in zip(lifts, spheres):
            assert row.tobytes() == lg.sphere_lift(s).normal.tobytes()


class TestCaseySigns:
    @given(st.integers(0, 10_000),
           st.sampled_from(["hyperplanes_tangent_at_infinity",
                            "hyperplanes_common_ideal_point",
                            "hyperplanes_orth_equal",
                            "generic_hyperplanes"]),
           st.sampled_from([2, 3]))
    @settings(max_examples=50, deadline=None)
    def test_global_flip_preserves_verdict(self, seed, kind, n):
        cfg = lg.generate(lg.GenSpec(kind, n, seed=seed))
        flipped = [lg.CoHyperplane(-h.normal) for h in cfg.objects]
        before = lg.casey_test(cfg.objects, search=False)
        after = lg.casey_test(flipped, search=False)
        assert before.verdict.is_degenerate == after.verdict.is_degenerate


# theorem -> (generator kinds, objects beyond n, verdict of a family, pairwise builder)
PERMUTATION_CASES = {
    "penner": (("horospheres_on_hyperplane_boundary", "generic_horospheres"), 1,
               lambda cfg, objs: lg.penner_test(objs).verdict, lg.lambda_sq_matrix),
    "ptolemy1": (("points_on_horosphere", "points_on_hypersphere"), 1,
                 lambda cfg, objs: lg.ptolemy1_test(objs, cfg.surface).verdict,
                 lg.half_dist_matrix),
    "ptolemy2": (("points_on_horosphere", "points_on_hypersphere", "points_on_hyperplane",
                  "points_on_equidistant", "generic_points"), 2,
                 lambda cfg, objs: lg.ptolemy2_test(objs), lg.half_dist_matrix),
    "casey": (("hyperplanes_tangent_at_infinity", "hyperplanes_common_ideal_point",
               "hyperplanes_orth_equal", "generic_hyperplanes"), 1,
              lambda cfg, objs: lg.casey_test(objs).verdict, None),
    "casey_e": (("spheres_tangent_to_circle", "spheres_through_point"), 2,
                lambda cfg, objs: lg.corollary_d_test(objs).verdict, None),
}


class TestPermutation:
    @given(st.sampled_from(sorted(PERMUTATION_CASES)), st.integers(0, 10_000),
           st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_reordering_keeps_the_verdict(self, theorem, seed, n, data):
        kinds, extra, verdict_of, build = PERMUTATION_CASES[theorem]
        cfg = lg.generate(lg.GenSpec(data.draw(st.sampled_from(kinds)), n, seed=seed,
                                     count=n + extra))
        objs = list(cfg.objects)
        p = data.draw(st.permutations(range(len(objs))))
        permuted = [objs[i] for i in p]
        assert (verdict_of(cfg, permuted).is_degenerate
                == verdict_of(cfg, objs).is_degenerate)
        if build is not None:
            assert np.array_equal(build(permuted), build(objs)[np.ix_(p, p)])

    @given(st.sampled_from(["hyperplanes_common_ideal_point", "spheres_through_point"]),
           st.integers(0, 10_000), st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_all_degenerate_family_keeps_all_plus_signs(self, kind, seed, n, data):
        # every coorientation is degenerate, so the first one, all +1, is
        # reported whatever the order and the stored coorientations
        spheres = kind == "spheres_through_point"
        objs = list(lg.generate(lg.GenSpec(kind, n, seed=seed)).objects)
        p = data.draw(st.permutations(range(len(objs))))
        flips = data.draw(st.lists(st.booleans(), min_size=len(objs), max_size=len(objs)))
        flip = (lambda s: s.with_eps(-s.eps)) if spheres else (lambda h: h.flipped())
        permuted = [flip(objs[i]) if f else objs[i] for i, f in zip(p, flips)]
        res = (lg.corollary_d_test if spheres else lg.casey_test)(permuted)
        assert res.verdict.is_degenerate
        assert res.signs == (1,) * len(objs)
