"""Core Lorentzian linear algebra: inner products, Gram matrices, the
degeneracy decision, and the determinant identity linking Gram and
coordinate matrices."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorentzgram as lg
from lorentzgram.lorentz import as_vector, inners
from lorentzgram.rng import SplitMix64

CIRCULANT_REPS = [
    np.array([1.0, 0.0, 0.0, 1.0]),
    np.array([0.0, 1.0, 0.0, 1.0]),
    np.array([-1.0, 0.0, 0.0, 1.0]),
    np.array([0.0, -1.0, 0.0, 1.0]),
]


def leibniz_det(M: np.ndarray) -> float:
    """Determinant by full permutation expansion; independent oracle."""
    n = M.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = (-1.0) ** inversions
        for i in range(n):
            term *= M[i, perm[i]]
        total += term
    return total


class TestInner:
    def test_metric_diag(self):
        assert np.array_equal(lg.metric_diag(4), np.array([1.0, 1.0, 1.0, -1.0]))

    def test_frozen_values(self):
        assert lg.inner([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]) == 0.0
        assert lg.norm_sq([0.0, 0.0, 1.0]) == -1.0
        assert lg.inner(CIRCULANT_REPS[0], CIRCULANT_REPS[1]) == -1.0
        assert lg.inner(CIRCULANT_REPS[0], CIRCULANT_REPS[2]) == -2.0

    def test_symmetry_exact(self):
        rng = SplitMix64(3)
        for _ in range(50):
            x, y = rng.normals(5), rng.normals(5)
            assert lg.inner(x, y) == lg.inner(y, x)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
           st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
           st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
           st.floats(-100, 100), st.floats(-100, 100))
    def test_bilinearity(self, x, y, z, a, b):
        x, y, z = map(np.asarray, (x, y, z))
        left = lg.inner(a * x + b * y, z)
        right = a * lg.inner(x, z) + b * lg.inner(y, z)
        scale = (abs(a) + abs(b)) * 1e3 * 1e3 + 1.0
        assert abs(left - right) <= 1e-9 * scale

    def test_inners_match_inner_bit_for_bit(self):
        rng = SplitMix64(4)
        rows = np.stack([rng.normals(6) * 10.0 ** k for k in range(-3, 4)])
        y = rng.normals(6)
        assert inners(rows, y) == [lg.inner(r, y) for r in rows]
        # random families of every length a theorem meets, rows and y at
        # magnitudes 1e-3..1e3: the batched products must sum each row in
        # the order np.dot does, which a numpy with other kernels breaks
        gen = np.random.default_rng(17)
        for d in range(3, 18):
            for _ in range(40):
                m = int(gen.integers(2, 18))
                R = gen.standard_normal((m, d)) * 10.0 ** gen.uniform(-3, 3, size=(m, 1))
                v = gen.standard_normal(d) * 10.0 ** gen.uniform(-3, 3)
                want = [lg.inner(r, v) for r in R]
                assert np.array(inners(R, v)).tobytes() == np.array(want).tobytes(), (d, m)
        with pytest.raises(lg.DimensionMismatch):
            inners(rows[:, :5], y)
        rows[2, 1] = math.inf
        with pytest.raises(lg.InvalidInput):
            inners(rows, y)

    def test_as_vector_rejects(self):
        with pytest.raises(lg.InvalidInput):
            as_vector([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(lg.InvalidInput):
            as_vector([1.0, math.nan, 0.0])


# finite vectors whose Lorentzian products overflow: inf - inf, inf, -inf
UNREPRESENTABLE = [[1e200, 0.0, 1e200], [1e155, 1e155, 0.0], [0.0, 0.0, 1e160]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestUnrepresentable:
    """An inner product that overflows raises InvalidInput, with no
    RuntimeWarning on the way."""

    @pytest.mark.parametrize("v", UNREPRESENTABLE)
    def test_norm_sq(self, v):
        with pytest.raises(lg.InvalidInput, match="not representable"):
            lg.norm_sq(v)

    @pytest.mark.parametrize("v", UNREPRESENTABLE)
    def test_inner(self, v):
        with pytest.raises(lg.InvalidInput, match="not representable"):
            lg.inner(v, v)
        with pytest.raises(lg.InvalidInput, match="not representable"):
            lg.inner(v, [1e200, 1e200, 1e200])

    @pytest.mark.parametrize("v", UNREPRESENTABLE)
    def test_classify(self, v):
        with pytest.raises(lg.InvalidInput, match="not representable"):
            lg.classify(v)

    def test_large_representable_products_are_unchanged(self):
        v = np.array([1e150, 0.0, 1e150])
        assert lg.norm_sq(v) == 0.0
        assert lg.classify(v) is lg.SignClass.LIGHTLIKE
        assert lg.inner([1e200, 0.0, 1.0], [1e-200, 0.0, 1.0]) == 0.0


class TestClassify:
    def test_frozen(self):
        assert lg.classify([1.0, 0.0, 1.0]) is lg.SignClass.LIGHTLIKE
        assert lg.classify([1.0, 0.0, 0.0]) is lg.SignClass.SPACELIKE
        assert lg.classify([0.0, 0.0, 1.0]) is lg.SignClass.TIMELIKE

    def test_scale_robust(self):
        v = 1e8 * np.array([3.0, 4.0, 5.0])
        assert lg.classify(v) is lg.SignClass.LIGHTLIKE


class TestGram:
    def test_circulant_frozen(self):
        G = lg.gram(CIRCULANT_REPS)
        expected = -np.array(
            [[0.0, 1.0, 2.0, 1.0],
             [1.0, 0.0, 1.0, 2.0],
             [2.0, 1.0, 0.0, 1.0],
             [1.0, 2.0, 1.0, 0.0]]
        )
        assert np.allclose(G, expected, atol=1e-15)
        assert np.array_equal(G, G.T)

    def test_readonly(self):
        G = lg.gram(CIRCULANT_REPS)
        with pytest.raises(ValueError):
            G[0, 0] = 5.0

    @pytest.mark.parametrize("family, error", [
        ([], lg.InvalidInput),
        (np.zeros((0, 3)), lg.InvalidInput),
        ([[1.0, 0.0]], lg.InvalidInput),
        ([1.0, 0.0, 1.0], lg.InvalidInput),
        ([[[1.0, 0.0, 1.0]]], lg.InvalidInput),
        ([[1.0, 0.0, 1.0], [np.nan, 0.0, 1.0]], lg.InvalidInput),
        ([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [np.inf, 0.0, 1.0]], lg.InvalidInput),
        ([[1.0, 0.0, 1.0], [1.0, 0.0]], lg.InvalidInput),
        ([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]], lg.DimensionMismatch),
    ])
    def test_rejects_what_as_vector_rejects(self, family, error):
        with pytest.raises(error):
            lg.gram(family)


class TestDegeneracy:
    def test_circulant(self):
        A = -lg.gram(CIRCULANT_REPS)
        assert leibniz_det(A) == 0.0
        verdict = lg.degeneracy(A)
        assert verdict.is_degenerate
        assert abs(verdict.det_value) <= 1e-12
        assert verdict.sigma_max == pytest.approx(4.0)
        assert np.allclose(verdict.kernel, [0.5, -0.5, 0.5, -0.5], atol=1e-12)

    def test_identity_not_degenerate(self):
        verdict = lg.degeneracy(np.eye(4))
        assert not verdict.is_degenerate
        assert verdict.kernel is None
        assert verdict.det_value == pytest.approx(1.0)

    def test_rejects_asymmetric(self):
        M = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(lg.NotSymmetric):
            lg.degeneracy(M)

    def test_kernel_certificate(self):
        rng = SplitMix64(17)
        for _ in range(25):
            m = 3 + rng.choice(3)
            Q, _ = np.linalg.qr(np.reshape(rng.normals(m * m), (m, m)))
            vals = 1.0 + np.abs(rng.normals(m))
            vals[0] = 0.0
            M = (Q * vals) @ Q.T
            M = (M + M.T) / 2.0
            verdict = lg.degeneracy(M)
            assert verdict.is_degenerate
            assert float(np.max(np.abs(M @ verdict.kernel))) <= 1e-10 * verdict.sigma_max

    def test_det_matches_leibniz(self):
        rng = SplitMix64(23)
        for _ in range(25):
            M = np.reshape(rng.normals(16), (4, 4))
            M = (M + M.T) / 2.0
            verdict = lg.degeneracy(M)
            assert verdict.det_value == pytest.approx(leibniz_det(M), rel=1e-9, abs=1e-12)

    def test_uniformly_tiny_matrix_counts_as_degenerate(self):
        # the threshold floors sigma_max at 1, so a matrix that is tiny in
        # absolute terms is singular by fiat even if well-conditioned
        # relative to its own scale
        verdict = lg.degeneracy(np.diag([1e-13, 2e-13]))
        assert verdict.is_degenerate


class TestNullBasis:
    def test_annihilates_and_orthonormal(self):
        rng = SplitMix64(5)
        rows = np.reshape(rng.normals(12), (3, 4))
        N = lg.null_basis(rows, nullity=1)
        assert N.shape == (4, 1)
        assert float(np.max(np.abs(rows @ N))) <= 1e-12
        assert float(N[:, 0] @ N[:, 0]) == pytest.approx(1.0)

    def test_requested_nullity(self):
        rows = np.array([[1.0, 0.0, 0.0, 0.0]])
        N = lg.null_basis(rows, nullity=3)
        assert N.shape == (4, 3)
        assert np.allclose(N.T @ N, np.eye(3), atol=1e-12)


class TestCanonicalSign:
    def test_first_nonzero_positive(self):
        v = np.array([0.0, -2.0, 1.0])
        out = lg.first_nonzero_positive(v)
        assert np.array_equal(out, [0.0, 2.0, -1.0])
        assert np.array_equal(lg.first_nonzero_positive(out), out)

    def test_no_negative_zero(self):
        out = lg.first_nonzero_positive(np.array([-0.0, -1.0, 0.0]))
        assert all(math.copysign(1.0, x) > 0 for x in out if x == 0.0)
