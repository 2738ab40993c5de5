"""Unit tests for the dense linear-algebra kernels and the seeded RNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlora.linalg import (
    Matrix,
    NumericError,
    ShapeError,
    matmul,
    seeded_rng,
    svd,
)


def random_matrix(rng, rows, cols, scale_=1.0):
    return Matrix(rng.standard_normal((rows, cols)) * scale_)


class TestMatrixConstruction:
    def test_from_nested_lists(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert (m.rows, m.cols) == (2, 2)
        assert m.array[1, 0] == 3.0

    def test_from_flat_row_major(self):
        m = Matrix([1, 2, 3, 4, 5, 6], rows=2, cols=3)
        assert m.array[0, 2] == 3.0
        assert m.array[1, 0] == 4.0

    def test_flat_requires_both_dims(self):
        with pytest.raises(ShapeError):
            Matrix([1, 2, 3], rows=3)

    def test_flat_length_mismatch(self):
        with pytest.raises(ShapeError):
            Matrix([1, 2, 3], rows=2, cols=2)

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NumericError):
            Matrix([[1.0, float("nan")]])
        with pytest.raises(NumericError):
            Matrix([[float("inf"), 1.0]])

    def test_entries_are_read_only(self):
        m = Matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_equality_and_hash(self):
        a = Matrix([[1.0, 2.0]])
        b = Matrix([[1.0, 2.0]])
        c = Matrix([[1.0, 3.0]])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_zeros(self):
        assert np.array_equal(Matrix.zeros(3, 4).array, np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            Matrix.zeros(0, 4)


class TestArithmetic:
    def test_matmul_against_naive_loop(self):
        rng = np.random.default_rng(7)
        a = random_matrix(rng, 3, 4)
        b = random_matrix(rng, 4, 2)
        got = matmul(a, b).array
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a.array[i, k] * b.array[k, j]
        assert np.allclose(got, want, atol=1e-12)

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            matmul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matmul_associative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, 3, 4)
        b = random_matrix(rng, 4, 5)
        c = random_matrix(rng, 5, 2)
        left = matmul(matmul(a, b), c).array
        right = matmul(a, matmul(b, c)).array
        assert np.max(np.abs(left - right)) < 1e-10


class TestFrobeniusAndSvd:
    def test_three_four_five(self):
        # a row vector's only singular value is its Euclidean norm
        assert abs(svd(Matrix([[3.0, 4.0]]), 1).singular_values[0] - 5.0) < 1e-12

    def test_equals_singular_value_norm(self):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, 6, 6)
        s = np.array(svd(m, 6).singular_values)
        assert abs(np.linalg.norm(m.array) - np.sqrt((s**2).sum())) < 1e-8

    def test_svd_reconstructs(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 5, 4)
        res = svd(m, 4)
        rebuilt = res.u.array @ np.diag(res.singular_values) @ res.vt.array
        assert np.allclose(rebuilt, m.array, atol=1e-10)

    def test_singular_values_non_increasing(self):
        rng = np.random.default_rng(3)
        s = svd(random_matrix(rng, 6, 5), 5).singular_values
        assert all(s[i] >= s[i + 1] - 1e-12 for i in range(len(s) - 1))

    def test_best_rank_k_approximation(self):
        # the truncated SVD beats 100 random rank-k candidates
        rng = np.random.default_rng(21)
        m = random_matrix(rng, 8, 6)
        k = 2
        res = svd(m, k)
        best = res.u.array * np.array(res.singular_values) @ res.vt.array
        best_err = np.linalg.norm(m.array - best)
        for _ in range(100):
            b = rng.standard_normal((8, k))
            a = rng.standard_normal((k, 6))
            # least-squares polish of one factor to make candidates non-trivial
            a = np.linalg.lstsq(b, m.array, rcond=None)[0]
            assert best_err <= np.linalg.norm(m.array - b @ a) + 1e-12

    def test_k_out_of_range(self):
        with pytest.raises(ShapeError):
            svd(Matrix.zeros(3, 3), 4)
        with pytest.raises(ShapeError):
            svd(Matrix.zeros(3, 3), 0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(42).gaussian(3, 4)
        b = seeded_rng(42).gaussian(3, 4)
        assert a == b

    def test_different_seeds_differ(self):
        assert seeded_rng(1).gaussian(3, 4) != seeded_rng(2).gaussian(3, 4)

    def test_child_streams_are_reproducible_and_distinct(self):
        root = seeded_rng(9)
        x = root.child("client", 3).gaussian(2, 2)
        y = seeded_rng(9).child("client", 3).gaussian(2, 2)
        z = seeded_rng(9).child("client", 4).gaussian(2, 2)
        assert x == y
        assert x != z

    def test_child_key_types(self):
        with pytest.raises(TypeError):
            seeded_rng(0).child(1.5)

    def test_draw_order_independence_of_children(self):
        # deriving a child is a pure function of the key path, not of how
        # much the parent has already been consumed
        r1 = seeded_rng(7)
        r1.gaussian(4, 4)
        a = r1.child("x").gaussian(2, 2)
        b = seeded_rng(7).child("x").gaussian(2, 2)
        assert a == b

    def test_gaussian_std(self):
        m = seeded_rng(0).gaussian(200, 200, std=0.5)
        assert abs(float(m.array.std()) - 0.5) < 0.02

    def test_sample_discrete_point_mass(self):
        rng = seeded_rng(1)
        assert all(rng.sample_discrete([0.0, 1.0, 0.0]) == 1 for _ in range(20))

    def test_sample_discrete_validation(self):
        rng = seeded_rng(1)
        with pytest.raises(ValueError):
            rng.sample_discrete([])
        with pytest.raises(ValueError):
            rng.sample_discrete([-1.0, 2.0])
        with pytest.raises(ValueError):
            rng.sample_discrete([0.0, 0.0])

    def test_sample_discrete_frequencies(self):
        rng = seeded_rng(123)
        counts = [0, 0]
        for _ in range(4000):
            counts[rng.sample_discrete([1.0, 3.0])] += 1
        assert abs(counts[1] / 4000 - 0.75) < 0.03

    def test_subset_properties(self):
        rng = seeded_rng(5)
        s = rng.subset(20, 7)
        assert len(s) == 7 == len(set(s))
        assert s == sorted(s)
        assert all(0 <= i < 20 for i in s)
        with pytest.raises(ValueError):
            rng.subset(3, 4)

    def test_batch_indices(self):
        rng = seeded_rng(5)
        idx = rng.batch_indices(10, 4)
        assert len(idx) == 4 == len(set(idx.tolist()))
        assert np.array_equal(rng.batch_indices(3, 8), np.arange(3))
