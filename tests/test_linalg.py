"""Unit tests for the dense linear-algebra kernels and the seeded RNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlora.linalg import (
    Matrix,
    NumericError,
    ShapeError,
    batches_from_draws,
    seeded_rng,
    svd,
)


class TestMatrixConstruction:
    def test_from_nested_lists(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert (m.rows, m.cols) == (2, 2)
        assert m.array[1, 0] == 3.0

    def test_copies_its_input(self):
        data = np.ones((2, 3))
        m = Matrix(data)
        data[0, 0] = 5.0
        assert m.array[0, 0] == 1.0

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

    def test_wrap_makes_a_contiguous_read_only_array(self):
        # the simulator's own values: a column slice is copied, and nothing
        # is checked
        m = Matrix._wrap(np.arange(12.0).reshape(3, 4)[:, :2])
        assert m.array.flags.c_contiguous and not m.array.flags.writeable
        assert np.array_equal(m.array, [[0.0, 1.0], [4.0, 5.0], [8.0, 9.0]])
        assert Matrix._wrap(np.array([[np.inf]])).rows == 1

    def test_zeros(self):
        assert np.array_equal(Matrix.zeros(3, 4).array, np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            Matrix.zeros(0, 4)


class TestArithmetic:
    def test_matmul_against_naive_loop(self):
        # the product the simulator takes of two holders' entries, kept as
        # its own result through Matrix._wrap (as lora.reconstruct does)
        rng = np.random.default_rng(7)
        a = Matrix(rng.standard_normal((3, 4)))
        b = Matrix(rng.standard_normal((4, 2)))
        got = Matrix._wrap(a.array @ b.array)
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a.array[i, k] * b.array[k, j]
        assert (got.rows, got.cols) == (3, 2)
        assert np.allclose(got.array, want, atol=1e-12)


class TestFrobeniusAndSvd:
    def test_three_four_five(self):
        # a row vector's only singular value is its Euclidean norm
        assert abs(svd(np.array([[3.0, 4.0]]), 1)[1][0] - 5.0) < 1e-12

    def test_equals_singular_value_norm(self):
        m = np.random.default_rng(11).standard_normal((6, 6))
        _, s, _ = svd(m, 6)
        assert abs(np.linalg.norm(m) - np.sqrt((s**2).sum())) < 1e-8

    def test_svd_reconstructs(self):
        m = np.random.default_rng(5).standard_normal((5, 4))
        u, s, vt = svd(m, 4)
        assert (u.shape, s.shape, vt.shape) == ((5, 4), (4,), (4, 4))
        assert np.allclose(u @ np.diag(s) @ vt, m, atol=1e-10)

    def test_singular_values_non_increasing(self):
        _, s, _ = svd(np.random.default_rng(3).standard_normal((6, 5)), 5)
        assert all(s[i] >= s[i + 1] - 1e-12 for i in range(len(s) - 1))

    def test_best_rank_k_approximation(self):
        # the truncated SVD beats 100 random rank-k candidates
        rng = np.random.default_rng(21)
        m = rng.standard_normal((8, 6))
        k = 2
        u, s, vt = svd(m, k)
        best_err = np.linalg.norm(m - u * s @ vt)
        for _ in range(100):
            b = rng.standard_normal((8, k))
            a = rng.standard_normal((k, 6))
            # least-squares polish of one factor to make candidates non-trivial
            a = np.linalg.lstsq(b, m, rcond=None)[0]
            assert best_err <= np.linalg.norm(m - b @ a) + 1e-12

    def test_rejects_non_finite_input(self):
        # LAPACK returns inf singular values for this input, or spins on a
        # smaller one, instead of failing
        for bad in (np.inf, np.nan):
            m = np.random.default_rng(4).standard_normal((64, 32))
            m[7, 3] = bad
            with pytest.raises(NumericError, match="SVD input"):
                svd(m, 4)

    def test_k_out_of_range(self):
        with pytest.raises(ShapeError):
            svd(np.zeros((3, 3)), 4)
        with pytest.raises(ShapeError):
            svd(np.zeros((3, 3)), 0)


def same(x: Matrix, y: Matrix) -> bool:
    return np.array_equal(x.array, y.array)


class TestRng:
    def test_same_seed_same_stream(self):
        assert same(seeded_rng(42).gaussian(3, 4), seeded_rng(42).gaussian(3, 4))

    def test_different_seeds_differ(self):
        assert not same(seeded_rng(1).gaussian(3, 4), seeded_rng(2).gaussian(3, 4))

    def test_child_streams_are_reproducible_and_distinct(self):
        root = seeded_rng(9)
        x = root.child("client", 3).gaussian(2, 2)
        y = seeded_rng(9).child("client", 3).gaussian(2, 2)
        z = seeded_rng(9).child("client", 4).gaussian(2, 2)
        assert same(x, y)
        assert not same(x, z)

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
        assert same(a, b)

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


def choice_generator(seed):
    """The generator a fresh seeded_rng(seed) draws from."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))


class TestBatchSampler:
    """Batches are drawn as bounded integers and turned into index sets by
    batches_from_draws. They must be Generator.choice(n, size,
    replace=False)'s, bit for bit, and leave the generator in the state
    choice leaves it in."""

    def assert_matches_choice(self, seed, n, size, count):
        want_gen = choice_generator(seed)
        want = [want_gen.choice(n, size, replace=False) for _ in range(count)]
        one = seeded_rng(seed)
        assert all(np.array_equal(one.batch_indices(n, size), w) for w in want)
        assert one._gen.bit_generator.state == want_gen.bit_generator.state
        many = seeded_rng(seed)
        got = batches_from_draws(many.batch_draws(n, size, count), n, size)
        assert np.array_equal(got, np.array(want))
        assert many._gen.bit_generator.state == want_gen.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**63), n=st.integers(2, 60), count=st.integers(1, 5),
           data=st.data())
    def test_floyd_batches_are_generator_choice(self, seed, n, count, data):
        self.assert_matches_choice(seed, n, data.draw(st.integers(1, n - 1)), count)

    @pytest.mark.parametrize("n,size", [(10001, 200), (10001, 201), (20000, 401)])
    def test_large_batches_are_generator_choice(self, n, size):
        # choice shuffles the tail of range(n) from n > 10000 and size > n // 50
        self.assert_matches_choice(3, n, size, 2)

    def test_whole_set_draws_nothing(self):
        rng = seeded_rng(4)
        assert np.array_equal(rng.batch_indices(5, 5), np.arange(5))
        assert rng._gen.bit_generator.state == choice_generator(4).bit_generator.state
