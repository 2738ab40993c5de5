"""Dense matrices, the top-k SVD and seeded randomness for the simulator.

Matrices are held in the read-only :class:`Matrix`, and all randomness
comes from the one :class:`Rng` stream, which keeps determinism and
bit-stability easy to audit. Finiteness is checked where values enter the
program or change (see README), not on every Matrix.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


class NumericError(RuntimeError):
    """A numeric routine met or produced non-finite values, or failed to
    converge."""


class Matrix:
    """Read-only dense 2-D real matrix (row-major float64).

    Matrix(data) copies data from outside the program and fails with
    :class:`ShapeError` unless it is 2-D and non-empty, and with
    :class:`NumericError` if any entry is NaN or infinite. The simulator
    holds its own results with Matrix._wrap, which checks nothing.
    """

    __slots__ = ("_a",)

    def __init__(self, data):
        a = np.array(data, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError(f"expected 2-D data, got ndim={a.ndim}")
        if a.shape[0] == 0 or a.shape[1] == 0:
            raise ShapeError("matrix dimensions must be positive")
        if not np.isfinite(a).all():
            raise NumericError("matrix entries must be finite")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Matrix":
        # the simulator's own values: made contiguous and read-only, unchecked
        m = object.__new__(cls)
        m._a = np.ascontiguousarray(a, dtype=np.float64)
        m._a.setflags(write=False)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"dimensions must be positive, got {rows}x{cols}")
        return cls._wrap(np.zeros((rows, cols)))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view of the entries."""
        return self._a


def svd(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k singular triplets of m: u (d x k), the singular values (k,
    non-increasing) and vt (k x l).

    The reconstruction u @ diag(s) @ vt is the best rank-k approximation of
    m in Frobenius norm. A non-finite m raises NumericError before LAPACK
    sees it: LAPACK can spin on an inf instead of failing.
    """
    if not 1 <= k <= min(m.shape):
        raise ShapeError(f"k={k} out of range for {m.shape[0]}x{m.shape[1]}")
    if not np.isfinite(m).all():
        raise NumericError(f"SVD input ({m.shape[0]}x{m.shape[1]}) is not finite")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare at desk scale
        raise NumericError(f"SVD did not converge: {exc}") from exc
    return u[:, :k], s[:k], vt[:k]


@functools.cache
def _str_key(part: str) -> int:
    # key strings are a handful of constants ("round", "selection", ...)
    return int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "little")


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    if isinstance(part, str):
        return _str_key(part)
    raise TypeError(f"rng key parts must be int or str, got {type(part)!r}")


class Rng:
    """Seeded random stream (PCG64). Identical seed => identical stream.

    A stream is single-owner: never share one across threads. Derive
    independent child streams with :meth:`child` instead; derivation is a
    pure function of (seed, key path), so children are reproducible
    regardless of when or where they are spawned.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self._seed = int(seed)
        self._path = _path

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        # built on the first draw, so a stream that only derives children
        # never builds a generator of its own
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self._seed, *self._path]))
        )

    def child(self, *key) -> "Rng":
        return Rng(self._seed, self._path + tuple(_key_part(p) for p in key))

    def gaussian(self, rows: int, cols: int, std: float = 1.0) -> Matrix:
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"dimensions must be positive, got {rows}x{cols}")
        return Matrix._wrap(self._gen.standard_normal((rows, cols)) * float(std))

    def normal_array(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.standard_normal(shape) * float(std)

    def sample_discrete(self, weights) -> int:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be finite and non-negative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must not be all zero")
        cum = np.cumsum(w)
        u = self._gen.random() * total
        return int(min(np.searchsorted(cum, u, side="right"), w.size - 1))

    def subset(self, n: int, m: int) -> list[int]:
        """m distinct indices from range(n), uniform, returned sorted."""
        if not 1 <= m <= n:
            raise ValueError(f"cannot pick {m} of {n}")
        picked = self._gen.choice(n, size=m, replace=False)
        return sorted(int(i) for i in picked)

    def batch_draws(self, n: int, size: int, count: int) -> np.ndarray:
        """The raw draws of `count` successive batch_indices(n, size) calls
        with size < n, one row per batch, in one integers() call.
        batches_from_draws turns the rows into the batches."""
        bounds = _choice_bounds(n, size, count)
        return self._gen.integers(0, bounds, endpoint=True).reshape(count, -1)

    def batch_indices(self, n: int, size: int) -> np.ndarray:
        """Mini-batch sample without replacement (whole set, in order and
        without a draw, if size >= n).

        The batch and the stream state afterwards are those of
        Generator.choice(n, size, replace=False): the one-batch case of
        batch_draws and batches_from_draws.
        """
        if size >= n:
            return np.arange(n)
        return batches_from_draws(self.batch_draws(n, size, 1), n, size)[0]


def _tail_shuffle(n: int, size: int) -> bool:
    # Generator.choice shuffles the tail of range(n) in place instead of
    # running Floyd's algorithm when the batch is a large share of a large n
    return n > 10000 and size > n // 50


@functools.cache
def _choice_bounds(n: int, size: int, count: int) -> np.ndarray:
    """Inclusive upper bounds of the bounded draws that `count` calls of
    Generator.choice(n, size, replace=False), size < n, make, in order.

    One call is Floyd's algorithm, one draw in [0, j] for each j in
    [n - size, n), then a Fisher-Yates pass over the size picks, one draw
    in [0, i] for i = size - 1 down to 1. For a tail shuffle it is the
    Fisher-Yates pass over range(n) alone, for i = n - 1 down to n - size.
    """
    if _tail_shuffle(n, size):
        one = np.arange(n - 1, n - size - 1, -1)
    else:
        one = np.concatenate([np.arange(n - size, n), np.arange(size - 1, 0, -1)])
    bounds = np.tile(one, count)
    bounds.setflags(write=False)
    return bounds


def batches_from_draws(draws: np.ndarray, n: int, size: int) -> np.ndarray:
    """The batches (rows x size) that Generator.choice(n, size,
    replace=False) returns for each row of draws from Rng.batch_draws:
    its Floyd pass and its swap pass, each step taken for all rows at once.
    """
    rows = np.arange(len(draws))
    if _tail_shuffle(n, size):
        picks = np.tile(np.arange(n), (len(draws), 1))
        swaps = draws
    else:
        # Floyd: the draw for j is kept unless already picked, else j is
        picks = draws[:, :size].copy()
        for t in range(1, size):
            taken = (picks[:, :t] == picks[:, t, None]).any(axis=1)
            picks[taken, t] = n - size + t
        swaps = draws[:, size:]
    last = picks.shape[1] - 1
    for t in range(swaps.shape[1]):
        # swap position last - t with the drawn position at or below it
        j = swaps[:, t]
        drawn = picks[rows, j]
        picks[rows, j] = picks[:, last - t]
        picks[:, last - t] = drawn
    return picks[:, picks.shape[1] - size:]


def seeded_rng(seed: int) -> Rng:
    return Rng(seed)
