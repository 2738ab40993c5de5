"""Dense matrices, the top-k SVD and seeded randomness for the simulator.

Matrices are held in the read-only :class:`Matrix`, and all randomness
comes from :class:`Rng` streams, which keeps determinism and bit-stability
easy to audit; choices makes the Generator.choice calls of many streams
of one key at once, bit for bit, on their seed words (stream_words) and
bounded draws (bounded_draws): a run's batches and client selections. A
bad dimension raises ValueError. Finiteness is checked where values
enter the program or change (see README), not on every Matrix, and a
non-finite value raises NumericError.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np


class NumericError(RuntimeError):
    """A numeric routine met or produced non-finite values, or failed to
    converge."""


class Matrix:
    """Read-only dense 2-D real matrix (row-major float64).

    Matrix(data) copies data from outside the program and fails with
    ValueError unless it is 2-D and non-empty, and with
    :class:`NumericError` if any entry is NaN or infinite. The simulator
    holds its own results with Matrix._wrap, which checks nothing.
    """

    __slots__ = ("_a",)

    def __init__(self, data):
        a = np.array(data, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"expected 2-D data, got ndim={a.ndim}")
        if a.shape[0] == 0 or a.shape[1] == 0:
            raise ValueError("matrix dimensions must be positive")
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
            raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
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
        raise ValueError(f"k={k} out of range for {m.shape[0]}x{m.shape[1]}")
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
            raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
        return Matrix._wrap(self._gen.standard_normal((rows, cols)) * float(std))

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

    def batch_indices(self, n: int, size: int) -> np.ndarray:
        """Mini-batch sample without replacement: Generator.choice(n, size,
        replace=False), or the whole set, in order and without a draw, if
        size >= n."""
        if size >= n:
            return np.arange(n)
        return self._gen.choice(n, size, replace=False)


_M32, _SHIFT = 0xFFFFFFFF, np.uint32(16)
# SeedSequence's j-th hash of a word xors init * mult**j into it and then
# multiplies it by the next power (numpy/random/bit_generator.pyx): A for
# the 16 hashes of a pool of four entropy words, B for generate_state
_HASH_A, _HASH_B = (np.array([init * pow(mult, j, 2**32) & _M32 for j in range(17)], np.uint32)
                    for init, mult in ((0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)))
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _ints_in(values, low: int, high: int, what: str) -> np.ndarray:
    a = np.asarray(values)
    if (a.ndim != 1 or a.dtype.kind not in "iu"
            or a.size and (a.min() < low or a.max() > high)):
        raise ValueError(f"{what} must be integers in [{low}, {high}]")
    return a


def stream_words(seeds, counters, key: str) -> np.ndarray:
    """SeedSequence([seed, _key_part(key), counter]).generate_state(4,
    np.uint64), which seeds seeded_rng(seed).child(key, counter), for seeds
    and counters in [0, 2**32): len(seeds) x len(counters) x 4.

    The entropy is four 32-bit words, the seed, the key's low and high word
    and the counter, mixed by numpy's steps in uint32 arrays, which wrap as
    its C code does."""
    calls = itertools.count()

    def hashmix(value):
        j = next(calls)
        value = (value ^ _HASH_A[j]) * _HASH_A[j + 1]
        return value ^ value >> _SHIFT

    pool = [hashmix(w) for w in (
        _ints_in(seeds, 0, _M32, "seeds").astype(np.uint32)[:, None],
        np.full((1, 1), _str_key(key) & _M32, np.uint32),
        np.full((1, 1), _str_key(key) >> 32, np.uint32),
        _ints_in(counters, 0, _M32, "counters").astype(np.uint32)[None])]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
        pool[dst] = mixed ^ mixed >> _SHIFT
    # state word j hashes pool word j % 4; a pair of words joins low word first
    state = np.stack(np.broadcast_arrays(*pool * 2), axis=-1)
    state ^= _HASH_B[:8]
    state *= _HASH_B[1:9]
    state ^= state >> _SHIFT
    return state.astype("<u4", copy=False).view("<u8")


@functools.cache
def _pcg64_of_words():
    """A function from state words to the PCG64 they seed. Built on first
    use, so that importing this module does not import numpy.random."""
    class GivenWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: np.random.PCG64(GivenWords(words))


def bounded_draws(words: np.ndarray, bounds) -> np.ndarray:
    """Generator(PCG64(s)).integers(0, bounds, endpoint=True) for each row
    of words, s seeding the PCG64 with that row's state words (stream_words
    gives them): rows x len(bounds), int64, for bounds in [1, 2**32 - 2].

    Generator.integers draws in [0, b] by Lemire's multiply, (u * (b + 1))
    >> 32 of a 32-bit u: a PCG64 output's low half, then its high half. It
    runs here on the raw PCG64 output of all rows at once. numpy rejects a
    product only if its low word is below b + 1; a row with such a product
    is drawn by Generator.integers on the same words, so it is numpy's too.
    """
    # PCG64 reads the state words straight from the array's buffer
    words = np.ascontiguousarray(words, dtype=np.uint64)
    bounds = _ints_in(bounds, 1, _M32 - 1, "bounds")
    pcg64 = _pcg64_of_words()
    raw = np.empty((len(words), (len(bounds) + 1) // 2), np.uint64)
    for j, w in enumerate(words):
        raw[j] = pcg64(w).random_raw(raw.shape[1])
    u = np.stack([raw & _M32, raw >> 32], axis=2).reshape(len(words), -1)
    excl = bounds.astype(np.uint64) + 1
    product = u[:, :len(bounds)] * excl
    draws = (product >> 32).astype(np.int64)
    for j in np.flatnonzero(((product & _M32) < excl).any(axis=1)):
        draws[j] = np.random.Generator(pcg64(words[j])).integers(0, bounds, endpoint=True)
    return draws


def choices(words: np.ndarray, n: int, size: int, count: int) -> np.ndarray:
    """count successive Generator.choice(n, size, replace=False) calls on
    the stream each row of words seeds (bounded_draws), bit for bit: rows x
    count x min(size, n). With size >= n every call is range(n), in order,
    and draws nothing, as Rng.batch_indices.

    One call is Floyd's algorithm, one draw in [0, j] for each j in
    [n - size, n), then a Fisher-Yates pass over the size picks, one draw
    in [0, i] for i = size - 1 down to 1. When the batch is a large share
    of a large n, choice shuffles the tail of range(n) in place instead:
    one draw in [0, i] for i = n - 1 down to n - size. Each step is taken
    for every call of every row at once.
    """
    if size >= n:
        return np.broadcast_to(np.arange(n), (len(words), count, n))
    tail_shuffle = n > 10000 and size > n // 50
    if tail_shuffle:
        one = np.arange(n - 1, n - size - 1, -1)
    else:
        one = np.concatenate([np.arange(n - size, n), np.arange(size - 1, 0, -1)])
    draws = bounded_draws(words, np.tile(one, count)).reshape(len(words) * count, -1)
    calls = np.arange(len(draws))
    if tail_shuffle:
        picks, swaps = np.tile(np.arange(n), (len(draws), 1)), draws
    else:
        # Floyd: the draw for j is kept unless already picked, else j is
        picks, swaps = draws[:, :size], draws[:, size:]
        for t in range(1, size):
            taken = (picks[:, :t] == picks[:, t, None]).any(axis=1)
            picks[taken, t] = n - size + t
    last = picks.shape[1] - 1
    for t in range(swaps.shape[1]):
        # swap position last - t with the drawn position at or below it
        j = swaps[:, t]
        drawn = picks[calls, j]
        picks[calls, j] = picks[:, last - t]
        picks[:, last - t] = drawn
    return picks[:, last + 1 - size:].reshape(len(words), count, size)


def seeded_rng(seed: int) -> Rng:
    return Rng(seed)
