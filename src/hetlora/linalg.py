"""Dense linear algebra kernels and seeded randomness for the simulator.

Everything numeric downstream goes through the immutable :class:`Matrix`
wrapper (float64 numpy storage, finiteness enforced on construction) and
the :class:`Rng` stream. Keeping this surface small makes determinism and
bit-stability easy to audit: there is exactly one RNG implementation and
one place where non-finite values can be rejected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


class NumericError(RuntimeError):
    """A numeric routine produced non-finite values or failed to converge."""


class Matrix:
    """Immutable dense 2-D real matrix (row-major float64).

    Instances are safe to share across threads; every operation in this
    module is a pure function returning a new Matrix. Construction fails
    with :class:`NumericError` if any entry is NaN or infinite.
    """

    __slots__ = ("_a",)

    def __init__(self, data, rows: int | None = None, cols: int | None = None):
        a = np.array(data, dtype=np.float64)
        if rows is not None or cols is not None:
            if rows is None or cols is None:
                raise ShapeError("rows and cols must be given together")
            if rows <= 0 or cols <= 0:
                raise ShapeError(f"dimensions must be positive, got {rows}x{cols}")
            if a.ndim != 1 or a.size != rows * cols:
                raise ShapeError(
                    f"flat data of length {a.size} does not fill {rows}x{cols}"
                )
            a = a.reshape(rows, cols)
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
        # internal fast path: trusts shape, still validates finiteness
        m = object.__new__(cls)
        a = np.ascontiguousarray(a, dtype=np.float64)
        if not np.isfinite(a).all():
            raise NumericError("matrix entries must be finite")
        a.setflags(write=False)
        m._a = a
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(
            np.array_equal(self._a, other._a)
        )

    def __hash__(self):
        return hash((self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SvdResult:
    """Top-k singular triplets: u (d x k), singular_values (len k, non-increasing),
    vt (k x l)."""

    u: Matrix
    singular_values: tuple[float, ...]
    vt: Matrix


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return Matrix._wrap(a.array @ b.array)


def svd(m: Matrix, k: int) -> SvdResult:
    """Top-k singular value decomposition of m.

    The reconstruction u @ diag(s) @ vt is the best rank-k approximation of
    m in Frobenius norm.
    """
    if not 1 <= k <= min(m.rows, m.cols):
        raise ShapeError(f"k={k} out of range for {m.rows}x{m.cols}")
    try:
        u, s, vt = np.linalg.svd(m.array, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare at desk scale
        raise NumericError(f"SVD did not converge: {exc}") from exc
    return SvdResult(
        u=Matrix._wrap(u[:, :k]),
        singular_values=tuple(float(x) for x in s[:k]),
        vt=Matrix._wrap(vt[:k, :]),
    )


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    if isinstance(part, str):
        return int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "little")
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
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self._seed, *_path]))
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

    def batch_indices(self, n: int, size: int) -> np.ndarray:
        """Mini-batch sample without replacement (whole set if size >= n)."""
        if size >= n:
            return np.arange(n)
        return self._gen.choice(n, size=size, replace=False)


def seeded_rng(seed: int) -> Rng:
    return Rng(seed)
