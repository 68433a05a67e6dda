"""Combinatorics of the A_n root family acting on R^{n+1}.

Roots are the coordinate differences alpha_{ij}(X) = x_i - x_j (i < j), the
Weyl group is the symmetric group on the n+1 coordinates, and the closed
chamber is the set of weakly decreasing coordinate vectors.  Everything here
is exact combinatorics plus elementary linear algebra; the numerical modules
build on these primitives.

Conventions: roots are the vectors e_i - e_j (so |alpha|^2 = 2 for the
Euclidean inner product), rho is the sum of the positive roots, with
coordinates rho_i = n + 2 - 2i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DominanceError, RankTooLarge

# Default cap on the rank for any operation that enumerates the Weyl group;
# (n+1)! terms, so n=8 already means 362880 permutations.
DEFAULT_RANK_CAP = 8

# Full permutation tables are cached up to this coordinate count; larger
# ranks are streamed in chunks so memory stays bounded.
_PERM_TABLE_MAX = 7
_PERM_CHUNK = 40320


def as_coords(p, name: str = "point") -> np.ndarray:
    """Coerce a ChamberPoint or sequence to a float vector, checking dominance."""
    if isinstance(p, ChamberPoint):
        return np.asarray(p.coords, dtype=float)
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DominanceError(f"{name} must be a 1-d coordinate vector, got shape {v.shape}")
    # NaN fails every comparison; decreasing coordinates with finite ends are finite
    if not ((v[1:] <= v[:-1]).all() and math.isfinite(v[0]) and math.isfinite(v[-1])):
        if not np.isfinite(v).all():
            raise DominanceError(f"{name} coordinates must be finite: {v.tolist()}")
        raise DominanceError(f"{name} coordinates must be weakly decreasing: {v.tolist()}")
    return v


@dataclass(frozen=True)
class ChamberPoint:
    """A dominant vector in R^{n+1}: weakly decreasing coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.coords)
        if len(c) < 2:
            raise DominanceError("a chamber point needs at least two coordinates (rank >= 1)")
        if not all(math.isfinite(v) for v in c):
            raise DominanceError(f"coordinates must be finite: {c}")
        for a, b in zip(c, c[1:]):
            if a < b:
                raise DominanceError(f"coordinates must be weakly decreasing: {c}")
        object.__setattr__(self, "coords", c)

    @classmethod
    def from_unsorted(cls, seq: Iterable[float]) -> tuple["ChamberPoint", bool]:
        """Sort into the chamber; the flag reports whether input was already sorted."""
        vals = [float(v) for v in seq]
        srt = sorted(vals, reverse=True)
        return cls(tuple(srt)), vals == srt

    @property
    def rank(self) -> int:
        return len(self.coords) - 1

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def gaps(self) -> np.ndarray:
        """Simple-root values alpha_i = c_i - c_{i+1}, all >= 0."""
        v = self.array()
        return v[:-1] - v[1:]

    def min_gap(self) -> float:
        return float(self.gaps().min())

    def is_strictly_dominant(self, tol: float = 0.0) -> bool:
        return bool(self.min_gap() > tol)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True)
class WeylElement:
    """A permutation w of the coordinate slots together with its sign.

    The action on a vector X is (w X)_{perm[j]} = X_j, i.e. slot j is sent to
    slot perm[j]; equivalently (w X)_i = X_{perm^{-1}(i)}.  perm is 0-based.
    """

    perm: tuple[int, ...]
    sign: int

    def apply(self, x) -> np.ndarray:
        xv = np.asarray(x, dtype=float)
        out = np.empty_like(xv)
        out[np.asarray(self.perm)] = xv
        return out

    @property
    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.perm))


def permutation_sign(perm: Sequence[int]) -> int:
    """Parity of a permutation via cycle decomposition."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _signs_from_rows(perms: np.ndarray) -> np.ndarray:
    """Vectorized parity of permutation rows via inversion counting."""
    m = perms.shape[1]
    inv = np.zeros(perms.shape[0], dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            inv += perms[:, i] > perms[:, j]
    return np.where(inv % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=None)
def _perm_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    return perms, _signs_from_rows(perms)


def perm_sign_chunks(m: int, chunk: int = _PERM_CHUNK) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (perm_rows, signs) covering S_m exactly once, in lexicographic order.

    Small m is served from a cached table; large m is streamed so memory use
    is proportional to the chunk size, not (m)!.
    """
    if m <= _PERM_TABLE_MAX:
        yield _perm_table(m)
        return
    it = itertools.permutations(range(m))
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        rows = np.array(block, dtype=np.int64)
        yield rows, _signs_from_rows(rows)


def weyl_alt_terms(a, b, scale=1.0, dtype=np.float64) -> np.ndarray:
    """Terms eps(w) exp(scale (<a, w b> - <a, b>)) of the alternating Weyl sum.

    The m! terms lie on the last axis, in the order of perm_sign_chunks;
    callers do their own reduction.  a and b hold m coordinates on the last
    axis; either may carry a batch, or both row-paired batches.  A single a
    against a batch of b is permuted instead of b, which the sum over all of
    W allows.  dtype is the precision of pairings and exponentials; the
    shift <a, b> stays the binary64 value callers add back.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1 and b.ndim > 1:
        a, b = b, a
    base = np.dot(a, b) if b.ndim == 1 else np.einsum("...j,...j->...", a, b)
    base = np.asarray(base, dtype=dtype)[..., None]
    # contiguous: the bits of the products depend on layout
    a, b = np.ascontiguousarray(a, dtype), np.ascontiguousarray(b, dtype)
    chunks = []
    for rows, signs in perm_sign_chunks(b.shape[-1]):
        # for a single a, a @ b[rows].T is the same gemv as b[rows] @ a
        e = a @ b[rows].T if b.ndim == 1 else np.einsum("...j,...pj->...p", a, b[..., rows])
        e -= base
        e = e * scale  # in place from here on: batched grids are the peak memory
        np.exp(e, out=e)
        e *= signs
        chunks.append(e)
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=-1)


@dataclass(frozen=True)
class RootSystemAn:
    """The A_n data: positive roots as index pairs, gamma = |Sigma^+|, rho."""

    rank: int
    positive_roots: tuple[tuple[int, int], ...]
    gamma: int
    rho: ChamberPoint

    def weyl_order(self) -> int:
        return math.factorial(self.rank + 1)


def positive_roots(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), 1 <= i < j <= n+1, in lexicographic order."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)]


def gamma(n: int) -> int:
    return n * (n + 1) // 2


def rho(n: int) -> ChamberPoint:
    return ChamberPoint(tuple(float(n + 2 - 2 * i) for i in range(1, n + 2)))


@lru_cache(maxsize=None)
def root_system(n: int) -> RootSystemAn:
    return RootSystemAn(
        rank=n,
        positive_roots=tuple(positive_roots(n)),
        gamma=gamma(n),
        rho=rho(n),
    )


def weyl_order(n: int) -> int:
    return math.factorial(n + 1)


def weyl_elements(n: int, cap: int = DEFAULT_RANK_CAP) -> Iterator[WeylElement]:
    """Stream all (n+1)! Weyl elements, each exactly once."""
    if n > cap:
        raise RankTooLarge(f"rank {n} exceeds cap {cap} ((n+1)! enumeration)")
    for perm in itertools.permutations(range(n + 1)):
        yield WeylElement(perm, permutation_sign(perm))


def apply_weyl(w: WeylElement, x) -> np.ndarray:
    return w.apply(np.asarray(x, dtype=float))


def pi(x) -> float:
    """The alternating polynomial prod_{i<j} (x_i - x_j)."""
    v = np.asarray(x, dtype=float)
    out = 1.0
    for i in range(v.size):
        for j in range(i + 1, v.size):
            out *= v[i] - v[j]
    return float(out)


def log_pi(x) -> float:
    """log of pi(x) for dominant x; -inf when coordinates coincide."""
    v = as_coords(x, "x")
    total = 0.0
    for i in range(v.size):
        for j in range(i + 1, v.size):
            d = v[i] - v[j]
            if d <= 0.0:
                return float("-inf")
            total += math.log(d)
    return total


def root_values(x) -> np.ndarray:
    """alpha(x) for every positive root, aligned with positive_roots order."""
    v = np.asarray(x, dtype=float)
    m = v.size
    return np.array([v[i] - v[j] for i in range(m) for j in range(i + 1, m)])


def decompose_diff(y, w: WeylElement) -> np.ndarray:
    """Coefficients c with Y - wY = sum_i c_i alpha_i over the simple roots.

    For the A_n family the coefficients are the partial sums of Y - wY; they
    are nonnegative for dominant Y.
    """
    yv = as_coords(y, "Y")
    diff = yv - w.apply(yv)
    return np.cumsum(diff)[:-1]


def min_weyl_pairing(lam, x, cap: int = DEFAULT_RANK_CAP) -> tuple[WeylElement, float]:
    """argmin and min of <w lam, X> over the whole Weyl group (brute force)."""
    lv = as_coords(lam, "lam")
    xv = as_coords(x, "x")
    m = lv.size
    if m - 1 > cap:
        raise RankTooLarge(f"rank {m - 1} exceeds cap {cap}")
    best_val = math.inf
    best_perm = None
    for rows, _signs in perm_sign_chunks(m):
        vals = xv[rows] @ lv  # <w lam, X> = sum_j lam_j x_{perm(j)}
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_perm = tuple(int(t) for t in rows[k])
    return WeylElement(best_perm, permutation_sign(best_perm)), best_val


def min_pairing_value(lam, x) -> float:
    """min_w <w lam, X> for dominant lam, x: the order-reversing pairing."""
    lv = as_coords(lam, "lam")
    xv = as_coords(x, "x")
    return float(np.dot(lv[::-1], xv))


def fundamental_weight(n: int, k: int) -> ChamberPoint:
    """Dominant vector with alpha_j(omega_k) = delta_{jk} (trace-centered)."""
    m = n + 1
    v = np.full(m, -k / m)
    v[:k] += 1.0
    return ChamberPoint(tuple(v))


def remark_bound_constant(n: int, cap: int = DEFAULT_RANK_CAP) -> float:
    """Smallest C with c_i(Y, w) <= C max_k alpha_k(Y) for all w and dominant Y.

    The decomposition coefficients are integer combinations of the simple-root
    values, so C is the largest row sum of those integer matrices; it is found
    exactly by evaluating decompose_diff on the fundamental weights.
    """
    weights = [fundamental_weight(n, k) for k in range(1, n + 1)]
    c_max = 0.0
    for w in weyl_elements(n, cap=cap):
        cols = np.stack([decompose_diff(om, w) for om in weights], axis=1)
        row_sums = cols.sum(axis=1)
        c_max = max(c_max, float(row_sums.max(initial=0.0)))
    return c_max
