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
from typing import Iterator

import numpy as np

from ._quad import log_positive
from .errors import DominanceError, RankTooLarge

# Cap on the rank for any operation that enumerates the Weyl group;
# (n+1)! terms, so n=8 already means 362880 permutations.
RANK_CAP = 8

# Full permutation and deficit tables are cached up to this coordinate count;
# larger ranks are streamed in blocks no larger, so memory stays bounded.
_PERM_TABLE_MAX = 7
_PERM_CHUNK = math.factorial(_PERM_TABLE_MAX)
_U = float(np.finfo(float).eps) / 2.0  # unit roundoff


def as_coords(p, name: str = "point") -> np.ndarray:
    """Coerce a ChamberPoint or sequence to a float vector, checking dominance."""
    if isinstance(p, ChamberPoint):
        return np.asarray(p.coords, float)
    v = np.asarray(p, float)
    if v.ndim != 1 or v.size < 1:
        raise DominanceError(f"{name} must be a 1-d coordinate vector, got shape {v.shape}")
    # NaN fails every comparison; decreasing coordinates with finite ends are finite
    if not ((v[1:] <= v[:-1]).all() and math.isfinite(v[0]) and math.isfinite(v[-1])):
        if not np.isfinite(v).all():
            raise DominanceError(f"{name} coordinates must be finite: {v.tolist()}")
        raise DominanceError(f"{name} coordinates must be weakly decreasing: {v.tolist()}")
    return v


def check_positive(value: float, name: str) -> None:
    """Require a positive finite number: a time, step, tolerance or radius."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_rank(n: int) -> None:
    """Refuse ranks whose (n+1)! enumeration passes RANK_CAP."""
    if n > RANK_CAP:
        raise RankTooLarge(f"rank {n} exceeds cap {RANK_CAP} ((n+1)! enumeration)")


def as_pair(a, b, names=("lam", "x")) -> tuple[np.ndarray, np.ndarray]:
    """Check two coordinate vectors of one rank >= 1; names label the messages."""
    na, nb = names
    av, bv = as_coords(a, na), as_coords(b, nb)
    if av.size != bv.size:
        raise ValueError(f"{na} and {nb} have different lengths ({av.size} vs {bv.size})")
    if av.size < 2:
        raise ValueError("rank must be >= 1 (at least two coordinates)")
    return av, bv


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

    @property
    def rank(self) -> int:
        return len(self.coords) - 1

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, float)

    def gaps(self) -> np.ndarray:
        """Simple-root values alpha_i = c_i - c_{i+1}, all >= 0."""
        v = self.array()
        return v[:-1] - v[1:]

    def min_gap(self) -> float:
        return float(self.gaps().min())

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)


def _signs_from_rows(perms: np.ndarray) -> np.ndarray:
    """Vectorized parity of permutation rows via inversion counting."""
    m = perms.shape[1]
    inv = np.zeros(perms.shape[0], np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            inv += perms[:, i] > perms[:, j]
    return np.where(inv % 2 == 0, 1.0, -1.0)


def _deficit_block(rows: np.ndarray) -> np.ndarray:
    """Read-only tab[k, j, w] = N_w[k, j] = min(k, j) + 1 - #{i <= k : P[i] <= j}
    for permutation rows P, so that <a, b - b[P]> = alpha(a)^T N_w alpha(b);
    N_w >= 0 as at most min(k, j) + 1 of P[0..k] are <= j (P is injective)."""
    n = rows.shape[1] - 1
    k = np.arange(n)
    count = np.cumsum(rows[:, :n, None] <= k, 1, np.int8)  # [w, k, j], small counts
    tab = (np.minimum.outer(k, k) + 1)[..., None] - count.transpose(1, 2, 0)
    tab = tab.astype(float, order="C")
    tab.flags.writeable = False
    return tab


@lru_cache(maxsize=None)
def _perm_table(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Permutation rows, their signs and their deficit tables."""
    perms = np.array(list(itertools.permutations(range(m))), np.int64)
    return perms, _signs_from_rows(perms), _deficit_block(perms)


def perm_sign_chunks(m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (perm_rows, signs) covering S_m exactly once, in lexicographic order.

    Small m is served from a cached table; large m is streamed in blocks of
    _PERM_CHUNK rows so memory use does not grow with m!.
    """
    if m <= _PERM_TABLE_MAX:
        yield _perm_table(m)[:2]
        return
    it = itertools.permutations(range(m))
    while True:
        block = list(itertools.islice(it, _PERM_CHUNK))
        if not block:
            return
        rows = np.array(block, np.int64)
        yield rows, _signs_from_rows(rows)


def _weyl_deficits(a, b) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (D, signs) of the deficits D_w = <a, b - w b> = alpha(a)^T N_w alpha(b)
    on the axes of weyl_alt_terms.  For dominant a and b every summand is a
    nonnegative product of gaps, so D_w is off by at most 2m u D_w at any
    scale (u the unit roundoff; a subtraction per gap, n products and n - 1
    additions on each side of N_w).  N is contracted with a single side's
    gaps first, so no array of points times n^2 values is built."""
    ga, gb = (v[..., :-1] - v[..., 1:] for v in (np.asarray(a, float), np.asarray(b, float)))
    n = ga.shape[-1]
    for rows, signs in perm_sign_chunks(n + 1):
        tab = _perm_table(n + 1)[2] if n < _PERM_TABLE_MAX else _deficit_block(rows)
        r = signs.size
        if ga.ndim == 1:  # C[j, w] = (alpha(a)^T N_w)_j
            D = gb @ (ga @ tab.reshape(n, n * r)).reshape(n, r)
        elif gb.ndim == 1:  # H[k, w] = (N_w alpha(b))_k
            D = ga @ (gb @ tab)
        else:  # row-paired batches
            C = (ga @ tab.reshape(n, n * r)).reshape(ga.shape[:-1] + (n, r))
            D = (gb[..., None, :] @ C)[..., 0, :]
        yield D, signs


def weyl_alt_terms(a, b, scale=1.0) -> np.ndarray:
    """Terms eps(w) exp(-scale <a, b - w b>) of the alternating Weyl sum.

    The m! terms lie on the last axis, in the order of perm_sign_chunks;
    callers do their own reduction.  a and b hold m coordinates on the last
    axis; either may carry a batch, or both row-paired batches.  scale may
    be complex (the Fourier sum)."""
    chunks = []
    for D, signs in _weyl_deficits(a, b):
        # in place for a real scale: batched grids are the peak memory
        e = D * -scale if np.iscomplexobj(scale) else np.multiply(D, -scale, out=D)
        np.exp(e, out=e)
        e *= signs
        chunks.append(e)
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=-1)


def log_alt_sum(a, b, scale=1.0) -> np.ndarray:
    """log of the row sums of weyl_alt_terms(a, b, scale), -inf where a sum
    is not positive (a row almost on a wall: its true value is below the
    roundoff)."""
    return log_positive(weyl_alt_terms(a, b, scale).sum(axis=-1))


def weyl_alt_sum(a, b, scale: float = 1.0) -> tuple[float, float]:
    """(T, bound) for one dominant pair: the math.fsum T of weyl_alt_terms and a
    first-order bound on its error.  A term t_w is off by u (2m + 2) scale D_w
    |t_w| from its exponent (2m u from D_w, u from the product with scale, u for
    a scale rounded once), 2u |t_w| from exp (faithful); fsum adds u |T|."""
    t_blocks, A, S = [], 0.0, 0.0
    for D, signs in _weyl_deficits(a, b):
        D *= scale
        e = np.exp(-D)
        A += float(e.sum())
        S += float(D @ e)
        t_blocks.append(e * signs)
    T = math.fsum(itertools.chain.from_iterable(t.tolist() for t in t_blocks))
    return T, _U * ((2 * np.shape(a)[-1] + 2) * S + 2.0 * A + abs(T))


def positive_roots(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), 1 <= i < j <= n+1, in lexicographic order."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)]


def gamma(n: int) -> int:
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def rho(n: int) -> ChamberPoint:
    return ChamberPoint(tuple(float(n + 2 - 2 * i) for i in range(1, n + 2)))


def weyl_order(n: int) -> int:
    return math.factorial(n + 1)


def pi(x) -> float:
    """The alternating polynomial prod_{i<j} (x_i - x_j)."""
    v = np.asarray(x, float)
    out = 1.0
    for i in range(v.size):
        for j in range(i + 1, v.size):
            out *= v[i] - v[j]
    return float(out)


def _superfactorial(m: int) -> int:
    """prod_{k<m} k!, which equals pi(rho) / 2^gamma for m coordinates."""
    return math.prod(math.factorial(k) for k in range(1, m))


def log_pi(x) -> float:
    """log of pi(x) for dominant x; -inf when coordinates coincide."""
    return _log_pi(as_coords(x, "x"))


def _log_pi(v: np.ndarray) -> float:
    total = 0.0
    for i in range(v.size):
        for j in range(i + 1, v.size):
            d = v[i] - v[j]
            if d <= 0.0:
                return float("-inf")
            total += math.log(d)
    return total


@lru_cache(maxsize=None)
def _root_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the positive roots in positive_roots order."""
    pairs = np.triu_indices(m, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def root_values(x) -> np.ndarray:
    """alpha(x) for every positive root, aligned with positive_roots order, on
    the last axis (x may carry a batch of coordinate rows)."""
    v = np.asarray(x, float)
    i, j = _root_pairs(v.shape[-1])
    return v.take(i, axis=-1) - v.take(j, axis=-1)


def min_weyl_pairing(lam, x) -> tuple[np.ndarray, float]:
    """(P, min): a row P of the permutation table minimizing <w lam, X> over
    the whole Weyl group (brute force), and that minimum, with
    <w lam, X> = sum_j lam_j x_{P[j]}."""
    lv, xv = as_pair(lam, x)
    m = lv.size
    check_rank(m - 1)
    best_val = math.inf
    best_perm = None
    for rows, _signs in perm_sign_chunks(m):
        vals = xv[rows] @ lv
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_perm = rows[k].copy()
    return best_perm, best_val


def min_pairing_value(lam, x) -> float:
    """min_w <w lam, X> for dominant lam, x: the order-reversing pairing."""
    return float(_min_pairing(*as_pair(lam, x)))


def _min_pairing(lv: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """min_pairing_value of checked pairs on the last axis (rows allowed)."""
    return _pairing(np.ascontiguousarray(lv[..., ::-1]), xv)


def _pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> on the last axis, row by row, as a stacked matmul: on contiguous
    rows it rounds as np.dot does, which has no row-wise form."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def remark_bound_constant(n: int) -> float:
    """Smallest C with c_i(Y, w) <= C max_k alpha_k(Y) for all w and dominant Y.

    The decomposition coefficients are c_k(Y, w) = sum_j N[k, j] alpha_j(Y)
    with the nonnegative integer deficit tables of _deficit_block (over all
    of S_m, w and its inverse alike), so C is their largest row sum.
    """
    check_rank(n)
    return float(max(_deficit_block(rows).sum(axis=1).max(initial=0.0)
                     for rows, _signs in perm_sign_chunks(n + 1)))
