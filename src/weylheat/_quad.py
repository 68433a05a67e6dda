"""Shared quadrature and log-domain helpers.

All integrals in this package are of smooth positive integrands, evaluated in
the log domain: nodes carry log-weights and sums are taken with a max-shift
(logsumexp).  Gauss-Legendre rules are cached per order; composite panels
refine resolution without touching the node generator.  Product rules are laid
out by tensor_grid, and every such block stays within GRID_VALUES; the chain
quadrature of spherical sums its product rule link by link instead.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Values one quadrature block may materialize: grid points times the terms the
# integrand forms per point (|W| for an image or Fourier sum).
GRID_VALUES = 2_000_000


_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant


def _two_prod(a, b):
    """a * b exactly, as the rounded product and its error (Dekker, no FMA)."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    c = _SPLIT * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    """a + b exactly, as the rounded sum and its error (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """_two_sum for |a| >= |b| (Dekker)."""
    s = a + b
    return s, b - (s - a)


def _legendre_dd(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) for n >= 1, each rounded once from a double-double
    run of the three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}.

    In binary64 the recurrence loses up to O(n^2) u near x = +-1; in
    double-double the loss is O(n^2) u^2, below the final rounding.
    """
    (q, ql), (p, pl) = (np.ones_like(x), np.zeros_like(x)), (x, np.zeros_like(x))
    for k in range(1, n):
        a, e = _two_prod(x, p)
        a, e = _fast_two_sum(a, e + x * pl)  # x P_k
        b, f = _two_prod(a, 2.0 * k + 1.0)
        f += e * (2.0 * k + 1.0)  # (2k+1) x P_k = b + f
        c, g = _two_prod(q, float(k))
        g += ql * k  # k P_{k-1} = c + g
        s, e = _two_sum(b, -c)
        s, e = _fast_two_sum(s, e + f - g)  # (k+1) P_{k+1} = s + e
        h = s / (k + 1)
        r, rr = _two_prod(h, float(k + 1))
        (q, ql), (p, pl) = (p, pl), _fast_two_sum(h, ((s - r) - rr + e) / (k + 1))
    return p + pl, q + ql


@lru_cache(maxsize=None)
def leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    The nonnegative nodes start from Tricomi's estimate and take Newton steps
    on the recurrence in binary64; one double-double evaluation of P_n and
    P_{n-1} then gives the last step d = -P_n / P_n', which rounds each node
    to nearest, and the weight 2 / ((1 - x^2) P_n'(x)^2) at x + d, to first
    order in d.  Against a 300-bit table, at every order from 1 to 320, the
    nodes are within half an ulp and the weights within 7.4 u (numpy's
    leggauss is off by up to 11,600 u in the end weights at orders 48 and
    64).  The negative half is the mirror image, so the table is exactly
    antisymmetric.
    """
    n = order
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(4):
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        x = x - p1 * (1.0 - x) * (1.0 + x) / (n * (p0 - x * p1))
    p, q = _legendre_dd(n, x)
    s = (1.0 - x) * (1.0 + x)
    dp = n * (q - x * p) / s
    d = -p / dp
    w = 2.0 / (dp * dp * (s + 2.0 * x * d))
    x = x + d
    odd = n % 2
    if odd:
        x[-1] = 0.0  # the middle node
    nodes = np.concatenate([-x, x[::-1][odd:]])
    weights = np.concatenate([w, w[::-1][odd:]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None)
def gl_offsets(order: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, panels]: node offsets and log(w/2).

    Panel p holds the offsets p + (x + 1)/2 of the Legendre nodes x.  The
    table is exactly antisymmetric, so the reversed offsets are panels minus
    the offsets: offs[::-1] is the distance of each node to the upper end.
    The arrays are shared and read-only.
    """
    xi, wi = leggauss(order)
    offs = (np.arange(panels)[:, None] + (xi[None, :] + 1.0) / 2.0).ravel()
    logw = np.tile(np.log(wi / 2.0), panels)
    offs.flags.writeable = False
    logw.flags.writeable = False
    return offs, logw


def gl_nodes(a, b, order: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/log-weights on [a, b].

    a and b may be arrays (broadcast against each other); the returned arrays
    have one extra trailing axis of length order*panels.  Requires b > a
    pointwise (log-weights of zero-width intervals would be -inf).
    """
    offs, logw_unit = gl_offsets(order, panels)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a, b = np.broadcast_arrays(a, b)
    width = (b - a) / panels
    # panel p spans [a + p*width, a + (p+1)*width]
    nodes = a[..., None] + width[..., None] * offs
    logw = logw_unit + np.log(width)[..., None]
    return nodes, logw


def tensor_grid(nodes, logws) -> tuple[np.ndarray, np.ndarray]:
    """Product of per-axis rules: points Y (..., K_0, ..., K_{r-1}, r) and their log-weights.

    Axis k has nodes and log-weights of shape batch + (K_k,); the leading batch
    dimensions broadcast against each other and lead the result.
    """
    r = len(nodes)
    batch = np.broadcast_shapes(*(nk.shape[:-1] for nk in nodes))
    shape = batch + tuple(nk.shape[-1] for nk in nodes)
    Y = np.empty(shape + (r,))
    logw = np.zeros(shape)
    for k in range(r):
        sl = (...,) + tuple(slice(None) if t == k else None for t in range(r))
        Y[..., k] = nodes[k][sl]
        logw = logw + logws[k][sl]
    return Y, logw


def tensor_blocks(nodes, logws, terms: int = 1):
    """tensor_grid of one-dimensional rules, yielded in blocks along the first axis.

    A block holds at most GRID_VALUES // terms points (at least one first-axis
    node), where terms counts the values the integrand forms per point.
    """
    step = max(1, GRID_VALUES // (terms * math.prod(nk.size for nk in nodes[1:])))
    for s in range(0, nodes[0].size, step):
        yield tensor_grid([nodes[0][s : s + step], *nodes[1:]], [logws[0][s : s + step], *logws[1:]])


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray | float:
    """Stable log(sum(exp(a))); tolerates -inf entries."""
    a = np.asarray(a, dtype=float)
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    if np.ndim(out) == 0:
        return float(out)
    return out


def log_positive(a: np.ndarray) -> np.ndarray:
    """log(a) where a > 0, else -inf (a nonpositive roundoff result or a wall)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0.0, np.log(np.where(a > 0.0, a, 1.0)), -np.inf)


def log1mexp(u) -> np.ndarray:
    """log(1 - exp(-u)) for u > 0, stable across scales."""
    u = np.asarray(u, dtype=float)
    small = u < math.log(2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(small, np.log(-np.expm1(-u)), np.log1p(-np.exp(-u)))
    return out


def log_ratio_1mexp(u) -> np.ndarray:
    """log((1 - exp(-u)) / u) for u >= 0, with the confluent value 0 at u = 0."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    tiny = np.abs(u) < 1e-5
    # series: log((1-e^{-u})/u) = -u/2 + u^2/24 - u^4/2880 + ...
    ut = np.where(tiny, u, 0.0)
    out_t = -ut / 2.0 + ut * ut / 24.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out_b = log1mexp(np.where(tiny, 1.0, u)) - np.log(np.where(tiny, 1.0, u))
    out = np.where(tiny, out_t, out_b)
    return out


def log_sinh(u) -> np.ndarray:
    """log(sinh(u)) for u > 0 without overflow."""
    u = np.asarray(u, dtype=float)
    big = u > 20.0
    mid = (~big) & (u > 1e-4)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(big, u - math.log(2.0) + np.log1p(-np.exp(-2.0 * np.where(big, u, 1.0))), 0.0)
        out = np.where(mid, np.log(np.sinh(np.where(mid, u, 1.0))), out)
        small = ~(big | mid)
        us = np.where(small, u, 1.0)
        out = np.where(small, np.log(us) + np.log1p(us * us / 6.0), out)
    return out
