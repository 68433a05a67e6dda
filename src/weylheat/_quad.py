"""Shared quadrature and log-domain helpers.

All integrals in this package are of smooth positive integrands, evaluated in
the log domain: nodes carry log-weights and sums are taken with a max-shift
(logsumexp).  Gauss-Legendre rules are cached per order; composite panels
refine resolution without touching the node generator.  Product rules are laid
out by tensor_grid, and every quadrature block stays within GRID_VALUES.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Values one quadrature block may materialize: grid points times the terms the
# integrand forms per point (|W| for an image or Fourier sum).
GRID_VALUES = 2_000_000


@lru_cache(maxsize=None)
def leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gl_nodes(a, b, order: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/log-weights on [a, b].

    a and b may be arrays (broadcast against each other); the returned arrays
    have one extra trailing axis of length order*panels.  Requires b > a
    pointwise (log-weights of zero-width intervals would be -inf).
    """
    xi, wi = leggauss(order)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a, b = np.broadcast_arrays(a, b)
    width = (b - a) / panels
    # panel p spans [a + p*width, a + (p+1)*width]
    offs = (np.arange(panels)[:, None] + (xi[None, :] + 1.0) / 2.0) * 1.0
    nodes = a[..., None, None] + width[..., None, None] * offs
    logw = np.log(wi / 2.0)[None, :] + np.log(width)[..., None, None]
    nodes = nodes.reshape(a.shape + (panels * order,))
    logw = np.broadcast_to(logw, a.shape + (panels, order)).reshape(a.shape + (panels * order,))
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
