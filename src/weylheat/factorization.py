"""Master chain integral I^(n), its one-dimensional factors, and the rank recursion.

For spectral weights lam and a base point x in R^{n+1} (both dominant), the
master integral lives on the box y_k in [x_{k+1}, x_k], k = 1..n, with
lam_0(U) = sum_k (lam_k - lam_{n+1}) u_k:

* form="ratio": integrand exp(-lam_0(x' - y)) prod_{i<j<=n} u_ij / (1 + u_ij)
  with u_ij = (y_i - y_j)(lam_i - lam_j).  This is the object whose product
  factorization I ~ prod_k I_k and rank recursion are exercised by the sweeps.
* form="exact": integrand exp(-lam_0(x' - y)) times the signed exponential sum
  prod_{k<n} k! * sum_w eps(w) exp(<w lam_0 - lam_0, y>).  This variant obeys
  n! I = pi(x) pi(lam') exp(-<lam, x>) psi_lam(x) identically, which pins the
  index conventions and cross-checks the spherical evaluators.

Everything returns log-domain values; a zero-width box (degenerate x) or a
vanishing pair factor (coincident lam entries in the ratio form) gives -inf,
the log of an exactly zero integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rootsystem as rs
from ._quad import gl_nodes, log_positive, log_ratio_1mexp, logsumexp, tensor_blocks
from .errors import (
    PreconditionViolated,
    QuadratureNonconvergence,
    RankTooLarge,
)

# ladders of (order, extra grading levels); nodes per dim = order * 2 * levels,
# where levels = base depth from the pair-knee scale plus the rung increment
_RUNGS = [(5, -1), (7, 0), (10, 1), (12, 2), (14, 3), (16, 4)]
_RUNGS_1D = [(12, 0), (16, 1), (20, 2), (24, 4), (32, 6)]


def _grading_depth(lv: np.ndarray, xv: np.ndarray) -> int:
    """Panels must resolve the knees of the pair factors u/(1+u).

    A pair (i, j) has a knee only where u = gap * (y_i - y_j) crosses order
    one inside the effective ranges of y_i and y_j (the exponential damping
    already confines strongly damped dimensions to a boundary layer, which
    shrinks their range).  The depth is the log4 of the dynamic range of u
    above the knee floor, over all pairs.
    """
    n = lv.size - 1
    lam0 = lv[:-1] - lv[-1]
    y_min = np.empty(n)
    y_max = np.empty(n)
    for k in range(n):
        w = xv[k] - xv[k + 1]
        reach = w if lam0[k] * w <= _LAYER_CUT else _LAYER_SPAN / lam0[k]
        y_max[k] = xv[k]
        y_min[k] = xv[k] - min(w, reach)
    worst = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            lg = lv[i] - lv[j]
            u_hi = lg * (y_max[i] - y_min[j])
            u_lo = lg * max(y_min[i] - y_max[j], 0.0)
            worst = max(worst, u_hi / max(1.0, u_lo))
    return int(min(12, max(2, math.ceil(math.log(worst + 1.0) / math.log(4.0)) + 1)))


@dataclass(frozen=True)
class FactorInput:
    """Spectral weights and base point for the chain integrals."""

    lam: rs.ChamberPoint
    x: rs.ChamberPoint

    def __post_init__(self):
        if len(self.lam) != len(self.x):
            raise ValueError("lam and x must have the same length")

    @property
    def n(self) -> int:
        return len(self.x) - 1

    @classmethod
    def of(cls, lam, x) -> "FactorInput":
        return cls(rs.ChamberPoint(tuple(rs.as_coords(lam, "lam"))),
                   rs.ChamberPoint(tuple(rs.as_coords(x, "x"))))


def reverse_input(inp: FactorInput) -> FactorInput:
    """(lam, x) -> (-rev lam, -rev x), the mirrored chamber data.

    Swaps the roles of the first and last gaps, which is how callers reach the
    chamber ordering recursive_estimate requires.  For the exact form,
    log I - log pi(lam') is invariant under this reversal (the Vandermonde of
    the retained weights changes, the rest does not).
    """
    lam = tuple(-v for v in reversed(inp.lam.coords))
    x = tuple(-v for v in reversed(inp.x.coords))
    return FactorInput(rs.ChamberPoint(lam), rs.ChamberPoint(x))


# exponent range beyond which the e^{-a (x_k - y_k)} factor confines the mass
# to a boundary layer; nodes are then placed in the layer (tail < e^{-45})
_LAYER_CUT = 30.0
_LAYER_SPAN = 45.0


def _graded_gl(lo: float, hi: float, order: int, levels: int):
    """Composite Gauss-Legendre with panels graded geometrically to both ends.

    Resolves endpoint boundary layers down to a relative width of 4^-levels;
    the pair factors u/(1+u) put such knees at the interval ends whenever the
    spectral gaps are large compared to the base gaps.
    """
    w = hi - lo
    fr = [0.0] + [0.5 * 4.0 ** (-j) for j in range(levels - 1, -1, -1)]
    edges = [lo + w * f for f in fr] + [hi - w * f for f in reversed(fr[:-1])]
    nodes = []
    logws = []
    for a, b in zip(edges, edges[1:]):
        nk, lwk = gl_nodes(np.array(a), np.array(b), order, 1)
        nodes.append(nk)
        logws.append(lwk)
    return np.concatenate(nodes), np.concatenate(logws)


def _dim_nodes(a: float, lo: float, hi: float, order: int, levels: int):
    """Nodes/log-weights on [lo, hi] adapted to the damping factor e^{-a (hi - y)}."""
    if a * (hi - lo) <= _LAYER_CUT:
        return _graded_gl(lo, hi, order, levels)
    span = min(a * (hi - lo), _LAYER_SPAN)
    s, lw = _graded_gl(0.0, span, order, levels)
    return hi - s / a, lw - math.log(a)


def _box_nodes(lv: np.ndarray, xv: np.ndarray, order: int, levels: int):
    """Per-dimension nodes/log-weights for the box y_k in [x_{k+1}, x_k]."""
    n = xv.size - 1
    lam0 = lv[:-1] - lv[-1]
    nodes = []
    logws = []
    for k in range(n):
        nk, lwk = _dim_nodes(float(lam0[k]), float(xv[k + 1]), float(xv[k]), order, levels)
        nodes.append(nk)
        logws.append(lwk)
    return nodes, logws


def _log_integrand_ratio(lv: np.ndarray, Y: np.ndarray) -> np.ndarray:
    n = lv.size - 1
    lam0 = lv[:-1] - lv[-1]
    xpart = Y @ lam0  # constant shift exp(-lam0(x')) is added by the caller
    out = xpart.copy()
    with np.errstate(divide="ignore"):
        for i in range(n):
            for j in range(i + 1, n):
                u = (Y[..., i] - Y[..., j]) * (lv[i] - lv[j])
                out += np.log(u) - np.log1p(u)
    return out


def _log_integrand_exact(lv: np.ndarray, Y: np.ndarray) -> np.ndarray:
    n = lv.size - 1
    lam0 = lv[:-1] - lv[-1]
    out = Y @ lam0
    pref = sum(math.lgamma(k + 1) for k in range(1, n))
    return out + log_positive(rs.weyl_alt_terms(Y, lam0).sum(axis=-1)) + pref


def _master_once(lv: np.ndarray, xv: np.ndarray, order: int, levels: int, form: str) -> float:
    lam0 = lv[:-1] - lv[-1]
    shift = -float(np.dot(lam0, xv[:-1]))
    nodes, logws = _box_nodes(lv, xv, order, levels)
    integrand = _log_integrand_ratio if form == "ratio" else _log_integrand_exact
    pieces = [logsumexp(integrand(lv, Y) + logw) for Y, logw in tensor_blocks(nodes, logws)]
    return shift + logsumexp(np.array(pieces))


def master_integral(inp: FactorInput, tol: float = 1e-8, *, form: str = "ratio") -> float:
    """log of the master chain integral at rank n <= 3 (adaptive tensor panels).

    form selects the pairwise-ratio integrand or the exact exponential-sum
    integrand (see the module docstring for the contract each one satisfies).
    """
    if form not in ("ratio", "exact"):
        raise ValueError("form must be 'ratio' or 'exact'")
    rs.check_positive(tol, "tol")
    lv = inp.lam.array()
    xv = inp.x.array()
    n = inp.n
    if n > 3:
        raise RankTooLarge("master integral supports n <= 3 (nested quadrature)")
    if inp.x.min_gap() <= 0.0:
        return float("-inf")
    if n == 1:
        # closed form: int_{x2}^{x1} exp(-(lam1-lam2)(x1-y)) dy
        a = lv[0] - lv[1]
        w = xv[0] - xv[1]
        return math.log(w) + float(log_ratio_1mexp(np.array(a * w)))
    if form == "ratio" and inp.lam.min_gap() == 0.0:
        return float("-inf")  # a pair factor vanishes identically
    depth = _grading_depth(lv, xv)
    prev = None
    for order, extra in _RUNGS:
        cur = _master_once(lv, xv, order, max(2, depth + extra), form)
        if prev is not None and abs(cur - prev) <= max(tol, 1e-14 * (1 + abs(cur))):
            return cur
        prev = cur
    raise QuadratureNonconvergence(f"master integral stalled above tol={tol}")


def factor_integral(inp: FactorInput, k: int, tol: float = 1e-10) -> float:
    """log of the k-th one-dimensional factor I_k, 1 <= k <= n.

    I_k integrates exp(-(lam_k - lam_{n+1})(x_k - y)) over [x_{k+1}, x_k],
    damped by the pair ratios against the fixed upper coordinates x_1..x_{k-1};
    k = 1 is the closed form.
    """
    lv = inp.lam.array()
    xv = inp.x.array()
    n = inp.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    rs.check_positive(tol, "tol")
    a = lv[k - 1] - lv[-1]
    w = xv[k - 1] - xv[k]
    if w <= 0.0:
        return float("-inf")
    if k == 1:
        return math.log(w) + float(log_ratio_1mexp(np.array(a * w)))
    depth = _grading_depth(lv, xv)
    prev = None
    for order, extra in _RUNGS_1D:
        y, logw = _dim_nodes(float(a), float(xv[k]), float(xv[k - 1]), order, depth + extra)
        vals = -a * (xv[k - 1] - y)
        with np.errstate(divide="ignore"):
            for j in range(k - 1):
                u = (xv[j] - y) * (lv[j] - lv[k - 1])
                vals = vals + np.log(u) - np.log1p(u)
        cur = logsumexp(vals + logw)
        if prev is not None and abs(cur - prev) <= max(tol, 1e-14 * (1 + abs(cur))):
            return cur
        prev = cur
    raise QuadratureNonconvergence(f"factor integral I_{k} stalled above tol={tol}")


@dataclass(frozen=True)
class FactorizationReport:
    log_master: float
    log_product: float
    ratio: float
    per_factor: tuple[tuple[int, float], ...]


def factorization_ratio(inp: FactorInput, tol: float = 1e-8) -> FactorizationReport:
    """Master integral against the product of its factors; ratio = I / prod I_k."""
    log_master = master_integral(inp, tol, form="ratio")
    per = []
    total = 0.0
    for k in range(1, inp.n + 1):
        lk = factor_integral(inp, k, tol=max(tol * 0.1, 1e-12))
        per.append((k, lk))
        total += lk
    return FactorizationReport(
        log_master=log_master,
        log_product=total,
        ratio=math.exp(log_master - total),
        per_factor=tuple(per),
    )


def _sub_input(lv, xv, lam_idx, x_idx) -> FactorInput:
    return FactorInput(
        rs.ChamberPoint(tuple(float(lv[i]) for i in lam_idx)),
        rs.ChamberPoint(tuple(float(xv[i]) for i in x_idx)),
    )


def recursive_estimate(inp: FactorInput, tol: float = 1e-8) -> float:
    """log of the rank-recursion surrogate for the master integral.

    For data of rank n+1 (n+2 coordinates) with alpha_1(x) >= alpha_{n+1}(x),
    the estimate composes two rank-n masters, a single pair ratio, and divides
    by a rank-(n-1) master; I^(0) = 1 by convention.  The symmetric chamber
    case is handled by the caller via reverse_input.
    """
    lv = inp.lam.array()
    xv = inp.x.array()
    m = lv.size
    n = m - 2  # estimate for I^{(n+1)}
    if n < 0:
        raise ValueError("need at least two coordinates")
    if n + 1 > 3:
        raise RankTooLarge("direct comparison requires rank n+1 <= 3")
    if n == 0:
        # rank-1 data: the surrogate degenerates to the closed form itself
        return master_integral(inp, tol)
    gap_first = xv[0] - xv[1]
    gap_last = xv[n] - xv[n + 1]
    if gap_first < gap_last:
        raise PreconditionViolated(
            "alpha_1(x) >= alpha_{n+1}(x) required; apply reverse_input first"
        )
    head = _sub_input(lv, xv, list(range(n)) + [n + 1], list(range(n + 1)))
    tail = _sub_input(lv, xv, list(range(1, n + 2)), list(range(1, n + 2)))
    u = (xv[0] - xv[n]) * (lv[0] - lv[n])
    with np.errstate(divide="ignore"):
        log_mid = float(np.log(u) - np.log1p(u))
    out = master_integral(head, tol) + log_mid + master_integral(tail, tol)
    if n - 1 >= 1:
        den = _sub_input(lv, xv, list(range(1, n)) + [n + 1], list(range(1, n + 1)))
        out -= master_integral(den, tol)
    return out
