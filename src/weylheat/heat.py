"""Chamber heat kernels of A_n type, their envelopes, and verification oracles.

The reference measure on the closed chamber is pi(Y)^2 dY.  The flat kernel is

    p_t(X, Y) = t^{-d/2-gamma} exp(-(|X|^2+|Y|^2)/4t) psi_X(Y/2t) / (2^{gamma+d/2} c)
              = C' t^{-d/2} exp(-|X-Y|^2/4t) T / (pi(X) pi(Y)),

T = sum_w eps(w) exp(-<X, Y - wY>/2t), C' = pi(rho) / (2^{gamma+d/2} c), with
d = n+1 ambient dimensions, gamma positive roots, and c the Gaussian
normalization constant, fixed so that the kernel has unit mass on the chamber.
heat_flat evaluates the second form; ties take the first.  Two independent
routes to c are provided (Mehta's closed form of the Gaussian moment and
kernel-mass calibration) plus three independent checks of the kernel itself:
an oscillatory-spectrum inversion integral with a closed-form front constant,
a finite-difference heat-equation residual, and the semigroup property.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import rootsystem as rs
from . import spherical as sp
from ._quad import (
    GRID_VALUES, _two_prod, _two_sum, gl_nodes, log_positive, log_sinh, logsumexp, tensor_blocks,
)
from .errors import (
    CalibrationError,
    DegenerateInput,
    PreconditionViolated,
    QuadratureNonconvergence,
    RankTooLarge,
    ToleranceUnachievable,
)

_U = sp._U

PROV_CALIBRATED = "calibrated"
PROV_MMS = "mms_closed_form"


@dataclass(frozen=True)
class HeatContext:
    """Rank-level constants for the heat kernel; immutable after construction."""

    n: int
    d: int
    gamma: int
    c_k: float
    c_k_provenance: str
    c_k_cross: Optional[float] = None  # the other provenance, when computed


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------

def mms_constant(n: int, *, chamber: bool = True) -> float:
    """Gaussian moment int e^{-|y|^2/2} pi(y)^2 dy in Mehta's closed form.

    Over R^m, m = n+1, the moment is (2 pi)^{m/2} prod_{j<=m} j!.  chamber=True
    restricts to the closed chamber (divide by |W| = m!, the integrand being
    W-invariant); this is the normalization the kernel formulas use.  Ranks
    whose constant exceeds binary64 raise RankTooLarge.
    """
    m = n + 1
    top = m - 1 if chamber else m
    log_c = (m / 2.0) * math.log(2.0 * math.pi)
    for j in range(2, top + 1):  # stops at the first factor past binary64
        log_c += math.lgamma(j + 1.0)
        if log_c > math.log(sys.float_info.max):
            raise RankTooLarge(f"the Gaussian constant at rank {n} exceeds binary64")
    return (2.0 * math.pi) ** (m / 2.0) * math.prod(math.factorial(j) for j in range(1, top + 1))


def _log_c_prime(n: int, c_k: float) -> float:
    """log of pi(rho) / (2^{gamma + d/2} c_k), the image-sum front constant."""
    return math.log(rs._superfactorial(n + 1) / c_k) - (n + 1) / 2.0 * math.log(2.0)


def _chamber_log_integral(log_f, m: int, lo: float, hi: float, order: int, panels: int) -> float:
    """log of int over {lo <= y_m <= ... <= y_1 <= hi} exp(log_f(Y)) dY.

    log_f takes a stacked array (..., m) and may form an m!-term image sum per
    point.  The outermost (smallest) coordinate is looped in blocks within
    GRID_VALUES; inner levels are tensorized with per-node lower limits, so the
    rule is nested, not a tensor product.
    """
    ym, lwm = gl_nodes(np.array(lo), np.array(hi), order, panels)
    pieces = []
    inner = (order * panels) ** (m - 1)
    step = max(1, GRID_VALUES // (inner * (math.factorial(m) + m - 1)))  # terms and gaps
    for s in range(0, ym.size, step):
        yb = ym[s : s + step]
        lwb = lwm[s : s + step]
        coords = [None] * m
        logw = lwb
        coords[m - 1] = yb
        for lvl in range(m - 2, -1, -1):
            lower = coords[lvl + 1]
            nk, lwk = gl_nodes(lower, np.full_like(lower, hi), order, panels)
            for i in range(m - 1, lvl, -1):
                coords[i] = coords[i][..., None]
            logw = logw[..., None] + lwk
            coords[lvl] = nk
        shape = logw.shape
        Y = np.empty(shape + (m,))
        for i in range(m):
            c = coords[i]
            while c.ndim < len(shape):
                c = c[..., None]
            Y[..., i] = np.broadcast_to(c, shape)
        pieces.append(logsumexp(log_f(Y) + logw))
    return logsumexp(np.array(pieces))


def _mass_with_unit_constant(n: int, t: float, xv: np.ndarray, order: int, panels: int) -> float:
    """log of int_chamber p_t(X, Y) pi(Y)^2 dY computed with c = 1.

    Uses the image expansion, where pi(Y)^2 / pi(Y) leaves a single pi(Y)
    factor and the integrand is smooth up to the walls.
    """
    d = n + 1
    inv2t = 1.0 / (2.0 * t)

    def log_f(Y):
        quad = ((Y - xv) ** 2).sum(axis=-1)
        logpi = np.zeros(Y.shape[:-1])
        for i in range(d):
            for j in range(i + 1, d):
                logpi += log_positive(Y[..., i] - Y[..., j])
        return -quad / (4.0 * t) + logpi + rs.log_alt_sum(xv, Y, inv2t)

    radius = math.sqrt(4.0 * t * (math.log(1e14) + 8.0)) + 2.0
    lo = float(xv.min()) - radius
    hi = float(xv.max()) + radius
    core = _chamber_log_integral(log_f, d, lo, hi, order, panels)
    return core + _log_c_prime(n, 1.0) - (d / 2.0) * math.log(t) - rs._log_pi(xv)


def calibrate_constant(n: int, t_ref: float = 1.0, tol: float = 1e-8) -> float:
    """The unique c giving unit chamber mass at t_ref, with a t-independence check.

    Rank n <= 2 (the mass integral is over n+1 ordered coordinates), from the
    base point 0.75 rho.  The same c must renormalize the kernel at 2 t_ref to
    1e-6, else CalibrationError.
    """
    if n > 2:
        raise RankTooLarge("calibration quadrature supports n <= 2")
    rs.check_positive(t_ref, "t_ref")
    rs.check_positive(tol, "tol")
    xv = 0.75 * rs.rho(n).array()
    vals = {}
    for t in (t_ref, 2.0 * t_ref):
        prev = None
        for order, panels in [(24, 4), (24, 6), (28, 8), (32, 10)]:
            cur = _mass_with_unit_constant(n, t, xv, order, panels)
            if prev is not None and abs(cur - prev) <= max(tol * 0.1, 1e-13):
                break
            prev = cur
        else:
            raise QuadratureNonconvergence("calibration mass integral did not settle")
        vals[t] = math.exp(cur)
    c1, c2 = vals[t_ref], vals[2.0 * t_ref]
    if abs(c1 - c2) > 1e-6 * abs(c1):
        raise CalibrationError(
            f"calibrated constant is t-dependent: {c1!r} at t_ref vs {c2!r} at 2 t_ref"
        )
    return c1


def make_heat_context(n: int, *, provenance: str = PROV_MMS, cross_check: bool = False) -> HeatContext:
    """Build the rank context; cross_check also computes the other provenance."""
    if provenance not in (PROV_MMS, PROV_CALIBRATED):
        raise ValueError(f"unknown provenance {provenance!r}")
    if provenance == PROV_MMS:
        c = mms_constant(n)
        other = calibrate_constant(n) if (cross_check and n <= 2) else None
    else:
        c = calibrate_constant(n)
        other = mms_constant(n) if cross_check else None
    return HeatContext(
        n=n, d=n + 1, gamma=rs.gamma(n), c_k=c, c_k_provenance=provenance, c_k_cross=other
    )


# ---------------------------------------------------------------------------
# kernels and envelopes
# ---------------------------------------------------------------------------

def _points(x, y, ctx: Optional[HeatContext] = None) -> tuple[np.ndarray, np.ndarray]:
    """x and y checked as one pair, with the context's d coordinates when given."""
    xv, yv = rs.as_pair(x, y, ("x", "y"))
    if ctx is not None and xv.size != ctx.d:
        raise ValueError(f"x and y need {ctx.d} coordinates at rank {ctx.n}, got {xv.size}")
    return xv, yv


def heat_flat(ctx: HeatContext, t: float, x, y, target_log_err: float = 1e-12) -> sp.EvalResult:
    """log of p_t(X, Y): for strictly dominant X and Y the signed image sum
    log C' - (d/2) log t - |X-Y|^2/4t + log T - log pi(X) - log pi(Y) of
    images_oracle, whose T is psi's alternating sum at (X, Y/2t), on psi's
    rungs: binary64 when the plan allows it and the bound meets the target
    (T <= 0 escalates), else psi's determinant rung with div = 2t, Y/2t formed
    at its precision.  Ties (a gap at most DEFAULT_DEGENERATE_TOL) take _heat_tied."""
    rs.check_positive(t, "t")
    rs.check_positive(target_log_err, "target_log_err")
    xv, yv = _points(x, y, ctx)
    rs.check_rank(ctx.n)
    ax, ay = rs.root_values(xv), rs.root_values(yv)
    if min(ax.min(), ay.min()) <= sp.DEFAULT_DEGENERATE_TOL:
        return _heat_tied(ctx, t, xv, yv, target_log_err)

    def rung(bits: int) -> sp.EvalResult:  # a binary64 T <= 0 raises
        if bits <= 53:
            log_T = sp._alt_sum_log_T_float(xv, yv, 1.0 / (2.0 * t))
            return _images_result(ctx, t, xv, yv, log_T, sp.METHOD_ALT)
        _, log_T, err = sp._det_log_T(xv, yv, bits, 2.0 * t)  # plus its rounding to binary64
        return _images_result(ctx, t, xv, yv, (log_T, err + sp._U * abs(log_T)), sp.METHOD_ALT_EXT)

    # psi's cancellation estimate at (X, Y/2t); inf once 2t / (ax ay) overflows
    bits = sum(math.log2(1.0 + 2.0 * t / p) for p in (ax * ay).tolist())
    return sp._planned_ladder(rung, bits, xv.size, target_log_err)


def _heat_tied(ctx: HeatContext, t: float, xv: np.ndarray, yv: np.ndarray,
               target: float) -> sp.EvalResult:
    """heat_flat on ties: psi_stable(X, Y/2t) under the front -log c - (gamma
    + d/2) log 2t - g, g = (|X|^2 + |Y|^2)/4t.  The front rounds by 2u |log c|,
    3u |(gamma + d/2) log 2t| and 3u g; rounding Y/2t moves log psi_X by at
    most max|X| sum_j u |y_j/2t| (d log psi_X(Z)/dz_j lies in [x_m, x_1]).
    These grow as 1/t: at small t the target is missed, and that raises."""
    log_c = math.log(ctx.c_k)
    power = (ctx.gamma + ctx.d / 2.0) * math.log(2.0 * t)
    g = math.fsum([*(xv * xv).tolist(), *(yv * yv).tolist()]) / (4.0 * t)
    ys = yv / (2.0 * t)
    res = sp.psi_stable(xv, ys, target)
    log_value = math.fsum([-log_c, -power, -g, res.log_value])
    move = float(max(-xv[-1], xv[0]) * np.abs(ys).sum()) * (1.0 + 2.0 * xv.size * _U)
    err = res.abs_log_error + _U * (2.0 * abs(log_c) + 3.0 * abs(power) + 3.0 * g + move
                                    + abs(log_value))
    return _enforce(sp.EvalResult(log_value, res.method, err, res.mc_std_error), target)


def _enforce(res: sp.EvalResult, target: float) -> sp.EvalResult:
    """res if it meets the target (as psi_stable counts it), else ToleranceUnachievable."""
    if not sp._meets(res, target):
        raise ToleranceUnachievable(
            f"declared log error {res.abs_log_error:.3g} misses the target {target:.3g}")
    return res


def heat_envelope(t: float, x, y) -> float:
    """log of t^{-d/2} exp(-|X-Y|^2/4t) / prod_{i<j} (t + (x_i-x_j)(y_i-y_j))."""
    rs.check_positive(t, "t")
    xv, yv = _points(x, y)
    return float(_envelope_rows(np.array([t]), xv[None], yv[None])[0])


def _envelope_rows(t: np.ndarray, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """heat_envelope on rows: t of shape (k,) positive, checked xv and yv of
    shape (k, d).  log t is math.log's, as in heat_flat."""
    log_t = np.array([math.log(s) for s in t.tolist()])
    prods = rs.root_values(xv) * rs.root_values(yv)
    return (-(xv.shape[-1] / 2.0) * log_t
            - ((xv - yv) ** 2).sum(axis=-1) / (4.0 * t)
            - np.sum(np.log(t[:, None] + prods), axis=-1))


def _log_curved_prefactor(t: float, xv: np.ndarray, yv: np.ndarray, n: int) -> tuple[float, float]:
    """log of e^{-|rho|^2 t} pi(X) pi(Y) / prod sinh alpha(X) sinh alpha(Y) in
    one math.fsum, and its rounding bound: u |rho|^2 t; per root value a
    (relative u), u (1 + 2 |log a|) for log a and u (5 + a + 3 |log sinh a|)
    for log_sinh (u a coth a <= u (1 + a) from a, 4u + 3u |.| its own); u |sum|."""
    a = np.concatenate([rs.root_values(xv), rs.root_values(yv)])
    if np.any(a <= 0.0):
        raise DegenerateInput("curved kernel needs strictly dominant x and y")
    rgh = rs.rho(n).array()
    decay = -float(rgh @ rgh) * t
    la, ls = np.log(a), log_sinh(a)
    pref = math.fsum([decay, *la.tolist(), *(-ls).tolist()])
    err = _U * (abs(decay) + 6.0 * a.size + float((a + 2.0 * np.abs(la) + 3.0 * np.abs(ls)).sum())
                + abs(pref))
    return pref, err


def heat_curved(ctx: HeatContext, t: float, x, y, target_log_err: float = 1e-12) -> sp.EvalResult:
    """Curved-side kernel: e^{-|rho|^2 t} pi(X)pi(Y)/(sinh-products) times p_t;
    heat_flat gets the target less the prefactor's rounding bound."""
    rs.check_positive(t, "t")
    xv, yv = _points(x, y, ctx)
    pref, pref_err = _log_curved_prefactor(t, xv, yv, ctx.n)
    flat = heat_flat(ctx, t, xv, yv, max(target_log_err - pref_err, 0.5 * target_log_err))
    log_value = pref + flat.log_value
    return _enforce(sp.EvalResult(log_value, flat.method, flat.abs_log_error + pref_err
                                  + _U * abs(log_value), flat.mc_std_error), target_log_err)


def heat_curved_envelope(t: float, x, y) -> float:
    """log of the curved two-sided comparison form (with the Gaussian factor)."""
    rs.check_positive(t, "t")
    xv, yv = _points(x, y)
    n = xv.size - 1
    rgh = rs.rho(n).array()
    ax = rs.root_values(xv)
    ay = rs.root_values(yv)
    return float(
        -float(rgh @ rgh) * t
        - (xv.size / 2.0) * math.log(t)
        - float(rgh @ (xv + yv))
        - float(((xv - yv) ** 2).sum()) / (4.0 * t)
        + np.sum(np.log1p(ax)) + np.sum(np.log1p(ay))
        - np.sum(np.log(t + ax * ay))
    )


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def images_oracle(ctx: HeatContext, t: float, x, y) -> sp.EvalResult:
    """Signed-image evaluation of p_t in binary64: heat_flat's first rung.

    p_t(X,Y) = C' t^{-d/2} sum_w eps(w) e^{-|X - wY|^2/4t} / (pi(X) pi(Y)),
    C' = pi(rho) / (2^{gamma+d/2} c).  As |X - wY|^2 = |X - Y|^2 + 2 <X, Y - wY>,
    the image sum is e^{-|X-Y|^2/4t} times T = rs.weyl_alt_sum at scale 1/2t,
    accurate far from the origin.  Ties, and a T that lost all significance
    (T <= 0, or T within its own bound of 0), raise DegenerateInput.
    """
    rs.check_positive(t, "t")
    xv, yv = _points(x, y, ctx)
    if np.min(xv[:-1] - xv[1:]) <= 0.0 or np.min(yv[:-1] - yv[1:]) <= 0.0:
        raise DegenerateInput("images oracle needs strictly dominant x and y")
    with suppress(ToleranceUnachievable):  # T <= 0
        log_T = sp._alt_sum_log_T_float(xv, yv, 1.0 / (2.0 * t))
        if log_T[1] < math.inf:
            return _images_result(ctx, t, xv, yv, log_T, sp.METHOD_ALT)
    raise DegenerateInput("image sum lost all significance in binary64 (near a wall, or large t)")


def _images_result(ctx: HeatContext, t: float, xv: np.ndarray, yv: np.ndarray,
                   log_T: tuple[float, float], method: str) -> sp.EvalResult:
    """log p from (log T, its bound), in one math.fsum.  |X-Y|^2 is exactly
    p + q + 2de + e^2 (TwoSum differences d + e, Dekker's d^2 = p + q; the
    last two terms off by 2u^2 d^2), each divided by 4t once: u (1 + 8mu) of
    their sizes.  The bound adds 3u |(d/2) log t|, u + 2u |log alpha| per root
    value, u + 3u |log C'| + 2u d log 2 and u |log p| (the fsum).  An
    |X-Y|^2/4t past binary64 raises ToleranceUnachievable."""
    gauss = []
    for a, b in zip(xv.tolist(), yv.tolist()):
        d, e = _two_sum(a, -b)
        gauss.extend(v / (-4.0 * t) for v in (*_two_prod(d, d), 2.0 * d * e, e * e))
    g = sum(abs(v) for v in gauss)
    if not g < math.inf:
        raise ToleranceUnachievable("|X-Y|^2/4t exceeds binary64")
    power = (ctx.d / 2.0) * math.log(t)
    const = _log_c_prime(ctx.n, ctx.c_k)
    logs = np.log(np.concatenate([rs.root_values(xv), rs.root_values(yv)]))
    log_value = math.fsum([const, -power, *gauss, log_T[0], *(-logs).tolist()])
    err = log_T[1] + _U * (
        (1.0 + 8.0 * xv.size * _U) * g + 3.0 * abs(power) + 1.0 + 3.0 * abs(const)
        + 2.0 * ctx.d * math.log(2.0) + logs.size + 2.0 * float(np.abs(logs).sum()) + abs(log_value))
    return sp.EvalResult(log_value, method, err)


@lru_cache(maxsize=8)
def _fourier_grid(n: int, t: float, tol: float, xscale: float):
    m = n + 1
    radius = math.sqrt((math.log(1.0 / max(tol * 1e-3, 1e-15)) + 8.0) / t)
    order = int(max(72, 4.0 * radius * max(1.0, xscale)))
    order = min(order, 320)
    return gl_nodes(np.array(-radius), np.array(radius), order, 2)


def _fourier_integral(n: int, t: float, xv: np.ndarray, yv: np.ndarray, tol: float) -> float:
    """int e^{-|lam|^2 t} Re[S_X(lam) conj(S_Y(lam))] d lam over R^{n+1}.

    S_X is the signed oscillatory sum; the spectral Vandermonde cancels
    against the inversion measure, leaving a smooth integrand.
    """
    m = n + 1
    xscale = float(max(np.abs(xv).max(), np.abs(yv).max()))
    nodes, logw = _fourier_grid(n, t, tol, xscale)
    total = 0.0
    for lam, lw in tensor_blocks([nodes] * m, [logw] * m, terms=math.factorial(m) + n):
        sx = sp.unitary_alt_sum(lam, xv)
        sy = sp.unitary_alt_sum(lam, yv)
        total += float((np.exp(lw - t * (lam ** 2).sum(axis=-1)) * (sx * np.conj(sy)).real).sum())
    return total


def fourier_constant(ctx: HeatContext) -> float:
    """Front constant 2^{gamma-d/2} / (c d! pi(rho) pi^{d/2}) of the inversion integral.

    By (t/pi)^{d/2} int e^{-t|lam|^2} e^{i<lam, Z>} d lam = e^{-|Z|^2/4t}, the raw
    integral is d! (pi/t)^{d/2} times the signed image sum: S_X conj(S_Y) counts
    each image |W| = d! times.  With the image-sum constant pi(rho) /
    (2^{gamma+d/2} c), p_t is this constant times the raw integral times
    pi(rho)^2 / (4^gamma pi(X) pi(Y)).
    """
    return 2.0 ** (ctx.gamma - ctx.d / 2.0) / (
        ctx.c_k * math.factorial(ctx.d) * rs.pi(rs.rho(ctx.n).array()) * math.pi ** (ctx.d / 2.0)
    )


def inverse_fourier_oracle(ctx: HeatContext, t: float, x, y, tol: float = 1e-8) -> sp.EvalResult:
    """Oscillatory-spectrum inversion for p_t (rank <= 2), with the closed-form
    front constant of fourier_constant."""
    if ctx.n > 2:
        raise RankTooLarge("Fourier oracle supports n <= 2")
    rs.check_positive(t, "t")
    rs.check_positive(tol, "tol")
    xv, yv = _points(x, y, ctx)
    raw = _fourier_integral(ctx.n, t, xv, yv, tol)
    val = raw * math.exp(
        2.0 * rs._log_pi(rs.rho(ctx.n).array())
        - 2.0 * rs.gamma(ctx.n) * math.log(2.0)
        - rs._log_pi(xv) - rs._log_pi(yv)
    ) * fourier_constant(ctx)
    if val <= 0.0:
        raise QuadratureNonconvergence("inversion integral came out nonpositive")
    return sp.EvalResult(math.log(val), sp.METHOD_ITER, tol)


def pde_residual(ctx: HeatContext, t: float, x, y, h: float) -> float:
    """|d/dt p - Delta_X p| / p by central differences at step h.

    Delta is the chamber radial Laplacian: the Euclidean Laplacian plus
    2 sum_{alpha>0} <grad, alpha> / alpha(X).  Requires every gap of x to
    exceed 2h so the stencil stays strictly inside the chamber.
    """
    rs.check_positive(t, "t")
    rs.check_positive(h, "h")
    xv, yv = _points(x, y, ctx)
    if float(np.min(xv[:-1] - xv[1:])) <= 2.0 * h:
        raise PreconditionViolated("x must be at distance > 2h from the walls")
    if t <= 2.0 * h:
        raise PreconditionViolated("t must exceed 2h for the time stencil")
    tgt = 1e-13

    p0 = heat_flat(ctx, t, xv, yv, tgt).log_value

    def pn(tt, xx):
        return math.exp(heat_flat(ctx, tt, xx, yv, tgt).log_value - p0)

    dpdt = (pn(t + h, xv) - pn(t - h, xv)) / (2.0 * h)
    m = xv.size
    lap = 0.0
    grad = np.zeros(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        up = pn(t, xv + e)
        dn = pn(t, xv - e)
        lap += (up - 2.0 + dn) / (h * h)
        grad[i] = (up - dn) / (2.0 * h)
    root_term = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            root_term += 2.0 * (grad[i] - grad[j]) / (xv[i] - xv[j])
    return abs(dpdt - lap - root_term)


def semigroup_check(ctx: HeatContext, t: float, s: float, x, y, tol: float = 1e-8) -> float:
    """Relative defect |int p_t(X,Z) p_s(Z,Y) pi(Z)^2 dZ - p_{t+s}(X,Y)| / p_{t+s}.

    The pi(Z)^2 factor cancels against the two image denominators, so the
    integrand is smooth across the walls.  Rank <= 2.
    """
    if ctx.n > 2:
        raise RankTooLarge("semigroup quadrature supports n <= 2")
    rs.check_positive(t, "t")
    rs.check_positive(s, "s")
    rs.check_positive(tol, "tol")
    xv, yv = _points(x, y, ctx)
    d = ctx.d
    logc = _log_c_prime(ctx.n, ctx.c_k)

    def log_f(Z):
        qt = ((Z - xv) ** 2).sum(axis=-1) / (4.0 * t)
        qs = ((Z - yv) ** 2).sum(axis=-1) / (4.0 * s)
        return (
            -qt - qs
            + rs.log_alt_sum(xv, Z, 1.0 / (2.0 * t))
            + rs.log_alt_sum(yv, Z, 1.0 / (2.0 * s))
        )

    radius = math.sqrt(4.0 * max(t, s) * (math.log(1e14) + 8.0)) + 2.0
    lo = float(min(xv.min(), yv.min())) - radius
    hi = float(max(xv.max(), yv.max())) + radius
    width = math.sqrt(4.0 * min(t, s))
    panels = int(min(36, max(6, math.ceil((hi - lo) / (3.0 * width)))))
    prev = None
    diff = math.inf
    for order, pan in [(20, panels), (24, panels + 2), (28, panels + 4)]:
        core = _chamber_log_integral(log_f, d, lo, hi, order, pan)
        cur = (
            core + 2.0 * logc
            - (d / 2.0) * (math.log(t) + math.log(s))
            - rs._log_pi(xv) - rs._log_pi(yv)
        )
        if prev is not None:
            diff = abs(cur - prev)
            if diff <= tol * 0.1:
                break
        prev = cur
    if diff > tol * 10.0:
        raise QuadratureNonconvergence(
            f"semigroup quadrature settled only to {diff:.3g} (tol {tol:.3g})"
        )
    target = heat_flat(ctx, t + s, xv, yv).log_value
    return abs(math.expm1(cur - target))


# ---------------------------------------------------------------------------
# volume comparison forms
# ---------------------------------------------------------------------------

def ball_volume(x, r: float) -> float:
    """Comparison volume r^d prod_{i<j} (r + (x_i - x_j))^2."""
    return math.exp(log_ball_volume(x, r))


def log_ball_volume(x, r: float) -> float:
    rs.check_positive(r, "r")
    xv = rs.as_coords(x, "x")
    return float(xv.size * math.log(r) + 2.0 * np.sum(np.log(r + rs.root_values(xv))))


@dataclass(frozen=True)
class VolumeComparison:
    """Per-point comparison of the kernel against the volume-based sandwich."""

    t: float
    log_p: float
    log_envelope: float
    log_gauss: float  # -|X-Y|^2 / 4t, the shared Gaussian with c1 = c2 = 1/4
    log_vol_x: float
    log_vol_y: float

    @property
    def lower_fit(self) -> float:
        """C making C e^{gauss} / min(vol) touch p from below at this point."""
        return math.exp(self.log_p + min(self.log_vol_x, self.log_vol_y) - self.log_gauss)

    @property
    def upper_fit(self) -> float:
        return math.exp(self.log_p + max(self.log_vol_x, self.log_vol_y) - self.log_gauss)


def volume_compare(ctx: HeatContext, t: float, x, y) -> VolumeComparison:
    rs.check_positive(t, "t")
    xv, yv = _points(x, y, ctx)
    sqt = math.sqrt(t)
    return VolumeComparison(
        t=t,
        log_p=heat_flat(ctx, t, xv, yv).log_value,
        log_envelope=heat_envelope(t, xv, yv),
        log_gauss=-float(((xv - yv) ** 2).sum()) / (4.0 * t),
        log_vol_x=log_ball_volume(xv, sqt),
        log_vol_y=log_ball_volume(yv, sqt),
    )


def heat_time_slope(ctx: HeatContext, x, y) -> float:
    """d log p / d log t between t = 1e6 and 2e6; tends to -(d/2 + gamma)."""
    a = heat_flat(ctx, 1e6, x, y).log_value
    b = heat_flat(ctx, 2e6, x, y).log_value
    return (b - a) / math.log(2.0)
