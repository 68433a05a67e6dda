"""Positive spherical-type kernel psi for the A_n family, with envelopes.

psi_lambda(X) is evaluated by several independent routes:

* an alternating sum over the Weyl group (closed formula), with compensated
  64-bit summation, or as the determinant det[e^{lam_i x_j}] in
  arbitrary-precision floats when cancellation bites or the rank is large;
  coincident coordinates are spread apart by a small trace-free
  displacement, with a derived bound on what that moves, and take the
  determinant,
* the chain-domain recursion (confluent safe in lam, rank <= 3): a product
  Gauss-Legendre rule over the interlacing chains, summed one link of the
  chain at a time, with a derived bound on its rounding,
* a Haar Monte Carlo average over the unitary orbit (statistical oracle).

All public evaluators return log-domain values (the raw kernel overflows
binary64 once <lam, X> passes ~700).  The sharp two-sided envelope
exp(<lam, X>) / prod_{i<j} (1 + (lam_i - lam_j)(x_i - x_j)) and its curved
counterpart are provided alongside, plus a small/large regime classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from mpmath.libmp import (fnone, fone, from_float, from_man_exp, mpf_add, mpf_div, mpf_exp, mpf_log,
                          mpf_mul, mpf_neg, mpf_sub, mpf_sum, round_nearest, to_float)

from . import rootsystem as rs
from ._quad import _two_prod, gl_offsets, log_ratio_1mexp, log_sinh, logsumexp
from .errors import (
    DegenerateInput,
    QuadratureNonconvergence,
    RankTooLarge,
    ToleranceUnachievable,
)

# method tags for EvalResult
METHOD_ALT = "alt_sum"
METHOD_ALT_EXT = "alt_sum_extended"
METHOD_ITER = "iter_quadrature"
METHOD_MC = "monte_carlo"
METHOD_CLOSED = "closed_form"
METHOD_CONFLUENT = "confluent"

REGIME_SMALL = "small"
REGIME_LARGE = "large"
REGIME_MIXED = "mixed"

DEFAULT_DEGENERATE_TOL = 1e-12
DEFAULT_TARGET = 1e-12
DEFAULT_DELTA = 1.0

_EPS = float(np.finfo(float).eps)
_U = _EPS / 2.0  # unit roundoff; numpy's and math's exp and log are taken as faithful (2u)
_MAX_PREC = 8192
# From this many coordinates on psi_stable skips the m!-term float rungs.  On
# a 2-core x86-64 VM the binary64 sum costs 0.4 ms at m = 7 and 19 ms at m = 8,
# the determinant (with its exact assembly) at the planned precision 0.6 and 0.8 ms.
_DET_COORDS = 8
_MC_RANK_CAP = 5
_MC_BATCH = 100_000  # Haar samples per substream


@dataclass(frozen=True)
class EvalResult:
    """Log-domain kernel value with method tag and error estimate."""

    log_value: float
    method: str
    abs_log_error: float
    mc_std_error: Optional[float] = None

    @property
    def value(self) -> float:
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class RegimeLabel:
    label: str
    delta: float


# ---------------------------------------------------------------------------
# alternating sum core
# ---------------------------------------------------------------------------

def _alt_sum_log_T_float(lv: np.ndarray, xv: np.ndarray, scale: float = 1.0):
    """log of T = sum_w eps(w) exp(-scale <lam - w lam, X>) in (0, |W|] with
    the bound err of rs.weyl_alt_sum carried through the log: -log(1 - err/T),
    inf once err reaches T, plus 2u |log T|.  A T <= 0 raises (a miss to
    psi_stable and heat_flat)."""
    T, err = rs.weyl_alt_sum(lv, xv, scale)
    if T <= 0.0:
        raise ToleranceUnachievable("alternating sum lost all significance in binary64")
    log_T, rel = math.log(T), err / T
    return log_T, (-math.log1p(-rel) if rel < 1.0 else math.inf) + 2.0 * _U * abs(log_T)


def _det_log_T(lv: np.ndarray, xv: np.ndarray, prec: int, div: float = 1.0):
    """log T, T the alternating sum, from the Harish-Chandra determinant at
    prec bits: (log T as a libmp tuple, in binary64, the tuple's bound).

    With m coordinates, lam' = lam - lam_m and x' = x - x_m,
    T = det K e^{-<lam', x'>}, K_ij = exp(lam'_i x'_j), and det K is the
    determinant of the Schur complement E_ij = K_ij - 1 (i, j < m) of its
    last row and column of ones.  K and E are strictly totally positive for
    strictly decreasing lam and x: elimination without pivoting meets only
    positive pivots and is componentwise backward stable (de Boor & Pinkus,
    Numer. Math. 1977), exact for entries perturbed by a relative m 2^-prec
    each, plus the rounding of the exponents.  That moves T by at most m
    times the relative size times the sum of |terms| of T, at most m!; hence
    the condition m!/T.  A nonpositive pivot means too few bits and raises.
    x' is divided by div (heat passes 2t) after x - x_m is formed, and the
    bound's scale likewise, within its factor m.  The operations are those of
    mpf objects at workprec(prec) (the test oracle mpf_det_log_T), on raw
    mpmath.libmp tuples."""
    m, prec, rnd = lv.size, int(prec), round_nearest
    lam = [from_float(a) for a in lv.tolist()]
    x = [from_float(b) for b in xv.tolist()]
    lp = [mpf_sub(a, lam[-1], prec, rnd) for a in lam[:-1]]
    xp = [mpf_sub(b, x[-1], prec, rnd) for b in x[:-1]]
    if div != 1.0:
        d = from_float(div)
        xp = [mpf_div(b, d, prec, rnd) for b in xp]
    E = [[mpf_add(mpf_exp(mpf_mul(a, b, prec, rnd), prec, rnd), fnone, prec, rnd) for b in xp]
         for a in lp]
    det = fone
    for k in range(m - 1):
        piv = E[k][k]
        if piv[0] or not piv[1]:  # negative, or zero
            raise ToleranceUnachievable(f"determinant pivot nonpositive at {prec} bits")
        det = mpf_mul(det, piv, prec, rnd)
        row, npiv = E[k][k + 1:], mpf_neg(piv)
        for i in range(k + 1, m - 1):  # e - (E_ik / piv) r as e + (E_ik / -piv) r: same bits
            f = mpf_div(E[i][k], npiv, prec, rnd)
            E[i][k + 1:] = [mpf_add(e, mpf_mul(f, r, prec, rnd), prec, rnd)
                            for e, r in zip(E[i][k + 1:], row)]
    pairing = mpf_sum([mpf_mul(a, b, prec, rnd) for a, b in zip(lp, xp)], prec, rnd)  # <lam', x'>
    lt = mpf_sub(mpf_log(det, prec, rnd), pairing, prec, rnd)
    log_T = to_float(lt, rnd=rnd)
    base = float(np.dot(lv, xv))
    spread = base - float(rs._min_pairing(lv, xv))
    scale = 4.0 * div + abs(base) + spread + float((lv[0] - lv[-1]) * (xv[0] - xv[-1]))
    log_err = (math.log(m * m * scale) - math.log(div) + (2 - prec) * math.log(2.0)
               + math.lgamma(m + 1) - log_T)
    return lt, log_T, math.exp(log_err) if log_err < 709.0 else math.inf


def _psi_log_det(lv: np.ndarray, xv: np.ndarray, prec: int) -> tuple[float, float]:
    """log psi = log T + <lam, X> + c, c = log(prod_{k<m} k! / (pi(lam) pi(X))),
    on the determinant rung, summed exactly and rounded to binary64 once
    (0.75 eps (1 + |log psi|) in the bound).  Over a common power of two per
    vector the coordinates are integers, so pi(lam) pi(X) and <lam, X> are
    exact; c rounds pi, the quotient and the log at prec, 2^-prec (3 + 2|c|)."""
    ints, shift = [], 0
    for v in (lv, xv):
        ratios = [a.as_integer_ratio() for a in v.tolist()]  # denominators are powers of two
        d = max(q for _, q in ratios)
        ints.append([p * (d // q) for p, q in ratios])
        shift -= d.bit_length() - 1
    pi = from_man_exp(math.prod([a - b for v in ints for i, a in enumerate(v) for b in v[i + 1:]]),
                      0, prec, round_nearest)
    top = from_man_exp(rs._superfactorial(lv.size), -shift * (lv.size * (lv.size - 1) // 2))
    c = mpf_log(mpf_div(top, pi, prec, round_nearest), prec, round_nearest)
    lt, _, err = _det_log_T(lv, xv, prec)
    pairing = from_man_exp(sum(a * b for a, b in zip(*ints)), shift)
    log_value = to_float(mpf_sum([lt, c, pairing]), rnd=round_nearest)
    return log_value, err + 2.0 ** -prec * (3 + 2 * abs(to_float(c))) + 0.75 * _EPS * (1 + abs(log_value))


def _psi_log(lv: np.ndarray, xv: np.ndarray, roots: np.ndarray, log_T) -> tuple[float, float]:
    """log psi = log prod_{k<m} k! + log T + sum lam_i x_i - sum log alpha from
    the binary64 rung's (log T, bound) in one math.fsum, each lam_i x_i split
    exactly by _two_prod (past |coordinates| ~ 1e300 it raises); the bound adds
    2u c for the constant, u + 2u |log alpha| per root value (roots holds
    alpha(lam), then alpha(X)) and u |log psi| for the fsum."""
    const = math.log(rs._superfactorial(lv.size))
    logs = np.log(roots).tolist()
    prods = [v for a, b in zip(lv.tolist(), xv.tolist()) for v in _two_prod(a, b)]
    if not math.isfinite(sum(prods)):
        raise ToleranceUnachievable("a product lam_i x_i is past binary64's exact split")
    log_value = math.fsum([const, log_T[0], *prods, *[-v for v in logs]])
    return log_value, log_T[1] + _U * (2 * const + len(logs) + 2 * sum(map(abs, logs)) + abs(log_value))


def cancellation_bits(lam, x) -> float:
    """Estimated leading bits the alternating sum cancels, which alone set the
    precision a rung needs (the gap-product terms are accurate at any scale):
    sum_{i<j} log2(1 + 1/((lam_i - lam_j)(x_i - x_j))).  Coincident
    coordinates cancel without limit and are refused."""
    lv, xv = rs.as_pair(lam, x)
    prods = rs.root_values(lv) * rs.root_values(xv)
    if prods.min() <= 0.0:
        raise DegenerateInput("coordinates coincide; psi_stable spreads them itself")
    return _cancellation_bits(prods)


def _cancellation_bits(prods: np.ndarray) -> float:
    """cancellation_bits from the positive root-value products alpha(lam) alpha(X)."""
    return float(np.sum(np.log2(1.0 + 1.0 / prods)))


def psi_alt_sum(lam, x, precision_bits: int = 53) -> EvalResult:
    """psi via the alternating sum at a requested precision.

    precision_bits <= 53 sums the Weyl group in compensated binary64 (a
    T <= 0 raises); precision_bits > 53 runs the determinant det[e^{lam_i x_j}]
    at exactly that many mantissa bits, and assembles log psi exactly.
    Strictly dominant lam and x are required (the prefactor divides by
    pi(lam) pi(x)); nearly coincident coordinates should go through
    psi_stable, which reroutes them.  Both rungs take the pair in one
    canonical order, so psi_alt_sum(x, lam) is bit for bit
    psi_alt_sum(lam, x) (psi is symmetric).
    """
    lv, xv = rs.as_pair(lam, x)
    rs.check_rank(lv.size - 1)
    al, ax = rs.root_values(lv), rs.root_values(xv)
    # rounding is monotone, so the least root value is the least simple gap
    if min(al.min(), ax.min()) <= DEFAULT_DEGENERATE_TOL:
        raise DegenerateInput(
            "coordinates coincide within tolerance; use psi_stable or psi_iter_quadrature"
        )
    if xv.tolist() < lv.tolist():  # the canonical order of the pair
        lv, xv, al, ax = xv, lv, ax, al
    if precision_bits <= 53:
        log_value, err = _psi_log(lv, xv, np.concatenate([al, ax]), _alt_sum_log_T_float(lv, xv))
        return EvalResult(log_value, METHOD_ALT, err)
    log_value, err = _psi_log_det(lv, xv, precision_bits)
    return EvalResult(log_value, METHOD_ALT_EXT, err)


# ---------------------------------------------------------------------------
# nested-quadrature recursion (chain domains)
# ---------------------------------------------------------------------------

# quadrature ladders per coordinate count: tuples of per-level (order, panels),
# outermost level first; the innermost pair integral of the 4-point case uses
# the last entry.
_ITER_RUNGS = {
    3: [((16, 1),), ((24, 1),), ((40, 1),), ((48, 2),), ((64, 3),)],
    4: [
        ((10, 1), (8, 1)),
        ((16, 1), (12, 1)),
        ((24, 1), (16, 1)),
        ((32, 1), (20, 1)),
        ((40, 1), (26, 1)),
        ((56, 1), (36, 1)),
        ((72, 1), (44, 1)),
        ((96, 1), (56, 1)),
    ],
}


# Bounds on the rounding of the chain sum, per coordinate count m, against
# the same rule in exact arithmetic on the binary64 Gauss-Legendre table, to
# first order in the unit roundoff u:
#   rho: relative error of an interval width or node distance, in u.  A gap of
#        X is one subtraction (1); a node's distance to either end of its
#        interval is width / panels (2) times a table offset (2) in one
#        product, 5 in all; an inner width (m = 4) is the sum of two outer
#        distances (6), and its node distances take 10;
#   dx, dr: a node position (lower end plus distance) is off by at most
#        u (dx max|X| + dr (x_1 - x_m)): u (max|X| + 5 span) for an outer
#        node, plus u (max|X| + 10 span) for an inner one;
#   dc: a coefficient lam_i - lam_j formed by nested differences is off by at
#       most dc u (lam_1 - lam_m): 1 for one difference, 3 for two, 7 for
#       the difference of two such.
_CHAIN_ROUNDING = {2: (1.0, 0.0, 0.0, 1.0), 3: (5.0, 1.0, 5.0, 3.0), 4: (10.0, 2.0, 15.0, 7.0)}
# Node values one block of the rank-3 chain sum holds; each value carries
# about 150 bytes of temporaries, so a block stays near 10 MiB on every rung.
_CHAIN_VALUES = 2 ** 16


def _lse(t: np.ndarray, err: np.ndarray, axis: int = -1):
    """logsumexp over one axis with a roundoff bound.

    The result moves by at most the largest term bound; the evaluation adds
    the shift t - max (u log n on the softmax average), the exponentials (2u),
    the sum of n positive terms ((n-1) u), the log (2u log n) and the final
    addition of the max.
    """
    n = t.shape[axis]
    v = logsumexp(t, axis=axis)
    return v, np.max(err, axis=axis) + _U * (n + 1 + 3.0 * math.log(n) + np.abs(v))


def _log_G2(a, hi, d, bnd):
    """log of the innermost chain integral G_2 = int_{hi-d}^{hi} e^{a y} dy
    (a >= 0) and its roundoff bound.

    Written confluent-safe as a hi + log d + log((1 - e^{-a d})/(a d)).  The
    length d is passed in, never formed as a difference of node positions, so
    its relative error does not grow with |hi| / d.  bnd = (position error,
    rho, coefficient error) bounds the inputs' errors.
    """
    delta, rho, dcoef = bnd
    ah = a * hi
    s = a * d
    with np.errstate(divide="ignore"):
        ld = np.log(d)
        ls = np.where(s < 1e-5, 0.0, np.abs(np.log(np.maximum(s, 1e-5))))
    lr = log_ratio_1mexp(s)
    h = ah + ld
    g = h + lr
    # a hi: position and coefficient errors, product; log d: rho + 2|log d|;
    # lr: its argument (|lr'| <= 1/2) and its own 2 + 3|lr| + 4|log s|; sums
    err = a * delta + dcoef * (np.abs(hi) + 0.5 * d) + _U * (
        np.abs(ah) + rho + 2.0 * np.abs(ld) + 0.5 * (rho + 1.0) * s
        + 4.0 + 3.0 * np.abs(lr) + 4.0 * ls + np.abs(h) + np.abs(g))
    return g, err


def _chain_nodes(lo, width, level, coef, bnd):
    """Nodes of one chain coordinate on [lo, lo + width], batched over the ends.

    Returns the node positions z, their distances to both ends, the terms
    log w + coef z of the rule and the terms' roundoff bounds.  The nodes are
    gl_nodes(lo, lo + width, *level); the distances come from the table
    offsets, never from differences of positions.
    """
    delta, rho, dcoef = bnd
    order, panels = level
    offs, lw_unit = gl_offsets(order, panels)
    step = (width / panels)[..., None]
    below = step * offs
    above = step * offs[::-1]
    z = lo[..., None] + below
    lst = np.log(step)
    lw = lw_unit + lst
    cz = coef * z
    t = lw + cz
    err = coef * delta + dcoef * np.abs(z) + _U * (
        rho + 2.0 * np.abs(lst) + 2.0 * np.abs(lw_unit) + np.abs(lw) + np.abs(cz) + np.abs(t))
    return z, below, above, t, err


def _chain_links(nu, lo, hi, width, level, bnd):
    """The two links of one level of the chain sum, stacked on the first axis.

    Link 0 is an upper coordinate z on [lo_0, hi_0], link 1 a lower one on
    [lo_1, hi_1] (width = hi - lo), under the two coefficients nu of their
    level.  Returns (log Q, bound) and (log P, bound), reduced over the nodes:
    Q = sum w e^{nu_2 z}, and P = sum w e^{nu_2 z} G_2(nu; z, lo_0) for link 0,
    sum w e^{nu_2 z} G_2(nu; hi_1, z) for link 1.
    """
    c, a = nu[1], nu[0] - nu[1]
    z, below, above, q, eq = _chain_nodes(lo, width, level, c, bnd)
    top = np.concatenate([z[:1], np.broadcast_to(hi[1:, ..., None], z[1:].shape)])
    g, eg = _log_G2(a, top, np.concatenate([below[:1], above[1:]]), bnd)
    p = q + g
    return _lse(q, eq), _lse(p, eq + eg + _U * np.abs(p))


def _add(*parts):
    """Sum of (value, bound) pairs in order, with the rounding of each addition."""
    v, e = parts[0]
    for pv, pe in parts[1:]:
        v = v + pv
        e = e + pe + _U * np.abs(v)
    return v, e


def _at(pair, k):
    """Entry k of the leading axis of a (value, bound) pair."""
    return pair[0][k], pair[1][k]


def _logaddexp(x, y):
    """log(e^x + e^y) of two (value, bound) pairs, elementwise.

    numpy forms max + log1p(e^{-|x-y|}): the difference, exp, log1p and the
    addition add at most u (0.3 + 1 + 1.4 + |v|), within _lse's bound for n = 2.
    """
    v = np.logaddexp(x[0], y[0])
    return v, np.maximum(x[1], y[1]) + _U * (3.0 + 3.0 * math.log(2.0) + np.abs(v))


def _chain_bounds(lv: np.ndarray, xv: np.ndarray):
    """(position error, rho, coefficient error) of _CHAIN_ROUNDING for this pair."""
    rho, dx, dr, dc = _CHAIN_ROUNDING[lv.size]
    delta = _U * (dx * max(abs(xv[0]), abs(xv[-1])) + dr * float(xv[0] - xv[-1]))
    return delta, rho, dc * _U * float(lv[0] - lv[-1])


def _chain_log_G(lv: np.ndarray, xv: np.ndarray, levels):
    """(log G_m(lam; X), roundoff bound) for m = 3 or 4 coordinates.

    G_m(lam; X) = int_chain psi_{lam0}(Y) pi(Y) dY over the interlacing chain
    X_{k+1} < Y_k < X_k, lam0 = lam[:-1] - lam[-1].  With
    psi_mu(Y) pi(Y) = (r-1)! e^{mu_r sum Y} G_r(mu; Y) the integrand is
    positive and free of Vandermonde quotients, and the rule is the product
    Gauss-Legendre rule of each level over each interlacing box.

    The innermost closed form splits at the shared coordinate:
    G_2(nu; Z_0, Z_1) = G_2(nu; Z_0, Y_1) + G_2(nu; Y_1, Z_1), both terms
    positive since Z_1 < Y_1 < Z_0.  Each level's integrand is then a sum of
    two products of factors that couple only neighbouring coordinates, and the
    same rule is summed one link at a time in the log domain: 2K values for
    m = 3 and K^2 k per factor for m = 4 (K, k nodes per coordinate of the
    outer and inner level), where the product grid holds K^2 and K^3 k^2.
    """
    bnd = _chain_bounds(lv, xv)
    mu = lv[:-1] - lv[-1]
    gaps = xv[:-1] - xv[1:]
    if lv.size == 3:
        Q, P = _chain_links(mu, xv[1:], xv[:-1], gaps, levels[0], bnd)
        return _logaddexp(_add(_at(P, 0), _at(Q, 1)), _add(_at(Q, 0), _at(P, 1)))
    # m = 4: outer coordinates y_k on (X_{k+1}, X_k); inner z_0 on (y_1, y_0)
    # and z_1 on (y_2, y_1) give the links (C, A) and (B, D) over node pairs
    nu = mu[:-1] - mu[-1]
    y, below, above, o, eo = _chain_nodes(xv[1:], gaps, levels[0], mu[-1], bnd)
    width = below[:2, :, None] + above[1:, None, :]  # y_0 - y_1, y_1 - y_2
    # in blocks of upper nodes, each holding at most _CHAIN_VALUES node values;
    # every value is reduced over its own inner nodes only, so blocks change no bit
    K = y.shape[-1]
    step = max(1, _CHAIN_VALUES // (2 * K * levels[1][0] * levels[1][1]))
    blocks = [_chain_links(nu, y[1:, None, :], y[:2, s:s + step, None], width[:, s:s + step],
                           levels[1], bnd) for s in range(0, K, step)]
    Q, P = (tuple(np.concatenate(a, axis=1) for a in zip(*(b[i] for b in blocks))) for i in (0, 1))
    first = (o[0][:, None], eo[0][:, None])
    last = (o[2][None, :], eo[2][None, :])
    uA, uC = (_lse(*_add(first, _at(F, 0)), axis=0) for F in (P, Q))
    lB, lD = (_lse(*_add(last, _at(F, 1)), axis=1) for F in (Q, P))
    total = _lse(*_add((o[1], eo[1]), _logaddexp(_add(uA, lB), _add(uC, lD))))
    return _add(total, (math.log(2.0), 2.0 * _U * math.log(2.0)))


def _psi_iter_once(lv: np.ndarray, xv: np.ndarray, log_G):
    """(log psi, roundoff bound) from (log G_m, its bound):
    psi = (m-1)! e^{lam_m sum X} G_m(lam; X) / pi(X)."""
    m = lv.size
    ends = math.log(math.factorial(m - 1))
    lam_sum = lv[-1] * float(xv.sum())
    log_pi = rs._log_pi(xv)
    k = m * (m - 1) // 2
    abs_logs = float(np.abs(np.log(rs.root_values(xv))).sum())
    return _add(
        (ends, 2.0 * _U * ends),
        (lam_sum, _U * (abs(lv[-1]) * (m - 1) * float(np.abs(xv).sum()) + abs(lam_sum))),
        log_G,
        (-log_pi, _U * (k + (k + 1) * abs_logs)),
    )


def psi_iter_quadrature(lam, x, tol: float = 1e-9) -> EvalResult:
    """psi via the chain-domain recursion with nested Gauss-Legendre panels.

    Confluent safe in lam (coincident spectral coordinates are fine); x must
    be strictly dominant since the chain domain is built from its gaps.
    Supported for rank <= 3.  Rank 1 is the closed form.  At ranks 2 and 3
    each rung of _ITER_RUNGS is the product Gauss-Legendre rule of the chain
    recursion, summed link by link (see _chain_log_G): 4K log-domain terms
    at rank 2 and 4 K^2 k at rank 3, with K and k nodes per coordinate of
    the outer and inner level.  On a 2-core x86-64 VM a rank-2 rung costs
    0.2-0.4 ms; the rank-3 rungs cost 0.6-14 ms on the first five (the
    product grid took 8 ms to 5.1 s) and 40-170 ms on the last three, which
    only input the first five cannot settle reaches.  The ladder stops when
    two rungs agree within tol (or 64 ulps); the declared error is their
    difference, an estimate of the rule's error, plus a first-order bound on
    the rounding of the last rung's evaluation.
    """
    lv, xv = rs.as_pair(lam, x)
    m = lv.size
    if m - 1 > 3:
        raise RankTooLarge("iter quadrature supports rank <= 3")
    rs.check_positive(tol, "tol")
    if np.any(xv[:-1] <= xv[1:]):
        raise DegenerateInput("x must be strictly dominant for the chain recursion")
    if m == 2:
        g = _log_G2(lv[0] - lv[1], xv[0], xv[0] - xv[1], _chain_bounds(lv, xv))
        log_value, err = _psi_iter_once(lv, xv, tuple(map(float, g)))
        return EvalResult(log_value, METHOD_ITER, err)
    prev = None
    for levels in _ITER_RUNGS[m]:
        cur, err = _psi_iter_once(lv, xv, _chain_log_G(lv, xv, levels))
        if prev is not None:
            diff = abs(cur - prev)
            if diff <= max(tol, 64.0 * _EPS * (1.0 + abs(cur))):
                return EvalResult(cur, METHOD_ITER, diff + float(err))
        prev = cur
    raise QuadratureNonconvergence(
        f"chain quadrature did not reach tol={tol} at rank {m - 1}"
    )


# ---------------------------------------------------------------------------
# Monte Carlo over the unitary orbit
# ---------------------------------------------------------------------------

def psi_mc_orbit(lam, x, samples: int, seed: int) -> EvalResult:
    """Haar Monte Carlo estimate of psi (orbit average of exp(<lam, U x U*>)).

    Haar unitaries come from QR of complex Gaussian matrices with the diagonal
    phase correction that makes the factorization unique.  Batches draw from
    substreams keyed by (seed, batch index) of a counter-based generator, so
    the estimate is reproducible and independent of how work is split.
    """
    lv, xv = rs.as_pair(lam, x)
    m = lv.size
    if m - 1 > _MC_RANK_CAP:
        raise RankTooLarge(f"Monte Carlo supported for rank <= {_MC_RANK_CAP}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    M = -math.inf
    s0 = 0.0
    s2 = 0.0
    done = 0
    b = 0
    while done < samples:
        k = min(_MC_BATCH, samples - done)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(b,))))
        g = (rng.standard_normal((k, m, m)) + 1j * rng.standard_normal((k, m, m))) / math.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (d / np.abs(d))[:, None, :]
        proj = (np.abs(q) ** 2) @ xv  # diagonal of U diag(x) U*
        s = proj @ lv
        mb = float(np.max(s))
        if mb > M:
            scale = math.exp(M - mb) if M > -math.inf else 0.0
            s0 *= scale
            s2 *= scale * scale
            M = mb
        e = np.exp(s - M)
        s0 += float(e.sum())
        s2 += float((e * e).sum())
        done += k
        b += 1
    mean = s0 / samples
    var = max(s2 / samples - mean * mean, 0.0)
    rel_sigma = math.sqrt(var / samples) / mean if mean > 0 else math.inf
    return EvalResult(M + math.log(mean), METHOD_MC, rel_sigma, mc_std_error=rel_sigma)


# ---------------------------------------------------------------------------
# envelopes, curved kernel, regimes
# ---------------------------------------------------------------------------

def psi_envelope(lam, x) -> float:
    """log of exp(<lam, X>) / prod_{i<j} (1 + (lam_i - lam_j)(x_i - x_j))."""
    return float(_envelope_rows(*rs.as_pair(lam, x)))


def _envelope_rows(lv: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """psi_envelope of checked pairs on the last axis; lv and xv may hold
    row-paired batches."""
    prods = rs.root_values(lv) * rs.root_values(xv)
    return rs._pairing(lv, xv) - np.sum(np.log1p(prods), axis=-1)


def phi_curved(lam, x, target_rel_err: float = DEFAULT_TARGET) -> EvalResult:
    """Curved-side kernel: log phi = log pi(X) - sum log sinh alpha(X) + log psi."""
    lv, xv = rs.as_pair(lam, x)
    ax = rs.root_values(xv)
    if np.any(ax <= 0.0):
        raise DegenerateInput("phi_curved needs strictly dominant x (sinh alpha(x) > 0)")
    res = psi_stable(lv, xv, target_rel_err)
    log_pref = float(np.sum(np.log(ax)) - np.sum(log_sinh(ax)))
    err = res.abs_log_error + _EPS * (ax.size + 2) * (1.0 + abs(log_pref))
    return EvalResult(log_pref + res.log_value, res.method, err, res.mc_std_error)


def phi_envelope(lam, x) -> float:
    """log of e^{(lam-rho)(X)} prod (1 + alpha(X)) / (1 + alpha(lam) alpha(X))."""
    lv, xv = rs.as_pair(lam, x)
    n = lv.size - 1
    al = rs.root_values(lv)
    ax = rs.root_values(xv)
    shift = float(np.dot(lv - rs.rho(n).array(), xv))
    return shift + float(np.sum(np.log1p(ax)) - np.sum(np.log1p(al * ax)))


def regime_classify(lam, x, delta: float = DEFAULT_DELTA) -> RegimeLabel:
    """Label the input small/large/mixed for the two-sided estimates.

    small: every cross product of simple-root values alpha_i(lam) alpha_j(x)
    is <= delta.  large: alpha(lam) alpha(x) >= log |W| for every positive
    root (the threshold at which each non-identity term of the alternating
    sum is provably below e^{<lam,X>}/|W| in this normalization, where
    |alpha|^2 = 2).  small wins if both conditions hold.
    """
    return RegimeLabel(str(_regime_rows(*rs.as_pair(lam, x), delta)), delta)


def _regime_rows(lv: np.ndarray, xv: np.ndarray, delta: float) -> np.ndarray:
    """regime_classify's labels for checked pairs on the last axis; lv and xv
    may hold row-paired batches."""
    gl = lv[..., :-1] - lv[..., 1:]
    gx = xv[..., :-1] - xv[..., 1:]
    small = np.max(gl[..., :, None] * gx[..., None, :], axis=(-2, -1)) <= delta
    prods = rs.root_values(lv) * rs.root_values(xv)
    large = np.min(prods, axis=-1) >= math.log(rs.weyl_order(lv.shape[-1] - 1))
    return np.where(small, REGIME_SMALL, np.where(large, REGIME_LARGE, REGIME_MIXED))


# ---------------------------------------------------------------------------
# stable dispatcher
# ---------------------------------------------------------------------------

def _closed_constant_side(lv: np.ndarray, xv: np.ndarray):
    """Exact value when either vector is constant: psi_{c 1}(X) = e^{c sum X}."""
    if np.all(lv == lv[0]):
        return float(lv[0] * math.fsum(xv.tolist()))
    if np.all(xv == xv[0]):
        return float(xv[0] * math.fsum(lv.tolist()))
    return None


def _spread_runs(v: np.ndarray, delta: float) -> np.ndarray:
    """v with each run of k coordinates (gaps at most DEFAULT_DEGENERATE_TOL)
    displaced by delta ((k-1)/2 - j), j < k: trace free, each gap grows by delta."""
    new = np.concatenate([[True], v[:-1] - v[1:] > DEFAULT_DEGENERATE_TOL])
    run = np.cumsum(new) - 1
    start = np.flatnonzero(new)
    size = np.diff(np.append(start, v.size))
    return v + delta * ((size[run] - 1) / 2.0 - (np.arange(v.size) - start[run]))


def _spread_error(v: np.ndarray, w: np.ndarray, ws: np.ndarray) -> float:
    """Bound on |log psi_v(ws) - log psi_v(w)|: psi_v(W) is the Haar average
    of exp<v, diag(U W U*)>, so d log psi / dw_j lies in [v_m, v_1].  The
    trace sum(ws - w) is summed exactly, then rounded once."""
    return 0.5 * ((v[0] - v[-1]) * float(np.abs(ws - w).sum())
                  + abs(v[0] + v[-1]) * abs(math.fsum([*ws.tolist(), *(-w).tolist()])))


def _psi_confluent(lv: np.ndarray, xv: np.ndarray, target: float) -> EvalResult:
    """psi when coordinates coincide: exact when a side is constant; else the
    determinant ladder on the pair with its runs spread by delta, plus a
    bound on what the spread moved.  delta = target / (8 m (1 + spread of
    lam + spread of x)), at least two ulps of the coordinates (so the spread
    survives rounding) and at most 1/m of the least other gap (so the order
    does)."""
    if xv.tolist() < lv.tolist():  # the canonical order of the pair
        lv, xv = xv, lv
    const = _closed_constant_side(lv, xv)
    if const is not None:
        return EvalResult(const, METHOD_CLOSED, _EPS * (1.0 + abs(const)))
    m = lv.size
    gaps = np.concatenate([lv[:-1] - lv[1:], xv[:-1] - xv[1:]])
    delta = max(target / (8.0 * m * (1.0 + float(lv[0] - lv[-1] + xv[0] - xv[-1]))),
                2.0 * float(np.spacing(max(-lv[-1], lv[0], -xv[-1], xv[0]))))
    delta = min(delta, np.min(gaps, where=gaps > DEFAULT_DEGENERATE_TOL, initial=math.inf) / m)
    ls, xs = _spread_runs(lv, delta), _spread_runs(xv, delta)
    al, ax = rs.root_values(ls), rs.root_values(xs)
    # the displacement binary64 applied: x under lam, then lam under x'; the
    # factor covers the rounding of the bound's own evaluation
    e_pert = (_spread_error(lv, xv, xs) + _spread_error(xs, lv, ls)) * (1.0 + (m + 8) * _EPS)
    if not (min(al.min(), ax.min()) > 0.0 and e_pert < target):
        raise ToleranceUnachievable(
            f"spreading tied coordinates by {delta:.3g} moves log psi by {e_pert:.3g}, "
            f"which leaves no room for the target {target:.3g}"
        )

    def rung(bits: int) -> EvalResult:
        log_value, err = _psi_log_det(ls, xs, bits)
        return EvalResult(log_value, METHOD_CONFLUENT, err + e_pert)

    return _ladder(rung, _plan_bits(_cancellation_bits(al * ax), m, target - e_pert)[1], target)


def _meets(res: EvalResult, target: float) -> bool:
    """Whether res honours the target; a binary64 result cannot beat the ulp
    of its own log value, and that floor is excluded from the guarantee."""
    return res.abs_log_error <= target + 2.0 * _EPS * (1.0 + abs(res.log_value))


def _ladder(rung, prec: int, target: float) -> EvalResult:
    """The first rung(prec) that meets the target, prec doubling up to _MAX_PREC."""
    while prec <= _MAX_PREC:
        res = rung(prec)
        if _meets(res, target):
            return res
        prec *= 2
    raise ToleranceUnachievable(f"could not reach log-error {target} below {_MAX_PREC} bits")


def _plan(lv: np.ndarray, xv: np.ndarray, target_rel_err: float) -> tuple[int, int]:
    """(bits of the first rung: 53 or the mpmath precision; mpmath starting
    precision), from the target's bits and the cancellation estimate alone.
    From _DET_COORDS coordinates on, the first rung is the mpmath determinant."""
    return _plan_bits(cancellation_bits(lv, xv), lv.size, target_rel_err)


def _plan_bits(bits: float, m: int, target_rel_err: float) -> tuple[int, int]:
    """_plan for m coordinates whose cancellation estimate is bits (heat's
    grows without limit in t); past _MAX_PREC the ladder refuses it."""
    core = -math.log2(target_rel_err) + bits
    prec = int(math.ceil(min(max(core, 0.0), _MAX_PREC))) + 64
    if core + 2.0 <= 53.0 and m < _DET_COORDS:
        return 53, prec
    return prec, prec


def planned_precision(lam, x, target_rel_err: float = DEFAULT_TARGET) -> int:
    """Mantissa bits of psi_stable's first rung for non-degenerate input.

    53 (the binary64 sum) for well-conditioned input of at most seven
    coordinates; otherwise the precision of the mpmath determinant, which
    psi_stable uses directly from eight coordinates on (ranks 7 and 8).
    """
    return _plan(*rs.as_pair(lam, x), target_rel_err)[0]


def psi_stable(lam, x, target_rel_err: float = DEFAULT_TARGET) -> EvalResult:
    """Evaluate psi with a guaranteed log-domain error bound.

    Dispatch, from the input and target alone (the same on every platform):
    at ranks 1-6, input whose estimated cancellation leaves binary64 enough
    bits takes the compensated binary64 sum; the rest, and any whose binary64
    bound misses or whose binary64 T comes out <= 0, take the determinant
    with 64 guard bits, as ranks 7 and 8 always do.  The determinant's
    precision doubles until its bound meets the target.

    Coincident coordinates (gaps at most DEFAULT_DEGENERATE_TOL) take one
    confluent route: a constant side is the closed form e^{c sum X};
    otherwise each run of tied coordinates is spread by a small trace-free
    displacement and the pair takes the determinant ladder, whose bound
    gains a derived bound on what the spread moved (method "confluent").

    The pair is checked, and its root values alpha(lam), alpha(X) formed,
    once for the degenerate test and the plan.  Each rung attempt is one call
    of the public psi_alt_sum at the rung's precision, the calls from which
    tracing reads the rung.
    """
    lv, xv = rs.as_pair(lam, x)
    rs.check_rank(lv.size - 1)
    rs.check_positive(target_rel_err, "target_rel_err")
    al, ax = rs.root_values(lv), rs.root_values(xv)
    # rounding is monotone, so the least root value is the least simple gap
    if min(al.min(), ax.min()) <= DEFAULT_DEGENERATE_TOL:
        return _psi_confluent(lv, xv, target_rel_err)

    return _planned_ladder(lambda bits: psi_alt_sum(lv, xv, bits),
                           _cancellation_bits(al * ax), lv.size, target_rel_err)


def _planned_ladder(rung, bits: float, m: int, target: float) -> EvalResult:
    """psi_stable's and heat_flat's sequence: rung(53), binary64, when the plan
    from the cancellation estimate allows it and it meets the target, else
    the determinant ladder from the planned precision; a binary64 T <= 0 (it
    raises) is a miss."""
    first, prec = _plan_bits(bits, m, target)
    if first == 53:
        try:
            if _meets(res := rung(53), target):
                return res
        except ToleranceUnachievable:
            pass
    return _ladder(rung, prec, target)


# ---------------------------------------------------------------------------
# oscillatory variant (used by the heat-kernel Fourier oracle)
# ---------------------------------------------------------------------------

def unitary_alt_sum(lams: np.ndarray, x) -> np.ndarray:
    """S(lam) = sum_w eps(w) exp(i <w lam, x>) on a batch of real spectral points.

    This is the numerator of psi_{i lam}(x); callers multiply batches of these
    for Fourier-type integrals, where the Vandermonde prefactors cancel.
    """
    return rs.weyl_alt_terms(lams, x, 1j).sum(axis=-1) * np.exp(1j * np.dot(lams, x))
