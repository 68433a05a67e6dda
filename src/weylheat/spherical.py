"""Positive spherical-type kernel psi for the A_n family, with envelopes.

psi_lambda(X) is evaluated by several independent routes:

* an alternating sum over the Weyl group (closed formula), with compensated
  64-bit summation or arbitrary-precision floats when cancellation bites,
* a nested-quadrature recursion over chain domains (confluent safe, rank <= 3),
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

import mpmath as mp
import numpy as np

from . import rootsystem as rs
from ._quad import GRID_VALUES, gl_nodes, log_ratio_1mexp, log_sinh, logsumexp, tensor_grid
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

REGIME_SMALL = "small"
REGIME_LARGE = "large"
REGIME_MIXED = "mixed"

DEFAULT_DEGENERATE_TOL = 1e-12
DEFAULT_TARGET = 1e-12
DEFAULT_DELTA = 1.0

_EPS = float(np.finfo(float).eps)
_LD = np.longdouble
_HAVE_LD80 = np.finfo(_LD).nmant >= 63
_MAX_PREC = 8192


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


def _pair(lam, x) -> tuple[np.ndarray, np.ndarray]:
    lv = rs.as_coords(lam, "lam")
    xv = rs.as_coords(x, "x")
    if lv.size != xv.size:
        raise ValueError(f"lam and x have different lengths ({lv.size} vs {xv.size})")
    if lv.size < 2:
        raise ValueError("rank must be >= 1 (at least two coordinates)")
    return lv, xv


def _min_gap(v: np.ndarray) -> float:
    return float(np.min(v[:-1] - v[1:]))


def _all_equal(v: np.ndarray) -> bool:
    return bool(np.all(v == v[0]))


# ---------------------------------------------------------------------------
# alternating sum core
# ---------------------------------------------------------------------------

def _alt_sum_log_T_float(lv: np.ndarray, xv: np.ndarray, dtype=np.float64):
    """log of T = sum_w eps(w) exp(<w lam - lam, X>) plus an error estimate.

    The identity term is 1 and every other term has a nonnegative deficit in
    the exponent, so T in (0, |W|].  float64 terms are summed with math.fsum
    (exact compensation); the extended-float path relies on pairwise
    summation, which is enough for the magnitudes it is selected for.
    """
    base = float(np.dot(lv, xv))
    t = rs.weyl_alt_terms(lv, xv, dtype=dtype)
    if dtype is np.float64:
        T = math.fsum(t.tolist())
        A = math.fsum(np.abs(t).tolist())
        eps = _EPS
    else:
        acc = t.sum(dtype=dtype)
        T = float(acc)
        A = float(np.abs(t).sum(dtype=dtype))
        eps = float(np.finfo(dtype).eps)
    if T <= 0.0:
        raise ToleranceUnachievable(
            "alternating sum lost all significance at this precision; "
            "use a higher-precision path"
        )
    spread = base - rs.min_pairing_value(lv, xv)
    err = eps * (4.0 + abs(base) + spread) * (A / T)
    logT = math.log(T) if dtype is np.float64 else float(np.log(acc))
    return logT, err


def _psi_log_mp(lv: np.ndarray, xv: np.ndarray, prec: int):
    """Full log psi assembled in arbitrary precision, converted to float once.

    The only float64 error left is the final rounding of the result, so the
    achievable absolute log error is about max(2^-prec * condition, ulp(log)).
    """
    m = lv.size
    n = m - 1
    with mp.workprec(int(prec)):
        lmp = [mp.mpf(float(v)) for v in lv]
        xmp = [mp.mpf(float(v)) for v in xv]
        prods = [[a * b for b in xmp] for a in lmp]  # lam_j x_k
        base = mp.fsum(prods[j][j] for j in range(m))
        terms = []
        abs_terms = []
        for rows, signs in rs.perm_sign_chunks(m):
            for perm, s in zip(rows.tolist(), signs.tolist()):
                t = mp.exp(mp.fsum(prods[j][k] for j, k in enumerate(perm)) - base)
                terms.append(t if s > 0 else -t)
                abs_terms.append(t)
        T = mp.fsum(terms)
        A = mp.fsum(abs_terms)
        if T <= 0:
            raise ToleranceUnachievable(
                f"alternating sum nonpositive even at {prec} bits; escalate precision"
            )
        rv = rs.rho(n).array()
        log_pref = (
            mp.fsum(mp.log(mp.mpf(float(rv[i])) - mp.mpf(float(rv[j])))
                    for i in range(m) for j in range(i + 1, m))
            - rs.gamma(n) * mp.log(2)
            - mp.fsum(mp.log(lmp[i] - lmp[j]) for i in range(m) for j in range(i + 1, m))
            - mp.fsum(mp.log(xmp[i] - xmp[j]) for i in range(m) for j in range(i + 1, m))
        )
        cond = float(A / T)
        out = float(log_pref + base + mp.log(T))
    spread = float(np.dot(lv, xv)) - rs.min_pairing_value(lv, xv)
    err = 2.0 ** (2 - prec) * cond * (4.0 + abs(float(np.dot(lv, xv))) + spread)
    err += 0.75 * _EPS * (1.0 + abs(out))  # final float rounding
    return out, err


def _psi_log_float(lv: np.ndarray, xv: np.ndarray, dtype) -> tuple[float, float]:
    """log psi and its error bound from the binary64 or 80-bit alternating sum."""
    logT, err = _alt_sum_log_T_float(lv, xv, dtype)
    base = float(np.dot(lv, xv))
    pref = _log_prefactor(lv, xv)
    log_value = pref + base + logT
    return log_value, err + _EPS * (4.0 + 0.75 * (abs(pref) + abs(base) + abs(logT)))


def _log_prefactor(lv: np.ndarray, xv: np.ndarray) -> float:
    """log of pi(rho) / (2^gamma pi(lam) pi(x)) for the alternating-sum formula."""
    n = lv.size - 1
    g = rs.gamma(n)
    return (
        rs.log_pi(rs.rho(n).array())
        - g * math.log(2.0)
        - rs.log_pi(lv)
        - rs.log_pi(xv)
    )


def cancellation_bits(lam, x) -> tuple[float, float]:
    """(cancellation bits, exponent scale) for the alternating sum.

    The first component estimates how many leading bits cancel:
    sum_{i<j} log2(1 + 1/((lam_i - lam_j)(x_i - x_j) + eps)).  The second is
    |<lam,X>| plus the exponent spread, which bounds how much absolute
    log-accuracy a fixed-precision float can deliver.
    """
    lv, xv = _pair(lam, x)
    gl = rs.root_values(lv)
    gx = rs.root_values(xv)
    prods = gl * gx
    bits = float(np.sum(np.log2(1.0 + 1.0 / (prods + _EPS))))
    base = float(np.dot(lv, xv))
    spread = base - rs.min_pairing_value(lv, xv)
    return bits, abs(base) + spread


def psi_alt_sum(
    lam,
    x,
    precision_bits: int = 53,
    *,
    cap: int = rs.DEFAULT_RANK_CAP,
    degenerate_tol: float = DEFAULT_DEGENERATE_TOL,
) -> EvalResult:
    """psi via the alternating sum at a requested precision.

    precision_bits == 53 runs the compensated binary64 path; larger values run
    mpmath at exactly that many mantissa bits.  Strictly dominant lam and x
    are required (the prefactor divides by pi(lam) pi(x)); nearly coincident
    coordinates should go through psi_stable, which reroutes them.
    """
    lv, xv = _pair(lam, x)
    n = lv.size - 1
    if n > cap:
        raise RankTooLarge(f"rank {n} exceeds cap {cap}")
    if _min_gap(lv) <= degenerate_tol or _min_gap(xv) <= degenerate_tol:
        raise DegenerateInput(
            "coordinates coincide within tolerance; use psi_stable or psi_iter_quadrature"
        )
    if precision_bits <= 53:
        log_value, err = _psi_log_float(lv, xv, np.float64)
        return EvalResult(log_value, METHOD_ALT, err)
    log_value, err = _psi_log_mp(lv, xv, precision_bits)
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
    ],
}


def _log_G2(lam: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Closed form of the innermost chain integral for two coordinates.

    G_2(lam; X) = int_{x2}^{x1} e^{(lam1-lam2) y} dy, written confluent-safe.
    X may be batched with the coordinate pair on the last axis.
    """
    a = lam[0] - lam[1]
    x1 = X[..., 0]
    x2 = X[..., 1]
    w = x1 - x2
    u = a * w
    with np.errstate(divide="ignore"):
        return a * x1 + np.log(w) + log_ratio_1mexp(u)


def _log_G_block(lam: np.ndarray, X: np.ndarray, levels) -> np.ndarray:
    """One block of the chain recursion; X has shape (B, m)."""
    m = X.shape[-1]
    lam0 = lam[:-1] - lam[-1]
    r = m - 1
    order, panels = levels[0]
    rules = [gl_nodes(X[..., k + 1], X[..., k], order, panels) for k in range(r)]
    Y, logw = tensor_grid(*zip(*rules))
    inner = _log_G(lam0, Y, levels[1:])
    integrand = inner + lam0[-1] * Y.sum(axis=-1) + logw + math.lgamma(r)
    return logsumexp(integrand, axis=tuple(range(-r, 0)))


def _log_G(lam: np.ndarray, X: np.ndarray, levels) -> np.ndarray:
    """log of G_m(lam; X) = int_chain psi_{lam0}(Y) pi(Y) dY, batched over X.

    Uses psi_{mu}(Y) pi(Y) = (r-1)! exp(mu_r * sum Y) G_r(mu; Y) to keep the
    integrand positive and free of Vandermonde quotients.  Large batches are
    processed in blocks so the node grids stay within a fixed memory budget.
    """
    m = X.shape[-1]
    if m == 2:
        return _log_G2(lam, X)
    order, panels = levels[0]
    per_row = (order * panels) ** (m - 1)
    flat = X.reshape(-1, m)
    step = max(1, GRID_VALUES // max(per_row, 1))
    if flat.shape[0] <= step:
        return _log_G_block(lam, flat, levels).reshape(X.shape[:-1])
    outs = [
        _log_G_block(lam, flat[s : s + step], levels)
        for s in range(0, flat.shape[0], step)
    ]
    return np.concatenate(outs).reshape(X.shape[:-1])


def _log_psi_iter_once(lv: np.ndarray, xv: np.ndarray, levels) -> float:
    m = lv.size
    logG = _log_G(lv, xv[None, :], levels)[0] if m > 2 else float(_log_G2(lv, xv))
    return (
        math.lgamma(m)
        + lv[-1] * float(xv.sum())
        + float(logG)
        - rs.log_pi(xv)
    )


def psi_iter_quadrature(lam, x, tol: float = 1e-9) -> EvalResult:
    """psi via the chain-domain recursion with nested Gauss-Legendre panels.

    Confluent safe in lam (coincident spectral coordinates are fine); x must
    be strictly dominant since the chain domain is built from its gaps.
    Supported for rank <= 3.
    """
    lv, xv = _pair(lam, x)
    m = lv.size
    if m - 1 > 3:
        raise RankTooLarge("iter quadrature supports rank <= 3")
    if _min_gap(xv) <= 0.0:
        raise DegenerateInput("x must be strictly dominant for the chain recursion")
    if m == 2:
        log_value = lv[-1] * float(xv.sum()) + float(_log_G2(lv, xv)) - rs.log_pi(xv)
        return EvalResult(log_value, METHOD_ITER, 8.0 * _EPS * (1.0 + abs(log_value)))
    prev = None
    for levels in _ITER_RUNGS[m]:
        cur = _log_psi_iter_once(lv, xv, levels)
        if prev is not None:
            diff = abs(cur - prev)
            if diff <= max(tol, 64.0 * _EPS * (1.0 + abs(cur))):
                return EvalResult(cur, METHOD_ITER, max(diff, _EPS * (1.0 + abs(cur))))
        prev = cur
    raise QuadratureNonconvergence(
        f"chain quadrature did not reach tol={tol} at rank {m - 1}"
    )


# ---------------------------------------------------------------------------
# Monte Carlo over the unitary orbit
# ---------------------------------------------------------------------------

def psi_mc_orbit(
    lam,
    x,
    samples: int,
    seed: int,
    *,
    batch: int = 100_000,
    cap: int = 5,
) -> EvalResult:
    """Haar Monte Carlo estimate of psi (orbit average of exp(<lam, U x U*>)).

    Haar unitaries come from QR of complex Gaussian matrices with the diagonal
    phase correction that makes the factorization unique.  Batches draw from
    substreams keyed by (seed, batch index) of a counter-based generator, so
    the estimate is reproducible and independent of how work is split.
    """
    lv, xv = _pair(lam, x)
    m = lv.size
    if m - 1 > cap:
        raise RankTooLarge(f"Monte Carlo supported for rank <= {cap}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    M = -math.inf
    s0 = 0.0
    s2 = 0.0
    done = 0
    b = 0
    while done < samples:
        k = min(batch, samples - done)
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
    lv, xv = _pair(lam, x)
    prods = rs.root_values(lv) * rs.root_values(xv)
    return float(np.dot(lv, xv) - np.sum(np.log1p(prods)))


def phi_curved(lam, x, target_rel_err: float = DEFAULT_TARGET) -> EvalResult:
    """Curved-side kernel: log phi = log pi(X) - sum log sinh alpha(X) + log psi."""
    lv, xv = _pair(lam, x)
    ax = rs.root_values(xv)
    if np.any(ax <= 0.0):
        raise DegenerateInput("phi_curved needs strictly dominant x (sinh alpha(x) > 0)")
    res = psi_stable(lv, xv, target_rel_err)
    log_pref = float(np.sum(np.log(ax)) - np.sum(log_sinh(ax)))
    err = res.abs_log_error + _EPS * (ax.size + 2) * (1.0 + abs(log_pref))
    return EvalResult(log_pref + res.log_value, res.method, err, res.mc_std_error)


def phi_envelope(lam, x) -> float:
    """log of e^{(lam-rho)(X)} prod (1 + alpha(X)) / (1 + alpha(lam) alpha(X))."""
    lv, xv = _pair(lam, x)
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
    lv, xv = _pair(lam, x)
    n = lv.size - 1
    gl = lv[:-1] - lv[1:]
    gx = xv[:-1] - xv[1:]
    if float(np.max(np.outer(gl, gx))) <= delta:
        return RegimeLabel(REGIME_SMALL, delta)
    prods = rs.root_values(lv) * rs.root_values(xv)
    if float(np.min(prods)) >= math.log(rs.weyl_order(n)):
        return RegimeLabel(REGIME_LARGE, delta)
    return RegimeLabel(REGIME_MIXED, delta)


# ---------------------------------------------------------------------------
# stable dispatcher
# ---------------------------------------------------------------------------

def _closed_constant_side(lv: np.ndarray, xv: np.ndarray):
    """Exact value when either vector is constant: psi_{c 1}(X) = e^{c sum X}."""
    if _all_equal(lv):
        return float(lv[0] * math.fsum(xv.tolist()))
    if _all_equal(xv):
        return float(xv[0] * math.fsum(lv.tolist()))
    return None


def _richardson(eps_values, log_values):
    """Neville extrapolation of log psi(eps) to eps = 0, with an error guess."""
    pts = list(zip(eps_values, log_values))
    tab = [list(log_values)]
    k = 1
    while k < len(pts):
        row = []
        for i in range(len(pts) - k):
            e0, e1 = pts[i][0], pts[i + k][0]
            row.append((e0 * tab[-1][i + 1] - e1 * tab[-1][i]) / (e0 - e1))
        tab.append(row)
        k += 1
    est = tab[-1][0]
    err = abs(tab[-1][0] - tab[-2][0]) if len(tab) >= 2 else math.inf
    return est, err


def _psi_confluent(lv, xv, target, cap):
    """Handle coincident coordinates: exact shortcut, chain quadrature, or
    an eps-perturbed alternating sum extrapolated to the confluent limit."""
    m = lv.size
    n = m - 1
    const = _closed_constant_side(lv, xv)
    if const is not None:
        return EvalResult(const, METHOD_CLOSED, _EPS * (1.0 + abs(const)))
    if n <= 3:
        if _min_gap(xv) > 0.0:
            return psi_iter_quadrature(lv, xv, tol=target)
        if _min_gap(lv) > 0.0:
            return psi_iter_quadrature(xv, lv, tol=target)  # psi is symmetric
        # both sides degenerate: perturb lam toward the open chamber and
        # extrapolate the chain quadrature to eps = 0
        rv = rs.rho(n).array()
        scale = 1.0 / (1.0 + float(np.abs(xv).max()))
        eps_list = [1e-2 * scale, 5e-3 * scale, 2.5e-3 * scale]
        logs = [
            psi_iter_quadrature(xv, lv + e * rv, tol=min(target, 1e-11)).log_value
            for e in eps_list
        ]
        est, err = _richardson(eps_list, logs)
        if err > max(target, 4.0 * _EPS * (1.0 + abs(est))):
            raise ToleranceUnachievable(
                f"confluent extrapolation stalled at error {err:.3g} (target {target:.3g})"
            )
        return EvalResult(est, METHOD_ITER, err)
    # rank > 3: no chain quadrature; eps-perturb both sides as needed
    rv = rs.rho(n).array()
    scale = 1.0 / (1.0 + float(np.abs(xv).max()) + float(np.abs(lv).max()))
    eps_list = [e * scale for e in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
    logs = []
    for e in eps_list:
        lp = lv + e * rv if _min_gap(lv) <= DEFAULT_DEGENERATE_TOL else lv
        xp = xv + e * rv if _min_gap(xv) <= DEFAULT_DEGENERATE_TOL else xv
        logs.append(psi_stable(lp, xp, target_rel_err=min(target, 1e-11), cap=cap).log_value)
    est, err = _richardson(eps_list, logs)
    if err > max(target, 4.0 * _EPS * (1.0 + abs(est))):
        raise ToleranceUnachievable(
            f"confluent extrapolation at rank {n} reached only {err:.3g} "
            f"(target {target:.3g})"
        )
    return EvalResult(est, METHOD_ALT_EXT, err)


def _plan(lv: np.ndarray, xv: np.ndarray, target_rel_err: float) -> tuple[int, int]:
    """(bits of the first rung: 53, 64 or the mpmath precision; mpmath starting
    precision), from the target's bits and the cancellation and scale estimate."""
    bits, scale = cancellation_bits(lv, xv)
    core = -math.log2(target_rel_err) + max(bits, math.log2(scale + 2.0))
    needed = core + 2.0
    prec = int(math.ceil(core)) + 64
    if needed <= 53.0:
        return 53, prec
    if _HAVE_LD80 and needed <= 63.0:
        return 64, prec
    return prec, prec


def planned_precision(lam, x, target_rel_err: float = DEFAULT_TARGET) -> int:
    """Mantissa bits psi_stable would use for non-degenerate input (53, 64, or more)."""
    return _plan(*_pair(lam, x), target_rel_err)[0]


def psi_stable(
    lam,
    x,
    target_rel_err: float = DEFAULT_TARGET,
    *,
    cap: int = rs.DEFAULT_RANK_CAP,
) -> EvalResult:
    """Evaluate psi with a guaranteed log-domain error bound.

    Dispatch: well-conditioned inputs take the compensated 64-bit alternating
    sum (bit-identical to psi_alt_sum); inputs whose estimated cancellation or
    exponent magnitude exceeds what binary64 can deliver escalate to extended
    floats (80-bit when available, otherwise mpmath with 64 guard bits);
    coincident coordinates are rerouted to the confluent paths.
    """
    lv, xv = _pair(lam, x)
    n = lv.size - 1
    if n > cap:
        raise RankTooLarge(f"rank {n} exceeds cap {cap}")
    if not 0.0 < target_rel_err < math.inf:
        raise ValueError("target_rel_err must be positive and finite")

    if _min_gap(lv) <= DEFAULT_DEGENERATE_TOL or _min_gap(xv) <= DEFAULT_DEGENERATE_TOL:
        return _psi_confluent(lv, xv, target_rel_err, cap)

    first, prec = _plan(lv, xv, target_rel_err)

    def meets(res: EvalResult) -> bool:
        # a binary64 result cannot beat the ulp of its own log value; that
        # floor is excluded from the guarantee
        return res.abs_log_error <= target_rel_err + 2.0 * _EPS * (1.0 + abs(res.log_value))

    if first == 53:
        res = psi_alt_sum(lv, xv, 53, cap=cap)
        if meets(res):
            return res

    if _HAVE_LD80 and first <= 64:  # also when binary64 missed: the estimate was optimistic
        try:
            log_value, err = _psi_log_float(lv, xv, _LD)
            res = EvalResult(log_value, METHOD_ALT_EXT, err)
            if meets(res):
                return res
        except ToleranceUnachievable:
            pass

    while prec <= _MAX_PREC:
        res = psi_alt_sum(lv, xv, prec, cap=cap)
        if meets(res):
            return res
        prec *= 2
    raise ToleranceUnachievable(
        f"could not reach log-error {target_rel_err} below {_MAX_PREC} bits"
    )


# ---------------------------------------------------------------------------
# oscillatory variant (used by the heat-kernel Fourier oracle)
# ---------------------------------------------------------------------------

def unitary_alt_sum(lams: np.ndarray, x) -> np.ndarray:
    """S(lam) = sum_w eps(w) exp(i <w lam, x>) on a batch of real spectral points.

    This is the numerator of psi_{i lam}(x); callers multiply batches of these
    for Fourier-type integrals, where the Vandermonde prefactors cancel.
    """
    return rs.weyl_alt_terms(lams, x, 1j).sum(axis=-1) * np.exp(1j * np.dot(lams, x))
