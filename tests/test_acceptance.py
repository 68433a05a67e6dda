"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single [criterion NN] PASS/FAIL line (visible with -s;
the test outcome itself carries the same information).  Domain-extension
stability checks reuse the base grid as a subset of the extended grid plus a
seeded shell sample, so they measure the domain effect rather than grid
resolution.
"""

import math

import numpy as np

from weylheat import factorization as fz
from weylheat import heat as ht
from weylheat import rootsystem as rs
from weylheat import spherical as sp
from weylheat import verify as vf


def _line(num, ok, desc):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def _gaps_to_coords(gaps):
    g = np.asarray(gaps, dtype=float)
    return np.concatenate([np.cumsum(g[::-1])[::-1], [0.0]])


def _random_dominant(rng, n, count, lo=1e-3, hi=30.0):
    u = rng.random((count, n))
    gaps = lo * (hi / lo) ** u
    out = np.zeros((count, n + 1))
    out[:, :-1] = np.cumsum(gaps[:, ::-1], axis=1)[:, ::-1]
    out += rng.standard_normal((count, 1))
    return out


# ---------------------------------------------------------------------------
# 1. normalization psi_0 = 1 through the confluent path
# ---------------------------------------------------------------------------

def test_c01_normalization():
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (1, 2, 3):
        xs = _random_dominant(rng, n, 100, lo=1e-2, hi=5.0)
        for x in xs:
            res = sp.psi_stable(np.zeros(n + 1), x)
            worst = max(worst, abs(res.log_value))
    _line(1, worst <= 1e-12, f"psi_0(X) = 1 within 1e-12 (worst |log| = {worst:.2e})")


# ---------------------------------------------------------------------------
# 2. global two-sided pairing sandwich
# ---------------------------------------------------------------------------

def test_c02_global_sandwich():
    rng = np.random.default_rng(102)
    violations = 0
    total = 0
    for n in (1, 2, 3):
        count = 3400 if n == 1 else 3300
        lams = _random_dominant(rng, n, count)
        xs = _random_dominant(rng, n, count)
        for lam, x in zip(lams, xs):
            res = sp.psi_stable(lam, x, 1e-10)
            lo = rs.min_pairing_value(lam, x)
            hi = float(lam @ x)
            if not (lo - 1e-9 <= res.log_value <= hi + 1e-9):
                violations += 1
            total += 1
    _line(2, violations == 0, f"pairing sandwich, 0 of {total} violations at 1e-9")


# ---------------------------------------------------------------------------
# 3. rank-1 envelope ratio on the product grid, exact upper constant
# ---------------------------------------------------------------------------

def test_c03_rank1_envelope_ratio():
    # independent oracle: maximize the exact rank-1 ratio (1+u)(1-e^{-u})/u
    u = np.geomspace(1e-6, 1e6, 20001)
    r = (1 + u) * (-np.expm1(-u)) / u
    k = int(np.argmax(r))
    lo_u, hi_u = u[max(k - 2, 0)], u[min(k + 2, u.size - 1)]
    for _ in range(60):  # golden-section refinement
        m1 = lo_u + 0.381966 * (hi_u - lo_u)
        m2 = hi_u - 0.381966 * (hi_u - lo_u)
        f1 = (1 + m1) * (-math.expm1(-m1)) / m1
        f2 = (1 + m2) * (-math.expm1(-m2)) / m2
        if f1 < f2:
            lo_u = m1
        else:
            hi_u = m2
    u_star = 0.5 * (lo_u + hi_u)
    r_star = (1 + u_star) * (-math.expm1(-u_star)) / u_star
    assert 1.2984 < r_star < 1.2985  # frozen from the maximization above

    gaps = np.geomspace(1e-3, 1e3, 100)
    ratios = []
    for gl in gaps:
        lam = np.array([gl, 0.0])
        for gx in gaps:
            x = np.array([gx, 0.0])
            res = sp.psi_stable(lam, x, 1e-10)
            ratios.append(math.exp(res.log_value - sp.psi_envelope(lam, x)))
    rmin, rmax = min(ratios), max(ratios)
    ok = (len(ratios) == 10_000 and rmin >= 1.0 - 1e-9
          and rmax <= 1.30 and rmax <= r_star + 1e-9)
    _line(3, ok, f"rank-1 ratio in [{rmin:.9f}, {rmax:.6f}], sup bound {r_star:.6f}")


# ---------------------------------------------------------------------------
# 4. rank 2 and 3: bounded ratios, stable under a x10 domain extension
# ---------------------------------------------------------------------------

def _extended_axis(ax: vf.AxisSpec, extra: int = 2) -> vf.AxisSpec:
    # lattice-aligned extension: the base nodes stay on the extended grid
    r = (ax.hi / ax.lo) ** (1.0 / (ax.points - 1))
    return vf.AxisSpec(ax.lo / r ** extra, ax.hi * r ** extra, ax.points + 2 * extra)


def test_c04_rank23_envelope_ratio_scale_stable():
    details = []
    ok = True
    for n, pts in ((2, 10), (3, 5)):
        ax = vf.AxisSpec(1e-3, 1e3, pts)
        base = vf.sweep_psi_ratio(vf.SweepConfig(rank=n, lam_axis=ax, x_axis=ax, mode="log_grid"))
        axe = _extended_axis(ax)
        assert axe.hi / ax.hi >= 10.0 and ax.lo / axe.lo >= 10.0
        ext = vf.sweep_psi_ratio(vf.SweepConfig(rank=n, lam_axis=axe, x_axis=axe, mode="log_grid"))
        b, e = base.aggregates["overall"], ext.aggregates["overall"]
        bounded = (not base.violations and not ext.violations
                   and 0.0 < b["min"] and math.isfinite(b["max"]))
        drift_max = abs(e["max"] - b["max"]) / b["max"]
        drift_min = abs(e["min"] - b["min"]) / b["min"]
        ok = ok and bounded and drift_max < 0.05 and drift_min < 0.05
        details.append(f"n={n}: [{b['min']:.4f},{b['max']:.4f}] drift ({drift_min:.2%},{drift_max:.2%})")
    _line(4, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. large-regime bounds on the signed Weyl sum
# ---------------------------------------------------------------------------

def test_c05_large_regime_bounds():
    rng = np.random.default_rng(105)
    violations = 0
    total = 0
    for n in (1, 2, 3, 4):
        lam, x = vf.sample_large_regime(rng, n, 2500)
        logT = rs.log_alt_sum(lam, x)
        w_order = rs.weyl_order(n)
        violations += int((logT < math.log(0.5) - 1e-12).sum())
        violations += int((logT > math.log(w_order) + 1e-12).sum())
        total += 2500
    _line(5, violations == 0, f"(1/2) e^<lam,X> <= signed sum <= |W| e^<lam,X>, 0 of {total}")


# ---------------------------------------------------------------------------
# 6. oracle triangle: alternating sum vs chain quadrature vs Monte Carlo
# ---------------------------------------------------------------------------

def test_c06_oracle_triangle():
    rng = np.random.default_rng(106)
    worst_q = 0.0
    for n, count in ((1, 34), (2, 33), (3, 33)):
        for _ in range(count):
            gl = rng.uniform(0.2, 2.0, n)
            gx = rng.uniform(0.2, 2.0, n)
            lam = _gaps_to_coords(gl)
            x = _gaps_to_coords(gx)
            a = sp.psi_alt_sum(lam, x).log_value
            b = sp.psi_iter_quadrature(lam, x, tol=1e-8).log_value
            worst_q = max(worst_q, abs(a - b))
    quad_ok = worst_q <= 1e-6

    mc_ok = True
    worst_sigma = 0.0
    for n, count in ((1, 5), (2, 5)):
        for _ in range(count):
            gl = rng.uniform(0.3, 1.5, n)
            gx = rng.uniform(0.3, 1.5, n)
            lam = _gaps_to_coords(gl)
            x = _gaps_to_coords(gx)
            a = sp.psi_alt_sum(lam, x).log_value
            m = sp.psi_mc_orbit(lam, x, 1_000_000, seed=int(rng.integers(0, 2**31)))
            pull = abs(a - m.log_value) / m.mc_std_error
            worst_sigma = max(worst_sigma, pull)
            mc_ok = mc_ok and pull <= 3.0
    _line(6, quad_ok and mc_ok,
          f"quadrature worst |dlog| = {worst_q:.2e} (<=1e-6); MC worst pull = {worst_sigma:.2f} sigma")


# ---------------------------------------------------------------------------
# 7. the chain-integral identity n! I = pi(X) pi(lam') e^{-<lam,X>} psi
# ---------------------------------------------------------------------------

def test_c07_psi_chain_identity():
    rng = np.random.default_rng(107)
    worst = 0.0
    for n, count in ((1, 34), (2, 33), (3, 33)):
        for _ in range(count):
            gl = rng.uniform(0.15, 2.0, n)
            gx = rng.uniform(0.15, 2.0, n)
            lam = _gaps_to_coords(gl)
            x = _gaps_to_coords(gx)
            log_i = fz.master_integral(fz.FactorInput.of(lam, x), 1e-8, form="exact")
            rhs = (rs.log_pi(x) + rs.log_pi(lam[:n]) - float(lam @ x)
                   + sp.psi_stable(lam, x, 1e-12).log_value - math.lgamma(n + 1))
            worst = max(worst, abs(log_i - rhs))
    _line(7, worst <= 1e-6, f"identity holds to {worst:.2e} (combined tolerance 1e-6)")


# ---------------------------------------------------------------------------
# 8. factorization into one-dimensional integrals, and the rank recursion
# ---------------------------------------------------------------------------

def test_c08_factorization():
    rng = np.random.default_rng(108)
    # n = 1: ratio exactly 1
    unity_ok = True
    for _ in range(20):
        inp = fz.FactorInput.of(_gaps_to_coords(rng.uniform(0.1, 3.0, 1)),
                                _gaps_to_coords(rng.uniform(0.1, 3.0, 1)))
        unity_ok = unity_ok and abs(fz.factorization_ratio(inp).ratio - 1.0) <= 1e-12

    details = [f"n=1 unity {'ok' if unity_ok else 'BAD'}"]
    ok = unity_ok
    for n, pts in ((2, 4), (3, 3)):
        # quadrature tolerance 1e-4: three orders below the 5% assertions
        qtol = 1e-6 if n == 2 else 1e-4
        axis = np.geomspace(1e-3, 1e3, pts)
        base_ratios = []
        for combo in np.stack(np.meshgrid(*([axis] * (2 * n)), indexing="ij"), axis=-1).reshape(-1, 2 * n):
            inp = fz.FactorInput.of(_gaps_to_coords(combo[:n]), _gaps_to_coords(combo[n:]))
            base_ratios.append(fz.factorization_ratio(inp, qtol).ratio)
        base_ratios = np.array(base_ratios)
        # extended domain: base grid is a subset, plus a seeded shell sample
        shell = []
        for _ in range(160):
            g = 10 ** rng.uniform(-4, 4, 2 * n)
            if np.all((g >= 1e-3) & (g <= 1e3)):
                continue
            inp = fz.FactorInput.of(_gaps_to_coords(g[:n]), _gaps_to_coords(g[n:]))
            shell.append(fz.factorization_ratio(inp, qtol).ratio)
        ext_ratios = np.concatenate([base_ratios, np.array(shell)])
        b_lo, b_hi = base_ratios.min(), base_ratios.max()
        e_lo, e_hi = ext_ratios.min(), ext_ratios.max()
        pos = bool(np.all(np.isfinite(ext_ratios)) and e_lo > 0.0)
        drift = max(abs(e_hi - b_hi) / b_hi, abs(e_lo - b_lo) / b_lo)
        ok = ok and pos and drift < 0.05
        details.append(f"n={n}: ratios [{b_lo:.3f},{b_hi:.3f}] drift {drift:.2%}")

        # rank recursion stays inside the recorded factorization band
        if n <= 2:
            rec_ratios = []
            for _ in range(12):
                g = 10 ** rng.uniform(-1.2, 1.2, 2 * (n + 1))
                inp = fz.FactorInput.of(_gaps_to_coords(g[: n + 1]), _gaps_to_coords(g[n + 1:]))
                xv = inp.x.array()
                if xv[0] - xv[1] < xv[-2] - xv[-1]:
                    inp = fz.reverse_input(inp)
                est = fz.recursive_estimate(inp, 1e-7)
                mast = fz.master_integral(inp, 1e-7)
                rec_ratios.append(math.exp(est - mast))
            rec_ok = all(0.02 < r < 50.0 for r in rec_ratios)
            ok = ok and rec_ok
            details.append(f"recursion n+1={n + 1}: [{min(rec_ratios):.3f},{max(rec_ratios):.3f}]")
    _line(8, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. heat kernel exactness: images oracle, parabolic scaling, symmetry
# ---------------------------------------------------------------------------

def test_c09_heat_exactness():
    rng = np.random.default_rng(109)
    worst_img = 0.0
    worst_scale = 0.0
    worst_sym = 0.0
    for n, count in ((1, 34), (2, 33), (3, 33)):
        ctx = ht.make_heat_context(n)
        for _ in range(count):
            x = _gaps_to_coords(rng.uniform(0.8, 3.0, n))
            y = _gaps_to_coords(rng.uniform(0.8, 3.0, n)) + rng.normal() * 0.2
            t = rng.uniform(0.3, 1.5)
            a = ht.heat_flat(ctx, t, x, y)
            b = ht.images_oracle(ctx, t, x, y)
            worst_img = max(worst_img, abs(a.log_value - b.log_value))
            c = rng.uniform(1.5, 4.0)
            scaled = ht.heat_flat(ctx, c * c * t, c * x, c * y, 1e-13).log_value
            expect = ht.heat_flat(ctx, t, x, y, 1e-13).log_value - (ctx.d + 2 * ctx.gamma) * math.log(c)
            worst_scale = max(worst_scale, abs(scaled - expect))
            sym = ht.heat_flat(ctx, t, y, x, 1e-13).log_value
            worst_sym = max(worst_sym, abs(sym - ht.heat_flat(ctx, t, x, y, 1e-13).log_value))
    ok = worst_img <= 1e-10 and worst_scale <= 1e-12 and worst_sym <= 1e-12
    _line(9, ok, f"images {worst_img:.1e} (<=1e-10), scaling {worst_scale:.1e}, symmetry {worst_sym:.1e} (<=1e-12)")


# ---------------------------------------------------------------------------
# 10. normalization, semigroup, calibration, and the Gaussian moment
# ---------------------------------------------------------------------------

def test_c10_heat_normalization_semigroup():
    mass_ok = True
    worst_mass = 0.0
    for n, x in ((1, np.array([0.9, -0.2])), (2, 0.7 * rs.rho(2).array())):
        ctx = ht.make_heat_context(n)
        for t in (0.5, 1.0):
            log_mass = ht._mass_with_unit_constant(n, t, x, 28, 8) - math.log(ctx.c_k)
            worst_mass = max(worst_mass, abs(math.expm1(log_mass)))
    mass_ok = worst_mass <= 1e-6

    ctx1 = ht.make_heat_context(1)
    ctx2 = ht.make_heat_context(2)
    sg1 = ht.semigroup_check(ctx1, 0.5, 0.5, [1.0, 0.0], [2.0, 0.0])
    sg2 = ht.semigroup_check(ctx2, 0.5, 0.5, [1.5, 0.5, 0.0], [1.0, 0.2, -0.4])
    sg_ok = sg1 <= 1e-6 and sg2 <= 1e-6

    cal_ok = True
    for n in (1, 2):
        # calibrate_constant internally enforces t_ref vs 2 t_ref agreement at 1e-6
        c = ht.calibrate_constant(n, t_ref=1.0)
        cal_ok = cal_ok and abs(c / ht.mms_constant(n) - 1.0) <= 1e-6

    mms_err = abs(ht.mms_constant(1, chamber=False) - 4 * math.pi) / (4 * math.pi)
    mms_ok = mms_err <= 1e-8
    ok = mass_ok and sg_ok and cal_ok and mms_ok
    _line(10, ok,
          f"mass defect {worst_mass:.1e}, semigroup ({sg1:.1e},{sg2:.1e}), "
          f"calibration stable, Gaussian moment err {mms_err:.1e}")


# ---------------------------------------------------------------------------
# 11. finite-difference heat-equation residual converges at second order
# ---------------------------------------------------------------------------

def test_c11_pde_residual_second_order():
    rng = np.random.default_rng(111)
    ratios = []
    for n, count in ((1, 5), (2, 5)):
        ctx = ht.make_heat_context(n)
        for _ in range(count):
            x = _gaps_to_coords(rng.uniform(0.8, 2.0, n))
            y = _gaps_to_coords(rng.uniform(0.8, 2.0, n)) + rng.normal() * 0.2
            t = rng.uniform(0.7, 1.3)
            r = [ht.pde_residual(ctx, t, x, y, h) for h in (0.02, 0.01, 0.005)]
            ratios.extend([r[0] / r[1], r[1] / r[2]])
    ok = all(3.5 <= q <= 4.5 for q in ratios)
    _line(11, ok, f"residual halving ratios in [{min(ratios):.2f}, {max(ratios):.2f}] (need [3.5,4.5])")


# ---------------------------------------------------------------------------
# 12. spectral inversion oracle with its closed-form front constant
# ---------------------------------------------------------------------------

def test_c12_fourier_inversion():
    rng = np.random.default_rng(112)
    ctx = ht.make_heat_context(1)
    worst = 0.0
    for _ in range(10):
        t = rng.uniform(0.3, 1.4)
        x = _gaps_to_coords(rng.uniform(0.3, 1.8, 1)) + rng.normal() * 0.2
        y = _gaps_to_coords(rng.uniform(0.3, 1.8, 1)) + rng.normal() * 0.2
        a = ht.inverse_fourier_oracle(ctx, t, x, y)
        b = ht.heat_flat(ctx, t, x, y)
        worst = max(worst, abs(math.expm1(a.log_value - b.log_value)))
    # constant is stable when recalibrated at a doubled reference time
    t0, x0, y0 = 0.5, np.array([1.1, 0.0]), np.array([0.8, -0.1])
    c1 = math.exp(ht.heat_flat(ctx, t0, x0, y0).log_value) / ht._fourier_integral(1, t0, x0, y0, 1e-8)
    c2 = math.exp(ht.heat_flat(ctx, 2 * t0, x0, y0).log_value) / ht._fourier_integral(1, 2 * t0, x0, y0, 1e-8)
    drift = abs(c1 / c2 - 1.0)
    ok = worst <= 1e-6 and drift <= 1e-6
    _line(12, ok, f"held-out worst rel err {worst:.1e} (<=1e-6), constant drift {drift:.1e}")


# ---------------------------------------------------------------------------
# 13. cancellation stress against the 512-bit reference
# ---------------------------------------------------------------------------

def test_c13_cancellation_stress():
    worst = 0.0
    for n in (1, 2, 3):
        levels = [vf.StressLevel(p, 50.0, 8) for p in (1.0, 1e-2, 1e-4, 1e-6)]
        rep = vf.cancellation_stress(n, levels, seed=113 + n)
        worst = max(worst, rep.overall_worst_rel_err)
    _line(13, worst <= 1e-9, f"worst relative error vs 512-bit reference {worst:.2e} (<=1e-9)")


# ---------------------------------------------------------------------------
# 14. heat envelope sharpness: bounded, scale stable, correct long-time slope
# ---------------------------------------------------------------------------

def test_c14_heat_envelope_sharpness():
    rng = np.random.default_rng(114)
    details = []
    ok = True
    for n, pts in ((1, 8), (2, 4)):
        gap = vf.AxisSpec(0.05, 10.0, pts)
        t_ax = vf.AxisSpec(1e-2, 1e2, pts)
        base = vf.sweep_heat_ratio(vf.SweepConfig(rank=n, lam_axis=gap, x_axis=gap,
                                                  t_axis=t_ax, mode="log_grid"))
        b = base.aggregates["overall"]
        ck = ht.mms_constant(n)
        ctx = ht.HeatContext(n=n, d=n + 1, gamma=rs.gamma(n), c_k=ck, c_k_provenance="mms_quadrature")
        shell_ratios = []
        for _ in range(150):
            g = 10 ** rng.uniform(math.log10(0.05) - 1, math.log10(10.0) + 1, 2 * n)
            t = 10 ** rng.uniform(-3, 3)
            inside = (np.all((g >= 0.05) & (g <= 10.0)) and 1e-2 <= t <= 1e2)
            if inside:
                continue
            x = _gaps_to_coords(g[:n])
            y = _gaps_to_coords(g[n:])
            r = ht.heat_flat(ctx, t, x, y, 1e-9).log_value - ht.heat_envelope(t, x, y)
            shell_ratios.append(math.exp(r))
        e_hi = max(b["max"], max(shell_ratios))
        e_lo = min(b["min"], min(shell_ratios))
        bounded = not base.violations and 0.0 < e_lo and math.isfinite(e_hi)
        drift = max(abs(e_hi - b["max"]) / b["max"], abs(e_lo - b["min"]) / b["min"])
        slope = ht.heat_time_slope(ctx, 0.8 * rs.rho(n).array(), 0.5 * rs.rho(n).array())
        target = -(ctx.d / 2.0 + ctx.gamma)
        slope_ok = abs(slope - target) <= 0.01 * abs(target)
        ok = ok and bounded and drift < 0.05 and slope_ok
        details.append(f"n={n}: [{b['min']:.3g},{b['max']:.3g}] drift {drift:.2%} slope {slope:.4f}")
    _line(14, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 15. root combinatorics: decomposition and the pairing inequality
# ---------------------------------------------------------------------------

def test_c15_root_combinatorics():
    rng = np.random.default_rng(115)
    bad = 0
    checked = 0
    for n in (1, 2, 3, 4):
        m = n + 1
        Y = _random_dominant(rng, n, 1000, lo=1e-3, hi=10.0)
        scale = 1.0 + np.abs(Y).max()
        simple = np.zeros((n, m))
        for i in range(n):
            simple[i, i] = 1.0
            simple[i, i + 1] = -1.0
        for perm in np.concatenate([rows for rows, _signs in rs.perm_sign_chunks(m)]):
            wy = np.empty_like(Y)
            wy[:, perm] = Y
            diff = Y - wy
            c = np.cumsum(diff, axis=1)[:, :-1]
            bad += int((c < -1e-12 * scale).sum())
            bad += int((np.abs(c @ simple - diff).max(axis=1) > 1e-12 * scale).sum())
            checked += Y.shape[0]
    decomp_ok = bad == 0

    pair_bad = 0
    pair_checked = 0
    for n in (1, 2, 3, 4):
        lam = _random_dominant(rng, n, 250, lo=1e-2, hi=5.0)
        X = _random_dominant(rng, n, 250, lo=1e-2, hi=5.0)
        gl = lam[:, :-1] - lam[:, 1:]
        gx = X[:, :-1] - X[:, 1:]
        rows = np.concatenate([rows for rows, _signs in rs.perm_sign_chunks(n + 1)])
        for perm in rows[1:]:  # all but the identity
            wl = np.empty_like(lam)
            wl[:, perm] = lam
            c = np.cumsum(lam - wl, axis=1)[:, :-1]
            lhs = np.einsum("sm,sm->s", lam - wl, X)
            prod = np.where(c > 1e-11 * (1.0 + np.abs(lam).max()), gl * gx, -np.inf)
            rhs = prod.max(axis=1)
            mask = np.isfinite(rhs)
            pair_bad += int((lhs[mask] < rhs[mask] - 1e-9).sum())
            pair_checked += int(mask.sum())
    pair_ok = pair_bad == 0
    _line(15, decomp_ok and pair_ok,
          f"decomposition 0 of {checked} violations; pairing inequality 0 of {pair_checked}")
