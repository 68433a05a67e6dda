import math

import numpy as np
import pytest

from weylheat import heat as ht
from weylheat import rootsystem as rs
from weylheat import spherical as sp
from weylheat._quad import tensor_blocks
from weylheat.errors import DegenerateInput, PreconditionViolated, RankTooLarge


@pytest.fixture(scope="module")
def ctx1():
    return ht.make_heat_context(1)


@pytest.fixture(scope="module")
def ctx2():
    return ht.make_heat_context(2)


@pytest.fixture(scope="module")
def ctx3():
    return ht.make_heat_context(3)


def test_mms_fullspace_rank1_is_4pi():
    assert ht.mms_constant(1, chamber=False) == pytest.approx(4 * math.pi, rel=1e-10)


def test_mms_chamber_values():
    # chamber value = prod_{k<=n} k! * (2 pi)^{(n+1)/2} (Gaussian moment / |W|)
    for n in (1, 2, 3):
        expect = math.prod(math.factorial(k) for k in range(1, n + 1))
        expect *= (2 * math.pi) ** ((n + 1) / 2)
        assert ht.mms_constant(n) == pytest.approx(expect, rel=1e-12)


def _gauss_hermite_moment(n, chamber, order=32):
    """int e^{-|y|^2/2} pi(y)^2 dy by a tensor Gauss-Hermite rule.

    The integrand is a polynomial times the Gaussian weight, so the rule is
    exact once the order passes the degree.
    """
    m = n + 1
    u, w = np.polynomial.hermite.hermgauss(order)
    total = 0.0
    for U, logw in tensor_blocks([u] * m, [np.log(w)] * m):
        poly = np.ones(U.shape[:-1])
        for i in range(m):
            for j in range(i + 1, m):
                poly = poly * (U[..., i] - U[..., j]) ** 2
        total += float((poly * np.exp(logw)).sum())
    # y = sqrt(2) u maps e^{-|y|^2/2} dy to the e^{-|u|^2} weight
    val = total * 2.0 ** (m / 2.0 + rs.gamma(n))
    return val / rs.weyl_order(n) if chamber else val


@pytest.mark.parametrize("chamber", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mms_closed_form_matches_gauss_hermite(n, chamber):
    expect = _gauss_hermite_moment(n, chamber)
    assert ht.mms_constant(n, chamber=chamber) == pytest.approx(expect, rel=1e-12)


def test_time_must_be_positive_and_finite(ctx1):
    x, y = [1.0, 0.0], [0.5, 0.0]
    calls = [
        lambda t: ht.heat_flat(ctx1, t, x, y),
        lambda t: ht.heat_envelope(t, x, y),
        lambda t: ht.heat_curved_envelope(t, x, y),
        lambda t: ht.images_oracle(ctx1, t, x, y),
        lambda t: ht.inverse_fourier_oracle(ctx1, t, x, y),
        lambda t: ht.pde_residual(ctx1, t, [2.0, 0.0], y, 1e-3),
        lambda t: ht.semigroup_check(ctx1, t, 0.5, x, y),
        lambda t: ht.volume_compare(ctx1, t, x, y),
    ]
    for bad in (0.0, -1.0, math.nan, math.inf):
        for call in calls:
            with pytest.raises(ValueError, match="t must be positive and finite"):
                call(bad)
        with pytest.raises(ValueError, match="s must be positive and finite"):
            ht.semigroup_check(ctx1, 0.5, bad, x, y)


def test_heat_step_must_be_positive_and_finite(ctx1):
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            ht.pde_residual(ctx1, 1.0, [2.0, 0.0], [0.5, 0.0], bad)


def test_mms_constant_refuses_ranks_past_binary64():
    assert math.isfinite(ht.mms_constant(26))
    assert math.isfinite(ht.mms_constant(25, chamber=False))
    for n, chamber in ((26, False), (27, True), (30, True)):
        with pytest.raises(RankTooLarge, match="binary64"):
            ht.mms_constant(n, chamber=chamber)


def test_context_rank_is_checked(ctx1):
    # rank-2 vectors against a rank-1 context used to give a quietly wrong value
    x, y = [2.0, 1.0, 0.0], [1.0, 0.5, 0.0]
    calls = [
        lambda: ht.heat_flat(ctx1, 0.7, x, y),
        lambda: ht.heat_curved(ctx1, 0.7, x, y),
        lambda: ht.images_oracle(ctx1, 0.7, x, y),
        lambda: ht.inverse_fourier_oracle(ctx1, 0.7, x, y),
        lambda: ht.pde_residual(ctx1, 1.0, x, y, 1e-3),
        lambda: ht.semigroup_check(ctx1, 0.5, 0.5, x, y),
        lambda: ht.volume_compare(ctx1, 0.7, x, y),
        lambda: ht.heat_time_slope(ctx1, x, y),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need 2 coordinates at rank 1"):
            call()
    for env in (ht.heat_envelope, ht.heat_curved_envelope):
        with pytest.raises(ValueError, match="x and y have different lengths"):
            env(0.7, [1.0, 0.0], [1.0, 0.5, 0.0])
    for fn in (ht.heat_flat, ht.images_oracle):
        with pytest.raises(ValueError, match="x and y have different lengths"):
            fn(ctx1, 0.7, [1.0, 0.0], [1.0, 0.5, 0.0])


def test_calibration_agrees_with_mms():
    for n in (1, 2):
        cal = ht.calibrate_constant(n)
        mms = ht.mms_constant(n)
        assert cal == pytest.approx(mms, rel=1e-6)


def test_calibration_t_independence():
    # calibrate_constant already enforces agreement at t_ref and 2 t_ref
    a = ht.calibrate_constant(1, t_ref=0.5)
    b = ht.calibrate_constant(1, t_ref=1.0)
    assert a == pytest.approx(b, rel=1e-6)


def test_context_provenances(ctx1):
    assert ctx1.c_k_provenance == "mms_closed_form"
    both = ht.make_heat_context(1, provenance="calibrated", cross_check=True)
    assert both.c_k == pytest.approx(both.c_k_cross, rel=1e-6)


def test_flat_equals_images(ctx1, ctx2, ctx3):
    rng = np.random.default_rng(0)
    for ctx in (ctx1, ctx2, ctx3):
        n = ctx.n
        for _ in range(10):
            g = rng.uniform(0.8, 3.0, 2 * n)
            x = np.concatenate([np.cumsum(g[:n][::-1])[::-1], [0.0]])
            y = np.concatenate([np.cumsum(g[n:][::-1])[::-1], [0.0]]) + rng.normal() * 0.3
            t = rng.uniform(0.3, 1.5)
            a = ht.heat_flat(ctx, t, x, y)
            b = ht.images_oracle(ctx, t, x, y)
            assert a.log_value == pytest.approx(b.log_value, abs=1e-10)


def test_images_signed_sum_is_alternating():
    # replacing y by a transposed copy negates the raw signed image sum
    def signed_sum(xv, yv, t):
        total = 0.0
        for rows, signs in rs.perm_sign_chunks(xv.size):
            for r, s in zip(rows, signs):
                total += s * math.exp(-float(((xv - yv[list(r)]) ** 2).sum()) / (4 * t))
        return total

    xv = np.array([1.2, 0.0, -0.5])
    yv = np.array([1.0, 0.3, -0.2])
    t = 0.9
    base = signed_sum(xv, yv, t)
    assert base > 0.0
    swapped = signed_sum(xv, yv[[0, 2, 1]], t)
    assert swapped == pytest.approx(-base, rel=1e-12)


def test_images_long_time_vanishes(ctx1):
    # t -> infinity: the signed images cancel and the kernel decays to zero
    a = ht.heat_flat(ctx1, 1e6, [1.0, 0.0], [0.5, -0.5]).log_value
    b = ht.heat_flat(ctx1, 1e8, [1.0, 0.0], [0.5, -0.5]).log_value
    assert b < a < 0.0


def test_central_confluent_case(ctx2):
    # y = 0 collapses psi to 1: p = const * t^{-d/2-gamma} e^{-|x|^2/4t}
    x = np.array([2.0, 0.5, 0.0])
    t = 0.8
    res = ht.heat_flat(ctx2, t, x, np.zeros(3))
    expect = (
        -(ctx2.gamma + ctx2.d / 2) * math.log(2.0)
        - math.log(ctx2.c_k)
        - (ctx2.d / 2 + ctx2.gamma) * math.log(t)
        - float(x @ x) / (4 * t)
    )
    assert res.log_value == pytest.approx(expect, abs=1e-12)


def test_parabolic_scaling_identity(ctx1, ctx2):
    rng = np.random.default_rng(1)
    for ctx in (ctx1, ctx2):
        n = ctx.n
        for c in (2.0, 5.0):
            g = rng.uniform(0.3, 1.5, 2 * n)
            x = np.concatenate([np.cumsum(g[:n][::-1])[::-1], [0.0]])
            y = np.concatenate([np.cumsum(g[n:][::-1])[::-1], [0.0]])
            t = 0.7
            a = ht.heat_flat(ctx, c * c * t, c * x, c * y, 1e-13).log_value
            b = ht.heat_flat(ctx, t, x, y, 1e-13).log_value - (ctx.d + 2 * ctx.gamma) * math.log(c)
            assert a == pytest.approx(b, abs=1e-12)


def test_symmetry_in_arguments(ctx2):
    x = np.array([1.5, 0.7, 0.0])
    y = np.array([2.0, 0.4, -0.3])
    a = ht.heat_flat(ctx2, 0.6, x, y, 1e-13).log_value
    b = ht.heat_flat(ctx2, 0.6, y, x, 1e-13).log_value
    assert a == pytest.approx(b, abs=1e-12)


def test_heat_envelope_values():
    assert ht.heat_envelope(1.0, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(math.log(0.5))
    t = 3.0
    assert ht.heat_envelope(t, [0.0, 0.0], [0.0, 0.0]) == pytest.approx(-2 * math.log(t))
    x = [2.0, 0.1]
    y = [1.0, -0.4]
    assert ht.heat_envelope(0.5, x, y) == pytest.approx(ht.heat_envelope(0.5, y, x))


def test_total_mass_unity(ctx1, ctx2):
    for ctx, x in [(ctx1, np.array([0.9, -0.2])), (ctx2, 0.7 * rs.rho(2).array())]:
        for t in (0.5, 1.0):
            log_mass = ht._mass_with_unit_constant(ctx.n, t, x, 28, 8) - math.log(ctx.c_k)
            assert math.exp(log_mass) == pytest.approx(1.0, abs=1e-6)


def test_semigroup_property(ctx1, ctx2):
    assert ht.semigroup_check(ctx1, 0.5, 0.5, [1.0, 0.0], [2.0, 0.0]) <= 1e-6
    assert ht.semigroup_check(ctx2, 0.5, 0.5, [1.5, 0.5, 0.0], [1.0, 0.2, -0.4]) <= 1e-6


def test_semigroup_short_time_approximate_identity(ctx1):
    # s -> 0 keeps the composition close to p_t (approximate identity)
    defect = ht.semigroup_check(ctx1, 0.8, 1e-3, [1.2, 0.0], [1.0, -0.3], tol=1e-4)
    assert defect < 1e-2


def test_curved_kernel_prefactor(ctx1):
    x = np.array([1.3, 0.0])
    y = np.array([0.9, -0.2])
    t = 0.7
    flat = ht.heat_flat(ctx1, t, x, y).log_value
    curved = ht.heat_curved(ctx1, t, x, y).log_value
    rho1 = rs.rho(1).array()
    ax = rs.root_values(x)[0]
    ay = rs.root_values(y)[0]
    expect = (
        -float(rho1 @ rho1) * t
        + math.log(ax) + math.log(ay)
        - math.log(math.sinh(ax)) - math.log(math.sinh(ay))
    )
    assert curved - flat == pytest.approx(expect, abs=1e-12)
    with pytest.raises(DegenerateInput):
        ht.heat_curved(ctx1, t, [1.0, 1.0], y)


def test_curved_prefactor_small_argument_limit(ctx1):
    t = 0.4
    x = np.array([1e-6, -1e-6])
    y = np.array([2e-6, -2e-6])
    flat = ht.heat_flat(ctx1, t, x, y).log_value
    curved = ht.heat_curved(ctx1, t, x, y).log_value
    rho1 = rs.rho(1).array()
    assert curved - flat == pytest.approx(-float(rho1 @ rho1) * t, abs=1e-9)


def test_curved_envelope_ratio_finite(ctx1):
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = rng.uniform(0.2, 2.0, 2)
        x = np.array([g[0], 0.0])
        y = np.array([g[1], 0.0])
        t = rng.uniform(0.1, 3.0)
        r = ht.heat_curved(ctx1, t, x, y).log_value - ht.heat_curved_envelope(t, x, y)
        assert math.isfinite(r)


def test_fourier_oracle_matches_flat(ctx1):
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = rng.uniform(0.3, 1.2)
        x = np.array([rng.uniform(0.5, 1.8), rng.uniform(-0.5, 0.2)])
        x = np.sort(x)[::-1]
        y = np.sort(np.array([rng.uniform(0.4, 1.5), rng.uniform(-0.6, 0.1)]))[::-1]
        a = ht.inverse_fourier_oracle(ctx1, t, x, y)
        b = ht.heat_flat(ctx1, t, x, y)
        assert a.log_value == pytest.approx(b.log_value, abs=1e-6)


def test_fourier_constant_stable_under_t_doubling(ctx1):
    # recalibrating at a doubled reference time reproduces the same constant
    t0, x0, y0 = 0.5, np.array([1.1, 0.0]), np.array([0.8, -0.1])
    raw1 = ht._fourier_integral(1, t0, x0, y0, 1e-8)
    raw2 = ht._fourier_integral(1, 2 * t0, x0, y0, 1e-8)
    c1 = math.exp(ht.heat_flat(ctx1, t0, x0, y0).log_value) / raw1
    c2 = math.exp(ht.heat_flat(ctx1, 2 * t0, x0, y0).log_value) / raw2
    assert c1 == pytest.approx(c2, rel=1e-6)


@pytest.mark.parametrize("n", [1, 2])
def test_fourier_constant_closed_form_matches_calibration(n):
    # the calibration the closed form replaced, kept as its oracle: heat_flat
    # against the raw inversion integral at one reference point
    ctx = ht.make_heat_context(n)
    rho = rs.rho(n).array()
    t0, x0, y0 = 0.5, 0.6 * rho, 0.45 * rho + 0.1
    pref = math.exp(
        2.0 * math.log(rs.pi(rho)) - 2.0 * rs.gamma(n) * math.log(2.0)
        - rs.log_pi(x0) - rs.log_pi(y0)
    )
    calibrated = math.exp(ht.heat_flat(ctx, t0, x0, y0).log_value) / (
        ht._fourier_integral(n, t0, x0, y0, 1e-8) * pref
    )
    assert ht.fourier_constant(ctx) == pytest.approx(calibrated, rel=1e-12)


def test_fourier_oracle_matches_flat_at_rank_2(ctx2):
    t, x, y = 0.7, np.array([1.9, 0.4, -0.3]), np.array([1.2, 0.1, -0.4])
    a = ht.inverse_fourier_oracle(ctx2, t, x, y)
    b = ht.heat_flat(ctx2, t, x, y)
    assert a.log_value == pytest.approx(b.log_value, abs=1e-6)


def test_fourier_integrand_imaginary_part_cancels():
    x = np.array([1.2, 0.0])
    lam_nodes = np.linspace(-6.0, 6.0, 41)
    grid = np.stack(np.meshgrid(lam_nodes, lam_nodes, indexing="ij"), axis=-1)
    sx = sp.unitary_alt_sum(grid, x)
    sy = sp.unitary_alt_sum(grid, np.array([0.9, -0.3]))
    dens = np.exp(-0.5 * (grid ** 2).sum(axis=-1))
    integrand = dens * (sx * np.conj(sy))
    assert abs(integrand.imag.sum()) <= 1e-12 * max(abs(integrand.real.sum()), 1.0)


def test_fourier_rank_cap(ctx3):
    with pytest.raises(RankTooLarge):
        ht.inverse_fourier_oracle(ctx3, 1.0, [3, 2, 1, 0], [3, 2, 1, 0])


def test_pde_residual_second_order(ctx1, ctx2):
    cases = [
        (ctx1, 0.9, np.array([1.5, 0.0]), np.array([1.0, -0.4])),
        (ctx2, 0.8, np.array([2.0, 0.9, 0.0]), np.array([1.6, 0.7, -0.2])),
    ]
    for ctx, t, x, y in cases:
        r = [ht.pde_residual(ctx, t, x, y, h) for h in (0.02, 0.01, 0.005)]
        assert 3.5 <= r[0] / r[1] <= 4.5
        assert 3.5 <= r[1] / r[2] <= 4.5


def test_pde_residual_envelope_negative_control(ctx1):
    # the envelope is not a solution: its residual does not shrink like h^2
    t, x, y = 0.9, np.array([1.5, 0.0]), np.array([1.0, -0.4])

    def env_residual(h):
        p0 = ht.heat_envelope(t, x, y)

        def pn(tt, xx):
            return math.exp(ht.heat_envelope(tt, xx, y) - p0)

        dpdt = (pn(t + h, x) - pn(t - h, x)) / (2 * h)
        lap = 0.0
        grad = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            up, dn = pn(t, x + e), pn(t, x - e)
            lap += (up - 2.0 + dn) / (h * h)
            grad[i] = (up - dn) / (2 * h)
        root = 2 * (grad[0] - grad[1]) / (x[0] - x[1])
        return abs(dpdt - lap - root)

    res_kernel = ht.pde_residual(ctx1, t, x, y, 0.005)
    assert env_residual(0.005) > 100 * res_kernel


def test_pde_residual_wall_precondition(ctx1):
    with pytest.raises(PreconditionViolated):
        ht.pde_residual(ctx1, 1.0, [0.01, 0.0], [1.0, 0.0], h=0.02)


def test_ball_volume():
    assert ht.ball_volume([0.0, 0.0], 2.0) == pytest.approx(2.0 ** 4)
    assert ht.ball_volume([1.0, 0.0], 1.0) == pytest.approx(4.0)
    v1 = ht.ball_volume([1.0, 0.0], 0.5)
    v2 = ht.ball_volume([1.0, 0.0], 0.6)
    assert v2 > v1


def test_volume_compare_and_slope(ctx1):
    rng = np.random.default_rng(4)
    lows, highs = [], []
    for _ in range(25):
        t = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        x = np.sort(rng.uniform(0.0, 3.0, 2))[::-1]
        y = np.sort(rng.uniform(0.0, 3.0, 2))[::-1]
        if x[0] - x[1] < 1e-3 or y[0] - y[1] < 1e-3:
            continue
        rec = ht.volume_compare(ctx1, t, x, y)
        lows.append(rec.lower_fit)
        highs.append(rec.upper_fit)
    c1, c2 = min(lows), max(highs)
    assert 0.0 < c1 <= c2 < math.inf
    # fitted constants keep the sandwich valid at every sample by construction
    assert all(c1 <= h + 1e-15 for h in highs) and all(c2 >= l - 1e-15 for l in lows)
    slope = ht.heat_time_slope(ctx1, [1.0, 0.0], [0.8, -0.2])
    assert slope == pytest.approx(-(ctx1.d / 2 + ctx1.gamma), rel=0.01)


def test_volume_sandwich_diagonal(ctx1):
    rec = ht.volume_compare(ctx1, 0.7, [1.0, 0.0], [1.0, 0.0])
    assert rec.log_gauss == 0.0
    assert rec.log_vol_x == rec.log_vol_y


def test_heat_slope_rank2(ctx2):
    slope = ht.heat_time_slope(ctx2, rs.rho(2).array(), 0.6 * rs.rho(2).array())
    assert slope == pytest.approx(-(ctx2.d / 2 + ctx2.gamma), rel=0.01)
