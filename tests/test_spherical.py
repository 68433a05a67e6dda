import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from weylheat import rootsystem as rs
from weylheat import spherical as sp
from weylheat._quad import GRID_VALUES, gl_nodes, leggauss, log_ratio_1mexp, logsumexp, tensor_grid
from weylheat.errors import DegenerateInput, RankTooLarge


def a1_closed_form(lam, x):
    """Reference for rank 1: e^{l1 x1 + l2 x2} (1 - e^{-u})/u, u = gap product."""
    u = (lam[0] - lam[1]) * (x[0] - x[1])
    base = lam[0] * x[0] + lam[1] * x[1]
    if u == 0.0:
        return base
    return base + math.log(-math.expm1(-u)) - math.log(u)


def test_alt_sum_matches_a1_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(50):
        lam = np.sort(rng.uniform(-1, 3, 2))[::-1]
        x = np.sort(rng.uniform(-1, 3, 2))[::-1]
        if (lam[0] - lam[1]) * (x[0] - x[1]) < 1e-6:
            continue
        res = sp.psi_alt_sum(lam, x)
        assert res.log_value == pytest.approx(a1_closed_form(lam, x), abs=1e-11)


def test_alt_sum_known_value():
    res = sp.psi_alt_sum([1.0, 0.0], [1.0, 0.0])
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-13)
    assert res.method == "alt_sum"


def test_alt_sum_symmetry():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        lam = np.sort(rng.uniform(0, 2, n + 1))[::-1]
        x = np.sort(rng.uniform(0, 2, n + 1))[::-1]
        a = sp.psi_alt_sum(lam, x).log_value
        b = sp.psi_alt_sum(x, lam).log_value
        assert abs(a - b) < 1e-10


def test_psi_is_symmetric_bit_for_bit_on_both_rungs():
    # psi_lam(X) = psi_X(lam); both rungs evaluate one canonical order
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        for shift in (0.0, 30.0):
            lam = _from_gaps(10 ** rng.uniform(-1, 0.5, n), shift * rng.normal())
            x = _from_gaps(10 ** rng.uniform(-1, 0.5, n), rng.normal())
            for bits in (53, sp._plan(lam, x, 1e-12)[1]):
                assert sp.psi_alt_sum(lam, x, bits) == sp.psi_alt_sum(x, lam, bits)
            assert sp.psi_stable(lam, x) == sp.psi_stable(x, lam)
    for lam, x in _confluent_cases(7, range(1, 8), 1):
        assert sp.psi_stable(lam, x) == sp.psi_stable(x, lam)


def test_alt_sum_rejects_degenerate_and_large_rank():
    with pytest.raises(DegenerateInput):
        sp.psi_alt_sum([1.0, 1.0], [2.0, 0.0])
    with pytest.raises(RankTooLarge):
        sp.psi_alt_sum(list(range(10, 0, -1)), list(range(10, 0, -1)))


def test_extended_precision_agrees_with_float():
    lam = [2.0, 0.7, 0.0]
    x = [1.5, 0.4, 0.0]
    a = sp.psi_alt_sum(lam, x, 53)
    b = sp.psi_alt_sum(lam, x, 200)
    assert abs(a.log_value - b.log_value) < 1e-12
    assert b.method == "alt_sum_extended"


def test_global_sandwich():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        for _ in range(100):
            lam = np.sort(rng.uniform(0, 4, n + 1))[::-1]
            x = np.sort(rng.uniform(0, 4, n + 1))[::-1]
            res = sp.psi_stable(lam, x, 1e-10)
            lower = rs.min_pairing_value(lam, x)
            upper = float(np.dot(lam, x))
            assert lower - 1e-9 <= res.log_value <= upper + 1e-9


def test_psi_stable_dispatch_bit_identical():
    lam = [1.3, 0.2]
    x = [2.0, -0.5]
    assert sp.psi_stable(lam, x).log_value == sp.psi_alt_sum(lam, x, 53).log_value


def test_psi_stable_tiny_gaps_match_reference():
    lam = [1e-4, 0.0]
    x = [1e-4, 0.0]
    res = sp.psi_stable(lam, x, 1e-12)
    ref = sp.psi_alt_sum(lam, x, 256)
    assert abs(res.log_value - ref.log_value) <= 1e-12 * (1 + abs(ref.log_value)) + 1e-15


def test_psi_stable_degenerate_matches_confluent_limit():
    # lam = (1,1,0) equals the eps -> 0 limit of lam = (1+eps,1,0)
    x = [2.0, 1.0, 0.0]
    res = sp.psi_stable([1.0, 1.0, 0.0], x, 1e-10)
    assert res.method == sp.METHOD_CONFLUENT
    vals = []
    for eps in (1e-2, 1e-3, 1e-4):
        vals.append(sp.psi_alt_sum([1.0 + eps, 1.0, 0.0], x, 256).log_value)
    # second-order Richardson through the three epsilons
    e = np.array([1e-2, 1e-3, 1e-4])
    coef = np.polyfit(e, vals, 2)
    limit = coef[-1]
    assert res.log_value == pytest.approx(limit, abs=5e-8)


def test_psi_normalization_confluent():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        x = np.sort(rng.uniform(0, 3, n + 1))[::-1]
        res = sp.psi_stable(np.zeros(n + 1), x)
        assert abs(res.log_value) < 1e-12


def spread_ref_log_psi(lam, x):
    """Reference log psi for coincident coordinates: lam and x each shifted
    by 1e-90 (m-1, ..., 1, 0) in mpmath, which opens every tie to a gap of
    1e-90 and moves log psi by about 1e-89, then the Harish-Chandra formula
    log(prod_{k<m} k! det[e^{lam_i x_j}] / (pi(lam) pi(x))), with mpmath's
    pivoting determinant, at 1600 bits beyond the 300 each tie cancels."""
    m = lam.size
    ties = int(np.sum(rs.root_values(lam) <= sp.DEFAULT_DEGENERATE_TOL)
               + np.sum(rs.root_values(x) <= sp.DEFAULT_DEGENERATE_TOL))
    with mp.workprec(1600 + 300 * ties):
        eps = mp.mpf(10) ** -90
        lmp = [mp.mpf(float(v)) + eps * (m - 1 - i) for i, v in enumerate(lam)]
        xmp = [mp.mpf(float(v)) + eps * (m - 1 - i) for i, v in enumerate(x)]
        det = mp.det(mp.matrix([[mp.exp(a * b) for b in xmp] for a in lmp]))
        vander = mp.fprod((lmp[i] - lmp[j]) * (xmp[i] - xmp[j])
                          for i in range(m) for j in range(i + 1, m))
        return mp.log(rs._superfactorial(m) * det / vander)


def _confluent_cases(seed, ranks, per_kind):
    """(lam, x) with coincident coordinates, no side constant: one tie in lam,
    one tie on each side, a run of three tied coordinates in lam (with a tie
    in x), and a near-tie of 1e-13 in lam."""
    rng = np.random.default_rng(seed)
    for n in ranks:
        for kind in ("one_sided", "two_sided", "run_of_3", "near_tie"):
            if (n == 1 and kind != "near_tie") or (n == 2 and kind == "run_of_3"):
                continue  # the tied side would be constant
            for _ in range(per_kind):
                gl, gx = 10 ** rng.uniform(-1, 0.5, n), 10 ** rng.uniform(-1, 0.5, n)
                if kind == "run_of_3":
                    k = rng.integers(n - 1)
                    gl[k:k + 2] = 0.0
                else:
                    gl[rng.integers(n)] = 1e-13 if kind == "near_tie" else 0.0
                if kind in ("two_sided", "run_of_3"):
                    gx[rng.integers(n)] = 0.0
                yield _from_gaps(gl, rng.normal()), _from_gaps(gx, rng.normal())


def test_confluent_within_bound_of_spread_reference():
    # every confluent result at ranks 1-8 and targets 1e-12, 1e-9 and 1e-6
    # meets its target and lies within its declared bound of the reference;
    # at 1e-2 the spread is wide enough to move log psi measurably (a tie is
    # a symmetric point, so the move is second order), which puts the bound
    # on the spread itself to the test
    cases = list(_confluent_cases(60, range(1, 9), 2))
    assert len(cases) == 2 * (4 * 8 - 4)
    for lam, x in cases:
        ref = spread_ref_log_psi(lam, x)
        for target in (1e-12, 1e-9, 1e-6, 1e-2):
            res = sp.psi_stable(lam, x, target)
            assert res.method == sp.METHOD_CONFLUENT
            assert res.abs_log_error <= target
            with mp.workprec(1600):
                assert abs(mp.mpf(res.log_value) - ref) <= res.abs_log_error, (lam, x, target)


def test_one_sided_ties_return_within_bound():
    # one lam gap zero, the others 0.3-9.5, at 1e-11: every draw returns a
    # confluent result within its bound, none raises
    rng = np.random.default_rng(60)
    for n in (3, 4, 5):
        for _ in range(60):
            gl, gx = rng.uniform(0.3, 9.5, n), rng.uniform(0.3, 9.5, n)
            gl[rng.integers(n)] = 0.0
            lam, x = _from_gaps(gl, 0.0), _from_gaps(gx, 0.0)
            res = sp.psi_stable(lam, x, 1e-11)
            assert res.method == sp.METHOD_CONFLUENT and res.abs_log_error <= 1e-11
            ref = spread_ref_log_psi(lam, x)
            with mp.workprec(1600):
                assert abs(mp.mpf(res.log_value) - ref) <= res.abs_log_error, (lam, x)


def test_spread_keeps_small_gaps_open():
    # a gap of 1e-10 next to a tie, at a target whose spread would close it
    lam = np.array([2.0, 1.0 + 1e-10, 1.0, 1.0, 0.0])
    x = np.array([3.0, 2.2, 1.4, 0.7, 0.0])
    res = sp.psi_stable(lam, x, 1e-6)
    assert res.method == sp.METHOD_CONFLUENT and res.abs_log_error <= 1e-6
    with mp.workprec(1600):
        assert abs(mp.mpf(res.log_value) - spread_ref_log_psi(lam, x)) <= res.abs_log_error


def test_psi_stable_degenerate_above_quadrature_rank(monkeypatch):
    # rank 4 had no chain quadrature; the confluent result agrees with an
    # eps-perturbed extrapolation of the extended-precision alternating sum
    lam = np.array([2.0, 1.0, 1.0, 0.5, 0.0])
    x = np.array([3.0, 2.2, 1.4, 0.7, 0.0])
    res = sp.psi_stable(lam, x, 1e-5)
    assert res.method == sp.METHOD_CONFLUENT
    vals = []
    for eps in (1e-3, 1e-4, 1e-5):
        lam_eps = lam + eps * np.array([4.0, 3.0, 2.0, 1.0, 0.0])  # re-split the tie
        vals.append(sp.psi_alt_sum(lam_eps, x, 256).log_value)
    coef = np.polyfit([1e-3, 1e-4, 1e-5], vals, 2)
    assert res.log_value == pytest.approx(coef[-1], abs=1e-6)
    # a target of 1e-13 is met within its bound of the spread reference
    res13 = sp.psi_stable(lam, x, 1e-13)
    assert res13.method == sp.METHOD_CONFLUENT and res13.abs_log_error <= 1e-13
    with mp.workprec(1600):
        assert abs(mp.mpf(res13.log_value) - spread_ref_log_psi(lam, x)) <= res13.abs_log_error
    # a target out of reach of the precision ladder raises instead of degrading
    with monkeypatch.context() as mpatch:
        mpatch.setattr(sp, "_MAX_PREC", 64)
        with pytest.raises(sp.ToleranceUnachievable):
            sp.psi_stable(lam, x, 1e-12)
    # the all-equal shortcut stays exact at any rank
    res0 = sp.psi_stable(np.full(5, 0.7), x)
    assert res0.method == "closed_form"
    assert res0.log_value == pytest.approx(0.7 * x.sum(), rel=1e-14)


def test_psi_constant_shift_exactness():
    # adding c to every lam coordinate multiplies psi by exp(c * sum x)
    lam = np.array([2.0, 1.0, 0.0])
    x = np.array([1.7, 0.6, -0.2])
    a = sp.psi_stable(lam, x).log_value
    b = sp.psi_stable(lam + 3.0, x).log_value
    assert b - a == pytest.approx(3.0 * x.sum(), rel=1e-12)


def test_closed_constant_side_honours_its_bound():
    # psi_{c 1}(X) = e^{c sum X}; the declared error must cover the rounding
    # of the coordinate sum, checked against the exact sum in mpmath
    rng = np.random.default_rng(7)
    for i in range(1000):
        n = 1 + i % 7
        c = rng.normal() * 10.0 ** rng.uniform(-2, 2)
        x = np.sort(rng.normal(size=n + 1) * 10.0 ** rng.uniform(-2, 2))[::-1]
        lam, xx = (np.full(n + 1, c), x) if i % 2 else (x, np.full(n + 1, c))
        res = sp.psi_stable(lam, xx, 1e-12)
        assert res.method == sp.METHOD_CLOSED
        with mp.workprec(300):
            exact = mp.mpf(float(c)) * mp.fsum(mp.mpf(float(v)) for v in x)
            assert abs(mp.mpf(res.log_value) - exact) <= res.abs_log_error


def test_iter_quadrature_base_case_and_cross_method():
    lam = [2.0, 1.0, 0.0]
    x = [3.0, 1.0, 0.0]
    it = sp.psi_iter_quadrature(lam, x, tol=1e-10)
    al = sp.psi_alt_sum(lam, x)
    assert abs(it.log_value - al.log_value) < 1e-8
    a1 = sp.psi_iter_quadrature([1.0, 0.0], [1.0, 0.0])
    assert a1.value == pytest.approx(math.e - 1.0, rel=1e-12)
    assert a1.method == "iter_quadrature"


def test_iter_quadrature_constant_lambda_volume_identity():
    # constant spectral vector reduces to the chain volume identity: psi = e^{c sum x}
    for n, x in [(1, [2.0, 0.5]), (2, [2.0, 1.0, 0.0]), (3, [3.0, 2.0, 0.7, 0.0])]:
        c = 0.8
        res = sp.psi_iter_quadrature([c] * (n + 1), x, tol=1e-11)
        assert res.log_value == pytest.approx(c * sum(x), abs=1e-10)


def test_iter_quadrature_requires_strict_x():
    with pytest.raises(DegenerateInput):
        sp.psi_iter_quadrature([2.0, 1.0, 0.0], [1.0, 1.0, 0.0])
    with pytest.raises(RankTooLarge):
        sp.psi_iter_quadrature([4, 3, 2, 1, 0], [4, 3, 2, 1, 0])


def test_mc_orbit_zero_variance_cases():
    res = sp.psi_mc_orbit([0.0, 0.0], [1.0, 0.0], 1000, seed=0)
    assert res.log_value == 0.0 and res.mc_std_error == 0.0
    res = sp.psi_mc_orbit([1.0, 0.0], [0.0, 0.0], 1000, seed=0)
    assert res.log_value == 0.0 and res.mc_std_error == 0.0


def test_mc_orbit_matches_closed_form():
    res = sp.psi_mc_orbit([1.0, 0.0], [1.0, 0.0], 400_000, seed=42)
    exact = math.log(math.e - 1.0)
    assert abs(res.log_value - exact) < 3.0 * res.mc_std_error + 1e-6


def test_mc_orbit_deterministic_given_seed():
    a = sp.psi_mc_orbit([1.0, 0.0], [1.5, 0.2], 50_000, seed=9)
    b = sp.psi_mc_orbit([1.0, 0.0], [1.5, 0.2], 50_000, seed=9)
    assert a.log_value == b.log_value


def test_envelope_values_and_symmetry():
    assert sp.psi_envelope([0.0, 0.0], [1.0, 0.0]) == 0.0
    assert sp.psi_envelope([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1 - math.log(2))
    lam = [2.0, 0.5, 0.0]
    x = [1.0, 0.7, -0.3]
    assert sp.psi_envelope(lam, x) == pytest.approx(sp.psi_envelope(x, lam), rel=1e-14)


def test_a1_envelope_ratio_range():
    # exact rank-1 ratio (1+u)(1-e^{-u})/u stays in [1, sup], sup ~ 1.2980
    u = np.geomspace(1e-8, 1e8, 4001)
    ratio = (1 + u) * (-np.expm1(-u)) / u
    assert ratio.min() >= 1.0 - 1e-12
    assert ratio.max() <= 1.30


def test_phi_curved_composition():
    res = sp.phi_curved([1.0, 0.0], [1.0, 0.0])
    expect = math.log((math.e - 1.0) / math.sinh(1.0))
    assert res.log_value == pytest.approx(expect, abs=1e-12)
    with pytest.raises(DegenerateInput):
        sp.phi_curved([1.0, 0.0], [1.0, 1.0])


def test_phi_curved_prefactor_limit():
    # pi(X)/delta^{1/2}(X) -> 1 and phi -> 1 along X = eps * rho
    for eps in (1e-3, 1e-4):
        x = eps * rs.rho(2).array()
        res = sp.phi_curved(np.zeros(3), x)
        assert abs(res.log_value) < 1e-5


def test_phi_envelope_value():
    # rank 1, lam=(2,0), x=(1,0): e^{(lam-rho)(x)} (1+1)/(1+2) = 2e/3
    assert sp.phi_envelope([2.0, 0.0], [1.0, 0.0]) == pytest.approx(math.log(2 * math.e / 3))
    assert sp.phi_envelope(rs.rho(2).array(), [1e-12, 0.0, -1e-12]) == pytest.approx(0.0, abs=1e-9)


def test_phi_ratio_finite_on_samples():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lam = np.sort(rng.uniform(0, 3, 3))[::-1]
        x = np.sort(rng.uniform(0.1, 3, 3))[::-1]
        if min(np.diff(lam[::-1])) < 1e-6 or min(np.diff(x[::-1])) < 1e-6:
            continue
        r = sp.phi_curved(lam, x).log_value - sp.phi_envelope(lam, x)
        assert math.isfinite(r)


def test_regime_classification():
    assert sp.regime_classify([0.0, 0.0], [5.0, 0.0]).label == "small"
    # rank 1: product 4 >= log 2, not small at default delta
    assert sp.regime_classify([2.0, 0.0], [2.0, 0.0]).label == "large"
    # mixed: one simple product large, the large-regime floor not met everywhere
    lab = sp.regime_classify([3.0, 0.0, -3.0], [3.0, 2.9, 0.0])
    assert lab.label == "mixed"


def test_large_regime_alternating_sum_bounds():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        w_order = rs.weyl_order(n)
        floor = math.sqrt(math.log(w_order))
        for _ in range(200):
            gl = floor * np.exp(rng.uniform(0, 1.5, n))
            gx = floor * np.exp(rng.uniform(0, 1.5, n))
            lam = np.concatenate([np.cumsum(gl[::-1])[::-1], [0.0]])
            x = np.concatenate([np.cumsum(gx[::-1])[::-1], [0.0]])
            logT, _err = sp._alt_sum_log_T_float(lam, x)
            assert math.log(0.5) - 1e-12 <= logT <= math.log(w_order) + 1e-12


def test_w_invariance_of_sorted_inputs():
    # permuting then re-sorting gives bit-identical input, hence identical output
    rng = np.random.default_rng(4)
    lam = np.sort(rng.uniform(0, 2, 3))[::-1]
    x = np.sort(rng.uniform(0, 2, 3))[::-1]
    shuffled = rng.permutation(lam)
    lam2 = np.sort(shuffled)[::-1]
    assert np.array_equal(lam, lam2)
    assert sp.psi_stable(lam, x).log_value == sp.psi_stable(lam2, x).log_value


def test_planned_precision_monotone_in_cancellation():
    bits = [
        sp.planned_precision([g, 0.0], [g, 0.0], 1e-10)
        for g in (1.0, 1e-2, 1e-3, 1e-4, 1e-5)
    ]
    assert bits == sorted(bits)
    assert bits[0] == 53 and bits[-1] > 64


def test_planner_refuses_ties():
    # the gap products carry no floor, so a tie has no finite estimate
    with pytest.raises(DegenerateInput):
        sp.planned_precision([1.0, 1.0, 0.0], [2.0, 1.0, 0.0])


def test_cross_oracle_triangle_rank2():
    lam = [1.4, 0.8, 0.0]
    x = [2.0, 0.9, 0.0]
    a = sp.psi_alt_sum(lam, x).log_value
    b = sp.psi_iter_quadrature(lam, x, tol=1e-9).log_value
    c = sp.psi_mc_orbit(lam, x, 300_000, seed=3)
    assert abs(a - b) < 1e-8
    assert abs(a - c.log_value) < 3 * c.mc_std_error + 1e-6


# ---------------------------------------------------------------------------
# the mpmath determinant rung against the permutation-sum oracle
# ---------------------------------------------------------------------------

def perm_sum_log_psi(lv, xv, prec):
    """Oracle: log psi from the m! signed terms of the Weyl sum, one mpf at a time.

    Returns the mpf value at prec bits (no final float rounding), so a float
    result can be compared against it exactly.
    """
    m = lv.size
    with mp.workprec(prec):
        lmp = [mp.mpf(float(v)) for v in lv]
        xmp = [mp.mpf(float(v)) for v in xv]
        prods = [[a * b for b in xmp] for a in lmp]  # lam_j x_k
        base = mp.fsum(prods[j][j] for j in range(m))
        terms = []
        for rows, signs in rs.perm_sign_chunks(m):
            for perm, s in zip(rows.tolist(), signs.tolist()):
                t = mp.exp(mp.fsum(prods[j][k] for j, k in enumerate(perm)) - base)
                terms.append(t if s > 0 else -t)
        T = mp.fsum(terms)
        assert T > 0
        # pi(rho) / 2^gamma = prod_{k<m} k!
        log_pref = (
            mp.fsum(mp.log(math.factorial(k)) for k in range(1, m))
            - mp.fsum(mp.log(lmp[i] - lmp[j]) for i in range(m) for j in range(i + 1, m))
            - mp.fsum(mp.log(xmp[i] - xmp[j]) for i in range(m) for j in range(i + 1, m))
        )
        return log_pref + base + mp.log(T)


def _from_gaps(gaps, shift):
    return np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]]) + shift


# gap-scale classes: (lam gaps, x gaps, common shift of lam) for rank n
_GAP_CLASSES = {
    "moderate": lambda r, n: (10 ** r.uniform(-1, 0.5, n), 10 ** r.uniform(-1, 0.5, n), r.normal()),
    "cancellation": lambda r, n: (10 ** r.uniform(-6, -3, n), 10 ** r.uniform(-6, -2, n), r.normal()),
    "wide_scale": lambda r, n: (10 ** r.uniform(-3, 3, n), 10 ** r.uniform(-3, 3, n), 1e3 * r.normal()),
    "large_regime": lambda r, n: (10 ** r.uniform(0, 1.5, n), 10 ** r.uniform(0, 1.5, n), 10 * r.normal()),
}


def _seeded_cases(seed, ranks, per_class):
    """(lam, x, target) with targets from 1e-9 to 1e-12, per rank and gap class."""
    rng = np.random.default_rng(seed)
    for n in ranks:
        for make in _GAP_CLASSES.values():
            for _ in range(per_class):
                gl, gx, s = make(rng, n)
                lam, x = _from_gaps(gl, s), _from_gaps(gx, -s * rng.uniform(0, 1))
                yield lam, x, 10.0 ** -rng.uniform(9, 12)


def test_determinant_rung_within_bound_of_permutation_sum():
    # 504 pairs at ranks 1-6 and 8 at rank 7 (the oracle costs about 1 s there).
    # Each pair also runs without the planner's 64 guard bits (when that is
    # still an mpmath precision), where the rounding inside mpmath, not the
    # final rounding to binary64, sets the error the bound has to cover.
    cases = list(_seeded_cases(21, range(1, 7), 21)) + list(_seeded_cases(22, [7], 2))
    assert len(cases) >= 500
    for lam, x, target in cases:
        prec = sp._plan(lam, x, target)[1]
        ref = perm_sum_log_psi(lam, x, prec + 256)
        for p in (prec, prec - 64):
            if p <= 53:
                continue
            try:
                res = sp.psi_alt_sum(lam, x, p)
            except sp.ToleranceUnachievable:
                assert p < prec  # a nonpositive pivot, only without guard bits
                continue
            assert res.method == sp.METHOD_ALT_EXT
            with mp.workprec(prec + 256):
                assert abs(mp.mpf(res.log_value) - ref) <= res.abs_log_error, (lam, x, p)


def mpf_det_log_T(lv, xv, prec, div=1.0):
    """Oracle: the determinant rung on mpmath's mpf objects at workprec(prec),
    (log T in binary64, bound) with the same elimination and bound as
    sp._det_log_T, which runs the same operations on raw libmp tuples."""
    m = lv.size
    with mp.workprec(prec):
        lam = [mp.mpf(a) for a in lv.tolist()]
        x = [mp.mpf(b) for b in xv.tolist()]
        lp = [a - lam[-1] for a in lam[:-1]]
        xp = [b - x[-1] for b in x[:-1]]
        if div != 1.0:
            xp = [b / div for b in xp]
        E = [[mp.exp(a * b) - 1 for b in xp] for a in lp]
        det = mp.mpf(1)
        for k in range(m - 1):
            piv = E[k][k]
            if piv <= 0:
                raise sp.ToleranceUnachievable(f"determinant pivot nonpositive at {prec} bits")
            det *= piv
            row = E[k]
            for i in range(k + 1, m - 1):
                f = E[i][k] / piv
                E[i][k + 1:] = [e - f * r for e, r in zip(E[i][k + 1:], row[k + 1:])]
        pairing = mp.fsum(a * b for a, b in zip(lp, xp))
        log_T = float(mp.log(det) - pairing)
    dv = float(div)
    base = float(np.dot(lv, xv))
    spread = base - rs.min_pairing_value(lv, xv)
    scale = 4.0 * dv + abs(base) + spread + float((lv[0] - lv[-1]) * (xv[0] - xv[-1]))
    log_err = (math.log(m * m * scale) - math.log(dv) + (2 - prec) * math.log(2.0)
               + math.lgamma(m + 1) - log_T)
    return log_T, math.exp(log_err) if log_err < 709.0 else math.inf


def _same_outcome(rung, oracle):
    """Both calls return the same (log T, bound) (after the rung's libmp
    tuple), or both raise ToleranceUnachievable; True when they raised."""
    try:
        want = oracle()
    except sp.ToleranceUnachievable:
        with pytest.raises(sp.ToleranceUnachievable):
            rung()
        return True
    assert rung()[1:] == want
    return False


def test_determinant_rung_is_bit_identical_to_mpf_elimination():
    # psi's pairs at ranks 1-7 in every gap class, at the planned precision,
    # at 54 bits (where the pivots of cancelling pairs come out nonpositive)
    # and at 512 bits; heat's pairs (X, Y) with div = 2t, t from 1e-10 to 1e4
    raised = 0
    for lam, x, target in _seeded_cases(27, range(1, 8), 3):
        for p in (54, sp._plan(lam, x, target)[1], 512):
            raised += _same_outcome(lambda: sp._det_log_T(lam, x, p),
                                    lambda: mpf_det_log_T(lam, x, p))
    assert raised >= 10
    rng = np.random.default_rng(28)
    for n in range(1, 8):
        for t in 10 ** np.linspace(-10, 4, 8):
            x = _from_gaps(10 ** rng.uniform(-1, 0.5, n), rng.normal())
            y = _from_gaps(10 ** rng.uniform(-1, 0.5, n), 3 * rng.normal())
            bits = sum(math.log2(1.0 + 2.0 * t / p) for p in rs.root_values(x) * rs.root_values(y))
            prec = sp._plan_bits(bits, n + 1, 1e-12)[1]
            if prec > sp._MAX_PREC:
                continue
            for p in (prec, 512):
                _same_outcome(lambda: sp._det_log_T(x, y, p, 2.0 * t),
                              lambda: mpf_det_log_T(x, y, p, 2 * mp.mpf(t)))


def test_512_bit_reference_stays_sharp_far_from_the_origin():
    # lam shifted by 1e3 and 1e6 against x of zero trace: log psi stays
    # moderate while each lam_i x_i is large, and the exact products keep the
    # reference's bound at a few ulps (rounded products would cost 1e-10)
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        for shift in (1e3, 1e6):
            for _ in range(3):
                lam = _from_gaps(10 ** rng.uniform(-1, 0.5, n), shift)
                x = _from_gaps(10 ** rng.uniform(-1, 0.5, n), 0.0)
                x = x - x.mean()
                res = sp.psi_alt_sum(lam, x, 512)
                assert res.abs_log_error <= 1e-14, (lam, x, res)
                ref = perm_sum_log_psi(lam, x, 768)
                with mp.workprec(768):
                    assert abs(mp.mpf(res.log_value) - ref) <= res.abs_log_error, (lam, x, res)


def test_psi_stable_escalates_when_the_binary64_sum_is_nonpositive():
    # planned at 53 bits, the binary64 T comes out <= 0 (psi_alt_sum(.., 53)
    # raises); psi_stable counts that as a miss and takes the determinant
    lam = np.array([2.2018781267634444, 2.0354390247855085, 1.7269906113360105, 1.4344085660895627,
                    1.0872362698506115, 0.6926556571126745, 0.36181600752366244])
    x = np.array([2.160816910234447, 1.9619004306905856, 1.677797815145591, 1.319171272629546,
                  1.04217483927854, 0.6375741093144756, 0.3774241056966258])
    cases = [(lam, x, 0.0106), (lam, x, 1e-2), (lam, x, 1e-3)]
    rng = np.random.default_rng(30)
    while len(cases) < 60:
        n = int(rng.integers(5, 7))
        lam = _from_gaps(10 ** rng.uniform(-1, -0.3, n), rng.normal())
        x = _from_gaps(10 ** rng.uniform(-1, -0.3, n), rng.normal())
        target = 10 ** rng.uniform(-4, math.log10(0.5))
        if sp._plan(lam, x, target)[0] == 53:
            cases.append((lam, x, target))
    nonpositive = 0
    for lam, x, target in cases:
        try:
            sp.psi_alt_sum(lam, x, 53)
        except sp.ToleranceUnachievable:
            nonpositive += 1
        res = sp.psi_stable(lam, x, target)
        ref = sp.psi_alt_sum(lam, x, 512)
        assert sp._meets(res, target), (lam, x, target, res)
        assert abs(res.log_value - ref.log_value) <= res.abs_log_error + ref.abs_log_error
    assert nonpositive >= 6


def mp_det_log_psi(lv, xv, prec):
    """Oracle: log psi = log(prod_{k<m} k! det[e^{lam_i x_j}] / (pi(lam) pi(X)))
    with mpmath's own determinant (LU with partial pivoting) at prec bits."""
    m = lv.size
    with mp.workprec(prec):
        lam = [mp.mpf(a) for a in lv.tolist()]
        x = [mp.mpf(b) for b in xv.tolist()]
        K = mp.matrix([[mp.exp(a * b) for b in x] for a in lam])
        pi = mp.fprod((lam[i] - lam[j]) * (x[i] - x[j]) for i in range(m) for j in range(i + 1, m))
        return mp.log(rs._superfactorial(m) * mp.det(K) / pi)


def test_psi_stable_meets_tight_targets_at_ranks_6_to_8():
    # the determinant rung adds log T, the log of the constant over pi(lam)
    # pi(X) and <lam, X> at its own precision and rounds once, so targets of
    # 1e-14 and 1e-15 stay within reach at ranks 6-8 (gaps from 0.01 to 3)
    rng = np.random.default_rng(32)
    for n in (6, 7, 8):
        for _ in range(4):
            lam = _from_gaps(10 ** rng.uniform(-2, 0.5, n), rng.normal())
            x = _from_gaps(10 ** rng.uniform(-2, 0.5, n), rng.normal())
            ref = mp_det_log_psi(lam, x, 1600)
            for target in (1e-14, 1e-15):
                res = sp.psi_stable(lam, x, target)
                assert sp._meets(res, target), (lam, x, target, res)
                with mp.workprec(1600):
                    assert abs(mp.mpf(res.log_value) - ref) <= res.abs_log_error, (lam, x, res)


def test_float_rung_and_dispatcher_within_bound_of_determinant():
    # 280 seeded pairs at ranks 1-7 (coordinates shifted by up to 1e3, heavy
    # cancellation, heat-type pairs (x, y/2t) with t from 1e-10 to 1e4), each
    # through the binary64 sum and psi_stable at targets 1e-9 and 1e-12,
    # against the 512-bit determinant
    rng = np.random.default_rng(26)
    checked = 0
    for n in range(1, 8):
        for case in range(40):
            kind = case % 3
            if kind == 0:
                lam = _from_gaps(10 ** rng.uniform(-1, 0.7, n), rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 3))
                x = _from_gaps(10 ** rng.uniform(-1, 0.7, n), rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 3))
            elif kind == 1:
                lam = _from_gaps(10 ** rng.uniform(-4, 0, n), rng.uniform(-1e3, 1e3))
                x = _from_gaps(10 ** rng.uniform(-4, 0, n), rng.uniform(-10, 10))
            else:
                t = 10 ** rng.uniform(-10, 4)
                lam = _from_gaps(10 ** rng.uniform(-1, 0.5, n), rng.normal())
                x = _from_gaps(10 ** rng.uniform(-1, 0.5, n), rng.normal()) / (2.0 * t)
            ref = sp.psi_alt_sum(lam, x, 512)
            try:
                results = [sp.psi_alt_sum(lam, x, 53)]
            except sp.ToleranceUnachievable:  # the binary64 sum came out nonpositive
                results = []
            results += [sp.psi_stable(lam, x, target) for target in (1e-9, 1e-12)]
            for res in results:
                gap = abs(res.log_value - ref.log_value)
                assert gap <= res.abs_log_error + ref.abs_log_error, (lam, x, res)
                checked += 1
    assert checked >= 560 + 200  # every psi_stable result, and most binary64 sums


def test_determinant_rank8_matches_binary64_sum():
    rng = np.random.default_rng(23)
    for _ in range(3):
        lam = _from_gaps(10 ** rng.uniform(-0.3, 0.3, 8), rng.normal())
        x = _from_gaps(10 ** rng.uniform(-0.3, 0.3, 8), rng.normal())
        det = sp.psi_alt_sum(lam, x, sp.planned_precision(lam, x))
        b53 = sp.psi_alt_sum(lam, x, 53)
        assert abs(det.log_value - b53.log_value) <= det.abs_log_error + b53.abs_log_error


def test_ranks_7_and_8_route_to_determinant(monkeypatch):
    real = rs.perm_sign_chunks

    def no_large_tables(m):
        if m >= 8:
            raise AssertionError(f"psi_stable enumerated S_{m}")
        return real(m)

    monkeypatch.setattr(rs, "perm_sign_chunks", no_large_tables)
    rng = np.random.default_rng(24)
    for n in (7, 8):
        for _ in range(3):
            lam = _from_gaps(10 ** rng.uniform(-0.5, 0.5, n), rng.normal())
            x = _from_gaps(10 ** rng.uniform(-0.5, 0.5, n), rng.normal())
            res = sp.psi_stable(lam, x)
            prec = sp.planned_precision(lam, x)
            assert prec > 64
            assert res == sp.psi_alt_sum(lam, x, prec)
            assert res.method == sp.METHOD_ALT_EXT
    for n in range(1, 7):  # generic input keeps the binary64 rung
        lam = _from_gaps(np.full(n, 1.5), 0.3)
        x = _from_gaps(np.full(n, 1.2), -0.1)
        assert sp.planned_precision(lam, x) == 53
        assert sp.psi_stable(lam, x).method == sp.METHOD_ALT


def test_determinant_transpose_symmetry():
    # psi_lam(X) = psi_X(lam): det K transposes, so both argument orders
    # agree within the sum of their declared bounds
    rng = np.random.default_rng(25)
    for n in range(1, 9):
        lam = _from_gaps(10 ** rng.uniform(-1, 0.5, n), rng.normal())
        x = _from_gaps(10 ** rng.uniform(-1, 0.5, n), rng.normal())
        for p in (128, 512):
            a = sp.psi_alt_sum(lam, x, p)
            b = sp.psi_alt_sum(x, lam, p)
            assert abs(a.log_value - b.log_value) <= a.abs_log_error + b.abs_log_error


# ---------------------------------------------------------------------------
# the chain quadrature against its tensor-product oracle and a 512-bit reference
# ---------------------------------------------------------------------------

def tensor_log_G2(lam, X):
    """Closed form of the innermost chain integral, batched over X[..., (x1, x2)]."""
    a = lam[0] - lam[1]
    w = X[..., 0] - X[..., 1]
    with np.errstate(divide="ignore"):
        return a * X[..., 0] + np.log(w) + log_ratio_1mexp(a * w)


def tensor_log_G_block(lam, X, levels):
    """One block of the nested recursion on the product grid; X has shape (B, m)."""
    m = X.shape[-1]
    lam0 = lam[:-1] - lam[-1]
    r = m - 1
    order, panels = levels[0]
    rules = [gl_nodes(X[..., k + 1], X[..., k], order, panels) for k in range(r)]
    Y, logw = tensor_grid(*zip(*rules))
    inner = tensor_log_G(lam0, Y, levels[1:])
    integrand = inner + lam0[-1] * Y.sum(axis=-1) + logw + math.lgamma(r)
    return logsumexp(integrand, axis=tuple(range(-r, 0)))


def tensor_log_G(lam, X, levels):
    """Oracle: log G_m(lam; X) by the same Gauss-Legendre rule laid out as the
    product grid over each interlacing box, in blocks of GRID_VALUES."""
    m = X.shape[-1]
    if m == 2:
        return tensor_log_G2(lam, X)
    order, panels = levels[0]
    per_row = (order * panels) ** (m - 1)
    flat = X.reshape(-1, m)
    step = max(1, GRID_VALUES // per_row)
    outs = [tensor_log_G_block(lam, flat[s : s + step], levels)
            for s in range(0, flat.shape[0], step)]
    return np.concatenate(outs).reshape(X.shape[:-1])


def tensor_log_psi(lv, xv, levels):
    m = lv.size
    log_G = float(tensor_log_G(lv, xv[None, :], levels)[0])
    return math.lgamma(m) + lv[-1] * float(xv.sum()) + log_G - rs._log_pi(xv)


def _tied_cases(seed, m, count):
    """(lam, x) with lam strict, one-tied and two-tied (m = 4), x strict."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        lam = _from_gaps(10 ** rng.uniform(-1, 0.5, m - 1), rng.normal())
        x = _from_gaps(10 ** rng.uniform(-1, 0.5, m - 1), rng.normal())
        ties = i % (m - 1)
        for k in rng.permutation(m - 1)[:ties]:
            lam[k + 1] = lam[k]  # keep lam sorted: copy down the chain
        lam = np.sort(lam)[::-1]
        yield lam, x


# The chain sum and the product grid add the same terms in another order, and
# the chain sum forms node distances from the table offsets where the grid
# subtracts positions; on these inputs that moves log psi by a few ulps of
# max(1, |<lam, x>|, |log psi|), not by an error of the rule (8 at most on
# 1,000 rank-2 and 48 rank-3 evaluations).
ORACLE_ULPS = 16.0


def test_chain_sum_matches_tensor_oracle_on_every_rung():
    # the product grid costs about 5 s on the fifth rank-3 rung, so rank 3 runs
    # one pair each with lam strict, one-tied and two-tied, on the first five
    # rungs: on the three above them it costs 25 s to 5 min a pair.  Those
    # sum the same links on more nodes; the 512-bit test below checks them,
    # and the memory test checks their blocks against one block
    for m, count in ((3, 12), (4, 3)):
        for lam, x in _tied_cases(30 + m, m, count):
            for levels in sp._ITER_RUNGS[m][:5]:
                ref = tensor_log_psi(lam, x, levels)
                cur, _ = sp._psi_iter_once(lam, x, sp._chain_log_G(lam, x, levels))
                scale = max(1.0, abs(float(np.dot(lam, x))), abs(ref))
                assert abs(cur - ref) <= ORACLE_ULPS * sp._EPS * scale, (lam, x, levels, cur - ref)


def test_chain_ladder_stops_on_the_oracle_rung(monkeypatch):
    rungs = []
    real = sp._chain_log_G

    def counted(lv, xv, levels):
        rungs.append(levels)
        return real(lv, xv, levels)

    monkeypatch.setattr(sp, "_chain_log_G", counted)
    for m in (3, 4):
        for lam, x in _tied_cases(40 + m, m, 6):
            for tol in (1e-6, 1e-9, 1e-11):
                prev, stop = None, None
                for levels in sp._ITER_RUNGS[m]:
                    cur = tensor_log_psi(lam, x, levels)
                    if prev is not None and abs(cur - prev) <= max(tol, 64 * sp._EPS * (1 + abs(cur))):
                        stop = levels
                        break
                    prev = cur
                rungs.clear()
                sp.psi_iter_quadrature(lam, x, tol)
                assert stop is not None and rungs[-1] == stop, (lam, x, tol)


def _mp_rule_nodes(lo, hi, level):
    """Nodes and weights of the rule on [lo, hi] from the binary64 table, exactly."""
    order, panels = level
    xi, wi = leggauss(order)
    step = (hi - lo) / panels
    return [(lo + step * (p + (mp.mpf(a) + 1) / 2), step * mp.mpf(w) / 2)
            for p in range(panels) for a, w in zip(xi.tolist(), wi.tolist())]


def _mp_G2(a, hi, lo):
    return hi - lo if a == 0 else (mp.exp(a * hi) - mp.exp(a * lo)) / a


def mp_rule_log_psi(lv, xv, levels, prec=160):
    """Oracle: the chain rule of psi_iter_quadrature on one rung in mpmath,
    split at the shared coordinate like the binary64 sum (the split is exact)."""
    with mp.workprec(prec):
        lam = [mp.mpf(float(v)) for v in lv]
        X = [mp.mpf(float(v)) for v in xv]
        m = len(lam)
        mu = [v - lam[-1] for v in lam[:-1]]

        def link(nu, lo, hi, level, upper):
            c, a = nu[1], nu[0] - nu[1]
            Q = P = mp.mpf(0)
            for z, w in _mp_rule_nodes(lo, hi, level):
                e = w * mp.exp(c * z)
                Q += e
                P += e * (_mp_G2(a, z, lo) if upper else _mp_G2(a, hi, z))
            return Q, P

        if m == 3:
            (Q0, P0), (Q1, P1) = link(mu, X[1], X[0], levels[0], True), link(mu, X[2], X[1], levels[0], False)
            G = P0 * Q1 + Q0 * P1
        else:
            nu = [v - mu[-1] for v in mu[:-1]]
            Y = [_mp_rule_nodes(X[k + 1], X[k], levels[0]) for k in range(3)]
            G = mp.mpf(0)
            for y1, w1 in Y[1]:
                up = [(w0 * mp.exp(mu[2] * y0), link(nu, y1, y0, levels[1], True)) for y0, w0 in Y[0]]
                down = [(w2 * mp.exp(mu[2] * y2), link(nu, y2, y1, levels[1], False)) for y2, w2 in Y[2]]
                UC, UA = (mp.fsum(e * f[k] for e, f in up) for k in (0, 1))
                LB, LD = (mp.fsum(e * f[k] for e, f in down) for k in (0, 1))
                G += w1 * mp.exp(mu[2] * y1) * (UA * LB + UC * LD)
            G *= 2
        log_pi = mp.fsum(mp.log(X[i] - X[j]) for i in range(m) for j in range(i + 1, m))
        return mp.log(math.factorial(m - 1)) + lam[-1] * mp.fsum(X) + mp.log(G) - log_pi


def _bound_cases(seed, ranks, count):
    """Seeded strict and tied pairs: gap scales 1e-2 to 5 about 0, the same
    shifted by up to 100, and lam and x on unrelated scales."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = ranks[i % len(ranks)]
        kind = (i // len(ranks)) % 3
        if kind == 0:
            sl = sx = 10 ** rng.uniform(-2, math.log10(5))
            shift = 0.0
        elif kind == 1:
            sl = sx = 10 ** rng.uniform(-2, math.log10(5))
            shift = 10 ** rng.uniform(0, 2)
        else:
            sl, sx = 10 ** rng.uniform(-2, 1, 2)
            shift = rng.uniform(0, 3)
        lam = _from_gaps(sl * 10 ** rng.uniform(-0.5, 0.5, n), rng.normal() * shift)
        x = _from_gaps(sx * 10 ** rng.uniform(-0.5, 0.5, n), rng.normal() * shift)
        yield lam, x


def test_chain_rounding_bound_holds_against_the_rule_in_mpmath():
    # the bound _psi_iter_once returns covers the rounding of the binary64 sum
    # against the same rule in exact arithmetic, lam strict or tied; rank 3
    # on its two cheapest rungs (the mpmath rule costs K^2 k exponentials)
    rng = np.random.default_rng(51)
    cases = list(_bound_cases(52, (2, 3), 60))
    for i, (lam, x) in enumerate(cases):
        m = lam.size
        if i % 4 == 1:
            lam[1] = lam[0]
        rungs = sp._ITER_RUNGS[m] if m == 3 else sp._ITER_RUNGS[m][:2]
        levels = rungs[rng.integers(len(rungs))]
        cur, err = sp._psi_iter_once(lam, x, sp._chain_log_G(lam, x, levels))
        ref = mp_rule_log_psi(lam, x, levels)
        assert abs(mp.mpf(float(cur)) - ref) <= err, (lam, x, levels)


def test_iter_quadrature_error_covers_512_bit_reference():
    # the declared error (rung difference plus the rounding bound; the closed
    # form's rounding bound at rank 1) covers the distance to the 512-bit
    # determinant, for strict pairs at ranks 1-3 and tol 1e-6, 1e-9 and 1e-11;
    # every case converges
    for i, (lam, x) in enumerate(_bound_cases(53, (1, 2, 3), 900)):
        tol = (1e-6, 1e-9, 1e-11)[(i // 9) % 3]
        res = sp.psi_iter_quadrature(lam, x, tol)
        ref = sp.psi_alt_sum(lam, x, 512)
        assert abs(res.log_value - ref.log_value) <= res.abs_log_error + ref.abs_log_error, (lam, x, tol)
    # rank 1 far from the origin: the terms lam_2 (x_1 + x_2) and a x_1 of the
    # closed form cancel, which a floor of 8 eps (1 + |log psi|) missed
    for lam, x in (([1.6, -1.6], [-104.4, -106.7]),
                   ([1.63499514, -1.56768542], [-104.3833824, -106.65424962])):
        res = sp.psi_iter_quadrature(lam, x)
        ref = sp.psi_alt_sum(lam, x, 512)
        assert abs(res.log_value - ref.log_value) <= res.abs_log_error + ref.abs_log_error


def test_chain_rounding_model():
    # the bound takes numpy's exp, log, log1p and expm1 as faithful (error
    # below one ulp) and the code's Legendre table as exactly antisymmetric, so the
    # reversed offsets are the distances to the upper end
    rng = np.random.default_rng(54)
    samples = {
        np.exp: (mp.exp, np.concatenate([rng.uniform(-700, 700, 500), rng.uniform(-5, 5, 500)])),
        np.log: (mp.log, 10 ** rng.uniform(-300, 300, 1000)),
        np.log1p: (mp.log1p, np.concatenate([-10 ** rng.uniform(-300, -0.01, 500), 10 ** rng.uniform(-300, 3, 500)])),
        np.expm1: (mp.expm1, np.concatenate([-10 ** rng.uniform(-300, 2, 500), 10 ** rng.uniform(-300, 2, 500)])),
    }
    with mp.workprec(120):
        for f, (ref, xs) in samples.items():
            for a, b in zip(xs.tolist(), f(xs).tolist()):
                exact = ref(mp.mpf(a))
                assert abs(mp.mpf(b) - exact) < np.spacing(abs(float(exact))), (f, a)
    orders = {o for rungs in sp._ITER_RUNGS.values() for levels in rungs for o, _ in levels}
    for order in orders:
        xi, _ = leggauss(order)
        assert np.array_equal(xi, -xi[::-1])


def test_chain_quadrature_top_rung_memory(monkeypatch):
    # the product grid peaked at 207 MiB on the rung ((40, 1), (26, 1)); the
    # chain sum holds K^2 k values per factor, in blocks of upper nodes that
    # change no bit of the result
    lam = np.array([2.0, 1.0, 1.0, 0.0])
    x = np.array([3.0, 1.7, 0.4, 0.0])
    top = sp._ITER_RUNGS[4][-1]
    assert top == ((96, 1), (56, 1))
    blocked = sp._chain_log_G(lam, x, top)  # also caches the Legendre tables
    tracemalloc.start()
    try:
        sp._chain_log_G(lam, x, top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    monkeypatch.setattr(sp, "_CHAIN_VALUES", 2 ** 30)
    assert sp._chain_log_G(lam, x, top) == blocked
