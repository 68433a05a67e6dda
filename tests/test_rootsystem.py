import cmath
import itertools
import math

import numpy as np
import pytest

from weylheat import rootsystem as rs
from weylheat.errors import DominanceError, RankTooLarge


def test_positive_roots_small_ranks():
    assert rs.positive_roots(1) == [(1, 2)]
    assert rs.positive_roots(2) == [(1, 2), (1, 3), (2, 3)]
    assert len(rs.positive_roots(3)) == 6
    for n in range(1, 6):
        pairs = rs.positive_roots(n)
        assert len(pairs) == rs.gamma(n)
        assert pairs == sorted(pairs)


def test_rho_coordinates():
    assert rs.rho(1).coords == (1.0, -1.0)
    assert rs.rho(2).coords == (2.0, 0.0, -2.0)
    # rho is the sum of all positive roots
    for n in (1, 2, 3, 4):
        acc = np.zeros(n + 1)
        for i, j in rs.positive_roots(n):
            acc[i - 1] += 1.0
            acc[j - 1] -= 1.0
        assert np.array_equal(acc, rs.rho(n).array())


def test_pi_values():
    assert rs.pi([1.0, 0.0]) == 1.0
    assert rs.pi([2.0, 1.0, 0.0]) == 2.0
    assert rs.pi([1.0, 1.0]) == 0.0
    assert rs.log_pi([1.0, 1.0]) == -math.inf


def test_chamber_point_validation():
    p = rs.ChamberPoint((2.0, 1.0, 1.0))
    assert p.rank == 2
    assert not p.is_strictly_dominant()
    with pytest.raises(DominanceError):
        rs.ChamberPoint((1.0, 2.0))
    q, was_sorted = rs.ChamberPoint.from_unsorted([1.0, 2.0])
    assert q.coords == (2.0, 1.0) and not was_sorted


def test_weyl_enumeration_counts_and_signs():
    for n in (1, 2, 3):
        elems = list(rs.weyl_elements(n))
        assert len(elems) == math.factorial(n + 2 - 1)
        assert len({e.perm for e in elems}) == len(elems)
        assert sum(e.sign for e in elems) == 0
    with pytest.raises(RankTooLarge):
        list(rs.weyl_elements(9))


def test_weyl_action_convention():
    w = rs.WeylElement((1, 2, 0), rs.permutation_sign((1, 2, 0)))
    x = np.array([10.0, 20.0, 30.0])
    out = w.apply(x)
    # slot j goes to slot perm[j]
    assert out.tolist() == [30.0, 10.0, 20.0]


def test_perm_sign_chunks_match_scalar_parity():
    for m in (2, 3, 4, 5):
        rows_all = []
        for rows, signs in rs.perm_sign_chunks(m):
            for r, s in zip(rows, signs):
                assert rs.permutation_sign(tuple(r)) == int(s)
                rows_all.append(tuple(r))
        assert len(rows_all) == math.factorial(m)


def brute_alt_sum(a, b, scale):
    """sum_w eps(w) exp(scale (<a, w b> - <a, b>)), one permutation at a time."""
    m = len(a)
    base = sum(a[j] * b[j] for j in range(m))
    total = 0.0
    for perm in itertools.permutations(range(m)):
        e = scale * (sum(a[j] * b[perm[j]] for j in range(m)) - base)
        total += rs.permutation_sign(perm) * cmath.exp(e)
    return total


def kernel_sum(a, b, scale=1.0):
    return rs.weyl_alt_terms(a, b, scale).sum(axis=-1)


def test_weyl_alt_terms_match_bruteforce_sum():
    rng = np.random.default_rng(31)
    for m in (2, 3, 4):
        grid = np.sort(rng.uniform(-2.0, 3.0, (4, 5, m)), axis=-1)[..., ::-1]
        lams = np.sort(rng.uniform(-2.0, 3.0, (6, m)), axis=-1)[:, ::-1]
        xs = np.sort(rng.uniform(-2.0, 3.0, (6, m)), axis=-1)[:, ::-1]
        a, b = lams[0], xs[0]
        for scale in (1.0, 1.0 / (2.0 * 0.7), 1j):  # psi, heat images at t = 0.7, Fourier
            got = kernel_sum(a, b, scale)
            assert got == pytest.approx(brute_alt_sum(a, b, scale), rel=1e-12, abs=1e-13)
            # a grid batch on either side: the single vector is permuted instead
            for args in ((grid, b), (b, grid)):
                got = kernel_sum(*args, scale)
                assert got.shape == grid.shape[:-1]
                for idx in np.ndindex(grid.shape[:-1]):
                    want = brute_alt_sum(grid[idx], b, scale)
                    assert got[idx] == pytest.approx(want, rel=1e-12, abs=1e-13)
            # row-paired batches
            got = kernel_sum(lams, xs, scale)
            for i in range(lams.shape[0]):
                want = brute_alt_sum(lams[i], xs[i], scale)
                assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-13)
        assert rs.weyl_alt_terms(a, b).shape == (math.factorial(m),)


def direct_deficits(rows):
    """Oracle from the definition, laid out [w, k, j]: N_w[k, j] is the k-th
    simple-root coefficient sum_{i<=k} (b - b[P])_i of b = omega_j, the vector
    with alpha(omega_j) = e_j."""
    m = rows.shape[1]
    omega = (np.arange(m)[:, None] <= np.arange(m - 1)).astype(float)  # [i, j]
    return np.cumsum(omega[None] - omega[rows], axis=1)[:, :-1, :]


def test_deficit_table_is_nonnegative_integer_and_gives_the_pairing():
    rng = np.random.default_rng(41)
    for m in range(2, 8):
        rows, _signs, tab = rs._perm_table(m)
        assert tab.min() >= 0.0 and np.array_equal(tab, np.round(tab))
        assert np.array_equal(tab, direct_deficits(rows).transpose(1, 2, 0))
        a = np.sort(rng.uniform(-3.0, 3.0, m))[::-1]
        b = np.sort(rng.uniform(-3.0, 3.0, m))[::-1]
        (D, _), = rs._weyl_deficits(a, b)
        want = float(a @ b) - b[rows] @ a  # <a, b - b[P]>
        assert np.allclose(D, want, rtol=0.0, atol=1e-13)
        assert D.min() >= 0.0


def test_streamed_deficit_blocks_match_direct_construction():
    for m in (8, 9):
        count = 0
        for rows, _signs in rs.perm_sign_chunks(m):
            assert rows.shape[0] <= math.factorial(7)
            assert np.array_equal(rs._deficit_block(rows), direct_deficits(rows).transpose(1, 2, 0))
            count += rows.shape[0]
        assert count == math.factorial(m)


def remark_bound_by_decomposition(n):
    """Oracle: the largest row sum of decompose_diff over the fundamental weights."""
    weights = [rs.fundamental_weight(n, k) for k in range(1, n + 1)]
    c_max = 0.0
    for w in rs.weyl_elements(n):
        cols = np.stack([rs.decompose_diff(om, w) for om in weights], axis=1)
        c_max = max(c_max, float(cols.sum(axis=1).max(initial=0.0)))
    return c_max


def test_remark_bound_constant_matches_decomposition_loop():
    for n in range(1, 7):
        assert rs.remark_bound_constant(n) == remark_bound_by_decomposition(n)


def test_non_finite_coordinates_rejected():
    for bad in ([math.nan, 0.0], [1.0, math.nan], [math.inf, 0.0], [0.0, -math.inf],
                [math.inf, math.inf], [math.nan]):
        with pytest.raises(DominanceError, match="finite"):
            rs.as_coords(bad)
        if len(bad) > 1:
            with pytest.raises(DominanceError, match="finite"):
                rs.ChamberPoint(tuple(bad))
    with pytest.raises(DominanceError, match="decreasing"):
        rs.as_coords([0.0, 1.0])


def test_decompose_diff_identity_and_transposition():
    ident = rs.WeylElement((0, 1), 1)
    assert np.allclose(rs.decompose_diff([3.0, 1.0], ident), [0.0])
    swap = rs.WeylElement((1, 0), -1)
    y = np.array([3.0, 1.0])
    c = rs.decompose_diff(y, swap)
    assert np.allclose(c, [2.0])  # y1 - y2


def test_decompose_diff_reconstruction_and_nonnegativity():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        m = n + 1
        simple = np.zeros((n, m))
        for i in range(n):
            simple[i, i] = 1.0
            simple[i, i + 1] = -1.0
        for _ in range(40):
            gaps = rng.uniform(0.0, 3.0, n)
            y = np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]])
            y += rng.normal()
            for w in rs.weyl_elements(n):
                c = rs.decompose_diff(y, w)
                assert np.all(c >= -1e-12 * (1 + np.abs(y).max()))
                recon = c @ simple
                assert np.allclose(recon, y - w.apply(y), atol=1e-12 * (1 + np.abs(y).max()))


def test_decompose_solves_linear_system_n2():
    # brute-force least squares against the simple-root matrix
    y = np.array([2.0, 1.0, 0.0])
    w = rs.WeylElement((1, 2, 0), rs.permutation_sign((1, 2, 0)))  # 3-cycle
    simple = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    c_ls, *_ = np.linalg.lstsq(simple.T, y - w.apply(y), rcond=None)
    c = rs.decompose_diff(y, w)
    assert np.allclose(c, c_ls, atol=1e-12)
    assert np.all(c >= 0.0)


def test_fundamental_weights_are_dual_to_simple_roots():
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            om = rs.fundamental_weight(n, k).array()
            gaps = om[:-1] - om[1:]
            expect = np.zeros(n)
            expect[k - 1] = 1.0
            assert np.allclose(gaps, expect, atol=1e-14)


def test_remark_bound_constant_finite_and_integer():
    for n in (1, 2, 3, 4):
        c = rs.remark_bound_constant(n)
        assert math.isfinite(c) and c >= 1.0
        assert abs(c - round(c)) < 1e-9  # integer combinations of simple roots


def test_min_weyl_pairing_against_bruteforce_and_reversal():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(10):
            lam = np.sort(rng.uniform(-2, 4, n + 1))[::-1]
            x = np.sort(rng.uniform(-2, 4, n + 1))[::-1]
            w, val = rs.min_weyl_pairing(lam, x)
            brute = min(
                float(np.dot(e.apply(lam), x)) for e in rs.weyl_elements(n)
            )
            assert abs(val - brute) < 1e-12
            assert abs(val - rs.min_pairing_value(lam, x)) < 1e-12
            assert abs(float(np.dot(w.apply(lam), x)) - val) < 1e-12


def test_pairing_zero_cases():
    w, val = rs.min_weyl_pairing([1.0, 0.0], [1.0, 0.0])
    assert abs(val) < 1e-15  # reversed pairing <(0,1),(1,0)> = 0
    _w2, v2 = rs.min_weyl_pairing([0.0, 0.0], [5.0, -1.0])
    assert abs(v2) < 1e-15


def test_dominance_maximality():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        lam = np.sort(rng.uniform(0, 3, n + 1))[::-1]
        x = np.sort(rng.uniform(0, 3, n + 1))[::-1]
        top = float(np.dot(lam, x))
        for w in rs.weyl_elements(n):
            assert float(np.dot(w.apply(lam), x)) <= top + 1e-12


def test_pairing_inequality_with_decomposition():
    # <lam - w lam, X> >= alpha_i(lam) alpha_i(X) for every i with c_i > 0
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            gl = rng.uniform(0.05, 2.0, n)
            gx = rng.uniform(0.05, 2.0, n)
            lam = np.concatenate([np.cumsum(gl[::-1])[::-1], [0.0]])
            x = np.concatenate([np.cumsum(gx[::-1])[::-1], [0.0]])
            for w in rs.weyl_elements(n):
                if w.is_identity:
                    continue
                c = rs.decompose_diff(lam, w)
                lhs = float(np.dot(lam - w.apply(lam), x))
                for i in range(n):
                    if c[i] > 1e-11:
                        assert lhs >= gl[i] * gx[i] - 1e-9
