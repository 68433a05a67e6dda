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
    assert p.min_gap() == 0.0
    with pytest.raises(DominanceError):
        rs.ChamberPoint((1.0, 2.0))


def cycle_sign(perm):
    """Oracle: the parity of a permutation from its cycle decomposition."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def table_rows(n):
    """The rows of the permutation table of S_{n+1}, as a (|W|, n+1) array."""
    return np.concatenate([rows for rows, _signs in rs.perm_sign_chunks(n + 1)])


def test_weyl_enumeration_counts_and_signs():
    for n in (1, 2, 3):
        rows, signs = zip(*rs.perm_sign_chunks(n + 1))
        rows, signs = np.concatenate(rows), np.concatenate(signs)
        assert len(rows) == math.factorial(n + 1)
        assert len({tuple(r) for r in rows}) == len(rows)
        assert signs.sum() == 0
    with pytest.raises(RankTooLarge):
        rs.remark_bound_constant(9)


def test_perm_sign_chunks_match_scalar_parity():
    for m in (2, 3, 4, 5):
        rows_all = []
        for rows, signs in rs.perm_sign_chunks(m):
            for r, s in zip(rows, signs):
                assert cycle_sign(tuple(r)) == int(s)
                rows_all.append(tuple(r))
        assert len(rows_all) == math.factorial(m)


def brute_alt_sum(a, b, scale):
    """sum_w eps(w) exp(scale (<a, w b> - <a, b>)), one permutation at a time."""
    m = len(a)
    base = sum(a[j] * b[j] for j in range(m))
    total = 0.0
    for perm in itertools.permutations(range(m)):
        e = scale * (sum(a[j] * b[perm[j]] for j in range(m)) - base)
        total += cycle_sign(perm) * cmath.exp(e)
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
    """Oracle: the largest row sum of the decomposition coefficients of the
    fundamental weights, from their definition (direct_deficits)."""
    rows = np.array(list(itertools.permutations(range(n + 1))))
    return float(direct_deficits(rows).sum(axis=2).max(initial=0.0))


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


def simple_roots(n):
    """The simple roots alpha_i = e_i - e_{i+1} as the rows of an (n, n+1) array."""
    simple = np.zeros((n, n + 1))
    for i in range(n):
        simple[i, i] = 1.0
        simple[i, i + 1] = -1.0
    return simple


def test_decompose_diff_reconstruction_and_nonnegativity():
    # Y - wY = sum_i c_i alpha_i with c = N_w alpha(Y) >= 0 from the deficit
    # table, wY = Y[P] for a table row P; the partial sums of Y - wY agree
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        rows, _signs, tab = rs._perm_table(n + 1)
        simple = simple_roots(n)
        for _ in range(40):
            gaps = rng.uniform(0.0, 3.0, n)
            y = np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]])
            y += rng.normal()
            tol = 1e-12 * (1 + np.abs(y).max())
            for P, N in zip(rows, tab.transpose(2, 0, 1)):
                c = N @ (y[:-1] - y[1:])
                assert np.all(c >= 0.0)
                assert np.allclose(c, np.cumsum(y - y[P])[:-1], atol=tol)
                assert np.allclose(c @ simple, y - y[P], atol=tol)


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
            P, val = rs.min_weyl_pairing(lam, x)
            brute = min(
                float(np.dot(lam, x[list(p)])) for p in itertools.permutations(range(n + 1))
            )
            assert abs(val - brute) < 1e-12
            assert abs(val - rs.min_pairing_value(lam, x)) < 1e-12
            assert abs(float(np.dot(lam, x[P])) - val) < 1e-12  # sum_j lam_j x_{P[j]}


def test_pairing_zero_cases():
    _P, val = rs.min_weyl_pairing([1.0, 0.0], [1.0, 0.0])
    assert abs(val) < 1e-15  # reversed pairing <(0,1),(1,0)> = 0
    _P2, v2 = rs.min_weyl_pairing([0.0, 0.0], [5.0, -1.0])
    assert abs(v2) < 1e-15


def test_dominance_maximality():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        lam = np.sort(rng.uniform(0, 3, n + 1))[::-1]
        x = np.sort(rng.uniform(0, 3, n + 1))[::-1]
        top = float(np.dot(lam, x))
        for P in table_rows(n):
            assert float(np.dot(lam[P], x)) <= top + 1e-12


def test_pairing_inequality_with_decomposition():
    # <lam - w lam, X> >= alpha_i(lam) alpha_i(X) for every i with c_i > 0
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            gl = rng.uniform(0.05, 2.0, n)
            gx = rng.uniform(0.05, 2.0, n)
            lam = np.concatenate([np.cumsum(gl[::-1])[::-1], [0.0]])
            x = np.concatenate([np.cumsum(gx[::-1])[::-1], [0.0]])
            for P in table_rows(n)[1:]:  # all but the identity
                c = np.cumsum(lam - lam[P])[:-1]
                lhs = float(np.dot(lam - lam[P], x))
                for i in range(n):
                    if c[i] > 1e-11:
                        assert lhs >= gl[i] * gx[i] - 1e-9
