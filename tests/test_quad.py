import mpmath as mp
import numpy as np

from weylheat import _quad
from weylheat import factorization as fz
from weylheat import spherical as sp

# orders the library asks for: the chain quadrature ladders, factorization's
# two ladders, heat's mass and semigroup rules (20-32, written inline there)
# and the ends of the Fourier rule's range (72 to 320)
ORDERS = sorted(
    {o for rungs in sp._ITER_RUNGS.values() for levels in rungs for o, _ in levels}
    | {o for o, _ in fz._RUNGS + fz._RUNGS_1D}
    | {20, 24, 28, 32, 72, 320}
)


def mp_legendre_half(order, start, prec=300):
    """(node, weight) pairs at prec bits for the nonnegative nodes: Newton on
    the three-term recurrence from the binary64 nodes, w = 2/((1-x^2) P_n'^2)."""
    out = []
    with mp.workprec(prec):
        for a in start:
            x = mp.mpf(a)
            for step in range(4):
                p0, p1 = mp.mpf(1), x
                for k in range(1, order):
                    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
                dp = order * (p0 - x * p1) / (1 - x * x)
                if step < 3:
                    x -= p1 / dp
            out.append((x, 2 / ((1 - x * x) * dp * dp)))
    return out


def test_legendre_table_against_300_bit_reference():
    # nodes within an ulp, weights within 16 u (numpy's leggauss is off by up
    # to 11,600 u in the end weights at orders 48 and 64)
    u = 2.0 ** -53
    for order in ORDERS:
        x, w = _quad.leggauss(order)
        assert x.size == w.size == order
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        half = slice(order // 2, None)
        start = np.polynomial.legendre.leggauss(order)[0][half].tolist()
        for a, b, (xr, wr) in zip(x[half].tolist(), w[half].tolist(),
                                  mp_legendre_half(order, start)):
            if xr == 0:
                assert a == 0.0
            else:
                assert abs(mp.mpf(a) - xr) <= np.spacing(float(xr)), (order, a)
            assert abs(mp.mpf(b) - wr) <= 16 * u * wr, (order, b)
        assert abs(float(w.sum()) - 2.0) <= order * 4 * u
