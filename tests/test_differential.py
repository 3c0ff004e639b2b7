"""The float primitives against mpmath at 30 digits (skipped without mpmath)."""

import pytest

from qkit import QParam, Truncation, qpoch_inf
from qkit.series import poch_gauss

mp = pytest.importorskip("mpmath")

TR = Truncation(tol=1e-15)


@pytest.fixture(autouse=True)
def thirty_digits():
    with mp.workdps(30):
        yield


def rel(value, exact):
    return float(abs(value - exact) / abs(exact))


@pytest.mark.parametrize("qv", [0.1, 0.5, 0.9, 0.97])
def test_qpoch_inf_matches_mpmath(qv):
    q, mq = QParam(qv), mp.mpf(qv)
    for a in (0.3, -0.7, 0.99, -3.0, 0.4 + 0.5j, 2.5 - 1j, 20j):
        assert rel(qpoch_inf(a, q, TR), mp.qp(mp.mpc(a), mq)) < 1e-13, a


@pytest.mark.parametrize("qv", [0.3, 0.55, 0.9])
def test_poch_gauss_matches_mpmath(qv):
    q, mq = QParam(qv), mp.mpf(qv)
    for w in (0.3 + 0.2j, -0.4, 5 - 2j, 40j, -25.0):
        for beta in (-4.5, 0.7, 3.0):
            b = mp.mpf(beta)
            exact = mq ** (b * b / 2) * mp.qp(mp.mpc(w) * mq**b, mq)
            assert rel(poch_gauss(w, beta, q, TR), exact) < 1e-13, (w, beta)
