"""The engine's ledger against the 60-digit closed-form reference of ``oracle``.

At the seven default angles every printed (``%.12g``) digit of Q_BC, Q_DA, Sigma_e and Sigma_c
is the reference's.  The property below draws n in (1, 1e6], x_c in [1e-3, 18], omega0 tau in
[0, 2 pi] and angles near 0 and anywhere in [0, 45] deg, and bounds W and Q in ulps of the
energy scale and Sigma absolutely by ``oracle.BOUNDS``.  r is not bounded here: near
theta_V = 0 at large x_c, atanh of the float kappa tanh(x_c) is ill-conditioned.
"""

import math
from decimal import Decimal

import pytest

from oracle import BOUNDS, ledger
from ottosim.runner import DEFAULT_THETAS, SweepConfig, run_sweep

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def test_default_sweep_prints_the_reference_digits():
    report = run_sweep()
    assert len(report.rows) == len(DEFAULT_THETAS)
    for row in report.rows:
        truth = ledger(2.0, 3.0, row.ledger.kappa)
        for column in ("Q_BC", "Q_DA", "Sigma_e", "Sigma_c"):
            assert "%.12g" % getattr(row.ledger, column) == "%.12g" % float(truth[column]), (
                row.theta_deg, column)


@hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
@hypothesis.given(
    n=st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    x_c=st.floats(min_value=1e-3, max_value=18.0),
    omega0_tau=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    thetas=st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e-3),
                              st.floats(min_value=0.0, max_value=45.0)), min_size=1, max_size=6),
)
def test_ledger_is_within_its_bounds_of_the_reference(n, x_c, omega0_tau, thetas):
    report = run_sweep(SweepConfig(theta_list_deg=thetas, n=n, x_c=x_c, omega0_tau=omega0_tau))
    assert report.failures == {}
    energy = BOUNDS["energy_ulps"] * math.ulp(max(1.0, n))
    for row in report.rows:
        truth = ledger(n, x_c, row.ledger.kappa)
        for column, bound in (("W_AB", energy), ("Q_BC", energy), ("W_CD", energy),
                              ("Q_DA", energy), ("Sigma_e", BOUNDS["sigma_abs"]),
                              ("Sigma_c", BOUNDS["sigma_abs"])):
            error = abs(Decimal(getattr(row.ledger, column)) - truth[column])
            assert error <= bound, (row.theta_deg, column, float(error))
