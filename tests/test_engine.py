"""Tests for the batched theta-axis engine behind run_sweep and run_cycle.

A sweep over N angles must give, float for float and byte for byte, what N
single-angle runs give; every per-angle gate must be able to fail one row
of a stack while the other rows go on, naming the failing stroke.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import ottosim.optics as optics_mod
import ottosim.runner as runner_mod
from ottosim.circuit import compile_program, parse
from ottosim.runner import (
    DEFAULT_THETAS,
    SNAPSHOT_LABELS,
    SweepConfig,
    run_cycle,
    run_sweep,
)

GRID_200 = tuple(45.0 * k / 199 for k in range(200))
ROW = DEFAULT_THETAS.index(22.5)  # position of the corrupted row in every stack


def _row_key(row):
    ledger = row.ledger
    values = [getattr(ledger, name) for name in ledger.__dataclass_fields__]
    return (
        [repr(v) for v in values + [row.theta_deg, row.max_delta_vs_closed_form]],
        {label: state.matrix.tobytes() for label, state in row.snapshots.items()},
    )


@pytest.mark.parametrize(
    "config",
    [
        SweepConfig(),
        SweepConfig(theta_list_deg=GRID_200),
        SweepConfig(n=1.5, x_c=0.5, omega0_tau=0.3),
        SweepConfig(n=7.3, x_c=10.0, omega0_tau=2.0),
        SweepConfig(x_c=40.0),
    ],
    ids=["default", "grid200", "n1.5-xc0.5", "n7.3-xc10", "xc40"],
)
def test_sweep_equals_single_angle_runs(config):
    whole = run_sweep(config)
    by_theta = {row.theta_deg: row for row in whole.rows}
    failures = {}
    for theta in config.theta_list_deg:
        single = run_sweep(replace(config, theta_list_deg=(theta,)))
        failures.update(single.failures)
        assert [_row_key(row) for row in single.rows] == (
            [_row_key(by_theta[theta])] if theta in by_theta else [])
    assert list(failures.items()) == list(whole.failures.items())
    if config.x_c == 40.0:  # tanh(40) rounds to 1: the cold state is pure
        assert list(whole.failures) == ["8", "16", "22.5", "29", "37", "45"]


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
def test_run_cycle_is_the_single_row_of_a_sweep():
    for config in (SweepConfig(), SweepConfig(noise_sigma=0.1, seed=11)):
        for theta in DEFAULT_THETAS:
            (row,) = run_sweep(replace(config, theta_list_deg=(theta,))).rows
            first = _row_key(run_cycle(theta, config))
            assert first == _row_key(row) == _row_key(run_cycle(theta, config))
    with pytest.raises(runner_mod.CycleError, match="stroke D->A: support violation"):
        run_cycle(22.5, SweepConfig(x_c=40.0))


def test_snapshots_match_circuit_path():
    thetas = tuple(45.0 * k / 49 for k in range(50))
    report = run_sweep(SweepConfig(theta_list_deg=thetas))
    assert len(report.rows) == 50
    for row in report.rows:
        angle = repr(row.theta_deg)
        source = (
            "init thermal 3.0\ntomo TA\nexpand 2.0 180.0\ntomo TB\n"
            f"pd {angle}\ntomo TC\ncompress 2.0 180.0\ntomo TD\nipd {angle}\ntomo TA2\n"
        )
        snaps = compile_program(parse(source)).run().snapshots
        for label in SNAPSHOT_LABELS:
            gap = np.abs(snaps[label].matrix - row.snapshots[label].matrix).max()
            assert gap <= 1e-12, (row.theta_deg, label, gap)


def test_empty_sweep():
    report = run_sweep(SweepConfig(theta_list_deg=()))
    assert report.rows == () and report.failures == {}


def test_sweep_wide_failure_fails_every_row():
    for omega0_tau, message in ((-1.0, "stroke A->B: omega0*tau = -1 must be"),
                                (math.inf, "stroke A->B: Jones parameter (n + 1) omega0*tau")):
        report = run_sweep(SweepConfig(omega0_tau=omega0_tau))
        assert report.rows == ()
        assert set(report.failures) == {f"{t:.12g}" for t in DEFAULT_THETAS}
        assert all(m.startswith(message) for m in report.failures.values())


# -- one corrupted row per gate ------------------------------------------------


def _corrupt_nth_stack(monkeypatch, owner, name, nth, change):
    """Patch ``owner.name`` so that its nth call on a stack of all rows has row ROW changed."""
    original = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        if np.ndim(out) == 3 and len(out) == len(DEFAULT_THETAS):
            calls.append(None)
            if len(calls) == nth:
                out = out.copy()
                out[ROW] = change(out[ROW])
        return out

    monkeypatch.setattr(owner, name, patched)


def _corrupt_block(monkeypatch, inverse, change):
    """Patch the engine's block builder: row ROW of the PD (or IPD) stack changed, no error."""
    original = runner_mod.dephasing_stack

    def patched(theta_v, *args, **kwargs):
        u, kraus, errors = original(theta_v, *args, **kwargs)
        if kwargs.get("inverse", False) == inverse:
            u = u.copy()
            u[ROW] = change(u[ROW])
        return u, kraus, errors

    monkeypatch.setattr(runner_mod, "dephasing_stack", patched)


def _break_kraus(monkeypatch):
    original = optics_mod._kraus_pairs

    def patched(theta_v):
        kraus = original(theta_v).copy()
        kraus[ROW, 1] *= 1.01
        return kraus

    monkeypatch.setattr(optics_mod, "_kraus_pairs", patched)


def _pure(_):
    return np.array([[0.5, -0.5j], [0.5j, 0.5]])


GATES = {
    "arm plate": (lambda mp: _corrupt_nth_stack(mp, optics_mod, "_hwp_matrix", 1,
                                                lambda m: 1.01 * m),
                  "stroke B->C: HWP element not unitary"),
    "kraus": (_break_kraus, "stroke B->C: incomplete Kraus set"),
    "pd unitarity": (lambda mp: _corrupt_nth_stack(mp, optics_mod, "_arm_stage", 1,
                                                   lambda m: 1.01 * m),
                     "stroke B->C: PD block not unitary"),
    "joint state": (lambda mp: _corrupt_block(mp, False, lambda u: 1.01 * u),
                    "stroke B->C: trace"),
    "reduced state": (lambda mp: _corrupt_nth_stack(mp, runner_mod, "trace_path", 1,
                                                    lambda m: m + [[0, 1e-6], [0, 0]]),
                      "stroke B->C: not Hermitian"),
    "hot target": (lambda mp: _corrupt_nth_stack(mp, runner_mod, "thermal_matrices", 1,
                                                 lambda m: np.diag([1.1, -0.1])),
                   "stroke B->C: not positive semidefinite"),
    "hot support": (lambda mp: _corrupt_nth_stack(mp, runner_mod, "thermal_matrices", 1,
                                                  _pure),
                    "stroke B->C: support violation"),
    "spectrum": (lambda mp: _corrupt_nth_stack(mp, runner_mod, "trace_path", 2,
                                               lambda m: 0.5 * np.eye(2)),
                 "stroke C->D: not unitary, spectrum moved"),
    "ipd unitarity": (lambda mp: _corrupt_nth_stack(mp, optics_mod, "_arm_stage", 2,
                                                    lambda m: 1.01 * m),
                      "stroke D->A: IPD block not unitary"),
    "closure": (lambda mp: _corrupt_block(mp, True, lambda u: np.eye(4)),
                "stroke D->A: cycle failed to close"),
}


@pytest.mark.parametrize("gate", list(GATES))
def test_gate_fails_only_its_row(monkeypatch, gate):
    clean = run_sweep()
    corrupt, message = GATES[gate]
    corrupt(monkeypatch)
    report = run_sweep()
    assert list(report.failures) == ["22.5"]
    assert report.failures["22.5"].startswith(message), report.failures["22.5"]
    assert [_row_key(row) for row in report.rows] == [
        _row_key(row) for row in clean.rows if row.theta_deg != 22.5]


def test_support_gate_on_a_pure_cold_state():
    report = run_sweep(SweepConfig(theta_list_deg=(0.0, 22.5), x_c=40.0))
    assert [row.theta_deg for row in report.rows] == [0.0]
    assert report.failures == {
        "22.5": "stroke D->A: support violation: weight 0.146 on eigenvalue 0"}


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
def test_closure_checked_under_noise(monkeypatch):
    config = SweepConfig(noise_sigma=0.1, seed=3)
    clean = run_sweep(config)
    _corrupt_block(monkeypatch, True, lambda u: np.eye(4))
    report = run_sweep(config)
    assert list(report.failures) == ["22.5"]
    assert report.failures["22.5"].startswith("stroke D->A: cycle failed to close, defect")
    assert [_row_key(row) for row in report.rows] == [
        _row_key(row) for row in clean.rows if row.theta_deg != 22.5]
