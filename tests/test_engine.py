"""Tests for the batched theta-axis engine behind run_sweep and run_cycle.

A sweep over N angles must give, float for float and byte for byte, what N
single-angle runs give; every per-angle gate must be able to fail one row
of a stack while the other rows go on, naming the failing stroke.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ottosim.optics as optics_mod
import ottosim.runner as runner_mod
from ottosim.circuit import compile_program, parse
from ottosim.optics import kappa_from_theta_deg
from ottosim.qcore import QuantumValueError, entropies, spectra
from ottosim.runner import (
    DEFAULT_THETAS,
    SNAPSHOT_LABELS,
    CycleResult,
    SweepConfig,
    SweepReport,
    emit,
    run_cycle,
    run_sweep,
)
from ottosim.thermo import CycleLedger, hamiltonian, thermal_matrices
from ottosim.tomography import measure_all, reconstruct, stokes_from_intensities

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
            assert snaps[label].matrix.tobytes() == row.snapshots[label].matrix.tobytes(), (
                row.theta_deg, label)


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


def test_spectrum_and_closure_gates_fail_nan():
    rho = np.array([[[0.75, 0.0], [0.0, 0.25]]], dtype=complex)
    nan = np.full_like(rho, np.nan)
    lam = np.linalg.eigvalsh(rho)
    assert runner_mod._spectrum_errors(lam, lam) == {}
    assert runner_mod._spectrum_errors(lam, np.full_like(lam, np.nan)) == {
        0: "not unitary, spectrum moved by nan"}
    assert runner_mod._closure_errors(rho, rho[0]) == {}
    assert runner_mod._closure_errors(nan, rho[0]) == {0: "cycle failed to close, defect nan"}


def _per_tap_tomography(config):
    """Each row's exact snapshots through measure_all -> stokes_from_intensities
    -> reconstruct, tap by tap on the row's substream: snapshot bytes and failures."""
    exact = {row.theta_deg: row for row in run_sweep(replace(config, noise_sigma=0.0)).rows}
    streams = np.random.SeedSequence(config.seed).spawn(len(config.theta_list_deg))
    snapshots, failures = {}, {}
    for theta, stream in zip(config.theta_list_deg, streams):
        rng = np.random.default_rng(stream)
        try:
            snapshots[theta] = {
                label: reconstruct(stokes_from_intensities(
                    measure_all(state, config.noise_sigma, rng))).matrix.tobytes()
                for label, state in exact[theta].snapshots.items()}
        except QuantumValueError as exc:
            failures[f"{theta:.12g}"] = str(exc)
    return snapshots, failures


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("sigma", [0.02, 0.1, 0.25, 0.5, 1.0])
def test_noisy_snapshots_equal_per_tap_tomography(sigma):
    failed = 0
    for seed in (0, 1, 2):
        config = SweepConfig(noise_sigma=sigma, seed=seed)
        (snapshots, failures), expected_warnings = _recorded(_per_tap_tomography, config)
        report, caught = _recorded(run_sweep, config)
        assert report.failures == failures
        assert {row.theta_deg: {label: state.matrix.tobytes()
                                for label, state in row.snapshots.items()}
                for row in report.rows} == snapshots
        assert caught == expected_warnings
        failed += len(failures)
    if sigma == 1.0:  # a dark basis stops some rows; the check above compared their messages
        assert failed > 0


# -- the columnar ledger against the per-row tail it replaced ------------------


def _kappa_ref(theta_deg):
    two_theta = 2.0 * float(theta_deg)
    if two_theta == 0.0:
        return 1.0
    if two_theta == 90.0:
        return 0.0
    return float(np.cos(np.deg2rad(two_theta)))


def _hot_x_ref(kappa, x_c):
    if kappa == 1.0:
        x_h = x_c
    elif kappa == 0.0:
        x_h = 0.0
    else:
        x_h = math.atanh(kappa * math.tanh(x_c))
    return x_h, x_h / x_c


def _closed_form_ref(kappa, n, x_c):
    t_c = math.tanh(x_c)
    t_h = kappa * t_c
    return -(n - 1.0) * t_c, n * (t_c - t_h), (n - 1.0) * t_h, -(t_c - t_h)


def _expect_ref(h, m):
    return np.trace(h @ m[None], axis1=-2, axis2=-1).real.tolist()[0]


def _entropy_ref(m):
    return entropies(spectra(m[None])[0])[0]


def _ledger_ref(row, n, x_c):
    """The per-row tail on a row's exact snapshots: repr of each ledger field and max delta."""
    s = {label: state.matrix for label, state in row.snapshots.items()}
    h_cold, h_hot = hamiltonian(1.0), hamiltonian(n)
    kappa = _kappa_ref(row.theta_deg)
    x_h, r = _hot_x_ref(kappa, x_c)
    e_b_hot = _expect_ref(h_hot, s["TB"])
    e_c_hot = _expect_ref(h_hot, s["TC"])
    e_d_cold = _expect_ref(h_cold, s["TD"])
    w_ab = e_b_hot - _expect_ref(h_cold, s["TA"])
    q_bc = e_c_hot - e_b_hot
    w_cd = e_d_cold - e_c_hot
    q_da = _expect_ref(h_cold, s["TA2"]) - e_d_cold
    sig_e = (_entropy_ref(thermal_matrices([x_h])[0]) - _entropy_ref(s["TB"])) - x_h * (q_bc / n)
    sig_c = (_entropy_ref(s["TA"]) - _entropy_ref(s["TD"])) - x_c * q_da
    values = [math.radians(row.theta_deg), kappa, r, w_ab, q_bc, w_cd, q_da,
              w_ab + q_bc + w_cd + q_da, abs(q_bc) - abs(q_da), sig_e, sig_c, sig_e + sig_c]
    closed = _closed_form_ref(kappa, n, x_c)
    max_delta = max(abs(got - want) for got, want in zip(values[3:7], closed))
    return [repr(v) for v in values + [max_delta]]


def _random_configs(count):
    rng = np.random.default_rng(6)
    for _ in range(count):
        thetas = (0.0, 45.0, 22.5) + tuple(rng.uniform(0.0, 45.0, 30).tolist())
        yield SweepConfig(theta_list_deg=thetas, n=float(rng.choice([1.05, 2.0, 37.0, 1e4, 1e7])),
                          x_c=float(rng.uniform(0.05, 13.0)),
                          omega0_tau=float(rng.uniform(0.0, 2 * math.pi)),
                          noise_sigma=float(rng.choice([0.0, 0.0, 0.05, 0.3])), seed=7)


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
@pytest.mark.parametrize(
    "config",
    [SweepConfig(), SweepConfig(theta_list_deg=tuple(45.0 * k / 999 for k in range(1000))),
     SweepConfig(x_c=40.0), *_random_configs(10)],
    ids=["default", "grid1000", "xc40"] + [f"random{k}" for k in range(10)],
)
def test_columnar_ledger_equals_the_per_row_tail(config):
    report = run_sweep(config)
    # the ledger comes from the exact states at any noise level
    exact = {row.theta_deg: row for row in run_sweep(replace(config, noise_sigma=0.0)).rows}
    assert report.rows
    for row in report.rows:
        ledger = row.ledger
        got = [repr(getattr(ledger, name)) for name in ledger.__dataclass_fields__]
        assert got + [repr(row.max_delta_vs_closed_form)] == _ledger_ref(
            exact[row.theta_deg], config.n, config.x_c), row.theta_deg
    if config.x_c == 40.0:
        assert [row.theta_deg for row in report.rows] == [0.0] and len(report.failures) == 6


def test_kappa_column_equals_the_scalar_formula():
    thetas = [0.0, 45.0] + np.random.default_rng(8).uniform(0.0, 45.0, 20000).tolist() + [
        45.0 * k / 1000 for k in range(1001)]
    column = kappa_from_theta_deg(np.array(thetas)).tolist()
    assert column[:2] == [1.0, 0.0] and kappa_from_theta_deg(0.0) == 1.0
    assert kappa_from_theta_deg(45.0) == 0.0
    assert [repr(k) for k in column] == [repr(_kappa_ref(t)) for t in thetas]
    assert [repr(kappa_from_theta_deg(t)) for t in thetas[:2000]] == list(map(repr, column[:2000]))


def test_csv_rows_format_each_value_with_g12():
    specials = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1.2345678901234e-7,
                1.0 / 3.0, 2.5, -7.0, 1e-16, 123456789012.5]
    row = CycleResult(theta_deg=specials[0], ledger=CycleLedger(*specials[1:]), snapshots={},
                      max_delta_vs_closed_form=specials[-1])
    report = run_sweep()
    for rows in ((row,), report.rows):
        lines = emit(SweepReport(rows=rows, failures={}, metadata={})).decode().splitlines()[1:]
        assert lines == [",".join(f"{v:.12g}" for v in runner_mod._row_values(r)) for r in rows]
