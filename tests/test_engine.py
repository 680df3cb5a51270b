"""Tests for the batched theta-axis engine behind run_sweep and run_cycle.

A sweep over N angles must give, float for float and byte for byte, what N
single-angle runs give; every per-angle gate must be able to fail one row
of a stack while the other rows go on, naming the failing stroke.
"""

import hashlib
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ottosim.optics as optics_mod
import ottosim.qcore as qcore_mod
import ottosim.runner as runner_mod
from ottosim.circuit import compile_program, parse
from ottosim.optics import (
    compression_unitary,
    dephasing_blocks,
    expansion_unitary,
    kappa_from_theta_deg,
)
from ottosim.qcore import (
    SIGMA_Y,
    TOL,
    QuantumValueError,
    density_failures,
    density_spectra,
    entropies,
    gate,
    kraus_errors,
    trace_path,
    wrap_validated,
)
from ottosim.runner import (
    CSV_COLUMNS,
    DEFAULT_THETAS,
    SNAPSHOT_LABELS,
    CycleError,
    CycleResult,
    SweepConfig,
    SweepReport,
    compare_golden,
    emit,
    load_report,
    run_cycle,
    run_sweep,
)
from ottosim.thermo import (
    CycleLedger,
    EngineParams,
    closed_form_energetics,
    closed_form_energies,
    expectations,
    hamiltonian,
    hot_x_from_kappa,
    ledger_columns,
    thermal_matrices,
)
from ottosim.tomography import (
    UnphysicalStokesWarning,
    measure_all,
    reconstruct,
    stokes_from_intensities,
    tomography_stack,
)

from conftest import block_errors, random_density, random_pure, random_unitary

GRID_200 = tuple(45.0 * k / 199 for k in range(200))
ROW = DEFAULT_THETAS.index(22.5)  # position of the corrupted row in every stack


def _row_key(row):
    ledger = row.ledger
    values = [getattr(ledger, name) for name in ledger._fields]
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


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
def test_run_cycle_is_the_single_row_of_a_sweep():
    for config in (SweepConfig(), SweepConfig(noise_sigma=0.1, seed=11), SweepConfig(x_c=40.0)):
        for theta in DEFAULT_THETAS:
            (row,) = run_sweep(replace(config, theta_list_deg=(theta,))).rows
            first = _row_key(run_cycle(theta, config))
            assert first == _row_key(row) == _row_key(run_cycle(theta, config))


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


def test_config_with_a_bad_jones_parameter_is_rejected():
    # the A->B rotation angle depends on the config alone, so a bad one is a config error
    for overrides, message in (({"omega0_tau": -1.0}, "omega0*tau = -1 must be"),
                               ({"omega0_tau": math.inf}, "Jones parameter (n + 1) omega0*tau"),
                               ({"omega0_tau": math.nan}, "Jones parameter (n + 1) omega0*tau"),
                               ({"n": 1e308}, "Jones parameter (n + 1) omega0*tau")):
        with pytest.raises(QuantumValueError) as info:
            SweepConfig(**overrides)
        assert str(info.value).startswith(message), overrides


# -- one corrupted row per gate ------------------------------------------------

_ARMED = []  # a [seam, fired] pair for each seam the running test armed


@pytest.fixture(autouse=True)
def _armed_seams_fire():
    """Fail a test at teardown when a seam it armed never changed anything: a seam the engine
    no longer reaches (a renamed binding, a stack of another shape) would otherwise leave a
    gate test passing without testing its gate."""
    _ARMED.clear()
    yield
    unfired = [seam for seam, fired in _ARMED if not fired]
    _ARMED.clear()
    assert not unfired, f"seams armed but never fired: {unfired}"


def _arm(seam):
    record = [seam, False]
    _ARMED.append(record)
    return record


def _corrupt_nth_stack(monkeypatch, owner, name, nth, change, part=0, parts=1,
                       count=len(DEFAULT_THETAS), row=ROW):
    """Patch ``owner.name`` so that its nth call on a stack of all ``count`` rows has row
    ``row`` changed.

    A call whose output holds ``parts`` stacks of all rows on a leading axis (the
    (3, N, 2, 2) reduction of the engine's [B->C; C->D; D->A] joint stack, say) changes
    row ``row`` of stack ``part``.
    """
    original = getattr(owner, name)
    calls = []
    stacks = (parts, count) if parts > 1 else (count,)
    at = (part, row) if parts > 1 else row
    fired = _arm(f"{owner.__name__}.{name} call {nth} on {stacks} stacks")

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        if np.shape(out)[:-2] == stacks:
            calls.append(None)
            if len(calls) == nth:
                out = out.copy()
                out[at] = change(out[at])
                fired[1] = True
        return out

    monkeypatch.setattr(owner, name, patched)


def _corrupt_block(monkeypatch, inverse, change, row=ROW):
    """Patch the engine's block builder: row ``row`` of the PD (or IPD) stack changed, no error."""
    original = runner_mod.dephasing_blocks
    fired = _arm(f"runner.dephasing_blocks {'IPD' if inverse else 'PD'} row {row}")

    def patched(pd_theta, ipd_theta):
        blocks = list(original(pd_theta, ipd_theta))
        u = blocks[inverse] = blocks[inverse].copy()
        u[row] = change(u[row])
        fired[1] = True
        return tuple(blocks)

    monkeypatch.setattr(runner_mod, "dephasing_blocks", patched)


def _skew_joint_coherence(monkeypatch, part, upper=1e-6, lower=0.0):
    """Before the engine traces out the path, add ``upper`` to the polarization-coherence entry
    <H, k0| . |V, k0> of row ROW of part ``part`` (B->C, C->D, D->A) of its joint stack and
    ``lower`` to its mirror entry.  The joint states have no check of their own: the reduced
    state reads both entries, so alone ``upper`` leaves it not Hermitian, and 0.5 at both
    keeps it Hermitian with unit trace and gives it an eigenvalue of about -0.11."""
    original = runner_mod.trace_path
    fired = _arm(f"runner.trace_path joint part {part}")

    def patched(stack):
        stack[part, ROW, 0, 2] += upper
        stack[part, ROW, 2, 0] += lower
        fired[1] = True
        return original(stack)

    monkeypatch.setattr(runner_mod, "trace_path", patched)


def _break_kraus(monkeypatch):
    original = optics_mod._kraus_pairs
    fired = _arm("optics._kraus_pairs")

    def patched(theta_v):
        kraus = original(theta_v).copy()
        kraus[ROW, 1] *= 1.01
        fired[1] = True
        return kraus

    monkeypatch.setattr(optics_mod, "_kraus_pairs", patched)


# each distinct angle's arm plate is built once for both blocks (the sweep's angles are
# distinct and sorted, so a plate's position is its row's); the IPD product is the only
# per-row stage of the IPD alone.  A block that is not unitary past a unitary arm plate has
# no gate of its own (the plate's bounds it), nor has the joint state it makes: the reduced
# state fails its trace, which has the joint trace's bits.
GATES = {
    "arm plate": (lambda mp: _corrupt_nth_stack(mp, optics_mod, "_hwp_matrix", 1,
                                                lambda m: 1.01 * m),
                  "stroke B->C: HWP element not unitary"),
    "kraus": (_break_kraus, "stroke B->C: incomplete Kraus set"),
    "pd unitarity": (lambda mp: _corrupt_nth_stack(mp, optics_mod, "_arm_stage", 1,
                                                   lambda m: 1.01 * m),
                     "stroke B->C: trace 1.0201 != 1"),
    "joint state": (lambda mp: _corrupt_block(mp, False, lambda u: 1.01 * u),
                    "stroke B->C: trace"),
    "B->C joint": (lambda mp: _skew_joint_coherence(mp, 0), "stroke B->C: not Hermitian"),
    "C->D joint": (lambda mp: _skew_joint_coherence(mp, 1), "stroke C->D: not Hermitian"),
    "D->A joint": (lambda mp: _skew_joint_coherence(mp, 2), "stroke D->A: not Hermitian"),
    "C->D joint positivity": (lambda mp: _skew_joint_coherence(mp, 1, 0.5, 0.5),
                              "stroke C->D: not positive semidefinite: min eigenvalue -0.111"),
    "reduced state": (lambda mp: _corrupt_nth_stack(mp, runner_mod, "trace_path", 1,
                                                    lambda m: m + [[0, 1e-6], [0, 0]], 0, 3),
                      "stroke B->C: not Hermitian"),
    "C->D reduced state": (lambda mp: _corrupt_nth_stack(mp, runner_mod, "trace_path", 1,
                                                         lambda m: m + [[0, 1e-6], [0, 0]], 1, 3),
                           "stroke C->D: not Hermitian"),
    "D->A reduced state": (lambda mp: _corrupt_nth_stack(mp, runner_mod, "trace_path", 1,
                                                         lambda m: m + [[0, 1e-6], [0, 0]], 2, 3),
                           "stroke D->A: not Hermitian"),
    "hot target": (lambda mp: _corrupt_nth_stack(mp, runner_mod, "thermal_matrices", 1,
                                                 lambda m: np.diag([1.1, -0.1])),
                   "stroke B->C: not positive semidefinite"),
    "spectrum": (lambda mp: _corrupt_nth_stack(mp, runner_mod, "trace_path", 1,
                                               lambda m: 0.5 * np.eye(2), 1, 3),
                 "stroke C->D: not unitary, spectrum moved"),
    "ipd unitarity": (lambda mp: _corrupt_nth_stack(mp, optics_mod, "_ipd_product", 1,
                                                    lambda m: 1.01 * m),
                      "stroke D->A: trace 1.0201 != 1"),
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


def _raise_first_entry(d):
    return lambda m: m + [[d, 0.0], [0.0, 0.0]]


def _corrupt_shared_state(monkeypatch, k, d):
    """The engine's A->B stroke gives rho_A (k = 0) or rho_B (k = 1) with d added to its first
    entry, read by the stack alone: every later state is built from the clean rho_B."""
    original = runner_mod._a_to_b
    fired = _arm(f"runner._a_to_b state {k}")

    def patched(*point):
        ab, *rest = original(*point)
        ab = ab.copy()
        ab[k] = _raise_first_entry(d)(ab[k])
        fired[1] = True
        return (ab, *rest)

    monkeypatch.setattr(runner_mod, "_a_to_b", patched)


# each density slot of the sweep's state stack: a seam raising the trace of one row's state (of
# every row's rho_A or rho_B, which the stack repeats on every row) to 1 + d, d its own for each
# slot, and the stroke whose message must print that trace; no other state's trace moves
SLOT_SEAMS = {
    "rho_C": (lambda mp, count, row: _corrupt_nth_stack(
        mp, runner_mod, "trace_path", 1, _raise_first_entry(0.01), 0, 3, count, row), "B->C", 0.01),
    "rho_D": (lambda mp, count, row: _corrupt_nth_stack(
        mp, runner_mod, "trace_path", 1, _raise_first_entry(0.02), 1, 3, count, row), "C->D", 0.02),
    "rho_A2": (lambda mp, count, row: _corrupt_nth_stack(
        mp, runner_mod, "trace_path", 1, _raise_first_entry(0.03), 2, 3, count, row), "D->A", 0.03),
    "hot target": (lambda mp, count, row: _corrupt_nth_stack(
        mp, runner_mod, "thermal_matrices", 1, _raise_first_entry(0.04), count=count, row=row),
        "B->C", 0.04),
    "rho_A": (lambda mp, count, row: _corrupt_shared_state(mp, 0, 0.05), "A->B", 0.05),
    "rho_B": (lambda mp, count, row: _corrupt_shared_state(mp, 1, 0.06), "A->B", 0.06),
}


@pytest.mark.parametrize("count, row", [(1, 0), (128, 77)])
@pytest.mark.parametrize("slot", list(SLOT_SEAMS))
def test_each_slot_message_prints_its_own_trace_at_other_sizes(monkeypatch, slot, count, row):
    # a stack position right only at the 7 default angles would print another state's trace
    # (1) or index past the stack
    config = SweepConfig(theta_list_deg=tuple(45.0 * (k + 0.5) / count for k in range(count)))
    clean = run_sweep(config)  # also primes the A->B memo: the hot target's is the first call
    corrupt, stroke, d = SLOT_SEAMS[slot]
    corrupt(monkeypatch, count, row)
    report = run_sweep(config)
    message = f"stroke {stroke}: trace {1.0 + d:.15g} != 1"
    keys = [f"{theta:.12g}" for theta in config.theta_list_deg]
    if stroke == "A->B":
        assert report.rows == () and report.failures == dict.fromkeys(keys, message)
        return
    assert report.failures == {keys[row]: message}
    assert [_row_key(r) for r in report.rows] == [
        _row_key(r) for r in clean.rows if f"{r.theta_deg:.12g}" != keys[row]]


def _bypass_a_to_b_memo(monkeypatch):
    """The engine builds its A->B stroke afresh for this test: the corrupted stroke is
    neither read from nor left in the memo."""
    monkeypatch.setattr(runner_mod, "_a_to_b", getattr(runner_mod._a_to_b, "__wrapped__",
                                                       runner_mod._a_to_b))


def _corrupt_cold_state(monkeypatch):
    """Every single-x call of the engine's thermal_matrices (rho_A's; at N = 1 also the
    hot target's, which A->B stops first) returns a Hermitian, unit-trace non-state."""
    original = runner_mod.thermal_matrices
    _bypass_a_to_b_memo(monkeypatch)
    monkeypatch.setattr(runner_mod, "thermal_matrices", lambda xs: (
        np.diag([1.1, -0.1])[None].astype(complex) if len(xs) == 1 else original(xs)))


def _corrupt_expansion(monkeypatch, matrix):
    """The engine's A->B expansion unitary replaced by ``matrix(U)``."""
    original = runner_mod.expansion_unitary
    _bypass_a_to_b_memo(monkeypatch)
    monkeypatch.setattr(runner_mod, "expansion_unitary", lambda n, omega0_tau: SimpleNamespace(
        matrix=matrix(original(n, omega0_tau).matrix)))


# rho_A = (1 - tanh(3) sigma_y)/2 has the diagonal 1/2, 1/2: sqrt(2)|H><H| takes it to the
# pure state |H><H|, a density operator whose spectrum moved by (1 - tanh(3))/2.  The
# corrupted rho_A = diag(1.1, -0.1) goes to |H><H| too, so only its own check names it.
A_TO_B_GATES = {
    "rho_A density": (lambda mp: (_corrupt_cold_state(mp), _corrupt_expansion(
                          mp, lambda u: np.diag([1.0 / math.sqrt(1.1), 0.0]))),
                      "stroke A->B: not positive semidefinite: min eigenvalue -0.1"),
    "rho_B density": (lambda mp: _corrupt_expansion(mp, lambda u: 1.01 * u),
                      "stroke A->B: trace 1.0201"),
    "spectrum": (lambda mp: _corrupt_expansion(mp, lambda u: np.diag([math.sqrt(2.0), 0.0])),
                 "stroke A->B: not unitary, spectrum moved by 0.00247"),
}


@pytest.mark.parametrize("gate", list(A_TO_B_GATES))
def test_a_to_b_gate_stops_every_row(monkeypatch, gate):
    corrupt, message = A_TO_B_GATES[gate]
    corrupt(monkeypatch)
    for config in (SweepConfig(), SweepConfig(theta_list_deg=GRID_200, noise_sigma=0.1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_sweep(config)
        assert report.rows == ()
        assert list(report.failures) == [f"{theta:.12g}" for theta in config.theta_list_deg]
        assert all(failure.startswith(message) for failure in report.failures.values())
    for theta in (0.0, 22.5):
        with pytest.raises(CycleError) as info:
            run_cycle(theta)
        assert str(info.value).startswith(message)


@pytest.mark.parametrize("gate", list(A_TO_B_GATES))
def test_a_to_b_gate_leaves_the_memo_clean(monkeypatch, gate):
    # a corrupted A->B stroke is neither cached nor read from the memo: a clean sweep after
    # it, from an empty memo and from a primed one, still gives the frozen CSV
    golden = (Path(__file__).parent / "data" / "golden_default.csv").read_bytes()
    for primed in (False, True):
        runner_mod._a_to_b.cache_clear()
        if primed:
            run_sweep()
        with monkeypatch.context() as mp:
            A_TO_B_GATES[gate][0](mp)
            assert run_sweep().rows == ()
        assert emit(run_sweep(), "csv") == golden
        assert runner_mod._a_to_b.cache_info().currsize == 1


def _memo_key(config):
    params = config.params()
    return tuple(float(v).hex() for v in (params.n, params.x_c, config.omega0_tau))


def test_a_to_b_memo_is_invisible():
    # six seeded operating points and the named ones, visited in an order that evicts from the
    # four-point LRU memo and hits it, give the bytes of the same sweep run from an empty memo
    rng = np.random.default_rng(22)
    points = [SweepConfig(), SweepConfig(n=1e4), SweepConfig(x_c=40.0), SweepConfig(omega0_tau=1.0),
              SweepConfig(omega0_tau=0.0), SweepConfig(omega0_tau=-0.0)] + [
        SweepConfig(n=float(n), x_c=float(x), omega0_tau=float(w)) for n, x, w in zip(
            rng.uniform(1.1, 20.0, 6), rng.uniform(0.1, 30.0, 6), rng.uniform(0.0, 7.0, 6))]
    thetas = tuple(np.round(rng.uniform(0.0, 45.0, 9), 6).tolist()) + (0.0, 22.5, 45.0)

    def outputs(point):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnphysicalStokesWarning)
            return [emit(run_sweep(replace(point, theta_list_deg=thetas, noise_sigma=sigma)), fmt)
                    for sigma in (0.0, 0.1) for fmt in ("csv", "json")]

    fresh = []
    for point in points:
        runner_mod._a_to_b.cache_clear()
        fresh.append(outputs(point))
    runner_mod._a_to_b.cache_clear()
    order = [0, 0, 1, 2, 3, 4, 5, 4, 0, 6, 7, 8, 9, 10, 11, 1, 1, 5, 4, 2, 0]
    for k in order:
        assert outputs(points[k]) == fresh[k], k
        memo = runner_mod._a_to_b(*_memo_key(points[k]))
        built = runner_mod._a_to_b.__wrapped__(*_memo_key(points[k]))
        assert [a.tobytes() for a in memo] == [a.tobytes() for a in built], k
    info = runner_mod._a_to_b.cache_info()
    assert info.maxsize == 4 and info.hits > len(order) and info.misses > 4 + len(points)
    for a in memo:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_a_to_b_memo_is_keyed_by_the_bits_of_the_operating_point(monkeypatch):
    # 0.0 == -0.0, but u_e (x) 1 differs in the sign of a zero between them: two keys
    seen, memo = [], runner_mod._a_to_b
    monkeypatch.setattr(runner_mod, "_a_to_b", lambda *point: seen.append(point) or memo(*point))
    points = [SweepConfig(omega0_tau=0.0), SweepConfig(omega0_tau=-0.0),
              SweepConfig(n=1e4, x_c=40.0, omega0_tau=1.0)]
    memo.cache_clear()
    for point in points:
        run_sweep(point)
    assert seen == [(p.n.hex(), p.x_c.hex(), p.omega0_tau.hex()) for p in points]
    assert memo.cache_info().currsize == 3
    zero, negative_zero = (memo(*point) for point in seen[:2])
    assert zero[1].tobytes() != negative_zero[1].tobytes()


@pytest.mark.parametrize("n", [2.0, 1e4])
@pytest.mark.parametrize("x_c", [13.8, 14.0, 20.0, 40.0, 1e3, 1e6])
def test_large_x_c_rows_pass_and_match_the_closed_form(x_c, n):
    # a thermal target at finite x has the eigenvalue (1 - tanh x)/2 > 0, and Delta S - beta Q
    # stays finite where tanh x rounds to 1 and that eigenvalue to 0
    params = EngineParams(n=n, x_c=x_c)
    report = run_sweep(SweepConfig(n=n, x_c=x_c))
    assert report.failures == {} and len(report.rows) == len(DEFAULT_THETAS)
    for row in report.rows:
        assert all(math.isfinite(v) for v in (*row.ledger, row.max_delta_vs_closed_form))
        closed = closed_form_energetics(row.ledger.kappa, params)
        for got, want in ((row.ledger.Sigma_e, closed.Sigma_e),
                          (row.ledger.Sigma_c, closed.Sigma_c)):
            assert abs(got - want) <= TOL["entropy_identity"] * max(1.0, abs(want)), row.theta_deg


def test_a_failed_rho_d_keeps_its_c_to_d_message(monkeypatch):
    # a NaN rho_D fails its density check and its spectrum check, both at C->D; the row names
    # the density check, the first it fails
    clean = run_sweep()
    _corrupt_nth_stack(monkeypatch, runner_mod, "trace_path", 1,
                       lambda m: np.full_like(m, np.nan), 1, 3)
    report = run_sweep()
    assert report.failures == {"22.5": "stroke C->D: not Hermitian: defect nan"}
    assert [_row_key(row) for row in report.rows] == [
        _row_key(row) for row in clean.rows if row.theta_deg != 22.5]


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


def test_closure_compares_rho_a2_with_rho_a(monkeypatch):
    # every work stroke commutes with rho_A, so rho_B is rho_A up to rounding and a closure check
    # reading rho_B would pass a clean sweep too; with rho_B mirrored to 1 - rho_A in the stack
    # alone (a state of rho_A's spectrum, so every A->B check passes) W_AB moves and rows close
    original = runner_mod._a_to_b
    fired = _arm("runner._a_to_b rho_B mirrored")

    def patched(*point):
        ab, *rest = original(*point)
        fired[1] = True
        return (np.array([ab[0], np.eye(2) - ab[0]]), *rest)

    clean = run_sweep()
    monkeypatch.setattr(runner_mod, "_a_to_b", patched)
    report = run_sweep()
    assert report.failures == {} and len(report.rows) == len(clean.rows)
    assert all(row.ledger.W_AB > 0.0 > clean_row.ledger.W_AB
               for row, clean_row in zip(report.rows, clean.rows))


# The sweep's gate table, column by column in the order a row is checked: its stroke and its
# message for a NaN defect (a trace message prints the state's trace, not the defect)
DENSITY_NAN = ("not Hermitian: defect nan", "trace ",
               "not positive semidefinite: min eigenvalue nan")
RANGE_NAN = ("theta_v = nan rad outside [0, pi/4]",) * 2
SPECTRUM_NAN = "not unitary, spectrum moved by nan"
PLATE_NAN = "HWP element not unitary: defect nan"
SWEEP_COLUMNS = [
    *(("A->B", m) for m in (*DENSITY_NAN, *DENSITY_NAN, SPECTRUM_NAN)),
    *(("B->C", m) for m in (*RANGE_NAN, "incomplete Kraus set: defect nan", PLATE_NAN,
                            *DENSITY_NAN, *DENSITY_NAN)),
    *(("C->D", m) for m in (*DENSITY_NAN, SPECTRUM_NAN)),
    *(("D->A", m) for m in (*RANGE_NAN, PLATE_NAN, *DENSITY_NAN,
                            "cycle failed to close, defect nan"))]


@pytest.mark.parametrize("column", range(len(SWEEP_COLUMNS)))
def test_every_gate_column_fails_nan(monkeypatch, column):
    # a NaN defect in one column of the one defect array fails its row, at its stroke, and no
    # other; an A->B column checks rho_A and rho_B, which every row repeats, so its NaN is set
    # on every row and stops them all
    stroke, message = SWEEP_COLUMNS[column]
    failed = [f"{theta:.12g}" for theta in DEFAULT_THETAS] if stroke == "A->B" else ["22.5"]
    clean, original = run_sweep(), runner_mod.gate

    def with_nan(defects, *args):
        assert defects.shape == (len(DEFAULT_THETAS), len(SWEEP_COLUMNS))
        defects = defects.copy()
        defects[slice(None) if stroke == "A->B" else ROW, column] = np.nan
        return original(defects, *args)

    monkeypatch.setattr(runner_mod, "gate", with_nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_sweep()
    assert list(report.failures) == failed
    assert all(f.startswith(f"stroke {stroke}: {message}") for f in report.failures.values())
    assert [_row_key(row) for row in report.rows] == [
        _row_key(row) for row in clean.rows if f"{row.theta_deg:.12g}" not in failed]


def _sweep_check(stroke, message, defects):
    """The one column of the sweep's gate table at ``stroke`` whose NaN message is
    ``message``, alone, on ``defects``: position -> message."""
    k = SWEEP_COLUMNS.index((stroke, message))
    bounds, messages = runner_mod._SWEEP_GATE
    return gate(defects, bounds[k], (messages[k],), None)


def test_spectrum_and_closure_gates_fail_nan():
    rho = np.array([[[0.75, 0.0], [0.0, 0.25]]], dtype=complex)
    nan = np.full_like(rho, np.nan)
    lam = np.linalg.eigvalsh(rho)

    def spectrum(lam_a, lam_b):  # the C->D spectrum column, as the engine computes it
        return _sweep_check("C->D", SPECTRUM_NAN, np.abs(lam_a - lam_b).max(axis=-1))

    def closure(rho_end, rho_start):  # the closure column, as the engine computes it
        return _sweep_check("D->A", "cycle failed to close, defect nan",
                            np.abs(rho_end - rho_start).max(axis=(-2, -1)))

    assert spectrum(lam, lam) == {}
    assert spectrum(lam, np.full_like(lam, np.nan)) == {
        0: "stroke C->D: not unitary, spectrum moved by nan"}
    assert closure(rho, rho[0]) == {}
    assert closure(nan, rho[0]) == {0: "stroke D->A: cycle failed to close, defect nan"}


def test_spectrum_and_closure_columns_keep_the_reduction_bits(rng):
    # the table's spectrum and closure defects, maxima over entry planes, have the bits of the
    # .max reductions over each row's eigenvalues and entries: NaN, inf and -0.0 included
    n, special = 128, [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308]
    parts = rng.normal(size=(3, 6, n, 2, 2))
    hit = rng.random(parts.shape) < 0.25
    parts[hit] = rng.choice(special, hit.sum())
    states = np.empty((6, n, 2, 2), complex)
    states.real, states.imag = parts[:2]
    v = SimpleNamespace(lam=parts[2, ..., 0], states=states)
    A, B, C, D, A2 = (getattr(runner_mod, k) for k in ("A", "B", "C", "D", "A2"))
    # each gate row's defect expression at the first of its columns
    starts = np.cumsum([0, *(len(checks) for *_, checks in runner_mod._GATES)]).tolist()
    fill = {start: defect for start, (_, defect, _) in zip(starts, runner_mod._GATES)}
    with np.errstate(over="ignore", invalid="ignore"):
        for column, ref in {
                ("A->B", SPECTRUM_NAN): np.abs(v.lam[A] - v.lam[B]).max(axis=-1),
                ("C->D", SPECTRUM_NAN): np.abs(v.lam[C] - v.lam[D]).max(axis=-1),
                ("D->A", "cycle failed to close, defect nan"):
                    np.abs(states[A2] - states[A]).max(axis=(-2, -1))}.items():
            got = fill[SWEEP_COLUMNS.index(column)](v)
            assert got.shape == (n, 1) and got.tobytes() == ref.tobytes()


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
    return entropies(density_spectra(m[None])[1]).tolist()[0]


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
        got = [repr(getattr(ledger, name)) for name in ledger._fields]
        assert got + [repr(row.max_delta_vs_closed_form)] == _ledger_ref(
            exact[row.theta_deg], config.n, config.x_c), row.theta_deg
    if config.x_c == 40.0:
        assert len(report.rows) == len(DEFAULT_THETAS) and not report.failures


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
    report = run_sweep()
    row = CycleResult(theta_deg=specials[0], ledger=CycleLedger(*specials[1:]),
                      snapshots=report.rows[0].snapshots, max_delta_vs_closed_form=specials[-1])
    for rows in ((row,), report.rows):
        lines = emit(_columns_report(rows)).decode().splitlines()[1:]
        assert lines == [",".join(f"{v:.12g}" for v in _csv_values(r)) for r in rows]


def _csv_values(row):
    # the CycleLedger fields after theta_v are the CSV columns between its first and last
    return (row.theta_deg, *row.ledger[1:], row.max_delta_vs_closed_form)


def _columns_report(rows, failures=None, metadata=None):
    """A SweepReport holding ready rows as columns: their CSV values and snapshot stack."""
    table = np.array([_csv_values(row) for row in rows], float).reshape(-1, len(CSV_COLUMNS))
    snapshots = np.array([[row.snapshots[label].matrix for label in SNAPSHOT_LABELS]
                          for row in rows], complex).reshape(-1, len(SNAPSHOT_LABELS), 2, 2)
    return SweepReport(table, snapshots, failures, metadata)


# -- the deferred checks against the stroke-by-stroke engine they replaced ------


class _Rows:
    """Positions of the rows still running and the error of each row that stopped."""

    def __init__(self, count):
        self.index = np.arange(count)
        self.errors = {}

    def keep(self, stroke, bad, *stacks):
        """Stop the rows at the positions in ``bad``; return ``stacks`` without them."""
        if not bad:
            return stacks
        mask = np.ones(len(self.index), dtype=bool)
        for pos, message in bad.items():
            self.errors[int(self.index[pos])] = CycleError(f"stroke {stroke}: {message}")
            mask[pos] = False
        self.index = self.index[mask]
        return tuple(stack[mask] for stack in stacks)


def _first_errors(*checks):
    """Merge position -> message dicts; each position keeps its first message."""
    merged = {}
    for errors in checks:
        for pos, message in errors.items():
            merged.setdefault(pos, message)
    return merged


def _reference_spectrum_errors(lam_a, lam_b):
    gap = np.abs(lam_a - lam_b).max(axis=-1)
    return {i: f"not unitary, spectrum moved by {gap[i]:.3g}"
            for i in np.flatnonzero(~(gap <= 1e-10)).tolist()}


def _reference_closure_errors(rho_end, rho_start):
    defect = np.abs(rho_end - rho_start).max(axis=(-2, -1))
    return {i: f"cycle failed to close, defect {defect[i]:.3g}"
            for i in np.flatnonzero(~(defect <= TOL["cycle_closure"])).tolist()}


def _reference_fixed_part(config):
    params = config.params()
    f = SimpleNamespace(params=params, n=params.n, x_c=params.x_c,
                        h_cold=hamiltonian(1.0), h_hot=hamiltonian(params.n))
    rho_a = thermal_matrices([params.x_c])[0]
    u_e = expansion_unitary(f.n, config.omega0_tau).matrix
    states = np.array([rho_a, u_e @ rho_a @ u_e.conj().T])
    states.flags.writeable = False
    lam, spec, bad = density_spectra(states)
    if 0 in bad:
        raise QuantumValueError(bad[0])
    if 1 in bad:
        raise CycleError(f"stroke A->B: {bad[1]}")
    moved = _reference_spectrum_errors(lam[:1], lam[1:])
    if moved:
        raise CycleError(f"stroke A->B: {moved[0]}")
    f.rho_a, f.rho_b = states
    e_a_cold, f.e_b_hot = expectations(np.array([f.h_cold, f.h_hot]), states).tolist()
    f.w_ab = f.e_b_hot - e_a_cold
    f.s_cold, f.s_b = entropies(spec).tolist()
    f.joint_b = np.kron(f.rho_b, np.diag([1.0, 0.0]).astype(complex))
    f.k_c = np.kron(compression_unitary(f.n, config.omega0_tau).matrix, np.eye(2, dtype=complex))
    return f


def _reference_cycle_rows(thetas, config):
    """The engine before its checks were deferred: each stroke runs on the rows that
    passed the one before, and ``_Rows.keep`` drops a row at its first failed check."""
    try:
        f = _reference_fixed_part(config)
    except (CycleError, QuantumValueError) as exc:
        return {}, dict.fromkeys(range(len(thetas)), exc)
    kappa = kappa_from_theta_deg(thetas)
    x_h, r = np.array([hot_x_from_kappa(k, f.params) for k in kappa.tolist()]).reshape(-1, 2).T
    rows = _Rows(len(thetas))
    theta_v = np.array([math.radians(theta) for theta in thetas])

    pd, _, _, bad_pd, _ = block_errors(theta_v, [])
    joint = (pd @ f.joint_b) @ pd.conj().swapaxes(-1, -2)
    rho_c = trace_path(joint)
    lam_c, _, bad_c = density_spectra(rho_c)
    _, spec_h, bad_h = density_spectra(thermal_matrices(x_h.tolist()))
    theta_v, joint, rho_c, lam_c, spec_h = rows.keep("B->C", _first_errors(
        bad_pd, bad_c, bad_h,
    ), theta_v, joint, rho_c, lam_c, spec_h)

    joint = (f.k_c @ joint) @ f.k_c.conj().T
    rho_d = trace_path(joint)
    lam_d, spec_d, bad_d = density_spectra(rho_d)
    theta_v, joint, rho_c, rho_d, spec_h, spec_d = rows.keep("C->D", _first_errors(
        bad_d, _reference_spectrum_errors(lam_c, lam_d),
    ), theta_v, joint, rho_c, rho_d, spec_h, spec_d)

    _, ipd, _, _, bad_ipd = block_errors([], theta_v)
    joint = (ipd @ joint) @ ipd.conj().swapaxes(-1, -2)
    rho_a2 = trace_path(joint)
    theta_v, rho_c, rho_d, rho_a2, spec_h, spec_d = rows.keep("D->A", _first_errors(
        bad_ipd, density_failures(rho_a2),
        _reference_closure_errors(rho_a2, f.rho_a),
    ), theta_v, rho_c, rho_d, rho_a2, spec_h, spec_d)

    e_c_hot = expectations(f.h_hot, rho_c)
    e_d_cold = expectations(f.h_cold, rho_d)
    q_bc = e_c_hot - f.e_b_hot
    w_cd = e_d_cold - e_c_hot
    q_da = expectations(f.h_cold, rho_a2) - e_d_cold
    sig_e = (entropies(spec_h) - f.s_b) - x_h[rows.index] * (q_bc / f.n)
    sig_c = (f.s_cold - entropies(spec_d)) - f.x_c * q_da
    energies = np.stack(np.broadcast_arrays(f.w_ab, q_bc, w_cd, q_da))
    closed = closed_form_energies(kappa[rows.index], f.params)
    columns = np.vstack([
        theta_v, *ledger_columns(kappa[rows.index], r[rows.index], energies, sig_e, sig_c),
        np.abs(energies - closed).max(axis=0)]).T.tolist()

    for stack in (rho_c, rho_d, rho_a2):
        stack.flags.writeable = False
    taps, tap_errors = np.broadcast_arrays(f.rho_a, f.rho_b, rho_c, rho_d, rho_a2), {}
    if config.noise_sigma > 0.0:
        streams = np.random.SeedSequence(config.seed).spawn(len(thetas))
        taps, tap_errors = tomography_stack(np.stack(taps, axis=1), config.noise_sigma, [
            np.random.default_rng(streams[i]) for i in rows.index.tolist()])
        taps = taps.swapaxes(0, 1)
    results = {}
    for k, (i, values) in enumerate(zip(rows.index.tolist(), columns)):
        if k in tap_errors:
            rows.errors[i] = QuantumValueError(tap_errors[k])
            continue
        results[i] = CycleResult(
            theta_deg=float(thetas[i]),
            ledger=CycleLedger(*values[:-1]),
            snapshots={label: wrap_validated(stack[k], label)
                       for label, stack in zip(SNAPSHOT_LABELS, taps)},
            max_delta_vs_closed_form=values[-1],
        )
    return results, rows.errors


def _engine_rows(thetas, config):
    """runner._cycle_rows with its finished rows as position -> CycleResult."""
    positions, table, snapshots, errors = runner_mod._cycle_rows(thetas, config)
    return dict(zip(positions, SweepReport(table=table, snapshots=snapshots).rows)), errors


def _outcome(engine, config):
    """Each row's ledger reprs and labeled snapshot bytes, each stopped row's error and
    all warnings."""
    (results, errors), caught = _recorded(engine, config.theta_list_deg, config)
    rows = {i: (_row_key(row), [state.label for state in row.snapshots.values()])
            for i, row in results.items()}
    return rows, {i: (type(exc), str(exc)) for i, exc in errors.items()}, caught


def _engine_configs():
    yield SweepConfig()
    yield SweepConfig(theta_list_deg=tuple(45.0 * k / 999 for k in range(1000)))
    for x_c in (14.0, 40.0):
        yield SweepConfig(x_c=x_c)
    for sigma in (0.02, 0.1, 0.25, 0.5, 1.0):
        for seed in (0, 3, 7):
            yield SweepConfig(noise_sigma=sigma, seed=seed)
    rng = np.random.default_rng(9)
    for _ in range(80):
        thetas = tuple(rng.uniform(0.0, 45.0, int(rng.integers(1, 40))).tolist())
        if rng.random() < 0.5:
            thetas = (0.0, 45.0, 22.5) + thetas
        yield SweepConfig(theta_list_deg=thetas,
                          n=float(rng.choice([1.05, 2.0, 37.0, 1e4, 1e7])),
                          x_c=float(rng.uniform(0.05, 13.0) if rng.random() < 0.5
                                    else rng.uniform(13.0, 25.0)),
                          omega0_tau=float(rng.uniform(0.0, 2 * math.pi)),
                          noise_sigma=float(rng.choice([0.0, 0.0, 0.05, 0.3])),
                          seed=int(rng.integers(0, 100)))


ENGINE_CONFIGS = list(_engine_configs())


@pytest.mark.parametrize("batch", range(8))
def test_deferred_checks_equal_the_stroke_by_stroke_engine(batch):
    # 99 sweeps: the default and a 1000-angle grid, x_c 14 and 40, 15 noisy configs and
    # 80 random ones, a slice of twelve or thirteen sweeps per batch
    assert len(ENGINE_CONFIGS) == 99
    for config in ENGINE_CONFIGS[batch::8]:
        rows, errors, caught = _outcome(_engine_rows, config)
        assert (rows, errors, caught) == _outcome(_reference_cycle_rows, config), config
        assert set(rows) | set(errors) == set(range(len(config.theta_list_deg)))


def test_a_row_reports_its_first_failed_stroke(monkeypatch):
    # the 22.5 deg row breaks at B->C, and its later strokes are broken too: a spectrum
    # that moves at C->D and a NaN inverted block at D->A; the 37 deg row breaks at D->A only
    clean = run_sweep()
    last = DEFAULT_THETAS.index(37.0)
    _corrupt_block(monkeypatch, False, lambda u: 1.01 * u)
    _corrupt_nth_stack(monkeypatch, runner_mod, "trace_path", 1, lambda m: 0.5 * np.eye(2), 1, 3)
    _corrupt_block(monkeypatch, True, lambda u: np.full_like(u, np.nan))
    _corrupt_block(monkeypatch, True, lambda u: np.eye(4), row=last)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_sweep()
    assert list(report.failures) == ["22.5", "37"]
    assert report.failures["22.5"].startswith("stroke B->C: trace"), report.failures
    assert report.failures["37"].startswith("stroke D->A: cycle failed to close"), report.failures
    assert [_row_key(row) for row in report.rows] == [
        _row_key(row) for row in clean.rows if row.theta_deg not in (22.5, 37.0)]


def _snapshot_bytes(snapshots):
    return [state.matrix.tobytes() for state in snapshots.values()]


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
def test_a_report_holds_one_snapshot_stack():
    # a sweep, noiseless or noisy, a loaded report and the empty sweep each hold one read-only
    # (N, 5, 2, 2) stack whose rows are their CycleResults' snapshots; run_cycle's row is that
    # of a one-angle stack; every noiseless TA and TB has the bits of the A->B memo's rho_A, rho_B
    config = SweepConfig()
    rho_ab = runner_mod._a_to_b(*(v.hex() for v in (config.n, config.x_c, config.omega0_tau)))[0]
    noiseless = run_sweep(config)
    reports = {"noiseless": noiseless, "noisy": run_sweep(SweepConfig(noise_sigma=0.1, seed=3)),
               "loaded": load_report(emit(noiseless, "json")),
               "empty": run_sweep(SweepConfig(theta_list_deg=()))}
    for name, report in reports.items():
        stack = report._snapshots
        assert stack.shape == (len(report._table), 5, 2, 2) and not stack.flags.writeable, name
        assert [_snapshot_bytes(row.snapshots) for row in report.rows] == [
            [m.tobytes() for m in snaps] for snaps in stack], name
        if name != "noisy":
            assert stack[:, :2].tobytes() == np.broadcast_to(rho_ab, stack[:, :2].shape).tobytes()
    assert len(reports["noisy"].rows) == len(DEFAULT_THETAS)
    for theta in (0.0, 22.5, 45.0):
        _, _, stack, _ = runner_mod._cycle_rows((theta,), config)
        assert stack.shape == (1, 5, 2, 2) and not stack.flags.writeable
        assert _snapshot_bytes(run_cycle(theta).snapshots) == [m.tobytes() for m in stack[0]]
        assert stack[0, :2].tobytes() == rho_ab.tobytes()


# -- the frozen noiseless JSON ------------------------------------------------------

# sha256 of the noiseless JSON reports of the default sweep and of the 128 angles 45k/128
# (22.5 among them)
FROZEN_JSON = {
    "default": (SweepConfig(),
                "9759bc7ae3e1cef3608a8cc284f4e757772f732f2c9a313f63e3202b0029503c"),
    "grid128": (SweepConfig(theta_list_deg=tuple(45.0 * k / 128 for k in range(128))),
                "e6531341e58d06020c2a76486fd802d6038bb5bb8f73d534a2e86a163113bcd3"),
}


@pytest.mark.parametrize("name", list(FROZEN_JSON))
def test_the_noiseless_json_keeps_its_frozen_sha256(name):
    # the report loaded back from the frozen bytes anchors rows and compare_golden; reading the
    # rows and the golden comparison leaves the JSON as it was
    config, digest = FROZEN_JSON[name]
    report = run_sweep(config)
    blob = emit(report, "json")
    assert hashlib.sha256(blob).hexdigest() == digest
    loaded = load_report(blob)
    assert report == loaded and compare_golden(report) == compare_golden(loaded)
    assert emit(report, "json") == emit(loaded, "json") == blob


@pytest.mark.parametrize("gate", list(GATES))
def test_snapshots_of_the_rows_a_gate_keeps(monkeypatch, gate):
    clean = json.loads(emit(run_sweep(), "json"))
    GATES[gate][0](monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_sweep()
        doc = json.loads(emit(report, "json"))
    assert doc["rows"] == [row for row in clean["rows"] if row["theta_v_deg"] != 22.5]
    assert doc["snapshots"] == {key: snaps for key, snaps in clean["snapshots"].items()
                                if key != "22.5"}
    assert [row.theta_deg for row in report.rows] == [row["theta_v_deg"] for row in doc["rows"]]
    with pytest.raises(QuantumValueError, match="no theta_V = 22.5 deg row"):
        compare_golden(report)


def test_the_empty_sweep_round_trips_and_run_cycle_is_a_one_angle_sweep():
    empty = run_sweep(SweepConfig(theta_list_deg=()))
    assert emit(empty, "csv") == (",".join(CSV_COLUMNS) + "\n").encode()
    assert empty.rows == () and load_report(emit(empty, "json")) == empty
    for theta in (0.0, 22.5, 45.0):
        assert run_cycle(theta) == run_sweep(SweepConfig(theta_list_deg=(theta,))).rows[0]


# -- the columnar report against rows built one by one ---------------------------

REPORT_CONFIGS = [SweepConfig(), SweepConfig(theta_list_deg=GRID_200), SweepConfig(x_c=40.0),
                  SweepConfig(theta_list_deg=()),
                  SweepConfig(theta_list_deg=(22.5, 8.0, 22.5, 45.0, 0.0, 8.0)),
                  SweepConfig(noise_sigma=0.1, seed=3), SweepConfig(noise_sigma=1.0, seed=0),
                  SweepConfig(theta_list_deg=[45.0 * k / 127 for k in range(128)], noise_sigma=0.1,
                              seed=7)]
REPORT_IDS = ["default", "grid200", "xc40", "empty", "repeats", "noise0.1", "noise1", "noise0.1x128"]


def _reference_rows(config):
    """The reference engine's rows sorted by (r, theta_V) and its failures by theta_V."""
    results, errors = _reference_cycle_rows(config.theta_list_deg, config)
    rows = sorted(results.values(), key=lambda row: (row.ledger.r, row.theta_deg))
    return rows, {f"{config.theta_list_deg[i]:.12g}": str(errors[i]) for i in sorted(errors)}


def _reference_report(config):
    """The reference engine's rows and failures as a columnar SweepReport."""
    return _columns_report(*_reference_rows(config), run_sweep(config).metadata)


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
@pytest.mark.parametrize("config", REPORT_CONFIGS, ids=REPORT_IDS)
def test_report_rows_equal_the_reference_rows(config):
    report, (rows, failures) = run_sweep(config), _reference_rows(config)
    expected = _columns_report(rows, failures, report.metadata)
    assert report.rows is report.rows  # built on the first read, then kept
    assert [_row_key(row) for row in report.rows] == [_row_key(row) for row in rows]
    assert all([state.label for state in row.snapshots.values()] == list(SNAPSHOT_LABELS)
               and not any(state.matrix.flags.writeable for state in row.snapshots.values())
               for row in report.rows)
    assert report.failures == expected.failures
    assert report == expected


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
@pytest.mark.parametrize("config", REPORT_CONFIGS, ids=REPORT_IDS)
def test_emit_from_columns_equals_emit_from_rows(config):
    expected = _reference_report(config)
    for fmt in ("csv", "json"):
        unread = emit(run_sweep(config), fmt)
        report = run_sweep(config)
        assert report.rows is not None
        assert emit(report, fmt) == unread == emit(expected, fmt), fmt


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
@pytest.mark.parametrize("config", REPORT_CONFIGS, ids=REPORT_IDS)
def test_json_survives_load_report_byte_for_byte(config):
    report = run_sweep(config)
    blob = emit(report, "json")
    loaded = load_report(blob)
    assert emit(loaded, "json") == blob
    assert emit(loaded, "csv") == emit(report, "csv")
    assert loaded == report


# The one-call kernels of the sweep against the per-slice products they replaced: bit for bit
# where the value reaches an output (the energies), within a few ulp where only a gate and its
# 3-digit message read it (the Kraus defects); the traces keep np.trace's bits.
EPS = np.finfo(float).eps
KERNEL_CONFIGS = [SweepConfig(theta_list_deg=GRID_200), SweepConfig(n=1e10, x_c=0.1),
                  SweepConfig(noise_sigma=0.1, seed=3), SweepConfig(x_c=40.0)]


def _sweep_inputs(monkeypatch, config):
    """The arguments of the first call a sweep makes to each kernel, by kernel name."""
    seen = {}
    for owner, name in ((runner_mod, "trace_path"), (runner_mod, "density_defects"),
                        (runner_mod, "expectations"), (optics_mod, "_kraus_defects")):
        def patched(*args, _original=getattr(owner, name), _name=name):
            seen.setdefault(_name, args)
            return _original(*args)

        monkeypatch.setattr(owner, name, patched)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_sweep(config)
    return seen


def _random_stacks(rng, dim):
    # density operators, unnormalised complex matrices, and slices holding NaN or inf
    states = np.array([random_density(rng, dim).matrix for _ in range(40)])
    wild = rng.normal(size=(40, dim, dim)) + 1j * rng.normal(size=(40, dim, dim))
    wild[3, 0, 0], wild[5, 1, 1], wild[7, -1, -1], wild[9, 0, 1] = np.nan, np.inf, -np.inf, np.nan
    return states, wild


class TestOneCallKernels:
    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    def test_traces_keep_the_np_trace_bits(self, rng, monkeypatch, config):
        inputs = _sweep_inputs(monkeypatch, config)
        stacks = [inputs["trace_path"][0].reshape(-1, 4, 4), inputs["density_defects"][0],
                  *_random_stacks(rng, 2), *_random_stacks(rng, 4)]
        for stack in stacks:
            # the traces the density checks compare, and the trace message of every slice
            traces = qcore_mod.density_defects(stack)[2]
            with np.errstate(invalid="ignore"):  # inf - inf in the reference trace
                expected = np.trace(stack, axis1=-2, axis2=-1)
            assert np.array(traces).tobytes() == expected.tobytes()
            failing = np.zeros((len(stack), 3))
            failing[:, 1] = np.inf
            assert gate(failing, *qcore_mod.DENSITY_GATE, traces) == {
                i: f"trace {t.real:.15g} != 1" for i, t in enumerate(expected)}

    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    def test_kraus_defects_within_four_ulp_of_the_matmul_sum(self, rng, monkeypatch, config):
        sweep_kraus = _sweep_inputs(monkeypatch, config)["_kraus_defects"][0]
        # complete sets from unitary columns, and sets scaled off completeness
        complete = np.array([random_unitary(rng, 4)[:, :2].reshape(2, 2, 2) for _ in range(64)])
        scaled = complete * rng.uniform(0.9, 1.1, size=(64, 1, 1, 1))
        for stack in (sweep_kraus, complete, scaled):
            old = np.abs((stack.conj().swapaxes(-1, -2) @ stack).sum(axis=1)
                         - np.eye(2)).max(axis=(-2, -1))
            new = qcore_mod._kraus_defects(stack)
            assert np.abs(new - old).max() <= 4 * EPS
            assert set(kraus_errors(stack)) == set(np.flatnonzero(old > TOL["kraus"]).tolist())
        assert kraus_errors(sweep_kraus) == {} and len(kraus_errors(scaled)) == 64

    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    def test_expectations_keep_the_matmul_bits(self, rng, monkeypatch, config):
        sweep_h, sweep_states = _sweep_inputs(monkeypatch, config)["expectations"]
        assert sweep_h.shape == sweep_states.shape  # one Hamiltonian per slice
        omega = rng.uniform(0.0, 10.0, size=200) * 10.0 ** rng.integers(-3, 11, size=200)
        random_h = omega[:, None, None] * SIGMA_Y
        random_states = np.array([random_density(rng).matrix for _ in range(200)])
        for h, states in ((sweep_h, sweep_states), (random_h, random_states),
                          (SIGMA_Y, random_states), (hamiltonian(2.0), sweep_states)):
            old = np.trace(h @ states, axis1=-2, axis2=-1).real
            assert expectations(h, states).tobytes() == old.tobytes()
        for m in random_states[:8]:
            assert expectations(hamiltonian(3.0), m) == np.trace(hamiltonian(3.0) @ m).real

    def test_trace_failure_prints_the_real_part(self, monkeypatch):
        _corrupt_expansion(monkeypatch, lambda u: 1.01 * u)
        report = run_sweep()
        assert set(report.failures.values()) == {"stroke A->B: trace 1.0201 != 1"}


def _joint_states(rho, pd, ipd, k_c):
    """The [B->C; C->D; D->A] joint stacks, (3, N, 4, 4), that _cycle_rows forms from one 2x2
    input rho, each row's blocks pd and ipd and the 4x4 compression k_c, product for product."""
    joint = np.empty((3, len(pd), 4, 4), dtype=complex)
    np.matmul(optics_mod._right_mul(pd, optics_mod._kron_slices(rho, optics_mod._P0)),
              pd.conj().swapaxes(-1, -2), out=joint[0])
    joint[1] = optics_mod._right_mul(optics_mod._left_mul(k_c, joint[0]), k_c.conj().T)
    np.matmul(ipd @ joint[1], ipd.conj().swapaxes(-1, -2), out=joint[2])
    return joint


class TestJointStates:
    """The joint states have no density check of their own; the checks of their inputs bound it.

    A joint state is J = V rho V^dag: rho the 2x2 input and V the product of the 4x4 factors
    (blocks, compression) with the isometry onto k0, a congruence.  With d_k the max-norm
    unitarity defect of factor k, ||U_k||_2^2 <= 1 + 4 d_k, so with g = prod_k (1 + 4 d_k):
    max|J - J^dag| <= g ||rho - rho^dag||_2, |tr J - tr rho| <= (g - 1) ||rho||_1 and
    lam_min(J) >= g min(lam_min(rho), 0), each up to the rounding of the products.  The
    reduced state's trace (J00 + J11) + (J22 + J33) is the joint trace, bit for bit.
    """

    ULP = 8 * EPS  # the rounding of three 4x4 congruences: at most 3.5 eps over 40 seeds

    @staticmethod
    def inputs(rng):
        # random states, then states pushed off the state set by delta in trace, Hermiticity
        # and lowest eigenvalue; all but the "herm" kind are Hermitian up to rounding
        for _ in range(6):
            rho = random_density(rng).matrix
            yield "state", rho
            yield "state", random_pure(rng).matrix
            for delta in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
                yield "trace", rho * (1.0 + delta)
                skew = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                yield "herm", rho + delta * skew / np.abs(skew).max()
                u = random_unitary(rng)
                yield "lam", (u * np.array([-delta, 1.0 + delta])) @ u.conj().T

    @staticmethod
    def blocks(rng, scale):
        # 128 random plate angles, each plate off unitarity by about scale, and a compression
        plates = optics_mod._hwp_matrix(np.pi - 2.0 * rng.uniform(0.0, np.pi / 4, 128))
        plates = plates + scale * (rng.normal(size=plates.shape)
                                   + 1j * rng.normal(size=plates.shape))
        arms = optics_mod._arm_stage(plates)
        k_c = optics_mod._kron_slices(optics_mod._rotation_matrix(rng.uniform(0.0, 2 * np.pi)),
                                      np.eye(2, dtype=complex))
        return optics_mod._pd_product(arms), optics_mod._ipd_product(arms), k_c

    def test_joint_defects_are_bounded_by_the_input_defects(self, rng):
        for scale in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
            pd, ipd, k_c = self.blocks(rng, scale)
            d = [optics_mod._unitarity_defects(u) for u in (pd, k_c[None], ipd)]
            g = np.cumprod(np.broadcast_arrays(*(1.0 + 4.0 * dk for dk in d)), axis=0)
            for kind, rho in self.inputs(rng):
                joint = _joint_states(rho, pd, ipd, k_c)
                herm = np.abs(joint - joint.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
                assert (herm <= g * np.linalg.norm(rho - rho.conj().T, 2)
                        + self.ULP).all(), (scale, kind)
                trace = np.abs(np.trace(joint, axis1=-2, axis2=-1) - 1.0)
                assert (trace <= abs(np.trace(rho) - 1.0) + (g - 1.0) * np.linalg.norm(
                    rho, "nuc") + self.ULP).all(), (scale, kind)
                if kind != "herm":
                    lam = np.linalg.eigvalsh(joint).min(axis=-1)
                    lam_in = min(np.linalg.eigvalsh(rho).min(), 0.0)
                    assert (lam >= g * lam_in - self.ULP).all(), (scale, kind)

    def test_reduced_trace_is_the_joint_trace(self, rng):
        # bit for bit, so a trace failure reads the same message on either state
        for scale in (0.0, 1e-6):
            pd, ipd, k_c = self.blocks(rng, scale)
            for kind, rho in self.inputs(rng):
                joint = _joint_states(rho, pd, ipd, k_c).reshape(-1, 4, 4)
                reduced = trace_path(joint)
                assert (reduced[:, 0, 0] + reduced[:, 1, 1]).tobytes() == np.trace(
                    joint, axis1=-2, axis2=-1).tobytes()
                if kind == "trace" and np.abs(np.trace(rho) - 1.0) > 1e-11:
                    assert density_failures(reduced) == density_failures(joint) != {}

    def test_the_engine_forms_these_joint_states(self, monkeypatch):
        config = SweepConfig(theta_list_deg=GRID_200, n=1.5, x_c=0.5, omega0_tau=0.3)
        seen = _sweep_inputs(monkeypatch, config)["trace_path"][0]
        ab, k_c, _, _ = runner_mod._a_to_b(*(float(v).hex() for v in (1.5, 0.5, 0.3)))
        theta_v = np.deg2rad(GRID_200)
        pd, ipd, _, _ = dephasing_blocks(theta_v, theta_v)
        assert seen.tobytes() == _joint_states(ab[1], pd, ipd, k_c).tobytes()
