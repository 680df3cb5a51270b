"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from ottosim.circuit import CircuitSyntaxError, compile_program, parse
from ottosim.optics import (
    compression_unitary,
    expansion_unitary,
    hwp,
    ipd_block,
    kappa_from_theta_deg,
    pd_block,
    rotation,
)
from ottosim.qcore import (
    ID2,
    KET_PSI_RC,
    TOL,
    DensityOperator,
    apply_kraus,
    partial_trace_path,
)
from ottosim.runner import (
    DEFAULT_THETAS,
    SweepConfig,
    compare_golden,
    run_cycle,
    run_sweep,
)
from ottosim.thermo import (
    closed_form_energetics,
    entropy_production,
    hot_x_from_kappa,
    thermal_state,
)
from ottosim.tomography import (
    BASES,
    IntensityRecord,
    UnphysicalStokesWarning,
    measure_all,
    reconstruct,
    stokes_from_intensities,
)

from conftest import random_density

PARAMS = SweepConfig().params()


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS — {detail}")


def test_criterion_1_closed_form_reproduction():
    """Simulated W/Q match the closed-form stroke values to 1e-9, fast."""
    start = time.perf_counter()
    worst = 0.0
    for theta in DEFAULT_THETAS:
        res = run_cycle(theta)
        closed = closed_form_energetics(kappa_from_theta_deg(theta), PARAMS)
        for name in ("W_AB", "Q_BC", "W_CD", "Q_DA"):
            worst = max(worst, abs(getattr(res.ledger, name) - getattr(closed, name)))
    elapsed = time.perf_counter() - start
    assert worst <= TOL["energy"]
    assert elapsed < 1.0
    _report(1, f"max |simulated - closed form| = {worst:.3g}, runtime {elapsed * 1e3:.0f} ms")


def test_criterion_2_first_law():
    """|dU| per closed cycle stays below 1e-9 in ideal mode."""
    worst = max(abs(run_cycle(theta).ledger.dU_cycle) for theta in DEFAULT_THETAS)
    assert worst <= TOL["energy"]
    _report(2, f"max |dU_cycle| = {worst:.3g}")


def test_criterion_3_endpoint_anchors():
    """theta_V = 0 reports r = 1 exactly, 45 deg reports r = 0 exactly."""
    idle = run_cycle(0.0).ledger
    full = run_cycle(45.0).ledger
    assert idle.r == 1.0
    assert full.r == 0.0
    expected = (PARAMS.n - 1.0) * math.tanh(PARAMS.x_c)
    assert abs(full.W_extracted - expected) <= TOL["energy"]
    _report(3, f"r(0) = {idle.r}, r(45) = {full.r}, W_extracted(45) = {full.W_extracted:.11f}")


def test_criterion_4_golden_comparison():
    """22.5 deg snapshots reach fidelity >= 0.98 against every measured
    matrix; the hot-stroke coherence sits within 0.02 of the measured one."""
    comparison = compare_golden(run_sweep())
    for label, f in comparison.fidelities.items():
        assert f >= 0.98, f"{label}: fidelity {f:.5f}"
    delta = abs(comparison.offdiag_simulated - comparison.offdiag_golden)
    assert abs(comparison.offdiag_simulated - 0.3535533905932738) < 1e-12
    assert delta <= 0.02
    assert comparison.passed
    fmin = min(comparison.fidelities.values())
    _report(4, f"min fidelity {fmin:.4f}, coherence delta {delta:.4f}")


def test_criterion_5_entropy_identity():
    """Delta S - beta Q equals the relative entropy to 1e-9 on both
    branches at every swept angle; the cycle entropy is nonnegative and
    vanishes at theta_V = 0; the kappa = 0 expansion value matches a
    brute-force divergence evaluation."""
    worst_gap = 0.0
    for theta in DEFAULT_THETAS:
        kappa = kappa_from_theta_deg(theta)
        x_h, _ = hot_x_from_kappa(kappa, PARAMS)
        t_c, t_h = math.tanh(PARAMS.x_c), math.tanh(x_h)

        rho_b = thermal_state(PARAMS.x_c).rho
        sig_e = entropy_production(rho_b, thermal_state(x_h), x_h, t_c - t_h)
        worst_gap = max(worst_gap, abs(sig_e.from_balance - sig_e.from_divergence))

        rho_d = thermal_state(x_h).rho
        sig_c = entropy_production(rho_d, thermal_state(PARAMS.x_c), PARAMS.x_c, -(t_c - t_h))
        worst_gap = max(worst_gap, abs(sig_c.from_balance - sig_c.from_divergence))

        ledger = run_cycle(theta).ledger
        assert ledger.Sigma_cycle >= 0.0
        if theta == 0.0:
            assert ledger.Sigma_cycle <= TOL["entropy_identity"]
    assert worst_gap <= TOL["entropy_identity"]

    # independent oracle: both states are diagonal in the sigma_y eigenbasis,
    # so the divergence is the classical KL of the aligned spectra
    t_c = math.tanh(PARAMS.x_c)
    p = ((1 + t_c) / 2, (1 - t_c) / 2)
    brute = sum(pi * (math.log(pi) - math.log(0.5)) for pi in p)
    sigma_e_k0 = run_cycle(45.0).ledger.Sigma_e
    assert abs(sigma_e_k0 - brute) <= TOL["entropy_identity"]
    assert brute == pytest.approx(0.67584, abs=5e-6)
    _report(5, f"max identity gap {worst_gap:.3g}, Sigma_e(kappa=0) = {sigma_e_k0:.5f}")


def test_criterion_6_dilation_kraus_equivalence():
    """Traced 4-dim optical dephasing equals the 2-dim Kraus channel to
    1e-12 entrywise over 200 random states x 20 random angles."""
    rng = np.random.default_rng(2024)
    thetas = rng.uniform(0.0, np.pi / 4, size=20)
    states = [random_density(rng) for _ in range(200)]
    ancilla = np.diag([1.0, 0.0]).astype(complex)
    worst = 0.0
    for theta in thetas:
        block = pd_block(float(theta))
        u = block.unitary
        for rho in states:
            joint = u @ np.kron(rho.matrix, ancilla) @ u.conj().T
            traced = partial_trace_path(DensityOperator(joint))
            kraus_out = apply_kraus(rho, block.kraus)
            worst = max(worst, np.abs(traced.matrix - kraus_out.matrix).max())
    assert worst <= TOL["dilation_vs_kraus"]
    _report(6, f"max |dilation - Kraus| = {worst:.3g} over 4000 pairs")


def test_criterion_7_tomography_roundtrip():
    """reconstruct(stokes(measure(rho))) = rho to 1e-12 over 500 states;
    the measured initial matrix is reproduced to 1e-4 from its own
    synthesized intensities."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(500):
        rho = random_density(rng)
        rebuilt = reconstruct(stokes_from_intensities(measure_all(rho)))
        worst = max(worst, np.abs(rebuilt.matrix - rho.matrix).max())
    assert worst <= TOL["roundtrip"]

    measured = np.array([[0.5134, 0.0033 + 0.4999j], [0.0033 - 0.4999j, 0.4865]])
    records = [
        IntensityRecord(
            basis,
            float(np.trace(p_a @ measured).real),
            float(np.trace(p_b @ measured).real),
        )
        for basis, (_, _, p_a, p_b) in BASES.items()
    ]
    with pytest.warns(UnphysicalStokesWarning):
        rebuilt = reconstruct(stokes_from_intensities(records))
    entry_delta = np.abs(rebuilt.matrix - measured).max()
    assert entry_delta <= 1e-4
    _report(7, f"max roundtrip delta {worst:.3g}, measured-matrix delta {entry_delta:.2g}")


def test_criterion_8_jones_compilation():
    """hwp(2a) hwp(a) = S(a) to 1e-12 over a grid including 3 pi / 2."""
    grid = list(np.linspace(-2 * np.pi, 2 * np.pi, 181)) + [3 * np.pi / 2]
    worst = 0.0
    for alpha in grid:
        compiled = hwp(2 * alpha).matrix @ hwp(alpha).matrix
        worst = max(worst, np.abs(compiled - rotation(alpha).matrix).max())
    assert worst <= TOL["unitary"]
    _report(8, f"max |hwp(2a) hwp(a) - S(a)| = {worst:.3g} over {len(grid)} angles")


FULL_CYCLE = """\
init rc
tomo TA
expand 2 180
tomo TB
pd 22.5
tomo TC
compress 2 180
tomo TD
ipd 22.5
tomo TA2
"""


def test_criterion_9_parser_robustness_and_dsl_equivalence():
    """10^5 random byte strings never crash the parser; the reference
    circuit's snapshots equal the direct-API pipeline to 1e-12."""
    rng = np.random.default_rng(5150)
    for _ in range(100_000):
        blob = rng.integers(0, 256, size=int(rng.integers(0, 48))).astype(np.uint8)
        try:
            parse(blob.tobytes())
        except CircuitSyntaxError:
            pass

    run = compile_program(parse(FULL_CYCLE)).run()
    theta = math.radians(22.5)
    rho = np.outer(KET_PSI_RC, KET_PSI_RC.conj())
    expected = {"TA": rho}
    u_e = expansion_unitary(2.0, math.pi).matrix
    rho = u_e @ rho @ u_e.conj().T
    expected["TB"] = rho
    joint = np.kron(rho, np.diag([1.0, 0.0]).astype(complex))
    u_pd = pd_block(theta).unitary
    joint = u_pd @ joint @ u_pd.conj().T
    expected["TC"] = partial_trace_path(DensityOperator(joint)).matrix
    u_c = np.kron(compression_unitary(2.0, math.pi).matrix, ID2)
    joint = u_c @ joint @ u_c.conj().T
    expected["TD"] = partial_trace_path(DensityOperator(joint)).matrix
    u_i = ipd_block(theta).unitary
    joint = u_i @ joint @ u_i.conj().T
    expected["TA2"] = partial_trace_path(DensityOperator(joint)).matrix

    worst = 0.0
    for label, matrix in expected.items():
        worst = max(worst, np.abs(run.snapshots[label].matrix - matrix).max())
    assert worst <= TOL["dsl_vs_api"]

    # the same program driven at the engine's operating point matches the
    # cycle runner's snapshots
    thermal_variant = FULL_CYCLE.replace("init rc", "init thermal 3.0")
    run_thermal = compile_program(parse(thermal_variant)).run()
    api = run_cycle(22.5, SweepConfig())
    for label in ("TA", "TB", "TC", "TD", "TA2"):
        gap = np.abs(run_thermal.snapshots[label].matrix - api.snapshots[label].matrix).max()
        worst = max(worst, gap)
    assert worst <= TOL["dsl_vs_api"]
    _report(9, f"fuzz 100000 inputs clean, max DSL-vs-API delta {worst:.3g}")


def test_oracle_equivalence_dense_grid():
    """Beyond the seven reference angles: 100-point grid stays at 1e-9."""
    worst = max(
        run_cycle(float(t)).max_delta_vs_closed_form for t in np.linspace(0.0, 45.0, 100)
    )
    assert worst <= TOL["energy"]
    _report("extra", f"dense-grid oracle max delta {worst:.3g}")
