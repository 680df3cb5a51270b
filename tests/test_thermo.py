"""Tests for thermal states, closed-form energetics and entropy production."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ottosim.optics import pd_block, rotation
from ottosim.qcore import (
    ID2,
    KET_PSI_RC,
    SIGMA_Y,
    DensityOperator,
    QuantumValueError,
)
from ottosim.thermo import (
    EngineParams,
    closed_form_energetics,
    entropy_production,
    hamiltonian,
    heat_from_states,
    hot_x_from_kappa,
    thermal_state,
    work_from_states,
)

from conftest import apply_kraus

PARAMS = EngineParams()  # n = 2, x_c = 3
TANH3 = math.tanh(3.0)


class TestEngineParams:
    def test_defaults(self):
        assert PARAMS.n == 2.0 and PARAMS.x_c == 3.0

    def test_validation(self):
        with pytest.raises(QuantumValueError):
            EngineParams(n=1.0)
        with pytest.raises(QuantumValueError):
            EngineParams(x_c=0.0)

    @pytest.mark.parametrize("field", ["n", "x_c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(QuantumValueError, match="must be finite"):
            EngineParams(**{field: value})


class TestThermalState:
    def test_infinite_temperature(self):
        st = thermal_state(0.0)
        assert np.abs(st.rho.matrix - 0.5 * ID2).max() < 1e-15

    def test_reference_point(self):
        st = thermal_state(3.0)
        expected = 0.5 * (ID2 - TANH3 * SIGMA_Y)
        assert np.abs(st.rho.matrix - expected).max() < 1e-15
        assert st.rho.matrix[0, 1] == pytest.approx(0.49752737684336523j, abs=1e-12)

    def test_ground_state_limit(self):
        # x -> inf: projector onto the -1 eigenstate of sigma_y (right circular)
        st = thermal_state(400.0)
        rc = np.outer(KET_PSI_RC, KET_PSI_RC.conj())
        assert np.abs(st.rho.matrix - rc).max() < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(QuantumValueError):
            thermal_state(-0.5)


class TestHotTemperatureMap:
    def test_idle_engine_endpoint_exact(self):
        x_h, r = hot_x_from_kappa(1.0, PARAMS)
        assert x_h == 3.0 and r == 1.0

    def test_full_dephasing_endpoint_exact(self):
        x_h, r = hot_x_from_kappa(0.0, PARAMS)
        assert x_h == 0.0 and r == 0.0

    def test_reference_value(self):
        # kappa = cos(45 deg): x_h = arctanh(kappa tanh 3)
        x_h, r = hot_x_from_kappa(math.cos(math.pi / 4), PARAMS)
        assert x_h == pytest.approx(0.8744142553179187, abs=1e-12)
        assert r == pytest.approx(0.29147141843930624, abs=1e-12)

    def test_range_validated(self):
        with pytest.raises(QuantumValueError):
            hot_x_from_kappa(1.2, PARAMS)
        with pytest.raises(QuantumValueError):
            hot_x_from_kappa(-0.1, PARAMS)


class TestClosedFormEnergetics:
    def test_full_dephasing_values(self):
        led = closed_form_energetics(0.0, PARAMS)
        assert led.W_AB == pytest.approx(-0.9950547536867305, abs=1e-12)
        assert led.Q_BC == pytest.approx(1.990109507373461, abs=1e-12)
        assert led.W_CD == pytest.approx(0.0, abs=1e-15)
        assert led.Q_DA == pytest.approx(-0.9950547536867305, abs=1e-12)
        assert led.dU_cycle == pytest.approx(0.0, abs=1e-12)
        assert led.W_extracted == pytest.approx(0.9950547536867305, abs=1e-12)

    def test_idle_engine(self):
        led = closed_form_energetics(1.0, PARAMS)
        assert led.Q_BC == pytest.approx(0.0, abs=1e-15)
        assert led.Q_DA == pytest.approx(0.0, abs=1e-15)
        assert led.W_AB == pytest.approx(-led.W_CD, abs=1e-15)
        assert led.Sigma_cycle == pytest.approx(0.0, abs=1e-12)

    def test_extracted_work_identity_and_monotonicity(self):
        grid = np.linspace(0.0, 1.0, 41)
        previous = None
        for kappa in grid:
            led = closed_form_energetics(kappa, PARAMS)
            expected = (PARAMS.n - 1.0) * (TANH3 - kappa * TANH3)
            assert led.W_extracted == pytest.approx(expected, abs=1e-12)
            assert led.W_extracted >= -1e-12
            if previous is not None:
                assert led.W_extracted <= previous + 1e-12
            previous = led.W_extracted

    def test_first_law_by_construction(self, rng):
        for kappa in rng.uniform(0.0, 1.0, size=25):
            led = closed_form_energetics(kappa, PARAMS)
            assert led.dU_cycle == pytest.approx(0.0, abs=1e-12)

    def test_heat_extraction_sign_condition(self):
        # Q_DA < 0 exactly when kappa < 1 (x_c > x_h)
        for kappa in (0.0, 0.3, 0.9, 0.999):
            assert closed_form_energetics(kappa, PARAMS).Q_DA < 0.0
        assert closed_form_energetics(1.0, PARAMS).Q_DA == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("x_c", [19.0, 19.5, 25.0, 40.0])
    def test_entropy_productions_at_large_x_c(self, x_c):
        # 1 - tanh(x_c) rounds to 0 from x_c = 19.5; the reference keeps 50 digits
        for kappa in (0.0, 0.1, 0.5, 0.9):
            led = closed_form_energetics(kappa, EngineParams(x_c=x_c))
            with localcontext() as ctx:
                ctx.prec = 50
                e = (Decimal(-2) * Decimal(x_c)).exp()
                t_c = (1 - e) / (1 + e)
                t_h = Decimal(kappa) * t_c
                p_c, p_h = ((1 + t_c) / 2, (1 - t_c) / 2), ((1 + t_h) / 2, (1 - t_h) / 2)
                exact = [sum(a * (a.ln() - b.ln()) for a, b in zip(p, q))
                         for p, q in ((p_c, p_h), (p_h, p_c))]
            assert led.Sigma_e == pytest.approx(float(exact[0]), rel=1e-12)
            assert led.Sigma_c == pytest.approx(float(exact[1]), rel=1e-12)


class TestWorkHeatFromStates:
    def test_identity_evolution_zero_work(self):
        rho = thermal_state(3.0).rho
        h = hamiltonian(1.0)
        assert work_from_states(rho, rho, h, h) == pytest.approx(0.0, abs=1e-15)

    def test_same_state_zero_heat(self):
        rho = thermal_state(3.0).rho
        assert heat_from_states(rho, rho, hamiltonian(2.0)) == pytest.approx(0.0, abs=1e-15)

    def test_expansion_stroke_matches_closed_form(self):
        # simulate the stroke: thermal state, rotation, endpoint Hamiltonians
        rho_a = thermal_state(PARAMS.x_c).rho
        u = rotation(3 * np.pi / 2).matrix
        rho_b = DensityOperator(u @ rho_a.matrix @ u.conj().T)
        w = work_from_states(rho_a, rho_b, hamiltonian(1.0), hamiltonian(PARAMS.n))
        assert w == pytest.approx(closed_form_energetics(0.5, PARAMS).W_AB, abs=1e-9)

    def test_hot_stroke_matches_closed_form(self):
        for theta_deg in (8.0, 22.5, 37.0):
            theta = math.radians(theta_deg)
            kappa = math.cos(2 * theta)
            rho_b = thermal_state(PARAMS.x_c).rho
            rho_c = apply_kraus(rho_b, pd_block(theta).kraus)
            q = heat_from_states(rho_b, rho_c, hamiltonian(PARAMS.n))
            assert q == pytest.approx(closed_form_energetics(kappa, PARAMS).Q_BC, abs=1e-9)

    def test_cold_stroke_matches_closed_form(self):
        for theta_deg in (8.0, 22.5, 37.0):
            theta = math.radians(theta_deg)
            kappa = math.cos(2 * theta)
            x_h, _ = hot_x_from_kappa(kappa, PARAMS)
            rho_d = thermal_state(x_h).rho
            rho_a = thermal_state(PARAMS.x_c).rho
            q = heat_from_states(rho_d, rho_a, hamiltonian(1.0))
            assert q == pytest.approx(closed_form_energetics(kappa, PARAMS).Q_DA, abs=1e-9)

    def test_compression_stroke_matches_closed_form(self):
        for kappa in (0.2, 0.7071067811865476):
            x_h, _ = hot_x_from_kappa(kappa, PARAMS)
            rho_c = thermal_state(x_h).rho
            u = rotation(3 * np.pi / 2).matrix
            rho_d = DensityOperator(u @ rho_c.matrix @ u.conj().T)
            w = work_from_states(rho_c, rho_d, hamiltonian(PARAMS.n), hamiltonian(1.0))
            assert w == pytest.approx(closed_form_energetics(kappa, PARAMS).W_CD, abs=1e-9)

    def test_dimension_mismatch(self):
        rho = thermal_state(1.0).rho
        with pytest.raises(QuantumValueError):
            work_from_states(rho, rho, hamiltonian(1.0), np.eye(4))
        with pytest.raises(QuantumValueError):
            heat_from_states(rho, rho, np.eye(4))


class TestEntropyProduction:
    def test_zero_at_target(self):
        target = thermal_state(3.0)
        got = entropy_production(target.rho, target, 3.0, 0.0)
        assert got.from_balance == pytest.approx(0.0, abs=1e-12)
        assert got.from_divergence == pytest.approx(0.0, abs=1e-12)

    def test_expansion_branch_full_dephasing(self):
        # kappa = 0: state after the expansion unitary is still the cold
        # thermal state (it commutes with the generator); the target is the
        # maximally mixed state, so Sigma_e = ln 2 - S(rho_cold)
        rho_b = thermal_state(3.0).rho
        target = thermal_state(0.0)
        q = 1.0 * (TANH3 - 0.0)  # heat in hbar omega_fin units: t_c - t_h
        got = entropy_production(rho_b, target, 0.0, q)
        assert got.from_balance == pytest.approx(0.6758357564824063, abs=1e-9)
        assert got.from_divergence == pytest.approx(got.from_balance, abs=1e-9)

    def test_identity_balance_equals_divergence(self):
        # Delta S - beta Q == D(rho(tau) || rho_th) across the sweep, both branches
        for theta_deg in (0.0, 8.0, 16.0, 22.5, 29.0, 37.0, 45.0):
            kappa = math.cos(math.radians(2 * theta_deg))
            kappa = 0.0 if theta_deg == 45.0 else kappa
            x_h, _ = hot_x_from_kappa(kappa, PARAMS)
            t_h = math.tanh(x_h)
            rho_b = thermal_state(PARAMS.x_c).rho
            hot = thermal_state(x_h)
            q_e = TANH3 - t_h  # hbar omega_fin units
            sig_e = entropy_production(rho_b, hot, x_h, q_e)
            assert sig_e.from_balance == pytest.approx(sig_e.from_divergence, abs=1e-9)

            rho_d = thermal_state(x_h).rho
            cold = thermal_state(PARAMS.x_c)
            q_c = -(TANH3 - t_h)  # hbar omega0 units
            sig_c = entropy_production(rho_d, cold, PARAMS.x_c, q_c)
            assert sig_c.from_balance == pytest.approx(sig_c.from_divergence, abs=1e-9)
            assert sig_e.from_balance >= -1e-10
            assert sig_c.from_balance >= -1e-10

    def test_cycle_entropy_vanishes_at_idle(self):
        led = closed_form_energetics(1.0, PARAMS)
        assert led.Sigma_cycle == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_kappa(self):
        sig_e_prev = sig_c_prev = None
        for kappa in np.linspace(0.0, 1.0, 21):
            led = closed_form_energetics(kappa, PARAMS)
            if sig_e_prev is not None:
                assert led.Sigma_e <= sig_e_prev + 1e-12
                assert led.Sigma_c <= sig_c_prev + 1e-12
            sig_e_prev, sig_c_prev = led.Sigma_e, led.Sigma_c
