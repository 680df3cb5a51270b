"""Tests for the optical elements and the (inverted) dephasing blocks."""

import math

import numpy as np
import pytest

from ottosim.optics import (
    ChannelBlock,
    compression_unitary,
    dephasing_stack,
    expansion_unitary,
    hwp,
    ipd_block,
    kappa_from_theta_deg,
    pbs_matrix,
    pd_block,
    phase_on_path1,
    qwp,
    rotation,
)
from ottosim.qcore import (
    ID2,
    KET_H,
    KET_PSI_RC,
    KET_V,
    SIGMA_Y,
    DensityOperator,
    QuantumValueError,
    apply_kraus,
    fidelity,
    partial_trace_path,
)

from conftest import random_density

RHO_RC = DensityOperator.from_ket(KET_PSI_RC)


def dilate(block, rho):
    """Apply a block's joint unitary with the ancilla in k0, then trace."""
    joint = np.kron(rho.matrix, np.diag([1.0, 0.0]).astype(complex))
    out = block.unitary @ joint @ block.unitary.conj().T
    return partial_trace_path(DensityOperator(out))


class TestHwp:
    def test_zero_angle(self):
        assert np.array_equal(hwp(0.0).matrix, np.diag([1.0, -1.0]))

    def test_swap_at_right_angle_argument(self):
        # the H <-> V swap sits at matrix argument pi/2 in this convention
        m = hwp(np.pi / 2).matrix
        assert np.abs(m @ KET_H - KET_V).max() < 1e-15
        assert np.abs(m @ KET_V - KET_H).max() < 1e-15

    def test_involution(self, rng):
        for theta in rng.uniform(-4 * np.pi, 4 * np.pi, size=50):
            m = hwp(theta).matrix
            assert np.abs(m @ m - ID2).max() < 1e-12

    def test_unitary(self, rng):
        for theta in rng.uniform(-np.pi, np.pi, size=20):
            m = hwp(theta).matrix
            assert np.abs(m.conj().T @ m - ID2).max() < 1e-12

    def test_pd_arm_action_matches_dephasing_transformation(self):
        # normative arm behavior |V> -> sin(2t)|H> + cos(2t)|V>, realized
        # at matrix argument pi - 2t
        for theta_v in (0.0, np.pi / 16, np.pi / 8, np.pi / 4):
            out = hwp(np.pi - 2 * theta_v).matrix @ KET_V
            expected = np.array([np.sin(2 * theta_v), np.cos(2 * theta_v)])
            assert np.abs(out - expected).max() < 1e-12


class TestRotation:
    def test_identity_at_zero(self):
        assert np.array_equal(rotation(0.0).matrix, ID2)

    def test_compiles_from_half_wave_pair(self):
        # S(alpha) = hwp(2 alpha) @ hwp(alpha)
        for alpha in (np.deg2rad(10), np.deg2rad(37), 3 * np.pi / 2):
            compiled = hwp(2 * alpha).matrix @ hwp(alpha).matrix
            assert np.abs(compiled - rotation(alpha).matrix).max() < 1e-12

    def test_group_property(self, rng):
        for _ in range(50):
            a, b = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
            prod = rotation(a).matrix @ rotation(b).matrix
            assert np.abs(prod - rotation(a + b).matrix).max() < 1e-12

    def test_matches_sigma_y_exponential(self, rng):
        # exp(-i a sigma_y) via the sigma_y eigenbasis as an independent route
        lam, vec = np.linalg.eigh(SIGMA_Y)
        for a in rng.uniform(-np.pi, np.pi, size=20):
            exp_m = vec @ np.diag(np.exp(-1j * a * lam)) @ vec.conj().T
            assert np.abs(exp_m - rotation(a).matrix).max() < 1e-12

    def test_circular_state_is_fixed_ray(self):
        out = rotation(3 * np.pi / 2).matrix @ KET_PSI_RC
        assert fidelity(DensityOperator.from_ket(out), RHO_RC) == pytest.approx(1.0, abs=1e-12)


class TestQwp:
    def test_minus_45_makes_right_circular_from_vertical(self):
        out = qwp(np.deg2rad(-45.0)).matrix @ KET_V
        assert fidelity(DensityOperator.from_ket(out), RHO_RC) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_fixes_horizontal(self):
        out = qwp(0.0).matrix @ KET_H
        assert fidelity(DensityOperator.from_ket(out), DensityOperator.from_ket(KET_H)) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_unitary(self, rng):
        for theta in rng.uniform(-np.pi, np.pi, size=20):
            m = qwp(theta).matrix
            assert np.abs(m.conj().T @ m - ID2).max() < 1e-12


class TestPdBlock:
    def test_identity_at_zero_angle(self, rng):
        block = pd_block(0.0)
        for _ in range(20):
            rho = random_density(rng)
            assert np.abs(dilate(block, rho).matrix - rho.matrix).max() < 1e-12
            assert np.abs(apply_kraus(rho, block.kraus).matrix - rho.matrix).max() < 1e-12

    def test_full_dephasing_at_45_deg(self):
        block = pd_block(np.pi / 4)
        out = dilate(block, RHO_RC)
        assert np.abs(out.matrix - 0.5 * ID2).max() < 1e-12

    def test_coherence_value_at_22_5_deg(self):
        out = dilate(pd_block(np.deg2rad(22.5)), RHO_RC)
        assert abs(out.matrix[0, 1]) == pytest.approx(0.3535533905932738, abs=1e-12)
        # the measured counterpart of this number is 0.3407
        assert abs(abs(out.matrix[0, 1]) - 0.3407) <= 0.02

    def test_dilation_matches_kraus(self, rng):
        for _ in range(10):
            block = pd_block(rng.uniform(0, np.pi / 4))
            for _ in range(20):
                rho = random_density(rng)
                delta = np.abs(
                    dilate(block, rho).matrix - apply_kraus(rho, block.kraus).matrix
                ).max()
                assert delta < 1e-12

    def test_coherence_law_and_diagonal_preservation(self, rng):
        for _ in range(20):
            theta = rng.uniform(0, np.pi / 4)
            block = pd_block(theta)
            rho = random_density(rng)
            out = dilate(block, rho)
            assert abs(out.matrix[0, 1]) == pytest.approx(
                np.cos(2 * theta) * abs(rho.matrix[0, 1]), abs=1e-12
            )
            assert out.matrix[0, 0] == pytest.approx(rho.matrix[0, 0], abs=1e-12)
            assert out.matrix[1, 1] == pytest.approx(rho.matrix[1, 1], abs=1e-12)

    def test_angle_out_of_range(self):
        with pytest.raises(QuantumValueError):
            pd_block(np.deg2rad(50.0))
        with pytest.raises(QuantumValueError):
            pd_block(-0.1)

    def test_block_unitarity_validated(self):
        with pytest.raises(QuantumValueError):
            ChannelBlock("bad", unitary=np.eye(4) * 2.0)


class TestIpdBlock:
    def test_inverts_pd_on_joint_state(self, rng):
        for theta in np.linspace(0.0, np.pi / 4, 9):
            u_pd = pd_block(theta).unitary
            u_ipd = ipd_block(theta).unitary
            assert np.abs(u_ipd @ u_pd - np.eye(4)).max() < 1e-12

    def test_roundtrip_restores_circular_state(self):
        theta = np.deg2rad(22.5)
        joint = np.kron(RHO_RC.matrix, np.diag([1.0, 0.0]).astype(complex))
        u = ipd_block(theta).unitary @ pd_block(theta).unitary
        out = partial_trace_path(DensityOperator(u @ joint @ u.conj().T))
        assert np.abs(out.matrix - RHO_RC.matrix).max() < 1e-12

    def test_identity_on_occupied_path_at_zero(self, rng):
        u = ipd_block(0.0).unitary
        for _ in range(10):
            rho = random_density(rng)
            joint = np.kron(rho.matrix, np.diag([1.0, 0.0]).astype(complex))
            out = partial_trace_path(DensityOperator(u @ joint @ u.conj().T))
            assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def reference_blocks(theta):
    """PD and IPD unitaries multiplied out element by element, as the circuit reads."""
    p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)

    def on_paths(pol_0, pol_1):
        return np.kron(pol_0, p0) + np.kron(pol_1, p1)

    b = pbs_matrix()
    arms = on_paths(hwp(0.0).matrix, hwp(np.pi - 2.0 * theta).matrix)
    flip = on_paths(ID2, hwp(np.pi / 2).matrix)
    pzt = np.kron(ID2, np.diag([1.0, np.exp(0j)]))  # both PZTs at zero phase
    pd = flip @ b @ pzt @ arms @ b
    ipd = b @ arms @ pzt @ b @ flip
    return pd, ipd


class TestDephasingStack:
    def test_slices_equal_reference_products(self, rng):
        thetas = np.concatenate([[0.0, np.pi / 8, np.pi / 4], rng.uniform(0, np.pi / 4, 20)])
        u_pd, kraus, errors = dephasing_stack(thetas)
        u_ipd, none, errors_ipd = dephasing_stack(thetas, inverse=True)
        assert errors == errors_ipd == {} and none is None
        for k, theta in enumerate(thetas):
            ref_pd, ref_ipd = reference_blocks(theta)
            assert u_pd[k].tobytes() == ref_pd.tobytes()
            assert u_ipd[k].tobytes() == ref_ipd.tobytes()
            c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
            assert kraus[k].tobytes() == np.array(
                [np.diag([1.0, c]), np.diag([0.0, s])], dtype=complex).tobytes()

    def test_out_of_range_rows_reported(self):
        _, _, errors = dephasing_stack([0.1, -0.1, 0.2, 1.0])
        assert set(errors) == {1, 3}
        with pytest.raises(QuantumValueError) as info:
            pd_block(-0.1)
        assert errors[1] == str(info.value)


class TestExpansionCompression:
    def test_reference_jones_parameter(self):
        # n = 2 and omega0 tau = pi give alpha = 3 pi / 2
        el = expansion_unitary(2.0, np.pi)
        assert el.angle_or_phase == pytest.approx(3 * np.pi / 2, abs=1e-15)
        assert np.abs(el.matrix - rotation(3 * np.pi / 2).matrix).max() < 1e-15

    def test_compression_same_parameter(self):
        a = expansion_unitary(2.0, np.pi).matrix
        b = compression_unitary(2.0, np.pi).matrix
        assert np.array_equal(a, b)

    def test_small_time_limit_is_identity(self):
        assert np.abs(expansion_unitary(2.0, 0.0).matrix - ID2).max() < 1e-15
        assert np.abs(expansion_unitary(2.0, 1e-12).matrix - ID2).max() < 1e-11

    def test_invalid_gap_ratio(self):
        with pytest.raises(QuantumValueError):
            expansion_unitary(1.0, np.pi)
        with pytest.raises(QuantumValueError):
            compression_unitary(0.5, np.pi)


class TestPbsAndKappa:
    def test_pbs_routing(self):
        b = pbs_matrix()
        # |H,k0> stays, |V,k0> crosses to k1 with phase +1
        assert np.array_equal(b @ np.eye(4)[:, 0], np.eye(4)[:, 0])
        assert np.array_equal(b @ np.eye(4)[:, 2], np.eye(4)[:, 3])
        assert np.abs(b.conj().T @ b - np.eye(4)).max() == 0.0

    def test_joint_elements(self):
        assert pbs_matrix().shape == (4, 4)
        ph = phase_on_path1(0.7)
        assert ph.shape == (4, 4)
        assert ph[1, 1] == pytest.approx(np.exp(0.7j), abs=1e-15)
        assert ph[3, 3] == pytest.approx(np.exp(0.7j), abs=1e-15)
        assert ph[0, 0] == 1.0 and ph[2, 2] == 1.0

    def test_kappa_endpoints_exact(self):
        assert kappa_from_theta_deg(0.0) == 1.0
        assert kappa_from_theta_deg(45.0) == 0.0

    def test_kappa_matches_cosine(self):
        for theta in (8.0, 16.0, 22.5, 29.0, 37.0):
            assert kappa_from_theta_deg(theta) == pytest.approx(
                math.cos(math.radians(2 * theta)), abs=1e-15
            )
