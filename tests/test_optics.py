"""Tests for the optical elements and the (inverted) dephasing blocks."""

import math
import re

import numpy as np
import pytest

import ottosim.optics as optics_mod
from ottosim.circuit import compile_program, parse
from ottosim.optics import (
    OpticalElement,
    compression_unitary,
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
    fidelity,
    partial_trace_path,
)
from ottosim.runner import SweepConfig, run_sweep

from conftest import apply_kraus, block_errors, pure, random_density

RHO_RC = pure(KET_PSI_RC)


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
        assert fidelity(pure(out), RHO_RC) == pytest.approx(1.0, abs=1e-12)


class TestQwp:
    def test_minus_45_makes_right_circular_from_vertical(self):
        out = qwp(np.deg2rad(-45.0)).matrix @ KET_V
        assert fidelity(pure(out), RHO_RC) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_fixes_horizontal(self):
        out = qwp(0.0).matrix @ KET_H
        assert fidelity(pure(out), pure(KET_H)) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_unitary(self, rng):
        for theta in rng.uniform(-np.pi, np.pi, size=20):
            m = qwp(theta).matrix
            assert np.abs(m.conj().T @ m - ID2).max() < 1e-12


class TestStackedJones:
    def test_stack_slices_equal_the_single_elements(self, rng):
        # the circuit compiler builds each kind as one stack; rotation()/qwp()/hwp()
        # evaluate the same formulas at one angle, and so did the code before them
        angles = np.concatenate([rng.uniform(-20, 20, size=40), [0.0, -0.0, np.pi, 1e300]])
        for build, single in ((optics_mod._rotation_matrix, rotation),
                              (optics_mod._qwp_matrix, qwp), (optics_mod._hwp_matrix, hwp)):
            stack = build(angles)
            assert [m.tobytes() for m in stack] == [single(a).matrix.tobytes() for a in angles]
        for a in angles:
            c, s = np.cos(a), np.sin(a)
            r = np.array([[c, -s], [s, c]], dtype=complex)
            assert rotation(a).matrix.tobytes() == r.tobytes()
            assert qwp(a).matrix.tobytes() == (r @ np.diag([1.0, 1.0j]) @ r.conj().T).tobytes()

    def test_kron_slices_is_kron(self, rng):
        stack = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        stack[0] = -0.0
        for b in (ID2, np.diag([1.0, 0.0]).astype(complex)):
            lifted = optics_mod._kron_slices(stack, b)
            assert [m.tobytes() for m in lifted] == [np.kron(m, b).tobytes() for m in stack]
            assert optics_mod._kron_slices(stack[1], b).tobytes() == np.kron(stack[1], b).tobytes()


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

    def test_an_element_of_another_size_is_refused_by_name(self):
        # the unitarity defect subtracts a 2x2 or 4x4 identity, so other sizes stop before it
        for m in ([[1.0]], 2.0 * np.eye(3), np.eye(8), np.ones(4)):
            shape = np.shape(m)
            with pytest.raises(QuantumValueError, match=re.escape(
                    f"X element must be 2x2 or 4x4, got shape {shape}")):
                OpticalElement("X", m)

    def test_nan_fails_the_unitarity_check(self):
        with pytest.raises(QuantumValueError, match="not unitary: defect nan"):
            OpticalElement("ROT", np.full((2, 2), np.nan))
        with pytest.raises(QuantumValueError, match="HWP element not unitary: defect nan"):
            hwp(np.nan)


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


class TestDephasingBlocks:
    def test_slices_equal_reference_products(self, rng):
        thetas = np.concatenate([[0.0, np.pi / 8, np.pi / 4], rng.uniform(0, np.pi / 4, 20)])
        # lists of different lengths, and each list alone with the other one empty
        for pd_theta, ipd_theta in ((thetas, thetas[5:]), (thetas[:7], thetas),
                                    (thetas, []), ([], thetas)):
            u_pd, u_ipd, kraus, errors, errors_ipd = block_errors(pd_theta, ipd_theta)
            assert errors == errors_ipd == {}
            assert u_pd.shape == (len(pd_theta), 4, 4) and u_ipd.shape == (len(ipd_theta), 4, 4)
            assert kraus.shape == (len(pd_theta), 2, 2, 2)
            for k, theta in enumerate(pd_theta):
                assert u_pd[k].tobytes() == reference_blocks(theta)[0].tobytes()
                c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
                assert kraus[k].tobytes() == np.array(
                    [np.diag([1.0, c]), np.diag([0.0, s])], dtype=complex).tobytes()
            for k, theta in enumerate(ipd_theta):
                assert u_ipd[k].tobytes() == reference_blocks(theta)[1].tobytes()

    def test_one_call_stages_keep_the_per_slice_bits(self, rng):
        for n in (1, 2, 3, 7, 64, 129):
            c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            stack = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
            for const in (c, c.conj().T):  # C- and F-ordered, as the engine's factors are
                assert optics_mod._left_mul(const, stack).tobytes() == np.array(
                    [const @ m for m in stack]).tobytes()
                assert optics_mod._right_mul(stack, const).tobytes() == np.array(
                    [m @ const for m in stack]).tobytes()

    def test_out_of_range_rows_reported(self):
        _, _, _, errors, errors_ipd = block_errors([0.1, -0.1, 0.2, 1.0], [])
        assert set(errors) == {1, 3} and errors_ipd == {}
        with pytest.raises(QuantumValueError) as info:
            pd_block(-0.1)
        assert errors[1] == str(info.value)

    def test_errors_split_per_list_in_check_order(self, monkeypatch):
        # PD rows: 0 out of range, 1 an incomplete Kraus pair, 2 a bad arm plate, 3 a bad
        # arm stage; IPD rows: 0 out of range, 1 a bad arm plate, 2 a bad arm stage.  A
        # block is not checked past its plate, so rows 3 and 2 pass.
        kraus_pairs, hwp_matrix, arm_stage = (
            optics_mod._kraus_pairs, optics_mod._hwp_matrix, optics_mod._arm_stage)

        def scaled(original, rows):
            def patched(theta):
                out = original(theta).copy()
                out[rows] *= 1.1
                return out
            return patched

        # an out-of-range row fails every later check too, and keeps its range message; the
        # arm plates and stages are built per distinct angle, in ascending order:
        # -0.1, 0.1, 0.15, 0.2, 0.25, 0.3, 1.0
        monkeypatch.setattr(optics_mod, "_kraus_pairs", scaled(kraus_pairs, [0, 1]))
        monkeypatch.setattr(optics_mod, "_hwp_matrix", scaled(hwp_matrix, [0, 1, 2, 3, 6]))
        monkeypatch.setattr(optics_mod, "_arm_stage", scaled(arm_stage, [4, 5]))
        _, _, _, errors, errors_ipd = block_errors([-0.1, 0.1, 0.2, 0.3], [1.0, 0.15, 0.25])
        assert errors[0] == "theta_v = -0.1 rad outside [0, pi/4]"
        assert errors[1].startswith("incomplete Kraus set: defect")
        assert errors[2].startswith("HWP element not unitary: defect")
        assert errors_ipd[0] == "theta_v = 1 rad outside [0, pi/4]"
        assert errors_ipd[1].startswith("HWP element not unitary: defect")
        assert len(errors) == 3 and len(errors_ipd) == 2

    def test_each_distinct_angle_builds_and_checks_one_arm_plate(self, monkeypatch):
        built = []
        hwp_matrix = optics_mod._hwp_matrix

        def bad_plate_at_0_2(theta):  # records each build; the plate of 0.2 rad is not unitary
            built.append(np.array(theta))
            return np.where(np.isclose(theta, np.pi - 0.4)[..., None, None], 1.1, 1.0) * (
                hwp_matrix(theta))

        monkeypatch.setattr(optics_mod, "_hwp_matrix", bad_plate_at_0_2)
        pd, ipd, _, errors, errors_ipd = block_errors([0.2, 0.1, 0.2], [0.1, 0.2])
        assert [len(theta) for theta in built] == [2]
        # the shared plate fails, with one message, at every position that uses it
        assert set(errors) == {0, 2} and set(errors_ipd) == {1}
        assert errors[0] == errors[2] == errors_ipd[1]
        assert errors[0].startswith("HWP element not unitary: defect 0.21")
        assert pd[0].tobytes() == pd[2].tobytes() and ipd.shape == (2, 4, 4)

    def test_an_empty_list_builds_and_checks_nothing(self, monkeypatch):
        def unused(*args):
            raise AssertionError("called for an empty list")

        monkeypatch.setattr(optics_mod, "_ipd_product", unused)
        pd, ipd, kraus, errors, errors_ipd = block_errors([0.3], [])
        assert ipd.shape == (0, 4, 4) and errors == errors_ipd == {}
        assert pd[0].tobytes() == reference_blocks(0.3)[0].tobytes()
        monkeypatch.undo()
        for name in ("_pd_product", "_kraus_pairs", "_kraus_defects"):
            monkeypatch.setattr(optics_mod, name, unused)
        pd, ipd, kraus, errors, errors_ipd = block_errors([], [0.3])
        assert pd.shape == (0, 4, 4) and kraus.shape == (0, 2, 2, 2)
        assert ipd[0].tobytes() == reference_blocks(0.3)[1].tobytes()


class TestBlockUnitarity:
    """The blocks have no unitarity check of their own; the arm plate's check bounds it.

    A block is its arm stage (the V-arm plate beside hwp(0), bit for bit) times constant
    stages that are permutations up to the entries c = 6.1e-17 of hwp(pi/2), so its U^dag U - 1
    is the plate's, permuted, up to terms of order c d + c^2 (d the plate's defect) and the
    rounding of the sums.
    """

    BOUND = 4.5e-16  # 2 ulp of 1, plus room for the column norms of a perturbed plate

    def test_constant_stages_are_exactly_unitary(self):
        stages = np.array([optics_mod._PBS, optics_mod._PHASE_0, optics_mod._FLIP,
                           optics_mod._FLIP_PBS_PHASE])
        assert optics_mod._unitarity_defects(stages).tolist() == [0.0] * 4

    def test_block_defects_are_the_plate_defects(self, rng):
        plates = optics_mod._hwp_matrix(np.pi - 2.0 * rng.uniform(0.0, np.pi / 4, 128))
        for scale in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
            noisy = plates + scale * (rng.normal(size=plates.shape)
                                      + 1j * rng.normal(size=plates.shape))
            plate = optics_mod._unitarity_defects(noisy)
            arms = optics_mod._arm_stage(noisy)
            for block in (optics_mod._pd_product(arms), optics_mod._ipd_product(arms)):
                defect = optics_mod._unitarity_defects(block)
                if scale == 0.0:
                    assert defect.tobytes() == plate.tobytes()
                else:
                    assert np.abs(defect - plate).max() <= self.BOUND, scale

    def test_single_blocks_are_the_gated_slices(self, monkeypatch):
        # pd_block and ipd_block check only what BLOCK_GATE reads, the 2x2 arm plate and the
        # Kraus pair, and hand out dephasing_blocks' slices read-only
        shapes = []

        def recorded(name):
            original = getattr(optics_mod, name)
            return lambda stack: shapes.append((name, stack.shape)) or original(stack)

        for name in ("_unitarity_defects", "_kraus_defects"):
            monkeypatch.setattr(optics_mod, name, recorded(name))
        pd, ipd = pd_block(0.3), ipd_block(0.3)
        assert shapes == [("_unitarity_defects", (1, 2, 2)), ("_kraus_defects", (1, 2, 2, 2)),
                          ("_unitarity_defects", (1, 2, 2))]
        monkeypatch.undo()
        ref_pd, ref_ipd, kraus, _ = optics_mod.dephasing_blocks([0.3], [0.3])
        assert pd.unitary.tobytes() == ref_pd[0].tobytes()
        assert ipd.unitary.tobytes() == ref_ipd[0].tobytes()
        assert pd.kraus.shape == (2, 2, 2) and pd.kraus.tobytes() == kraus[0].tobytes()
        assert ipd.kraus is None and (pd.name, ipd.name) == ("PD", "IPD")
        assert not any(m.flags.writeable for m in (pd.unitary, pd.kraus, ipd.unitary))

    def test_sweep_and_compile_check_2x2_stacks_only(self, monkeypatch):
        sizes, original = set(), optics_mod._unitarity_defects

        def recorded(stack):
            sizes.add(stack.shape[-1])
            return original(stack)

        monkeypatch.setattr(optics_mod, "_unitarity_defects", recorded)
        run_sweep(SweepConfig(theta_list_deg=tuple(np.linspace(0.0, 45.0, 128))))
        compile_program(parse("init rc\nexpand 2 180\npd 22.5\ncompress 2 180\n"
                              "ipd 22.5\ntomo TA2\n")).run()
        assert sizes == {2}


class TestExpansionCompression:
    def test_reference_jones_parameter(self):
        # n = 2 and omega0 tau = pi give alpha = 3 pi / 2
        el = expansion_unitary(2.0, np.pi)
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
