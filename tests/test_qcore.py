"""Unit and property tests for the linear-algebra / density-operator core."""

import math
import re

import numpy as np
import pytest

from ottosim.qcore import (
    ID2,
    KET_PSI_RC,
    SIGMA_Y,
    DensityOperator,
    KrausSet,
    QuantumValueError,
    SupportError,
    apply_kraus,
    density_errors,
    density_spectra,
    density_operators,
    eig_herm,
    entropies,
    fidelity,
    kraus_errors,
    partial_trace_path,
    relative_entropy,
    spectra,
    support_weights,
    tensor,
    trace_path,
    von_neumann_entropy,
)

from conftest import random_density, random_hermitian, random_pure, random_unitary

RHO_RC = DensityOperator(np.outer(KET_PSI_RC, KET_PSI_RC.conj()))

# thermal state at x = 3 and its hand-derived spectrum
TANH3 = math.tanh(3.0)
RHO_TH3 = DensityOperator(0.5 * (ID2 - TANH3 * SIGMA_Y))
LAM_TH3 = ((1.0 + TANH3) / 2.0, (1.0 - TANH3) / 2.0)   # (0.997527..., 0.002472...)
S_TH3 = -sum(l * math.log(l) for l in LAM_TH3)         # 0.0173114...


class TestDensityOperator:
    def test_valid_construction(self):
        rho = DensityOperator(0.5 * ID2)
        assert rho.dim == 2
        assert rho.label is None

    def test_rejects_non_hermitian(self):
        with pytest.raises(QuantumValueError, match="Hermitian"):
            DensityOperator([[0.5, 0.1], [0.0, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(QuantumValueError, match="trace"):
            DensityOperator(0.7 * ID2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(QuantumValueError, match="positive"):
            DensityOperator([[1.1, 0.0], [0.0, -0.1]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(QuantumValueError):
            DensityOperator(np.eye(3) / 3)

    def test_immutable(self):
        rho = DensityOperator(0.5 * ID2)
        with pytest.raises(AttributeError):
            rho.label = "x"
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(ID2, ID2), np.eye(4))

    def test_sigma_y_block_structure(self):
        # sigma_y on polarization, identity on path: 2x2 blocks of sigma_y * I
        m = tensor(SIGMA_Y, ID2)
        assert np.array_equal(m[:2, 2:], -1j * ID2)
        assert np.array_equal(m[2:, :2], 1j * ID2)
        assert np.all(m[:2, :2] == 0) and np.all(m[2:, 2:] == 0)

    def test_projector_placement(self):
        # (|0><0|) (x) (|1><1|): joint index 2*pol + path = 1, by enumeration
        m = tensor(np.diag([1, 0]), np.diag([0, 1]))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.array_equal(m, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(QuantumValueError):
            tensor(np.eye(4), ID2)


class TestPartialTracePath:
    def test_product_state_returns_system_factor(self, rng):
        for _ in range(200):
            rho_s = random_density(rng)
            rho_r = random_density(rng)
            joint = DensityOperator(tensor(rho_s.matrix, rho_r.matrix))
            red = partial_trace_path(joint)
            assert np.abs(red.matrix - rho_s.matrix).max() < 1e-13

    def test_dephasing_output_coherence(self):
        # joint state (|H>|0> - i c|V>|0> - i s|V>|1>)/sqrt(2): tracing the
        # path leaves polarization coherence (i/2) cos(2 theta_v)
        for theta in (0.0, np.pi / 8, np.pi / 6, np.pi / 4):
            c, s = np.cos(2 * theta), np.sin(2 * theta)
            psi = np.array([1.0, 0.0, -1j * c, -1j * s]) / np.sqrt(2)
            red = partial_trace_path(DensityOperator(np.outer(psi, psi.conj())))
            assert red.matrix[0, 1] == pytest.approx(0.5j * c, abs=1e-12)
            assert red.matrix[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_maximally_entangled_reduces_to_mixed(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        red = partial_trace_path(DensityOperator(np.outer(psi, psi.conj())))
        assert np.abs(red.matrix - 0.5 * ID2).max() < 1e-14

    def test_rejects_invalid_input(self):
        with pytest.raises(QuantumValueError):
            partial_trace_path(np.eye(4) / 2.0)  # trace 2
        with pytest.raises(QuantumValueError):
            partial_trace_path(RHO_RC)  # wrong dimension


class TestApplyKraus:
    def test_identity_channel(self, rng):
        k = KrausSet([ID2])
        rho = random_density(rng)
        out = apply_kraus(rho, k)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-14

    def test_full_dephasing_kills_coherence(self):
        # p = 1: K0 = diag(1, 0), K1 = diag(0, 1)
        k = KrausSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        out = apply_kraus(RHO_RC, k)
        assert np.abs(out.matrix - 0.5 * ID2).max() < 1e-14

    def test_partial_dephasing_coherence_value(self):
        # kappa = cos(45 deg): |rho01| = 0.5 cos(45 deg) = 0.3535533905932738
        c = math.cos(math.pi / 4)
        s = math.sin(math.pi / 4)
        k = KrausSet([np.diag([1.0, c]), np.diag([0.0, s])])
        out = apply_kraus(RHO_RC, k)
        assert abs(out.matrix[0, 1]) == pytest.approx(0.3535533905932738, abs=1e-12)

    def test_incomplete_set_rejected(self):
        with pytest.raises(QuantumValueError, match="incomplete"):
            KrausSet([0.5 * ID2])

    def test_cptp_property(self, rng):
        # random channels from random isometries: output stays a valid state
        for _ in range(100):
            g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            q, _ = np.linalg.qr(g)
            k = KrausSet([q[:2, :], q[2:, :]])
            out = apply_kraus(random_density(rng), k)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            assert np.abs(out.matrix - out.matrix.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-10


class TestEigHerm:
    def test_sigma_y_spectrum(self):
        lam, vec = eig_herm(SIGMA_Y)
        assert lam == pytest.approx([1.0, -1.0], abs=1e-14)
        # phase convention: first component real positive
        assert np.abs(vec[:, 0] - np.array([1.0, 1.0j]) / np.sqrt(2)).max() < 1e-12
        assert np.abs(vec[:, 1] - np.array([1.0, -1.0j]) / np.sqrt(2)).max() < 1e-12

    def test_thermal_spectrum(self):
        lam, _ = eig_herm(RHO_TH3.matrix)
        assert lam == pytest.approx(LAM_TH3, abs=1e-12)
        assert lam[0] == pytest.approx(0.9975273768433653, abs=1e-12)

    def test_degenerate(self):
        lam, _ = eig_herm(0.5 * ID2)
        assert lam == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_reconstruction_property(self, rng):
        for dim in (2, 4):
            for _ in range(100):
                m = random_hermitian(rng, dim)
                lam, vec = eig_herm(m)
                rebuilt = vec @ np.diag(lam) @ vec.conj().T
                assert np.abs(rebuilt - m).max() < 1e-10
                assert np.all(np.diff(lam) <= 1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(QuantumValueError):
            eig_herm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestVonNeumannEntropy:
    def test_pure_state_zero(self, rng):
        for _ in range(20):
            assert von_neumann_entropy(random_pure(rng)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(0.5 * ID2) == pytest.approx(math.log(2), abs=1e-14)

    def test_thermal_value(self):
        # -sum lam ln lam over the x = 3 spectrum
        assert von_neumann_entropy(RHO_TH3) == pytest.approx(S_TH3, abs=1e-12)
        assert von_neumann_entropy(RHO_TH3) == pytest.approx(0.01731142407753892, abs=1e-9)

    def test_unitary_invariance(self, rng):
        for _ in range(50):
            rho = random_density(rng)
            u = random_unitary(rng)
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-10
            )


class TestRelativeEntropy:
    def test_self_divergence_zero(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_thermal_vs_mixed(self):
        # D(rho_th || I/2) = ln 2 - S(rho_th)
        expected = math.log(2) - S_TH3
        got = relative_entropy(RHO_TH3, DensityOperator(0.5 * ID2))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.6758357564824063, abs=1e-9)

    def test_mixed_vs_thermal(self):
        # D(I/2 || rho_th) = -ln 2 - (ln lam1 + ln lam2)/2
        expected = -math.log(2) - 0.5 * sum(math.log(l) for l in LAM_TH3)
        got = relative_entropy(DensityOperator(0.5 * ID2), RHO_TH3)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(2.309328504577792, abs=1e-9)

    def test_nonnegative_and_faithful(self, rng):
        for _ in range(100):
            a = random_density(rng)
            b = random_density(rng)
            d = relative_entropy(a, b)
            assert d > -1e-10
            if np.abs(a.matrix - b.matrix).max() < 1e-9:
                assert d < 1e-8

    def test_support_violation(self, rng):
        pure = random_pure(rng)
        mixed = random_density(rng)
        with pytest.raises(SupportError):
            relative_entropy(mixed, pure)

    def test_dim_mismatch(self, rng):
        with pytest.raises(QuantumValueError):
            relative_entropy(random_density(rng, 2), random_density(rng, 4))


class TestFidelity:
    def test_self_fidelity_one(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_target_is_overlap(self, rng):
        # for pure sigma the Uhlmann square reduces to <psi|rho|psi>; the
        # det-term roundoff enters under a square root, so ~1e-8 is the
        # attainable float64 agreement
        for _ in range(50):
            rho = random_density(rng)
            psi = random_pure(rng)
            overlap = float(np.trace(rho.matrix @ psi.matrix).real)
            assert fidelity(rho, psi) == pytest.approx(overlap, abs=5e-8)

    def test_mixed_vs_pure_half(self, rng):
        assert fidelity(DensityOperator(0.5 * ID2), random_pure(rng)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_symmetry_and_range(self, rng):
        for _ in range(50):
            a, b = random_density(rng), random_density(rng)
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_dim_mismatch(self, rng):
        with pytest.raises(QuantumValueError):
            fidelity(random_density(rng, 2), random_density(rng, 4))


class TestStackedChecks:
    """The stacked forms against the single-matrix functions, slice by slice."""

    BAD = (
        [[0.5, 0.1], [0.0, 0.5]],        # not Hermitian
        [[0.7, 0.0], [0.0, 0.7]],        # trace
        [[1.1, 0.0], [0.0, -0.1]],       # negative eigenvalue
    )

    @staticmethod
    def _message(fn, *args):
        with pytest.raises(QuantumValueError) as info:
            fn(*args)
        return str(info.value)

    def test_density_errors_match_constructor(self, rng):
        good = [random_density(rng).matrix for _ in range(4)]
        stack = np.array(good[:2] + [np.asarray(m, dtype=complex) for m in self.BAD] + good[2:])
        lam, errors = density_errors(stack)
        assert errors == {2 + k: self._message(DensityOperator, m) for k, m in enumerate(self.BAD)}
        assert lam.tobytes() == np.linalg.eigvalsh(stack).tobytes()
        # one eigh for the same checks and for spectra()
        lam, spec, vec, both = density_spectra(stack)
        assert both == errors
        assert lam.tobytes() == np.linalg.eigh(stack)[0].tobytes()
        assert [a.tobytes() for a in (spec, vec)] == [a.tobytes() for a in spectra(stack)[:2]]

    def test_kraus_errors_match_kraus_set(self):
        ok = [np.diag([1.0, 0.6]), np.diag([0.0, 0.8])]
        bad = [np.diag([1.0, 0.6]), np.diag([0.0, 0.9])]
        errors = kraus_errors(np.array([ok, bad], dtype=complex))
        assert errors == {1: self._message(KrausSet, bad)}

    def test_trace_path_matches_partial_trace(self, rng):
        states = [DensityOperator(tensor(random_density(rng).matrix, random_density(rng).matrix))
                  for _ in range(8)]
        stacked = trace_path(np.array([s.matrix for s in states]))
        for k, state in enumerate(states):
            assert stacked[k].tobytes() == partial_trace_path(state).matrix.tobytes()

    def test_entropies_match_reference(self, rng):
        states = [random_density(rng), random_pure(rng), DensityOperator(0.5 * ID2),
                  RHO_TH3, DensityOperator(np.diag([1.0, 0.0])), random_density(rng, 4)]
        for state in states:
            lam, _, errors = spectra(state.matrix[None])
            assert errors == {}
            ref = eig_herm(state.matrix)[0]
            ref = ref[ref >= 1e-14]
            ref = float(max(-np.sum(ref * np.log(ref)), 0.0))
            assert repr(entropies(lam)[0]) == repr(ref) == repr(von_neumann_entropy(state))

    def test_support_weights_match_reference(self, rng):
        sigmas = [random_pure(rng), RHO_TH3, random_pure(rng)]
        rho = random_density(rng)
        lam, vec, _ = spectra(np.array([s.matrix for s in sigmas]))
        _, errors = support_weights(rho.matrix, lam, vec)
        assert set(errors) == {0, 2}
        for k in (0, 2):
            mu, v = eig_herm(sigmas[k].matrix)
            w = np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho.matrix, v))
            assert mu[1] < 1e-12 < w[1]
            assert errors[k] == f"support violation: weight {w[1]:.3g} on eigenvalue 0"
        with pytest.raises(SupportError, match="support violation"):
            relative_entropy(rho, sigmas[0])

    def test_nan_fails_the_density_checks(self):
        nan = np.full((2, 2), np.nan)
        assert density_errors(np.array([0.5 * ID2, nan]))[1] == {1: "not Hermitian: defect nan"}
        assert density_spectra(np.array([0.5 * ID2, nan]))[3] == {1: "not Hermitian: defect nan"}
        with pytest.raises(QuantumValueError, match="not Hermitian: defect nan"):
            DensityOperator(nan)

    def test_nan_fails_the_kraus_check(self):
        bad = [np.diag([1.0, np.nan]), np.diag([0.0, 0.8])]
        assert kraus_errors(np.array([bad], dtype=complex)) == {
            0: "incomplete Kraus set: defect nan"}
        with pytest.raises(QuantumValueError, match="defect nan"):
            KrausSet(bad)

    def test_density_operators_match_constructor(self, rng):
        good = [random_density(rng).matrix for _ in range(3)]
        states = density_operators(good, ["a", "b", "c"])
        assert [s.label for s in states] == ["a", "b", "c"]
        assert all(s == DensityOperator(m) and not s.matrix.flags.writeable
                   for s, m in zip(states, good))
        for bad in self.BAD:
            with pytest.raises(QuantumValueError, match=re.escape(self._message(DensityOperator, bad))):
                density_operators(good + [bad, self.BAD[0]], "abcde")
        mixed = density_operators([good[0], random_density(rng, 4).matrix], "ab")  # two shapes
        assert [s.dim for s in mixed] == [2, 4]
        assert [s.label for s in mixed] == ["a", "b"]
        assert not any(s.matrix.flags.writeable for s in mixed)
        assert density_operators([], []) == []

    def test_density_operators_name_the_first_failure_across_shapes(self, rng):
        # one stack per shape; the failure reported is the first in the given order
        bad4 = np.diag([1.1, -0.1, 0.0, 0.0])
        for order in ([self.BAD[1], bad4], [bad4, self.BAD[1]]):
            with pytest.raises(QuantumValueError) as info:
                density_operators([random_density(rng, 4).matrix, *order, self.BAD[0]], "abcd")
            assert str(info.value) == self._message(DensityOperator, order[0])

    def test_nan_fails_the_spectrum_and_support_checks(self):
        nan = np.full((2, 2), np.nan)
        with pytest.raises(QuantumValueError, match="needs a Hermitian matrix: defect nan"):
            eig_herm(nan)
        assert spectra(nan[None].astype(complex))[2] == {
            0: "eig_herm needs a Hermitian matrix: defect nan"}
        lam, vec, _ = spectra(RHO_TH3.matrix[None])
        assert support_weights(RHO_TH3.matrix, lam, vec)[1] == {}
        assert support_weights(nan, lam, vec)[1] == {
            0: "support violation: weight nan on eigenvalue 0.998"}
        assert support_weights(RHO_TH3.matrix, np.full_like(lam, np.nan), vec)[1] == {
            0: "support violation: weight 0.998 on eigenvalue nan"}
        lam_pure, vec_pure, _ = spectra(RHO_RC.matrix[None])
        assert support_weights(nan, lam_pure, vec_pure)[1] == {
            0: "support violation: weight nan on eigenvalue 1"}

    def test_spectra_rejects_non_hermitian(self):
        _, _, errors = spectra(np.array([[[0.5, 0.1], [0.0, 0.5]]], dtype=complex))
        assert errors == {0: self._message(eig_herm, np.array([[0.5, 0.1], [0.0, 0.5]]))}
