"""Unit and property tests for the linear-algebra / density-operator core."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ottosim.qcore import (
    ID2,
    ID4,
    KET_PSI_RC,
    SIGMA_Y,
    DensityOperator,
    QuantumValueError,
    TOL,
    SupportError,
    density_failures,
    density_spectra,
    eig_herm,
    eigh2,
    entropies,
    fidelity,
    gate,
    kraus_errors,
    partial_trace_path,
    relative_entropy,
    trace_path,
    von_neumann_entropy,
)
from ottosim.optics import _kron_slices
from ottosim.thermo import _classical_kl, _log_populations, thermal_state

from conftest import apply_kraus, random_density, random_hermitian, random_pure, random_unitary

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

    def test_trace_message_prints_the_real_trace(self):
        # the gate reads the complex trace; the message prints its real part
        for m, expected in ((np.diag([0.51, 0.51]), "trace 1.02 != 1"),
                            (np.diag([0.25, 0.25, 0.25, 0.5]), "trace 1.25 != 1")):
            with pytest.raises(QuantumValueError) as info:
                DensityOperator(m)
            assert str(info.value) == expected
            assert density_failures(m[None].astype(complex)) == {0: expected}

    def test_rejects_wrong_shape(self):
        with pytest.raises(QuantumValueError):
            DensityOperator(np.eye(3) / 3)

    @pytest.mark.parametrize("m, expected", [
        ([[1e308, 0], [0, -1e308]], "trace 0 != 1"),            # eigh2's a - d overflows
        ([[1e308, 1e308], [-1e308, 0]], "not Hermitian: defect inf"),
        ([[1e308, 0], [0, 1e308]], "trace inf != 1"),
        (np.diag([1e308, -1e308, 1e308, -1e308]), "trace 0 != 1"),
    ])
    def test_entries_near_the_float_limit_fail_a_check_not_a_warning(self, m, expected):
        # a difference, defect or trace past the float range is inf, and the check it reaches
        # raises its message, also with RuntimeWarning as an error
        m = np.array(m, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuantumValueError) as info:
                DensityOperator(m)
            assert str(info.value) == expected
            assert density_failures(m[None]) == {0: expected}
            assert density_spectra(m[None])[2] == {0: expected}

    def test_immutable(self):
        rho = DensityOperator(0.5 * ID2)
        with pytest.raises(AttributeError):
            rho.label = "x"
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestTensor:
    # the joint space is polarization (x) path, as the block builder's _kron_slices lifts a plate

    def test_identity(self):
        assert np.array_equal(_kron_slices(ID2, ID2), np.eye(4))

    def test_sigma_y_block_structure(self):
        # sigma_y on polarization, identity on path: 2x2 blocks of sigma_y * I
        m = _kron_slices(SIGMA_Y, ID2)
        assert np.array_equal(m[:2, 2:], -1j * ID2)
        assert np.array_equal(m[2:, :2], 1j * ID2)
        assert np.all(m[:2, :2] == 0) and np.all(m[2:, 2:] == 0)

    def test_projector_placement(self):
        # (|0><0|) (x) (|1><1|): joint index 2*pol + path = 1, by enumeration
        m = _kron_slices(np.diag([1, 0]), np.diag([0, 1]))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.array_equal(m, expected)


class TestPartialTracePath:
    def test_product_state_returns_system_factor(self, rng):
        for _ in range(200):
            rho_s = random_density(rng)
            rho_r = random_density(rng)
            joint = DensityOperator(np.kron(rho_s.matrix, rho_r.matrix))
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
    # the tests' Kraus-side reference (conftest.apply_kraus) against hand-derived channels

    def test_identity_channel(self, rng):
        rho = random_density(rng)
        out = apply_kraus(rho, [ID2])
        assert np.abs(out.matrix - rho.matrix).max() < 1e-14

    def test_full_dephasing_kills_coherence(self):
        # p = 1: K0 = diag(1, 0), K1 = diag(0, 1)
        out = apply_kraus(RHO_RC, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert np.abs(out.matrix - 0.5 * ID2).max() < 1e-14

    def test_partial_dephasing_coherence_value(self):
        # kappa = cos(45 deg): |rho01| = 0.5 cos(45 deg) = 0.3535533905932738
        c = math.cos(math.pi / 4)
        s = math.sin(math.pi / 4)
        out = apply_kraus(RHO_RC, [np.diag([1.0, c]), np.diag([0.0, s])])
        assert abs(out.matrix[0, 1]) == pytest.approx(0.3535533905932738, abs=1e-12)

    def test_incomplete_set_rejected(self):
        # sum K^dag K = 0.25 * 1
        assert kraus_errors(np.array([[0.5 * ID2]])) == {0: "incomplete Kraus set: defect 0.75"}

    def test_cptp_property(self, rng):
        # random channels from random isometries: output stays a valid state
        for _ in range(100):
            g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            q, _ = np.linalg.qr(g)
            out = apply_kraus(random_density(rng), [q[:2, :], q[2:, :]])
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
                for col in vec.T:  # phase convention: first entry above 1e-12 real positive
                    first = col[np.abs(col) > 1e-12][0]
                    assert first.real > 0.0 and abs(first.imag) <= 1e-15

    def test_rejects_non_hermitian(self):
        with pytest.raises(QuantumValueError):
            eig_herm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("kind", ["density", "pure", "scaled", "near-degenerate", "subnormal",
                                      "random 4x4"])
    def test_eigenvectors_are_orthonormal_with_a_small_residual(self, rng, kind):
        # LAPACK's bounds, which grow with the dimension d, with rho = max |lambda|: each residual
        # |A v - lambda v| within 4 d eps rho (4 d * 5e-324 where eps rho underflows) and the
        # orthonormality defect of the columns within 4 d eps, subnormal entries included.  The
        # largest seen over 10,000 samples per 2x2 family were 6.4 eps rho and 7 eps, and over
        # 50,000 random 4x4 matrices 6.9 eps rho and 12 eps
        if kind == "random 4x4":
            stack = np.array([random_hermitian(rng, 4) for _ in range(2000)])
        else:
            stack = TestEigh2._family(rng, kind, 2000)
        if kind == "subnormal":
            stack[:3] = [[[0.5, 5e-324], [5e-324, 0.5]], [[0.5, -1e-320j], [1e-320j, 0.5]],
                         [[5e-324, 5e-324], [5e-324, 5e-324]]]
        lam, vec = (np.array(a) for a in zip(*(eig_herm(m) for m in stack)))
        eps, d = np.finfo(float).eps, stack.shape[-1]
        rho = np.abs(lam).max(axis=-1)
        residual = np.abs(stack @ vec - vec * lam[:, None, :]).max(axis=(-2, -1))
        defect = np.abs(vec.conj().swapaxes(-1, -2) @ vec - np.eye(d)).max(axis=(-2, -1))
        assert (residual <= 4 * d * np.maximum(eps * rho, 5e-324)).all()
        assert (defect <= 4 * d * eps).all()
        assert (np.diff(lam, axis=-1) <= 0.0).all()
        # phase convention: the first entry above 1e-12 of each column is real positive
        first = np.take_along_axis(vec, (np.abs(vec) > 1e-12).argmax(axis=-2)[:, None], -2)
        assert (first.real > 0.0).all() and (np.abs(first.imag) <= 1e-15).all()


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

    def test_thermal_pairs_give_the_classical_kl(self, rng):
        # thermal states share the eigenbasis of sigma_y, so D is the two-outcome KL of their
        # log populations (largest relative gap seen: 1.3e-11)
        for a, b in rng.uniform(0.0, 8.0, (200, 2)).tolist():
            got = relative_entropy(thermal_state(a).rho, thermal_state(b).rho)
            want = _classical_kl(_log_populations(a), _log_populations(b))
            assert type(got) is float
            assert abs(got - want) <= TOL["entropy_identity"] * max(1.0, abs(want)), (a, b)


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


def _with_spectrum(rng, lam):
    """A Hermitian matrix with the given eigenvalues, in a random basis."""
    u = random_unitary(rng, len(lam))
    return (u * np.asarray(lam, dtype=float)) @ u.conj().T


class TestDensityFailures:
    """density_failures against density_spectra's failures, slice by slice and stacked, on
    slices at and around each check's bound."""

    @staticmethod
    def slices(rng, dim):
        def lowest(lam_min):  # unit trace, the other eigenvalues equal
            return _with_spectrum(rng, [lam_min] + [(1.0 - lam_min) / (dim - 1)] * (dim - 1))

        good = random_density(rng, dim).matrix
        upper = np.eye(dim, k=1) * 1e-3
        inf_upper = good.copy()
        inf_upper[0, 1] = np.inf
        negative = _with_spectrum(rng, [-0.2, 1.2] + [0.0] * (dim - 2))
        return {
            "good": good,
            "pure": random_pure(rng, dim).matrix,
            "nan": np.full((dim, dim), np.nan),
            "inf": np.full((dim, dim), np.inf),
            "-inf": np.full((dim, dim), -np.inf),
            "inf off the diagonal": inf_upper,
            "non-Hermitian, lower triangle positive": good + upper,
            "non-Hermitian, lower triangle not positive": negative + upper,
            "trace": good * (1.0 + 1e-11),
            "trace and negative": negative * 1.1,
            "lam_min = psd - 1e-12": lowest(TOL["psd"] - 1e-12),
            "lam_min = psd + 1e-12": lowest(TOL["psd"] + 1e-12),
        }

    @pytest.mark.parametrize("dim", [2, 4])
    def test_each_slice_alone_and_all_together(self, rng, dim):
        slices = self.slices(rng, dim)
        reference = {name: density_spectra(m[None].astype(complex))[2]
                     for name, m in slices.items()}
        assert reference["lam_min = psd - 1e-12"][0].startswith(
            "not positive semidefinite: min eigenvalue -1.01e-10")
        assert reference["lam_min = psd + 1e-12"] == reference["good"] == {}
        for name, m in slices.items():
            assert density_failures(m[None].astype(complex)) == reference[name], name
        stack = np.array(list(slices.values()), dtype=complex)
        assert density_failures(stack) == density_spectra(stack)[2]
        finite = np.array([m for m in slices.values() if np.isfinite(m).all()], dtype=complex)
        assert density_failures(finite) == density_spectra(finite)[2]
        assert density_failures(np.empty((0, dim, dim), complex)) == {}

    def test_the_proof_leaves_room_for_rounding(self, rng):
        # at lam_min = TOL["psd"] exactly, eigvalsh rounds to either side, and rho - TOL["psd"] * 1
        # has a Cholesky factor for some slices that it puts below: the check reads the
        # eigenvalues, so no factor passes those
        stack = np.array([_with_spectrum(rng, [TOL["psd"], 0.5, 0.25, 0.25 - TOL["psd"]])
                          for _ in range(64)])
        below = np.linalg.eigvalsh(stack).min(axis=-1) < TOL["psd"]

        def factored(m):
            try:
                return np.linalg.cholesky(m - TOL["psd"] * ID4) is not None
            except np.linalg.LinAlgError:
                return False

        band = [m[None] for m, low in zip(stack, below) if low and factored(m)]
        assert band
        for m in band:
            assert density_failures(m) == density_spectra(m)[2] != {}


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
        errors = density_failures(stack)
        assert errors == {2 + k: self._message(DensityOperator, m) for k, m in enumerate(self.BAD)}
        # one decomposition for the same checks and for the spectra, each slice's own bits:
        # the bits the constructor's eigh2 gives each slice on its own
        lam, spec, both = density_spectra(stack)
        assert both == errors
        assert lam.tobytes() == np.array([eigh2(m) for m in stack]).tobytes()
        assert spec.tobytes() == np.array([density_spectra(m[None])[1][0] for m in stack]).tobytes()

    def test_kraus_errors_name_the_incomplete_set(self):
        ok = [np.diag([1.0, 0.6]), np.diag([0.0, 0.8])]
        bad = [np.diag([1.0, 0.6]), np.diag([0.0, 0.9])]  # sum K^dag K = diag(1, 1.17)
        errors = kraus_errors(np.array([ok, bad], dtype=complex))
        assert errors == {1: "incomplete Kraus set: defect 0.17"}

    def test_trace_path_matches_partial_trace(self, rng):
        states = [DensityOperator(np.kron(random_density(rng).matrix, random_density(rng).matrix))
                  for _ in range(8)]
        stacked = trace_path(np.array([s.matrix for s in states]))
        for k, state in enumerate(states):
            assert stacked[k].tobytes() == partial_trace_path(state).matrix.tobytes()
        # the leading axes are kept: one matrix gives one matrix, a (2, 4) stack a (2, 4) stack
        one = trace_path(states[0].matrix)
        assert one.shape == (2, 2) and one.tobytes() == stacked[0].tobytes()
        grid = trace_path(np.array([s.matrix for s in states]).reshape(2, 4, 4, 4))
        assert grid.shape == (2, 4, 2, 2) and grid.tobytes() == stacked.tobytes()

    def test_entropies_match_reference(self, rng):
        states = [random_density(rng), random_pure(rng), DensityOperator(0.5 * ID2),
                  RHO_TH3, DensityOperator(np.diag([1.0, 0.0])), random_density(rng, 4)]
        for state in states:
            _, lam, errors = density_spectra(state.matrix[None])
            assert errors == {}
            # the eigenvalues the density check reads: eigh2 for a qubit, LAPACK's eigvalsh else
            ref = (eigh2 if state.dim == 2 else np.linalg.eigvalsh)(state.matrix)[::-1]
            ref = ref[ref >= 1e-14]
            ref = float(max(-np.sum(ref * np.log(ref)), 0.0))
            assert repr(entropies(lam).tolist()[0]) == repr(ref) == repr(von_neumann_entropy(state))

    def test_entropies_clamp_as_max_does(self, rng):
        # np.where(s < 0.0, 0.0, s) gives max(s, 0.0) bit for bit: the -0.0 of a pure state and
        # of exact zeros, NaN, and 0.0 for the -inf entropy of an infinite eigenvalue (no
        # eigenvalue gives a sum of -inf: lam ln lam >= -1/e, and 0 for lam <= 0)
        for d in (2, 4):
            lam = rng.random((64, d))
            lam = -np.sort(-lam / lam.sum(axis=-1, keepdims=True), axis=-1)
            lam[lam < TOL["eig_clamp"]] = 0.0
            special = np.zeros((6, d))
            special[0, 0] = special[1, -1] = 1.0  # pure states; row 2 is all zeros
            special[3, :2] = np.inf, np.nan       # a NaN sum
            special[4, 0] = np.inf                # a sum of +inf
            special[5, 0] = np.nan
            lam = np.concatenate([lam, special, np.full((1, d), 1.0 / d)])
            sums = (lam * np.log(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)
            got = entropies(lam)
            assert got.dtype == float and got.shape == (len(lam),)
            got = got.tolist()
            assert np.array(got).tobytes() == np.array(
                [max(-s, 0.0) for s in sums.tolist()]).tobytes()
            assert [math.copysign(1.0, s) for s in got[64:67]] == [-1.0] * 3
            assert np.isnan(got[67:68] + got[69:70]).all() and got[68] == 0.0

    def test_support_error_matches_reference(self, rng):
        # rho's weight on the null vector of a pure sigma, named with its clamped eigenvalue
        for _ in range(3):
            sigma, rho = random_pure(rng), random_density(rng)
            mu, v = eig_herm(sigma.matrix)
            w = np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho.matrix, v))
            assert mu[1] < 1e-12 < w[1]
            with pytest.raises(SupportError) as info:
                relative_entropy(rho, sigma)
            assert str(info.value) == f"support violation: weight {w[1]:.3g} on eigenvalue 0"
        relative_entropy(rho, RHO_TH3)  # a full-rank sigma: no support to leave

    def test_nan_fails_the_density_checks(self):
        nan = np.full((2, 2), np.nan)
        assert density_failures(np.array([0.5 * ID2, nan])) == {1: "not Hermitian: defect nan"}
        assert density_spectra(np.array([0.5 * ID2, nan]))[2] == {1: "not Hermitian: defect nan"}
        with pytest.raises(QuantumValueError, match="not Hermitian: defect nan"):
            DensityOperator(nan)
        with pytest.raises(QuantumValueError, match="needs a Hermitian matrix: defect nan"):
            eig_herm(nan)
        for pair in ((nan, RHO_TH3), (RHO_TH3, nan)):
            with pytest.raises(QuantumValueError, match="not Hermitian: defect nan"):
                relative_entropy(*pair)

    @pytest.mark.parametrize("value, defect", [(np.nan, "nan"), (np.inf, "nan"), (-np.inf, "nan"),
                                               ("inf off the diagonal", "inf")])
    def test_non_finite_4x4_state_fails_hermiticity_not_lapack(self, value, defect):
        # LAPACK cannot decompose a 4x4 matrix holding NaN or inf; such a slice is not
        # decomposed and fails the Hermiticity check, which is reported first, with no warning
        bad = np.zeros((4, 4), dtype=complex)
        if isinstance(value, str):
            bad[0, 1] = np.inf
        else:
            bad[:] = value
        stack = np.array([0.25 * ID4, bad, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)])
        message = f"not Hermitian: defect {defect}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuantumValueError) as info:
                DensityOperator(bad)
            assert str(info.value) == message
            assert density_failures(stack) == {1: message}
            lam, spec, both = density_spectra(stack)
            assert both == {1: message}
        # the finite slices keep the bits of their own decomposition; the other one is NaN
        assert lam[[0, 2]].tobytes() == np.linalg.eigvalsh(stack[[0, 2]]).tobytes()
        assert all(np.isnan(a[1]).all() for a in (lam, spec))

    @pytest.mark.parametrize("value, defect", [(np.nan, "nan"), (np.inf, "nan"), (-np.inf, "nan"),
                                               ("inf off the diagonal", "inf")])
    def test_non_finite_2x2_state_fails_hermiticity(self, value, defect):
        # eigh2 decomposes any slice; a slice holding NaN or inf still gets NaN eigenvalues
        # and fails the Hermiticity check first, with no warning
        bad = np.zeros((2, 2), dtype=complex)
        if isinstance(value, str):
            bad[1, 0] = np.inf
        else:
            bad[:] = value
        stack = np.array([0.5 * ID2, bad, np.diag([1.0, 0.0]).astype(complex)])
        message = f"not Hermitian: defect {defect}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuantumValueError) as info:
                DensityOperator(bad)
            assert str(info.value) == message
            assert density_failures(stack) == {1: message}
            lam, spec, both = density_spectra(stack)
            assert both == {1: message}
        assert lam[[0, 2]].tobytes() == eigh2(stack[[0, 2]]).tobytes()
        assert all(np.isnan(a[1]).all() for a in (lam, spec))

    def test_nan_fails_the_kraus_check(self):
        bad = [np.diag([1.0, np.nan]), np.diag([0.0, 0.8])]
        assert kraus_errors(np.array([bad], dtype=complex)) == {
            0: "incomplete Kraus set: defect nan"}
        # an infinite entry fails too, with no warning from the one-call K^dag K sums
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (np.inf, -np.inf, 1j * np.inf):
                bad = [np.diag([1.0, 0.6]), np.array([[0.0, 0.0], [value, 0.8]])]
                errors = kraus_errors(np.array([bad], dtype=complex))
                assert errors[0] in ("incomplete Kraus set: defect inf",
                                     "incomplete Kraus set: defect nan")

    def test_the_density_gate_refuses_what_eig_herm_would(self):
        # density_spectra needs no Hermiticity gate of eig_herm's own: its bound is the tighter
        assert TOL["herm"] <= TOL["eig_herm_input"]
        for m in (0.5 * ID2, 0.25 * ID4):
            m = m.copy()
            m[0, 1] = 1e-11
            assert density_spectra(m[None])[2] == {0: "not Hermitian: defect 1e-11"}
            eig_herm(m)  # within eig_herm's bound


class TestGate:
    """The one helper every stacked check compares its defects through."""

    def test_each_failing_row_gets_its_first_failing_column(self):
        defects = np.array([[0.0, 0.0, 0.0],      # passes
                            [2.0, 0.0, 5.0],      # fails columns 0 and 2: column 0 reports
                            [0.0, np.nan, 5.0],   # NaN fails column 1 first
                            [1.0, 2.0, 3.0],      # every defect at its bound passes
                            [0.0, 0.0, np.inf]])
        seen = []

        def third(d, i, *context):
            seen.append((d, i, context))
            return f"third {d} at {i}"

        errors = gate(defects, np.array([1.0, 2.0, 3.0]),
                      ("first {:.3g}".format, "second {}".format, third), "ctx")
        assert errors == {1: "first 2", 2: "second nan", 4: "third inf at 4"}
        assert list(errors) == [1, 2, 4] and seen == [(math.inf, 4, ("ctx",))]

    def test_one_column_and_the_passing_path(self):
        def never(*args):
            raise AssertionError("a passing row is formatted")

        assert gate(np.array([0.5, np.nan, 2.0]), 1.0, ("bad {}".format,)) == {
            1: "bad nan", 2: "bad 2.0"}
        assert gate(np.array([0.5, 1.0]), 1.0, (never,)) == {}
        assert gate(np.empty((0, 3)), np.zeros(3), (never,) * 3) == {}
        assert gate(np.array([[0.0, 7.0]]), np.array([0.0, 1.0]), (never, "{}".format)) == {
            0: "7.0"}


class TestEigh2:
    """The closed-form 2x2 kernel against a 50-digit reference.

    Bound, set from the rounding steps of the closed form (about six, each at
    most an ulp or so of the spectral radius rho = max |lambda|): each
    eigenvalue within 4 ulps of rho.  Where r << |m| each eigenvalue is within
    1 ulp of itself: the form takes no difference of nearly equal terms.  The
    largest error seen over 20,000 to 40,000 samples per family was 2.8 ulps.
    """

    ULPS = 4

    @staticmethod
    def _family(rng, kind, count):
        out = []
        for _ in range(count):
            if kind == "density":
                m = random_density(rng).matrix
            elif kind == "pure":
                m = random_pure(rng).matrix
            elif kind == "scaled":  # entries of mixed sign from 1e-30 to 1e30
                a, d, re_b, im_b = 10.0 ** rng.uniform(-30, 30, 4) * rng.choice([-1, 1], 4)
                m = np.array([[a, complex(re_b, -im_b)], [complex(re_b, im_b), d]])
            elif kind == "subnormal":  # b (and h, or every entry) below the normal range
                a, d, re_b, im_b = 10.0 ** rng.uniform(-324, -308, 4) * rng.choice([-1, 1], 4)
                if rng.random() < 0.5:
                    a, d = 0.5, 0.5 + d
                m = np.array([[a, complex(re_b, -im_b)], [complex(re_b, im_b), d]])
            else:  # near-degenerate: r << |m|
                mid, eps = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-16, -6)
                b = eps * complex(rng.normal(), rng.normal())
                m = np.array([[mid + eps * rng.normal(), b.conjugate()],
                              [b, mid + eps * rng.normal()]])
            out.append(m)
        return np.array(out, dtype=complex)

    @staticmethod
    def _reference(m):
        # m -+ r of the lower triangle and the real diagonal, to 50 digits
        with localcontext() as ctx:
            ctx.prec = 50
            a, d = Decimal(m[0, 0].real), Decimal(m[1, 1].real)
            b_re, b_im = Decimal(m[1, 0].real), Decimal(m[1, 0].imag)
            mid, h = (a + d) / 2, (a - d) / 2
            r = (h * h + b_re * b_re + b_im * b_im).sqrt()
            return mid - r, mid + r

    @pytest.mark.parametrize("kind", ["density", "pure", "scaled", "near-degenerate"])
    def test_eigenvalues_match_a_50_digit_reference(self, rng, kind):
        stack = self._family(rng, kind, 1000)
        lam = eigh2(stack)
        assert lam.shape == (1000, 2)
        for m, got in zip(stack, lam.tolist()):
            want = self._reference(m)
            rho = float(max(abs(w) for w in want))
            for g, w in zip(got, want):
                ulps = abs(Decimal(g) - w) / Decimal(np.spacing(rho))
                assert ulps <= self.ULPS, (m, got)
                if kind == "near-degenerate":
                    assert abs(Decimal(g) - w) <= Decimal(np.spacing(abs(g))), (m, got)

    def test_diagonal_and_scalar_matrices_are_exact(self):
        # b = 0 gives the diagonal itself, ascending; r = 0 (rho = I/2 and other multiples of
        # the identity) too, with no warning
        cases = [(0.75, 0.25), (0.25, 0.75), (0.5, 0.5), (1e-300, 1.0), (1.0, 5e-324),
                 (-3.0, -3.0), (0.0, 0.0), (-0.0, 7.0)]
        stack = np.array([np.diag(c) for c in cases], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = eigh2(stack)
        assert lam.tolist() == [sorted(c) for c in cases]

    def test_reads_the_lower_triangle_and_any_stack_shape(self, rng):
        stack = self._family(rng, "density", 12).reshape(3, 4, 2, 2)
        skewed = stack.copy()
        skewed[..., 0, 1] = 7.0 + 3.0j   # the upper triangle is never read
        skewed[..., 0, 0] += 2.0j        # nor the imaginary part of the diagonal
        assert eigh2(skewed).tobytes() == eigh2(stack).tobytes()
        assert eigh2(stack).shape == (3, 4, 2)
        assert eigh2(stack[0, 0]).tobytes() == eigh2(stack)[0, 0].tobytes()
        ulp = np.spacing(np.abs(eigh2(stack)).max(axis=-1, keepdims=True))
        assert (np.abs(eigh2(stack) - np.linalg.eigvalsh(stack)) <= 2 * self.ULPS * ulp).all()
