"""Tests for projective intensity simulation and Stokes reconstruction."""

import json
import math
import warnings

import numpy as np
import pytest

from ottosim.qcore import (
    ID2,
    KET_H,
    KET_PSI_RC,
    PAULIS,
    DensityOperator,
    QuantumValueError,
    fidelity,
    wrap_validated,
)
from ottosim.tomography import (
    BASES,
    GoldenDataError,
    IntensityRecord,
    StokesVector,
    UnphysicalStokesWarning,
    _PROJECTORS,
    _intensities,
    _sanitize_measured,
    load_golden_data,
    measure_all,
    read_intensity_file,
    reconstruct,
    stokes_from_intensities,
    tomography_stack,
)

from conftest import pure, random_density

RHO_RC = pure(KET_PSI_RC)

# the measured initial-state matrix, trace 0.9999 as recorded
RHO_INI_MEASURED = np.array(
    [[0.5134, 0.0033 + 0.4999j], [0.0033 - 0.4999j, 0.4865]]
)


class TestMeasure:
    def test_right_circular_lights_only_beta_port(self):
        rec = measure_all(RHO_RC)[2]
        assert rec.basis == "RL"
        assert rec.i_alpha == pytest.approx(0.0, abs=1e-12)   # L port dark
        assert rec.i_beta == pytest.approx(1.0, abs=1e-12)    # R port lit

    def test_right_circular_balanced_in_hv(self):
        rec = measure_all(RHO_RC)[0]
        assert rec.basis == "HV"
        assert rec.i_alpha == pytest.approx(0.5, abs=1e-12)
        assert rec.i_beta == pytest.approx(0.5, abs=1e-12)

    def test_mixed_state_balanced_everywhere(self):
        mixed = DensityOperator(0.5 * ID2)
        for rec in measure_all(mixed):
            assert rec.i_alpha == pytest.approx(0.5, abs=1e-12)
            assert rec.i_beta == pytest.approx(0.5, abs=1e-12)

    def test_noise_is_seeded_and_clamped(self):
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        a = measure_all(RHO_RC, noise_sigma=0.3, rng=rng1)
        b = measure_all(RHO_RC, noise_sigma=0.3, rng=rng2)
        assert a == b
        rng = np.random.default_rng(0)
        for _ in range(200):
            for rec in measure_all(RHO_RC, noise_sigma=5.0, rng=rng):
                assert rec.i_alpha >= 0.0 and rec.i_beta >= 0.0

    def test_unknown_basis(self):
        # a record names one of the three bases; measure_all writes each of them once
        with pytest.raises(QuantumValueError, match="unknown basis 'XY'"):
            IntensityRecord("XY", 0.5, 0.5)
        assert [rec.basis for rec in measure_all(RHO_RC)] == ["HV", "DAD", "RL"]


def _per_projector(stack, projectors):
    # max(tr(P rho).real, 0) one projector and one matrix at a time
    values = [[max(np.trace(p @ m).real, 0.0) for p in projectors] for m in stack.reshape(-1, 2, 2)]
    return np.array(values, dtype=float).reshape(stack.shape[:-2] + (len(projectors),))


class TestTapProduct:
    # _intensities stacks the projectors as the rows of one (2P, 2) matrix: one BLAS call per
    # state.  With OpenBLAS each 2x2 block of that product has the bits of its own p @ rho; a
    # BLAS build that breaks this fails here, before any frozen report moves.

    def test_bits_equal_the_per_projector_traces(self, rng):
        for n in range(1, 51):
            arbitrary = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
            hermitian = np.array([random_density(rng).matrix for _ in range(n)])
            for stack in (arbitrary, hermitian, hermitian.reshape(-1, 1, 2, 2)):
                assert _intensities(stack, _PROJECTORS, 0.0, None).tobytes() == _per_projector(
                    stack, _PROJECTORS).tobytes()

    def test_a_single_matrix_and_an_empty_stack(self, rng):
        m = random_density(rng).matrix
        assert _intensities(m, _PROJECTORS, 0.0, None).tobytes() == _per_projector(
            m, _PROJECTORS).tobytes()
        empty = np.empty((0, 5, 2, 2), complex)
        assert _intensities(empty, _PROJECTORS, 0.0, None).shape == (0, 5, 6)


class TestStokesFromIntensities:
    def test_right_circular_ideal(self):
        s = stokes_from_intensities(measure_all(RHO_RC))
        assert (s.s0, s.s1, s.s3) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert s.s2 == pytest.approx(-1.0, abs=1e-12)

    def test_measured_matrix_stokes(self):
        # intensities synthesized from the measured entries (trace 0.9999)
        records = []
        for basis, (_, _, p_a, p_b) in BASES.items():
            records.append(
                IntensityRecord(
                    basis,
                    float(np.trace(p_a @ RHO_INI_MEASURED).real),
                    float(np.trace(p_b @ RHO_INI_MEASURED).real),
                )
            )
        s = stokes_from_intensities(records)
        assert s.s1 == pytest.approx(0.0066 / 0.9999, abs=1e-12)
        assert s.s2 == pytest.approx(-0.9998 / 0.9999, abs=1e-12)
        assert s.s3 == pytest.approx(0.0269 / 0.9999, abs=1e-12)

    def test_equal_intensities_give_origin(self):
        records = [IntensityRecord(b, 3.5, 3.5) for b in BASES]
        s = stokes_from_intensities(records)
        assert (s.s1, s.s2, s.s3) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_zero_total_intensity_rejected(self):
        records = [
            IntensityRecord("HV", 0.0, 0.0),
            IntensityRecord("DAD", 0.5, 0.5),
            IntensityRecord("RL", 0.5, 0.5),
        ]
        with pytest.raises(QuantumValueError, match="zero total"):
            stokes_from_intensities(records)

    @pytest.mark.parametrize("i_alpha, i_beta", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
                                                 (0.5, math.inf), (-0.1, 0.5), (0.5, -math.inf)])
    def test_intensities_must_be_finite_and_nonnegative(self, i_alpha, i_beta):
        with pytest.raises(QuantumValueError, match="^intensities must be finite and nonnegative$"):
            IntensityRecord("HV", i_alpha, i_beta)
        assert IntensityRecord("HV", 0.0, 1e308).i_beta == 1e308

    def test_a_pair_whose_sum_overflows_keeps_its_ratio(self, rng):
        # a pair of finite intensities whose sum is past the float range gives the ratio of the
        # pair (as its halves, exactly), without a warning; any pair with a finite sum keeps
        # the bits of 2 * (i_a / (i_a + i_b)) - 1
        big = float(np.finfo(float).max)
        pairs = [(1e308, 1e308), (big, big), (big, 1e-300), (1e-300, big), (1.5e308, 0.5e308),
                 (1e308, 9e307), (big, 0.0), (0.0, big), (5e-324, big)]
        pairs += [tuple(p) for p in (10.0 ** rng.uniform(-320, 308.25, size=(200, 2))).tolist()]
        pairs += [tuple(p) for p in rng.uniform(0.0, 1.0, size=(50, 2)).tolist()]
        for i_a, i_b in pairs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                s = stokes_from_intensities([IntensityRecord("HV", 1.0, 1.0),
                                             IntensityRecord("DAD", i_a, i_b),
                                             IntensityRecord("RL", 1.0, 1.0)])
            if math.isfinite(i_a + i_b):
                assert repr(s.s1) == repr(2.0 * (i_a / (i_a + i_b)) - 1.0), (i_a, i_b)
            else:
                half_a, half_b = 0.5 * i_a, 0.5 * i_b
                assert repr(s.s1) == repr(2.0 * (half_a / (half_a + half_b)) - 1.0), (i_a, i_b)
        for scale in (1.0, 1e300, 1e308):
            s = stokes_from_intensities([IntensityRecord(b, scale, scale) for b in BASES])
            assert (s.s1, s.s2, s.s3) == (0.0, 0.0, 0.0), scale

    def test_duplicate_and_missing_bases_rejected(self):
        with pytest.raises(QuantumValueError, match="duplicate"):
            stokes_from_intensities([IntensityRecord("HV", 1, 0)] * 2)
        with pytest.raises(QuantumValueError, match="missing"):
            stokes_from_intensities([IntensityRecord("HV", 1, 0)])


class TestReconstruct:
    def test_origin_is_maximally_mixed(self):
        rho = reconstruct(StokesVector(1.0, 0.0, 0.0, 0.0))
        assert np.abs(rho.matrix - 0.5 * ID2).max() < 1e-15

    def test_north_pole_is_horizontal(self):
        rho = reconstruct(StokesVector(1.0, 0.0, 0.0, 1.0))
        assert np.abs(rho.matrix - np.outer(KET_H, KET_H.conj())).max() < 1e-15

    def test_every_accepted_s0_gives_the_state_of_s0_one(self):
        # StokesVector accepts |s0 - 1| <= 1e-9; the state is built at s0 = 1, so no accepted
        # s0 reaches the 1e-12 trace check
        want = reconstruct(StokesVector(1.0, 0.1, 0.2, 0.3)).matrix.tobytes()
        for s0 in (1.0 - 9e-10, 1.0 + 5e-10, 1.0 + 9e-10):
            assert reconstruct(StokesVector(s0, 0.1, 0.2, 0.3)).matrix.tobytes() == want

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # renormalizing by a NaN trace
    def test_normalization_gates_fail_nan(self):
        with pytest.raises(QuantumValueError, match="s0 = nan != 1"):
            StokesVector(math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(GoldenDataError, match="'x' unusable: not Hermitian: defect nan"):
            _sanitize_measured({"x": np.array([[math.nan, 0.0], [0.0, 0.5]], dtype=complex)})

    def test_roundtrip_exact_without_noise(self, rng):
        for _ in range(100):
            rho = random_density(rng)
            rebuilt = reconstruct(stokes_from_intensities(measure_all(rho)))
            assert np.abs(rebuilt.matrix - rho.matrix).max() < 1e-12

    def test_roundtrip_basis_eigenstates(self):
        # pure eigenstates of each basis leave one port exactly dark
        for ket in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]):
            rho = pure(ket)
            rebuilt = reconstruct(stokes_from_intensities(measure_all(rho)))
            assert np.abs(rebuilt.matrix - rho.matrix).max() < 1e-12

    def test_measured_matrix_reproduced_from_own_intensities(self):
        records = []
        for basis, (_, _, p_a, p_b) in BASES.items():
            records.append(
                IntensityRecord(
                    basis,
                    float(np.trace(p_a @ RHO_INI_MEASURED).real),
                    float(np.trace(p_b @ RHO_INI_MEASURED).real),
                )
            )
        with pytest.warns(UnphysicalStokesWarning):
            rho = reconstruct(stokes_from_intensities(records))
        assert np.abs(rho.matrix - RHO_INI_MEASURED).max() < 1e-4

    def test_unphysical_input_projected_with_warning(self):
        with pytest.warns(UnphysicalStokesWarning):
            rho = reconstruct(StokesVector(1.0, 0.8, 0.8, 0.8))
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-12
        s = StokesVector(1.0, *(float(np.trace(p @ rho.matrix).real) for p in PAULIS))
        assert s.bloch_norm == pytest.approx(1.0, abs=1e-12)


def _loop_tap(m, sigma, rng):
    """One noisy tap port by port in Python floats, as before the readout was stacked."""
    ports = {}
    for basis in ("HV", "DAD", "RL"):
        _, _, p_a, p_b = BASES[basis]
        i_a = max(float(np.trace(p_a @ m).real), 0.0)
        i_b = max(float(np.trace(p_b @ m).real), 0.0)
        i_a = max(i_a * (1.0 + sigma * rng.standard_normal()), 0.0)
        i_b = max(i_b * (1.0 + sigma * rng.standard_normal()), 0.0)
        ports[basis] = (i_a, i_b)
    for basis, (i_a, i_b) in ports.items():
        if i_a + i_b <= 0.0:
            raise QuantumValueError(f"zero total intensity in basis {basis}")
    vec = np.array([2.0 * (i_a / (i_a + i_b)) - 1.0
                    for i_a, i_b in (ports["DAD"], ports["RL"], ports["HV"])])
    norm = float(np.linalg.norm(vec))
    if norm > 1.0 + 1e-9:
        warnings.warn(f"Bloch vector norm {norm:.6g} > 1; projected onto the sphere",
                      UnphysicalStokesWarning)
    if norm > 1.0:
        vec = vec / norm
    return DensityOperator(0.5 * (1.0 * ID2 + sum(c * p for c, p in zip(vec, PAULIS)))).matrix


def _composed_tap(m, sigma, rng):
    s = stokes_from_intensities(measure_all(wrap_validated(m), sigma, rng))
    return reconstruct(s).matrix


class TestTomographyStack:
    """The stacked tap against the single-tap functions and the port-by-port loop."""

    @staticmethod
    def _run(tap, stack, sigma):
        # per row: reconstructed bytes until the first failure and its message; all warnings
        rows = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i, row in enumerate(stack):
                rng, out, message = np.random.default_rng(i), [], None
                try:
                    for m in row:
                        out.append(tap(m, sigma, rng).tobytes())
                except QuantumValueError as exc:
                    message = str(exc)
                rows.append((out, message))
        return rows, [(w.category, str(w.message)) for w in caught]

    @pytest.mark.parametrize("sigma", [0.02, 0.3, 1.0])
    def test_rows_equal_per_tap_calls(self, rng, sigma):
        kets = [pure(k).matrix for k in ([1, 0], [0, 1], [1, 1], [1, 1j])]
        stack = np.array([[random_density(rng).matrix if (i + t) % 3 else kets[(i + t) % 4]
                           for t in range(5)] for i in range(12)])
        stack[7, 2] = np.nan  # only a non-finite matrix can fail the rebuilt-state check
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rebuilt, errors = tomography_stack(
                stack, sigma, [np.random.default_rng(i) for i in range(len(stack))])
        warned = [(w.category, str(w.message)) for w in caught]
        loop, loop_warned = self._run(_loop_tap, stack, sigma)
        assert self._run(_composed_tap, stack, sigma) == (loop, loop_warned)
        assert errors == {i: message for i, (_, message) in enumerate(loop) if message}
        assert errors[7] == "not Hermitian: defect nan"
        for i, (taps, _) in enumerate(loop):
            assert [m.tobytes() for m in rebuilt[i][:len(taps)]] == taps
        assert warned == loop_warned
        assert not rebuilt.flags.writeable
        if sigma == 1.0:
            assert warned and any(m.startswith("zero total intensity") for m in errors.values())


class TestNoisePastTheFloatRange:
    """A noise factor past the float range makes an intensity inf or NaN: its row fails with
    a message naming the basis, in the stack and tap by tap, and no RuntimeWarning."""

    def test_stack_equals_per_tap_calls_and_names_the_basis(self, rng):
        stack = np.array([[random_density(rng).matrix for _ in range(5)] for _ in range(16)])
        stack[3, 0] = np.nan  # a non-finite state fails its own check, as below the range
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rebuilt, errors = tomography_stack(
                stack, 1e308, [np.random.default_rng(i) for i in range(len(stack))])
        warned = [(w.category, str(w.message)) for w in caught]
        loop, loop_warned = TestTomographyStack._run(_composed_tap, stack, 1e308)
        assert errors == {i: message for i, (_, message) in enumerate(loop) if message}
        assert warned == loop_warned
        assert all(category is UnphysicalStokesWarning for category, _ in warned)
        for i, (taps, _) in enumerate(loop):
            assert [m.tobytes() for m in rebuilt[i][:len(taps)]] == taps
        lost = [m for m in errors.values() if m.startswith("intensity past the float range")]
        assert lost and {m[-3:].strip() for m in lost} <= {"HV", "DAD", "RL"}
        assert loop[3][0] == [] and errors[3] == "not Hermitian: defect nan"

    def test_one_port_past_the_float_range_stops_its_row(self, rng):
        # fixed draws: one port's factor 1 + 1e308 * 10 is inf, a -10 clamps its port to 0; a
        # lost beta port alone would leave a finite Bloch vector (s = -1) behind
        class Draws:  # a generator stand-in handing out fixed normal draws in order
            def __init__(self, draws):
                self.draws = list(draws)

            def standard_normal(self, size):
                out, self.draws = self.draws[:size], self.draws[size:]
                return np.array(out)

        stack = np.array([[random_density(rng).matrix for _ in range(3)] for _ in range(5)])
        draws = np.zeros((5, 18))
        draws[0, 3] = draws[1, 6 + 4] = draws[2, 12 + 0] = 10.0  # DAD beta, RL alpha, HV alpha
        draws[3, 1] = draws[4, 6 + 5] = -10.0  # V and R clamped at 0: no row stops
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rebuilt, errors = tomography_stack(stack, 1e308, [Draws(d) for d in draws])
            loop = []
            for row, draw in zip(stack, [Draws(d) for d in draws]):
                out, message = [], None
                try:
                    for m in row:
                        out.append(_composed_tap(m, 1e308, draw).tobytes())
                except QuantumValueError as exc:
                    message = str(exc)
                loop.append((out, message))
        warned = [str(w.message) for w in caught if w.category is UnphysicalStokesWarning]
        assert len(warned) == len(caught) and warned[:len(warned) // 2] == warned[len(warned) // 2:]
        assert errors == {0: "intensity past the float range in basis DAD",
                          1: "intensity past the float range in basis RL",
                          2: "intensity past the float range in basis HV"}
        assert [message for _, message in loop] == [errors.get(i) for i in range(5)]
        assert [len(taps) for taps, _ in loop] == [0, 1, 2, 3, 3]
        for i, (taps, _) in enumerate(loop):
            assert [m.tobytes() for m in rebuilt[i][:len(taps)]] == taps

    def test_measure_names_its_basis(self):
        messages = set()
        for seed in range(40):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    records = measure_all(RHO_RC, 1e308, np.random.default_rng(seed))
            except QuantumValueError as exc:
                messages.add(str(exc))
            else:
                for record in records:
                    assert math.isfinite(record.i_alpha) and math.isfinite(record.i_beta)
        assert messages == {f"intensity past the float range in basis {b}" for b in BASES}


class TestNoiseRobustness:
    def test_mean_fidelity_with_two_percent_noise(self):
        rng = np.random.default_rng(1234)
        fids = []
        for _ in range(1000):
            rho = random_density(rng)
            records = measure_all(rho, noise_sigma=0.02, rng=rng)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnphysicalStokesWarning)
                rebuilt = reconstruct(stokes_from_intensities(records))
            fids.append(fidelity(rho, rebuilt))
        assert float(np.mean(fids)) >= 0.995


class TestGoldenData:
    def test_all_labels_present_and_valid(self):
        golden = load_golden_data()
        assert set(golden.states) == {"ini", "A_to_B", "B_to_C", "C_to_D", "D_to_A"}
        for label, state in golden.states.items():
            assert state.dim == 2
            assert state.label == label

    def test_hot_stroke_coherence_as_measured(self):
        golden = load_golden_data()
        assert golden.raw["B_to_C"][0, 1].imag == pytest.approx(0.3407, abs=1e-12)
        # the sanitized state moves only by the trace renormalization
        assert abs(golden.states["B_to_C"].matrix[0, 1].imag - 0.3407) < 1e-4

    def test_compression_does_not_change_polarization(self):
        golden = load_golden_data()
        f = fidelity(golden.states["C_to_D"], golden.states["B_to_C"])
        assert f >= 0.999

    def test_cycle_start_and_end_approximately_equal(self):
        golden = load_golden_data()
        delta = np.abs(golden.raw["ini"] - golden.raw["D_to_A"]).max()
        assert delta == pytest.approx(0.0503, abs=1e-3)  # the ~5% loss scale
        f = fidelity(golden.states["ini"], golden.states["D_to_A"])
        # squared-Uhlmann value, frozen; approximate equality shows up as
        # sqrt-fidelity 0.975 / entrywise 0.05 rather than the naive >= 0.99
        assert f == pytest.approx(0.9506, abs=2e-3)
        assert math.sqrt(f) >= 0.97

    def test_initial_state_matches_right_circular(self):
        golden = load_golden_data()
        f = fidelity(golden.states["ini"], RHO_RC)
        assert f == pytest.approx(0.9999, abs=2e-4)

    def test_adjustments_logged(self):
        golden = load_golden_data()
        assert any("trace" in note for note in golden.adjustments["ini"])
        assert any("projected" in note for note in golden.adjustments["ini"])
        # only the initial state needed the positivity projection
        for label in ("A_to_B", "B_to_C", "C_to_D", "D_to_A"):
            assert not any("projected" in note for note in golden.adjustments[label])

    def test_corrupt_data_file_raises(self, monkeypatch):
        import ottosim.tomography as tomo_mod

        class BrokenPath:
            def joinpath(self, name):
                return self

            def read_text(self):
                return "{not json"

        monkeypatch.setattr(tomo_mod.resources, "files", lambda pkg: BrokenPath())
        with pytest.raises(GoldenDataError, match="unreadable"):
            load_golden_data()

    @staticmethod
    def _patch_matrices(monkeypatch, change):
        # load_golden_data reads the bundled file with change applied to its matrices
        import ottosim.tomography as tomo_mod

        doc = json.loads(tomo_mod.resources.files("ottosim.data").joinpath(
            "golden_states.json").read_text())
        change(doc["matrices"])

        class PatchedPath:
            def joinpath(self, name):
                return self

            def read_text(self):
                return json.dumps(doc)

        monkeypatch.setattr(tomo_mod.resources, "files", lambda pkg: PatchedPath())

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # dividing by a NaN trace
    @pytest.mark.parametrize("change, message", [
        (lambda ms: (ms["ini"][0][0].__setitem__(0, math.nan), ms.pop("C_to_D")),
         "golden matrix 'ini' unusable: not Hermitian: defect nan"),
        (lambda ms: (ms["A_to_B"][1].__setitem__(0, "x"), ms["C_to_D"][0][0].__setitem__(
            0, math.nan)), "golden matrix 'A_to_B' malformed: "),
        (lambda ms: (ms.pop("B_to_C"), ms["D_to_A"][1][1].__setitem__(1, math.nan)),
         "golden data missing matrix 'B_to_C'"),
        (lambda ms: (ms["C_to_D"][1][1].__setitem__(1, math.nan), ms["D_to_A"].append([])),
         "golden matrix 'C_to_D' unusable: not Hermitian: defect nan"),
        (lambda ms: ms["D_to_A"].append([[0.0, 0.0], [0.0, 0.0]]),
         "golden matrix 'D_to_A' has shape (3, 2)"),
        (lambda ms: ms.pop("ini"), "golden data missing matrix 'ini'"),
    ], ids=["unusable before missing", "malformed before unusable", "missing before unusable",
            "unusable before a bad shape", "bad shape", "first missing"])
    def test_the_first_failing_label_is_raised(self, monkeypatch, change, message):
        # the five matrices are sanitized and checked as one stack, and the first label in
        # order that is missing, malformed, of another shape or unusable is raised
        self._patch_matrices(monkeypatch, change)
        with pytest.raises(GoldenDataError) as info:
            load_golden_data()
        assert str(info.value).startswith(message)


class TestIntensityFile:
    def test_read_good_file(self, tmp_path):
        path = tmp_path / "intensities.txt"
        path.write_text("# comment\nHV 0.5 0.5\nDAD 0.5 0.5\nRL 0.0 1.0\n")
        records = read_intensity_file(path)
        rho = reconstruct(stokes_from_intensities(records))
        assert np.abs(rho.matrix - RHO_RC.matrix).max() < 1e-12

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("HV 0.5\n")
        with pytest.raises(QuantumValueError, match="expected"):
            read_intensity_file(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("HV zero 0.5\n")
        with pytest.raises(QuantumValueError):
            read_intensity_file(path)

    def test_unknown_basis_rejected(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("AB 0.5 0.5\n")
        with pytest.raises(QuantumValueError):
            read_intensity_file(path)
