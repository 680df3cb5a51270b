"""Tests for cycle orchestration, sweeps, report emission and the CLI."""

import json
import math
import os
import random
import re
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest

from ottosim import cli
from ottosim.qcore import DensityOperator, QuantumValueError
from ottosim.runner import (
    CSV_COLUMNS,
    DEFAULT_THETAS,
    SweepConfig,
    _matrix_from_json,
    _matrix_to_json,
    compare_golden,
    emit,
    load_config_file,
    load_report,
    run_cycle,
    run_sweep,
)
from ottosim.thermo import closed_form_energetics, thermal_state
from ottosim.tomography import UnphysicalStokesWarning

GOLDEN_CSV = Path(__file__).parent / "data" / "golden_default.csv"
GOLDEN_NOISY_JSON = Path(__file__).parent / "data" / "golden_noisy_0.1_seed3.json"
# the CSV of the 128-angle grid 45 k / 127 deg (k = 0..127), the benchmark's largest sweep
GRID128_CSV = Path(__file__).parent / "data" / "grid128.csv"
README_CYCLE_JSON = Path(__file__).parent / "data" / "readme_cycle.json"
README = Path(__file__).parent.parent / "README.md"


class TestSweepConfig:
    def test_defaults_match_reference_run(self):
        config = SweepConfig()
        assert config.theta_list_deg == (0.0, 8.0, 16.0, 22.5, 29.0, 37.0, 45.0)
        assert config.n == 2.0 and config.x_c == 3.0
        assert config.omega0_tau == math.pi
        assert config.noise_sigma == 0.0

    def test_validation(self):
        with pytest.raises(QuantumValueError):
            SweepConfig(theta_list_deg=(50.0,))
        with pytest.raises(QuantumValueError):
            SweepConfig(noise_sigma=-0.1)
        with pytest.raises(QuantumValueError):
            SweepConfig(fmt="xml")
        with pytest.raises(QuantumValueError):
            SweepConfig(n=0.9)
        with pytest.raises(QuantumValueError, match="seed = -3 must be nonnegative"):
            SweepConfig(seed=-3)

    def test_noisy_sweep_rejects_a_repeated_angle(self):
        # the JSON report keys snapshots by %.12g of theta_V; two noisy rows at one key would
        # keep one snapshot set, so 22.5 + 1e-13 repeats 22.5 too
        for thetas in ((22.5, 22.5), (8.0, 22.5, 16.0, 22.5 + 1e-13)):
            with pytest.raises(QuantumValueError) as info:
                SweepConfig(theta_list_deg=thetas, noise_sigma=0.1, seed=3)
            assert str(info.value) == "theta_V = 22.5 deg repeated in a noisy sweep"
        SweepConfig(theta_list_deg=(22.5, 22.5 + 1e-9), noise_sigma=0.1)  # "22.500000001"

    def test_noiseless_repeats_round_trip(self):
        report = run_sweep(SweepConfig(theta_list_deg=(22.5, 8.0, 22.5)))
        assert [row.theta_deg for row in report.rows] == [22.5, 22.5, 8.0]
        blob = emit(report, "json")
        assert load_report(blob) == report
        assert emit(load_report(blob), "json") == blob

    @pytest.mark.parametrize("field", ["n", "x_c", "noise_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(QuantumValueError, match="must be finite"):
            SweepConfig(**{field: value})


class TestRunCycle:
    def test_idle_cycle_at_zero_angle(self):
        res = run_cycle(0.0)
        led = res.ledger
        assert led.r == 1.0  # exact endpoint
        assert led.Q_BC == pytest.approx(0.0, abs=1e-12)
        assert led.Q_DA == pytest.approx(0.0, abs=1e-12)
        assert led.Sigma_cycle == pytest.approx(0.0, abs=1e-9)
        delta = np.abs(res.snapshots["TA2"].matrix - res.snapshots["TA"].matrix).max()
        assert delta < 1e-12

    def test_full_dephasing_ledger(self):
        res = run_cycle(45.0)
        led = res.ledger
        assert led.r == 0.0  # exact endpoint
        assert led.W_AB == pytest.approx(-0.9950547536867305, abs=1e-9)
        assert led.Q_BC == pytest.approx(1.990109507373461, abs=1e-9)
        assert led.W_CD == pytest.approx(0.0, abs=1e-9)
        assert led.Q_DA == pytest.approx(-0.9950547536867305, abs=1e-9)
        assert led.W_extracted == pytest.approx(0.9950547536867305, abs=1e-9)

    def test_cycle_closes_for_every_swept_angle(self):
        for theta in DEFAULT_THETAS:
            res = run_cycle(theta)
            delta = np.abs(
                res.snapshots["TA2"].matrix - thermal_state(3.0).rho.matrix
            ).max()
            assert delta < 1e-10

    def test_first_law_everywhere(self):
        for theta in DEFAULT_THETAS:
            assert abs(run_cycle(theta).ledger.dU_cycle) < 1e-9

    def test_matches_closed_form_on_dense_grid(self):
        config = SweepConfig()
        for theta in np.linspace(0.0, 45.0, 20):
            res = run_cycle(float(theta), config)
            assert res.max_delta_vs_closed_form < 1e-9

    def test_entropy_balance_identity_in_ledger(self):
        # the ledger stores the balance form; it must equal the divergence
        from ottosim.optics import kappa_from_theta_deg

        for theta in DEFAULT_THETAS:
            led = run_cycle(theta).ledger
            closed = closed_form_energetics(kappa_from_theta_deg(theta), SweepConfig().params())
            assert led.Sigma_e == pytest.approx(closed.Sigma_e, abs=1e-9)
            assert led.Sigma_c == pytest.approx(closed.Sigma_c, abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(QuantumValueError):
            run_cycle(46.0)

    def test_snapshot_labels(self):
        res = run_cycle(22.5)
        assert set(res.snapshots) == {"TA", "TB", "TC", "TD", "TA2"}
        assert res.snapshots["TC"].label == "TC"


class TestRunSweep:
    def test_default_sweep_shape_and_order(self):
        report = run_sweep()
        assert len(report.rows) == 7
        assert not report.failures
        r_values = [row.ledger.r for row in report.rows]
        assert r_values == sorted(r_values)
        assert r_values[0] == 0.0 and r_values[-1] == 1.0
        assert report.rows[0].theta_deg == 45.0
        assert report.rows[-1].theta_deg == 0.0

    def test_monotone_curves(self):
        report = run_sweep()
        w = [row.ledger.W_extracted for row in report.rows]
        s = [row.ledger.Sigma_cycle for row in report.rows]
        assert all(w[i] >= w[i + 1] - 1e-12 for i in range(len(w) - 1))
        assert all(s[i] >= s[i + 1] - 1e-12 for i in range(len(s) - 1))

    def test_deterministic_with_noise(self):
        config = SweepConfig(noise_sigma=0.01, seed=421)
        a = emit(run_sweep(config), "csv")
        b = emit(run_sweep(config), "csv")
        assert a == b
        c = emit(run_sweep(SweepConfig(noise_sigma=0.01, seed=422)), "json")
        d = emit(run_sweep(config), "json")
        assert c != d  # different seed moves the snapshots

    def test_noise_affects_snapshots_not_ledger(self):
        noisy = run_sweep(SweepConfig(noise_sigma=0.05, seed=7))
        clean = run_sweep(SweepConfig())
        for a, b in zip(noisy.rows, clean.rows):
            assert a.ledger == b.ledger
        tc_noisy = noisy.rows[0].snapshots["TC"].matrix
        tc_clean = clean.rows[0].snapshots["TC"].matrix
        assert np.abs(tc_noisy - tc_clean).max() > 1e-6

    def test_failure_markers(self, monkeypatch):
        import ottosim.runner as runner_mod

        original = runner_mod.dephasing_blocks

        def flaky(pd_theta, ipd_theta):
            # an arm-plate defect of 0.5 for the 16 deg row of both blocks it builds
            pd, ipd, kraus, defects = original(pd_theta, ipd_theta)
            theta_v = np.concatenate([pd_theta, ipd_theta])
            defects[np.abs(theta_v - math.radians(16.0)) < 1e-12, 3] = 0.5
            return pd, ipd, kraus, defects

        monkeypatch.setattr(runner_mod, "dephasing_blocks", flaky)
        report = run_sweep()
        assert len(report.rows) == 6
        assert list(report.failures) == ["16"]
        assert report.failures["16"] == "stroke B->C: HWP element not unitary: defect 0.5"
        assert "B->C" in report.failures["16"]  # failing stroke is named
        csv = emit(report, "csv").decode()
        assert "# FAILED theta_v_deg=16" in csv


class TestEmit:
    def test_csv_layout(self):
        data = emit(run_sweep(), "csv").decode()
        lines = data.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 8
        first = lines[1].split(",")
        assert first[0] == "45"
        assert len(first) == len(CSV_COLUMNS)

    def test_csv_regression_against_frozen_golden(self):
        assert emit(run_sweep(), "csv") == GOLDEN_CSV.read_bytes()

    def test_grid128_csv_regression_against_frozen_file(self):
        # 768 states through one density check, the entry-plane forms at the largest stack
        config = SweepConfig(theta_list_deg=tuple(45.0 * k / 127 for k in range(128)))
        assert emit(run_sweep(config), "csv") == GRID128_CSV.read_bytes()

    @pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
    def test_noisy_json_regression_against_frozen_golden(self, tmp_path):
        # the ledger, the tomography tap and the JSON layout of `sweep --noise 0.1 --seed 3`
        out = tmp_path / "noisy.json"
        assert cli.main(["sweep", "--noise", "0.1", "--seed", "3", "--format", "json",
                         "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_NOISY_JSON.read_bytes()
        report = run_sweep(SweepConfig(noise_sigma=0.1, seed=3))
        assert emit(report, "json") == out.read_bytes()
        # and the frozen file loads to that report and re-emits byte for byte
        loaded = load_report(GOLDEN_NOISY_JSON.read_bytes())
        assert loaded == report
        assert emit(loaded, "json") == GOLDEN_NOISY_JSON.read_bytes()

    def test_json_roundtrip(self):
        report = run_sweep(SweepConfig(noise_sigma=0.01, seed=5))
        blob = emit(report, "json")
        loaded = load_report(blob)
        assert loaded == report
        assert emit(loaded, "json") == blob

    def test_load_report_rejects_a_corrupted_snapshot(self):
        doc = json.loads(emit(run_sweep(SweepConfig(noise_sigma=0.01, seed=5)), "json"))
        snaps = list(doc["snapshots"].values())

        def expected(matrix):
            with pytest.raises(QuantumValueError) as info:
                DensityOperator(np.array([[complex(*z) for z in r] for r in matrix]))
            return str(info.value)

        snaps[4]["TA"][0][0] = [0.9, 0.0]   # trace, in a later row
        with pytest.raises(QuantumValueError) as loaded:
            load_report(json.dumps(doc))
        assert str(loaded.value) == expected(snaps[4]["TA"])
        assert str(loaded.value).startswith("trace")
        snaps[1]["TD"][0][1] = [0.4, 0.3]   # not Hermitian, in an earlier row at a later label
        with pytest.raises(QuantumValueError) as loaded:
            load_report(json.dumps(doc))
        assert str(loaded.value) == expected(snaps[1]["TD"])
        assert str(loaded.value).startswith("not Hermitian: defect")

    def test_load_report_rejects_a_non_finite_4x4_snapshot(self):
        # a 4x4 snapshot of JSON NaN is refused by its shape, before any density check, so no
        # LAPACK call sees the NaN
        doc = json.loads(emit(run_sweep(SweepConfig(theta_list_deg=(8.0, 22.5))), "json"))
        doc["snapshots"]["22.5"]["TC"] = [[[math.nan, 0.0]] * 4] * 4
        with pytest.raises(QuantumValueError,
                           match=r"^report row theta_V = 22.5 deg has a 4x4 TC snapshot$"):
            load_report(json.dumps(doc))

    def test_load_report_rejects_a_row_without_its_five_snapshots(self):
        # a row short of a label, with a label too many, or with no snapshots at all is
        # refused at load, naming its theta_V, instead of failing later in emit
        blob = emit(run_sweep(SweepConfig(theta_list_deg=(8.0, 22.5))), "json")
        for change, labels in ((lambda s: s.pop("TB"), "['TA', 'TC', 'TD', 'TA2']"),
                               (lambda s: s.update(TX=s["TA"]),
                                "['TA', 'TB', 'TC', 'TD', 'TA2', 'TX']"),
                               (lambda s: s.clear(), "[]")):
            doc = json.loads(blob)
            change(doc["snapshots"]["22.5"])
            with pytest.raises(QuantumValueError) as info:
                load_report(json.dumps(doc))
            assert str(info.value) == (f"report row theta_V = 22.5 deg has snapshots {labels}, "
                                       "not ['TA', 'TB', 'TC', 'TD', 'TA2']")
        doc = json.loads(blob)
        doc["snapshots"]["8.5"] = doc["snapshots"].pop("8")
        with pytest.raises(QuantumValueError) as info:
            load_report(json.dumps(doc))
        assert str(info.value).startswith("report row theta_V = 8 deg has snapshots [], ")

    def test_load_report_rejects_a_4x4_snapshot(self):
        doc = json.loads(emit(run_sweep(SweepConfig(theta_list_deg=(8.0, 22.5))), "json"))
        doc["snapshots"]["22.5"]["TC"] = _matrix_to_json(np.eye(4) / 4)
        with pytest.raises(QuantumValueError,
                           match=r"^report row theta_V = 22.5 deg has a 4x4 TC snapshot$"):
            load_report(json.dumps(doc))

    def test_load_report_rejects_a_ragged_or_3x3_snapshot_naming_its_row(self):
        # a snapshot that cannot join the one (5N, 2, 2) stack is named by its row and label;
        # so is one holding a JSON integer beyond the float range
        blob = emit(run_sweep(SweepConfig(theta_list_deg=(8.0, 22.5))), "json")
        for matrix, shape in (([[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]], "malformed"),
                              (_matrix_to_json(np.eye(3) / 3), "3x3"),
                              ([[[10**400, 0], [0, 0]], [[0, 0], [0.5, 0]]], "malformed")):
            doc = json.loads(blob)
            doc["snapshots"]["22.5"]["TD"] = matrix
            with pytest.raises(QuantumValueError) as info:
                load_report(json.dumps(doc))
            assert str(info.value) == f"report row theta_V = 22.5 deg has a {shape} TD snapshot"

    @pytest.mark.parametrize("value, reason", [
        (10**400, "int too large to convert to float"),
        ({"re": 0.5}, "dict, not a number"),
        ([0.5], "list, not a number"),
        (True, "bool, not a number"),
        ("0.5", "str, not a number"),
    ], ids=["int past float", "object", "list", "bool", "string"])
    def test_load_report_rejects_a_row_value_that_is_no_float_naming_its_row(self, value,
                                                                             reason):
        # a JSON integer beyond the float range, or a value that is no JSON number or null, in
        # a row's columns is refused by row position and column, the first such in row order
        # (float() would read true as 1.0 and "0.5" as 0.5, and emit would write numbers back)
        blob = emit(run_sweep(SweepConfig(theta_list_deg=(8.0, 22.5, 29.0))), "json")
        doc = json.loads(blob)
        doc["rows"][1]["kappa"] = value
        with pytest.raises(QuantumValueError) as info:
            load_report(json.dumps(doc))
        assert str(info.value) == f"report row 1 column kappa: {reason}"
        doc["rows"][2]["theta_v_deg"] = value
        with pytest.raises(QuantumValueError) as info:
            load_report(json.dumps(doc))
        assert str(info.value) == f"report row 1 column kappa: {reason}"

    @pytest.mark.parametrize("change, message", [
        (lambda doc: doc["rows"][1].pop("kappa"), "report row 1 column kappa: missing"),
        (lambda doc: doc.update(snapshots=1.5), "report key snapshots: float, not dict"),
        (lambda doc: doc["rows"].__setitem__(2, list(doc["rows"][2].values())),
         "report row 2: list, not dict"),
        (lambda doc: doc.update(rows=3), "report key rows: int, not list"),
        (lambda doc: doc.pop("failures"), "report key failures: missing"),
        (lambda doc: doc["snapshots"].update({"29": ["TA", "TB", "TC", "TD", "TA2"]}),
         "report snapshots at theta_V = 29 deg: list, not dict"),
    ], ids=["missing column", "snapshots 1.5", "row list", "rows 3", "missing failures",
            "snapshots list"])
    def test_load_report_names_a_document_of_another_shape(self, change, message):
        # each of these failed inside the load with a bare KeyError, AttributeError or TypeError
        doc = json.loads(emit(run_sweep(SweepConfig(theta_list_deg=(8.0, 22.5, 29.0))), "json"))
        change(doc)
        with pytest.raises(QuantumValueError) as info:
            load_report(json.dumps(doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("key, value, kind", [
        ("rows", {}, "dict"), ("rows", "", "str"), ("snapshots", [], "list"),
        ("failures", 5, "int"), ("failures", "x", "str"), ("failures", None, "NoneType"),
        ("metadata", None, "NoneType"), ("metadata", [], "list")])
    def test_load_report_refuses_a_mistyped_key_even_when_empty(self, key, value, kind):
        # every top-level key needs the type emit writes, also when it is empty
        doc = json.loads(emit(run_sweep(SweepConfig(theta_list_deg=(8.0, 22.5))), "json"))
        doc[key] = value
        expected = "list" if key == "rows" else "dict"
        assert _load_message(json.dumps(doc)) == f"report key {key}: {kind}, not {expected}"
        if key in ("failures", "metadata"):  # named after every problem of the rows and snapshots
            doc["snapshots"]["8"]["TC"][0][0][0] = 0.75
            assert _load_message(json.dumps(doc)).startswith("trace ")

    def test_a_density_failure_is_not_renamed_by_an_unread_snapshot_entry(self):
        # a stray snapshot entry that no row reads is not read: a density failure's message
        # stays as it was
        doc = json.loads(emit(run_sweep(SweepConfig(theta_list_deg=(8.0, 22.5))), "json"))
        doc["snapshots"]["8"]["TC"][0][0][0] = 0.75
        message = _load_message(json.dumps(doc))
        assert message.startswith("trace ")
        doc["snapshots"]["99"] = ["TA", "TB", "TC", "TD", "TA2"]
        assert _load_message(json.dumps(doc)) == message

    def test_emit_refuses_distinct_angles_that_share_a_key(self, capsys):
        # 22.5 and 22.5 + 1e-13 both print as "22.5" but their TC entries differ in the last
        # bits: one snapshot set would be lost, so the JSON report is refused naming the key
        report = run_sweep(SweepConfig(theta_list_deg=(22.5, 8.0, 22.5 + 1e-13)))
        assert len(report.rows) == 3
        with pytest.raises(QuantumValueError) as info:
            emit(report, "json")
        assert str(info.value) == ("report rows at theta_V = 22.5 deg share one JSON key but "
                                   "differ in their snapshots")
        emit(report, "csv")  # the CSV keys nothing
        assert cli.main(["sweep", "--theta-list", "22.5,22.5000000000001",
                         "--format", "json"]) == 2
        assert capsys.readouterr() == ("", f"error: {info.value}\n")
        # exact noiseless repeats share their snapshots: test_noiseless_repeats_round_trip

    def test_loaded_snapshots_are_labeled_and_frozen(self):
        loaded = load_report(emit(run_sweep(SweepConfig(noise_sigma=0.01, seed=5)), "json"))
        for row in loaded.rows:
            assert [state.label for state in row.snapshots.values()] == list(row.snapshots)
            assert not any(state.matrix.flags.writeable for state in row.snapshots.values())

    def test_matrix_json_keeps_every_float(self):
        m = np.array([[-0.0 + 0.5j, 1e-300 - 0.0j], [-1.5 + 0.0j, 2.0 - 1e-17j]])
        reference = [[[float(z.real), float(z.imag)] for z in r] for r in m]
        assert json.dumps(_matrix_to_json(m)) == json.dumps(reference)
        assert _matrix_from_json(reference).tobytes() == m.tobytes()
        assert _matrix_to_json(m[:, ::-1]) == [r[::-1] for r in reference]  # non-contiguous view

    def test_json_snapshot_payload(self):
        doc = json.loads(emit(run_sweep(), "json"))
        snap = doc["snapshots"]["22.5"]["TC"]
        # [re, im] pairs; hot-stroke coherence cos(45 deg) * tanh(3) / 2
        assert snap[0][1][1] == pytest.approx(0.3518049819918984, abs=1e-12)

    def test_unknown_format(self):
        with pytest.raises(QuantumValueError):
            emit(run_sweep(), "xml")


class TestCompareGolden:
    def test_default_comparison_passes(self):
        comparison = compare_golden(run_sweep())
        assert comparison.passed
        assert all(f >= 0.98 for f in comparison.fidelities.values())
        assert comparison.offdiag_simulated == pytest.approx(0.3535533905932738, abs=1e-12)
        assert comparison.offdiag_golden == pytest.approx(0.3407, abs=1e-12)
        assert abs(comparison.offdiag_simulated - comparison.offdiag_golden) == (
            pytest.approx(0.0129, abs=1e-3)
        )

    def test_initial_state_entry_delta(self):
        comparison = compare_golden(run_sweep())
        # theory vs measured initial matrix: max entry delta ~0.0134
        assert comparison.max_entry_deltas["TA"] == pytest.approx(0.0135, abs=1e-3)

    def test_coherence_gate_can_fail(self, monkeypatch):
        import ottosim.optics as optics_mod

        # a hot stroke that erases coherence instead of scaling it by cos 45: the circuit
        # (which calls optics.dephasing_blocks) builds its forward blocks at pi/4, while the
        # sweep keeps its own binding of the builder and its blocks
        original = optics_mod.dephasing_blocks

        def erasing(pd_theta, ipd_theta):
            return original(np.full(len(pd_theta), np.pi / 4), ipd_theta)

        monkeypatch.setattr(optics_mod, "dephasing_blocks", erasing)
        comparison = compare_golden(run_sweep())
        assert comparison.offdiag_simulated == pytest.approx(0.0, abs=1e-12)
        assert all(f >= 0.98 for f in comparison.fidelities.values())
        assert comparison.passed is False

    def test_requires_22_5_row(self):
        report = run_sweep(SweepConfig(theta_list_deg=(0.0, 45.0)))
        with pytest.raises(QuantumValueError, match="22.5"):
            compare_golden(report)

    def test_golden_self_comparison(self):
        from ottosim.qcore import fidelity
        from ottosim.tomography import load_golden_data

        golden = load_golden_data()
        for state in golden.states.values():
            assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)


class TestConfigFile:
    def test_load_and_types(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# reference run, coarse\n"
            "theta_list_deg = 0, 22.5, 45\n"
            "n = 2.0\n"
            "x_c = 3.0\n"
            "noise_sigma = 0.0\n"
            "seed = 17\n"
            "fmt = json\n"
        )
        config = load_config_file(path)
        assert config.theta_list_deg == (0.0, 22.5, 45.0)
        assert config.seed == 17
        assert config.fmt == "json"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("volume = 11\n")
        with pytest.raises(QuantumValueError, match="unknown key"):
            load_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line\n")
        with pytest.raises(QuantumValueError, match="key=value"):
            load_config_file(path)


class TestCli:
    def test_main_reuses_one_parser(self, tmp_path):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()
        for theta in ("22.5", "45"):
            out = tmp_path / f"{theta}.json"
            assert cli.main(["sweep", "--theta-list", theta, "--format", "json",
                             "--out", str(out)]) == 0
            assert json.loads(out.read_text())["metadata"]["config"]["theta_list_deg"] == [
                float(theta)]

    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "report.csv"
        code = cli.main(["sweep", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == GOLDEN_CSV.read_bytes()

    def test_sweep_flag_overrides(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["sweep", "--theta-list", "0,45", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert [row["theta_v_deg"] for row in doc["rows"]] == [45.0, 0.0]

    def test_sweep_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out.csv"
        cfg.write_text(f"theta_list_deg = 22.5\nout = {out}\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        assert out.exists()

    def test_sweep_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("theta_list_deg = 99\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line, message", [
        ("seed = 1.5", "invalid literal for int() with base 10: '1.5'"),
        ("n = abc", "could not convert string to float: 'abc'"),
        ("theta_list_deg = 1,x", "could not convert string to float: 'x'")])
    def test_sweep_unparsable_config_value_names_its_line(self, tmp_path, capsys, line, message):
        # the value on line 1 is refused before the unknown key on line 2 is read
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\nvolume = 11\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: {message}\n"

    def test_sweep_undecodable_config_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n = 2\n\xff = 1\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: unknown key '\ufffd'\n"

    @pytest.mark.parametrize("flag", ["--n", "--xc", "--noise"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_sweep_non_finite_parameter_exits_2(self, flag, value, capsys):
        assert cli.main(["sweep", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err

    def test_sweep_repeated_noisy_angle_exits_2(self, capsys):
        assert cli.main(["sweep", "--theta-list", "22.5,22.5", "--noise", "0.1"]) == 2
        assert capsys.readouterr().err == (
            "error: theta_V = 22.5 deg repeated in a noisy sweep\n")
        assert cli.main(["sweep", "--theta-list", "22.5,22.5"]) == 0

    def test_sweep_infinite_jones_parameter_exits_2(self, capsys):
        # n = 1e308 is finite, but (n + 1) omega0*tau / 2 is not
        assert cli.main(["sweep", "--n", "1e308"]) == 2
        assert capsys.readouterr().err == (
            "error: Jones parameter (n + 1) omega0*tau / 2 = inf is not finite\n")

    def test_sweep_config_file_nan_omega0_tau_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("omega0_tau = nan\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: Jones parameter (n + 1) omega0*tau / 2 = nan is not finite\n")

    @pytest.mark.parametrize("line, flags", [("seed = -1", ["--seed", "3"]),
                                             ("theta_list_deg = 99", ["--theta-list", "10"])])
    def test_flags_override_a_config_file_before_it_is_checked(self, tmp_path, capsys, line,
                                                               flags):
        # the file's value alone is refused, naming the file; under a flag it is never checked
        cfg = tmp_path / "f.cfg"
        cfg.write_text(line + "\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.endswith("\n"), err
        assert cli.main(["sweep", "--config", str(cfg), *flags]) == 0
        assert capsys.readouterr().err == ""

    def test_a_refused_flag_over_a_config_file_is_named_bare(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("seed = 4\n")
        assert cli.main(["sweep", "--config", str(cfg), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed = -1 must be nonnegative\n"

    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        # SeedSequence refuses negative entropy, so a negative seed is a config error, with
        # noise or without, from a flag or from a config file, for sweep and for golden
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seed.cfg").write_text("seed = -1\n")
        for argv in (["sweep", "--noise", "0.1", "--seed", "-1"], ["sweep", "--seed", "-1"],
                     ["sweep", "--config", "seed.cfg"], ["golden", "--seed", "-1"],
                     ["golden", "--config", "seed.cfg"]):
            assert cli.main(argv) == 2, argv
            # a value the config file supplied is refused naming the file
            named = "seed.cfg: " if "--config" in argv else ""
            assert capsys.readouterr().err == f"error: {named}seed = -1 must be nonnegative\n", argv

    def test_run_circuit(self, tmp_path, capsys):
        circ = tmp_path / "cycle.otto"
        circ.write_text("init rc\npd 45\ntomo TC\n")
        assert cli.main(["run", str(circ)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["snapshots"]["TC"][0][0][0] == pytest.approx(0.5, abs=1e-12)

    def test_run_readme_cycle_against_frozen_output(self, tmp_path, capsys):
        # the README's cycle program (its lines from `init rc` to `tomo TA2`, as CI cuts them
        # with awk) prints the frozen snapshots byte for byte
        lines = README.read_text(encoding="utf-8").splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("init rc"))
        end = next(i for i, line in enumerate(lines) if i > start and line.startswith("tomo TA2"))
        circ = tmp_path / "cycle.otto"
        circ.write_text("\n".join(lines[start:end + 1]) + "\n")
        assert cli.main(["run", str(circ)]) == 0
        assert capsys.readouterr().out == README_CYCLE_JSON.read_text()

    def test_run_parse_error_exits_2(self, tmp_path, capsys):
        circ = tmp_path / "bad.otto"
        circ.write_text("pd 99\n")
        assert cli.main(["run", str(circ)]) == 2
        assert "angle out of range" in capsys.readouterr().err

    def test_run_undecodable_file_names_its_line(self, tmp_path, capsys):
        # bytes that are no UTF-8 read as U+FFFD, as parse reads bytes: a parse error, exit 2
        circ = tmp_path / "bad.otto"
        circ.write_bytes(b"init rc\n\xff\xfe tomo A\n")
        assert cli.main(["run", str(circ)]) == 2
        assert capsys.readouterr().err == (
            "error: 1 parse error(s): line 2, col 1: unknown keyword '\ufffd\ufffd'\n")

    def test_run_missing_file_exits_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.otto")]) == 2

    def test_tomo(self, tmp_path, capsys):
        data = tmp_path / "intensities.txt"
        data.write_text("HV 0.5 0.5\nDAD 0.5 0.5\nRL 0.0 1.0\n")
        assert cli.main(["tomo", str(data)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stokes"][2] == pytest.approx(-1.0, abs=1e-12)

    def test_tomo_bad_file_exits_2(self, tmp_path):
        data = tmp_path / "bad.txt"
        data.write_text("HV 1\n")
        assert cli.main(["tomo", str(data)]) == 2

    def test_tomo_undecodable_file_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "intensities.txt"
        data.write_bytes(b"HV 1 1\n\xff 1 1\n")
        assert cli.main(["tomo", str(data)]) == 2
        assert capsys.readouterr().err == f"error: {data}:2: unknown basis '\ufffd'\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_tomo_bad_intensity_names_its_line(self, tmp_path, capsys, value):
        data = tmp_path / "intensities.txt"
        data.write_text(f"HV 0.5 0.5\nDAD 0.5 {value}\nRL 0.0 1.0\n")
        assert cli.main(["tomo", str(data)]) == 2
        assert capsys.readouterr().err == (
            f"error: {data}:2: intensities must be finite and nonnegative\n")

    def test_tomo_of_a_pair_whose_sum_overflows(self, tmp_path, capsys):
        # DAD 1e308 1e308 is the state of DAD 1 1: s1 = 0, without a RuntimeWarning
        stokes = []
        for scale in ("1", "1e300", "1e308"):
            data = tmp_path / f"{scale}.txt"
            data.write_text(f"HV 1 1\nDAD {scale} {scale}\nRL 1 1\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["tomo", str(data)]) == 0
            stokes.append(json.loads(capsys.readouterr().out)["stokes"])
        assert stokes == [[1.0, 0.0, 0.0, 0.0]] * 3

    def test_sweep_with_noise_past_the_float_range_names_the_basis(self, capsys):
        # each row fails at its tomography tap; a noise factor past the float range names its
        # basis, without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UnphysicalStokesWarning)
            assert cli.main(["sweep", "--noise", "1e308", "--seed", "1"]) == 1
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines() if line.startswith("# FAILED")]
        assert len(failed) == 7 and all(
            re.search(r": (zero total intensity|intensity past the float range) in basis "
                      r"(HV|DAD|RL)$", line) for line in failed)
        assert "intensity past the float range in basis" in out

    def test_golden_passes(self, capsys):
        assert cli.main(["golden"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "PASS"
        # both fidelity conventions: TA2 passes the sqrt gate, scores 0.9696 squared
        (ta2,) = [line for line in lines if line.startswith("TA2:")]
        assert "fidelity 0.984699" in ta2 and "squared 0.969633" in ta2

    def test_golden_requires_22_5(self, capsys):
        assert cli.main(["golden", "--theta-list", "0,45"]) == 2

    @pytest.mark.parametrize("flags", [["--out", "x"], ["--format", "json"]])
    def test_golden_takes_no_output_flags(self, flags, capsys):
        # golden prints its comparison to stdout; an output path or format is a usage error
        with pytest.raises(SystemExit) as info:
            cli.main(["golden", *flags])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["fmt = xml", "out = some/path"])
    def test_golden_refuses_report_config_keys(self, tmp_path, monkeypatch, capsys, line):
        # golden writes no report: the report keys of its config file are refused by name,
        # not checked as a format (fmt = xml) or silently dropped (out = some/path)
        monkeypatch.chdir(tmp_path)
        Path("golden.cfg").write_text(line + "\n")
        assert cli.main(["golden", "--config", "golden.cfg"]) == 2
        key = line.split()[0]
        assert capsys.readouterr() == ("", f"error: golden.cfg:1: unused key '{key}'\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["golden.cfg"]

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        for target in (tmp_path / "no" / "such" / "dir" / "report.csv", tmp_path):
            assert cli.main(["sweep", "--out", str(target)]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")

    def test_out_over_a_longer_file_holds_exactly_the_new_bytes(self, tmp_path, capsys):
        # --out writes over the old bytes and cuts the file at the end of the new ones
        out, circ = tmp_path / "report", tmp_path / "tap.otto"
        circ.write_text("init rc\ntomo T\n")
        for argv in (["sweep", "--format", "json", "--theta-list", "45"], ["run", str(circ)]):
            out.write_bytes(b"x" * 100_000)
            assert cli.main(argv) == 0
            assert cli.main([*argv, "--out", str(out)]) == 0
            assert out.read_bytes() == capsys.readouterr().out.encode(), argv

    def test_out_keeps_the_inode_and_mode_of_an_existing_file(self, tmp_path):
        out = tmp_path / "report.csv"
        out.write_bytes(b"old report\n" * 1000)
        out.chmod(0o640)
        before = out.stat()
        assert cli.main(["sweep", "--out", str(out)]) == 0
        after = out.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
        assert out.read_bytes() == GOLDEN_CSV.read_bytes()

    def test_out_creates_a_new_file_at_the_mode_open_gives(self, tmp_path):
        out = tmp_path / "report.csv"
        umask = os.umask(0o027)
        try:
            assert cli.main(["sweep", "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_bytes() == GOLDEN_CSV.read_bytes()

    def test_out_opens_the_file_write_only_without_truncating(self, tmp_path, monkeypatch):
        # the flags of the one os.open, which root's runs check too: write access only (so a
        # write-only file can be written), created if missing, and cut after the write
        out, opened, os_open = tmp_path / "report.csv", [], os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((path, flags))
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", recording_open)
        out.write_bytes(b"old report\n" * 1000)
        assert cli.main(["sweep", "--out", str(out)]) == 0
        ((path, flags),) = [(path, flags) for path, flags in opened if path == str(out)]
        assert flags & os.O_ACCMODE == os.O_WRONLY and flags & os.O_CREAT
        assert not flags & os.O_TRUNC
        assert out.read_bytes() == GOLDEN_CSV.read_bytes()

    @pytest.mark.skipif(hasattr(os, "geteuid") and os.geteuid() == 0,
                        reason="root reads every file, so a write-only file proves nothing")
    def test_out_writes_a_write_only_file(self, tmp_path):
        out = tmp_path / "report.csv"
        out.write_bytes(b"old report\n" * 1000)
        out.chmod(0o200)
        try:
            assert cli.main(["sweep", "--out", str(out)]) == 0
        finally:
            out.chmod(0o600)
        assert out.read_bytes() == GOLDEN_CSV.read_bytes()

    def test_out_to_the_null_device_exits_0(self, capsys):
        # a character device is written, not cut
        assert cli.main(["sweep", "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")


def _load_message(text):
    with pytest.raises(QuantumValueError) as info:
        load_report(text)
    return str(info.value)


# the values a fuzzed report field is replaced with: every JSON type, and the numbers that
# float() or the report's checks treat apart (NaN, inf, 1e308, a 400-digit integer)
_FUZZ_VALUES = (None, True, False, 0, -1, 2.5, 1e308, math.nan, math.inf, 10**400, "", "x",
                "22.5", [], [0.5], [[0.5, 0.0]], {}, {"TA": 1})


def _fields(node, path=()):
    # the path of every value in a JSON document, the document itself first
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _fields(child, path + (key,))


class TestLoadReportFuzz:
    def test_one_field_mutants_are_refused_or_round_trip(self):
        # 3,000 seeded one-field replacements or deletions of a two-angle noisy report: each one
        # is refused with a QuantumValueError, or loads and re-emits as CSV and JSON, and the
        # JSON it re-emits loads to the same bytes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnphysicalStokesWarning)
            text = emit(run_sweep(SweepConfig(theta_list_deg=(8.0, 29.0), noise_sigma=0.1,
                                              seed=3)), "json").decode()
        paths, rng, outcomes = list(_fields(json.loads(text))), random.Random(18), []
        for _ in range(3000):
            doc, path = json.loads(text), rng.choice(paths)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if not path:
                doc = rng.choice(_FUZZ_VALUES)
            elif rng.random() < 0.25:
                del parent[path[-1]]
            else:
                parent[path[-1]] = rng.choice(_FUZZ_VALUES)
            try:
                report = load_report(json.dumps(doc))
            except QuantumValueError:
                outcomes.append("refused")
                continue
            emit(report, "csv")
            again = emit(report, "json")
            assert emit(load_report(again), "json") == again, path
            outcomes.append("loaded")
        # 44 of the refused mutants put true, false or "22.5" in a row column: no JSON number
        assert (outcomes.count("refused"), outcomes.count("loaded")) == (2661, 339)

    def test_a_refused_pair_names_its_first_refused_value(self):
        # rows[0]["kappa"] and rows[1]["r"] set to every pair of values: a refused document
        # names the first value, in row order, that is refused on its own (null loads as NaN)
        text = emit(run_sweep(SweepConfig(theta_list_deg=(8.0, 29.0))), "json").decode()

        def outcome(kappa=0.5, r=0.5):
            doc = json.loads(text)
            doc["rows"][0]["kappa"], doc["rows"][1]["r"] = kappa, r
            try:
                load_report(json.dumps(doc))
            except QuantumValueError as exc:
                return str(exc)
            return None

        assert outcome(kappa=None) is None and outcome(r=math.nan) is None
        for a in _FUZZ_VALUES:
            for b in _FUZZ_VALUES:
                assert outcome(a, b) == (outcome(kappa=a) or outcome(r=b)), (a, b)
