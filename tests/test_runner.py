"""Tests for cycle orchestration, sweeps, report emission and the CLI."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ottosim import cli
from ottosim.qcore import QuantumValueError
from ottosim.runner import (
    CSV_COLUMNS,
    DEFAULT_THETAS,
    SweepConfig,
    compare_golden,
    emit,
    load_config_file,
    load_report,
    run_cycle,
    run_sweep,
)
from ottosim.thermo import closed_form_energetics, thermal_state

GOLDEN_CSV = Path(__file__).parent / "data" / "golden_default.csv"


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

        original = runner_mod.dephasing_stack

        def flaky(theta_v, *args, **kwargs):
            # reports an error for the 16 deg row of every stack it builds
            u, kraus, errors = original(theta_v, *args, **kwargs)
            for i in np.flatnonzero(np.abs(theta_v - math.radians(16.0)) < 1e-12).tolist():
                errors[i] = "injected fault"
            return u, kraus, errors

        monkeypatch.setattr(runner_mod, "dephasing_stack", flaky)
        report = run_sweep()
        assert len(report.rows) == 6
        assert list(report.failures) == ["16"]
        assert "injected fault" in report.failures["16"]
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

    def test_json_roundtrip(self):
        report = run_sweep(SweepConfig(noise_sigma=0.01, seed=5))
        blob = emit(report, "json")
        loaded = load_report(blob)
        assert loaded == report
        assert emit(loaded, "json") == blob

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

        # a hot stroke that erases coherence instead of scaling it by cos 45
        original = optics_mod.pd_block
        monkeypatch.setattr(optics_mod, "pd_block", lambda theta: original(np.pi / 4))
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

    def test_run_circuit(self, tmp_path, capsys):
        circ = tmp_path / "cycle.otto"
        circ.write_text("init rc\npd 45\ntomo TC\n")
        assert cli.main(["run", str(circ)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["snapshots"]["TC"][0][0][0] == pytest.approx(0.5, abs=1e-12)

    def test_run_parse_error_exits_2(self, tmp_path, capsys):
        circ = tmp_path / "bad.otto"
        circ.write_text("pd 99\n")
        assert cli.main(["run", str(circ)]) == 2
        assert "angle out of range" in capsys.readouterr().err

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

    def test_golden_passes(self, capsys):
        assert cli.main(["golden"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "PASS"
        # both fidelity conventions: TA2 passes the sqrt gate, scores 0.9696 squared
        (ta2,) = [line for line in lines if line.startswith("TA2:")]
        assert "fidelity 0.984699" in ta2 and "squared 0.969633" in ta2

    def test_golden_requires_22_5(self, capsys):
        assert cli.main(["golden", "--theta-list", "0,45"]) == 2

    def test_unwritable_output_exits_2(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "report.csv"
        assert cli.main(["sweep", "--out", str(target)]) == 2
