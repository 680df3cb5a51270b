"""The names outside callers reach by name still exist in the package.

``bench/tracing.py`` patches each ``(module, attribute)`` of its ``TRACED`` table when a
benchmark runs with ``--trace 1``, and its ``reconstruct`` wrapper reads
``StokesVector.bloch_norm``; a name deleted from ``src/`` breaks that run at install time.
``bench/workloads.py`` and ``bench/run.py`` read reports, cycle results, programs and
``TOL`` entries by name, and pass ``SweepConfig`` the engine keywords of ``bench/gen.py``.
Bench files are read as they stand, without importing the bench package.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("qcore", "optics", "thermo", "tomography", "circuit", "runner", "cli")
# the workloads' canonical cycle program, ten instructions
CYCLE = ("init thermal 3.0\ntomo TA\nexpand 2.0 180.0\ntomo TB\npd 22.5\ntomo TC\n"
         "compress 2.0 180.0\ntomo TD\nipd 22.5\ntomo TA2\n")


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_and_exported_names_resolve():
    tracing = _bench_module("tracing")
    unresolved = []
    for targets in tracing.TRACED.values():
        for module_name, attr in targets:
            owner = importlib.import_module(f"ottosim.{module_name}")
            for part in attr.split("."):  # "Class.method" names a method of a class
                owner = getattr(owner, part, None)
            if not callable(owner):
                unresolved.append(f"{module_name}.{attr}")
    assert unresolved == []
    assert isinstance(importlib.import_module("ottosim.tomography").StokesVector.bloch_norm,
                      property)
    for module_name in MODULES:
        module = importlib.import_module(f"ottosim.{module_name}")
        assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
def test_the_names_the_workloads_read_resolve(capsys):
    runner, circuit, qcore, cli = (importlib.import_module(f"ottosim.{name}")
                                   for name in ("runner", "circuit", "qcore", "cli"))
    tol = qcore.TOL["energy"]
    assert isinstance(qcore.TOL["stokes_physical"], float) and qcore.TOL["cycle_closure"] > 0.0
    # dense_sweep: the default grid with the engine keywords, its rows, failures and CSV
    thetas = runner.DEFAULT_THETAS
    report = runner.run_sweep(runner.SweepConfig(theta_list_deg=thetas,
                                                 **_bench_module("gen").ENGINE))
    assert report.failures == {} and len(report.rows) == len(thetas)
    assert runner.emit(report, "csv").count(b"\n") == len(report.rows) + 1
    for row in report.rows:
        assert isinstance(row.theta_deg, float) and sorted(row.snapshots) == sorted(
            runner.SNAPSHOT_LABELS)
        assert abs(row.max_delta_vs_closed_form) <= tol and abs(row.ledger.dU_cycle) <= tol
    # noisy_report: a JSON report read back, its metadata and the golden gate through cli.main
    noisy = runner.SweepConfig(noise_sigma=0.02)
    loaded = runner.load_report(runner.emit(runner.run_sweep(noisy), "json"))
    assert (loaded.metadata["config"]["noise_sigma"], loaded.metadata["config"]["seed"]) == (
        0.02, 0)
    assert loaded.failures == {} and len(loaded.rows) == len(thetas)
    assert cli.main(["golden"]) == 0 and capsys.readouterr().out.splitlines()[-1] == "PASS"
    # run.py's reference table: run_cycle's TA matrix, the 1000-angle grid config
    matrix = runner.run_cycle(22.5).snapshots["TA"].matrix.copy()
    assert isinstance(qcore.DensityOperator(matrix), qcore.DensityOperator)
    grid = runner.SweepConfig(theta_list_deg=[45.0 * k / 999 for k in range(1000)])
    assert len(grid.theta_list_deg) == 1000 and grid.omega0_tau == math.pi
    # circuit_mix: len of a parsed program, format_program, taps, the syntax error's line
    program = circuit.parse(CYCLE)
    assert len(program) == 10 and circuit.parse(circuit.format_program(program)) == program
    snaps = circuit.compile_program(program).run().snapshots
    assert np.abs(snaps["TA2"].matrix - snaps["TA"].matrix).max() <= qcore.TOL["cycle_closure"]
    with pytest.raises(circuit.CircuitSyntaxError) as info:
        circuit.parse("init rc\nhwp abc\n")
    assert info.value.errors[0].line == 2
    with pytest.raises(circuit.CircuitCompileError):
        circuit.compile_program(circuit.parse("init rc\nipd 10\n"))
