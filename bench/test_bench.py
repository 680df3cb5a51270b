"""Tests of the benchmark itself.

    python3 -m pytest -q bench
"""

import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN_CSV = (ROOT / "tests" / "data" / "golden_default.csv").read_bytes()

pytestmark = pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")


@pytest.fixture(scope="module")
def program():
    return workloads.Program()


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert gen.digest(gen.generate(workload, 3)) == gen.digest(gen.generate(workload, 3))
    assert gen.digest(gen.generate(workload, 3)) != gen.digest(gen.generate(workload, 4))


def test_pool_composition():
    dense = gen.generate("dense_sweep", 1)
    sizes = [len(item["thetas"]) for item in dense]
    assert min(sizes) >= gen.DENSE_MIN and max(sizes) <= gen.DENSE_MAX
    assert all(0.0 <= t <= 45.0 for item in dense for t in item["thetas"])

    noisy = gen.generate("noisy_report", 1)
    assert sum(item["kind"] == "golden" for item in noisy) * 8 == len(noisy)
    assert {item["sigma"] for item in noisy if item["kind"] == "sweep"} == set(gen.NOISE_SIGMAS)

    mix = gen.generate("circuit_mix", 1)
    malformed = [item for item in mix if "malformed" in item]
    assert len(malformed) * 4 == len(mix)
    assert {item["malformed"] for item in malformed} == set(gen.MALFORMED_CLASSES)
    lengths = [item["length"] for item in mix if "malformed" not in item]
    assert min(lengths) >= gen.CIRCUIT_MIN and max(lengths) <= gen.CIRCUIT_MAX


# -- gates -------------------------------------------------------------------

def test_circuit_pool_passes_and_classes_sort_into_expected_rejections(program):
    wl = workloads.CircuitMix(program)
    kinds = {}
    for item in gen.generate("circuit_mix", 5)[:8 * run.BLOCKS["circuit_mix"]]:
        out = wl.request(item)
        assert wl.check(item, out) == [], item
        if "malformed" in item:
            kinds.setdefault(item["malformed"], set()).add(out[0])
    assert kinds == {cls: {kind} for cls, kind in gen.MALFORMED_CLASSES.items()}


def test_wrongly_accepted_program_fails(program):
    wl = workloads.CircuitMix(program)
    item = {"malformed": "nested_pd", "expect": "compile",
            "source": workloads.CANONICAL_CYCLE, "line": 5}
    assert wl.check(item, wl.request(item))


def test_rejection_on_another_line_fails(program):
    wl = workloads.CircuitMix(program)
    item = {"malformed": "ipd_without_pd", "expect": "compile",
            "source": "init rc\nhwp 10.0\nipd 22.5\n", "line": 2}
    assert wl.check(item, wl.request(item))
    assert wl.check(dict(item, line=3), wl.request(item)) == []


def test_warmups_pass(program, tmp_path):
    for name in gen.WORKLOADS:
        assert workloads.build(name, program, ROOT, tmp_path).warmup() == []


def test_corrupted_expected_csv_fails(program):
    corrupted = GOLDEN_CSV.replace(b"0.995054753687", b"0.995054753688", 1)
    assert corrupted != GOLDEN_CSV
    assert workloads.DenseSweep(program, corrupted).warmup()


def test_energy_gate_fails():
    tol = 1e-9

    def row(delta, balance):
        return SimpleNamespace(theta_deg=22.5, max_delta_vs_closed_form=delta,
                               ledger=SimpleNamespace(dU_cycle=balance))

    assert workloads.row_problems([row(tol, -tol)], tol) == []
    assert workloads.row_problems([row(2 * tol, 0.0)], tol)
    assert workloads.row_problems([row(0.0, -2 * tol)], tol)
    assert workloads.row_problems([row(float("nan"), 0.0)], tol)


def test_noisy_report_gates_fail(program, tmp_path):
    wl = workloads.NoisyReport(program, tmp_path / "report.json")
    item = {"kind": "sweep", "sigma": 0.1, "seed": 11}
    code, data, report, again = wl.request(item)
    assert wl.check(item, (code, data, report, again)) == []
    assert wl.check(item, (code, data, report, again + b" "))
    assert wl.check(item, (1, data, report, again))
    assert wl.check(dict(item, seed=12), (code, data, report, again))
    assert wl.check({"kind": "golden"}, (0, "TA: ...\nFAIL\n"))
    assert wl.check({"kind": "golden"}, (1, "PASS\n"))


def test_unexpected_exception_counts_as_failed():
    def broken(item):
        raise KeyError(item)

    tally = run.Tally()
    run.serve(SimpleNamespace(request=broken), "x", tally)
    assert (tally.attempted, tally.failed, len(tally.latencies)) == (1, 1, 1)


# -- tracing -----------------------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    spans = [
        ("request", 0.0, 10.0, -1, 0, None),
        ("a", 1.0, 5.0, 0, 0, None),
        ("b", 2.0, 3.0, 1, 0, None),
        ("c", 6.0, 9.0, 0, 0, None),
        ("d", 4.5, 5.0, 1, 0, None),
        ("e", 6.5, 8.0, 3, 0, None),
        ("f", 7.0, 8.5, 3, 0, None),  # overlaps e: the union counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.0, 0.5, 1.5, 1.5])


def test_layer_metrics_per_request():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("request", 0.0, 0.010, -1, 0, None),
        ("circuit.parse", 0.001, 0.003, 0, 0, "CircuitSyntaxError"),
        ("request", 0.020, 0.030, -1, 1, None),
        ("circuit.parse", 0.021, 0.022, 2, 1, None),
        ("qcore.density_operator", 0.0215, 0.0220, 3, 1, None),
    ]
    m = tracing.layer_metrics(tracing.layer_totals(tracer), requests=2, cycles=0)
    assert m["circuit.parse.calls"][0] == 1.0
    assert m["circuit.parse.self_ms"][0] == pytest.approx((2.0 + 0.5) / 2)
    assert m["qcore.density_operator.self_ms"][0] == pytest.approx(0.25)
    assert m["circuit.parse.rejected_frac"][0] == 0.5
    assert m["optics.blocks_per_cycle"][0] == 0.0


def test_tracer_patches_every_binding_and_restores(program):
    runner, optics = program.runner, sys.modules["ottosim.optics"]
    originals = (runner.pd_block, optics.pd_block, program.qcore.DensityOperator.__init__)
    assert runner.pd_block is optics.pd_block
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run_cycle(22.5)
    finally:
        tracer.remove()
    assert (runner.pd_block, optics.pd_block, program.qcore.DensityOperator.__init__) == originals
    names = [span[0] for span in tracer.spans]
    parent = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
    assert names.count("optics.pd_block") == 1 and names.count("optics.ipd_block") == 1
    assert parent["optics.pd_block"] == "runner.run_cycle"
    assert "qcore.density_operator" in names and "thermo.entropy_production" in names
    # expansion_unitary calls rotation: one folded span each for expansion and compression
    assert names.count("optics.rotation") == 2 + 3 * 2  # plus the hwp calls of both blocks


def test_projections_match_the_warnings(program):
    config = program.runner.SweepConfig(noise_sigma=0.25, seed=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        program.runner.run_sweep(config)
    expected = sum(issubclass(w.category, program.tomography.UnphysicalStokesWarning)
                   for w in caught)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            program.runner.run_sweep(config)
    finally:
        tracer.remove()
    assert expected > 0 and tracer.projections == expected
