"""Requests and output checks of the three benchmark workloads.

Each workload has a fixed warm-up request (the untimed first request whose
cost ``setup_s`` includes), ``request`` (the timed call into the program)
and ``check`` (the untimed output check, returning a list of problems).
The program's modules are held as module objects and their functions
looked up at call time, so that the tracer's patches apply.
"""

import contextlib
import importlib
import io

from gen import ENGINE

CANONICAL_CYCLE = """\
init thermal 3.0
tomo TA
expand 2.0 180.0
tomo TB
pd 22.5
tomo TC
compress 2.0 180.0
tomo TD
ipd 22.5
tomo TA2
"""


class Program:
    """The ottosim modules the workloads call."""

    def __init__(self):
        for name in ("qcore", "tomography", "circuit", "runner", "cli"):
            setattr(self, name, importlib.import_module(f"ottosim.{name}"))
        self.TOL = self.qcore.TOL


def row_problems(rows, tol):
    """Rows whose closed-form delta or cycle energy balance exceeds ``tol``."""
    bad = []
    for row in rows:
        delta, balance = row.max_delta_vs_closed_form, row.ledger.dU_cycle
        if not (abs(delta) <= tol and abs(balance) <= tol):
            bad.append(f"theta {row.theta_deg:.12g}: delta {delta:.3g}, dU {balance:.3g} "
                       f"beyond TOL['energy'] = {tol:g}")
    return bad


class DenseSweep:
    """Noiseless `run_sweep` plus CSV `emit` over seeded theta_V sets."""

    def __init__(self, program, expected_csv):
        self.p = program
        self.expected_csv = expected_csv

    def warmup(self):
        """The default sweep; its CSV must equal the frozen golden file byte for byte."""
        item = {"thetas": self.p.runner.DEFAULT_THETAS}
        out = self.request(item)
        problems = self.check(item, out)
        if out[1] != self.expected_csv:
            problems.append("default sweep CSV differs from tests/data/golden_default.csv")
        return problems

    def request(self, item):
        runner = self.p.runner
        report = runner.run_sweep(runner.SweepConfig(theta_list_deg=item["thetas"], **ENGINE))
        return report, runner.emit(report, "csv")

    def check(self, item, out):
        report, csv = out
        problems = row_problems(report.rows, self.p.TOL["energy"])
        if report.failures:
            problems.append(f"failed rows: {report.failures}")
        if len(report.rows) != len(item["thetas"]):
            problems.append(f"{len(report.rows)} rows for {len(item['thetas'])} angles")
        if csv.count(b"\n") != len(report.rows) + 1:
            problems.append("CSV line count differs from the row count")
        return problems

    def cycles(self, item, out):
        return len(out[0].rows)


class NoisyReport:
    """`ottosim sweep --noise` to a JSON file read back and re-emitted, or `golden`."""

    def __init__(self, program, out_path):
        self.p = program
        self.out = out_path

    def warmup(self):
        item = {"kind": "golden"}
        return self.check(item, self.request(item))

    def request(self, item):
        cli, runner = self.p.cli, self.p.runner
        if item["kind"] == "golden":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["golden"])
            return code, buf.getvalue()
        code = cli.main(["sweep", "--noise", repr(item["sigma"]), "--seed", str(item["seed"]),
                         "--format", "json", "--out", str(self.out)])
        data = self.out.read_bytes()
        report = runner.load_report(data)
        return code, data, report, runner.emit(report, "json")

    def check(self, item, out):
        if item["kind"] == "golden":
            code, text = out
            lines = text.splitlines()
            if code != 0 or not lines or lines[-1] != "PASS":
                return [f"golden exited {code} with last line {lines[-1:]}"]
            return []
        code, data, report, again = out
        problems = row_problems(report.rows, self.p.TOL["energy"])
        if code != 0:
            problems.append(f"sweep exited {code}")
        if again != data:
            problems.append("JSON report changed across the load_report round trip")
        if report.failures:
            problems.append(f"failed rows: {report.failures}")
        config = report.metadata["config"]
        if (config["noise_sigma"], config["seed"]) != (item["sigma"], item["seed"]):
            problems.append(f"report is for noise {config['noise_sigma']}, seed {config['seed']}")
        if len(report.rows) != len(self.p.runner.DEFAULT_THETAS):
            problems.append(f"{len(report.rows)} rows in a default-grid sweep")
        return problems

    def cycles(self, item, out):
        return len(self.p.runner.DEFAULT_THETAS)


class CircuitMix:
    """parse -> compile_program -> run -> format_program -> parse, or a rejection."""

    def __init__(self, program):
        self.p = program

    def warmup(self):
        """The canonical cycle program; its final tap must equal its first."""
        item = {"source": CANONICAL_CYCLE, "length": 10, "taps": ["TA", "TB", "TC", "TD", "TA2"]}
        out = self.request(item)
        problems = self.check(item, out)
        snaps = out[1].snapshots
        closure = float(abs(snaps["TA2"].matrix - snaps["TA"].matrix).max())
        if not closure <= self.p.TOL["cycle_closure"]:
            problems.append(f"canonical cycle failed to close: defect {closure:.3g}")
        return problems

    def request(self, item):
        circuit = self.p.circuit
        if "malformed" in item:
            source = bytes.fromhex(item["bytes"]) if "bytes" in item else item["source"]
            try:
                circuit.compile_program(circuit.parse(source))
            except circuit.CircuitSyntaxError as exc:
                return "syntax", exc.errors[0].line, str(exc)
            except circuit.CircuitCompileError as exc:
                return "compile", None, str(exc)
            return "accepted", None, ""
        program = circuit.parse(item["source"])
        result = circuit.compile_program(program).run()
        return program, result, circuit.parse(circuit.format_program(program))

    def check(self, item, out):
        if "malformed" in item:
            kind, line, message = out
            if kind != item["expect"]:
                return [f"{item['malformed']} program: {kind} ({message}), expected {item['expect']}"]
            if (kind == "syntax" and line != item["line"]) or (
                    kind == "compile" and not message.startswith(f"line {item['line']}:")):
                return [f"{item['malformed']} program rejected for another line: {message}"]
            return []
        program, result, again = out
        problems = []
        if again != program:
            problems.append("program changed across format_program and parse")
        if len(program) != item["length"]:
            problems.append(f"{len(program)} instructions parsed, {item['length']} written")
        if sorted(result.snapshots) != sorted(item["taps"]):
            problems.append(f"taps {sorted(result.snapshots)} != {sorted(item['taps'])}")
        return problems

    def cycles(self, item, out):
        return item.get("cycles", 0)


def build(name, program, root, scratch):
    """The workload object for ``name``, reading its expected data from ``root``."""
    if name == "dense_sweep":
        return DenseSweep(program, (root / "tests" / "data" / "golden_default.csv").read_bytes())
    if name == "noisy_report":
        return NoisyReport(program, scratch / "report.json")
    if name == "circuit_mix":
        return CircuitMix(program)
    raise ValueError(name)
