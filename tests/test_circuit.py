"""Tests for the circuit description language: parse, compile, format."""

import numpy as np
import pytest

from ottosim.circuit import (
    CircuitCompileError,
    CircuitProgram,
    CircuitSyntaxError,
    Instruction,
    compile_program,
    format_program,
    parse,
)
from ottosim.optics import pd_block
from ottosim.qcore import ID2, KET_PSI_RC, DensityOperator, apply_kraus

RHO_RC = DensityOperator.from_ket(KET_PSI_RC)

FULL_CYCLE_PROGRAM = """\
# full cycle, theta_V = 22.5 deg
init rc
tomo TA
expand 2 180
tomo TB
pd 22.5
tomo TC
compress 2 180
tomo TD
ipd 22.5
tomo TA2
"""


class TestParse:
    def test_minimal_program(self):
        prog = parse("init rc\npd 22.5\ntomo TC")
        assert len(prog) == 3
        assert prog.instructions[0] == Instruction("init", ("rc",))
        assert prog.instructions[1] == Instruction("pd", (22.5,))
        assert prog.instructions[2] == Instruction("tomo", ("TC",))

    def test_source_positions_recorded(self):
        prog = parse("init rc\n  pd 22.5\n")
        assert prog.instructions[1].line == 2
        assert prog.instructions[1].column == 3

    def test_comments_and_blank_lines_ignored(self):
        prog = parse("# top\n\ninit rc  # trailing\n\n# done\n")
        assert len(prog) == 1

    def test_angle_out_of_range(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse("pd 50")
        (e,) = err.value.errors
        assert e.line == 1 and "angle out of range" in e.message
        assert e.token == "50"

    def test_unknown_keyword(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse("init rc\nfrobnicate 3")
        (e,) = err.value.errors
        assert e.line == 2 and "unknown keyword" in e.message

    def test_arity_mismatch(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse("hwp 1 2")
        assert "expects 1 argument" in err.value.errors[0].message

    def test_bad_number(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse("hwp fortyfive")
        assert "expected a number" in err.value.errors[0].message

    def test_init_variants(self):
        prog = parse("init thermal 3.0")
        assert prog.instructions[0] == Instruction("init", ("thermal", 3.0))
        with pytest.raises(CircuitSyntaxError):
            parse("init hot")
        with pytest.raises(CircuitSyntaxError):
            parse("init thermal -1")

    def test_collects_multiple_errors_up_to_cap(self):
        source = "\n".join("bogus" for _ in range(25))
        with pytest.raises(CircuitSyntaxError) as err:
            parse(source)
        assert len(err.value.errors) == 10

    def test_bytes_input(self):
        prog = parse(b"init rc\ntomo A\n")
        assert len(prog) == 2

    def test_full_cycle_program(self):
        prog = parse(FULL_CYCLE_PROGRAM)
        assert [i.op for i in prog.instructions] == [
            "init", "tomo", "expand", "tomo", "pd",
            "tomo", "compress", "tomo", "ipd", "tomo",
        ]
        compile_program(prog)  # must also type-check


class TestCompile:
    def test_ipd_without_pd(self):
        with pytest.raises(CircuitCompileError, match="ipd without a preceding pd"):
            compile_program(parse("init rc\nipd 10"))

    def test_nested_pd(self):
        with pytest.raises(CircuitCompileError, match="already active"):
            compile_program(parse("init rc\npd 10\npd 10"))

    def test_element_before_init(self):
        with pytest.raises(CircuitCompileError, match="before any init"):
            compile_program(parse("hwp 10"))

    def test_duplicate_tap_label(self):
        with pytest.raises(CircuitCompileError, match="duplicate tap"):
            compile_program(parse("init rc\ntomo A\ntomo A"))

    def test_gap_ratio_validated(self):
        with pytest.raises(CircuitCompileError, match="must exceed 1"):
            compile_program(parse("init rc\nexpand 1 180"))

    def test_every_parameter_error_is_a_compile_error(self):
        # parameters the parser accepts but the optics reject fail at compile time
        cases = {
            "init rc\nexpand 2 -10": "line 2: omega0*tau = -0.174533 must be nonnegative",
            "init rc\ntomo A\ncompress 1e308 1e308": "line 3: Jones parameter",
        }
        for source, message in cases.items():
            with pytest.raises(CircuitCompileError) as info:
                compile_program(parse(source))
            assert str(info.value).startswith(message)

    def test_init_with_active_ancilla(self):
        with pytest.raises(CircuitCompileError, match="ancilla"):
            compile_program(parse("init rc\npd 10\ninit rc"))


class TestExecute:
    def test_init_and_tap(self):
        run = compile_program(parse("init rc\ntomo A")).run()
        assert np.abs(run.snapshots["A"].matrix - RHO_RC.matrix).max() < 1e-15

    def test_full_dephasing_snapshot(self):
        # oracle: the Kraus realization of the same block
        run = compile_program(parse("init rc\npd 45\ntomo C")).run()
        expected = apply_kraus(RHO_RC, pd_block(np.pi / 4).kraus)
        assert np.abs(run.snapshots["C"].matrix - expected.matrix).max() < 1e-12
        assert np.abs(run.snapshots["C"].matrix - 0.5 * ID2).max() < 1e-12

    def test_full_cycle_snapshots_match_direct_api(self):
        # oracle: the same pipeline composed by hand from the optics API
        from ottosim.optics import compression_unitary, expansion_unitary, ipd_block
        from ottosim.qcore import partial_trace_path

        run = compile_program(parse(FULL_CYCLE_PROGRAM)).run()

        rho = RHO_RC.matrix
        expected = {"TA": rho}
        u_e = expansion_unitary(2.0, np.pi).matrix
        rho = u_e @ rho @ u_e.conj().T
        expected["TB"] = rho
        joint = np.kron(rho, np.diag([1.0, 0.0]).astype(complex))
        u_pd = pd_block(np.deg2rad(22.5)).unitary
        joint = u_pd @ joint @ u_pd.conj().T
        expected["TC"] = partial_trace_path(DensityOperator(joint)).matrix
        u_c = np.kron(compression_unitary(2.0, np.pi).matrix, ID2)
        joint = u_c @ joint @ u_c.conj().T
        expected["TD"] = partial_trace_path(DensityOperator(joint)).matrix
        u_i = ipd_block(np.deg2rad(22.5)).unitary
        joint = u_i @ joint @ u_i.conj().T
        expected["TA2"] = partial_trace_path(DensityOperator(joint)).matrix

        for label, matrix in expected.items():
            assert np.abs(run.snapshots[label].matrix - matrix).max() < 1e-12
        # and the inverted block hands back the circular state
        assert np.abs(run.snapshots["TA2"].matrix - RHO_RC.matrix).max() < 1e-12

    def test_pol_elements_act_on_both_arms(self, rng):
        # a rotation applied while the ancilla is active acts on polarization
        # of both paths and commutes out through the inverted block
        run = compile_program(
            parse("init thermal 3.0\npd 22.5\nrot 123.4\nipd 22.5\ntomo OUT")
        ).run()
        from ottosim.thermo import thermal_state

        assert np.abs(run.snapshots["OUT"].matrix - thermal_state(3.0).rho.matrix).max() < 1e-12

    def test_final_state_reduced(self):
        run = compile_program(parse("init rc\npd 22.5")).run()
        assert run.final.dim == 2


class TestFormat:
    def test_full_cycle_roundtrip(self):
        prog = parse(FULL_CYCLE_PROGRAM)
        text = format_program(prog)
        assert parse(text) == prog
        assert "#" not in text

    def test_canonical_text(self):
        prog = parse("init rc\n  PD   22.50\ntomo TC")
        assert format_program(prog) == "init rc\npd 22.5\ntomo TC\n"

    def test_idempotent(self):
        prog = parse(FULL_CYCLE_PROGRAM)
        once = format_program(prog)
        twice = format_program(parse(once))
        assert once == twice

    def test_roundtrip_random_programs(self, rng):
        ops = ("hwp", "qwp", "rot", "pd", "ipd", "expand", "compress", "tomo", "init")
        for trial in range(50):
            instructions = [Instruction("init", ("rc",))]
            ancilla = False
            for k in range(int(rng.integers(1, 12))):
                op = ops[rng.integers(0, len(ops))]
                # keep the program well-typed; angles on the 0.1-degree grid
                angle = float(np.round(rng.uniform(0, 45), 1))
                wide = float(np.round(rng.uniform(-360, 360), 1))
                if op == "init" and not ancilla:
                    x = float(np.round(rng.uniform(0, 5), 3))
                    instructions.append(Instruction("init", ("thermal", x)))
                elif op in ("hwp", "qwp", "rot"):
                    instructions.append(Instruction(op, (wide,)))
                elif op in ("expand", "compress"):
                    n = float(np.round(rng.uniform(1.1, 4), 3))
                    instructions.append(Instruction(op, (n, wide)))
                elif op == "pd" and not ancilla:
                    instructions.append(Instruction("pd", (angle,)))
                    ancilla = True
                elif op == "ipd" and ancilla:
                    instructions.append(Instruction("ipd", (angle,)))
                    ancilla = False
                elif op == "tomo":
                    instructions.append(Instruction("tomo", (f"T{trial}_{k}",)))
            prog = CircuitProgram(tuple(instructions))
            assert parse(format_program(prog)) == prog


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            blob = rng.integers(0, 256, size=int(rng.integers(0, 64))).astype(np.uint8)
            try:
                parse(blob.tobytes())
            except CircuitSyntaxError:
                pass

    def test_random_text_never_crashes(self):
        rng = np.random.default_rng(100)
        alphabet = list("inithwpqwrotexpandcomprestomo 0123456789.-#\n\t")
        for _ in range(2_000):
            text = "".join(
                alphabet[i] for i in rng.integers(0, len(alphabet), size=int(rng.integers(0, 80)))
            )
            try:
                parse(text)
            except CircuitSyntaxError:
                pass
