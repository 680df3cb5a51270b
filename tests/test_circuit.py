"""Tests for the circuit description language: parse, compile, format."""

import dataclasses
import re

import numpy as np
import pytest

import ottosim.optics as optics_mod
from ottosim.circuit import (
    _ARITY,
    MAX_PARSE_ERRORS,
    CircuitCompileError,
    CircuitProgram,
    CircuitSyntaxError,
    Instruction,
    ParseError,
    compile_program,
    format_program,
    parse,
)
from ottosim.optics import pd_block
from ottosim.qcore import (ID2, KET_PSI_RC, DensityOperator, QuantumValueError, trace_path,
                           wrap_validated)
from ottosim.thermo import thermal_state

from conftest import apply_kraus, pure

RHO_RC = pure(KET_PSI_RC)

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


class TestInstruction:
    """The frozen-dataclass semantics, for an Instruction built by its constructor or by parse."""

    @pytest.mark.parametrize("build", ["constructor", "parse"])
    def test_frozen_dataclass_semantics(self, build):
        instr = (Instruction("hwp", (10.0,), 2, 3) if build == "constructor"
                 else parse("init rc\n  hwp 10").instructions[1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            instr.op = "qwp"
        with pytest.raises(dataclasses.FrozenInstanceError):
            instr.line = 7
        assert (instr.op, instr.args, instr.line, instr.column) == ("hwp", (10.0,), 2, 3)
        assert repr(instr) == "Instruction(op='hwp', args=(10.0,), line=2, column=3)"
        # line and column are left out of equality and of the hash
        for other in (Instruction("hwp", (10.0,)), Instruction("hwp", (10.0,), 9, 9),
                      Instruction(op="hwp", args=(10.0,), line=5), parse("hwp 10").instructions[0]):
            assert instr == other and hash(instr) == hash(other)
        assert instr != Instruction("hwp", (11.0,), 2, 3) and instr != Instruction("rot", (10.0,))
        moved = dataclasses.replace(instr, line=4, args=(20.0,))
        assert repr(moved) == "Instruction(op='hwp', args=(20.0,), line=4, column=3)"
        assert dataclasses.astuple(moved) == ("hwp", (20.0,), 4, 3)
        assert [f.name for f in dataclasses.fields(instr)] == ["op", "args", "line", "column"]

    def test_defaults_and_keywords(self):
        assert (repr(Instruction("tomo", ("A",)))
                == "Instruction(op='tomo', args=('A',), line=0, column=0)")
        assert Instruction(op="pd", args=(5.0,), column=4).column == 4


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

    # expand 1 180 also has a bad gap ratio: the init check comes before an op's own checks
    @pytest.mark.parametrize("line", ["hwp 10", "qwp 10", "rot 10", "expand 1 180",
                                      "compress 2 180", "pd 10", "tomo A"],
                             ids=lambda line: line.split()[0])
    def test_element_before_init(self, line):
        with pytest.raises(CircuitCompileError) as info:
            compile_program(parse(f"# header\n{line}\ninit rc"))
        assert str(info.value) == f"line 2: {line.split()[0]} before any init"

    def test_ipd_before_init_needs_a_pd(self):
        with pytest.raises(CircuitCompileError) as info:
            compile_program(parse("ipd 10\ninit rc"))
        assert str(info.value) == "line 1: ipd without a preceding pd (no ancilla to consume)"

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


def _rotation(alpha):
    # one angle at a time, as the per-instruction fold built it
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _qwp(theta):
    r = _rotation(theta)
    return r @ np.diag([1.0, 1.0j]) @ r.conj().T


_ELEMENTS = {
    "hwp": lambda a: optics_mod.hwp(np.deg2rad(a)).matrix,
    "qwp": lambda a: _qwp(np.deg2rad(a)),
    "rot": lambda a: _rotation(np.deg2rad(a)),
    "expand": lambda n, w: _rotation(optics_mod._jones_parameter(n, np.deg2rad(w))),
    "compress": lambda n, w: _rotation(optics_mod._jones_parameter(n, np.deg2rad(w))),
}


def _reference_run(program, change=None):
    """The per-instruction fold that the lowered steps replaced, kept as the reference.

    One element or block per instruction, np.kron lifts and a DensityOperator
    for each checked 2x2 state (a joint state is reduced unchecked), raising at
    the first failure.  ``change`` maps an instruction position to a function
    applied to the matrix it uses (its state, lifted unitary or block unitary).
    Returns (snapshots, final).
    """
    rho, joint, snapshots = None, False, {}
    for k, instr in enumerate(program.instructions):
        fix = (change or {}).get(k, lambda m: m)
        op = instr.op
        if op == "init":
            if instr.args[0] == "rc":
                rho = fix(np.outer(KET_PSI_RC, KET_PSI_RC.conj()))
            else:  # the state thermal_state checks
                rho = DensityOperator(fix(thermal_state(instr.args[1]).rho.matrix)).matrix
            joint = False
        elif op in _ELEMENTS:
            u = _ELEMENTS[op](*instr.args)
            u = fix(np.kron(u, np.eye(2, dtype=complex)) if joint else u)
            rho = u @ rho @ u.conj().T
        elif op == "pd":
            u = fix(pd_block(np.deg2rad(instr.args[0])).unitary)
            rho = u @ np.kron(rho, np.diag([1.0, 0.0]).astype(complex)) @ u.conj().T
            joint = True
        elif op == "ipd":
            u = fix(optics_mod.ipd_block(np.deg2rad(instr.args[0])).unitary)
            rho = _reduced(u @ rho @ u.conj().T).matrix
            joint = False
        else:
            state = _reduced(rho) if joint else DensityOperator(rho)
            snapshots[instr.args[0]] = wrap_validated(state.matrix, instr.args[0])
    final = None
    if rho is not None:
        final = _reduced(rho) if joint else DensityOperator(rho)
    return snapshots, final


def _reduced(joint):
    return DensityOperator(trace_path(joint))


def _random_program(rng, size):
    """A well-typed program of full-precision parameters, ancilla segments included."""
    instructions, ancilla = [Instruction("init", ("thermal", float(rng.uniform(0, 5))))], False
    for k in range(size):
        op = ("hwp", "qwp", "rot", "expand", "compress", "pd", "ipd", "tomo", "init")[
            rng.integers(0, 9)]
        if op in ("hwp", "qwp", "rot"):
            instructions.append(Instruction(op, (float(rng.uniform(-720, 720)),)))
        elif op in ("expand", "compress"):
            instructions.append(Instruction(op, (float(rng.uniform(1.01, 9)),
                                                 float(rng.uniform(0, 720)))))
        elif op == "tomo":
            instructions.append(Instruction("tomo", (f"T{k}",)))
        elif op == "pd" and not ancilla or op == "ipd" and ancilla:
            instructions.append(Instruction(op, (float(rng.uniform(0, 45)),)))
            ancilla = op == "pd"
        elif op == "init" and not ancilla:
            mode = ("rc",) if rng.random() < 0.5 else ("thermal", float(rng.uniform(0, 5)))
            instructions.append(Instruction("init", mode))
    return CircuitProgram(tuple(instructions))


def _bytes(snapshots, final):
    return ({label: (state.label, state.matrix.tobytes()) for label, state in snapshots.items()},
            None if final is None else final.matrix.tobytes())


class TestLoweredFold:
    def test_bytes_equal_the_per_instruction_fold(self, rng):
        seen = {"joint element": 0, "two pd": 0, "re-init": 0}
        for _ in range(300):
            program = _random_program(rng, int(rng.integers(0, 60)))
            run = compile_program(program).run()
            assert list(run.snapshots) == list(_reference_run(program)[0])
            assert _bytes(run.snapshots, run.final) == _bytes(*_reference_run(program))
            assert all(not s.matrix.flags.writeable for s in run.snapshots.values())
            ops = [instr.op for instr in program.instructions]
            seen["two pd"] += ops.count("pd") >= 2
            seen["re-init"] += ops.count("init") >= 2
            seen["joint element"] += any(
                op in _ELEMENTS and ops[:k].count("pd") > ops[:k].count("ipd")
                for k, op in enumerate(ops))
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("changed", [(0,), (3,), (5,), (0, 3), (3, 5), (0, 5), (0, 3, 5)])
    def test_deferred_reductions_raise_the_first_failure_in_program_order(self, changed):
        # the joint taps A and C and the joint final state are reduced after the fold.  An
        # unphysical thermal state fails its own check (positivity); the lifted rot scaled at
        # step 3 fails C's reduced state (trace), the lifted hwp scaled at step 5 the final
        # one.  run() raises the earliest, as the reference fold does
        source = "init thermal 1.0\npd 22.5\ntomo A\nrot 7\ntomo C\nhwp 3"
        changes = {0: lambda m: _UNPHYSICAL, 3: _scaled(1.05), 5: _scaled(0.9)}
        changes = {k: changes[k] for k in changed}
        expected = _message(_reference_run, parse(source), changes)
        assert expected == {0: "not positive semidefinite: min eigenvalue -0.2",
                            3: "trace 1.1025 != 1", 5: "trace 0.81 != 1"}[changed[0]]
        assert _message(_corrupted_run, source, changes) == expected

    @pytest.mark.parametrize("changed", [(6,), (0, 6), (3, 6), (5, 6), (3, 5), (0, 3, 5, 6)])
    def test_a_2x2_state_after_the_joint_ones_fails_in_program_order(self, changed):
        # joint taps A and C, the ipd output, then the 2x2 tap D and final state: the scaled hwp
        # at step 6 fails D (trace); the scaled ipd block at step 5 fails its output first
        source = "init thermal 1.0\npd 22.5\ntomo A\nrot 7\ntomo C\nipd 22.5\nhwp 3\ntomo D"
        changes = {0: lambda m: _UNPHYSICAL, 3: _scaled(1.05), 5: _scaled(1.01), 6: _scaled(1.1)}
        changes = {k: changes[k] for k in changed}
        expected = _message(_reference_run, parse(source), changes)
        assert expected == {0: "not positive semidefinite: min eigenvalue -0.2",
                            3: "trace 1.1025 != 1", 5: "trace 1.0201 != 1",
                            6: "trace 1.21 != 1"}[changed[0]]
        assert _message(_corrupted_run, source, changes) == expected

    def test_empty_program(self):
        run = compile_program(parse("")).run()
        assert run.snapshots == {} and run.final is None

    @pytest.mark.parametrize("broken, message", [
        (("_qwp_matrix",), "line 5: polarization element not unitary: defect 0.21"),
        (("_qwp_matrix", "_hwp_matrix"), "line 2: HWP element not unitary: defect 0.21"),
        (("_qwp_matrix", "_kraus_pairs"), "line 2: incomplete Kraus set: defect 0.21"),
    ])
    def test_lowering_checks_name_the_first_failing_line(self, monkeypatch, broken, message):
        # the pd arm plate (line 2) is an hwp too, and its Kraus pair is checked first
        program = parse("init rc\npd 10\nhwp 20\nipd 10\nqwp 30")
        for name in broken:
            monkeypatch.setattr(optics_mod, name,
                                lambda *a, f=getattr(optics_mod, name): 1.1 * f(*a))
        with pytest.raises(CircuitCompileError) as info:
            compile_program(program)
        assert str(info.value) == message


def _scaled(factor):
    return lambda m: factor * m


# Hermitian with unit trace but eigenvalue -0.2
_UNPHYSICAL = np.array([[0.5, -0.7j], [0.7j, 0.5]])


def _skewed(m):
    return m + np.eye(len(m), k=1) * 1e-3  # not Hermitian


# source, position of the corrupted instruction, change, the first check that fails; a joint
# tap is read through its reduced state (at 10 deg dephasing leaves it unphysical)
DEFERRED = {
    "joint tap": ("init rc\npd 10\ntomo A", 0, lambda m: _UNPHYSICAL,
                  "not positive semidefinite: min eigenvalue -0.158"),
    "2x2 tap": ("init rc\nhwp 10\ntomo A\npd 5", 1, _scaled(1.1), "trace 1.21"),
    "thermal init": ("init thermal 0.5\npd 22.5\ntomo A", 0, _skewed, "not Hermitian"),
    "ipd output": ("init rc\npd 22.5\nipd 22.5\ntomo A", 2, _scaled(1.01), "trace 1.0201"),
    "final state": ("init rc\ntomo A\nrot 30", 2, _scaled(0.9), "trace 0.81"),
    "joint final state": ("init rc\ntomo A\npd 30", 2, _scaled(1.01), "trace 1.0201"),
}


def _corrupted_run(source, changes):
    """compile_program(parse(source)).run() with the matrix of each step k in changes changed."""
    compiled = compile_program(parse(source))
    steps = list(compiled.steps)
    for k, change in changes.items():
        op, a, b = steps[k]
        a = change(a)
        steps[k] = (op, a, None if b is None else a.conj().T)
    compiled.steps = tuple(steps)
    return compiled.run()


def _message(fn, *args):
    with pytest.raises(QuantumValueError) as info:
        fn(*args)
    return str(info.value)


class TestDeferredChecks:
    @pytest.mark.parametrize("case", list(DEFERRED))
    def test_run_raises_the_constructor_message(self, case):
        source, k, change, start = DEFERRED[case]
        expected = _message(_reference_run, parse(source), {k: change})
        assert expected.startswith(start)
        assert _message(_corrupted_run, source, {k: change}) == expected

    @pytest.mark.parametrize("stage, source", [
        ("_arm_stage", "init rc\npd 45\ntomo TC\n"),
        ("_arm_stage", FULL_CYCLE_PROGRAM),
        ("_ipd_product", FULL_CYCLE_PROGRAM),
    ])
    def test_a_block_that_is_not_unitary_fails_its_joint_state(self, monkeypatch, stage, source):
        # compile checks a block's arm plate, not the block: a pd or ipd block scaled after its
        # plate check compiles, and run() refuses the joint state of trace 1.0201 it makes, read
        # through its reduced state, whose trace has the same bits
        monkeypatch.setattr(optics_mod, stage,
                            lambda *a, f=getattr(optics_mod, stage): 1.01 * f(*a))
        compiled = compile_program(parse(source))
        assert _message(compiled.run) == "trace 1.0201 != 1"

    def test_the_earlier_of_two_bad_taps_is_named(self):
        source = "init rc\ntomo A\npd 10\ntomo B\nipd 10\nhwp 3\ntomo C"
        first = _message(_corrupted_run, source, {0: _skewed})        # A, B and C bad
        later = _message(_corrupted_run, source, {5: _scaled(1.1)})  # only C bad
        assert first == _message(DensityOperator, _skewed(RHO_RC.matrix))
        assert later == _message(_reference_run, parse(source), {5: _scaled(1.1)})
        assert first != later
        both = compile_program(parse(source))
        steps = list(both.steps)
        steps[0] = ("init", _skewed(RHO_RC.matrix), None)
        u = 1.1 * steps[5][1]
        steps[5] = ("unitary", u, u.conj().T)
        both.steps = tuple(steps)
        assert _message(both.run) == first


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

    def test_one_decimal_grid_prints_its_own_text(self):
        # repr of a float read from one-decimal text is that text, so a program written on the
        # 0.1-degree grid (as the benchmark writes its programs) prints back byte for byte
        source = "".join(f"hwp {k / 10:.1f}\n" for k in range(-3600, 3601))
        source += "init thermal 0.1\nexpand 1.5 0.0\ncompress 4.0 359.9\npd 45.0\nipd 0.0\n"
        assert format_program(parse(source)) == source

    def test_roundtrip_random_programs(self, rng):
        """parse(format_program(p)) == p for well-typed programs with full-precision numbers."""
        ops = ("hwp", "qwp", "rot", "pd", "ipd", "expand", "compress", "tomo", "init")
        for trial in range(50):
            instructions = [Instruction("init", ("rc",))]
            ancilla = False
            for k in range(int(rng.integers(1, 12))):
                op = ops[rng.integers(0, len(ops))]
                # keep the program well-typed; every number off any decimal grid
                angle = float(rng.uniform(0, 45))
                wide = float(rng.uniform(-360, 360))
                if op == "init" and not ancilla:
                    x = float(rng.uniform(0, 5))
                    instructions.append(Instruction("init", ("thermal", x)))
                elif op in ("hwp", "qwp", "rot"):
                    instructions.append(Instruction(op, (wide,)))
                elif op in ("expand", "compress"):
                    n = float(rng.uniform(1.1, 4))
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


_REF_IDENT = re.compile(r"[A-Za-z_]\w*\Z")
_REF_TOKEN = re.compile(r"\S+")


# op -> argument kinds of the reference parser; "angle" is degrees, "num" any float, "ident" a label
_REF_SIGNATURES = {
    "hwp": ("angle",),
    "qwp": ("angle",),
    "rot": ("angle",),
    "expand": ("num", "angle"),
    "compress": ("num", "angle"),
    "pd": ("angle",),
    "ipd": ("angle",),
    "tomo": ("ident",),
}


def test_arity_matches_the_reference_signatures():
    assert {op: len(sig) for op, sig in _REF_SIGNATURES.items()} == _ARITY


def _reference_parse(source):
    """Reference parser: scans every line into (token, column) pairs with a regex."""
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("utf-8", errors="replace")
    instructions, errors = [], []

    def fail(line_no, col, message, token):
        errors.append(ParseError(line_no, col, message, token))

    for line_no, raw in enumerate(source.splitlines(), start=1):
        if len(errors) >= MAX_PARSE_ERRORS:
            break
        line = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _REF_TOKEN.finditer(line)]
        if not tokens:
            continue
        (word, col0), rest = tokens[0], tokens[1:]
        op = word.lower()
        if op == "init":
            if not rest:
                fail(line_no, col0, "init needs 'rc' or 'thermal NUM'", word)
                continue
            mode = rest[0][0].lower()
            if mode == "rc":
                if len(rest) != 1:
                    fail(line_no, rest[1][1], "init rc takes no further arguments", rest[1][0])
                    continue
                instructions.append(Instruction("init", ("rc",), line_no, col0))
            elif mode == "thermal":
                if len(rest) != 2:
                    fail(line_no, col0, "init thermal needs one number", word)
                    continue
                tok, col = rest[1]
                try:
                    x = float(tok)
                except ValueError:
                    fail(line_no, col, "expected a number", tok)
                    continue
                if not np.isfinite(x) or x < 0.0:
                    fail(line_no, col, "thermal x must be finite and nonnegative", tok)
                    continue
                instructions.append(Instruction("init", ("thermal", x), line_no, col0))
            else:
                fail(line_no, rest[0][1], "init mode must be 'rc' or 'thermal'", rest[0][0])
            continue
        sig = _REF_SIGNATURES.get(op)
        if sig is None:
            fail(line_no, col0, f"unknown keyword {word!r}", word)
            continue
        if len(rest) != len(sig):
            fail(line_no, col0, f"{op} expects {len(sig)} argument(s), got {len(rest)}", word)
            continue
        args = []
        ok = True
        for kind, (tok, col) in zip(sig, rest):
            if kind == "ident":
                if not _REF_IDENT.match(tok):
                    fail(line_no, col, "expected an identifier", tok)
                    ok = False
                    break
                args.append(tok)
                continue
            try:
                value = float(tok)
            except ValueError:
                fail(line_no, col, "expected a number", tok)
                ok = False
                break
            if not np.isfinite(value):
                fail(line_no, col, "number must be finite", tok)
                ok = False
                break
            args.append(value)
        if not ok:
            continue
        if op in ("pd", "ipd") and not 0.0 <= args[0] <= 45.0:
            fail(line_no, rest[0][1], "angle out of range (0-45 degrees)", rest[0][0])
            continue
        instructions.append(Instruction(op, tuple(args), line_no, col0))
    if errors:
        raise CircuitSyntaxError(errors)
    return CircuitProgram(tuple(instructions))


def _outcome(parser, source):
    """Every position-bearing field of the parse: instructions, or the error records."""
    try:
        return "ok", [(i.op, i.args, i.line, i.column) for i in parser(source).instructions]
    except CircuitSyntaxError as exc:
        return "error", [(e.line, e.column, e.message, e.token) for e in exc.errors]


# str.isspace characters: the first eight stay inside a line, the rest also end one
_SPACES = (" ", "  ", "\t", "\xa0", "\u3000", "\x1f", "\u2009", "\u1680",
           "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028")
_NEWLINES = ("\n", "\r\n", "\r")
_WORDS = ("init", "INIT", "rc", "thermal", "hwp", "qwp", "rot", "expand", "compress", "pd", "Ipd",
          "tomo", "frob", "22.5", "45", "45.01", "-0", "1e-3", "+3", "1_0", "1e999", "nan", "-inf",
          "abc", "T1", "_x", "9x", "x#y", "# note", "#", "\u0663", "\xe9", "\ufffd")


def _fuzzed_source(rng):
    lines = []
    for _ in range(int(rng.integers(0, 14))):
        words = [_WORDS[i] for i in rng.integers(0, len(_WORDS), size=int(rng.integers(0, 5)))]
        seps = [_SPACES[i] for i in rng.integers(0, len(_SPACES), size=len(words) + 1)]
        lines.append("".join(sep + word for sep, word in zip(seps, words + [""])))
    return "".join(line + _NEWLINES[rng.integers(0, 3)] for line in lines)


def _scattered_source(rng, program):
    """The program at full precision, with random case, spacing, comments and line breaks."""
    out = []
    for instr in program.instructions:
        args = [a if isinstance(a, str) else repr(a) for a in instr.args]
        words = [instr.op.upper() if rng.random() < 0.2 else instr.op] + args
        pad = [_SPACES[i] for i in rng.integers(0, 8, size=len(words) + 1)]
        text = "".join(p + w for p, w in zip(pad, words + [""]))
        if rng.random() < 0.3:
            text += "# " + " ".join(words)
        out.append(text + _NEWLINES[rng.integers(0, 2)])
    return "".join(out)


class TestParserEquivalence:
    def test_random_programs_match_the_reference(self, rng):
        for _ in range(200):
            program = _random_program(rng, int(rng.integers(0, 40)))
            source = _scattered_source(rng, program)
            assert _outcome(parse, source) == _outcome(_reference_parse, source)
            assert parse(source) == program

    def test_fuzzed_sources_match_the_reference(self):
        rng = np.random.default_rng(7)
        seen = {"ok": 0, "error": 0, "capped": 0}
        sources = ["", "\r\n", "\u3000# only a comment\r\n", "\n".join(["bogus 1"] * 25)]
        sources += [_fuzzed_source(rng) for _ in range(3000)]
        for source in sources + [s.encode() for s in sources[:200]]:
            kind, records = _outcome(parse, source)
            assert (kind, records) == _outcome(_reference_parse, source), repr(source)
            seen[kind] += 1
            seen["capped"] += len(records) == MAX_PARSE_ERRORS and kind == "error"
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("source, column, token, message", [
        ("  init\xa0rc\tx", 11, "x", "init rc takes no further"),
        ("init thermal  zz", 15, "zz", "expected a number"),
        ("init\u3000thermal inf", 14, "inf", "finite and nonnegative"),
        ("init  hot", 7, "hot", "init mode"),
        ("\thwp  abc # c", 7, "abc", "expected a number"),
        ("expand 2\u2009nan", 10, "nan", "number must be finite"),
        ("tomo   9x", 8, "9x", "expected an identifier"),
        (" pd\x1f50", 5, "50", "angle out of range"),
        ("ipd  -1", 6, "-1", "angle out of range"),
    ])
    def test_error_names_the_failing_argument_column(self, source, column, token, message):
        with pytest.raises(CircuitSyntaxError) as err:
            parse("init rc\n" + source)
        (e,) = err.value.errors
        assert (e.line, e.column, e.token) == (2, column, token)
        assert message in e.message
