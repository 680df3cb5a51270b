"""Line-oriented circuit description language for the optical engine.

Grammar (one instruction per line, ``#`` starts a comment):

    program := line*
    line    := comment | instr
    instr   := "init" ("rc" | "thermal" NUM)
             | "hwp" NUM | "qwp" NUM | "rot" NUM
             | "expand" NUM NUM | "compress" NUM NUM
             | "pd" NUM | "ipd" NUM
             | "tomo" IDENT

Angles are written in degrees (internally radians); the second argument of
expand/compress is omega0*tau in degrees, the first the gap ratio n; the
thermal argument is the dimensionless x = hbar omega beta.  ``pd``/``ipd``
require angles in [0, 45] degrees.

``parse`` never crashes on arbitrary input: it collects up to ten
:class:`ParseError` records and raises :class:`CircuitSyntaxError`
carrying them.  ``compile_program`` type-checks the pipeline (an ``ipd``
needs the ancilla a preceding ``pd`` introduced) and returns an executable
whose ``tomo`` taps snapshot the reduced polarization state.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from . import optics
from .qcore import DensityOperator, KET_PSI_RC, QuantumValueError, partial_trace_path
from .thermo import thermal_state

__all__ = [
    "Instruction",
    "CircuitProgram",
    "ParseError",
    "CircuitSyntaxError",
    "CircuitCompileError",
    "CircuitRun",
    "parse",
    "compile_program",
    "format_program",
]

MAX_PARSE_ERRORS = 10

_IDENT = re.compile(r"[A-Za-z_]\w*\Z")
_TOKEN = re.compile(r"\S+")

# op -> argument kinds; "angle" is degrees, "num" any float, "ident" a label
_SIGNATURES = {
    "hwp": ("angle",),
    "qwp": ("angle",),
    "rot": ("angle",),
    "expand": ("num", "angle"),
    "compress": ("num", "angle"),
    "pd": ("angle",),
    "ipd": ("angle",),
    "tomo": ("ident",),
}


@dataclass(frozen=True)
class Instruction:
    """One parsed instruction; source position excluded from equality."""

    op: str
    args: tuple
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CircuitProgram:
    instructions: tuple

    def __len__(self):
        return len(self.instructions)


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str
    token: str


class CircuitSyntaxError(ValueError):
    """Parse failure; ``errors`` holds the collected ParseError records."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        listing = "; ".join(
            f"line {e.line}, col {e.column}: {e.message}" for e in self.errors
        )
        super().__init__(f"{len(self.errors)} parse error(s): {listing}")


class CircuitCompileError(ValueError):
    pass


def parse(source):
    """Parse circuit text into a :class:`CircuitProgram`.

    Accepts str or bytes (decoded as UTF-8 with replacement).  Collects up
    to ten errors before giving up; any failure raises
    :class:`CircuitSyntaxError` rather than returning a partial program.
    """
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("utf-8", errors="replace")
    if not isinstance(source, str):
        raise TypeError("parse expects str or bytes")

    instructions = []
    errors = []

    def fail(line_no, col, message, token):
        errors.append(ParseError(line_no, col, message, token))

    for line_no, raw in enumerate(source.splitlines(), start=1):
        if len(errors) >= MAX_PARSE_ERRORS:
            break
        line = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]
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

        sig = _SIGNATURES.get(op)
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
                if not _IDENT.match(tok):
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


@dataclass(frozen=True)
class CircuitRun:
    """Execution result: tap snapshots plus the final reduced state."""

    snapshots: dict
    final: DensityOperator | None


class CompiledCircuit:
    """Type-checked pipeline; ``run()`` folds the state through it."""

    def __init__(self, program):
        self.program = program

    def run(self):
        rho = None          # 2x2 during single-path segments, 4x4 with ancilla
        joint = False
        snapshots = {}
        for instr in self.program.instructions:
            rho, joint = _step(rho, joint, instr, snapshots)
        final = None
        if rho is not None:
            final = partial_trace_path(DensityOperator(rho)) if joint else DensityOperator(rho)
        return CircuitRun(snapshots=snapshots, final=final)


def _pol_unitary(instr):
    if instr.op == "hwp":
        return optics.hwp(np.deg2rad(instr.args[0])).matrix
    if instr.op == "qwp":
        return optics.qwp(np.deg2rad(instr.args[0])).matrix
    if instr.op == "rot":
        return optics.rotation(np.deg2rad(instr.args[0])).matrix
    if instr.op == "expand":
        return optics.expansion_unitary(instr.args[0], np.deg2rad(instr.args[1])).matrix
    if instr.op == "compress":
        return optics.compression_unitary(instr.args[0], np.deg2rad(instr.args[1])).matrix
    raise AssertionError(instr.op)


def _step(rho, joint, instr, snapshots):
    # compile_program has already checked the instruction flow
    op = instr.op
    if op == "init":
        if instr.args[0] == "rc":
            return np.outer(KET_PSI_RC, KET_PSI_RC.conj()), False
        return thermal_state(instr.args[1]).rho.matrix, False

    if op in ("hwp", "qwp", "rot", "expand", "compress"):
        u = _pol_unitary(instr)
        if joint:
            u = np.kron(u, np.eye(2, dtype=complex))
        return u @ rho @ u.conj().T, joint

    if op == "pd":
        block = optics.pd_block(np.deg2rad(instr.args[0]))
        rho4 = np.kron(rho, np.diag([1.0, 0.0]).astype(complex))
        return block.unitary @ rho4 @ block.unitary.conj().T, True

    if op == "ipd":
        block = optics.ipd_block(np.deg2rad(instr.args[0]))
        rho4 = block.unitary @ rho @ block.unitary.conj().T
        return partial_trace_path(DensityOperator(rho4)).matrix, False

    if op == "tomo":
        label = instr.args[0]
        state = DensityOperator(rho)
        if joint:
            state = partial_trace_path(state)
        snapshots[label] = state.relabel(label)
        return rho, joint

    raise AssertionError(op)


def compile_program(program):
    """Validate the instruction flow and return an executable pipeline.

    Compile-time checks: elements need an initialized state, ``pd`` cannot
    nest, ``ipd`` needs an active ancilla, tap labels are unique and the
    expand/compress gap ratio must exceed 1, omega0*tau be nonnegative and
    their Jones parameter finite.  ``run`` makes no checks of its own.
    """
    dim = None
    labels = set()
    for instr in program.instructions:
        op = instr.op
        if op == "init":
            if dim == 4:
                raise CircuitCompileError(
                    f"line {instr.line}: init while the ancilla is still active"
                )
            dim = 2
        elif op in ("hwp", "qwp", "rot"):
            if dim is None:
                raise CircuitCompileError(f"line {instr.line}: {op} before any init")
        elif op in ("expand", "compress"):
            if dim is None:
                raise CircuitCompileError(f"line {instr.line}: {op} before any init")
            try:
                optics._jones_parameter(instr.args[0], np.deg2rad(instr.args[1]))
            except QuantumValueError as exc:
                raise CircuitCompileError(f"line {instr.line}: {exc}") from exc
        elif op == "pd":
            if dim is None:
                raise CircuitCompileError(f"line {instr.line}: pd before any init")
            if dim == 4:
                raise CircuitCompileError(
                    f"line {instr.line}: pd while the ancilla is already active"
                )
            dim = 4
        elif op == "ipd":
            if dim != 4:
                raise CircuitCompileError(
                    f"line {instr.line}: ipd without a preceding pd (no ancilla to consume)"
                )
            dim = 2
        elif op == "tomo":
            if dim is None:
                raise CircuitCompileError(f"line {instr.line}: tomo before any init")
            if instr.args[0] in labels:
                raise CircuitCompileError(
                    f"line {instr.line}: duplicate tap label {instr.args[0]!r}"
                )
            labels.add(instr.args[0])
    return CompiledCircuit(program)


def _fmt_angle(value):
    return f"{value:.1f}"


def _fmt_num(value):
    return repr(float(value))


def format_program(program):
    """Canonical text form: comments dropped, angles at one decimal.

    ``parse(format_program(p))`` reproduces ``p`` structurally for programs
    whose angles sit on the one-decimal grid, and the formatter is
    idempotent for all programs.
    """
    lines = []
    for instr in program.instructions:
        if instr.op == "init":
            if instr.args[0] == "rc":
                lines.append("init rc")
            else:
                lines.append(f"init thermal {_fmt_num(instr.args[1])}")
        elif instr.op == "tomo":
            lines.append(f"tomo {instr.args[0]}")
        elif instr.op in ("expand", "compress"):
            lines.append(
                f"{instr.op} {_fmt_num(instr.args[0])} {_fmt_angle(instr.args[1])}"
            )
        else:
            lines.append(f"{instr.op} {_fmt_angle(instr.args[0])}")
    return "\n".join(lines) + ("\n" if lines else "")
