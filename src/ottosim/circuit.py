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
needs the ancilla a preceding ``pd`` introduced), then lowers it once to
steps with precomputed matrices and returns an executable whose ``tomo``
taps snapshot the reduced polarization state.  ``run`` folds the state
through the steps and then checks every state it must, as one stack per
dimension, raising the first failure in program order.
"""

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import optics
from .qcore import (ID2, KET_PSI_RC, DensityOperator, QuantumValueError, density_failures,
                    trace_path, wrap_validated)
from .thermo import thermal_matrices

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

# op -> number of arguments: a tomo label, else numbers (angles in degrees but expand's and
# compress's gap ratio n)
_ARITY = {"hwp": 1, "qwp": 1, "rot": 1, "expand": 2, "compress": 2, "pd": 1, "ipd": 1, "tomo": 1}


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

    instructions, errors = [], []

    def fail(k, message):
        # names word k of the current line; its column is found only here, on failure
        col = [m.start() for m in _TOKEN.finditer(line)][k] + 1
        errors.append(ParseError(line_no, col, message, words[k]))

    for line_no, raw in enumerate(source.splitlines(), start=1):
        if len(errors) >= MAX_PARSE_ERRORS:
            break
        line = raw.split("#", 1)[0]
        words = line.split()
        if not words:
            continue
        word, rest = words[0], words[1:]
        op = word.lower()

        if op == "init":
            if not rest:
                fail(0, "init needs 'rc' or 'thermal NUM'")
                continue
            mode = rest[0].lower()
            if mode == "rc":
                if len(rest) != 1:
                    fail(2, "init rc takes no further arguments")
                    continue
                args = ("rc",)
            elif mode == "thermal":
                if len(rest) != 2:
                    fail(0, "init thermal needs one number")
                    continue
                try:
                    x = float(rest[1])
                except ValueError:
                    fail(2, "expected a number")
                    continue
                if not math.isfinite(x) or x < 0.0:
                    fail(2, "thermal x must be finite and nonnegative")
                    continue
                args = ("thermal", x)
            else:
                fail(1, "init mode must be 'rc' or 'thermal'")
                continue
        else:
            arity = _ARITY.get(op)
            if arity is None:
                fail(0, f"unknown keyword {word!r}")
                continue
            if len(rest) != arity:
                fail(0, f"{op} expects {arity} argument(s), got {len(rest)}")
                continue
            if op == "tomo":
                if not _IDENT.match(rest[0]):
                    fail(1, "expected an identifier")
                    continue
                args = (rest[0],)
            else:
                try:
                    args = tuple(map(float, rest))
                    finite = all(map(math.isfinite, args))
                except ValueError:
                    finite = False
                if not finite:  # name the first word that is no finite number
                    for k, tok in enumerate(rest, start=1):
                        try:
                            if not math.isfinite(float(tok)):
                                fail(k, "number must be finite")
                                break
                        except ValueError:
                            fail(k, "expected a number")
                            break
                    continue
                if op in ("pd", "ipd") and not 0.0 <= args[0] <= 45.0:
                    fail(1, "angle out of range (0-45 degrees)")
                    continue
        # filled through its __dict__: the frozen __init__ sets each field with object.__setattr__
        instr = object.__new__(Instruction)
        instr.__dict__.update(op=op, args=args, line=line_no, column=line.find(word) + 1)
        instructions.append(instr)

    if errors:
        raise CircuitSyntaxError(errors)
    return CircuitProgram(tuple(instructions))


@dataclass(frozen=True)
class CircuitRun:
    """Execution result: tap snapshots plus the final reduced state."""

    snapshots: dict
    final: DensityOperator | None


_RHO_RC = np.outer(KET_PSI_RC, KET_PSI_RC.conj())
_RHO_RC.flags.writeable = False


class CompiledCircuit:
    """Type-checked pipeline lowered to steps; ``run()`` folds the state through them.

    One ``(op, a, b)`` step per instruction: ``init``/``thermal`` (a: the
    state), ``unitary``/``pd``/``ipd`` (a: the unitary, b: its adjoint) or
    ``tomo`` (a: the label).  ``run()`` queues each state to check on one
    list per dimension, straight from the fold, and wraps only the taps and
    the final state as DensityOperators.
    """

    def __init__(self, program, steps):
        self.program = program
        self.steps = steps

    def run(self):
        rho = None          # 2x2 during single-path segments, 4x4 with ancilla
        joint = False
        twos, fours = [], []    # the 2x2 and 4x4 states to check
        at, reduced, taps = [], [], {}  # each 2x2 state's step; each 4x4 one's index in twos; taps

        def read_out(state, k, label=None):
            # queue the state read at step k; a joint one is reduced after the fold
            if label is not None:
                taps[label] = len(twos)
            if joint:
                reduced.append(len(twos))
                fours.append(state)
            twos.append(None if joint else state)
            at.append(k)

        for k, (op, a, b) in enumerate(self.steps):
            if op == "unitary":
                rho = a.dot(rho).dot(b)
            elif op == "tomo":
                read_out(rho, k, a)
            elif op == "pd":
                rho, joint = a.dot(optics._kron_slices(rho, optics._P0)).dot(b), True
            elif op == "ipd":  # the fold goes on with the reduced state, reduced again below
                read_out(a.dot(rho).dot(b), k)
                rho, joint = trace_path(fours[-1][None])[0], False
            else:
                rho = a
                if op == "thermal":  # checked as thermal_state checks it
                    read_out(rho, k)
        if rho is None:
            return CircuitRun(snapshots={}, final=None)
        read_out(rho, len(self.steps))
        failures = []   # ((step, 0) for a joint state or (step, 1) for a 2x2 one, message)
        if fours:
            fours = np.array(fours)
            for i, state in zip(reduced, trace_path(fours)):
                twos[i] = state
            failures = [((at[reduced[j]], 0), message)
                        for j, message in density_failures(fours).items()]
        twos = np.array(twos)
        twos.flags.writeable = False
        failures += [((at[i], 1), message) for i, message in density_failures(twos).items()]
        if failures:
            raise QuantumValueError(min(failures)[1])
        return CircuitRun(snapshots={label: wrap_validated(twos[i], label)
                                     for label, i in taps.items()},
                          final=wrap_validated(twos[-1]))


def _lower(instructions, where, joint, alphas):
    """The steps of a checked program, every matrix built once as part of a stack.

    One build per kind: the Jones matrices of all polarization elements
    with one unitarity check, the joint-space lifts of those that run while
    the ancilla is active, all ``pd`` and ``ipd`` blocks with one
    ``dephasing_blocks`` call, and all thermal states.  ``where`` maps each
    kind (``init`` for ``init rc``, ``thermal`` for ``init thermal``, or the
    op) to the positions of its instructions, ``joint`` tells per position
    whether the ancilla is active after it, and ``alphas`` maps the position
    of each expand/compress to its Jones parameter, the angle of its
    rotation.  A failed check raises CircuitCompileError naming the first
    failing line.
    """
    def radians(op):
        return np.deg2rad([instructions[k].args[-1] for k in where[op]])

    steps = [None] * len(instructions)
    for k in where["init"]:
        steps[k] = ("init", _RHO_RC, None)
    for k in where["tomo"]:
        steps[k] = ("tomo", instructions[k].args[0], None)
    pol, mats = [], []      # the polarization elements kind by kind, and their Jones matrices
    for ks, build, angles in (
            (where["hwp"], optics._hwp_matrix, radians("hwp")),
            (where["qwp"], optics._qwp_matrix, radians("qwp")),
            (where["rot"] + list(alphas), optics._rotation_matrix,
             np.concatenate([radians("rot"), list(alphas.values())]))):
        if ks:
            pol += ks
            mats.append(build(angles))
    mats = np.concatenate(mats) if pol else np.empty((0, 2, 2), complex)
    bad_pol = optics._not_unitary(optics._unitarity_defects(mats), "polarization element")
    failures = [(pol[i], message) for i, message in bad_pol.items()]
    if where["pd"] or where["ipd"]:
        pd, ipd, _, bad_pd, bad_ipd = optics.dephasing_blocks(radians("pd"), radians("ipd"))
        for op, u, errors in (("pd", pd, bad_pd), ("ipd", ipd, bad_ipd)):
            failures += [(where[op][i], message) for i, message in errors.items()]
            for k, a, b in zip(where[op], u, u.conj().swapaxes(-1, -2)):
                steps[k] = (op, a, b)
    if failures:
        k, message = min(failures)
        raise CircuitCompileError(f"line {instructions[k].line}: {message}")
    lift = [i for i, k in enumerate(pol) if joint[k]]   # the elements inside a pd ... ipd segment
    for ks, u in ((pol, mats), ([pol[i] for i in lift], optics._kron_slices(mats[lift], ID2))):
        for k, a, b in zip(ks, u, u.conj().swapaxes(-1, -2)):
            steps[k] = ("unitary", a, b)
    xs = [instructions[k].args[1] for k in where["thermal"]]
    for k, rho in zip(where["thermal"], thermal_matrices(xs) if xs else ()):
        steps[k] = ("thermal", rho, None)
    return tuple(steps)


def compile_program(program):
    """Validate the instruction flow and return an executable pipeline.

    Compile-time checks: elements need an initialized state, ``pd`` cannot
    nest, ``ipd`` needs an active ancilla, tap labels are unique and the
    expand/compress gap ratio must exceed 1, omega0*tau be nonnegative and
    their Jones parameter finite.  A program that passes them is lowered
    once to steps with precomputed matrices, whose own checks (unitarity of
    every element and block arm plate, the Kraus completeness of every ``pd``)
    also raise CircuitCompileError naming the line.  ``run`` checks the states
    the fold produces, as DensityOperator would: every ``init thermal`` state,
    the joint state before each reduction (a block not unitary past its plate
    fails there) and each reduced or 2x2 tap, ``ipd`` output and final state.
    The fold only queues them; every joint state read is reduced by one
    ``trace_path`` call after it (the fold reduces an ``ipd`` output once more
    to go on), each dimension is checked as one stack, and the message of the
    first failure in program order is raised.
    """
    dim = None
    labels = set()
    alphas = {}
    where = {kind: [] for kind in ("init", "thermal", *_ARITY)}
    joint = []      # per position: the ancilla is active after it
    for k, instr in enumerate(program.instructions):
        op, problem = instr.op, None
        if dim is None and op not in ("init", "ipd"):
            problem = f"{op} before any init"
        elif op == "init":
            problem = "init while the ancilla is still active" if dim == 4 else None
            dim, op = 2, ("thermal" if instr.args[0] == "thermal" else op)
        elif op in ("expand", "compress"):
            try:
                alphas[k] = optics._jones_parameter(instr.args[0], math.radians(instr.args[1]))
            except QuantumValueError as exc:
                raise CircuitCompileError(f"line {instr.line}: {exc}") from exc
        elif op == "pd":
            problem, dim = ("pd while the ancilla is already active" if dim == 4 else None), 4
        elif op == "ipd":
            problem = None if dim == 4 else "ipd without a preceding pd (no ancilla to consume)"
            dim = 2
        elif op == "tomo":
            problem = f"duplicate tap label {instr.args[0]!r}" if instr.args[0] in labels else None
            labels.add(instr.args[0])
        if problem:
            raise CircuitCompileError(f"line {instr.line}: {problem}")
        where[op].append(k)
        joint.append(dim == 4)
    return CompiledCircuit(program, _lower(program.instructions, where, joint, alphas))


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
                lines.append(f"init thermal {float(instr.args[1])!r}")
        elif instr.op == "tomo":
            lines.append(f"tomo {instr.args[0]}")
        elif instr.op in ("expand", "compress"):
            lines.append(f"{instr.op} {float(instr.args[0])!r} {instr.args[1]:.1f}")
        else:
            lines.append(f"{instr.op} {instr.args[0]:.1f}")
    return "\n".join(lines) + ("\n" if lines else "")
