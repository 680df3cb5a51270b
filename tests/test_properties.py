"""The paper's thermodynamic relations as properties over the accepted operating points.

Hypothesis draws the gap ratio n in (1, 1e6], the cold-bath scale x_c in [1e-3, 60],
omega0 tau in [0, 2 pi] and up to 15 distinct dephasing angles in (0, 45] deg, to which
theta_V = 0 is added.  Each example runs one noiseless sweep.  The bounds are the
tolerance table's, scaled with the energy scale where the error is one ulp of it; they
are bounds, not exact zeros, because at a generic omega0 tau Sigma_cycle at theta_V = 0
is a few 1e-15, not 0.  Over 600 derandomized examples the worst values were 2.8e-16 * n
for the efficiency, 3.3e-16 * n for dU_cycle, -1.9e-15 for Sigma_cycle and 4.8e-15 for
|Sigma_cycle| at theta_V = 0.  Over the 150 examples of the friction relation the smallest
strict fall of Sigma_cycle, over 1,673 row pairs at least 0.1 deg apart, was 3.7e-13, and no
closer pair rose; the 150 noisy sweeps (sigma in (0, 0.3]) kept all 633 rows, each with the
noiseless sweep's bits.

The circuit properties draw well-typed ``.otto`` programs (every op, continuous angles,
``pd``/``ipd`` at 0 and 45 deg, gap ratios just above 1, omega0 tau = 0, taps on either side
of the ancilla, an ancilla left open) and run each through parse, compile and the fold.  The
ill-typed programs are such a program with one fault injected; parse or compile_program must
name the fault's line, and ``ottosim run`` must exit 2 with that message.
"""

import contextlib
import io
import itertools
import math
from dataclasses import replace

import pytest

import numpy as np

from ottosim import cli
from ottosim.circuit import _ARITY, CircuitCompileError, CircuitSyntaxError, compile_program, parse
from ottosim.qcore import TOL, density_failures
from ottosim.runner import SweepConfig, run_cycle, run_sweep

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

OPERATING_POINTS = dict(
    n=st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    x_c=st.floats(min_value=1e-3, max_value=60.0),
    omega0_tau=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    thetas=st.lists(st.floats(min_value=0.0, max_value=45.0, exclude_min=True),
                    max_size=15, unique=True),
)


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(**OPERATING_POINTS)
def test_otto_relations_hold_at_every_operating_point(n, x_c, omega0_tau, thetas):
    """No row fails; W_extracted = (1 - 1/n) Q_BC and dU_cycle = 0 to one ulp of the energy
    scale; Sigma_cycle >= 0, and 0 at equal temperatures (theta_V = 0)."""
    report = run_sweep(SweepConfig(theta_list_deg=(0.0, *thetas), n=n, x_c=x_c,
                                   omega0_tau=omega0_tau))
    assert report.failures == {}
    assert len(report.rows) == 1 + len(thetas)
    energy = TOL["energy"] * max(1.0, n)
    for row in report.rows:
        ledger = row.ledger
        assert abs(ledger.W_extracted - (1.0 - 1.0 / n) * ledger.Q_BC) <= energy, row.theta_deg
        assert abs(ledger.dU_cycle) <= energy, row.theta_deg
        assert ledger.Sigma_cycle >= -TOL["entropy_identity"], row.theta_deg
    idle = next(row.ledger for row in report.rows if row.theta_deg == 0.0)
    assert abs(idle.Sigma_cycle) <= TOL["entropy_identity"]


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(**OPERATING_POINTS)
def test_friction_falls_as_the_temperature_ratio_rises(n, x_c, omega0_tau, thetas):
    """The paper's friction relation: with the rows sorted by r, Sigma_cycle strictly falls as
    r rises between rows whose theta_V differ by at least 0.1 deg, and never rises by more
    than TOL["entropy_identity"] between closer rows."""
    report = run_sweep(SweepConfig(theta_list_deg=(0.0, *thetas), n=n, x_c=x_c,
                                   omega0_tau=omega0_tau))
    for low, high in itertools.combinations(report.rows, 2):  # low.ledger.r <= high.ledger.r
        rise = high.ledger.Sigma_cycle - low.ledger.Sigma_cycle
        if abs(high.theta_deg - low.theta_deg) >= 0.1:
            assert rise < 0.0, (low.theta_deg, high.theta_deg, rise)
        else:
            assert rise <= TOL["entropy_identity"], (low.theta_deg, high.theta_deg, rise)


@pytest.mark.filterwarnings("ignore::ottosim.tomography.UnphysicalStokesWarning")
@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(**dict(
    OPERATING_POINTS,
    # a noisy sweep refuses two angles that share a %.12g report key
    thetas=st.lists(st.floats(min_value=0.0, max_value=45.0, exclude_min=True), max_size=15,
                    unique_by=lambda theta: f"{theta:.12g}"),
    sigma=st.floats(min_value=0.0, max_value=0.3, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1)))
def test_noise_leaves_the_csv_values_of_every_kept_row(n, x_c, omega0_tau, thetas, sigma, seed):
    """The ledger comes from the exact states: every row a noisy sweep keeps has the 13 CSV
    values of the noiseless sweep's row, bit for bit; a row it drops failed in the tap."""
    config = SweepConfig(theta_list_deg=(0.0, *thetas), n=n, x_c=x_c, omega0_tau=omega0_tau)
    exact = run_sweep(config)
    noisy = run_sweep(replace(config, noise_sigma=sigma, seed=seed))
    assert exact.failures == {}
    values = {row[0]: row.tobytes() for row in exact._table}
    assert len(noisy._table) + len(noisy.failures) == len(values)
    for row in noisy._table:
        assert row.tobytes() == values[row[0]], row[0]
    assert not any(message.startswith("stroke") for message in noisy.failures.values())


# -- the circuit fold ------------------------------------------------------------------------

ANGLES = st.floats(min_value=-720.0, max_value=720.0)
BLOCK_ANGLES = st.one_of(st.sampled_from([0.0, 45.0]), st.floats(min_value=0.0, max_value=45.0))
GAP_RATIOS = st.one_of(st.sampled_from([math.nextafter(1.0, 2.0), 1.0 + 1e-9]),
                       st.floats(min_value=1.0, max_value=1e3, exclude_min=True))
OMEGA0_TAU_DEG = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=720.0))
THERMAL_X = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=60.0))


@st.composite
def program_lines(draw):
    """The lines of a well-typed program: an init, then up to 24 instructions.  A dephasing
    block is a ``pd`` while the ancilla is closed and an ``ipd`` while it is open; an ``init``
    while it is open closes it with an ``ipd`` instead, and the ancilla may stay open."""
    def init():
        if draw(st.booleans()):
            return "init rc"
        return f"init thermal {draw(THERMAL_X)!r}"

    lines, ancilla = [init()], False
    for k, kind in enumerate(draw(st.lists(st.sampled_from(
            ("hwp", "qwp", "rot", "expand", "compress", "block", "tomo", "init")), max_size=24))):
        if kind in ("hwp", "qwp", "rot"):
            lines.append(f"{kind} {draw(ANGLES)!r}")
        elif kind in ("expand", "compress"):
            lines.append(f"{kind} {draw(GAP_RATIOS)!r} {draw(OMEGA0_TAU_DEG)!r}")
        elif kind == "tomo":
            lines.append(f"tomo T{k}")
        elif kind == "block" or ancilla:
            lines.append(f"{'ipd' if ancilla else 'pd'} {draw(BLOCK_ANGLES)!r}")
            ancilla = not ancilla
        else:
            lines.append(init())
    return lines


def programs():
    """The text of a well-typed program of ``program_lines``."""
    return program_lines().map(lambda lines: "\n".join(lines) + "\n")


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(programs())
@hypothesis.example("init thermal 0.0\ntomo A\npd 0.0\ntomo J\nexpand 1.0000000000000002 0.0\n"
                    "ipd 45.0\ntomo B\npd 45.0\nqwp 30.0\ntomo K\n")
def test_every_well_typed_program_runs_to_density_operators(source):
    """Every tap and the final state pass the DensityOperator checks, the taps in program
    order, whether the ancilla was open at the tap or is still open at the end."""
    program = parse(source)
    run = compile_program(program).run()
    labels = [instr.args[0] for instr in program.instructions if instr.op == "tomo"]
    assert list(run.snapshots) == labels
    states = np.array([state.matrix for state in (*run.snapshots.values(), run.final)])
    assert states.shape == (len(labels) + 1, 2, 2)
    assert density_failures(states) == {}


# -- ill-typed programs: one fault injected into a well-typed one ----------------------------

PARSE_FAULTS = ("unknown keyword", "arity", "not a finite number", "block angle")
COMPILE_FAULTS = ("ipd without pd", "nested pd", "duplicate tap", "gap ratio")
NUMBER_OPS = ("hwp", "qwp", "rot", "expand", "compress", "pd", "ipd", "init thermal")
NOT_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999", "-1e999", "abc", "0x10",
                               "1,5", "--1", "45deg"])
OUT_OF_BLOCK_RANGE = st.one_of(
    st.floats(max_value=-1e-12, allow_infinity=False),
    st.floats(min_value=45.0, exclude_min=True, allow_infinity=False))


def _number_args(op, draw):
    # arguments that parse for op: expand's and compress's gap ratio, else an angle or x
    if op in ("expand", "compress"):
        return [repr(draw(GAP_RATIOS)), repr(draw(OMEGA0_TAU_DEG))]
    return [repr(draw(BLOCK_ANGLES if op in ("pd", "ipd") else THERMAL_X))]


@st.composite
def ill_typed_programs(draw):
    """A well-typed program with one fault injected: ``(source, line, error)``, the line the
    fault is on and the error that must name it.  The parse faults (an unknown keyword, a
    wrong arity, an argument that is no finite number, a block angle outside [0, 45]) go
    anywhere; the compile faults (an ``ipd`` with no ancilla, a ``pd`` inside one, a tap label
    used before, a gap ratio n <= 1) go after the first init, where the ancilla is as they
    need.  A fault that needs a context the program lacks brings it on the line before."""
    lines = draw(program_lines())
    ancilla, labels = [False], [set()]  # before each position: the ancilla open, the taps
    for line in lines:
        op, *args = line.split()
        ancilla.append({"pd": True, "ipd": False}.get(op, ancilla[-1]))
        labels.append(labels[-1] | ({args[0]} if op == "tomo" else set()))
    fault = draw(st.sampled_from(PARSE_FAULTS + COMPILE_FAULTS))
    at = draw(st.integers(min_value=int(fault in COMPILE_FAULTS), max_value=len(lines)))
    error = CircuitSyntaxError if fault in PARSE_FAULTS else CircuitCompileError
    if fault == "unknown keyword":
        word = draw(st.sampled_from(["lens", "hwpp", "pdd", "ipd2", "measure", "tomo_", "x"]))
        injected = [f"{word} {draw(ANGLES)!r}"]
    elif fault == "arity":
        op = draw(st.sampled_from([*_ARITY, "init", "init thermal", "init rc"]))
        want = {"init": 1, "init thermal": 1, "init rc": 0}.get(op, _ARITY.get(op))
        count = draw(st.integers(min_value=0, max_value=3).filter(lambda c: c != want))
        word = "T" if op == "tomo" else "10.0"
        injected = [" ".join([op, *[word] * count])]
    elif fault == "not a finite number":
        op = draw(st.sampled_from(NUMBER_OPS))
        args = _number_args(op, draw)
        args[draw(st.integers(min_value=0, max_value=len(args) - 1))] = draw(NOT_NUMBERS)
        injected = [" ".join([op, *args])]
    elif fault == "block angle":
        injected = [f"{draw(st.sampled_from(['pd', 'ipd']))} {draw(OUT_OF_BLOCK_RANGE)!r}"]
    elif fault == "ipd without pd":
        at = draw(st.sampled_from([k for k in range(1, len(lines) + 1) if not ancilla[k]]))
        injected = [f"ipd {draw(BLOCK_ANGLES)!r}"]
    elif fault == "nested pd":
        injected = [f"pd {draw(BLOCK_ANGLES)!r}"]
        if not ancilla[at]:
            injected.insert(0, f"pd {draw(BLOCK_ANGLES)!r}")
    elif fault == "duplicate tap":
        label = draw(st.sampled_from(sorted(labels[at]))) if labels[at] else "DUP"
        injected = [f"tomo {label}"] if labels[at] else ["tomo DUP", "tomo DUP"]
    else:
        n = draw(st.floats(max_value=1.0, allow_nan=False, allow_infinity=False))
        injected = [f"{draw(st.sampled_from(['expand', 'compress']))} {n!r} "
                    f"{draw(OMEGA0_TAU_DEG)!r}"]
    source = "\n".join(lines[:at] + injected + lines[at:]) + "\n"
    return source, at + len(injected), error


@pytest.fixture(scope="module")
def otto_file(tmp_path_factory):
    return tmp_path_factory.mktemp("ill_typed") / "program.otto"


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(case=ill_typed_programs())
def test_an_ill_typed_program_is_refused_naming_its_line(otto_file, case):
    """parse and compile_program raise the fault's error naming its line alone, and
    ``ottosim run`` of the program exits 2 with that message and no traceback."""
    source, line, error = case
    with pytest.raises((CircuitSyntaxError, CircuitCompileError)) as info:
        compile_program(parse(source))
    assert type(info.value) is error, (source, info.value)
    if error is CircuitSyntaxError:
        assert [e.line for e in info.value.errors] == [line], (source, info.value)
    else:
        assert str(info.value).startswith(f"line {line}: "), (source, info.value)
    otto_file.write_text(source)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(otto_file)])
    assert code == 2
    assert err.getvalue() == f"error: {info.value}\n"


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(x=THERMAL_X, theta=BLOCK_ANGLES)
def test_a_dephasing_block_and_its_inverse_return_the_input(x, theta):
    run = compile_program(parse(f"init thermal {x!r}\ntomo IN\npd {theta!r}\nipd {theta!r}\n")).run()
    assert np.abs(run.final.matrix - run.snapshots["IN"].matrix).max() <= TOL["dsl_vs_api"]


CYCLE_PROGRAM = """\
init thermal {x_c!r}
tomo TA
expand {n!r} {w!r}
tomo TB
pd {theta!r}
tomo TC
compress {n!r} {w!r}
tomo TD
ipd {theta!r}
tomo TA2
"""


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(n=OPERATING_POINTS["n"], x_c=OPERATING_POINTS["x_c"],
                  w=st.floats(min_value=0.0, max_value=360.0),
                  theta=st.floats(min_value=0.0, max_value=45.0))
def test_the_cycle_program_equals_the_engine(n, x_c, w, theta):
    """The README cycle program from ``init thermal x_c`` gives run_cycle's five snapshots; the
    sweep takes omega0 tau as math.radians of the program's degrees, as the compiler does."""
    run = compile_program(parse(CYCLE_PROGRAM.format(n=n, x_c=x_c, w=w, theta=theta))).run()
    api = run_cycle(theta, SweepConfig(n=n, x_c=x_c, omega0_tau=math.radians(w)))
    for label, state in api.snapshots.items():
        gap = np.abs(run.snapshots[label].matrix - state.matrix).max()
        assert gap <= TOL["dsl_vs_api"], label
