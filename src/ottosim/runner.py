"""Cycle orchestration: single cycles, theta_V sweeps, reports, golden checks.

A cycle runs the four strokes on the polarization qubit:

    A->B  gap expansion, rotation by the Jones parameter (work stroke)
    B->C  dephasing block standing in for the hot bath (heat stroke)
    C->D  gap compression, same Jones parameter (work stroke)
    D->A  inverted dephasing block restoring the cold state (heat stroke)

The path ancilla introduced by the dephasing block is kept coherent through
the compression and consumed by the inverted block, so the polarization
returns to the cold thermal state exactly.  Work and heat are evaluated
from the stroke endpoint states against H = omega sigma_y with
omega/omega0 in {1, n}; every row also carries the closed-form values and
their maximum deviation.

Snapshots are labeled TA, TB, TC, TD, TA2.  With noise_sigma > 0 the
snapshots of every row pass through one stacked tomography tap
(``tomography_stack``; row i draws from substream i of the seed); the
ledger itself is always computed from the exact simulated states so its
invariants, cycle closure included, hold at any noise level.

``_cycle_rows`` runs a sweep's angles as one stack: the A->B stroke once per
operating point per process (``_a_to_b``, a 4-point memo that a one-shot CLI
sweep never hits), the per-angle strokes on (N, ., .) arrays, then one (6, N, 2, 2) stack of
every 2x2 state, slot k the plane ``states[k]`` (rho_A and rho_B repeated on every row),
decomposed in one call (the joint states, congruences of the checked rho_B by checked
elements, are only reduced).  Each check of a row is a column of the gate table ``_GATES``,
all compared by one ``qcore.gate`` call (a failed A->B column stops every row).  A SweepReport
(from a sweep or ``load_report``) is the CSV-value table and a builder of the snapshot planes,
built with its rows on first read, which a CSV emit never makes; ``run_cycle`` is N = 1.
"""

import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate
from types import SimpleNamespace

import numpy as np

from . import __version__
from .circuit import compile_program, parse
from .optics import (_P0, BLOCK_GATE, _frozen, _jones_parameter, _kron_slices, _left_mul,
                     _right_mul, dephasing_blocks, expansion_unitary, kappa_from_theta_deg)
from .qcore import (
    DENSITY_GATE,
    ID2,
    TOL,
    QuantumValueError,
    _raise_first,
    density_defects,
    density_failures,
    entropies,
    fidelity,
    gate,
    spectra,
    trace_path,
    wrap_validated,
)
from .thermo import (
    CycleLedger,
    EngineParams,
    closed_form_energies,
    expectations,
    hamiltonian,
    hot_x_column,
    ledger_columns,
    thermal_matrices,
)
from .tomography import GOLDEN_LABELS, load_golden_data, tomography_stack

__all__ = [
    "SweepConfig",
    "CycleError",
    "CycleResult",
    "SweepReport",
    "GoldenComparison",
    "run_cycle",
    "run_sweep",
    "emit",
    "load_report",
    "compare_golden",
    "load_config_file",
]

DEFAULT_THETAS = (0.0, 8.0, 16.0, 22.5, 29.0, 37.0, 45.0)
SNAPSHOT_LABELS = ("TA", "TB", "TC", "TD", "TA2")
# the experiment's cycle from its initial state |psi_rc> at the golden angle,
# up to the end of its hot stroke; expand takes n and omega0*tau in degrees
GOLDEN_HOT_STROKE = "init rc\nexpand {n!r} {w!r}\npd 22.5\ntomo TC\n"

# a sweep row: theta_V in degrees, the CycleLedger fields after theta_v, the closed-form deviation
CSV_COLUMNS = ("theta_v_deg", *CycleLedger._fields[1:], "max_delta_vs_closed_form")


class CycleError(RuntimeError):
    """A stroke violated an invariant; the message names the stroke."""


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings; the defaults reproduce the reference run."""

    theta_list_deg: tuple = DEFAULT_THETAS
    n: float = 2.0
    x_c: float = 3.0
    omega0_tau: float = math.pi
    noise_sigma: float = 0.0
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        object.__setattr__(self, "theta_list_deg", tuple(float(t) for t in self.theta_list_deg))
        for theta in self.theta_list_deg:
            if not 0.0 <= theta <= 45.0:
                raise QuantumValueError(f"theta_V = {theta:.6g} deg outside [0, 45]")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise QuantumValueError(
                f"noise_sigma = {self.noise_sigma:.6g} must be finite and nonnegative")
        if self.seed < 0:  # SeedSequence takes no negative entropy
            raise QuantumValueError(f"seed = {self.seed} must be nonnegative")
        # a report keeps one failure (CSV and JSON) and one snapshot set (JSON) per _g(theta_V);
        # noisy rows at one key draw apart and may fail apart, so a # FAILED line would be lost
        keys = list(map(_g, self.theta_list_deg)) if self.noise_sigma > 0.0 else []
        if len(set(keys)) < len(keys):
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise QuantumValueError(f"theta_V = {repeated} deg repeated in a noisy sweep")
        if self.fmt not in ("csv", "json"):
            raise QuantumValueError(f"format must be csv or json, got {self.fmt!r}")
        object.__setattr__(self, "_params", EngineParams(n=self.n, x_c=self.x_c))  # not a field
        _jones_parameter(self.n, self.omega0_tau)  # the A->B rotation angle must be finite

    def params(self):
        return self._params


@dataclass(frozen=True)
class CycleResult:
    theta_deg: float
    ledger: CycleLedger
    snapshots: dict
    max_delta_vs_closed_form: float


# The sweep's state stack, one (N, 2, 2) plane per slot in this order, rho_A and rho_B repeated on
# every row.  The ledger reads the energies of the first five slots in one call (omega = n at the
# expanded gap, C and B, else omega0) and the entropies of the last four in another.
C, A2, D, A, B, HOT = range(6)
_TAP = [A, B, C, D, A2]  # the slots of SNAPSHOT_LABELS


def _density(k):
    # slot k's density checks, qcore's three columns; the trace message prints its row's trace
    return lambda v: v.dens[k], [
        (bound, lambda d, i, tr, m=m: m(d, i, tr[k])) for bound, m in zip(*DENSITY_GATE)]


def _spectrum(x, y):  # a unitary stroke from state x to state y keeps the spectrum
    return lambda v: np.abs(v.lam[x] - v.lam[y]).max(axis=-1, keepdims=True), [
        (TOL["spectrum"], "not unitary, spectrum moved by {:.3g}".format)]


# The sweep's gate table, in the order a single-matrix computation runs its checks: (stroke, a
# defect expression over the sweep's values v giving K columns for N rows, their K (bound,
# message)).  A new check is one row here; all are compared by one ``gate`` call.
_BLOCK = list(zip(*BLOCK_GATE))  # range (two columns), Kraus completeness, arm plate
_GATES = (
    ("A->B", *_density(A)), ("A->B", *_density(B)), ("A->B", *_spectrum(A, B)),
    ("B->C", lambda v: v.blocks[0], _BLOCK), ("B->C", *_density(C)), ("B->C", *_density(HOT)),
    ("C->D", *_density(D)), ("C->D", *_spectrum(C, D)),
    ("D->A", lambda v: v.blocks[1][:, [0, 1, 3]], [_BLOCK[k] for k in (0, 1, 3)]),
    ("D->A", *_density(A2)),
    ("D->A", lambda v: np.abs(v.states[A2] - v.states[A]).max(axis=(-2, -1))[:, None],
     [(TOL["cycle_closure"], "cycle failed to close, defect {:.3g}".format)]))
# each row's columns of the (N, K) defects; the bounds, and messages of (defect, i, traces)
_FILL = [(slice(end - len(checks), end), defect) for (_, defect, checks), end in zip(
    _GATES, accumulate(len(checks) for *_, checks in _GATES))]
_SWEEP_GATE = (np.array([bound for *_, checks in _GATES for bound, _ in checks]), tuple(
    lambda d, i, tr, s=stroke, m=m: f"stroke {s}: {m(d, i, tr)}"
    for stroke, _, checks in _GATES for _, m in checks))


@lru_cache(maxsize=4)
def _a_to_b(*point):
    # read-only A->B at float.hex (n, x_c, omega0*tau): [rho_A, rho_B], k_c, k_c^H, rho_B (x) P0
    n, x_c, omega0_tau = map(float.fromhex, point)
    u_e = expansion_unitary(n, omega0_tau).matrix
    rho_a = thermal_matrices([x_c])[0]
    ab = np.array([rho_a, u_e @ rho_a @ u_e.conj().T])
    k_c = _kron_slices(u_e, ID2)
    return tuple(map(_frozen, (ab, k_c, k_c.conj().T, _kron_slices(ab[1], _P0))))


def _cycle_rows(thetas, config):
    """Run one cycle per angle of ``thetas`` (degrees), all angles as one stack.

    A->B comes from ``_a_to_b`` and B->C, C->D and D->A run on all N rows; then the (6, N, 2, 2)
    stack of every 2x2 state, slot k (C, A2, D, A, B, hot) its plane ``states[k]``, is decomposed
    in one call and one ``gate`` call compares the (N, K) defects of ``_GATES``.  A row reports
    its first failed check, in stroke order, with its stroke named; the other rows go on, and a
    failed A->B check (rho_A, rho_B or their spectra) stops every row.  The ledger is columns
    over all rows, the energies one call over slots C to B and the entropies one over slots D to
    hot, with only IEEE arithmetic vectorised, so each value has the bits of the per-row
    formulas; with noise the passing rows' snapshots are tapped as one stack.  Returns the
    finished rows sorted by (r, theta_V), as positions in ``thetas``, CSV values and a function
    building their snapshot planes (see SweepReport), and the error of each stopped row.
    """
    params, count = config.params(), len(thetas)
    n, x_c = params.n, params.x_c
    # A: cold thermal state; A->B: expansion (work stroke), the same for every row
    ab, k_c, k_c_dag, rho_b_k0 = _a_to_b(*(float(v).hex() for v in (n, x_c, config.omega0_tau)))
    degrees = np.array(thetas, dtype=float)
    kappa = kappa_from_theta_deg(degrees)
    x_h = np.array(hot_x_column(kappa, params))
    theta_v = np.deg2rad(degrees)  # x * (pi / 180), the bits of math.radians
    pd, ipd, _, blocks = dephasing_blocks(theta_v, theta_v)

    # B->C: dephasing block as the hot reservoir, the ancilla taken in k0; C->D: the
    # compression (the A->B rotation: the same Jones parameter) applied to the polarization
    # of both arms; D->A: the inverted block consumes the dephasing record.  Rows that fail
    # a check run on and are dropped below.  (A constant 4x4 factor is one BLAS call over
    # the stack, with the per-slice bits.)
    joint = np.empty((3, count, 4, 4), dtype=complex)
    np.matmul(_right_mul(pd, rho_b_k0), pd.conj().swapaxes(-1, -2), out=joint[0])
    joint[1] = _right_mul(_left_mul(k_c, joint[0]), k_c_dag)
    np.matmul(ipd @ joint[1], ipd.conj().swapaxes(-1, -2), out=joint[2])
    paths = trace_path(joint)

    # the sweep's one state stack, slot k the plane states[k], checked in one call and each state
    # decomposed once
    states = np.empty((6, count, 2, 2), complex)
    states[C], states[D], states[A2] = paths
    states[A:B + 1] = ab[:, None]
    states[HOT] = thermal_matrices(x_h.tolist())
    lam, dens, trace = (a.reshape(6, count, *a.shape[1:])
                        for a in density_defects(states.reshape(-1, 2, 2)))
    # the defects of the gate table; a row reports its first failed check with its stroke named
    v = SimpleNamespace(lam=lam, dens=dens, states=states,
                        blocks=blocks.reshape(2, count, 4))  # [PD; IPD]
    defects = np.empty((count, len(_SWEEP_GATE[0])))
    for columns, defect in _FILL:
        defects[:, columns] = defect(v)
    errors = {i: CycleError(m) for i, m in gate(defects, *_SWEEP_GATE, trace).items()}

    # the ledger as columns over all rows (a stopped row's are dropped with it), one call per
    # quantity: the energies of slots C to B, with one H per slice, and the entropies of slots D
    # to hot (of relaxing rho_B to each hot target and each rho_D to rho_A); q_BC in
    # hbar*omega_fin units, so beta*Q reduces to x_h * q
    h = hamiltonian(np.array([n, 1.0, 1.0, 1.0, n])[:, None, None, None]).repeat(count, axis=1)
    e_c, e_a2, e_d, e_a, e_b = expectations(h, states[:5])
    s_d, s_a, s_b, s_hot = entropies(spectra(lam[2:]))
    q_bc, w_cd, q_da = e_c - e_b, e_d - e_c, e_a2 - e_d
    sig_e = (s_hot - s_b) - x_h * (q_bc / n)
    sig_c = (s_a - s_d) - x_c * q_da
    r = x_h / x_c
    energies = np.array([e_b - e_a, q_bc, w_cd, q_da])
    table = np.array([degrees, *ledger_columns(kappa, r, energies, sig_e, sig_c),
                      np.abs(energies - closed_form_energies(kappa, params)).max(axis=0)])

    # the rows that passed; with noise their snapshots pass through one (K, 5, 2, 2) tap,
    # row i on substream i, and a row the tap fails stops too
    ok = np.ones(count, dtype=bool)
    ok[list(errors)] = False
    noisy = config.noise_sigma > 0.0
    if noisy:
        keep = np.flatnonzero(ok)
        streams = np.random.SeedSequence(config.seed).spawn(count)
        taps, tap_errors = tomography_stack(
            states[_TAP, keep[:, None]], config.noise_sigma,
            [np.random.default_rng(streams[i]) for i in keep.tolist()])
        stopped = {int(keep[k]): QuantumValueError(message) for k, message in tap_errors.items()}
        errors.update(stopped)
        ok[list(stopped)] = False
    # the finished rows by (r, theta_V); their planes are built on first read, without noise
    # every row sharing one TA and one TB
    sel = np.lexsort((degrees, r))
    rows = sel[ok[sel]]

    def planes():
        if noisy:
            return tuple(_frozen(taps[np.searchsorted(keep, rows)]).swapaxes(0, 1))
        return (*np.broadcast_to(ab[:, None], (2, len(rows), 2, 2)), *_frozen(paths[:, rows]))
    return rows.tolist(), _frozen(table.T[rows]), planes, errors


def run_cycle(theta_deg, config=None):
    """Run one full cycle at dephasing angle theta_deg (0..45 degrees).

    The batched engine with a single angle: ``run_sweep`` over this one
    angle gives the same ledger and snapshots, noisy ones included (the
    tomography tap draws from the config's seed).  The D->A stroke is the
    inverted dephasing block acting on the retained ancilla.  A failed
    check raises :class:`CycleError` naming the stroke.
    """
    config = config or SweepConfig()
    if not 0.0 <= theta_deg <= 45.0:
        raise QuantumValueError(f"theta_V = {theta_deg:.6g} deg outside [0, 45]")
    _, table, planes, errors = _cycle_rows((theta_deg,), config)
    if errors:
        raise errors[0]
    return SweepReport(table, planes).rows[0]


class SweepReport:
    """A sweep's rows (sorted by r, then theta_V), its failures and its metadata, as columns.

    ``table`` is the read-only (N, 13) array of CSV values and ``planes`` a function giving
    the (N, 5, 2, 2) snapshot stack as one read-only (N, 2, 2) plane per label (a noiseless
    sweep's TA and TB broadcast from one matrix).  ``_planes`` runs it on first read and keeps
    its planes, so a CSV ``emit``, which reads only the columns, never builds them; ``rows``
    builds the CycleResults on first read and keeps them.
    """

    def __init__(self, table, planes, failures=None, metadata=None):
        self._table, self._plane_builder, self._built_planes, self._rows = table, planes, None, None
        self.failures, self.metadata = failures or {}, metadata or {}

    @property
    def _planes(self):
        if self._built_planes is None:
            self._built_planes = self._plane_builder()
        return self._built_planes

    @property
    def rows(self):
        if self._rows is None:
            states = [[wrap_validated(m, label) for m in plane]
                      for label, plane in zip(SNAPSHOT_LABELS, self._planes)]
            self._rows = tuple(CycleResult(v[0], CycleLedger(math.radians(v[0]), *v[1:-1]),
                                           dict(zip(SNAPSHOT_LABELS, snaps)), v[-1])
                               for v, snaps in zip(self._table.tolist(), zip(*states)))
        return self._rows

    def __eq__(self, other):
        return isinstance(other, SweepReport) and (self.rows, self.failures, self.metadata) == (
            other.rows, other.failures, other.metadata)


def run_sweep(config=None):
    """One cycle per configured theta_V, all angles run as one stack.

    Each angle is still checked row by row, and a sweep over N angles
    equals N single-angle runs float for float.  Rows come back sorted by r
    ascending.  A failing row is recorded under ``failures`` with its
    stroke named instead of aborting the sweep.  Deterministic for a fixed
    config and seed (per-row seeded generator substreams).
    """
    config = config or SweepConfig()
    thetas = config.theta_list_deg
    _, table, planes, errors = _cycle_rows(thetas, config)
    failures = {f"{thetas[i]:.12g}": str(errors[i]) for i in sorted(errors)}
    metadata = {
        "version": __version__,
        "seed": config.seed,
        "mode": "optical",
        "ipd_restoring_phase": 0.0,
        "config": {
            "theta_list_deg": list(config.theta_list_deg),
            "n": config.n,
            "x_c": config.x_c,
            "omega0_tau": config.omega0_tau,
            "noise_sigma": config.noise_sigma,
            "seed": config.seed,
        },
    }
    return SweepReport(table, planes, failures, metadata)


def _g(value):
    return f"{value:.12g}"


_CSV_ROW = ",".join(["%.12g"] * len(CSV_COLUMNS)) + "\n"  # %.12g is _g


def _matrix_to_json(m):
    # [[[re, im], ...], ...]: the float64 pairs of each complex entry, as Python floats
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(m.shape + (2,)).tolist()


def _matrix_from_json(rows):
    try:
        return np.array(rows, dtype=float).view(complex)[..., 0]
    except (IndexError, OverflowError, TypeError, ValueError):  # ragged, or not float pairs
        return np.empty(0, complex)


def emit(report, fmt="csv"):
    """Serialize a report to bytes, CSV (ledger table) or JSON (full).

    JSON keys each row's snapshots by ``%.12g`` of its theta_V and refuses rows that share a
    key but not their snapshots.  Its document is built fresh, so it holds no cycle to look for.
    """
    if fmt == "csv":
        body = (_CSV_ROW * len(report._table)) % tuple(report._table.ravel().tolist())
        failed = "".join(f"# FAILED theta_v_deg={theta}: {message}\n"
                         for theta, message in report.failures.items())
        return (",".join(CSV_COLUMNS) + "\n" + body + failed).encode()
    if fmt == "json":
        snaps = [dict(zip(SNAPSHOT_LABELS, row))  # the (N, 5, 2, 2) stack in one conversion
                 for row in _matrix_to_json(np.stack(report._planes, axis=1))]
        keys = list(map(_g, report._table[:, 0].tolist()))
        kept = dict(zip(keys, snaps))  # the last row's snapshots at each key
        lost = [key for key, snap in zip(keys, snaps) if snap != kept[key]]
        if lost:
            raise QuantumValueError(f"report rows at theta_V = {lost[0]} deg share one JSON key "
                                    "but differ in their snapshots")
        doc = {
            "metadata": report.metadata,
            "rows": [dict(zip(CSV_COLUMNS, row)) for row in report._table.tolist()],
            "snapshots": kept,
            "failures": report.failures,
        }
        return (json.dumps(doc, check_circular=False, separators=(",", ":")) + "\n").encode()
    raise QuantumValueError(f"format must be csv or json, got {fmt!r}")


def load_report(data):
    """Rebuild a SweepReport from its JSON emission, reading the document once.

    In this order: the keys rows, snapshots, failures and metadata are present, rows is a
    list and snapshots an object; each row is an object of the 13 CSV columns, each a JSON
    number (read through ``float()``) or null (loading as NaN); each row's snapshots are an
    object of TA, TB, TC, TD and TA2 under its theta_V; they convert as one (5N, 2, 2) stack
    (else the first that is not 2x2 is named by its row) checked by one ``density_failures``
    call; last, failures and metadata are objects.  The first problem is raised.
    """
    doc = _required(json.loads(data.decode() if isinstance(data, (bytes, bytearray)) else data),
                    dict, "report document")
    for key in ("rows", "snapshots", "failures", "metadata"):
        if key not in doc:
            raise QuantumValueError(f"report key {key}: missing")
    rows = _required(doc["rows"], list, "report key rows")
    snapshots = _required(doc["snapshots"], dict, "report key snapshots")
    table = np.array([_row_values(row, r) for r, row in enumerate(rows)], float).reshape(
        -1, len(CSV_COLUMNS))
    thetas, matrices = list(map(_g, table[:, 0].tolist())), []
    for theta in thetas:
        snaps = _required(snapshots.get(theta, {}), dict,
                          f"report snapshots at theta_V = {theta} deg")
        if sorted(snaps) != sorted(SNAPSHOT_LABELS):
            raise QuantumValueError(f"report row theta_V = {theta} deg has snapshots "
                                    f"{list(snaps)}, not {list(SNAPSHOT_LABELS)}")
        matrices += [snaps[label] for label in SNAPSHOT_LABELS]
    stack = _matrix_from_json(matrices) if matrices else np.empty((0, 2, 2), complex)
    if stack.shape[1:] != (2, 2):
        k, a = next((k, a) for k, a in enumerate(map(_matrix_from_json, matrices))
                    if a.shape != (2, 2))
        shape = "x".join(map(str, a.shape)) if a.ndim == 2 else "malformed"
        theta, label = thetas[k // len(SNAPSHOT_LABELS)], SNAPSHOT_LABELS[k % len(SNAPSHOT_LABELS)]
        raise QuantumValueError(f"report row theta_V = {theta} deg has a {shape} {label} snapshot")
    _raise_first(density_failures(stack))
    failures = _required(doc["failures"], dict, "report key failures")
    metadata = _required(doc["metadata"], dict, "report key metadata")
    planes = tuple(_frozen(stack).reshape(-1, len(SNAPSHOT_LABELS), 2, 2).swapaxes(0, 1))
    return SweepReport(_frozen(table), lambda: planes, failures, metadata)


def _required(value, kind, where):
    # a report value, refused unless it has the type emit writes
    if not isinstance(value, kind):
        raise QuantumValueError(f"{where}: {type(value).__name__}, not {kind.__name__}")
    return value


def _row_values(row, r):
    # the CSV values of report row r: JSON null is NaN, as numpy reads it, a JSON number float()
    _required(row, dict, f"report row {r}")
    values = []
    for column in CSV_COLUMNS:
        try:
            value = row[column]
            if type(value) not in (int, float, type(None)):  # bool, str, list or dict
                raise TypeError(f"{type(value).__name__}, not a number")
            values.append(math.nan if value is None else float(value))
        except KeyError:
            raise QuantumValueError(f"report row {r} column {column}: missing") from None
        except (OverflowError, TypeError) as exc:
            raise QuantumValueError(f"report row {r} column {column}: {exc}") from None
    return values


@dataclass(frozen=True)
class GoldenComparison:
    """Fidelity and entrywise deltas of the 22.5 deg snapshots vs the data."""

    fidelities: dict            # sqrt-convention fidelity, the pass metric
    fidelities_squared: dict    # (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2
    max_entry_deltas: dict
    offdiag_simulated: float
    offdiag_golden: float
    passed: bool


def compare_golden(report):
    """Compare the theta_V = 22.5 deg snapshots against the bundled matrices.

    Passes when every snapshot reaches the fidelity floor
    ``TOL["golden_fidelity"]`` (0.98) and the hot-stroke coherence
    magnitude sits within 0.02 of the measured value.  The simulated
    coherence is |rho_C[0, 1]| of the experiment's cycle from |psi_rc>
    (``GOLDEN_HOT_STROKE``), run through the circuit compiler at the
    report's n and omega0*tau.  The gating metric is the square-root fidelity
    tr sqrt(sqrt(rho) sigma sqrt(rho)); the squared values are reported
    alongside.  (The experimental end-of-cycle matrix carries ~10%
    coherence loss, which the squared convention prices at 0.970 while the
    square-root convention prices it at 0.985.)
    """
    at = np.flatnonzero(np.abs(report._table[:, 0] - 22.5) < 1e-9)  # the first such row counts
    if not at.size:
        raise QuantumValueError("report has no theta_V = 22.5 deg row to compare")
    golden = load_golden_data()
    fids, fids_sq, deltas = {}, {}, {}
    for label, gold_label, plane in zip(SNAPSHOT_LABELS, GOLDEN_LABELS, report._planes):
        sim = wrap_validated(plane[at[0]], label)
        fids_sq[label] = fidelity(sim, golden.states[gold_label])
        fids[label] = math.sqrt(fids_sq[label])
        deltas[label] = float(np.abs(sim.matrix - golden.raw[gold_label]).max())
    config = report.metadata["config"]
    source = GOLDEN_HOT_STROKE.format(n=config["n"], w=math.degrees(config["omega0_tau"]))
    tc = compile_program(parse(source)).run().snapshots["TC"]
    offdiag_sim = float(abs(tc.matrix[0, 1]))
    offdiag_gold = float(abs(golden.raw["B_to_C"][0, 1].imag))
    passed = all(f >= TOL["golden_fidelity"] for f in fids.values()) and (
        abs(offdiag_sim - offdiag_gold) <= 0.02)
    return GoldenComparison(fidelities=fids, fidelities_squared=fids_sq, max_entry_deltas=deltas,
                            offdiag_simulated=offdiag_sim, offdiag_golden=offdiag_gold,
                            passed=passed)


_CONFIG_KEYS = {f.name for f in fields(SweepConfig)}


def _theta_list(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


# config key -> parser of its value; every other key is a float
_CONFIG_PARSERS = {"theta_list_deg": _theta_list, "seed": int, "out": str, "fmt": str}


def load_config_file(path, unused=(), **overrides):
    """Read a flat key=value config file into a SweepConfig; a key in ``unused`` is refused.

    Each line is read in turn, and a bad key or value raises naming ``path:line``.  The
    ``overrides`` (command-line flags) replace the file's values before anything is checked;
    a file's value that SweepConfig refuses raises naming ``path``.
    """
    values = {}
    with open(path, encoding="utf-8", errors="replace") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise QuantumValueError(f"{path}:{ln}: expected key=value")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS or key in unused:
                raise QuantumValueError(f"{path}:{ln}: "
                                        f"{'unused' if key in unused else 'unknown'} key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS.get(key, float)(val)
            except ValueError as exc:
                raise QuantumValueError(f"{path}:{ln}: {exc}") from None
    try:
        return SweepConfig(**{**values, **overrides})
    except QuantumValueError as exc:
        SweepConfig(**overrides)  # a refused override raises as it would without the file
        raise QuantumValueError(f"{path}: {exc}") from None
