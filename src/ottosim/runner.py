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
sweep never hits), the per-angle strokes on (N, ., .) arrays, then one (2 + 4N, 2, 2)
stack of every 2x2 state checked in one call (a failed A->B check stops every row; the
joint states, congruences of the checked rho_B by checked elements, are only reduced),
whose slices and spectra the ledger columns read.  A SweepReport (from a sweep or
``load_report``) is the CSV-value table and a builder of the snapshot planes; planes and
rows are built on first read, which a CSV emit never makes; ``run_cycle`` is N = 1.
"""

import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import __version__
from .circuit import compile_program, parse
from .optics import (_P0, _frozen, _jones_parameter, _kron_slices, _left_mul, _right_mul,
                     dephasing_blocks, expansion_unitary, kappa_from_theta_deg)
from .qcore import (
    ID2,
    TOL,
    QuantumValueError,
    _failing,
    density_failures,
    density_spectra,
    entropies,
    fidelity,
    first_errors,
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
from .tomography import load_golden_data, tomography_stack

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
# snapshot label -> golden data label
GOLDEN_MAP = {
    "TA": "ini",
    "TB": "A_to_B",
    "TC": "B_to_C",
    "TD": "C_to_D",
    "TA2": "D_to_A",
}
# the experiment's cycle from its initial state |psi_rc> at the golden angle,
# up to the end of its hot stroke; expand takes n and omega0*tau in degrees
GOLDEN_HOT_STROKE = "init rc\nexpand {n!r} {w!r}\npd 22.5\ntomo TC\n"

CSV_COLUMNS = (
    "theta_v_deg",
    "kappa",
    "r",
    "W_AB",
    "Q_BC",
    "W_CD",
    "Q_DA",
    "dU_cycle",
    "W_extracted",
    "Sigma_e",
    "Sigma_c",
    "Sigma_cycle",
    "max_delta_vs_closed_form",
)


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


def _spectrum_errors(lam_a, lam_b):
    # a unitary stroke leaves each row's (ascending) spectrum in place
    gap = np.abs(lam_a - lam_b).max(axis=-1)
    return {i: f"not unitary, spectrum moved by {gap[i]:.3g}" for i in _failing(gap <= 1e-10)}


def _closure_errors(rho_end, rho_start):
    # the cycle hands each row back the state it started from
    defect = np.abs(rho_end - rho_start).max(axis=(-2, -1))
    return {i: f"cycle failed to close, defect {defect[i]:.3g}"
            for i in _failing(defect <= TOL["cycle_closure"])}


def _parts(errors, *starts):
    # position -> message of one stack, split into the parts that begin at `starts`, each from 0
    return [{pos - a: message for pos, message in errors.items() if a <= pos < b}
            for a, b in zip(starts, (*starts[1:], math.inf))]


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

    A->B comes from ``_a_to_b`` and B->C, C->D and D->A run on all N rows; then every 2x2 state
    is checked in one call against the TOL checks a single-matrix computation applies.
    A row reports its first failed check, in stroke order, with its stroke named; the
    other rows go on, and a failed A->B check (rho_A, rho_B or their spectra) stops every
    row.  The ledger is columns over all rows, with only IEEE arithmetic vectorised, so
    each value has the bits of the per-row formulas; with noise the passing rows' snapshots
    are tapped as one stack.  Returns the finished rows sorted by (r, theta_V), as positions
    in ``thetas``, CSV values and a function building their snapshot planes (see
    SweepReport), and the error of each stopped row.
    """
    params, count = config.params(), len(thetas)
    n, x_c = params.n, params.x_c
    # A: cold thermal state; A->B: expansion (work stroke), the same for every row
    ab, k_c, k_c_dag, rho_b_k0 = _a_to_b(*(float(v).hex() for v in (n, x_c, config.omega0_tau)))
    degrees = np.array(thetas, dtype=float)
    kappa = kappa_from_theta_deg(degrees)
    x_h = np.array(hot_x_column(kappa, params))
    theta_v = np.deg2rad(degrees)  # x * (pi / 180), the bits of math.radians
    pd, ipd, _, bad_pd, bad_ipd = dephasing_blocks(theta_v, theta_v)

    # B->C: dephasing block as the hot reservoir, the ancilla taken in k0; C->D: the
    # compression (the A->B rotation: the same Jones parameter) applied to the polarization
    # of both arms; D->A: the inverted block consumes the dephasing record.  Rows that fail
    # a check run on and are dropped below.  (A constant 4x4 factor is one BLAS call over
    # the stack, with the per-slice bits.)
    joint = np.empty((3, count, 4, 4), dtype=complex)
    np.matmul(_right_mul(pd, rho_b_k0), pd.conj().swapaxes(-1, -2), out=joint[0])
    joint[1] = _right_mul(_left_mul(k_c, joint[0]), k_c_dag)
    np.matmul(ipd @ joint[1], ipd.conj().swapaxes(-1, -2), out=joint[2])
    rho_c, rho_d, rho_a2 = paths = trace_path(joint).reshape(3, count, 2, 2)

    # the sweep's one state stack [rho_C; rho_A2; rho_D; rho_A; rho_B; hot targets], checked
    # in one call and each decomposed once: the energies read its first 3N + 2 slices, the
    # entropies (of relaxing rho_B to each hot target and each rho_D to rho_A) the spectra
    # of its last 2N + 2
    c, a = count, 3 * count
    states = np.empty((a + c + 2, 2, 2), dtype=complex)
    states[:c], states[c:2 * c], states[2 * c:a], states[a:a + 2] = rho_c, rho_a2, rho_d, ab
    states[a + 2:] = thermal_matrices(x_h.tolist())
    lam, spec, bad = density_spectra(states)
    bad_c, bad_a2, bad_d, bad_a, bad_b, bad_h = _parts(bad, 0, c, 2 * c, a, a + 1, a + 2)
    # rho_A, rho_B and the A->B spectrum are one state or check for all rows
    fixed = (bad_a.get(0), bad_b.get(0), _spectrum_errors(lam[a:a + 1], lam[a + 1:a + 2]).get(0))
    errors = {}
    for stroke, checks in (
            ("A->B", [dict.fromkeys(range(count), message) for message in fixed if message]),
            ("B->C", (bad_pd, bad_c, bad_h)),
            ("C->D", (bad_d, _spectrum_errors(lam[:c], lam[2 * c:a]))),
            ("D->A", (bad_ipd, bad_a2, _closure_errors(rho_a2, ab[0])))):
        for i, message in first_errors(*checks).items():
            errors.setdefault(i, CycleError(f"stroke {stroke}: {message}"))

    # the ledger as columns over all rows (a stopped row's are dropped with it), one call per
    # quantity, the energies with one H per slice; q_BC in hbar*omega_fin units, so beta*Q
    # reduces to x_h * q
    omega = np.ones(a + 2)
    omega[:c] = omega[-1] = n  # rho_C and rho_B at the expanded gap
    e = expectations(hamiltonian(omega[:, None, None]), states[:a + 2])
    (e_c_hot, e_a2_cold, e_d_cold), (e_a_cold, e_b_hot) = e[:a].reshape(3, c), e[a:].tolist()
    s = entropies(spec[2 * c:])
    s_d, (s_cold, s_b), s_h = s[:c], s[c:c + 2].tolist(), s[c + 2:]
    q_bc = e_c_hot - e_b_hot
    w_cd = e_d_cold - e_c_hot
    q_da = e_a2_cold - e_d_cold
    sig_e = (s_h - s_b) - x_h * (q_bc / n)
    sig_c = (s_cold - s_d) - x_c * q_da
    r = x_h / x_c
    energies = np.array([np.full(count, e_b_hot - e_a_cold), q_bc, w_cd, q_da])
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
        snaps = np.empty((len(keep), 5, 2, 2), complex)
        snaps[:, :2], snaps[:, 2:] = ab, paths[:, keep].swapaxes(0, 1)
        taps, tap_errors = tomography_stack(
            snaps, config.noise_sigma, [np.random.default_rng(streams[i]) for i in keep.tolist()])
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
    list and snapshots an object; each row is an object of the 13 CSV columns, JSON null
    loading as NaN and any other value through ``float()``; each row's snapshots are an
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
    bad = density_failures(stack)
    if bad:
        raise QuantumValueError(bad[min(bad)])
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
    # the CSV values of report row r: JSON null is NaN, as numpy reads it, any other value float()
    _required(row, dict, f"report row {r}")
    values = []
    for column in CSV_COLUMNS:
        try:
            value = row[column]
            values.append(math.nan if value is None else float(value))
        except KeyError:
            raise QuantumValueError(f"report row {r} column {column}: missing") from None
        except (OverflowError, TypeError, ValueError) as exc:
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
    for label, plane in zip(SNAPSHOT_LABELS, report._planes):
        sim, gold_label = wrap_validated(plane[at[0]], label), GOLDEN_MAP[label]
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


def load_config_file(path, unused=()):
    """Read a flat key=value config file into a SweepConfig; a key in ``unused`` is refused."""
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
            values[key] = val
    return SweepConfig(**{key: _CONFIG_PARSERS.get(key, float)(val) for key, val in values.items()})
