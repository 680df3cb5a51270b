"""Three-basis polarization tomography: projective intensities and Stokes
reconstruction.

The normative Stokes definition is s_i = tr{sigma_i rho}.  The measurement
bases and their detector ports are

    HV   ->  alpha = |H>,  beta = |V>          s3 = P_H - P_V
    DAD  ->  alpha = |D>,  beta = |AD>         s1 = P_D - P_AD
    RL   ->  alpha = |L>,  beta = |R>          s2 = P_L - P_R

with |L> = (1, i)/sqrt(2) the +1 eigenstate of sigma_y and |R> = (1, -i)/
sqrt(2) right-circular.  A right-circular input therefore lights only the
beta port of the RL pair.  Probabilities come from normalized intensities
P_alpha = I_alpha / (I_alpha + I_beta).

``tomography_stack`` reads out a whole (N, T, 2, 2) stack at once; the
single-tap functions share its formulas, floats, warnings and messages.

Intensity files hold one record per line, ``basis i_alpha i_beta`` with
basis in {HV, DAD, RL}; the bundled experimental matrices ship as a
versioned JSON data file of labeled complex entries.
"""

import json
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .qcore import (
    ID2,
    PAULIS,
    TOL,
    DensityOperator,
    QuantumValueError,
    density_failures,
    wrap_validated,
)

__all__ = [
    "BASES",
    "StokesVector",
    "IntensityRecord",
    "UnphysicalStokesWarning",
    "GoldenDataError",
    "GoldenData",
    "measure_all",
    "stokes_from_intensities",
    "reconstruct",
    "tomography_stack",
    "load_golden_data",
    "read_intensity_file",
]


def _projector(ket):
    v = np.asarray(ket, dtype=complex) / np.linalg.norm(ket)
    p = np.outer(v, v.conj())
    p.flags.writeable = False
    return p


# basis -> (alpha label, beta label, alpha projector, beta projector)
BASES = {
    "HV": ("H", "V", _projector([1, 0]), _projector([0, 1])),
    "DAD": ("D", "AD", _projector([1, 1]), _projector([1, -1])),
    "RL": ("L", "R", _projector([1, 1j]), _projector([1, -1j])),
}
# measurement order of measure_all; its alpha and beta projectors as one (6, 2, 2) stack
_ORDER = ("HV", "DAD", "RL")
_PROJECTORS = np.stack([BASES[b][k] for b in _ORDER for k in (2, 3)])
_PAULIS = np.stack(PAULIS)
_projected = "Bloch vector norm {:.6g} > 1; projected onto the sphere".format
_lost = "intensity past the float range in basis {}".format


class UnphysicalStokesWarning(UserWarning):
    """Emitted when a Stokes vector is projected back onto the Bloch ball."""


class GoldenDataError(RuntimeError):
    """Raised when the bundled experimental data file is unreadable."""


@dataclass(frozen=True)
class StokesVector:
    """Normalized Stokes parameters (s0, s1, s2, s3), s0 = 1."""

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if not abs(self.s0 - 1.0) <= 1e-9:
            raise QuantumValueError(f"s0 = {self.s0:.6g} != 1 after normalization")

    @property
    def bloch_norm(self):
        return float(np.sqrt(self.s1**2 + self.s2**2 + self.s3**2))


@dataclass(frozen=True)
class IntensityRecord:
    """One projective measurement: the two port intensities of a basis."""

    basis: str
    i_alpha: float
    i_beta: float

    def __post_init__(self):
        if self.basis not in BASES:
            raise QuantumValueError(f"unknown basis {self.basis!r}")
        if not (0.0 <= self.i_alpha < np.inf and 0.0 <= self.i_beta < np.inf):
            raise QuantumValueError("intensities must be finite and nonnegative")


def _traces(ops, stack):
    # tr(P rho).real per operator of a (P, 2, 2) stack and per (..., 2, 2) matrix, as one
    # (2P, 2) @ (2, 2) product per matrix: OpenBLAS gives each 2x2 block the bits of p @ rho,
    # and d0 + d1 is np.trace's sum
    m = (ops.reshape(-1, 2) @ stack).reshape(stack.shape[:-2] + ops.shape)
    return (m[..., 0, 0] + m[..., 1, 1]).real


def _intensities(stack, projectors, noise_sigma, xi):
    # tr(P rho) per projector and (..., 2, 2) matrix, then times 1 + sigma * xi; each clamped at 0
    i = np.maximum(_traces(projectors, stack), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.maximum(i * (1.0 + noise_sigma * xi), 0.0) if noise_sigma > 0.0 else i


def _bloch_vectors(i):
    # (s1, s2, s3) from (..., 3, 2) port intensities in _ORDER, and where a basis is dark
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        total = i[..., 0] + i[..., 1]
        if np.isinf(total).any():  # a pair past the float range halved, its ratio kept exact
            i = np.where(np.isinf(total)[..., None], 0.5 * i, i)
            total = i[..., 0] + i[..., 1]
        s = 2.0 * (i[..., 0] / total) - 1.0
    # alpha ports are H, D, L; each s_i is P_alpha - P_beta in its basis
    return s[..., [1, 2, 0]], total <= 0.0


def _densities(vec):
    # (1/2)(1 + s.sigma) of each (..., 3) vector projected into the ball, and the norms
    # before it; the matmul form gives the bits of np.linalg.norm of one vector
    norm = np.sqrt((vec[..., None, :] @ vec[..., :, None])[..., 0, 0])
    vec = vec / np.where(norm > 1.0, norm, 1.0)[..., None]
    return 0.5 * (ID2 + sum(vec[..., j, None, None] * p for j, p in enumerate(PAULIS))), norm


def _read_out(basis, i_a, i_b):
    # the record of a validated state's port intensities, not checked again: a state that
    # skipped its checks then fails at reconstruct, as it does in tomography_stack
    record = object.__new__(IntensityRecord)
    record.__dict__.update(basis=basis, i_alpha=i_a, i_beta=i_b)
    return record


def measure_all(rho, noise_sigma=0.0, rng=None):
    """Project rho onto each basis pair; one record of port intensities each, in HV, DAD, RL order.

    With noise_sigma > 0 each intensity is multiplied by an independent
    Gaussian factor 1 + noise_sigma * xi (clamped at zero), drawn from
    ``rng`` (a seeded ``numpy.random.Generator``; a fresh one is created
    when omitted).
    """
    if noise_sigma < 0.0:
        raise QuantumValueError("noise_sigma must be nonnegative")
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho)
    xi = None
    if noise_sigma > 0.0:
        xi = (np.random.default_rng() if rng is None else rng).standard_normal(6)
    i = _intensities(rho.matrix, _PROJECTORS, noise_sigma, xi).reshape(-1, 2)
    lost = ~np.isfinite(i).all(axis=-1) & np.isfinite(rho.matrix).all()
    if lost.any():  # noise past the float range; an unchecked NaN state fails at reconstruct
        raise QuantumValueError(_lost(_ORDER[lost.argmax()]))
    return tuple(_read_out(b, i_a, i_b) for b, (i_a, i_b) in zip(_ORDER, i.tolist()))


def stokes_from_intensities(records):
    """Assemble a Stokes vector from one intensity record per basis."""
    by_basis = {}
    for rec in records:
        if rec.basis in by_basis:
            raise QuantumValueError(f"duplicate basis {rec.basis!r}")
        by_basis[rec.basis] = rec
    missing = set(BASES) - set(by_basis)
    if missing:
        raise QuantumValueError(f"missing bases: {sorted(missing)}")
    vec, dark = _bloch_vectors(np.array(
        [[by_basis[b].i_alpha, by_basis[b].i_beta] for b in _ORDER], dtype=float))
    for name in by_basis:
        if dark[_ORDER.index(name)]:
            raise QuantumValueError(f"zero total intensity in basis {name}")
    return StokesVector(1.0, *vec.tolist())


def reconstruct(s):
    """Density operator rho = (1/2)(1 + sum_i s_i sigma_i).

    Built at s0 = 1, the normalization StokesVector enforces, so every s0 it
    accepts gives the state of s0 = 1.  A Bloch vector lying outside the unit
    ball (detector noise) is radially projected onto the sphere first; this
    emits :class:`UnphysicalStokesWarning`.
    """
    m, norm = _densities(np.array([s.s1, s.s2, s.s3], dtype=float))
    if norm > 1.0 + TOL["stokes_physical"]:
        warnings.warn(_projected(norm), UnphysicalStokesWarning, stacklevel=2)
    return DensityOperator(m)


def tomography_stack(stack, noise_sigma, rngs):
    """Noisy tomography of each matrix of an (N, T, 2, 2) stack of validated states.

    Row i equals reconstruct(stokes_from_intensities(measure_all(rho, noise_sigma,
    rngs[i]))) run on its T matrices in turn: the same draws, floats, warnings
    and messages.  Returns the read-only stack of reconstructed states and
    position -> message for each row that stops at a failed tap.
    """
    n, taps = stack.shape[:2]
    xi = np.array([rng.standard_normal(6 * taps) for rng in rngs]).reshape(n, taps, 6)
    i = _intensities(stack, _PROJECTORS, noise_sigma, xi).reshape(n, taps, 3, 2)
    vec, dark = _bloch_vectors(i)
    lost = ~np.isfinite(i).all(axis=-1) & np.isfinite(stack).all(axis=(-2, -1))[..., None]
    m, norm = _densities(vec)
    m.flags.writeable = False
    bad = density_failures(m.reshape(-1, 2, 2))
    failed = (dark | lost).any(axis=-1)
    failed.flat[list(bad)] = True
    stop = np.where(failed.any(axis=1), failed.argmax(axis=1), taps)
    projected = (norm > 1.0 + TOL["stokes_physical"]) & (np.arange(taps) <= stop[:, None]) & (
        ~lost.any(axis=-1))
    for value in norm[projected].tolist():
        warnings.warn(_projected(value), UnphysicalStokesWarning, stacklevel=2)
    return m, {k: (_lost(_ORDER[lost[k, t].argmax()]) if lost[k, t].any() else
                   f"zero total intensity in basis {_ORDER[dark[k, t].argmax()]}"
                   if dark[k, t].any() else bad[k * taps + t])
               for k, t in enumerate(stop.tolist()) if t < taps}


def read_intensity_file(path):
    """Parse an intensity file: ``basis i_alpha i_beta`` per line, # comments."""
    records = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise QuantumValueError(f"{path}:{ln}: expected 'basis i_alpha i_beta'")
            basis, a, b = parts
            try:
                records.append(IntensityRecord(basis, float(a), float(b)))
            except ValueError as exc:
                raise QuantumValueError(f"{path}:{ln}: {exc}") from exc
    return records


GOLDEN_LABELS = ("ini", "A_to_B", "B_to_C", "C_to_D", "D_to_A")


@dataclass(frozen=True)
class GoldenData:
    """The five experimental density matrices with the loader's adjustment log."""

    version: int
    states: dict          # label -> DensityOperator
    raw: dict             # label -> ndarray exactly as measured
    adjustments: dict     # label -> tuple of adjustment descriptions


def _sanitize_measured(raw):
    """Hermitize, renormalize the trace of and project the labeled matrices of ``raw`` as one stack.

    Returns the states and the adjustment notes by label, and raises :class:`GoldenDataError`
    naming the first matrix that is still no density operator.  Measured matrices carry
    4-to-5 digit entries; their traces differ from 1 in the last digit and one of them is
    marginally nonpositive, so the Bloch vector is scaled back onto the ball when needed.
    """
    stack = np.array([*raw.values()], complex).reshape(-1, 2, 2)
    adjoint = stack.conj().swapaxes(-1, -2)
    herm = np.abs(stack - adjoint).max(axis=(-2, -1))
    m, hermitized = stack.copy(), herm > 0.0
    m[hermitized] = 0.5 * (stack[hermitized] + adjoint[hermitized])
    tr = (m[:, 0, 0] + m[:, 1, 1]).real
    renormalized = ~(np.abs(tr - 1.0) <= TOL["trace"])
    m[renormalized] = m[renormalized] / tr[renormalized, None, None]
    projected, norm = _densities(_traces(_PAULIS, m))
    outside = norm > 1.0
    m[outside] = projected[outside]
    m.flags.writeable = False
    failures = density_failures(m)
    if failures:
        k = min(failures)
        raise GoldenDataError(f"golden matrix {[*raw][k]!r} unusable: {failures[k]}")
    adjustments = {}
    for label, h, d, r, t, o, b in zip(raw, *(a.tolist() for a in (
            hermitized, herm, renormalized, tr, outside, norm))):
        adjustments[label] = tuple(note for done, note in (
            (h, f"hermitized (defect {d:.3g})"), (r, f"trace renormalized from {t:.6g}"),
            (o, f"Bloch vector projected from norm {b:.8g}")) if done)
    return {label: wrap_validated(s, label) for label, s in zip(raw, m)}, adjustments


def _golden_matrix(matrices, label):
    # the measured 2x2 matrix under label; GoldenDataError if it is missing, malformed or not 2x2
    if label not in matrices:
        raise GoldenDataError(f"golden data missing matrix {label!r}")
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in matrices[label]], complex)
    except (TypeError, ValueError) as exc:
        raise GoldenDataError(f"golden matrix {label!r} malformed: {exc}") from exc
    if m.shape != (2, 2):
        raise GoldenDataError(f"golden matrix {label!r} has shape {m.shape}")
    return m


def load_golden_data():
    """Load the bundled experimental matrices for the theta_v = 22.5 deg run.

    Returns a :class:`GoldenData` with the initial state and the four
    post-stroke states, sanitized into valid density operators as one stack;
    every adjustment applied on top of the measured entries is logged.  The
    first label, in order, that is missing, malformed or unusable is raised.
    """
    try:
        payload = resources.files("ottosim.data").joinpath("golden_states.json").read_text()
        doc = json.loads(payload)
        version = doc["version"]
        matrices = doc["matrices"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise GoldenDataError(f"golden data file unreadable: {exc}") from exc
    raw = {}
    try:
        for label in GOLDEN_LABELS:
            raw[label] = _golden_matrix(matrices, label)
    except GoldenDataError:
        _sanitize_measured(raw)  # an unusable matrix before the failing label is named first
        raise
    states, adjustments = _sanitize_measured(raw)
    return GoldenData(version=version, states=states, raw=raw, adjustments=adjustments)
