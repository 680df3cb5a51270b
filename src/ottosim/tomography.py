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
)

__all__ = [
    "BASES",
    "StokesVector",
    "IntensityRecord",
    "UnphysicalStokesWarning",
    "GoldenDataError",
    "GoldenData",
    "measure",
    "measure_all",
    "stokes_from_intensities",
    "reconstruct",
    "load_golden_data",
    "read_intensity_file",
]


def _projector(ket):
    v = np.asarray(ket, dtype=complex) / np.linalg.norm(ket)
    p = np.outer(v, v.conj())
    p.flags.writeable = False
    return p


_SQ2 = np.sqrt(2.0)
# basis -> (alpha label, beta label, alpha projector, beta projector)
BASES = {
    "HV": ("H", "V", _projector([1, 0]), _projector([0, 1])),
    "DAD": ("D", "AD", _projector([1, 1]), _projector([1, -1])),
    "RL": ("L", "R", _projector([1, 1j]), _projector([1, -1j])),
}


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
        if abs(self.s0 - 1.0) > 1e-9:
            raise QuantumValueError(f"s0 = {self.s0:.6g} != 1 after normalization")

    @property
    def bloch_norm(self):
        return float(np.sqrt(self.s1**2 + self.s2**2 + self.s3**2))

    @classmethod
    def from_state(cls, rho):
        m = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
        s = [float(np.trace(p @ m).real) for p in PAULIS]
        return cls(1.0, *s)


@dataclass(frozen=True)
class IntensityRecord:
    """One projective measurement: the two port intensities of a basis."""

    basis: str
    i_alpha: float
    i_beta: float

    def __post_init__(self):
        if self.basis not in BASES:
            raise QuantumValueError(f"unknown basis {self.basis!r}")
        if self.i_alpha < 0.0 or self.i_beta < 0.0:
            raise QuantumValueError("intensities must be nonnegative")


def measure(rho, basis, noise_sigma=0.0, rng=None):
    """Project rho onto one basis pair and return the port intensities.

    With noise_sigma > 0 each intensity is multiplied by an independent
    Gaussian factor 1 + noise_sigma * xi (clamped at zero), drawn from
    ``rng`` (a seeded ``numpy.random.Generator``; a fresh one is created
    when omitted).
    """
    if basis not in BASES:
        raise QuantumValueError(f"unknown basis {basis!r}")
    if noise_sigma < 0.0:
        raise QuantumValueError("noise_sigma must be nonnegative")
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho)
    _, _, p_a, p_b = BASES[basis]
    # projector expectations are nonnegative; clamp dark-port roundoff
    i_a = max(float(np.trace(p_a @ rho.matrix).real), 0.0)
    i_b = max(float(np.trace(p_b @ rho.matrix).real), 0.0)
    if noise_sigma > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        i_a = max(i_a * (1.0 + noise_sigma * rng.standard_normal()), 0.0)
        i_b = max(i_b * (1.0 + noise_sigma * rng.standard_normal()), 0.0)
    return IntensityRecord(basis=basis, i_alpha=i_a, i_beta=i_b)


def measure_all(rho, noise_sigma=0.0, rng=None):
    """Measure all three bases; one record each, in HV, DAD, RL order."""
    if rng is None:
        rng = np.random.default_rng()
    return tuple(measure(rho, b, noise_sigma, rng) for b in ("HV", "DAD", "RL"))


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
    probs = {}
    for name, rec in by_basis.items():
        total = rec.i_alpha + rec.i_beta
        if total <= 0.0:
            raise QuantumValueError(f"zero total intensity in basis {name}")
        probs[name] = rec.i_alpha / total
    # alpha ports are H, D, L; each s_i is P_alpha - P_beta in its basis
    s1 = 2.0 * probs["DAD"] - 1.0
    s2 = 2.0 * probs["RL"] - 1.0
    s3 = 2.0 * probs["HV"] - 1.0
    return StokesVector(1.0, s1, s2, s3)


def reconstruct(s):
    """Density operator rho = (1/2)(s0 1 + sum_i s_i sigma_i).

    A Bloch vector lying outside the unit ball (detector noise) is radially
    projected onto the sphere first; this emits
    :class:`UnphysicalStokesWarning`.
    """
    vec = np.array([s.s1, s.s2, s.s3], dtype=float)
    norm = float(np.linalg.norm(vec))
    if norm > 1.0 + TOL["stokes_physical"]:
        warnings.warn(
            f"Bloch vector norm {norm:.6g} > 1; projected onto the sphere",
            UnphysicalStokesWarning,
            stacklevel=2,
        )
    if norm > 1.0:
        vec = vec / norm
    m = 0.5 * (s.s0 * ID2 + sum(c * p for c, p in zip(vec, PAULIS)))
    return DensityOperator(m)


def read_intensity_file(path):
    """Parse an intensity file: ``basis i_alpha i_beta`` per line, # comments."""
    records = []
    with open(path, encoding="utf-8") as fh:
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


def _sanitize_measured(m):
    """Hermitize, renormalize trace and project the measured matrix.

    Returns (DensityOperator, adjustments).  Measured matrices carry
    4-to-5 digit entries; their traces differ from 1 in the last digit and
    one of them is marginally nonpositive, so the Bloch vector is scaled
    back onto the ball when needed.
    """
    notes = []
    herm_defect = float(np.abs(m - m.conj().T).max())
    if herm_defect > 0.0:
        m = 0.5 * (m + m.conj().T)
        notes.append(f"hermitized (defect {herm_defect:.3g})")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TOL["trace"]:
        m = m / tr
        notes.append(f"trace renormalized from {tr:.6g}")
    s = np.array([float(np.trace(p @ m).real) for p in PAULIS])
    norm = float(np.linalg.norm(s))
    if norm > 1.0:
        m = 0.5 * (ID2 + sum(c * p for c, p in zip(s / norm, PAULIS)))
        notes.append(f"Bloch vector projected from norm {norm:.8g}")
    return DensityOperator(m), tuple(notes)


def load_golden_data():
    """Load the bundled experimental matrices for the theta_v = 22.5 deg run.

    Returns a :class:`GoldenData` with the initial state and the four
    post-stroke states, sanitized into valid density operators; every
    adjustment applied on top of the measured entries is logged.
    """
    try:
        payload = resources.files("ottosim.data").joinpath("golden_states.json").read_text()
        doc = json.loads(payload)
        version = doc["version"]
        matrices = doc["matrices"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise GoldenDataError(f"golden data file unreadable: {exc}") from exc
    states, raw, adjustments = {}, {}, {}
    for label in GOLDEN_LABELS:
        if label not in matrices:
            raise GoldenDataError(f"golden data missing matrix {label!r}")
        try:
            m = np.array(
                [[complex(re, im) for re, im in row] for row in matrices[label]],
                dtype=complex,
            )
        except (TypeError, ValueError) as exc:
            raise GoldenDataError(f"golden matrix {label!r} malformed: {exc}") from exc
        if m.shape != (2, 2):
            raise GoldenDataError(f"golden matrix {label!r} has shape {m.shape}")
        raw[label] = m
        try:
            states[label], adjustments[label] = _sanitize_measured(m)
        except QuantumValueError as exc:
            raise GoldenDataError(f"golden matrix {label!r} unusable: {exc}") from exc
        states[label] = states[label].relabel(label)
    return GoldenData(version=version, states=states, raw=raw, adjustments=adjustments)
