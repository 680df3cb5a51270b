"""Jones matrices of the optical elements and composite channel blocks.

Element conventions (pinned by unit tests):

    hwp(theta)   = [[cos t, sin t], [sin t, -cos t]]  at t = theta, so that
                   rotation(a) == hwp(2a) @ hwp(a) and hwp is an involution.
    rotation(a)  = [[cos a, -sin a], [sin a, cos a]] = exp(-i a sigma_y).
    qwp(theta)   = R(theta) diag(1, i) R(-theta); qwp(-45 deg)|V> is
                   right-circular up to a global phase.
    PBS          transmits |H> in-path, reflects |V> cross-path, phase +1.

The dephasing block routes the vertical component through a wave plate whose
normative arm action is |V> -> sin(2 theta_v)|H> + cos(2 theta_v)|V>
(realized as hwp(pi - 2 theta_v)), which shrinks polarization coherence by
kappa = cos(2 theta_v) while preserving populations.  The inverted block is
the mirror circuit undoing it.
"""

from dataclasses import dataclass, field

import numpy as np

from .qcore import ID2, TOL, KrausSet, QuantumValueError, first_errors, kraus_errors, tensor

__all__ = [
    "OpticalElement",
    "ChannelBlock",
    "hwp",
    "qwp",
    "rotation",
    "pbs_matrix",
    "pd_block",
    "ipd_block",
    "dephasing_stack",
    "expansion_unitary",
    "compression_unitary",
    "kappa_from_theta_deg",
]

_P0 = np.diag([1, 0]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)
_QWP_AXES = np.diag([1.0, 1.0j])


@dataclass(frozen=True)
class OpticalElement:
    """A single unitary element: its kind, parameter and target space."""

    kind: str                 # HWP | QWP | PBS | PHASE | ROT
    angle_or_phase: float     # radians
    target: str               # "polarization" | "path" | "joint"
    matrix: np.ndarray = field(compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        _check_unitary(m, f"{self.kind} element")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _unitarity_errors(stack, what):
    # position -> message for each slice of an (N, d, d) stack that is not unitary
    defect = np.abs(stack.conj().swapaxes(-1, -2) @ stack - np.eye(stack.shape[-1]))
    defect = defect.max(axis=(-2, -1))
    return {i: f"{what} not unitary: defect {defect[i]:.3g}"
            for i in np.flatnonzero(~(defect <= TOL["unitary"])).tolist()}


def _check_unitary(m, what):
    errors = _unitarity_errors(m[None], what)
    if errors:
        raise QuantumValueError(errors[0])


def _hwp_matrix(theta):
    # [[cos, sin], [sin, -cos]]; an array of angles gives a stack of matrices
    c, s = np.cos(theta), np.sin(theta)
    m = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = c, s, s, -c
    return m


def _rotation_matrix(alpha):
    # [[cos, -sin], [sin, cos]]; an array of angles gives a stack of matrices
    c, s = np.cos(alpha), np.sin(alpha)
    m = np.empty(np.shape(alpha) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = c, -s, s, c
    return m


def _qwp_matrix(theta):
    # R(theta) diag(1, i) R(-theta), per angle of an array
    r = _rotation_matrix(theta)
    return r @ _QWP_AXES @ r.conj().swapaxes(-1, -2)


def _kron_slices(a, b):
    # np.kron(a, b) of each 2x2 slice of a with the 2x2 b, as the broadcast
    # product np.kron evaluates: the same products, signed zeros included
    return (a[..., :, None, :, None] * b[:, None, :]).reshape(a.shape[:-2] + (4, 4))


def hwp(theta):
    """Half-wave plate with matrix entries evaluated directly at theta."""
    return OpticalElement("HWP", float(theta), "polarization", _hwp_matrix(theta))


def rotation(alpha):
    """Polarization rotation exp(-i alpha sigma_y), an SO(2) Jones matrix."""
    return OpticalElement("ROT", float(alpha), "polarization", _rotation_matrix(alpha))


def qwp(theta):
    """Quarter-wave plate at axis angle theta."""
    return OpticalElement("QWP", float(theta), "polarization", _qwp_matrix(theta))


def pbs_matrix():
    """Polarizing beam splitter on the joint space: |H> in-path, |V> cross-path."""
    return tensor(_P0, ID2) + np.kron(_P1, np.array([[0, 1], [1, 0]], dtype=complex))


def phase_on_path1(phi):
    """Relative arm phase exp(i phi) applied on path k1 (PZT model)."""
    return np.kron(ID2, np.diag([1.0, np.exp(1j * phi)]))


def _on_paths(pol_on_0, pol_on_1):
    # polarization action conditioned on the path register, pol (x) path order
    return np.kron(pol_on_0, _P0) + np.kron(pol_on_1, _P1)


def _frozen(m):
    m.flags.writeable = False
    return m


# theta-independent stages of the dephasing blocks
_PBS = _frozen(pbs_matrix())
_ARM_H = _frozen(np.kron(hwp(0.0).matrix, _P0))             # H arm plate leaves |H> unchanged
_FLIP = _frozen(_on_paths(ID2, hwp(np.pi / 2).matrix))     # HWP5: |H> -> |V> on k1
_FLIP_PBS = _frozen(_FLIP @ _PBS)
_PHASE_0 = _frozen(phase_on_path1(0.0))


@dataclass(frozen=True)
class ChannelBlock:
    """A composite block in dilation (joint unitary) and/or Kraus form."""

    name: str
    unitary: np.ndarray | None = field(default=None, compare=False)
    kraus: KrausSet | None = None

    def __post_init__(self):
        if self.unitary is not None:
            u = np.asarray(self.unitary, dtype=complex)
            _check_unitary(u, f"{self.name} block")
            u.flags.writeable = False
            object.__setattr__(self, "unitary", u)


def _kraus_pairs(theta_v):
    # diag(1, cos 2t), diag(0, sin 2t) per angle, as an (N, 2, 2, 2) stack
    kraus = np.zeros(np.shape(theta_v) + (2, 2, 2), dtype=complex)
    kraus[:, 0, 0, 0] = 1.0
    kraus[:, 0, 1, 1] = np.cos(2.0 * theta_v)
    kraus[:, 1, 1, 1] = np.sin(2.0 * theta_v)
    return kraus


def _arm_stage(arm_v):
    # _on_paths(hwp(0), arm_v) per slice
    return _ARM_H + _kron_slices(arm_v, _P1)


def dephasing_stack(theta_v, inverse=False):
    """Dilation unitaries of the PD (or, with ``inverse``, IPD) block per angle.

    ``theta_v`` is a sequence of wave-plate angles in radians.  The PD
    circuit is PBS1 -> arm plates (H arm fixed, V arm at hwp(pi - 2 theta_v),
    so |V> -> sin 2t |H> + cos 2t |V>) -> PZT at zero phase -> PBS2 -> HWP5;
    the IPD is its mirror.  Returns (unitaries (N, 4, 4), Kraus pairs
    (N, 2, 2, 2) or None for the IPD, errors): ``errors`` maps the position
    of each angle that fails a check (angle range, Kraus completeness,
    arm-plate and block unitarity, in that order) to its message.  The
    stacked products keep the single-block product order, so each slice has
    the bits of the block built alone.
    """
    theta_v = np.asarray(theta_v, dtype=float)
    in_range = (theta_v >= 0.0) & (theta_v <= np.pi / 4 + 1e-15)
    checks = [{i: f"theta_v = {theta_v[i]:.6g} rad outside [0, pi/4]"
               for i in np.flatnonzero(~in_range).tolist()}]
    kraus = None
    if not inverse:
        kraus = _kraus_pairs(theta_v)
        checks.append(kraus_errors(kraus))
    arm_v = _hwp_matrix(np.pi - 2.0 * theta_v)
    checks.append(_unitarity_errors(arm_v, "HWP element"))
    arms = _arm_stage(arm_v)
    if inverse:
        u = (((_PBS @ arms) @ _PHASE_0) @ _PBS) @ _FLIP
    else:
        u = ((_FLIP_PBS @ _PHASE_0) @ arms) @ _PBS
    checks.append(_unitarity_errors(u, "IPD block" if inverse else "PD block"))
    return u, kraus, first_errors(*checks)


def pd_block(theta_v):
    """Phase-damping block at wave-plate angle theta_v (radians, 0..pi/4).

    Returns both realizations: the 4-dim dilation assembled from PBS1,
    the arm wave plates, the PZT at zero phase, PBS2 and HWP5 (ancilla
    starts in k0 and is traced after), and the equivalent 2-dim Kraus pair
    diag(1, cos 2theta_v), diag(0, sin 2theta_v).
    """
    u, kraus, errors = dephasing_stack([theta_v])
    if errors:
        raise QuantumValueError(errors[0])
    return ChannelBlock("PD", unitary=u[0], kraus=KrausSet(kraus[0]))


def ipd_block(theta_v):
    """Inverted phase-damping block undoing ``pd_block(theta_v)``.

    The mirror circuit (HWP10 on k1, PBS, arm plates HWP11/HWP12, PZT2,
    PBS4) composes to the inverse of the dephasing unitary: with both PZTs
    at zero phase the joint composite satisfies ipd . pd = identity.
    """
    u, _, errors = dephasing_stack([theta_v], inverse=True)
    if errors:
        raise QuantumValueError(errors[0])
    return ChannelBlock("IPD", unitary=u[0])


def _jones_parameter(n, omega0_tau):
    if n <= 1.0:
        raise QuantumValueError(f"gap ratio n = {n:.6g} must exceed 1")
    if omega0_tau < 0.0:
        raise QuantumValueError(f"omega0*tau = {omega0_tau:.6g} must be nonnegative")
    alpha = (float(n) + 1.0) * float(omega0_tau) / 2.0
    if not np.isfinite(alpha):
        raise QuantumValueError(f"Jones parameter (n + 1) omega0*tau / 2 = {alpha} is not finite")
    return alpha


def expansion_unitary(n, omega0_tau):
    """Gap-expansion rotation S(alpha) with alpha = (n+1) omega0 tau / 2.

    Compiled from two half-wave plates at relative angle alpha:
    S(alpha) = hwp(2 alpha) @ hwp(alpha).
    """
    return rotation(_jones_parameter(n, omega0_tau))


def compression_unitary(n, omega0_tau):
    """Gap-compression rotation; same Jones parameter as the expansion."""
    return rotation(_jones_parameter(n, omega0_tau))


def kappa_from_theta_deg(theta_deg):
    """Coherence multiplier cos(2 theta) of an angle in degrees, or of each angle of an array.

    Exact at the sweep anchors: 0 deg -> 1.0 and 45 deg -> 0.0, so the
    endpoint temperature ratios are reported exactly.
    """
    two_theta = 2.0 * np.asarray(theta_deg, dtype=float)
    kappa = np.where(two_theta == 0.0, 1.0,
                     np.where(two_theta == 90.0, 0.0, np.cos(np.deg2rad(two_theta))))
    return kappa if kappa.ndim else kappa.item()
