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

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (_KRAUS_MESSAGE, ID2, ID4, TOL, QuantumValueError, _as_square, _kraus_defects,
                    _raise_first, gate)

__all__ = [
    "OpticalElement",
    "ChannelBlock",
    "hwp",
    "qwp",
    "rotation",
    "pbs_matrix",
    "pd_block",
    "ipd_block",
    "dephasing_blocks",
    "BLOCK_GATE",
    "expansion_unitary",
    "compression_unitary",
    "kappa_from_theta_deg",
]

_P0 = np.diag([1, 0]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)
_QWP_AXES = np.diag([1.0, 1.0j])


@dataclass(frozen=True, eq=False)
class OpticalElement:
    """A single checked unitary element; ``kind`` (HWP | QWP | ROT) names it in messages."""

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        # the matrix as a read-only complex array; QuantumValueError if it is no 2x2 or 4x4 unitary
        what = f"{self.kind} element"
        m = _as_square(self.matrix, what)
        _raise_first(_not_unitary(_unitarity_defects(m[None]), what))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _unitarity_defects(stack):
    # max-norm defect of U^dag U - 1 per slice of an (N, d, d) stack, d = 2 or 4
    defect = np.abs(stack.conj().swapaxes(-1, -2) @ stack - (ID4 if stack.shape[-1] == 4 else ID2))
    return defect.max(axis=(-2, -1))


def _not_unitary(defect, what):
    # position -> message for each defect above TOL["unitary"], NaN included
    return gate(defect, TOL["unitary"], (f"{what} not unitary: defect {{:.3g}}".format,))


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
    return OpticalElement("HWP", _hwp_matrix(theta))


def rotation(alpha):
    """Polarization rotation exp(-i alpha sigma_y), an SO(2) Jones matrix."""
    return OpticalElement("ROT", _rotation_matrix(alpha))


def qwp(theta):
    """Quarter-wave plate at axis angle theta."""
    return OpticalElement("QWP", _qwp_matrix(theta))


def pbs_matrix():
    """Polarizing beam splitter on the joint space: |H> in-path, |V> cross-path."""
    return np.kron(_P0, ID2) + np.kron(_P1, np.array([[0, 1], [1, 0]], dtype=complex))


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
_PHASE_0 = _frozen(phase_on_path1(0.0))
_FLIP_PBS_PHASE = _frozen((_FLIP @ _PBS) @ _PHASE_0)


@dataclass(frozen=True, eq=False)
class ChannelBlock:
    """A composite block as its read-only dilation (joint unitary), with its read-only (2, 2, 2)
    Kraus pair if any; both as :func:`dephasing_blocks` built them and BLOCK_GATE checked them."""

    name: str
    unitary: np.ndarray
    kraus: np.ndarray | None = None


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


def _left_mul(c, stack):
    # c @ each slice of an (N, 4, 4) stack as one BLAS call, each slice with the bits of c @ slice
    return (c @ stack.swapaxes(0, 1).reshape(4, -1)).reshape(4, -1, 4).swapaxes(0, 1)


def _right_mul(stack, c):
    # each slice of an (N, 4, 4) stack @ c as one BLAS call, each slice with the bits of slice @ c
    return (stack.reshape(-1, 4) @ c).reshape(stack.shape)


def _pd_product(arms):
    return _right_mul(_left_mul(_FLIP_PBS_PHASE, arms), _PBS)


def _ipd_product(arms):
    # the three right factors as _right_mul's calls, without its reshapes between them
    return (_left_mul(_PBS, arms).reshape(-1, 4) @ _PHASE_0 @ _PBS @ _FLIP).reshape(arms.shape)


# The checks of a dephasing-block angle as gate columns: its range [0, pi/4] as -theta_v <= 0 and
# theta_v <= pi/4 + 1e-15, PD Kraus completeness (0 for an IPD) and arm-plate unitarity.
BLOCK_GATE = (np.array([0.0, np.pi / 4 + 1e-15, TOL["kraus"], TOL["unitary"]]), (
    lambda d, *_: f"theta_v = {-d:.6g} rad outside [0, pi/4]",
    "theta_v = {:.6g} rad outside [0, pi/4]".format,
    _KRAUS_MESSAGE, "HWP element not unitary: defect {:.3g}".format))


def dephasing_blocks(pd_theta, ipd_theta):
    """Dilation unitaries of a PD block per angle of ``pd_theta`` and an IPD block per angle of
    ``ipd_theta`` (radians; either list may be empty).

    The PD circuit is PBS1 -> arm plates (H arm fixed, V arm at
    hwp(pi - 2 theta_v), so |V> -> sin 2t |H> + cos 2t |V>) -> PZT at zero
    phase -> PBS2 -> HWP5; the IPD is its mirror.  Both lists share one
    arm-plate build and check per distinct angle; an empty list builds and
    checks nothing.  Returns (pd (P, 4, 4), ipd (Q, 4, 4), the PD Kraus pairs
    (P, 2, 2, 2), the (P + Q, 4) defects of ``BLOCK_GATE``), the defects' rows
    the PD angles and then the IPD angles.  Each constant stage is one BLAS
    call over the whole stack, and every slice keeps the bits of the block
    built alone.
    """
    pd_theta = np.asarray(pd_theta, dtype=float)
    count = len(pd_theta)
    theta_v = np.concatenate([pd_theta, ipd_theta])
    ordered = np.sort(theta_v)  # the distinct angles, and plate[i] the one of position i
    angles = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
    plate = np.searchsorted(angles, theta_v)
    arm_v = _hwp_matrix(np.pi - 2.0 * angles)
    arms = _arm_stage(arm_v)[plate]
    kraus = _kraus_pairs(pd_theta) if count else np.empty((0, 2, 2, 2), complex)
    pd = _pd_product(arms[:count]) if count else arms[:0]
    ipd = _ipd_product(arms[count:]) if len(arms) > count else arms[:0]
    # No block is checked for unitarity: the arm stage holds the plate beside hwp(0) bit for
    # bit, and the constant stages are permutations up to the 6.1e-17 entries of hwp(pi/2),
    # with float defect 0.0, so block defect <= plate defect + 2 ulp (a bound the tests pin).
    defects = np.zeros((len(theta_v), 4))
    defects[:, 0], defects[:, 1] = -theta_v, theta_v
    defects[:, 3] = _unitarity_defects(arm_v)[plate]
    if count:
        defects[:count, 2] = _kraus_defects(kraus)
    return pd, ipd, kraus, defects


def pd_block(theta_v):
    """Phase-damping block at wave-plate angle theta_v (radians, 0..pi/4).

    Returns both realizations: the 4-dim dilation assembled from PBS1,
    the arm wave plates, the PZT at zero phase, PBS2 and HWP5 (ancilla
    starts in k0 and is traced after), and the equivalent 2-dim Kraus pair
    diag(1, cos 2theta_v), diag(0, sin 2theta_v).
    """
    u, _, kraus, defects = dephasing_blocks([theta_v], [])
    _raise_first(gate(defects, *BLOCK_GATE))
    return ChannelBlock("PD", unitary=_frozen(u[0]), kraus=_frozen(kraus[0]))


def ipd_block(theta_v):
    """Inverted phase-damping block undoing ``pd_block(theta_v)``.

    The mirror circuit (HWP10 on k1, PBS, arm plates HWP11/HWP12, PZT2,
    PBS4) composes to the inverse of the dephasing unitary: with both PZTs
    at zero phase the joint composite satisfies ipd . pd = identity.
    """
    _, u, _, defects = dephasing_blocks([], [theta_v])
    _raise_first(gate(defects, *BLOCK_GATE))
    return ChannelBlock("IPD", unitary=_frozen(u[0]))


def _jones_parameter(n, omega0_tau):
    if n <= 1.0:
        raise QuantumValueError(f"gap ratio n = {n:.6g} must exceed 1")
    if omega0_tau < 0.0:
        raise QuantumValueError(f"omega0*tau = {omega0_tau:.6g} must be nonnegative")
    alpha = (float(n) + 1.0) * float(omega0_tau) / 2.0
    if not math.isfinite(alpha):
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
