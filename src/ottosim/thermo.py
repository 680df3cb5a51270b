"""Thermodynamics of the four-stroke cycle on a polarization qubit.

The working Hamiltonian is H = hbar omega sigma_y; its thermal state at
inverse temperature beta is (1/2)(1 - tanh(x) sigma_y) with the single
dimensionless knob x = hbar omega beta.  Energies are reported in units of
hbar omega0, temperatures as x values, entropies in nats.

Sign conventions: W > 0 means work performed on the qubit, Q > 0 means heat
flowing into it, so over a closed cycle W_AB + Q_BC + W_CD + Q_DA = 0 and
the hot stroke has Q_BC > 0 while the cold stroke has Q_DA < 0.  Heat is
computed as tr{H (rho_end - rho_start)} at constant H; work as the internal
energy change across a unitary stroke with the endpoint Hamiltonians.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qcore import (
    ID2,
    SIGMA_Y,
    DensityOperator,
    QuantumValueError,
    relative_entropy,
    von_neumann_entropy,
)

__all__ = [
    "EngineParams",
    "ThermalState",
    "CycleLedger",
    "EntropyProduction",
    "hamiltonian",
    "thermal_state",
    "thermal_matrices",
    "expectations",
    "hot_x_from_kappa",
    "hot_x_column",
    "closed_form_energies",
    "closed_form_energetics",
    "ledger_columns",
    "work_from_states",
    "heat_from_states",
    "entropy_production",
]


@dataclass(frozen=True)
class EngineParams:
    """Operating point: gap ratio n and cold-bath scale x_c = hbar omega0 beta_c."""

    n: float = 2.0
    x_c: float = 3.0

    def __post_init__(self):
        if not 1.0 < self.n < math.inf:
            raise QuantumValueError(f"gap ratio n = {self.n:.6g} must be finite and exceed 1")
        if not 0.0 < self.x_c < math.inf:
            raise QuantumValueError(f"x_c = {self.x_c:.6g} must be finite and positive")


@dataclass(frozen=True)
class ThermalState:
    """Thermal state (1/2)(1 - tanh(x) sigma_y) together with its x."""

    rho: DensityOperator
    x: float


def hamiltonian(omega):
    """H = omega sigma_y in hbar omega0 units (pass omega as a ratio to omega0)."""
    return omega * SIGMA_Y


def thermal_matrices(xs):
    """Unvalidated (N, 2, 2) stack of the thermal_state(x) matrix for each x in xs."""
    t = np.array([math.tanh(x) for x in xs])
    return 0.5 * (ID2 - t[:, None, None] * SIGMA_Y)


def thermal_state(x):
    """Thermal state of hbar omega sigma_y at dimensionless x = hbar omega beta."""
    if x < 0.0:
        raise QuantumValueError(f"x = {x:.6g} must be nonnegative")
    return ThermalState(rho=DensityOperator(thermal_matrices([x])[0]), x=float(x))


def hot_x_from_kappa(kappa, params):
    """Map the dephasing multiplier kappa to the simulated hot-bath scale.

    x_h = arctanh(kappa * tanh(x_c)), the inverse-temperature setting for
    which the post-dephasing state is thermal at the expanded gap.  Also
    returns r = x_h / x_c, the (omega_fin beta_h)/(omega_ini beta_c) ratio.
    The endpoints kappa = 1 and kappa = 0 are returned exactly.
    """
    x_h = hot_x_column(np.array([kappa], dtype=float), params)[0]
    return x_h, x_h / params.x_c


def hot_x_column(kappa, params):
    """The x_h of :func:`hot_x_from_kappa` at each kappa of an array, as a list of floats."""
    outside = np.flatnonzero(~((kappa >= 0.0) & (kappa <= 1.0)))  # NaN included
    if outside.size:
        raise QuantumValueError(f"kappa = {kappa[outside[0]]:.6g} outside [0, 1]")
    x_c, t_c = params.x_c, math.tanh(params.x_c)
    return [x_c if k == 1.0 else 0.0 if k == 0.0 else math.atanh(k * t_c) for k in kappa.tolist()]


class CycleLedger(NamedTuple):
    """Per-cycle record of energetics and entropy production.

    theta_v is stored in radians; energies in hbar omega0 units; Sigma
    values in nats.  r is the ratio (omega_fin beta_h)/(omega_ini beta_c),
    which is what the cycle sweep is ordered by.
    """

    theta_v: float
    kappa: float
    r: float
    W_AB: float
    Q_BC: float
    W_CD: float
    Q_DA: float
    dU_cycle: float
    W_extracted: float
    Sigma_e: float
    Sigma_c: float
    Sigma_cycle: float


def _log_populations(x):
    """log((1 + tanh x)/2) and log((1 - tanh x)/2) for x >= 0, never forming 1 - tanh x."""
    tail = math.log1p(math.exp(-2.0 * x))
    return -tail, -2.0 * x - tail


def _classical_kl(log_p, log_q):
    """Two-outcome divergence D(p || q) from the log populations of p and q."""
    return sum(math.exp(lp) * (lp - lq) for lp, lq in zip(log_p, log_q))


def closed_form_energies(kappa, params):
    """Closed-form (W_AB, Q_BC, W_CD, Q_DA) at each dephasing multiplier of an array.

    With t_c = tanh(x_c) and t_h = kappa t_c:

        W_AB = -(n - 1) t_c        Q_BC = n (t_c - t_h)
        W_CD =  (n - 1) t_h        Q_DA = -(t_c - t_h)

    Returns a (4, N) array.  tanh(x_c) is one ``math`` scalar and kappa meets
    only IEEE products and differences, so every entry has the bits of the
    same formula evaluated on Python floats.
    """
    n, t_c = params.n, math.tanh(params.x_c)
    t_h = kappa * t_c
    w_ab = np.full_like(t_h, -(n - 1.0) * t_c)
    return np.stack([w_ab, n * (t_c - t_h), (n - 1.0) * t_h, -(t_c - t_h)])


def closed_form_energetics(kappa, params):
    """Closed-form ledger for a cycle at dephasing multiplier kappa.

    The energies are :func:`closed_form_energies` at N = 1; the entropy
    productions are the aligned two-outcome divergences between the
    post-stroke states and their thermalization targets.
    """
    x_h, r = hot_x_from_kappa(kappa, params)  # checks the range of kappa
    energies = closed_form_energies(np.array([kappa]), params)
    log_cold, log_hot = _log_populations(params.x_c), _log_populations(x_h)
    sigma_e = _classical_kl(log_cold, log_hot)
    sigma_c = _classical_kl(log_hot, log_cold)
    theta_v = 0.5 * math.acos(min(max(kappa, -1.0), 1.0))
    columns = ledger_columns(*np.array([[kappa], [r]]), energies, *np.array([[sigma_e], [sigma_c]]))
    return CycleLedger(theta_v, *np.array(columns)[:, 0].tolist())


def ledger_columns(kappa, r, energies, sigma_e, sigma_c):
    """The eleven CycleLedger fields after theta_v, in order, as a list of (N,) arrays.

    Every argument is an (N,) array, ``energies`` the (4, N) W_AB, Q_BC, W_CD and Q_DA;
    dU_cycle, W_extracted and Sigma_cycle are derived from them and the two entropy
    productions.
    """
    w_ab, q_bc, w_cd, q_da = energies
    return [kappa, r, *energies, w_ab + q_bc + w_cd + q_da, np.abs(q_bc) - np.abs(q_da),
            sigma_e, sigma_c, sigma_e + sigma_c]


def expectations(h, stack):
    """tr(H rho) of a 2x2 rho or of each slice of a stack, against one H or one H per slice.

    One einsum; for H = omega sigma_y each value has the bits of ``np.trace(h @ rho).real``.
    """
    return np.einsum("...ij,...ji->...", h, stack).real


def work_from_states(rho_start, rho_end, h_start, h_end):
    """Work across a unitary stroke: tr{rho_end H_end} - tr{rho_start H_start}."""
    if rho_start.dim != h_start.shape[0] or rho_end.dim != h_end.shape[0]:
        raise QuantumValueError("work_from_states: state/Hamiltonian dimension mismatch")
    return float(expectations(h_end, rho_end.matrix) - expectations(h_start, rho_start.matrix))


def heat_from_states(rho_start, rho_end, h):
    """Heat across a constant-Hamiltonian stroke: tr{H (rho_end - rho_start)}.

    Positive when internal energy rises, so the hot thermalization yields
    Q > 0 and the cold one Q < 0.
    """
    if rho_start.dim != h.shape[0] or rho_end.dim != h.shape[0]:
        raise QuantumValueError("heat_from_states: state/Hamiltonian dimension mismatch")
    return float(expectations(h, rho_end.matrix) - expectations(h, rho_start.matrix))


class EntropyProduction(NamedTuple):
    """Both evaluations of the irreversible entropy of one thermalization."""

    from_balance: float      # Delta S - beta Q
    from_divergence: float   # D(rho_after_unitary || thermal target)


def entropy_production(rho_after_unitary, target, x, q):
    """Entropy produced relaxing rho_after_unitary to the thermal target.

    ``q`` must be the heat of the relaxation in units of hbar omega for the
    *same* omega that defines x, so beta Q reduces to x * q.  Returns both
    Delta S - beta Q and the relative entropy to the target; the two agree
    identically whenever q is the heat into the exact target state.
    """
    d_s = von_neumann_entropy(target.rho) - von_neumann_entropy(rho_after_unitary)
    balance = d_s - x * q
    divergence = relative_entropy(rho_after_unitary, target.rho)
    return EntropyProduction(from_balance=balance, from_divergence=divergence)
