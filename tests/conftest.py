"""Shared helpers: seeded random states and matrices, and single-matrix references."""

import numpy as np
import pytest

from ottosim.optics import BLOCK_GATE, dephasing_blocks
from ottosim.qcore import DensityOperator, gate, kraus_errors


def random_density(rng, dim=2):
    """Full-rank random density operator (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def pure(ket):
    """The DensityOperator |v><v| of the normalized ket."""
    v = np.asarray(ket, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()))


def random_pure(rng, dim=2):
    return pure(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def apply_kraus(rho, kraus):
    """Reference channel rho -> sum_k K_k rho K_k^dag of a DensityOperator through a (k, d, d)
    Kraus set, its completeness checked by kraus_errors; the result a DensityOperator."""
    kraus = np.asarray(kraus, dtype=complex)
    assert kraus_errors(kraus[None]) == {}
    return DensityOperator(sum(k @ rho.matrix @ k.conj().T for k in kraus))


def random_hermitian(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_unitary(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_errors(pd_theta, ipd_theta):
    """dephasing_blocks with its defects read through BLOCK_GATE: (pd, ipd, PD Kraus pairs,
    pd_errors, ipd_errors), each errors dict mapping the position in its list of each failing
    angle to its message."""
    pd, ipd, kraus, defects = dephasing_blocks(pd_theta, ipd_theta)
    errors = gate(defects, *BLOCK_GATE)
    return (pd, ipd, kraus, {i: m for i, m in errors.items() if i < len(pd)},
            {i - len(pd): m for i, m in errors.items() if i >= len(pd)})


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
