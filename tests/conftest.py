"""Shared helpers: seeded random states and matrices."""

import numpy as np
import pytest

from ottosim.optics import BLOCK_GATE, dephasing_blocks
from ottosim.qcore import DensityOperator, gate


def random_density(rng, dim=2):
    """Full-rank random density operator (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_pure(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DensityOperator.from_ket(v)


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
