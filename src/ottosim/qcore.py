"""Dense complex linear algebra and density-operator primitives.

Everything in the simulator lives in a 2-dim polarization space, a 2-dim
path space, or their 4-dim product.  The fixed ordering convention is
polarization (x) path, with basis

    |H> = |0>_S,  |V> = |1>_S   (polarization / system)
    k0  = |0>_R,  k1  = |1>_R   (path / reservoir)

so joint basis index = 2*pol + path.  All entropies are in nats.

Matrices are plain complex ndarrays of shape (2, 2) or (4, 4), and Kraus
sets plain (k, d, d) stacks; the only wrapped type is
:class:`DensityOperator` (validated, immutable).  A stacked check is one
defect column per slice, compared with its bound by :func:`gate`.
"""

import numpy as np

__all__ = [
    "TOL",
    "ID2",
    "ID4",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "KET_H",
    "KET_V",
    "KET_PSI_RC",
    "QuantumValueError",
    "SupportError",
    "DensityOperator",
    "partial_trace_path",
    "wrap_validated",
    "gate",
    "DENSITY_GATE",
    "density_defects",
    "density_failures",
    "density_spectra",
    "spectra",
    "kraus_errors",
    "trace_path",
    "entropies",
    "eig_herm",
    "eigh2",
    "von_neumann_entropy",
    "relative_entropy",
    "fidelity",
]

# Single tuning point for every numerical tolerance used by the package
# and its acceptance tests.
TOL = {
    "herm": 1e-12,          # max-norm Hermiticity defect of a density operator
    "trace": 1e-12,         # |tr(rho) - 1|
    "psd": -1e-10,          # smallest admissible eigenvalue of a density operator
    "kraus": 1e-12,         # completeness defect of a Kraus set
    "unitary": 1e-12,       # unitarity defect of optical elements
    "eig_herm_input": 1e-10,    # Hermiticity required by eig_herm
    "eig_clamp": 1e-14,     # eigenvalues below this are treated as 0 in logs
    "support": 1e-12,       # relative_entropy: sigma eigenvalues below this are outside support
    "dilation_vs_kraus": 1e-12,  # agreement of the two PD realizations
    "dsl_vs_api": 1e-12,    # .otto circuit snapshots vs the same strokes built by hand
    "energy": 1e-9,         # closed-form vs state-derived energetics, first law
    "entropy_identity": 1e-9,    # Delta S - beta Q vs relative entropy
    "cycle_closure": 1e-10,      # final vs initial polarization state
    "spectrum": 1e-10,      # spectrum shift across a unitary stroke
    "roundtrip": 1e-12,     # tomography measure -> stokes -> reconstruct
    "stokes_physical": 1e-9,     # admissible Bloch-vector norm excess
    "golden_fidelity": 0.98,     # simulator vs experimental matrices
}

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

KET_H = np.array([1, 0], dtype=complex)
KET_V = np.array([0, 1], dtype=complex)
# Right-circular polarization (|H> - i|V>)/sqrt(2); -1 eigenstate of sigma_y.
KET_PSI_RC = np.array([1, -1j], dtype=complex) / np.sqrt(2)

for _m in (ID2, ID4, SIGMA_X, SIGMA_Y, SIGMA_Z, KET_H, KET_V, KET_PSI_RC):
    _m.flags.writeable = False


class QuantumValueError(ValueError):
    """Raised when a matrix violates a structural invariant."""


class SupportError(QuantumValueError):
    """Raised when relative entropy diverges (support violation)."""


def _as_square(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise QuantumValueError(f"{name} must be 2x2 or 4x4, got shape {a.shape}")
    return a


class DensityOperator:
    """Validated, immutable density operator on 1 or 2 qubits.

    Construction checks Hermiticity, unit trace and positivity against the
    central tolerance table and raises :class:`QuantumValueError` on any
    violation.  The underlying array is frozen; operations return new
    instances.
    """

    __slots__ = ("matrix", "label")

    def __init__(self, matrix, label=None):
        m = _as_square(matrix, "density operator").copy()
        _raise_first(density_failures(m[None]))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("DensityOperator is immutable")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def __eq__(self, other):
        """Equal matrices, entry for entry; the label is not compared."""
        if not isinstance(other, DensityOperator):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"DensityOperator(dim={self.dim}{tag})"


def wrap_validated(matrix, label=None):
    """A DensityOperator around a read-only matrix that already passed its checks.

    The engine validates whole stacks with :func:`density_failures` or
    :func:`density_spectra` and wraps the surviving slices with this instead
    of checking each one again.
    """
    out = object.__new__(DensityOperator)
    object.__setattr__(out, "matrix", matrix)
    object.__setattr__(out, "label", label)
    return out


def gate(defects, bounds, messages, *context):
    """Position -> message of each row of an (N, K) (or, for one check, (N,)) defect array failing
    a check: row i passes check k where ``defects[i, k] <= bounds[k]``, so NaN fails, and a failing
    row gets ``messages[k](defect, i, *context)`` of its first failing k (a template's ``format``
    reads the defect alone).  Passing rows cost one comparison and one ``.all()``, nothing more.
    """
    ok = defects <= bounds
    if ok.all():
        return {}
    ok, defects = ok.reshape(len(ok), -1), defects.reshape(len(ok), -1)
    return {i: messages[k](defects[i, k], i, *context)
            for i, k in enumerate(ok.argmin(axis=1).tolist()) if not ok[i, k]}


def _raise_first(errors):
    # a gate's verdict on a single matrix, or on a stack checked whole: its first failure raised
    if errors:
        raise QuantumValueError(errors[min(errors)])


def eigh2(stack):
    """Ascending eigenvalues of each slice of a (..., 2, 2) stack, in closed form.

    Reads the real diagonal a, d and the lower entry b, as LAPACK does.  With m = (a + d)/2,
    h = (a - d)/2, r = hypot(h, |b|) and s = r + |h|, the eigenvalues m -+ r are min(a, d) - t
    and max(a, d) + t, t = |b|^2/s: no cancellation when r << |m|, exactly a, d when b = 0.
    """
    m = stack.reshape(-1, 4)
    a, d, b = m[:, 0].real, m[:, 3].real, m[:, 2]
    h, bb = 0.5 * (a - d), np.abs(b)
    s = np.maximum(np.hypot(h, bb) + np.abs(h), 5e-324)  # r + |h|, 0 only where b = 0
    t = bb * (bb / s)
    return np.array((np.minimum(a, d) - t, np.maximum(a, d) + t)).T.reshape(stack.shape[:-1])


def _herm_defect(stack):
    # the max-norm Hermiticity defect of each slice of an (M, d, d) stack (under the caller's
    # np.errstate(over="ignore", invalid="ignore"): inf past the float range); |s10 - s01*| is
    # |s01 - s10*|, so a 2x2 stack takes the max of three entry planes, one pass over each
    if stack.shape[1:] == (2, 2):
        a, b, c, d = stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1]
        return np.maximum(np.maximum(np.abs(a - a.conj()), np.abs(d - d.conj())),
                          np.abs(b - c.conj()))
    return np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


# The DensityOperator checks as gate columns: Hermiticity defect, |tr - 1|, and -lambda_min against
# -TOL["psd"] (negation is exact); the trace message prints slice i's tr[i].real, not the defect.
DENSITY_GATE = (np.array([TOL["herm"], TOL["trace"], -TOL["psd"]]), (
    "not Hermitian: defect {:.3g}".format,
    lambda d, i, tr: f"trace {tr[i].real:.15g} != 1",
    lambda d, i, tr: f"not positive semidefinite: min eigenvalue {-d:.3g}"))


def density_defects(stack):
    """The DensityOperator checks of each slice of an (N, d, d) stack, as DENSITY_GATE reads them.

    Returns the ascending eigh2 (2x2) or LAPACK (4x4) eigenvalues, the (N, 3) defects and the
    traces, with np.trace's bits: (d0 + d1) + (d2 + d3) for four.  A 2x2 slice's Hermiticity
    defect is a max over entry planes, with the bits of the max over its four entries.
    """
    eig = eigh2 if stack.shape[-1] == 2 else np.linalg.eigvalsh
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range is inf
        herm = _herm_defect(stack)
        if np.isfinite(stack).all():
            lam = eig(stack)
        else:  # a slice holding NaN or inf fails Hermiticity first and gets NaN eigenvalues
            skip = ~np.isfinite(herm)
            lam = eig(stack if eig is eigh2 else np.where(skip[..., None, None], 0.0, stack))
            lam[skip] = np.nan
        trace = stack[:, 0, 0] + stack[:, 1, 1]
        if stack.shape[-1] == 4:
            trace = trace + (stack[:, 2, 2] + stack[:, 3, 3])
        defects = np.empty((len(stack), 3))
        defects[:, 0], defects[:, 1], defects[:, 2] = herm, np.abs(trace - 1.0), -lam[:, 0]
    return lam, defects, trace


def density_failures(stack):
    """Apply the DensityOperator checks to each slice of an (N, d, d) stack.

    Returns a dict mapping the position of each failing slice to the message the
    constructor would raise for it; :func:`density_spectra` also returns the eigenvalues.
    """
    _, defects, trace = density_defects(stack)
    return gate(defects, *DENSITY_GATE, trace)


def _kraus_defects(stack):
    # max-norm defect of sum_k K^dag K - 1 per Kraus set of an (N, k, d, d) stack, the sums as
    # one einsum (within a few ulp of the per-operator matmul sum)
    total = np.einsum("nkji,nkjl->nil", stack.conj(), stack)
    d = stack.shape[-1]
    return np.abs(total - (ID2 if d == 2 else np.eye(d))).max(axis=(-2, -1))


_KRAUS_MESSAGE = "incomplete Kraus set: defect {:.3g}".format


def kraus_errors(stack):
    """Completeness check of each Kraus set in an (N, k, d, d) stack; position -> message."""
    return gate(_kraus_defects(stack), TOL["kraus"], (_KRAUS_MESSAGE,))


def partial_trace_path(rho4):
    """Trace out the path (reservoir) factor of a two-qubit density operator."""
    if not isinstance(rho4, DensityOperator):
        rho4 = DensityOperator(rho4)
    if rho4.dim != 4:
        raise QuantumValueError("partial_trace_path expects a 4x4 density operator")
    return DensityOperator(trace_path(rho4.matrix))


def trace_path(stack):
    """Trace the path factor out of a (..., 4, 4) array, unvalidated, keeping its leading axes."""
    return np.einsum("...ikjk->...ij", stack.reshape(*stack.shape[:-2], 2, 2, 2, 2))


def eig_herm(m):
    """Eigendecomposition of a Hermitian 2x2 or 4x4 matrix by LAPACK.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvector columns phase-fixed so the first component of magnitude
    above 1e-12 is real positive.
    """
    m = _as_square(m, "eig_herm input")
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range is inf
        _raise_first(gate(_herm_defect(m[None]), TOL["eig_herm_input"],  # so every entry is finite
                          ("eig_herm needs a Hermitian matrix: defect {:.3g}".format,)))
    lam, vec = np.linalg.eigh(m)
    lam, vec = lam[::-1].copy(), vec[:, ::-1]
    # each unit column divided by the phase of its first entry above 1e-12
    lead = vec[(np.abs(vec) > 1e-12).argmax(axis=0), range(len(lam))]
    return lam, vec / (lead / np.abs(lead))


def _spectrum(rho):
    # a density operator, or a matrix checked as its constructor checks it, and its spectrum
    m = rho.matrix if isinstance(rho, DensityOperator) else _as_square(rho, "density operator")
    _, lam, errors = density_spectra(m[None])
    _raise_first(errors)
    return m, lam[0]


def von_neumann_entropy(rho):
    """S = -sum lam ln lam in nats, with 0 ln 0 := 0."""
    return float(entropies(_spectrum(rho)[1]))


def relative_entropy(rho, sigma):
    """Quantum relative entropy D(rho || sigma) = tr rho ln rho - tr rho ln sigma.

    Raises :class:`SupportError` when rho has weight above TOL["support"] on
    an eigenvalue of sigma below it (the divergence would be +inf).
    """
    m, lam = _spectrum(rho)
    m_s, lam_s = _spectrum(sigma)
    if m.shape != m_s.shape:
        raise QuantumValueError("relative_entropy needs operators of equal dimension")
    vec_s = eig_herm(m_s)[1]  # its columns in the descending order of lam_s
    weights = np.einsum("ji,jk,ki->i", vec_s.conj(), m, vec_s).real
    inside = lam_s >= TOL["support"]
    outside = np.flatnonzero(~inside & (weights > TOL["support"]))
    if outside.size:
        j = outside[0]
        raise SupportError(
            f"support violation: weight {weights[j]:.3g} on eigenvalue {lam_s[j]:.3g}")
    tr_rho_ln_sigma = float(np.sum(weights[inside] * np.log(lam_s[inside])))
    return float(-entropies(lam) - tr_rho_ln_sigma)


def density_spectra(stack):
    """:func:`density_failures` and the entropy spectra of an (N, d, d) stack, eigenvalues only.

    Returns (lam, spec, errors): the ascending eigenvalues, their :func:`spectra` and position ->
    message of each failing slice.  Their Hermiticity bound TOL["herm"] is at most eig_herm's
    TOL["eig_herm_input"], so a slice that passes is one eig_herm accepts.
    """
    lam, defects, trace = density_defects(stack)
    return lam, spectra(lam), gate(defects, *DENSITY_GATE, trace)


def spectra(lam):
    """The descending spectra of ascending eigenvalues, those below TOL["eig_clamp"] set to 0."""
    spec = lam[..., ::-1]
    return np.where(spec < TOL["eig_clamp"], 0.0, spec)


def entropies(lam):
    """von Neumann entropy in nats of each clamped spectrum from :func:`spectra`.

    Two terms sum in one pass over the rows as numpy's sum does, from 0.0: 0.0 + (t0 + t1).
    ``np.where(s < 0.0, 0.0, s)`` keeps what max(s, 0.0) keeps: a pure state's -0.0, and NaN.
    """
    t = lam * np.log(np.where(lam > 0.0, lam, 1.0))
    s = -(0.0 + (t[..., 0] + t[..., 1]) if t.shape[-1] == 2 else t.sum(axis=-1))
    return np.where(s < 0.0, 0.0, s)


def fidelity(rho, sigma):
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    For a pure sigma this equals <psi|rho|psi>.  Qubit states only, through
    the exact closed form tr(rho sigma) + 2 sqrt(det rho det sigma), which
    avoids the precision loss of the matrix square roots near pure states.
    """
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho)
    if not isinstance(sigma, DensityOperator):
        sigma = DensityOperator(sigma)
    if rho.dim != sigma.dim:
        raise QuantumValueError("fidelity needs operators of equal dimension")
    if rho.dim != 2:
        raise QuantumValueError("fidelity is implemented for qubit states")
    overlap = float(np.trace(rho.matrix @ sigma.matrix).real)
    det_prod = float((np.linalg.det(rho.matrix) * np.linalg.det(sigma.matrix)).real)
    return min(max(overlap + 2.0 * np.sqrt(max(det_prod, 0.0)), 0.0), 1.0)
