"""Dense complex linear algebra and density-operator primitives.

Everything in the simulator lives in a 2-dim polarization space, a 2-dim
path space, or their 4-dim product.  The fixed ordering convention is
polarization (x) path, with basis

    |H> = |0>_S,  |V> = |1>_S   (polarization / system)
    k0  = |0>_R,  k1  = |1>_R   (path / reservoir)

so joint basis index = 2*pol + path.  All entropies are in nats.

Matrices are plain complex ndarrays of shape (2, 2) or (4, 4); the only
wrapped types are :class:`DensityOperator` (validated, immutable) and
:class:`KrausSet` (completeness-checked).
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
    "KrausSet",
    "tensor",
    "partial_trace_path",
    "wrap_validated",
    "density_operators",
    "first_errors",
    "density_errors",
    "density_failures",
    "density_spectra",
    "kraus_errors",
    "trace_path",
    "spectra",
    "entropies",
    "support_weights",
    "apply_kraus",
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
    "support": 1e-12,       # sigma eigenvalues below this count as outside support
    "dilation_vs_kraus": 1e-12,  # agreement of the two PD realizations
    "dsl_vs_api": 1e-12,    # .otto circuit snapshots vs the same strokes built by hand
    "energy": 1e-9,         # closed-form vs state-derived energetics, first law
    "entropy_identity": 1e-9,    # Delta S - beta Q vs relative entropy
    "cycle_closure": 1e-10,      # final vs initial polarization state
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
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range is inf
            herm, lam = _decomposed(m)
            message = _density_message(herm, np.trace(m), lam.min())
        if message:
            raise QuantumValueError(message)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("DensityOperator is immutable")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def relabel(self, label):
        return wrap_validated(self.matrix, label)

    def __eq__(self, other):
        """Equal matrices, entry for entry; the label is not compared."""
        if not isinstance(other, DensityOperator):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    @classmethod
    def from_ket(cls, ket, label=None):
        v = np.asarray(ket, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), label=label)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"DensityOperator(dim={self.dim}{tag})"


class KrausSet:
    """A completeness-checked set of Kraus operators of a common dimension."""

    __slots__ = ("operators",)

    def __init__(self, operators):
        ops = tuple(_as_square(k, "Kraus operator").copy() for k in operators)
        if not ops:
            raise QuantumValueError("Kraus set must not be empty")
        dim = ops[0].shape[0]
        if any(k.shape[0] != dim for k in ops):
            raise QuantumValueError("Kraus operators must share one dimension")
        errors = kraus_errors(np.stack(ops)[None])
        if errors:
            raise QuantumValueError(errors[0])
        for k in ops:
            k.flags.writeable = False
        object.__setattr__(self, "operators", ops)

    def __setattr__(self, name, value):
        raise AttributeError("KrausSet is immutable")

    @property
    def dim(self):
        return self.operators[0].shape[0]


def wrap_validated(matrix, label=None):
    """A DensityOperator around a read-only matrix that already passed its checks.

    The engine validates whole stacks with :func:`density_errors` and wraps
    the surviving slices with this instead of checking each one again.
    """
    out = object.__new__(DensityOperator)
    object.__setattr__(out, "matrix", matrix)
    object.__setattr__(out, "label", label)
    return out


def density_operators(matrices, labels):
    """DensityOperators of labeled 2x2 and 4x4 matrices, checked as one stack per shape.

    A Cholesky factorisation proves the 4x4 ones positive (:func:`density_failures`).
    Raises the constructor's message for the first failing matrix in order.
    """
    arrays, labels = [_as_square(m, "density operator") for m in matrices], list(labels)
    states, failures = [None] * len(arrays), []
    for dim in (2, 4):
        where = [i for i, a in enumerate(arrays) if a.shape[0] == dim]
        if not where:
            continue
        stack = np.array([arrays[i] for i in where])
        stack.flags.writeable = False
        failures += [(where[pos], message) for pos, message in density_failures(stack).items()]
        for i, m in zip(where, stack):
            states[i] = wrap_validated(m, labels[i])
    if failures:
        raise QuantumValueError(min(failures)[1])
    return states


def first_errors(*checks):
    """Merge position -> message dicts; each position keeps its first message.

    Pass the checks in the order a single-matrix code path would run them,
    so a failing row reports the check it would have stopped at.
    """
    merged = {}
    for errors in checks:
        for pos, message in errors.items():
            merged.setdefault(pos, message)
    return merged


def eigh2(stack, vectors=False):
    """Ascending eigenvalues (and eigenvector columns) of each slice of a (..., 2, 2) stack.

    Reads the real diagonal a, d and the lower entry b, as LAPACK does.  With m = (a + d)/2,
    h = (a - d)/2, r = hypot(h, |b|) and s = r + |h|, the eigenvalues m -+ r are min(a, d) - t
    and max(a, d) + t, t = |b|^2/s: no cancellation when r << |m|, exactly a, d when b = 0.
    The upper eigenvector is (1, b/s) for h > 0, else (conj b/s, 1): |b|/s <= 1, so it is
    normalized at unit scale, subnormal b and h included.
    """
    m = stack.reshape(-1, 4)
    a, d, b = m[:, 0].real, m[:, 3].real, m[:, 2]
    h, bb = 0.5 * (a - d), np.abs(b)
    s = np.maximum(np.hypot(h, bb) + np.abs(h), 5e-324)  # r + |h|, 0 only where b = 0
    t = bb * (bb / s)
    lam = np.array((np.minimum(a, d) - t, np.maximum(a, d) + t)).T.reshape(stack.shape[:-1])
    if not vectors:
        return lam
    vec = np.empty((len(m), 4), dtype=complex)  # the columns (lower, upper) in row-major order
    u = b.real / s + 1j * (b.imag / s)  # a complex division by s would overflow 1/s
    vec[:, 1], vec[:, 3] = np.where(h > 0, 1.0, u.conj()), np.where(h > 0, u, 1.0)
    vec.view(float).reshape(-1, 4, 2)[:, 1::2] /= np.hypot(1.0, np.abs(u))[:, None, None]
    vec[:, 0], vec[:, 2] = -vec[:, 3].conj(), vec[:, 1].conj()
    return lam, vec.reshape(stack.shape)


def _hermiticity_defects(stack):
    # the max-norm defect of rho - rho^dag of a matrix or of each slice of a stack
    return np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _decomposed(stack, vectors=False):
    # the max-norm Hermiticity defect and ascending eigh2 (2x2) or LAPACK (4x4) output of a matrix
    # or of each slice of a stack; a slice holding NaN or inf fails Hermiticity first and gets NaN.
    # Under the caller's np.errstate(over="ignore", invalid="ignore"): inf past the float range
    def eig(a):
        return eigh2(a, vectors) if a.shape[-1] == 2 else (
            np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a))

    herm = _hermiticity_defects(stack)
    if np.isfinite(stack).all():
        return herm, eig(stack)
    skip = ~np.isfinite(herm)
    out = eig(stack if stack.shape[-1] == 2 else np.where(skip[..., None, None], 0.0, stack))
    for part in out if vectors else (out,):
        part[skip] = np.nan
    return herm, out


def _density_message(herm, trace, lam_min):
    # the first DensityOperator check these defects fail (a NaN fails each), or None
    if not herm <= TOL["herm"]:
        return f"not Hermitian: defect {herm:.3g}"
    if not abs(trace - 1.0) <= TOL["trace"]:
        return f"trace {trace.real:.15g} != 1"  # the gate reads the complex trace
    if not lam_min >= TOL["psd"]:
        return f"not positive semidefinite: min eigenvalue {lam_min:.3g}"
    return None


def density_errors(stack):
    """Apply the DensityOperator checks to each slice of an (N, d, d) stack.

    Returns the ascending eigenvalues of every slice and a dict mapping the
    position of each failing slice to the message the constructor would
    raise for it.  A caller that reads no eigenvalues uses
    :func:`density_failures`, which gives the same dict.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range is inf
        herm, lam = _decomposed(stack)
        return lam, _density_failures(stack, lam, herm)


def density_failures(stack):
    """``density_errors(stack)[1]`` of an (N, d, d) stack, without eigenvalues where it can.

    A finite 4x4 stack whose every slice minus (TOL["psd"] + 1e-13) times 1 has a Cholesky
    factor has no eigenvalue below TOL["psd"]: only its other defects are computed.  Any
    other stack, 2x2 ones included (eigh2 costs no more), takes :func:`density_errors`.
    """
    if stack.shape[-1] == 4 and np.isfinite(stack).all():
        try:  # the factor reads the lower triangle, as eigvalsh does; 1e-13 covers both roundings
            np.linalg.cholesky(stack - (TOL["psd"] + 1e-13) * ID4)
        except np.linalg.LinAlgError:
            pass
        else:  # +inf stands for the eigenvalues the factor bounds above TOL["psd"]
            lam = np.full((len(stack), 1), np.inf)
            with np.errstate(over="ignore", invalid="ignore"):  # past the float range is inf
                return _density_failures(stack, lam, _hermiticity_defects(stack))
    return density_errors(stack)[1]


def _density_failures(stack, lam, herm):
    # position -> constructor message of each slice failing a check, given its defects (under the
    # caller's np.errstate); the traces have np.trace's bits: (d0 + d1) + (d2 + d3) for four
    trace, lam_min = stack[:, 0, 0] + stack[:, 1, 1], lam.min(axis=-1)
    if stack.shape[-1] == 4:
        trace = trace + (stack[:, 2, 2] + stack[:, 3, 3])
    ok = (herm <= TOL["herm"]) & (np.abs(trace - 1.0) <= TOL["trace"]) & (lam_min >= TOL["psd"])
    return {i: _density_message(herm[i], trace[i], lam_min[i]) for i in _failing(ok)}


def _failing(ok):
    # the flat positions where the boolean array ok is False, after one ok.all(): nothing when
    # every slice passes; callers pass `defect <= tol`, so a NaN defect fails
    return () if ok.all() else np.flatnonzero(~ok).tolist()


def _kraus_defects(stack):
    # max-norm defect of sum_k K^dag K - 1 per Kraus set of an (N, k, d, d) stack, the sums as
    # one einsum (within a few ulp of the per-operator matmul sum)
    total = np.einsum("nkji,nkjl->nil", stack.conj(), stack)
    d = stack.shape[-1]
    return np.abs(total - (ID2 if d == 2 else np.eye(d))).max(axis=(-2, -1))


def kraus_errors(stack):
    """Completeness check of each Kraus set in an (N, k, d, d) stack; position -> message."""
    defect = _kraus_defects(stack)
    return {i: f"incomplete Kraus set: defect {defect[i]:.3g}"
            for i in _failing(defect <= TOL["kraus"])}


def tensor(a, b):
    """Kronecker product of two 2x2 matrices, polarization (x) path order."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise QuantumValueError(f"tensor expects 2x2 factors, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def partial_trace_path(rho4):
    """Trace out the path (reservoir) factor of a two-qubit density operator."""
    if not isinstance(rho4, DensityOperator):
        rho4 = DensityOperator(rho4)
    if rho4.dim != 4:
        raise QuantumValueError("partial_trace_path expects a 4x4 density operator")
    return DensityOperator(trace_path(rho4.matrix[None])[0])


def trace_path(stack):
    """Trace the path factor out of each slice of an (N, 4, 4) stack, unvalidated."""
    return np.einsum("nikjk->nij", stack.reshape(-1, 2, 2, 2, 2))


def apply_kraus(rho, kraus):
    """Apply a channel rho -> sum_i K_i rho K_i^dag."""
    if not isinstance(kraus, KrausSet):
        kraus = KrausSet(kraus)
    r = rho.matrix if isinstance(rho, DensityOperator) else DensityOperator(rho).matrix
    if r.shape[0] != kraus.dim:
        raise QuantumValueError(f"dimension mismatch: state {r.shape[0]}, Kraus {kraus.dim}")
    out = sum(k @ r @ k.conj().T for k in kraus.operators)
    return DensityOperator(out)


def eig_herm(m):
    """Eigendecomposition of a Hermitian matrix (:func:`eigh2` for a qubit, LAPACK otherwise).

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvector columns phase-fixed so the first component of magnitude
    above 1e-12 is real positive.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range is inf
        defect, (lam, vec) = _decomposed(_as_square(m, "eig_herm input"), True)
    if not defect <= TOL["eig_herm_input"]:
        raise QuantumValueError(f"eig_herm needs a Hermitian matrix: defect {defect:.3g}")
    lam, vec = lam[::-1].copy(), vec[:, ::-1]
    # each unit column divided by the phase of its first entry above 1e-12
    lead = vec[(np.abs(vec) > 1e-12).argmax(axis=0), range(len(lam))]
    return lam, vec / (lead / np.abs(lead))


def _spectrum(rho):
    # a density operator, or a matrix checked as its constructor checks it, and its spectrum
    m = rho.matrix if isinstance(rho, DensityOperator) else _as_square(rho, "density operator")
    _, lam, vec, errors = density_spectra(m[None])
    if errors:
        raise QuantumValueError(errors[0])
    return m, lam, vec


def von_neumann_entropy(rho):
    """S = -sum lam ln lam in nats, with 0 ln 0 := 0."""
    return entropies(_spectrum(rho)[1])[0]


def relative_entropy(rho, sigma):
    """Quantum relative entropy D(rho || sigma) = tr rho ln rho - tr rho ln sigma.

    Raises :class:`SupportError` when rho has weight outside the support of
    sigma (the divergence would be +inf).
    """
    m, lam, _ = _spectrum(rho)
    m_s, lam_s, vec_s = _spectrum(sigma)
    if m.shape != m_s.shape:
        raise QuantumValueError("relative_entropy needs operators of equal dimension")
    weights, errors = support_weights(m, lam_s, vec_s)
    if errors:
        raise SupportError(errors[0])
    inside = lam_s >= TOL["support"]
    tr_rho_ln_sigma = float(np.sum(weights[inside] * np.log(lam_s[inside])))
    return -entropies(lam)[0] - tr_rho_ln_sigma


def spectra(stack):
    """Spectra of each Hermitian slice of an (N, d, d) stack, for entropies.

    Returns (lam, vec, errors): eigenvalues in descending order with those
    below TOL["eig_clamp"] set to 0, the matching eigenvector columns (phases
    not fixed; nothing computed from them depends on the phase) and
    position -> message for slices failing eig_herm's Hermiticity check.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range is inf
        herm, (lam, vec) = _decomposed(stack, True)
    return _clamped_spectra(herm, lam, vec)


def _clamped_spectra(defect, lam, vec):
    # spectra() of a stack from its Hermiticity defects and ascending eigh output
    lam = lam[..., ::-1]
    errors = {i: f"eig_herm needs a Hermitian matrix: defect {defect[i]:.3g}"
              for i in _failing(defect <= TOL["eig_herm_input"])}
    return np.where(lam < TOL["eig_clamp"], 0.0, lam), vec[..., ::-1], errors


def density_spectra(stack):
    """:func:`density_errors` and :func:`spectra` of an (N, d, d) stack from one eigh per slice.

    Returns (lam, spec, vec, errors): the ascending eigenvalues the density
    checks read, the spectra and eigenvectors of :func:`spectra`, and
    position -> message of each failing slice, its density check first.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range is inf
        herm, (lam, vec) = _decomposed(stack, True)
        spec, vec, bad_herm = _clamped_spectra(herm, lam, vec)
        return lam, spec, vec, first_errors(_density_failures(stack, lam, herm), bad_herm)


def entropies(lam):
    """von Neumann entropy in nats of each clamped spectrum from :func:`spectra`.

    Python's max keeps the sign of an exact zero: a pure state gives -0.0.
    """
    terms = lam * np.log(np.where(lam > 0.0, lam, 1.0))
    return [max(-s, 0.0) for s in terms.sum(axis=-1).tolist()]


def support_weights(rho, lam_s, vec_s):
    """Weights of rho on sigma's eigenvectors and the relative-entropy support check.

    ``lam_s``/``vec_s`` come from :func:`spectra` of a sigma stack; ``rho``
    is one matrix or a stack of them.  Returns the (N, d) weights and
    position -> message for each row with weight above TOL["support"] on an
    eigenvalue below it (where D(rho || sigma) would be +inf) or with a NaN
    weight or eigenvalue (where it would not be a number).
    """
    weights = np.einsum("...ji,...jk,...ki->...i", vec_s.conj(), rho, vec_s).real
    outside = (lam_s < TOL["support"]) & (weights > TOL["support"])
    errors = {}
    for pos in _failing(~(outside | np.isnan(weights + lam_s))):
        i, j = divmod(pos, weights.shape[-1])
        errors.setdefault(i, f"support violation: weight {weights[i, j]:.3g} on eigenvalue "
                             f"{np.broadcast_to(lam_s, weights.shape)[i, j]:.3g}")
    return weights, errors


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
