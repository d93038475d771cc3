"""Two-qubit Weyl (KAK / Cartan) decomposition.

Any two-qubit unitary ``U`` factors as::

    U = exp(i*phase) * (K1l (x) K1r) @ CAN(a, b, c) @ (K2l (x) K2r)

where ``CAN(a, b, c) = exp(i * (a XX + b YY + c ZZ))`` is the *canonical
gate* and the ``K`` factors are one-qubit ``SU(2)`` gates.  This is the
mathematical engine behind the ``ConsolidateBlocks`` transpiler pass (the
unitary-preserving peephole optimization the paper compares RPO against,
Sec. II-B / V-D) and behind the two-qubit synthesis routines.

Implementation notes
--------------------
The algorithm follows the standard magic-basis construction:

1. normalise ``U`` into ``SU(4)``;
2. conjugate into the magic basis, where ``SU(2) (x) SU(2)`` becomes
   ``SO(4)`` and ``CAN`` becomes diagonal;
3. simultaneously diagonalise the real and imaginary parts of the complex
   symmetric matrix ``M^T M`` with a *deterministic* eigenspace refinement
   (no random retries), giving a real orthogonal ``P`` and eigenphases;
4. the half-eigenphases determine ``(a, b, c)`` through the fixed sign
   matrix ``G`` (the magic-basis spectra of XX/YY/ZZ), and the orthogonal
   factors give the local gates.

The eigenphases are sorted descending, which makes the returned coordinate
triple a deterministic function of the local-equivalence class.  The CNOT
cost test (:func:`num_cnots_required`) uses the Shende--Bullock--Markov
trace invariants of ``M^T M``; its stacked form lives in
:func:`repro.linalg.batch.num_cnots_required_batch`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.linalg.kron import decompose_kron

__all__ = [
    "MAGIC_BASIS",
    "WeylDecomposition",
    "weyl_decompose",
    "canonical_gate",
    "weyl_coordinates",
    "num_cnots_required",
]

#: Magic basis ``B``: columns are the magic Bell states.  Conjugation by
#: ``B`` maps ``SU(2) (x) SU(2)`` onto ``SO(4)`` and diagonalises XX/YY/ZZ.
MAGIC_BASIS = (1 / np.sqrt(2)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)

_MAGIC_DAG = MAGIC_BASIS.conj().T

#: Magic-basis eigenvalue signs of XX, YY, ZZ (verified numerically):
#: ``B^dag (P (x) P) B = diag(G[:, i])`` for ``P`` in ``(X, Y, Z)``.
_G = np.array(
    [
        [1, -1, 1],
        [1, 1, -1],
        [-1, -1, -1],
        [-1, 1, 1],
    ],
    dtype=float,
)


def canonical_gate(a: float, b: float, c: float) -> np.ndarray:
    """Matrix of ``CAN(a, b, c) = exp(i*(a XX + b YY + c ZZ))``.

    Computed exactly through the magic-basis diagonal form (no matrix
    exponential needed).
    """
    theta = _G @ np.array([a, b, c], dtype=float)
    return MAGIC_BASIS @ (np.exp(1j * theta)[:, None] * _MAGIC_DAG)


@dataclasses.dataclass(frozen=True)
class WeylDecomposition:
    """Result of :func:`weyl_decompose`.

    Attributes:
        K1l, K1r: left (output-side) one-qubit ``SU(2)`` factors.
        a, b, c: canonical-gate coordinates (a deterministic class
            representative; *not* folded into the Weyl chamber).
        K2l, K2r: right (input-side) one-qubit ``SU(2)`` factors.
        phase: global phase angle.

    The reconstruction is::

        exp(i*phase) * kron(K1l, K1r) @ CAN(a, b, c) @ kron(K2l, K2r)
    """

    K1l: np.ndarray
    K1r: np.ndarray
    a: float
    b: float
    c: float
    K2l: np.ndarray
    K2r: np.ndarray
    phase: float

    @property
    def coordinates(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def reconstruct(self) -> np.ndarray:
        """Multiply the factors back together (used for verification)."""
        return (
            np.exp(1j * self.phase)
            * np.kron(self.K1l, self.K1r)
            @ canonical_gate(self.a, self.b, self.c)
            @ np.kron(self.K2l, self.K2r)
        )


def _simultaneously_diagonalize_symmetric(
    m2: np.ndarray, degeneracy_tol: float = 1e-7
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise a complex *symmetric unitary* ``m2`` as ``P D P^T``.

    ``P`` is real orthogonal.  Works by diagonalising the real part and then
    refining degenerate eigenspaces with the imaginary part (the two parts
    commute because ``m2`` is symmetric and normal).
    """
    real_part = 0.5 * (m2.real + m2.real.T)
    imag_part = 0.5 * (m2.imag + m2.imag.T)
    eigvals, basis = np.linalg.eigh(real_part)
    start = 0
    size = len(eigvals)
    while start < size:
        stop = start + 1
        while stop < size and abs(eigvals[stop] - eigvals[start]) < degeneracy_tol:
            stop += 1
        if stop - start > 1:
            block = basis[:, start:stop].T @ imag_part @ basis[:, start:stop]
            _, refinement = np.linalg.eigh(0.5 * (block + block.T))
            basis[:, start:stop] = basis[:, start:stop] @ refinement
        start = stop
    diag = basis.T @ m2 @ basis
    off = np.abs(diag - np.diag(np.diag(diag))).max()
    if off > 1e-6:
        raise np.linalg.LinAlgError(
            f"simultaneous diagonalization failed (off-diagonal {off:.2e})"
        )
    return basis, np.diag(diag)


def weyl_decompose(unitary: np.ndarray) -> WeylDecomposition:
    """Compute the Weyl decomposition of a two-qubit unitary.

    The qubit-ordering convention is that of the matrix itself: the left
    tensor factor acts on the first (most significant) index.  Callers that
    use little-endian circuits must map accordingly (see
    :mod:`repro.linalg.two_qubit_synthesis`).
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {unitary.shape}")
    det = np.linalg.det(unitary)
    if abs(abs(det) - 1.0) > 1e-6:
        raise ValueError("matrix is not unitary (|det| != 1)")
    phase0 = np.angle(det) / 4
    special = unitary * np.exp(-1j * phase0)

    magic = _MAGIC_DAG @ special @ MAGIC_BASIS
    m2 = magic.T @ magic
    basis, eigvals = _simultaneously_diagonalize_symmetric(m2)
    eigvals = eigvals / np.abs(eigvals)

    theta = np.angle(eigvals) / 2  # branch (-pi/2, pi/2]
    # Snap the branch cut: an eigenvalue of -1 +/- epsilon lands on theta of
    # +/- pi/2 unstably; fold the negative side up so equal-class inputs get
    # identical representatives (shifting theta by pi leaves D^2 unchanged).
    theta = np.where(theta < -np.pi / 2 + 1e-8, theta + np.pi, theta)
    order = np.argsort(-theta, kind="stable")
    theta = theta[order]
    basis = basis[:, order]
    if np.linalg.det(basis) < 0:
        basis[:, -1] = -basis[:, -1]
    # det(D) must be +1; the eigenphase sum is a multiple of pi, and shifting
    # one phase by pi flips the sign of exp(i*theta) without changing D^2.
    total = theta.sum()
    k = round(total / np.pi)
    if k != 0:
        theta = theta.copy()
        theta[-1] -= k * np.pi

    diag = np.exp(1j * theta)
    a = (theta[0] + theta[1] - theta[2] - theta[3]) / 4
    b = (-theta[0] + theta[1] - theta[2] + theta[3]) / 4
    c = (theta[0] - theta[1] - theta[2] + theta[3]) / 4

    o1 = magic @ basis @ np.diag(1 / diag)
    if np.abs(o1.imag).max() > 1e-6:
        raise np.linalg.LinAlgError("left orthogonal factor is not real")
    k1 = MAGIC_BASIS @ o1.real @ _MAGIC_DAG
    k2 = MAGIC_BASIS @ basis.T @ _MAGIC_DAG
    ph1, k1l, k1r = decompose_kron(k1)
    ph2, k2l, k2r = decompose_kron(k2)
    phase = phase0 + np.angle(ph1) + np.angle(ph2)
    return WeylDecomposition(
        K1l=k1l, K1r=k1r, a=float(a), b=float(b), c=float(c),
        K2l=k2l, K2r=k2r, phase=float(phase),
    )


def weyl_coordinates(unitary: np.ndarray) -> tuple[float, float, float]:
    """Return only the canonical-gate coordinates of ``unitary``."""
    decomposition = weyl_decompose(unitary)
    return decomposition.coordinates


def num_cnots_required(unitary: np.ndarray, atol: float = 1e-8) -> int:
    """Minimum number of CNOT gates needed to implement ``unitary``.

    The ``N = 1`` case of :func:`repro.linalg.batch.num_cnots_required_batch`
    (the Shende--Bullock--Markov trace tests on the magic-basis Gram matrix
    ``M^T M``), so a block's budget is the same whether it is screened in a
    stack or computed alone at the start of synthesis.
    """
    from repro.linalg.batch import num_cnots_required_batch

    return int(num_cnots_required_batch(np.asarray(unitary)[None], atol=atol)[0])
