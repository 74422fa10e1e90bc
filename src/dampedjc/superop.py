"""Vectorization and superoperator construction.

A block density operator

    rho = [[rho00, rho01],
           [rho10, rho11]]

is flattened to a vector (rho00^, rho01^, rho10^, rho11^) of length 4*dim^2,
each block row-major, so that left/right multiplication becomes a Kronecker
product:  vec(E X F) = (E kron F^T) vec(X).

The master equation in this representation reads d rho^/dt = (X + Y) rho^,
with X block-diagonal (built from the su(1,1) ladder superoperators K+, K-,
K3, K0 and the dissipative part L) and Y the off-diagonal coupling
proportional to Omega.

Convention: the dissipator term a a+ is expanded as N + 1 (the operator
identity) rather than as the truncated matrix product, whose top-right
corner is defective.  This makes the explicit tensor form of L agree
entrywise with its K-form and with the componentwise right-hand side used
by the reference integrator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError, TruncationWarning
from .fock import annihilation, creation, number
from .params import ModelParams

BLOCK_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


def block_phases(p: ModelParams) -> tuple:
    """Detuning of each stacked block (rho00, rho01, rho10, rho11) under X:
    block k evolves with the extra scalar factor e^{i phase_k t}, where the
    phases are (0, -w0, +w0, 0)."""
    return (0.0, -p.omega0, p.omega0, 0.0)


# ---------------------------------------------------------------------------
# vectorization


def vectorize(X: np.ndarray) -> np.ndarray:
    """Row-major flattening (x00, x01, ..., x10, x11, ...)."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {X.shape}")
    return X.ravel().copy()


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of vectorize; length must be a perfect square."""
    v = np.asarray(v, dtype=complex).ravel()
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ShapeError(f"length {v.size} is not a perfect square")
    return v.reshape(d, d).copy()


def sandwich_superop(E: np.ndarray, F: np.ndarray) -> np.ndarray:
    """E kron F^T, so that sandwich_superop(E, F) @ vec(X) = vec(E X F)."""
    E = np.asarray(E, dtype=complex)
    F = np.asarray(F, dtype=complex)
    if E.ndim != 2 or E.shape[0] != E.shape[1]:
        raise ShapeError(f"E must be square, got shape {E.shape}")
    if F.shape != E.shape:
        raise ShapeError(f"F shape {F.shape} does not match E shape {E.shape}")
    return np.kron(E, F.T)


@dataclass
class BlockDensity:
    """2x2 block density operator over the two atomic levels."""

    rho00: np.ndarray
    rho01: np.ndarray
    rho10: np.ndarray
    rho11: np.ndarray

    def __post_init__(self):
        blocks = [np.asarray(b, dtype=complex) for b in
                  (self.rho00, self.rho01, self.rho10, self.rho11)]
        d = blocks[0].shape[0]
        for b in blocks:
            if b.shape != (d, d):
                raise ShapeError(
                    f"all blocks must be {d}x{d}, got shapes "
                    f"{[x.shape for x in blocks]}"
                )
        self.rho00, self.rho01, self.rho10, self.rho11 = blocks

    @property
    def dim(self) -> int:
        return self.rho00.shape[0]

    def block(self, i: int, j: int) -> np.ndarray:
        return getattr(self, f"rho{i}{j}")

    def full(self) -> np.ndarray:
        """Assemble the 2*dim x 2*dim matrix."""
        return np.block([[self.rho00, self.rho01], [self.rho10, self.rho11]])

    @classmethod
    def from_full(cls, M: np.ndarray) -> "BlockDensity":
        M = np.asarray(M, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
            raise ShapeError(f"expected a square even-dimensional matrix, got {M.shape}")
        d = M.shape[0] // 2
        return cls(M[:d, :d], M[:d, d:], M[d:, :d], M[d:, d:])

    @classmethod
    def zero(cls, dim: int) -> "BlockDensity":
        z = np.zeros((dim, dim), dtype=complex)
        return cls(z.copy(), z.copy(), z.copy(), z.copy())

    def trace(self) -> complex:
        return np.trace(self.rho00) + np.trace(self.rho11)

    def copy(self) -> "BlockDensity":
        return BlockDensity(self.rho00.copy(), self.rho01.copy(),
                            self.rho10.copy(), self.rho11.copy())


GUARD_LEVELS = 3
GUARD_TOL = 1e-8


def guard_occupation(rho: BlockDensity) -> float:
    """Total population in the top GUARD_LEVELS Fock levels.

    States whose weight reaches the edge of the truncated space are being
    corrupted by the cutoff; propagation routines warn when this exceeds
    GUARD_TOL.
    """
    lo = max(0, rho.dim - GUARD_LEVELS)
    occ = (np.diag(rho.rho00)[lo:].real.sum()
           + np.diag(rho.rho11)[lo:].real.sum())
    return float(occ)


def warn_on_guard_occupation(rho: BlockDensity) -> None:
    """TruncationWarning when the top GUARD_LEVELS Fock levels hold more than
    GUARD_TOL.  Call it from the public propagation routine itself: the
    warning is attributed to that routine's caller."""
    occ = guard_occupation(rho)
    if occ > GUARD_TOL:
        warnings.warn(
            f"top {GUARD_LEVELS} Fock levels hold occupation {occ:.3e} "
            f"(> {GUARD_TOL:.0e}); increase dim",
            TruncationWarning, stacklevel=3)


def vectorize_blocks(rho: BlockDensity) -> np.ndarray:
    """Stack (rho00^, rho01^, rho10^, rho11^) into one 4*dim^2 vector."""
    return np.concatenate([rho.block(i, j).ravel() for i, j in BLOCK_KEYS])


def devectorize_blocks(v: np.ndarray, dim: int) -> BlockDensity:
    v = np.asarray(v, dtype=complex).ravel()
    if 4 * dim * dim != v.size:
        raise ShapeError(f"length {v.size} is not 4*dim^2 for dim={dim}")
    q = dim * dim
    return BlockDensity(*(v[k * q:(k + 1) * q].reshape(dim, dim) for k in range(4)))


# ---------------------------------------------------------------------------
# generators
#
# Each generator is assembled once, in sparse CSR form, from d x d ladder
# operators; the public dense builders are .toarray() of these assemblies.
# No dense dim^2 x dim^2 intermediate is formed, so sparse_generator scales
# to cutoffs whose dense generator would not fit in memory.


def _sparse_ladders(dim: int):
    """(a, a+, N, 1) as sparse d x d matrices."""
    return (sp.csr_matrix(annihilation(dim)), sp.csr_matrix(creation(dim)),
            sp.csr_matrix(number(dim)), sp.identity(dim, dtype=complex, format="csr"))


def _sparse_sides(dim: int):
    """(a kron 1, a+ kron 1, 1 kron a^T, 1 kron (a+)^T): the ladder operators
    acting from the left and from the right on a vectorized block."""
    a, ad, _, I = _sparse_ladders(dim)
    return sp.kron(a, I), sp.kron(ad, I), sp.kron(I, a.T), sp.kron(I, ad.T)


def _sparse_k_generators(dim: int):
    a, ad, N, I = _sparse_ladders(dim)
    Kp = sp.kron(ad, a.T, format="csr")
    Km = sp.kron(a, ad.T, format="csr")
    K3 = 0.5 * (sp.kron(N, I) + sp.kron(I, N) + sp.kron(I, I)).tocsr()
    K0 = (sp.kron(N, I) - sp.kron(I, N)).tocsr()
    return Kp, Km, K3, K0


def _sparse_lindblad(p: ModelParams) -> sp.csr_matrix:
    Kp, Km, K3, _ = _sparse_k_generators(p.dim)
    Iq = sp.identity(p.dim * p.dim, dtype=complex, format="csr")
    return ((p.mu - p.nu) / 2 * Iq + p.nu * Kp + p.mu * Km
            - (p.mu + p.nu) * K3).tocsr()


def _sparse_X(p: ModelParams) -> sp.csr_matrix:
    _, _, _, K0 = _sparse_k_generators(p.dim)
    base = -1j * p.omega0 * K0 + _sparse_lindblad(p)
    Iq = sp.identity(p.dim * p.dim, dtype=complex, format="csr")
    return sp.block_diag([base + 1j * phase * Iq for phase in block_phases(p)],
                         format="csr")


def _sparse_Y(p: ModelParams) -> sp.csr_matrix:
    aI, adI, IaT, IadT = _sparse_sides(p.dim)
    return -1j * p.Omega * sp.bmat([
        [None, -IadT, aI, None],
        [-IaT, None, None, aI],
        [adI, None, None, -IadT],
        [None, adI, -IaT, None],
    ], format="csr")


def sparse_generator(p: ModelParams) -> sp.csr_matrix:
    """Full generator X + Y of the vectorized master equation, sparse CSR.

    About five nonzeros per row.  It conserves the excitation difference
    k = m - n - i + j of a stacked element (atom block ij, Fock pair m, n),
    so each row couples only states of one k-sector.
    """
    return (_sparse_X(p) + _sparse_Y(p)).tocsr()


def k_generators(dim: int):
    """(K+, K-, K3, K0) on the dim^2-dimensional vectorized space.

    K+ = a+ kron a^T, K- = a kron (a+)^T,
    K3 = (N kron 1 + 1 kron N + 1 kron 1)/2, K0 = N kron 1 - 1 kron N.

    [K3, K+-] = +-K+- and [K+, K-] = -2 K3 hold exactly on index pairs away
    from the truncation edge; K0 commutes with all three at any cutoff.
    """
    return tuple(K.toarray() for K in _sparse_k_generators(dim))


def lindblad_superop(p: ModelParams) -> np.ndarray:
    """Single-block dissipative superoperator L in its K-form

        L = (mu-nu)/2 + nu K+ + mu K- - (mu+nu) K3,

    which equals entrywise the explicit tensor form

        mu {a kron (a+)^T - (a+ a kron 1 + 1 kron a+ a)/2}
      + nu {a+ kron a^T  - ((N+1) kron 1 + 1 kron (N+1))/2}.
    """
    return _sparse_lindblad(p).toarray()


def build_X(p: ModelParams) -> np.ndarray:
    """Block-diagonal generator: the diagonal part of the canonical form.

    Blocks (-i w0 K0 + L), (-i w0 - i w0 K0 + L), (+i w0 - i w0 K0 + L),
    (-i w0 K0 + L), acting on (rho00^, rho01^, rho10^, rho11^).
    """
    return _sparse_X(p).toarray()


def build_Y(p: ModelParams) -> np.ndarray:
    """Off-diagonal coupling generator, -i Omega times the block matrix

        [[0,     -1 kron (a+)^T, a kron 1,      0        ],
         [-1 kron a^T, 0,        0,             a kron 1 ],
         [a+ kron 1,   0,        0,             -1 kron (a+)^T],
         [0,     a+ kron 1,      -1 kron a^T,   0        ]]
    """
    return _sparse_Y(p).toarray()


def build_generator(p: ModelParams) -> np.ndarray:
    """Full generator X + Y of the vectorized master equation, dense."""
    return sparse_generator(p).toarray()


# ---------------------------------------------------------------------------
# cutoff changes on the vectorized space


def fock_keep_indices(dim_from: int, dim_to: int) -> np.ndarray:
    """Indices of the dim_to x dim_to sub-block inside a row-major dim_from^2
    vectorized block."""
    if dim_to > dim_from:
        raise ShapeError(f"cannot keep {dim_to} levels out of {dim_from}")
    return np.array([m * dim_from + n for m in range(dim_to) for n in range(dim_to)])


def restrict_superop(S: np.ndarray, dim_from: int, dim_to: int,
                     nblocks: int = 1) -> np.ndarray:
    """Compress a superoperator built at cutoff dim_from down to dim_to.

    nblocks=1 for single-block (dim_from^2) operators, 4 for the full
    stacked space.  This is the superoperator image of discarding Fock
    levels >= dim_to on both sides.
    """
    q = dim_from * dim_from
    if S.shape != (nblocks * q, nblocks * q):
        raise ShapeError(f"expected shape {(nblocks * q, nblocks * q)}, got {S.shape}")
    keep = fock_keep_indices(dim_from, dim_to)
    keep = np.concatenate([b * q + keep for b in range(nblocks)])
    return S[np.ix_(keep, keep)].copy()
