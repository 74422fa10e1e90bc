"""Vectorization and superoperator construction.

A block density operator

    rho = [[rho00, rho01],
           [rho10, rho11]]

is held by BlockDensity as one stacked (4, dim, dim) array `blocks` in the
order (rho00, rho01, rho10, rho11), which vectorize_blocks flattens to a
vector (rho00^, rho01^, rho10^, rho11^) of length 4*dim^2, each block
row-major, so that left/right multiplication becomes a Kronecker product:
vec(E X F) = (E kron F^T) vec(X).

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

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dzasum

from .errors import NumericalError, ShapeError, TruncationWarning
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


class BlockDensity:
    """2x2 block density operator over the two atomic levels, held as one
    stacked (4, dim, dim) complex array `blocks` in the order (rho00, rho01,
    rho10, rho11).  The constructor stacks (copies) its four blocks, so a
    state owns its data; rho00 ... rho11 are views of `blocks`, set once."""

    def __init__(self, rho00, rho01, rho10, rho11):
        blocks = [np.asarray(b, dtype=complex) for b in (rho00, rho01, rho10, rho11)]
        d = blocks[0].shape[0]
        if any(b.shape != (d, d) for b in blocks):
            raise ShapeError(f"all blocks must be {d}x{d}, got shapes "
                             f"{[b.shape for b in blocks]}")
        self.blocks = np.stack(blocks)
        self.rho00, self.rho01, self.rho10, self.rho11 = self.blocks

    @classmethod
    def _own(cls, blocks: np.ndarray) -> "BlockDensity":
        """The state holding the fresh (4, dim, dim) complex array itself."""
        rho = cls.__new__(cls)
        rho.blocks = blocks
        rho.rho00, rho.rho01, rho.rho10, rho.rho11 = blocks
        return rho

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

    def block(self, i: int, j: int) -> np.ndarray:
        return getattr(self, f"rho{i}{j}")

    def full(self) -> np.ndarray:
        """The 2*dim x 2*dim matrix [[rho00, rho01], [rho10, rho11]]."""
        d = self.dim
        return self.blocks.reshape(2, 2, d, d).transpose(0, 2, 1, 3).reshape(2 * d, 2 * d)

    @classmethod
    def from_full(cls, M: np.ndarray) -> "BlockDensity":
        M = np.asarray(M, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
            raise ShapeError(f"expected a square even-dimensional matrix, got {M.shape}")
        d = M.shape[0] // 2
        return cls(M[:d, :d], M[:d, d:], M[d:, :d], M[d:, d:])

    @classmethod
    def zero(cls, dim: int) -> "BlockDensity":
        return cls(*np.zeros((4, dim, dim), dtype=complex))

    def trace(self) -> complex:
        return np.trace(self.rho00) + np.trace(self.rho11)

    def copy(self) -> "BlockDensity":
        return BlockDensity(*self.blocks)


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
    """rho.blocks flattened, a copy: (rho00^, rho01^, rho10^, rho11^), 4*dim^2."""
    return rho.blocks.flatten()


def devectorize_blocks(v: np.ndarray, dim: int) -> BlockDensity:
    v = np.asarray(v, dtype=complex).ravel()
    if 4 * dim * dim != v.size:
        raise ShapeError(f"length {v.size} is not 4*dim^2 for dim={dim}")
    return BlockDensity(*v.reshape(4, dim, dim))


# ---------------------------------------------------------------------------
# generators
#
# Two writings of the generator that agree exactly.  The dense builders are
# .toarray() of the paper's Kronecker assembly from d x d ladder operators;
# sparse_generator, the oracle's operator, writes X + Y as its seven bands.
# Neither forms a dense dim^2 x dim^2 intermediate.


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

    Seven bands, with q = dim^2 and in-block index m dim + n: X's diagonal
    (mu-nu)/2 - (mu+nu) K3 - i w0 K0 + i phase; mu K- and nu K+ at +-(dim+1);
    Y's rho a+ and rho a at +-(q+1), a rho and a+ rho at +-(2q+dim).  Each
    entry takes the Kronecker assembly's floating-point operations, so
    .toarray() equals build_X(p) + build_Y(p) exactly.  It conserves k =
    m - n - i + j (atom block ij, Fock pair m, n): rows couple one k-sector.
    """
    d, q = p.dim, p.dim ** 2
    r = np.sqrt(np.arange(d))            # r[m] = a[m-1, m] = a+[m, m-1]
    m, n = np.divmod(np.arange(q), d)
    lind = (p.mu - p.nu) / 2 - (p.mu + p.nu) * (0.5 * ((m + n) + 1))
    diag = np.tile(lind - 1j * p.omega0 * (m - n), 4) + 1j * np.repeat(block_phases(p), q)
    # band values are read at the raised index, whose sqrt(m) or sqrt(n) is 0 off-block
    ladder = np.tile(np.outer(r, r).ravel(), 4)[d + 1:]
    right = -1j * p.Omega * (np.tile(-r[n], 4) * np.repeat([0, 1, 0, 1], q))[q + 1:]
    left = -1j * p.Omega * np.tile(r[m], 4)[2 * q + d:]
    return sp.diags([diag, p.mu * ladder, p.nu * ladder, right, right, left, left],
                    [0, d + 1, -(d + 1), q + 1, -(q + 1), 2 * q + d, -(2 * q + d)],
                    format="csr")


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
    return (_sparse_X(p) + _sparse_Y(p)).toarray()


# ---------------------------------------------------------------------------
# the Taylor action of a sparse exponential, for the oracle and for split3


# Norm units |c| ||G||_1 one Taylor substep may carry.  The degree needed
# for a 2^-53 remainder grows more slowly than the step (18 at 1, 33 at 4,
# 50 at 8), so fewer, longer substeps make fewer products; 8 keeps the
# degree within the m <= 55 of Al-Mohy & Higham's expm_multiply (SIAM J.
# Sci. Comput. 33, 488 (2011)).
TAYLOR_SUBSTEP_NORM = 8.0
TAYLOR_MAX_SUBSTEPS = 100_000   # a longer schedule is refused before any product


def step_count(span: float, h_max: float, what: str) -> int:
    """The fewest steps of at most h_max (up to 1e-12 of one) that cover span,
    at least one.  A fixed-step schedule of more than TAYLOR_MAX_SUBSTEPS is
    refused like the Taylor action's: NumericalError, before any step."""
    n = max(1.0, np.ceil(span / h_max - 1e-12))
    if n > TAYLOR_MAX_SUBSTEPS:
        raise NumericalError(f"{what} needs {n:.3g} steps of at most {h_max:.3g}, "
                             f"more than the {TAYLOR_MAX_SUBSTEPS} allowed")
    return int(n)


def _taylor_action(G, norm: float, c: complex, V: np.ndarray) -> np.ndarray:
    """e^{cG} V in s = max(1, ceil(x / TAYLOR_SUBSTEP_NORM)) substeps, x =
    |c| ||G||_1, each a forward Taylor sum V + B_1 + ... + B_k, B_k = (cG/s)^k
    V / k!, capped at the a-priori degree m (the least with (x/s)^{m+1}/(m+1)!
    e^{x/s} <= 2^-53) and stopped at the first 2 <= k <= m-2 with r = x/(s(k+1))
    < 1 and ||B_k||_1 r/(1-r) <= 2^-53 ||V||_1 e^{-jx/s}, j substeps left: the
    tail, amplified by the later substeps, is below that (B_{k+i} = (cG/s)^i B_k
    k!/(k+i)!).  NumericalError (callers prefix their name) when x is not finite,
    when s > TAYLOR_MAX_SUBSTEPS, or at the first non-finite substep, unwarned."""
    x = abs(c) * norm
    if not math.isfinite(x):
        raise NumericalError(f"exponent |c| ||G||_1 = {x} is not finite")
    s = max(1, math.ceil(x / TAYLOR_SUBSTEP_NORM))
    if s > TAYLOR_MAX_SUBSTEPS:
        raise NumericalError(f"action needs {s:.17g} substeps, more than the "
                             f"{TAYLOR_MAX_SUBSTEPS} allowed")
    m = 0
    while (x / s) ** (m + 1) / math.factorial(m + 1) * math.exp(x / s) > 2.0 ** -53:
        m += 1
    size = dzasum(V.ravel())   # entrywise ||V||_1 <= sum |re| + |im| <= sqrt(2) ||V||_1
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(s):
            floor = size * math.exp(x / s * (step + 1 - s)) / 2 ** 53.5
            F = B = V
            for k in range(1, m + 1):
                B = G @ B
                B *= c / (s * k)
                F = np.add(F, B, out=None if k == 1 else F)   # one new array per substep
                r = x / (s * (k + 1))
                if 2 <= k <= m - 2 and r < 1 and dzasum(B.ravel()) * r / (1 - r) <= floor:
                    break
            V = F
            size = dzasum(V.ravel())   # finite only if every entry is
            if not math.isfinite(size) and not np.isfinite(V).all():
                raise NumericalError(f"action overflowed at substep {step + 1} of {s}")
    return V


class _FloatBands:
    """A complex operator from its band rows data[b] at offsets[b], in the
    DIA layout (data[b, c] = M[c - offsets[b], c], columns in C order of
    `shape`, to which each row broadcasts), each row purely real or purely
    imaginary, as one real DIA matrix (Saad, Iterative Methods for Sparse
    Linear Systems, sec. 3.4) on the float view of its operand: band a at
    offset o becomes a at 2o, band ib -b at 2o+1 and b at 2o-1.  M @ V, V
    C-contiguous, keeps V's shape and, with at most two nonzero terms a row,
    the complex product's bits (up to signs of zero)."""

    def __init__(self, data: np.ndarray, offsets, shape=None):
        rows = []   # (float offset, band, factor): the row's (even, odd) pairs are factor * band
        for o, band in zip(offsets, data):
            if band.imag.any():   # ib -> (0, -b) at 2o+1 and (b, 0) at 2o-1
                rows += [(2 * o + 1, band, -1), (2 * o - 1, band, -1j)]
            else:                 # a -> (a, a) at 2o
                rows.append((2 * o, band, 1 + 1j))
        pairs = np.empty((len(rows),) + (shape or data.shape[1:]), complex)
        for out, (_, band, factor) in zip(pairs, rows):
            np.multiply(band, factor, out=out)
        pairs = pairs.reshape(len(rows), -1).view(float)
        self.dia = sp.dia_matrix((pairs, [o for o, _, _ in rows]), shape=(pairs.shape[1],) * 2)
        self.dia.data.flags.writeable = False

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        return (self.dia @ V.reshape(-1).view(float)).view(complex).reshape(V.shape)


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
