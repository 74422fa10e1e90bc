"""Split-operator propagators for the vectorized master equation.

The generator splits as X + Y (block-diagonal damping/detuning plus the
off-diagonal coupling), and the flow is approximated by an ordered product
of exponentials:

    e^{t(X+Y)} ~ e^{tY} e^{tX}                      (Split2, local error h^2)
    e^{t(X+Y)} ~ e^{t^2/2 [X,Y]} e^{tY} e^{tX}      (Split3, local error h^3)

e^{tX} is exact via the disentangled diagonal-block propagator; e^{tY} is
exact via 2x2-block cos/sin matrices in the number operator; the commutator
factor splits into two commuting exponentials built from the single-block
operators A, B, C, D.

Truncation note: the closed forms above represent the flow of the
*untruncated* problem restricted to the retained levels.  For e^{tX} and
e^{tY} the restriction is exact (their factors never couple through the
cutoff), but the commutator factor does couple through it, so it is
evaluated at an enlarged cutoff dim+pad and compressed back; `pad` trades a
larger dense exponential for an edge-clean result (the error decays
factorially in pad, default 8).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .analytic import coherent_solution, diagonal_block_propagator, tau_series, vacuum_solution
from .errors import DomainError, NumericalError, ShapeError, StepError
from .fock import annihilation, coherent_state, cos_sqrt, creation, sinc_sqrt
from .params import ModelParams
from .superop import BLOCK_KEYS, BlockDensity, restrict_superop, warn_on_guard_occupation

DEFAULT_STEP_BOUND = 1.0
DEFAULT_PAD = 8


class PropagatorOrder(enum.Enum):
    DIAGONAL_ONLY = "diagonal-only"
    SPLIT2 = "split2"
    SPLIT3 = "split3"


@dataclass(frozen=True)
class CommutatorBlocks:
    """The four single-block operators entering [X, Y]:

        A =  (mu+nu)/2 a kron 1   - nu 1 kron a^T
        B = -(mu+nu)/2 a+ kron 1  + mu 1 kron (a+)^T
        C = -nu a+ kron 1         + (mu+nu)/2 1 kron (a+)^T
        D =  mu a kron 1          - (mu+nu)/2 1 kron a^T

    All four commute pairwise in the untruncated algebra; truncation
    preserves [A,D] = [B,C] = 0 exactly, while [A,C] and [B,D] pick up a
    defect confined to the last Fock level (removed by evaluating one level
    higher and compressing).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


def commutator_blocks(p: ModelParams) -> CommutatorBlocks:
    d = p.dim
    a = annihilation(d)
    ad = creation(d)
    I = np.eye(d, dtype=complex)
    aI = np.kron(a, I)
    adI = np.kron(ad, I)
    IaT = np.kron(I, a.T)
    IadT = np.kron(I, ad.T)
    half = (p.mu + p.nu) / 2
    return CommutatorBlocks(
        A=half * aI - p.nu * IaT,
        B=-half * adI + p.mu * IadT,
        C=-p.nu * adI + half * IadT,
        D=p.mu * aI - half * IaT,
    )


def assemble_commutator(blocks: CommutatorBlocks, p: ModelParams) -> np.ndarray:
    """[X, Y] = -i Omega ([X, Y1~] - [X, Y2~]) assembled from A, B, C, D:

        [X, Y1~] = [[0,0,A,0],[0,0,0,A],[B,0,0,0],[0,B,0,0]]
        [X, Y2~] = [[0,C,0,0],[D,0,0,0],[0,0,0,C],[0,0,D,0]]
    """
    q = blocks.A.shape[0]
    Z = np.zeros((q, q), dtype=complex)
    G1 = np.block([
        [Z, Z, blocks.A, Z],
        [Z, Z, Z, blocks.A],
        [blocks.B, Z, Z, Z],
        [Z, blocks.B, Z, Z],
    ])
    G2 = np.block([
        [Z, blocks.C, Z, Z],
        [blocks.D, Z, Z, Z],
        [Z, Z, Z, blocks.C],
        [Z, Z, blocks.D, Z],
    ])
    return -1j * p.Omega * (G1 - G2)


# ---------------------------------------------------------------------------
# the three exponential factors


def exp_X(t: float, p: ModelParams) -> np.ndarray:
    """Block-diagonal e^{tX}: the diagonal-block propagator with scalar
    phases (0, -w0, +w0, 0) on the four stacked components."""
    d = p.dim
    q = d * d
    out = np.zeros((4 * q, 4 * q), dtype=complex)
    for k, phase in enumerate((0.0, -p.omega0, p.omega0, 0.0)):
        out[k * q:(k + 1) * q, k * q:(k + 1) * q] = \
            diagonal_block_propagator(t, p, phase=phase)
    return out


def _y_factors(t: float, p: ModelParams):
    """The two 2x2-block cos/sin matrices whose reordered Kronecker product
    is e^{tY}: M1 = exp(-i Omega t [[0,a],[a+,0]]) and its conjugate-parameter
    partner M2 = exp(+i Omega t [[0,a],[a+,0]]), as lists of d x d blocks.

        M1 = [[cos(c rP),        -i sinc(c rP) a],
              [-i sinc(c rN) a+,  cos(c rN)]]

    with c = Omega t, rP = sqrt(N+1), rN = sqrt(N), sinc(c r) = sin(c r)/r.
    """
    d = p.dim
    c = p.Omega * t
    a = annihilation(d)
    ad = creation(d)
    cosP = cos_sqrt(c, d, shift=1)
    cosN = cos_sqrt(c, d, shift=0)
    sincP = sinc_sqrt(c, d, shift=1)
    sincN = sinc_sqrt(c, d, shift=0)
    M1 = [[cosP, -1j * sincP @ a], [-1j * sincN @ ad, cosN]]
    M2 = [[cosP, +1j * sincP @ a], [+1j * sincN @ ad, cosN]]
    return M1, M2


def _y_right_factor(t: float, p: ModelParams):
    """Right factor of the operator-form sandwich rho~ = M1 rho~1 R, in the
    variant rewritten with a f(N) = f(N+1) a:

        R = [[cos(c rP),          i a sinc(c rN)],
             [i a+ sinc(c rP),    cos(c rN)]]
    """
    d = p.dim
    c = p.Omega * t
    a = annihilation(d)
    ad = creation(d)
    return [
        [cos_sqrt(c, d, 1), 1j * a @ sinc_sqrt(c, d, 0)],
        [1j * ad @ sinc_sqrt(c, d, 1), cos_sqrt(c, d, 0)],
    ]


def exp_Y(t: float, p: ModelParams) -> np.ndarray:
    """Dense e^{tY} on the stacked space: the Kronecker product of the two
    cos/sin block matrices, reordered to the (block, fock-pair) layout.

    Stacked block (2i+j, 2k+l) is M1[i][k] kron (M2^T)[j][l], with the
    transpose taken blockwise and entrywise.
    """
    d = p.dim
    q = d * d
    M1, M2 = _y_factors(t, p)
    out = np.zeros((4 * q, 4 * q), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[(2 * i + j) * q:(2 * i + j + 1) * q,
                        (2 * k + l) * q:(2 * k + l + 1) * q] = \
                        np.kron(M1[i][k], M2[l][j].T)
    return out


@lru_cache(maxsize=16)
def _comm_factor_blocks(t: float, p: ModelParams, pad: int):
    """The two commutator-factor exponentials at the enlarged cutoff.

    Each factor couples two pairs of stacked components through the same
    2x2-block generator, so one dense expm of size 2(dim+pad)^2 serves both
    pairs:

        F1 = expm(-i theta [[0,A],[B,0]])   couples (0,2) and (1,3)
        F2 = expm(+i theta [[0,C],[D,0]])   couples (0,1) and (2,3)

    with theta = (t^2/2) Omega.  Returns ((f1 blocks), (f2 blocks), dp) with
    each f a 2x2 nest of dp^2 x dp^2 arrays.  Cached: the arrays must be
    treated as read-only.
    """
    dp = p.dim + pad
    blocks = commutator_blocks(p.with_dim(dp))
    theta = 0.5 * t * t * p.Omega
    q = dp * dp
    Z = np.zeros((q, q), dtype=complex)
    F1 = expm(-1j * theta * np.block([[Z, blocks.A], [blocks.B, Z]]))
    F2 = expm(+1j * theta * np.block([[Z, blocks.C], [blocks.D, Z]]))
    if not (np.all(np.isfinite(F1)) and np.all(np.isfinite(F2))):
        raise NumericalError("commutator-factor exponential returned non-finite values")
    f1 = ((F1[:q, :q], F1[:q, q:]), (F1[q:, :q], F1[q:, q:]))
    f2 = ((F2[:q, :q], F2[:q, q:]), (F2[q:, :q], F2[q:, q:]))
    return f1, f2, dp


def _assemble_comm_factors(f1, f2, q: int):
    """Place the pair-coupling blocks into full 4q x 4q matrices."""
    Z = np.zeros((q, q), dtype=complex)
    F1 = np.block([
        [f1[0][0], Z, f1[0][1], Z],
        [Z, f1[0][0], Z, f1[0][1]],
        [f1[1][0], Z, f1[1][1], Z],
        [Z, f1[1][0], Z, f1[1][1]],
    ])
    F2 = np.block([
        [f2[0][0], f2[0][1], Z, Z],
        [f2[1][0], f2[1][1], Z, Z],
        [Z, Z, f2[0][0], f2[0][1]],
        [Z, Z, f2[1][0], f2[1][1]],
    ])
    return F1, F2


def exp_commutator(t: float, p: ModelParams, pad: int = DEFAULT_PAD) -> np.ndarray:
    """Dense e^{(t^2/2)[X,Y]} as the product of the two commuting factor
    exponentials, evaluated at cutoff dim+pad and compressed back to dim.

    The product is taken *before* compressing: both factors couple states
    through the cutoff, so compressing them individually would discard
    through-edge paths of the product.
    """
    if not (t >= 0):
        raise DomainError(f"t must be >= 0, got {t}")
    f1, f2, dp = _comm_factor_blocks(t, p, pad)
    F1, F2 = _assemble_comm_factors(f1, f2, dp * dp)
    return restrict_superop(F1 @ F2, dp, p.dim, nblocks=4)


# ---------------------------------------------------------------------------
# state propagation


@lru_cache(maxsize=16)
def _sparse_pair_generators(p: ModelParams, pad: int):
    """Sparse versions of the two commutator-factor generators at dim+pad,
    for applying the Split3 correction to states without a dense expm."""
    dp = p.dim + pad
    a = sp.csr_matrix(annihilation(dp))
    ad = sp.csr_matrix(creation(dp))
    I = sp.identity(dp, dtype=complex, format="csr")
    half = (p.mu + p.nu) / 2
    A = half * sp.kron(a, I) - p.nu * sp.kron(I, a.T)
    B = -half * sp.kron(ad, I) + p.mu * sp.kron(I, ad.T)
    C = -p.nu * sp.kron(ad, I) + half * sp.kron(I, ad.T)
    D = p.mu * sp.kron(a, I) - half * sp.kron(I, a.T)
    G1 = sp.bmat([[None, A], [B, None]], format="csc")
    G2 = sp.bmat([[None, C], [D, None]], format="csc")
    return G1, G2, dp


def _apply_comm_factors(vec4: list, t: float, p: ModelParams, pad: int) -> list:
    """Apply F1 @ F2 = e^{(t^2/2)[X,Y]} to a stacked state given as four
    padded component vectors, via Krylov-free expm action on the sparse
    pair generators (F2 couples components (0,1) and (2,3); F1 couples
    (0,2) and (1,3))."""
    G1, G2, _ = _sparse_pair_generators(p, pad)
    theta = 0.5 * t * t * p.Omega
    if theta == 0.0:
        return list(vec4)
    v0, v1, v2, v3 = vec4
    W = expm_multiply(+1j * theta * G2,
                      np.column_stack([np.concatenate([v0, v1]),
                                       np.concatenate([v2, v3])]))
    q = v0.size
    w0, w1, w2, w3 = W[:q, 0], W[q:, 0], W[:q, 1], W[q:, 1]
    U = expm_multiply(-1j * theta * G1,
                      np.column_stack([np.concatenate([w0, w2]),
                                       np.concatenate([w1, w3])]))
    return [U[:q, 0], U[:q, 1], U[q:, 0], U[q:, 1]]


def propagate(rho0: BlockDensity, t: float, p: ModelParams,
              order: PropagatorOrder = PropagatorOrder.SPLIT2,
              step_bound: float = DEFAULT_STEP_BOUND,
              pad: int = DEFAULT_PAD) -> BlockDensity:
    """One application of the selected approximate propagator.

    This is a single step: t is rejected (StepError) once t * max(Omega,
    mu, w0) exceeds step_bound (default 1).  Longer evolutions should
    compose steps -- that is a harness-level choice, see the CLI.

    Implemented in operator form (d x d block algebra) rather than through
    the dense superoperator: e^{tX} acts blockwise via the series form of
    the diagonal flow with scalar phases (0, -w0, +w0, 0), e^{tY} is the
    sandwich rho~ = M1 rho~1 R, and the Split3 commutator factor acts
    through sparse expm-vector products at the enlarged cutoff, compressed
    afterwards.  The dense-matrix route (propagator_matrix) follows
    independent numerics and agrees to ~1e-13; tests cross-check the two.
    """
    if not (t >= 0):
        raise DomainError(f"t must be >= 0, got {t}")
    if rho0.dim != p.dim:
        raise ShapeError(f"state dim {rho0.dim} != params dim {p.dim}")
    if t * p.rate > step_bound * (1 + 1e-12):
        raise StepError(
            f"single step t={t} exceeds bound: t*max(Omega,mu,omega0) = "
            f"{t * p.rate:.3g} > {step_bound:.3g}; compose shorter steps")

    phases = {(0, 0): 0.0, (0, 1): -p.omega0, (1, 0): +p.omega0, (1, 1): 0.0}
    tau = {
        (i, j): np.exp(1j * phases[i, j] * t) * tau_series(rho0.block(i, j), t, p)
        for i, j in BLOCK_KEYS
    }

    if order is PropagatorOrder.DIAGONAL_ONLY:
        out = BlockDensity(tau[0, 0], tau[0, 1], tau[1, 0], tau[1, 1])
        warn_on_guard_occupation(out)
        return out

    M1 = _y_factors(t, p)[0]
    R = _y_right_factor(t, p)
    blocks = {}
    for i in range(2):
        for j in range(2):
            s = np.zeros((p.dim, p.dim), dtype=complex)
            for k in range(2):
                for l in range(2):
                    s += M1[i][k] @ tau[k, l] @ R[l][j]
            blocks[i, j] = s
    out = BlockDensity(blocks[0, 0], blocks[0, 1], blocks[1, 0], blocks[1, 1])

    if order is PropagatorOrder.SPLIT3:
        dp = p.dim + pad
        padded = [np.zeros((dp, dp), dtype=complex) for _ in range(4)]
        for v, (i, j) in zip(padded, BLOCK_KEYS):
            v[:p.dim, :p.dim] = out.block(i, j)
        parts = _apply_comm_factors([v.ravel() for v in padded], t, p, pad)
        if not all(np.all(np.isfinite(w)) for w in parts):
            raise NumericalError("commutator-factor action returned non-finite values")
        out = BlockDensity(*(np.asarray(w).reshape(dp, dp)[:p.dim, :p.dim]
                             for w in parts))

    warn_on_guard_occupation(out)
    return out


@lru_cache(maxsize=16)
def propagator_matrix(t: float, p: ModelParams,
                      order: PropagatorOrder = PropagatorOrder.SPLIT2,
                      pad: int = DEFAULT_PAD) -> np.ndarray:
    """Dense 4 dim^2 matrix of the selected propagator (cached, read-only)."""
    if order is PropagatorOrder.DIAGONAL_ONLY:
        return exp_X(t, p)
    mat = exp_Y(t, p) @ exp_X(t, p)
    if order is PropagatorOrder.SPLIT3:
        mat = exp_commutator(t, p, pad) @ mat
    return mat


def example_solution(alpha: complex, t: float, p: ModelParams) -> BlockDensity:
    """Closed form of the Split2 evolution for the initial state

        rho(0) = (1/2) diag(|0><0|, |alpha><alpha|).

    Both diagonal blocks evolve by the exact diagonal flow (vacuum and
    coherent closed forms A and B), then the coupling sandwich mixes them:

        rho~(t) = (1/2) [[(11), (12)], [(21), (22)]]
        (11) =  cP A cP + sP a B a+ sP
        (12) =  i cP A a sN - i sP a B cN
        (21) = -i sN a+ A cP + i cN B a+ sP
        (22) =  sN a+ A a sN + cN B cN

    with cP = cos(c sqrt(N+1)), sP = sinc-type sin(c sqrt(N+1))/sqrt(N+1),
    cN, sN the same at N, c = Omega t.  Independent of propagate(): used to
    cross-check the generic pipeline.
    """
    d = p.dim
    ket = coherent_state(alpha, d)
    if t == 0:
        z = np.zeros((d, d), dtype=complex)
        vac = np.zeros((d, d), dtype=complex)
        vac[0, 0] = 0.5
        return BlockDensity(vac, z.copy(), z.copy(), 0.5 * np.outer(ket, ket.conj()))

    A = vacuum_solution(t, p)
    B = coherent_solution(alpha, t, p)
    c = p.Omega * t
    a = annihilation(d)
    ad = creation(d)
    cP = cos_sqrt(c, d, 1)
    cN = cos_sqrt(c, d, 0)
    sP = sinc_sqrt(c, d, 1)
    sN = sinc_sqrt(c, d, 0)

    b11 = cP @ A @ cP + sP @ a @ B @ ad @ sP
    b12 = 1j * cP @ A @ a @ sN - 1j * sP @ a @ B @ cN
    b21 = -1j * sN @ ad @ A @ cP + 1j * cN @ B @ ad @ sP
    b22 = sN @ ad @ A @ a @ sN + cN @ B @ cN
    return BlockDensity(0.5 * b11, 0.5 * b12, 0.5 * b21, 0.5 * b22)
