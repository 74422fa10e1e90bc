"""Split-operator propagators for the vectorized master equation.

The generator splits as X + Y (block-diagonal damping/detuning plus the
off-diagonal coupling), and the flow is approximated by an ordered product
of exponentials:

    e^{t(X+Y)} ~ e^{tY} e^{tX}                      (Split2, local error h^2)
    e^{t(X+Y)} ~ e^{t^2/2 [X,Y]} e^{tY} e^{tX}      (Split3, local error h^3)

e^{tX} is exact via the disentangled diagonal-block propagator; e^{tY} is
the unitary conjugation rho -> U rho U+ with the 2x2-block cos/sin matrix
U = exp(-i Omega t [[0,a],[a+,0]]) in the number operator; the commutator
factor splits into two commuting exponentials built from the single-block
operators A, B, C, D.

On a state, propagate applies the first two factors with no Python loop
over Fock levels or series terms: the diagonal flow is one batched
tau_series call on the four stacked blocks, in which each of the two series
is one real GEMM with a triangular Toeplitz matrix along the diagonals of
the blocks in a factorial-scaled basis, and U acts through its four nonzero
diagonals (row scalings plus one-row shifts), O(d^2) work.  The Split3
commutator factor is superop._taylor_action (a forward Taylor sum, stopped at
a rigorous tail bound, capped at the a-priori degree), shared with the oracle,
of its two cached sparse pair generators and their 1-norms: no set-up per call.

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
# expm_multiply is not called here any more; perfbench/tracing.py wraps this
# module-level name, so it stays bound in this module.
from scipy.sparse.linalg import expm_multiply  # noqa: F401

from .analytic import coherent_solution, tau_series, vacuum_solution
from .errors import DomainError, NumericalError, ShapeError, StepError
from .fock import (annihilation, coherent_state, cos_sqrt, cos_sqrt_values, creation,
                   sinc_sqrt, sinc_sqrt_values)
from .params import ModelParams
from .superop import (
    BLOCK_KEYS,
    BlockDensity,
    _sparse_sides,
    _taylor_action,
    block_phases,
    restrict_superop,
    warn_on_guard_occupation,
)

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

    Only the cross pairs commute in the untruncated algebra: truncation
    preserves [A,D] = [B,C] = 0 exactly, while [A,C] and [B,D] pick up a
    defect confined to the last Fock level (removed by evaluating one level
    higher and compressing).  Within a factor, [A,B] = [C,D] =
    -((mu-nu)/2)^2 times the identity away from the cutoff.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


def _sparse_commutator_blocks(p: ModelParams) -> tuple:
    """(A, B, C, D) as sparse matrices."""
    aI, adI, IaT, IadT = _sparse_sides(p.dim)
    half = (p.mu + p.nu) / 2
    return (half * aI - p.nu * IaT,
            -half * adI + p.mu * IadT,
            -p.nu * adI + half * IadT,
            p.mu * aI - half * IaT)


def commutator_blocks(p: ModelParams) -> CommutatorBlocks:
    return CommutatorBlocks(*(M.toarray() for M in _sparse_commutator_blocks(p)))


def _on_atom_index(M: np.ndarray, side: int) -> np.ndarray:
    """Lift a 2q x 2q matrix M, a 2x2 nest of q x q blocks over one atom
    index, to the 4q x 4q stacked space (block 2i+j holds rho_ij).

    side 0 acts on the row index i and couples components (0,2) and (1,3);
    side 1 acts on the column index j and couples (0,1) and (2,3).
    """
    q = M.shape[0] // 2
    spec = "iakb,jl->ijaklb" if side == 0 else "jalb,ik->ijaklb"
    return np.einsum(spec, M.reshape(2, q, 2, q), np.eye(2)).reshape(4 * q, 4 * q)


def assemble_commutator(blocks: CommutatorBlocks, p: ModelParams) -> np.ndarray:
    """[X, Y] = -i Omega ([X, Y1~] - [X, Y2~]) assembled from A, B, C, D:

        [X, Y1~] = [[0,0,A,0],[0,0,0,A],[B,0,0,0],[0,B,0,0]]
        [X, Y2~] = [[0,C,0,0],[D,0,0,0],[0,0,0,C],[0,0,D,0]]
    """
    Z = np.zeros_like(blocks.A)
    G1 = _on_atom_index(np.block([[Z, blocks.A], [blocks.B, Z]]), side=0)
    G2 = _on_atom_index(np.block([[Z, blocks.C], [blocks.D, Z]]), side=1)
    return -1j * p.Omega * (G1 - G2)


# ---------------------------------------------------------------------------
# the three exponential factors


def _coupling_diagonals(t: float, p: ModelParams):
    """The nonzero diagonals of U = exp(-i Omega t [[0,a],[a+,0]]), the
    2x2 nest of d x d blocks

        U = [[cos(c rP),        -i sinc(c rP) a],
             [-i sinc(c rN) a+,  cos(c rN)]]

    with c = Omega t, rP = sqrt(N+1), rN = sqrt(N), sinc(c r) = sin(c r)/r.
    Returns (cos_p, cos_n, up, down): the diagonals of the two diagonal
    blocks, the superdiagonal of the (0,1) block and the subdiagonal of the
    (1,0) block.  e^{tY} is the conjugation rho -> U rho U+.
    """
    d = p.dim
    c = p.Omega * t
    root = np.sqrt(np.arange(1.0, d))   # a[i, i+1] = a+[i+1, i] = root[i]
    return (cos_sqrt_values(c, d, shift=1),
            cos_sqrt_values(c, d, shift=0),
            -1j * sinc_sqrt_values(c, d, shift=1)[:-1] * root,
            -1j * sinc_sqrt_values(c, d, shift=0)[1:] * root)


def _coupling_blocks(t: float, p: ModelParams):
    """U of `_coupling_diagonals` as a 2x2 nest of dense d x d blocks."""
    cos_p, cos_n, up, down = _coupling_diagonals(t, p)
    return [[np.diag(cos_p), np.diag(up, 1)],
            [np.diag(down, -1), np.diag(cos_n)]]


def _coupling_left(diagonals, R: np.ndarray) -> np.ndarray:
    """U R for R a 2x2 nest of d x d blocks, shape (2, 2, d, d): each block
    row of U scales the rows of R and adds a one-row shift of the other."""
    cos_p, cos_n, up, down = diagonals
    out = np.empty_like(R)
    out[0] = cos_p[:, None] * R[0]
    out[0, :, :-1] += up[:, None] * R[1, :, 1:]
    out[1] = cos_n[:, None] * R[1]
    out[1, :, 1:] += down[:, None] * R[0, :, :-1]
    return out


def _dagger(R: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a 2x2 nest of d x d blocks, shape (2, 2, d, d)."""
    return R.conj().transpose(1, 0, 3, 2)


def exp_Y(t: float, p: ModelParams) -> np.ndarray:
    """Dense e^{tY} on the stacked space: U kron conj(U), reordered to the
    (block, fock-pair) layout, so that stacked block (2i+j, 2k+l) is
    U[i][k] kron conj(U)[j][l]."""
    d = p.dim
    U = np.block(_coupling_blocks(t, p)).reshape(2, d, 2, d)
    return np.einsum("imkp,jnlr->ijmnklpr", U, U.conj()).reshape(4 * d * d, 4 * d * d)


@lru_cache(maxsize=16)
def _sparse_pair_generators(p: ModelParams, pad: int):
    """The two commutator-factor generators [[0,A],[B,0]] and [[0,C],[D,0]]
    at cutoff dim+pad, sparse CSC, as ((G1, norm1), (G2, norm2), dp) with
    the exact 1-norms.  Cached: every split3 step uses them."""
    dp = p.dim + pad
    A, B, C, D = _sparse_commutator_blocks(p.with_dim(dp))
    G1 = sp.bmat([[None, A], [B, None]], format="csc")
    G2 = sp.bmat([[None, C], [D, None]], format="csc")
    return ((G1, float(abs(G1).sum(axis=0).max())),
            (G2, float(abs(G2).sum(axis=0).max())), dp)


def _comm_factor_blocks(t: float, p: ModelParams, pad: int):
    """The two commutator-factor exponentials at the enlarged cutoff.

    Each factor couples two pairs of stacked components through the same
    2x2-block generator, so one dense expm of size 2(dim+pad)^2 serves both
    pairs:

        F1 = expm(-i theta [[0,A],[B,0]])   couples (0,2) and (1,3)
        F2 = expm(+i theta [[0,C],[D,0]])   couples (0,1) and (2,3)

    with theta = (t^2/2) Omega.  Returns (F1, F2, dp), each F a
    2 dp^2 x 2 dp^2 array.
    """
    (G1, _), (G2, _), dp = _sparse_pair_generators(p, pad)
    theta = 0.5 * t * t * p.Omega
    F1 = expm(-1j * theta * G1.toarray())
    F2 = expm(+1j * theta * G2.toarray())
    if not (np.all(np.isfinite(F1)) and np.all(np.isfinite(F2))):
        raise NumericalError("commutator-factor exponential returned non-finite values")
    return F1, F2, dp


def exp_commutator(t: float, p: ModelParams, pad: int = DEFAULT_PAD) -> np.ndarray:
    """Dense e^{(t^2/2)[X,Y]} as the product of the two commuting factor
    exponentials, evaluated at cutoff dim+pad and compressed back to dim.

    The product is taken *before* compressing: both factors couple states
    through the cutoff, so compressing them individually would discard
    through-edge paths of the product.
    """
    if not (t >= 0):
        raise DomainError(f"t must be >= 0, got {t}")
    if pad < 0:
        raise DomainError(f"pad must be >= 0, got {pad}")
    f1, f2, dp = _comm_factor_blocks(t, p, pad)
    F1, F2 = _on_atom_index(f1, side=0), _on_atom_index(f2, side=1)
    return restrict_superop(F1 @ F2, dp, p.dim, nblocks=4)


# ---------------------------------------------------------------------------
# state propagation


def _apply_comm_factors(vec4: list, t: float, p: ModelParams, pad: int) -> list:
    """Apply F1 @ F2 = e^{(t^2/2)[X,Y]} to a stacked state given as four
    padded component vectors, via _taylor_action (a forward sum, stopped at a
    rigorous tail bound, capped at the a-priori degree) of the cached sparse
    pair generators (F2 couples components (0,1) and (2,3); F1 (0,2), (1,3))."""
    (G1, norm1), (G2, norm2), _ = _sparse_pair_generators(p, pad)
    theta = 0.5 * t * t * p.Omega
    v0, v1, v2, v3 = vec4
    q = v0.size
    try:
        W = _taylor_action(G2, norm2, +1j * theta,
                           np.column_stack([np.concatenate([v0, v1]),
                                            np.concatenate([v2, v3])]))
        w0, w1, w2, w3 = W[:q, 0], W[q:, 0], W[:q, 1], W[q:, 1]
        U = _taylor_action(G1, norm1, -1j * theta,
                           np.column_stack([np.concatenate([w0, w2]),
                                            np.concatenate([w1, w3])]))
    except NumericalError as e:
        raise NumericalError(f"commutator-factor {e}") from None
    return [U[:q, 0], U[:q, 1], U[q:, 0], U[q:, 1]]


def propagate(rho0: BlockDensity, t: float, p: ModelParams,
              order: PropagatorOrder = PropagatorOrder.SPLIT2,
              step_bound: float = DEFAULT_STEP_BOUND,
              pad: int = DEFAULT_PAD) -> BlockDensity:
    """One application of the selected approximate propagator.

    This is a single step: t is rejected (StepError) once t * max(Omega,
    mu, w0) exceeds step_bound (default 1).  Longer evolutions should
    compose steps -- that is a harness-level choice, see the CLI.

    Implemented in operator form rather than through the dense
    superoperator: e^{tX} is one tau_series call on the four blocks stacked
    along its batch axis (two real GEMMs with triangular Toeplitz matrices
    along the diagonals, in the factorial-scaled basis), times the scalar
    phases (0, -w0, +w0, 0); e^{tY} is the unitary conjugation
    rho~ = U rho~1 U+, computed as (U (U rho~1)+)+ with U applied through
    its diagonals; and the Split3 commutator factor acts at the enlarged
    cutoff through the Taylor action of the sparse pair generators
    (_apply_comm_factors), compressed afterwards.  The tests
    check it against the dense product of exp_Y, exp_commutator and the
    diagonal-block propagator, independent numerics, to ~1e-13.
    """
    order = PropagatorOrder(order)
    if not (t >= 0):
        raise DomainError(f"t must be >= 0, got {t}")
    if rho0.dim != p.dim:
        raise ShapeError(f"state dim {rho0.dim} != params dim {p.dim}")
    if pad < 0:
        raise DomainError(f"pad must be >= 0, got {pad}")
    if t * p.rate > step_bound * (1 + 1e-12):
        raise StepError(
            f"single step t={t} exceeds bound: t*max(Omega,mu,omega0) = "
            f"{t * p.rate:.3g} > {step_bound:.3g}; compose shorter steps")

    d = p.dim
    stacked = np.stack([rho0.block(*key) for key in BLOCK_KEYS])
    phases = np.exp(1j * np.array(block_phases(p)) * t)
    blocks = phases[:, None, None] * tau_series(stacked, t, p)

    if order is not PropagatorOrder.DIAGONAL_ONLY:
        # U rho U+ = (U (U rho)+)+, U applied through its diagonals
        diagonals = _coupling_diagonals(t, p)
        half = _coupling_left(diagonals, blocks.reshape(2, 2, d, d))
        blocks = _dagger(_coupling_left(diagonals, _dagger(half))).reshape(4, d, d)

    if order is PropagatorOrder.SPLIT3:
        dp = d + pad
        padded = np.zeros((4, dp, dp), dtype=complex)
        padded[:, :d, :d] = blocks
        parts = _apply_comm_factors(list(padded.reshape(4, dp * dp)), t, p, pad)
        blocks = [np.asarray(w).reshape(dp, dp)[:d, :d] for w in parts]

    out = BlockDensity(*blocks)
    warn_on_guard_occupation(out)
    return out


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
