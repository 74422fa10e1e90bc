"""Split-operator propagators for the vectorized master equation.

The generator splits as X + Y (block-diagonal damping/detuning plus the
off-diagonal coupling), and the flow is approximated by an ordered product
of exponentials:

    e^{t(X+Y)} ~ e^{tY} e^{tX}                      (Split2, local error h^2)
    e^{t(X+Y)} ~ e^{t^2/2 [X,Y]} e^{tY} e^{tX}      (Split3, local error h^3)

e^{tX} is exact: tau_series writes its disentangled product as a double
series (diagonal_block_propagator, the dense form, is only a test reference);
e^{tY} is the unitary conjugation rho -> U rho U+ with the 2x2-block cos/sin
matrix U = exp(-i Omega t [[0,a],[a+,0]]) in the number operator; the
commutator factor splits into two commuting exponentials of A, B, C, D.

The orders are nested truncations of one product (diagonal-only is e^{tX}),
so one factor chain applies the factors in turn, with no Python loop over
Fock levels or series terms: propagate walks it to one order at one t,
split_states one factor at a time across a grid of times.  The diagonal
flow is one batched tau_series call on the four stacked blocks (two real
GEMMs with triangular Toeplitz matrices along the block diagonals, in a
factorial-scaled basis).  Every band of U and of the commutator factor's
generators is real or imaginary, so each of their products with the flat
stacked state is one real band product on its float view: U from the left
and U+ from the right, built per (t, params), and the two padded pair
generators, built per params, inside the forward Taylor sum of
superop._taylor_action that the oracle shares.

Truncation note: the closed forms above represent the flow of the
*untruncated* problem restricted to the retained levels.  For e^{tX} and
e^{tY} the restriction is exact (their factors never couple through the
cutoff), but the commutator factor does couple through it, so it is
evaluated at a cutoff enlarged by DEFAULT_PAD = 8 levels and compressed
back; the error decays factorially in the pad.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

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
from .superop import (BlockDensity, _FloatBands, _sparse_sides, _taylor_action, block_phases,
                      restrict_superop, warn_on_guard_occupation)

DEFAULT_STEP_BOUND = 1.0
DEFAULT_PAD = 8


class PropagatorOrder(enum.Enum):
    DIAGONAL_ONLY = "diagonal-only"
    SPLIT2 = "split2"
    SPLIT3 = "split3"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"order must be one of {[o.value for o in cls]}, got {value!r}")


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


def _on_atom_index(M, side: int):
    """Lift a 2q x 2q matrix M (dense, or sparse to CSR), a 2x2 nest of
    q x q blocks over one atom index, to the 4q x 4q stacked space (block
    2i+j holds rho_ij): side 1 acts on the column index j, as 1 kron M, and
    couples components (0,1) and (2,3); side 0 on the row index i, (0,2) and
    (1,3)."""
    lifted = sp.kron(np.eye(2), M, format="csr") if sp.issparse(M) else np.kron(np.eye(2), M)
    swap = np.arange(2 * M.shape[0]).reshape(2, 2, -1).transpose(1, 0, 2).ravel()
    return lifted if side == 1 else lifted[np.ix_(swap, swap)]


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
    (1,0) block.  e^{tY} is the conjugation rho -> U rho U+.  Not cached:
    propagate reaches it through the cache of `_coupling_operators`.
    """
    d = p.dim
    c = p.Omega * t
    cos = cos_sqrt_values(c, d + 1)   # at N = 0 .. d: cos_p is cos[1:], cos_n cos[:-1]
    # a[i, i+1] = a+[i+1, i] = sqrt(i+1): the (0,1) and (1,0) diagonals are equal
    off = -1j * sinc_sqrt_values(c, d + 1)[1:d] * np.sqrt(np.arange(1.0, d))
    return cos[1:], cos[:-1], off, off


def _coupling_blocks(t: float, p: ModelParams):
    """U of `_coupling_diagonals` as a 2x2 nest of dense d x d blocks."""
    cos_p, cos_n, up, down = _coupling_diagonals(t, p)
    return [[np.diag(cos_p), np.diag(up, 1)],
            [np.diag(down, -1), np.diag(cos_n)]]


@lru_cache(maxsize=1)
def _coupling_operators(t: float, p: ModelParams):
    """(U from the left, U+ from the right) on the flat stacked state, band
    operators at 0 and +-(2q+d) and at 0 and +-(q+1), q = d^2.  One cached
    entry per (t, params): stepping reuses one t, single shot none."""
    cos_p, cos_n, up, down = _coupling_diagonals(t, p)
    d, q, zero = p.dim, p.dim ** 2, np.zeros(p.dim)
    # band values by column (i, j, m, n) (DIA layout): U's by its (i, m), U+'s by its (j, n)
    bands = np.array([[cos_p, cos_n], [zero, np.append(0, up)], [np.append(down, 0), zero]])
    return (_FloatBands(bands[:, :, None, :, None], [0, 2 * q + d, -2 * q - d], (2, 2, d, d)),
            _FloatBands(bands.conj()[:, None, :, None], [0, q + 1, -q - 1], (2, 2, d, d)))


def exp_Y(t: float, p: ModelParams) -> np.ndarray:
    """Dense e^{tY} on the stacked space: U kron conj(U), reordered to the
    (block, fock-pair) layout, so that stacked block (2i+j, 2k+l) is
    U[i][k] kron conj(U)[j][l]."""
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    d = p.dim
    U = np.block(_coupling_blocks(t, p)).reshape(2, d, 2, d)
    return np.einsum("imkp,jnlr->ijmnklpr", U, U.conj()).reshape(4 * d * d, 4 * d * d)


def _sparse_pair_generators(p: ModelParams, pad: int):
    """The two commutator-factor generators [[0,A],[B,0]] and [[0,C],[D,0]]
    at cutoff dim+pad, sparse CSC, as ((G1, norm1), (G2, norm2), dp) with
    the exact 1-norms.  Split3 steps keep only their lifted band operators."""
    dp = p.dim + pad
    A, B, C, D = _sparse_commutator_blocks(p.with_dim(dp))
    G1 = sp.bmat([[None, A], [B, None]], format="csc")
    G2 = sp.bmat([[None, C], [D, None]], format="csc")
    return ((G1, float(abs(G1).sum(axis=0).max())),
            (G2, float(abs(G2).sum(axis=0).max())), dp)


@lru_cache(maxsize=16)
def _stacked_pair_generators(p: ModelParams):
    """`_sparse_pair_generators(p, DEFAULT_PAD)` lifted to the padded stacked
    space as band operators, with the same norms: ((G1, norm1), (G2, norm2), dp)."""
    (G1, norm1), (G2, norm2), dp = _sparse_pair_generators(p, DEFAULT_PAD)
    M1, M2 = _on_atom_index(G1, 0).todia(), _on_atom_index(G2, 1).todia()
    return (_FloatBands(M1.data, M1.offsets), norm1), (_FloatBands(M2.data, M2.offsets), norm2), dp


def exp_commutator(t: float, p: ModelParams, pad: int = DEFAULT_PAD) -> np.ndarray:
    """Dense e^{(t^2/2)[X,Y]} as the product of the two commuting factor
    exponentials, evaluated at cutoff dim+pad and compressed back to dim:

        F1 = expm(-i theta [[0,A],[B,0]])   couples (0,2) and (1,3)
        F2 = expm(+i theta [[0,C],[D,0]])   couples (0,1) and (2,3)

    with theta = (t^2/2) Omega: each factor's two pairs share one dense expm
    of size 2(dim+pad)^2.  The product is taken *before* compressing: both
    factors couple states through the cutoff, so compressing them
    individually would discard through-edge paths of the product.
    """
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    if pad < 0:
        raise DomainError(f"pad must be >= 0, got {pad}")
    (G1, _), (G2, _), dp = _sparse_pair_generators(p, pad)
    theta = 0.5 * t * (t * p.Omega)
    F1 = expm(-1j * theta * G1.toarray())
    F2 = expm(+1j * theta * G2.toarray())
    if not (np.all(np.isfinite(F1)) and np.all(np.isfinite(F2))):
        raise NumericalError("commutator-factor exponential returned non-finite values")
    F1, F2 = _on_atom_index(F1, side=0), _on_atom_index(F2, side=1)
    return restrict_superop(F1 @ F2, dp, p.dim, nblocks=4)


# ---------------------------------------------------------------------------
# state propagation


def _factor_chain(blocks: np.ndarray, t: float, p: ModelParams):
    """The stacked blocks of the diagonal-only, split2 and split3 states at
    t, each the one before times one more factor; unchecked and unguarded.
    e^{tX} carries the phases (0, -w0, +w0, 0); split3 pads the cutoff."""
    blocks = np.exp(1j * np.array(block_phases(p)) * t)[:, None, None] * tau_series(blocks, t, p)
    yield blocks
    left, right = _coupling_operators(float(t), p)
    blocks = right @ (left @ blocks)
    del left, right   # split_states keeps a chain per t alive: its frame holds no U
    yield blocks
    (G1, norm1), (G2, norm2), dp = _stacked_pair_generators(p)
    V = np.zeros((4, dp, dp), dtype=complex)
    V[:, :p.dim, :p.dim] = blocks
    theta = 0.5 * t * (t * p.Omega)   # finite where t * t overflows: t * Omega <= t * rate
    try:
        V = _taylor_action(G1, norm1, -1j * theta, _taylor_action(G2, norm2, +1j * theta, V))
    except NumericalError as e:
        raise NumericalError(f"commutator-factor {e}") from None
    yield (V := np.ascontiguousarray(V[:, :p.dim, :p.dim]))   # nor the padded V


def split_states(rho0: BlockDensity, ts, p: ModelParams, orders) -> dict:
    """{order: [its state at each t of ts]}, with no step bound and no guard
    warning: each t's factor chain, walked across all of ts one listed stage
    at a time as far as the last order listed, so no state is computed twice
    and an unlisted stage is dropped at the chain's next factor."""
    index = {order: list(PropagatorOrder).index(PropagatorOrder(order)) for order in orders}
    listed = [i in index.values() for i in range(max(index.values(), default=-1) + 1)]
    chains = [compress(_factor_chain(rho0.blocks, float(t), p), listed) for t in ts]
    stages = {i: [BlockDensity._own(next(chain)) for chain in chains]
              for i in sorted(set(index.values()))}
    return {order: stages[i] for order, i in index.items()}


def propagate(rho0: BlockDensity, t: float, p: ModelParams,
              order: PropagatorOrder = PropagatorOrder.SPLIT2,
              step_bound: float = DEFAULT_STEP_BOUND) -> BlockDensity:
    """One application of the selected approximate propagator.

    This is a single step: t is rejected (StepError) once t * max(Omega,
    mu, w0) exceeds step_bound (default 1).  Longer evolutions should
    compose steps -- that is a harness-level choice, see the CLI.

    The factor chain up to the order; its t-only operators are cached per
    (t, params), so steps of one h build them once.  The tests check it
    against the dense exp_Y, exp_commutator and diagonal-block propagator.
    """
    order = PropagatorOrder(order)
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    if rho0.dim != p.dim:
        raise ShapeError(f"state dim {rho0.dim} != params dim {p.dim}")
    if t * p.rate > step_bound * (1 + 1e-12):
        raise StepError(
            f"single step t={t} exceeds bound: t*max(Omega,mu,omega0) = "
            f"{t * p.rate:.3g} > {step_bound:.3g}; compose shorter steps")

    chain = zip(PropagatorOrder, _factor_chain(rho0.blocks, t, p))
    out = BlockDensity._own(next(blocks for stage, blocks in chain if stage is order))
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
    cross-check the generic pipeline.  At t = 0 it is rho(0) itself, the one
    writing of that state; the CLI's vacuum-excited initial state is this.
    """
    d = p.dim
    ket = coherent_state(alpha, d)
    if t == 0:
        z = np.zeros((d, d), dtype=complex)
        vac = np.zeros((d, d), dtype=complex)
        vac[0, 0] = 0.5
        return BlockDensity(vac, z, z, 0.5 * np.outer(ket, ket.conj()))

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
