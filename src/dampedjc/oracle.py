"""Brute-force reference integrators for the vectorized master equation.

Two deliberately independent routes to the same flow:

* DENSE_EXPM -- the action of exp(t (X + Y)) on the vectorized state:
  superop._taylor_action, as in split3 (a forward Taylor sum, stopped at a
  rigorous tail bound, capped at the a-priori degree), of the sparse
  generator with its exact 1-norm; no propagator matrix is formed.  The name
  predates the sparse route and is kept so configs and columns do not change;
* RK4 -- classic fixed-step Runge-Kutta on the componentwise right-hand
  side written directly in d x d block algebra (never touching the
  superoperator code path).

`oracle_states` runs either route lazily over a non-decreasing time grid, one
integration per interval, each state vetted against the initial trace, and
`oracle_trajectory` lists it.  The CLI measures every method against the
DENSE_EXPM grid, and its oracle-rk4 column is the RK4 grid.

Agreement between the two, and between them and the factored propagators,
is the backbone of the test suite.  The module also provides a dense
enlarged-cutoff exponential for the tests (`converged_diagonal_expm`): expm
of a generator truncated at dim differs from the restriction of the
untruncated flow by O(1) matrix elements near the cutoff, so closed forms
must be checked against the generator built at dim+pad and compressed back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DomainError, NumericalError, ShapeError, StepError
from .fock import annihilation, creation, number
from .params import ModelParams
from .superop import (
    GUARD_LEVELS,
    GUARD_TOL,
    BlockDensity,
    _taylor_action,
    build_generator,  # noqa: F401 -- perfbench/tracing.py wraps this binding
    devectorize_blocks,
    guard_occupation,
    k_generators,
    lindblad_superop,
    restrict_superop,
    sparse_generator,
    step_count,
    vectorize_blocks,
    warn_on_guard_occupation,
)


ORACLE_TOL = 1e-6   # post-hoc consistency bound on an oracle result


class OracleMethod(enum.Enum):
    DENSE_EXPM = "dense-expm"
    RK4 = "rk4"


@dataclass(frozen=True)
class OracleConfig:
    method: OracleMethod = OracleMethod.DENSE_EXPM
    dt: float = 1e-3          # RK4 step size ceiling

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise DomainError(f"dt must be positive and finite, got {self.dt}")


@dataclass(frozen=True)
class DiagnosticsReport:
    """Health indicators of a (supposed) density matrix."""
    trace_deviation: float     # |tr rho - 1|
    hermiticity_defect: float  # max |rho - rho^dag|
    min_eigenvalue: float      # smallest eigenvalue of the hermitized matrix
    guard_occupation: float    # population in the top guard Fock levels


def diagnostics(rho: BlockDensity) -> DiagnosticsReport:
    full = rho.full()
    herm = np.abs(full - full.conj().T).max()
    sym = 0.5 * (full + full.conj().T)
    eigs = np.linalg.eigvalsh(sym)
    return DiagnosticsReport(
        trace_deviation=abs(full.trace().real - 1.0),
        hermiticity_defect=float(herm),
        min_eigenvalue=float(eigs.min()),
        guard_occupation=guard_occupation(rho),
    )


def master_rhs(rho: BlockDensity, p: ModelParams) -> BlockDensity:
    """Componentwise right-hand side of the master equation.

    With H = [[w0/2 + w0 N, Omega a], [Omega a+, -w0/2 + w0 N]] and a
    single oscillator damped at rate mu (decay) and pumped at rate nu:

        d rho_ij / dt = -i [H, rho]_ij + D(rho_ij)

        D(s) = mu (a s a+ - (N s + s N)/2)
             + nu (a+ s a - ((N+1) s + s (N+1))/2)

    The qubit splitting contributes scalar phases -i w0 (+i w0) to the 01
    (10) block; the oscillator part of H contributes -i w0 [N, .] and the
    coupling mixes the blocks through a and a+.  Written out per block so
    this path shares no code with the vectorized generator.
    """
    if rho.dim != p.dim:
        raise ShapeError(f"state dim {rho.dim} != params dim {p.dim}")
    return BlockDensity._own(_rhs(rho.blocks, _ladder_ops(p.dim), p))


def _ladder_ops(d: int) -> tuple:
    """(a, a+, N, N+1), dense d x d."""
    return annihilation(d), creation(d), number(d), number(d) + np.eye(d)


def _rhs(blocks: np.ndarray, ops: tuple, p: ModelParams) -> np.ndarray:
    """master_rhs on the stacked (4, d, d) blocks, ops = _ladder_ops(d)."""
    a, ad, N, Np1 = ops
    w0, W, mu, nu = p.omega0, p.Omega, p.mu, p.nu

    def dissipate(s):
        return (mu * (a @ s @ ad - 0.5 * (N @ s + s @ N))
                + nu * (ad @ s @ a - 0.5 * (Np1 @ s + s @ Np1)))

    r00, r01, r10, r11 = blocks
    d00 = -1j * w0 * (N @ r00 - r00 @ N) - 1j * W * (a @ r10 - r01 @ ad) + dissipate(r00)
    d01 = (-1j * w0 * r01 - 1j * w0 * (N @ r01 - r01 @ N)
           - 1j * W * (a @ r11 - r00 @ a) + dissipate(r01))
    d10 = (+1j * w0 * r10 - 1j * w0 * (N @ r10 - r10 @ N)
           - 1j * W * (ad @ r00 - r11 @ ad) + dissipate(r10))
    d11 = -1j * w0 * (N @ r11 - r11 @ N) - 1j * W * (ad @ r01 - r10 @ a) + dissipate(r11)
    return np.stack([d00, d01, d10, d11])


def _rk4_evolve(rho: BlockDensity, t: float, p: ModelParams, dt: float) -> BlockDensity:
    n = step_count(t, dt, "oracle rk4")
    h = t / n
    ops = _ladder_ops(p.dim)
    cur = rho.blocks
    for _ in range(n):
        k1 = _rhs(cur, ops, p)
        k2 = _rhs(cur + 0.5 * h * k1, ops, p)
        k3 = _rhs(cur + 0.5 * h * k2, ops, p)
        k4 = _rhs(cur + h * k3, ops, p)
        cur = cur + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return BlockDensity._own(cur)


def _vet(rho: BlockDensity, trace0: complex) -> float:
    """NumericalError if rho is not finite; StepError, naming a guard occupation
    over GUARD_TOL, unless its trace drift from trace0, hermiticity defect and
    negativity stay below ORACLE_TOL.  Returns rho's min_eig from this check."""
    if not np.isfinite(rho.blocks).all():
        raise NumericalError("oracle integration produced non-finite entries")
    rep = diagnostics(rho)
    drift = abs(rho.trace() - trace0)
    neg = max(0.0, -rep.min_eigenvalue)
    if max(drift, rep.hermiticity_defect, neg) > ORACLE_TOL:
        guard = (f"; top {GUARD_LEVELS} Fock levels hold occupation {rep.guard_occupation:.3e}, "
                 "increase dim" if rep.guard_occupation > GUARD_TOL else "")
        raise StepError(
            f"oracle result fails consistency checks: trace drift {drift:.3e}, "
            f"hermiticity defect {rep.hermiticity_defect:.3e}, negativity {neg:.3e} "
            f"(tolerance {ORACLE_TOL:.1e}){guard}")
    return rep.min_eigenvalue


def oracle_propagate(rho0: BlockDensity, t: float, p: ModelParams,
                     cfg: OracleConfig | None = None) -> BlockDensity:
    """Evolve rho0 for time t by brute force: oracle_trajectory on [0, t]."""
    if not (t >= 0 and np.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    return oracle_trajectory(rho0, [0.0, t], p, cfg)[0][1]


def oracle_trajectory(rho0: BlockDensity, ts, p: ModelParams, cfg: OracleConfig | None = None):
    """The states and min_eigs of oracle_states as two lists."""
    return tuple(map(list, zip(*oracle_states(rho0, ts, p, cfg))))


def oracle_states(rho0: BlockDensity, ts, p: ModelParams, cfg: OracleConfig | None = None):
    """Brute-force (state, min_eig) on any non-decreasing grid ts, lazily: rho0
    with min_eig None, then one integration by cfg.method (default
    DENSE_EXPM) per interval from the last state, vetted by _vet against
    rho0's trace, with the min_eig _vet solved.  The checks, and DENSE_EXPM's
    sparse generator and 1-norm, come at the call.  An action's NumericalError
    names the oracle and the time it steps to.  Heavy guard occupation only
    warns (TruncationWarning): it signals an undersized basis."""
    cfg = cfg or OracleConfig()
    ts = np.asarray(ts, dtype=float)
    if not (np.isfinite(ts).all() and (np.diff(ts) >= 0).all()):
        raise DomainError(f"oracle grid times must be finite and non-decreasing, got {ts}")
    if rho0.dim != p.dim:
        raise ShapeError(f"state dim {rho0.dim} != params dim {p.dim}")
    if cfg.method is OracleMethod.DENSE_EXPM:
        G = sparse_generator(p)
        norm = float(abs(G).sum(axis=0).max())

    def steps(cur):
        yield cur, None
        for h, t in zip(np.diff(ts), ts[1:]):
            if cfg.method is OracleMethod.RK4:
                cur = _rk4_evolve(cur, float(h), p, cfg.dt)
            else:
                try:
                    v = _taylor_action(G, norm, float(h), vectorize_blocks(cur))
                except NumericalError as e:
                    raise NumericalError(f"oracle cannot step to t = {t:g}: {e}") from None
                cur = devectorize_blocks(v, p.dim)
            min_eig = _vet(cur, rho0.trace())
            warn_on_guard_occupation(cur)
            yield cur, min_eig
    return steps(rho0)


# ---------------------------------------------------------------------------
# enlarged-cutoff reference


def converged_diagonal_expm(t: float, p: ModelParams, phase: float = 0.0,
                            pad: int = 16) -> np.ndarray:
    """Single diagonal-block flow e^{t(i*phase - i w0 K0 + L)} at cutoff
    dim+pad, compressed back to dim (reference for the disentangled form)."""
    dp = p.dim + pad
    pb = p.with_dim(dp)
    _, _, _, K0 = k_generators(dp)
    M = lindblad_superop(pb) - 1j * p.omega0 * K0 + 1j * phase * np.eye(dp * dp)
    return restrict_superop(expm(t * M), dp, p.dim, nblocks=1)
