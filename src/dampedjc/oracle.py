"""Brute-force reference integrators for the vectorized master equation.

Two deliberately independent routes to the same flow:

* DENSE_EXPM -- the action of exp(t (X + Y)) on the vectorized state,
  computed from the sparse generator with scipy's expm_multiply (Al-Mohy &
  Higham, SIAM J. Sci. Comput. 33, 488 (2011)); no propagator matrix is
  formed.  The name predates the sparse route and is kept so that configs
  and output columns do not change;
* RK4 -- classic fixed-step Runge-Kutta on the componentwise right-hand
  side written directly in d x d block algebra (never touching the
  superoperator code path).

`oracle_trajectory` sweeps the DENSE_EXPM route over a uniform time grid;
the CLI measures every method against it.

Agreement between the two, and between them and the factored propagators,
is the backbone of the test suite.  The module also provides dense
enlarged-cutoff exponentials for the tests (`converged_expm`,
`converged_diagonal_expm`): expm of the generator truncated at dim differs
from the restriction of the untruncated flow by O(1) matrix elements near
the cutoff, so closed forms must be checked against the generator built at
dim+pad and compressed back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .errors import DomainError, NumericalError, ShapeError, StepError
from .fock import annihilation, creation, number
from .params import ModelParams
from .superop import (
    BLOCK_KEYS,
    BlockDensity,
    build_generator,
    devectorize_blocks,
    guard_occupation,
    k_generators,
    lindblad_superop,
    restrict_superop,
    sparse_generator,
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
    d = p.dim
    a = annihilation(d)
    ad = creation(d)
    N = number(d)
    Np1 = N + np.eye(d)
    w0, W, mu, nu = p.omega0, p.Omega, p.mu, p.nu

    def dissipate(s):
        return (mu * (a @ s @ ad - 0.5 * (N @ s + s @ N))
                + nu * (ad @ s @ a - 0.5 * (Np1 @ s + s @ Np1)))

    r00, r01, r10, r11 = rho.rho00, rho.rho01, rho.rho10, rho.rho11
    d00 = -1j * w0 * (N @ r00 - r00 @ N) - 1j * W * (a @ r10 - r01 @ ad) + dissipate(r00)
    d01 = (-1j * w0 * r01 - 1j * w0 * (N @ r01 - r01 @ N)
           - 1j * W * (a @ r11 - r00 @ a) + dissipate(r01))
    d10 = (+1j * w0 * r10 - 1j * w0 * (N @ r10 - r10 @ N)
           - 1j * W * (ad @ r00 - r11 @ ad) + dissipate(r10))
    d11 = -1j * w0 * (N @ r11 - r11 @ N) - 1j * W * (ad @ r01 - r10 @ a) + dissipate(r11)
    return BlockDensity(d00, d01, d10, d11)


def _rk4_evolve(rho: BlockDensity, t: float, p: ModelParams, dt: float) -> BlockDensity:
    n = max(1, int(np.ceil(t / dt - 1e-12)))
    h = t / n
    cur = rho
    for _ in range(n):
        k1 = master_rhs(cur, p)
        k2 = master_rhs(_axpy(cur, k1, 0.5 * h), p)
        k3 = master_rhs(_axpy(cur, k2, 0.5 * h), p)
        k4 = master_rhs(_axpy(cur, k3, h), p)
        cur = BlockDensity(*(
            cur.block(i, j) + (h / 6.0) * (k1.block(i, j) + 2 * k2.block(i, j)
                                           + 2 * k3.block(i, j) + k4.block(i, j))
            for i, j in BLOCK_KEYS
        ))
    return cur


def _axpy(base: BlockDensity, delta: BlockDensity, c: float) -> BlockDensity:
    return BlockDensity(*(base.block(i, j) + c * delta.block(i, j)
                          for i, j in BLOCK_KEYS))


def _vet(rho: BlockDensity, trace0: complex) -> None:
    """NumericalError if rho is not finite; StepError unless its trace drift
    from trace0, hermiticity defect and negativity stay below ORACLE_TOL."""
    if not np.all(np.isfinite(vectorize_blocks(rho))):
        raise NumericalError("oracle integration produced non-finite entries")
    rep = diagnostics(rho)
    drift = abs(rho.trace() - trace0)
    neg = max(0.0, -rep.min_eigenvalue)
    if max(drift, rep.hermiticity_defect, neg) > ORACLE_TOL:
        raise StepError(
            f"oracle result fails consistency checks: trace drift {drift:.3e}, "
            f"hermiticity defect {rep.hermiticity_defect:.3e}, negativity {neg:.3e} "
            f"(tolerance {ORACLE_TOL:.1e})")


def oracle_propagate(rho0: BlockDensity, t: float, p: ModelParams,
                     cfg: OracleConfig | None = None) -> BlockDensity:
    """Evolve rho0 for time t by brute force.

    After integrating, the result is vetted: hermiticity defect,
    negative-eigenvalue excursion and trace drift relative to the input
    must all stay below ORACLE_TOL, else StepError.  Heavy occupation
    of the top Fock levels only warns (TruncationWarning) -- it signals an
    undersized basis, not an integrator failure.
    """
    if cfg is None:
        cfg = OracleConfig()
    if not (t >= 0):
        raise DomainError(f"t must be >= 0, got {t}")
    if rho0.dim != p.dim:
        raise ShapeError(f"state dim {rho0.dim} != params dim {p.dim}")

    if cfg.method is OracleMethod.DENSE_EXPM:
        out = devectorize_blocks(
            expm_multiply(t * sparse_generator(p), vectorize_blocks(rho0)), p.dim)
    elif cfg.method is OracleMethod.RK4:
        out = _rk4_evolve(rho0, t, p, cfg.dt)
    else:  # pragma: no cover - enum is closed
        raise DomainError(f"unknown oracle method {cfg.method!r}")

    _vet(out, rho0.trace())
    warn_on_guard_occupation(out)
    return out


def oracle_trajectory(rho0: BlockDensity, ts: np.ndarray, p: ModelParams) -> list:
    """Exact states on the uniform grid ts, rho0 at ts[0]: one expm_multiply
    sweep of the sparse generator.  Each state is vetted and guarded like
    an oracle_propagate result."""
    vecs = expm_multiply(sparse_generator(p), vectorize_blocks(rho0),
                         start=float(ts[0]), stop=float(ts[-1]), num=len(ts),
                         endpoint=True)
    states = [rho0] + [devectorize_blocks(v, p.dim) for v in vecs[1:]]
    for rho in states:
        _vet(rho, rho0.trace())
        warn_on_guard_occupation(rho)
    return states


# ---------------------------------------------------------------------------
# enlarged-cutoff references


def converged_expm(t: float, p: ModelParams, pad: int = 8) -> np.ndarray:
    """expm(t (X+Y)) built at cutoff dim+pad, compressed back to dim.

    This is the restriction of the untruncated flow up to a tail that
    shrinks factorially with pad; it is the right object to compare the
    factored propagators against (plain expm at dim is not -- its edge
    columns feel the missing levels at O(1))."""
    dp = p.dim + pad
    U = expm(t * build_generator(p.with_dim(dp)))
    return restrict_superop(U, dp, p.dim, nblocks=4)


def converged_diagonal_expm(t: float, p: ModelParams, phase: float = 0.0,
                            pad: int = 16) -> np.ndarray:
    """Single diagonal-block flow e^{t(i*phase - i w0 K0 + L)} at cutoff
    dim+pad, compressed back to dim (reference for the disentangled form)."""
    dp = p.dim + pad
    pb = p.with_dim(dp)
    _, _, _, K0 = k_generators(dp)
    M = lindblad_superop(pb) - 1j * p.omega0 * K0 + 1j * phase * np.eye(dp * dp)
    return restrict_superop(expm(t * M), dp, p.dim, nblocks=1)
