"""Closed-form propagation of the diagonal (Omega-independent) part.

The block-diagonal generator -i w0 K0 + L exponentiates exactly through an
su(1,1) disentangling:

    e^{t(-i w0 K0 + L)} =
        e^{(mu-nu)t/2} e^{G K+} e^{-i w0 t K0 - 2 log(F) K3} e^{E K-}

with scalar functions E(t), F(t), G(t) of the rates alone.  K+ and K- are
nilpotent at finite cutoff, so the outer factors are finite polynomial sums
and the middle factor is diagonal: no matrix exponential is needed.

E, F, G are evaluated in a tanh/log1p form that stays finite for large t
(the cosh/sinh forms overflow near (mu-nu)t ~ 1400):

    x = (mu-nu)t/2,  r = (mu+nu)/(mu-nu),  th = tanh(x)
    E = (2 mu/(mu-nu)) th / (1 + r th)
    G = (2 nu/(mu-nu)) th / (1 + r th)
    log F = x + log1p(e^{-2x}) - log 2 + log1p(r th)

These satisfy F (1 - G) = e^{(mu-nu)t/2} identically, E(0)=G(0)=0, F(0)=1,
and G increases monotonically to nu/mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DomainError
from .fock import annihilation, coherent_state, creation, number
from .params import ModelParams
from .superop import k_generators


@dataclass(frozen=True)
class EFG:
    """The scalar functions E, F, G at a fixed time.

    F is also carried as log_F so callers can stay in log space when
    (mu-nu)t is large enough for F to overflow.
    """

    t: float
    E: float
    G: float
    log_F: float

    @property
    def F(self) -> float:
        return math.exp(self.log_F)


def efg(t: float, p: ModelParams) -> EFG:
    """Evaluate E, F, G at time t >= 0."""
    if not (t >= 0):
        raise DomainError(f"t must be >= 0, got {t}")
    delta = p.mu - p.nu
    x = delta * t / 2
    r = (p.mu + p.nu) / delta
    th = math.tanh(x)
    den = 1.0 + r * th
    E = (2 * p.mu / delta) * th / den
    G = (2 * p.nu / delta) * th / den
    # log F = log(cosh x + r sinh x) rewritten to avoid overflow
    log_F = x + math.log1p(math.exp(-2 * x)) - math.log(2) + math.log1p(r * th)
    return EFG(t=t, E=E, G=G, log_F=log_F)


def _ladder_exp(K: np.ndarray, c: float, dim: int) -> np.ndarray:
    """e^{c K} for a ladder superoperator with K^dim = 0: finite sum."""
    q = dim * dim
    out = np.eye(q, dtype=complex)
    term = np.eye(q, dtype=complex)
    for n in range(1, dim):
        term = term @ K * (c / n)
        out = out + term
    return out


def diagonal_block_propagator(t: float, p: ModelParams, phase: float = 0.0) -> np.ndarray:
    """e^{i phase t} e^{t(-i w0 K0 + L)} as a dense dim^2 x dim^2 matrix.

    phase is 0 for the two diagonal blocks of the stacked state and -w0/+w0
    for the (01)/(10) blocks.  Product of the three disentangled factors;
    the scalar prefactor e^{(mu-nu)t/2} and the phase are folded into the
    diagonal middle factor.
    """
    if not (t >= 0):
        raise DomainError(f"t must be >= 0, got {t}")
    d = p.dim
    g = efg(t, p)
    Kp, Km, _, _ = k_generators(d)
    x = (p.mu - p.nu) * t / 2
    m_idx, n_idx = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    mid = np.exp(
        1j * phase * t
        + x
        - 1j * p.omega0 * t * (m_idx - n_idx).ravel()
        - g.log_F * (m_idx + n_idx + 1).ravel()
    )
    return _ladder_exp(Kp, g.G, d) @ (mid[:, None] * _ladder_exp(Km, g.E, d))


def _skew(X: np.ndarray) -> np.ndarray:
    """Diagonals of X (..., d, d) as columns of a (..., d, 2d) array:
    out[..., i, j - i + d - 1] = X[..., i, j], zero elsewhere.

    Row i of X is shifted left by i: X is written into a zero buffer with
    rows of length 2d - 1, and the buffer is read back with rows of length
    2d.  Column k + d - 1 holds the diagonal j - i = k, indexed by i.
    """
    d = X.shape[-1]
    flat = np.zeros(X.shape[:-2] + (2 * d * d,), dtype=X.dtype)
    flat[..., :d * (2 * d - 1)].reshape(X.shape[:-2] + (d, 2 * d - 1))[..., d - 1:] = X
    return flat.reshape(X.shape[:-2] + (d, 2 * d))


def _unskew(S: np.ndarray) -> np.ndarray:
    """Inverse of _skew: (..., d, 2d) back to (..., d, d)."""
    d = S.shape[-2]
    flat = S.reshape(S.shape[:-2] + (2 * d * d,))
    return flat[..., :d * (2 * d - 1)].reshape(S.shape[:-2] + (d, 2 * d - 1))[..., d - 1:]


def _exp_series(z: float, d: int) -> np.ndarray:
    """z^m / m! for m = 0..d-1."""
    return np.cumprod(np.concatenate(([1.0], z / np.arange(1.0, d))))


def tau_series(tau0: np.ndarray, t: float, p: ModelParams) -> np.ndarray:
    """Double-series form of the diagonal flow applied to tau0:

        (e^{(mu-nu)t/2}/F) sum_n (G^n/n!) (a+)^n {
            e^{(-i w0 t - log F) N} [sum_m (E^m/m!) a^m tau0 (a+)^m]
            e^{(+i w0 t - log F) N} } a^n

    Terms with n or m >= dim vanish identically (a^dim = 0), so the sums
    run to dim-1.

    Toeplitz form, with no loop over terms: in the scaled basis
    w_n = sqrt(n!) c^n, with c chosen so that w_0 = w_{dim-1} = 1, a is a
    pure shift: a W^-1 = W^-1 J / c and a+ W = W J+ / c, with J the
    one-step shift.  (In between, w_n dips to about e^{-0.18 dim}, so the
    scaled values stay in double range far above dim 170, where n!
    overflows.)  So with sigma = W tau0 W the m-sum is
    sigma[i, j] -> sum_m ((E/c^2)^m/m!) sigma[i+m, j+m], one
    upper-triangular Toeplitz matrix applied along every diagonal of sigma,
    and on W^-1 (middle) W^-1 the n-sum is the lower-triangular Toeplitz
    matrix with entries (G/c^2)^n/n!.  The diagonals are laid out as
    columns (_skew), so each sum is one GEMM of a real Toeplitz matrix with
    the float view of the complex stack (a real GEMM, a quarter of the work
    of a complex one).  The phases e^{-i w0 t (i-j)} are constant along a
    diagonal and applied last.  tau0 may carry leading batch axes, shape
    (..., dim, dim); each dim x dim slice is flowed independently.
    """
    if not (t >= 0):
        raise DomainError(f"t must be >= 0, got {t}")
    tau0 = np.asarray(tau0, dtype=complex)
    d = p.dim
    if tau0.shape[-2:] != (d, d):
        raise DomainError(f"tau0 must be (..., {d}, {d}) for dim={d}, got {tau0.shape}")

    g = efg(t, p)
    n = np.arange(d)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, d)))))
    log_c2 = -log_fact[-1] / (d - 1)
    log_w = 0.5 * log_fact + 0.5 * log_c2 * n
    w = np.exp(log_w)
    # sigma = W tau0 W: the column scaling goes in before _skew, the row
    # scaling folds into the columns of the m-sum matrix.  The middle factor
    # e^{-log F N} on both sides, moved to the W^-1 basis, splits the same
    # way over the n-sum; its skewed column part is zero off the band, which
    # also clears what the m-sum GEMM writes outside each diagonal's extent.
    mid = np.exp(-g.log_F * n - 2.0 * log_w)
    lag = n[:, None] - n
    m_sum = np.tril(_exp_series(g.E * math.exp(-log_c2), d)[lag]).T * w
    n_sum = np.tril(_exp_series(g.G * math.exp(-log_c2), d)[lag]) * mid

    sigma = _skew(tau0 * w)
    sigma = (m_sum @ sigma.view(float)).view(complex) * _skew(np.broadcast_to(mid, (d, d)))
    sigma = (n_sum @ sigma.view(float)).view(complex)

    x = (p.mu - p.nu) * t / 2
    phase = np.exp(-1j * p.omega0 * t * n)
    out_w = math.exp(x - g.log_F) * w * phase
    return (out_w[:, None] * _unskew(sigma)) * (w * phase.conj())


def vacuum_solution(t: float, p: ModelParams) -> np.ndarray:
    """Diagonal flow of |0><0|: (e^{(mu-nu)t/2}/F) diag(G^n).

    At t=0 (G=0) this is the projector onto n=0, the G -> 0+ limit.
    """
    if not (t >= 0):
        raise DomainError(f"t must be >= 0, got {t}")
    g = efg(t, p)
    x = (p.mu - p.nu) * t / 2
    n = np.arange(p.dim)
    return np.diag(math.exp(x - g.log_F) * np.power(g.G, n)).astype(complex)


def coherent_solution(alpha: complex, t: float, p: ModelParams) -> np.ndarray:
    """Diagonal flow of |alpha><alpha|:

        (1-G) e^{|alpha|^2 e^{-(mu-nu)t} log G}
            exp(-log G {beta a+ + conj(beta) a - N}),
        beta = alpha e^{-((mu-nu)/2 + i w0) t}.

    The formula degenerates at t=0 or nu=0 (log G -> -inf), and at a tiny
    t > 0 where G underflows to 0: all are rejected; use the initial state
    itself or tau_series there.
    """
    if not (t > 0):
        raise DomainError(f"coherent_solution requires t > 0, got {t} "
                          "(log G diverges at t=0)")
    if p.nu == 0:
        raise DomainError("coherent_solution requires nu > 0 (log G diverges); "
                          "use tau_series for pure damping")
    # same cutoff adequacy requirement as building |alpha> itself
    coherent_state(alpha, p.dim)

    g = efg(t, p)
    if not (g.G > 0):
        raise DomainError(f"coherent_solution: G underflows to 0 at t={t} "
                          "(log G diverges)")
    log_G = math.log(g.G)
    beta = alpha * np.exp(-((p.mu - p.nu) / 2 + 1j * p.omega0) * t)
    braces = (beta * creation(p.dim)
              + np.conj(beta) * annihilation(p.dim)
              - number(p.dim))
    prefactor = (1 - g.G) * math.exp(abs(alpha) ** 2 * math.exp(-(p.mu - p.nu) * t) * log_G)
    return prefactor * expm(-log_G * braces)
