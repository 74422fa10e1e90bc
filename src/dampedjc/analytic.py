"""Closed-form propagation of the diagonal (Omega-independent) part.

The block-diagonal generator -i w0 K0 + L exponentiates exactly through an
su(1,1) disentangling:

    e^{t(-i w0 K0 + L)} =
        e^{(mu-nu)t/2} e^{G K+} e^{-i w0 t K0 - 2 log(F) K3} e^{E K-}

with scalar functions E(t), F(t), G(t) of the rates alone.  K+ and K- are
nilpotent at finite cutoff, so the outer factors are finite polynomial sums
and the middle factor is diagonal: no matrix exponential is needed.  The
flows of |0><0| and |alpha><alpha| are written entry by entry in G alone.

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
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fock import coherent_state
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
    """Evaluate E, F, G at a finite time t >= 0."""
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t}")
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


@lru_cache(maxsize=8)
def _tau_operators(t: float, p: ModelParams) -> tuple:
    """tau_series' t-only operators, read-only: the input scaling w, the m-sum
    matrix, the skewed middle factor, the n-sum matrix and the output scalings."""
    g = efg(t, p)
    d = p.dim
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
    phase = np.exp(-1j * p.omega0 * t * n)
    out_w = math.exp((p.mu - p.nu) * t / 2 - g.log_F) * w * phase
    ops = (w, m_sum, _skew(np.broadcast_to(mid, (d, d))), n_sum,
           out_w[:, None], w * phase.conj())
    for op in ops:
        op.flags.writeable = False
    return ops


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
    diagonal and applied last.  These t-only operators are built once per
    (t, params) in a bounded cache shared by every propagator order.  tau0
    may carry leading batch axes, shape (..., dim, dim); each dim x dim
    slice is flowed independently.
    """
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    tau0 = np.asarray(tau0, dtype=complex)
    d = p.dim
    if tau0.shape[-2:] != (d, d):
        raise DomainError(f"tau0 must be (..., {d}, {d}) for dim={d}, got {tau0.shape}")

    w, m_sum, mid, n_sum, out_rows, out_cols = _tau_operators(float(t), p)
    sigma = _skew(tau0 * w)
    sigma = (m_sum @ sigma.view(float)).view(complex) * mid
    sigma = (n_sum @ sigma.view(float)).view(complex)
    return (out_rows * _unskew(sigma)) * out_cols


def vacuum_solution(t: float, p: ModelParams) -> np.ndarray:
    """Diagonal flow of |0><0|: (e^{(mu-nu)t/2}/F) diag(G^n).

    At t=0 (G=0) this is the projector onto n=0, the G -> 0+ limit.
    """
    g = efg(t, p)
    x = (p.mu - p.nu) * t / 2
    n = np.arange(p.dim)
    return np.diag(math.exp(x - g.log_F) * np.power(g.G, n)).astype(complex)


def coherent_solution(alpha: complex, t: float, p: ModelParams) -> np.ndarray:
    """Diagonal flow of |alpha><alpha|: the displaced thermal state
    (1-G) D(beta) G^N D(beta)+, beta = alpha e^{-((mu-nu)/2 + i w0) t}, entry
    by entry (Cahill & Glauber, Phys. Rev. 177, 1882 (1969)).  rho[n, n+k] =
    (1-G) e^{-(1-G)|beta|^2} (conj(beta) (1-G))^k / sqrt(k!) u_n, where u_n =
    sqrt(n! k!/(n+k)!) G^n L_n^(k)(-(1-G)^2 |beta|^2 / G) follows the Laguerre
    recurrence in n.  These are the full |alpha>'s flow on the retained
    levels; G = 0 (t = 0, nu = 0, or a tiny t) gives |beta><beta|.
    """
    coherent_state(alpha, p.dim)   # the cutoff must hold |alpha> itself
    G, d = efg(t, p).G, p.dim
    beta = alpha * np.exp(-((p.mu - p.nu) / 2 + 1j * p.omega0) * t)
    nb = abs(beta) ** 2 * (1 - G)
    k = np.arange(d)
    n = k[:, None]
    # (n+1) P_{n+1} = (G (2n+1+k) + (1-G) nb) P_n - G^2 (n+k) P_{n-1} for
    # P_n = G^n L_n^(k)(...), rewritten for u_n = sqrt(n! k!/(n+k)!) P_n
    scale = 1 / np.sqrt((n + 1) * (n + 1 + k))
    step = (G * (2 * n + 1 + k) + (1 - G) * nb) * scale
    back = G * G * np.sqrt(n * (n + k)) * scale
    u = np.zeros((d + 1, d))   # row n + 1 holds u_n
    u[1] = 1.0
    for i in range(1, d):
        u[i + 1] = step[i - 1] * u[i] - back[i - 1] * u[i - 1]
    c = np.cumprod(np.concatenate(([1.0], np.conj(beta) * (1 - G) / np.sqrt(k[1:]))))
    skewed = np.zeros((d, 2 * d), dtype=complex)   # column k + d - 1: diagonal k
    skewed[:, d - 1:-1] = (1 - G) * math.exp(-nb) * c * u[1:]
    upper = _unskew(skewed)
    return upper + np.triu(upper, 1).conj().T
