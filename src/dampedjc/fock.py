"""Truncated Fock-space operators and states.

All operators are dense complex matrices on the space spanned by
|0>, |1>, ..., |dim-1>.  Truncation breaks [a, a+] = 1 in the last row/column
only; everything in this module is exact on the retained levels.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, TruncationError

TAIL_TOL = 1e-10   # largest Poisson weight a truncated coherent state may discard


def _check_dim(dim) -> int:
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
        raise DomainError(f"dim must be an integer, got {dim!r}")
    if dim < 2:
        raise DomainError(f"dim must be >= 2, got {dim}")
    return int(dim)


def annihilation(dim: int) -> np.ndarray:
    """a with entries a[n-1, n] = sqrt(n); a|n> = sqrt(n)|n-1>."""
    dim = _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def creation(dim: int) -> np.ndarray:
    """a+ = a conjugate-transposed; a+|n> = sqrt(n+1)|n+1>."""
    return annihilation(dim).conj().T


def number(dim: int) -> np.ndarray:
    """N = a+ a = diag(0, 1, ..., dim-1)."""
    dim = _check_dim(dim)
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def coherent_tail_weight(alpha: complex, dim: int) -> float:
    """Poisson weight the cutoff discards: sum_{n>=dim} e^{-|a|^2} |a|^{2n}/n!."""
    dim = _check_dim(dim)
    lam = min(abs(alpha), 1e150) ** 2   # finite: ** 2 raises past ~1.3e154, and 0 * inf is nan
    term = math.exp(-lam)
    if term < np.finfo(float).tiny:   # underflows; n beyond lam +- 10 sqrt(lam) hold < e^-44
        lo, hi = math.ceil(lam - 10 * math.sqrt(lam)), math.floor(lam + 10 * math.sqrt(lam))
        if not lo < dim <= hi:
            return float(dim <= lo)
        logs = np.cumsum(np.log(lam / np.arange(lo, hi + 1)))   # log(term n / term lo-1)
        terms = np.exp(logs - logs.max())
        return float(terms[dim - lo:].sum() / terms.sum())
    # complement of the retained Poisson mass, accumulated term by term up to a
    # zero term, or past n = lam (terms shrink there) one the sum cannot hold
    retained = term
    for n in range(1, dim):
        term *= lam / n
        if term == 0 or n > lam and retained + term == retained:
            break
        retained += term
    return max(0.0, 1.0 - retained)


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent state c_n = e^{-|a|^2/2} a^n / sqrt(n!), renormalized.

    Raises TruncationError when the discarded Poisson tail weight is >=
    TAIL_TOL, i.e. the cutoff is too small for this alpha.
    """
    dim = _check_dim(dim)
    if not cmath.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    tail = coherent_tail_weight(alpha, dim)
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"coherent state alpha={alpha} needs more than dim={dim} levels "
            f"(discarded weight {tail:.3e} >= {TAIL_TOL:.1e})"
        )
    c = np.empty(dim, dtype=complex)
    # c[0] kept above underflow, amplitudes past 1e100 scaled by 1e-100: normalizing undoes both
    c[0] = math.exp(-min(abs(alpha) ** 2, 1400) / 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
        if abs(c[n]) > 1e100:
            c[:n + 1] *= 1e-100
    return c / np.linalg.norm(c)


def _finite(values: np.ndarray, x: float) -> np.ndarray:
    values = values.astype(complex)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"cos/sinc of x sqrt(N) is not finite at x = {x!r}")
    return values


def cos_sqrt_values(x: float, dim: int, shift: int = 0) -> np.ndarray:
    """cos(x sqrt(n + shift)) for n = 0..dim-1.  Only the integers n + shift
    enter, so a f(N) = f(N+1) a holds exactly on the retained levels, here
    and for sinc_sqrt_values."""
    n = np.arange(shift, _check_dim(dim) + shift)
    return _finite(np.cos(x * np.sqrt(n)), x)


def sinc_sqrt_values(x: float, dim: int, shift: int = 0) -> np.ndarray:
    """sin(x sqrt(n + shift)) / sqrt(n + shift) for n = 0..dim-1, with the
    n+shift = 0 entry set to its analytic limit x (sin(x s)/s -> x as s -> 0)."""
    n = np.arange(shift, _check_dim(dim) + shift)
    r = np.sqrt(np.maximum(n, 1))
    return _finite(np.where(n == 0, x, np.sin(x * r) / r), x)
