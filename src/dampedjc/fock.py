"""Truncated Fock-space operators and states.

All operators are dense complex matrices on the space spanned by
|0>, |1>, ..., |dim-1>.  Truncation breaks [a, a+] = 1 in the last row/column
only; everything in this module is exact on the retained levels.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

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
    lam = abs(alpha) ** 2
    # complement of the retained Poisson mass, accumulated term by term
    term = math.exp(-lam)
    retained = term
    for n in range(1, dim):
        term *= lam / n
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
    c[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c / np.linalg.norm(c)


def number_values(f: Callable, dim: int, shift: int = 0) -> np.ndarray:
    """f(n + shift) for n = 0..dim-1; shift in {0, 1} selects N or N+1.

    f is called once, on the integer array n + shift, and must work
    elementwise (numpy ufuncs); a scalar result is broadcast to every level.
    Since f sees integers only, operator identities such as
    a f(N) = f(N+1) a hold exactly on the retained levels."""
    dim = _check_dim(dim)
    if shift not in (0, 1):
        raise DomainError(f"shift must be 0 or 1, got {shift!r}")
    values = np.asarray(f(np.arange(shift, dim + shift)), dtype=complex)
    if not np.all(np.isfinite(values)):
        raise DomainError("number_values: f returned non-finite values")
    return np.broadcast_to(values, (dim,))


def func_of_number(f: Callable, dim: int, shift: int = 0) -> np.ndarray:
    """diag(number_values(f, dim, shift)), e.g. cos(x sqrt(N+1))."""
    return np.diag(number_values(f, dim, shift))


def cos_sqrt_values(x: float, dim: int, shift: int = 0) -> np.ndarray:
    """cos(x sqrt(n + shift)) for n = 0..dim-1."""
    return number_values(lambda n: np.cos(x * np.sqrt(n)), dim, shift)


def sinc_sqrt_values(x: float, dim: int, shift: int = 0) -> np.ndarray:
    """sin(x sqrt(n + shift)) / sqrt(n + shift) for n = 0..dim-1, with the
    n+shift = 0 entry set to its analytic limit x (sin(x s)/s -> x as s -> 0)."""

    def f(n):
        r = np.sqrt(np.maximum(n, 1))
        return np.where(n == 0, x, np.sin(x * r) / r)

    return number_values(f, dim, shift)


def cos_sqrt(x: float, dim: int, shift: int = 0) -> np.ndarray:
    """diag(cos_sqrt_values(x, dim, shift))."""
    return np.diag(cos_sqrt_values(x, dim, shift))


def sinc_sqrt(x: float, dim: int, shift: int = 0) -> np.ndarray:
    """diag(sinc_sqrt_values(x, dim, shift))."""
    return np.diag(sinc_sqrt_values(x, dim, shift))
