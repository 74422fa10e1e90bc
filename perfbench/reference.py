"""Independent reference for the benchmark's correctness checks.

The Liouvillian is assembled here from the master equation itself, with
scipy.sparse on the full 2d x 2d atom (x) Fock space, and propagated with
scipy's expm_multiply.  Nothing here imports dampedjc: the program's
generator (dampedjc.superop) and oracle (dampedjc.oracle) are what this
module checks, so it must not share their code.

Master equation (atom index outer, index 0 the excited level):

    d rho/dt = -i [H, rho] + mu D[a] rho + nu D[a+] rho
    H = [[w0/2 + w0 N, Omega a], [Omega a+, -w0/2 + w0 N]]
    D[c] rho = c rho c+ - (c+ c rho + rho c+ c)/2

The pump term's c+ c = a a+ is taken as N + 1 on the retained levels (the
operator identity), not as the truncated product a a+, whose top entry is 0.
Row-major vectorisation: vec(A X B) = (A kron B^T) vec(X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply


@dataclass(frozen=True)
class Model:
    """Physical inputs shared by a workload, the program and this reference."""
    dim: int
    alpha: complex
    omega0: float = 1.0
    Omega: float = 1.0
    mu: float = 0.4
    nu: float = 0.1

    @property
    def rate(self) -> float:
        return max(self.Omega, self.mu, self.omega0)


def liouvillian(m: Model) -> sp.csc_matrix:
    d = m.dim
    a = sp.diags(np.sqrt(np.arange(1.0, d)), 1, format="csr", dtype=complex)
    ad = a.T.tocsr()
    n = sp.diags(np.arange(d, dtype=float), 0, format="csr", dtype=complex)
    one_f = sp.identity(d, dtype=complex, format="csr")
    one_a = sp.identity(2, dtype=complex, format="csr")
    excited = sp.csr_matrix(np.diag([1.0, 0.0]).astype(complex))
    raise_atom = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=complex))

    H = (m.omega0 * (sp.kron(excited - 0.5 * one_a, one_f) + sp.kron(one_a, n))
         + m.Omega * (sp.kron(raise_atom, a) + sp.kron(raise_atom.T, ad)))
    A = sp.kron(one_a, a)
    Ad = sp.kron(one_a, ad)
    num = sp.kron(one_a, n)
    num1 = sp.kron(one_a, n + one_f)
    eye = sp.identity(2 * d, dtype=complex, format="csr")

    def left(X):
        return sp.kron(X, eye)

    def right(X):
        return sp.kron(eye, X.T)

    L = (-1j * (left(H) - right(H))
         + m.mu * (sp.kron(A, A.conj()) - 0.5 * (left(num) + right(num)))
         + m.nu * (sp.kron(Ad, Ad.conj()) - 0.5 * (left(num1) + right(num1))))
    return L.tocsc()


def coherent_ket(alpha: complex, dim: int) -> np.ndarray:
    """c_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!), renormalised on dim levels."""
    c = np.array([alpha ** k / math.sqrt(math.factorial(k)) for k in range(dim)],
                 dtype=complex)
    return c / np.linalg.norm(c)


def vacuum_excited(m: Model) -> np.ndarray:
    """(1/2) diag(|0><0|, |alpha><alpha|) as a 2d x 2d matrix."""
    d = m.dim
    rho = np.zeros((2 * d, 2 * d), dtype=complex)
    rho[0, 0] = 0.5
    ket = coherent_ket(m.alpha, d)
    rho[d:, d:] = 0.5 * np.outer(ket, ket.conj())
    return rho


def trajectory(m: Model, t_max: float, points: int) -> np.ndarray:
    """States on np.linspace(0, t_max, points), shape (points, 2d, 2d)."""
    d2 = 2 * m.dim
    v = expm_multiply(liouvillian(m), vacuum_excited(m).ravel(),
                      start=0.0, stop=t_max, num=points, endpoint=True)
    return v.reshape(points, d2, d2)


def evolve(m: Model, t: float) -> np.ndarray:
    d2 = 2 * m.dim
    return expm_multiply(t * liouvillian(m), vacuum_excited(m).ravel()).reshape(d2, d2)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    diff = rho - sigma
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def observables(rho: np.ndarray) -> dict:
    """The program's per-method columns, except tdist_oracle."""
    d = rho.shape[0] // 2
    osc = rho[:d, :d] + rho[d:, d:]
    mean_a = complex(np.sum(np.diagonal(osc, -1) * np.sqrt(np.arange(1.0, d))))
    return {
        "trace": float(np.trace(rho).real),
        "p0": float(np.trace(rho[:d, :d]).real),
        "p1": float(np.trace(rho[d:, d:]).real),
        "mean_n": float(np.sum(np.diagonal(osc).real * np.arange(d))),
        "re_a": mean_a.real,
        "im_a": mean_a.imag,
        "min_eig": float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()),
    }
