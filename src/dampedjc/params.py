"""Model parameters for the damped Jaynes-Cummings system.

The master equation is

    d rho/dt = -i[H, rho]
               + mu  {a rho a+ - (a+ a rho + rho a+ a)/2}
               + nu  {a+ rho a - (a a+ rho + rho a a+)/2}

with the Jaynes-Cummings Hamiltonian

    H = [[omega0/2 + omega0*N, Omega*a],
         [Omega*a+,            -omega0/2 + omega0*N]]

on a Fock space truncated to `dim` levels.  The damping/pumping rates must
satisfy mu > nu >= 0 strictly; several closed forms divide by (mu - nu).
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

from .errors import ParamError


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and the Fock cutoff.

    omega0 : atom/cavity frequency (rad/time)
    Omega  : coupling strength (rad/time)
    mu     : damping (photon loss) rate (1/time)
    nu     : pumping (photon gain) rate (1/time)
    dim    : number of retained Fock levels (indices 0..dim-1)
    """

    omega0: float
    Omega: float
    mu: float
    nu: float
    dim: int

    def __post_init__(self):
        for name in ("omega0", "Omega", "mu", "nu"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ParamError(f"{name} must be a finite real number, got {value!r}")
        if self.omega0 < 0:
            raise ParamError(f"omega0 must be >= 0, got {self.omega0}")
        if self.Omega < 0:
            raise ParamError(f"Omega must be >= 0, got {self.Omega}")
        if self.nu < 0:
            raise ParamError(f"nu must be >= 0, got {self.nu}")
        if not self.mu > self.nu:
            raise ParamError(
                f"mu > nu required strictly (mu={self.mu}, nu={self.nu}); "
                "the E/F/G closed forms divide by mu - nu"
            )
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise ParamError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 2:
            raise ParamError(f"dim must be >= 2, got {self.dim}")
        if self.dim > math.isqrt(sys.maxsize // 4):
            raise ParamError(f"dim must be <= {math.isqrt(sys.maxsize // 4)}, so that "
                             f"the state's 4 dim^2 entries can be indexed, got {self.dim}")

    @property
    def rate(self) -> float:
        """Fastest rate in the problem; sets the natural step-size scale."""
        return max(self.Omega, self.mu, self.omega0)

    def with_dim(self, dim: int) -> "ModelParams":
        """Same physics on a different cutoff."""
        return dataclasses.replace(self, dim=dim)
