import math

import numpy as np
import pytest

from dampedjc import (
    DomainError,
    ModelParams,
    TruncationError,
    annihilation,
    coherent_solution,
    coherent_state,
    converged_diagonal_expm,
    devectorize,
    diagonal_block_propagator,
    efg,
    tau_series,
    vacuum_solution,
    vectorize,
)

P = ModelParams(omega0=1.0, Omega=1.0, mu=0.2, nu=0.1, dim=12)


def test_efg_at_zero():
    g = efg(0.0, P)
    assert g.E == 0.0
    assert g.G == 0.0
    assert g.log_F == pytest.approx(0.0, abs=1e-15)
    assert g.F == pytest.approx(1.0, abs=1e-15)


def test_efg_identity_random():
    # F (1 - G) = e^{(mu-nu)t/2}, checked in log space for large t
    rng = np.random.default_rng(12)
    for _ in range(200):
        mu = rng.uniform(0.05, 3.0)
        nu = rng.uniform(0.0, mu * 0.999)
        t = rng.uniform(0.0, 50.0)
        p = ModelParams(omega0=1.0, Omega=0.0, mu=mu, nu=nu, dim=2)
        g = efg(t, p)
        x = (mu - nu) * t / 2
        assert abs(g.log_F + math.log1p(-g.G) - x) < 1e-12


def test_efg_limits_and_monotonicity():
    ts = np.linspace(0.0, 400.0, 200)
    gs = [efg(t, P) for t in ts]
    Gs = [g.G for g in gs]
    Es = [g.E for g in gs]
    assert all(b >= a for a, b in zip(Gs, Gs[1:]))
    assert 0 <= min(Gs) and max(Gs) < P.nu / P.mu + 1e-12
    assert Gs[-1] == pytest.approx(P.nu / P.mu, abs=1e-8)
    assert Es[-1] == pytest.approx(1.0, abs=1e-8)   # E saturates at 1


def test_efg_no_overflow_at_huge_t():
    # naive cosh/sinh overflow around (mu-nu) t ~ 1400; the log form must not
    g = efg(1e6, P)
    assert math.isfinite(g.E) and math.isfinite(g.G) and math.isfinite(g.log_F)
    assert g.log_F > 1e4


def test_efg_rejects_negative_t():
    with pytest.raises(DomainError):
        efg(-0.1, P)


def test_diagonal_block_propagator_vs_reference():
    # the disentangled product must reproduce the flow of the untruncated
    # generator restricted to the retained levels (dense expm at an enlarged
    # cutoff, compressed back)
    for t in (0.25, 1.0, 2.5):
        for phase in (0.0, -P.omega0, P.omega0):
            got = diagonal_block_propagator(t, P, phase=phase)
            ref = converged_diagonal_expm(t, P, phase=phase, pad=16)
            assert np.abs(got - ref).max() < 1e-12


def test_tau_series_matches_propagator_matrix():
    rng = np.random.default_rng(13)
    for _ in range(10):
        tau0 = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        t = rng.uniform(0.05, 2.0)
        got = tau_series(tau0, t, P)
        want = devectorize(diagonal_block_propagator(t, P) @ vectorize(tau0))
        assert np.abs(got - want).max() < 1e-12


def test_tau_series_batch_axis_matches_per_block_calls():
    # a leading batch axis flows each slice exactly as a separate call would
    rng = np.random.default_rng(16)
    d = P.dim
    stack = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    for t in (0.0, 0.8, 2.5):
        got = tau_series(stack, t, P)
        want = np.stack([tau_series(block, t, P) for block in stack])
        assert got.shape == (4, d, d)
        assert (got == want).all()
    for bad in (np.zeros((4, d, d + 1)), np.zeros((d + 1, d)), np.zeros(d)):
        with pytest.raises(DomainError):
            tau_series(bad, 0.5, P)


def test_tau_series_t0_is_identity():
    rng = np.random.default_rng(15)
    tau0 = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    assert np.abs(tau_series(tau0, 0.0, P) - tau0).max() < 1e-14


def test_vacuum_dark_under_pure_damping():
    # nu = 0: |0><0| is stationary
    p = ModelParams(omega0=1.0, Omega=0.0, mu=0.4, nu=0.0, dim=8)
    vac = np.zeros((8, 8), dtype=complex)
    vac[0, 0] = 1.0
    out = tau_series(vac, 3.0, p)
    assert np.abs(out - vac).max() < 1e-14


def test_vacuum_solution_matches_series():
    d = P.dim
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    for t in (0.0, 0.3, 1.5, 10.0):
        got = vacuum_solution(t, P)
        want = tau_series(vac, t, P)
        assert np.abs(got - want).max() < 1e-13


def test_vacuum_solution_geometric_steady_state():
    # long-time limit: diag((1 - G) G^n) with G = nu/mu
    p = ModelParams(omega0=1.0, Omega=0.0, mu=0.5, nu=0.2, dim=20)
    out = vacuum_solution(500.0, p)
    G = p.nu / p.mu
    want = (1 - G) * np.power(G, np.arange(20))
    assert np.abs(np.diag(out).real - want).max() < 1e-12
    assert np.abs(out - np.diag(np.diag(out))).max() == 0


def test_coherent_solution_matches_series():
    p = P.with_dim(30)
    alpha = 0.8 + 0.3j
    ket = coherent_state(alpha, 30)
    tau0 = np.outer(ket, ket.conj())
    for t in (0.2, 0.9, 2.0):
        got = coherent_solution(alpha, t, p)
        want = tau_series(tau0, t, p)
        assert np.abs(got - want).max() < 1e-12


def test_coherent_solution_mean_amplitude():
    # <a> spirals in with rate (mu-nu)/2 and phase w0
    p = P.with_dim(30)
    alpha = 1.0
    for t in (0.5, 1.5, 3.0):
        tau = coherent_solution(alpha, t, p)
        mean_a = np.trace(tau @ annihilation(30))
        want = alpha * np.exp(-((p.mu - p.nu) / 2 + 1j * p.omega0) * t)
        assert abs(mean_a - want) < 1e-12


def test_coherent_solution_domain():
    with pytest.raises(DomainError):
        coherent_solution(0.5, 0.0, P)
    with pytest.raises(DomainError):
        coherent_solution(0.5, 1.0, ModelParams(omega0=1.0, Omega=0.0,
                                                mu=0.4, nu=0.0, dim=12))
    with pytest.raises(TruncationError):
        coherent_solution(2.0, 1.0, P.with_dim(8))
    # G underflows to 0 at a tiny t > 0: log G diverges as at t = 0
    with pytest.raises(DomainError):
        coherent_solution(0.1, 5e-324, P.with_dim(8))


def test_first_moment_matches_classical_oscillator():
    # <a>(t) of the damped mode is the amplitude of a classical damped
    # oscillator: alpha e^{-((mu-nu)/2 + i omega0) t}, both parts
    p = P.with_dim(30)
    alpha = 0.9
    for t in (0.4, 1.2, 2.5):
        tau = coherent_solution(alpha, t, p)
        mean_a = np.trace(tau @ annihilation(30))
        want = alpha * np.exp(-((p.mu - p.nu) / 2 + 1j * p.omega0) * t)
        assert abs(mean_a - want) < 1e-10


def test_tau_series_beyond_factorial_overflow():
    # above dim 170, n! overflows a double; the scaled basis keeps every
    # intermediate in range, so the flow still matches the closed forms
    d = 300
    p = P.with_dim(d)
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    alpha = 3.0
    ket = coherent_state(alpha, d)
    coh = np.outer(ket, ket.conj())
    for t in (0.01, 2.0, 500.0):
        got = tau_series(np.stack([vac, coh]), t, p)
        assert np.all(np.isfinite(got))
        assert np.abs(got[0] - vacuum_solution(t, p)).max() < 1e-12
        assert np.abs(got[1] - coherent_solution(alpha, t, p)).max() < 1e-12


def test_tau_series_edge_kernels_at_large_dim():
    # t = 0 gives E = 0 (no m-sum term beyond the first) and nu = 0 gives
    # G = 0 (no n-sum term): the identity, and pure damping, which keeps a
    # coherent state coherent with beta = alpha e^{-(mu/2 + i w0) t}
    d = 300
    rng = np.random.default_rng(17)
    tau0 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert efg(0.0, P).E == 0.0
    assert np.abs(tau_series(tau0, 0.0, P.with_dim(d)) - tau0).max() < 1e-12
    damped = ModelParams(omega0=1.0, Omega=0.0, mu=0.4, nu=0.0, dim=d)
    alpha = 3.0 - 1.0j
    ket = coherent_state(alpha, d)
    for t in (0.01, 2.0, 500.0):
        assert efg(t, damped).G == 0.0
        got = tau_series(np.outer(ket, ket.conj()), t, damped)
        beta = alpha * np.exp(-(damped.mu / 2 + 1j * damped.omega0) * t)
        out = coherent_state(beta, d)
        assert np.abs(got - np.outer(out, out.conj())).max() < 1e-12
