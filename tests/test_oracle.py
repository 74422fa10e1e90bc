import cmath
import contextlib
import math
import re
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from dampedjc import (
    BlockDensity,
    DomainError,
    ModelParams,
    NumericalError,
    OracleConfig,
    OracleMethod,
    PropagatorOrder,
    ShapeError,
    StepError,
    TruncationWarning,
    build_generator,
    coherent_state,
    diagnostics,
    master_rhs,
    oracle_propagate,
    propagate,
    restrict_superop,
    trace_distance,
    vacuum_solution,
    vectorize_blocks,
)
from dampedjc import oracle
from dampedjc.oracle import oracle_trajectory
from dampedjc.superop import (GUARD_LEVELS, TAYLOR_MAX_SUBSTEPS, TAYLOR_SUBSTEP_NORM,
                              _taylor_action, sparse_generator, step_count)

P = ModelParams(omega0=1.0, Omega=1.0, mu=0.2, nu=0.1, dim=10)


def converged_expm(t, p, pad=8):
    """expm(t (X+Y)) built at cutoff dim+pad, compressed back to dim: the
    restriction of the untruncated flow up to a tail that shrinks
    factorially with pad (plain expm at dim is not -- its edge columns feel
    the missing levels at O(1))."""
    dp = p.dim + pad
    return restrict_superop(expm(t * build_generator(p.with_dim(dp))), dp, p.dim, nblocks=4)


def example_state(alpha, d):
    ket = coherent_state(alpha, d)
    z = np.zeros((d, d), dtype=complex)
    vac = z.copy()
    vac[0, 0] = 0.5
    return BlockDensity(vac, z.copy(), z.copy(), 0.5 * np.outer(ket, ket.conj()))


def test_master_rhs_matches_generator():
    # the componentwise equations and the assembled superoperator are two
    # independent writings of the same generator
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        p = ModelParams(omega0=rng.uniform(0, 2), Omega=rng.uniform(0, 2),
                        nu=(nu := rng.uniform(0, 1)), mu=nu + rng.uniform(0.05, 1),
                        dim=d)
        rho = BlockDensity(*(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)) for _ in range(4)))
        got = vectorize_blocks(master_rhs(rho, p))
        want = build_generator(p) @ vectorize_blocks(rho)
        assert np.abs(got - want).max() < 1e-12


def test_master_rhs_trace_free_on_interior():
    rng = np.random.default_rng(32)
    rho = BlockDensity(*(rng.standard_normal((10, 10))
                         + 1j * rng.standard_normal((10, 10)) for _ in range(4)))
    for i in range(2):
        for j in range(2):
            rho.block(i, j)[9, :] = 0
            rho.block(i, j)[:, 9] = 0
    out = master_rhs(rho, P)
    assert abs(out.trace()) < 1e-12


def test_master_rhs_dim_mismatch():
    with pytest.raises(ShapeError):
        master_rhs(BlockDensity.zero(8), P)


def test_rhs_reduces_to_diagonal_flow_without_coupling():
    # Omega = 0, state concentrated in rho00: rho00 evolves like the
    # closed-form vacuum solution, weighted
    p = ModelParams(omega0=1.0, Omega=0.0, mu=0.3, nu=0.1, dim=12)
    rho0 = BlockDensity.zero(12)
    rho0.rho00[0, 0] = 1.0
    out = oracle_propagate(rho0, 0.9, p)
    want = vacuum_solution(0.9, p)
    assert np.abs(out.rho00 - want).max() < 1e-9
    assert np.abs(out.rho11).max() < 1e-12


def test_oracle_methods_agree():
    p = P.with_dim(14)
    rho0 = example_state(0.5, p.dim)
    e = oracle_propagate(rho0, 1.0, p)
    r = oracle_propagate(rho0, 1.0, p, OracleConfig(method=OracleMethod.RK4, dt=1e-3))
    assert trace_distance(e.full(), r.full()) < 1e-10


def test_rk4_order_four():
    rho0 = example_state(0.4, 12)
    p = P.with_dim(12)
    exact = oracle_propagate(rho0, 0.5, p).full()
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        out = oracle_propagate(rho0, 0.5, p, OracleConfig(method=OracleMethod.RK4, dt=dt))
        errs.append(trace_distance(out.full(), exact))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(12 < r < 22 for r in ratios), (errs, ratios)   # ~2^4


def test_oracle_output_is_physical():
    p = P.with_dim(16)
    rho0 = example_state(0.4, p.dim)
    out = oracle_propagate(rho0, 1.0, p)
    rep = diagnostics(out)
    assert rep.trace_deviation < 1e-12
    assert rep.hermiticity_defect < 1e-12
    assert rep.min_eigenvalue > -1e-12
    assert rep.guard_occupation < 1e-8


def test_oracle_validation_and_failure():
    rho0 = example_state(0.5, P.dim)
    with pytest.raises(DomainError):
        oracle_propagate(rho0, -1.0, P)
    with pytest.raises(ShapeError):
        oracle_propagate(example_state(0.2, 6), 0.5, P)
    with pytest.raises(ShapeError):
        oracle_trajectory(example_state(0.2, 6), [0.0, 0.5], P)
    with pytest.raises(DomainError):
        OracleConfig(dt=0.0)
    # coarse RK4 on a fast-phase problem goes unstable -> consistency checks trip
    stiff = ModelParams(omega0=15.0, Omega=1.0, mu=0.5, nu=0.1, dim=P.dim)
    with pytest.raises(StepError):
        oracle_propagate(example_state(0.5, P.dim), 2.0, stiff,
                         OracleConfig(method=OracleMethod.RK4, dt=0.2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_rejects_non_finite_and_overflowing_times():
    # a non-finite t or grid end is a domain error; a finite t whose Taylor
    # action would need more than TAYLOR_MAX_SUBSTEPS substeps, or whose
    # exponent t ||G||_1 overflows, is a numerical failure that names the
    # oracle and t, with no numpy or scipy warning before it
    rho0 = example_state(0.5, 16)
    for t in (np.inf, np.nan):
        with pytest.raises(DomainError):
            oracle_propagate(rho0, t, P.with_dim(16))
        with pytest.raises(DomainError):
            oracle_trajectory(rho0, np.array([0.0, t]), P.with_dim(16))
    for d, t in ((16, 1e200), (2, 1e100), (2, 1.7e308)):
        rho0 = example_state(0.0, d)
        named = "oracle .* t = " + re.escape(f"{t:g}")
        with pytest.raises(NumericalError, match=named):
            oracle_propagate(rho0, t, P.with_dim(d))
        with pytest.raises(NumericalError, match=named):
            oracle_trajectory(rho0, np.array([0.0, t]), P.with_dim(d))


def test_oracle_refuses_substeps_over_budget():
    # at dim 2, t = 1e7 needs 3.75e6 substeps: refused before any product,
    # naming t and the substep count, where an unbounded action ran for hours
    p = P.with_dim(2)
    rho0 = example_state(0.0, 2)
    G = sparse_generator(p)
    substeps = math.ceil(1e7 * abs(G).sum(axis=0).max() / TAYLOR_SUBSTEP_NORM)
    assert substeps > TAYLOR_MAX_SUBSTEPS
    start = time.process_time()
    for run in (lambda: oracle_propagate(rho0, 1e7, p),
                lambda: oracle_trajectory(rho0, np.array([0.0, 1e7]), p)):
        with pytest.raises(NumericalError, match=rf"t = 1e\+07: .*\b{substeps} substeps"):
            run()
    assert time.process_time() - start < 1.0


def test_rk4_refuses_steps_over_budget(monkeypatch):
    # dt = 1e-300 asks for 5e299 RK4 steps, a loop that never ended: refused
    # against TAYLOR_MAX_SUBSTEPS, the Taylor action's budget, before any step
    calls = []
    monkeypatch.setattr(oracle, "_rhs", lambda *args: calls.append(args))
    cfg = OracleConfig(method=OracleMethod.RK4, dt=1e-300)
    with pytest.raises(NumericalError, match=r"oracle rk4 needs 5e\+299 steps .* "
                                             rf"{TAYLOR_MAX_SUBSTEPS} allowed"):
        oracle_propagate(example_state(0.5, P.dim), 0.5, P, cfg)
    assert calls == []
    # the budget itself is a schedule that runs
    assert step_count(1.0, 1.0 / TAYLOR_MAX_SUBSTEPS, "x") == TAYLOR_MAX_SUBSTEPS
    with pytest.raises(NumericalError):
        step_count(1.0, 1.0 / (TAYLOR_MAX_SUBSTEPS + 1), "x")


def test_taylor_action_budget_is_checked_before_any_product():
    class Counted:
        def __init__(self, G):
            self.G, self.products = G, 0

        def __matmul__(self, other):
            self.products += 1
            return self.G @ other

    G = sparse_generator(P)
    counted = Counted(G)
    norm = float(abs(G).sum(axis=0).max())
    over = (TAYLOR_MAX_SUBSTEPS + 1) * TAYLOR_SUBSTEP_NORM / norm
    with pytest.raises(NumericalError, match=f"{TAYLOR_MAX_SUBSTEPS + 1} substeps"):
        _taylor_action(counted, norm, over, vectorize_blocks(example_state(0.3, P.dim)))
    assert counted.products == 0


def test_oracle_trajectory_starts_at_first_grid_time():
    # for either method, rho0 sits at ts[0] and each state is the flow over
    # ts[i] - ts[0], on any non-decreasing grid, bit for bit the chain of one
    # oracle_propagate per interval; a decreasing grid is a domain error
    p = P.with_dim(16)
    rho0 = example_state(0.5, p.dim)
    for cfg in (OracleConfig(), OracleConfig(OracleMethod.RK4, dt=0.05)):
        late, _ = oracle_trajectory(rho0, np.array([1.0, 1.5, 2.0]), p, cfg)
        assert late[0] is rho0
        for state, t in zip(late[1:], (0.5, 1.0)):
            assert np.abs(state.full() - oracle_propagate(rho0, t, p, cfg).full()).max() < 1e-13
        ts = np.array([0.0, 0.1, 0.1, 2.0])
        uneven, _ = oracle_trajectory(rho0, ts, p, cfg)
        for state, t in zip(uneven[1:], ts[1:]):
            assert np.abs(state.full() - oracle_propagate(rho0, t, p, cfg).full()).max() < 1e-13
        chain = [rho0]
        for h in np.diff(ts):
            chain.append(oracle_propagate(chain[-1], float(h), p, cfg))
        assert all(np.array_equal(a.blocks, b.blocks) for a, b in zip(uneven, chain)), cfg
        with pytest.raises(DomainError):
            oracle_trajectory(rho0, np.array([0.0, 2.0, 1.0]), p, cfg)


@pytest.mark.filterwarnings("ignore::dampedjc.errors.TruncationWarning")
def test_oracle_matches_independent_exponentials():
    # scipy's expm_multiply of the sparse generator and dense expm of the
    # Kronecker-assembled generator: two exponentials the oracle shares no
    # code with
    p = P.with_dim(10)
    rho0 = example_state(0.3, p.dim)
    v = vectorize_blocks(rho0)
    G = sparse_generator(p)
    dense = build_generator(p)
    for t in (0.3, 1.1, 2.0):
        got = vectorize_blocks(oracle_propagate(rho0, t, p))
        assert np.abs(got - expm_multiply(t * G, v)).max() < 1e-13
        assert np.abs(got - expm(t * dense) @ v).max() < 1e-13
    ts = np.array([0.0, 0.125, 0.25, 0.75, 2.0])
    states, _ = oracle_trajectory(rho0, ts, p)
    want = expm_multiply(G, v, start=0.0, stop=2.0, num=17, endpoint=True)[[0, 1, 2, 6, 16]]
    for state, t, w in zip(states, ts, want):
        got = vectorize_blocks(state)
        assert np.abs(got - w).max() < 1e-13
        assert np.abs(got - expm(t * dense) @ v).max() < 1e-13


def test_diagnostics_flags_bad_states():
    d = 6
    rho = BlockDensity.zero(d)
    rho.rho00[0, 0] = 0.7      # trace 0.7, not 1
    rho.rho01[0, 1] = 0.5      # rho10 stays 0: not hermitian
    rep = diagnostics(rho)
    assert rep.trace_deviation == pytest.approx(0.3)
    assert rep.hermiticity_defect == pytest.approx(0.5)
    rho2 = BlockDensity.zero(d)
    rho2.rho00[1, 1] = -0.2
    assert diagnostics(rho2).min_eigenvalue == pytest.approx(-0.2)


def test_converged_expm_stable_in_pad():
    # growing the enlarged cutoff moves the compressed matrix less and less;
    # what remains lives in the edge rows, so a low-occupation state never
    # sees it
    p = P.with_dim(8)
    a = converged_expm(0.6, p, pad=4)
    b = converged_expm(0.6, p, pad=8)
    c = converged_expm(0.6, p, pad=12)
    d_ab = np.abs(a - b).max()
    d_bc = np.abs(b - c).max()
    assert d_bc < d_ab / 10
    assert d_bc < 1e-9
    v = vectorize_blocks(example_state(0.2, 8))
    assert np.abs((b - c) @ v).max() < 1e-12


def test_converged_expm_differs_from_plain_at_edge():
    # plain expm of the truncated generator and the compressed enlarged-cutoff
    # flow differ by O(1) matrix elements near the cutoff; acting on a state
    # that stays far away from the edge, both give the same answer
    p = P.with_dim(8)
    plain = expm(0.6 * build_generator(p))
    conv = converged_expm(0.6, p, pad=8)
    assert np.abs(plain - conv).max() > 1e-4
    v = vectorize_blocks(example_state(0.2, 8))
    assert np.abs((plain - conv) @ v).max() < 1e-7


def one_excitation_exact(t, p):
    """The exact state at nu = 0 from |atom 0, n 0><atom 0, n 0|, as the
    2 dim x 2 dim matrix: |psi><psi| + (1 - |c0|^2 - |c1|^2) |1,0><1,0| with
    psi = c0 |0,0> + c1 |1,1> (the damped vacuum Rabi oscillation; the flow
    never leaves n <= 1, so the truncated generator is exact at dim >= 2)."""
    gamma = p.mu / 4
    w = cmath.sqrt(p.Omega ** 2 - gamma ** 2)   # imaginary when overdamped
    decay = math.exp(-gamma * t)
    c0 = decay * (cmath.cos(w * t) + gamma / w * cmath.sin(w * t))
    c1 = -1j * p.Omega / w * decay * cmath.sin(w * t)
    d = p.dim
    psi = np.zeros(2 * d, dtype=complex)
    psi[0], psi[d + 1] = c0, c1
    rho = np.outer(psi, psi.conj())
    rho[d, d] += 1 - abs(c0) ** 2 - abs(c1) ** 2
    return rho


def one_excitation_start(d):
    rho = np.zeros((2 * d, 2 * d), dtype=complex)
    rho[0, 0] = 1.0
    return BlockDensity.from_full(rho)


def guard_expected(d):
    """The state fills n <= 1, inside the top GUARD_LEVELS levels below dim 5."""
    return pytest.warns(TruncationWarning) if d <= GUARD_LEVELS + 1 else contextlib.nullcontext()


def test_oracle_matches_one_excitation_solution():
    # an exact solution that shares no line with the oracle: nu = 0, one
    # excitation, at the README rates and in the overdamped case
    ts = np.linspace(0.0, 2.0, 41)
    readme = ModelParams(omega0=1.0, Omega=1.0, mu=0.4, nu=0.0, dim=2)
    overdamped = ModelParams(omega0=0.3, Omega=0.5, mu=3.0, nu=0.0, dim=6)
    for p in (readme, readme.with_dim(24), overdamped):
        for cfg, tol in ((OracleConfig(), 1e-13), (OracleConfig(OracleMethod.RK4, 1e-3), 1e-12)):
            with guard_expected(p.dim):
                states, _ = oracle_trajectory(one_excitation_start(p.dim), ts, p, cfg)
            worst = max(trace_distance(rho.full(), one_excitation_exact(t, p))
                        for rho, t in zip(states, ts))
            assert worst < tol, (p, cfg.method, worst)


def test_split_global_orders_against_one_excitation_solution():
    # stepping to T = 2: global error h^1 for split2 and h^2 for split3
    p = ModelParams(omega0=1.0, Omega=1.0, mu=0.4, nu=0.0, dim=4)
    exact = one_excitation_exact(2.0, p)
    steps = (10, 20, 40, 80)
    for order, slope in ((PropagatorOrder.SPLIT2, 1.0), (PropagatorOrder.SPLIT3, 2.0)):
        errors = []
        for n in steps:
            rho = one_excitation_start(p.dim)
            with guard_expected(p.dim):
                for _ in range(n):
                    rho = propagate(rho, 2.0 / n, p, order)
            errors.append(trace_distance(rho.full(), exact))
        got = np.polyfit(np.log(2.0 / np.asarray(steps)), np.log(errors), 1)[0]
        assert abs(got - slope) < 0.2, (order, errors, got)
