"""Property-based checks of the split-step kernels over drawn parameters.

The Toeplitz-form diagonal flow (tau_series) and the diagonal-band coupling
sandwich in propagate are compared with their dense matrix forms, to 1e-12
relative, over rates mu > nu >= 0, cutoffs 2..16 and times 0..2; the banded
sparse generator must equal the Kronecker assembly exactly, and the real
band operators of the split factors what they encode.  Over the
same draws, the diagonal flow and split2 keep random states positive at any
t, and one split2 or split3 step within the bound keeps the trace and
hermiticity of a state at low Fock levels; split2 of the vacuum/coherent
example state against its closed form, for any coherent amplitude the
cutoff holds, is a known failure (xfail).
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, Verbosity, assume, example, given, settings
from hypothesis import strategies as st

from dampedjc import (
    BlockDensity,
    ModelParams,
    PropagatorOrder,
    build_X,
    build_Y,
    coherent_state,
    coherent_tail_weight,
    devectorize,
    diagonal_block_propagator,
    example_solution,
    guard_occupation,
    propagate,
    tau_series,
    vectorize,
)
from dampedjc.fock import TAIL_TOL
from dampedjc.superop import GUARD_TOL, sparse_generator
from dampedjc.zassenhaus import (DEFAULT_PAD, _coupling_blocks, _coupling_operators,
                                 _sparse_pair_generators, _stacked_pair_generators)

RTOL = 1e-12
# One split step within the bound, from a state whose result stays off the
# guard levels, keeps the trace to this: the weight the truncated pump pushes
# past the cutoff.  1000 draws of the test below read at most 3.3e-11.
TRACE_TOL = 1e-10

rates = st.floats(min_value=0.0, max_value=2.0)


@st.composite
def models(draw):
    nu = draw(rates)
    mu = draw(st.floats(min_value=0.0, max_value=4.0).filter(lambda m: m > nu))
    return ModelParams(omega0=draw(rates), Omega=draw(rates), mu=mu, nu=nu,
                       dim=draw(st.integers(min_value=2, max_value=16)))


times = st.floats(min_value=0.0, max_value=2.0)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def random_blocks(seed, count, d):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))


def assert_close(got, want):
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


@settings(derandomize=True, deadline=None)
@given(p=models(), t=times, seed=seeds)
def test_tau_series_matches_dense_diagonal_propagator(p, t, seed):
    tau0 = random_blocks(seed, 1, p.dim)[0]
    want = devectorize(diagonal_block_propagator(t, p) @ vectorize(tau0))
    assert_close(tau_series(tau0, t, p), want)


@settings(derandomize=True, deadline=None)
@given(p=models(), t=times, seed=seeds)
def test_split2_is_coupling_conjugation_of_diagonal_flow(p, t, seed):
    rho0 = BlockDensity(*random_blocks(seed, 4, p.dim))
    bound = max(1.0, t * p.rate)
    with warnings.catch_warnings():
        # random states fill the top Fock levels; the guard says so
        warnings.simplefilter("ignore")
        tau = propagate(rho0, t, p, PropagatorOrder.DIAGONAL_ONLY, step_bound=bound)
        got = propagate(rho0, t, p, PropagatorOrder.SPLIT2, step_bound=bound)
    U = np.block(_coupling_blocks(t, p))
    assert_close(got.full(), U @ tau.full() @ U.conj().T)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(p=models())
def test_sparse_generator_equals_kronecker_assembly(p):
    # the seven-band writing repeats the Kronecker assembly's arithmetic
    assert np.array_equal(sparse_generator(p).toarray(), build_X(p) + build_Y(p))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(p=models(), t=times, seed=seeds)
@example(p=ModelParams(omega0=1.0, Omega=1.0, mu=0.4, nu=0.1, dim=2), t=0.7, seed=1)
def test_float_band_operators_equal_what_they_encode(p, t, seed):
    # the stacked pair generators make the products of the (2q, 2) pair
    # generators on column pairs (rho00, rho01), (rho10, rho11) and (rho00,
    # rho10), (rho01, rho11), bit for bit, with the same 1-norms; U's band
    # operators make U rho and rho U+ of its dense blocks
    (G1, norm1), (G2, norm2), dp = _stacked_pair_generators(p)
    (H1, m1), (H2, m2), _ = _sparse_pair_generators(p, DEFAULT_PAD)
    assert (norm1, norm2) == (m1, m2)
    V = random_blocks(seed, 4, dp)
    swap = [0, 2, 1, 3]   # (0, 2) and (1, 3) pairs, an involution
    assert np.array_equal(G2 @ V, (H2 @ V.reshape(2, -1).T).T.reshape(V.shape))
    assert np.array_equal(G1 @ V, (H1 @ V[swap].reshape(2, -1).T).T.reshape(V.shape)[swap])
    rho = BlockDensity(*random_blocks(seed, 4, p.dim))
    U = np.block(_coupling_blocks(t, p))
    left, right = _coupling_operators(t, p)
    for op, want in ((left, U @ rho.full()), (right, rho.full() @ U.conj().T)):
        got = BlockDensity(*(op @ rho.blocks)).full()
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def random_state(seed, d):
    """A random density matrix on the 2d-dimensional stacked space, of
    random rank 1..2d, as a BlockDensity with unit trace."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 2 * d + 1))
    A = rng.standard_normal((2 * d, rank)) + 1j * rng.standard_normal((2 * d, rank))
    rho = A @ A.conj().T
    return BlockDensity.from_full(rho / np.trace(rho).real)


@settings(derandomize=True, deadline=None)
@given(p=models(), t=times, seed=seeds)
def test_diagonal_flow_and_split2_keep_states_positive(p, t, seed):
    # both factors are completely positive on the truncated space, so no
    # step bound is needed: single shot at any t
    rho0 = random_state(seed, p.dim)
    bound = max(1.0, t * p.rate)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for order in (PropagatorOrder.DIAGONAL_ONLY, PropagatorOrder.SPLIT2):
            full = propagate(rho0, t, p, order, step_bound=bound).full()
            assert np.linalg.eigvalsh((full + full.conj().T) / 2).min() >= -1e-12


def low_state(seed, d):
    """random_state confined to the Fock levels n < max(1, d // 4)."""
    k = max(1, d // 4)
    blocks = np.zeros((4, d, d), dtype=complex)
    blocks[:, :k, :k] = random_state(seed, k).blocks
    return BlockDensity(*blocks)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(p=models(), reach=st.floats(min_value=0.0, max_value=1.0), seed=seeds)
def test_split_steps_keep_trace_and_hermiticity(p, reach, seed):
    # one step with t * rate = reach <= 1, from a state at low Fock levels;
    # draws whose result reaches the guard levels say nothing about the method
    rho0 = low_state(seed, p.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = [propagate(rho0, reach / p.rate, p, order)
               for order in (PropagatorOrder.SPLIT2, PropagatorOrder.SPLIT3)]
    assume(max(guard_occupation(rho) for rho in out) <= GUARD_TOL)
    for rho in out:
        full = rho.full()
        assert np.abs(full - full.conj().T).max() <= 1e-14
        assert abs(rho.trace() - 1) <= TRACE_TOL


def max_alpha(d):
    """Largest |alpha| whose coherent state fits dim d (tail < TAIL_TOL)."""
    lo, hi = 0.0, math.sqrt(d)
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if coherent_tail_weight(mid, d) < TAIL_TOL else (lo, mid)
    return lo


# Known to fail (see CHANGES.md, FOUND): coherent_solution exponentiates the
# truncated ladder operators, so once the evolved state reaches the cutoff it
# is not the flow on the retained levels (1e-6 relative at dim 16, mu = 2,
# nu = 1, t = 1, |alpha| = 0.67), and it raises ValueError when G underflows
# to 0 at a tiny t > 0.  Strict, so a fix shows up as an unexpected pass; the
# shrink phase is off to keep the expected failure cheap, and it runs quiet so
# that the expected failure writes no patch file.
@pytest.mark.xfail(strict=True, raises=(AssertionError, ValueError),
                   reason="example_solution is inexact near the cutoff and at tiny t")
@settings(derandomize=True, deadline=None, verbosity=Verbosity.quiet,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(p=models().filter(lambda p: p.nu > 0), t=times.filter(lambda t: t > 0),
       radius=st.floats(min_value=0.0, max_value=1.0),
       angle=st.floats(min_value=0.0, max_value=2 * math.pi))
def test_example_solution_matches_split2_for_random_alpha(p, t, radius, angle):
    # the closed form's domain: nu > 0, t > 0 and any alpha the cutoff holds
    alpha = radius * max_alpha(p.dim) * cmath.exp(1j * angle)
    d = p.dim
    ket = coherent_state(alpha, d)
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 0.5
    zero = np.zeros((d, d), dtype=complex)
    rho0 = BlockDensity(vac, zero, zero, 0.5 * np.outer(ket, ket.conj()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = propagate(rho0, t, p, PropagatorOrder.SPLIT2,
                         step_bound=max(1.0, t * p.rate)).full()
    assert_close(example_solution(alpha, t, p).full(), want)
