import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

import dampedjc
from dampedjc import (
    BlockDensity,
    DomainError,
    ModelParams,
    NumericalError,
    PropagatorOrder,
    ShapeError,
    StepError,
    TruncationWarning,
    annihilation,
    assemble_commutator,
    build_X,
    build_Y,
    coherent_state,
    commutator_blocks,
    creation,
    diagonal_block_propagator,
    efg,
    example_solution,
    exp_commutator,
    exp_Y,
    oracle_propagate,
    propagate,
    restrict_superop,
    tau_series,
    trace_distance,
    vacuum_solution,
    vectorize_blocks,
)
from dampedjc.superop import BLOCK_KEYS, block_phases, fock_keep_indices
from dampedjc.zassenhaus import split_states

P = ModelParams(omega0=1.0, Omega=1.0, mu=0.2, nu=0.1, dim=10)


def example_state(alpha, d):
    ket = coherent_state(alpha, d)
    z = np.zeros((d, d), dtype=complex)
    vac = z.copy()
    vac[0, 0] = 0.5
    return BlockDensity(vac, z.copy(), z.copy(), 0.5 * np.outer(ket, ket.conj()))


def stacked_interior(d, nblocks=4):
    keep = fock_keep_indices(d, d - 1)
    q = d * d
    return np.concatenate([b * q + keep for b in range(nblocks)])


# dense composition of the split factors: the matrix route that propagate's
# operator form is checked against


def exp_X(t, p):
    """Block-diagonal e^{tX}: the diagonal-block propagator with scalar
    phases (0, -w0, +w0, 0) on the four stacked components."""
    d = p.dim
    q = d * d
    out = np.zeros((4 * q, 4 * q), dtype=complex)
    for k, phase in enumerate(block_phases(p)):
        out[k * q:(k + 1) * q, k * q:(k + 1) * q] = \
            diagonal_block_propagator(t, p, phase=phase)
    return out


def propagator_matrix(t, p, order=PropagatorOrder.SPLIT2, pad=8):
    """Dense 4 dim^2 matrix of the selected propagator."""
    order = PropagatorOrder(order)
    if order is PropagatorOrder.DIAGONAL_ONLY:
        return exp_X(t, p)
    mat = exp_Y(t, p) @ exp_X(t, p)
    if order is PropagatorOrder.SPLIT3:
        mat = exp_commutator(t, p, pad) @ mat
    return mat


# ---------------------------------------------------------------------------
# the individual factors


def test_exp_X_vs_reference():
    # block-diagonal factor equals the compressed flow of the enlarged-cutoff
    # generator (exactly: its factors never couple through the cutoff)
    d, pad = 8, 8
    p = P.with_dim(d)
    for t in (0.3, 1.1):
        got = exp_X(t, p)
        big = expm(t * build_X(p.with_dim(d + pad)))
        ref = restrict_superop(big, d + pad, d, nblocks=4)
        assert np.abs(got - ref).max() < 1e-12


def test_exp_Y_vs_reference():
    d, pad = 8, 8
    p = P.with_dim(d)
    for t in (0.3, 0.9):
        got = exp_Y(t, p)
        big = expm(t * build_Y(p.with_dim(d + pad)))
        ref = restrict_superop(big, d + pad, d, nblocks=4)
        assert np.abs(got - ref).max() < 1e-12


def test_exp_Y_interior_vs_plain_expm():
    # plain expm at the working cutoff agrees on the interior but is
    # corrupted in entries touching the last level
    d = 10
    p = P.with_dim(d)
    t = 0.9
    got = exp_Y(t, p)
    plain = expm(t * build_Y(p))
    ix = np.ix_(stacked_interior(d), stacked_interior(d))
    assert np.abs((got - plain)[ix]).max() < 1e-12
    assert np.abs(got - plain).max() > 1e-3   # edge defect is O(1) in Omega*t


def test_exp_Y_unitary_on_interior():
    # Y is anti-hermitian, so e^{tY} is unitary; truncation breaks this only
    # for columns that reference the lost level
    d = 10
    U = exp_Y(0.7, P.with_dim(d))
    G = U.conj().T @ U - np.eye(4 * d * d)
    ix = np.ix_(stacked_interior(d), stacked_interior(d))
    assert np.abs(G[ix]).max() < 1e-12


def test_exp_factors_at_t0():
    d = 6
    p = P.with_dim(d)
    for f in (exp_X, exp_Y):
        assert np.abs(f(0.0, p) - np.eye(4 * d * d)).max() < 1e-14
    assert np.abs(exp_commutator(0.0, p, pad=4) - np.eye(4 * d * d)).max() < 1e-14


@pytest.mark.filterwarnings("ignore::dampedjc.errors.TruncationWarning")
def test_coupling_blocks_give_exp_Y_as_unitary_conjugation():
    # the nest U = exp(-i Omega t [[0,a],[a+,0]]) is exact on the retained
    # levels and unitary away from the cutoff, and split2 is rho -> U rho U+
    # applied to the diagonal-only result
    from dampedjc.zassenhaus import _coupling_blocks
    d, pad = 12, 8
    p = P.with_dim(d)
    rho0 = example_state(0.5, d)
    interior = np.r_[0:d - 1, d:2 * d - 1]
    dp = d + pad
    Z = np.zeros((dp, dp))
    H = np.block([[Z, annihilation(dp)], [creation(dp), Z]])
    keep = np.r_[0:d, dp:dp + d]
    for t in (0.0, 0.3, 1.7):
        U = np.block(_coupling_blocks(t, p))
        assert np.abs(U - expm(-1j * p.Omega * t * H)[np.ix_(keep, keep)]).max() < 1e-13
        G = U.conj().T @ U - np.eye(2 * d)
        assert np.abs(G[np.ix_(interior, interior)]).max() < 1e-13
        tau = propagate(rho0, t, p, PropagatorOrder.DIAGONAL_ONLY, step_bound=2.0)
        got = propagate(rho0, t, p, PropagatorOrder.SPLIT2, step_bound=2.0)
        assert np.abs(got.full() - U @ tau.full() @ U.conj().T).max() < 1e-13


# ---------------------------------------------------------------------------
# commutator blocks


def test_commutator_pairs_that_truly_commute():
    blocks = commutator_blocks(P)
    AD = blocks.A @ blocks.D - blocks.D @ blocks.A
    BC = blocks.B @ blocks.C - blocks.C @ blocks.B
    assert np.abs(AD).max() < 1e-14
    assert np.abs(BC).max() < 1e-14


def test_commutator_pairs_with_edge_defect():
    # [A,C] and [B,D] vanish in the untruncated algebra; at finite cutoff
    # they leave a defect confined to the last Fock level, which one level
    # of compression removes entirely
    d = P.dim
    blocks = commutator_blocks(P)
    AC = blocks.A @ blocks.C - blocks.C @ blocks.A
    BD = blocks.B @ blocks.D - blocks.D @ blocks.B
    assert np.abs(AC).max() > 1e-3
    assert np.abs(BD).max() > 1e-3
    for c in (AC, BD):
        assert np.abs(restrict_superop(c, d, d - 1)).max() < 1e-13
    # within one factor the pairs do not commute: away from the cutoff
    # [A,B] = [C,D] = -((mu-nu)/2)^2 times the identity
    AB = blocks.A @ blocks.B - blocks.B @ blocks.A
    CD = blocks.C @ blocks.D - blocks.D @ blocks.C
    shift = ((P.mu - P.nu) / 2) ** 2 * np.eye((d - 1) ** 2)
    for c in (AB, CD):
        assert np.abs(restrict_superop(c, d, d - 1) + shift).max() < 1e-13


def test_assembled_commutator_vs_direct():
    # A,B,C,D assembly reproduces XY - YX of the untruncated problem: match
    # the direct commutator built one level higher and compressed
    d = 8
    p = P.with_dim(d)
    got = assemble_commutator(commutator_blocks(p), p)
    X1, Y1 = build_X(p.with_dim(d + 1)), build_Y(p.with_dim(d + 1))
    direct = restrict_superop(X1 @ Y1 - Y1 @ X1, d + 1, d, nblocks=4)
    assert np.abs(got - direct).max() < 1e-11


def test_exp_commutator_vs_padded_expm():
    d = 8
    p = P.with_dim(d)
    t = 0.4
    got = exp_commutator(t, p, pad=8)
    dp = d + 8
    gen = assemble_commutator(commutator_blocks(p.with_dim(dp)), p)
    ref = restrict_superop(expm(0.5 * t * t * gen), dp, d, nblocks=4)
    assert np.abs(got - ref).max() < 1e-12


def test_exp_commutator_pad_insensitive():
    d = 8
    p = P.with_dim(d)
    base = exp_commutator(0.4, p, pad=6)
    assert np.abs(exp_commutator(0.4, p, pad=10) - base).max() < 1e-12


def test_exp_commutator_factors_commute_after_compression():
    # the two factor exponentials commute in the compressed algebra (their
    # generators do in the untruncated one); the uncompressed padded factors
    # do not -- ordering matters only through discarded levels
    from dampedjc.zassenhaus import _on_atom_index, _sparse_pair_generators
    d = 8
    p = P.with_dim(d)
    (G1, _), (G2, _), dp = _sparse_pair_generators(p, 8)
    theta = 0.5 * 0.4 ** 2 * p.Omega
    f1, f2 = expm(-1j * theta * G1.toarray()), expm(+1j * theta * G2.toarray())
    F1, F2 = _on_atom_index(f1, side=0), _on_atom_index(f2, side=1)
    ab = restrict_superop(F1 @ F2, dp, d, nblocks=4)
    ba = restrict_superop(F2 @ F1, dp, d, nblocks=4)
    assert np.abs(ab - ba).max() < 1e-10


# ---------------------------------------------------------------------------
# propagate


@pytest.mark.filterwarnings("ignore::dampedjc.errors.TruncationWarning")
def test_propagate_matches_matrix_path():
    d = 13
    p = P.with_dim(d)
    rho0 = example_state(0.4 + 0.15j, d)
    for order in PropagatorOrder:
        for t in (0.0, 1e-9, 0.45, 0.9):
            got = propagate(rho0, t, p, order)
            want = propagator_matrix(t, p, order) @ vectorize_blocks(rho0)
            assert np.abs(vectorize_blocks(got) - want).max() < 1e-12
    # single shot past the step bound: the commutator factor's Taylor action
    # takes several substeps (s > 1)
    for t in (2.0, 3.0):
        got = propagate(rho0, t, p, PropagatorOrder.SPLIT3, step_bound=t * p.rate)
        want = propagator_matrix(t, p, PropagatorOrder.SPLIT3) @ vectorize_blocks(rho0)
        assert np.abs(vectorize_blocks(got) - want).max() < 1e-12


def test_commutator_factor_at_theta_zero_returns_input():
    from dampedjc.zassenhaus import _sparse_pair_generators, _taylor_action
    d, pad = 6, 4
    p = P.with_dim(d)
    rng = np.random.default_rng(3)
    rho = BlockDensity(*(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                         for _ in range(4)))
    # split3's state is the factor applied to split2's, which it returns at t = 0
    states = split_states(rho, [0.0], p, ["split3", "split2"])
    assert np.array_equal(states["split3"][0].full(), states["split2"][0].full())
    # the four padded stacked components, all entries nonzero
    vec4 = np.array([rng.standard_normal((d + pad) ** 2) + 1j * rng.standard_normal((d + pad) ** 2)
                     for _ in range(4)])
    (G1, norm1), _, _ = _sparse_pair_generators(p, pad)
    V = np.column_stack([np.concatenate(vec4[:2]), np.concatenate(vec4[2:])])
    assert np.array_equal(_taylor_action(G1, norm1, 0.0, V), V)
    # Omega = 0 gives theta = 0 at t > 0: split3 is split2 exactly
    p0 = ModelParams(omega0=1.0, Omega=0.0, mu=0.2, nu=0.1, dim=d)
    rho0 = example_state(0.2, d)
    # (this small state fills the top levels: each call warns once)
    with pytest.warns(TruncationWarning) as caught:
        assert np.array_equal(propagate(rho0, 0.5, p0, PropagatorOrder.SPLIT3).full(),
                              propagate(rho0, 0.5, p0, PropagatorOrder.SPLIT2).full())
    assert len(caught) == 2


def test_split_states_keeps_only_the_listed_stages():
    # split2 and split3 at 8 times, the single-shot block of a README run,
    # hold none of the 8 diagonal-only states on the way: their peak is at
    # least 4 states below the peak with all three orders listed
    p = ModelParams(omega0=1.0, Omega=1.0, mu=0.4, nu=0.1, dim=24)
    rho0 = example_state(1.0, p.dim)
    ts = np.linspace(0.25, 2.0, 8)
    every = [order.value for order in PropagatorOrder]
    want = split_states(rho0, ts, p, every)   # warms the caches of t-only operators

    def peak(orders):
        tracemalloc.start()
        try:
            got = split_states(rho0, ts, p, orders)
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    listed, listed_peak = peak(["split3", "split2"])
    _, every_peak = peak(every)
    assert list(listed) == ["split3", "split2"]
    for order, states in listed.items():
        assert all(np.array_equal(a.blocks, b.blocks) for a, b in zip(states, want[order]))
    assert listed_peak <= every_peak - 4 * rho0.blocks.nbytes, (listed_peak, every_peak)


def test_split3_angle_stays_finite_at_tiny_rates():
    # a step with t * rate = 1 when every rate is ~1e-250: t * t overflows,
    # the factor's angle (t^2/2) Omega does not
    rho0 = example_state(0.3, 8)
    for Omega in (0.0, 5e-250):
        p = ModelParams(omega0=0.0, Omega=Omega, mu=5e-250, nu=0.0, dim=8)
        got = propagate(rho0, 1 / p.rate, p, PropagatorOrder.SPLIT3)
        assert np.isfinite(got.blocks).all() and abs(got.trace() - 1) < 1e-12
        if Omega == 0:
            split2 = propagate(rho0, 1 / p.rate, p, PropagatorOrder.SPLIT2)
            assert np.array_equal(got.blocks, split2.blocks)


class Counted:
    """A sparse matrix that counts its products with a vector."""

    def __init__(self, G):
        self.G, self.products = G, 0

    def __matmul__(self, other):
        self.products += 1
        return self.G @ other


def _padded_pair(blocks, dp):
    """Four d x d blocks, padded to dp x dp, in the (2 dp^2, 2) layout that
    the F2 pair generator acts on: columns (rho00, rho01) and (rho10, rho11)."""
    padded = np.zeros((4, dp, dp), dtype=complex)
    d = blocks[0].shape[0]
    padded[:, :d, :d] = blocks
    v = padded.reshape(4, dp * dp)
    return np.column_stack([np.concatenate(v[:2]), np.concatenate(v[2:])])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_taylor_action_vs_dense_expm():
    # substeps of up to 8 norm units: across the s = 1 -> 2 switch at x = 8
    # and at several substeps, the action matches the dense exponential.  Its
    # forward sum stops at a tail bound that holds in exact arithmetic, on
    # random input, a low-level state (terms die early), weight only in the
    # top padded levels (terms die late: no early stop), zero columns (exact
    # zeros) and a NaN (NumericalError, no numpy warning)
    from dampedjc.zassenhaus import _sparse_pair_generators, _taylor_action
    d, pad = 13, 8
    dp = d + pad
    (G, norm), _, _ = _sparse_pair_generators(P.with_dim(d), pad)
    rng = np.random.default_rng(5)
    V = rng.standard_normal((G.shape[0], 2)) + 1j * rng.standard_normal((G.shape[0], 2))
    low = _padded_pair([example_state(1.0, d).block(*key) for key in BLOCK_KEYS], dp)
    top = np.zeros((4, dp, dp), dtype=complex)
    top[:, dp - 3:, dp - 3:] = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    top = _padded_pair(list(top), dp)
    one_zero = low.copy()
    one_zero[:, 1] = 0
    poisoned = low.copy()
    poisoned[5, 0] = np.nan
    for k, x in enumerate((0.5, 4.0, 7.9, 8.1, 16.0, 40.0)):
        c = (-1) ** k * 1j * x / norm
        F = expm(c * G.toarray())
        for W in (V, low, top, one_zero):
            exact = F @ W
            err = np.abs(_taylor_action(G, norm, c, W) - exact).max()
            assert err <= 1e-13 * np.abs(exact).max(), (x, err)
        assert not _taylor_action(G, norm, c, one_zero)[:, 1].any()
        assert not _taylor_action(G, norm, c, np.zeros_like(low)).any()
        with pytest.raises(NumericalError, match="overflowed at substep 1 "):
            _taylor_action(G, norm, c, poisoned)


@pytest.mark.filterwarnings("ignore::dampedjc.errors.TruncationWarning")
def test_taylor_action_product_count(monkeypatch):
    # the forward sum never makes more products than the a-priori degree, 46
    # at x = 7, which a NaN runs to in full; on the README default run the
    # stop about halves the products of the split3 grid (1948 at the fixed
    # degree) and of the oracle grid (880)
    from dampedjc import cli, oracle, zassenhaus
    from dampedjc.superop import _taylor_action
    (G, norm), _, _ = zassenhaus._sparse_pair_generators(P.with_dim(13), 8)
    rng = np.random.default_rng(9)
    for V in (np.ones((G.shape[0], 2), dtype=complex),
              rng.standard_normal((G.shape[0], 2)) + 1j * rng.standard_normal((G.shape[0], 2)),
              np.zeros((G.shape[0], 2), dtype=complex)):
        counted = Counted(G)
        _taylor_action(counted, norm, 7j / norm, V)
        assert counted.products <= 46
    counted = Counted(G)
    with pytest.raises(NumericalError):
        _taylor_action(counted, norm, 7j / norm, np.full((G.shape[0], 2), np.nan + 0j))
    assert counted.products == 46

    products = {}

    def counting(module):
        def action(G, norm, c, V):
            counted = Counted(G)
            out = _taylor_action(counted, norm, c, V)
            products[module] = products.get(module, 0) + counted.products
            return out
        monkeypatch.setattr(module, "_taylor_action", action)

    counting(zassenhaus)
    counting(oracle)
    cli.run_trajectory(cli.config_from_dict({}))
    assert products[zassenhaus] <= 1000
    assert products[oracle] <= 530


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split3_overflow_stops_early():
    # far past the step bound the factor overflows; the action stops at the
    # first non-finite substep (about 0.2 s at t = 100, where running every
    # substep took 18 s), with no numpy overflow warning, and an infinite
    # exponent raises before any work
    d = 16
    p = ModelParams(omega0=1.0, Omega=1.0, mu=0.4, nu=0.1, dim=d)
    rho0 = example_state(1.0, d)
    start = time.process_time()
    for t in (100.0, 1e3, 1e200):
        with pytest.raises(NumericalError):
            propagate(rho0, t, p, PropagatorOrder.SPLIT3, step_bound=math.inf)
    assert time.process_time() - start < 5.0


@pytest.mark.filterwarnings("ignore::dampedjc.errors.TruncationWarning")
def test_order_accepts_value_strings():
    d = 6
    p = P.with_dim(d)
    rho0 = example_state(0.1, d)
    for order in PropagatorOrder:
        assert np.array_equal(propagate(rho0, 0.3, p, order.value).full(),
                              propagate(rho0, 0.3, p, order).full())
        assert np.array_equal(propagator_matrix(0.3, p, order.value),
                              propagator_matrix(0.3, p, order))
    with pytest.raises(ValueError):
        propagate(rho0, 0.3, p, "bogus")
    with pytest.raises(ValueError):
        propagator_matrix(0.3, p, "bogus")


def test_dense_references_return_fresh_arrays():
    # zeroing a returned matrix in place must not change the next call
    p = P.with_dim(5)
    for make in (lambda: propagator_matrix(0.3, p, PropagatorOrder.SPLIT3),
                 lambda: exp_commutator(0.3, p)):
        first = make()
        want = first.copy()
        first[:] = 0
        assert np.array_equal(make(), want)


def test_propagate_validation():
    rho0 = example_state(0.5, P.dim)
    with pytest.raises(DomainError):
        propagate(rho0, -0.1, P)
    with pytest.raises(ShapeError):
        propagate(example_state(0.4, 8), 0.1, P)
    with pytest.raises(StepError):
        propagate(rho0, 1.5, P)   # t * max(Omega, mu, omega0) = 1.5 > 1
    with pytest.raises(DomainError):
        exp_commutator(0.1, P, pad=-1)
    for call in (lambda: propagate(rho0, 0.1, P, "bogus"),
                 lambda: split_states(rho0, [0.1], P, ["split2", "bogus"])):
        with pytest.raises(DomainError, match="'diagonal-only', 'split2', 'split3'.*'bogus'"):
            call()
    # explicit bound lifts the guard
    p = P.with_dim(14)
    propagate(example_state(0.5, 14), 1.5, p, step_bound=2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_time_is_a_domain_error():
    # rejected with a DomainError naming t before either cache of t-only
    # operators is looked up, and with no numpy warning (error::RuntimeWarning)
    from dampedjc.analytic import _tau_operators
    from dampedjc.zassenhaus import _coupling_operators
    p = P.with_dim(8)
    rho0 = example_state(0.3, 8)
    before = (_tau_operators.cache_info(), _coupling_operators.cache_info())
    for t in (math.inf, -math.inf, math.nan):
        calls = [lambda: efg(t, p), lambda: tau_series(rho0.rho00, t, p),
                 lambda: vacuum_solution(t, p), lambda: exp_Y(t, p),
                 lambda: exp_commutator(t, p)]
        calls += [lambda o=o: propagate(rho0, t, p, o, step_bound=math.inf)
                  for o in PropagatorOrder]
        for call in calls:
            with pytest.raises(DomainError, match=f"t must be finite and >= 0, got {t}"):
                call()
    assert (_tau_operators.cache_info(), _coupling_operators.cache_info()) == before


def test_step_operators_are_built_once_and_reused_bit_identically():
    # the t-only operators of the diagonal flow and of U are cached per
    # (t, params) and shared by every order
    from dampedjc.analytic import _tau_operators
    from dampedjc.zassenhaus import _coupling_operators
    d, h = 12, 1e-3
    p = P.with_dim(d)
    rho0 = example_state(0.6 - 0.3j, d)
    for order in PropagatorOrder:
        _tau_operators.cache_clear()
        _coupling_operators.cache_clear()
        cold = propagate(rho0, h, p, order)
        want = cold.full()
        # a returned state owns its arrays: writing to it changes no later call
        for key in BLOCK_KEYS:
            cold.block(*key)[:] = 7.0
        hit = propagate(rho0, h, p, order)
        assert _tau_operators.cache_info().hits == 1
        assert np.array_equal(hit.full(), want)
        # a 0-d array t is looked up as the float it holds
        assert np.array_equal(propagate(rho0, np.array(h), p, order).full(), want)
    # the cached arrays are read-only, U's as the bands of its operators
    for op in _tau_operators(h, p) + tuple(op.dia.data for op in _coupling_operators(h, p)):
        with pytest.raises(ValueError):
            op[...] = 0
    # 200 steps of one h, all three orders: one build of each
    _tau_operators.cache_clear()
    _coupling_operators.cache_clear()
    cur, orders = rho0, list(PropagatorOrder)
    for i in range(200):
        cur = propagate(cur, h, p, orders[i % 3])
    assert _tau_operators.cache_info()[:2] == (199, 1)
    assert _coupling_operators.cache_info().misses == 1


@pytest.mark.parametrize("d", [2, 3, 24])
@pytest.mark.parametrize("t", [0.0, 0.01, 0.7, 2.0])
def test_coupling_operators_are_the_full_band_stack_bit_for_bit(d, t):
    # U's band operators, broadcast from the d-length diagonals, have the
    # float rows of the earlier construction, written out here: the complex
    # band stack repeated and tiled to full length, each row multiplied by
    # its float-view factor.  The rows are equal up to signs of zero, which
    # the product's sums, started at +0, drop: its bits are the same.  At
    # t = 0 the imaginary bands are zero and go as one real row each.
    from dampedjc.zassenhaus import _coupling_diagonals, _coupling_operators
    p = P.with_dim(d)
    cos_p, cos_n, up, down = _coupling_diagonals(t, p)
    q, zero = d * d, np.zeros(d)
    bands = np.array([[cos_p, cos_n], [zero, np.append(0, up)], [np.append(down, 0), zero]])
    stacks = ((np.repeat(bands, d, axis=2)[:, :, None], [0, 2 * q + d, -2 * q - d]),
              (np.tile(bands.conj(), d)[:, None], [0, q + 1, -q - 1]))
    rng = np.random.default_rng(d)
    V = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    V[0], V[1, ::2] = 0, -0.0   # zero terms, of both signs
    for op, (data, offsets) in zip(_coupling_operators(t, p), stacks):
        rows = []
        for o, band in zip(offsets, data):
            if band.imag.any():
                rows += [(2 * o + 1, band, -1), (2 * o - 1, band, -1j)]
            else:
                rows.append((2 * o, band, 1 + 1j))
        assert len(rows) == (3 if t == 0 else 5)
        pairs = np.empty((len(rows), 2, 2, q), complex)
        for out, (_, band, factor) in zip(pairs, rows):
            np.multiply(band, factor, out=out)
        pairs = pairs.reshape(len(rows), -1).view(float)
        assert list(op.dia.offsets) == [o for o, _, _ in rows]
        assert np.array_equal(op.dia.data, pairs)
        old = sp.dia_matrix((pairs, op.dia.offsets), shape=op.dia.shape)
        want = (old @ V.reshape(-1).view(float)).view(complex).reshape(V.shape)
        assert np.array_equal((op @ V).view(np.uint64), want.view(np.uint64))


def test_propagate_warns_on_edge_occupation():
    d = 6
    p = P.with_dim(d)
    rho0 = BlockDensity.zero(d)
    rho0.rho00[d - 1, d - 1] = 1.0
    with pytest.warns(TruncationWarning):
        propagate(rho0, 0.1, p)


def test_split2_preserves_trace():
    # trace leaks only through the occupation actually sitting at the cutoff
    d = 14
    p = P.with_dim(d)
    rho0 = example_state(0.4, d)
    for h in (0.05, 0.2, 0.5):
        out = propagate(rho0, h, p, PropagatorOrder.SPLIT2)
        assert abs(out.trace() - 1.0) < 1e-13


def test_split2_preserves_hermiticity():
    d = 12
    rho0 = example_state(0.5, d)
    out = propagate(rho0, 0.4, P.with_dim(d), PropagatorOrder.SPLIT2).full()
    assert np.abs(out - out.conj().T).max() < 1e-13


def test_diagonal_only_ignores_coupling():
    # diagonal-only output is independent of Omega
    d = 12
    p = P.with_dim(d)
    rho0 = example_state(0.45, d)
    strong = ModelParams(omega0=p.omega0, Omega=5.0, mu=p.mu, nu=p.nu, dim=d)
    a = propagate(rho0, 0.15, p, PropagatorOrder.DIAGONAL_ONLY)
    b = propagate(rho0, 0.15, strong, PropagatorOrder.DIAGONAL_ONLY)
    assert np.abs(a.full() - b.full()).max() < 1e-14


def test_local_error_orders():
    # one-step error against the dense oracle: ratios ~2^2 for split2 and
    # ~2^3 for split3 when h halves
    d = 12
    p = P.with_dim(d)
    rho0 = example_state(0.7, d)
    hs = [0.2, 0.1, 0.05]
    errs = {order: [] for order in (PropagatorOrder.SPLIT2, PropagatorOrder.SPLIT3)}
    for h in hs:
        exact = oracle_propagate(rho0, h, p)
        for order in errs:
            approx = propagate(rho0, h, p, order)
            errs[order].append(trace_distance(approx.full(), exact.full()))
    r2 = [a / b for a, b in zip(errs[PropagatorOrder.SPLIT2], errs[PropagatorOrder.SPLIT2][1:])]
    r3 = [a / b for a, b in zip(errs[PropagatorOrder.SPLIT3], errs[PropagatorOrder.SPLIT3][1:])]
    assert all(3.0 < r < 5.2 for r in r2), r2
    assert all(6.0 < r < 10.5 for r in r3), r3


def test_split3_beats_split2():
    d = 12
    p = P.with_dim(d)
    rho0 = example_state(0.7, d)
    exact = oracle_propagate(rho0, 0.1, p)
    e2 = trace_distance(propagate(rho0, 0.1, p, PropagatorOrder.SPLIT2).full(), exact.full())
    e3 = trace_distance(propagate(rho0, 0.1, p, PropagatorOrder.SPLIT3).full(), exact.full())
    assert e3 < e2 / 3


def test_splitting_exact_when_coupling_off():
    # with Omega = 0 the coupling factor and the commutator factor are exact
    # identities, so every order collapses to the same diagonal flow
    p = ModelParams(omega0=1.0, Omega=0.0, mu=0.2, nu=0.1, dim=14)
    rho0 = example_state(0.5, 14)
    outs = [propagate(rho0, 0.8, p, order) for order in PropagatorOrder]
    for other in outs[1:]:
        assert np.abs(other.full() - outs[0].full()).max() < 1e-14
    # against the brute-force propagator the only residue is the edge
    # handling of the cutoff, far below the occupation there
    exact = oracle_propagate(rho0, 0.8, p)
    for out in outs:
        assert np.abs(out.full() - exact.full()).max() < 1e-9


# ---------------------------------------------------------------------------
# example closed form


def test_example_solution_t0():
    d = 12
    rho = example_solution(0.9, 0.0, P.with_dim(d))
    want = example_state(0.9, d)
    assert np.abs(rho.full() - want.full()).max() < 1e-14


def test_example_solution_vs_split2():
    d = 24
    p = P.with_dim(d)
    alpha = 0.9 + 0.1j
    rho0 = example_state(alpha, d)
    for t in (0.3, 0.8):
        got = example_solution(alpha, t, p)
        want = propagate(rho0, t, p, PropagatorOrder.SPLIT2)
        assert np.abs(got.full() - want.full()).max() < 1e-12


def test_example_solution_block_symmetry():
    rho = example_solution(1.0, 0.6, P.with_dim(20))
    assert np.abs(rho.rho10 - rho.rho01.conj().T).max() < 1e-13
    assert abs(rho.trace() - 1.0) < 1e-12


def test_split3_step_leaves_scipy_special_unimported():
    # importing scipy.special adds about 0.07 s to start-up: a fresh process
    # that imports dampedjc and takes one split3 step must not load it
    script = (
        "import sys\n"
        "from dampedjc import ModelParams, PropagatorOrder, propagate\n"
        "from dampedjc.cli import config_from_dict, initial_state\n"
        "cfg = config_from_dict({'dim': 16})\n"
        "propagate(initial_state(cfg), 0.01, cfg.model_params(), PropagatorOrder.SPLIT3)\n"
        "print('scipy.special' in sys.modules)\n")
    src = str(Path(dampedjc.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
