import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import dampedjc
from dampedjc import (
    BlockDensity,
    DomainError,
    ModelParams,
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
    converged_expm,
    creation,
    example_solution,
    exp_commutator,
    exp_X,
    exp_Y,
    oracle_propagate,
    propagate,
    propagator_matrix,
    restrict_superop,
    trace_distance,
    vectorize_blocks,
)
from dampedjc.superop import fock_keep_indices

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
    from dampedjc.zassenhaus import _comm_factor_blocks, _on_atom_index
    d = 8
    p = P.with_dim(d)
    f1, f2, dp = _comm_factor_blocks(0.4, p, 8)
    F1, F2 = _on_atom_index(f1, side=0), _on_atom_index(f2, side=1)
    ab = restrict_superop(F1 @ F2, dp, d, nblocks=4)
    ba = restrict_superop(F2 @ F1, dp, d, nblocks=4)
    assert np.abs(ab - ba).max() < 1e-10


# ---------------------------------------------------------------------------
# propagate


def test_propagate_matches_matrix_path():
    d = 13
    p = P.with_dim(d)
    rho0 = example_state(0.4 + 0.15j, d)
    for order in PropagatorOrder:
        for t in (0.0, 0.45, 0.9):
            got = propagate(rho0, t, p, order)
            want = propagator_matrix(t, p, order) @ vectorize_blocks(rho0)
            assert np.abs(vectorize_blocks(got) - want).max() < 1e-12


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
        propagate(rho0, 0.1, P, "split3", pad=-1)
    with pytest.raises(DomainError):
        exp_commutator(0.1, P, pad=-1)
    # explicit bound lifts the guard
    p = P.with_dim(14)
    propagate(example_state(0.5, 14), 1.5, p, step_bound=2.0)


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
