import numpy as np
import pytest

from dampedjc import (
    BlockDensity,
    ModelParams,
    ShapeError,
    annihilation,
    build_generator,
    build_X,
    build_Y,
    creation,
    devectorize,
    devectorize_blocks,
    guard_occupation,
    k_generators,
    lindblad_superop,
    number,
    restrict_superop,
    sandwich_superop,
    vectorize,
    vectorize_blocks,
)
from dampedjc.superop import fock_keep_indices, sparse_generator


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_vectorize_roundtrip():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5, 9):
        X = random_matrix(rng, d)
        v = vectorize(X)
        assert v.shape == (d * d,)
        # row-major: v[d*m + n] == X[m, n]
        assert v[d * 1 + 0] == X[1, 0]
        assert np.abs(devectorize(v) - X).max() == 0
    with pytest.raises(ShapeError):
        devectorize(np.zeros(5))
    with pytest.raises(ShapeError):
        vectorize(np.zeros((2, 3)))


def test_sandwich_identity():
    # (E kron F^T) vec(X) = vec(E X F)
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        E, F, X = (random_matrix(rng, d) for _ in range(3))
        lhs = sandwich_superop(E, F) @ vectorize(X)
        rhs = vectorize(E @ X @ F)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_block_density_accessors():
    rng = np.random.default_rng(2)
    blocks = [random_matrix(rng, 4) for _ in range(4)]
    rho = BlockDensity(*blocks)
    assert rho.dim == 4
    assert rho.block(1, 0) is rho.rho10
    full = rho.full()
    assert full.shape == (8, 8)
    back = BlockDensity.from_full(full)
    for i in range(2):
        for j in range(2):
            assert np.abs(back.block(i, j) - rho.block(i, j)).max() == 0
    assert rho.trace() == pytest.approx(np.trace(full))
    with pytest.raises(ShapeError):
        BlockDensity(blocks[0], blocks[1], blocks[2], random_matrix(rng, 3))


def test_block_vectorization_layout():
    # stacked order (rho00^, rho01^, rho10^, rho11^), each block row-major
    d = 3
    marks = [np.full((d, d), k, dtype=complex) for k in range(4)]
    v = vectorize_blocks(BlockDensity(*marks))
    q = d * d
    for k in range(4):
        assert np.all(v[k * q:(k + 1) * q] == k)
    back = devectorize_blocks(v, d)
    assert np.all(back.rho10 == 2)
    with pytest.raises(ShapeError):
        devectorize_blocks(np.zeros(10), 2)


def test_guard_occupation():
    rho = BlockDensity.zero(6)
    rho.rho00[5, 5] = 0.25
    rho.rho11[3, 3] = 0.5   # level 3 is inside the default guard band of 3
    assert guard_occupation(rho) == pytest.approx(0.75)
    assert guard_occupation(rho, guard=1) == pytest.approx(0.25)


def test_su11_relations_interior():
    d = 8
    Kp, Km, K3, K0 = k_generators(d)
    interior = fock_keep_indices(d, d - 1)
    ix = np.ix_(interior, interior)

    c1 = K3 @ Kp - Kp @ K3 - Kp
    c2 = K3 @ Km - Km @ K3 + Km
    c3 = Kp @ Km - Km @ Kp + 2 * K3
    for c in (c1, c2, c3):
        assert np.abs(c[ix]).max() < 1e-13
    # [K+, K-] = -2 K3 genuinely fails at the edge (last retained level)
    assert np.abs(c3).max() > 1.0
    # K0 commutes with everything at any cutoff: both ladder superoperators
    # shift the two Fock indices together, preserving their difference
    for K in (Kp, Km, K3):
        assert np.abs(K0 @ K - K @ K0).max() < 1e-13


def test_lindblad_superop_action():
    # L vec(s) must equal the dissipator written in operator form, with the
    # a a+ products expanded as N + 1
    rng = np.random.default_rng(3)
    p = ModelParams(omega0=0.9, Omega=0.4, mu=0.7, nu=0.3, dim=6)
    L = lindblad_superop(p)
    a, ad, N = annihilation(6), creation(6), number(6)
    Np1 = N + np.eye(6)
    for _ in range(20):
        s = random_matrix(rng, 6)
        want = (p.mu * (a @ s @ ad - 0.5 * (N @ s + s @ N))
                + p.nu * (ad @ s @ a - 0.5 * (Np1 @ s + s @ Np1)))
        got = devectorize(L @ vectorize(s))
        assert np.abs(got - want).max() < 1e-12


def test_lindblad_superop_matches_explicit_tensor_form():
    # the K-form (mu-nu)/2 + nu K+ + mu K- - (mu+nu) K3 against the tensor
    # form written with sandwich superoperators, a a+ expanded as N + 1
    for d, mu, nu in ((2, 0.5, 0.0), (6, 0.7, 0.3), (11, 1.9, 1.2)):
        p = ModelParams(omega0=0.9, Omega=0.4, mu=mu, nu=nu, dim=d)
        a, ad, N = annihilation(d), creation(d), number(d)
        I = np.eye(d)
        Np1 = N + I
        explicit = (
            mu * (sandwich_superop(a, ad) - 0.5 * (np.kron(N, I) + np.kron(I, N.T)))
            + nu * (sandwich_superop(ad, a) - 0.5 * (np.kron(Np1, I) + np.kron(I, Np1.T))))
        assert np.abs(explicit - lindblad_superop(p)).max() < 1e-13


def test_build_X_block_structure():
    p = ModelParams(omega0=1.3, Omega=0.5, mu=0.6, nu=0.2, dim=5)
    X = build_X(p)
    q = 25
    _, _, _, K0 = k_generators(5)
    base = -1j * p.omega0 * K0 + lindblad_superop(p)
    shifts = (0.0, -1j * p.omega0, 1j * p.omega0, 0.0)
    for k, s in enumerate(shifts):
        blk = X[k * q:(k + 1) * q, k * q:(k + 1) * q]
        assert np.abs(blk - base - s * np.eye(q)).max() < 1e-13
    # off-diagonal blocks vanish
    assert np.abs(X[:q, q:]).max() == 0


def test_build_Y_is_coupling_commutator():
    # Y vec(rho) = -i Omega vec([V, rho]) blockwise, V = [[0, a], [a+, 0]]
    rng = np.random.default_rng(4)
    p = ModelParams(omega0=0.8, Omega=0.9, mu=0.5, nu=0.1, dim=5)
    Y = build_Y(p)
    a, ad = annihilation(5), creation(5)
    for _ in range(20):
        rho = BlockDensity(*(random_matrix(rng, 5) for _ in range(4)))
        got = devectorize_blocks(Y @ vectorize_blocks(rho), 5)
        want = {
            (0, 0): a @ rho.rho10 - rho.rho01 @ ad,
            (0, 1): a @ rho.rho11 - rho.rho00 @ a,
            (1, 0): ad @ rho.rho00 - rho.rho11 @ ad,
            (1, 1): ad @ rho.rho01 - rho.rho10 @ a,
        }
        for (i, j), w in want.items():
            assert np.abs(got.block(i, j) + 1j * p.Omega * w).max() < 1e-12


def test_generator_kills_trace_on_interior_states():
    # d tr(rho)/dt = 0 for states with no support on the last level (the
    # nu-pump leaks trace only through the discarded edge)
    rng = np.random.default_rng(5)
    p = ModelParams(omega0=1.0, Omega=0.7, mu=0.5, nu=0.2, dim=6)
    gen = build_generator(p)
    q = 36
    # trace functional in the stacked representation
    tr_vec = np.zeros(4 * q)
    for k in (0, 3):
        tr_vec[k * q:(k + 1) * q][::7] = 1.0   # diagonal of a 6x6 block
    for _ in range(10):
        rho = BlockDensity(*(random_matrix(rng, 6) for _ in range(4)))
        for i in range(2):
            for j in range(2):
                rho.block(i, j)[5, :] = 0
                rho.block(i, j)[:, 5] = 0
        assert abs(tr_vec @ (gen @ vectorize_blocks(rho))) < 1e-12


def test_restrict_superop_picks_subblock():
    rng = np.random.default_rng(6)
    d_from, d_to = 5, 3
    E, F = random_matrix(rng, d_from), random_matrix(rng, d_from)
    S = sandwich_superop(E, F)
    small = restrict_superop(S, d_from, d_to)
    # compressing E kron F^T keeps exactly the sub-operator sandwich
    want = np.kron(E[:d_to, :d_to], F[:d_to, :d_to].T)
    assert np.abs(small - want).max() == 0
    with pytest.raises(ShapeError):
        restrict_superop(S, 4, 2)


def test_sparse_generator_conserves_excitation_difference():
    # stacked index (2i + j) d^2 + m d + n carries k = m - n - i + j; every
    # nonzero of X + Y joins two states of the same k
    rng = np.random.default_rng(7)
    for d in (2, 5, 9):
        p = ModelParams(omega0=rng.uniform(0.1, 2), Omega=rng.uniform(0.1, 2),
                        mu=0.8, nu=0.3, dim=d)
        G = sparse_generator(p).tocoo()
        assert np.abs(G.toarray() - build_generator(p)).max() == 0
        idx = np.arange(4 * d * d)
        blk, m, n = idx // (d * d), (idx // d) % d, idx % d
        k = m - n - blk // 2 + blk % 2
        assert G.nnz > 0
        assert np.all(k[G.row] == k[G.col])
