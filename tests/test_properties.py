"""Property-based checks of the split-step kernels over drawn parameters.

The shift-form diagonal flow (tau_series) and the diagonal-band coupling
sandwich in propagate are compared with their dense matrix forms, to 1e-12
relative, over rates mu > nu >= 0, cutoffs 2..16 and times 0..2.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedjc import (
    BlockDensity,
    ModelParams,
    PropagatorOrder,
    devectorize,
    diagonal_block_propagator,
    propagate,
    tau_series,
    vectorize,
)
from dampedjc.zassenhaus import _coupling_blocks

RTOL = 1e-12

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
