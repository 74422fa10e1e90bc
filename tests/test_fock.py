import math
import sys

import numpy as np
import pytest
from scipy.stats import poisson

from dampedjc import (
    DomainError,
    ModelParams,
    ParamError,
    TruncationError,
    annihilation,
    coherent_state,
    coherent_tail_weight,
    creation,
    number,
)
from dampedjc.fock import cos_sqrt_values, sinc_sqrt_values


def test_ladder_entries():
    a = annihilation(5)
    assert a.shape == (5, 5)
    assert a.dtype == complex
    for n in range(1, 5):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))
    # everything else zero
    mask = np.ones((5, 5), dtype=bool)
    mask[np.arange(4), np.arange(1, 5)] = False
    assert np.all(a[mask] == 0)
    assert np.array_equal(creation(5), a.conj().T)


def test_number_is_adagger_a():
    for d in (2, 3, 8):
        a = annihilation(d)
        assert np.allclose(creation(d) @ a, number(d), atol=1e-14)


def test_truncated_commutator_defect():
    # [a, a+] = 1 everywhere except the last diagonal entry, which picks up
    # -(d-1) because the level-d state was discarded
    d = 7
    comm = annihilation(d) @ creation(d) - creation(d) @ annihilation(d)
    expected = np.eye(d, dtype=complex)
    expected[d - 1, d - 1] = -(d - 1)
    assert np.abs(comm - expected).max() < 1e-14


def test_dim_validation():
    with pytest.raises(DomainError):
        annihilation(1)
    with pytest.raises(DomainError):
        number(0)
    with pytest.raises(DomainError):
        annihilation(3.5)


def test_coherent_state_poisson_weights():
    alpha = 0.7 - 0.4j
    d = 25
    c = coherent_state(alpha, d)
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-14)
    lam = abs(alpha) ** 2
    probs = poisson.pmf(np.arange(d), lam)
    # tail is ~1e-24 here, renormalization is negligible
    assert np.abs(np.abs(c) ** 2 - probs).max() < 1e-12
    # eigenstate property on the retained levels
    a = annihilation(d)
    assert np.abs((a @ c)[: d - 1] - alpha * c[: d - 1]).max() < 1e-10


def test_coherent_state_phase_convention():
    # c_n = e^{-|a|^2/2} alpha^n / sqrt(n!): complex alpha carries phase n*arg(alpha)
    alpha = 0.5 * np.exp(1j * 0.8)
    c = coherent_state(alpha, 15)
    for n in (1, 2, 5):
        expected = math.exp(-abs(alpha) ** 2 / 2) * alpha ** n / math.sqrt(math.factorial(n))
        assert abs(c[n] - expected) < 1e-12


def test_coherent_tail_weight_matches_poisson_sf():
    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha = rng.uniform(0, 2.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        d = int(rng.integers(2, 30))
        got = coherent_tail_weight(alpha, d)
        want = float(poisson.sf(d - 1, abs(alpha) ** 2))
        assert abs(got - want) < 1e-12


def test_coherent_tail_and_state_where_the_first_term_underflows():
    # e^{-|alpha|^2} underflows past |alpha|^2 ~ 745 and e^{-|alpha|^2/2} past
    # ~1490: the tail weight and the amplitudes still follow the Poisson law
    assert abs(coherent_tail_weight(30, 1200) - poisson.sf(1199, 900)) < 1e-12
    assert coherent_tail_weight(27.4, 3000) == 0.0
    for alpha, dims in ((27.4, (700, 750, 760, 800)), (30, (850, 900, 950, 1000)),
                        (40, (1580, 1600, 1650, 1700))):
        for d in dims:
            want = poisson.sf(d - 1, abs(alpha) ** 2)
            assert abs(coherent_tail_weight(alpha, d) - want) < 1e-12, (alpha, d)
    for alpha, d in ((30, 1200), (40, 2500), (45 - 40j, 4200)):
        c = coherent_state(alpha, d)
        probs = poisson.pmf(np.arange(d), abs(alpha) ** 2)
        assert np.abs(np.abs(c) ** 2 - probs).max() < 1e-12, alpha


def test_huge_cutoffs_end_before_work():
    # the tail sum stops once its terms no longer count, with the same bits
    for alpha in (0.0, 0.5, 3.0 - 1.0j, 30.0):
        assert coherent_tail_weight(alpha, 2 ** 63) == coherent_tail_weight(alpha, 2000)
    # a cutoff whose 4 dim^2 state entries numpy cannot index is refused
    largest = math.isqrt(sys.maxsize // 4)
    assert 4 * largest ** 2 <= sys.maxsize < 4 * (largest + 1) ** 2
    ModelParams(omega0=1.0, Omega=1.0, mu=0.4, nu=0.1, dim=largest)
    for dim in (largest + 1, 2 ** 63):
        with pytest.raises(ParamError, match="dim must be <="):
            ModelParams(omega0=1.0, Omega=1.0, mu=0.4, nu=0.1, dim=dim)


def test_coherent_state_rejects_small_cutoff():
    with pytest.raises(TruncationError):
        coherent_state(2.0, 8)
    # where |alpha|^2 overflows a float the cutoff keeps nothing, not a NaN
    # tail that would read as 0 and accept the state
    for alpha in (1e200, -1e200j, math.inf):
        assert coherent_tail_weight(alpha, 8) == 1.0
    with pytest.raises(TruncationError, match=r"alpha=1e\+200 needs more than dim=8"):
        coherent_state(1e200, 8)
    # same alpha fits easily with more levels
    coherent_state(2.0, 30)
    # zero amplitude is the vacuum at any cutoff
    c = coherent_state(0.0, 4)
    assert np.abs(c - np.array([1, 0, 0, 0])).max() == 0


def test_coherent_state_rejects_non_finite_alpha():
    for alpha in (complex("nan"), float("inf"), complex(0.3, float("nan"))):
        with pytest.raises(DomainError):
            coherent_state(alpha, 8)


def test_cos_sinc_reject_non_finite_x():
    # inf and nan reach every level (inf * sqrt(0) is nan too); numpy's own
    # invalid-value warnings are silenced so that the DomainError is what shows
    with np.errstate(invalid="ignore"):
        for x in (math.inf, -math.inf, math.nan):
            for f in (cos_sqrt_values, sinc_sqrt_values):
                for shift in (0, 1):
                    with pytest.raises(DomainError):
                        f(x, 5, shift)


def test_cos_sinc_pythagoras():
    # cos^2(x sqrt(n+s)) + (n+s) sinc^2 = 1 entrywise
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.uniform(-5, 5)
        d = int(rng.integers(2, 12))
        s = int(rng.integers(0, 2))
        c = np.diag(cos_sqrt_values(x, d, s))
        sn = np.diag(sinc_sqrt_values(x, d, s))
        ns = np.diag(number(d)).real + s
        total = np.diag(c).real ** 2 + ns * np.diag(sn).real ** 2
        assert np.abs(total - 1).max() < 1e-12


def test_sinc_sqrt_zero_limit():
    # the n + shift = 0 entry takes the x limit of sin(x s)/s
    x = 1.3
    sn = np.diag(sinc_sqrt_values(x, 4, 0))
    assert sn[0, 0] == pytest.approx(x)
    assert sn[1, 1] == pytest.approx(math.sin(x))


def test_ladder_function_shift_identity():
    # a f(N) = f(N+1) a exactly, even at the cutoff edge
    for x in (0.3, 1.7):
        d = 6
        a = annihilation(d)
        lhs = a @ np.diag(cos_sqrt_values(x, d, 0))
        rhs = np.diag(cos_sqrt_values(x, d, 1)) @ a
        assert np.abs(lhs - rhs).max() == 0
        lhs = np.diag(sinc_sqrt_values(x, d, 1)) @ a
        rhs = a @ np.diag(sinc_sqrt_values(x, d, 0))
        assert np.abs(lhs - rhs).max() == 0

