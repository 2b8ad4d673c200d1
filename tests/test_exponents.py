import numpy as np
import pytest

from fdxlab.exponents import (
    ProblemParams,
    Regime,
    admissible_beta_range,
    check_exponent_invariants,
    classify_regime,
    derive_exponents,
    kappa_r,
    validate_beta,
)


def test_derive_exponents_direct_substitution():
    ex = derive_exponents(ProblemParams(N=1, m=0.5, p=3.0))
    assert ex.theta == pytest.approx(0.625, abs=0.0)
    assert ex.theta_prime == pytest.approx(1.6)
    assert ex.kappa == pytest.approx(1.5)
    assert ex.p_m == pytest.approx(2.5)

    ex2 = derive_exponents(ProblemParams(N=2, m=0.5, p=1.5))
    assert ex2.p_m == pytest.approx(1.5)
    assert ex2.kappa == pytest.approx(1.0)

    ex3 = derive_exponents(ProblemParams(N=2, m=0.5, p=2.0))
    assert ex3.theta == pytest.approx(0.75)
    assert ex3.theta_prime == pytest.approx(4.0 / 3.0)


def test_construction_rejects_invalid_params():
    with pytest.raises(ValueError):
        ProblemParams(N=0, m=0.5, p=2.0)
    with pytest.raises(ValueError):
        ProblemParams(N=1, m=1.0, p=2.0)
    with pytest.raises(ValueError):
        ProblemParams(N=1, m=0.0, p=2.0)
    with pytest.raises(ValueError):
        ProblemParams(N=1, m=0.5, p=1.0)


def test_classify_regime_examples():
    assert classify_regime(ProblemParams(N=2, m=0.5, p=1.2)) is Regime.SUBCRITICAL
    assert classify_regime(ProblemParams(N=2, m=0.5, p=1.5)) is Regime.CRITICAL
    assert classify_regime(ProblemParams(N=1, m=0.5, p=3.0)) is Regime.SUPERCRITICAL


def test_classify_regime_tolerance():
    # p_m computed in floating point lands on CRITICAL under the default tie-break
    N, m = 3, 0.37
    p = m + 2.0 / N
    assert classify_regime(ProblemParams(N=N, m=m, p=p)) is Regime.CRITICAL
    assert classify_regime(ProblemParams(N=N, m=m, p=p + 1e-6)) is Regime.SUPERCRITICAL


def test_kappa_r_examples():
    assert kappa_r(ProblemParams(N=1, m=0.5, p=2.0), 1.0) == 1.5
    val = kappa_r(ProblemParams(N=4, m=0.5, p=2.0), 1.0)
    assert val == pytest.approx(0.0, abs=1e-15)
    assert not val > 0.0
    assert kappa_r(ProblemParams(N=1, m=0.5, p=2.0), 1.1) == pytest.approx(1.7)
    with pytest.raises(ValueError):
        kappa_r(ProblemParams(N=1, m=0.5, p=2.0), 0.9)


def test_admissible_beta_range_examples():
    assert admissible_beta_range(ProblemParams(N=1, m=0.5, p=3.0)) == pytest.approx((1.0, 1.25))
    assert admissible_beta_range(ProblemParams(N=2, m=0.5, p=2.0)) == pytest.approx((1.0, 1.5))
    with pytest.raises(ValueError):
        admissible_beta_range(ProblemParams(N=2, m=0.5, p=1.2))


def test_beta_validation():
    params = ProblemParams(N=1, m=0.5, p=3.0)
    validate_beta(params, 1.1)
    with pytest.raises(ValueError):
        validate_beta(params, 1.3)
    with pytest.raises(ValueError):
        validate_beta(params, 1.0)


def test_kappa_beta_constraint_binds_in_higher_dimension():
    # N(1-m)/2 exceeds 1, so the lower endpoint moves up
    lo, hi = admissible_beta_range(ProblemParams(N=6, m=0.4, p=2.0))
    assert lo == pytest.approx(1.8)
    assert hi == pytest.approx(4.8)
    assert lo < hi


def test_invariants_random_sweep():
    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        params = ProblemParams(
            N=int(rng.integers(1, 8)),
            m=float(rng.uniform(0.01, 0.99)),
            p=float(rng.uniform(1.0001, 8.0)),
        )
        check_exponent_invariants(params)


def test_classify_regime_monotone_in_p():
    rng = np.random.default_rng(77)
    for _ in range(300):
        N = int(rng.integers(1, 5))
        m = float(rng.uniform(0.05, 0.95))
        ps = np.sort(rng.uniform(1.0001, 6.0, size=12))
        tags = [classify_regime(ProblemParams(N=N, m=m, p=float(p))) for p in ps]
        for a, b in zip(tags, tags[1:]):
            assert not b < a


def test_regime_order():
    assert Regime.SUBCRITICAL < Regime.CRITICAL < Regime.SUPERCRITICAL
