"""Acceptance gate: one test per acceptance criterion, pinned tolerances.

Each test prints a single PASS line (visible with -v as the test outcome);
runtime limits from the criteria are asserted inside the tests.
"""

import itertools
import math
import time

import numpy as np
import pytest

from slowclt import (
    LatticeDistribution,
    RateSequence,
    TowerSpec,
    build_counterexample,
    build_tower_system,
    density_of_f,
    derive_schedule,
    gnedenko_baseline,
    interval_probability,
    intersection_lower_bound,
    kolmogorov_distance,
    lattice_sum_distribution,
    mds_conditional_mean_test,
    mixing_probe,
    normal_cdf,
    run_experiment,
    symmetric_step_sum,
    write_report,
)
from slowclt.construction import (
    LatticeNoise,
    ProcessModel,
    TwoIntervalUniformNoise,
    tower_chain_system,
)
from slowclt.distributions import lattice_sum_by_path_enumeration
from slowclt.reporting import ExperimentConfig

from helpers import runs_of

THM1_RATE = RateSequence.power_law(0.5, 0.5)
THM3_RATE = RateSequence.power_law(0.25, 0.5)
THM2_RATE = RateSequence.power_law(0.05, 1.0)


@pytest.fixture(scope="module")
def thm1():
    sched = derive_schedule("thm1", THM1_RATE, 3)
    model = build_counterexample(sched, LatticeNoise(1.0))
    return sched, model


@pytest.fixture(scope="module")
def thm3():
    sched = derive_schedule("thm3", THM3_RATE, 3)
    return sched, build_counterexample(sched)


@pytest.fixture(scope="module")
def thm2():
    sched = derive_schedule("thm2", THM2_RATE, 12)
    return sched, build_counterexample(sched)


def test_criterion_01_thm1_llt_exact(thm1):
    """mu(S_nk = 0) >= a_nk with closed-form bound d_k(1-rho_k), margin 1e-9."""
    t0 = time.monotonic()
    sched, model = thm1
    assert sched.n == (16, 64, 256)
    for k in range(3):
        a_k = THM1_RATE(sched.n[k])
        closed = sched.d[k] * (1.0 - sched.rho[k])
        dist = lattice_sum_distribution(model, sched.n[k])
        value = dist.prob_at(0)
        assert intersection_lower_bound(sched, k) >= closed - 1e-12
        assert value - closed >= -1e-12
        assert value - a_k >= 1e-9
        assert closed - a_k >= -1e-12
    assert time.monotonic() - t0 < 60.0
    print("ACCEPTANCE 1: PASS - thm1 LLT chain exact, margin >= 1e-9")


def test_criterion_02_thm1_clt_distance(thm1):
    """sup_x |F_nk - Phi| >= a_nk / 2, exact lattice CDF, Phi to 1e-12."""
    t0 = time.monotonic()
    sched, model = thm1
    sigma = math.sqrt(model.sigma2)
    for k in range(3):
        dist = lattice_sum_distribution(model, sched.n[k])
        d = kolmogorov_distance(dist, sigma, sched.n[k])
        assert d >= THM1_RATE(sched.n[k]) / 2.0 + 1e-9
    assert time.monotonic() - t0 < 60.0
    print("ACCEPTANCE 2: PASS - thm1 Kolmogorov distance >= a_nk/2 for all k")


def test_criterion_03_thm3_llt_chain(thm3):
    """mu(intersection) >= p_k/4 >= a_nk and mu(S_nk = 0) >= a_nk."""
    t0 = time.monotonic()
    sched, model = thm3
    assert sched.n == (8, 16, 32)
    assert all(H >= 4 * n * n for H, n in zip(sched.H, sched.n))
    assert math.gcd(*sched.H) == 1
    for k in range(3):
        a_k = THM3_RATE(sched.n[k])
        inter = intersection_lower_bound(sched, k)
        assert inter >= sched.p[k] / 4.0 - 1e-12
        assert sched.p[k] / 4.0 >= a_k - 1e-12
        value = lattice_sum_distribution(model, sched.n[k]).prob_at(0)
        assert value >= inter - 1e-12
        assert value >= a_k + 1e-9
    assert time.monotonic() - t0 < 120.0
    print("ACCEPTANCE 3: PASS - thm3 intersection chain and mixture LLT exact")


def test_criterion_04_thm3_mixing(thm3):
    """Exact beta of the tower chain falls below 7 eps_k at searched lags."""
    t0 = time.monotonic()
    sched, _ = thm3
    chain = tower_chain_system(sched)
    assert chain.n_states <= 10**4
    res = mixing_probe(chain, sched)
    assert res.passed
    for b_val, eps in zip(res.details["beta_at_m"], sched.eps):
        assert b_val <= 7.0 * eps
    assert time.monotonic() - t0 < 120.0
    print("ACCEPTANCE 4: PASS - beta(m_k) <= 7 eps_k at lags "
          f"{res.details['m_lags']}")


def test_criterion_05_thm2_structure(thm2):
    """Density <= L1+L2, integral 1 within 1e-10, variance closed forms."""
    sched, model = thm2
    consts = sched.constants
    dens = density_of_f(model)
    assert dens.max_value() <= consts["L1"] + consts["L2"] + 1e-12
    assert abs(dens.integral() - 1.0) <= 1e-10
    trunc_sum = (7.0 / 12.0) * sum(p * d * d for p, d in zip(sched.p, sched.d))
    assert abs(model.sigma2 - trunc_sum) <= 1e-12
    remainder = (7.0 / 12.0) * (
        consts["c1_remainder"] / consts["L1"] ** 2
        + consts["c2_remainder"] / consts["L2"] ** 2
    )
    assert abs(model.sigma2 - consts["sigma2_closed"]) <= remainder + 1e-12
    print("ACCEPTANCE 5: PASS - thm2 density bound, integral, and variance")


def test_criterion_06_thm2_ratio_probe(thm2):
    """(b p_k/(2 d_k)) sigma >= L at odd k, grid b to 1e-6, MC cross-check."""
    t0 = time.monotonic()
    sched, model = thm2
    k = 1
    n = sched.n[k]
    b = interval_probability([1.0] * n, math.sqrt(n), target_error=1e-6)
    assert b.method == "grid" and b.error <= 1e-6
    sigma = math.sqrt(model.sigma2)
    value = b.lower * sched.p[k] / (2.0 * sched.d[k]) * sigma
    assert value >= sched.constants["L"]
    # independent Monte Carlo estimate of the same interval probability
    rng = np.random.default_rng(np.random.SeedSequence([2024, 6]))
    reps = 10**6
    g = TwoIntervalUniformNoise().sample(rng, (reps, n))
    est = float(np.mean(np.abs(g.sum(axis=1)) <= math.sqrt(n)))
    se = math.sqrt(est * (1.0 - est) / reps)
    assert abs(est - b.value) <= 4.0 * se + b.error
    assert time.monotonic() - t0 < 300.0
    print(f"ACCEPTANCE 6: PASS - ratio {value:.3f} >= L = {sched.constants['L']}, "
          f"grid/MC gap {abs(est - b.value):.2e} <= 4 se")


def test_criterion_07_strong_mds(thm1, thm3):
    """Exact conditional means 0 on a small instance; MC passes on desk
    instances and fails on the linear-filter control."""
    sys_ = build_tower_system([TowerSpec(7, 0.6), TowerSpec(8, 0.4)])
    weight = np.ones(sys_.n_states)
    weight[0:4] = 0.0
    small = ProcessModel("thm1", sys_, LatticeNoise(0.5), runs_of(sys_, weight))
    assert sys_.n_states <= 100
    for window in (2, 3, 4):
        res = mds_conditional_mean_test(small, window)
        assert res.method == "exact" and res.value <= 1e-12
    for sched, model in (thm1, thm3):
        res = mds_conditional_mean_test(model, 3, reps=200_000, seed=11)
        assert res.passed, (model.variant, res.value)
    control = mds_conditional_mean_test(small, 3, reps=200_000, seed=11,
                                        filter_coeff=0.5)
    assert not control.passed
    exact_control = mds_conditional_mean_test(small, 4, filter_coeff=0.5)
    assert exact_control.value > 1e-12
    print("ACCEPTANCE 7: PASS - strong-MDS exact and Monte Carlo, control fails")


def test_criterion_08_oracle_equivalence():
    """lattice_sum_distribution == path enumeration; step sums == outcomes."""
    systems = [
        ([TowerSpec(2, 0.4), TowerSpec(3, 0.6)],
         np.array([0.0, 1.0, 1.0, 0.0, 1.0])),
        ([TowerSpec(3, 0.3), TowerSpec(4, 0.5), TowerSpec(5, 0.2)],
         np.array([1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1], dtype=float)),
    ]
    for specs, weight in systems:
        sys_ = build_tower_system(specs)
        assert sys_.n_states <= 200
        for a in (0.5, 1.0):
            model = ProcessModel("thm1", sys_, LatticeNoise(a), runs_of(sys_, weight))
            for n in (1, 4, 8):
                exact = lattice_sum_distribution(model, n)
                ref = lattice_sum_by_path_enumeration(model, n)
                assert np.max(np.abs(exact.probs - ref.probs)) <= 1e-10
    for a in (0.3, 1.0):
        for m in range(7):
            dist = symmetric_step_sum(a, m)
            ref = np.zeros(2 * m + 1)
            vals, probs = [-1, 0, 1], [a / 2, 1 - a, a / 2]
            for combo in itertools.product(range(3), repeat=m):
                ref[sum(vals[i] for i in combo) + m] += math.prod(
                    probs[i] for i in combo
                )
            assert np.max(np.abs(dist.probs - ref)) <= 1e-14
    print("ACCEPTANCE 8: PASS - exact engines equal brute-force oracles")


def test_criterion_09_sanity_contrasts():
    """i.i.d. coin: small Kolmogorov distance; Gnedenko span dichotomy."""
    kernel = np.array([0.5, 0.0, 0.5])
    probs = np.array([1.0])
    for _ in range(400):
        probs = np.convolve(probs, kernel)
    ks = kolmogorov_distance(LatticeDistribution(-400, probs), 1.0, 400)
    assert ks <= 0.04
    coin = LatticeDistribution(-1, np.array([0.5, 0.0, 0.5]))
    good = [gnedenko_baseline(coin, b=-1.0, h=2.0, n=n) for n in (100, 200, 400)]
    assert good[0] > good[1] > good[2]
    bad = [gnedenko_baseline(coin, b=-1.0, h=1.0, n=n) for n in (100, 200, 400)]
    assert all(v >= 0.1 for v in bad)
    print(f"ACCEPTANCE 9: PASS - coin KS {ks:.4f} <= 0.04; span dichotomy holds")


def test_criterion_10_determinism(tmp_path):
    """Identical config -> byte-identical machine-readable report."""
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1,
        "variant": "thm3",
        "rate": {"family": "power-law", "c": 0.25, "beta": 0.5},
        "K": 3,
        "seed": 7,
    })
    p1 = write_report(run_experiment(cfg), str(tmp_path / "r1"))
    p2 = write_report(run_experiment(cfg), str(tmp_path / "r2"))
    b1 = open(p1["ndjson"], "rb").read()
    assert b1 == open(p2["ndjson"], "rb").read()
    assert open(p1["csv"], "rb").read() == open(p2["csv"], "rb").read()
    assert len(b1) > 0
    print("ACCEPTANCE 10: PASS - byte-identical reports on rerun")
