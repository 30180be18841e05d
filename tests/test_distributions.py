"""Distribution engine: exact lattice laws, interval probabilities, distances.

Frozen reference values were generated once with mpmath at 25-digit
precision (normal CDF) and from the closed-form representation of sums of
two-interval-uniform variables via an independent Binomial + Irwin-Hall
decomposition (interval probabilities); they are pinned here as constants.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowclt import (
    LatticeDistribution,
    RateSequence,
    TowerSpec,
    build_counterexample,
    build_tower_system,
    derive_schedule,
    interval_probability,
    kolmogorov_distance,
    lattice_sum_distribution,
    normal_cdf,
    symmetric_step_sum,
)
from slowclt.construction import LatticeNoise, ProcessModel, TwoIntervalUniformNoise
from slowclt.distributions import (
    TWO_INTERVAL_VARIANCE,
    _interval_probability_grid,
    lattice_sum_by_path_enumeration,
    root_n_interval_bracket,
    root_n_interval_probability,
    sample_partial_sums,
    two_interval_sum_probability,
)

from helpers import runs_of

# Phi(x) frozen from a 25-digit computation
NORMAL_CDF_REFS = {
    0.0: 0.5,
    0.5: 0.6914624612740131036377046,
    1.0: 0.8413447460685429485852325,
    -1.0: 0.1586552539314570514147675,
    2.0: 0.9772498680518207927997174,
    -2.5: 0.006209665325776135166978105,
    3.0: 0.9986501019683699054733482,
    5.0: 0.9999997133484281208060883,
    -8.0: 6.220960574271784123515995e-16,
}

# P(|g_1 + ... + g_n| <= sqrt(n)) for two-interval-uniform g, frozen from
# the exact Binomial x Irwin-Hall decomposition (b_4 = 41/48 exactly)
INTERVAL_SUM_REFS = {
    2: 0.6715728752538099,
    3: 0.7541651245988512,
    4: 41.0 / 48.0,
    8: 0.785174383271040132,
}


class TestNormalCdf:
    def test_frozen_references(self):
        for x, ref in NORMAL_CDF_REFS.items():
            assert normal_cdf(x) == pytest.approx(ref, abs=1e-15)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


class TestLatticeDistribution:
    def test_moments(self):
        d = LatticeDistribution(-1, np.array([0.25, 0.5, 0.25]))
        assert d.mean() == pytest.approx(0.0, abs=1e-15)
        assert d.variance() == pytest.approx(0.5)

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            LatticeDistribution(0, np.array([0.5, 0.4]))

    def test_convolution_against_enumeration(self):
        a = LatticeDistribution(-1, np.array([0.3, 0.3, 0.4]))
        b = LatticeDistribution(0, np.array([0.6, 0.4]))
        c = a.convolve(b)
        ref = {}
        for i, pa in zip(a.support, a.probs):
            for j, pb in zip(b.support, b.probs):
                ref[i + j] = ref.get(i + j, 0.0) + pa * pb
        for v, p in zip(c.support, c.probs):
            assert p == pytest.approx(ref.get(int(v), 0.0), abs=1e-15)


class TestSymmetricStepSum:
    @pytest.mark.parametrize("a", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("m", [0, 1, 2, 4, 6])
    def test_equals_outcome_enumeration(self, a, m):
        dist = symmetric_step_sum(a, m)
        vals = [-1, 0, 1]
        probs = [a / 2, 1 - a, a / 2]
        ref = np.zeros(2 * m + 1)
        for combo in itertools.product(range(3), repeat=m):
            total = sum(vals[i] for i in combo)
            ref[total + m] += math.prod(probs[i] for i in combo)
        assert np.allclose(dist.probs, ref, atol=1e-14)

    def test_variance_is_m_a(self):
        d = symmetric_step_sum(0.4, 9)
        assert d.variance() == pytest.approx(9 * 0.4, abs=1e-12)
        assert d.mean() == pytest.approx(0.0, abs=1e-15)


def tiny_lattice_model(a=0.5):
    sys_ = build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])
    weight = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    return ProcessModel("thm1", sys_, LatticeNoise(a), runs_of(sys_, weight))


@pytest.fixture(scope="module")
def thm1_k5_desk():
    sched = derive_schedule("thm1", RateSequence.power_law(0.5, 1.0), K=5)
    assert list(sched.n) == [4, 8, 16, 32, 64]
    return build_counterexample(sched)


class TestLatticeSumDistribution:
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_equals_path_enumeration(self, n):
        model = tiny_lattice_model()
        exact = lattice_sum_distribution(model, n)
        ref = lattice_sum_by_path_enumeration(model, n)
        assert np.allclose(exact.probs, ref.probs, atol=1e-10)

    def test_symmetric_law(self):
        d = lattice_sum_distribution(tiny_lattice_model(), 5)
        assert np.allclose(d.probs, d.probs[::-1], atol=1e-14)

    def test_variance_additivity(self):
        # strong-MDS structure: Var(S_n) = n * sigma^2 exactly
        model = tiny_lattice_model(a=0.8)
        for n in (1, 3, 7):
            d = lattice_sum_distribution(model, n)
            assert d.variance() == pytest.approx(n * model.sigma2, abs=1e-12)

    def test_monte_carlo_consistency(self):
        model = tiny_lattice_model()
        n, reps = 4, 200_000
        sums = sample_partial_sums(model, n, reps, seed=17)
        d = lattice_sum_distribution(model, n)
        for v, p in zip(d.support, d.probs):
            est = float(np.mean(sums == v))
            se = math.sqrt(max(p * (1 - p), 1e-9) / reps)
            assert abs(est - p) < 5 * se

    @pytest.mark.parametrize("n, p0, kolmogorov", [
        (4, 0.6516927331686018, 0.32584636658430094),
        (8, 0.5697184570182504, 0.2848592285091252),
        (16, 0.4678895153231642, 0.23394475766158207),
        (32, 0.3113274353614651, 0.15566371768073256),
        (64, 0.2840637444413082, 0.14203187222065417),
    ])
    def test_thm1_k5_desk_pinned(self, thm1_k5_desk, n, p0, kolmogorov):
        # values of the flat-state DP the landing-time engine replaced
        # (H_0 = 35 < n_4 = 64, so the last window crosses several tops)
        d = lattice_sum_distribution(thm1_k5_desk, n)
        assert d.prob_at(0) == pytest.approx(p0, rel=1e-12)
        sigma = math.sqrt(thm1_k5_desk.sigma2)
        assert kolmogorov_distance(d, sigma, n) == pytest.approx(kolmogorov, rel=1e-12)


class TestIntervalProbability:
    def test_frozen_references_via_grid(self):
        for n, ref in INTERVAL_SUM_REFS.items():
            r = interval_probability([1.0] * n, math.sqrt(n), target_error=1e-5)
            assert r.method == "grid"
            assert abs(r.value - ref) <= r.error
            assert r.error <= 1e-5

    def test_single_coefficient_exact(self):
        # P(|c g| <= u) = 2u/c - 1 for u/c in [1/2, 1]
        r = interval_probability([2.0], 1.5)
        assert r.method == "exact"
        assert r.value == pytest.approx(0.5, abs=1e-15)
        assert r.error == 0.0

    def test_empty_interval(self):
        r = interval_probability([1.0, 1.0], 0.0)
        assert r.value <= r.error * 2 + 1e-12

    def test_grid_halving_changes_less_than_error(self):
        cs = [1.0, 0.5, 0.25]
        u = 0.8
        step = 1e-4
        r1 = _interval_probability_grid(cs, u, step)
        r2 = _interval_probability_grid(cs, u, step / 2)
        assert abs(r1.value - r2.value) < r1.error

    def test_monte_carlo_agrees_with_grid(self):
        cs, u = [1.0, 1.0, 1.0], 1.2
        grid = interval_probability(cs, u, target_error=1e-6)
        reps = 10**6
        g = TwoIntervalUniformNoise().sample(np.random.default_rng(3), (reps, len(cs)))
        est = float(np.mean(np.abs(g @ np.array(cs)) <= u))
        radius = 4.0 * math.sqrt(max(est * (1.0 - est), 1.0 / reps) / reps)
        assert abs(est - grid.value) <= radius + grid.error

    def test_budget_exceeded_without_fallback(self):
        from slowclt import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            interval_probability([1.0] * 4, 1.0, cell_budget=0)

    def test_two_interval_sampler_moments(self):
        rng = np.random.default_rng(0)
        x = TwoIntervalUniformNoise().sample(rng, 200_000)
        assert np.all((np.abs(x) >= 0.5) & (np.abs(x) <= 1.0))
        assert abs(x.mean()) < 0.005
        assert abs(x.var() - TWO_INTERVAL_VARIANCE) < 0.005


class TestRootNIntervalProbability:
    """b_n = P(|g_1 + ... + g_n| <= sqrt(n)) through the Binomial x Irwin-Hall form."""

    def test_b4_is_41_over_48(self):
        assert two_interval_sum_probability(4, 2) == Fraction(41, 48)
        assert root_n_interval_bracket(4) == (Fraction(41, 48), Fraction(41, 48))
        assert root_n_interval_probability(4).method == "exact-rational"

    def test_n1_is_certain(self):
        # |g| <= 1 always
        assert root_n_interval_bracket(1) == (1, 1)
        assert root_n_interval_probability(1).value == 1.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_grid(self, n):
        # target 1e-5: at 1e-7 the grid needs 8e7 (n=2) or 1.8e8 (n=3) cells,
        # past its default budget, and the call raises BudgetExceeded
        grid = interval_probability([1.0] * n, math.sqrt(n), target_error=1e-5)
        assert grid.method == "grid"
        lo, hi = root_n_interval_bracket(n)
        assert abs(grid.value - float(lo)) <= grid.error
        assert abs(grid.value - float(hi)) <= grid.error

    def test_n7_inside_monte_carlo_radius(self):
        reps = 10**5
        g = TwoIntervalUniformNoise().sample(np.random.default_rng(5), (reps, 7))
        est = float(np.mean(np.abs(g.sum(axis=1)) <= math.sqrt(7)))
        lo, hi = root_n_interval_bracket(7)
        assert abs(est - float(lo)) <= 4.0 * math.sqrt(max(est * (1.0 - est), 1.0 / reps) / reps)
        assert 0 < hi - lo < Fraction(1, 10**19)

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 13, 25, 50, 100])
    def test_float_interval_contains_bracket(self, n):
        lo, hi = root_n_interval_bracket(n)
        b = root_n_interval_probability(n)
        assert Fraction(b.value) <= lo
        assert Fraction(b.value) + Fraction(b.error) >= hi
        assert b.lower <= b.value and b.error < 1e-15

    def test_monotone_in_u(self):
        vals = [two_interval_sum_probability(5, Fraction(i, 4)) for i in range(0, 22)]
        assert vals[0] == 0 and vals[-1] == 1
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            two_interval_sum_probability(0, 1)
        with pytest.raises(ValueError):
            two_interval_sum_probability(3, Fraction(-1, 2))
        with pytest.raises(ValueError):
            root_n_interval_bracket(0)


class TestKolmogorovDistance:
    def test_point_mass_at_zero(self):
        d = LatticeDistribution(0, np.array([1.0]))
        assert kolmogorov_distance(d, 1.0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_fair_coin_one_step(self):
        d = LatticeDistribution(-1, np.array([0.5, 0.0, 0.5]))
        ref = 0.5 - normal_cdf(-1.0)  # left limit at +1 vs Phi(1^-)
        assert kolmogorov_distance(d, 1.0, 1) == pytest.approx(ref, abs=1e-12)

    def test_fair_coin_berry_esseen_decay(self):
        probs = np.array([1.0])
        kernel = np.array([0.5, 0.0, 0.5])
        dists = []
        for n in (100, 400):
            p = np.array([1.0])
            for _ in range(n):
                p = np.convolve(p, kernel)
            dists.append(kolmogorov_distance(LatticeDistribution(-n, p), 1.0, n))
        assert dists[1] < dists[0]
        assert dists[1] <= 0.04

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=9),
        st.integers(min_value=-3, max_value=0),
    )
    def test_dominates_pointwise_gap(self, raw, offset):
        probs = np.array(raw) / sum(raw)
        d = LatticeDistribution(offset, probs)
        dist = kolmogorov_distance(d, 1.0, 4)
        # distance dominates the CDF gap at every support point (right limit)
        cdf = np.cumsum(probs)
        scale = 2.0  # sigma * sqrt(n)
        for v, F in zip(d.support, cdf):
            gap = abs(F - normal_cdf(v / scale))
            assert dist >= gap - 1e-12
        assert 0.0 <= dist <= 1.0
