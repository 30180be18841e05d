"""Distribution engine: exact lattice laws, interval probabilities, distances.

Frozen reference values were generated once with mpmath at 25-digit
precision (normal CDF) and from the closed-form representation of sums of
two-interval-uniform variables via an independent Binomial + Irwin-Hall
decomposition (interval probabilities); they are pinned here as constants.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slowclt import (
    LatticeDistribution,
    PiecewiseDensity,
    RateSequence,
    TowerSpec,
    VariantMismatch,
    build_counterexample,
    build_tower_system,
    derive_schedule,
    interval_probability,
    kolmogorov_distance,
    lattice_sum_distribution,
    lattice_sum_distributions,
    normal_cdf,
)
from slowclt.construction import LatticeNoise, ProcessModel, TwoIntervalUniformNoise
from slowclt.distributions import (
    ROOT_N_BITS,
    _interval_probability_grid,
    _tail_coefficients,
    convolution_powers,
    root_n_interval_probability,
    root_n_lower,
    sample_partial_sums,
    two_interval_sum_probability,
)
from slowclt.probes import clt_probe, llt_probe_lattice
from slowclt.towers import occupancy_distribution, occupancy_distributions
from oracles import lattice_sum_by_path_enumeration

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


@pytest.mark.parametrize("call", [
    lambda: LatticeDistribution(0, np.array([np.nan, 1.0])),
    lambda: PiecewiseDensity(np.array([0.0, np.nan, 2.0]), np.array([0.5, 0.5])),
    lambda: PiecewiseDensity(np.array([0.0, 1.0, 2.0]), np.array([np.nan, 0.5])),
    lambda: kolmogorov_distance(LatticeDistribution(0, np.array([1.0])), math.nan, 1),
    lambda: interval_probability([1.0, 1.0], math.nan),
    lambda: interval_probability([math.nan, 1.0], 0.9),
    lambda: interval_probability([math.inf, 1.0], 0.9),
], ids=["lattice-probs", "density-breakpoints", "density-values", "kolmogorov-sigma",
        "interval-u", "interval-nan-coefficient", "interval-inf-coefficient"])
def test_nan_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


class TestSymmetricStepSum:
    """The m-fold convolution power of the {-1, 0, 1} noise with P(+-1) = a/2."""

    @pytest.mark.parametrize("a", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("m", [0, 1, 2, 4, 6])
    def test_equals_outcome_enumeration(self, a, m):
        dist = convolution_powers([a / 2, 1 - a, a / 2], [m])[m]
        vals = [-1, 0, 1]
        probs = [a / 2, 1 - a, a / 2]
        ref = np.zeros(2 * m + 1)
        for combo in itertools.product(range(3), repeat=m):
            total = sum(vals[i] for i in combo)
            ref[total + m] += math.prod(probs[i] for i in combo)
        assert np.allclose(dist, ref, atol=1e-14)

    def test_variance_is_m_a(self):
        d = LatticeDistribution(-9, convolution_powers([0.4 / 2, 1 - 0.4, 0.4 / 2], [9])[9])
        assert d.variance() == pytest.approx(9 * 0.4, abs=1e-12)
        assert d.mean() == pytest.approx(0.0, abs=1e-15)


def exact_power(probs, n):
    """The n-fold convolution power of the float taps probs, as Fractions:
    with probs = R / 2^E for integers R, it is the coefficients of
    (sum_j R_j X^j)^n over 2^(E n), read off one exact integer power at
    X = 2^B, each coefficient <= (sum R)^n < 2^B in its own B-bit field."""
    E = max(Fraction(x).denominator.bit_length() - 1 for x in probs)
    R = [int(Fraction(x) * 2**E) for x in probs]
    B = n * max(sum(R), 1).bit_length()
    X = sum(r << B * j for j, r in enumerate(R)) ** n
    return [Fraction(X >> B * j & (1 << B) - 1, 1 << E * n) for j in range((len(R) - 1) * n + 1)]


def rounding_bound(w, n):
    """gamma_S for S = (w - 1) n floor(log2 n) + n - 1, the relative bound
    convolution_powers states for an n-fold power of w non-negative taps."""
    S = (w - 1) * n * (n.bit_length() - 1) + n - 1
    return Fraction(S, (1 << 53) - S)


class TestConvolutionPowers:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.just(0.0) | st.floats(1 / 64, 1.0), min_size=1, max_size=6),
        st.integers(1, 70) | st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        st.integers(0, 70),
    )
    @example([0.5, 0.0, 0.5], 64, 63)  # the coin, on every other point
    @example([0.0, 0.3, 0.0, 0.0, 0.7, 0.0], 70, 1)
    @example([1.0], 37, 0)  # one tap: n - 1 products of 1.0
    @example([1 / 64] * 6, 128, 127)  # the smallest taps drawn, at 2^7 folds
    def test_within_the_stated_bound_of_the_exact_power(self, probs, n, other):
        got = convolution_powers(probs, [n, other])
        assert set(got) == {n, other}
        # each n comes from the 2^i-fold powers alone, whatever else is asked
        assert np.array_equal(got[n], convolution_powers(probs, [n])[n])
        exact = exact_power(probs, n)
        assert len(got[n]) == len(exact)
        gamma = rounding_bound(len(probs), n)
        for g, e in zip(got[n].tolist(), exact):
            assert abs(Fraction(g) - e) <= gamma * e

    def test_zero_fold_is_the_unit(self):
        assert convolution_powers([0.2, 0.8], [0])[0].tolist() == [1.0]


def unflushed_mixture(a, occ) -> np.ndarray:
    """P(S_n = x - n) over the occupancy law occ: the mixture of the m-fold
    powers of the full kernel [a/2, 1 - a, a/2], no entry dropped."""
    n = occ.window
    law, out = np.array([1.0]), np.zeros(2 * n + 1)
    for m, w in enumerate(occ.probs):
        if w != 0.0:
            out[n - m : n + m + 1] += w * law
        law = np.convolve(law, np.array([a / 2.0, 1.0 - a, a / 2.0]))
    return out


def tiny_lattice_model(a=0.5):
    sys_ = build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])
    return ProcessModel("thm1", sys_, LatticeNoise(a), (1, 2), (1.0, 1.0))


@pytest.fixture(scope="module")
def thm1_k5_desk():
    sched = derive_schedule("thm1", RateSequence(0.5, 1.0), K=5)
    assert list(sched.n) == [4, 8, 16, 32, 64]
    return build_counterexample(sched)


class TestLatticeSumDistribution:
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_equals_path_enumeration(self, n):
        model = tiny_lattice_model()
        exact = lattice_sum_distribution(model, n)
        ref = lattice_sum_by_path_enumeration(model, n)
        assert np.allclose(exact.probs, ref.probs, atol=1e-10)

    def test_wrong_noise_kind_rejected(self):
        sys_ = build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])
        model = ProcessModel("thm2", sys_, TwoIntervalUniformNoise(), (0, 0), (0.5, 1.0))
        with pytest.raises(VariantMismatch):
            lattice_sum_distribution(model, 2)
        with pytest.raises(VariantMismatch):
            lattice_sum_distributions(model, [1, 2])

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

    @pytest.mark.parametrize("a", [1.0, 0.5])
    def test_windows_share_a_pass_bit_for_bit(self, thm1_k5_desk, a):
        # a = 1 runs the noise chain on the sublattice, a = 0.5 on every point
        model = dataclasses.replace(thm1_k5_desk, noise=LatticeNoise(a))
        windows = [64, 4, 8, 16, 32, 1]
        for n, law in zip(windows, lattice_sum_distributions(model, windows)):
            one = lattice_sum_distribution(model, n)
            assert law.offset == one.offset == -n
            assert np.array_equal(law.probs, one.probs)

    def test_sublattice_chain_equals_full_kernel(self, thm1_k5_desk):
        # the a = 1 law against the mixture over the full kernel [1/2, 0, 1/2]
        n = 64
        occ = occupancy_distribution(thm1_k5_desk.system, thm1_k5_desk.slab, n)
        assert np.array_equal(lattice_sum_distribution(thm1_k5_desk, n).probs,
                              unflushed_mixture(1.0, occ))

    @pytest.mark.parametrize("a", [1.0, 0.5])
    def test_flushed_chain_within_bound_of_unflushed(self, thm1_k5_desk, a):
        # at n = 1200 the unflushed chain's ends are subnormal, 2^-m at a = 1
        # from m = 1023 and 4^-m at a = 1/2 from m = 512; dropping them moves
        # the law by less than the stated n 2^-1021 in total
        n = 1200
        model = dataclasses.replace(thm1_k5_desk, noise=LatticeNoise(a))
        want = unflushed_mixture(a, occupancy_distribution(model.system, model.slab, n))
        assert np.any((want > 0.0) & (want < np.finfo(float).tiny))
        got = lattice_sum_distribution(model, n).probs
        assert np.sum(np.abs(got - want)) <= n * 2.0 ** -1021

    def test_flush_leaves_llt_and_clt_values(self):
        # thm1 c=0.5 beta=0.5 K=5 reaches n_4 = 4096, where the flush drops
        # the ends of every m-fold law past m = 1022
        sched = derive_schedule("thm1", RateSequence(0.5, 0.5), K=5)
        model = build_counterexample(sched)
        occs = occupancy_distributions(model.system, model.slab, sched.n)
        laws = lattice_sum_distributions(model, sched.n)
        for k, (occ, law) in enumerate(zip(occs, laws)):
            ref = LatticeDistribution(-occ.window, unflushed_mixture(1.0, occ))
            for probe in (llt_probe_lattice, clt_probe):
                got, want = (probe(model, sched, k, dist=d).value for d in (law, ref))
                assert got == want

    def test_flush_keeps_normal_ends(self):
        # P(S_n = +-n) = occ_n[n] 2^-n: every step active and of one sign.  At
        # thm1 c=0.1 beta=1 K=10, n = 205 and 410, that is 5.8e-63 and
        # 4.0e-126, normal floats the flush must keep; the llt and clt values
        # are read where the law is large and do not see them
        sched = derive_schedule("thm1", RateSequence(0.1, 1.0), K=10)
        model = build_counterexample(sched)
        windows = sched.n[-2:]
        occs = occupancy_distributions(model.system, model.slab, windows)
        for n, occ, law in zip(windows, occs, lattice_sum_distributions(model, windows)):
            assert law.prob_at(n) == law.prob_at(-n) == occ.probs[n] * 2.0**-n > 0.0

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

    @pytest.mark.parametrize("cs, u", [([2.0], 1.5), ([1.0, 1.0], 0.9),
                                       ([1.0, 0.0, 0.5], 0.8)])
    def test_signs_of_coefficients_do_not_matter(self, cs, u):
        # g is symmetric, so c g has the law of |c| g
        want = interval_probability(cs, u, target_error=1e-4)
        for signs in itertools.product((1.0, -1.0), repeat=len(cs)):
            got = interval_probability([s * c for s, c in zip(signs, cs)], u, target_error=1e-4)
            assert got == want

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

    def test_monte_carlo_agrees_with_exact_rational(self):
        cs, u = [1.0, 1.0, 1.0], 1.2
        exact = two_interval_sum_probability(3, Fraction(6, 5))
        assert exact == Fraction(723, 1000)
        reps = 10**6
        g = TwoIntervalUniformNoise().sample(np.random.default_rng(3), (reps, len(cs)))
        est = float(np.mean(np.abs(g @ np.array(cs)) <= u))
        radius = 4.0 * math.sqrt(max(est * (1.0 - est), 1.0 / reps) / reps)
        assert abs(est - float(exact)) <= radius

    def test_budget_exceeded_without_fallback(self):
        from slowclt import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            interval_probability([1.0] * 4, 1.0, cell_budget=0)

    def test_two_interval_sampler_moments(self):
        rng = np.random.default_rng(0)
        x = TwoIntervalUniformNoise().sample(rng, 200_000)
        assert np.all((np.abs(x) >= 0.5) & (np.abs(x) <= 1.0))
        assert abs(x.mean()) < 0.005
        assert abs(x.var() - TwoIntervalUniformNoise().variance) < 0.005


class TestRootNIntervalProbability:
    """b_n = P(|g_1 + ... + g_n| <= sqrt(n)) through the Binomial x Irwin-Hall form."""

    def test_b4_is_41_over_48(self):
        assert two_interval_sum_probability(4, 2) == Fraction(41, 48)
        b = root_n_interval_probability(4)
        assert Fraction(b.value) <= Fraction(41, 48) <= Fraction(b.value) + Fraction(b.error)
        assert b.method == "exact-rational"

    def test_n1_is_certain(self):
        # |g| <= 1 always
        assert two_interval_sum_probability(1, 1) == 1
        assert root_n_interval_probability(1).value == 1.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_grid(self, n):
        # target 1e-5: at 1e-7 the grid needs 8e7 (n=2) or 1.8e8 (n=3) cells,
        # past its default budget, and the call raises BudgetExceeded
        grid = interval_probability([1.0] * n, math.sqrt(n), target_error=1e-5)
        assert grid.method == "grid"
        lo, hi = _reference_bracket(n)
        assert abs(grid.value - float(lo)) <= grid.error
        assert abs(grid.value - float(hi)) <= grid.error

    def test_n7_inside_monte_carlo_radius(self):
        reps = 10**5
        g = TwoIntervalUniformNoise().sample(np.random.default_rng(5), (reps, 7))
        est = float(np.mean(np.abs(g.sum(axis=1)) <= math.sqrt(7)))
        lo, hi = _reference_bracket(7)
        assert abs(est - float(lo)) <= 4.0 * math.sqrt(max(est * (1.0 - est), 1.0 / reps) / reps)
        assert 0 < hi - lo < Fraction(1, 10**19)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 13, 25, 26, 50, 51, 100, 101])
    def test_float_interval_contains_bracket(self, n):
        # the one evaluation at u_lo = root_n_lower(n) plus the unit-density
        # bound covers the exact values at u_lo and u_lo + 2^-64 >= sqrt(n)
        lo, hi = _reference_bracket(n)
        b = root_n_interval_probability(n)
        assert Fraction(b.value) <= lo < Fraction(math.nextafter(b.value, math.inf))
        assert Fraction(b.value) + Fraction(b.error) >= hi
        assert b.lower <= b.value and b.error < 1e-15

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.fractions(0, 12, max_denominator=2**64),
           st.fractions(0, 12, max_denominator=2**64))
    @example(1, Fraction(1, 2), Fraction(1))  # g's own density is 1 there: equality
    def test_unit_density_bounds_increments(self, n, x, y):
        # the premise of root_n_interval_probability's error: S_n has density
        # <= 1, so P(|S_n| <= u) rises by at most 2 (v - u) from u to v
        u, v = sorted((x, y))
        assume(u < v)
        assert two_interval_sum_probability(n, v) - two_interval_sum_probability(n, u) <= 2 * (v - u)

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
            root_n_interval_probability(0)


def _reference_two_interval(n, u):
    """P(|g_1 + ... + g_n| <= u) as the Binomial x Irwin-Hall double sum: for
    each J = j the Irwin-Hall CDF difference over [2n - 3j - 2u, 2n - 3j + 2u],
    every CDF an alternating sum of up to n powers."""
    Q, U2 = u.denominator, 2 * u.numerator

    def cdf_scaled(X):  # n! Q^n P(IH_n <= X/Q)
        if X <= 0:
            return 0
        if X >= n * Q:
            return math.factorial(n) * Q**n
        return sum((-1) ** k * math.comb(n, k) * (X - k * Q) ** n for k in range(X // Q + 1))

    total = sum(math.comb(n, j) * (cdf_scaled((2 * n - 3 * j) * Q + U2)
                                   - cdf_scaled((2 * n - 3 * j) * Q - U2))
                for j in range(n + 1))
    return Fraction(total, 2**n * math.factorial(n) * Q**n)


def _reference_bracket(n):
    """The exact values at u_lo = root_n_lower(n) and u_lo + 2^-64, which hold
    sqrt(n) between them (both at sqrt(n) when n is a square)."""
    u_lo = root_n_lower(n)
    if u_lo * u_lo == n:
        v = _reference_two_interval(n, u_lo)
        return v, v
    return (_reference_two_interval(n, u_lo),
            _reference_two_interval(n, u_lo + Fraction(1, 1 << ROOT_N_BITS)))


def _lower_approximations(n):
    """Every lower convergent and semiconvergent p/q of sqrt(n), by rising q:
    the k-th convergent of the continued fraction from its partial quotients,
    and for odd k the fractions (p_{k-1} + i p_k) / (q_{k-1} + i q_k), i = 1 ..
    a_{k+1}, which end at the next lower convergent."""
    a0 = math.isqrt(n)
    yield a0, 1
    if a0 * a0 == n:
        return
    m, d, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    for k in itertools.count(1):
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        if k % 2 == 0:
            yield from ((p0 + i * p1, q0 + i * q1) for i in range(1, a + 1))
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0


class TestRootNLower:
    """The rational sqrt(n) is rounded down to for the exact b_n evaluation."""

    def test_first_lower_approximation_within_the_bound(self):
        scale = 1 << ROOT_N_BITS
        for n in [*range(1, 400), 962, 963, 3845, 15592]:
            want = next(Fraction(p, q) for p, q in _lower_approximations(n)
                        if (n * q * q - p * p) * scale <= 2 * p * q)
            u_lo = root_n_lower(n)
            assert u_lo == want, n
            # sqrt(n) - 2^-64 <= u_lo <= sqrt(n), with half the bits of the 2^-64 grid
            assert u_lo * u_lo <= n <= (u_lo + Fraction(1, scale)) ** 2
            assert u_lo.denominator < 2**40


@st.composite
def _n_and_u(draw):
    n = draw(st.integers(1, 30))
    q = draw(st.integers(1, 2**64))
    u = draw(st.one_of(
        st.just(Fraction(0)),
        st.integers(0, 4 * n).map(lambda m: Fraction(m, 2)),  # the Irwin-Hall knots
        st.integers(0, 2 * n * q).map(lambda m: Fraction(m, q)),
        st.integers(0, 2 * n * q).map(lambda m: Fraction(3 * n, 2) + Fraction(m, q)),
    ))
    return n, u


class TestSingleCdfSum:
    """The one CDF sum over the Irwin-Hall points against the per-j double sum."""

    @settings(max_examples=300, deadline=None)
    @given(_n_and_u())
    def test_equals_per_j_irwin_hall_sum(self, nu):
        n, u = nu
        assert two_interval_sum_probability(n, u) == _reference_two_interval(n, u)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_coefficients_expand_the_product(self, n):
        # [y^e] (1 + y^3)^n (1 - y)^n = sum over 3j + k = e of C(n, j) (-1)^k C(n, k)
        direct = [sum(math.comb(n, j) * (-1) ** (e - 3 * j) * math.comb(n, e - 3 * j)
                      for j in range(e // 3 + 1))
                  for e in range(2 * n)]
        assert _tail_coefficients(n) == direct

    @pytest.mark.parametrize("n", [26, 50, 51, 100, 101])
    def test_bracket_equals_reference(self, n):
        # the one sum at root_n_lower(n) and 2^-64 above it (at sqrt(n)
        # itself when n is a square), past the n <= 30 the property test draws
        u_lo = root_n_lower(n)
        u_hi = u_lo if u_lo * u_lo == n else u_lo + Fraction(1, 1 << ROOT_N_BITS)
        bracket = (two_interval_sum_probability(n, u_lo), two_interval_sum_probability(n, u_hi))
        assert bracket == _reference_bracket(n)


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

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40).filter(
            lambda raw: sum(raw) > 0.0),
        st.integers(min_value=-40, max_value=5),
        st.floats(min_value=0.05, max_value=3.0),
        st.integers(min_value=1, max_value=500),
    )
    def test_equals_per_point_loop(self, raw, offset, sigma, n):
        # the array sup against the per-point loop it replaced, to the bit
        d = LatticeDistribution(offset, np.array(raw) / sum(raw))
        scale = sigma * math.sqrt(n)
        cdf = np.cumsum(d.probs)
        best = 0.0
        for i, v in enumerate(d.support):
            phi = normal_cdf(v / scale)
            lo = cdf[i - 1] if i > 0 else 0.0
            best = max(best, abs(cdf[i] - phi), abs(lo - phi))
        assert kolmogorov_distance(d, sigma, n) == float(best)

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
