"""Schedule derivation and model construction for the three variants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowclt import (
    BadConstants,
    RateSequence,
    ScheduleInfeasible,
    TowerSpec,
    VariantMismatch,
    build_counterexample,
    build_tower_system,
    density_of_f,
    derive_schedule,
    derive_schedule_thm1,
    derive_schedule_thm2,
    derive_schedule_thm3,
    intersection_lower_bound,
)
from slowclt.construction import (
    SEARCH_CAP,
    LatticeNoise,
    ProcessModel,
    TwoIntervalUniformNoise,
)

DESK_THM1 = RateSequence(0.5, 0.5)
DESK_THM3 = RateSequence(0.25, 0.5)
DESK_THM2 = RateSequence(0.05, 1.0)


class TestRateSequence:
    def test_power_law_values(self):
        a = RateSequence(0.5, 0.5)
        assert a(16) == pytest.approx(0.125)
        with pytest.raises(ValueError):
            a(0)

    def test_descriptor_round_trip(self):
        a = RateSequence(0.3, 0.75)
        b = RateSequence.from_descriptor(a.descriptor)
        assert b(37) == a(37)

    @pytest.mark.parametrize("c, beta", [
        ("0.5", 0.5), (0.5, True), (True, 1.0), (None, 0.5), (0.0, 0.5), (0.5, -1.0),
        (math.inf, 0.5), (0.5, math.nan),
    ])
    def test_non_number_or_non_positive_rejected(self, c, beta):
        with pytest.raises(ValueError, match="power law needs a finite number"):
            RateSequence(c, beta)
        with pytest.raises(ValueError, match="power law needs a finite number"):
            RateSequence.from_descriptor({"family": "power-law", "c": c, "beta": beta})

    def test_descriptor_holds_floats(self):
        assert RateSequence(1, 2).descriptor == {"family": "power-law", "c": 1.0, "beta": 2.0}


class TestScheduleThm1:
    def test_desk_instance(self):
        s = derive_schedule_thm1(DESK_THM1, 3)
        assert s.n == (16, 64, 256)
        assert s.d == (0.25, 0.125, 0.0625)
        assert s.rho == (0.5, 0.25, 0.125)

    def test_slab_mass_is_exactly_d(self):
        s = derive_schedule_thm1(DESK_THM1, 3)
        for H, n, p, d in zip(s.H, s.n, s.p, s.d):
            assert (H - n + 1) * p / H == pytest.approx(d, rel=1e-14)

    def test_defect_within_rho_d(self):
        s = derive_schedule_thm1(DESK_THM1, 3)
        for H, n, p, d, rho in zip(s.H, s.n, s.p, s.d, s.rho):
            level_mass = p / H
            assert n * n * level_mass <= rho * d * (1 + 1e-12)

    def test_infeasible_rate(self):
        slow = RateSequence(0.4, 1e-6)
        with pytest.raises(ScheduleInfeasible):
            derive_schedule_thm1(slow, 2)

    def test_search_cap_bounds_every_n(self, monkeypatch):
        # a_1 = 0.01 meets the first two thresholds at n = 1, 2; n_2 >= 3
        # would pass the cap
        monkeypatch.setattr("slowclt.construction.SEARCH_CAP", 2)
        a = RateSequence(0.01, 1.0)
        assert derive_schedule_thm1(a, 2).n == (1, 2)
        with pytest.raises(ScheduleInfeasible, match="no n <= 2"):
            derive_schedule_thm1(a, 3)


class TestScheduleThm3:
    def test_desk_instance(self):
        s = derive_schedule_thm3(DESK_THM3, 3)
        assert s.n == (8, 16, 32)
        assert s.H == (256, 1024, 4097)  # 4096 bumped for gcd 1
        assert s.p[0] == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-12)
        assert s.p[1] == pytest.approx(0.25, rel=1e-12)
        assert s.remainder_height == 33

    def test_star_conditions(self):
        s = derive_schedule_thm3(DESK_THM3, 3)
        for k, (n, H, p) in enumerate(zip(s.n, s.H, s.p)):
            assert p >= 4 * DESK_THM3(n) - 1e-12
            assert H >= 4 * n * n
        assert math.gcd(*s.H) == 1
        assert sum(s.p) < 1.0

    def test_remainder_coprime_to_unbumped_heights(self):
        # every 4 n_k^2 is even and only the tallest is bumped, so an even
        # remainder would leave the chain nearly 2-periodic (K = 7: 674)
        for K in range(2, 10):
            s = derive_schedule_thm3(DESK_THM3, K)
            assert math.gcd(s.remainder_height, math.gcd(*(4 * n * n for n in s.n))) == 1

    def test_eps_and_delta_decreasing(self):
        s = derive_schedule_thm3(DESK_THM3, 4)
        assert all(a > b for a, b in zip(s.eps, s.eps[1:]))


class TestScheduleThm2:
    def test_geometric_masses(self):
        s = derive_schedule_thm2(DESK_THM2, 1.0, 100.0, 4.0, 12)
        q = (math.sqrt(2) - 1) / math.sqrt(2)
        for k, p in enumerate(s.p):
            assert p == pytest.approx(q * 2 ** (-k / 2), rel=1e-14)
        assert s.remainder_mass == pytest.approx(2.0 ** (-6), rel=1e-14)

    def test_weights_alternate_l1_l2(self):
        s = derive_schedule_thm2(DESK_THM2, 1.0, 100.0, 4.0, 6)
        for k, (p, d) in enumerate(zip(s.p, s.d)):
            L = 1.0 if k % 2 == 0 else 100.0
            assert d == pytest.approx(p / L, rel=1e-14)

    def test_closed_form_constants(self):
        s = derive_schedule_thm2(DESK_THM2, 1.0, 100.0, 4.0, 12)
        q = (math.sqrt(2) - 1) / math.sqrt(2)
        c = s.constants
        assert c["c1_closed"] == pytest.approx(q**3 * 8 / 7, rel=1e-14)
        assert c["c2_closed"] == pytest.approx(c["c1_closed"] / (2 * math.sqrt(2)),
                                               rel=1e-14)
        closed = (7 / 12) * (c["c1_closed"] / 1.0 + c["c2_closed"] / 100.0**2)
        assert c["sigma2_closed"] == pytest.approx(closed, rel=1e-14)
        # truncated sum is below the closed form by at most the tail terms
        gap = c["sigma2_closed"] - c["sigma2_truncated"]
        tail = (7 / 12) * (c["c1_remainder"] + c["c2_remainder"] / 100.0**2)
        assert 0 < gap <= tail * (1 + 1e-10)

    def test_heights_gcd_one(self):
        s = derive_schedule_thm2(DESK_THM2, 1.0, 100.0, 4.0, 12)
        assert math.gcd(*s.H) == 1

    def test_bad_constants(self):
        with pytest.raises(BadConstants):
            derive_schedule_thm2(DESK_THM2, 1.0, 5.0, 4.0, 4)

    def test_dispatcher_defaults(self):
        s = derive_schedule("thm2", DESK_THM2, 12)
        assert s.constants["L1"] == 1.0 and s.constants["L2"] == 100.0
        with pytest.raises(VariantMismatch):
            derive_schedule("thm9", DESK_THM2, 3)

    @pytest.mark.parametrize("variant, constants", [
        ("thm1", {"bogus": 1}),
        ("thm1", {"L1": 1.0}),  # a thm2 constant
        ("thm2", {"L1": "x"}),
        ("thm2", {"L": float("nan")}),
        ("thm2", {"L1": 0.0}),
        ("thm3", {"eps0": -1}),
        ("thm3", {"search_cap": 10**7}),  # the cap is not a constant
        ("thm3", {"eps0": True}),
    ])
    def test_dispatcher_rejects_bad_constants(self, variant, constants):
        with pytest.raises(BadConstants):
            derive_schedule(variant, DESK_THM2, 4, **constants)


power_law_params = st.tuples(
    st.floats(min_value=0.01, max_value=0.5),
    st.floats(min_value=0.25, max_value=1.0),
    st.integers(min_value=2, max_value=5),
)


class TestScheduleProperties:
    @settings(max_examples=25, deadline=None)
    @given(power_law_params)
    def test_thm1_invariants(self, params):
        c, beta, K = params
        a = RateSequence(c, beta)
        try:
            s = derive_schedule_thm1(a, K)
        except ScheduleInfeasible:
            # e.g. c=0.5, beta=0.25, K=5: a_n stays above the last threshold
            # 2^-(K+2) up to the search cap, so the raise is the right answer
            assert a(SEARCH_CAP) > 2.0 ** (-(K + 2)) * (1.0 + 1e-12)
            return
        assert all(x < y for x, y in zip(s.n, s.n[1:]))
        assert sum(s.d) < 1.0 and sum(s.p) < 1.0
        for k, (n, d, rho) in enumerate(zip(s.n, s.d, s.rho)):
            assert d == pytest.approx(2 * a(n), rel=1e-14)
            assert rho == 2.0 ** (-k - 1)

    @settings(max_examples=25, deadline=None)
    @given(power_law_params)
    def test_thm3_invariants(self, params):
        c, beta, K = params
        a = RateSequence(c, beta)
        s = derive_schedule_thm3(a, K)
        assert all(x < y for x, y in zip(s.n, s.n[1:]))
        assert math.gcd(*s.H) == 1
        assert sum(s.p) < 1.0
        for n, H, p in zip(s.n, s.H, s.p):
            assert p >= 4 * a(n) * (1 - 1e-12)
            assert H >= 4 * n * n

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["thm1", "thm2", "thm3"]), st.floats(min_value=0.01, max_value=2.0),
           st.floats(min_value=0.25, max_value=2.0), st.integers(min_value=2, max_value=6))
    def test_probe_times_are_minimal(self, variant, c, beta, K):
        # n_k is the smallest n > n_{k-1} with a_n <= t_k, for the variant's threshold t_k
        a = RateSequence(c, beta)
        try:
            s = derive_schedule(variant, a, K)
        except ScheduleInfeasible:
            return
        if variant == "thm1":
            ts = [2.0 ** (-(k + 3)) for k in range(K)]
        elif variant == "thm2":
            ts = list(s.rho)
            assert s.H == tuple(2 * n + (k == 0) for k, n in enumerate(s.n))
        else:
            caps = [2.0 ** (-k / 2.0) / (2.0 * math.sqrt(2.0)) for k in range(K)]
            ts = [min(1.0, 0.96 / sum(caps)) * cap / 4.0 for cap in caps]
        for prev, n, t in zip((0,) + s.n, s.n, ts):
            assert a(n) <= t * (1 + 1e-12)
            assert n - 1 == prev or a(n - 1) > t * (1 + 1e-12)
        assert math.gcd(*s.H, s.remainder_height) == 1


class TestBuildCounterexample:
    def test_thm1_weight_layout(self):
        s = derive_schedule_thm1(DESK_THM1, 2)
        m = build_counterexample(s)
        # lowest H-n+1 levels of each scheduled tower carry weight 0
        assert m.slab == tuple(H - n + 1 for H, n in zip(s.H, s.n)) + (0,)
        assert m.value == (1.0,) * 3
        assert m.mu_inactive == pytest.approx(sum(s.d), rel=1e-12)

    def test_thm1_wholly_inactive_tower(self):
        # n_0 = 1 puts all H_0 = 2 levels of tower 0 in the slab
        s = derive_schedule_thm1(RateSequence(0.1, 1.0), 3)
        assert s.n[0] == 1 and s.H[0] == 2
        m = build_counterexample(s)
        assert m.slab[0] == 2 and all(0 < m.slab[k] < s.H[k] for k in (1, 2))
        assert m.weight_at(np.arange(3)).tolist() == [0.0, 0.0, 0.0]
        assert m.mu_inactive == pytest.approx(sum(s.d), rel=1e-12)

    def test_thm3_slab_in_marked_half_only(self):
        s = derive_schedule_thm3(DESK_THM3, 2)
        m = build_counterexample(s)
        for k, (H, n) in enumerate(zip(s.H, s.n)):
            assert m.slab[2 * k : 2 * k + 2] == (H - n + 1, 0)
        assert m.value == (1.0,) * 5
        assert isinstance(m.noise, LatticeNoise) and m.noise.variance == 1.0

    def test_thm2_weights(self):
        s = derive_schedule("thm2", DESK_THM2, 6)
        m = build_counterexample(s)
        # weight d_k on all of tower k, and 0 on all of the remainder tower
        assert m.slab == (0,) * 6 + (s.remainder_height,)
        assert m.value == s.d + (0.0,)
        assert isinstance(m.noise, TwoIntervalUniformNoise)

    @pytest.mark.parametrize("slab, value", [
        ((4, 0), (1.0, 1.0)),  # a slab past the top of a 3-level tower
        ((-1, 0), (1.0, 1.0)),  # a slab below the base
        ((0,), (1.0, 1.0)),  # one slab for two towers
        ((0, 0), (1.0,)),  # one value for two towers
        ((1.5, 0), (1.0, 1.0)),  # a slab between levels
    ])
    def test_slab_must_fit_each_tower(self, slab, value):
        sys_ = build_tower_system([TowerSpec(3, 0.5), TowerSpec(3, 0.5)])
        with pytest.raises(ValueError):
            ProcessModel("thm1", sys_, LatticeNoise(), slab, value)

    def test_lattice_weight_is_0_or_1(self):
        # the lattice engines count visits to the levels above the slabs, so
        # weight 2 on tower 0 would silently be read as weight 1
        sys_ = build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])
        with pytest.raises(ValueError, match="weighs 0 or 1"):
            ProcessModel("thm1", sys_, LatticeNoise(), (1, 0), (2.0, 1.0))
        # a tower wholly in its slab weighs 0 whatever its value
        m = ProcessModel("thm1", sys_, LatticeNoise(), (2, 0), (2.0, 1.0))
        assert m.weight_at(np.arange(5)).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
        assert m.mu_inactive == pytest.approx(0.4)
        ProcessModel("thm2", sys_, TwoIntervalUniformNoise(), (1, 0), (2.0, 1.0))

    def test_sigma2_thm1(self):
        s = derive_schedule_thm1(DESK_THM1, 3)
        m = build_counterexample(s)
        assert m.sigma2 == pytest.approx(1 - sum(s.d), abs=1e-12)

    def test_sigma2_thm2_matches_truncated_sum(self):
        s = derive_schedule("thm2", DESK_THM2, 12)
        m = build_counterexample(s)
        assert m.sigma2 == pytest.approx(s.constants["sigma2_truncated"], abs=1e-14)

    def test_thm3_system_splits_each_tower(self):
        s = derive_schedule_thm3(DESK_THM3, 3)
        chain = build_counterexample(s).system
        assert len(chain.towers) == 7  # a marked and an unmarked half of 3, + remainder
        assert chain.n_states == 2 * sum(s.H) + s.remainder_height
        assert chain.is_aperiodic()


class TestIntersectionBound:
    def test_thm1_chain(self):
        s = derive_schedule_thm1(DESK_THM1, 3)
        for k in range(3):
            inter = intersection_lower_bound(s, k)
            assert inter >= s.d[k] * (1 - s.rho[k]) - 1e-12
            assert s.d[k] * (1 - s.rho[k]) >= DESK_THM1(s.n[k]) - 1e-12

    def test_thm3_chain(self):
        s = derive_schedule_thm3(DESK_THM3, 3)
        for k in range(3):
            inter = intersection_lower_bound(s, k)
            assert inter >= s.p[k] / 4 - 1e-12
            assert s.p[k] / 4 >= DESK_THM3(s.n[k]) - 1e-12

    def test_thm2_not_defined(self):
        s = derive_schedule("thm2", DESK_THM2, 4)
        with pytest.raises(VariantMismatch):
            intersection_lower_bound(s, 1)


class TestDensityOfF:
    def test_bounded_by_l1_plus_l2(self):
        s = derive_schedule("thm2", DESK_THM2, 12)
        m = build_counterexample(s)
        dens = density_of_f(m)
        assert dens.max_value() <= 101.0 + 1e-12

    def test_integral_one(self):
        s = derive_schedule("thm2", DESK_THM2, 12)
        dens = density_of_f(build_counterexample(s))
        assert dens.integral() == pytest.approx(1.0, abs=1e-10)

    def test_symmetric(self):
        s = derive_schedule("thm2", DESK_THM2, 12)
        dens = density_of_f(build_counterexample(s))
        assert np.allclose(dens.breakpoints, -dens.breakpoints[::-1], atol=0)
        assert np.allclose(dens.values, dens.values[::-1], atol=0)

    def test_wrong_variant(self):
        s = derive_schedule_thm1(DESK_THM1, 2)
        with pytest.raises(VariantMismatch):
            density_of_f(build_counterexample(s))
