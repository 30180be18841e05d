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
    DEFAULT_SEARCH_CAP,
    LatticeNoise,
    ProcessModel,
    TwoIntervalUniformNoise,
    tower_chain_system,
)

DESK_THM1 = RateSequence.power_law(0.5, 0.5)
DESK_THM3 = RateSequence.power_law(0.25, 0.5)
DESK_THM2 = RateSequence.power_law(0.05, 1.0)


class TestRateSequence:
    def test_power_law_values(self):
        a = RateSequence.power_law(0.5, 0.5)
        assert a(16) == pytest.approx(0.125)
        with pytest.raises(ValueError):
            a(0)

    def test_descriptor_round_trip(self):
        a = RateSequence.power_law(0.3, 0.75)
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
        slow = RateSequence.power_law(0.4, 1e-6)
        with pytest.raises(ScheduleInfeasible):
            derive_schedule_thm1(slow, 2, search_cap=10**4)

    def test_search_cap_bounds_every_n(self):
        # a_1 = 0.01 meets the first two thresholds at n = 1, 2; n_2 >= 3
        # would pass the cap
        a = RateSequence.power_law(0.01, 1.0)
        assert derive_schedule_thm1(a, 2, search_cap=2).n == (1, 2)
        with pytest.raises(ScheduleInfeasible, match="search_cap 2"):
            derive_schedule_thm1(a, 3, search_cap=2)


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

    def test_eps_and_delta_decreasing(self):
        s = derive_schedule_thm3(DESK_THM3, 4)
        assert all(a > b for a, b in zip(s.eps, s.eps[1:]))
        assert all(0 < d < 1 for d in s.delta)


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
        ("thm3", {"search_cap": 1e7}),
        ("thm3", {"search_cap": True}),
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
        a = RateSequence.power_law(c, beta)
        try:
            s = derive_schedule_thm1(a, K)
        except ScheduleInfeasible:
            # e.g. c=0.5, beta=0.25, K=5: a_n stays above the last threshold
            # 2^-(K+2) up to the search cap, so the raise is the right answer
            assert a(DEFAULT_SEARCH_CAP) > 2.0 ** (-(K + 2)) * (1.0 + 1e-12)
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
        a = RateSequence.power_law(c, beta)
        s = derive_schedule_thm3(a, K)
        assert all(x < y for x, y in zip(s.n, s.n[1:]))
        assert math.gcd(*s.H) == 1
        assert sum(s.p) < 1.0
        for n, H, p in zip(s.n, s.H, s.p):
            assert p >= 4 * a(n) * (1 - 1e-12)
            assert H >= 4 * n * n


class TestBuildCounterexample:
    def test_thm1_weight_layout(self):
        s = derive_schedule_thm1(DESK_THM1, 2)
        m = build_counterexample(s)
        # lowest H-n+1 levels of each scheduled tower carry weight 0
        for k, (H, n) in enumerate(zip(s.H, s.n)):
            assert m.runs[k] == ((0, H - n + 1, 0.0), (H - n + 1, H, 1.0))
        assert m.runs[2] == ((0, s.remainder_height, 1.0),)
        assert m.mu_inactive == pytest.approx(sum(s.d), rel=1e-12)

    def test_thm1_wholly_inactive_tower(self):
        # n_0 = 1 puts all H_0 = 2 levels of tower 0 in the slab: one run, no empty one
        s = derive_schedule_thm1(RateSequence.power_law(0.1, 1.0), 3)
        assert s.n[0] == 1 and s.H[0] == 2
        m = build_counterexample(s)
        assert m.runs[0] == ((0, 2, 0.0),)
        assert all(len(tower) == 2 for tower in m.runs[1:3])
        assert m.mu_inactive == pytest.approx(sum(s.d), rel=1e-12)

    def test_thm3_slab_in_marked_half_only(self):
        s = derive_schedule_thm3(DESK_THM3, 2)
        m = build_counterexample(s)
        for k, (H, n) in enumerate(zip(s.H, s.n)):
            assert m.runs[2 * k] == ((0, H - n + 1, 0.0), (H - n + 1, H, 1.0))
            assert m.runs[2 * k + 1] == ((0, H, 1.0),)

    def test_noise_variant_mismatch(self):
        s = derive_schedule_thm1(DESK_THM1, 2)
        with pytest.raises(VariantMismatch):
            build_counterexample(s, TwoIntervalUniformNoise())
        s2 = derive_schedule("thm2", DESK_THM2, 4)
        with pytest.raises(VariantMismatch):
            build_counterexample(s2, LatticeNoise(1.0))

    def test_thm2_weights(self):
        s = derive_schedule("thm2", DESK_THM2, 6)
        m = build_counterexample(s)
        for k, (H, d) in enumerate(zip(s.H, s.d)):
            assert m.runs[k] == ((0, H, d),)
        # remainder tower carries weight 0
        assert m.runs[6] == ((0, s.remainder_height, 0.0),)

    @pytest.mark.parametrize("runs", [
        (((0, 2, 0.0),), ((0, 3, 1.0),)),  # tower 0 ends at 2 of 3 levels
        (((0, 2, 0.0),),),  # no runs for tower 1
        (((0, 1, 0.0), (2, 3, 1.0)), ((0, 3, 1.0),)),  # a gap
        (((0, 0, 0.0), (0, 3, 1.0)), ((0, 3, 1.0),)),  # an empty run
    ])
    def test_runs_must_cover_each_tower(self, runs):
        sys_ = build_tower_system([TowerSpec(3, 0.5), TowerSpec(3, 0.5)])
        with pytest.raises(ValueError):
            ProcessModel("thm1", sys_, LatticeNoise(1.0), runs)

    def test_sigma2_thm1(self):
        s = derive_schedule_thm1(DESK_THM1, 3)
        m = build_counterexample(s, LatticeNoise(0.7))
        assert m.sigma2 == pytest.approx(0.7 * (1 - sum(s.d)), abs=1e-12)

    def test_sigma2_thm2_matches_truncated_sum(self):
        s = derive_schedule("thm2", DESK_THM2, 12)
        m = build_counterexample(s)
        assert m.sigma2 == pytest.approx(s.constants["sigma2_truncated"], abs=1e-14)

    def test_tower_chain_system(self):
        s = derive_schedule_thm3(DESK_THM3, 3)
        chain = tower_chain_system(s)
        assert len(chain.towers) == 4  # 3 scheduled + remainder
        assert chain.n_states == sum(s.H) + s.remainder_height
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
