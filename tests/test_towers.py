"""Tower system construction, stationary measure, and occupancy laws."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowclt import (
    InvalidState,
    MassSumError,
    OccupancyDistribution,
    PeriodicityError,
    TowerSpec,
    TowerState,
    TowerSystem,
    build_tower_system,
    occupancy_distribution,
    sample_trajectory_batch,
    stationary_measure,
    step_distribution,
)
from slowclt.towers import _knots, _window_counts, occupancy_by_path_enumeration

from helpers import intervals_of


def small_system():
    return build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])


class TestTowerSpec:
    def test_rejects_bad_height(self):
        with pytest.raises(ValueError):
            TowerSpec(0, 0.5)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            TowerSpec(3, 0.0)
        with pytest.raises(ValueError):
            TowerSpec(3, -0.1)


class TestBuildTowerSystem:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(MassSumError):
            build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.4)])

    def test_small_normalization_drift_is_absorbed(self):
        sys_ = build_tower_system([TowerSpec(2, 0.4 + 1e-12), TowerSpec(3, 0.6)])
        pi = sys_.stationary_array()
        assert abs(pi.sum() - 1.0) < 1e-14

    def test_periodic_family_rejected_when_required(self):
        with pytest.raises(PeriodicityError):
            build_tower_system(
                [TowerSpec(2, 0.5), TowerSpec(4, 0.5)], require_aperiodic=True
            )

    def test_periodic_family_allowed_by_default(self):
        sys_ = build_tower_system([TowerSpec(2, 0.5), TowerSpec(4, 0.5)])
        assert not sys_.is_aperiodic()


class TestStationaryMeasure:
    def test_level_masses(self):
        sys_ = small_system()
        mu = stationary_measure(sys_)
        assert mu[TowerState(0, 0)] == pytest.approx(0.2)
        assert mu[TowerState(1, 2)] == pytest.approx(0.2)
        assert sum(mu.values()) == pytest.approx(1.0)

    def test_invariance_under_push_forward(self):
        sys_ = small_system()
        pi = sys_.stationary_array()
        assert np.allclose(sys_.push_forward(pi), pi, atol=1e-15)

    def test_step_distribution_interior_and_top(self):
        sys_ = small_system()
        assert step_distribution(sys_, TowerState(1, 0)) == {TowerState(1, 1): 1.0}
        top = step_distribution(sys_, TowerState(0, 1))
        assert set(top) == {TowerState(0, 0), TowerState(1, 0)}
        assert sum(top.values()) == pytest.approx(1.0)

    def test_default_top_row_is_source_independent(self):
        sys_ = small_system()
        # both tops (levels 1 of tower 0 and 2 of tower 1) land by the same row
        from_0 = step_distribution(sys_, TowerState(0, 1))
        from_1 = step_distribution(sys_, TowerState(1, 2))
        assert from_0 == from_1 == {TowerState(d, 0): p for d, p in enumerate(sys_.landing)}
        # row entries proportional to mass/height (base-level masses)
        row = sys_.landing
        assert row[0] == pytest.approx(0.2 / 0.4)
        assert row[1] == pytest.approx(0.2 / 0.4)

    def test_invalid_state_rejected(self):
        sys_ = small_system()
        with pytest.raises(InvalidState):
            sys_.state_index(TowerState(0, 2))
        with pytest.raises(InvalidState):
            sys_.state_index(TowerState(2, 0))


class TestOccupancy:
    def test_matches_path_enumeration_tall(self):
        sys_ = small_system()
        active = intervals_of(sys_, [True, False, True, True, False])
        occ = occupancy_distribution(sys_, active, 2)
        ref = occupancy_by_path_enumeration(sys_, active, 2)
        assert np.allclose(occ.probs, ref, atol=1e-12)

    def test_matches_path_enumeration_short_towers(self):
        # window longer than every height: starts cross several tower tops
        sys_ = small_system()
        active = intervals_of(sys_, [True, False, False, True, False])
        for n in (4, 5, 6):
            occ = occupancy_distribution(sys_, active, n)
            ref = occupancy_by_path_enumeration(sys_, active, n)
            assert np.allclose(occ.probs, ref, atol=1e-12)

    def test_all_active_is_deterministic(self):
        sys_ = small_system()
        occ = occupancy_distribution(sys_, intervals_of(sys_, np.ones(5, dtype=bool)), 3)
        assert occ.probs[-1] == pytest.approx(1.0)

    def test_base_levels_as_intervals(self):
        sys_ = small_system()
        occ = occupancy_distribution(sys_, [[(0, 1)], [(0, 1)]], 2)
        ref = occupancy_by_path_enumeration(
            sys_, intervals_of(sys_, [True, False, True, False, False]), 2
        )
        assert np.allclose(occ.probs, ref, atol=1e-12)

    @pytest.mark.parametrize("active", [
        [[(0, 1)]],  # one list for two towers
        [[(0, 0)], []],  # empty interval
        [[(1, 2), (0, 1)], []],  # out of order
        [[], [(2, 4)]],  # past the top of a 3-level tower
    ])
    def test_bad_intervals_rejected(self, active):
        with pytest.raises(ValueError):
            occupancy_distribution(small_system(), active, 2)

    def test_mean_occupancy_is_n_times_active_mass(self):
        # stationarity: E[#active visits in n steps] = n * mu(active)
        sys_ = build_tower_system(
            [TowerSpec(5, 0.3), TowerSpec(7, 0.5), TowerSpec(3, 0.2)]
        )
        active = np.zeros(sys_.n_states, dtype=bool)
        active[0] = active[6] = active[13] = True
        mu_active = float(sys_.stationary_array()[active].sum())
        occ = occupancy_distribution(sys_, intervals_of(sys_, active), 3)
        mean = float(np.dot(np.arange(4), occ.probs))
        assert mean == pytest.approx(3 * mu_active, abs=1e-12)

    def test_moments_against_push_forward(self):
        # a window that crosses the short towers' tops many times, on 1e5
        # states: E[m] = n mu(A), and E[m^2] = n mu(A) + 2 sum_t (n-t)
        # P(X_0 in A, X_t in A), each joint probability by pushing pi 1_A
        # forward t steps
        sys_ = build_tower_system(
            [TowerSpec(3, 0.2), TowerSpec(7, 0.3), TowerSpec(100_000, 0.5)]
        )
        active = np.random.default_rng(5).random(sys_.n_states) < 0.4
        n = 200
        occ = occupancy_distribution(sys_, intervals_of(sys_, active), n)
        joint = sys_.stationary_array() * active
        mu_active = float(joint.sum())
        second = n * mu_active
        for t in range(1, n):
            joint = sys_.push_forward(joint)
            second += 2 * (n - t) * float(joint[active].sum())
        m = np.arange(n + 1)
        assert float(np.dot(m, occ.probs)) == pytest.approx(n * mu_active, rel=1e-12)
        assert float(np.dot(m * m, occ.probs)) == pytest.approx(second, rel=1e-12)


@st.composite
def tower_families(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    heights = [draw(st.integers(min_value=1, max_value=5)) for _ in range(k)]
    if math.gcd(*heights) > 1:
        heights[0] += 1
    raw = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(k)]
    total = sum(raw)
    return [TowerSpec(h, w / total) for h, w in zip(heights, raw)]


class TestOccupancyProperties:
    @settings(max_examples=40, deadline=None)
    @given(tower_families(), st.integers(min_value=1, max_value=5), st.randoms())
    def test_occupancy_equals_enumeration(self, specs, n, rnd):
        sys_ = build_tower_system(specs, require_aperiodic=False)
        active = intervals_of(sys_, [rnd.random() < 0.5 for _ in range(sys_.n_states)])
        occ = occupancy_distribution(sys_, active, n)
        ref = occupancy_by_path_enumeration(sys_, active, n)
        assert np.allclose(occ.probs, ref, atol=1e-10)
        assert occ.probs.sum() == pytest.approx(1.0)
        assert np.all(occ.probs >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 10**4), min_size=1, max_size=3), st.integers(0, 10**4),
           st.floats(0.0, 1.0), st.floats(1.0, 2000.0), st.integers(0, 2**32 - 1))
    @example([3], 0, 1.0, 1.0, 0)  # the last start range ends at the last state
    def test_window_counts_equal_bincount(self, heights, n, density, mean_run, seed):
        # towers of active and inactive runs of geometric lengths
        n = 1 + n % max(heights)
        sys_ = build_tower_system([TowerSpec(h, 1.0 / len(heights)) for h in heights])
        rng = np.random.default_rng(seed)
        lengths = rng.geometric(1.0 / mean_run, size=sys_.n_states)
        flat = np.repeat(rng.random(sys_.n_states) < density, lengths)[: sys_.n_states]
        hist = _window_counts(sys_, _knots(sys_, intervals_of(sys_, flat)), n)
        for d, (a0, h) in enumerate(zip(sys_.offsets, heights)):
            pref = np.concatenate([[0], np.cumsum(flat[a0 : a0 + h])])
            want = np.bincount(pref[n:] - pref[: max(h - n + 1, 0)], minlength=n + 1)
            assert np.array_equal(hist[d], want)

    @settings(max_examples=40, deadline=None)
    @given(tower_families())
    def test_stationarity(self, specs):
        sys_ = build_tower_system(specs, require_aperiodic=False)
        pi = sys_.stationary_array()
        assert np.allclose(sys_.push_forward(pi), pi, atol=1e-12)


class TestSampling:
    def test_batch_deterministic_and_stationary(self):
        sys_ = small_system()
        t1, l1 = sample_trajectory_batch(sys_, seed=5, n=4, reps=20000)
        t2, l2 = sample_trajectory_batch(sys_, seed=5, n=4, reps=20000)
        assert np.array_equal(t1, t2) and np.array_equal(l1, l2)
        t3, l3 = sample_trajectory_batch(sys_, seed=6, n=4, reps=20000)
        assert not (np.array_equal(t1, t3) and np.array_equal(l1, l3))
        # marginal at every time slot close to the stationary law
        pi = sys_.stationary_array()
        for t in range(4):
            idx = sys_.offsets[t1[:, t]] + l1[:, t]
            freq = np.bincount(idx, minlength=5) / len(idx)
            assert np.max(np.abs(freq - pi)) < 0.02

    def test_start_is_the_draw_of_choice(self):
        # one uniform per start, read as rng.choice(n_states, p=pi) reads it
        sys_ = build_tower_system([TowerSpec(3, 0.2), TowerSpec(7, 0.3), TowerSpec(50, 0.5)])
        tw, lv = sample_trajectory_batch(sys_, seed=2, n=1, reps=5000)
        rng = np.random.default_rng(np.random.SeedSequence([2, 0]))
        want = rng.choice(sys_.n_states, p=sys_.stationary_array(), size=5000)
        assert np.array_equal(sys_.offsets[tw[:, 0]] + lv[:, 0], want)

    def test_batch_obeys_dynamics(self):
        sys_ = small_system()
        tw, lv = sample_trajectory_batch(sys_, seed=9, n=5, reps=500)
        heights = sys_.heights
        for t in range(4):
            climbing = lv[:, t] < heights[tw[:, t]] - 1
            assert np.all(tw[climbing, t + 1] == tw[climbing, t])
            assert np.all(lv[climbing, t + 1] == lv[climbing, t] + 1)
            assert np.all(lv[~climbing, t + 1] == 0)
