"""Tower system construction, stationary measure, and occupancy laws."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowclt import (
    MassSumError,
    TowerSpec,
    TowerSystem,
    RateSequence,
    build_counterexample,
    build_tower_system,
    derive_schedule,
    occupancy_distribution,
    occupancy_distributions,
    sample_trajectory_batch,
)
from slowclt.towers import _window_counts
from oracles import enumerate_paths, occupancy_by_path_enumeration, stationary_array


def small_system():
    return build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])


def active_states(sys_, slab):
    """Flat mask of the states at or above their tower's slab."""
    levels = np.arange(sys_.n_states) - np.repeat(sys_.offsets[:-1], sys_.heights)
    return levels >= np.repeat(slab, sys_.heights)


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
        pi = stationary_array(sys_)
        assert abs(pi.sum() - 1.0) < 1e-14

    def test_periodic_family_allowed_by_default(self):
        sys_ = build_tower_system([TowerSpec(2, 0.5), TowerSpec(4, 0.5)])
        assert not sys_.is_aperiodic()


class TestStationaryMeasure:
    def test_level_masses(self):
        sys_ = small_system()
        pi = stationary_array(sys_)
        assert pi == pytest.approx([0.2] * 5)
        assert pi.sum() == pytest.approx(1.0)

    def test_invariance_under_push_forward(self):
        sys_ = small_system()
        pi = stationary_array(sys_)
        assert np.allclose(sys_.push_forward(pi), pi, atol=1e-15)

    def test_push_forward_interior_and_top(self):
        sys_ = small_system()  # flat states: tower 0 is 0, 1; tower 1 is 2, 3, 4
        # an interior level climbs one level with probability 1
        assert sys_.push_forward(np.eye(5)[2]).tolist() == np.eye(5)[3].tolist()
        # a top lands on the bases 0 and 2 only
        top = sys_.push_forward(np.eye(5)[1])
        assert np.flatnonzero(top).tolist() == [0, 2]
        assert top.sum() == pytest.approx(1.0)

    def test_default_top_row_is_source_independent(self):
        sys_ = small_system()
        # both tops (flat states 1 and 4) land by the same row
        from_0 = sys_.push_forward(np.eye(5)[1])
        from_1 = sys_.push_forward(np.eye(5)[4])
        assert from_0.tolist() == from_1.tolist() == [sys_.landing[0], 0, sys_.landing[1], 0, 0]
        # row entries proportional to mass/height (base-level masses)
        row = sys_.landing
        assert row[0] == pytest.approx(0.2 / 0.4)
        assert row[1] == pytest.approx(0.2 / 0.4)


class TestOccupancy:
    def test_matches_path_enumeration_tall(self):
        sys_ = small_system()
        for slab in ((1, 1), (1, 2), (2, 0)):
            occ = occupancy_distribution(sys_, slab, 2)
            ref = occupancy_by_path_enumeration(sys_, slab, 2)
            assert np.allclose(occ, ref, atol=1e-12)

    def test_matches_path_enumeration_short_towers(self):
        # window longer than every height: starts cross several tower tops
        sys_ = small_system()
        for n in (4, 5, 6):
            occ = occupancy_distribution(sys_, (2, 1), n)
            ref = occupancy_by_path_enumeration(sys_, (2, 1), n)
            assert np.allclose(occ, ref, atol=1e-12)

    def test_all_active_is_deterministic(self):
        occ = occupancy_distribution(small_system(), (0, 0), 3)
        assert occ[-1] == pytest.approx(1.0)

    def test_base_levels_as_intervals(self):
        # the bases [0, 1) are the complement of the slabs of height 1, so
        # the law of visits to them is the law for those slabs reversed
        sys_ = small_system()
        occ = occupancy_distribution(sys_, (1, 1), 2)
        base = np.isin(np.arange(sys_.n_states), sys_.offsets[:-1])
        ref = np.zeros(3)
        for path, prob in enumerate_paths(sys_, 2):
            ref[int(base[list(path)].sum())] += prob
        assert np.allclose(occ[::-1], ref, atol=1e-12)

    @pytest.mark.parametrize("active", [
        (1,),  # one slab for two towers
        (1, 1, 1),  # three slabs for two towers
        (-1, 0),  # an active interval [-1, 2) below the base
        (0, 4),  # past the top of a 3-level tower
        (0.5, 0),  # between two levels
    ])
    def test_bad_intervals_rejected(self, active):
        # each tower's active interval [slab, height) must lie in the tower
        with pytest.raises(ValueError):
            occupancy_distribution(small_system(), active, 2)

    def test_mean_occupancy_is_n_times_active_mass(self):
        # stationarity: E[#active visits in n steps] = n * mu(active)
        sys_ = build_tower_system(
            [TowerSpec(5, 0.3), TowerSpec(7, 0.5), TowerSpec(3, 0.2)]
        )
        slab = (4, 1, 2)
        mu_active = float(stationary_array(sys_)[active_states(sys_, slab)].sum())
        occ = occupancy_distribution(sys_, slab, 3)
        mean = float(np.dot(np.arange(4), occ))
        assert mean == pytest.approx(3 * mu_active, abs=1e-12)

    def test_moments_against_push_forward(self):
        # a window that crosses the short towers' tops many times, on 1e5
        # states: E[m] = n mu(A), and E[m^2] = n mu(A) + 2 sum_t (n-t)
        # P(X_0 in A, X_t in A), each joint probability by pushing pi 1_A
        # forward t steps
        sys_ = build_tower_system(
            [TowerSpec(3, 0.2), TowerSpec(7, 0.3), TowerSpec(100_000, 0.5)]
        )
        slab = (1, 4, 60_000)
        active = active_states(sys_, slab)
        n = 200
        occ = occupancy_distribution(sys_, slab, n)
        joint = stationary_array(sys_) * active
        mu_active = float(joint.sum())
        second = n * mu_active
        for t in range(1, n):
            joint = sys_.push_forward(joint)
            second += 2 * (n - t) * float(joint[active].sum())
        m = np.arange(n + 1)
        assert float(np.dot(m, occ)) == pytest.approx(n * mu_active, rel=1e-12)
        assert float(np.dot(m * m, occ)) == pytest.approx(second, rel=1e-12)


@st.composite
def tower_families(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    heights = [draw(st.integers(min_value=1, max_value=5)) for _ in range(k)]
    if math.gcd(*heights) > 1:
        heights[0] += 1
    raw = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(k)]
    total = sum(raw)
    return [TowerSpec(h, w / total) for h, w in zip(heights, raw)]


@st.composite
def short_tower_families(draw):
    # two towers of height 2 or 3, up to two taller than the window, and up
    # to one of height 1 to 3, with a window of 7 to 10 steps: skeletons of
    # three or more passes, and tall towers that the window cannot tell apart
    heights = [draw(st.integers(2, 3)) for _ in range(2)]
    heights += draw(st.lists(st.integers(10, 12), max_size=2))
    heights += draw(st.lists(st.integers(1, 3), max_size=1))
    raw = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in heights]
    total = sum(raw)
    return [TowerSpec(h, w / total) for h, w in zip(heights, raw)], draw(st.integers(7, 10))


@st.composite
def wide_tower_families(draw):
    # 8 to 12 towers of 1 to 30 levels, masses over six decades: more start
    # or final towers than a numpy sum adds in order
    heights = draw(st.lists(st.integers(1, 30), min_size=8, max_size=12))
    raw = [draw(st.floats(min_value=1e-6, max_value=1.0)) for _ in heights]
    total = sum(raw)
    return [TowerSpec(h, w / total) for h, w in zip(heights, raw)]


def thm1_desk_occupancy_args():
    # thm1 c=0.5 beta=0.5 K=4: n_3 = 1024 past H_0 = 527, so the last
    # window has two skeletons: no pass, and one pass through tower 0
    sched = derive_schedule("thm1", RateSequence(0.5, 0.5), 4)
    model = build_counterexample(sched)
    return model.system, model.slab, sched.n


def slabs(data, sys_):
    """A slab per tower drawn from [0, height], both ends included."""
    return tuple(data.draw(st.integers(0, h)) for h in sys_.heights.tolist())


class TestOccupancyProperties:
    @settings(max_examples=40, deadline=None)
    @given(short_tower_families(), st.data())
    def test_streamed_rows_equal_enumeration(self, family, data):
        specs, n = family
        sys_ = build_tower_system(specs)
        slab = slabs(data, sys_)
        occ = occupancy_distribution(sys_, slab, n)
        ref = occupancy_by_path_enumeration(sys_, slab, n)
        assert np.allclose(occ, ref, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(tower_families(), st.lists(st.integers(1, 12), min_size=1, max_size=4),
           st.data())
    def test_windows_share_a_pass_bit_for_bit(self, specs, windows, data):
        sys_ = build_tower_system(specs)
        slab = slabs(data, sys_)
        laws = occupancy_distributions(sys_, slab, windows)
        assert [len(law) - 1 for law in laws] == windows
        for n, law in zip(windows, laws):
            assert np.array_equal(law, occupancy_distribution(sys_, slab, n))

    @settings(max_examples=30, deadline=None)
    @given(wide_tower_families(), st.lists(st.integers(1, 40), min_size=2, max_size=4),
           st.data())
    def test_many_towers_share_a_pass_bit_for_bit(self, specs, windows, data):
        sys_ = build_tower_system(specs)
        slab = slabs(data, sys_)
        laws = occupancy_distributions(sys_, slab, windows)
        for n, law in zip(windows, laws):
            assert np.array_equal(law, occupancy_distribution(sys_, slab, n))

    def test_desk_windows_share_a_pass_bit_for_bit(self):
        sys_, slab, windows = thm1_desk_occupancy_args()
        laws = occupancy_distributions(sys_, slab, windows)
        for n, law in zip(windows, laws):
            assert np.array_equal(law, occupancy_distribution(sys_, slab, n))

    def test_windows_must_be_positive(self):
        with pytest.raises(ValueError):
            occupancy_distributions(small_system(), (1, 3), [])
        with pytest.raises(ValueError):
            occupancy_distributions(small_system(), (1, 3), [3, 0])

    @settings(max_examples=40, deadline=None)
    @given(tower_families(), st.integers(min_value=1, max_value=5), st.data())
    def test_occupancy_equals_enumeration(self, specs, n, data):
        sys_ = build_tower_system(specs)
        slab = slabs(data, sys_)
        occ = occupancy_distribution(sys_, slab, n)
        ref = occupancy_by_path_enumeration(sys_, slab, n)
        assert np.allclose(occ, ref, atol=1e-10)
        assert occ.sum() == pytest.approx(1.0)
        assert np.all(occ >= 0.0)
        assert np.all(occ[ref == 0.0] == 0.0)  # a count no path reaches

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 10**4), min_size=1, max_size=3), st.integers(0, 10**4),
           st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    @example([3], 0, [0.0] * 3)  # the last start range ends at the last state
    def test_window_counts_equal_bincount(self, heights, n, fractions):
        # the closed form against each start's count, on towers up to 10^4
        # high, each slab the fraction of its tower's height, ends included
        n = 1 + n % max(heights)
        sys_ = build_tower_system([TowerSpec(h, 1.0 / len(heights)) for h in heights])
        slab = [round(f * h) for f, h in zip(fractions, heights)]
        hist = _window_counts(sys_, np.array(slab), n)
        flat = active_states(sys_, slab)
        for d, (a0, h) in enumerate(zip(sys_.offsets, heights)):
            pref = np.concatenate([[0], np.cumsum(flat[a0 : a0 + h])])
            want = np.bincount(pref[n:] - pref[: max(h - n + 1, 0)], minlength=n + 1)
            assert np.array_equal(hist[d], want)

    @settings(max_examples=40, deadline=None)
    @given(tower_families())
    def test_stationarity(self, specs):
        sys_ = build_tower_system(specs)
        pi = stationary_array(sys_)
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
        pi = stationary_array(sys_)
        for t in range(4):
            idx = sys_.offsets[t1[:, t]] + l1[:, t]
            freq = np.bincount(idx, minlength=5) / len(idx)
            assert np.max(np.abs(freq - pi)) < 0.02

    def test_start_is_the_draw_of_choice(self):
        # one uniform per start, read as rng.choice(n_states, p=pi) reads it
        sys_ = build_tower_system([TowerSpec(3, 0.2), TowerSpec(7, 0.3), TowerSpec(50, 0.5)])
        tw, lv = sample_trajectory_batch(sys_, seed=2, n=1, reps=5000)
        rng = np.random.default_rng(np.random.SeedSequence([2, 0]))
        want = rng.choice(sys_.n_states, p=stationary_array(sys_), size=5000)
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
