"""Probe semantics: LLT/CLT inequalities, MDS checks, mixing, baseline."""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slowclt import (
    EvenIndex,
    LatticeDistribution,
    LatticeMismatch,
    RateSequence,
    TowerSpec,
    VariantMismatch,
    build_counterexample,
    build_tower_system,
    clt_probe,
    conditional_variance_floor,
    derive_schedule,
    gnedenko_baseline,
    gnedenko_baselines,
    lattice_sum_distribution,
    llt_probe_density,
    llt_probe_lattice,
    mds_conditional_mean_test,
    mixing_probe,
    mixing_profile,
)
from slowclt.construction import (
    LatticeNoise,
    ProcessModel,
    TwoIntervalUniformNoise,
    derive_schedule_thm3,
)
from slowclt import probes
from slowclt.probes import ProbeResult, _mixing_lags, variance_probe
from oracles import mds_exact, stationary_array
from test_distributions import exact_power, rounding_bound

DESK_THM3 = RateSequence(0.25, 0.5)


def small_model(a=0.5):
    """15-state two-tower model with one inactive slab; enumerable."""
    sys_ = build_tower_system([TowerSpec(7, 0.6), TowerSpec(8, 0.4)])
    return ProcessModel("thm1", sys_, LatticeNoise(a), (4, 0), (1.0, 1.0))


class TestProbeResult:
    def test_pass_requires_margin_beyond_error(self):
        r = ProbeResult("x", 0, value=1.0, bound=0.9, direction=">=", method="exact",
                        error=0.05)
        assert r.passed
        r2 = ProbeResult("x", 0, value=1.0, bound=0.9, direction=">=", method="exact",
                         error=0.2)
        assert not r2.passed

    def test_direction_le(self):
        r = ProbeResult("x", 0, value=0.1, bound=0.5, direction="<=", method="exact")
        assert r.passed


class TestLatticeProbes:
    def test_thm1_bounds_are_closed_forms(self):
        rate = RateSequence(0.5, 0.5)
        s = derive_schedule("thm1", rate, 3)
        m = build_counterexample(s)
        for k in range(3):
            dist = lattice_sum_distribution(m, s.n[k])
            r = llt_probe_lattice(m, s, k, dist)
            assert r.passed
            assert r.bound == rate(s.n[k])
            closed = r.details["closed_form_bound"]
            assert closed == s.d[k] * (1.0 - s.rho[k])
            assert closed >= rate(s.n[k])
            r = clt_probe(m, s, k, dist=dist)
            assert r.passed
            assert r.bound == rate(s.n[k]) / 2

    def test_thm3_desk_llt_chain(self):
        s = derive_schedule_thm3(DESK_THM3, 3)
        m = build_counterexample(s)
        for k in range(3):
            r = llt_probe_lattice(m, s, k, lattice_sum_distribution(m, s.n[k]))
            assert r.passed and r.method == "exact"
            assert r.bound == DESK_THM3(s.n[k])
            assert r.details["quarter_mass_bound"] == s.p[k] / 4
            # exact chain: value >= intersection mass >= p_k/4 >= a_{n_k}
            assert r.value >= r.details["intersection_mass"] - 1e-12
            assert r.details["intersection_mass"] >= s.p[k] / 4 - 1e-12
            assert s.p[k] / 4 >= r.bound - 1e-12

    def test_clt_distance_meets_half_rate(self):
        s = derive_schedule_thm3(DESK_THM3, 2)
        m = build_counterexample(s)
        for k in range(2):
            r = clt_probe(m, s, k, dist=lattice_sum_distribution(m, s.n[k]))
            assert r.passed
            assert r.bound == DESK_THM3(s.n[k]) / 2

    def test_wrong_noise_kind_rejected(self):
        s = derive_schedule("thm2", RateSequence(0.05, 1.0), 4)
        m = build_counterexample(s)
        law = LatticeDistribution(-1, np.array([0.5, 0.0, 0.5]))
        with pytest.raises(VariantMismatch):
            llt_probe_lattice(m, s, 1, law)


class TestDensityProbes:
    @pytest.fixture()
    def thm2(self):
        s = derive_schedule("thm2", RateSequence(0.05, 1.0), 12)
        return s, build_counterexample(s)

    def test_ratio_probe_beats_l(self, thm2):
        s, m = thm2
        r = llt_probe_density(m, s, 1)
        assert r.passed and r.value >= 4.0
        assert r.bound == s.constants["L"]
        assert r.details["b_method"] == "exact-rational"
        assert r.details["b_n"] == 41 / 48
        # the certified ratio also exceeds the LLT prediction 2*phi(0)
        assert r.value > r.details["llt_reference_ratio"]

    def test_even_index_rejected(self, thm2):
        s, m = thm2
        with pytest.raises(EvenIndex):
            llt_probe_density(m, s, 2)

    def test_monte_carlo_cross_check(self, thm2):
        s, m = thm2
        r = llt_probe_density(m, s, 1, mc_reps=200_000, seed=4)
        assert r.details["mc_consistent"]

    def test_clt_probe_uses_ratio(self, thm2):
        s, m = thm2
        ratio = llt_probe_density(m, s, 1)
        r = clt_probe(m, s, 1, ratio=ratio)
        assert r.passed
        assert r.method == "exact-lower-bound"
        assert r.bound == RateSequence(0.05, 1.0)(s.n[1])


class TestVarianceProbe:
    def test_lattice_and_density(self):
        s1 = derive_schedule("thm1", RateSequence(0.5, 0.5), 3)
        assert variance_probe(build_counterexample(s1)).passed
        s2 = derive_schedule("thm2", RateSequence(0.05, 1.0), 12)
        assert variance_probe(build_counterexample(s2)).passed


class TestMdsConditionalMean:
    def test_exact_zero_on_small_model(self):
        m = small_model()
        for window in (2, 3, 4):
            r = mds_conditional_mean_test(m, window)
            assert r.method == "exact"
            assert r.value <= 1e-12
            assert r.passed

    def test_exact_control_process_fails(self):
        m = small_model()
        r = mds_conditional_mean_test(m, 4, filter_coeff=0.5)
        assert r.value > 1e-3
        assert not r.passed

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), window=st.integers(2, 5), filter_coeff=st.sampled_from([0.0, 0.5]))
    def test_tower_level_equals_path_enumeration(self, data, window, filter_coeff):
        heights = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        raw = data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(heights),
                                 max_size=len(heights)))
        sys_ = build_tower_system(
            [TowerSpec(h, r / sum(raw)) for h, r in zip(heights, raw)])
        slab = tuple(data.draw(st.integers(0, h)) for h in heights)
        kind = data.draw(st.sampled_from(["lattice", "two-interval", "biased"]))
        support = probes._noise_support
        if kind == "lattice":  # a lattice model weighs 0 or 1
            m = ProcessModel("thm1", sys_, LatticeNoise(data.draw(st.floats(0.1, 1.0))),
                             slab, (1.0,) * len(heights))
        else:
            value = tuple(data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 2.0),
                                             min_size=len(heights), max_size=len(heights))))
            m = ProcessModel("thm2", sys_, TwoIntervalUniformNoise(), slab, value)
        if kind == "biased":  # a +-1 law with mean 2q - 1, so w(x_j) E g counts
            q = data.draw(st.floats(0.05, 0.95))
            support = lambda model: [(-1.0, 1.0 - q), (1.0, q)]  # noqa: E731
        with mock.patch.object(probes, "_noise_support", support):
            r = mds_conditional_mean_test(m, window, filter_coeff=filter_coeff)
            want = mds_exact(m, window, window // 2, filter_coeff, support(m))
        assert r.method == "exact"
        assert abs(r.value - want) <= 1e-12

    def test_noise_mean_enters(self, monkeypatch):
        # a biased noise law fails the exact route, with or without the filter
        m = small_model()
        monkeypatch.setattr(probes, "_noise_support", lambda model: [(-1.0, 0.3), (1.0, 0.7)])
        for filter_coeff in (0.0, 0.5):
            r = mds_conditional_mean_test(m, 3, filter_coeff=filter_coeff)
            assert not r.passed
            want = mds_exact(m, 3, 1, filter_coeff, probes._noise_support(m))
            assert abs(r.value - want) <= 1e-12

    def test_climb_out_of_the_slab_counts(self, monkeypatch):
        # one 2-level tower, weight 0 then 2: the climb out of the slab gives
        # |2 E g| = 1.6, above the landing's |0.5 * g * 2| = 1
        sys_ = build_tower_system([TowerSpec(2, 1.0)])
        m = ProcessModel("thm2", sys_, TwoIntervalUniformNoise(), (1,), (2.0,))
        monkeypatch.setattr(probes, "_noise_support", lambda model: [(-1.0, 0.1), (1.0, 0.9)])
        r = mds_conditional_mean_test(m, 2, filter_coeff=0.5)
        assert r.value == pytest.approx(1.6) == mds_exact(m, 2, 1, 0.5, probes._noise_support(m))

    def test_window_1_has_no_filter_term(self):
        m = small_model()
        r = mds_conditional_mean_test(m, 1, filter_coeff=0.5)
        want = mds_exact(m, 1, 0, 0.5, probes._noise_support(m))
        assert r.passed and abs(r.value - want) <= 1e-12

    def test_window_below_1_rejected(self):
        with pytest.raises(ValueError):
            mds_conditional_mean_test(small_model(), 0)


class TestConditionalVarianceFloor:
    def test_zero_floor_with_inactive_slab(self):
        r = conditional_variance_floor(small_model())
        assert r.value == 0.0
        assert r.passed

    def test_positive_floor_without_slab(self):
        sys_ = build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])
        m = ProcessModel("thm1", sys_, LatticeNoise(0.5), (0, 0), (1.0, 1.0))
        r = conditional_variance_floor(m)
        assert r.value == pytest.approx(0.5)
        assert not r.passed

    def test_one_level_slab_is_left_in_one_step(self):
        # tower 0's slab is its base alone, so every climb lands on weight 1;
        # the floor is the landing row's mass on tower 1's active base, 1/2
        sys_ = build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])
        m = ProcessModel("thm1", sys_, LatticeNoise(0.5), (1, 0), (1.0, 1.0))
        assert conditional_variance_floor(m).value == pytest.approx(0.5 * 0.5)


class TestMixing:
    def test_cyclic_tower_does_not_mix(self):
        sys_ = build_tower_system([TowerSpec(3, 1.0)])
        prof = mixing_profile(sys_, [1, 2, 7])
        assert not prof.aperiodic
        assert all(b == pytest.approx(2 / 3, abs=1e-12) for b in prof.beta)

    def test_matches_matrix_powers(self):
        sys_ = build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])
        prof = mixing_profile(sys_, list(range(1, 13)))
        P = np.zeros((5, 5))
        P[0, 1] = P[2, 3] = P[3, 4] = 1.0
        P[1, [0, 2]] = sys_.landing
        P[4, [0, 2]] = sys_.landing
        pi = stationary_array(sys_)
        M = np.eye(5)
        for lag in range(1, 13):
            M = M @ P
            beta = float(pi @ (0.5 * np.abs(M - pi).sum(axis=1)))
            assert prof.beta[lag - 1] == pytest.approx(beta, abs=1e-13)

    def test_decays_below_1e6_by_200(self):
        sys_ = build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])
        prof = mixing_profile(sys_, [200])
        assert prof.beta[0] < 1e-6

    def test_first_mixing_lag_is_minimal(self):
        sys_ = build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])
        (m,), _ = _mixing_lags(sys_, [1e-3])
        prof = mixing_profile(sys_, [m - 1, m])
        assert prof.beta[0] > 1e-3 >= prof.beta[1]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6), st.floats(0.05, 1.0)), min_size=1, max_size=4))
    @example([(1, 0.3), (4, 0.7)])
    def test_stream_equals_dense_matrix_powers(self, towers):
        total = sum(w for _, w in towers)
        sys_ = build_tower_system([TowerSpec(h, w / total) for h, w in towers])
        # lags 0-60 and past 1000; the powers' rounding grows with the lag, so
        # test_beta_equals_exact_tv_assembly checks the chunk edges, past 2^14
        lags = list(range(61)) + [1023, 1024, 1025, 2049]
        prof = mixing_profile(sys_, lags)
        # dense transition matrix: climb one level, or land by the row from a top
        P = np.zeros((sys_.n_states, sys_.n_states))
        for s_ in range(sys_.n_states):
            if s_ + 1 in sys_.offsets:
                P[s_, sys_.offsets[:-1]] += sys_.landing
            else:
                P[s_, s_ + 1] = 1.0
        pi = stationary_array(sys_)
        for lag, got in zip(lags, prof.beta):
            M = np.linalg.matrix_power(P, lag)
            assert abs(got - float(pi @ (0.5 * np.abs(M - pi).sum(axis=1)))) <= 1e-12

    @staticmethod
    def _blocks(sys_):
        """(L, g) by renewal_chunks' rule: L = qB lags a block, B = min H,
        q = max(1, min(h1 // B, 8)) for h1 the lowest other height, and g =
        2 + q (#distinct heights above B), the roundings that bound a value's
        error."""
        H = np.unique(sys_.heights)
        B, tall = int(H[0]), H[1:]
        q = max(1, min(int(tall[0]) // B if len(tall) else 8, 8))
        return q * B, 2 + q * len(tall)

    @staticmethod
    def _growth(g, unit, j):
        """(1 + gamma_g)^j - 1 <= j gamma_g / (1 - j gamma_g), gamma_g =
        g unit / (1 - g unit): the relative error after j rounds of at most
        g roundings each, all terms non-negative (Higham, ch. 3)."""
        gamma = g * unit / (1 - g * unit)
        return j * gamma / (1 - j * gamma)

    @staticmethod
    def _exact_u(sys_, n):
        """u(0 .. n - 1) of the float landing row r, exactly: u(t) = U[t] /
        2^(E t) for integers U[t] = sum_d R_d U[t - H_d] 2^(E (H_d - 1)),
        R_d = r_d 2^E."""
        ratios = [x.as_integer_ratio() for x in sys_.landing.tolist()]
        E = max(den.bit_length() - 1 for _, den in ratios)
        R = [num << E - den.bit_length() + 1 for num, den in ratios]
        H = sys_.heights.tolist()
        U = [1]
        for t in range(1, n):
            U.append(sum(rd * U[t - hd] << E * (hd - 1) for rd, hd in zip(R, H) if hd <= t))
        return U, E

    @staticmethod
    def _longdouble_u(sys_, n):
        """u(0 .. n - 1) in long double, in blocks of min H lags: each value
        is the tower-order sum of K products, so it is within gamma'_K of the
        exact sum of the values before it, and lag t hangs on t // min H + 1
        blocks."""
        H, r = sys_.heights.tolist(), sys_.landing.astype(np.longdouble)
        W, B = max(H), min(H)
        u = np.zeros(W + n, dtype=np.longdouble)  # u[W + t] = u(t)
        u[W] = 1.0
        for t in range(W, W + n, B):
            e = min(t + B, W + n)
            for rd, hd in zip(r, H):
                u[t:e] += rd * u[t - hd : e - hd]
        return u[W:]

    @staticmethod
    def _streamed_u(sys_, n):
        parts = []
        for u in sys_.renewal_chunks():
            parts.append(u.copy())
            if len(parts) * len(u) >= n:
                return np.concatenate(parts)[:n]

    @staticmethod
    def _beta_exact(sys_, u, lags):
        """beta at each lag as a Fraction, from the floats u, r, lambda and 1/mu
        of the stream, by the sum over ages rather than the kernel:

            TV_a = 1/2 sum_d r_d sum_{a - H_d < s <= a} |u(s) - 1/mu|,  u(s < 0) = 0,
            beta(m) = sum_l lambda_l [(H_l - m)_+ (1 - lambda_l) + sum_{max(0, m - H_l) <= a < m} TV_a].

        Every float is an integer multiple of 2^-1074, so the sums run over
        integers and are exact; TV_a moves by the two terms entering and
        leaving each window, and P(m) = sum_{a < m} TV_a is kept where needed."""
        S = 1074

        def z(x):  # x 2^S, an integer
            num, den = float(x).as_integer_ratio()
            return num * ((1 << S) // den)

        H = [int(h) for h in sys_.heights]
        r, lam = [z(x) for x in sys_.landing], [z(x) for x in sys_.level_masses]
        inv = z(1.0 / float(np.dot(sys_.landing, sys_.heights)))
        W = max(H)
        e = [inv] * W + [abs(z(x) - inv) for x in u]  # e[W + s] = |u(s) - 1/mu| 2^S
        need = {max(0, m - h) for m in lags for h in H} | set(lags)
        tv2 = sum(rd * hd for rd, hd in zip(r, H)) * inv  # 2 TV_{-1} 2^(2S)
        P, at = 0, {}
        for a in range(len(u)):
            if a in need:
                at[a] = P
            tv2 += sum(rd * (e[W + a] - e[W + a - hd]) for rd, hd in zip(r, H))
            P += tv2
        at[len(u)] = P
        one = 1 << S
        return [Fraction(sum(lm * (2 * max(0, hl - m) * (one - lm) * one + at[m] - at[max(0, m - hl)])
                             for lm, hl in zip(lam, H)), 1 << (3 * S + 1))
                for m in lags]

    @classmethod
    def _assert_beta_exact(cls, sys_, lags):
        lags = sorted(lags)
        got = mixing_profile(sys_, lags).beta
        want = cls._beta_exact(sys_, cls._streamed_u(sys_, lags[-1]), lags)
        for m, g, w in zip(lags, got, want):
            assert abs(Fraction(g) - w) <= Fraction(1e-14) * w, m

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 300), st.floats(0.05, 1.0)), min_size=1, max_size=4))
    @example([(5, 0.3), (5, 0.2), (40, 0.5)])  # tied shortest towers
    @example([(20, 0.5), (33, 0.3), (300, 0.2)])  # h1 < 2B: one row a block
    @example([(3, 0.6), (100, 0.3), (257, 0.1)])  # h1 // B > 8: eight rows a block
    @example([(7, 1.0)])  # a single tower
    def test_stream_is_within_the_exact_recursion_bound(self, towers):
        total = sum(w for _, w in towers)
        sys_ = build_tower_system([TowerSpec(h, w / total) for h, w in towers])
        self._assert_within_exact_bound(sys_)
        # the exact integers grow by E bits a lag, so the first two chunks and
        # the lag past them, with every chunk edge there, are checked against
        # a long-double recursion
        n = 2 * len(next(sys_.renewal_chunks())) + 2
        self._assert_within_longdouble_bound(sys_, self._streamed_u(sys_, n))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 300), st.floats(0.05, 1.0)), min_size=1, max_size=4),
           st.lists(st.booleans(), min_size=4, max_size=4))
    # as thm3 c=0.25 beta=0.5 K=2 halves its scheduled towers, not the remainder
    @example([(17, 0.4), (256, 0.35), (1025, 0.25)], [False, True, True, False])
    @example([(5, 0.3), (40, 0.7)], [False, True, False, False])  # a tall tie only
    def test_towers_of_one_height_are_merged(self, towers, cut):
        # halving towers into two of one height keeps the bound with g counting
        # distinct heights, and the width of the block matrix M @ Z
        total = sum(w for _, w in towers)
        specs = [TowerSpec(h, w / total) for h, w in towers]
        split = build_tower_system([half for spec, c in zip(specs, cut) for half in
                                    ([TowerSpec(spec.height, spec.mass / 2)] * 2 if c else [spec])])
        self._assert_within_exact_bound(split)
        shapes, dot = [], np.dot
        for sys_ in (build_tower_system(specs), split):
            seen = set()
            with mock.patch.object(np, "dot", lambda a, *rest, **kw: seen.add(a.shape) or dot(
                    a, *rest, **kw)):
                list(itertools.islice(sys_.renewal_chunks(), 2))
            shapes.append(seen)
        L, g = self._blocks(split)  # M is q x (1 + q #{distinct heights > B}) = q x (g - 1)
        assert shapes[0] == shapes[1] == {(L // int(split.heights.min()), g - 1)}

    @classmethod
    def _assert_within_exact_bound(cls, sys_):
        # renewal_chunks' bound: u(t) within a factor (1 +- gamma_g)^(t // L + 1)
        # of exact, checked in integers at every lag up to 2100, past seven
        # blocks (L <= 300 here)
        n = 2100
        got = cls._streamed_u(sys_, n).tolist()
        U, E = cls._exact_u(sys_, n)
        L, g = cls._blocks(sys_)
        for t in range(n):
            p, s_ = got[t].as_integer_ratio()  # |p / s_ - U[t] / 2^(E t)| <= b U[t] / 2^(E t)
            b = cls._growth(g, Fraction(1, 1 << 53), t // L + 1)
            assert abs((p << E * t) - U[t] * s_) * b.denominator <= b.numerator * U[t] * s_, t

    @classmethod
    def _assert_within_longdouble_bound(cls, sys_, got):
        # the stream and a long-double recursion are each within their bound
        # of the exact u, so |u - u_ld| <= (b + b_ld) u <= (b + b_ld) u_ld / (1 - b_ld)
        ref = cls._longdouble_u(sys_, len(got))
        t = np.arange(len(got))
        L, g = cls._blocks(sys_)
        b = cls._growth(g, 2.0**-53, t // L + 1)
        b_ld = cls._growth(len(sys_.heights), np.finfo(np.longdouble).eps / 2,
                           t // int(sys_.heights.min()) + 1)
        assert np.all(np.abs(got - ref) <= (b + b_ld) / (1 - b_ld) * ref)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 300), st.floats(0.05, 1.0)), min_size=1, max_size=4),
        st.lists(st.integers(0, 2100), min_size=1, max_size=20),
    )
    @example([(3, 0.2), (20, 0.5), (300, 0.3)], [0, 1, 299, 300, 301, 1023, 1024, 1025, 2049])
    @example([(1, 0.9), (7, 0.1)], [0, 1, 2, 5, 1024, 1025])  # a level with half the mass
    # block (L = 18) and chunk (C = 16398) edges
    @example([(3, 0.2), (20, 0.5), (300, 0.3)],
             [17, 18, 19, 36, 16397, 16398, 16399, 32795, 32796, 32797])
    def test_beta_equals_exact_tv_assembly(self, towers, lags):
        total = sum(w for _, w in towers)
        sys_ = build_tower_system([TowerSpec(h, w / total) for h, w in towers])
        self._assert_beta_exact(sys_, set(lags) | {1})

    @pytest.mark.parametrize("c, beta, K", [(0.25, 0.5, 3), (0.1, 1.0, 8)])
    def test_desk_stream_is_within_the_longdouble_bound(self, c, beta, K):
        s = derive_schedule_thm3(RateSequence(c, beta), K)
        chain = build_counterexample(s).system
        n = mixing_probe(chain, s).details["m_lags"][-1] + 1
        self._assert_within_longdouble_bound(chain, self._streamed_u(chain, n))

    @pytest.mark.parametrize("c, beta, K", [(0.25, 0.5, 3), (0.1, 1.0, 8)])
    def test_desk_beta_equals_exact_tv_assembly(self, c, beta, K):
        # the prefix-sum assembly the kernel replaced was 1.4e-13 off at K=3
        s = derive_schedule_thm3(RateSequence(c, beta), K)
        chain = build_counterexample(s).system
        m_lags = mixing_probe(chain, s).details["m_lags"]
        C = len(next(chain.renewal_chunks()))
        edges = [k * C + d for k in range(1, m_lags[-1] // C + 1) for d in (-1, 0, 1)]
        rng = np.random.default_rng(K)
        lags = {*m_lags, *(m - 1 for m in m_lags), *edges, *rng.integers(1, m_lags[-1], 20).tolist()}
        self._assert_beta_exact(chain, lags)

    @pytest.mark.parametrize("K", [3, 4])
    def test_kernel_equals_fraction_count(self, K):
        chain = build_counterexample(derive_schedule_thm3(DESK_THM3, K)).system
        H = chain.heights.tolist()
        pairs = [(Fraction(lm) * Fraction(rd) / 2, hl, hd)
                 for lm, hl in zip(chain.level_masses.tolist(), H)
                 for rd, hd in zip(chain.landing.tolist(), H)]
        kernel = probes._beta_kernel(chain)
        G = len(kernel)
        assert G == 2 * max(H) - 1
        knots = {h for h in H} | {a + b for a in H for b in H}
        rng = np.random.default_rng(K)
        js = {j + d for j in knots for d in (-1, 0, 1)} | set(rng.integers(1, G + 1, 300).tolist())
        for j in sorted(j for j in js if 1 <= j <= G):
            # kappa(j) = 1/2 sum_{l,d} lambda_l r_d #{a in [1, H_l] : j - H_d < a <= j}
            want = sum(w * len(range(max(1, j - hd + 1), min(hl, j) + 1)) for w, hl, hd in pairs)
            assert abs(Fraction(kernel[G - j]) - want) <= Fraction(1e-14) * want, j

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(100, 1500), st.floats(0.05, 1.0)), min_size=1, max_size=3),
        st.integers(1, 40),
        st.lists(st.tuples(st.integers(1, 2), st.integers(-1, 1)), max_size=3),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    @example([(700, 0.6), (1300, 0.3)], 9, [(1, 0), (2, 1)], [0.1, 0.12, 0.15])  # three in one chunk
    @example([(700, 0.6), (1300, 0.3)], 9, [(1, -1), (1, 0), (1, 1)], [0.9])  # on the boundary
    def test_lags_are_the_first_crossings_of_a_scan(self, tall, short, edges, inner):
        towers = tall + [(short, 0.1)]
        total = sum(w for _, w in towers)
        sys_ = build_tower_system([TowerSpec(h, w / total) for h, w in towers])
        assume(sys_.is_aperiodic())  # else beta stops falling at 1 - 1/period
        C = max(int(sys_.heights.max()), 1024)
        n = 3 * C
        prof = mixing_profile(sys_, range(n)).beta
        # float beta falls with the lag until it nears its rounding floor,
        # about 1e-16; below 1e-12 a bisection and a scan may part
        top = next((m for m in range(1, n) if prof[m] < 1e-12 or prof[m] > prof[m - 1]), n)
        # eps_k = beta at lags on chunk boundaries and inside chunks, so a
        # scan of the profile crosses each before top
        picks = {k * C + d for k, d in edges} | {1 + int(x * (n - 2)) for x in inner}
        picks = sorted(m for m in picks if m < top)
        assume(picks)
        eps = [prof[m] for m in picks]
        want, start = [], 1
        for e in eps:
            m = next(m for m in range(start, n) if prof[m] <= e)
            want.append(m)
            start = m + 1
        assert _mixing_lags(sys_, eps) == (want, [prof[m] for m in want])

    def test_lag_cap_stops_the_search(self):
        # nearly periodic chains, still at beta > 0.8 at the cap: an eps met
        # first at the cap is found, one met a lag later is not, and the
        # record names the cap, at the floor of 2^22 lags and at 64 max H past it
        for towers, cap in [([(1000, 0.5), (1001, 0.5)], 1 << 22),
                            ([(30000, 0.5), (65537, 0.5)], 64 * 65537)]:
            chain = build_tower_system([TowerSpec(h, w) for h, w in towers])
            assert probes._lag_cap(chain) == cap
            at = mixing_profile(chain, [cap - 1, cap, cap + 1]).beta
            assert at[0] > at[1] > at[2]
            assert _mixing_lags(chain, [at[1], at[2]]) == ([cap], [at[1]])
            s = dataclasses.replace(derive_schedule_thm3(DESK_THM3, 2), eps=(at[1], at[2]))
            r = mixing_probe(chain, s)
            assert not r.passed and r.details == {"failed_at_k": 1, "lag_cap": cap}

    def test_small_eps0_certifies_past_64_max_h(self):
        # lags grow with log(1/eps0): at eps0 = 1e-5 the K=3 desk chain's last
        # lag is 72.9 max H, which the cap's floor of 2^22 lags still reaches
        s = derive_schedule_thm3(DESK_THM3, 3, eps0=1e-5)
        chain = build_counterexample(s).system
        r = mixing_probe(chain, s)
        assert r.passed
        assert r.details["m_lags"] == [265_628, 282_082, 298_537]
        assert r.details["m_lags"][-1] > 64 * int(chain.heights.max())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 40 * 1024), min_size=1, max_size=5, unique=True),
           st.booleans(), st.floats(0.05, 4.95))
    @example([1, 1023, 1024, 1025, 40 * 1024], False, 2.5)  # chunk edges
    @example([1000, 40 * 1024 - 1], False, 0.1)  # the end of a chunk's bracket
    @example([3000, 3001, 3002], True, 0.0)
    def test_search_meets_bisection_within_twice_its_dots(self, crossings, geometric, drop):
        # log beta creeps down a plateau, then falls by 5 at each crossing,
        # with log eps_k a distance drop below the plateau: a line through
        # two lags on one plateau aims far from the crossing, and a line
        # across a fall aims near the end of the bracket that eps is closer
        # to.  A geometric beta puts the line on the crossing.  Either way
        # each m_k costs at most 2 log2(C) dots beyond the chunk ends, and the
        # lags are the first crossings, as plain bisection finds them
        C, N = 1024, 41 * 1024
        crossings = sorted(crossings)
        m = np.arange(N + 1)
        if geometric:
            beta = np.exp(-m / 1000.0)
            eps = [math.exp(0.5e-3 - c / 1000.0) for c in crossings]
        else:
            beta = np.exp(-1e-6 * m - 5.0 * np.searchsorted(crossings, m, side="right"))
            eps = [math.exp(-5.0 * k - drop) for k in range(len(crossings))]
        beta = beta.tolist()
        tested = []

        def chunks(sys_):
            def at(lag):
                tested.append(lag)
                return beta[lag]
            for m1 in range(C, N + 1, C):
                yield m1, at

        chain = build_tower_system([TowerSpec(N, 1.0)])  # a cap past N
        with mock.patch.object(probes, "_beta_chunks", chunks):
            got = _mixing_lags(chain, eps)
        assert got == (crossings, [beta[c] for c in crossings])
        ends = -(-crossings[-1] // C)
        per_lag = 4 if geometric else 2 * math.ceil(math.log2(C))
        assert len(tested) <= ends + per_lag * len(crossings)

    def test_scan_memory_is_a_few_max_h(self):
        # u, |u - 1/mu| and the kernel are about 8 max(H) floats (the
        # prefix-sum assembly the kernel replaced held about 13)
        s = derive_schedule_thm3(DESK_THM3, 6)
        chain = build_counterexample(s).system
        tracemalloc.start()
        try:
            lags, _ = _mixing_lags(chain, s.eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lags) == len(s.eps)
        assert peak <= 10 * 8 * int(chain.heights.max())

    @pytest.mark.parametrize("sys_", [
        build_counterexample(derive_schedule_thm3(DESK_THM3, 3)).system,
        build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)]),
    ])
    def test_two_streams_on_one_system_are_independent(self, sys_):
        # each generator advances its own u and |u - 1/mu|: streams advanced
        # in turn give what a lone stream gives, chunk for chunk
        C = len(next(sys_.renewal_chunks()))

        def values(m1, beta):
            return m1, [beta(m) for m in (m1 - C, m1 - C + 1, m1 - C // 2, m1 - 1, m1)]

        alone = [values(*chunk) for chunk in itertools.islice(probes._beta_chunks(sys_), 3)]
        a, b = probes._beta_chunks(sys_), probes._beta_chunks(sys_)
        for want in alone:
            for stream in (a, b):
                assert values(*next(stream)) == want
        lags = [0, 1, 5, 1023, 1024, 2 * C + 7]
        assert mixing_profile(sys_, lags) == mixing_profile(sys_, lags)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3000), st.floats(0.05, 1.0)), min_size=1, max_size=4))
    @example([(33, 0.8), (256, 0.1), (4097, 0.1)])
    def test_chunk_is_the_first_block_multiple_past_max_h_and_2_14(self, towers):
        # so the scan's last chunk runs past its last lag by less than L more
        # than with chunks of max(max H, 2^14)
        total = sum(w for _, w in towers)
        self._assert_chunk_length(build_tower_system([TowerSpec(h, w / total) for h, w in towers]))

    @pytest.mark.parametrize("c, beta, K", [(0.25, 0.5, 3), (0.25, 0.5, 6), (0.1, 1.0, 8)])
    def test_desk_chunk_is_the_first_block_multiple_past_max_h_and_2_14(self, c, beta, K):
        self._assert_chunk_length(build_counterexample(derive_schedule_thm3(
            RateSequence(c, beta), K)).system)

    @classmethod
    def _assert_chunk_length(cls, sys_):
        C = len(next(sys_.renewal_chunks()))
        L, _ = cls._blocks(sys_)
        floor = max(int(sys_.heights.max()), 1 << 14)
        assert C % L == 0 and floor <= C < floor + L

    @pytest.mark.parametrize("K, lags, betas", [
        (3, [63457, 79887, 96347],
         [0.04999813414135996, 0.024999611619852903, 0.012499966125398469]),
        (4, [238302, 298420, 358870, 420031],
         [0.0499996610671498, 0.024999845727773647, 0.012499933441686088,
          0.006249955151846262]),
    ])
    def test_desk_lags_pinned(self, K, lags, betas):
        # lags and betas of the push-forward engine the renewal stream replaced
        s = derive_schedule_thm3(DESK_THM3, K)
        r = mixing_probe(build_counterexample(s).system, s)
        assert r.details["m_lags"] == lags
        assert np.max(np.abs(np.array(r.details["beta_at_m"]) - betas)) <= 1e-12

    @pytest.mark.parametrize("variant,rate", [
        ("thm1", RateSequence(0.5, 0.5)),
        ("thm2", RateSequence(0.05, 1.0)),
    ])
    def test_no_eps_to_check_is_variant_mismatch(self, variant, rate):
        s = derive_schedule(variant, rate, 2)
        with pytest.raises(VariantMismatch, match="eps"):
            mixing_probe(build_counterexample(s).system, s)

    def test_split_chain_beta_is_the_coarse_beta_plus_the_split_term(self):
        # the thm3 model halves each scheduled tower.  Until a start reaches a
        # top it is a point mass on a level that carries lambda_l / 2 of the
        # mass, against lambda_l in one tower of the summed mass; after a
        # landing the halves' laws add up to the whole tower's.  So below max H
        #     beta_split(m) = beta_whole(m) + sum_l (lambda_l^2 / 2) (H_l - m)_+
        s = derive_schedule_thm3(DESK_THM3, 3)
        whole = build_tower_system([TowerSpec(h, p) for h, p in zip(
            s.H + (s.remainder_height,), s.p + (s.remainder_mass,))])
        lags = [1, 256, 1024, 4096]
        lam = whole.level_masses[:-1]  # the remainder tower is not halved
        want = [b + math.fsum(x * x / 2 * max(h - m, 0) for x, h in zip(lam.tolist(), s.H))
                for m, b in zip(lags, mixing_profile(whole, lags).beta)]
        got = mixing_profile(build_counterexample(s).system, lags).beta
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    def test_desk_probe_meets_seven_eps(self):
        s = derive_schedule_thm3(DESK_THM3, 3)
        assert sum(s.H) + s.remainder_height <= 10**4
        r = mixing_probe(build_counterexample(s).system, s)
        assert r.passed
        assert r.details["seven_eps"] == [7.0 * e for e in s.eps]
        lags = r.details["m_lags"]
        assert all(a < b for a, b in zip(lags, lags[1:]))
        for b_val, eps in zip(r.details["beta_at_m"], s.eps):
            assert b_val <= eps <= 7 * eps

    def test_k8_meets_eight_eps_below_lag_cap(self):
        # max H = 8,099,717: the last lag, 1.26 max H, lies past 2^22
        s = derive_schedule_thm3(DESK_THM3, 8)
        chain = build_counterexample(s).system
        r = mixing_probe(chain, s)
        assert r.passed
        assert r.details["m_lags"][-1] == 10_177_212 <= probes._lag_cap(chain)

    @pytest.mark.parametrize("K", [3, 4])
    def test_profile_gives_the_probe_beta_to_the_bit(self, K):
        # benchmarks/selftest.py checks mixing_profile against a renewal
        # oracle, so it must read the stream the mixing record reads
        s = derive_schedule_thm3(DESK_THM3, K)
        chain = build_counterexample(s).system
        r = mixing_probe(chain, s)
        assert mixing_profile(chain, r.details["m_lags"]).beta == tuple(r.details["beta_at_m"])


class TestGnedenkoBaseline:
    COIN = LatticeDistribution(-1, np.array([0.5, 0.0, 0.5]))

    def test_maximal_span_decreases(self):
        vals = [gnedenko_baseline(self.COIN, b=-1.0, h=2.0, n=n)
                for n in (100, 200, 400)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] <= 0.05

    def test_non_maximal_span_stalls(self):
        for n in (100, 200, 400):
            assert gnedenko_baseline(self.COIN, b=-1.0, h=1.0, n=n) >= 0.1

    @staticmethod
    def per_point_reference(step_law, b, h, n, acc):
        # the per-N loop gnedenko_baseline used before its sup became array
        # operations, on the given n-fold law acc
        m, sigma = step_law.mean(), math.sqrt(step_law.variance())
        off = n * step_law.offset
        scale = sigma * math.sqrt(n)
        support = off + np.arange(len(acc))
        worst = 0.0
        lo = math.floor((support[0] - n * b) / h)
        hi = math.ceil((support[-1] - n * b) / h)
        for N in range(lo, hi + 1):
            s = n * b + N * h
            i = int(round(s)) - off
            p = acc[i] if 0 <= i < len(acc) else 0.0
            z = (s - n * m) / scale
            phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            worst = max(worst, abs(scale / h * p - phi))
        return worst

    def assert_within_rounding_bound(self, step_law, b, h, n):
        """gnedenko_baseline against per_point_reference on q, the exact
        n-fold law P rounded once.  The baseline's law p is within gamma_S P
        of P (convolution_powers, rounding_bound) and q within u P, u =
        2^-53.  Both sides take the same c = fl(sigma sqrt(n) / h) and
        phi_N, so fl(c p_N) and fl(c q_N) differ by at most c P_N (gamma_S +
        4u), and each difference with phi_N adds one rounding of at most u
        times its size, at most got or ref.  So |got - ref| <= c max_N P_N
        (gamma_S + 4u) + 2u max(got, ref) / (1 - u)."""
        exact = exact_power(step_law.probs.tolist(), n)
        got = gnedenko_baseline(step_law, b=b, h=h, n=n)
        ref = self.per_point_reference(step_law, b, h, n, np.array([float(x) for x in exact]))
        u = Fraction(1, 1 << 53)
        c = Fraction(math.sqrt(step_law.variance()) * math.sqrt(n) / h)
        bound = (c * max(exact) * (rounding_bound(len(step_law.probs), n) + 4 * u)
                 + 2 * u * Fraction(max(got, ref)) / (1 - u))
        assert abs(Fraction(got) - Fraction(ref)) <= bound

    CASES = [(100, 2.0), (200, 2.0), (400, 2.0), (400, 1.0)]

    @pytest.mark.parametrize("n, h", CASES)
    def test_equals_per_point_loop(self, n, h):
        self.assert_within_rounding_bound(self.COIN, -1.0, h, n)

    def test_one_chain_serves_every_case(self):
        want = [gnedenko_baseline(self.COIN, b=-1.0, h=h, n=n) for n, h in self.CASES]
        assert gnedenko_baselines(self.COIN, -1.0, self.CASES) == want

    def test_skewed_step_law_equals_per_point_loop(self):
        # an asymmetric law on {-2, 1, 4}: mean, offset and lattice all nonzero
        law = LatticeDistribution(-2, np.array([0.3, 0, 0, 0.5, 0, 0, 0.2]))
        for n in (1, 7, 30):
            self.assert_within_rounding_bound(law, -2.0, 3.0, n)

    def test_certificate_cases_take_log_many_convolutions(self, monkeypatch):
        calls = []
        convolve = np.convolve
        monkeypatch.setattr(np, "convolve", lambda a, v: calls.append(1) or convolve(a, v))
        gnedenko_baselines(self.COIN, -1.0, self.CASES)
        assert 0 < len(calls) <= 2 * math.ceil(math.log2(400)) + 2

    def test_no_cases_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            gnedenko_baselines(self.COIN, -1.0, [])

    def test_wrong_lattice_rejected(self):
        with pytest.raises(LatticeMismatch):
            gnedenko_baseline(self.COIN, b=0.0, h=3.0, n=10)
        with pytest.raises(ValueError):
            gnedenko_baseline(self.COIN, b=0.0, h=0.0, n=10)
