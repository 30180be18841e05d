"""Probe semantics: LLT/CLT inequalities, MDS checks, mixing, baseline."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowclt import (
    BudgetExceeded,
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
    llt_probe_density,
    llt_probe_lattice,
    mds_conditional_mean_test,
    mixing_probe,
    mixing_profile,
    sample_trajectory_batch,
)
from slowclt.construction import (
    LatticeNoise,
    ProcessModel,
    TwoIntervalUniformNoise,
    derive_schedule_thm3,
    tower_chain_system,
)
from slowclt import probes
from slowclt.probes import ProbeResult, _mds_bin_index, _mds_exact, _mixing_lags, variance_probe

from helpers import runs_of

DESK_THM3 = RateSequence.power_law(0.25, 0.5)


def small_model(a=0.5):
    """15-state two-tower model with one inactive slab; enumerable."""
    sys_ = build_tower_system([TowerSpec(7, 0.6), TowerSpec(8, 0.4)])
    weight = np.ones(sys_.n_states)
    weight[0:4] = 0.0
    return ProcessModel("thm1", sys_, LatticeNoise(a), runs_of(sys_, weight))


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
        rate = RateSequence.power_law(0.5, 0.5)
        s = derive_schedule("thm1", rate, 3)
        m = build_counterexample(s)
        for k in range(3):
            r = llt_probe_lattice(m, s, k)
            assert r.passed
            assert r.bound == rate(s.n[k])
            closed = r.details["closed_form_bound"]
            assert closed == s.d[k] * (1.0 - s.rho[k])
            assert closed >= rate(s.n[k])
            r = clt_probe(m, s, k)
            assert r.passed
            assert r.bound == rate(s.n[k]) / 2

    def test_thm3_desk_llt_chain(self):
        s = derive_schedule_thm3(DESK_THM3, 3)
        m = build_counterexample(s)
        for k in range(3):
            r = llt_probe_lattice(m, s, k)
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
            r = clt_probe(m, s, k)
            assert r.passed
            assert r.bound == DESK_THM3(s.n[k]) / 2

    def test_wrong_noise_kind_rejected(self):
        s = derive_schedule("thm2", RateSequence.power_law(0.05, 1.0), 4)
        m = build_counterexample(s)
        with pytest.raises(VariantMismatch):
            llt_probe_lattice(m, s, 1)


class TestDensityProbes:
    @pytest.fixture()
    def thm2(self):
        s = derive_schedule("thm2", RateSequence.power_law(0.05, 1.0), 12)
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
        assert r.bound == RateSequence.power_law(0.05, 1.0)(s.n[1])


class TestVarianceProbe:
    def test_lattice_and_density(self):
        s1 = derive_schedule("thm1", RateSequence.power_law(0.5, 0.5), 3)
        assert variance_probe(build_counterexample(s1)).passed
        s2 = derive_schedule("thm2", RateSequence.power_law(0.05, 1.0), 12)
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

    def test_monte_carlo_passes_on_desk_instance(self):
        s = derive_schedule_thm3(DESK_THM3, 2)
        m = build_counterexample(s)
        r = mds_conditional_mean_test(m, 3, reps=150_000, seed=2)
        assert r.method == "monte-carlo"
        assert r.passed

    @pytest.mark.parametrize("filter_coeff", [0.0, 0.5])
    def test_monte_carlo_equals_per_bin_loop(self, filter_coeff):
        # the per-bin loop the array statistic replaced, on the same samples
        s = derive_schedule("thm1", RateSequence.power_law(0.5, 1.0), 2)
        m = build_counterexample(s)
        window, j, reps, seed = 3, 1, 20_000, 0
        towers, levels = sample_trajectory_batch(m.system, seed, window, reps)
        w = m.weight_at(m.system.offsets[towers] + levels)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6d6473]))
        g = m.noise.sample(rng, (reps, window))
        f = w[:, j] * g[:, j] + filter_coeff * w[:, j - 1] * g[:, j - 1]
        inverse = _mds_bin_index(towers, g, j, len(m.system.towers))
        sums = np.bincount(inverse, weights=f)
        sqs = np.bincount(inverse, weights=f * f)
        counts = np.bincount(inverse)
        worst, used = 0.0, 0
        for b in range(len(counts)):
            c = counts[b]
            if c < 30:
                continue
            mean = sums[b] / c
            var = max(sqs[b] / c - mean * mean, 0.0)
            se = math.sqrt(var / c) if var > 0 else 0.0
            if se == 0.0:
                continue
            used += 1
            worst = max(worst, abs(mean) / se)
        r = mds_conditional_mean_test(m, window, reps=reps, seed=seed,
                                      filter_coeff=filter_coeff)
        assert (r.value, r.details["bins"]) == (worst, used)
        assert used > 0

    def test_bin_index_equals_row_unique(self):
        # the mixed-radix key numbers bins exactly as np.unique(axis=0) does
        s = derive_schedule("thm2", RateSequence.power_law(0.05, 1.0), 12)
        m = build_counterexample(s)
        window, reps = 3, 50_000
        towers, _ = sample_trajectory_batch(m.system, 0, window, reps)
        g = m.noise.sample(np.random.default_rng(0), (reps, window))
        got = _mds_bin_index(towers, g, 1, len(m.system.towers))
        rows = np.concatenate([towers, np.sign(g[:, [0, 2]]).astype(np.int64) + 1], axis=1)
        want = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
        assert np.array_equal(got, want)

    def test_bin_key_overflow_raises(self):
        towers = np.zeros((4, 30), dtype=np.int64)
        g = np.ones((4, 30))
        with pytest.raises(BudgetExceeded):
            _mds_bin_index(towers, g, 15, 1000)

    def test_monte_carlo_control_process_fails(self):
        m = small_model()
        r = mds_conditional_mean_test(m, 3, reps=150_000, seed=2, filter_coeff=0.5)
        assert not r.passed

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), window=st.integers(2, 5), filter_coeff=st.sampled_from([0.0, 0.5]))
    def test_tower_level_equals_path_enumeration(self, data, window, filter_coeff):
        heights = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        raw = data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(heights),
                                 max_size=len(heights)))
        sys_ = build_tower_system(
            [TowerSpec(h, r / sum(raw)) for h, r in zip(heights, raw)])
        weight = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 2.0),
            min_size=sys_.n_states, max_size=sys_.n_states)))
        kind = data.draw(st.sampled_from(["lattice", "two-interval", "biased"]))
        noise = TwoIntervalUniformNoise() if kind == "two-interval" else LatticeNoise(
            data.draw(st.floats(0.1, 1.0)))
        support = probes._noise_support
        if kind == "biased":  # a +-1 law with mean 2q - 1, so w(x_j) E g counts
            q = data.draw(st.floats(0.05, 0.95))
            support = lambda model: [(-1.0, 1.0 - q), (1.0, q)]  # noqa: E731
        m = ProcessModel("thm1", sys_, noise, runs_of(sys_, weight))
        with mock.patch.object(probes, "_noise_support", support):
            r = mds_conditional_mean_test(m, window, filter_coeff=filter_coeff)
            want = _mds_exact(m, window, window // 2, filter_coeff)
        assert r.method == "exact"
        assert abs(r.value - want) <= 1e-12

    def test_noise_mean_enters(self, monkeypatch):
        # a biased noise law fails the exact route, with or without the filter
        m = small_model()
        monkeypatch.setattr(probes, "_noise_support", lambda model: [(-1.0, 0.3), (1.0, 0.7)])
        for filter_coeff in (0.0, 0.5):
            r = mds_conditional_mean_test(m, 3, filter_coeff=filter_coeff)
            assert not r.passed
            assert abs(r.value - _mds_exact(m, 3, 1, filter_coeff)) <= 1e-12

    def test_window_1_has_no_filter_term(self):
        m = small_model()
        r = mds_conditional_mean_test(m, 1, filter_coeff=0.5)
        assert r.passed and abs(r.value - _mds_exact(m, 1, 0, 0.5)) <= 1e-12

    def test_window_below_1_rejected(self):
        with pytest.raises(ValueError):
            mds_conditional_mean_test(small_model(), 0)


class TestConditionalVarianceFloor:
    def test_zero_floor_with_inactive_slab(self):
        r = conditional_variance_floor(small_model(), depth=1)
        assert r.value == 0.0
        assert r.passed

    def test_positive_floor_without_slab(self):
        sys_ = build_tower_system([TowerSpec(2, 0.4), TowerSpec(3, 0.6)])
        m = ProcessModel("thm1", sys_, LatticeNoise(0.5), runs_of(sys_, np.ones(5)))
        r = conditional_variance_floor(m, depth=1)
        assert r.value == pytest.approx(0.5)
        assert not r.passed

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            conditional_variance_floor(small_model(), depth=0)


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
        pi = sys_.stationary_array()
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
        # lags 0-60, and lags on both sides of the stream's chunk boundaries
        lags = list(range(61)) + [1023, 1024, 1025, 2049]
        prof = mixing_profile(sys_, lags)
        # dense transition matrix: climb one level, or land by the row from a top
        P = np.zeros((sys_.n_states, sys_.n_states))
        for s_ in range(sys_.n_states):
            if s_ + 1 in sys_.offsets:
                P[s_, sys_.offsets[:-1]] += sys_.landing
            else:
                P[s_, s_ + 1] = 1.0
        pi = sys_.stationary_array()
        for lag, got in zip(lags, prof.beta):
            M = np.linalg.matrix_power(P, lag)
            assert abs(got - float(pi @ (0.5 * np.abs(M - pi).sum(axis=1)))) <= 1e-12

    @staticmethod
    def _beta_reference(sys_, n_lags):
        """beta(0 .. n_lags - 1) from u(t) = sum_d r_d u(t - H_d) advanced one
        lag at a time, summed in tower order.  The assembly of beta mirrors
        the stream's (prefix sums restarting at each chunk of max(max H, 1024)
        lags, the deterministic term at every lag), so its floats equal the
        stream's whenever the stream's u does; test_stream_equals_dense_matrix
        _powers checks what beta means."""
        H, r, lam = sys_.heights, sys_.landing, sys_.level_masses
        W = int(H.max())
        C = max(W, 1024)
        T = -(-n_lags // C) * C
        u = [0.0] * W + [1.0] + [0.0] * (T - 1)  # u[W + t] = u(t)
        pairs = [(float(rd), int(hd)) for rd, hd in zip(r, H)]
        for t in range(W, W + T):
            for rd, hd in pairs:
                u[t] = u[t] + rd * u[t - hd]
        u = np.array(u)
        inv_mu = 1.0 / float(np.dot(r, H))
        tv = np.zeros(W + T)  # tv[W + a] = TV_a
        ages = np.arange(C)
        out = []
        for m0 in range(0, T, C):
            err = np.concatenate([[0.0], np.cumsum(np.abs(u[m0 : m0 + W + C] - inv_mu))])
            chunk = np.zeros(C)
            for rd, hd in zip(r, H):
                chunk += rd * (err[W + 1 :] - err[W + 1 - hd : W + C + 1 - hd])
            tv[m0 + W : m0 + W + C] = 0.5 * chunk
            tail = np.concatenate([[0.0], np.cumsum(tv[m0 : m0 + W + C])])
            beta = np.zeros(C)
            for lm, hl in zip(lam, H):
                deterministic = np.maximum(hl - m0 - ages, 0) * (1.0 - lm)
                beta += lm * (deterministic + tail[W : W + C] - tail[W - hl : W + C - hl])
            out.append(beta)
        return np.concatenate(out)[:n_lags]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 8), st.floats(0.05, 1.0)), min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(20, 300), st.floats(0.05, 1.0)), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    @example([(3, 0.2)], [(20, 0.5), (300, 0.3)], None)  # short tower last
    @example([(1, 0.2), (8, 0.1)], [(20, 0.5), (257, 0.3)], None)  # 1 short, 8 long
    def test_stream_equals_tower_order_reference(self, short, tall, rnd):
        towers = tall + short
        if rnd is not None:
            rnd.shuffle(towers)
        total = sum(w for _, w in towers)
        sys_ = build_tower_system([TowerSpec(h, w / total) for h, w in towers])
        # every lag of the first two chunks and past the second boundary
        # covers every outer-block, sub-block and chunk boundary
        n_lags = 2 * max(int(sys_.heights.max()), 1024) + 2
        got = np.array(mixing_profile(sys_, range(n_lags)).beta)
        want = self._beta_reference(sys_, n_lags)
        # the stream sums u over the long towers, then the short ones, each
        # in tower order: the tower-order sum when the short ones come last
        K, hs = len(towers), np.sort(sys_.heights)
        split = hs[min(range(K), key=lambda j: (K - j) / hs[j] + j / hs[0])]
        is_short = list(sys_.heights < split)
        if is_short == sorted(is_short):
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_desk_stream_is_the_tower_order_reference_bitwise(self):
        s = derive_schedule_thm3(DESK_THM3, 3)
        chain = tower_chain_system(s)
        lags = mixing_probe(chain, s).details["m_lags"]
        n_lags = lags[-1] + 1
        got = np.array(mixing_profile(chain, range(n_lags)).beta)
        assert np.array_equal(got, self._beta_reference(chain, n_lags))

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
        r = mixing_probe(tower_chain_system(s), s)
        assert r.details["m_lags"] == lags
        assert np.max(np.abs(np.array(r.details["beta_at_m"]) - betas)) <= 1e-12

    @pytest.mark.parametrize("variant,rate", [
        ("thm1", RateSequence.power_law(0.5, 0.5)),
        ("thm2", RateSequence.power_law(0.05, 1.0)),
    ])
    def test_no_eps_to_check_is_variant_mismatch(self, variant, rate):
        s = derive_schedule(variant, rate, 2)
        with pytest.raises(VariantMismatch, match="eps"):
            mixing_probe(tower_chain_system(s), s)

    def test_desk_probe_meets_seven_eps(self):
        s = derive_schedule_thm3(DESK_THM3, 3)
        chain = tower_chain_system(s)
        assert chain.n_states <= 10**4
        r = mixing_probe(chain, s)
        assert r.passed
        assert r.details["seven_eps"] == [7.0 * e for e in s.eps]
        lags = r.details["m_lags"]
        assert all(a < b for a, b in zip(lags, lags[1:]))
        for b_val, eps in zip(r.details["beta_at_m"], s.eps):
            assert b_val <= eps <= 7 * eps


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
    def per_point_reference(step_law, b, h, n):
        # the n-fold chain and per-N loop gnedenko_baseline used before its
        # sup became array operations
        m, sigma = step_law.mean(), math.sqrt(step_law.variance())
        acc, off = np.array([1.0]), 0
        for _ in range(n):
            acc = np.convolve(acc, step_law.probs)
            off += step_law.offset
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

    CASES = [(100, 2.0), (200, 2.0), (400, 2.0), (400, 1.0)]

    @pytest.mark.parametrize("n, h", CASES)
    def test_equals_per_point_loop(self, n, h):
        assert gnedenko_baseline(self.COIN, b=-1.0, h=h, n=n) == self.per_point_reference(
            self.COIN, -1.0, h, n)

    def test_one_chain_serves_every_case(self):
        want = [gnedenko_baseline(self.COIN, b=-1.0, h=h, n=n) for n, h in self.CASES]
        assert gnedenko_baselines(self.COIN, -1.0, self.CASES) == want

    def test_skewed_step_law_equals_per_point_loop(self):
        # an asymmetric law on {-2, 1, 4}: mean, offset and lattice all nonzero
        law = LatticeDistribution(-2, np.array([0.3, 0, 0, 0.5, 0, 0, 0.2]))
        for n in (1, 7, 30):
            assert gnedenko_baseline(law, b=-2.0, h=3.0, n=n) == self.per_point_reference(
                law, -2.0, 3.0, n)

    def test_wrong_lattice_rejected(self):
        with pytest.raises(LatticeMismatch):
            gnedenko_baseline(self.COIN, b=0.0, h=3.0, n=10)
        with pytest.raises(ValueError):
            gnedenko_baseline(self.COIN, b=0.0, h=0.0, n=10)
