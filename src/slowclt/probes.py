"""Named probes: one per inequality the constructions are required to satisfy.

Each probe returns a ProbeResult carrying the computed value, the required
bound, the comparison direction, the computation method, and an error bar;
pass means the margin beats the error bar in the required direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .construction import ProcessModel, RateSequence, Schedule, intersection_lower_bound
from .distributions import (
    LatticeDistribution,
    kolmogorov_distance,
    lattice_sum_distribution,
    root_n_interval_probability,
    sample_partial_sums,
)
from .errors import BudgetExceeded, EvenIndex, LatticeMismatch, VariantMismatch
from .towers import TowerSystem, enumerate_paths, sample_trajectory_batch

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)  # standard normal density at 0


@dataclass(frozen=True)
class ProbeResult:
    name: str
    index: int  # k or n, -1 when not applicable
    value: float
    bound: float
    direction: str  # ">=" or "<="
    method: str  # "exact" | "exact-lower-bound" | "monte-carlo"
    error: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if self.direction == ">=":
            return self.value - self.bound > self.error
        return self.bound - self.value > self.error


@dataclass(frozen=True)
class MixingProfile:
    lags: tuple[int, ...]
    beta: tuple[float, ...]
    aperiodic: bool


def _rate_at(sched: Schedule, k: int) -> float:
    return RateSequence.from_descriptor(sched.rate_descriptor)(sched.n[k])


def llt_probe_lattice(model: ProcessModel, sched: Schedule, k: int,
                      dist: Optional[LatticeDistribution] = None) -> ProbeResult:
    """mu(S_{n_k} = 0) >= a_{n_k}, with the closed-form intermediate bound.

    dist, when given, is the exact law of S_{n_k} (lattice_sum_distribution
    at n_k), so a caller running both lattice probes computes it once.
    """
    if model.noise.kind != "lattice":
        raise VariantMismatch("lattice probe on a non-lattice model")
    n = sched.n[k]
    if dist is None:
        dist = lattice_sum_distribution(model, n)
    value = dist.prob_at(0)
    bound = _rate_at(sched, k)
    inter = intersection_lower_bound(sched, k)
    details = {"intersection_mass": inter}
    if sched.variant == "thm1":
        details["closed_form_bound"] = sched.d[k] * (1.0 - sched.rho[k])
    else:
        details["quarter_mass_bound"] = sched.p[k] / 4.0
    return ProbeResult(
        name="llt", index=k, value=value, bound=bound, direction=">=",
        method="exact", details=details,
    )


def clt_probe(model: ProcessModel, sched: Schedule, k: int,
              ratio: Optional[ProbeResult] = None,
              dist: Optional[LatticeDistribution] = None) -> ProbeResult:
    """Kolmogorov distance at n_k against a_{n_k}/2 (lattice) or a_{n_k} (density).

    dist (lattice variants) and ratio (density variant) take an already
    computed law of S_{n_k} or llt-ratio result, as in llt_probe_lattice.
    """
    n = sched.n[k]
    a_k = _rate_at(sched, k)
    if sched.variant in ("thm1", "thm3"):
        if dist is None:
            dist = lattice_sum_distribution(model, n)
        value = kolmogorov_distance(dist, math.sqrt(model.sigma2), n)
        return ProbeResult(
            name="clt", index=k, value=value, bound=a_k / 2.0,
            direction=">=", method="exact",
        )
    # Density variant: certify the sup from below through the ratio probe,
    # sup >= (R/2 - phi(0)) * rho_k with R the certified interval ratio.
    if ratio is None:
        ratio = llt_probe_density(model, sched, k)
    r_lower = ratio.value - ratio.error
    value = (r_lower / 2.0 - PHI0) * sched.rho[k]
    return ProbeResult(
        name="clt", index=k, value=value, bound=a_k, direction=">=",
        method="exact-lower-bound",
        details={"ratio_lower": r_lower, "rho_k": sched.rho[k]},
    )


def llt_probe_density(
    model: ProcessModel,
    sched: Schedule,
    k: int,
    mc_reps: Optional[int] = None,
    seed: int = 0,
) -> ProbeResult:
    """(1/rho_k) mu(S_{n_k}/(sigma sqrt(n_k)) in [-rho_k, rho_k]) >= L, odd k.

    The certified value is the decomposition lower bound mu(G~_k) * b_{n_k}
    / rho_k: trajectories that stay inside tower k for the whole window
    contribute exactly the tower-mass fraction times the noise interval
    probability, by independence of the noise and tower factors.  b_{n_k} =
    P(|g_1 + ... + g_n| <= sqrt(n)) comes from root_n_interval_probability,
    a rational bracket with no sampling error (b_method "exact-rational").
    mc_reps > 0 adds a Monte Carlo cross-check of the whole interval
    probability to the details; it does not enter the certified value.
    """
    if model.variant != "thm2":
        raise VariantMismatch("density probe needs the density variant")
    if k % 2 == 0:
        raise EvenIndex(f"density ratio probe is certified for odd k, got {k}")
    n, H, p_k, d_k, rho_k = sched.n[k], sched.H[k], sched.p[k], sched.d[k], sched.rho[k]
    b = root_n_interval_probability(n)
    g_frac = (H - n + 1) * p_k / H  # mu(G~_k), exact from tower geometry
    value = g_frac * b.lower / rho_k
    L = sched.constants["L"]
    details = {
        "b_n": b.value,
        "b_error": b.error,
        "b_method": b.method,
        "tilde_tower_mass": g_frac,
        "half_mass_ratio_bound": b.lower * p_k / (2.0 * d_k) * math.sqrt(
            sched.constants["sigma2_truncated"]
        ),
        "llt_reference_ratio": 2.0 * PHI0,
    }
    if mc_reps:
        sums = sample_partial_sums(model, n, mc_reps, seed)
        sigma = math.sqrt(sched.constants["sigma2_truncated"])
        hits = np.abs(sums / (sigma * math.sqrt(n))) <= rho_k
        est = float(np.mean(hits))
        se = math.sqrt(max(est * (1 - est), 1.0 / mc_reps) / mc_reps)
        details["mc_interval_probability"] = est
        details["mc_se"] = se
        details["mc_consistent"] = bool(est >= g_frac * b.lower - 4.0 * se)
    return ProbeResult(
        name="llt-ratio", index=k, value=value, bound=L, direction=">=",
        method="exact-lower-bound", details=details,
    )


def density_bound_probe(model: ProcessModel) -> ProbeResult:
    """Density of f bounded by L1 + L2 and integrating to 1."""
    from .construction import density_of_f

    dens = density_of_f(model)
    consts = model.schedule.constants
    cap = consts["L1"] + consts["L2"]
    return ProbeResult(
        name="density-bound", index=-1, value=dens.max_value(), bound=cap + 1e-12,
        direction="<=", method="exact",
        details={"integral": dens.integral()},
    )


def variance_probe(model: ProcessModel) -> ProbeResult:
    """Closed-form variance against model.sigma2, the sum over weight runs,
    tolerance 1e-12."""
    sched = model.schedule
    if model.variant == "thm2":
        closed = sched.constants["sigma2_truncated"]
    else:
        # each inactive slab has exact mass d_k, so Var f = Var g * (1 - sum d_k)
        closed = model.noise.variance * (1.0 - sum(sched.d))
    return ProbeResult(
        name="variance", index=-1, value=abs(model.sigma2 - closed), bound=1e-12,
        direction="<=", method="exact",
        details={"sigma2": model.sigma2, "closed_form": closed},
    )


# -- strong-MDS tests ------------------------------------------------------


def mds_conditional_mean_test(
    model: ProcessModel,
    window: int,
    reps: int = 0,
    seed: int = 0,
    filter_coeff: float = 0.0,
) -> ProbeResult:
    """Conditional mean of the middle coordinate j = window // 2 given everything else.

    Exact route (reps <= 0): given the whole path and the other noise values,
    the mean of f_j is w(x_j) E g + c w(x_{j-1}) g_{j-1}, c = filter_coeff,
    because the noise factor is independent of the tower factor.  The value
    is its largest modulus over every positive-probability pair of
    consecutive states (a level step inside a tower, or a top-to-base
    landing) and every g_{j-1} in the noise support; all must vanish.  One
    pass over the weight runs; _mds_exact is its brute-force oracle.  Monte
    Carlo route (reps > 0): bin samples by the tower sequence and the signs of
    the other noise values, and demand every bin mean stay within 4 standard
    errors of 0.  filter_coeff != 0 replaces f_j by f_j + filter_coeff * f_{j-1}, a
    deliberately non-MDS control.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    j = window // 2
    if reps <= 0:
        return ProbeResult(
            name="mds", index=window, value=_mds_tower_level(model, j, filter_coeff),
            bound=1e-12, direction="<=", method="exact",
        )
    value, nbins = _mds_mc(model, window, j, reps, seed, filter_coeff)
    return ProbeResult(
        name="mds", index=window, value=value, bound=4.0,
        direction="<=", method="monte-carlo", error=0.0,
        details={"bins": nbins, "statistic": "max |bin mean| / bin se"},
    )


def _mds_tower_level(model, j, filter_coeff) -> float:
    """max |w(x_j) E g + c w(x_{j-1}) g_{j-1}| over consecutive states and noise values."""
    support = _noise_support(model)
    mean_g = sum(v * p for v, p in support)
    runs = model.runs
    if not filter_coeff or j == 0:
        return max(abs(v) for tower in runs for _, _, v in tower) * abs(mean_g)
    # (previous, current) weights: a climb inside a run or from one run to
    # the next, or a landing from any top on a base the row reaches
    pairs = [(v, v) for tower in runs for s, e, v in tower if e - s > 1]
    pairs += [(r0[2], r1[2]) for tower in runs for r0, r1 in zip(tower, tower[1:])]
    bases = [tower[0][2] for tower, p in zip(runs, model.system.landing) if p > 0.0]
    pairs += [(tower[-1][2], b) for tower in runs for b in bases]
    prev, cur = np.array(pairs).T
    return max(float(np.abs(cur * mean_g + filter_coeff * g * prev).max()) for g, _ in support)


def _noise_support(model):
    if model.noise.kind == "lattice":
        a = model.noise.a
        vals = [-1.0, 0.0, 1.0]
        probs = [a / 2.0, 1.0 - a, a / 2.0]
        return [(v, p) for v, p in zip(vals, probs) if p > 0.0]
    # two-interval noise, conditioned by sign: each sign carries its
    # conditional mean +-3/4, and E g = 0.
    return [(-0.75, 0.5), (0.75, 0.5)]


def _mds_exact(model, window, j, filter_coeff) -> float:
    """Brute-force oracle of _mds_tower_level: the conditional mean of f_j in
    every (path, other noise values) cylinder of enumerate_paths."""
    support = _noise_support(model)
    paths = enumerate_paths(model.system, window)
    weight = model.weight_at(np.arange(model.system.n_states))
    bins: dict[tuple, list[float]] = {}
    import itertools

    for path, pprob in paths:
        if pprob == 0.0:
            continue
        others = [i for i in range(window) if i != j]
        for gs in itertools.product(support, repeat=len(others)):
            key_prob = pprob * math.prod(p for _, p in gs)
            gvals = {}
            for i, (v, _) in zip(others, gs):
                gvals[i] = v
            key = (path, tuple(gvals[i] for i in others))
            num, den = bins.setdefault(key, [0.0, 0.0])
            for gj, pj in support:
                gvals[j] = gj
                f_j = weight[path[j]] * gj
                if filter_coeff and j >= 1:
                    f_j += filter_coeff * weight[path[j - 1]] * gvals[j - 1]
                num += key_prob * pj * f_j
                den += key_prob * pj
            bins[key] = [num, den]
    worst = 0.0
    for num, den in bins.values():
        if den > 0.0:
            worst = max(worst, abs(num / den))
    return worst


def _mds_bin_index(towers: np.ndarray, g: np.ndarray, j: int, n_towers: int) -> np.ndarray:
    """Conditioning bin of each sample: tower sequence + signs of the other noise coordinates.

    The row (towers, sign + 1) is read as one mixed-radix integer, radix
    n_towers per tower column and 3 per sign column.  The key orders rows
    lexicographically, so the bins are numbered exactly as by row-unique.
    """
    others = [i for i in range(g.shape[1]) if i != j]
    span = n_towers ** towers.shape[1] * 3 ** len(others)
    if span > np.iinfo(np.int64).max:
        raise BudgetExceeded(f"strong-MDS bin key needs {span} values, more than int64 holds")
    key = np.zeros(len(towers), dtype=np.int64)
    for c in range(towers.shape[1]):
        key = key * n_towers + towers[:, c]
    for i in others:
        key = key * 3 + (np.sign(g[:, i]).astype(np.int64) + 1)
    return np.unique(key, return_inverse=True)[1]


def _mds_mc(model, window, j, reps, seed, filter_coeff):
    sys = model.system
    towers, levels = sample_trajectory_batch(sys, seed, window, reps)
    w = model.weight_at(sys.offsets[towers] + levels)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6d6473]))
    g = model.noise.sample(rng, (reps, window))
    f = w[:, j] * g[:, j]
    if filter_coeff and j >= 1:
        f = f + filter_coeff * w[:, j - 1] * g[:, j - 1]
    inverse = _mds_bin_index(towers, g, j, len(sys.towers))
    # max |bin mean| / bin se over the bins with 30 samples and a positive se
    counts = np.bincount(inverse)
    keep = counts >= 30
    c = counts[keep]
    mean = np.bincount(inverse, weights=f)[keep] / c
    var = np.maximum(np.bincount(inverse, weights=f * f)[keep] / c - mean * mean, 0.0)
    se = np.sqrt(var / c)
    used = se > 0.0
    return np.max(np.abs(mean[used]) / se[used], initial=0.0), int(used.sum())


def conditional_variance_floor(model: ProcessModel, depth: int) -> ProbeResult:
    """min over positive-probability histories of E(f^2 | history).

    Every state is reachable from a positive-measure start, so for any
    depth >= 1 the minimum equals the minimum over current states of
    Var(g) * E(weight^2 at the next state | current state).  For the
    constructed models the floor is exactly 0 - from deep inside an
    inactive slab the next state is again inactive - which is the
    mechanism that defeats the local limit theorem.
    """
    if model.noise.kind != "lattice":
        raise VariantMismatch("variance-floor probe is for lattice models")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # the next state is a level >= 1 of the same tower, or a landed base
    climbed = [v * v for tower in model.runs for _, e, v in tower if e > 1]
    bases = [tower[0][2] for tower in model.runs]
    landed = float(np.dot(model.system.landing, np.square(bases)))
    value = model.noise.variance * min(climbed + [landed])
    return ProbeResult(
        name="variance-floor", index=depth, value=value, bound=1e-15,
        direction="<=", method="exact",
        details={"is_zero": value == 0.0},
    )


# -- mixing ---------------------------------------------------------------

LAG_CAP = 1 << 21  # largest lag the mixing search scans


def _beta_chunks(sys: TowerSystem) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (m0, beta(m0 + i) for i < len(chunk)) for m0 = 0, then onward.

    The landing row r does not depend on the tower left, so after a landing
    the chain's law is fixed by the renewal sequence (Feller, An Introduction
    to Probability Theory, Vol. I, ch. XIII) u(0) = 1, u(t) =
    sum_d r_d u(t - H_d), u(t < 0) = 0: at age a the state is (d, i) with
    probability r_d u(a - i), and pi(d, i) = r_d / mu with mu = sum r_d H_d.
    So TV_a = TV(law at age a, pi) = 1/2 sum_d r_d sum_{a-H_d < s <= a}
    |u(s) - 1/mu|, and with lambda_l the level mass of tower l

        beta(m) = sum_l lambda_l [max(0, H_l - m)(1 - lambda_l)
                                  + sum_{m-H_l <= a < m} TV_a],  TV_{a<0} = 0.

    u is advanced by a two-level recursion, each slice-add reading only
    values already complete.  With the heights sorted, h_(0) <= h_(1) <=
    ..., the towers of height below h_(j) are short and the rest long, for
    the split j in [0, K) that minimises (K - j) / h_(j) + j / h_(0), the
    first on ties; j = 0 makes every tower long.  Outer blocks of length
    h_(j) add each long tower once, then sub-blocks of length h_(0) inside
    the block add each short tower once.  So u(t) sums the long towers in
    tower order, then the short towers in tower order; when the short
    towers are a suffix of the tower order (the remainder alone, which
    tower_chain_system appends last) this is the plain tower-order sum.  A
    chunk of C lags costs about C ((K - j) / h_(j) + j / h_(0)) slice-adds,
    against C K / h_(0) for blocks of min(H) alone.  The prefix sums of
    |u - 1/mu| and of TV restart at each chunk, and only the last max(H)
    values of u and TV are carried over.
    """
    H = sys.heights
    lam = sys.level_masses
    r = sys.landing
    inv_mu = 1.0 / float(np.dot(r, H))
    W, B = int(H.max()), int(H.min())
    hs = np.sort(H)
    K = len(hs)
    L = int(hs[min(range(K), key=lambda j: (K - j) / hs[j] + j / hs[0])])
    long_ = [(rd, hd) for rd, hd in zip(r, H) if hd >= L]
    short = [(rd, hd) for rd, hd in zip(r, H) if hd < L]
    # lags per chunk: at least max(H), so the carried history fits, and at
    # least 1024, so short towers do not cost a numpy call per few lags
    C = max(W, 1024)
    u = np.zeros(W + C)  # times m0 - W .. m0 + C - 1
    tv = np.zeros(W + C)  # ages m0 - W .. m0 + C - 1
    u[W] = 1.0
    ages = np.arange(C)
    m0 = 0
    while True:
        for t0 in range(W, W + C, L):
            t1 = min(t0 + L, W + C)
            for rd, hd in long_:
                u[t0:t1] += rd * u[t0 - hd : t1 - hd]
            for s0 in range(t0, t1, B):
                s1 = min(s0 + B, t1)
                for rd, hd in short:
                    u[s0:s1] += rd * u[s0 - hd : s1 - hd]
        err = np.concatenate([[0.0], np.cumsum(np.abs(u - inv_mu))])
        tv[W:] = 0.0
        for rd, hd in zip(r, H):
            tv[W:] += rd * (err[W + 1 :] - err[W + 1 - hd : W + C + 1 - hd])
        tv[W:] *= 0.5
        tail = np.concatenate([[0.0], np.cumsum(tv)])
        beta = np.zeros(C)
        for lm, hl in zip(lam, H):
            a = tail[W : W + C]
            if m0 < hl:  # the deterministic term max(0, H_l - m)(1 - lambda_l)
                a = np.maximum(hl - m0 - ages, 0) * (1.0 - lm) + a
            beta += lm * (a - tail[W - hl : W + C - hl])
        yield m0, beta
        m0 += C
        u[:W], tv[:W] = u[C:], tv[C:]
        u[W:] = 0.0


def _mixing_lags(sys: TowerSystem, eps: Sequence[float]) -> tuple[list[int], list[float]]:
    """Smallest lags 1 <= m_0 < m_1 < ... <= LAG_CAP with beta(m_k) <= eps_k.

    One forward scan of the beta stream gives the first such lag; beta is
    non-increasing in the lag, so it stays <= eps_k at every later lag.
    Fewer lags than eps are returned when the scan passes LAG_CAP.
    """
    lags: list[int] = []
    betas: list[float] = []
    for m0, chunk in _beta_chunks(sys):
        while len(lags) < len(eps):
            start = max(lags[-1] + 1 if lags else 1, m0) - m0
            hit = np.flatnonzero(chunk[start : LAG_CAP + 1 - m0] <= eps[len(lags)])
            if not hit.size:
                break
            i = start + int(hit[0])
            lags.append(m0 + i)
            betas.append(float(chunk[i]))
        if len(lags) == len(eps) or m0 + len(chunk) > LAG_CAP:
            return lags, betas


def mixing_profile(sys: TowerSystem, lags: Sequence[int]) -> MixingProfile:
    """Exact beta(n) of the tower chain at each lag, an upper bound on alpha(n)."""
    lags = tuple(int(n) for n in lags)
    want = np.sort(np.asarray(lags, dtype=np.int64))
    if want.size and want[0] < 0:
        raise ValueError("lags must be >= 0")
    # each chunk fills the slice of the sorted lags it covers
    found = np.empty(len(want))
    for m0, chunk in _beta_chunks(sys):
        lo, hi = np.searchsorted(want, [m0, m0 + len(chunk)])
        found[lo:hi] = chunk[want[lo:hi] - m0]
        if hi == len(want):
            break
    return MixingProfile(
        lags=lags,
        beta=tuple(found[np.searchsorted(want, lags)].tolist()),
        aperiodic=sys.is_aperiodic(),
    )


def mixing_probe(sys: TowerSystem, sched: Schedule) -> ProbeResult:
    """For each scheduled k: a lag m_k with beta(m_k) <= eps_k (hence <= 7 eps_k)."""
    if not sched.eps:
        raise VariantMismatch(f"{sched.variant} schedules no eps_k to check mixing against")
    lags, betas = _mixing_lags(sys, sched.eps)
    if len(lags) < len(sched.eps):
        return ProbeResult(
            name="mixing", index=-1, value=math.inf, bound=1.0, direction="<=",
            method="exact", details={"failed_at_k": len(lags), "lag_cap": LAG_CAP},
        )
    worst_ratio = max((b / (7.0 * eps) for b, eps in zip(betas, sched.eps)), default=0.0)
    return ProbeResult(
        name="mixing", index=-1, value=worst_ratio, bound=1.0, direction="<=",
        method="exact",
        details={
            "m_lags": lags,
            "beta_at_m": betas,
            "seven_eps": [7.0 * e for e in sched.eps],
            "aperiodic": sys.is_aperiodic(),
        },
    )


# -- i.i.d. baseline --------------------------------------------------------


def gnedenko_baseline(step_law: LatticeDistribution, b: float, h: float, n: int) -> float:
    """sup_N |(sigma sqrt(n)/h) P_n(N) - phi((nb + Nh - nm)/(sigma sqrt(n)))|.

    Exact n-fold convolution of an integer-lattice step law declared to live
    on {b + N h}; the i.i.d. contrast for the lattice point-probability
    limit theorem.
    """
    return gnedenko_baselines(step_law, b, [(n, h)])[0]


def gnedenko_baselines(step_law: LatticeDistribution, b: float, cases) -> list[float]:
    """gnedenko_baseline(step_law, b, h, n) for each (n, h) of cases, from one
    convolution chain up to the largest n.  The sup runs over every lattice
    point b n + N h inside the support range, with one math.exp per point."""
    var = step_law.variance()
    if var <= 0:
        raise LatticeMismatch("step law must have positive variance")
    pts = step_law.support[step_law.probs > 1e-300]
    for n, h in cases:
        if n < 1 or h <= 0:
            raise ValueError(f"need n >= 1 and a positive span h, got n={n}, h={h}")
        ratios = (pts - b) / h
        if np.max(np.abs(ratios - np.round(ratios))) > 1e-9:
            raise LatticeMismatch(f"support not contained in {{{b} + N*{h}}}")
    m, sigma = step_law.mean(), math.sqrt(var)
    need = {n for n, _ in cases}  # the n-fold laws to keep
    acc, laws = np.array([1.0]), {}
    for k in range(1, max(need) + 1):
        acc = np.convolve(acc, step_law.probs)
        if k in need:
            laws[k] = acc
    out = []
    for n, h in cases:
        acc, off = laws[n], n * step_law.offset
        scale = sigma * math.sqrt(n)
        lo = math.floor((off - n * b) / h)
        hi = math.ceil((off + len(acc) - 1 - n * b) / h)
        s = n * b + np.arange(lo, hi + 1) * h
        i = np.rint(s).astype(np.int64) - off
        p = np.where((i >= 0) & (i < len(acc)), acc.take(i, mode="clip"), 0.0)
        z = (s - n * m) / scale
        phi = np.array([math.exp(v) for v in (-0.5 * z * z).tolist()]) / math.sqrt(2.0 * math.pi)
        out.append(float(np.abs(scale / h * p - phi).max()))
    return out
