"""Named probes: one per inequality the constructions are required to satisfy.

Each probe returns a ProbeResult carrying the computed value, the required
bound, the comparison direction, the computation method, and an error bar;
pass means the margin beats the error bar in the required direction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .construction import ProcessModel, RateSequence, Schedule, intersection_lower_bound
from .distributions import (
    LatticeDistribution,
    convolution_powers,
    kolmogorov_distance,
    root_n_interval_probability,
    sample_partial_sums,
)
from .errors import EvenIndex, LatticeMismatch, VariantMismatch
from .towers import TowerSystem

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)  # standard normal density at 0


@dataclass(frozen=True)
class ProbeResult:
    name: str
    index: int  # k or n, -1 when not applicable
    value: float
    bound: float
    direction: str  # ">=" or "<="
    method: str  # "exact" | "exact-lower-bound"
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
                      dist: LatticeDistribution) -> ProbeResult:
    """mu(S_{n_k} = 0) >= a_{n_k}, with the closed-form intermediate bound.

    dist is the exact law of S_{n_k} (lattice_sum_distributions at n_k), so
    a caller running both lattice probes computes it once.
    """
    if model.noise.kind != "lattice":
        raise VariantMismatch("lattice probe on a non-lattice model")
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

    It reads an already computed result: dist, the law of S_{n_k}, for the
    lattice variants, as in llt_probe_lattice, and ratio, the llt-ratio
    result at k, for the density variant.
    """
    n = sched.n[k]
    a_k = _rate_at(sched, k)
    if sched.variant in ("thm1", "thm3"):
        if dist is None:
            raise TypeError("clt_probe needs dist, the law of S_{n_k}, on a lattice variant")
        value = kolmogorov_distance(dist, math.sqrt(model.sigma2), n)
        return ProbeResult(
            name="clt", index=k, value=value, bound=a_k / 2.0,
            direction=">=", method="exact",
        )
    # Density variant: certify the sup from below through the ratio probe,
    # sup >= (R/2 - phi(0)) * rho_k with R the certified interval ratio.
    if ratio is None:
        raise TypeError("clt_probe needs ratio, the llt-ratio result at k, on thm2")
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
    one exact rational evaluation plus the noise sum's unit-density bound,
    with no sampling error (b_method "exact-rational").
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
    """Closed-form variance against model.sigma2, the sum over the towers,
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


def mds_conditional_mean_test(model: ProcessModel, window: int,
                              filter_coeff: float = 0.0) -> ProbeResult:
    """Conditional mean of the middle coordinate j = window // 2 given everything else.

    Given the whole path and the other noise values, the mean of f_j is
    w(x_j) E g + c w(x_{j-1}) g_{j-1}, c = filter_coeff, because the noise
    factor is independent of the tower factor.  The value is its largest
    modulus over every positive-probability pair of consecutive states (a
    level step inside a tower, or a top-to-base landing) and every g_{j-1}
    in the noise support; all must vanish.  One pass over the towers' slabs;
    tests/oracles.py's mds_exact is its brute-force oracle.  filter_coeff !=
    0 replaces f_j by f_j + filter_coeff * f_{j-1}, a deliberately non-MDS
    control.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    return ProbeResult(
        name="mds", index=window, value=_mds_tower_level(model, window // 2, filter_coeff),
        bound=1e-12, direction="<=", method="exact",
    )


def _mds_tower_level(model, j, filter_coeff) -> float:
    """max |w(x_j) E g + c w(x_{j-1}) g_{j-1}| over consecutive states and noise values."""
    support = _noise_support(model)
    mean_g = sum(v * p for v, p in support)
    towers = list(zip(model.slab, model.value, model.system.heights.tolist()))
    if not filter_coeff or j == 0:
        return max(abs(v) if s < h else 0.0 for s, v, h in towers) * abs(mean_g)
    # (previous, current) weights: a climb inside the slab, out of it or above
    # it, or a landing from any top on a base the row reaches
    pairs = []
    for s, v, h in towers:
        pairs += [(0.0, 0.0)] * (s > 1) + [(0.0, v)] * (0 < s < h) + [(v, v)] * (h - s > 1)
    bases = [0.0 if s else v for (s, v, _), p in zip(towers, model.system.landing) if p > 0.0]
    pairs += [(v if s < h else 0.0, b) for s, v, h in towers for b in bases]
    prev, cur = np.array(pairs).T
    return max(float(np.abs(cur * mean_g + filter_coeff * g * prev).max()) for g, _ in support)


def _noise_support(model):
    if model.noise.kind == "lattice":
        a = model.noise.a
        return [(v, p) for v, p in zip((-1.0, 0.0, 1.0), (a / 2.0, 1.0 - a, a / 2.0)) if p > 0.0]
    # two-interval noise, conditioned by sign: each sign carries its
    # conditional mean +-3/4, and E g = 0.
    return [(-0.75, 0.5), (0.75, 0.5)]


def conditional_variance_floor(model: ProcessModel) -> ProbeResult:
    """min over positive-probability histories of E(f^2 | history), index 1.

    Every state is reachable from a positive-measure start, so for any
    history depth >= 1 the minimum equals the minimum over current states of
    Var(g) * E(weight^2 at the next state | current state).  For the
    constructed models the floor is exactly 0 - from deep inside an
    inactive slab the next state is again inactive - which is the
    mechanism that defeats the local limit theorem.
    """
    if model.noise.kind != "lattice":
        raise VariantMismatch("variance-floor probe is for lattice models")
    # the next state is a level >= 1 of the same tower, or a landed base
    climbed = []
    for s, v, h in zip(model.slab, model.value, model.system.heights.tolist()):
        climbed += [0.0] * (s > 1) + [v * v] * (1 < h and s < h)
    bases = [0.0 if s else v for s, v in zip(model.slab, model.value)]
    landed = float(np.dot(model.system.landing, np.square(bases)))
    value = model.noise.variance * min(climbed + [landed])
    return ProbeResult(
        name="variance-floor", index=1, value=value, bound=1e-15,
        direction="<=", method="exact",
        details={"is_zero": value == 0.0},
    )


# -- mixing ---------------------------------------------------------------

# OpenBLAS (0.3.31) sums an np.dot of up to 10,000 floats on one thread and
# splits a longer one across its threads, which changes the order of the sum;
# pieces of 8,193 floats, the whole kernel at thm3 c=0.25 beta=0.5 K=3, keep
# one order under any thread count of that BLAS, not of one that splits
# shorter dots
DOT_BLOCK = 8193


def _beta_kernel(sys: TowerSystem) -> np.ndarray:
    """kappa(G), kappa(G - 1), ..., kappa(1) with G = 2 max(H) - 1, where

        kappa(j) = 1/2 sum_{l,d} lambda_l r_d #{a in [1, H_l] : j - H_d < a <= j}
                 = 1/2 sum_{l,d} lambda_l r_d max(0, min(j, H_l, H_d, H_l + H_d - j)).

    kappa is piecewise linear, with breakpoints among 0, the H_l and the
    H_l + H_d.  At a breakpoint it is the sum of its K^2 non-negative
    terms; between breakpoints a < b it is ((b - j) kappa(a) + (j - a)
    kappa(b)) / (b - a), two non-negative terms.  So every entry is within a
    few roundings of kappa(j), in O(K^4 + max H) operations.
    """
    H = sys.heights
    G = 2 * int(H.max()) - 1
    pair = 0.5 * np.outer(sys.level_masses, sys.landing)
    low, top = np.minimum.outer(H, H), np.add.outer(H, H)
    knots = np.array(sorted({0, *H.tolist(), *top.ravel().tolist()}))
    count = np.minimum(np.minimum.outer(knots, low), top - knots[:, None, None])
    at_knot = (np.maximum(count, 0) * pair).sum(axis=(1, 2))
    kernel = np.empty(G)
    for a, b, ka, kb in zip(knots[:-1].tolist(), knots[1:].tolist(),
                            at_knot[:-1].tolist(), at_knot[1:].tolist()):
        hi = min(b, G)
        j = np.arange(hi, a, -1, dtype=float)  # kernel[G - j] = kappa(j)
        kernel[G - hi : G - a] = ((b - j) * ka + (j - a) * kb) / (b - a)
    return kernel


def _beta_chunks(sys: TowerSystem) -> Iterator[tuple[int, Callable[[int], float]]]:
    """Yield (m1, beta) for m1 = C, 2C, ..., C the chunk length of
    TowerSystem.renewal_chunks, a whole number of its blocks of L lags with
    max(max H, 2^14) <= C < max(max H, 2^14) + L: beta(m) is the chain's
    beta-mixing coefficient at any lag m1 - C <= m <= m1, until the stream
    is advanced.

    With u from renewal_chunks, the total variation from pi at age a is
    TV_a = 1/2 sum_d r_d sum_{a - H_d < s <= a} |u(s) - 1/mu|, and with
    lambda_l the level mass of tower l

        beta(m) = sum_l lambda_l [(H_l - m)_+ (1 - lambda_l)
                                  + sum_{m - H_l <= a < m} TV_a],  TV_{a<0} = 0.

    Let the ages a < 0 into the sum too: u = 0 there, so each contributes
    TV_a = 1/2 sum_d r_d H_d / mu = 1/2, and their total 1/2 (H_l - m)_+
    comes out of the first term.  Counting how often each |u(m - j) - 1/mu|
    occurs then gives, with W = max H,

        beta(m) = sum_l lambda_l (1/2 - lambda_l) (H_l - m)_+
                  + sum_{j=1}^{2W-1} kappa(j) |u(m - j) - 1/mu|,

    kappa the fixed kernel of _beta_kernel.  Every term is non-negative
    unless a level carries more than half the mass, so beta at any lag is
    one dot of non-negative terms, with no prefix sums that cancel: its
    relative error is O(gamma_2W) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 3-4), and far less in practice.
    Against an exact rational TV/beta assembly from the same float64 u, r,
    lambda and 1/mu, at thm3 c=0.25 beta=0.5 at the m_k, the m_k - 1 and 40
    other lags, it was within 2.4e-16, 3.3e-16, 3.1e-16, 6.9e-16 and
    2.0e-15 relative at K=3..7 (prefix sums of TV: 1.4e-13 to 2.7e-10).
    The dot is taken in pieces of DOT_BLOCK floats, each one np.dot, and
    math.fsum adds them to the deterministic term: the order of every sum
    is fixed, so beta does not depend on how many threads BLAS runs, as
    long as it sums each piece on one thread (DOT_BLOCK above).
    Each chunk keeps |u - 1/mu| at its C times and the 2W - 1 before them,
    in a buffer the stream allocates once; with the kernel, u and the
    recursion's temporaries the scan peaks near 8 max(H) floats (7.2 at
    K=6).
    """
    H = sys.heights
    lam = sys.level_masses
    inv_mu = 1.0 / float(np.dot(sys.landing, H))
    det = lam * (0.5 - lam)  # weights of the deterministic terms (H_l - m)_+
    kernel = _beta_kernel(sys)
    G = len(kernel)
    pieces = [(s, kernel[s : s + DOT_BLOCK]) for s in range(0, G, DOT_BLOCK)]
    m0, dev = 0, None

    def beta(m: int) -> float:
        i = m - m0
        return math.fsum([np.dot(det, np.maximum(H - m, 0))]
                         + [np.dot(k, dev[i + s : i + s + len(k)]) for s, k in pieces])

    for u in sys.renewal_chunks():
        C = len(u)
        if dev is None:
            dev = np.full(G + C, inv_mu)  # |u - 1/mu| at times m0 - G .. m0 + C - 1
        np.abs(np.subtract(u, inv_mu, out=dev[G:]), out=dev[G:])
        yield m0 + C, beta
        m0 += C
        for s in range(0, G, C):  # carry the last G values; pieces that do not overlap need no copy
            t = min(s + C, G)
            dev[s:t] = dev[s + C : t + C]


def _lag_cap(sys: TowerSystem) -> int:
    """The last lag _mixing_lags scans: max(2^22, 64 max H).

    Before max H, beta carries the deterministic terms of the towers not yet
    left; after it, only the renewal sequence's approach to 1/mu.  A scan's
    cost grows with its last lag and its memory with max H (the 2 max H - 1
    kernel), so 64 max H lags cost a fixed multiple of the first max H; the
    floor of 2^22 lags leaves room for a small eps0, whose lags grow with
    log(1/eps0).  The thm3 c=0.25
    beta=0.5 chains need 30.1 max H at K=2 (107.7 at eps0 = 1e-5), 23.5 at
    K=3 (72.9 at eps0 = 1e-5, last lag 298,537), 8.5 at K=5 and 1.26 at
    K=8 (last lag 10,177,212, past 2^22).
    """
    return max(1 << 22, 64 * int(sys.heights.max()))


def _first_at_most(beta: Callable[[int], float], bound: float, lo: int, at_lo: float,
                   hi: int, at_hi: float) -> tuple[int, float]:
    """(m, beta(m)) for the smallest lag lo < m <= hi with beta(m) <= bound,
    given at_hi = beta(hi) <= bound, at_lo = beta(lo) (nan if not computed)
    and beta non-increasing on [lo, hi].

    Each step tests one lag strictly inside the bracket (lo, hi].  beta
    falls nearly geometrically, so the step takes the line through the last
    two lags tested (at first lo and hi) on log beta, and tests where it
    meets log bound, rounded up into the bracket; once near m, that lands
    within a lag or two of it.  It falls back to the bracket's midpoint when
    the line is not defined, and when the bracket has not shrunk enough for
    a bisection of it to end within 2 ceil(log2(hi - lo)) dots after this
    step: no m costs more dots than that.  The answer satisfies beta(m) <=
    bound < beta(m - 1) (or m = lo + 1), which proves it minimal whichever
    steps found it.
    """
    budget = 2 * (hi - lo - 1).bit_length()  # bisection takes ceil(log2(width)) steps
    (x1, v1), (x2, v2) = (lo, at_lo), (hi, at_hi)  # the last two lags tested
    while hi - lo > 1:
        budget -= 1
        m = (lo + hi) // 2
        if budget >= (hi - lo - 1).bit_length() and v1 > 0.0 and v2 > 0.0 and bound > 0.0:
            rise = math.log(v2) - math.log(v1)
            if rise != 0.0:
                x = x2 + (x2 - x1) * (math.log(bound) - math.log(v2)) / rise
                m = math.ceil(min(max(x, lo + 1), hi - 1))
        at_m = beta(m)
        if at_m <= bound:
            hi, at_hi = m, at_m
        else:
            lo, at_lo = m, at_m
        (x1, v1), (x2, v2) = (x2, v2), (m, at_m)
    return hi, at_hi


def _mixing_lags(sys: TowerSystem, eps: Sequence[float]) -> tuple[list[int], list[float]]:
    """Smallest lags 1 <= m_0 < m_1 < ... <= _lag_cap(sys) with beta(m_k) <= eps_k.

    beta is non-increasing in the lag, and so is its float value while it
    is well above its rounding floor of about 1e-16.  So each chunk of
    _beta_chunks is tested at its last lag alone (the cap if that comes
    first).  When beta there is <= eps_k, the first lag with beta <= eps_k
    lies in the chunk, between the last lag known above eps_k and that last
    lag, and _first_at_most finds it; the next eps is then tested at the
    same last lag.  Fewer lags than eps are returned when the scan passes
    the cap.
    """
    cap = _lag_cap(sys)
    lags: list[int] = []
    betas: list[float] = []
    lo, at_lo = 0, math.nan  # no lag <= lo is searched; at_lo = beta(lo) once computed
    for m1, beta in _beta_chunks(sys):
        hi = min(m1, cap)
        at_hi = beta(hi)
        while len(lags) < len(eps) and lo < hi and at_hi <= eps[len(lags)]:
            lo, at_lo = _first_at_most(beta, eps[len(lags)], lo, at_lo, hi, at_hi)
            lags.append(lo)
            betas.append(at_lo)
        if len(lags) == len(eps) or m1 >= cap:
            return lags, betas
        lo, at_lo = m1, at_hi


def mixing_profile(sys: TowerSystem, lags: Sequence[int]) -> MixingProfile:
    """Exact beta(n) of the tower chain at each lag, an upper bound on alpha(n):
    one dot of _beta_chunks per distinct lag."""
    lags = tuple(int(n) for n in lags)
    if lags and min(lags) < 0:
        raise ValueError("lags must be >= 0")
    want = sorted(set(lags))
    found: dict[int, float] = {}
    for m1, beta in _beta_chunks(sys):
        for m in itertools.takewhile(lambda m: m <= m1, want[len(found):]):
            found[m] = beta(m)
        if len(found) == len(want):
            break
    return MixingProfile(
        lags=lags,
        beta=tuple(found[m] for m in lags),
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
            method="exact", details={"failed_at_k": len(lags), "lag_cap": _lag_cap(sys)},
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
    """gnedenko_baseline(step_law, b, h, n) for each (n, h) of cases.  The
    n-fold laws take O(log max n) convolutions of convolution_powers, each
    within its relative rounding bound of exact and the same to the bit
    whatever the other cases.  The sup runs over every lattice point
    b n + N h inside the support range, with one math.exp per point."""
    if not cases:
        raise ValueError("need at least one (n, h) case")
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
    laws = convolution_powers(step_law.probs, [n for n, _ in cases])
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
