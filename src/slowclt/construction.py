"""Parameter schedules and counterexample process models.

A schedule turns a target rate sequence a_n into per-index parameters
(probe times n_k, tower heights H_k, set masses d_k, tower masses p_k, ...)
for one of three construction variants; a process model glues the resulting
tower system to an independent noise factor through a weight, so that the
observable is weight(state) * g.  Each tower weighs 0 on a bottom slab of
levels and one value above it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadConstants,
    DegenerateModel,
    ScheduleInfeasible,
    VariantMismatch,
)
from .towers import TowerSpec, TowerSystem, build_tower_system

SEARCH_CAP = 10**7  # the largest probe time a schedule may take
DENSITY_TAIL_MASS = 1e-12  # density_of_f drops the bands past this tail mass

SQRT2 = math.sqrt(2.0)
GEOM_BASE = (SQRT2 - 1.0) / SQRT2  # leading tower mass of the density variant


class RateSequence:
    """The power-law target rate a_n = c * n^-beta, for finite c > 0 and beta > 0."""

    def __init__(self, c: float, beta: float):
        for name, v in (("c", c), ("beta", beta)):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
                    math.isfinite(v) and v > 0):
                raise ValueError(f"power law needs a finite number {name} > 0, got {v!r}")
        self.c, self.beta = float(c), float(beta)
        self.descriptor = {"family": "power-law", "c": self.c, "beta": self.beta}

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError("rate sequence is indexed from 1")
        a = float(self.c * n ** (-self.beta))
        if a <= 0.0:
            raise ValueError(f"a_{n} = {a} must be positive")
        return a

    @staticmethod
    def from_descriptor(desc: dict) -> "RateSequence":
        if desc.get("family") != "power-law" or set(desc) - {"family", "c", "beta"}:
            raise ValueError(f"a rate is a power law with keys family, c and beta, got {desc!r}")
        return RateSequence(desc.get("c"), desc.get("beta"))


def _smallest_n_with_rate_below(a: RateSequence, threshold: float, lo: int) -> int:
    """Smallest n in [lo, SEARCH_CAP] with a_n <= threshold; ScheduleInfeasible
    when there is none.  c n^-beta <= threshold from n = (c/threshold)^(1/beta)
    on, so one step at a time from that n settles the float comparison, whose
    1e-12 relative slack accepts exact ties (e.g. a power-law rate meeting a
    dyadic threshold on the nose) despite floating-point rounding.
    """
    tol = threshold * (1.0 + 1e-12)
    cap = SEARCH_CAP
    if lo > cap:
        raise ScheduleInfeasible(f"no n <= {cap} is left to probe after n = {lo - 1}")
    try:
        n = min(max(math.ceil((a.c / threshold) ** (1.0 / a.beta)), lo), cap)
    except OverflowError:  # the power, or its ceiling, is past any float
        n = cap
    while n > lo and a(n - 1) <= tol:
        n -= 1
    while a(n) > tol:
        if n == cap:
            raise ScheduleInfeasible(
                f"no n <= {cap} with a_n <= {threshold:.6g} (a_{cap} = {a(cap):.6g})"
            )
        n += 1
    return n


def _probe_times(a: RateSequence, thresholds: Sequence[float]) -> list[int]:
    """n_0 < n_1 < ...: each n_k the smallest n > n_{k-1} with a_n <= thresholds[k]."""
    ns: list[int] = []
    for t in thresholds:
        ns.append(_smallest_n_with_rate_below(a, t, ns[-1] + 1 if ns else 1))
    return ns


@dataclass(frozen=True)
class Schedule:
    variant: str  # "thm1" | "thm2" | "thm3"
    n: tuple[int, ...]  # probe times
    H: tuple[int, ...]  # realized tower heights
    d: tuple[float, ...]  # set masses / weights
    p: tuple[float, ...]  # tower masses
    rho: tuple[float, ...]
    eps: tuple[float, ...] = ()
    remainder_mass: float = 0.0
    remainder_height: int = 1
    rate_descriptor: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)  # L1, L2, L, c1, c2, ...

    def __post_init__(self):
        for name in ("n", "H", "d", "p", "rho", "eps"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def K(self) -> int:
        return len(self.n)


def derive_schedule_thm1(a: RateSequence, K: int) -> Schedule:
    """Lattice-variant schedule: d_k = 2 a_{n_k}, rho_k = 2^{-k-1}.

    n_k is the smallest admissible time with a_{n_k} <= 2^{-k-3}, which
    forces sum_k a_{n_k} < 1/2 and sum_k d_k < 1.  The tower height H_k is
    the smallest integer whose base-slab mass keeps the realized invariance
    defect n_k^2 * (p_k / H_k) at or below rho_k * d_k.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    ns = _probe_times(a, [2.0 ** (-(k + 3)) for k in range(K)])
    rhos = [2.0 ** (-(k + 1)) for k in range(K)]
    ds = [2.0 * a(n) for n in ns]
    # mu(A_k) = d_k with A_k the lowest H-n+1 levels => level mass
    # d_k/(H-n+1); defect sum_{i<n} i*levelmass <= n^2 levelmass / 2.
    # Required: n^2 * levelmass <= rho_k d_k, i.e. H >= n^2/rho_k + n - 1.
    hs = [math.ceil(n * n / rho) + n - 1 for n, rho in zip(ns, rhos)]
    ps = [d * H / (H - n + 1) for d, H, n in zip(ds, hs, ns)]
    if sum(ds) >= 1.0:
        raise ScheduleInfeasible("sum of set masses d_k reached 1")
    rem = 1.0 - sum(ps)
    if rem <= 0.0:
        raise ScheduleInfeasible("tower masses exhausted the space")
    return Schedule("thm1", ns, hs, ds, ps, rhos, remainder_mass=rem,
                    remainder_height=_remainder_height(hs, min_height=max(ns) + 1),
                    rate_descriptor=dict(a.descriptor))


def derive_schedule_thm2(a: RateSequence, L1: float, L2: float, L: float, K: int) -> Schedule:
    """Density-variant schedule with the geometric tower-mass family."""
    if K < 2:
        raise ValueError("K must be >= 2")
    if L2 < 10.0 * L1:
        raise BadConstants(f"need L2 >= 10*L1, got L1={L1}, L2={L2}")
    ps = [GEOM_BASE * 2.0 ** (-k / 2.0) for k in range(K)]
    ds = [p / (L1 if k % 2 == 0 else L2) for k, p in enumerate(ps)]
    c1_closed = GEOM_BASE**3 * 8.0 / 7.0
    c2_closed = c1_closed / (2.0 * SQRT2)
    c1_trunc = sum(p**3 for k, p in enumerate(ps) if k % 2 == 0)
    c2_trunc = sum(p**3 for k, p in enumerate(ps) if k % 2 == 1)
    sigma2_closed = (7.0 / 12.0) * (c1_closed / L1**2 + c2_closed / L2**2)
    sigma2_trunc = (7.0 / 12.0) * sum(p * d * d for p, d in zip(ps, ds))
    sigma = math.sqrt(sigma2_trunc)
    rhos = [d / sigma for d in ds]
    ns = _probe_times(a, rhos)
    # H_k = 2 n_k, but H_0 = 2 n_0 + 1 is odd.  The kept heights may still
    # share a factor (c=0.05 beta=1 K=2 gives H = (3, 6)); the remainder
    # height is taken coprime to it, so the chain is aperiodic
    hs = [2 * n for n in ns]
    hs[0] += 1
    return Schedule(
        "thm2", ns, hs, ds, ps, rhos,
        remainder_mass=2.0 ** (-K / 2.0),  # exact geometric tail mass
        remainder_height=_remainder_height(hs, min_height=2 * max(ns)),
        rate_descriptor=dict(a.descriptor),
        constants={
            "L1": L1,
            "L2": L2,
            "L": L,
            "c1_closed": c1_closed,
            "c2_closed": c2_closed,
            "c1_truncated": c1_trunc,
            "c2_truncated": c2_trunc,
            "c1_remainder": c1_closed - c1_trunc,
            "c2_remainder": c2_closed - c2_trunc,
            "sigma2_closed": sigma2_closed,
            "sigma2_truncated": sigma2_trunc,
        },
    )


def derive_schedule_thm3(a: RateSequence, K: int, eps0: float = 0.05) -> Schedule:
    """Mixing-variant schedule: p_k >= 4 a_{n_k}, H_k >= 4 n_k^2, gcd(H) = 1."""
    if K < 2:
        raise ValueError("K must be >= 2")
    caps = [2.0 ** (-k / 2.0) / (2.0 * SQRT2) for k in range(K)]
    scale = min(1.0, 0.96 / sum(caps))
    ns = _probe_times(a, [scale * t / 4.0 for t in caps])
    ps = [4.0 * a(n) for n in ns]
    hs = [4 * n * n for n in ns]
    if sum(ps) >= 1.0:
        raise ScheduleInfeasible("tower masses p_k reached 1")
    # the remainder is taken coprime to gcd(4 n_k^2) before the tallest tower
    # is bumped: that tower alone lands too little mass to break the chain's
    # near 2-periodicity
    rem_h = _remainder_height(hs, min_height=max(ns) + 1)
    while math.gcd(*hs) > 1:
        hs[-1] += 1
    return Schedule(
        "thm3", ns, hs,
        d=[(H - n + 1) * p / (2 * H) for H, n, p in zip(hs, ns, ps)],
        p=ps,
        rho=[n * n / H for n, H in zip(ns, hs)],
        eps=[eps0 * 2.0 ** (-k) for k in range(K)],
        remainder_mass=1.0 - sum(ps),
        remainder_height=rem_h,
        rate_descriptor=dict(a.descriptor),
    )


# the constants each variant's schedule takes
VARIANT_CONSTANTS = {
    "thm1": (),
    "thm2": ("L1", "L2", "L"),
    "thm3": ("eps0",),
}


def derive_schedule(variant: str, a: RateSequence, K: int, **constants) -> Schedule:
    """Dispatch to the per-variant schedule rule.

    constants holds only names of VARIANT_CONSTANTS[variant], each a finite
    number (eps0 and L1 positive); anything else raises BadConstants.
    Density-variant constants default to L1=1, L2=100, L=4.
    """
    if variant not in VARIANT_CONSTANTS:
        raise VariantMismatch(f"unknown variant {variant!r}")
    allowed = VARIANT_CONSTANTS[variant]
    for name, v in constants.items():
        if name not in allowed:
            raise BadConstants(f"{variant} takes constants {list(allowed)}, not {name!r}")
        number = not isinstance(v, bool) and (
            isinstance(v, int) or isinstance(v, float) and math.isfinite(v))
        positive = name in ("eps0", "L1")
        if not number or (positive and v <= 0):
            raise BadConstants(f"constant {name} must be a {'positive' if positive else 'finite'} "
                               f"number, got {v!r}")
    if variant == "thm1":
        return derive_schedule_thm1(a, K)
    if variant == "thm2":
        return derive_schedule_thm2(a, constants.get("L1", 1.0), constants.get("L2", 100.0),
                                    constants.get("L", 4.0), K)
    return derive_schedule_thm3(a, K, **constants)


def _remainder_height(heights: Sequence[int], min_height: int) -> int:
    h = max(2, min_height)
    while math.gcd(math.gcd(*heights), h) > 1:
        h += 1
    return h


# -- noise ---------------------------------------------------------------


class LatticeNoise:
    """The fair coin: P(g = -1) = P(g = +1) = 1/2; mean 0, variance 1."""

    kind = "lattice"
    variance = 1.0

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.where(rng.random(size) < 0.5, -1.0, 1.0)


class TwoIntervalUniformNoise:
    """Density 1 on [-1, -1/2] union [1/2, 1]; mean 0, variance 7/12."""

    kind = "two-interval-uniform"

    @property
    def variance(self) -> float:
        return 7.0 / 12.0

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        mag = rng.uniform(0.5, 1.0, size=size)
        sign = rng.integers(0, 2, size=size) * 2 - 1
        return mag * sign


# -- process models -------------------------------------------------------


@dataclass(frozen=True)
class ProcessModel:
    """Tower system + noise + weight; f(state, g) = weight(state) * g.

    Tower l has weight 0 on its lowest slab[l] levels and value[l] on the
    levels above; slab[l] = height means weight 0 throughout.  A lattice
    model's weight is 0 or 1, so the levels above its slabs are its active set.
    """

    variant: str
    system: TowerSystem
    noise: object
    slab: tuple
    value: tuple
    schedule: Optional[Schedule] = None

    def __post_init__(self):
        heights = self.system.heights.tolist()
        if not len(self.slab) == len(self.value) == len(heights):
            raise ValueError("slab and value need one entry per tower")
        for l, (s, v, h) in enumerate(zip(self.slab, self.value, heights)):
            if not (0 <= s <= h and s == int(s)):
                raise ValueError(f"slab of tower {l} must be an integer in [0, {h}], got {s}")
            if self.noise.kind == "lattice" and s < h and v != 1.0:
                raise ValueError(f"a lattice model weighs 0 or 1, but tower {l} has {v}")

    @property
    def sigma2(self) -> float:
        lam = self.system.level_masses
        heights = self.system.heights.tolist()
        return math.fsum(lam[l] * (h - s) * v * v for l, (s, v, h)
                         in enumerate(zip(self.slab, self.value, heights))) * self.noise.variance

    @property
    def mu_inactive(self) -> float:
        """Measure of the zero-weight set A."""
        lam = self.system.level_masses
        heights = self.system.heights.tolist()
        return math.fsum(lam[l] * (h if v == 0.0 else s) for l, (s, v, h)
                         in enumerate(zip(self.slab, self.value, heights)))

    def weight_at(self, idx) -> np.ndarray:
        """Weight of each flat state index: 0 in its tower's slab, the tower's value above."""
        tower = np.searchsorted(self.system.offsets, idx, side="right") - 1
        level = idx - self.system.offsets[tower]
        return np.where(level < np.array(self.slab)[tower], 0.0, np.array(self.value)[tower])


def build_counterexample(sched: Schedule) -> ProcessModel:
    """The variant's model: the fair coin LatticeNoise() for thm1 and thm3,
    TwoIntervalUniformNoise for thm2."""
    towers = []  # (spec, slab, value) of each tower
    for H, n, p, d in zip(sched.H, sched.n, sched.p, sched.d):
        if sched.variant == "thm2":
            towers.append((TowerSpec(H, p), 0, d))
        elif sched.variant == "thm1":
            # the near-invariant slab A_k is the lowest H - n + 1 levels
            towers.append((TowerSpec(H, p), H - n + 1, 1.0))
        else:
            # a marked and an unmarked half of equal mass; the
            # near-invariant slab lives in the marked half only
            towers += [(TowerSpec(H, p / 2.0), H - n + 1, 1.0), (TowerSpec(H, p / 2.0), 0, 1.0)]
    # the remainder tower carries weight 0 in the density variant, 1 otherwise
    rem = TowerSpec(sched.remainder_height, sched.remainder_mass)
    if sched.variant == "thm2":
        towers.append((rem, rem.height, 0.0))
        noise = TwoIntervalUniformNoise()
    else:
        towers.append((rem, 0, 1.0))
        noise = LatticeNoise()
    specs, slab, value = zip(*towers)
    model = ProcessModel(sched.variant, build_tower_system(specs), noise, slab, value, sched)
    mu_a = model.mu_inactive
    if not (0.0 < mu_a < 1.0):
        raise DegenerateModel(f"mu(A) = {mu_a} is degenerate")
    return model


def intersection_lower_bound(sched: Schedule, k: int) -> float:
    """Exact mu of the set whose length-n_k window stays inside A_k.

    From the tower geometry: A_k spans the lowest H-n+1 levels (of the
    marked half for the mixing variant), so the intersection over the
    window spans the lowest H-2n+2 levels.
    """
    H, n = sched.H[k], sched.n[k]
    levels = max(0, H - 2 * n + 2)
    if sched.variant == "thm1":
        return levels * sched.p[k] / H
    if sched.variant == "thm3":
        return levels * sched.p[k] / (2 * H)
    raise VariantMismatch("intersection bound is defined for lattice variants")


def density_of_f(model: ProcessModel):
    """Piecewise-constant density of the density-variant f over the untruncated
    geometric family of towers.

    Bands are emitted for k < k_max, the first index whose tail mass
    2^{-k/2} is at most DENSITY_TAIL_MASS.  The bands past it are left out,
    so their mass is the density's integral deficit.
    """
    from .distributions import PiecewiseDensity

    if model.variant != "thm2":
        raise VariantMismatch("density_of_f needs the density variant")
    consts = model.schedule.constants
    L1, L2 = consts["L1"], consts["L2"]
    k_max = 0
    while 2.0 ** (-k_max / 2.0) > DENSITY_TAIL_MASS:
        k_max += 1
    bands = []
    for k in range(k_max):
        p_k = GEOM_BASE * 2.0 ** (-k / 2.0)
        bands.append((p_k, p_k / (L1 if k % 2 == 0 else L2)))
    pos = sorted({x for _, d_k in bands for x in (d_k / 2.0, d_k)})
    mids = [0.5 * (lo + hi) for lo, hi in zip(pos, pos[1:])]
    vals = [0.0] * len(mids)
    # band k covers the intervals whose mid lies in [d_k/2, d_k); adding the
    # bands in k order keeps each interval's sum in the order of the k loop
    for p_k, d_k in bands:
        for i in range(bisect.bisect_left(mids, d_k / 2.0), bisect.bisect_left(mids, d_k)):
            vals[i] += p_k / d_k  # equals L1 or L2
    # the middle interval (-pos[0], pos[0]) lies below every emitted band
    bps = np.array([-x for x in reversed(pos)] + pos)
    values = np.array(list(reversed(vals)) + [0.0] + vals)
    return PiecewiseDensity(breakpoints=bps, values=values)
