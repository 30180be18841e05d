"""Parameter schedules and counterexample process models.

A schedule turns a target rate sequence a_n into per-index parameters
(probe times n_k, tower heights H_k, set masses d_k, tower masses p_k, ...)
for one of three construction variants; a process model glues the resulting
tower system to an independent noise factor through a weight that is
constant on runs of levels, so that the observable is weight(state) * g.
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

DEFAULT_SEARCH_CAP = 10**7
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
    def power_law(c: float, beta: float) -> "RateSequence":
        return RateSequence(c, beta)

    @staticmethod
    def from_descriptor(desc: dict) -> "RateSequence":
        if desc.get("family") != "power-law" or set(desc) - {"family", "c", "beta"}:
            raise ValueError(f"a rate is a power law with keys family, c and beta, got {desc!r}")
        return RateSequence(desc.get("c"), desc.get("beta"))


def _smallest_n_with_rate_below(
    a: RateSequence, threshold: float, lo: int, cap: int
) -> int:
    """Smallest n in [lo, cap] with a_n <= threshold, scanning by doubling +
    bisection; ScheduleInfeasible when there is none.

    The comparison carries a 1e-12 relative slack so exact ties (e.g. a
    power-law rate meeting a dyadic threshold on the nose) are accepted
    despite floating-point rounding.
    """
    tol = threshold * (1.0 + 1e-12)
    if lo > cap:
        raise ScheduleInfeasible(f"search_cap {cap} is below the smallest n left to probe, {lo}")
    if a(lo) <= tol:
        return lo
    hi = lo
    while True:
        hi = min(2 * hi, cap)
        if a(hi) <= tol:
            break
        if hi == cap:
            raise ScheduleInfeasible(
                f"no n <= {cap} with a_n <= {threshold:.6g} (a_{cap} = {a(cap):.6g})"
            )
    # a is declared non-increasing, so bisection is sound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class Schedule:
    variant: str  # "thm1" | "thm2" | "thm3"
    n: tuple[int, ...]  # probe times
    H: tuple[int, ...]  # realized tower heights
    d: tuple[float, ...]  # set masses / weights
    p: tuple[float, ...]  # tower masses
    rho: tuple[float, ...]
    eps: tuple[float, ...] = ()
    # always (): the lags are in the mixing record's details["m_lags"]; the
    # field stays because the certificate's schedule record carries it
    m_lags: tuple[int, ...] = ()
    delta: tuple[float, ...] = ()
    remainder_mass: float = 0.0
    remainder_height: int = 1
    rate_descriptor: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)  # L1, L2, L, c1, c2, ...

    @property
    def K(self) -> int:
        return len(self.n)


def derive_schedule_thm1(
    a: RateSequence, K: int, search_cap: int = DEFAULT_SEARCH_CAP
) -> Schedule:
    """Lattice-variant schedule: d_k = 2 a_{n_k}, rho_k = 2^{-k-1}.

    n_k is the smallest admissible time with a_{n_k} <= 2^{-k-3}, which
    forces sum_k a_{n_k} < 1/2 and sum_k d_k < 1.  The tower height H_k is
    the smallest integer whose base-slab mass keeps the realized invariance
    defect n_k^2 * (p_k / H_k) at or below rho_k * d_k.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    ns, hs, ds, rhos, ps = [], [], [], [], []
    prev = 0
    for k in range(K):
        n_k = _smallest_n_with_rate_below(a, 2.0 ** (-(k + 3)), prev + 1, search_cap)
        a_k = a(n_k)
        d_k = 2.0 * a_k
        rho_k = 2.0 ** (-(k + 1))
        # mu(A_k) = d_k with A_k the lowest H-n+1 levels => level mass
        # d_k/(H-n+1); defect sum_{i<n} i*levelmass <= n^2 levelmass / 2.
        # Required: n^2 * levelmass <= rho_k d_k, i.e. H >= n^2/rho_k + n - 1.
        H_k = math.ceil(n_k * n_k / rho_k) + n_k - 1
        p_k = d_k * H_k / (H_k - n_k + 1)
        ns.append(n_k)
        hs.append(H_k)
        ds.append(d_k)
        rhos.append(rho_k)
        ps.append(p_k)
        prev = n_k
    if sum(ds) >= 1.0:
        raise ScheduleInfeasible("sum of set masses d_k reached 1")
    rem = 1.0 - sum(ps)
    if rem <= 0.0:
        raise ScheduleInfeasible("tower masses exhausted the space")
    rem_h = _remainder_height(hs, min_height=max(ns) + 1)
    return Schedule(
        variant="thm1",
        n=tuple(ns),
        H=tuple(hs),
        d=tuple(ds),
        p=tuple(ps),
        rho=tuple(rhos),
        remainder_mass=rem,
        remainder_height=rem_h,
        rate_descriptor=dict(a.descriptor),
    )


def derive_schedule_thm2(
    a: RateSequence,
    L1: float,
    L2: float,
    L: float,
    K: int,
    search_cap: int = DEFAULT_SEARCH_CAP,
) -> Schedule:
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
    ns, hs, rhos = [], [], []
    prev = 0
    for k in range(K):
        rho_k = ds[k] / sigma
        n_k = _smallest_n_with_rate_below(a, rho_k, prev + 1, search_cap)
        H_k = 2 * n_k
        ns.append(n_k)
        hs.append(H_k)
        rhos.append(rho_k)
        prev = n_k
    # gcd of kept heights must be 1; H = 2n is always even, so bump H_0
    # to the next odd value (still >= 2 n_0).
    if math.gcd(*hs) > 1:
        hs[0] += 1
    rem = 2.0 ** (-K / 2.0)  # exact geometric tail mass
    rem_h = _remainder_height(hs, min_height=2 * max(ns))
    return Schedule(
        variant="thm2",
        n=tuple(ns),
        H=tuple(hs),
        d=tuple(ds),
        p=tuple(ps),
        rho=tuple(rhos),
        remainder_mass=rem,
        remainder_height=rem_h,
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


def derive_schedule_thm3(
    a: RateSequence,
    K: int,
    search_cap: int = DEFAULT_SEARCH_CAP,
    eps0: float = 0.05,
) -> Schedule:
    """Mixing-variant schedule: p_k >= 4 a_{n_k}, H_k >= 4 n_k^2, gcd(H) = 1."""
    if K < 2:
        raise ValueError("K must be >= 2")
    caps = [2.0 ** (-k / 2.0) / (2.0 * SQRT2) for k in range(K)]
    scale = min(1.0, 0.96 / sum(caps))
    caps = [scale * t for t in caps]
    ns, ps, hs = [], [], []
    prev = 0
    for k in range(K):
        n_k = _smallest_n_with_rate_below(a, caps[k] / 4.0, prev + 1, search_cap)
        p_k = 4.0 * a(n_k)
        H_k = 4 * n_k * n_k
        ns.append(n_k)
        ps.append(p_k)
        hs.append(H_k)
        prev = n_k
    if sum(ps) >= 1.0:
        raise ScheduleInfeasible("tower masses p_k reached 1")
    while math.gcd(*hs) > 1:
        hs[-1] += 1
    rem = 1.0 - sum(ps)
    rem_h = _remainder_height(hs, min_height=max(ns) + 1)
    eps = tuple(eps0 * 2.0 ** (-k) for k in range(K))
    # remainder-mass ratios: delta_k = p'_{k+1} / p'_k with p'_k the mass
    # still unassigned before step k
    deltas = []
    unassigned = 1.0
    for p_k in ps:
        nxt = unassigned - p_k
        deltas.append(nxt / unassigned)
        unassigned = nxt
    return Schedule(
        variant="thm3",
        n=tuple(ns),
        H=tuple(hs),
        d=tuple((H - n + 1) * p / (2 * H) for H, n, p in zip(hs, ns, ps)),
        p=tuple(ps),
        rho=tuple(n * n / H for n, H in zip(ns, hs)),
        eps=eps,
        delta=tuple(deltas),
        remainder_mass=rem,
        remainder_height=rem_h,
        rate_descriptor=dict(a.descriptor),
    )


# the constants each variant's schedule takes
VARIANT_CONSTANTS = {
    "thm1": ("search_cap",),
    "thm2": ("L1", "L2", "L", "search_cap"),
    "thm3": ("search_cap", "eps0"),
}


def derive_schedule(variant: str, a: RateSequence, K: int, **constants) -> Schedule:
    """Dispatch to the per-variant schedule rule.

    constants holds only names of VARIANT_CONSTANTS[variant], each a finite
    number (search_cap an int >= 1; eps0 and L1 positive); anything else
    raises BadConstants.  Density-variant constants default to L1=1, L2=100,
    L=4.
    """
    if variant not in VARIANT_CONSTANTS:
        raise VariantMismatch(f"unknown variant {variant!r}")
    allowed = VARIANT_CONSTANTS[variant]
    for name, v in constants.items():
        if name not in allowed:
            raise BadConstants(f"{variant} takes constants {list(allowed)}, not {name!r}")
        number = not isinstance(v, bool) and (
            isinstance(v, int) or isinstance(v, float) and math.isfinite(v))
        if name == "search_cap" and not (number and isinstance(v, int) and v >= 1):
            raise BadConstants(f"constant search_cap must be an int >= 1, got {v!r}")
        positive = name in ("eps0", "L1")
        if not number or (positive and v <= 0):
            raise BadConstants(f"constant {name} must be a {'positive' if positive else 'finite'} "
                               f"number, got {v!r}")
    if variant == "thm1":
        return derive_schedule_thm1(a, K, **constants)
    if variant == "thm2":
        L1 = constants.pop("L1", 1.0)
        L2 = constants.pop("L2", 100.0)
        L = constants.pop("L", 4.0)
        return derive_schedule_thm2(a, L1, L2, L, K, **constants)
    return derive_schedule_thm3(a, K, **constants)


def _remainder_height(heights: Sequence[int], min_height: int) -> int:
    h = max(2, min_height)
    while math.gcd(math.gcd(*heights), h) > 1:
        h += 1
    return h


# -- noise ---------------------------------------------------------------


class LatticeNoise:
    """P(g = +-1) = a/2, P(g = 0) = 1 - a; mean 0, variance a."""

    kind = "lattice"

    def __init__(self, a: float):
        if not (0.0 < a <= 1.0):
            raise ValueError("a must lie in (0, 1]")
        self.a = a

    @property
    def variance(self) -> float:
        return self.a

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        u = rng.random(size)
        return np.where(u < self.a / 2, -1.0, np.where(u < self.a, 1.0, 0.0))


class TwoIntervalUniformNoise:
    """Density 1 on [-1, -1/2] union [1/2, 1]; mean 0, variance 7/12."""

    kind = "two-interval-uniform"
    a = None

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

    runs[l] holds tower l's weight as runs (start, end, value): value on
    levels start .. end - 1, the runs in order and covering [0, height).
    """

    variant: str
    system: TowerSystem
    noise: object
    runs: tuple
    schedule: Optional[Schedule] = None

    def __post_init__(self):
        if len(self.runs) != len(self.system.towers):
            raise ValueError("runs need one list per tower")
        for l, (tower, h) in enumerate(zip(self.runs, self.system.heights.tolist())):
            edges = [0] + [e for _, e, _ in tower]
            starts = [s for s, _, _ in tower]
            if starts != edges[:-1] or edges != sorted(set(edges)) or edges[-1] != h:
                raise ValueError(f"runs of tower {l} must be non-empty and cover "
                                 f"[0, {h}) in order")

    @property
    def sigma2(self) -> float:
        lam = self.system.level_masses
        return math.fsum(lam[l] * (e - s) * v * v for l, tower in enumerate(self.runs)
                         for s, e, v in tower) * self.noise.variance

    @property
    def mu_inactive(self) -> float:
        """Measure of the zero-weight set A."""
        lam = self.system.level_masses
        return math.fsum(lam[l] * (e - s) for l, tower in enumerate(self.runs)
                         for s, e, v in tower if v == 0.0)

    def weight_at(self, idx) -> np.ndarray:
        """Weight of each flat state index, read off the run that holds it."""
        offsets = self.system.offsets
        starts = [a0 + s for a0, tower in zip(offsets, self.runs) for s, _, _ in tower]
        values = np.array([v for tower in self.runs for _, _, v in tower])
        return values[np.searchsorted(starts, idx, side="right") - 1]


def _slab_runs(H: int, slab: int) -> tuple:
    """Weight 0 on the lowest `slab` levels, the near-invariant slab A_k, and 1 above."""
    return tuple(r for r in ((0, slab, 0.0), (slab, H, 1.0)) if r[0] < r[1])


def build_counterexample(sched: Schedule, noise=None) -> ProcessModel:
    if noise is None:
        noise = TwoIntervalUniformNoise() if sched.variant == "thm2" else LatticeNoise(1.0)
    if sched.variant in ("thm1", "thm3") and noise.kind != "lattice":
        raise VariantMismatch(f"{sched.variant} needs lattice noise")
    if sched.variant == "thm2" and noise.kind != "two-interval-uniform":
        raise VariantMismatch("thm2 needs two-interval-uniform noise")
    specs, runs = [], []
    for H, n, p, d in zip(sched.H, sched.n, sched.p, sched.d):
        if sched.variant == "thm2":
            specs.append(TowerSpec(H, p))
            runs.append(((0, H, d),))
        elif sched.variant == "thm1":
            specs.append(TowerSpec(H, p))
            runs.append(_slab_runs(H, H - n + 1))
        else:
            # a marked and an unmarked half of equal mass; the
            # near-invariant slab lives in the marked half only
            specs += [TowerSpec(H, p / 2.0), TowerSpec(H, p / 2.0)]
            runs += [_slab_runs(H, H - n + 1), ((0, H, 1.0),)]
    # the remainder tower carries weight 0 in the density variant, 1 otherwise
    specs.append(TowerSpec(sched.remainder_height, sched.remainder_mass))
    runs.append(((0, sched.remainder_height, float(sched.variant != "thm2")),))
    model = ProcessModel(sched.variant, build_tower_system(specs), noise, tuple(runs), sched)
    mu_a = model.mu_inactive
    if not (0.0 < mu_a < 1.0):
        raise DegenerateModel(f"mu(A) = {mu_a} is degenerate")
    return model


def tower_chain_system(sched: Schedule) -> TowerSystem:
    """The level chain of the schedule's towers, one tower per index.

    For the mixing variant this is the chain whose beta coefficients are
    certified: the marked/unmarked split used to place the slabs A_k is a
    fiber label, not part of the tower dynamics.
    """
    specs = [TowerSpec(H, p) for H, p in zip(sched.H, sched.p)]
    specs.append(TowerSpec(sched.remainder_height, sched.remainder_mass))
    return build_tower_system(specs)


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
