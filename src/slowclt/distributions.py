"""Exact and Monte Carlo laws of partial sums, and Kolmogorov distances.

Lattice laws are exact mixtures of noise convolutions conditioned on the
occupancy count.  The density probe's b_n = P(|g_1+...+g_n| <= sqrt(n)) is
bracketed in rational arithmetic through the Binomial x Irwin-Hall form of
the noise sum; general interval probabilities use a grid convolution whose
error is tracked through the Kolmogorov-distance subadditivity of
independent convolution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded, VariantMismatch
from .towers import enumerate_paths, occupancy_distribution, sample_trajectory_batch

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class LatticeDistribution:
    """Finitely supported law on the integers."""

    offset: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if np.min(p) < -1e-15:
            raise ValueError("negative probability entry")
        if abs(float(p.sum()) - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}")

    @property
    def support(self) -> np.ndarray:
        return self.offset + np.arange(len(self.probs))

    def prob_at(self, v: int) -> float:
        i = v - self.offset
        if 0 <= i < len(self.probs):
            return float(self.probs[i])
        return 0.0

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.support - m) ** 2, self.probs))

    def convolve(self, other: "LatticeDistribution") -> "LatticeDistribution":
        return LatticeDistribution(
            offset=self.offset + other.offset,
            probs=np.convolve(self.probs, other.probs),
        )


@dataclass(frozen=True)
class PiecewiseDensity:
    """Piecewise-constant density: values[i] on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", v)
        if len(bp) != len(v) + 1:
            raise ValueError("need one more breakpoint than values")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must increase")
        if np.min(v) < 0:
            raise ValueError("negative density")

    def integral(self) -> float:
        return float(np.dot(np.diff(self.breakpoints), self.values))

    def max_value(self) -> float:
        return float(np.max(self.values))

    def evaluate(self, x: float) -> float:
        i = int(np.searchsorted(self.breakpoints, x, side="right")) - 1
        if 0 <= i < len(self.values):
            return float(self.values[i])
        return 0.0


@dataclass(frozen=True)
class IntervalProbability:
    """Probability with its certified error bound and computation method."""

    value: float
    error: float
    method: str

    @property
    def lower(self) -> float:
        return max(0.0, self.value - self.error)

    @property
    def upper(self) -> float:
        return min(1.0, self.value + self.error)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function, absolute error < 1e-15."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


TWO_INTERVAL_VARIANCE = 7.0 / 12.0  # Var of the +-[1/2,1] uniform noise


def symmetric_step_sum(a: float, m: int) -> LatticeDistribution:
    """Exact m-fold convolution of the {-1,0,1} noise with P(+-1)=a/2."""
    if not (0.0 < a <= 1.0):
        raise ValueError("a must lie in (0, 1]")
    if m < 0:
        raise ValueError("m must be >= 0")
    probs = np.array([1.0])
    kernel = np.array([a / 2.0, 1.0 - a, a / 2.0])
    for _ in range(m):
        probs = np.convolve(probs, kernel)
    return LatticeDistribution(offset=-m, probs=probs)


def lattice_sum_distribution(model, n: int) -> LatticeDistribution:
    """Exact law of the n-step partial sum of a lattice model: the mixture over
    the occupancy count m of the m-fold noise convolution, which is advanced
    by one kernel step per m, so only one noise law is held at a time."""
    if model.noise.kind != "lattice":
        raise VariantMismatch("lattice_sum_distribution needs a lattice model")
    if n < 1:
        raise ValueError("n must be >= 1")
    active = [[(s, e) for s, e, v in tower if v > 0.5] for tower in model.runs]
    occ = occupancy_distribution(model.system, active, n)
    a = model.noise.a
    kernel = np.array([a / 2.0, 1.0 - a, a / 2.0])
    law = np.array([1.0])
    probs = np.zeros(2 * n + 1)
    for m, w in enumerate(occ.probs):
        if w != 0.0:
            probs[n - m : n + m + 1] += w * law
        law = np.convolve(law, kernel)
    return LatticeDistribution(offset=-n, probs=probs)


def lattice_sum_by_path_enumeration(model, n: int) -> LatticeDistribution:
    """Brute-force oracle: every path of enumerate_paths times every noise outcome."""
    a = model.noise.a
    noise = [(v, p) for v, p in ((-1, a / 2.0), (0, 1.0 - a), (1, a / 2.0)) if p > 0.0]
    outcomes = list(itertools.product(noise, repeat=n))
    values = np.array([[v for v, _ in o] for o in outcomes], dtype=float)
    weights = np.array([math.prod(p for _, p in o) for o in outcomes])
    probs = np.zeros(2 * n + 1)
    weight = model.weight_at(np.arange(model.system.n_states))
    for path, prob in enumerate_paths(model.system, n):
        totals = np.rint(values @ weight[list(path)]).astype(int)
        np.add.at(probs, totals + n, prob * weights)
    return LatticeDistribution(offset=-n, probs=probs)


def _cell_masses_scaled_noise(c: float, left: float, step: float, ncells: int) -> np.ndarray:
    """Exact cell integrals of the density of c*g, g the two-interval noise."""
    edges = left + step * np.arange(ncells + 1)
    # CDF of c*g at x
    def cdf(x):
        y = np.clip(x / c, -1.5, 1.5)
        lo = np.clip(y + 1.0, 0.0, 0.5)       # mass on [-1, -1/2]
        hi = np.clip(y - 0.5, 0.0, 0.5)       # mass on [1/2, 1]
        return lo + hi
    f = cdf(edges)
    return np.diff(f)


def interval_probability(
    coefficients: Sequence[float],
    u: float,
    target_error: float = 1e-6,
    cell_budget: int = 1 << 26,
) -> IntervalProbability:
    """P(sum_j c_j g_j in [-u, u]) for i.i.d. two-interval-uniform noise.

    The grid path quantizes each factor to exact cell masses; Kolmogorov
    distance is subadditive under independent convolution, so the certified
    error is sum_j step/(2 c_j) per CDF endpoint, i.e. twice that in total.
    Raises BudgetExceeded when the grid would exceed the cell budget.
    """
    cs = [float(c) for c in coefficients if c > 0.0]
    if u < 0:
        raise ValueError("u must be >= 0")
    if not cs:
        return IntervalProbability(1.0, 0.0, "exact")
    if len(cs) == 1:
        c = cs[0]
        v = min(np.clip(2 * u / c - 1.0, 0.0, 1.0), 1.0)  # P(|g| <= u/c)
        return IntervalProbability(float(v), 0.0, "exact")

    inv_sum = sum(1.0 / c for c in cs)
    step = target_error / inv_sum  # total error = 2 * sum step/(2 c_j)
    width = 2.0 * sum(cs) + 4.0 * step
    ncells = int(math.ceil(width / step))
    if ncells > cell_budget:
        raise BudgetExceeded(f"grid needs {ncells} cells, budget is {cell_budget}")
    return _interval_probability_grid(cs, u, step)


def _irwin_hall_cdf_scaled(n: int, X: int, Q: int) -> int:
    """n! Q^n P(U_1 + ... + U_n <= X/Q) for i.i.d. U(0, 1), as an integer."""
    if X <= 0:
        return 0
    if X >= n * Q:
        return math.factorial(n) * Q**n
    return sum((-1) ** k * math.comb(n, k) * (X - k * Q) ** n for k in range(X // Q + 1))


def two_interval_sum_probability(n: int, u):
    """P(|g_1 + ... + g_n| <= u) as a Fraction, for rational u >= 0.

    g = s (3/4 + V) with a fair sign s and V ~ U(-1/4, 1/4), and s V has the
    law of V, so S_n = (3/4)(2J - n) + (IH_n - n/2)/2 with J ~ Bin(n, 1/2)
    and IH_n the Irwin-Hall sum of n uniforms on [0, 1] (Irwin 1927; Hall
    1927), independent of J.  Given J = j, |S_n| <= u is the event
    IH_n in [n/2 - 2u - 3(2j - n)/2, n/2 + 2u - 3(2j - n)/2].
    """
    from fractions import Fraction

    if n < 1:
        raise ValueError("n must be >= 1")
    u = Fraction(u)
    if u < 0:
        raise ValueError("u must be >= 0")
    # every Irwin-Hall argument is X/Q with X an integer: the interval's
    # centre n/2 - 3(2j - n)/2 = 2n - 3j is an integer and 2u = U2/Q
    Q = u.denominator
    U2 = 2 * u.numerator
    total = 0
    for j in range(n + 1):
        centre = (2 * n - 3 * j) * Q
        inside = (_irwin_hall_cdf_scaled(n, centre + U2, Q)
                  - _irwin_hall_cdf_scaled(n, centre - U2, Q))
        total += math.comb(n, j) * inside
    return Fraction(total, 2**n * math.factorial(n) * Q**n)


ROOT_N_BITS = 64  # sqrt(n) is bracketed between multiples of 2^-64


def root_n_interval_bracket(n: int):
    """Fractions lo <= P(|g_1 + ... + g_n| <= sqrt(n)) <= hi.

    The probability is non-decreasing in u, so it is bracketed by its values
    at u_lo = isqrt(n 4^64)/2^64 <= sqrt(n) and u_lo + 2^-64 > sqrt(n); for
    a perfect square n both ends are the exact value at u = isqrt(n).
    """
    from fractions import Fraction

    if n < 1:
        raise ValueError("n must be >= 1")
    r = math.isqrt(n)
    if r * r == n:
        v = two_interval_sum_probability(n, r)
        return v, v
    scale = 1 << ROOT_N_BITS
    u_lo = Fraction(math.isqrt(n * scale * scale), scale)
    return (two_interval_sum_probability(n, u_lo),
            two_interval_sum_probability(n, u_lo + Fraction(1, scale)))


def root_n_interval_probability(n: int) -> IntervalProbability:
    """b_n = P(|g_1 + ... + g_n| <= sqrt(n)) for the two-interval noise, exactly.

    value is the lower end of root_n_interval_bracket rounded down to a
    float and error is (upper end - value) rounded up, so the probability
    lies in [value, value + error]: the float rounding is inside error and
    there is no sampling error.
    """
    from fractions import Fraction

    lo, hi = root_n_interval_bracket(n)
    value = float(lo)
    if Fraction(value) > lo:
        value = math.nextafter(value, -math.inf)
    gap = hi - Fraction(value)
    error = float(gap)
    if Fraction(error) < gap:
        error = math.nextafter(error, math.inf)
    return IntervalProbability(value, error, "exact-rational")


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) * len(b) < 1 << 22:
        return np.convolve(a, b)
    return _fft_convolve(a, b)


def _interval_probability_grid(cs: Sequence[float], u: float, step: float) -> IntervalProbability:
    # Group equal coefficients and use convolution-by-squaring.  Each factor
    # is an atom vector: masses[i] sits at start + i*step (cell midpoints),
    # and convolving two vectors adds their start positions.
    groups: dict[float, int] = {}
    for c in cs:
        groups[c] = groups.get(c, 0) + 1
    total = None  # (masses, start)
    for c, count in sorted(groups.items()):
        ncells = int(math.ceil(2.0 * c / step)) + 2
        left = -0.5 * ncells * step
        base = _cell_masses_scaled_noise(c, left, step, ncells)
        bstart = left + 0.5 * step
        power, pstart = None, 0.0
        cur, cstart = base, bstart
        k = count
        while k:
            if k & 1:
                if power is None:
                    power, pstart = cur, cstart
                else:
                    power, pstart = _conv(power, cur), pstart + cstart
            k >>= 1
            if k:
                cur, cstart = _conv(cur, cur), 2.0 * cstart
        if total is None:
            total = (power, pstart)
        else:
            total = (_conv(total[0], power), total[1] + pstart)
    masses, start = total
    masses = np.maximum(masses, 0.0)
    pos = start + step * np.arange(len(masses))
    inside = (pos >= -u) & (pos <= u)
    value = float(masses[inside].sum() / masses.sum())
    err = sum(step / c for c in cs)  # two endpoints, step/(2c) each
    return IntervalProbability(value, err, "grid")


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    fa = np.fft.rfft(a, size)
    fa *= np.fft.rfft(b, size)
    out = np.fft.irfft(fa, size)[:n]
    return out


def kolmogorov_distance(dist: LatticeDistribution, sigma: float, n: int) -> float:
    """sup_x |P(S_n <= x sigma sqrt(n)) - Phi(x)|, exact at the lattice jumps."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    scale = sigma * math.sqrt(n)
    cdf = np.cumsum(dist.probs)
    best = 0.0
    for i, v in enumerate(dist.support):
        phi = normal_cdf(v / scale)
        lo = cdf[i - 1] if i > 0 else 0.0
        best = max(best, abs(cdf[i] - phi), abs(lo - phi))
    return float(best)


def sample_partial_sums(model, n: int, reps: int, seed: int) -> np.ndarray:
    """reps independent stationary Monte Carlo samples of the n-step sum."""
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    towers, levels = sample_trajectory_batch(model.system, seed, n, reps)
    w = model.weight_at(model.system.offsets[towers] + levels)
    g = model.noise.sample(np.random.default_rng(np.random.SeedSequence([int(seed), 0x6e6f6973])), (reps, n))
    return (w * g).sum(axis=1)
