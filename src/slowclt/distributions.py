"""Exact and Monte Carlo laws of partial sums, and Kolmogorov distances.

Lattice laws are exact mixtures, over the occupancy count m, of the m-fold
convolutions of the fair coin, the one lattice noise.  The density probe's
b_n = P(|g_1+...+g_n| <= sqrt(n)) is one exact rational evaluation just
below sqrt(n), and the noise sum's density, at most 1, bounds what it
leaves out.  The Binomial x Irwin-Hall
form of the noise sum regroups into one CDF sum over O(n) distinct
Irwin-Hall points, weighted by the coefficients of (1 + y^3)^n (1 - y)^n,
and the symmetry of the sum leaves only its lower tail to evaluate.
General interval probabilities use a grid convolution whose error is
tracked through the Kolmogorov-distance subadditivity of independent
convolution.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded, VariantMismatch
from .towers import occupancy_distribution, occupancy_distributions, sample_trajectory_batch

NORMALIZATION_TOL = 1e-12
_TINY = np.finfo(float).tiny  # 2^-1022, the smallest normal float


@dataclass(frozen=True)
class LatticeDistribution:
    """Finitely supported law on the integers."""

    offset: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if not np.min(p) >= -1e-15:
            raise ValueError("negative or NaN probability entry")
        if not abs(float(p.sum()) - 1.0) <= NORMALIZATION_TOL:
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
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must increase")
        if not np.min(v) >= 0:
            raise ValueError("negative or NaN density")

    def integral(self) -> float:
        return float(np.dot(np.diff(self.breakpoints), self.values))

    def max_value(self) -> float:
        return float(np.max(self.values))


@dataclass(frozen=True)
class IntervalProbability:
    """Probability with its certified error bound and computation method."""

    value: float
    error: float
    method: str

    @property
    def lower(self) -> float:
        return max(0.0, self.value - self.error)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function, absolute error < 1e-15."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def convolution_powers(probs, ns, conv=None) -> dict[int, np.ndarray]:
    """{n: the n-fold convolution power of probs} for each n >= 0 of ns, by
    repeated squaring (Knuth, TAOCP vol. 2, 4.6.3): n is the product of the
    2^i-fold powers at its set bits, in increasing i, whatever the other n,
    so floor(log2 max n) squarings and popcount(n) - 1 products per n.

    conv defaults to np.convolve; the grid passes one that switches to FFT.
    With np.convolve and w non-negative taps, each entry is within gamma_S =
    S u / (1 - S u) of exact, relative, S = (w - 1) n floor(log2 n) + n - 1
    (Higham 2002, 3.1), barring underflow: a term passes each product once,
    through one multiplication and at most L - 1 additions in any order,
    L <= (w - 1) f + 1 the length of the shorter, f-fold operand, and a tap
    is in the shorter operand at most floor(log2 n) times.
    """
    conv = conv or np.convolve
    pow2 = [np.asarray(probs, dtype=float)]
    while 2 ** len(pow2) <= max(ns):
        pow2.append(conv(pow2[-1], pow2[-1]))
    out = {}
    for n in set(ns):
        bits = [p for i, p in enumerate(pow2) if n >> i & 1]
        out[n] = functools.reduce(conv, bits) if bits else np.ones(1)
    return out


def _lattice(model) -> tuple:
    """The slabs of a lattice model, below which its towers are inactive."""
    if model.noise.kind != "lattice":
        raise VariantMismatch("lattice_sum_distribution needs a lattice model")
    return model.slab


def _mixtures(occs) -> list[LatticeDistribution]:
    """The law of S_n for each occupancy law occ, occ[m] = P(m active steps)
    in a window of n = len(occ) - 1: the mixture over m of the m-fold coin
    law.  One chain of coin laws serves all windows, on the parity
    sublattice with kernel [1/2, 1/2], and each parity class of S_n is
    summed in its own array.  Exact zeros are left out, and so are both ends
    while both are subnormal (below 2^-1022, from m = 1023; slow to add).
    At most N such pairs go in N steps, each of mass under 2^-1021, so up to
    rounding each law of a window of N is within N 2^-1021 of the unflushed
    chain's in total absolute difference, and the same to the bit while no
    end is subnormal."""
    kernel = np.array([0.5, 0.5])
    ns = [len(occ) - 1 for occ in occs]
    # part[x % 2, x // 2] = P(S_n = x - n)
    parts = [np.zeros((2, n + 1)) for n in ns]
    law, lo = np.array([1.0]), 0  # law[i] is the chain's entry lo + i
    for m in range(max(ns) + 1):
        for n, occ, part in zip(ns, occs, parts):
            x = n - m
            if x >= 0 and occ[m] != 0.0:
                start = x // 2 + lo
                part[x % 2, start : start + len(law)] += occ[m] * law
        law = np.convolve(law, kernel)
        while law[0] < _TINY and law[-1] < _TINY:
            law, lo = law[1:-1], lo + 1
    return [LatticeDistribution(-n, part.T.ravel()[: 2 * n + 1]) for n, part in zip(ns, parts)]


def lattice_sum_distributions(model, windows) -> list[LatticeDistribution]:
    """Exact laws of the n-step partial sums of a lattice model at each window
    n: one pass of occupancy_distributions and one coin chain serve them
    all, each law the same to the bit as lattice_sum_distribution at its n.
    O(#skeletons K^2 + K N + N^2) time, N the largest window."""
    return _mixtures(occupancy_distributions(model.system, _lattice(model), windows))


def lattice_sum_distribution(model, n: int) -> LatticeDistribution:
    """Exact law of the n-step partial sum of a lattice model: the mixture over
    the occupancy count m (occupancy_distribution at n) of the m-fold coin
    law.  O(#skeletons K^2 + K n + n^2) time and O(K n) memory."""
    return _mixtures([occupancy_distribution(model.system, _lattice(model), n)])[0]


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
    g is symmetric, so c g has the law of |c| g: the sign of a coefficient
    does not matter and a zero one drops out.  Raises ValueError for a
    coefficient that is not finite, and BudgetExceeded when the grid would
    exceed the cell budget.
    """
    if not all(math.isfinite(c) for c in coefficients):
        raise ValueError("coefficients must be finite")
    cs = [abs(float(c)) for c in coefficients if c != 0.0]
    if not u >= 0:
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


def _tail_coefficients(n: int) -> list[int]:
    """d_0, ..., d_{2n-1}, the low half of (1 + y^3)^n (1 - y)^n = sum_e d_e y^e.

    P = (1 + y^3)^n (1 - y)^n solves (1 - y)(1 + y^3) P' = n (-1 + 3y^2 - 4y^3) P,
    whose coefficients give (m + 1) d_{m+1} = (m - n) d_m + (3n - m + 2) d_{m-2}
    + (m - 3 - 4n) d_{m-3} with d_0 = 1; every division is exact.
    """
    d = [0, 0, 0, 1]  # d_{-3}, d_{-2}, d_{-1}, d_0
    for m in range(2 * n - 1):
        d.append(((m - n) * d[m + 3] + (3 * n - m + 2) * d[m + 1]
                  + (m - 3 - 4 * n) * d[m]) // (m + 1))
    return d[3:]


def two_interval_sum_probability(n: int, u) -> Fraction:
    """P(|g_1 + ... + g_n| <= u) as a Fraction, for rational u >= 0.

    g = s (3/4 + V) with a fair sign s and V ~ U(-1/4, 1/4), and s V has the
    law of V, so S_n = (3/4)(2J - n) + (IH_n - n/2)/2 with J ~ Bin(n, 1/2)
    and IH_n the Irwin-Hall sum of n uniforms on [0, 1] (Irwin 1927; Hall
    1927), independent of J.  Given J = j, S_n < -u is the event IH_n <
    2n - 3j - 2u, and n! P(IH_n <= x) = sum_k (-1)^k C(n, k) (x - k)_+^n.
    Grouping the double sum over j and k by e = 3j + k gives one CDF sum

        2^n n! P(S_n < -u) = sum_e d_e (2n - e - 2u)_+^n,
        d_e = [y^e] (1 + y^3)^n (1 - y)^n,

    over the e < 2n - 2u.  S_n is symmetric with a density, so P(|S_n| <= u)
    = 1 - 2 P(S_n < -u).  The arithmetic is in integers, so the Fraction is
    exact.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u = Fraction(u)
    if u < 0:
        raise ValueError("u must be >= 0")
    d = _tail_coefficients(n)
    # 2u = U2/Q, so with i = 2n - e each term is d_e (iQ - U2)^n / Q^n, an
    # integer over Q^n, and it is nonzero for the i > 2u
    Q = u.denominator
    U2 = 2 * u.numerator
    scale = 2**n * math.factorial(n) * Q**n
    tail = sum(d[2 * n - i] * (i * Q - U2) ** n for i in range(U2 // Q + 1, 2 * n + 1))
    return Fraction(scale - 2 * tail, scale)


ROOT_N_BITS = 64  # b_n is evaluated at a rational p/q with sqrt(n) - 2^-64 <= p/q <= sqrt(n)


def root_n_lower(n: int) -> Fraction:
    """The lower convergent or semiconvergent p/q of sqrt(n) of smallest q
    with (n q^2 - p^2) / (p q) <= 2^(1 - ROOT_N_BITS), a bound on 2 (sqrt(n) - p/q).

    The lower convergents p_k/q_k (k even) of sqrt(n)'s continued fraction
    and the semiconvergents (p_k + i p_{k+1}) / (q_k + i q_{k+1}), i <=
    a_{k+2}, between them rise towards sqrt(n) as q grows (Khinchin,
    Continued Fractions, ch. I-II), and n/x - x falls as x = p/q rises, so
    only the semiconvergents below the first lower convergent that meets
    the bound are tried.  q has about ROOT_N_BITS / 2 bits, half as many as
    rounding to a multiple of 2^-ROOT_N_BITS takes.  A square n gives its
    root.
    """
    a0 = math.isqrt(n)
    if a0 * a0 == n:
        return Fraction(a0)

    def close(p, q):
        return (n * q * q - p * p) << (ROOT_N_BITS - 1) <= p * q

    m, d, a = 0, 1, a0  # the complete quotient (m + sqrt(n)) / d and its floor
    pl, ql, pu, qu = a0, 1, 1, 0  # the last lower convergent and the upper one before it
    for k in itertools.count(1):
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        if k % 2:
            pu, qu = pu + a * pl, qu + a * ql
        elif close(pl + a * pu, ql + a * qu):
            i = next(i for i in range(1, a + 1) if close(pl + i * pu, ql + i * qu))
            return Fraction(pl + i * pu, ql + i * qu)
        else:
            pl, ql = pl + a * pu, ql + a * qu


def root_n_interval_probability(n: int) -> IntervalProbability:
    """b_n = P(|g_1 + ... + g_n| <= sqrt(n)) for the two-interval noise.

    One exact evaluation, at u_lo = root_n_lower(n), so sqrt(n) - 2^-64 <=
    u_lo <= sqrt(n) with a denominator of about 32 bits.  g has density <=
    1, and convolving with a probability law cannot raise a density's
    supremum, so S_n has density <= 1 and b_n - P(|S_n| <= u_lo) = P(u_lo <
    |S_n| <= sqrt(n)) <= 2 (sqrt(n) - u_lo) <= 2^-63.  value is P(|S_n| <=
    u_lo) rounded down to a float and error is (that - value) + 2^-63
    rounded up, so b_n lies in [value, value + error]: the float rounding
    and the gap to sqrt(n) are inside error and there is no sampling error.
    """
    lo = two_interval_sum_probability(n, root_n_lower(n))
    value = float(lo)
    if Fraction(value) > lo:
        value = math.nextafter(value, -math.inf)
    gap = lo - Fraction(value) + Fraction(2, 1 << ROOT_N_BITS)
    error = float(gap)
    if Fraction(error) < gap:
        error = math.nextafter(error, math.inf)
    return IntervalProbability(value, error, "exact-rational")


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) * len(b) < 1 << 22:
        return np.convolve(a, b)
    return _fft_convolve(a, b)


def _interval_probability_grid(cs: Sequence[float], u: float, step: float) -> IntervalProbability:
    # Group equal coefficients and take each group's power with
    # convolution_powers.  Each factor is an atom vector: masses[i] sits at
    # start + i*step (cell midpoints), and convolving two adds their starts.
    groups: dict[float, int] = {}
    for c in cs:
        groups[c] = groups.get(c, 0) + 1
    powers, start = [], 0.0
    for c, count in sorted(groups.items()):
        ncells = int(math.ceil(2.0 * c / step)) + 2
        left = -0.5 * ncells * step
        base = _cell_masses_scaled_noise(c, left, step, ncells)
        powers.append(convolution_powers(base, [count], _conv)[count])
        start += count * (left + 0.5 * step)
    masses = np.maximum(functools.reduce(_conv, powers), 0.0)
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
    """sup_x |P(S_n <= x sigma sqrt(n)) - Phi(x)|, exact at the lattice jumps:
    the CDF at and just below each support point against Phi there."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    cdf = np.cumsum(np.concatenate([[0.0], dist.probs]))  # P(S_n < v), then P(S_n <= v)
    # one math.erfc per point: numpy has no erfc
    phi = np.array([normal_cdf(x) for x in (dist.support / (sigma * math.sqrt(n))).tolist()])
    return float(max(np.abs(cdf[1:] - phi).max(), np.abs(cdf[:-1] - phi).max()))


def sample_partial_sums(model, n: int, reps: int, seed: int) -> np.ndarray:
    """reps independent stationary Monte Carlo samples of the n-step sum."""
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    towers, levels = sample_trajectory_batch(model.system, seed, n, reps)
    w = model.weight_at(model.system.offsets[towers] + levels)
    g = model.noise.sample(np.random.default_rng(np.random.SeedSequence([int(seed), 0x6e6f6973])), (reps, n))
    return (w * g).sum(axis=1)
