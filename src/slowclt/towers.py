"""Finite Rokhlin-tower systems.

A system is a finite family of towers; inside a tower the dynamics climbs
levels deterministically, and from any top level it jumps to the base of a
destination tower drawn from one landing row, which does not depend on the
tower left.  The row sends the trajectory to tower ``l`` with probability
proportional to the base-level measure ``mass_l / height_l``, which makes
the level-uniform measure stationary.  The occupancy laws count a
stationary trajectory's visits to the active levels, those above each
tower's bottom slab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import MassSumError

MASS_TOL = 1e-9
CONSISTENCY_TOL = 1e-12
TRAJECTORY_BLOCK = 1 << 14  # reps per substream of sample_trajectory_batch


@dataclass(frozen=True)
class TowerSpec:
    """One tower: number of levels and its total measure."""

    height: int
    mass: float

    def __post_init__(self):
        if self.height < 1:
            raise ValueError(f"tower height must be >= 1, got {self.height}")
        if not (0.0 < self.mass <= 1.0):
            raise ValueError(f"tower mass must lie in (0, 1], got {self.mass}")


@dataclass(frozen=True)
class OccupancyDistribution:
    """Exact law of the number of active steps in a length-n window."""

    window: int
    probs: np.ndarray  # index m in [0, window]

    def __post_init__(self):
        if len(self.probs) != self.window + 1:
            raise ValueError(f"a window of {self.window} needs {self.window + 1} "
                             f"probabilities, got {len(self.probs)}")
        total = float(np.sum(self.probs))
        if not abs(total - 1.0) < CONSISTENCY_TOL:
            raise ValueError(f"occupancy probabilities sum to {total!r}, not 1")


class TowerSystem:
    """Immutable tower family with its landing row.

    landing[d] is the probability that a trajectory leaving any top level
    lands on the base of tower d: proportional to the base-level mass
    mass_d / height_d.
    """

    def __init__(self, towers: Sequence[TowerSpec]):
        self.towers = tuple(towers)
        total = sum(t.mass for t in self.towers)
        if abs(total - 1.0) > MASS_TOL:
            raise MassSumError(f"tower masses sum to {total!r}, not 1")
        base = np.array([t.mass / t.height for t in self.towers])
        row = base / base.sum()
        # Renormalize to the internal 1e-12 consistency level.
        self.landing = row / row.sum()
        self._masses = np.array([t.mass for t in self.towers]) / total
        self.heights = np.array([t.height for t in self.towers], dtype=int)
        self.level_masses = self._masses / self.heights
        self.offsets = np.concatenate([[0], np.cumsum(self.heights)])
        self.n_states = int(self.offsets[-1])

    def stationary_array(self) -> np.ndarray:
        """Stationary probability of every state, flat-indexed (small systems)."""
        return np.repeat(self.level_masses, self.heights)

    def is_aperiodic(self) -> bool:
        return math.gcd(*[t.height for t in self.towers]) == 1

    def push_forward(self, dist: np.ndarray) -> np.ndarray:
        """One step of the dynamics applied to a flat state distribution."""
        # every state climbs one level; a base receives the mass of all tops
        out = np.roll(dist, 1)
        out[self.offsets[:-1]] = dist[self.offsets[1:] - 1].sum() * self.landing
        return out

    def renewal_chunks(self) -> Iterator[np.ndarray]:
        """Yield u(m0 .. m0 + C - 1) for m0 = 0, C, 2C, ..., C a multiple of L
        with max(max H, 1024) <= C < max(max H, 1024) + L (L below).

        The landing row r does not depend on the tower left, so after a landing
        the chain's law is fixed by the renewal sequence (Feller, An Introduction
        to Probability Theory, Vol. I, ch. XIII) u(0) = 1, u(t) = sum_d r_d
        u(t - H_d), u(t < 0) = 0: at age a the state is (d, i) with probability
        r_d u(a - i), and pi(d, i) = r_d / mu with mu = sum r_d H_d.

        u is solved in blocks of L = qB lags, q rows of B = min H.  The
        towers of height B (ties merged) land with a = their summed r_d; the
        others, the lowest h1 high, read only lags before the block, as
        q = max(1, min(h1 // B, 8)).  Row i is Y_i = a Y_(i-1) + sum_d r_d
        S_d[i], S_d the q x B view of u that lies H_d before the block, so
            Y = T0 (x) Y_(-1) + T1 sum_d r_d S_d = [T0 | r_1 T1 | ...] @ Z,
        T0[i] = a^(i+1), T1[i, p] = a^(i-p) for p <= i, else 0, each exact and
        rounded once; Z gathers the row before the block and the S_d at
        offsets made once per stream.  u(0) = 1 puts a^i at lag iB of block 0.
        All terms are non-negative, so each value is within a factor
        1 +- gamma_g, g = 2 + q(K - #ties), of the exact block map of the
        values before it (Higham, Accuracy and Stability of Numerical
        Algorithms, ch. 3); the map is monotone and lag t hangs on t // L + 1
        blocks, so u(t) is within (1 +- gamma_g)^(t // L + 1) of exact (2.0e-15
        measured at thm3 c=0.25 beta=0.5 K=3).  Only the last max(H) values are
        carried over, and the yielded buffer is overwritten by the next chunk.
        """
        H, r = self.heights, self.landing
        W, B = int(H.max()), int(H.min())
        others = [(rd, hd) for rd, hd in zip(r.tolist(), H.tolist()) if hd > B]
        q = max(1, min(min((hd for _, hd in others), default=8 * B) // B, 8))
        L = q * B
        # C >= max(H) keeps the carried history; C >= 1024 keeps numpy calls few per lag
        C = -(-max(W, 1024) // L) * L
        n, d = sum(map(Fraction, r[H == B].tolist())).as_integer_ratio()  # a = n / d

        def powers(c):  # c a^k for k = 0 .. q, exact in integers, rounded once
            cn, cd = c.as_integer_ratio()
            return np.array([cn * n**k / (cd * d**k) for k in range(q + 1)])

        below = np.subtract.outer(np.arange(q), np.arange(q))  # i - p
        M = np.hstack([powers(1)[1:, None]] + [np.tril(powers(rd)[below]) for rd, _ in others])
        # Z's rows start at these lags, the block's at 0: the row before, then each S_d
        offsets = np.array([-B] + [p - hd for _, hd in others for p in range(0, L, B)])
        u = np.zeros(W + C)  # times m0 - W .. m0 + C - 1
        rows = np.lib.stride_tricks.sliding_window_view(u, B)
        plan = list(zip(W + offsets + np.arange(0, C, L)[:, None], u[W:].reshape(-1, q, B)))
        u[W : W + L : B] = powers(1)[:q]
        first = 1  # block 0 of the first chunk holds only u(0) = 1 and its landings
        while True:
            for at, out in plan[first:]:
                np.dot(M, rows[at], out=out)
            yield u[W:]
            u[:W] = u[C:]
            first = 0


def build_tower_system(specs: Sequence[TowerSpec]) -> TowerSystem:
    return TowerSystem(specs)


def sample_trajectory_batch(
    sys: TowerSystem, seed: int, n: int, reps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized stationary trajectories: (reps, n) arrays of tower and level.

    Deterministic per seed: block b of TRAJECTORY_BLOCK reps draws from its
    own substream SeedSequence([seed, b]), so every full block is the same
    whatever reps is.  A start is one uniform draw u, read through the
    cumulative tower masses to a tower and then through its level mass to a
    level: the draw and the cumulative-mass search of
    rng.choice(n_states, p=stationary_array()), with no per-state table.
    """
    towers = np.empty((reps, n), dtype=np.int32)
    levels = np.empty((reps, n), dtype=np.int32)
    heights = sys.heights
    upto = np.cumsum(sys._masses)
    below = upto - sys._masses
    cum = np.cumsum(sys.landing)
    for b0 in range(0, reps, TRAJECTORY_BLOCK):
        b1 = min(b0 + TRAJECTORY_BLOCK, reps)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), b0 // TRAJECTORY_BLOCK]))
        u = rng.random(b1 - b0)
        tw = np.minimum(np.searchsorted(upto, u, side="right"), len(heights) - 1).astype(np.int32)
        lv = np.minimum((u - below[tw]) // sys.level_masses[tw], heights[tw] - 1).astype(np.int32)
        for t in range(n):
            towers[b0:b1, t] = tw
            levels[b0:b1, t] = lv
            if t == n - 1:
                break
            at_top = lv == heights[tw] - 1
            lv = lv + 1
            if np.any(at_top):
                u = rng.random(int(at_top.sum()))
                dest = np.searchsorted(cum, u)
                tw = tw.copy()
                tw[at_top] = dest
                lv[at_top] = 0
    return towers, levels


def _window_counts(sys: TowerSystem, slab: np.ndarray, n: int) -> np.ndarray:
    """hist[d, c] = #{0 <= j <= h_d - n : c active levels among j .. j + n - 1
    of tower d}, 0 for towers lower than n.  That count is
    min(n, max(0, j + n - s_d)), so for c < n the starts counting at most c
    are the j <= s_d - n + c."""
    starts = np.maximum(sys.heights - n + 1, 0)
    upto = np.clip(slab[:, None] - n + 1 + np.arange(n + 1), 0, starts[:, None])
    upto[:, n] = starts
    return np.diff(upto, axis=1, prepend=0)


BLOCK_ROWS = 64  # the most landing rows made at once: see occupancy_distributions


def _tail_segments(sys: TowerSystem, slab: np.ndarray, n: int) -> list[tuple]:
    """Window n's starts that leave a top, as (tower, first row, end row, tail
    at the first row, active) tuples: start j of tower d reads landing row
    n - h_d + j in [1, n), shifted by its tail, the active levels from j to
    the top.  The tail is constant on the starts in the slab and falls by one
    per row on the active run above it."""
    segs = []
    for d, (h, s) in enumerate(zip(sys.heights.tolist(), slab.tolist())):
        first = max(h - n + 1, 0)  # the start of row 1, or the base
        a = max(s, first)
        if first < a:
            segs.append((d, n - h + first, n - h + a, h - a, False))
        if a < h:
            segs.append((d, n - h + a, n, h - a, True))
    return segs


def occupancy_distributions(sys: TowerSystem, slab, windows) -> list[OccupancyDistribution]:
    """Exact law of m = #{0 <= i < n : state_i active}, stationary start, at
    each window n, from one pass over the landing rows.

    Tower l's active levels are those above its lowest slab[l].  A window is
    cut at the first top it leaves: the part before is counted from the start
    level and the slab; the r steps after, from a base drawn by the one
    landing row, have the count law land[r] whatever the start.  Windows that
    leave no top are counted in closed form per tower.

    land[r] sums, in tower order, a point for each tower of height >= r and
    land[r - h_d] shifted by tower d's active count for each shorter one.
    The rows are made in row order, in blocks of B = min(min H, BLOCK_ROWS)
    that read only earlier blocks, and each block is added into every
    window's law as soon as it is made: a summed row segment where a start's
    shift is constant, a skewed (diagonal) sum along an active run.  A ring
    of max{h_d < N - 1} + B rows, rounded up to a multiple of B, of
    N + 1 + B floats holds them, N the largest window; O(K N^2) time.  No
    row depends on the windows, so no window's law depends on the others.
    """
    windows = [int(n) for n in windows]
    if not windows or min(windows) < 1:
        raise ValueError("need at least one window, each >= 1")
    slab = np.asarray(slab)
    if (slab.shape != sys.heights.shape or not np.all((slab >= 0) & (slab <= sys.heights))
            or np.any(slab % 1 != 0)):
        raise ValueError("slab needs one integer level count in [0, height] per tower")
    slab = slab.astype(np.int64)
    N = max(windows)
    heights, landing, w = sys.heights.tolist(), sys.landing.tolist(), sys.level_masses
    full = (sys.heights - slab).tolist()  # active levels of each tower
    # head[d, r] = active levels among the first r of tower d, r <= min(h_d, N - 1)
    head = np.maximum(np.minimum(np.arange(N), sys.heights[:, None]) - slab[:, None], 0)
    B = min(min(heights), BLOCK_ROWS)
    R = -(-max([h for h in heights if h < N - 1], default=0) // B) * B + B
    W = N + 1 + B
    # slot r % R holds row r; the columns past N and the B zeros at each end
    # of flat stay 0, so a skewed view of a block reads zeros past its rows
    flat = np.zeros(R * W + 2 * B)
    ring, tmp = flat[B : B + R * W].reshape(R, W), np.empty((B, N))
    jobs = []  # each window's law so far, and the row segments of its starts
    for n in windows:
        occ = (w[:, None] * _window_counts(sys, slab, n)).sum(axis=0)
        jobs.append((occ, _tail_segments(sys, slab, n)))
    for r0 in range(0, N, B):
        r1 = min(r0 + B, N)
        rows = ring[r0 % R : r0 % R + r1 - r0]
        # a row past h_0 starts with tower 0's pass, written rather than added;
        # the row its slot held before wrote only columns < r1 - R <= r1 - h_0,
        # so none of them lies past the pass
        a = min(max(heights[0] + 1 - r0, 0), r1 - r0)
        rows[:a, :r1] = 0.0
        rows[a:, : full[0]] = 0.0
        for d, (p, h, c) in enumerate(zip(landing, heights, full)):
            if r0 <= h:  # land inside tower d
                t1 = min(r1, h + 1)
                rows[np.arange(t1 - r0), head[d, r0:t1]] += p
            a = max(r0, h + 1)
            while a < r1:  # a full pass through tower d, then a fresh landing
                b = min(r1, a + R - (a - h) % R)  # the rows read stop at the ring's end
                src = ring[(a - h) % R : (a - h) % R + b - a, : r1 - h]
                dst = rows[a - r0 : b - r0, c : c + r1 - h]
                if d == 0:
                    np.multiply(src, p, out=dst)
                else:
                    dst += np.multiply(src, p, out=tmp[: b - a, : r1 - h])
                a = b
        if r0 == 0:
            rows[0, 0] = 1.0
        sums = {}  # row-segment sums of this block, shared by towers and windows
        for occ, segs in jobs:
            for d, ra, rb, t, diag in segs:
                q0, q1 = max(ra, r0), min(rb, r1)
                if q0 >= q1:
                    continue
                if (q0, q1, diag) not in sums:
                    if diag:  # row q0 + i lands at t - i + c: sum along diagonals
                        at = B + q0 % R * W - (q1 - q0 - 1)
                        view = flat[at : at + (q1 - q0) * (W + 1)].reshape(q1 - q0, W + 1)
                    else:
                        view = ring[q0 % R : q0 % R + q1 - q0]
                    sums[q0, q1, diag] = view[:, :q1].sum(axis=0)
                if diag:  # the diagonal sum starts where the piece's last row lands
                    t -= q1 - 1 - ra
                occ[t : t + q1] += w[d] * sums[q0, q1, diag]
    return [OccupancyDistribution(window=n, probs=occ / occ.sum())
            for n, (occ, _) in zip(windows, jobs)]


def occupancy_distribution(sys: TowerSystem, slab, n: int) -> OccupancyDistribution:
    """Exact law of m = #{0 <= i < n : state_i active}, stationary start:
    occupancy_distributions at the one window n.  The landing rows stream in
    row order, in blocks of B = min(min H, BLOCK_ROWS), through a ring of
    about max{h_d < n - 1} + B rows of n + 1 + B floats; O(K n^2) time."""
    return occupancy_distributions(sys, slab, [n])[0]


def enumerate_paths(sys: TowerSystem, n: int) -> Iterator[tuple[tuple[int, ...], float]]:
    """Brute-force oracle: every length-n path of flat state indices from a
    stationary start, with its probability."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pi = sys.stationary_array()
    tops = set((sys.offsets[1:] - 1).tolist())
    bases = sys.offsets[:-1].tolist()

    def extend(path, prob):
        if len(path) == n:
            yield path, prob
        elif path[-1] in tops:
            for b, p in zip(bases, sys.landing):
                if p > 0.0:
                    yield from extend(path + (b,), prob * p)
        else:
            yield from extend(path + (path[-1] + 1,), prob)

    for s in range(sys.n_states):
        yield from extend((s,), pi[s])


def occupancy_by_path_enumeration(sys: TowerSystem, slab, n: int) -> np.ndarray:
    """Brute-force oracle: the occupancy law summed over enumerate_paths, a
    state active when its level is at least its tower's slab."""
    levels = np.arange(sys.n_states) - np.repeat(sys.offsets[:-1], sys.heights)
    act = levels >= np.repeat(slab, sys.heights)
    occ = np.zeros(n + 1)
    for path, prob in enumerate_paths(sys, n):
        occ[int(act[list(path)].sum())] += prob
    return occ
