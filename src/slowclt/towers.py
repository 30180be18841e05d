"""Finite Rokhlin-tower systems.

A system is a finite family of towers; inside a tower the dynamics climbs
levels deterministically, and from any top level it jumps to the base of a
destination tower drawn from one landing row, which does not depend on the
tower left.  The row sends the trajectory to tower ``l`` with probability
proportional to the base-level measure ``mass_l / height_l``, which makes
the level-uniform measure stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _knots(sys: TowerSystem, active) -> tuple[np.ndarray, np.ndarray]:
    """Knots (xp, fp) of pref(x), the number of active states below flat state
    index x, from each tower's active intervals [start, end): pref has slope
    1 on each interval and slope 0 between them, so np.interp reads it
    exactly, every value being an integer below 2^53."""
    if len(active) != len(sys.towers):
        raise ValueError("active needs one list of intervals per tower")
    tower = np.array([l for l, iv in enumerate(active) for _ in iv], dtype=np.int64)
    s, e = (np.array([se for iv in active for se in iv], dtype=np.int64).reshape(-1, 2)
            + sys.offsets[tower, None]).T
    if (np.any(s >= e) or np.any(s[1:] < e[:-1]) or np.any(s < sys.offsets[tower])
            or np.any(e > sys.offsets[tower + 1])):
        raise ValueError("active intervals must be non-empty, sorted, disjoint "
                         "and inside their tower")
    cum = np.cumsum(e - s)
    return (np.concatenate([[0], np.column_stack([s, e]).ravel()]),
            np.concatenate([[0], np.column_stack([cum - (e - s), cum]).ravel()]))


def _prefix(knots: tuple[np.ndarray, np.ndarray], x) -> np.ndarray:
    return np.interp(x, *knots).astype(np.int64)


def _window_counts(sys: TowerSystem, knots, n: int) -> np.ndarray:
    """hist[d, c] = #{0 <= j <= h_d - n : c active levels among j .. j + n - 1
    of tower d}, 0 for towers lower than n.  Over one tower's starts the count
    pref(j + n) - pref(j) is linear in j, of slope -1, 0 or 1, between breaks
    among the knots and the knots minus n, so each segment adds its length
    to one bin or one to each bin of a range."""
    base = sys.offsets[:-1]
    last = base + sys.heights - n + 1  # tower d's starts are base[d] .. last[d] - 1
    cuts = np.concatenate([base, last, knots[0], knots[0] - n])
    cuts = np.unique(cuts[(cuts >= 0) & (cuts <= sys.n_states)])
    d = np.searchsorted(base, cuts[:-1], side="right") - 1
    keep = cuts[:-1] < last[d]
    lo, hi, d = cuts[:-1][keep], cuts[1:][keep] - 1, d[keep]
    p = _prefix(knots, np.concatenate([lo, hi, lo + n, hi + n])).reshape(4, -1)
    c_lo, c_hi = p[2] - p[0], p[3] - p[1]
    flat = c_lo == c_hi
    hist = np.zeros((len(base), n + 2), dtype=np.int64)
    np.add.at(hist, (d[~flat], np.minimum(c_lo, c_hi)[~flat]), 1)
    np.add.at(hist, (d[~flat], np.maximum(c_lo, c_hi)[~flat] + 1), -1)
    hist = np.cumsum(hist, axis=1)
    np.add.at(hist, (d[flat], c_lo[flat]), (hi - lo + 1)[flat])
    return hist[:, : n + 1]


BLOCK_ROWS = 64  # the most landing rows made at once: see occupancy_distributions


def _tail_segments(sys: TowerSystem, knots, n: int):
    """Window n's starts that leave a top, as (tower, first row, end row,
    tail at the first row, active) arrays: start j of tower d reads landing
    row n - h_d + j in [1, n), shifted by its tail, the active levels from j
    to the top, constant on an inactive stretch and falling by one per row
    on an active one."""
    base, top = sys.offsets[:-1], sys.offsets[1:]
    first = base + np.maximum(sys.heights - n + 1, 0)  # the start of row 1, or the base
    cuts = np.unique(np.concatenate([first, top, knots[0]]))
    d = np.searchsorted(base, cuts[:-1], side="right") - 1
    keep = cuts[:-1] >= first[d]
    x0, x1, d = cuts[:-1][keep], cuts[1:][keep], d[keep]
    p0, p1 = _prefix(knots, np.concatenate([x0, x1])).reshape(2, -1)
    row = n - top[d]
    return d, x0 + row, x1 + row, _prefix(knots, top)[d] - p0, p1 - p0 == x1 - x0


def occupancy_distributions(sys: TowerSystem, active, windows) -> list[OccupancyDistribution]:
    """Exact law of m = #{0 <= i < n : state_i active}, stationary start, at
    each window n, from one pass over the landing rows.

    active[l] lists tower l's active levels as R sorted intervals (start,
    end).  A window is cut at the first top it leaves: the part before is
    read off the start tower's prefix counts; the r steps after, from a base
    drawn by the one landing row, have the count law land[r] whatever the
    start.  Windows that leave no top are counted per segment of their start.

    land[r] sums, in tower order, a point for each tower of height >= r and
    land[r - h_d] shifted by tower d's active count for each shorter one.
    The rows are made in row order, in blocks of B = min(min H, BLOCK_ROWS)
    that read only earlier blocks, and each block is added into every
    window's law as soon as it is made: a summed row segment where a start's
    shift is constant, a skewed (diagonal) sum along an active run.  A ring
    of max{h_d < N - 1} + B rows, rounded up to a multiple of B, of
    N + 1 + B floats holds them, N the largest window; O(R log R + K N^2)
    time.  No row depends on the windows, so no window's law depends on the
    others.
    """
    windows = [int(n) for n in windows]
    if not windows or min(windows) < 1:
        raise ValueError("need at least one window, each >= 1")
    knots = _knots(sys, active)
    N = max(windows)
    heights, landing, w = sys.heights.tolist(), sys.landing.tolist(), sys.level_masses
    below = _prefix(knots, sys.offsets)
    full = np.diff(below).tolist()  # active levels of each tower
    # head[d, r] = active levels among the first r of tower d, r <= min(h_d, N - 1)
    head = _prefix(knots, sys.offsets[:-1, None]
                   + np.minimum(np.arange(N), sys.heights[:, None])) - below[:-1, None]
    B = min(min(heights), BLOCK_ROWS)
    R = -(-max([h for h in heights if h < N - 1], default=0) // B) * B + B
    W = N + 1 + B
    # slot r % R holds row r; the columns past N and the B zeros at each end
    # of flat stay 0, so a skewed view of a block reads zeros past its rows
    flat = np.zeros(R * W + 2 * B)
    ring, tmp = flat[B : B + R * W].reshape(R, W), np.empty((B, N))
    jobs = []  # each window's law so far, and the row segments of its starts
    for n in windows:
        occ = (w[:, None] * _window_counts(sys, knots, n)).sum(axis=0)
        jobs.append((occ, list(zip(*(a.tolist() for a in _tail_segments(sys, knots, n))))))
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


def occupancy_distribution(sys: TowerSystem, active, n: int) -> OccupancyDistribution:
    """Exact law of m = #{0 <= i < n : state_i active}, stationary start:
    occupancy_distributions at the one window n.  The landing rows stream in
    row order, in blocks of B = min(min H, BLOCK_ROWS), through a ring of
    about max{h_d < n - 1} + B rows of n + 1 + B floats; O(R log R + K n^2)
    time."""
    return occupancy_distributions(sys, active, [n])[0]


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


def occupancy_by_path_enumeration(sys: TowerSystem, active, n: int) -> np.ndarray:
    """Brute-force oracle: the occupancy law summed over enumerate_paths."""
    act = np.zeros(sys.n_states, dtype=bool)
    for a0, iv in zip(sys.offsets, active):
        for lo, hi in iv:
            act[a0 + lo : a0 + hi] = True
    occ = np.zeros(n + 1)
    for path, prob in enumerate_paths(sys, n):
        occ[int(act[list(path)].sum())] += prob
    return occ
