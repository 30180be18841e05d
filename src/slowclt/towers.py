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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidState, MassSumError, PeriodicityError

MASS_TOL = 1e-9
CONSISTENCY_TOL = 1e-12


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
class TowerState:
    tower: int
    level: int


@dataclass(frozen=True)
class OccupancyDistribution:
    """Exact law of the number of active steps in a length-n window."""

    window: int
    probs: np.ndarray  # index m in [0, window]

    def __post_init__(self):
        assert len(self.probs) == self.window + 1
        assert abs(float(np.sum(self.probs)) - 1.0) < CONSISTENCY_TOL


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

    # -- state indexing -------------------------------------------------

    def state_index(self, s: TowerState) -> int:
        self._check_state(s)
        return int(self.offsets[s.tower]) + s.level

    def states(self) -> Iterable[TowerState]:
        for l, t in enumerate(self.towers):
            for j in range(t.height):
                yield TowerState(l, j)

    def _check_state(self, s: TowerState):
        if not (0 <= s.tower < len(self.towers)):
            raise InvalidState(f"tower index {s.tower} out of range")
        if not (0 <= s.level < self.towers[s.tower].height):
            raise InvalidState(
                f"level {s.level} out of range for tower {s.tower} "
                f"(height {self.towers[s.tower].height})"
            )

    # -- measure and dynamics -------------------------------------------

    def stationary_array(self) -> np.ndarray:
        """Stationary probability of every state, flat-indexed (small systems)."""
        return np.repeat(self.level_masses, self.heights)

    def gcd_heights(self) -> int:
        return math.gcd(*[t.height for t in self.towers])

    def is_aperiodic(self) -> bool:
        return self.gcd_heights() == 1

    def push_forward(self, dist: np.ndarray) -> np.ndarray:
        """One step of the dynamics applied to a flat state distribution."""
        # every state climbs one level; a base receives the mass of all tops
        out = np.roll(dist, 1)
        out[self.offsets[:-1]] = dist[self.offsets[1:] - 1].sum() * self.landing
        return out


def build_tower_system(
    specs: Sequence[TowerSpec], require_aperiodic: bool = False
) -> TowerSystem:
    total = sum(s.mass for s in specs)
    if abs(total - 1.0) > MASS_TOL:
        raise MassSumError(f"tower masses sum to {total!r}, not 1")
    if require_aperiodic:
        g = math.gcd(*[s.height for s in specs])
        if g > 1:
            raise PeriodicityError(f"gcd of tower heights is {g}, need 1")
    return TowerSystem(specs)


def stationary_measure(sys: TowerSystem) -> dict[TowerState, float]:
    pi = sys.stationary_array()
    return {s: float(pi[sys.state_index(s)]) for s in sys.states()}


def step_distribution(sys: TowerSystem, s: TowerState) -> dict[TowerState, float]:
    sys._check_state(s)
    h = sys.towers[s.tower].height
    if s.level < h - 1:
        return {TowerState(s.tower, s.level + 1): 1.0}
    return {TowerState(d, 0): float(p) for d, p in enumerate(sys.landing) if p > 0.0}


def sample_trajectory_batch(
    sys: TowerSystem, seed: int, n: int, reps: int, block: int = 1 << 14
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized stationary trajectories: (reps, n) arrays of tower and level.

    Deterministic per seed; reps are split into fixed-size blocks with
    independent substreams, so results do not depend on worker count.  A
    start is one uniform draw u, read through the cumulative tower masses to
    a tower and then through its level mass to a level: the draw and the
    cumulative-mass search of rng.choice(n_states, p=stationary_array()),
    with no per-state table.
    """
    towers = np.empty((reps, n), dtype=np.int32)
    levels = np.empty((reps, n), dtype=np.int32)
    heights = sys.heights
    upto = np.cumsum(sys._masses)
    below = upto - sys._masses
    cum = np.cumsum(sys.landing)
    for b0 in range(0, reps, block):
        b1 = min(b0 + block, reps)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), b0 // block]))
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


def occupancy_distribution(sys: TowerSystem, active, n: int) -> OccupancyDistribution:
    """Exact law of m = #{0 <= i < n : state_i active}, stationary start.

    active[l] lists tower l's active levels as R sorted intervals (start,
    end).  A window is cut at the first tower top it leaves: the part before
    is read off the start tower's prefix counts, and the r steps after start
    on a base drawn from the landing row, whatever the tower left, so their
    count law land[r] is one table for every start.  Windows that leave no
    top are counted per segment of their start.  O(R log R + K n^2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    knots = _knots(sys, active)
    heights, base = sys.heights.tolist(), sys.offsets[:-1]
    below = _prefix(knots, sys.offsets)
    full = np.diff(below).tolist()  # active levels of each tower
    # head[d, r] = active levels among the first r of tower d, r <= min(h_d, n)
    r = np.minimum(np.arange(n + 1), sys.heights[:, None])
    head = _prefix(knots, base[:, None] + r) - below[:-1, None]
    # land[r, c] = P(c active steps among r steps from a landed base)
    land = np.zeros((n, n + 1))
    land[0, 0] = 1.0
    for r in range(1, n):
        for p, pref, c, h in zip(sys.landing, head, full, heights):
            if h >= r:
                land[r, pref[r]] += p
            else:
                # a full pass through the tower, then a fresh landing
                land[r, c : c + r - h + 1] += p * land[r - h, : r - h + 1]
    windows = _window_counts(sys, knots, n)  # starts that never reach the top
    occ = np.zeros(n + 1)
    for a0, b0, h, c, w, hist in zip(base, below, heights, full, sys.level_masses, windows):
        occ += w * hist
        j0 = max(0, h - n + 1)
        tail = c - (_prefix(knots, a0 + np.arange(j0, h)) - b0)
        for j, cj in zip(range(j0, h), tail.tolist()):
            r = n - h + j
            occ[cj : cj + r + 1] += w * land[r, : r + 1]
    return OccupancyDistribution(window=n, probs=occ / occ.sum())


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
