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
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
        self.offsets = np.concatenate([[0], np.cumsum(self.heights)])
        self.n_states = int(self.offsets[-1])

    # -- state indexing -------------------------------------------------

    def state_index(self, s: TowerState) -> int:
        self._check_state(s)
        return int(self.offsets[s.tower]) + s.level

    def state_of_index(self, i: int) -> TowerState:
        tower = int(np.searchsorted(self.offsets, i, side="right")) - 1
        return TowerState(tower, int(i - self.offsets[tower]))

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
        """Stationary probability of every state, flat-indexed."""
        out = np.empty(self.n_states)
        for l, t in enumerate(self.towers):
            out[self.offsets[l] : self.offsets[l + 1]] = self._masses[l] / t.height
        return out

    def level_mass(self, tower: int) -> float:
        return self._masses[tower] / self.towers[tower].height

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


def sample_trajectory(
    sys: TowerSystem,
    seed: int,
    n: int,
    start: Optional[TowerState] = None,
) -> list[TowerState]:
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x70776572]))
    if start is None:
        pi = sys.stationary_array()
        idx = int(rng.choice(sys.n_states, p=pi))
        state = sys.state_of_index(idx)
    else:
        sys._check_state(start)
        state = start
    out = []
    for _ in range(n):
        out.append(state)
        h = sys.towers[state.tower].height
        if state.level < h - 1:
            state = TowerState(state.tower, state.level + 1)
        else:
            d = int(rng.choice(len(sys.towers), p=sys.landing))
            state = TowerState(d, 0)
    return out


def sample_trajectory_batch(
    sys: TowerSystem, seed: int, n: int, reps: int, block: int = 1 << 14
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized stationary trajectories: (reps, n) arrays of tower and level.

    Deterministic per seed; reps are split into fixed-size blocks with
    independent substreams, so results do not depend on worker count.
    """
    towers = np.empty((reps, n), dtype=np.int32)
    levels = np.empty((reps, n), dtype=np.int32)
    pi = sys.stationary_array()
    heights = sys.heights
    cum = np.cumsum(sys.landing)
    for b0 in range(0, reps, block):
        b1 = min(b0 + block, reps)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), b0 // block]))
        m = b1 - b0
        idx = rng.choice(sys.n_states, p=pi, size=m)
        tw = (np.searchsorted(sys.offsets, idx, side="right") - 1).astype(np.int32)
        lv = (idx - sys.offsets[tw]).astype(np.int32)
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
        # rep loop done
    return towers, levels


def _active_array(sys: TowerSystem, active) -> np.ndarray:
    if isinstance(active, np.ndarray):
        if active.shape != (sys.n_states,):
            raise ValueError("active array must have one entry per state")
        return active.astype(bool)
    return np.array([bool(active(s)) for s in sys.states()])


def occupancy_distribution(
    sys: TowerSystem,
    active: Callable[[TowerState], bool] | np.ndarray,
    n: int,
) -> OccupancyDistribution:
    """Exact law of m = #{0 <= i < n : state_i active}, stationary start.

    A window is cut at the first tower top it leaves: the part before is read
    off the start tower's prefix sums, and the r steps after start on a base
    drawn from the landing row, whatever the tower left, so their count law
    land[r] is one table for every start.  O(states + K n^2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    act = _active_array(sys, active)
    # prefs[d][i] = number of active levels among the first i of tower d
    prefs = [
        np.concatenate([[0], np.cumsum(act[a:b], dtype=np.int64)])
        for a, b in zip(sys.offsets[:-1], sys.offsets[1:])
    ]
    heights = sys.heights.tolist()
    # land[r, c] = P(c active steps among r steps from a landed base)
    land = np.zeros((n, n + 1))
    land[0, 0] = 1.0
    for r in range(1, n):
        for p, pref, h in zip(sys.landing, prefs, heights):
            if h >= r:
                land[r, pref[r]] += p
            else:
                # a full pass through the tower, then a fresh landing
                c = pref[h]
                land[r, c : c + r - h + 1] += p * land[r - h, : r - h + 1]
    occ = np.zeros(n + 1)
    for l, (pref, h) in enumerate(zip(prefs, heights)):
        w = sys.level_mass(l)
        if h >= n:
            # starts j <= h - n never reach the top
            occ += w * np.bincount(pref[n:] - pref[: h - n + 1], minlength=n + 1)
        for j in range(max(0, h - n + 1), h):
            r = n - h + j
            c = pref[h] - pref[j]
            occ[c : c + r + 1] += w * land[r, : r + 1]
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
    act = _active_array(sys, active)
    occ = np.zeros(n + 1)
    for path, prob in enumerate_paths(sys, n):
        occ[int(act[list(path)].sum())] += prob
    return occ
