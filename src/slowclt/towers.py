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
PASS_BATCH = 1 << 15  # the most (skeleton, start tower, final tower) triples in a batch


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
        with max(max H, 2^14) <= C < max(max H, 2^14) + L (L below).

        The landing row r does not depend on the tower left, so after a landing
        the chain's law is fixed by the renewal sequence (Feller, An Introduction
        to Probability Theory, Vol. I, ch. XIII) u(0) = 1, u(t) = sum_d r_d
        u(t - H_d), u(t < 0) = 0: at age a the state is (d, i) with probability
        r_d u(a - i), and pi(d, i) = r_d / mu with mu = sum r_d H_d.

        u is solved in blocks of L = qB lags, q rows of B = min H.  Towers
        of one height are merged, r_d the exact sum of theirs: height B lands
        with a = its r_d; the other heights, the lowest h1, read only lags
        before the block, as q = max(1, min(h1 // B, 8)).  Row i is Y_i =
        a Y_(i-1) + sum_d r_d S_d[i], S_d the q x B view of u that lies H_d
        before the block, so
            Y = T0 (x) Y_(-1) + T1 sum_d r_d S_d = [T0 | r_1 T1 | ...] @ Z,
        T0[i] = a^(i+1), T1[i, p] = a^(i-p) for p <= i, else 0, each exact and
        rounded once; Z gathers the row before the block and the S_d at
        offsets made once per stream.  u(0) = 1 puts a^i at lag iB of block 0.
        All terms are non-negative, so each value is within a factor
        1 +- gamma_g, g = 2 + q #{distinct heights > B}, of the exact block
        map of the values before it (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 3); the map is monotone and lag t hangs on
        t // L + 1 blocks, so u(t) is within (1 +- gamma_g)^(t // L + 1) of
        exact (2.0e-15 measured at thm3 c=0.25 beta=0.5 K=3).  Only the last
        max(H) values are carried over, and the yielded buffer is overwritten
        by the next chunk.
        """
        H, r = self.heights, self.landing
        W, B = int(H.max()), int(H.min())
        land = {h: sum(map(Fraction, r[H == h].tolist())) for h in sorted(set(H.tolist()))}
        n, d = land.pop(B).as_integer_ratio()  # a = n / d
        q = max(1, min(min(land, default=8 * B) // B, 8))
        L = q * B
        # C >= max(H) keeps the carried history; C >= 2^14 keeps the chunks, and
        # the beta scan's tests at their ends, few when max(H) is small
        C = -(-max(W, 1 << 14) // L) * L

        def powers(c):  # c a^k for k = 0 .. q, exact in integers, rounded once
            cn, cd = c.as_integer_ratio()
            return np.array([cn * n**k / (cd * d**k) for k in range(q + 1)])

        below = np.subtract.outer(np.arange(q), np.arange(q))  # i - p
        M = np.hstack([powers(1)[1:, None]] + [np.tril(powers(rd)[below]) for rd in land.values()])
        # Z's rows start at these lags, the block's at 0: the row before, then each S_d
        offsets = np.array([-B] + [p - hd for hd in land for p in range(0, L, B)])
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
    level: the draw and the cumulative-mass search of rng.choice(n_states,
    p=pi), pi each tower's level mass repeated over its levels, with no
    per-state table.
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
    starts = np.maximum(sys.heights - n + 1, 0)[:, None]
    upto = np.minimum(np.maximum(slab[:, None] + np.arange(-n, 2), 0), starts)  # c = -1 .. n
    upto[:, 0], upto[:, -1:] = 0, starts
    return upto[:, 1:] - upto[:, :-1]


def _skeletons(sys: TowerSystem, slab: np.ndarray, n: int) -> tuple:
    """(t0, c0, G) of the skeletons with t0 <= n - 2, sorted: runs of complete
    passes after a landing, t0 steps long with c0 active, and the landing
    probability G(t0, c0) = sum_e r_e G(t0 - h_e, c0 - full_e), G(0, 0) = 1,
    of all their orders, by number of passes: in tower order, then pass order."""
    short = sys.heights <= n - 2
    h, f, r = sys.heights[short], (sys.heights - slab)[short], sys.landing[short]
    t, c, g = np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1)
    codes, values = [t], [g]  # t n + c of each pass count's keys, and their G
    while len(h) and len(t):
        t, c = np.add.outer(h, t).ravel(), np.add.outer(f, c).ravel()
        keep = t <= n - 2
        code, at = np.unique(t[keep] * n + c[keep], return_inverse=True)
        t, c = np.divmod(code, n)
        g = np.bincount(at, weights=np.multiply.outer(r, g).ravel()[keep])
        codes.append(code)
        values.append(g)
    code, at = np.unique(np.concatenate(codes), return_inverse=True)
    return *np.divmod(code, n), np.bincount(at, weights=np.concatenate(values))


def _alike(a: np.ndarray, h: np.ndarray, weight: np.ndarray, cut: np.ndarray) -> tuple:
    """(a, h, weight) tables, a column per window cut = n - 1 and a row per
    tower some window tells apart, clipped to cut, then one for those it
    cannot, a (full or slab, <= h) >= cut; and the rows each window needs."""
    merged = a >= cut[:, None]
    keep = np.flatnonzero(a < cut.max())
    tab = np.empty((3, len(keep) + 1, len(cut)))
    tab[:2, -1] = cut
    tab[:2, :-1] = np.minimum(np.stack([a[keep], h[keep]])[:, :, None], cut)
    tab[2, :-1] = weight[keep, None] * ~merged[:, keep].T
    tab[2, -1] = np.where(merged, weight, 0.0).sum(axis=1)
    return (*tab[:2].astype(np.int64), tab[2]), len(a) + 1 - merged.sum(axis=1)


def _add_passes(acc, cover, edge, base, x, c0, g, full, hs, w, s, hd, r) -> None:
    """Add the starts that leave a top: point masses to acc[base + v], run
    differences to acc[base + edge + v], and +-1 at the ends of each run of
    positive mass to cover.  Per skeleton, x = n - t0; full, hs, w are
    (S, 1, skeletons) and slab s, hd, r are (1, D, skeletons).  Start tau
    below the top of d' ends with x - tau steps in d, tau in [lo, top) =
    [max(1, x - h_d), min(x, h_d' + 1)), and counts min(tau, full_d') + c0 +
    max(0, x - tau - s_d): x - s_d + c0 on [lo, P), full_d' + c0 on
    [Q, top), a run of slope +-1 between, P and Q the min and max of full_d'
    and x - s_d clipped to [lo, top].  cumsum and np.add.at add in order,
    whatever the shape; empty pieces weigh 0 and index below base + edge + 4 n."""
    y, at, lo = x - s, base + c0, np.maximum(x - hd, 1)
    top = np.maximum(np.minimum(x, hs + 1), lo)
    P = np.minimum(np.maximum(np.minimum(full, y), lo), top)
    Q = np.minimum(np.maximum(np.maximum(full, y), lo), top)
    start = at + edge + np.minimum(P, full) + np.maximum(y + 1 - Q, 0)
    end, mass = start + (Q - P), g * w * r * (Q > P)
    on = (mass > 0).astype(np.int64)  # a tower merged at this window weighs 0
    for out, v, m in [(acc, at + np.maximum(y, 0), np.cumsum(w * (P - lo), axis=0)[-1:] * (g * r)),
                      (acc, at + full, np.cumsum(r * (top - Q), axis=1)[:, -1:] * (g * w)),
                      (acc, start, mass), (acc, end, -mass), (cover, start, on), (cover, end, -on)]:
        np.add.at(out, v.ravel(), m.ravel())  # np.add.at is fast on flat arrays


def occupancy_distributions(sys: TowerSystem, slab, windows) -> list[OccupancyDistribution]:
    """Exact law of m = #{0 <= i < n : state_i active}, stationary start, at
    each window n, tower l active above its lowest slab[l] levels.

    Starts that leave no top are counted in closed form (_window_counts).
    Any other climbs to a top, runs a skeleton of complete passes through
    towers with h <= n - 2 (_skeletons) and ends in a partial pass: per
    skeleton, start and final tower its count has at most three linear
    pieces (_add_passes), once each window has merged the towers it cannot
    tell apart (_alike).  Windows with at most min(PASS_BATCH, 8 n) triples
    share a batch, any other takes batches of that size: O(#skeletons
    K_eff^2 + K N) time, N the largest window, and O(K N) memory.

    Rounding: the DP and the point masses add non-negative terms, each within
    a relative gamma_m of exact, m its roundings (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3).  The runs' difference array and
    cumsum add at most gamma_M times twice their mass, absolute, M the most
    terms in a bin; bins that no run covers (an exact count) get 0 from them,
    and none gets less.  No window's batches depend on the others, nor its law."""
    windows = [int(n) for n in windows]
    if not windows or min(windows) < 1:
        raise ValueError("need at least one window, each >= 1")
    slab = np.asarray(slab)
    if (slab.shape != sys.heights.shape or not np.all((slab >= 0) & (slab <= sys.heights))
            or np.any(slab % 1 != 0)):
        raise ValueError("slab needs one integer level count in [0, height] per tower")
    slab = slab.astype(np.int64)
    ns, N = np.array(windows), max(windows)
    t0, c0, g = _skeletons(sys, slab, N)
    kn = np.searchsorted(t0, ns - 2, side="right")  # window n's skeletons: t0 <= n - 2
    starts, S = _alike(sys.heights - slab, sys.heights, sys.level_masses, ns - 1)
    finals, D = _alike(slab, sys.heights, sys.landing, ns - 1)
    whole, parts = [], []  # (window, first skeleton, end) in each batch
    for i, (n, k, p) in enumerate(zip(windows, kn.tolist(), (S * D).tolist())):
        step = max(min(PASS_BATCH, 8 * n) // p, 1)  # no more memory than the bins
        whole.append((i, 0, k if k <= step else 0))
        parts += [[(i, k0, min(k0 + step, k))] for k0 in range(0, k, step) if k > step]
    E = 2 * (N + 2)  # a window's bins: point masses, then run differences
    acc, cover = np.zeros((len(windows) + 2) * E), np.zeros((len(windows) + 2) * E, np.int64)
    for batch in [whole] + parts:
        wid = np.concatenate([np.full(k1 - k0, i) for i, k0, k1 in batch])
        keys = np.concatenate([np.arange(k0, k1) for _, k0, k1 in batch])
        _add_passes(acc, cover, N + 2, wid * E, ns[wid] - t0[keys], c0[keys], g[keys],
                    *[v[:, None, wid] for v in starts], *[v[None, :, wid] for v in finals])
    acc, cover = (v[: len(windows) * E].reshape(len(windows), 2, N + 2) for v in (acc, cover))
    runs = np.where(np.cumsum(cover[:, 1], axis=1) > 0, np.cumsum(acc[:, 1], axis=1), 0.0)
    occs = [(sys.level_masses[:, None] * _window_counts(sys, slab, n)).sum(axis=0)
            + acc[i, 0, : n + 1] + np.maximum(runs[i, : n + 1], 0.0) for i, n in enumerate(windows)]
    return [OccupancyDistribution(window=n, probs=occ / occ.sum()) for n, occ in zip(windows, occs)]


def occupancy_distribution(sys: TowerSystem, slab, n: int) -> OccupancyDistribution:
    """occupancy_distributions at the one window n."""
    return occupancy_distributions(sys, slab, [n])[0]
