"""Brute-force oracles the tests check slowclt's engines against.

Each walks every path of a small tower system state by state, from the
system's level masses, offsets and landing row and the model's slabs and
values, and calls none of the engines it checks.
"""

import itertools
import math

import numpy as np

from slowclt import LatticeDistribution


def stationary_array(sys_) -> np.ndarray:
    """Stationary probability of every state, flat-indexed: each level of
    tower l weighs its level mass."""
    return np.repeat(sys_.level_masses, sys_.heights)


def weights(model) -> np.ndarray:
    """Weight of every flat state: 0 in its tower's slab, the tower's value above."""
    return np.concatenate([[0.0] * s + [v] * (h - s) for s, v, h
                           in zip(model.slab, model.value, model.system.heights.tolist())])


def enumerate_paths(sys_, n: int):
    """Every length-n path of flat state indices from a stationary start,
    with its probability."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pi = stationary_array(sys_)
    tops = set((sys_.offsets[1:] - 1).tolist())
    bases = sys_.offsets[:-1].tolist()

    def extend(path, prob):
        if len(path) == n:
            yield path, prob
        elif path[-1] in tops:
            for b, p in zip(bases, sys_.landing):
                if p > 0.0:
                    yield from extend(path + (b,), prob * p)
        else:
            yield from extend(path + (path[-1] + 1,), prob)

    for s in range(sys_.n_states):
        yield from extend((s,), pi[s])


def occupancy_by_path_enumeration(sys_, slab, n: int) -> np.ndarray:
    """The occupancy law summed over enumerate_paths, a state active when
    its level is at least its tower's slab."""
    levels = np.arange(sys_.n_states) - np.repeat(sys_.offsets[:-1], sys_.heights)
    act = levels >= np.repeat(slab, sys_.heights)
    occ = np.zeros(n + 1)
    for path, prob in enumerate_paths(sys_, n):
        occ[int(act[list(path)].sum())] += prob
    return occ


def lattice_sum_by_path_enumeration(model, n: int) -> LatticeDistribution:
    """The law of S_n of a lattice model: every path of enumerate_paths
    times every one of the 2^n equally likely outcomes of n fair coins."""
    values = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    law = np.zeros(2 * n + 1)
    weight = weights(model)
    for path, prob in enumerate_paths(model.system, n):
        totals = np.rint(values @ weight[list(path)]).astype(int)
        np.add.at(law, totals + n, prob / 2**n)
    return LatticeDistribution(offset=-n, probs=law)


def mds_exact(model, window: int, j: int, filter_coeff: float, support) -> float:
    """The largest |E(f_j | path, the other noise values)| over every
    cylinder of enumerate_paths, the noise drawn from support, a list of
    (value, probability); filter_coeff != 0 adds filter_coeff * f_(j-1) to f_j."""
    weight = weights(model)
    others = [i for i in range(window) if i != j]
    bins: dict[tuple, list[float]] = {}
    for path, pprob in enumerate_paths(model.system, window):
        if pprob == 0.0:
            continue
        for gs in itertools.product(support, repeat=len(others)):
            key_prob = pprob * math.prod(p for _, p in gs)
            gvals = {i: v for i, (v, _) in zip(others, gs)}
            key = (path, tuple(gvals[i] for i in others))
            num, den = bins.setdefault(key, [0.0, 0.0])
            for gj, pj in support:
                gvals[j] = gj
                f_j = weight[path[j]] * gj
                if filter_coeff and j >= 1:
                    f_j += filter_coeff * weight[path[j - 1]] * gvals[j - 1]
                num += key_prob * pj * f_j
                den += key_prob * pj
            bins[key] = [num, den]
    return max((abs(num / den) for num, den in bins.values() if den > 0.0), default=0.0)
