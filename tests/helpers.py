"""Test-side conversion of flat per-state data into the package's per-tower runs."""

import numpy as np


def runs_of(sys_, flat):
    """Each tower's maximal runs (start, end, value) of a flat per-state array."""
    out = []
    for a0, b0 in zip(sys_.offsets[:-1], sys_.offsets[1:]):
        w = np.asarray(flat[a0:b0], dtype=float)
        cuts = np.flatnonzero(w[1:] != w[:-1]) + 1
        starts, ends = np.concatenate([[0], cuts]), np.concatenate([cuts, [b0 - a0]])
        out.append(tuple((int(s), int(e), float(w[s])) for s, e in zip(starts, ends)))
    return tuple(out)


def intervals_of(sys_, flat):
    """Each tower's active intervals (start, end) of a flat boolean array."""
    return [[(s, e) for s, e, v in tower if v] for tower in runs_of(sys_, flat)]
