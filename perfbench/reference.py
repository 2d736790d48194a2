"""A fixed reference computation, timed beside every operation.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, with the load of other tenants.  Raw wall
times of runs made minutes apart then spread wider than any useful
regression bound.  So workload.py runs :func:`kernel` after every
operation (for about 15% of the operation's time) and reports the
run's median iteration time scaled by the run's median kernel time:

    scaled = measured * NOMINAL_S / median kernel time

that is, seconds on a host where the kernel takes ``NOMINAL_S``.  A
change to the program moves the scaled time as much as the raw time,
because the kernel does not call the program; a slower or faster host
moves both and cancels.  The raw times are printed beside the scaled
ones.

The kernel mixes the kinds of work the workloads do, in the same
interpreter and the same numpy: blockwise numpy pricing over a working
set of tens of MB (the simplex's pricing), Python list pointer chasing
(its tree updates), a dict keyed by tuples (``meet`` and the presolve)
and vectorised geometry on small arrays (the cone audit).  Its inputs
are fixed; they do not depend on the workload seed.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.2

_rng = np.random.default_rng(20131114)
_ARCS = 1_000_000
_BLOCK = 1000
_PRICING_PASSES = 4
_CHASE_STEPS = 60_000
_COST = _rng.random(_ARCS)
_TAIL = _rng.integers(0, 2000, _ARCS)
_HEAD = _rng.integers(0, 2000, _ARCS)
_POT = _rng.random(2000)
_NEXT = _rng.permutation(200_000).tolist()
_KEYS = [tuple(row) for row in _rng.random((100_000, 3)).tolist()]
_PTS = _rng.random((5000, 2))
_DIRS = _rng.normal(size=(64, 2))


def kernel():
    """Run the reference computation once; returns (wall s, cpu s)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    best = 0.0
    for start in range(_PRICING_PASSES):
        for lo in range(start * 97, _ARCS, _BLOCK):
            hi = lo + _BLOCK
            rc = _COST[lo:hi] - _POT[_TAIL[lo:hi]] + _POT[_HEAD[lo:hi]]
            best = min(best, float(rc[int(np.argmin(rc))]))
    nxt, size, v = _NEXT, [1] * len(_NEXT), 0
    for _ in range(_CHASE_STEPS):
        v = nxt[v]
        size[v] += 1
        if v & 1:
            v = nxt[v]
    index = {k: i for i, k in enumerate(_KEYS)}
    hits = sum(index[k] for k in _KEYS[::2])
    for p in _PTS[:10]:
        d = _PTS - p
        cos = (d @ _DIRS.T) / (np.linalg.norm(d, axis=1)[:, None] + 1e-12)
        best = min(best, float(cos.min()))
    if hits < 0 or best > 0.0:
        raise AssertionError("reference kernel computed a wrong value")
    return time.perf_counter() - wall0, time.process_time() - cpu0
