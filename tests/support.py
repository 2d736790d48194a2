"""Shared test helpers: instance generators and brute-force oracles.

The oracles here are deliberately independent of the solver: the
permutation oracle enumerates assignment matrices, and the basis oracle
enumerates spanning trees of the bipartite graph and prices every
feasible basic solution.  Both are only usable at toy sizes, which is
the point.  The LP oracle hands the same linear program to scipy's
HiGHS, independent code that scales to a few hundred atoms.
"""

from itertools import combinations, permutations

import numpy as np
from scipy.optimize import linprog

from concave_ot.costs import cost_matrix
from concave_ot.measures import DiscreteMeasure


def random_instance(rng, m, n, d, uniform_weights=False):
    """Random pair of measures with distinct atoms."""
    if uniform_weights:
        wa = np.full(m, 1.0 / m)
        wb = np.full(n, 1.0 / n)
    else:
        wa = rng.uniform(0.5, 1.5, m)
        wa /= wa.sum()
        wb = rng.uniform(0.5, 1.5, n)
        wb /= wb.sum()
    mu = DiscreteMeasure(rng.normal(size=(m, d)), wa)
    nu = DiscreteMeasure(rng.normal(size=(n, d)), wb)
    return mu, nu


def overlapping_instance(rng, shared=8, extra_mu=12, extra_nu=15, d=2):
    """Pair of measures sharing `shared` atoms with different weights."""
    pts = rng.normal(size=(shared, d))
    pa = np.vstack([pts, rng.normal(size=(extra_mu, d))])
    pb = np.vstack([pts, rng.normal(size=(extra_nu, d))])
    wa = rng.uniform(0.2, 1.0, shared + extra_mu)
    wa /= wa.sum()
    wb = rng.uniform(0.2, 1.0, shared + extra_nu)
    wb /= wb.sum()
    return DiscreteMeasure(pa, wa), DiscreteMeasure(pb, wb)


def lebesgue_grid_pair(n):
    """Midpoint grids for the unit segment and its half shift.

    Both grids are built from the same integer lattice so the shared
    atoms coincide bitwise; n must be even.
    """
    assert n % 2 == 0
    i = np.arange(n)
    mu = DiscreteMeasure(((i + 0.5) / n)[:, None], np.full(n, 1.0 / n))
    j = np.arange(n // 2, n + n // 2)
    nu = DiscreteMeasure(((j + 0.5) / n)[:, None], np.full(n, 1.0 / n))
    return mu, nu


def assignment_oracle(mu, nu, cost):
    """Minimum transport cost over permutation couplings.

    Valid oracle only for uniform weights with equal atom counts, where
    the transportation polytope's vertices are permutation matrices.
    """
    n = len(mu)
    assert len(nu) == n
    C = cost_matrix(mu, nu, cost)
    best = np.inf
    rows = np.arange(n)
    for perm in permutations(range(n)):
        best = min(best, C[rows, perm].sum() / n)
    return float(best)


def _tree_flows(arcs, a, b):
    """Flows of the basic solution spanned by `arcs`; None if infeasible."""
    m, n = len(a), len(b)
    deg = np.zeros(m + n, dtype=int)
    inc = [[] for _ in range(m + n)]
    for t, (i, j) in enumerate(arcs):
        deg[i] += 1
        deg[m + j] += 1
        inc[i].append(t)
        inc[m + j].append(t)
    rem = np.concatenate([a, b]).astype(float)
    used = [False] * len(arcs)
    flows = np.zeros(len(arcs))
    leaves = [v for v in range(m + n) if deg[v] == 1]
    while leaves:
        v = leaves.pop()
        t = next((t for t in inc[v] if not used[t]), None)
        if t is None:
            continue
        used[t] = True
        i, j = arcs[t]
        flows[t] = rem[v]
        other = m + j if v == i else i
        rem[other] -= rem[v]
        rem[v] = 0.0
        deg[other] -= 1
        deg[v] -= 1
        if deg[other] == 1:
            leaves.append(other)
    if np.any(flows < -1e-12):
        return None
    return flows


def basis_enumeration_oracle(mu, nu, cost):
    """Minimum over all spanning-tree bases of the transportation polytope.

    Enumerates every (m + n - 1)-subset of arcs, keeps the spanning trees,
    solves each for its basic solution, and prices the feasible ones.
    Exponential; keep m * n small.
    """
    m, n = len(mu), len(nu)
    C = cost_matrix(mu, nu, cost)
    all_arcs = [(i, j) for i in range(m) for j in range(n)]
    best = np.inf
    for subset in combinations(all_arcs, m + n - 1):
        parent = list(range(m + n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in subset:
            ri, rj = find(i), find(m + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic:
            continue
        flows = _tree_flows(list(subset), mu.weights, nu.weights)
        if flows is None:
            continue
        val = sum(f * C[i, j] for f, (i, j) in zip(flows, subset))
        best = min(best, val)
    return float(best)


def linprog_oracle(mu, nu, cost):
    """Optimal transport cost from scipy's HiGHS on the dense LP.

    Marginals come from ``mu.weights`` and ``nu.weights``: the measures
    have already merged duplicate atoms, so a generator's raw weight
    arrays would not match their atoms.
    """
    m, n = len(mu), len(nu)
    A_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    res = linprog(
        cost_matrix(mu, nu, cost).ravel(),
        A_eq=A_eq,
        b_eq=np.concatenate([mu.weights, nu.weights]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)
