"""Shared test helpers: instance generators and brute-force oracles.

The oracles here are deliberately independent of the solver: the
permutation oracle enumerates assignment matrices, and the basis oracle
enumerates spanning trees of the bipartite graph and prices every
feasible basic solution.  Both are only usable at toy sizes, which is
the point.  The LP oracle hands the same linear program to scipy's
HiGHS, independent code that scales to a few hundred atoms.  The
isotropy reference scans every atom for every cone.  The map references
are the per-atom loops that ``structure.extract_map`` and
``structure.reconstruct_map_from_potential`` replace with array code.
"""

import warnings
from itertools import combinations, permutations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from concave_ot.costs import DerivativeGap, OutOfRange, cost_matrix
from concave_ot.geometry import IsotropyReport, direction_grid, resolution_scale
from concave_ot.measures import DiscreteMeasure
from concave_ot.structure import (
    MapExtract,
    ReconstructionResult,
    SplitSource,
    decompose,
)


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


def isotropy_audit_reference(
    measure,
    directions=16,
    deltas=(0.2, 0.5, 0.8),
    epsilons=None,
    point_sample=500,
    seed=0,
):
    """The isotropy audit as one brute-force loop over every atom.

    For each sampled apex this sweeps all n atoms once per (delta,
    epsilon) pair; ``geometry.isotropy_audit`` must return the same
    report from its nearest-neighbour pass.  Slow; keep n small.
    """
    res = resolution_scale(measure)
    if epsilons is None:
        epsilons = tuple(m * res for m in (10.0, 30.0, 100.0))
    epsilons = tuple(float(e) for e in epsilons)
    deltas = tuple(float(d) for d in deltas)
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {d}")
    res_warning = any(e < res for e in epsilons) or len(measure) < 2
    if res_warning:
        warnings.warn(
            "isotropy audit has epsilons below the resolution scale "
            f"({res:.3g}); cone positivity is not meaningful there",
            stacklevel=2,
        )

    n = len(measure)
    rng = np.random.default_rng(seed)
    if point_sample >= n:
        sample = np.arange(n)
    else:
        sample = np.sort(
            rng.choice(n, size=point_sample, replace=False, p=measure.weights)
        )
    U = direction_grid(measure.dim, directions)

    pts = measure.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    fail_counts = np.zeros(len(sample), dtype=int)
    atom_failed = np.zeros(len(sample), dtype=bool)
    dist_boundary = np.zeros(len(sample))
    worst = None
    eps_arr = np.asarray(epsilons)
    for t, i in enumerate(sample):
        x = pts[i]
        dist_boundary[t] = float(np.minimum(x - lo, hi - x).min())
        w = pts - x
        r = np.linalg.norm(w, axis=1)
        others = r > 0.0
        dots = w @ U.T  # (n, directions)
        for dl in deltas:
            dir_ok = dots >= (1.0 - dl) * r[:, None]
            for ep in eps_arr:
                hit = (dir_ok & others[:, None] & (r <= ep)[:, None]).any(axis=0)
                misses = np.flatnonzero(~hit)
                if misses.size:
                    fail_counts[t] += misses.size
                    atom_failed[t] = True
                    if worst is None:
                        worst = (x.copy(), U[misses[0]].copy(), dl, float(ep))
    sampled_mass = measure.weights[sample].sum()
    failing_mass = measure.weights[sample[atom_failed]].sum()
    return IsotropyReport(
        failing_mass_fraction=float(failing_mass / sampled_mass) if sampled_mass else 1.0,
        worst_witness=worst,
        sampled_atoms=sample,
        atom_failed=atom_failed,
        fail_counts=fail_counts,
        distance_to_boundary=dist_boundary,
        resolution=res,
        deltas=deltas,
        epsilons=epsilons,
        n_directions=len(U),
        resolution_warning=bool(res_warning),
    )


def extract_map_reference(decomp, mass_tol=1e-9):
    """``structure.extract_map`` as a dict of per-source lists.

    ``max`` keeps the first largest entry in plan order, and each
    source's total is a plain sum in plan order.
    """
    off = decomp.off_diagonal
    by_src = {}
    for i, j, w in zip(off.src_idx, off.tgt_idx, off.mass):
        by_src.setdefault(int(i), []).append((int(j), float(w)))
    assigned_s, assigned_t, splits = [], [], []
    split_mass = 0.0
    for i, pairs in sorted(by_src.items()):
        total = sum(w for _, w in pairs)
        j_best, w_best = max(pairs, key=lambda p: p[1])
        if total - w_best <= mass_tol:
            assigned_s.append(i)
            assigned_t.append(j_best)
        else:
            tg, ms = zip(*sorted(pairs))
            splits.append(
                SplitSource(source=i, targets=np.array(tg), masses=np.array(ms))
            )
            split_mass += total
    return MapExtract(
        assigned_sources=np.array(assigned_s, dtype=np.int64),
        assigned_targets=np.array(assigned_t, dtype=np.int64),
        splits=splits,
        split_fraction=float(split_mass),
    )


def reconstruct_reference(
    potentials, mu, nu, cost, k_neighbors=8, plan=None, grad_tol=1e-8
):
    """``structure.reconstruct_map_from_potential`` as a loop over atoms.

    Each atom's gradient is its own ``lstsq`` fit, and each radius its own
    scalar ``cost.inv_deriv`` call.
    """
    d = mu.dim
    k = max(int(k_neighbors), d + 1)
    n = len(mu)
    if n < k + 1:
        raise ValueError(
            f"gradient fit needs at least {k + 1} source atoms, got {n}"
        )
    phi = np.asarray(potentials.phi, dtype=float)
    if phi.shape != (n,):
        raise ValueError("phi must have one value per source atom")

    tree = cKDTree(mu.points)
    _, nb = tree.query(mu.points, k=k + 1)

    grads = np.zeros((n, d))
    resid = np.zeros(n)
    for i in range(n):
        idx = nb[i]
        A = np.column_stack([mu.points[idx] - mu.points[i], np.ones(len(idx))])
        rhs = phi[idx] - phi[i]
        sol, _, _, _ = np.linalg.lstsq(A, rhs, rcond=None)
        grads[i] = sol[:d]
        resid[i] = float(np.sqrt(np.mean((A @ sol - rhs) ** 2)))

    y_pred = np.full((n, d), np.nan)
    radii = np.full(n, np.nan)
    gap_event = np.zeros(n, dtype=bool)
    out_of_range = np.zeros(n, dtype=bool)
    near_diag = np.zeros(n, dtype=bool)
    gnorm = np.linalg.norm(grads, axis=1)
    for i in range(n):
        if gnorm[i] <= grad_tol:
            near_diag[i] = True
            y_pred[i] = mu.points[i]
            radii[i] = 0.0
            continue
        r = cost.inv_deriv(gnorm[i])
        if isinstance(r, OutOfRange):
            out_of_range[i] = True
            continue
        if isinstance(r, DerivativeGap):
            gap_event[i] = True
            r = r.point
        radii[i] = float(r)
        y_pred[i] = mu.points[i] - radii[i] * grads[i] / gnorm[i]

    result = ReconstructionResult(
        y_pred=y_pred,
        gradients=grads,
        radii=radii,
        fit_residual=resid,
        gap_event=gap_event,
        out_of_range=out_of_range,
        near_diagonal=near_diag,
    )
    if plan is not None:
        extract = extract_map_reference(decompose(plan))
        lp = np.full((n, d), np.nan)
        lp[extract.assigned_sources] = nu.points[extract.assigned_targets]
        err = np.linalg.norm(y_pred - lp, axis=1)
        disp = lp - mu.points
        dn = np.linalg.norm(disp, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosine = -np.einsum("ij,ij->i", grads, disp) / (gnorm * dn)
        result.lp_targets = lp
        result.pred_error = err
        result.direction_cosine = cosine
    return result
