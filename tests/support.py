"""Shared test helpers: instance generators and brute-force oracles.

The oracles here are deliberately independent of the solver: the
assignment oracle hands uniform instances to scipy's
``linear_sum_assignment`` on ``cdist`` distances, and scales to the
workload's thousand atoms; the basis oracle enumerates spanning trees of
the bipartite graph and prices every feasible basic solution, which is
only usable at toy sizes.  The LP oracle hands the same linear program to scipy's
HiGHS, independent code that scales to a few hundred atoms.  The
isotropy reference scans every atom for every cone, and scipy's k-d
tree gives the resolution scale that the audit reads from the compiled
kernel's nearest-atom search; ``KdTreeKernel`` answers that search with
the tree (and forwards the affine fits to the compiled kernel), for the
tests that hold the map and ``measures.snap`` to the tree's neighbours
where no distances tie.  The map references are the per-atom loops that
``structure.extract_map`` replaces with array code and
``structure.reconstruct_map_from_potential`` with the kernel's affine
fits; each of the latter's gradients is its own ``lstsq`` fit.
The canonical-order reference sorts a measure's atoms with
``np.unique``'s structured-row sort, which ``DiscreteMeasure`` replaces
with one stable lexsort.
The stay-at-rest reference audits a plan through its decomposition and
lattice meets of measures, where ``structure.verify_stay_at_rest``
reads atom indices.  The cyclical-monotonicity reference checks 3-cycles
with the per-entry loop that ``structure.verify_ccm`` replaces with
enumerated cycles, and 4-cycles by brute force over permutations.

``ReferenceKernel`` is the Python and numpy code that the compiled
kernel ``_pivot.c`` ports, entry point for entry point, and must match
bit for bit; ``on_both_kernel_paths`` runs an audit on each of the two
and asserts that the reports are equal.
"""

import math
import sys
from itertools import combinations, permutations
from unittest import mock

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from concave_ot import _kernel, geometry
from concave_ot.costs import DerivativeGap, OutOfRange, PiecewiseConcaveCost, cost_matrix
from concave_ot.geometry import IsotropyReport, direction_grid, resolution_scale
from concave_ot.measures import DiscreteMeasure, meet
from concave_ot._kernel import (
    _TREE_LISTS,
    _flat_costs,
    _kernel_error,
    _pricing_block,
    _Start,
    _Tree,
)
from concave_ot.structure import (
    CcmReport,
    MapExtract,
    ReconstructionResult,
    SplitSource,
    StayAtRestReport,
    decompose,
)


def on_both_kernel_paths(audit, *args, **kwargs):
    """``audit(*args, **kwargs)`` scored by the compiled kernel, then by
    :class:`ReferenceKernel`; asserts that the two reports are equal and
    returns the first."""
    got = audit(*args, **kwargs)
    with mock.patch.object(_kernel, "_compiled_kernel", ReferenceKernel):
        want = audit(*args, **kwargs)
    assert got == want
    return got


def record_kernel_calls(monkeypatch, name, note):
    """Wraps the compiled kernel's method ``name`` so that each call
    appends ``note(*args)`` to the list returned, then runs it."""
    inner = getattr(_kernel._CompiledKernel, name)
    notes = []

    def recording(self, *args):
        notes.append(note(*args))
        return inner(self, *args)

    monkeypatch.setattr(_kernel._CompiledKernel, name, recording)
    return notes


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


def overflowing_potentials_instance():
    """6 x 7 uniform atoms, nu the unit square's shifted by (0, 0.5), whose
    costs under the piecewise cost of slope 1.7e308 below 1 are finite but
    whose dual potentials, sums of costs along tree paths, overflow."""
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.random((6, 2)), np.full(6, 1 / 6))
    nu = DiscreteMeasure(rng.random((7, 2)) + [0.0, 0.5], np.full(7, 1 / 7))
    return mu, nu, PiecewiseConcaveCost((1.0,), (1.7e308, 1.0))


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
    """Minimum transport cost over permutation couplings, from scipy's
    ``linear_sum_assignment`` on costs of ``cdist`` distances: no code of
    the compiled kernel runs.

    Valid oracle only for uniform weights with equal atom counts, where
    the transportation polytope's vertices are permutation matrices.
    """
    n = len(mu)
    assert len(nu) == n
    C = cost.value(cdist(mu.points, nu.points))
    rows, cols = linear_sum_assignment(C)
    return float(C[rows, cols].sum() / n)


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


def isotropy_audit_reference(measure, point_sample=500, seed=0):
    """The isotropy audit as one brute-force loop over every atom.

    For each sampled apex this sweeps all n atoms once per (delta,
    epsilon) pair; ``geometry.isotropy_audit`` must return the same
    report from its nearest-neighbour pass.  The grid is the one that
    the module constants ``geometry._DIRECTIONS``, ``_DELTAS`` and
    ``_RADII`` hold when called, so a test that patches them changes both
    audits alike.  Each atom's r and dot products are those of the
    kernel's cone scan (``_cone_terms``), so a tie at a cone's edge or at
    a radius is decided alike.  Slow; keep n small.
    """
    n = len(measure)
    if n < 2:
        raise ValueError(f"the isotropy audit needs at least 2 atoms, got {n}")
    res = resolution_scale(measure)
    epsilons = tuple(m * res for m in geometry._RADII)
    deltas = geometry._DELTAS
    rng = np.random.default_rng(seed)
    if point_sample >= n:
        sample = np.arange(n)
    else:
        p = measure.weights / measure.weights.sum()
        sample = np.sort(rng.choice(n, size=point_sample, replace=False, p=p))
    U = direction_grid(measure.dim, geometry._DIRECTIONS)

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
        r, dots = _cone_terms(pts - x, U)  # (n,), (n, directions)
        others = r > 0.0
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
        failing_mass_fraction=float(failing_mass / sampled_mass),
        worst_witness=worst,
        sampled_atoms=sample,
        atom_failed=atom_failed,
        fail_counts=fail_counts,
        distance_to_boundary=dist_boundary,
        resolution=res,
        deltas=deltas,
        epsilons=epsilons,
        n_directions=len(U),
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


def reconstruct_reference(potentials, mu, nu, cost, k_neighbors=8, plan=None):
    """``structure.reconstruct_map_from_potential`` as a loop over atoms.

    The neighbour sets are the brute-force ``_numpy_nearest_atoms``, so
    ties go to the lower atom index as in the compiled kernel.  Each
    atom's gradient is its own ``lstsq`` fit, and each radius its own
    scalar ``cost.inv_deriv`` call.
    """
    d = mu.dim
    k = int(k_neighbors)
    n = len(mu)
    if n < k + 1:
        raise ValueError(
            f"gradient fit needs at least {k + 1} source atoms, got {n}"
        )
    phi = np.asarray(potentials.phi, dtype=float)
    if phi.shape != (n,):
        raise ValueError("phi must have one value per source atom")

    nb, _ = _numpy_nearest_atoms(mu.points, mu.points, k + 1)

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
        if gnorm[i] <= 1e-8:
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


def canonical_atoms_reference(points, weights):
    """The ``points`` and ``weights`` a ``DiscreteMeasure`` of these
    atoms stores, through ``np.unique``'s sort of the rows as structured
    records: signed zeros made positive, zero weights dropped, and the
    weights of duplicate rows summed in input order by ``np.add.at``."""
    points = np.asarray(points, dtype=float) + 0.0
    weights = np.asarray(weights, dtype=float)
    keep = weights > 0.0
    points, weights = points[keep], weights[keep]
    if len(points):
        points, inverse = np.unique(points, axis=0, return_inverse=True)
        merged = np.zeros(len(points))
        np.add.at(merged, inverse.ravel(), weights)
        weights = merged
    return points, weights


def verify_stay_at_rest_reference(mu, nu, plan, tol=1e-9):
    """``structure.verify_stay_at_rest`` through measures: the plan's
    decomposition, then three lattice meets of its marginals."""
    dec = decompose(plan)
    common = meet(mu, nu).common
    # meet residuals are the positive parts of the atomwise difference
    diff = meet(dec.diag_source_marginal, common)
    residuals = np.concatenate([diff.mu_residual.weights, diff.nu_residual.weights])
    max_dev = float(residuals.max(initial=0.0))
    off = meet(dec.off_source_marginal, dec.off_target_marginal)
    shared = float(off.common.weights.max(initial=0.0))
    return StayAtRestReport(
        diag_matches_meet=max_dev <= tol,
        off_marginals_singular=shared <= tol,
        diag_mass=dec.diagonal_mass,
        meet_mass=common.total_mass,
        max_diag_deviation=max_dev,
        max_shared_off_mass=shared,
    )


def verify_ccm_reference(plan, cost, max_cycle_len=3, tol=1e-9):
    """``structure.verify_ccm`` with every cycle checked, as loops.

    Pair swaps are scanned on the whole cost matrix.  3-cycles go through
    a loop over the least entry p that pairs it with every q < r after
    it, in both directions.  4-cycles are every permutation of four
    entries that starts with its least one.  Slow; keep S small.
    """
    S = plan.n_entries
    xs = plan.source.points[plan.src_idx]
    ys = plan.target.points[plan.tgt_idx]
    A = cost.value(cdist(xs, ys))
    base = A.diagonal()
    worst = -np.inf
    witness = None
    checked = 0

    def note(value, entries, permuted):
        nonlocal worst, witness
        if value > worst:
            worst = value
            if value > tol:
                witness = (tuple(entries), tuple(permuted))

    if S >= 2:
        V = base[:, None] + base[None, :]
        V -= A
        V -= A.T
        V[np.arange(S), np.arange(S)] = -np.inf
        k, l = np.unravel_index(np.argmax(V), V.shape)
        checked += S * S - S
        note(float(V[k, l]), (int(k), int(l)), (int(l), int(k)))

    if max_cycle_len >= 3 and S >= 3:
        for p in range(S - 2):
            rest = np.arange(p + 1, S)
            q, r = np.meshgrid(rest, rest, indexing="ij")
            keep = q < r
            q, r = q[keep], r[keep]
            v1 = (base[p] - A[p, q]) + (base[q] - A[q, r]) + (base[r] - A[r, p])
            v2 = (base[p] - A[p, r]) + (base[r] - A[r, q]) + (base[q] - A[q, p])
            checked += 2 * len(q)
            for v in (v1, v2):
                t = int(np.argmax(v)) if len(v) else -1
                if t >= 0 and float(v[t]) > worst:
                    perm = (q[t], r[t], p) if v is v1 else (r[t], p, q[t])
                    note(float(v[t]), (p, int(q[t]), int(r[t])), perm)

    if max_cycle_len >= 4:
        b, c = base.tolist(), A.tolist()
        for t in permutations(range(S), 4):
            if t[0] == min(t):
                i, j, k, l = t
                v = (b[i] - c[i][j]) + (b[j] - c[j][k]) + (b[k] - c[k][l]) + (b[l] - c[l][i])
                checked += 1
                note(v, t, (j, k, l, i))

    return CcmReport(
        cycles_checked=checked,
        worst_violation=float(worst) if checked else 0.0,
        violating_cycle=witness,
    )


# --- the references of the compiled kernel ---------------------------------


class ReferenceKernel:
    """The nine entry points of the compiled kernel, as the Python and numpy
    code that ``_pivot.c`` ports; called with the same arguments, each
    returns the same bits.  Patching ``_kernel._compiled_kernel`` with this
    class runs the solver, the cost matrices and the audits on it."""

    def start(self, a, b, C):
        return _python_start(a, b, C)

    def pivot_loop(self, tree, pivot_budget):
        return _pivot_loop(tree, pivot_budget)

    def distances(self, x, y):
        # the casts and shape check of _CompiledKernel.distances, which wraps the C code
        x, y = (np.asarray(z, dtype=float) for z in (x, y))
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
            raise ValueError(f"point arrays of shapes {x.shape} and {y.shape} do not match")
        return _numpy_distances(x, y)

    def pair_scores(self, src, tgt, C):
        return _numpy_pair_scores(src, tgt, C)

    def cycle_scores(self, cycles, src, tgt, C):
        return _numpy_cycle_scores(_kernel._cycle_rows(cycles), src, tgt, C)

    def certify_maxima(self, phi, psi, C):
        return _numpy_certify_maxima(phi, psi, C)

    def cone_nearest(self, points, apices, lo, hi, rows, directions, deltas):
        return _numpy_cone_nearest(points, apices, lo, hi, rows, directions, deltas)

    def nearest_atoms(self, points, queries, k):
        return _numpy_nearest_atoms(points, queries, k)

    def affine_fits(self, points, neighbours, values):
        return _python_affine_fits(points, neighbours, values)


def _least_cost_basis(a, b, C):
    """Least-cost (matrix-minimum) basic feasible solution: m+n-1 tree arcs.

    Line u is source u (u < m) or target u - m.  Arcs are scanned by
    increasing cost, ties by arc id; an arc whose two lines are both
    alive is taken with the smaller remainder as its flow, and exactly
    that line is crossed out (both at the last step), so the arcs form a
    spanning tree.  Returns (arc ids, flows) in the order taken.

    Each remainder carries an integer epsilon part, the perturbation of
    Ahuja, Magnanti and Orlin: +1 for sources 1..m-1, -(m+n-1) for source
    0 and -1 for every target.  Comparing (remainder, epsilon) pairs
    lexicographically builds the basic solution of the perturbed
    problem, in which an arc's epsilon part is +-(size of its child's
    subtree) and never 0.  So every arc's perturbed flow is positive, and
    with the tree hung from source 0 every zero-flow arc has its source
    as the child: the tree is strongly feasible.
    """
    m, n = C.shape
    rest = np.asarray(a, dtype=float).tolist() + np.asarray(b, dtype=float).tolist()
    eps = [-(m + n - 1)] + [1] * (m - 1) + [-1] * n
    alive = [True] * (m + n)
    left_rows, left_cols = m, n
    arcs, flows = [], []
    while True:
        rows = np.flatnonzero(alive[:m])
        cols = np.flatnonzero(alive[m:])
        # The cheapest 4(rows + cols) arcs among the alive lines, sorted
        # by (cost, arc id).  Once they are scanned, every arc left
        # between alive lines costs more than the threshold, so the next
        # round picks up on the alive submatrix.
        sub = (C if len(rows) == m and len(cols) == n else C[np.ix_(rows, cols)]).ravel()
        k = min(4 * (len(rows) + len(cols)), sub.size)
        cand = np.flatnonzero(sub <= np.partition(sub, k - 1)[k - 1])
        cand = cand[np.argsort(sub[cand], kind="stable")]
        for i, j in zip(rows[cand // len(cols)].tolist(), cols[cand % len(cols)].tolist()):
            u = m + j
            if not (alive[i] and alive[u]):
                continue
            arcs.append(i * n + j)
            if left_rows == 1 and left_cols == 1:
                flows.append(max(min(rest[i], rest[u]), 0.0))
                return np.array(arcs, dtype=np.int64), np.array(flows)
            # The last row (column) stays until the last step; with exact
            # arithmetic the lexicographic rule already keeps it.
            if left_cols == 1 or (
                left_rows > 1 and (rest[i], eps[i]) < (rest[u], eps[u])
            ):
                out, keep = i, u
                left_rows -= 1
            else:
                out, keep = u, i
                left_cols -= 1
            f = max(rest[out], 0.0)
            flows.append(f)
            alive[out] = False
            rest[keep] -= f
            eps[keep] -= eps[out]


def _python_start(a, b, C):
    """:func:`_least_cost_basis` and its tree, rooted and threaded in one DFS.

    The Python reference for ``starting_tree`` in ``_pivot.c``, which must
    reproduce it bit for bit.
    """
    m, n = len(a), len(b)
    num_nodes = m + n
    cflat, opt_tol = _flat_costs(C)
    arcs0, flows0 = _least_cost_basis(a, b, cflat.reshape(m, n))
    adj = [[] for _ in range(num_nodes)]
    for arc, fl in zip(arcs0.tolist(), flows0.tolist()):
        u = arc // n
        v = m + arc % n
        adj[u].append((v, arc, fl))
        adj[v].append((u, arc, fl))

    # One DFS from the root (source 0).  In a tree the only neighbour
    # already seen is the parent, so the pop order is a preorder: it is
    # the thread.  Potentials follow from the tree equalities, pi[0] = 0.
    parent = [-1] * num_nodes
    parc = [0] * num_nodes  # arc id to parent (child-indexed)
    parc_flow = [0.0] * num_nodes
    pi = np.zeros(num_nodes)
    thread = []
    seen = [False] * num_nodes
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        thread.append(u)
        for v, arc, fl in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                parc[v] = arc
                parc_flow[v] = fl
                pi[v] = pi[u] - cflat[arc] if v >= m else pi[u] + cflat[arc]
                stack.append(v)
    if len(thread) != num_nodes:
        raise _kernel_error(4)  # NOT_SPANNING

    # next_/prev_ cycle through the thread; a subtree is a contiguous run
    # of it, so one reverse pass gives size[v] and last[v], its final node.
    size = [1] * num_nodes
    last = [0] * num_nodes
    next_ = [0] * num_nodes
    prev_ = [0] * num_nodes
    for t in range(num_nodes - 1, -1, -1):
        v = thread[t]
        last[v] = thread[t + size[v] - 1]
        if t:
            size[parent[v]] += size[v]
        next_[v] = thread[(t + 1) % num_nodes]
        prev_[v] = thread[t - 1]

    def ints(x):
        return np.array(x, dtype=np.int64)

    return _Start(arcs0, flows0, _Tree(
        cost=cflat, n=n, opt_tol=opt_tol,
        parent=ints(parent), parc=ints(parc), flow=np.array(parc_flow, dtype=float),
        size=ints(size), last=ints(last), next_=ints(next_), prev_=ints(prev_), pi=pi,
    ))


def _pivot_loop(tree, pivot_budget):
    """Pivot ``tree`` to optimality in place; returns the pivot count.

    The Python reference for the compiled loop in ``_pivot.c``, which
    must reproduce it bit for bit on finite costs while the potentials
    stay finite: only then is no reduced cost NaN.  (A potential that
    overflows makes the two loops part ways, and ``solve_exact`` refuses
    the run.)
    """
    cflat, n, opt_tol, pi = tree.cost, tree.n, tree.opt_tol, tree.pi
    num_nodes = len(pi)
    m = num_nodes - n
    num_arcs = m * n
    parent, parc, parc_flow, size, last, next_, prev_ = (
        getattr(tree, name).tolist() for name in _TREE_LISTS
    )

    # --- pricing -------------------------------------------------------
    block = _pricing_block(num_arcs)
    n_blocks = (num_arcs + block - 1) // block
    f_ptr = 0
    # Arc lo + t has source lo // n + (lo % n + t) // n and target node
    # m + (lo % n + t) % n, for t < block: two periodic index arrays,
    # sliced per block, stand in for per-arc index arrays of length m*n.
    i_cyc = np.arange(n + block, dtype=np.int64) // n
    jn_cyc = m + np.arange(n + block, dtype=np.int64) % n

    def find_entering():
        nonlocal f_ptr
        misses = 0
        while misses < n_blocks:
            lo = f_ptr
            hi = min(lo + block, num_arcs)
            f_ptr = hi % num_arcs
            i0, off = divmod(lo, n)
            end = off + hi - lo
            rc = cflat[lo:hi] - pi[i_cyc[off:end] + i0] + pi[jn_cyc[off:end]]
            t = int(np.argmin(rc))
            if rc[t] < -opt_tol:
                return lo + t
            misses += 1
        return -1

    # --- tree surgery (child-indexed arcs move with their child) -------
    def find_apex(p, q):
        sp, sq = size[p], size[q]
        while True:
            while sp < sq:
                p = parent[p]
                sp = size[p]
            while sp > sq:
                q = parent[q]
                sq = size[q]
            if sp == sq:
                if p != q:
                    p = parent[p]
                    sp = size[p]
                    q = parent[q]
                    sq = size[q]
                else:
                    return p

    def subtree(v):
        yield v
        stop = last[v]
        while v != stop:
            v = next_[v]
            yield v

    def remove_edge(s, t):
        # detach subtree rooted at t (parent[t] == s)
        size_t = size[t]
        prev_t = prev_[t]
        last_t = last[t]
        next_last_t = next_[last_t]
        parent[t] = -1
        next_[prev_t] = next_last_t
        prev_[next_last_t] = prev_t
        next_[last_t] = t
        prev_[t] = last_t
        while s != -1:
            size[s] -= size_t
            if last[s] == last_t:
                last[s] = prev_t
            s = parent[s]

    def make_root(q):
        ancestors = []
        v = q
        while v != -1:
            ancestors.append(v)
            v = parent[v]
        ancestors.reverse()
        for p, w in zip(ancestors, ancestors[1:]):
            size_p = size[p]
            last_p = last[p]
            prev_w = prev_[w]
            last_w = last[w]
            next_last_w = next_[last_w]
            parent[p] = w
            parent[w] = -1
            parc[p] = parc[w]
            parc_flow[p] = parc_flow[w]
            size[p] = size_p - size[w]
            size[w] = size_p
            next_[prev_w] = next_last_w
            prev_[next_last_w] = prev_w
            next_[last_w] = w
            prev_[w] = last_w
            if last_p == last_w:
                last[p] = prev_w
                last_p = prev_w
            prev_[p] = last_w
            next_[last_w] = p
            next_[last_p] = w
            prev_[w] = last_p
            last[w] = last_p

    def add_edge(arc, p, q, flow):
        # attach the tree rooted at q under p via the given arc
        last_p = last[p]
        next_last_p = next_[last_p]
        size_q = size[q]
        last_q = last[q]
        parent[q] = p
        parc[q] = arc
        parc_flow[q] = flow
        next_[last_p] = q
        prev_[q] = last_p
        prev_[next_last_p] = last_q
        next_[last_q] = next_last_p
        while p != -1:
            size[p] += size_q
            if last[p] == last_p:
                last[p] = last_q
            p = parent[p]

    # --- pivot loop ------------------------------------------------------
    pivots = 0
    while True:
        arc = find_entering()
        if arc < 0:
            break
        pivots += 1
        if pivots > pivot_budget:
            raise _kernel_error(1, pivot_budget)  # BUDGET_EXHAUSTED
        p_ent = arc // n
        q_ent = m + arc % n
        c_ent = cflat[arc]

        # The cycle runs apex -> p_ent -> q_ent -> apex.  Walking each side
        # up from its entering end, an arc carries flow against the cycle
        # (and blocks) if its child is a target on the q side or a source
        # on the p side.  "<=" on the q side, then "<" on the p side, picks
        # the last blocking arc in cycle order.  Removing it cuts off the
        # side it lies on, which re-hangs below the other entering end.
        apex = find_apex(p_ent, q_ent)
        theta = math.inf
        t_leave = -1  # child endpoint of the leaving arc
        v = q_ent
        while v != apex:
            if v >= m and parc_flow[v] <= theta:
                theta, t_leave, p_att, q_att = parc_flow[v], v, p_ent, q_ent
            v = parent[v]
        v = p_ent
        while v != apex:
            if v < m and parc_flow[v] < theta:
                theta, t_leave, p_att, q_att = parc_flow[v], v, q_ent, p_ent
            v = parent[v]
        if t_leave < 0:
            raise _kernel_error(2)  # NO_LEAVING_ARC
        if theta > 0.0:
            for v, step in ((q_ent, theta), (p_ent, -theta)):
                while v != apex:
                    parc_flow[v] += -step if v >= m else step
                    v = parent[v]

        remove_edge(parent[t_leave], t_leave)
        make_root(q_att)
        add_edge(arc, p_att, q_att, theta)
        d = pi[p_att] - c_ent - pi[q_att] if q_att >= m else pi[p_att] + c_ent - pi[q_att]
        if d != 0.0:
            for w in subtree(q_att):
                pi[w] += d

    for name, values in zip(_TREE_LISTS, (parent, parc, parc_flow, size, last, next_, prev_)):
        getattr(tree, name)[:] = values
    return pivots


def _numpy_distances(x, y):
    """The numpy reference for ``distances`` in ``_pivot.c``, filled one
    coordinate at a time.  Like ``cdist``, it returns inf for a distance that overflows, silently."""
    out = np.zeros((len(x), len(y)))
    with np.errstate(over="ignore"):
        for k in range(x.shape[1]):
            t = np.subtract.outer(x[:, k], y[:, k])
            t *= t
            out += t
    return np.sqrt(out, out=out)


def _numpy_pair_scores(src, tgt, C):
    """The numpy reference for ``pair_scores`` in ``_pivot.c``.  Over the
    pair swaps
    ((b_k + b_l) - C[src_k, tgt_l]) - C[src_l, tgt_k] of the support
    entries k != l, with b = C[src, tgt] and C finite, returns np.argmax
    as (value, k, l): one row k at a time, the first with the greatest
    value, then np.argmax within it."""
    base = C[src, tgt]
    best, at = -math.inf, (0, 0)
    with np.errstate(over="ignore"):
        for k in range(len(src)):
            v = (base[k] + base) - C[src[k], tgt] - C[src, tgt[k]]
            v[k] = -np.inf  # k == l is not a cycle
            l = int(np.argmax(v))
            if v[l] > best:
                best, at = float(v[l]), (k, l)
    return best, *at


def _numpy_cycle_scores(cycles, src, tgt, C):
    """The numpy reference for ``cycle_scores`` in ``_pivot.c``.  Scores
    every row of ``cycles`` as the sum, column by column from the first,
    of C[src, tgt] - C[src, tgt of the next entry]; returns (np.argmax
    value, its row), (-inf, None) for no row."""
    if not len(cycles):
        return -math.inf, None
    rotated = np.roll(cycles, -1, axis=1)
    terms = C[src[cycles], tgt[cycles]] - C[src[cycles], tgt[rotated]]
    v = terms[:, 0].copy()
    with np.errstate(over="ignore"):
        for column in terms.T[1:]:
            v += column
    t = int(np.argmax(v))
    return float(v[t]), cycles[t]


def _numpy_certify_maxima(phi, psi, C):
    """The numpy reference for ``certify_maxima`` in ``_pivot.c``; a zero
    maximum is +0.0, whichever zero came first."""
    viol = ((phi[:, None] + psi[None, :]) - C).max()
    return float(np.abs(C).max(initial=0.0)), float(viol) + 0.0


def _cone_terms(w, U):
    """r and the dot products of the rows of ``w`` with the directions
    ``U``, each summed in order from 0.0 as ``cone_nearest`` in
    ``_pivot.c`` sums them: no BLAS (which may fuse multiply-adds) and no
    ``np.linalg.norm`` (which sums 8 or more squares pairwise)."""
    r2 = np.zeros(len(w))
    dots = np.zeros((len(w), len(U)))
    for k in range(w.shape[1]):
        r2 += w[:, k] * w[:, k]
        dots += w[:, k, None] * U[:, k]
    return np.sqrt(r2), dots


def _numpy_cone_nearest(points, apices, lo, hi, rows, directions, deltas):
    """The numpy reference for ``cone_nearest`` in ``_pivot.c``: for apex t
    over the atoms ``points[rows[lo[t]:hi[t]]]``, the least r > 0 with
    dot >= (1 - delta) * r in each (delta, direction) cone, NaN where there
    is none."""
    nearest = np.full((len(apices), len(deltas), len(directions)), np.nan)
    for t, x in enumerate(apices):
        r, dots = _cone_terms(points[rows[lo[t]:hi[t]]] - x, directions)
        for l, dl in enumerate(deltas):
            inside = (dots >= (1.0 - dl) * r[:, None]) & (r > 0.0)[:, None]
            nearest[t, l] = np.fmin.reduce(
                np.where(inside, r[:, None], np.nan), axis=0, initial=np.nan
            )
    return nearest


def _numpy_nearest_atoms(points, queries, k):
    """The numpy reference for ``nearest_atoms`` in ``_pivot.c``, by brute
    force: every atom's squared distance to each query, summed one
    coordinate at a time as ``_numpy_distances`` sums it, and the k least
    (squared distance, atom index) keys of each query by ``np.lexsort``,
    as (atoms, distances)."""
    sq = np.zeros((len(queries), len(points)))
    with np.errstate(over="ignore"):
        for j in range(points.shape[1]):
            t = np.subtract.outer(queries[:, j], points[:, j])
            t *= t
            sq += t
    atoms = np.broadcast_to(np.arange(len(points)), sq.shape)
    order = np.lexsort((atoms, sq))[:, :k]
    return order, np.sqrt(np.take_along_axis(sq, order, axis=1))


# the sweep cap and rotation threshold of _pivot.c's affine_fits
_JACOBI_SWEEPS = 30
_JACOBI_TOL = 4 * sys.float_info.epsilon


def _dot(x, y):
    total = 0.0
    for s, t in zip(x, y):
        total += s * t
    return total


def _rotate(x, y, c, s):
    for r, (xr, yr) in enumerate(zip(x, y)):
        x[r] = c * xr - s * yr
        y[r] = s * xr + c * yr


def _python_affine_fits(points, neighbours, values):
    """The Python reference for ``affine_fits`` in ``_pivot.c``, one atom
    and one float at a time: the system [x_j - x_i, 1] s ~ phi_j - phi_i
    over row i of ``neighbours``, scaled by the power of two that brings
    its largest entry into [1/2, 1), orthogonalised by cyclic one-sided
    Jacobi sweeps (at most ``_JACOBI_SWEEPS``, rotating a pair of columns
    while their dot product exceeds ``_JACOBI_TOL`` times the product of
    their norms), and solved dropping the singular values at or below
    eps * k1 * (the greatest), as (gradients, root mean square misfits)."""
    n, d = points.shape
    k1 = neighbours.shape[1]
    pts, vals = points.tolist(), values.tolist()
    grads, resid = np.empty((n, d)), np.empty(n)
    for i, rows in enumerate(neighbours.tolist()):
        x = pts[i]
        diff = [[pts[j][l] - x[l] for l in range(d)] for j in rows]
        if not all(math.isfinite(t) for row in diff for t in row):
            raise ValueError(_kernel._NOT_FINITE_FIT.format(atom=i))
        rhs = [vals[j] - vals[i] for j in rows]
        top = 1.0
        for row in diff:
            for t in row:
                top = abs(t) if abs(t) > top else top
        scale = math.ldexp(1.0, -math.frexp(top)[1])
        # the columns of the scaled system, and of v, the product of the rotations
        cols = [[row[l] * scale for row in diff] for l in range(d)] + [[scale] * k1]
        v = [[float(l == c) for l in range(d + 1)] for c in range(d + 1)]
        for _ in range(_JACOBI_SWEEPS):
            rotated = False
            for p, q in combinations(range(d + 1), 2):
                alpha, beta = _dot(cols[p], cols[p]), _dot(cols[q], cols[q])
                gamma = _dot(cols[p], cols[q])
                if not abs(gamma) > _JACOBI_TOL * (math.sqrt(alpha) * math.sqrt(beta)):
                    continue
                zeta = (beta - alpha) / (gamma + gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                _rotate(cols[p], cols[q], c, c * t)
                _rotate(v[p], v[q], c, c * t)
                rotated = True
            if not rotated:
                break
        norm2 = [_dot(col, col) for col in cols]
        cutoff = sys.float_info.epsilon * k1 * max(math.sqrt(s) for s in norm2)
        sol = [0.0] * (d + 1)
        for c, col in enumerate(cols):
            if math.sqrt(norm2[c]) > cutoff:
                coef = _dot(col, rhs) / norm2[c]
                for l in range(d + 1):
                    sol[l] += v[c][l] * coef
        sol = [t * scale for t in sol]
        sq = 0.0
        for row, b in zip(diff, rhs):
            misfit = (_dot(row, sol[:d]) + sol[d]) - b
            sq += misfit * misfit
        grads[i] = sol[:d]
        resid[i] = math.sqrt(sq / k1)
    return grads, resid


# the compiled kernel, for KdTreeKernel to forward to while it is patched in
_compiled_kernel = _kernel._compiled_kernel


class KdTreeKernel:
    """The compiled kernel's ``nearest_atoms`` answered by scipy's k-d
    tree, whose order among equally distant atoms is the tree's own: on
    inputs with no ties it must give the same atoms and distances.  The
    other entry point the reconstruction calls, ``affine_fits``, is the
    compiled kernel's, so a comparison sees the neighbours only."""

    def nearest_atoms(self, points, queries, k):
        dist, atoms = cKDTree(points).query(queries, k=[*range(1, k + 1)])
        return atoms, dist

    def affine_fits(self, points, neighbours, values):
        return _compiled_kernel().affine_fits(points, neighbours, values)


def resolution_reference(measure):
    """``geometry.resolution_scale`` from scipy's k-d tree: the median of
    each atom's distance to its second nearest atom, itself being the
    first."""
    dist, _ = cKDTree(measure.points).query(measure.points, k=2)
    return float(np.median(dist[:, 1]))
