"""Structure of optimal plans under strictly concave increasing costs.

For such costs the common mass between the two measures stays at rest:
an optimal plan splits into a diagonal part whose two projections both
equal the lattice meet of the marginals, and an off-diagonal part whose
projections are mutually singular.  The off-diagonal part is (in the
diffuse limit) induced by a map that can be rebuilt pointwise from the
Kantorovich potential: the gradient magnitude pins the displacement
radius through the inverse cost derivative, its direction the
displacement direction.

This module provides the decomposition, report-style verifiers for the
stay-at-rest property and cyclical monotonicity of the support, map
extraction with split-source accounting, gradient-based map
reconstruction, and the kink/translation diagnostics used by the
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .measures import DiscreteMeasure, _jsonable, meet
from .solver import TransportPlan

__all__ = [
    "PlanDecomposition",
    "StayAtRestReport",
    "CcmReport",
    "MapExtract",
    "SplitSource",
    "ReconstructionResult",
    "KinkEventReport",
    "decompose",
    "verify_stay_at_rest",
    "verify_ccm",
    "extract_map",
    "reconstruct_map_from_potential",
    "detect_kink_events",
    "translation_mass",
]


def _marginal(measure, idx, mass):
    """Sub-marginal of a measure carried by the given (idx, mass) entries."""
    w = np.bincount(idx, weights=mass, minlength=len(measure))
    keep = w > 0
    if not keep.any():
        return DiscreteMeasure.empty(measure.dim)
    return DiscreteMeasure(measure.points[keep], w[keep], dim=measure.dim)


@dataclass
class PlanDecomposition:
    """Split of a plan into its diagonal and off-diagonal entries."""

    plan: TransportPlan
    diagonal: TransportPlan
    off_diagonal: TransportPlan
    diag_source_marginal: DiscreteMeasure
    diag_target_marginal: DiscreteMeasure
    off_source_marginal: DiscreteMeasure
    off_target_marginal: DiscreteMeasure

    @property
    def diagonal_mass(self):
        return float(self.diagonal.mass.sum())

    @property
    def off_diagonal_mass(self):
        return float(self.off_diagonal.mass.sum())


def decompose(plan):
    """Partition entries by exact point equality of source and target."""
    if plan.n_entries:
        on_diag = np.all(
            plan.source.points[plan.src_idx] == plan.target.points[plan.tgt_idx],
            axis=1,
        )
    else:
        on_diag = np.zeros(0, dtype=bool)

    def sub(mask):
        return TransportPlan(
            source=plan.source,
            target=plan.target,
            src_idx=plan.src_idx[mask],
            tgt_idx=plan.tgt_idx[mask],
            mass=plan.mass[mask],
        )

    diag, off = sub(on_diag), sub(~on_diag)
    return PlanDecomposition(
        plan=plan,
        diagonal=diag,
        off_diagonal=off,
        diag_source_marginal=_marginal(plan.source, diag.src_idx, diag.mass),
        diag_target_marginal=_marginal(plan.target, diag.tgt_idx, diag.mass),
        off_source_marginal=_marginal(plan.source, off.src_idx, off.mass),
        off_target_marginal=_marginal(plan.target, off.tgt_idx, off.mass),
    )


@dataclass
class StayAtRestReport:
    diag_matches_meet: bool
    off_marginals_singular: bool
    diag_mass: float
    meet_mass: float
    max_diag_deviation: float
    max_shared_off_mass: float

    @property
    def ok(self):
        return self.diag_matches_meet and self.off_marginals_singular

    def to_dict(self):
        return _jsonable(self)


def verify_stay_at_rest(mu, nu, plan, tol=1e-9):
    """Check the stay-at-rest structure of a (presumed optimal) plan.

    ``diag_matches_meet`` holds when the diagonal projection equals the
    common part of (mu, nu) atom by atom within ``tol``;
    ``off_marginals_singular`` holds when no atom carries more than
    ``tol`` off-diagonal mass as both a source and a target.  Report
    only: the caller is responsible for the plan being optimal for a
    strictly concave increasing cost.
    """
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


@dataclass
class CcmReport:
    """Cyclical-monotonicity audit of a plan's support."""

    cycles_checked: int
    worst_violation: float
    violating_cycle: tuple | None  # (entry indices, permuted entry indices)

    @property
    def ok(self):
        return self.violating_cycle is None

    def to_dict(self):
        return _jsonable(self)


# Largest number of cost entries verify_ccm holds at once.  Up to this
# many support pairs it evaluates the whole S x S matrix once and reads
# every cycle from it; beyond, it rebuilds row blocks of that size.
_CCM_ENTRIES = 4_000_000


def verify_ccm(plan, cost, max_cycle_len=3, tol=1e-9, seed=0, sample_size=100_000):
    """Search support cycles whose reassignment would lower the cost.

    Length-2 cycles (pair swaps) are checked exhaustively; length-3
    cycles exhaustively up to 450 support entries and by seeded sampling
    beyond; length-4 cycles by seeded sampling.  ``worst_violation`` is
    the largest value of sum(c(x_i, y_i)) - sum(c(x_i, y_sigma(i)))
    observed; for an optimal plan it stays below ``tol``.

    When the S x S cost matrix of the S support entries fits in
    ``_CCM_ENTRIES`` entries it is evaluated once: the pair swaps read it
    and its transpose, and the cycles gather from it.  Larger supports
    are checked in row blocks that recompute their costs; both ways give
    the same report.
    """
    if not 2 <= max_cycle_len <= 4:
        raise ValueError("max_cycle_len must be in [2, 4]")
    S = plan.n_entries
    xs = plan.source.points[plan.src_idx]
    ys = plan.target.points[plan.tgt_idx]
    base = cost.value(np.linalg.norm(xs - ys, axis=1))
    C = cost.value(cdist(xs, ys)) if S * S <= _CCM_ENTRIES else None

    if C is not None:
        def pair_cost(i, j):  # c(x_i, y_j) for index arrays of one shape
            return np.take(C, i * S + j)
    else:
        def pair_cost(i, j):
            return cost.value(np.linalg.norm(xs[i] - ys[j], axis=-1))

    worst = -math.inf
    witness = None
    checked = 0

    def note(value, entries, permuted):
        nonlocal worst, witness
        if value > worst:
            worst = value
            if value > tol:
                witness = (tuple(entries), tuple(permuted))

    # length 2: all ordered pairs, in row blocks when the matrix is too big
    chunk = max(S, 1) if C is not None else max(1, _CCM_ENTRIES // S)
    for lo in range(0, S, chunk):
        hi = min(lo + chunk, S)
        if C is not None:
            A, Bt = C, C.T
        else:
            A = cost.value(cdist(xs[lo:hi], ys))  # c(x_k, y_l) for k in block
            Bt = cost.value(cdist(xs, ys[lo:hi])).T  # c(x_l, y_k) for k in block
        V = base[lo:hi, None] + base[None, :]
        V -= A
        V -= Bt
        idx = np.arange(lo, hi)
        V[idx - lo, idx] = -np.inf  # k == l is not a cycle
        k_rel, l = np.unravel_index(np.argmax(V), V.shape)
        checked += (hi - lo) * S - (hi - lo)
        if V[k_rel, l] > worst:
            k = lo + int(k_rel)
            note(float(V[k_rel, l]), (k, int(l)), (int(l), k))

    if max_cycle_len >= 3 and S >= 3:
        if S <= 450:
            A = C if C is not None else cost.value(cdist(xs, ys))
            for p in range(S - 2):
                rest = np.arange(p + 1, S)
                q, r = np.meshgrid(rest, rest, indexing="ij")
                keep = q < r
                q, r = q[keep], r[keep]
                tot = base[p] + base[q] + base[r]
                v1 = tot - (A[p, q] + A[q, r] + A[r, p])
                v2 = tot - (A[p, r] + A[r, q] + A[q, p])
                checked += 2 * len(q)
                for v in (v1, v2):
                    t = int(np.argmax(v)) if len(v) else -1
                    if t >= 0 and float(v[t]) > worst:
                        perm = (q[t], r[t], p) if v is v1 else (r[t], p, q[t])
                        note(float(v[t]), (p, int(q[t]), int(r[t])), perm)
        else:
            checked += _sampled_cycles(base, pair_cost, 3, sample_size, seed, note)
    if max_cycle_len >= 4 and S >= 4:
        checked += _sampled_cycles(base, pair_cost, 4, sample_size, seed + 1, note)

    return CcmReport(
        cycles_checked=checked,
        worst_violation=float(worst) if checked else 0.0,
        violating_cycle=witness,
    )


def _sampled_cycles(base, pair_cost, length, sample_size, seed, note):
    """Seeded sample of ordered index tuples checked against one rotation."""
    S = len(base)
    rng = np.random.default_rng(seed)
    tuples = []
    need = sample_size
    while need > 0:
        cand = rng.integers(0, S, size=(int(need * 1.3) + 8, length))
        distinct = np.ones(len(cand), dtype=bool)
        for s in range(length):
            for t in range(s + 1, length):
                distinct &= cand[:, s] != cand[:, t]
        cand = cand[distinct]
        tuples.append(cand[:need])
        need -= len(cand[:need])
    tuples = np.vstack(tuples)
    rotated = np.roll(tuples, -1, axis=1)
    v = base[tuples].sum(axis=1) - pair_cost(tuples, rotated).sum(axis=1)
    t = int(np.argmax(v))
    note(float(v[t]), tuple(tuples[t]), tuple(rotated[t]))
    return len(tuples)


@dataclass(frozen=True)
class SplitSource:
    """Off-diagonal source whose mass goes to more than one target."""

    source: int
    targets: np.ndarray
    masses: np.ndarray


@dataclass
class MapExtract:
    """Per-source assignment extracted from the off-diagonal part."""

    assigned_sources: np.ndarray  # source atom indices with a unique target
    assigned_targets: np.ndarray  # matching target atom indices
    splits: list
    split_fraction: float

    def to_dict(self):
        return _jsonable(self)


def extract_map(decomp, mass_tol=1e-9):
    """Assign each off-diagonal source its target where it is unique.

    A source is assigned when all but at most ``mass_tol`` of its
    off-diagonal mass goes to a single target, the one of its largest
    entry (the first in plan order on a tie); the rest are recorded as
    splits, and ``split_fraction`` totals the off-diagonal mass they
    carry.
    """
    off = decomp.off_diagonal
    src, tgt, w = off.src_idx, off.tgt_idx, off.mass
    # by source, then largest mass first; lexsort is stable, so the first
    # entry of each group is its first largest one in plan order
    order = np.lexsort((-w, src))
    starts = np.flatnonzero(np.diff(src[order], prepend=-1))
    sources, best = src[order][starts], order[starts]
    # each group's total sums its masses in plan order
    total = np.add.reduceat(w[np.argsort(src, kind="stable")], starts)
    unique = total - w[best] <= mass_tol
    # a split lists its targets sorted by (target, mass)
    order = np.lexsort((w, tgt, src))
    order = order[np.isin(src[order], sources[~unique])]
    groups = np.split(order, np.flatnonzero(np.diff(src[order])) + 1) if len(order) else []
    splits = [SplitSource(source=int(src[e[0]]), targets=tgt[e], masses=w[e]) for e in groups]
    return MapExtract(
        assigned_sources=sources[unique],
        assigned_targets=tgt[best[unique]],
        splits=splits,
        split_fraction=float(total[~unique].sum()),
    )


@dataclass
class ReconstructionResult:
    """Targets predicted from a potential's local gradients.

    ``y_pred`` rows are NaN where the gradient was out of range.  When a
    plan is supplied, ``lp_targets``/``pred_error``/``direction_cosine``
    compare the prediction with the plan's assignment (NaN rows for
    split or purely diagonal sources).
    """

    y_pred: np.ndarray
    gradients: np.ndarray
    radii: np.ndarray
    fit_residual: np.ndarray
    gap_event: np.ndarray
    out_of_range: np.ndarray
    near_diagonal: np.ndarray
    lp_targets: np.ndarray | None = None
    pred_error: np.ndarray | None = None
    direction_cosine: np.ndarray | None = None

    @property
    def gap_count(self):
        return int(self.gap_event.sum())


def reconstruct_map_from_potential(
    potentials, mu, nu, cost, k_neighbors=8, plan=None, grad_tol=1e-8
):
    """Rebuild target predictions from the source-side potential.

    The gradient at each source atom is estimated by an affine
    least-squares fit of the potential over the ``k`` nearest source
    atoms; the inverse cost derivative converts its magnitude into a
    displacement radius (a kink's slope gap still pins the radius), and
    ``y_pred = x - r * grad/|grad|``.  Atoms whose gradient norm is at
    most ``grad_tol`` stay at rest (``near_diagonal``, radius 0).

    All fits are one stacked pseudo-inverse over the (n, k+1, d+1)
    neighbour systems, with ``lstsq``'s default cutoff, so a
    rank-deficient neighbourhood gets the minimum-norm gradient; the
    radii come from one array call of the inverse derivative, and only
    moving atoms divide by their gradient norm.
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

    # affine fit phi(x_j) - phi(x_i) ~ g . (x_j - x_i) + b over each
    # neighbourhood, all at once; pinv with lstsq's default cutoff gives
    # lstsq's minimum-norm solution on rank-deficient neighbourhoods
    A = np.ones((n, k + 1, d + 1))
    A[:, :, :d] = mu.points[nb] - mu.points[:, None, :]
    rhs = phi[nb] - phi[:, None]
    pinv = np.linalg.pinv(A, rcond=np.finfo(float).eps * (k + 1))
    sol = np.einsum("nij,nj->ni", pinv, rhs)
    grads = sol[:, :d]
    resid = np.sqrt(np.mean((np.einsum("nij,nj->ni", A, sol) - rhs) ** 2, axis=1))

    # flat gradients stay at rest; the others move by the inverse derivative
    gnorm = np.linalg.norm(grads, axis=1)
    near_diag = gnorm <= grad_tol
    moving = ~near_diag
    r, gap, out = cost._inv_deriv(gnorm[moving])
    radii = np.zeros(n)
    radii[moving] = r
    gap_event = np.zeros(n, dtype=bool)
    gap_event[moving] = gap
    out_of_range = np.zeros(n, dtype=bool)
    out_of_range[moving] = out
    y_pred = mu.points.copy()
    # out-of-range radii are NaN, and so are their rows
    y_pred[moving] -= r[:, None] * grads[moving] / gnorm[moving, None]

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
        extract = extract_map(decompose(plan))
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


@dataclass(frozen=True)
class KinkEventReport:
    count: int
    mass: float
    tol: float


def detect_kink_events(plan, cost, tol):
    """Support mass sitting within ``tol`` of a kink radius of the cost."""
    kinks = np.asarray(cost.kinks(), dtype=float)
    if kinks.size == 0 or plan.n_entries == 0:
        return KinkEventReport(count=0, mass=0.0, tol=float(tol))
    dist = plan.distances()
    near = np.abs(dist[:, None] - kinks[None, :]).min(axis=1) <= tol
    return KinkEventReport(
        count=int(near.sum()), mass=float(plan.mass[near].sum()), tol=float(tol)
    )


def translation_mass(plan, e, tol=0.02):
    """Plan mass moved by (approximately) the fixed vector ``e``.

    Counts entries with ``|y - (x + e)| <= tol * |e|``; the zero vector is
    rejected (that is the diagonal; use :func:`decompose`).
    """
    e = np.asarray(e, dtype=float).ravel()
    enorm = float(np.linalg.norm(e))
    if enorm == 0.0:
        raise ValueError("e must be nonzero; the diagonal is handled by decompose")
    if plan.n_entries == 0:
        return 0.0
    off = np.linalg.norm(plan.displacements() - e, axis=1)
    return float(plan.mass[off <= tol * enorm].sum())
