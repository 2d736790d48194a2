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
experiments.  Both verifiers read the plan by atom index: its masses
binned per atom, and each cost from its m x n cost matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernel, solver
from .measures import DiscreteMeasure, meet
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


# Cycles of one length that verify_ccm checks: all of them up to this
# many, else a seeded sample of this many.
_SAMPLE_SIZE = 100_000
# Gradient norm at or below which a reconstructed atom stays at rest.
_GRAD_TOL = 1e-8
# Relative tolerance of translation_mass: |y - (x + e)| <= _TRANSLATION_TOL * |e|.
_TRANSLATION_TOL = 0.02


def _check_tol(tol, name="tol"):
    """``ValueError`` unless an audit's tolerance is >= 0: every
    comparison with a NaN is false, so a NaN tol would fail every check
    it bounds and pass every check it must exceed."""
    if not tol >= 0:
        raise ValueError(f"{name} must be >= 0, got {tol}")


def _marginal(measure, w):
    """Sub-marginal of a measure with per-atom weights ``w``."""
    keep = w > 0
    return DiscreteMeasure(measure.points[keep], w[keep], dim=measure.dim)


@dataclass
class PlanDecomposition:
    """Split of a plan into its diagonal and off-diagonal entries.  The
    marginal measures are built when read."""

    diagonal: TransportPlan
    off_diagonal: TransportPlan

    @property
    def diagonal_mass(self):
        return float(self.diagonal.mass.sum())

    @property
    def off_diagonal_mass(self):
        return float(self.off_diagonal.mass.sum())

    @property
    def diag_source_marginal(self):
        return _marginal(self.diagonal.source, self.diagonal.row_marginals())

    @property
    def off_source_marginal(self):
        return _marginal(self.off_diagonal.source, self.off_diagonal.row_marginals())

    @property
    def off_target_marginal(self):
        return _marginal(self.off_diagonal.target, self.off_diagonal.col_marginals())


def decompose(plan):
    """Partition entries by exact point equality of source and target."""
    on_diag = np.all(plan.source.points[plan.src_idx] == plan.target.points[plan.tgt_idx], axis=1)

    def sub(mask):
        return TransportPlan(
            source=plan.source,
            target=plan.target,
            src_idx=plan.src_idx[mask],
            tgt_idx=plan.tgt_idx[mask],
            mass=plan.mass[mask],
        )

    return PlanDecomposition(diagonal=sub(on_diag), off_diagonal=sub(~on_diag))


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


def verify_stay_at_rest(mu, nu, plan, tol=1e-9):
    """Check the stay-at-rest structure of a (presumed optimal) plan.

    ``diag_matches_meet`` holds when the diagonal projection equals the
    common part of (mu, nu) atom by atom within ``tol``;
    ``off_marginals_singular`` holds when no atom carries more than
    ``tol`` off-diagonal mass as both a source and a target.  Report
    only: the caller is responsible for the plan being optimal for a
    strictly concave increasing cost.  ``mu`` and ``nu`` must equal the
    plan's source and target (else ``ValueError``): one atom matching
    pairs them, and the masses of the two sub-plans of
    :func:`decompose` are binned per atom.  A NaN or negative ``tol``
    raises ``ValueError``.
    """
    _check_tol(tol)
    if mu != plan.source or nu != plan.target:
        raise ValueError("mu and nu must be the plan's source and target")
    split = meet(mu, nu)
    i, j, common = split.mu_idx, split.nu_idx, split.shared
    dec = decompose(plan)
    diag, off = dec.diagonal, dec.off_diagonal
    deviation = np.zeros(len(mu))  # common minus diagonal mass, per source atom
    deviation[i] = common
    deviation -= diag.row_marginals()
    max_dev = float(np.abs(deviation).max(initial=0.0))
    off_src, off_tgt = off.row_marginals(), off.col_marginals()
    shared = float(np.minimum(off_src[i], off_tgt[j]).max(initial=0.0))
    return StayAtRestReport(
        diag_matches_meet=max_dev <= tol,
        off_marginals_singular=shared <= tol,
        diag_mass=dec.diagonal_mass,
        meet_mass=float(common.sum()),
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


def verify_ccm(plan, cost, max_cycle_len=3, tol=1e-9, seed=0):
    """Search support cycles whose reassignment would lower the cost.

    Length-2 cycles (pair swaps) are all checked.  For each longer
    length L up to ``max_cycle_len``, every directed cycle of L distinct
    entries is checked, once and led by its least entry, when there are
    at most 100,000 of them; otherwise 100,000 ordered tuples are drawn
    with seed ``seed + L - 3``, uniformly among the tuples of L distinct
    entries, and each is checked as one cycle.  So every array of cycles
    holds at most 100,000 rows, and the audit's memory is fixed.
    ``worst_violation`` is the largest value of
    sum(c(x_i, y_i)) - sum(c(x_i, y_sigma(i))) observed; for an optimal
    plan it stays below ``tol``.  A cycle of 3 or more entries sums its
    terms c(x_i, y_i) - c(x_i, y_sigma(i)) left to right, each finite,
    so its score may overflow to +-inf but is never NaN, and no cycle
    hides the others of its length.
    ``violating_cycle`` lists the entries of the worst cycle and, in the
    same order, the entries whose targets they would take.

    Every cost is read by index from the plan's m x n cost matrix C,
    built once: entry k runs from source atom src_k to target atom
    tgt_k, so the cost of entry k's source and entry l's target is
    C[src_k, tgt_l].  Since every atom has an entry, S >= max(m, n) and
    C is never larger than the S x S matrix of the support.  Like
    :func:`solver.solve_exact`, this raises :class:`solver.SolverError`
    when C has more than ``MAX_DENSE_ENTRIES`` entries or a non-finite
    one.  The compiled kernel of :mod:`concave_ot._kernel` scores the
    pair swaps (``pair_scores``) and the cycles (``cycle_scores``),
    reading C in place.
    """
    if not 2 <= max_cycle_len <= 4:
        raise ValueError("max_cycle_len must be in [2, 4]")
    _check_tol(tol)
    S = plan.n_entries
    if S < 2:  # no cycle
        return CcmReport(cycles_checked=0, worst_violation=0.0, violating_cycle=None)
    src, tgt = plan.src_idx, plan.tgt_idx
    C = solver._dense_cost_matrix(plan.source, plan.target, cost)
    kernel = _kernel._compiled_kernel()

    worst = -math.inf
    witness = None

    def note(value, entries, permuted):
        nonlocal worst, witness
        if value > worst:
            worst = value
            if value > tol:
                witness = (tuple(entries), tuple(permuted))

    value, k, l = kernel.pair_scores(src, tgt, C)
    checked = S * (S - 1)
    note(value, (k, l), (l, k))

    for length in range(3, min(max_cycle_len, S) + 1):
        if math.comb(S, length) * math.factorial(length - 1) <= _SAMPLE_SIZE:
            cycles = _all_cycles(S, length)
        else:
            cycles = _sampled_cycles(S, length, seed + length - 3)
        value, cycle = kernel.cycle_scores(cycles, src, tgt, C)
        checked += len(cycles)
        note(value, cycle.tolist(), np.roll(cycle, -1).tolist())

    return CcmReport(
        cycles_checked=checked, worst_violation=float(worst), violating_cycle=witness
    )


def _all_cycles(S, length):
    """Every directed cycle of ``length`` distinct entries, led by its
    least, as the rows of one array: each combination of entries gives
    its ``(length - 1)!`` cycles."""
    orders = [(0, *rest) for rest in itertools.permutations(range(1, length))]
    flat = itertools.chain.from_iterable(itertools.combinations(range(S), length))
    combos = np.fromiter(flat, dtype=np.int64).reshape(-1, length)
    return combos[:, orders].reshape(-1, length)


def _sampled_cycles(S, length, seed):
    """A seeded sample of ``_SAMPLE_SIZE`` ordered tuples of ``length``
    distinct entries, uniform over all such tuples, as the rows of one
    array.  Column c draws r from [0, S - c) and steps it past the
    entries already taken in its row, in increasing order, so r lands on
    each entry not taken with equal chance."""
    rng = np.random.default_rng(seed)
    cycles = np.empty((_SAMPLE_SIZE, length), dtype=np.int64)
    taken = []  # the columns drawn so far, sorted within each row
    for c in range(length):
        # int32 halves the memory traffic; numpy refuses S past 2**31
        r = rng.integers(0, S - c, size=_SAMPLE_SIZE, dtype=np.int32)
        for x in taken:
            r += r >= x
        cycles[:, c] = r
        if c < length - 1:  # insert r into the sorted columns
            for i, x in enumerate(taken):
                taken[i], r = np.minimum(x, r), np.maximum(x, r)
            taken.append(r)
    return cycles


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


def extract_map(decomp, mass_tol=1e-9):
    """Assign each off-diagonal source its target where it is unique.

    A source is assigned when all but at most ``mass_tol`` of its
    off-diagonal mass goes to a single target, the one of its largest
    entry (the first in plan order on a tie); the rest are recorded as
    splits, and ``split_fraction`` totals the off-diagonal mass they
    carry.  A NaN or negative ``mass_tol`` raises ``ValueError``.
    """
    _check_tol(mass_tol, "mass_tol")
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


def _check_k_neighbors(k_neighbors, d, n):
    """``k_neighbors`` as an int, or ``ValueError`` below the d + 1 atoms
    that an affine gradient fit in d dimensions needs, or above n - 1, the
    neighbours that n source atoms give each atom."""
    k = int(k_neighbors)
    if k < d + 1:
        raise ValueError(f"the affine gradient fit needs k >= d + 1 = {d + 1}, got k = {k}")
    if n < k + 1:
        raise ValueError(f"gradient fit needs at least {k + 1} source atoms, got {n}")
    return k


def _row_norms(x):
    """The Euclidean norm of each row of ``x``, with the bits of
    ``np.linalg.norm(x, axis=1)``."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def reconstruct_map_from_potential(potentials, mu, nu, cost, k_neighbors=8, plan=None):
    """Rebuild target predictions from the source-side potential.

    The gradient at each source atom is estimated by an affine
    least-squares fit of the potential over the atom and its ``k``
    nearest source atoms, where ``k_neighbors`` must be at least d + 1
    and below the number of source atoms (``ValueError`` otherwise).  The
    neighbours are the compiled kernel's ``nearest_atoms``: the least
    (squared distance summed in coordinate order, atom index) keys, so
    of equally distant atoms the lower canonical index is taken.  The
    inverse cost derivative converts the gradient's magnitude into a
    displacement radius (a kink's slope gap still pins the radius), and
    ``y_pred = x - r * grad/|grad|``.  Atoms whose gradient norm is at
    most 1e-8 stay at rest (``near_diagonal``, radius 0).

    The fits are one call of the compiled kernel's ``affine_fits``: a
    one-sided Jacobi SVD of each (k+1) x (d+1) neighbour system, which
    drops the singular values that ``lstsq``'s default cutoff drops, so a
    rank-deficient neighbourhood gets the minimum-norm gradient.  An atom
    whose coordinate differences overflow raises ``ValueError`` naming
    it, and so, after the fits, does an atom whose distance to one of its
    neighbours overflows (those distances all tie at inf, so the atoms
    taken need not be the nearest); a NaN potential in a neighbourhood
    makes its fit NaN and the atom ``out_of_range``.  The radii come from
    one array call of the inverse derivative, and only moving atoms divide
    by their gradient norm.  A ``plan`` must have ``mu`` and ``nu`` as its
    source and target (else ``ValueError``), as its entries are read as
    atoms of the two.
    """
    if plan is not None and (mu != plan.source or nu != plan.target):
        raise ValueError("mu and nu must be the plan's source and target")
    d, n = mu.dim, len(mu)
    k = _check_k_neighbors(k_neighbors, d, n)
    phi = np.asarray(potentials.phi, dtype=float)
    if phi.shape != (n,):
        raise ValueError("phi must have one value per source atom")

    kernel = _kernel._compiled_kernel()
    nb, dist = kernel.nearest_atoms(mu.points, mu.points, k + 1)
    grads, resid = kernel.affine_fits(mu.points, nb, phi)
    # after the fits, whose ValueError names an overflowing difference first
    far = np.flatnonzero(dist[:, -1] == np.inf)
    if len(far):
        raise ValueError(f"the neighbourhood of atom {far[0]} has a distance that overflows")

    # flat gradients stay at rest; the others move by the inverse derivative
    gnorm = _row_norms(grads)
    near_diag = gnorm <= _GRAD_TOL
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
        err = _row_norms(y_pred - lp)
        disp = lp - mu.points
        dn = _row_norms(disp)
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


def translation_mass(plan, e):
    """Plan mass moved by (approximately) the fixed vector ``e``.

    Counts entries with ``|y - (x + e)| <= 0.02 * |e|``; the zero vector is
    rejected (that is the diagonal; use :func:`decompose`).
    """
    e = np.asarray(e, dtype=float).ravel()
    enorm = float(np.linalg.norm(e))
    if enorm == 0.0:
        raise ValueError("e must be nonzero; the diagonal is handled by decompose")
    if plan.n_entries == 0:
        return 0.0
    off = np.linalg.norm(plan.displacements() - e, axis=1)
    return float(plan.mass[off <= _TRANSLATION_TOL * enorm].sum())
