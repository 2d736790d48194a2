"""The exact solver for the discrete transport problem.

``solve_exact`` runs a primal network simplex on the dense bipartite
transportation polytope.  It returns a vertex plan together with exact
dual potentials (phi, psi), which downstream structure checks need: the
potentials certify optimality through feasibility and complementary
slackness, with a duality gap at rounding level.

The starting basis is least-cost (matrix-minimum): arcs are scanned by
increasing cost and each one taken crosses out one atom, so the m+n-1
arcs form a spanning tree.  Remainders carry an integer epsilon
perturbation, compared lexicographically, which makes the start
strongly feasible: hung from source 0, every zero-flow arc has its
source as the child.  The tree is rooted in one DFS from source 0,
whose preorder is the thread: the cyclic node order in which every
subtree is a contiguous run.  A reverse pass over it gives subtree
sizes, and subtree reattachment and potential updates stay linear in
the subtree size.

Pricing combines a block search (block size ~ sqrt(m*n), blocks visited
cyclically) with Dantzig's rule inside each block; the atom indices of
a block are slices of two periodic index arrays of length n + block,
offset by the block's start, so no array has m*n entries besides the
costs.  The leaving arc is
the last blocking arc around the pivot cycle, which preserves strong
feasibility and prevents cycling on the (heavily degenerate) uniform
instances.  Two walks up the tree find it, from the entering arc's
target end to the apex with ``<=`` and then from its source end with
``<``; the same two walks push the flow change.

The start and the pivot loop run in C, in ``_pivot.c``, which
:mod:`concave_ot._kernel` builds, caches and binds (``starting_tree``
and ``pivot_loop``); they return the bits of the Python code they port,
which the test suite keeps as its reference.  The kernel is required:
if it cannot be compiled or loaded, every solve raises
:class:`SolverError`, naming the compiler command and its error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _kernel
from ._kernel import SolverError
from .costs import cost_matrix
from .measures import (
    MASS_TOL, DiscreteMeasure, _jsonable, _measure_from_dict, _read_table, _write_table, meet,
)

__all__ = [
    "TransportPlan",
    "DualPotentials",
    "Certificate",
    "ExactSolution",
    "SolverError",
    "solve_exact",
    "solve_with_meet",
    "certify",
    "save_plan",
    "load_plan",
    "save_potentials",
]

# 1e-9: two measure files within MASS_TOL of mass 1 differ by at most
# this, so any two that load_measure accepts pass _check_pair
MARGINAL_TOL = 2 * MASS_TOL
MAX_DENSE_ENTRIES = 50_000_000


@dataclass
class TransportPlan:
    """Sparse coupling between two discrete measures.

    ``entries`` are parallel arrays (src_idx, tgt_idx, mass) indexing the
    atoms of ``source`` and ``target``.  Row/column sums reproduce the
    marginal weights; a basic LP solution carries at most m+n-1 entries.
    """

    source: DiscreteMeasure
    target: DiscreteMeasure
    src_idx: np.ndarray
    tgt_idx: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        self.src_idx = np.asarray(self.src_idx, dtype=np.int64).ravel()
        self.tgt_idx = np.asarray(self.tgt_idx, dtype=np.int64).ravel()
        self.mass = np.asarray(self.mass, dtype=float).ravel()
        if self.source.dim != self.target.dim:
            raise ValueError(
                f"source and target dimensions differ: {self.source.dim} vs {self.target.dim}"
            )
        if not (len(self.src_idx) == len(self.tgt_idx) == len(self.mass)):
            raise ValueError("entry arrays must have equal length")
        if not np.all((self.mass >= 0) & (self.mass < np.inf)):  # NaN fails both
            raise ValueError("entry masses must be finite and >= 0")
        if len(self.src_idx) and (
            self.src_idx.min() < 0
            or self.src_idx.max() >= len(self.source)
            or self.tgt_idx.min() < 0
            or self.tgt_idx.max() >= len(self.target)
        ):
            raise ValueError("entry indices out of range")

    @property
    def n_entries(self):
        return len(self.mass)

    def row_marginals(self):
        return np.bincount(self.src_idx, weights=self.mass, minlength=len(self.source))

    def col_marginals(self):
        return np.bincount(self.tgt_idx, weights=self.mass, minlength=len(self.target))

    def displacements(self):
        """Per-entry vectors y_j - x_i."""
        return self.target.points[self.tgt_idx] - self.source.points[self.src_idx]

    def distances(self):
        """Per-entry |y_j - x_i|, rounded as the cost matrices' distances
        are: squares summed one coordinate at a time, then the root."""
        out = np.zeros(self.n_entries)
        with np.errstate(over="ignore"):  # an overflow gives inf, silently
            for t in self.displacements().T:
                out += t * t
        return np.sqrt(out, out=out)

    def transport_cost(self, cost):
        if self.n_entries == 0:
            return 0.0
        return float(np.dot(self.mass, cost.value(self.distances())))

    def validate(self, basic=False):
        """Check marginal consistency within ``MARGINAL_TOL`` times
        ``max(1, total mass)``, the balance :func:`_check_pair` allows (and
        entry count for basic plans): the flows carry rounding relative to
        the masses."""
        tol = MARGINAL_TOL * max(1.0, self.source.total_mass)
        row_err = np.abs(self.row_marginals() - self.source.weights).max(initial=0.0)
        col_err = np.abs(self.col_marginals() - self.target.weights).max(initial=0.0)
        if row_err > tol or col_err > tol:
            raise ValueError(
                f"plan marginals violate tolerance {tol:g} "
                f"(row {row_err:.3g}, col {col_err:.3g})"
            )
        if basic and self.n_entries > len(self.source) + len(self.target) - 1:
            raise ValueError(
                f"basic plan has {self.n_entries} entries > m+n-1 ="
                f" {len(self.source) + len(self.target) - 1}"
            )
        return self


@dataclass
class DualPotentials:
    """Dual variables: phi on source atoms, psi on target atoms."""

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float).ravel()
        self.psi = np.asarray(self.psi, dtype=float).ravel()

    def objective(self, mu, nu):
        return float(np.dot(self.phi, mu.weights) + np.dot(self.psi, nu.weights))


@dataclass(frozen=True)
class Certificate:
    """Outcome of :func:`certify`; ``tolerance`` is the absolute bound its
    feasibility and slackness checks allowed."""

    feasible_dual: bool
    slack_ok: bool
    gap: float
    max_feasibility_violation: float
    max_slack_residual: float
    tolerance: float

    @property
    def ok(self):
        return self.feasible_dual and self.slack_ok


class ExactSolution(NamedTuple):
    plan: TransportPlan
    potentials: DualPotentials
    objective: float


def _check_pair(mu, nu):
    if len(mu) == 0 or len(nu) == 0:
        raise ValueError("both measures must be nonempty")
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if abs(mu.total_mass - nu.total_mass) > MARGINAL_TOL * max(1.0, mu.total_mass):
        raise ValueError(
            f"unbalanced problem: masses {mu.total_mass!r} vs {nu.total_mass!r}"
        )


def solve_exact(mu, nu, cost, pivot_budget=None):
    """Solve the transport LP exactly; returns (plan, potentials, objective).

    The duality gap is at rounding level and the potentials satisfy
    feasibility and complementary slackness within ``MARGINAL_TOL``; the
    potentials are normalized so phi vanishes at the first source atom.
    Ties between optimal vertices resolve by pivot order, so which
    optimal plan is returned is not canonical; only the objective is.
    Raises :class:`SolverError` where :func:`_dense_cost_matrix` does, or
    when the pivot budget runs out.
    """
    _check_pair(mu, nu)
    m, n = len(mu), len(nu)
    C = _dense_cost_matrix(mu, nu, cost)
    flows_by_node, parc, pi, pivots = _network_simplex(
        mu.weights, nu.weights, C, pivot_budget=pivot_budget
    )
    keep = flows_by_node > 0.0
    arc_ids = parc[keep]
    plan = TransportPlan(
        source=mu,
        target=nu,
        src_idx=arc_ids // n,
        tgt_idx=arc_ids % n,
        mass=flows_by_node[keep],
    ).validate(basic=True)
    potentials = DualPotentials(phi=pi[:m], psi=-pi[m:])
    objective = plan.transport_cost(cost)
    return ExactSolution(plan, potentials, objective)


def _dense_cost_matrix(mu, nu, cost):
    """The contiguous float64 ``cost_matrix`` that :func:`solve_exact`,
    :func:`certify` and ``verify_ccm`` read.

    Raises :class:`SolverError` over the dense cap, before the matrix is
    built; on a non-finite entry (NaN, or inf from an overflowing
    distance), which no plan can be priced or audited with; and when the
    compiled kernel that computes the distances cannot be built.
    """
    m, n = len(mu), len(nu)
    if m * n > MAX_DENSE_ENTRIES:
        cap = f"{MAX_DENSE_ENTRIES:.0e}".replace("e+0", "e")
        raise SolverError(
            f"the {m}x{n} cost matrix needs {8 * m * n:,} bytes, over the dense cap of"
            f" {cap} entries ({8 * MAX_DENSE_ENTRIES // 10**6} MB);"
            " solve a smaller or subsampled instance"
        )
    C = np.ascontiguousarray(cost_matrix(mu, nu, cost), dtype=float)
    finite = np.isfinite(C)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), n)
        raise SolverError(
            f"non-finite cost matrix entries: {C.size - np.count_nonzero(finite)} of"
            f" {m}x{n}, the first at (i, j) = ({i}, {j}): {C[i, j]}"
        )
    return C


def solve_with_meet(mu, nu, cost, no_meet=False):
    """Solve exactly, keeping the common mass at rest by construction.

    Returns (plan, potentials, objective, certificate, preprocessed).
    Under a strictly concave cost the meet mu /\\ nu stays at rest, so
    the LP runs on the two residuals and the common atoms come back as
    diagonal entries.  The certificate refers to the residual problem.
    The potentials are indexed by atom, like the plan: an atom with
    residual mass carries its residual potential, and an atom without
    one NaN.  If either residual is empty the plan is diagonal with zero
    potentials, and the residual problem is empty: its certificate is
    exact (gap, violation and slack 0.0, tolerance ``MARGINAL_TOL``) and
    no cost matrix is built.  ``no_meet`` solves the full problem without
    matching atoms; so does a pair with no shared atom.
    """
    split = None if no_meet else meet(mu, nu)
    if split is None or len(split.mu_idx) == 0:
        plan, pots, obj = solve_exact(mu, nu, cost)
        return plan, pots, obj, certify(plan, pots, cost), False
    i, j, common = split.mu_idx, split.nu_idx, split.shared
    rows, cols = np.flatnonzero(split.mu_rest), np.flatnonzero(split.nu_rest)
    if len(rows) == 0 or len(cols) == 0:
        plan = TransportPlan(
            source=mu, target=nu, src_idx=i, tgt_idx=j, mass=common
        ).validate()
        pots = DualPotentials(phi=np.zeros(len(mu)), psi=np.zeros(len(nu)))
        cert = Certificate(feasible_dual=True, slack_ok=True, gap=0.0,
                           max_feasibility_violation=0.0, max_slack_residual=0.0,
                           tolerance=MARGINAL_TOL)
        return plan, pots, 0.0, cert, True
    r_plan, pots, obj = solve_exact(split.mu_residual, split.nu_residual, cost)
    cert = certify(r_plan, pots, cost)
    phi = np.full(len(mu), np.nan)
    psi = np.full(len(nu), np.nan)
    phi[rows], psi[cols] = pots.phi, pots.psi
    plan = TransportPlan(
        source=mu,
        target=nu,
        src_idx=np.concatenate([i, rows[r_plan.src_idx]]),
        tgt_idx=np.concatenate([j, cols[r_plan.tgt_idx]]),
        mass=np.concatenate([common, r_plan.mass]),
    ).validate()
    return plan, DualPotentials(phi=phi, psi=psi), obj, cert, True


def _network_simplex(a, b, C, pivot_budget=None):
    """Primal network simplex on the dense bipartite transportation LP.

    Returns per-node flows on the arcs to parents, the arc ids, node
    potentials pi (pi[root]=0), and the pivot count; node and arc ids are
    those of ``_kernel._Tree``.  Reduced costs are c_ij - pi[i] + pi[m+j].
    The compiled kernel builds the start and runs the pivot loop.  The
    default budget of 1000 pivots per node is over 100 times the most
    seen (about 9, on separated clouds), so a loop that cannot finish
    fails in seconds.
    """
    kernel = _kernel._compiled_kernel()
    tree = kernel.start(a, b, C).tree
    if pivot_budget is None:
        pivot_budget = 1000 * len(tree.pi)
    pivots = kernel.pivot_loop(tree, pivot_budget)
    return tree.flow[1:], tree.parc[1:], tree.pi, pivots


def certify(plan, potentials, cost):
    """Optimality certificate for a (plan, potentials) pair.

    ``feasible_dual`` checks phi_i + psi_j <= c_ij everywhere;
    ``slack_ok`` checks equality on the plan's support; ``gap`` is the
    primal minus dual objective.  Both checks allow
    ``MARGINAL_TOL * max(1, max|C|)``, recorded as ``tolerance``:
    potentials carry rounding relative to the costs, as the solver's
    pricing tolerance does.

    The compiled kernel takes max|C| and the largest phi_i + psi_j - c_ij
    in one pass over the cost matrix (``certify_maxima``).  A NaN
    potential makes the largest violation NaN, so ``feasible_dual`` is
    False.  Like :func:`solve_exact`, it raises :class:`SolverError` where
    :func:`_dense_cost_matrix` does: over ``MAX_DENSE_ENTRIES`` cost
    entries, or on a non-finite one.
    """
    mu, nu = plan.source, plan.target
    phi, psi = potentials.phi, potentials.psi
    if phi.shape != (len(mu),) or psi.shape != (len(nu),):
        raise ValueError("potential shapes do not match the plan's measures")
    C = _dense_cost_matrix(mu, nu, cost)
    max_cost, max_viol = _kernel._compiled_kernel().certify_maxima(phi, psi, C)
    tol = MARGINAL_TOL * max(1.0, max_cost)
    if plan.n_entries:
        slack = np.abs(
            phi[plan.src_idx] + psi[plan.tgt_idx] - C[plan.src_idx, plan.tgt_idx]
        )
        max_slack = float(slack.max())
    else:
        max_slack = 0.0
    primal = plan.transport_cost(cost)
    dual = potentials.objective(mu, nu)
    return Certificate(
        feasible_dual=max_viol <= tol,
        slack_ok=max_slack <= tol,
        gap=float(primal - dual),
        max_feasibility_violation=max_viol,
        max_slack_residual=max_slack,
        tolerance=tol,
    )


def save_plan(plan, basepath, objective=None, gap=None):
    """Write ``basepath.csv`` (i, j, mass rows) and ``basepath.json`` header.

    The JSON header embeds both measures so the plan file round-trips on
    its own.  Returns the two paths.
    """
    basepath = Path(basepath)
    csv_path = basepath.with_suffix(".csv")
    json_path = basepath.with_suffix(".json")
    _write_table(csv_path, ("i", "j", "mass"), [plan.src_idx, plan.tgt_idx, plan.mass])
    header = {
        "format": "transport-plan",
        "entries_csv": csv_path.name,
        "objective": objective,
        "gap": gap,
        "mu": _jsonable(plan.source),
        "nu": _jsonable(plan.target),
    }
    with open(json_path, "w") as fh:
        json.dump(header, fh)
    return csv_path, json_path


def _listed_measure(doc, where):
    """The measure of a plan header, whose entries index its atoms as
    listed: so they must be listed as the measure stores them, once
    each, with positive weight, in canonical order."""
    measure = _measure_from_dict(doc, where)
    listed = np.reshape(doc["points"], (-1, measure.dim))
    if listed.shape != measure.points.shape or (listed != measure.points).any():
        raise ValueError(
            f"{where}: atoms must be listed once each, with positive weight, in"
            " canonical (lexicographic) order, since plan entries index them as listed"
        )
    return measure


def load_plan(json_path):
    """Read a plan written by :func:`save_plan`; returns (plan, header).
    A header measure whose atoms are not listed as stored is refused."""
    json_path = Path(json_path)
    with open(json_path) as fh:
        header = json.load(fh)
    if not isinstance(header, dict) or header.get("format") != "transport-plan":
        raise ValueError(f"{json_path}: not a transport-plan header")
    for key in ("mu", "nu", "entries_csv"):
        if key not in header:
            raise ValueError(f"{json_path}: missing key {key!r}")
    mu, nu = (_listed_measure(header[key], f"{json_path}: {key}") for key in ("mu", "nu"))
    csv_path = json_path.parent / header["entries_csv"]
    table = _read_table(csv_path, header=("i", "j", "mass"))
    ij = table[:, :2]
    if not (np.isfinite(ij) & (ij == np.round(ij))).all():
        raise ValueError(f"{csv_path}: i and j must be integers")
    i, j, mass = table.T
    plan = TransportPlan(source=mu, target=nu, src_idx=i, tgt_idx=j, mass=mass)
    return plan, header


def save_potentials(potentials, basepath):
    """Write phi/psi as (index, value) CSV files; returns the two paths."""
    basepath = Path(basepath)
    paths = tuple(basepath.parent / f"{basepath.name}_{name}.csv" for name in ("phi", "psi"))
    for path, vec in zip(paths, (potentials.phi, potentials.psi)):
        _write_table(path, ("index", "value"), [np.arange(len(vec)), vec])
    return paths
