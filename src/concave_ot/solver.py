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

The start and the pivot loop run in C, in ``_pivot.c``: the least-cost
basis and its threaded tree (``starting_tree``), and pricing, leaving
arc, tree surgery and potential update (``pivot_loop``).  The start
takes arcs in (cost, arc id) order from sorted runs of each row's
cheapest arcs (6, or alive columns / alive rows if more), read in
place, so it copies no part of the cost matrix.  The loop prices a
block 64 arcs at a time, in vectors as wide as the compiler's target (32
bytes, four doubles, under AVX; else 16, two doubles), and rescans only
the first 64-arc chunk that lowered the block's least reduced cost for
the arc that has it; its tree updates stop at the pivot cycle's apex,
since the subtree cut off below the apex comes back below it: no size
above the apex changes, and one walk up from the apex moves the last
thread node of the ancestors whose subtree ended where the apex's did.
Both shortcuts keep every pivot and every array the same.  The
potential update walks exactly the entering subtree's size along the
thread and raises :class:`SolverError` if that walk does not end at the
subtree's last node.  The same library
computes the Euclidean distances each cost matrix is made of
(``distances``, called by ``costs._distances``, a vector of target atoms
at a time from the transpose of their coordinates), and scores two audits
in one pass over a cost matrix, with no m x n temporary: the pair swaps
and cycles of ``structure.verify_ccm`` (``pair_scores``,
``cycle_scores``) and the two maxima of :func:`certify`
(``certify_maxima``, also in vectors); it also finds the nearest atoms
of ``geometry.resolution_scale``, ``geometry.isotropy_audit``,
``measures.snap`` and ``structure.reconstruct_map_from_potential``
(``nearest_atoms``, a cell grid built per call), scans that audit's
cones (``cone_nearest``, directions in the lanes of a vector) and fits
the reconstruction's gradients (``affine_fits``, one one-sided Jacobi
SVD per neighbourhood, with ``lstsq``'s default cutoff).  The
first call of a process that needs the kernel loads it with ctypes,
compiling it first with the system
``cc -O2 -march=native -ffp-contract=off -fno-math-errno -shared -fPIC``
unless the package's ``__pycache__`` holds ``_pivot.<hash>.so`` (the
hash covers the source, the compiler command and the host CPU, so each
version compiles once per CPU).  ``-march=native`` lets the compiler use
the host's instruction encodings and vector width; ``-fno-math-errno``
makes each square root one instruction, lane-wise in the distances (the
kernel never reads ``errno``, and a square root is correctly rounded
either way); ``-ffp-contract=off`` forbids fused multiply-adds, so every
floating-point operation rounds as numpy's and Python's do, vector lanes
included, at either width: the kernel returns the bits of the
Python and numpy code it ports, which the test suite keeps as its
reference, and its distances are those of scipy's
``cdist``, bit for bit.  The kernel is required: if it cannot be
compiled or loaded, every solve, cost matrix and audit raises
:class:`SolverError`, naming the compiler command and its error.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import os
import platform
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
OPT_TOL_SCALE = 1e-12
MAX_DENSE_ENTRIES = 50_000_000


class SolverError(RuntimeError):
    """Solver failure: a compiled kernel that cannot be built or loaded,
    an instance over the dense cap, a cost matrix with non-finite entries
    (NaN, or inf from an overflowing distance), or an exhausted pivot
    budget."""


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


class _Tree(NamedTuple):
    """Spanning-tree basis of the network simplex, plus what pricing reads.

    Node ids: sources 0..m-1, targets m..m+n-1; arc k = i*n + j runs from
    source i to target node m+j.  The node arrays (int64 or float64, one
    entry per node) hang the tree from the root, source 0: ``parent``
    (-1 at the root), ``parc`` and ``flow`` (arc id to the parent and its
    flow), ``size`` and ``last`` (subtree size and final thread node),
    ``next_`` and ``prev_`` (the thread) and the potentials ``pi``.  A
    pivot loop updates them in place.
    """

    cost: np.ndarray  # flat m*n costs
    n: int
    opt_tol: float
    parent: np.ndarray
    parc: np.ndarray
    flow: np.ndarray
    size: np.ndarray
    last: np.ndarray
    next_: np.ndarray
    prev_: np.ndarray
    pi: np.ndarray


# the node arrays of a _Tree besides pi
_TREE_LISTS = ("parent", "parc", "flow", "size", "last", "next_", "prev_")


def _network_simplex(a, b, C, pivot_budget=None):
    """Primal network simplex on the dense bipartite transportation LP.

    Returns per-node flows on the arcs to parents, the arc ids, node
    potentials pi (pi[root]=0), and the pivot count; node and arc ids are
    those of :class:`_Tree`.  Reduced costs are c_ij - pi[i] + pi[m+j].
    The compiled kernel builds the start and runs the pivot loop.  The
    default budget of 1000 pivots per node is over 100 times the most
    seen (about 9, on separated clouds), so a loop that cannot finish
    fails in seconds.
    """
    kernel = _compiled_kernel()
    tree = kernel.start(a, b, C).tree
    if pivot_budget is None:
        pivot_budget = 1000 * len(tree.pi)
    pivots = kernel.pivot_loop(tree, pivot_budget)
    return tree.flow[1:], tree.parc[1:], tree.pi, pivots


class _Start(NamedTuple):
    """The least-cost basis (arc ids and flows, in the order taken) and
    the :class:`_Tree` it spans."""

    arcs: np.ndarray
    flows: np.ndarray
    tree: _Tree


def _flat_costs(C):
    """The costs as one contiguous float array, and the pricing tolerance."""
    cflat = np.ascontiguousarray(C, dtype=float).ravel()
    return cflat, OPT_TOL_SCALE * max(cflat.max(), 1e-300)


def _pricing_block(num_arcs):
    return int(math.ceil(math.sqrt(num_arcs)))


# the failing statuses of _pivot.c; NO_MEMORY (3) is a MemoryError instead
_KERNEL_ERRORS = {
    1: "pivot budget {budget} exhausted (numeric degeneracy?)",  # BUDGET_EXHAUSTED
    2: "no leaving arc found (internal error)",  # NO_LEAVING_ARC
    4: "initial basis is not spanning (internal error)",  # NOT_SPANNING
    5: "the tree's thread no longer spans a subtree (internal error)",  # BROKEN_THREAD
}


def _kernel_error(status, budget=None):
    return SolverError(_KERNEL_ERRORS[status].format(budget=budget))


# the ValueError of affine_fits's NOT_FINITE (6)
_NOT_FINITE_FIT = "the affine fit of atom {atom} has a coordinate difference that is not finite"


_PIVOT_SOURCE = Path(__file__).with_name("_pivot.c")
_CC = ("cc", "-O2", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")


@functools.cache
def _host_cpu():
    """What ``-march=native`` compiles for: the first line of /proc/cpuinfo
    that lists the CPU's features on Linux, else ``platform.machine()``."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            for line in info:
                if line.startswith(("flags", "Features")):  # x86, Arm
                    return line.strip()
    except OSError:
        pass
    return platform.machine()


def _build_pivot_kernel(cache_dir):
    """Path of the compiled ``_pivot.c`` in ``cache_dir``, compiled if absent.

    The file name carries the sha256 of the source, the compiler command
    and the host CPU, so each version is compiled once per cache directory
    and CPU: a library built with ``-march=native`` on one CPU can hold
    instructions that another lacks.  The compiler writes a temporary file
    that is then renamed into place, so a concurrent process never loads a
    partial library.
    """
    source = _PIVOT_SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join([*_CC, _host_cpu()]).encode()).hexdigest()[:16]
    path = Path(cache_dir) / f"_pivot.{key}.so"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_pivot.", suffix=".tmp", dir=path.parent)
        os.close(fd)
        try:
            subprocess.run(
                [*_CC, "-x", "c", "-o", tmp, "-"], input=source, check=True, capture_output=True
            )
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)
    return path


def _support(src, tgt, C):
    """A support's atom indices and its m x n costs as the kernel reads
    them; raises ValueError if an index falls outside ``C``."""
    src, tgt = (np.ascontiguousarray(x, dtype=np.int64) for x in (src, tgt))
    C = np.ascontiguousarray(C, dtype=float)
    if C.ndim != 2 or src.ndim != 1 or src.shape != tgt.shape or len(src) and not (
        0 <= src.min() <= src.max() < C.shape[0] and 0 <= tgt.min() <= tgt.max() < C.shape[1]
    ):
        raise ValueError("support indices do not match the cost matrix")
    return src, tgt, C


class _CompiledKernel:
    """ctypes binding of the nine entry points of ``_pivot.c``.  Each
    method returns the bits of the Python or numpy code the C ports,
    which the test suite keeps as its reference."""

    def __init__(self, path):
        self.path = path
        self._lib = ctypes.CDLL(str(path))
        i64 = ctypes.c_int64
        costs = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
        ints, floats = (
            np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS,WRITEABLE")
            for dtype in (np.int64, np.float64)
        )
        self._start = self._lib.starting_tree
        self._start.argtypes = [
            i64, i64, costs, costs, costs, ints, floats,
            ints, ints, floats, ints, ints, ints, ints, floats,
        ]
        self._start.restype = ctypes.c_int
        self._loop = self._lib.pivot_loop
        self._loop.argtypes = [
            i64, i64, i64, ctypes.c_double, i64, costs,
            ints, ints, floats, ints, ints, ints, ints, floats, ints,
            ctypes.POINTER(i64),
        ]
        self._loop.restype = ctypes.c_int
        self._distances = self._lib.distances
        self._distances.argtypes = [i64, i64, i64, costs, costs, floats]
        self._distances.restype = None
        out = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(i64)
        index = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
        self._pair_scores = self._lib.pair_scores
        self._pair_scores.argtypes = [
            i64, i64, index, index, costs, floats, ctypes.POINTER(ctypes.c_double), ints,
        ]
        self._pair_scores.restype = None
        self._cycle_scores = self._lib.cycle_scores
        self._cycle_scores.argtypes = [
            i64, i64, i64, index, i64, index, index, costs, *out,
        ]
        self._cycle_scores.restype = i64
        self._certify_maxima = self._lib.certify_maxima
        self._certify_maxima.argtypes = [i64, i64, costs, costs, costs, floats]
        self._certify_maxima.restype = None
        self._cone_nearest = self._lib.cone_nearest
        self._cone_nearest.argtypes = [
            i64, i64, costs, index, index, index, costs, i64, costs, i64, costs, floats,
        ]
        self._cone_nearest.restype = ctypes.c_int
        self._nearest_atoms = self._lib.nearest_atoms
        self._nearest_atoms.argtypes = [i64, i64, costs, i64, costs, i64, ints, floats]
        self._nearest_atoms.restype = ctypes.c_int
        self._affine_fits = self._lib.affine_fits
        self._affine_fits.argtypes = [
            i64, i64, costs, i64, index, costs, floats, floats, ctypes.POINTER(i64),
        ]
        self._affine_fits.restype = ctypes.c_int

    def start(self, a, b, C):
        m, n = len(a), len(b)
        cflat, opt_tol = _flat_costs(C)
        if len(cflat) != m * n:
            raise ValueError("the cost matrix does not match the weights")
        nodes = np.empty((6, m + n), dtype=np.int64)
        tree = _Tree(
            cost=cflat, n=n, opt_tol=opt_tol, parent=nodes[0], parc=nodes[1],
            flow=np.empty(m + n), size=nodes[2], last=nodes[3], next_=nodes[4],
            prev_=nodes[5], pi=np.empty(m + n),
        )
        start = _Start(np.empty(m + n - 1, dtype=np.int64), np.empty(m + n - 1), tree)
        status = self._start(
            m, n, np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float),
            cflat, start.arcs, start.flows, tree.parent, tree.parc, tree.flow, tree.size,
            tree.last, tree.next_, tree.prev_, tree.pi,
        )
        if status == 3:
            raise MemoryError("no memory for the starting tree")
        if status:
            raise _kernel_error(status)
        return start

    def distances(self, x, y):
        """The (m, n) Euclidean distances between the rows of the float
        arrays ``x`` and ``y``, the bits of scipy's ``cdist``: inf where
        a distance overflows."""
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
            raise ValueError(f"point arrays of shapes {x.shape} and {y.shape} do not match")
        out = np.empty((len(x), len(y)))
        self._distances(len(x), len(y), x.shape[1], x, np.ascontiguousarray(y.T), out)
        return out

    def pair_scores(self, src, tgt, C):
        """np.argmax over the pair swaps ((b_k + b_l) - C[src_k, tgt_l])
        - C[src_l, tgt_k] of the support entries k != l, with
        b = C[src, tgt], as (value, k, l): the first NaN, or else the
        first pair with the greatest value, rows k before columns l."""
        src, tgt, C = _support(src, tgt, C)
        S = len(src)
        best, at = ctypes.c_double(), np.zeros(2, dtype=np.int64)
        self._pair_scores(S, C.shape[1], src, tgt, C, np.empty(2 * S), ctypes.byref(best), at)
        return best.value, int(at[0]), int(at[1])

    def cycle_scores(self, cycles, limit, src, tgt, C):
        """Scores the first ``limit`` rows of ``cycles`` without a repeated
        entry, each the sum of its entries' own costs C[src, tgt] minus
        that with every entry's target taken from the next; returns (rows
        scored, np.argmax value, its row or None)."""
        src, tgt, C = _support(src, tgt, C)
        cycles = np.ascontiguousarray(cycles, dtype=np.int64)
        count, length = cycles.shape
        if count and not 0 <= cycles.min() <= cycles.max() < len(src):
            raise ValueError("cycles do not match the support")
        best, at = ctypes.c_double(), ctypes.c_int64()
        scored = self._cycle_scores(
            count, length, limit, cycles, C.shape[1], src, tgt, C, ctypes.byref(best),
            ctypes.byref(at),
        )
        return scored, best.value, cycles[at.value] if at.value >= 0 else None

    def certify_maxima(self, phi, psi, C):
        """(max |C_ij|, max (phi_i + psi_j) - C_ij), each NaN if a term
        is, as numpy's max returns them."""
        phi, psi, C = (np.ascontiguousarray(x, dtype=float) for x in (phi, psi, C))
        m, n = C.shape
        if phi.shape != (m,) or psi.shape != (n,):
            raise ValueError("potential shapes do not match the cost matrix")
        if not C.size:
            raise ValueError("an empty cost matrix has no maximum")
        out = np.empty(2)
        self._certify_maxima(m, n, phi, psi, C, out)
        return float(out[0]), float(out[1])

    def cone_nearest(self, points, apices, lo, hi, rows, directions, deltas):
        """nearest[t, l, j]: the least r > 0 from apex t to an atom
        ``points[rows[lo[t]:hi[t]]]`` in the cone of opening ``deltas[l]``
        around ``directions[j]``, NaN if the cone holds none; r and the dot
        products are each summed in order.  Windows may overlap."""
        points, apices, directions, deltas = (
            np.ascontiguousarray(x, dtype=float) for x in (points, apices, directions, deltas)
        )
        lo, hi, rows = (np.ascontiguousarray(x, dtype=np.int64) for x in (lo, hi, rows))
        d = points.shape[-1]
        if points.ndim != 2 or apices.shape[1:] != (d,) or directions.shape[1:] != (d,):
            raise ValueError("points, apices and directions must have the same columns")
        if (
            lo.shape != (len(apices),) or hi.shape != lo.shape
            or not ((0 <= lo) & (lo <= hi) & (hi <= len(rows))).all()
        ):
            raise ValueError("windows lo <= hi must lie within the rows, one per apex")
        if rows.ndim != 1 or len(rows) and not 0 <= rows.min() <= rows.max() < len(points):
            raise ValueError("rows do not index the points")
        if deltas.ndim != 1:
            raise ValueError("deltas must be one-dimensional")
        nearest = np.empty((len(apices), len(deltas), len(directions)))
        if self._cone_nearest(
            len(apices), d, apices, lo, hi, rows, points, len(directions),
            np.ascontiguousarray(directions.T), len(deltas), deltas, nearest,
        ):
            raise MemoryError("no memory for the cone scan's directions")
        return nearest

    def nearest_atoms(self, points, queries, k):
        """The k nearest rows of ``points`` to each row of ``queries``, as
        (atoms, distances), each of shape (len(queries), k): each query's
        k least keys (squared distance summed in coordinate order from
        0.0, atom index), in increasing order, so ties go to the lower
        index and the distances have the bits of scipy's ``cdist``."""
        points, queries = (np.ascontiguousarray(x, dtype=float) for x in (points, queries))
        if points.ndim != 2 or queries.ndim != 2 or queries.shape[1] != points.shape[1]:
            raise ValueError(
                f"point arrays of shapes {points.shape} and {queries.shape} do not match"
            )
        if not points.shape[1] or not (np.isfinite(points).all() and np.isfinite(queries).all()):
            raise ValueError("points and queries need finite coordinates, at least one each")
        if not 1 <= k <= len(points):
            raise ValueError(f"k must lie in [1, {len(points)}], got {k}")
        atoms = np.empty((len(queries), k), dtype=np.int64)
        dist = np.empty((len(queries), k))
        if self._nearest_atoms(
            len(points), points.shape[1], points, len(queries), queries, k, atoms, dist
        ):
            raise MemoryError("no memory for the grid of the nearest-atom search")
        return atoms, dist

    def affine_fits(self, points, neighbours, values):
        """The least-squares affine fit of ``values`` around each atom, as
        (gradients, residuals) of shapes (n, d) and (n,): row i of
        ``neighbours`` lists the atoms j of the system
        [x_j - x_i, 1] s ~ values_j - values_i, whose minimum-norm
        solution with ``lstsq``'s default cutoff gives the gradient
        s[:d], and the residual is the root mean square misfit.  A NaN
        value makes its fits NaN; a system with a non-finite entry raises
        ValueError naming its atom."""
        points, values = (np.ascontiguousarray(x, dtype=float) for x in (points, values))
        neighbours = np.ascontiguousarray(neighbours, dtype=np.int64)
        if (
            points.ndim != 2 or neighbours.ndim != 2 or not neighbours.shape[1]
            or not len(points) == len(neighbours) == len(values) or values.ndim != 1
        ):
            raise ValueError("points, values and neighbours need one row per atom, a neighbour each")
        n = len(points)
        if n and not 0 <= neighbours.min() <= neighbours.max() < n:
            raise ValueError("neighbours do not index the points")
        grads, resid, atom = np.empty(points.shape), np.empty(n), ctypes.c_int64()
        status = self._affine_fits(
            n, points.shape[1], points, neighbours.shape[1], neighbours, values, grads, resid,
            ctypes.byref(atom),
        )
        if status == 3:
            raise MemoryError("no memory for the affine fits")
        if status:
            raise ValueError(_NOT_FINITE_FIT.format(atom=atom.value))
        return grads, resid

    def pivot_loop(self, tree, pivot_budget):
        num_nodes, n = len(tree.pi), tree.n
        m = num_nodes - n
        if len(tree.cost) != m * n or any(
            len(getattr(tree, name)) != num_nodes for name in _TREE_LISTS
        ):
            raise ValueError("tree arrays do not match the instance size")
        pivots = ctypes.c_int64()
        status = self._loop(
            m, n, _pricing_block(m * n), tree.opt_tol, min(pivot_budget, 2**63 - 1),
            tree.cost, tree.parent, tree.parc, tree.flow, tree.size, tree.last,
            tree.next_, tree.prev_, tree.pi, np.empty(num_nodes, dtype=np.int64),
            ctypes.byref(pivots),
        )
        if status:
            raise _kernel_error(status, pivot_budget)
        return pivots.value


@functools.cache
def _compiled_kernel():
    """The compiled start, pivot loop, distances, audit scorers,
    nearest-atom search, cone scan and affine fits, built and loaded on
    first use.

    ``nearest_atoms`` serves ``geometry.resolution_scale`` and
    ``geometry.isotropy_audit``, the neighbourhoods of
    ``structure.reconstruct_map_from_potential`` and each nu-atom's
    nearest mu-atom in ``measures.snap``; ``affine_fits`` fits the
    reconstruction's gradients over those neighbourhoods.  So the
    package's exact path and its map reconstruction load no scipy
    module, and the reconstruction calls no ``np.linalg`` routine.

    If that fails (no ``cc``, a compile error, an unwritable cache), it
    raises :class:`SolverError` naming the compiler command and its
    error; nothing is cached, so the next call tries again.
    """
    try:
        return _CompiledKernel(_build_pivot_kernel(_KERNEL_CACHE))
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()
        raise SolverError(
            f"cannot build the compiled kernel with `{' '.join(_CC)}`:"
            f" {exc}{': ' + stderr if stderr else ''}"
        ) from exc


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
    max_cost, max_viol = _compiled_kernel().certify_maxima(phi, psi, C)
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
