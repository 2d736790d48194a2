"""The compiled kernel: ``_pivot.c``, built, cached and bound with ctypes.

The network simplex of :mod:`concave_ot.solver` runs its start and its
pivot loop here: the least-cost basis and its threaded tree
(``starting_tree``), and pricing, leaving arc, tree surgery and potential
update (``pivot_loop``).  The start takes arcs in (cost, arc id) order
from sorted runs of each row's cheapest arcs (6, or alive columns /
alive rows if more), read in place, so it copies no part of the cost
matrix.  The loop prices a block 64 arcs at a time, in vectors as wide
as the compiler's target (32 bytes, four doubles, under AVX; else 16,
two doubles), and rescans only the first 64-arc chunk that lowered the
block's least reduced cost for the arc that has it; its tree updates
stop at the pivot cycle's apex, since the subtree cut off below the apex
comes back below it: no size above the apex changes, and one walk up
from the apex moves the last thread node of the ancestors whose subtree
ended where the apex's did.  Both shortcuts keep every pivot and every
array the same.  The potential update walks exactly the entering
subtree's size along the thread and raises :class:`SolverError` if that
walk does not end at the subtree's last node.

The same library computes the Euclidean distances each cost matrix is
made of (``distances``, called by ``costs._pair_costs``, a vector of
target atoms at a time from the transpose of their coordinates), and
scores two audits in one pass over a cost matrix, with no m x n
temporary: the pair swaps and cycles of ``structure.verify_ccm``
(``pair_scores``, ``cycle_scores``) and the two maxima of
``solver.certify`` (``certify_maxima``, also in vectors); it also finds
the nearest atoms of ``geometry.resolution_scale``,
``geometry.isotropy_audit``, ``measures.snap`` and
``structure.reconstruct_map_from_potential`` (``nearest_atoms``, a cell
grid built per call), scans that audit's cones (``cone_nearest``,
directions in the lanes of a vector) and fits the reconstruction's
gradients (``affine_fits``, one one-sided Jacobi SVD per neighbourhood,
with ``lstsq``'s default cutoff).

The first call of a process that needs the kernel loads it with ctypes,
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
included, at either width: the kernel returns the bits of the Python and
numpy code it ports, which the test suite keeps as its reference, and
its distances are those of scipy's ``cdist``, bit for bit.  The kernel
is required: if it cannot be compiled or loaded, every solve, cost
matrix and audit raises :class:`SolverError`, naming the compiler
command and its error.

This module imports numpy, ctypes and the standard library only, so
every other module of the package imports it at load time.  They call
``_kernel._compiled_kernel()`` through this module, so one patch of that
name here reaches every caller.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

OPT_TOL_SCALE = 1e-12


class SolverError(RuntimeError):
    """Solver failure: a compiled kernel that cannot be built or loaded,
    an instance over the dense cap, a cost matrix with non-finite entries
    (NaN, or inf from an overflowing distance), or an exhausted pivot
    budget."""


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
        self._cycle_scores.argtypes = [i64, i64, index, i64, index, index, costs, *out]
        self._cycle_scores.restype = None
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
        """The (m, n) Euclidean distances between the rows of ``x`` and
        ``y``, read as float arrays, the bits of scipy's ``cdist``: inf
        where a distance overflows."""
        x, y = (np.ascontiguousarray(z, dtype=float) for z in (x, y))
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
            raise ValueError(f"point arrays of shapes {x.shape} and {y.shape} do not match")
        out = np.empty((len(x), len(y)))
        self._distances(len(x), len(y), x.shape[1], x, np.ascontiguousarray(y.T), out)
        return out

    def pair_scores(self, src, tgt, C):
        """np.argmax over the pair swaps ((b_k + b_l) - C[src_k, tgt_l])
        - C[src_l, tgt_k] of the support entries k != l, with
        b = C[src, tgt], as (value, k, l): the first pair with the
        greatest value, rows k before columns l.  ``C`` must be finite
        (a swap may then overflow to +-inf, but is never NaN); it is not
        checked here."""
        src, tgt, C = _support(src, tgt, C)
        S = len(src)
        best, at = ctypes.c_double(), np.zeros(2, dtype=np.int64)
        self._pair_scores(S, C.shape[1], src, tgt, C, np.empty(2 * S), ctypes.byref(best), at)
        return best.value, int(at[0]), int(at[1])

    def cycle_scores(self, cycles, src, tgt, C):
        """Scores every row of ``cycles``, each the sum of its entries' own
        costs C[src, tgt] minus that with every entry's target taken from
        the next; returns (np.argmax value, its row), (-inf, None) for no
        row.  ``C`` must be finite; two sums that overflow make a NaN
        score, which np.argmax returns first."""
        src, tgt, C = _support(src, tgt, C)
        cycles = np.ascontiguousarray(cycles, dtype=np.int64)
        count, length = cycles.shape
        if count and not 0 <= cycles.min() <= cycles.max() < len(src):
            raise ValueError("cycles do not match the support")
        best, at = ctypes.c_double(), ctypes.c_int64()
        self._cycle_scores(
            count, length, cycles, C.shape[1], src, tgt, C, ctypes.byref(best), ctypes.byref(at)
        )
        return best.value, cycles[at.value] if at.value >= 0 else None

    def certify_maxima(self, phi, psi, C):
        """(max |C_ij|, max (phi_i + psi_j) - C_ij) over a finite ``C``,
        the second NaN if a term is (a NaN potential), as numpy's max
        returns them."""
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
    package needs no scipy module, and the reconstruction calls no
    ``np.linalg`` routine.

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
