"""Cone geometry and the empirical isotropy audit.

A measure that gives no mass to (d-1)-rectifiable sets concentrates on
points whose every cone -- any direction, any opening, any radius --
carries positive mass.  Discretely the property can only be probed above
the sample's resolution scale: for each sampled atom and each grid cell
``(direction, opening, radius)`` the audit asks whether any *other* atom
lies in the cone.  Diffuse samples fail only near the boundary of their
support; measures concentrated on a hyperplane fail massively in the
normal directions, which is the audit's negative control.

For the downward direction the cone membership test is equivalent to a
half-space test below the graph of a Lipschitz function with constant
``k(delta) = (1 - delta) / sqrt(delta * (2 - delta))``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IsotropyReport",
    "k_delta",
    "halfspace_equivalence",
    "direction_grid",
    "resolution_scale",
    "isotropy_audit",
]

# The audit's grid: unit directions, cone openings, and radii in
# multiples of the resolution scale.
_DIRECTIONS = 16
_DELTAS = (0.2, 0.5, 0.8)
_RADII = (10.0, 30.0, 100.0)
# Nearest atoms that settle each sampled apex before any exact rescan.
_NEIGHBOURS = 64


def k_delta(delta):
    """Lipschitz constant ``(1 - delta) / sqrt(delta * (2 - delta))``.

    Strictly decreasing on (0, 1): blows up as the cone closes and
    vanishes as it opens to a half-space.
    """
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return (1.0 - delta) / math.sqrt(delta * (2.0 - delta))


def halfspace_equivalence(x, delta, y):
    """Both forms of the downward-cone test; the pair must always agree.

    With the axis fixed to ``u = (0, ..., 0, -1)``, ``y`` lies in the
    unbounded cone at ``x`` when ``-w_d >= (1 - delta) * |w|`` for
    ``w = y - x``, which is equivalent to ``y_d <= x_d - k(delta) * |w'|``
    where the prime drops the last coordinate.  Returns (cone_test,
    halfspace_test).  Raises ``ValueError`` unless delta lies in (0, 1),
    x and y are points of one length, and every coordinate of x, y and
    y - x is finite.
    """
    k = k_delta(delta)
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"x and y must be points of one length, got {x.size} and {y.size}")
    w = y - x
    if not np.isfinite(w).all():
        raise ValueError("x, y and y - x must be finite")
    # |w| sums the squares pairwise, as np.linalg.norm(..., axis=1) does;
    # the 1-d np.linalg.norm takes a dot product, which rounds otherwise
    in_cone = -w[-1] >= (1.0 - float(delta)) * math.sqrt(np.add.reduce(w * w))
    in_half = y[-1] <= x[-1] - k * np.linalg.norm(w[:-1])
    return bool(in_cone), bool(in_half)


def direction_grid(dim, count):
    """Deterministic unit directions: uniform angles on the circle for
    d = 2, a Halton point set pushed through the Gaussian map for d >= 3."""
    if dim < 1 or count < 1:
        raise ValueError("dim and count must be positive")
    if dim == 1:
        return np.array([[1.0], [-1.0]][: min(count, 2)])
    if dim == 2:
        ang = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    from scipy.stats import norm, qmc

    halton = qmc.Halton(d=dim, scramble=False)
    halton.fast_forward(1)  # skip the origin sample
    pts = halton.random(count)
    pts = np.clip(pts, 1e-12, 1.0 - 1e-12)
    g = norm.ppf(pts)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def resolution_scale(measure):
    """Median distance from an atom to its nearest other atom; inf below
    2 atoms.

    The distances are the compiled kernel's ``nearest_atoms``, squares
    summed in coordinate order as scipy's ``cdist`` sums them.  Raises
    ``solver.SolverError`` if the kernel cannot be built.
    """
    if len(measure) < 2:
        return math.inf
    from . import solver  # the kernel is looked up at call time, as costs._distances does

    _, dist = solver._compiled_kernel().nearest_atoms(measure.points, measure.points, 2)
    return float(np.median(dist[:, 1]))


@dataclass
class IsotropyReport:
    """The audit's summary and grid, then one entry per sampled atom;
    ``atom_failed`` is ``fail_counts > 0``."""

    failing_mass_fraction: float
    worst_witness: tuple | None  # (apex, direction, delta, eps)
    sampled_atoms: np.ndarray
    atom_failed: np.ndarray
    fail_counts: np.ndarray
    distance_to_boundary: np.ndarray
    resolution: float
    deltas: tuple
    epsilons: tuple
    n_directions: int


def _check_point_sample(point_sample):
    if not isinstance(point_sample, numbers.Integral) or isinstance(point_sample, bool):
        raise ValueError(f"point_sample must be an integer, got {point_sample!r}")
    if point_sample < 1:
        raise ValueError(f"point_sample must be at least 1, got {point_sample}")


def isotropy_audit(measure, point_sample=500, seed=0):
    """Probe whether every cone at (sampled) atoms carries other mass.

    The grid is fixed: 16 directions (``direction_grid``), openings 0.2,
    0.5 and 0.8, and radii 10x/30x/100x the resolution scale.  Atoms are
    sampled by their share of the total mass.  The apex atom itself
    never counts: the question is whether *nearby* mass exists in every
    direction.  Failing mass is reported relative to the sampled mass;
    per-atom failure counts and the distance to the support's bounding
    box are included so boundary effects can be filtered downstream.

    Each apex is first settled from its 64 nearest atoms (one call of
    the compiled kernel's ``nearest_atoms`` for the whole sample, as for
    the resolution scale): per opening, the nearest in-cone distance of
    each direction answers every radius at once.  The verdicts are those
    of a scan over all atoms, whichever atoms tied at the 64th distance
    are taken: when the neighbours leave a cone empty yet do not reach
    past the largest radius, the apex is rescanned over the atoms,
    sorted once along the longest side of the bounding box, within that
    radius of it on that side.  Each scan
    is one call of the compiled kernel's ``cone_nearest``, which sums
    each atom's distance and dot products in order.  Raises
    ``ValueError`` unless ``point_sample`` is a (non-bool) integer >= 1
    and the measure has 2 atoms or more (below that there is no
    resolution scale to set the radii), and ``solver.SolverError`` if
    the kernel cannot be built.
    """
    _check_point_sample(point_sample)
    pts, n = measure.points, len(measure)
    if n < 2:
        raise ValueError(f"the isotropy audit needs at least 2 atoms, got {n}")
    res = resolution_scale(measure)
    epsilons = tuple(m * res for m in _RADII)

    rng = np.random.default_rng(seed)
    if point_sample >= n:
        sample = np.arange(n)
    else:
        p = measure.weights / measure.total_mass
        sample = np.sort(rng.choice(n, size=point_sample, replace=False, p=p))
    U = direction_grid(measure.dim, _DIRECTIONS)
    eps_arr = np.asarray(epsilons)
    X = pts[sample]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    dist_boundary = np.minimum(X - lo, hi - X).min(axis=1)

    from . import solver  # the kernel is looked up at call time, as costs._distances does

    kernel = solver._compiled_kernel()
    k = min(_NEIGHBOURS, n)
    near, dk = kernel.nearest_atoms(pts, X, k)
    starts = np.arange(0, near.size, k)
    nearest = kernel.cone_nearest(pts, X, starts, starts + k, near.ravel(), U, _DELTAS)
    if k < n:
        # an atom beyond the k nearest lies at r >= dk[:, -1], which the
        # kernel sums as it sums r
        settled = (nearest <= eps_arr.min()).all(axis=(1, 2))
        again = np.flatnonzero(~settled & (dk[:, -1] <= eps_arr.max()))
        reach = eps_arr.max() * (1.0 + 1e-9)
        # An open apex at x on the longest side scans the atoms at y in
        # [fl(x - reach), fl(x + reach)].  An atom the kernel counts at r <=
        # max(eps) has |y - x| < reach exactly (r rounds |y - x| by a few
        # ulps, inside the margin), and a double y >= c is >= fl(c): the
        # window holds every possible hit.  Its other atoms only lower a
        # ``nearest`` already above every eps, so no verdict moves.
        side = np.argmax(hi - lo)
        order = np.argsort(pts[:, side])
        line, x = pts[order, side], X[again, side]
        window = np.searchsorted(line, x - reach, "left"), np.searchsorted(line, x + reach, "right")
        nearest[again] = kernel.cone_nearest(pts, X[again], *window, order, U, _DELTAS)
    misses = ~(nearest[..., None, :] <= eps_arr[:, None])  # an empty cone's NaN misses
    fail_counts = misses.sum(axis=(1, 2, 3))
    atom_failed = fail_counts > 0
    worst = None
    if atom_failed.any():
        t = int(np.argmax(atom_failed))
        l, e, j = np.argwhere(misses[t])[0]
        worst = (X[t].copy(), U[j].copy(), _DELTAS[l], float(eps_arr[e]))
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
        deltas=_DELTAS,
        epsilons=epsilons,
        n_directions=len(U),
    )
