"""Discrete measures on R^d and their lattice operations.

A :class:`DiscreteMeasure` is a weighted point cloud with nonnegative
weights and pairwise-distinct atoms (exact duplicates are merged on
construction, atoms of zero weight dropped).  Its atoms are kept in
lexicographic order, which one stable ``np.lexsort`` of the rows,
:func:`_lex_order`, computes for the constructor and for
:func:`match_atoms` alike.  The lattice operations --
the common part ``mu /\\ nu`` and the positive residuals -- use exact
coordinate equality: the common mass between two measures is a
measure-theoretic object, and fuzzy matching would silently change the
problem.  Every exact match of atoms between two measures goes through
:func:`match_atoms`, and :func:`meet` is the one split of a pair into
that common part and the residuals, its measures built when read.

Also provides generators for the standard experiment instances (uniform
boxes, hyperplane-supported samples, and the three-parallel-segments
instance where no transport map can be optimal) plus file I/O: every table
goes through :func:`_write_table` and :func:`_read_table`, and a measure in
JSON, alone or in a plan header, is ``{"dim", "points", "weights"}``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "MassDecomposition",
    "MeasureFormatError",
    "match_atoms",
    "meet",
    "three_segments",
    "uniform_box",
    "translate",
    "snap",
    "hyperplane_sample",
    "save_measure",
    "load_measure",
]

# how far a measure file's mass may be from 1; solver.MARGINAL_TOL is twice it
MASS_TOL = 5e-10


class MeasureFormatError(ValueError):
    """Raised when a measure file fails to parse or validate."""


class DiscreteMeasure:
    """Finitely supported nonnegative measure on R^d.

    Atoms are stored in lexicographic order of their coordinates, which
    makes equal measures array-equal regardless of construction order:
    the distinct rows of :func:`_lex_order`'s stable sort, each weighing
    the sum of its duplicates' weights, added in input order.  Arrays
    are frozen after construction; all operations return new measures.
    """

    def __init__(self, points, weights, dim=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        weights = np.asarray(weights, dtype=float).ravel()
        if points.shape[0] != weights.shape[0]:
            raise ValueError(
                f"got {points.shape[0]} points but {weights.shape[0]} weights"
            )
        if points.size and not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if weights.size and not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0):
            raise ValueError(f"weights must be >= 0, got minimum {weights.min()!r}")
        if points.shape[0] == 0:
            if dim is None:
                raise ValueError("an empty measure needs an explicit dim")
            points = points.reshape(0, int(dim))
        elif dim is not None and points.shape[1] != dim:
            raise ValueError(f"points have dim {points.shape[1]}, expected {dim}")

        points = points + 0.0  # canonicalize -0.0
        keep = weights > 0.0
        points, weights = points[keep], weights[keep]
        if len(points):
            order, first = _lex_order(points)
            inverse = np.empty(len(order), dtype=np.intp)
            inverse[order] = np.cumsum(first) - 1
            points = points[order[first]]
            merged = np.zeros(len(points))
            np.add.at(merged, inverse, weights)
            weights = merged
        self.points = points
        self.weights = weights
        self.points.flags.writeable = False
        self.weights.flags.writeable = False

    @classmethod
    def empty(cls, dim):
        return cls(np.empty((0, dim)), np.empty(0), dim=dim)

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def __len__(self):
        return self.points.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, DiscreteMeasure)
            and self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self):
        return (
            f"DiscreteMeasure({len(self)} atoms, dim={self.dim}, "
            f"mass={self.total_mass:.6g})"
        )


def _lex_order(points):
    """Stable lexicographic sort of the rows of ``points`` (first
    coordinate first): the permutation ``order``, and the mask ``first``
    of the sorted rows that differ from the row before.  Rows of no
    coordinates are all equal."""
    order = (
        np.lexsort(points.T[::-1]) if points.shape[1] else np.arange(len(points))
    )
    rows = points[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return order, first


def _check_same_dim(mu, nu):
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")


def match_atoms(mu, nu):
    """Index pairs ``(i, j)`` with ``mu.points[i] == nu.points[j]`` exactly.

    Atoms of a measure are sorted and pairwise distinct, so in the
    stable :func:`_lex_order` of the stacked points a coincident atom is
    two adjacent equal rows, mu's first.  Both index arrays increase.
    """
    _check_same_dim(mu, nu)
    order, first = _lex_order(np.vstack([mu.points, nu.points]))
    k = np.flatnonzero(~first[1:])
    return order[k], order[k + 1] - len(mu)


@dataclass(frozen=True, eq=False)
class MassDecomposition:
    """Split of a pair (mu, nu) into common part and positive residuals.

    Atom ``mu_idx[k]`` of mu and atom ``nu_idx[k]`` of nu coincide and
    share the weight ``shared[k]``; ``mu_rest`` and ``nu_rest`` hold the
    excess left on every atom of each measure, zero where an atom is
    fully shared.  Residual atom k is atom ``np.flatnonzero(mu_rest)[k]``
    of mu (likewise for nu), as a subset of sorted, distinct atoms keeps
    its order.  The measures are built when read.
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    mu_idx: np.ndarray
    nu_idx: np.ndarray
    shared: np.ndarray
    mu_rest: np.ndarray
    nu_rest: np.ndarray

    @property
    def common(self):
        return DiscreteMeasure(self.mu.points[self.mu_idx], self.shared, dim=self.mu.dim)

    @property
    def mu_residual(self):
        return DiscreteMeasure(self.mu.points, self.mu_rest, dim=self.mu.dim)

    @property
    def nu_residual(self):
        return DiscreteMeasure(self.nu.points, self.nu_rest, dim=self.nu.dim)


def meet(mu, nu):
    """Atomwise lattice meet: common part and both positive residuals.

    For each point carried by both measures the common weight is the
    minimum of the two weights; residuals keep the atomwise excess.  The
    two residuals never share an atom.
    """
    i, j = match_atoms(mu, nu)
    shared = np.minimum(mu.weights[i], nu.weights[j])
    mu_rest = mu.weights.copy()
    nu_rest = nu.weights.copy()
    mu_rest[i] -= shared
    nu_rest[j] -= shared
    return MassDecomposition(mu, nu, i, j, shared, mu_rest, nu_rest)


def three_segments(n):
    """Midpoint discretization of the three-parallel-segments instance.

    The source is a vertical unit segment at abscissa 0 split into ``2n``
    equal atoms; the target puts ``n`` atoms each on the unit segments at
    abscissas 1 and -1.  Every source atom is at horizontal distance
    exactly 1 from every target atom, so the transport cost is bounded
    below by the cost of a unit displacement while maps can only approach
    that bound as ``n`` grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ya = (np.arange(2 * n) + 0.5) / (2 * n)
    mu = DiscreteMeasure(
        np.column_stack([np.zeros(2 * n), ya]), np.full(2 * n, 1.0 / (2 * n))
    )
    yb = (np.arange(n) + 0.5) / n
    pts = np.vstack(
        [
            np.column_stack([np.ones(n), yb]),
            np.column_stack([-np.ones(n), yb]),
        ]
    )
    nu = DiscreteMeasure(pts, np.full(2 * n, 1.0 / (2 * n)))
    return mu, nu


def uniform_box(n, dim, corner_lo=None, corner_hi=None, seed=0):
    """n i.i.d. uniform atoms of weight 1/n in an axis-aligned box."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    lo = np.zeros(dim) if corner_lo is None else np.asarray(corner_lo, dtype=float)
    hi = np.ones(dim) if corner_hi is None else np.asarray(corner_hi, dtype=float)
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError("corners must match dim")
    if np.any(hi <= lo):
        raise ValueError("degenerate box: need corner_lo < corner_hi componentwise")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, dim))
    return DiscreteMeasure(pts, np.full(n, 1.0 / n))


def translate(mu, e):
    """Push every atom forward by the vector e."""
    e = np.asarray(e, dtype=float).ravel()
    if e.shape != (mu.dim,):
        raise ValueError(f"translation vector has dim {e.shape[0]}, expected {mu.dim}")
    return DiscreteMeasure(mu.points + e, mu.weights, dim=mu.dim)


def snap(mu, nu, tol):
    """Relocate nu-atoms onto mu-atoms closer than ``tol``.

    Common mass is matched by exact coordinate equality, so atoms meant
    to coincide but separated by rounding never meet.  Snapping moves
    each nu-atom onto its nearest mu-atom when that atom is within
    ``tol``, which must be finite and positive; the returned measure
    merges any collisions.  Off by default everywhere; opt in
    deliberately, since it changes the instance.
    """
    from scipy.spatial import cKDTree

    _check_same_dim(mu, nu)
    if not tol > 0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol}")
    if tol == np.inf:
        raise ValueError(f"tol must be finite, got {tol}")
    if len(mu) == 0 or len(nu) == 0:
        return nu
    d, idx = cKDTree(mu.points).query(nu.points, k=1)
    pts = nu.points.copy()
    close = d <= tol
    pts[close] = mu.points[idx[close]]
    return DiscreteMeasure(pts, nu.weights, dim=nu.dim)


def hyperplane_sample(n, dim, seed=0):
    """n uniform atoms on the slab {x_d = 0} of the unit box (dim >= 2)."""
    if dim < 2:
        raise ValueError("hyperplane_sample needs dim >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    pts[:, -1] = 0.0
    return DiscreteMeasure(pts, np.full(n, 1.0 / n))


def save_measure(measure, path):
    """Write a measure to ``path``; format chosen by suffix (.csv or .json)."""
    path = Path(path)
    if path.suffix == ".csv":
        _write_table(path, None, [*measure.points.T, measure.weights])
    elif path.suffix == ".json":
        with open(path, "w") as fh:
            json.dump(_jsonable(measure), fh)
    else:
        raise MeasureFormatError(f"unsupported measure format {path.suffix!r}")


def load_measure(path):
    """Read a measure written by :func:`save_measure`; validates weights.

    CSV rows are ``x_1, ..., x_d, weight``; the JSON form is
    ``{"dim": d, "points": [[...], ...], "weights": [...]}``, the form a
    plan header embeds.  Parse failures report the offending line;
    negative weights and a total mass more than ``MASS_TOL`` away from 1
    are validation errors.
    """
    path = Path(path)
    if path.suffix == ".csv":
        table = _read_table(path)
        if table.shape[1] < 2:
            raise MeasureFormatError(f"{path}: need rows of coordinates then a weight")
        try:
            measure = DiscreteMeasure(table[:, :-1], table[:, -1])
        except ValueError as exc:
            raise MeasureFormatError(f"{path}: {exc}") from exc
    elif path.suffix == ".json":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MeasureFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        measure = _measure_from_dict(doc, path)
    else:
        raise MeasureFormatError(f"unsupported measure format {path.suffix!r}")
    deficit = measure.total_mass - 1.0
    if abs(deficit) > MASS_TOL:
        raise MeasureFormatError(
            f"weights must sum to 1, got {measure.total_mass!r} (deficit {-deficit:+.6g})"
        )
    return measure


_PLAIN = (str, int, float, bool, type(None))


def _jsonable(obj):
    """The JSON form of a result: the one encoder for every report.

    A report's JSON is its dataclass fields, each encoded in turn: a
    dataclass instance becomes a dict of its fields, a
    :class:`DiscreteMeasure` ``{"dim", "points", "weights"}`` (read back
    by :func:`_measure_from_dict`), arrays and tuples lists, and numpy
    scalars Python numbers.  Plain values are tested first: they are
    most of what a report holds.
    """
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, DiscreteMeasure):
        return {"dim": obj.dim, "points": obj.points.tolist(), "weights": obj.weights.tolist()}
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _measure_from_dict(doc, where):
    """Inverse of the :class:`DiscreteMeasure` branch of :func:`_jsonable`;
    ``where`` names the document in errors."""
    try:
        return DiscreteMeasure(
            np.asarray(doc["points"], dtype=float),
            np.asarray(doc["weights"], dtype=float),
            dim=int(doc["dim"]),
        )
    except KeyError as exc:
        raise MeasureFormatError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MeasureFormatError(f"{where}: {exc}") from exc


def _write_table(path, header, columns):
    """Write ``columns`` one row per index after an optional ``header`` row;
    a cell is the ``repr`` of its Python int or float, which reads back
    bit-exact, and every line, the last included, ends in ``\\n``."""
    rows = zip(*(map(repr, np.asarray(col).tolist()) for col in columns))
    lines = ([",".join(header)] if header else []) + [",".join(row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def _read_table(path, header=None):
    """The rows of a comma-separated table as a float array, blank lines
    skipped.  ``header``, if given, must be the first row, and every row
    must be as wide as it (or else as the first row); a bad cell or a
    wrong width raises :class:`MeasureFormatError` naming the file and
    the line."""
    rows, n = [], 1
    width = len(header) if header else None
    expect = list(header) if header else None  # the header row, until it is read
    with open(path, newline="") as fh:
        for n, row in enumerate(csv.reader(fh), start=1):
            if not (len(row) > 1 or row and row[0].strip()):
                continue
            if expect:
                if row != expect:
                    break
                expect = None
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise MeasureFormatError(f"{path}: line {n}: {exc}") from exc
            width = width or len(row)
            if len(row) != width:
                raise MeasureFormatError(
                    f"{path}: line {n}: expected {width} columns, got {len(row)}"
                )
    if expect:
        raise MeasureFormatError(f"{path}: line {n}: expected header {','.join(expect)}")
    return np.array(rows).reshape(len(rows), width or 0)
