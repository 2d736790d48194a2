"""Strictly concave increasing distance costs and their calculus.

A cost here is ``c(x, y) = f(|x - y|)`` where ``f : [0, inf) -> [0, inf)``
is increasing, concave, and vanishes at 0.  Such costs are strictly
subadditive wherever the slope actually drops, satisfy a strict triangle
inequality, and have a decreasing one-sided derivative whose inverse is
the key ingredient when rebuilding transport maps from dual potentials.

Three families are provided:

* :class:`PowerCost` -- ``t**alpha`` with ``0 < alpha < 1`` (smooth,
  infinite slope at 0).
* :class:`LogShiftCost` -- ``log(1 + a*t)`` (smooth, bounded slope at 0).
* :class:`PiecewiseConcaveCost` -- concave piecewise-linear with explicit
  kinks; the canonical non-differentiable test cost.

A family is a frozen dataclass whose fields are its parameters: a
``float`` field holds one finite number, a ``tuple`` field a list of
them.  :class:`ConcaveCost` parses the fields, checks the arguments of
:meth:`~ConcaveCost.deriv` and builds :meth:`~ConcaveCost.to_dict`; a
family states only its own range in ``__post_init__`` and its formulas.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import _kernel

__all__ = [
    "ConcaveCost",
    "PowerCost",
    "LogShiftCost",
    "PiecewiseConcaveCost",
    "DerivativeGap",
    "OutOfRange",
    "SubadditivityReport",
    "check_strict_subadditivity",
    "c_transform",
    "cost_matrix",
    "cost_from_json",
]

@dataclass(frozen=True)
class DerivativeGap:
    """Slope interval ``[right_slope, left_slope]`` at a kink radius.

    When a requested slope falls strictly inside the gap, only the slope is
    ambiguous: the radius ``point`` is still uniquely determined.
    """

    point: float
    left_slope: float
    right_slope: float


@dataclass(frozen=True)
class OutOfRange:
    """A requested slope that the cost derivative never attains.

    ``lo`` and ``hi`` bound the attainable slopes; receiving this value
    usually means an estimated potential gradient is inconsistent with
    the cost.
    """

    slope: float
    lo: float
    hi: float


def _as_nonneg(t, what="t"):
    """A float copy of ``t``, checked ``>= 0``."""
    t = np.array(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"{what} must be >= 0, got minimum {t.min()!r}")
    return t


def _as_positive(t, what="t"):
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError(f"{what} must be > 0, got minimum {t.min()!r}")
    return t


def _is_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _number(value, what):
    """A finite real number as a float; strings and bools raise ValueError."""
    if not _is_number(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _numbers(values, what):
    """A list, tuple or array of finite real numbers as a tuple of floats.

    Strings and bools raise ValueError, where ``np.asarray(..., dtype=float)``
    would parse ``"1"`` and read ``True`` as 1.
    """
    items = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(items, (list, tuple)) or not all(map(_is_number, items)):
        raise ValueError(f"{what} must be a list of numbers, each finite, got {values!r}")
    return tuple(float(v) for v in items)


class ConcaveCost:
    """Base class: increasing concave ``f`` with ``f(0) = 0``."""

    kind = "abstract"

    def __post_init__(self):
        """Parses each field; a family's own ``__post_init__`` calls this first."""
        for f in fields(self):
            # annotations are strings under ``from __future__ import annotations``
            parse = _number if f.type == "float" else _numbers
            object.__setattr__(self, f.name, parse(getattr(self, f.name), f.name))

    def value(self, t):
        """Evaluate ``f(t)`` for scalar or array ``t >= 0``."""
        return self._value_in_place(_as_nonneg(t))[()]

    def _value_in_place(self, t):
        """Overwrite the float array ``t >= 0`` with ``f(t)`` and return it.

        Each family writes its formula here once; :meth:`value` runs it on
        a copy and :func:`cost_matrix` on the distances it just computed.
        """
        raise NotImplementedError

    def deriv(self, t, side="right"):
        """One-sided derivative at ``t > 0``; sides agree off kinks."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self._deriv(_as_positive(t), side)

    def _deriv(self, t, side):
        """:meth:`deriv` at the float array ``t > 0``."""
        raise NotImplementedError

    def inv_deriv(self, p):
        """Invert the derivative at slope ``p > 0``.

        Returns the radius ``t`` when the slope is attained at a single
        radius, a :class:`DerivativeGap` when ``p`` falls strictly inside
        a kink's slope interval, and :class:`OutOfRange` when no radius
        attains ``p``.  A one-element call of :meth:`_inv_deriv`, so the
        two agree bit for bit.
        """
        p = float(_as_positive(p, "p"))
        radii, gap, out = self._inv_deriv(np.array([p]))
        if out[0]:
            lo, hi = self._slope_bounds()
            return OutOfRange(slope=p, lo=lo, hi=hi)
        radius = float(radii[0])
        if gap[0]:
            return DerivativeGap(
                point=radius,
                left_slope=float(self.deriv(radius, side="left")),
                right_slope=float(self.deriv(radius, side="right")),
            )
        return radius

    def _inv_deriv(self, p):
        """Array form of :meth:`inv_deriv` at slopes ``p > 0``.

        Returns ``(radii, gap, out_of_range)``.  ``gap`` marks slopes
        strictly inside a kink's slope interval, whose radius is the kink;
        ``out_of_range`` marks slopes no radius attains, whose radius is
        NaN.
        """
        raise NotImplementedError

    def _slope_bounds(self):
        """``(lo, hi)`` bounds of the attainable slopes, as in OutOfRange."""
        raise NotImplementedError

    def kinks(self):
        """Radii where ``f`` is not differentiable (sorted, may be empty)."""
        return np.empty(0)

    def to_dict(self):
        """The JSON spec :func:`cost_from_json` reads back: ``kind`` and
        the fields, tuples as lists."""
        doc = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc


@dataclass(frozen=True)
class PowerCost(ConcaveCost):
    """``f(t) = t**alpha`` with ``0 < alpha < 1``."""

    alpha: float
    kind = "power"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    def _value_in_place(self, t):
        t **= self.alpha
        return t

    def _deriv(self, t, side):
        return self.alpha * t ** (self.alpha - 1.0)

    def _inv_deriv(self, p):
        p = _as_positive(p, "p")
        # alpha * t**(alpha-1) = p, slope range is all of (0, inf); only a
        # NaN slope is out of range, and its radius is already NaN
        radii = (p / self.alpha) ** (1.0 / (self.alpha - 1.0))
        return radii, np.zeros(p.shape, dtype=bool), np.isnan(p)

    def _slope_bounds(self):
        return 0.0, np.inf


@dataclass(frozen=True)
class LogShiftCost(ConcaveCost):
    """``f(t) = log(1 + a*t)`` with ``a > 0``; slope at 0+ is finite (= a)."""

    a: float
    kind = "logshift"

    def __post_init__(self):
        super().__post_init__()
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")

    def _value_in_place(self, t):
        t *= self.a
        return np.log1p(t, out=t)

    def _deriv(self, t, side):
        return self.a / (1.0 + self.a * t)

    def _inv_deriv(self, p):
        p = _as_positive(p, "p")
        out = ~(p < self.a)  # NaN is out of range too
        radii = np.where(out, np.nan, 1.0 / p - 1.0 / self.a)
        return radii, np.zeros(p.shape, dtype=bool), out

    def _slope_bounds(self):
        return 0.0, self.a


@dataclass(frozen=True)
class PiecewiseConcaveCost(ConcaveCost):
    """Piecewise-linear concave cost with explicit kinks.

    ``breakpoints`` are the kink radii (sorted, positive); ``slopes`` has
    one more entry and must be strictly decreasing and positive, so the
    function is concave, strictly increasing, and continuous with
    ``f(0) = 0``.  Within a single linear segment the subadditivity margin
    degenerates to zero; it is strictly positive as soon as ``s + t``
    crosses the first kink.  Both are stored as tuples of floats.
    """

    breakpoints: tuple
    slopes: tuple
    kind = "piecewise"

    def __post_init__(self):
        super().__post_init__()
        bp, sl = np.array(self.breakpoints), np.array(self.slopes)
        if len(sl) != len(bp) + 1:
            raise ValueError("need len(slopes) == len(breakpoints) + 1")
        if len(bp) == 0:
            raise ValueError("need at least one breakpoint (otherwise the cost is linear)")
        if np.any(bp <= 0) or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be positive and strictly increasing")
        if np.any(sl <= 0) or np.any(np.diff(sl) >= 0):
            raise ValueError("slopes must be positive and strictly decreasing")
        # arrays for the formulas, not fields: knots[i] is the left end of
        # segment i, values[i] = f(knots[i])
        knots = np.concatenate([[0.0], bp])
        values = np.concatenate([[0.0], np.cumsum(sl[:-1] * np.diff(knots))])
        object.__setattr__(self, "_slopes", sl)
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_values", values)

    def _segment(self, t):
        # index of the segment containing t; kinks resolve to the right segment
        return np.minimum(
            np.searchsorted(self._knots, t, side="right") - 1, len(self.slopes) - 1
        )

    def _value_in_place(self, t):
        seg = self._segment(t)
        t -= self._knots[seg]
        t *= self._slopes[seg]
        t += self._values[seg]
        return t

    def _deriv(self, t, side):
        seg = self._segment(t)
        if side == "left":
            at_kink = np.isin(t, self.breakpoints)
            seg = np.where(at_kink, np.maximum(seg - 1, 0), seg)
        return self._slopes[seg] + 0.0 * t  # broadcast to t's shape

    def _inv_deriv(self, p):
        p = _as_positive(p, "p")
        sl = self._slopes
        last = len(sl) - 1
        # exact slope hit: the radius is any point of the segment; report its
        # midpoint, except on the unbounded last segment where no finite
        # radius is preferred
        near = np.abs(p[..., None] - sl) <= 1e-12 * sl
        hit = near.any(axis=-1)
        seg = near.argmax(axis=-1)
        out = ~((p >= sl[-1]) & (p <= sl[0])) | (hit & (seg == last))
        # otherwise strictly inside the slope gap of some kink: the first
        # slope below p is sl[i], and the kink is breakpoints[i - 1]
        gap = ~out & ~hit
        kink = np.clip(np.searchsorted(-sl, -p, side="left") - 1, 0, last - 1)
        mid = 0.5 * (self._knots[:-1] + self._knots[1:])
        radii = np.where(gap, self._knots[kink + 1], mid[np.minimum(seg, last - 1)])
        return np.where(out, np.nan, radii), gap, out

    def _slope_bounds(self):
        return self.slopes[-1], self.slopes[0]

    def kinks(self):
        return np.array(self.breakpoints)


@dataclass(frozen=True)
class SubadditivityReport:
    min_margin: float
    violations: int
    worst_pair: tuple


def check_strict_subadditivity(cost, samples):
    """Margin ``f(s) + f(t) - f(s+t)`` over sampled pairs of positive reals.

    Returns the minimum margin, the count of non-positive margins, and the
    pair attaining the minimum.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (s, t) pairs")
    s, t = _as_positive(samples[:, 0], "s"), _as_positive(samples[:, 1], "t")
    margin = cost.value(s) + cost.value(t) - cost.value(s + t)
    k = int(np.argmin(margin))
    return SubadditivityReport(
        min_margin=float(margin[k]),
        violations=int(np.count_nonzero(margin <= 0.0)),
        worst_pair=(float(s[k]), float(t[k])),
    )


def c_transform(values, cost, from_support, to_support):
    """Conjugate ``values`` across supports: ``out[y] = min_x c(x,y) - values[x]``.

    The pair ``(values, out)`` is then feasible for the dual transport
    problem restricted to the two supports.
    """
    from_support = np.atleast_2d(np.asarray(from_support, dtype=float))
    to_support = np.atleast_2d(np.asarray(to_support, dtype=float))
    if from_support.shape[0] == 0 or to_support.shape[0] == 0:
        raise ValueError("supports must be nonempty")
    values = np.asarray(values, dtype=float)
    if values.shape != (from_support.shape[0],):
        raise ValueError("values must have one entry per atom of from_support")
    mat = _pair_costs(cost, from_support, to_support)
    return (mat - values[:, None]).min(axis=0)


def cost_matrix(mu, nu, cost):
    """Dense matrix ``f(|x_i - y_j|)`` between the atoms of two measures."""
    if len(mu) == 0 or len(nu) == 0:
        raise ValueError("cost_matrix needs nonempty measures")
    return _pair_costs(cost, mu.points, nu.points)


def _pair_costs(cost, x, y):
    """The matrix ``f(|x_i - y_j|)`` over the rows of ``x`` and ``y``.

    The distances are the compiled kernel's ``distances``: it sums the
    squared coordinate differences in order from 0.0 and takes the square
    root, so it returns the bits of scipy's ``cdist``.  Raises
    ``SolverError`` if the kernel cannot be built, ``ValueError`` if the
    shapes do not match.  The three families evaluate ``f`` in place on
    the distance matrix, so one m x n array is alive, not two.  A cost
    that defines its own ``value`` (a subclass overriding it, or any
    object with a ``value`` method) is called on the distances.
    """
    dist = _kernel._compiled_kernel().distances(x, y)
    if type(cost).value is ConcaveCost.value:
        return cost._value_in_place(dist)
    return cost.value(dist)


_KINDS = {cls.kind: cls for cls in (PowerCost, LogShiftCost, PiecewiseConcaveCost)}


def cost_from_json(spec):
    """Build a cost from a JSON string or an already-parsed dict; the fields
    other than ``kind`` are the keyword arguments of the cost's class."""
    if isinstance(spec, (str, bytes)):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise ValueError("cost spec must be an object with a string 'kind' field")
    params = dict(spec)
    kind = params.pop("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown cost kind {kind!r}")
    try:
        return _KINDS[kind](**params)
    except TypeError as exc:
        raise ValueError(f"cost {kind!r}: {exc}") from exc
