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
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "ConcaveCost",
    "PowerCost",
    "LogShiftCost",
    "PiecewiseConcaveCost",
    "DerivativeGap",
    "OutOfRange",
    "SubadditivityReport",
    "check_strict_subadditivity",
    "strict_triangle",
    "semiconcavity_margin",
    "c_transform",
    "cost_matrix",
    "cost_to_json",
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
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"{what} must be >= 0, got minimum {t.min()!r}")
    return t


def _as_positive(t, what="t"):
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError(f"{what} must be > 0, got minimum {t.min()!r}")
    return t


def _numbers(values, what):
    """A list, tuple or array of real numbers as a float array.

    Strings and bools raise ValueError, where ``np.asarray(..., dtype=float)``
    would parse ``"1"`` and read ``True`` as 1.
    """
    items = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(items, (list, tuple)) or not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items
    ):
        raise ValueError(f"{what} must be a list of numbers, got {values!r}")
    return np.array(items, dtype=float)


class ConcaveCost:
    """Base class: increasing concave ``f`` with ``f(0) = 0``."""

    kind = "abstract"

    def value(self, t):
        """Evaluate ``f(t)`` for scalar or array ``t >= 0``."""
        raise NotImplementedError

    def deriv(self, t, side="right"):
        """One-sided derivative at ``t > 0``; sides agree off kinks."""
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
        raise NotImplementedError

    def __call__(self, t):
        return self.value(t)


@dataclass(frozen=True)
class PowerCost(ConcaveCost):
    """``f(t) = t**alpha`` with ``0 < alpha < 1``."""

    alpha: float
    kind = "power"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    def value(self, t):
        t = _as_nonneg(t)
        return t**self.alpha

    def deriv(self, t, side="right"):
        _check_side(side)
        t = _as_positive(t)
        return self.alpha * t ** (self.alpha - 1.0)

    def _inv_deriv(self, p):
        p = _as_positive(p, "p")
        # alpha * t**(alpha-1) = p, slope range is all of (0, inf)
        never = np.zeros(p.shape, dtype=bool)
        return (p / self.alpha) ** (1.0 / (self.alpha - 1.0)), never, never

    def to_dict(self):
        return {"kind": "power", "alpha": self.alpha}


@dataclass(frozen=True)
class LogShiftCost(ConcaveCost):
    """``f(t) = log(1 + a*t)`` with ``a > 0``; slope at 0+ is finite (= a)."""

    a: float
    kind = "logshift"

    def __post_init__(self):
        # a JSON integer such as {"a": 2} is recorded as 2.0; a string raises
        object.__setattr__(self, "a", self.a + 0.0)
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")

    def value(self, t):
        t = _as_nonneg(t)
        return np.log1p(self.a * t)

    def deriv(self, t, side="right"):
        _check_side(side)
        t = _as_positive(t)
        return self.a / (1.0 + self.a * t)

    def _inv_deriv(self, p):
        p = _as_positive(p, "p")
        out = p >= self.a
        radii = np.where(out, np.nan, 1.0 / p - 1.0 / self.a)
        return radii, np.zeros(p.shape, dtype=bool), out

    def _slope_bounds(self):
        return 0.0, self.a

    def to_dict(self):
        return {"kind": "logshift", "a": self.a}


class PiecewiseConcaveCost(ConcaveCost):
    """Piecewise-linear concave cost with explicit kinks.

    ``breakpoints`` are the kink radii (sorted, positive); ``slopes`` has
    one more entry and must be strictly decreasing and positive, so the
    function is concave, strictly increasing, and continuous with
    ``f(0) = 0``.  Within a single linear segment the subadditivity margin
    degenerates to zero; it is strictly positive as soon as ``s + t``
    crosses the first kink.
    """

    kind = "piecewise"

    def __init__(self, breakpoints, slopes):
        bp = _numbers(breakpoints, "breakpoints")
        sl = _numbers(slopes, "slopes")
        if len(sl) != len(bp) + 1:
            raise ValueError("need len(slopes) == len(breakpoints) + 1")
        if len(bp) == 0:
            raise ValueError("need at least one breakpoint (otherwise the cost is linear)")
        if np.any(bp <= 0) or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be positive and strictly increasing")
        if np.any(sl <= 0) or np.any(np.diff(sl) >= 0):
            raise ValueError("slopes must be positive and strictly decreasing")
        self.breakpoints = bp
        self.slopes = sl
        # knots[i] is the left end of segment i; values[i] = f(knots[i])
        self._knots = np.concatenate([[0.0], bp])
        self._values = np.concatenate([[0.0], np.cumsum(sl[:-1] * np.diff(self._knots))])

    def _segment(self, t):
        # index of the segment containing t; kinks resolve to the right segment
        return np.minimum(
            np.searchsorted(self._knots, t, side="right") - 1, len(self.slopes) - 1
        )

    def value(self, t):
        t = _as_nonneg(t)
        seg = self._segment(t)
        return self._values[seg] + self.slopes[seg] * (t - self._knots[seg])

    def deriv(self, t, side="right"):
        _check_side(side)
        t = _as_positive(t)
        seg = self._segment(t)
        if side == "left":
            at_kink = np.isin(t, self.breakpoints)
            seg = np.where(at_kink, np.maximum(seg - 1, 0), seg)
        return self.slopes[seg] + 0.0 * t  # broadcast to t's shape

    def _inv_deriv(self, p):
        p = _as_positive(p, "p")
        sl = self.slopes
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
        radii = np.where(gap, self.breakpoints[kink], mid[np.minimum(seg, last - 1)])
        return np.where(out, np.nan, radii), gap, out

    def _slope_bounds(self):
        return float(self.slopes[-1]), float(self.slopes[0])

    def kinks(self):
        return self.breakpoints.copy()

    def to_dict(self):
        return {
            "kind": "piecewise",
            "breakpoints": self.breakpoints.tolist(),
            "slopes": self.slopes.tolist(),
        }

    def __repr__(self):
        return (
            f"PiecewiseConcaveCost(breakpoints={self.breakpoints.tolist()}, "
            f"slopes={self.slopes.tolist()})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, PiecewiseConcaveCost)
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.slopes, other.slopes)
        )

    def __hash__(self):
        return hash((self.breakpoints.tobytes(), self.slopes.tobytes()))


def _check_side(side):
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


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


def strict_triangle(cost, x, y, z):
    """Margin ``f(|x-y|) + f(|y-z|) - f(|x-z|)`` for a triple of points.

    Positive for every concave increasing ``f`` with a strict slope drop;
    the degenerate configurations ``x == y`` and ``y == z`` are rejected.
    """
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    dxy = float(np.linalg.norm(x - y))
    dyz = float(np.linalg.norm(y - z))
    if dxy == 0.0 or dyz == 0.0:
        raise ValueError("strict triangle margin needs x != y and y != z")
    dxz = float(np.linalg.norm(x - z))
    return float(cost.value(dxy) + cost.value(dyz) - cost.value(dxz))


def semiconcavity_margin(cost, d0, probes):
    """Worst second-difference margin of ``f(|x|) - 0.5*f'(d0)*|x|**2``.

    Away from the ball of radius ``d0`` that function is concave, so every
    second central difference ``(g(x+hv) - 2 g(x) + g(x-hv)) / h**2`` is
    nonpositive up to rounding.  Each probe is a triple ``(x, v, h)`` with
    ``v`` a unit vector; all three evaluated points must have norm >= d0.
    Returns ``min_probes(-second_difference)``, so a negative return beyond
    tolerance flags a violation.
    """
    d0 = float(_as_positive(d0, "d0"))
    kappa = float(np.asarray(cost.deriv(d0, side="right")))

    def g(pts):
        r = np.linalg.norm(pts, axis=-1)
        return cost.value(r) - 0.5 * kappa * r**2

    worst = np.inf
    for x, v, h in probes:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        h = float(_as_positive(h, "h"))
        pts = np.stack([x, x + h * v, x - h * v])
        r = np.linalg.norm(pts, axis=-1)
        if np.any(r < d0):
            raise ValueError(
                f"probe point with norm {r.min():.6g} lies inside the excluded ball"
                f" of radius {d0:.6g}"
            )
        vals = g(pts)
        second_diff = (vals[1] + vals[2] - 2.0 * vals[0]) / h**2
        worst = min(worst, -second_diff)
    return float(worst)


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
    mat = cost.value(cdist(from_support, to_support))
    return (mat - values[:, None]).min(axis=0)


def cost_matrix(mu, nu, cost):
    """Dense matrix ``f(|x_i - y_j|)`` between the atoms of two measures."""
    if len(mu) == 0 or len(nu) == 0:
        raise ValueError("cost_matrix needs nonempty measures")
    return cost.value(cdist(mu.points, nu.points))


def cost_to_json(cost):
    """Serialize a cost spec as a JSON string."""
    return json.dumps(cost.to_dict(), sort_keys=True)


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
