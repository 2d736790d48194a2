import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concave_ot.costs import (
    DerivativeGap,
    LogShiftCost,
    OutOfRange,
    PiecewiseConcaveCost,
    PowerCost,
    c_transform,
    check_strict_subadditivity,
    cost_from_json,
    cost_matrix,
    cost_to_json,
    semiconcavity_margin,
    strict_triangle,
)
from concave_ot.measures import DiscreteMeasure

PW = PiecewiseConcaveCost([1.0], [2.0, 0.5])

alphas = st.floats(0.05, 0.95)
shifts = st.floats(0.1, 10.0)
radii = st.floats(1e-3, 1e3)


def smooth_costs():
    return st.one_of(alphas.map(PowerCost), shifts.map(LogShiftCost))


class TestEval:
    def test_power_values(self):
        p = PowerCost(0.5)
        assert p.value(4.0) == pytest.approx(2.0, abs=1e-12)
        assert p.value(1.0) == 1.0
        assert p.value(0.0) == 0.0

    def test_zero_for_all_kinds(self):
        for cost in (PowerCost(0.3), LogShiftCost(2.0), PW):
            assert cost.value(0.0) == 0.0

    def test_piecewise_values(self):
        assert PW.value(0.5) == 1.0
        assert PW.value(1.0) == 2.0
        assert PW.value(3.0) == 3.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            PowerCost(0.5).value(-1.0)

    def test_vectorized(self):
        t = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(PowerCost(0.5).value(t), [0.0, 1.0, 2.0])


class TestDeriv:
    def test_power_smooth_points(self):
        p = PowerCost(0.5)
        assert p.deriv(1.0, "left") == p.deriv(1.0, "right") == 0.5
        # alpha * t**(alpha - 1) at t = 4
        assert p.deriv(4.0) == pytest.approx(0.25, rel=1e-14)

    def test_piecewise_kink(self):
        assert PW.deriv(1.0, "left") == 2.0
        assert PW.deriv(1.0, "right") == 0.5
        assert PW.deriv(0.3) == 2.0
        assert PW.deriv(5.0) == 0.5

    def test_domain_error_at_zero(self):
        with pytest.raises(ValueError):
            PowerCost(0.5).deriv(0.0)
        with pytest.raises(ValueError):
            PW.deriv(-1.0)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            PowerCost(0.5).deriv(1.0, side="up")

    @given(cost=smooth_costs(), s=radii, t=radii)
    def test_right_deriv_strictly_decreasing(self, cost, s, t):
        lo, hi = sorted((s, t))
        if hi - lo < 1e-9 * hi:
            return
        assert cost.deriv(lo, "right") > cost.deriv(hi, "right")

    @given(cost=smooth_costs(), s=radii, t=radii)
    def test_eval_strictly_increasing(self, cost, s, t):
        lo, hi = sorted((s, t))
        if hi - lo < 1e-9 * hi:
            return
        assert cost.value(hi) > cost.value(lo)


class TestInvDeriv:
    def test_power_examples(self):
        p = PowerCost(0.5)
        assert p.inv_deriv(0.5) == pytest.approx(1.0, rel=1e-12)
        assert p.inv_deriv(0.25) == pytest.approx(4.0, rel=1e-12)

    def test_logshift_range(self):
        ls = LogShiftCost(1.0)
        assert ls.inv_deriv(0.5) == pytest.approx(1.0, rel=1e-12)
        out = ls.inv_deriv(1.5)
        assert isinstance(out, OutOfRange)
        assert out.hi == 1.0

    def test_piecewise_gap(self):
        gap = PW.inv_deriv(1.0)
        assert gap == DerivativeGap(point=1.0, left_slope=2.0, right_slope=0.5)

    def test_piecewise_out_of_range(self):
        assert isinstance(PW.inv_deriv(3.0), OutOfRange)
        assert isinstance(PW.inv_deriv(0.1), OutOfRange)
        # the unbounded last segment pins no radius
        assert isinstance(PW.inv_deriv(0.5), OutOfRange)

    def test_piecewise_plateau_midpoint(self):
        assert PW.inv_deriv(2.0) == 0.5

    def test_precondition(self):
        with pytest.raises(ValueError):
            PowerCost(0.5).inv_deriv(0.0)

    @given(cost=smooth_costs(), t=radii)
    def test_roundtrip_identity(self, cost, t):
        p = float(cost.deriv(t, "right"))
        back = cost.inv_deriv(p)
        assert not isinstance(back, (DerivativeGap, OutOfRange))
        assert back == pytest.approx(t, rel=1e-10, abs=1e-12)


class TestInvDerivArray:
    """The array inverse derivative against the scalar one, slope by slope."""

    KINKED = PiecewiseConcaveCost([0.5, 1.5], [3.0, 1.0, 0.25])
    # (slope, expected outcome, expected radius or None)
    PROBES = {
        "power": (PowerCost(0.3), [(0.3, "radius", 1.0), (1e-3, "radius", None),
                                   (50.0, "radius", None)]),
        "logshift": (LogShiftCost(2.0), [(0.5, "radius", 1.5), (2.0, "out", None),
                                         (2.5, "out", None), (1.0, "radius", 0.5)]),
        "piecewise": (KINKED, [
            (3.0, "radius", 0.25),  # exact hit on the first segment: its midpoint
            (1.0, "radius", 1.0),  # exact hit on the middle segment
            (0.25, "out", None),  # exact hit on the unbounded last segment
            (2.0, "gap", 0.5),  # inside the gap of the first kink
            (0.5, "gap", 1.5),  # inside the gap of the second kink
            (3.5, "out", None),  # above the largest slope
            (0.1, "out", None),  # below the smallest slope
        ]),
    }

    @staticmethod
    def assert_matches_scalar(cost, slopes):
        radii, gap, out = cost._inv_deriv(np.asarray(slopes, dtype=float))
        for p, r, g, o in zip(slopes, radii, gap, out):
            scalar = cost.inv_deriv(p)
            assert bool(o) == isinstance(scalar, OutOfRange), p
            assert bool(g) == isinstance(scalar, DerivativeGap), p
            if o:
                assert np.isnan(r)
            else:
                # bit for bit, not approximately
                assert r == (scalar.point if g else scalar), p

    @pytest.mark.parametrize("family", sorted(PROBES))
    def test_probes(self, family):
        cost, probes = self.PROBES[family]
        slopes = [p for p, _, _ in probes]
        self.assert_matches_scalar(cost, slopes)
        radii, gap, out = cost._inv_deriv(np.array(slopes))
        for (p, outcome, expected), r, g, o in zip(probes, radii, gap, out):
            assert (outcome == "out") == o and (outcome == "gap") == g, p
            if expected is not None:
                assert r == pytest.approx(expected, rel=1e-12), p

    def test_gap_scalar_carries_slopes(self):
        assert self.KINKED.inv_deriv(0.5) == DerivativeGap(
            point=1.5, left_slope=1.0, right_slope=0.25
        )
        out = self.KINKED.inv_deriv(0.1)
        assert out == OutOfRange(slope=0.1, lo=0.25, hi=3.0)

    @given(
        family=st.sampled_from(sorted(PROBES)),
        slopes=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
    )
    def test_random_slopes(self, family, slopes):
        self.assert_matches_scalar(self.PROBES[family][0], slopes)

    def test_precondition(self):
        with pytest.raises(ValueError):
            self.KINKED._inv_deriv(np.array([1.0, 0.0]))


class TestSubadditivity:
    def test_power_half_at_one_one(self):
        rep = check_strict_subadditivity(PowerCost(0.5), [(1.0, 1.0)])
        assert rep.min_margin == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-14)
        assert rep.violations == 0

    def test_random_pairs_no_violation(self):
        rng = np.random.default_rng(7)
        samples = 10.0 * (1.0 - rng.random((10_000, 2)))
        rep = check_strict_subadditivity(PowerCost(0.5), samples)
        assert rep.violations == 0
        assert rep.min_margin > 0.0

    def test_small_s_margin_positive(self):
        rep = check_strict_subadditivity(PowerCost(0.5), [(1e-12, 5.0)])
        assert rep.min_margin > 0.0

    def test_piecewise_margin_characterization(self):
        # margin is exactly zero within the first linear segment and
        # strictly positive as soon as s + t crosses the first kink
        inside = check_strict_subadditivity(PW, [(0.3, 0.4)])
        assert inside.min_margin == 0.0
        assert inside.violations == 1
        crossing = check_strict_subadditivity(PW, [(0.3, 0.9), (2.0, 3.0)])
        assert crossing.min_margin > 0.0
        assert crossing.violations == 0

    @given(cost=smooth_costs(), s=st.floats(1e-6, 10.0), t=st.floats(1e-6, 10.0))
    def test_strict_for_smooth_costs(self, cost, s, t):
        rep = check_strict_subadditivity(cost, [(s, t)])
        assert rep.min_margin > 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_strict_subadditivity(PW, [(0.0, 1.0)])


class TestStrictTriangle:
    def test_collinear(self):
        m = strict_triangle(PowerCost(0.5), [0.0], [1.0], [2.0])
        assert m == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-14)

    def test_x_equals_z(self):
        m = strict_triangle(PowerCost(0.5), [0.0, 0.0], [3.0, 4.0], [0.0, 0.0])
        assert m == pytest.approx(2.0 * 5.0**0.5, rel=1e-14)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            strict_triangle(PW, [0.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            strict_triangle(PW, [0.0], [1.0], [1.0])

    @given(
        cost=smooth_costs(),
        pts=st.lists(st.floats(-5, 5), min_size=9, max_size=9),
    )
    def test_random_triples_positive(self, cost, pts):
        x, y, z = np.asarray(pts).reshape(3, 3)
        # keep the probe well-scaled: at subnormal separations the margin
        # underflows even though it is positive in exact arithmetic
        if np.linalg.norm(x - y) < 1e-9 or np.linalg.norm(y - z) < 1e-9:
            return
        assert strict_triangle(cost, x, y, z) > 0.0


class TestSemiconcavity:
    def test_radial_probe_matches_second_derivative(self):
        # g'' along the axis at t=2 is -0.25 * 2**-1.5 - 0.5
        worst = semiconcavity_margin(
            PowerCost(0.5), 1.0, [((2.0, 0.0), (1.0, 0.0), 0.01)]
        )
        assert worst == pytest.approx(0.25 * 2.0**-1.5 + 0.5, abs=1e-4)

    def test_boundary_tangential_within_tol(self):
        worst = semiconcavity_margin(
            PowerCost(0.5), 1.0, [((1.0, 0.0), (0.0, 1.0), 0.01)]
        )
        # exact tangential second derivative vanishes at the boundary radius;
        # the central difference picks up the (negative) fourth-order term
        assert worst >= -1e-8
        assert worst == pytest.approx(1.875e-5, rel=1e-2)

    def test_probe_grid_all_nonpositive(self):
        rng = np.random.default_rng(11)
        probes = []
        for _ in range(200):
            x = rng.normal(size=3)
            x *= rng.uniform(1.5, 4.0) / np.linalg.norm(x)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            probes.append((x, v, 1e-3))
        for cost in (PowerCost(0.5), LogShiftCost(1.0), PW):
            assert semiconcavity_margin(cost, 1.0, probes) >= -1e-8

    def test_out_of_domain_probe(self):
        with pytest.raises(ValueError, match="excluded ball"):
            semiconcavity_margin(PowerCost(0.5), 1.0, [((1.0, 0.0), (1.0, 0.0), 0.5)])


class TestCTransform:
    def test_single_source_atom(self):
        X = np.array([[0.0, 0.0]])
        Y = np.array([[3.0, 4.0], [0.0, 1.0]])
        out = c_transform(np.zeros(1), PowerCost(0.5), X, Y)
        np.testing.assert_allclose(out, [5.0**0.5, 1.0])

    def test_zero_potential_nonnegative(self):
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(8, 2)), rng.normal(size=(5, 2))
        out = c_transform(np.zeros(8), PowerCost(0.5), X, Y)
        assert np.all(out >= 0.0)

    def test_order_reversing(self):
        rng = np.random.default_rng(1)
        X, Y = rng.normal(size=(10, 2)), rng.normal(size=(7, 2))
        phi1 = rng.normal(size=10)
        phi2 = phi1 + rng.uniform(0.0, 1.0, size=10)
        out1 = c_transform(phi1, PowerCost(0.5), X, Y)
        out2 = c_transform(phi2, PowerCost(0.5), X, Y)
        assert np.all(out1 >= out2 - 1e-12)

    def test_triple_transform_is_single(self):
        # brute-force check of phi^ccc == phi^c on small supports
        rng = np.random.default_rng(2)
        for cost in (PowerCost(0.5), LogShiftCost(1.0), PW):
            X, Y = rng.normal(size=(15, 2)), rng.normal(size=(20, 2))
            phi = rng.normal(size=15)
            phi_c = c_transform(phi, cost, X, Y)
            phi_cc = c_transform(phi_c, cost, Y, X)
            phi_ccc = c_transform(phi_cc, cost, X, Y)
            np.testing.assert_allclose(phi_ccc, phi_c, rtol=1e-12, atol=1e-12)

    def test_empty_support(self):
        with pytest.raises(ValueError):
            c_transform(np.zeros(0), PowerCost(0.5), np.empty((0, 2)), np.ones((1, 2)))


class TestCostMatrix:
    def test_single_shared_atom(self):
        m = DiscreteMeasure([[0.0, 0.0]], [1.0])
        M = cost_matrix(m, m, PowerCost(0.5))
        assert M.shape == (1, 1) and M[0, 0] == 0.0

    def test_two_atoms_unit_distance(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        M = cost_matrix(mu, mu, PowerCost(0.5))
        np.testing.assert_allclose(M, [[0.0, 1.0], [1.0, 0.0]])

    def test_grid_elementwise(self):
        xs = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
        mu = DiscreteMeasure(xs, np.full(9, 1 / 9))
        cost = LogShiftCost(2.0)
        M = cost_matrix(mu, mu, cost)
        for a in range(9):
            for b in range(9):
                d = np.linalg.norm(mu.points[a] - mu.points[b])
                assert M[a, b] == pytest.approx(float(cost.value(d)), abs=1e-14)

    def test_zero_iff_equal_points(self):
        mu = DiscreteMeasure([[0.0, 1.0], [2.0, 3.0]], [0.5, 0.5])
        M = cost_matrix(mu, mu, PowerCost(0.5))
        assert (M == 0).sum() == 2

    def test_empty_rejected(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        with pytest.raises(ValueError):
            cost_matrix(DiscreteMeasure.empty(1), mu, PowerCost(0.5))


class TestSerialization:
    @pytest.mark.parametrize(
        "cost",
        [PowerCost(0.3), LogShiftCost(2.5), PiecewiseConcaveCost([0.5, 2.0], [3.0, 1.0, 0.2])],
    )
    def test_round_trip(self, cost):
        assert cost_from_json(cost_to_json(cost)) == cost

    def test_schema(self):
        doc = json.loads(cost_to_json(PowerCost(0.5)))
        assert doc == {"kind": "power", "alpha": 0.5}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cost_from_json('{"kind": "cubic"}')

    def test_missing_kind(self):
        with pytest.raises(ValueError):
            cost_from_json("[1, 2]")

    @pytest.mark.parametrize("spec", [
        '{"kind":"piecewise","breakpoints":["1"],"slopes":["2",1]}',
        '{"kind":"piecewise","breakpoints":[1],"slopes":["2",1]}',
        '{"kind":"piecewise","breakpoints":[true],"slopes":[2,1]}',
    ], ids=["strings", "string-slope", "bool"])
    def test_piecewise_non_numbers_rejected(self, spec):
        with pytest.raises(ValueError, match="must be a list of numbers"):
            cost_from_json(spec)


class TestConstruction:
    def test_power_alpha_range(self):
        with pytest.raises(ValueError):
            PowerCost(1.0)
        with pytest.raises(ValueError):
            PowerCost(0.0)

    def test_logshift_positive(self):
        with pytest.raises(ValueError):
            LogShiftCost(0.0)

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConcaveCost([1.0], [0.5, 2.0])  # increasing slopes
        with pytest.raises(ValueError):
            PiecewiseConcaveCost([2.0, 1.0], [3.0, 2.0, 1.0])  # unsorted bps
        with pytest.raises(ValueError):
            PiecewiseConcaveCost([1.0], [2.0, -0.5])  # negative slope
        with pytest.raises(ValueError):
            PiecewiseConcaveCost([], [1.0])
