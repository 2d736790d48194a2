import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from concave_ot import _kernel
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
)
from concave_ot.measures import DiscreteMeasure
from support import ReferenceKernel

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
                                   (50.0, "radius", None), (math.nan, "out", None)]),
        "logshift": (LogShiftCost(2.0), [(0.5, "radius", 1.5), (2.0, "out", None),
                                         (2.5, "out", None), (1.0, "radius", 0.5),
                                         (math.nan, "out", None)]),
        "piecewise": (KINKED, [
            (3.0, "radius", 0.25),  # exact hit on the first segment: its midpoint
            (1.0, "radius", 1.0),  # exact hit on the middle segment
            (0.25, "out", None),  # exact hit on the unbounded last segment
            (2.0, "gap", 0.5),  # inside the gap of the first kink
            (0.5, "gap", 1.5),  # inside the gap of the second kink
            (3.5, "out", None),  # above the largest slope
            (0.1, "out", None),  # below the smallest slope
            (math.nan, "out", None),
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


def _distance_cases():
    """Point sets for the bit-equality tests: d = 1..5, coordinates from
    1e-8 to 1e8, target atoms shared with the source, and one-atom sides."""
    rng = np.random.default_rng(14)
    cases = []
    for d in range(1, 6):
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            for m, n in ((1, 17), (23, 1), (31, 29)):
                x = rng.normal(size=(m, d)) * scale
                y = rng.normal(size=(n, d)) * scale + scale
                k = min(m, n) // 2
                y[:k] = x[:k]  # coincident atoms: distance 0
                cases.append((x, y))
    return cases


def _lane_distance_cases():
    """(x, y) pairs for the vector lanes of ``distances``: 4 source atoms
    and 11 targets, in d = 1, 2, 3 and 9.  The kernel takes the targets a
    vector at a time, so target 1 falls in a vector lane and target 10 in
    the scalar tail, whether a vector holds 2, 4 or 8 of them.  Each holds
    a distance 0 (a coincident atom) and an overflowing one (inf)."""
    rng = np.random.default_rng(15)
    cases = []
    for d in (1, 2, 3, 9):
        x = rng.normal(size=(4, d))
        y = rng.normal(size=(11, d)) + 3.0
        y[1], y[10] = x[0], x[1]  # distance 0 at (0, 1) and (1, 10)
        y[2, 0] = 1e200  # its square overflows: inf down column 2 ...
        x[3, 0] = 1e200  # ... but at (3, 2), and along row 3 to (3, 10)
        cases.append((x, y))
    return cases


DISTANCE_CASES = _distance_cases()
LANE_DISTANCE_CASES = _lane_distance_cases()
BIT_COSTS = [
    PowerCost(0.5), PowerCost(1 / 3), LogShiftCost(2.0), LogShiftCost(7.3),
    PiecewiseConcaveCost([1e-6, 1.0, 1e4], [5.0, 2.0, 0.5, 0.1]),
]


@pytest.fixture(params=["compiled", "numpy"])
def distance_path(request, monkeypatch):
    """The kernel's distances, or its numpy reference in their place."""
    if request.param == "numpy":
        monkeypatch.setattr(_kernel, "_compiled_kernel", ReferenceKernel)
    return request.param


class TestCostMatrixBits:
    """Distances and costs are those of ``cost.value(cdist(...))``, bit
    for bit, whether the compiled kernel or its numpy reference computes
    the distances."""

    @pytest.mark.parametrize("cost", BIT_COSTS, ids=repr)
    def test_cost_matrix_matches_cdist(self, distance_path, cost):
        for x, y in DISTANCE_CASES:
            mu = DiscreteMeasure(x, np.full(len(x), 1.0 / len(x)))
            nu = DiscreteMeasure(y, np.full(len(y), 1.0 / len(y)))
            want = cost.value(cdist(mu.points, nu.points))
            assert np.array_equal(cost_matrix(mu, nu, cost), want)

    def test_c_transform_matches_cdist(self, distance_path):
        for x, y in DISTANCE_CASES:
            values = np.linspace(0.0, 1.0, len(x))
            want = (PW.value(cdist(x, y)) - values[:, None]).min(axis=0)
            assert np.array_equal(c_transform(values, PW, x, y), want)

    def test_duplicate_points_and_overflow(self, distance_path):
        x = np.array([[0.0, 1.0], [0.0, 1.0], [-1e308, 0.0], [2.0, -3.0]])
        y = np.array([[0.0, 1.0], [1e308, 0.0], [0.0, 1.0]])
        got = _kernel._compiled_kernel().distances(x, y)
        assert got.tobytes() == cdist(x, y).tobytes()
        assert got[2, 1] == math.inf and got[0, 0] == 0.0
        for x, y in LANE_DISTANCE_CASES:
            got = _kernel._compiled_kernel().distances(x, y)
            assert got.tobytes() == cdist(x, y).tobytes()
            assert got[0, 1] == got[1, 10] == 0.0
            assert got[0, 2] == got[3, 1] == got[3, 10] == math.inf
            assert math.isfinite(got[3, 2])

    def test_mismatched_dimensions_rejected(self, distance_path):
        with pytest.raises(ValueError, match="do not match"):
            _kernel._compiled_kernel().distances(np.zeros((2, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("cost", BIT_COSTS, ids=repr)
    def test_value_formula_in_place(self, cost):
        # each family's formula as an expression that allocates its result
        t = np.concatenate([[0.0, 5e-324], np.geomspace(1e-300, 1e300, 20_001)])
        if isinstance(cost, PowerCost):
            expected = t**cost.alpha
        elif isinstance(cost, LogShiftCost):
            expected = np.log1p(cost.a * t)
        else:
            seg = cost._segment(t)
            expected = cost._values[seg] + np.asarray(cost.slopes)[seg] * (t - cost._knots[seg])
        got = cost.value(t)
        assert got.tobytes() == expected.tobytes()
        assert type(cost.value(2.0)) is np.float64
        assert t[2] == 1e-300  # value worked on a copy

    def test_overridden_value_is_called(self):
        class Doubled(PowerCost):
            def value(self, t):
                return 2.0 * super().value(t)

        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[4.0]], [1.0])
        assert cost_matrix(mu, nu, Doubled(0.5)).tolist() == [[4.0], [2.0 * 3.0**0.5]]


class TestSerialization:
    @pytest.mark.parametrize(
        "cost",
        [PowerCost(0.3), LogShiftCost(2.5), PiecewiseConcaveCost([0.5, 2.0], [3.0, 1.0, 0.2])],
    )
    def test_round_trip(self, cost):
        back = cost_from_json(json.dumps(cost.to_dict()))
        assert back == cost and hash(back) == hash(cost)

    def test_schema(self):
        assert PowerCost(0.5).to_dict() == {"kind": "power", "alpha": 0.5}

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True],
                             ids=["nan", "inf", "-inf", "true"])
    @pytest.mark.parametrize("family", [
        PowerCost,
        LogShiftCost,
        lambda x: PiecewiseConcaveCost([x], [2.0, 1.0]),
        lambda x: PiecewiseConcaveCost([1.0], [x, 1.0]),
    ], ids=["power-alpha", "logshift-a", "piecewise-breakpoint", "piecewise-slope"])
    def test_non_finite_and_bool_parameters_rejected(self, family, bad):
        with pytest.raises(ValueError, match="finite"):
            family(bad)
