import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from support import (
    ReferenceKernel,
    _cone_terms,
    isotropy_audit_reference,
    record_kernel_calls,
    resolution_reference,
)

from concave_ot import _kernel, geometry
from concave_ot.geometry import (
    direction_grid,
    halfspace_equivalence,
    isotropy_audit,
    k_delta,
    resolution_scale,
)
from concave_ot.measures import DiscreteMeasure, _jsonable, hyperplane_sample, meet, uniform_box

deltas = st.floats(0.01, 0.99)


class TestKDelta:
    def test_value_at_half(self):
        assert k_delta(0.5) == pytest.approx(0.5 / math.sqrt(0.75), abs=1e-15)

    def test_limit_behavior(self):
        assert k_delta(0.999999) == pytest.approx(1e-6, rel=1e-2)
        assert k_delta(1e-9) > 2e4

    def test_unit_value_at_quadratic_root(self):
        # delta solving (1 - d)^2 = d (2 - d), i.e. 2d^2 - 4d + 1 = 0 in (0, 1)
        roots = np.roots([2.0, -4.0, 1.0])
        d_star = float(roots[(roots > 0) & (roots < 1)][0])
        assert d_star == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)
        assert k_delta(d_star) == pytest.approx(1.0, abs=1e-9)

    @given(d=deltas)
    def test_algebraic_identity(self, d):
        assert k_delta(d) ** 2 * d * (2.0 - d) == pytest.approx(
            (1.0 - d) ** 2, abs=1e-12
        )

    def test_strictly_decreasing(self):
        grid = np.linspace(0.01, 0.99, 199)
        vals = [k_delta(d) for d in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                k_delta(bad)


class TestHalfspaceEquivalence:
    def test_axis_point_below(self):
        got = halfspace_equivalence([0.0, 0.0, 1.0], 0.3, [0.0, 0.0, 0.0])
        assert got == (True, True)

    def test_point_above_excluded(self):
        got = halfspace_equivalence([0.0, 0.0], 0.3, [0.0, 1.0])
        assert got == (False, False)

    def test_near_boundary_point(self):
        # just inside: -w_d slightly exceeds k(delta) |w'|
        delta = 0.2
        w_prime = np.array([3.0, 0.0])
        wd = -k_delta(delta) * np.linalg.norm(w_prime) * (1 + 1e-9)
        got = halfspace_equivalence([0.0, 0.0, 0.0], delta, [3.0, 0.0, wd])
        assert got == (True, True)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_agreement(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(2500):
            d = int(rng.integers(2, 6))
            x = rng.normal(size=d)
            y = rng.normal(size=d)
            dl = float(rng.uniform(0.01, 0.99))
            a, b = halfspace_equivalence(x, dl, y)
            # skip the floating-point boundary band
            w = y - x
            margin = abs(-w[-1] - k_delta(dl) * np.linalg.norm(w[:-1]))
            if margin < 1e-12 * max(1.0, np.linalg.norm(w)):
                continue
            assert a == b


    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="points of one length"):
            halfspace_equivalence([0.0, 0.0], 0.5, [1.0])

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_opening_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must lie in"):
            halfspace_equivalence([0.0, 0.0], delta, [0.0, -1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_coordinate_rejected(self, bad, side):
        x, y = [0.0, 0.0], [0.0, -1.0]
        (x if side == "x" else y)[0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            halfspace_equivalence(x, 0.5, y)

    @given(d1=deltas, d2=deltas, y=st.lists(st.floats(-3, 3), min_size=3, max_size=3))
    def test_cone_side_monotone_in_opening(self, d1, d2, y):
        narrow, wide = sorted((d1, d2))
        x = [0.5, -0.25, 1.0]
        if halfspace_equivalence(x, narrow, y)[0]:
            assert halfspace_equivalence(x, wide, y)[0]

    @pytest.mark.parametrize("d", [1, 9])
    def test_cone_side_matches_vector_norm(self, d):
        # the cone side as a row of np.linalg.norm(..., axis=1) gives it;
        # for d = 9 the points lie on the cone's boundary, where rounding
        # decides, and numpy sums the squares pairwise
        rng = np.random.default_rng(d)
        u = np.zeros(d)
        u[-1] = -1.0
        inside = 0
        for _ in range(2000):
            x = rng.normal(size=d)
            delta = float(rng.uniform(0.01, 0.99))
            w = rng.normal(size=d)
            if d > 1:
                w[-1] = -k_delta(delta) * np.linalg.norm(w[:-1])
            y = x + w
            w = y - x
            want = (w[None] @ u >= (1.0 - delta) * np.linalg.norm(w[None], axis=1))[0]
            got = halfspace_equivalence(x, delta, y)[0]
            assert got == want
            inside += got
        assert 0 < inside < 2000


class TestDirectionGrid:
    def test_circle_grid(self):
        U = direction_grid(2, 8)
        assert U.shape == (8, 2)
        np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-15)
        np.testing.assert_allclose(U[0], [1.0, 0.0], atol=1e-15)

    def test_higher_dim_deterministic_unit(self):
        U1 = direction_grid(4, 32)
        U2 = direction_grid(4, 32)
        np.testing.assert_array_equal(U1, U2)
        np.testing.assert_allclose(np.linalg.norm(U1, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("count", [16, 32])
    @pytest.mark.parametrize("dim", range(3, 10))
    def test_halton_grid_bits(self, dim, count):
        # the Halton points are scipy.stats.qmc's unscrambled ones, bit for
        # bit; the stdlib's inverse normal distribution function differs
        # from scipy's norm.ppf by about an ulp, so the directions agree
        # with the grid built from scipy.stats within 1e-15
        from scipy.stats import norm, qmc

        halton = qmc.Halton(d=dim, scramble=False)
        halton.fast_forward(1)
        points = halton.random(count)
        assert geometry._halton(dim, count).tobytes() == points.tobytes()
        g = norm.ppf(points)
        want = g / np.linalg.norm(g, axis=1, keepdims=True)
        np.testing.assert_allclose(direction_grid(dim, count), want, rtol=0.0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            direction_grid(0, 4)


class TestResolution:
    def test_grid_spacing(self):
        xs = np.arange(10, dtype=float)[:, None]
        m = DiscreteMeasure(xs, np.full(10, 0.1))
        assert resolution_scale(m) == 1.0

    def test_single_atom(self):
        assert resolution_scale(DiscreteMeasure([[0.0]], [1.0])) == math.inf

    def test_overflowing_median_refused(self):
        # atoms 2e154 apart: every squared distance overflows, and the
        # radii of an isotropy audit would all be inf
        m = DiscreteMeasure(np.arange(5)[:, None] * 2e154, np.full(5, 0.2))
        with pytest.raises(ValueError, match="median distance to the nearest other atom overflows"):
            resolution_scale(m)
        flat = DiscreteMeasure(np.c_[np.arange(5) * 2e154, np.zeros(5)], np.full(5, 0.2))
        with pytest.raises(ValueError, match="overflows"):
            isotropy_audit(flat, point_sample=5)

    def test_finite_median_with_overflowing_distances(self):
        # two atoms of five have an overflowing nearest distance: the
        # median is still the finite middle one, exactly
        m = DiscreteMeasure([[0.0], [1.0], [3.0], [-2e154], [2e154]], np.full(5, 0.2))
        assert resolution_scale(m) == 2.0

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_kd_tree_median_bits(self, dim):
        # up to d = 7 the k-d tree sums the squares in coordinate order, as
        # the kernel does; lattices tie at their spacing
        rng = np.random.default_rng(dim)
        for pts in (rng.uniform(0.0, 1.0, size=(400, dim)),
                    rng.integers(0, 4, size=(300, dim)).astype(float)):
            m = DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)))
            assert repr(resolution_scale(m)) == repr(resolution_reference(m))


class TestIsotropyAudit:
    def test_uniform_box_interior_passes(self):
        box = uniform_box(3000, 2, seed=9)
        rep = isotropy_audit(box, point_sample=400, seed=9)
        w = box.weights[rep.sampled_atoms]
        interior = rep.distance_to_boundary >= min(rep.epsilons)
        interior_fail = w[rep.atom_failed & interior].sum() / max(w[interior].sum(), 1e-300)
        assert interior_fail <= 0.05
        assert rep.failing_mass_fraction <= 0.10

    def test_failures_concentrate_at_boundary(self):
        box = uniform_box(3000, 2, seed=10)
        rep = isotropy_audit(box, point_sample=400, seed=10)
        if rep.atom_failed.any():
            assert rep.distance_to_boundary[rep.atom_failed].max() <= max(rep.epsilons)

    def test_hyperplane_fails_normal_directions(self):
        hp = hyperplane_sample(2000, 2, seed=11)
        rep = isotropy_audit(hp, point_sample=200, seed=11)
        assert rep.failing_mass_fraction >= 0.95
        assert rep.worst_witness is not None

    def test_single_atom_degenerate(self):
        # below 2 atoms there is no resolution scale to set the radii; the
        # empty measure is refused the same way, not by numpy
        for measure in (DiscreteMeasure([[0.0, 0.0]], [1.0]), DiscreteMeasure.empty(2)):
            for audit in (isotropy_audit, isotropy_audit_reference):
                with pytest.raises(ValueError, match=f"at least 2 atoms, got {len(measure)}"):
                    audit(measure, point_sample=10, seed=0)

    def test_report_serializable(self):
        import json

        box = uniform_box(200, 2, seed=14)
        rep = isotropy_audit(box, point_sample=50, seed=0)
        json.dumps(_jsonable(rep))

    def test_point_sample_below_one(self):
        box = uniform_box(50, 2, seed=13)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="point_sample"):
                isotropy_audit(box, point_sample=bad)

    @pytest.mark.parametrize("bad, why", [(math.nan, "an integer"), (2.5, "an integer"),
                                          (True, "an integer"), (0, "at least 1")])
    def test_point_sample_not_a_positive_integer(self, bad, why):
        box = uniform_box(50, 2, seed=13)
        with pytest.raises(ValueError, match=f"point_sample must be {why}, got {bad!r}"):
            isotropy_audit(box, point_sample=bad)

    def test_memory_is_one_sort_of_the_atoms(self):
        # d = 3 leaves most apices open after the 64 nearest; the rescan
        # adds one argsort of the atoms, not a list of (apex, atom) pairs
        box = uniform_box(5000, 3, seed=9)
        isotropy_audit(uniform_box(100, 3, seed=9), point_sample=10)  # imports, kernel
        tracemalloc.start()
        try:
            isotropy_audit(box, point_sample=500, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_total_mass_other_than_one(self, factor):
        # atoms are drawn by their share of the mass, and scaling every
        # weight by a power of two changes no share, so no key of the report
        box = uniform_box(300, 2, seed=16)
        scaled = DiscreteMeasure(box.points, factor * box.weights)
        got = _jsonable(isotropy_audit(scaled, point_sample=50, seed=0))
        want = _jsonable(isotropy_audit(box, point_sample=50, seed=0))
        assert got.keys() == want.keys()
        for key in want:
            assert repr(got[key]) == repr(want[key]), key

    def test_sampled_residual_measure(self):
        # the residual of a meet carries less than unit mass
        box = uniform_box(300, 2, seed=16)
        pts = np.vstack([box.points[:100], uniform_box(200, 2, seed=17).points])
        other = DiscreteMeasure(pts, np.full(300, 1 / 300))
        residual = meet(box, other).mu_residual
        assert len(residual) == 200 and residual.total_mass < 1.0
        rep = isotropy_audit(residual, point_sample=50, seed=0)
        assert len(np.unique(rep.sampled_atoms)) == 50

    def test_infinite_radius_allowed(self, monkeypatch):
        monkeypatch.setattr(geometry, "_RADII", (math.inf,))
        box = uniform_box(100, 2, seed=15)
        rep = isotropy_audit(box, point_sample=20, seed=0)
        assert rep.epsilons == (math.inf,)


# Lattice distances and openings: with unit spacing, atoms sit exactly on
# these spheres, and on (or within rounding of) these cone boundaries.
_LATTICE_RADII = (1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0, math.inf)
_LATTICE_OPENINGS = (
    0.2,
    0.5,
    1.0 - 1.0 / math.sqrt(2.0),
    1.0 - 2.0 / math.sqrt(5.0),
    1.0 - 1.0 / math.sqrt(5.0),
)


@st.composite
def _audit_cases(draw):
    """A measure, a grid for the module constants of ``geometry`` and
    audit arguments: lattices with exact ties, flat (hyperplane) samples
    that leave cones empty, and plain clouds, with n on both sides of the
    64 neighbours the audit starts from.  Radii are multiples of the
    resolution scale, which is 1 on most lattices."""
    dim = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["lattice", "flat", "cloud"]))
    n = draw(st.integers(2, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "cloud":
        pts = rng.uniform(0.0, 1.0, size=(n, dim))
        radii = (0.5, 2.0, 10.0, math.inf)
    else:
        side = draw(st.integers(2, max(2, math.ceil(2 * n ** (1.0 / dim)))))
        pts = rng.integers(0, side, size=(n, dim)).astype(float)
        radii = _LATTICE_RADII
    if kind == "flat" and dim >= 2:
        pts[:, -1] = 0.0
    w = rng.uniform(0.5, 1.5, n)
    measure = DiscreteMeasure(pts, w / w.sum())
    assume(len(measure) >= 2)  # a lattice's atoms can all coincide
    grid = dict(
        _DIRECTIONS=draw(st.sampled_from([2, 4, 8, 16])),
        _DELTAS=tuple(draw(st.lists(st.sampled_from(_LATTICE_OPENINGS), min_size=1, max_size=3))),
    )
    multiples = draw(st.none() | st.lists(st.sampled_from(radii), min_size=1, max_size=3))
    if multiples is not None:  # else the default radii
        grid["_RADII"] = tuple(multiples)
    kwargs = dict(
        point_sample=draw(st.integers(1, len(measure) + 10)),
        seed=draw(st.integers(0, 1000)),
    )
    return measure, grid, kwargs


class TestIsotropyAgainstReference:
    """The nearest-neighbour audit returns the brute-force loop's report."""

    @settings(max_examples=150, deadline=None)
    @given(case=_audit_cases())
    def test_same_report(self, case):
        measure, grid, kwargs = case
        with mock.patch.multiple(geometry, **grid):
            got = isotropy_audit(measure, **kwargs)
            want = isotropy_audit_reference(measure, **kwargs)
        np.testing.assert_array_equal(got.fail_counts, want.fail_counts)
        np.testing.assert_array_equal(got.atom_failed, want.atom_failed)
        np.testing.assert_array_equal(got.distance_to_boundary, want.distance_to_boundary)
        assert got.failing_mass_fraction == want.failing_mass_fraction
        assert _jsonable(got) == _jsonable(want)  # worst_witness and every other key

    def test_far_atom_fills_cones_the_neighbours_leave_empty(self, monkeypatch):
        # 100 clustered atoms, so the 64 nearest never reach the far atom;
        # it alone fills the +x cones of the cluster's right edge at eps = 2
        # (200 times the cluster's spacing)
        monkeypatch.setattr(geometry, "_RADII", (5.0, 200.0))
        g = np.arange(10) * 0.01
        pts = np.vstack([np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2), [[1.5, 0.045]]])
        m = DiscreteMeasure(pts, np.full(101, 1.0 / 101))
        kwargs = dict(point_sample=101, seed=0)
        got = isotropy_audit(m, **kwargs)
        assert _jsonable(got) == _jsonable(isotropy_audit_reference(m, **kwargs))
        cluster = DiscreteMeasure(pts[:100], np.full(100, 0.01))
        without = isotropy_audit(cluster, point_sample=100, seed=0)
        edge = np.flatnonzero(cluster.points[:, 0] == g[-1])
        assert len(edge) == 10
        assert (got.fail_counts[edge] < without.fail_counts[edge]).all()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hyperplane_sample(self, dim):
        hp = hyperplane_sample(400, dim, seed=dim)
        got = isotropy_audit(hp, point_sample=60, seed=1)
        want = isotropy_audit_reference(hp, point_sample=60, seed=1)
        assert _jsonable(got) == _jsonable(want)


def _cone_case(dim, kind, seed, shared):
    """Points, apices, windows ``lo``/``hi`` of rows, the rows and the
    directions for ``cone_nearest``.

    Lattices repeat atoms, so an apex meets r = 0 at atoms other than
    itself, and put atoms exactly on the edges of the axis cones: (3, 4)
    from an apex has w.e_0 = 3 = (1 - 0.4) * 5 at r = 5, a radius many
    atoms share.
    Flat samples leave the normal cones empty.  Unless ``shared``, each
    apex scans a random subset of the atoms in its own window of the
    rows.  If ``shared``, every apex scans one list of all the atoms,
    sorted by their first coordinate, over the window of atoms within a
    whole-number reach of its own on that coordinate, as the audit's
    rescan does: the windows overlap, and lattice atoms sit on their
    ends.  The last apex's window is empty either way.  The number of
    directions is odd, so the last, an axis, is scanned after the vector
    lanes."""
    rng = np.random.default_rng(seed)
    if kind == "cloud":
        pts = rng.uniform(-3.0, 3.0, size=(150, dim))
    else:
        pts = rng.integers(-4, 5, size=(150, dim)).astype(float)
        pts = np.vstack([pts, pts[:20]])  # duplicates in every dimension
    if kind == "flat" and dim >= 2:
        pts[:, -1] = 0.0
    eye = np.eye(dim)
    directions = np.vstack([direction_grid(dim, 3), eye, -eye])
    apices = np.vstack([pts[rng.choice(len(pts), 30, replace=False)], pts[:1]])
    if shared:
        rows = np.argsort(pts[:, 0])
        line, reach = pts[rows, 0], rng.integers(1, 5, len(apices))
        lo = np.searchsorted(line, apices[:, 0] - reach, "left")
        hi = np.searchsorted(line, apices[:, 0] + reach, "right")
        hi[-1] = lo[-1]
    else:
        chosen = [rng.choice(len(pts), rng.integers(1, len(pts)), replace=False)
                  for _ in apices[1:]]
        hi = np.cumsum([*map(len, chosen), 0])
        lo = hi - [*map(len, chosen), 0]
        rows = np.concatenate(chosen)
    return pts, apices, lo, hi, rows, directions


_CONE_DELTAS = (0.4, 0.2, 0.5, 1.0 - 1.0 / math.sqrt(2.0), 0.8)


class TestConeNearest:
    """The compiled cone scan returns the bytes of its numpy reference."""

    @pytest.mark.parametrize("kind", ["lattice", "flat", "cloud"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_same_bytes_as_reference(self, dim, kind):
        for shared in (False, True):
            case = _cone_case(dim, kind, seed=dim, shared=shared)
            got = _kernel._compiled_kernel().cone_nearest(*case, _CONE_DELTAS)
            want = ReferenceKernel().cone_nearest(*case, _CONE_DELTAS)
            assert got.shape == (31, len(_CONE_DELTAS), len(case[-1]))
            assert got.tobytes() == want.tobytes()
            assert np.isnan(got[-1]).all()  # the apex that scans no atom
            pts, apices, lo, hi, rows, directions = case
            if shared:
                assert (hi - lo).sum() > len(rows)  # the windows overlap
            terms = [_cone_terms(pts[rows[a:b]] - x, directions)
                     for x, a, b in zip(apices, lo, hi)]
            if kind != "cloud":
                assert any((r == 0.0).any() for r, _ in terms)  # an apex, or a duplicate
            if kind == "lattice" and dim >= 2:
                assert any(((dots == (1.0 - 0.4) * r[:, None]) & (r > 0.0)[:, None]).any()
                           for r, dots in terms)  # an atom exactly on a cone's edge
            if kind == "flat" and dim >= 2:
                assert np.isnan(got[:-1]).any()  # cones across the plane stay empty

    def test_empty_cone_is_nan_and_apex_never_counts(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        directions = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        got = _kernel._compiled_kernel().cone_nearest(pts, pts[:1], [0], [3], np.arange(3),
                                                      directions, (0.4, 0.2))
        # (3, 4) lies on the edge of the +x cone at delta 0.4, outside it at
        # 0.2; the duplicate at r = 0 lies in no cone
        nan = math.nan
        np.testing.assert_array_equal(got[0], [[5.0, nan, 5.0], [nan, nan, 5.0]])

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_audit_on_both_kernel_paths(self, dim, monkeypatch):
        # a lattice and its hyperplane: radii that lattice atoms sit on
        # (the resolution scale is 1 for d <= 3), and eps = inf, which an
        # empty cone must still miss
        monkeypatch.setattr(geometry, "_DIRECTIONS", 7)
        monkeypatch.setattr(geometry, "_DELTAS", (0.4, 0.2))
        monkeypatch.setattr(geometry, "_RADII", (3.0, 5.0, math.inf))
        rng = np.random.default_rng(dim)
        pts = rng.integers(0, 5, size=(120, dim)).astype(float)
        if dim >= 2:
            pts[:60, -1] = 0.0
        measure = DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)))
        kwargs = dict(point_sample=40, seed=dim)
        got = isotropy_audit(measure, **kwargs)
        with mock.patch.object(_kernel, "_compiled_kernel", ReferenceKernel):
            twin = isotropy_audit(measure, **kwargs)
        want = isotropy_audit_reference(measure, **kwargs)
        assert repr(_jsonable(got)) == repr(_jsonable(twin)) == repr(_jsonable(want))

    def test_rescan_over_sorted_windows(self, monkeypatch):
        # a flat sample leaves most apices open; the rescan scans each over
        # its window of the atoms sorted along the longest side of the
        # bounding box, which is x_0 for the segment and x_1 once its
        # columns are swapped: the same report as the brute-force loop,
        # and never a window of every atom
        monkeypatch.setattr(geometry, "_RADII", (40.0, 250.0))  # about 0.05 and 0.3
        hp = hyperplane_sample(300, 2, seed=4)
        kwargs = dict(point_sample=80, seed=4)
        calls = record_kernel_calls(monkeypatch, "cone_nearest", lambda *args: args[3] - args[2])
        for measure in (hp, DiscreteMeasure(hp.points[:, ::-1], hp.weights)):
            calls.clear()
            got = isotropy_audit(measure, **kwargs)
            assert len(calls) == 2 and len(calls[1]) > 20  # the rescan's windows
            assert (calls[1] < len(measure)).all()
            want = isotropy_audit_reference(measure, **kwargs)
            assert repr(_jsonable(got)) == repr(_jsonable(want))

    def test_atoms_at_the_largest_radius_end_the_windows(self, monkeypatch):
        # a 10 x 10 lattice (resolution scale 1) and two atoms `far` away
        # on the x axis from the corners (0, 0) and (9, 0): each is the
        # only atom of its corner's outward cone, beyond the 64 nearest,
        # so at far = 12, the largest radius exactly, a rescan window that
        # stops short of either end loses a hit
        monkeypatch.setattr(geometry, "_RADII", (1.0, 12.0))

        def failures(far):
            pts = np.vstack([np.argwhere(np.ones((10, 10))), [[-far, 0], [9 + far, 0]]])
            measure = DiscreteMeasure(pts.astype(float), np.full(len(pts), 1.0 / len(pts)))
            got = isotropy_audit(measure, point_sample=len(pts))
            want = isotropy_audit_reference(measure, point_sample=len(pts))
            assert repr(_jsonable(got)) == repr(_jsonable(want))
            return got.fail_counts.sum()

        assert failures(12.0) < failures(12.5)

    def test_bad_rows_rejected(self):
        kernel = _kernel._compiled_kernel()
        pts, U = np.zeros((3, 2)), np.eye(2)
        with pytest.raises(ValueError, match="rows"):
            kernel.cone_nearest(pts, pts[:1], [0], [1], [3], U, (0.5,))
        for lo, hi in (([1], [0]), ([0], [2]), ([-1], [1]), ([0, 0], [1, 1]), ([0], [1, 1])):
            with pytest.raises(ValueError, match="windows"):
                kernel.cone_nearest(pts, pts[:1], lo, hi, [0], U, (0.5,))
        with pytest.raises(ValueError, match="columns"):
            kernel.cone_nearest(pts, np.zeros((1, 3)), [0], [1], [0], U, (0.5,))


def _nearest_case(dim, kind, seed):
    """Atoms and queries for ``nearest_atoms``.  Lattices repeat atoms and
    tie at many distances, from their atoms and from the half-integer
    queries; flat samples leave one coordinate without spread; clouds are
    uniform.  The queries are 20 of the atoms, then 30 points that are not,
    some beyond the atoms' range on every axis."""
    rng = np.random.default_rng(seed)
    if kind == "cloud":
        pts = rng.uniform(-3.0, 3.0, size=(300, dim))
    else:
        pts = rng.integers(-4, 5, size=(300, dim)).astype(float)
    if kind == "flat" and dim >= 2:
        pts[:, -1] = 0.0
    queries = np.vstack([
        pts[rng.choice(len(pts), 20, replace=False)],
        rng.integers(-12, 13, size=(15, dim)) / 2.0,
        rng.uniform(-9.0, 9.0, size=(15, dim)),
    ])
    return pts, queries


class TestNearestAtoms:
    """The compiled nearest-atom search returns its numpy reference's
    bytes: the k least (squared distance, atom index) keys in order, at
    cdist's distances."""

    @pytest.mark.parametrize("kind", ["lattice", "flat", "cloud"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_same_bytes_as_reference(self, dim, kind):
        pts, queries = _nearest_case(dim, kind, seed=dim)
        kernel = _kernel._compiled_kernel()
        for k in (1, 2, 64, len(pts)):
            atoms, dist = kernel.nearest_atoms(pts, queries, k)
            want_atoms, want_dist = ReferenceKernel().nearest_atoms(pts, queries, k)
            assert atoms.shape == dist.shape == (len(queries), k)
            assert atoms.tobytes() == want_atoms.tobytes()
            assert dist.tobytes() == want_dist.tobytes()
            assert dist.tobytes() == np.take_along_axis(cdist(queries, pts), atoms, 1).tobytes()
        if kind != "cloud":
            assert (dist[:, 1:] == dist[:, :-1]).any()  # ties, broken by atom index

    def test_clustered_audit_matches_reference(self):
        # 98% of the atoms in a corner of 1% of the side: quantile cuts put
        # the cells where the atoms are, and the far atoms in the edge cells
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.uniform(0.0, 0.01, size=(4900, 2)),
                         rng.uniform(0.0, 1.0, size=(100, 2))])
        m = DiscreteMeasure(pts, np.full(5000, 1.0 / 5000))
        got = isotropy_audit(m, point_sample=100, seed=0)
        assert (m.points[got.sampled_atoms] > 0.01).any()
        want = isotropy_audit_reference(m, point_sample=100, seed=0)
        assert repr(_jsonable(got)) == repr(_jsonable(want))

    def test_bad_arguments_rejected(self):
        kernel = _kernel._compiled_kernel()
        pts = np.zeros((3, 2))
        for k in (0, 4):
            with pytest.raises(ValueError, match=r"k must lie in \[1, 3\]"):
                kernel.nearest_atoms(pts, pts, k)
        for queries in (np.zeros((1, 3)), np.zeros(2)):
            with pytest.raises(ValueError, match="do not match"):
                kernel.nearest_atoms(pts, queries, 1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                kernel.nearest_atoms(pts, np.array([[0.0, bad]]), 1)
        with pytest.raises(ValueError, match="at least one"):
            kernel.nearest_atoms(np.zeros((3, 0)), np.zeros((1, 0)), 1)
