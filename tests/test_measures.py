import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from concave_ot.measures import (
    DiscreteMeasure,
    MeasureFormatError,
    hyperplane_sample,
    load_measure,
    match_atoms,
    meet,
    save_measure,
    three_segments,
    translate,
    uniform_box,
)
from support import canonical_atoms_reference


def small_overlapping_pair(seed):
    rng = np.random.default_rng(seed)
    shared = rng.integers(0, 5)
    ma, nb = rng.integers(1, 6, 2)
    pts = rng.integers(-3, 4, size=(shared, 2)).astype(float)
    pa = np.vstack([pts, rng.normal(size=(ma, 2))])
    pb = np.vstack([pts, rng.normal(size=(nb, 2))])
    wa = rng.uniform(0.1, 1.0, len(pa))
    wb = rng.uniform(0.1, 1.0, len(pb))
    return DiscreteMeasure(pa, wa / wa.sum()), DiscreteMeasure(pb, wb / wb.sum())


@st.composite
def atom_lists(draw):
    """Points, weights and dim of up to 60 atoms in d = 1, 2 or 3: lattice
    rows (ties in every coordinate, signed zeros) or rows drawn from a
    pool of at most five (duplicates), some weights zero and the rest
    summing to different bits in different orders."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 60))
    row = st.lists(
        st.one_of(
            st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
            st.floats(-1e3, 1e3, allow_nan=False),
        ),
        min_size=d,
        max_size=d,
    )
    if draw(st.booleans()):
        rows = draw(st.lists(row, min_size=n, max_size=n))
    else:
        pool = draw(st.lists(row, min_size=1, max_size=5))
        rows = [pool[k] for k in draw(st.lists(st.integers(0, len(pool) - 1),
                                               min_size=n, max_size=n))]
    weights = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 1e-17, 1.0]),
                            min_size=n, max_size=n))
    return np.reshape(rows, (n, d)), weights, d


class TestConstruction:
    def test_merges_duplicates(self):
        m = DiscreteMeasure([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]], [0.3, 0.2, 0.5])
        assert len(m) == 2
        key = {tuple(p): w for p, w in zip(m.points, m.weights)}
        assert key[(1.0, 2.0)] == pytest.approx(0.5)

    def test_drops_zero_weights(self):
        m = DiscreteMeasure([[0.0], [1.0]], [0.0, 1.0])
        assert len(m) == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0]], [-0.1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0], [1.0]], [1.0])

    def test_empty_needs_dim(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.empty((0, 2)), np.empty(0))
        m = DiscreteMeasure.empty(3)
        assert len(m) == 0 and m.dim == 3 and m.total_mass == 0.0

    def test_canonical_order_makes_equality_stable(self):
        a = DiscreteMeasure([[1.0], [0.0]], [0.3, 0.7])
        b = DiscreteMeasure([[0.0], [1.0]], [0.7, 0.3])
        assert a == b

    def test_immutable_arrays(self):
        m = DiscreteMeasure([[0.0]], [1.0])
        with pytest.raises(ValueError):
            m.weights[0] = 2.0

    def test_negative_zero_canonicalized(self):
        a = DiscreteMeasure([[-0.0]], [1.0])
        b = DiscreteMeasure([[0.0]], [1.0])
        assert a == b

    def test_points_must_be_2d(self):
        with pytest.raises(ValueError, match=r"points must be an \(n, d\) array"):
            DiscreteMeasure(np.zeros((2, 2, 2)), [0.5, 0.5])

    @settings(max_examples=200, deadline=None)
    @given(case=atom_lists())
    @example(case=(np.empty((3, 0)), [1.0, 1.0, 1.0], 0))  # one atom of weight 3
    @example(case=(np.empty((0, 2)), [], 2))
    def test_canonical_order_matches_reference(self, case):
        points, weights, d = case
        m = DiscreteMeasure(points, weights, dim=d)
        ref_points, ref_weights = canonical_atoms_reference(points, weights)
        assert m.points.shape == ref_points.shape
        assert m.points.tobytes() == ref_points.tobytes()
        assert m.weights.tobytes() == ref_weights.tobytes()


class TestMeet:
    def test_basic_example(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0], [2.0]], [0.3, 0.7])
        dec = meet(mu, nu)
        assert dec.common.total_mass == pytest.approx(0.3, abs=1e-15)
        assert dec.mu_residual.total_mass == pytest.approx(0.7, abs=1e-15)
        assert dec.nu_residual.total_mass == pytest.approx(0.7, abs=1e-15)
        assert len(dec.common) == 1 and dec.common.points[0, 0] == 0.0

    def test_identical_measures(self):
        mu = uniform_box(20, 2, seed=0)
        dec = meet(mu, mu)
        assert dec.common == mu
        assert len(dec.mu_residual) == 0 and len(dec.nu_residual) == 0

    def test_disjoint_supports(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [1.0])
        dec = meet(mu, nu)
        assert len(dec.common) == 0
        assert dec.mu_residual == mu and dec.nu_residual == nu

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            meet(DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[0.0, 0.0]], [1.0]))

    def test_measures_built_when_read(self, monkeypatch):
        mu, nu = small_overlapping_pair(3)
        built, inner_init = [], DiscreteMeasure.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            inner_init(self, *args, **kwargs)

        monkeypatch.setattr(DiscreteMeasure, "__init__", counting_init)
        dec = meet(mu, nu)
        assert len(built) == 0
        for name in ("common", "mu_residual", "nu_residual"):
            getattr(dec, name)
            assert len(built) == 1, name
            built.clear()

    def test_weights_index_the_atoms(self):
        mu = DiscreteMeasure([[0.0], [1.0], [3.0]], [0.25, 0.5, 0.25])
        nu = DiscreteMeasure([[1.0], [2.0], [3.0]], [0.25, 0.5, 0.25])
        dec = meet(mu, nu)
        assert dec.mu_idx.tolist() == [1, 2] and dec.nu_idx.tolist() == [0, 2]
        assert dec.shared.tolist() == [0.25, 0.25]
        assert dec.mu_rest.tolist() == [0.25, 0.25, 0.0]
        assert dec.nu_rest.tolist() == [0.0, 0.5, 0.0]
        rows = np.flatnonzero(dec.mu_rest)
        assert dec.mu_residual == DiscreteMeasure(mu.points[rows], dec.mu_rest[rows])

    @pytest.mark.parametrize("seed", range(25))
    def test_invariants_random(self, seed):
        mu, nu = small_overlapping_pair(seed)
        dec = meet(mu, nu)
        # commutativity of the common part
        assert dec.common == meet(nu, mu).common
        # mass conservation
        assert dec.common.total_mass + dec.mu_residual.total_mass == pytest.approx(
            1.0, abs=1e-12
        )
        assert dec.common.total_mass + dec.nu_residual.total_mass == pytest.approx(
            1.0, abs=1e-12
        )
        # residuals are mutually singular
        assert len(match_atoms(dec.mu_residual, dec.nu_residual)[0]) == 0
        # atomwise reconstruction of mu
        rebuilt = {tuple(p): w for p, w in zip(dec.common.points, dec.common.weights)}
        for p, w in zip(dec.mu_residual.points, dec.mu_residual.weights):
            rebuilt[tuple(p)] = rebuilt.get(tuple(p), 0.0) + w
        orig = {tuple(p): w for p, w in zip(mu.points, mu.weights)}
        assert set(rebuilt) == set(orig)
        for k in orig:
            assert rebuilt[k] == pytest.approx(orig[k], abs=1e-12)


# Few coordinate values (signed zeros included) and some zero weights give
# lattice supports with many duplicates, shared atoms and empty measures.
coords = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


@st.composite
def lattice_pairs(draw):
    d = draw(st.integers(1, 3))

    def measure():
        k = draw(st.integers(0, 12))
        pts = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=k, max_size=k))
        wts = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=k, max_size=k))
        return DiscreteMeasure(np.reshape(pts, (k, d)), wts, dim=d)

    return measure(), measure()


def brute_force_matches(mu, nu):
    same = np.all(mu.points[:, None, :] == nu.points[None, :, :], axis=2)
    return np.nonzero(same)


class TestMatchAtoms:
    @settings(max_examples=200, deadline=None)
    @given(pair=lattice_pairs())
    @example(pair=(  # -0.0 against 0.0
        DiscreteMeasure([[-0.0, 1.0], [2.0, -0.0]], [0.5, 0.5]),
        DiscreteMeasure([[0.0, 1.0], [2.0, 0.0], [3.0, 0.0]], [0.2, 0.3, 0.5]),
    ))
    @example(pair=(uniform_box(10, 2, seed=4),) * 2)  # both residuals empty
    def test_agrees_with_row_equality(self, pair):
        mu, nu = pair
        dec = meet(mu, nu)
        for a, b in ((mu, nu), (dec.mu_residual, nu), (mu, dec.nu_residual),
                     (dec.mu_residual, dec.nu_residual)):
            i, j = match_atoms(a, b)
            bi, bj = brute_force_matches(a, b)
            assert i.tolist() == bi.tolist() and j.tolist() == bj.tolist()


class TestThreeSegments:
    def test_n1_atoms(self):
        mu, nu = three_segments(1)
        np.testing.assert_array_equal(mu.points, [[0.0, 0.25], [0.0, 0.75]])
        assert set(map(tuple, nu.points)) == {(1.0, 0.5), (-1.0, 0.5)}
        np.testing.assert_array_equal(mu.weights, [0.5, 0.5])

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_total_mass(self, n):
        mu, nu = three_segments(n)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-12)
        assert nu.total_mass == pytest.approx(1.0, abs=1e-12)
        assert len(mu) == 2 * n and len(nu) == 2 * n

    @pytest.mark.parametrize("n", [1, 4])
    def test_horizontal_gap_exactly_one(self, n):
        mu, nu = three_segments(n)
        for x in mu.points:
            for y in nu.points:
                assert abs(x[0] - y[0]) == 1.0

    def test_bad_n(self):
        with pytest.raises(ValueError):
            three_segments(0)


class TestUniformBox:
    def test_deterministic(self):
        assert uniform_box(100, 3, seed=5) == uniform_box(100, 3, seed=5)

    def test_single_atom_inside(self):
        m = uniform_box(1, 2, corner_lo=(1.0, 2.0), corner_hi=(2.0, 3.0), seed=0)
        assert len(m) == 1 and m.weights[0] == 1.0
        assert np.all(m.points >= [1.0, 2.0]) and np.all(m.points <= [2.0, 3.0])

    def test_empirical_mean(self):
        m = uniform_box(1000, 2, seed=42)
        assert np.linalg.norm(m.points.mean(axis=0) - 0.5) <= 0.05

    def test_degenerate_box(self):
        with pytest.raises(ValueError):
            uniform_box(5, 2, corner_lo=(0.0, 0.0), corner_hi=(0.0, 1.0))


class TestTranslate:
    def test_zero_vector_identity(self):
        m = uniform_box(10, 2, seed=0)
        assert translate(m, [0.0, 0.0]) == m

    def test_single_atom(self):
        m = DiscreteMeasure([[0.0, 0.0]], [1.0])
        t = translate(m, [1.0, 0.0])
        np.testing.assert_array_equal(t.points, [[1.0, 0.0]])

    def test_round_trip_within_rounding(self):
        m = uniform_box(50, 2, seed=1)
        back = translate(translate(m, [1.0, -2.0]), [-1.0, 2.0])
        np.testing.assert_allclose(back.points, m.points, atol=1e-14)
        np.testing.assert_array_equal(back.weights, m.weights)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            translate(uniform_box(5, 2, seed=0), [1.0])


class TestHyperplane:
    def test_last_coordinate_zero(self):
        m = hyperplane_sample(50, 3, seed=2)
        assert np.all(m.points[:, -1] == 0.0)

    def test_single_atom(self):
        m = hyperplane_sample(1, 2, seed=0)
        assert len(m) == 1 and m.points[0, -1] == 0.0

    def test_dim_check(self):
        with pytest.raises(ValueError):
            hyperplane_sample(5, 1)


class TestIO:
    @pytest.mark.parametrize("ext", [".csv", ".json"])
    def test_round_trip_exact(self, tmp_path, ext):
        m = uniform_box(40, 3, seed=9)
        path = tmp_path / f"m{ext}"
        save_measure(m, path)
        assert load_measure(path) == m

    def test_negative_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5\n1.0,-0.5\n")
        with pytest.raises(MeasureFormatError, match=">= 0"):
            load_measure(path)

    def test_deficit_named(self, tmp_path):
        path = tmp_path / "deficit.csv"
        path.write_text("0.0,0.5\n1.0,0.4\n")
        with pytest.raises(MeasureFormatError, match="deficit"):
            load_measure(path)

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5\noops,0.5\n")
        with pytest.raises(MeasureFormatError, match="line 2"):
            load_measure(path)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0,0.5\n1.0,0.5\n")
        with pytest.raises(MeasureFormatError, match="line 2"):
            load_measure(path)

    def test_json_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MeasureFormatError):
            load_measure(path)
        path2 = tmp_path / "bad2.json"
        path2.write_text('{"atoms": []}')
        with pytest.raises(MeasureFormatError):
            load_measure(path2)

    def test_json_is_the_plan_header_schema(self, tmp_path):
        m = uniform_box(5, 2, seed=4)
        path = tmp_path / "m.json"
        save_measure(m, path)
        assert json.loads(path.read_text()).keys() == {"dim", "points", "weights"}
        # the {"dim", "atoms": [{"x", "w"}]} form is no longer read
        path.write_text('{"dim": 1, "atoms": [{"x": [0.0], "w": 1.0}]}')
        with pytest.raises(MeasureFormatError, match="missing key 'points'"):
            load_measure(path)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(MeasureFormatError):
            save_measure(uniform_box(2, 1, seed=0), tmp_path / "m.txt")


class TestSnap:
    def test_moves_near_coincident_atoms(self):
        from concave_ot.measures import snap

        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[1e-12, 0.0], [5.0, 5.0]], [0.5, 0.5])
        snapped = snap(mu, nu, tol=1e-9)
        assert len(match_atoms(mu, snapped)[0]) == 1
        assert meet(mu, snapped).common.total_mass == pytest.approx(0.5)
        # the far atom is untouched
        assert (snapped.points == [5.0, 5.0]).all(axis=1).any()

    def test_leaves_separated_atoms_alone(self):
        from concave_ot.measures import snap

        mu = DiscreteMeasure([[0.0]], [1.0])
        nu = DiscreteMeasure([[0.5]], [1.0])
        assert snap(mu, nu, tol=0.1) == nu

    def test_rejects_nonpositive_tol(self):
        from concave_ot.measures import snap

        mu = DiscreteMeasure([[0.0]], [1.0])
        with pytest.raises(ValueError):
            snap(mu, mu, tol=0.0)

    def test_rejects_infinite_tol(self):
        from concave_ot.measures import snap

        mu = DiscreteMeasure([[0.0]], [1.0])
        with pytest.raises(ValueError, match="tol must be finite, got inf"):
            snap(mu, mu, tol=np.inf)

    def test_tie_goes_to_lower_canonical_index(self):
        from concave_ot.measures import snap

        # a 5 x 5 lattice listed backwards; canonical order is row-major
        grid = np.indices((5, 5)).reshape(2, -1).T[::-1].astype(float)
        mu = DiscreteMeasure(grid, np.full(25, 0.04))
        assert mu.points[:5].tolist() == [[0.0, y] for y in range(5)]
        # each nu-atom lies halfway between two mu-atoms (scipy's k-d tree
        # returned the higher index for the first two)
        nu = DiscreteMeasure([[0.0, 0.5], [0.0, 3.5], [2.5, 4.0]], [0.25, 0.25, 0.5])
        snapped = snap(mu, nu, tol=0.5)
        assert snapped.points.tolist() == [[0.0, 0.0], [0.0, 3.0], [2.0, 4.0]]

    def test_distance_equal_to_tol_snaps(self):
        from scipy.spatial.distance import cdist

        from concave_ot.measures import snap

        mu = DiscreteMeasure([[0.1, 0.7, -0.3]], [1.0])
        nu = DiscreteMeasure([[0.4, 0.2, 0.6]], [1.0])
        tol = cdist(nu.points, mu.points)[0, 0]
        assert snap(mu, nu, tol=tol) == mu
        assert snap(mu, nu, tol=np.nextafter(tol, 0.0)) == nu

    def test_overflowing_distance_refused(self):
        from concave_ot.measures import snap

        # 2e154 apart: the squared distance overflows, so the distance
        # reads inf though it lies within tol
        mu = DiscreteMeasure([[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0], [2e154]], [0.5, 0.5])
        with pytest.raises(ValueError, match="nu-atom 1 is at a distance that overflows"):
            snap(mu, nu, tol=1e155)
        with pytest.raises(ValueError, match="nu-atom 0 "):
            snap(mu, DiscreteMeasure([[2e154]], [1.0]), tol=1e155)

    def test_no_coordinates(self):
        from concave_ot.measures import snap

        # in d = 0 every atom is the one point, already shared
        mu = DiscreteMeasure(np.empty((2, 0)), [0.5, 0.5])
        assert snap(mu, mu, tol=0.1) == mu
