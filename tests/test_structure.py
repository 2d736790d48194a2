import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concave_ot import structure
from concave_ot.costs import LogShiftCost, PiecewiseConcaveCost, PowerCost
from concave_ot.measures import DiscreteMeasure, three_segments, uniform_box
from concave_ot.solver import DualPotentials, TransportPlan, solve_exact
from concave_ot.structure import (
    decompose,
    detect_kink_events,
    extract_map,
    reconstruct_map_from_potential,
    translation_mass,
    verify_ccm,
    verify_stay_at_rest,
)
from support import (
    extract_map_reference,
    lebesgue_grid_pair,
    overlapping_instance,
    reconstruct_reference,
)

P05 = PowerCost(0.5)


def limit_plan(n):
    """Half/half coupling of the segment source onto its two translates."""
    mu, _ = three_segments(n)
    pts = np.vstack([mu.points + [1.0, 0.0], mu.points + [-1.0, 0.0]])
    nu = DiscreteMeasure(pts, np.concatenate([mu.weights / 2, mu.weights / 2]))
    key_to_j = {row.tobytes(): j for j, row in enumerate(nu.points)}
    src, tgt, mass = [], [], []
    for i, x in enumerate(mu.points):
        for e in ((1.0, 0.0), (-1.0, 0.0)):
            src.append(i)
            tgt.append(key_to_j[(x + np.asarray(e)).tobytes()])
            mass.append(mu.weights[i] / 2)
    return TransportPlan(source=mu, target=nu, src_idx=src, tgt_idx=tgt, mass=mass).validate()


class TestDecompose:
    def test_identical_measures_all_diagonal(self):
        mu = uniform_box(25, 2, seed=0)
        plan, _, _ = solve_exact(mu, mu, P05)
        dec = decompose(plan)
        assert dec.off_diagonal.n_entries == 0
        assert dec.diagonal_mass == pytest.approx(1.0, abs=1e-12)
        assert dec.diag_source_marginal == mu

    def test_disjoint_supports_all_off(self):
        mu = uniform_box(10, 2, seed=1)
        nu = uniform_box(10, 2, seed=2)
        plan, _, _ = solve_exact(mu, nu, P05)
        dec = decompose(plan)
        assert dec.diagonal.n_entries == 0
        assert dec.off_diagonal_mass == pytest.approx(1.0, abs=1e-12)

    def test_mixed_instance_diag_mass(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0], [2.0]], [0.3, 0.7])
        plan, _, _ = solve_exact(mu, nu, P05)
        dec = decompose(plan)
        assert dec.diagonal_mass == pytest.approx(0.3, abs=1e-12)
        assert dec.diag_source_marginal.points[0, 0] == 0.0

    def test_masses_partition(self):
        mu, nu = overlapping_instance(np.random.default_rng(3))
        plan, _, _ = solve_exact(mu, nu, P05)
        dec = decompose(plan)
        assert dec.diagonal_mass + dec.off_diagonal_mass == pytest.approx(
            plan.mass.sum(), abs=1e-12
        )


class TestStayAtRest:
    def test_identical_measures(self):
        mu = uniform_box(15, 2, seed=4)
        plan, _, _ = solve_exact(mu, mu, P05)
        rep = verify_stay_at_rest(mu, mu, plan)
        assert rep.ok and rep.diag_mass == pytest.approx(1.0)

    def test_lebesgue_grid_shift(self):
        mu, nu = lebesgue_grid_pair(100)
        plan, _, _ = solve_exact(mu, nu, P05)
        rep = verify_stay_at_rest(mu, nu, plan)
        assert rep.ok
        assert rep.diag_mass == pytest.approx(0.5, abs=1e-12)
        assert rep.meet_mass == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_overlapping_instances(self, seed):
        mu, nu = overlapping_instance(np.random.default_rng(seed))
        plan, _, _ = solve_exact(mu, nu, P05)
        rep = verify_stay_at_rest(mu, nu, plan, tol=1e-9)
        assert rep.diag_matches_meet, rep
        assert rep.off_marginals_singular, rep

    def test_detects_moved_common_mass(self):
        # a feasible but suboptimal plan that ships the shared atom away
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
        plan = TransportPlan(
            source=mu, target=nu, src_idx=[0, 1], tgt_idx=[1, 0], mass=[0.5, 0.5]
        ).validate()
        rep = verify_stay_at_rest(mu, nu, plan)
        assert not rep.diag_matches_meet
        assert not rep.off_marginals_singular  # atom 0 is both source and target


class TestCcm:
    def test_optimal_plan_clean(self):
        mu, nu = overlapping_instance(np.random.default_rng(7))
        plan, _, _ = solve_exact(mu, nu, P05)
        rep = verify_ccm(plan, P05, max_cycle_len=3)
        assert rep.ok
        assert rep.worst_violation <= 1e-9

    def test_swapped_pair_flagged(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.3], [1.5]], [0.5, 0.5])
        crossed = TransportPlan(
            source=mu, target=nu, src_idx=[0, 1], tgt_idx=[1, 0], mass=[0.5, 0.5]
        ).validate()
        rep = verify_ccm(crossed, P05)
        assert not rep.ok
        assert rep.worst_violation > 0.1
        entries, permuted = rep.violating_cycle
        assert sorted(entries) == [0, 1]

    def test_chain_through_middle_point_flagged(self):
        # a point acting as both target and source off the diagonal loses
        # to the direct connection under any strictly subadditive cost
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[1.0], [2.0]], [0.5, 0.5])
        chain = TransportPlan(
            source=mu, target=nu, src_idx=[0, 1], tgt_idx=[0, 1], mass=[0.5, 0.5]
        ).validate()
        rep = verify_ccm(chain, P05)
        assert not rep.ok
        expected = 2.0 - 2.0**0.5  # f(1)+f(1) - (f(2)+f(0))
        assert rep.worst_violation == pytest.approx(expected, abs=1e-12)
        rest = verify_stay_at_rest(mu, nu, chain)
        assert not rest.off_marginals_singular

    def test_length3_exhaustive_counts(self):
        mu = uniform_box(12, 2, seed=8)
        nu = uniform_box(12, 2, seed=9)
        plan, _, _ = solve_exact(mu, nu, P05)
        rep = verify_ccm(plan, P05, max_cycle_len=3)
        s = plan.n_entries
        assert rep.cycles_checked == s * (s - 1) + 2 * (s * (s - 1) * (s - 2) // 6)

    def test_sampled_length3_on_large_support(self):
        mu = uniform_box(500, 2, seed=10)
        nu = uniform_box(500, 2, seed=11)
        plan, _, _ = solve_exact(mu, nu, P05)
        rep = verify_ccm(plan, P05, max_cycle_len=3, sample_size=20_000, seed=1)
        assert rep.ok

    def test_cycle_len_bounds(self):
        plan = limit_plan(1)
        with pytest.raises(ValueError):
            verify_ccm(plan, P05, max_cycle_len=5)


def both_ccm_paths(monkeypatch, plan, **kwargs):
    """verify_ccm on the one S x S matrix, then in row blocks of 7 entries."""
    whole = verify_ccm(plan, P05, **kwargs)
    S = plan.n_entries
    with monkeypatch.context() as patch:
        patch.setattr(structure, "_CCM_ENTRIES", 7 * S)
        assert S * S > structure._CCM_ENTRIES  # the row-block path runs
        blocks = verify_ccm(plan, P05, **kwargs)
    return whole, blocks


def permutation_plan(n, seed):
    """Optimal one-to-one plan between two separated uniform clouds."""
    mu = uniform_box(n, 2, seed=seed)
    nu = uniform_box(n, 2, corner_lo=(2, 0), corner_hi=(3, 1), seed=seed + 1)
    plan, _, _ = solve_exact(mu, nu, P05)
    return plan


def retarget(plan, entries, targets):
    tgt = plan.tgt_idx.copy()
    tgt[list(entries)] = targets
    return TransportPlan(
        source=plan.source, target=plan.target, src_idx=plan.src_idx,
        tgt_idx=tgt, mass=plan.mass,
    ).validate()


class TestCcmPaths:
    """The one-matrix path and the row-block path give the same report."""

    def test_optimal_exhaustive(self, monkeypatch):
        mu, nu = overlapping_instance(np.random.default_rng(7))
        plan, _, _ = solve_exact(mu, nu, P05)
        whole, blocks = both_ccm_paths(monkeypatch, plan, max_cycle_len=4, seed=3)
        assert whole == blocks and whole.ok

    def test_optimal_sampled(self, monkeypatch):
        plan = permutation_plan(480, seed=20)
        assert plan.n_entries > 450  # length-3 cycles are sampled
        whole, blocks = both_ccm_paths(
            monkeypatch, plan, max_cycle_len=4, sample_size=20_000, seed=5
        )
        assert whole == blocks and whole.ok

    def test_shuffled_plan_worst_is_sampled(self, monkeypatch):
        # every target reassigned at random: the worst cycle found is one of
        # the sampled 4-cycles, so the report shows their gathered costs
        plan = permutation_plan(480, seed=22)
        shuffled = retarget(
            plan, range(plan.n_entries), np.random.default_rng(0).permutation(plan.tgt_idx)
        )
        whole, blocks = both_ccm_paths(
            monkeypatch, shuffled, max_cycle_len=4, sample_size=20_000
        )
        assert whole == blocks
        assert len(whole.violating_cycle[0]) == 4

    @pytest.mark.parametrize("n", [40, 480])
    def test_planted_pair_swap(self, monkeypatch, n):
        plan = permutation_plan(n, seed=22)
        swapped = retarget(plan, (3, 17), plan.tgt_idx[[17, 3]])
        whole, blocks = both_ccm_paths(monkeypatch, swapped, sample_size=20_000)
        assert whole == blocks and not whole.ok

    @pytest.mark.parametrize("n", [40, 480])
    def test_planted_three_cycle(self, monkeypatch, n):
        plan = permutation_plan(n, seed=24)
        rotated = retarget(plan, (2, 11, 29), plan.tgt_idx[[11, 29, 2]])
        whole, blocks = both_ccm_paths(
            monkeypatch, rotated, max_cycle_len=3, sample_size=20_000
        )
        assert whole == blocks and not whole.ok


class TestExtractMap:
    def test_permutation_plan_no_splits(self):
        mu = uniform_box(30, 2, seed=12)
        nu = uniform_box(30, 2, seed=13)
        plan, _, _ = solve_exact(mu, nu, P05)
        ex = extract_map(decompose(plan))
        assert ex.split_fraction == 0.0
        assert len(ex.assigned_sources) == 30

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_three_segments_assignment(self, n):
        mu, nu = three_segments(n)
        plan, _, _ = solve_exact(mu, nu, P05)
        ex = extract_map(decompose(plan))
        assert ex.split_fraction == 0.0
        assert len(ex.assigned_sources) == 2 * n

    def test_limit_plan_fully_split(self):
        plan = limit_plan(4)
        ex = extract_map(decompose(plan))
        assert ex.split_fraction == pytest.approx(1.0, abs=1e-12)
        assert len(ex.assigned_sources) == 0
        assert all(len(s.targets) == 2 for s in ex.splits)
        assert plan.transport_cost(P05) == pytest.approx(1.0, abs=1e-15)


@st.composite
def split_plans(draw):
    """Plans with tied masses, many split sources and diagonal-only sources.

    The first ``shared`` atoms of ``mu`` are also atoms of ``nu``, so an
    entry from one of them to its twin is diagonal.
    """
    m = draw(st.integers(1, 25))
    n = draw(st.integers(1, 25))
    shared = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = DiscreteMeasure(rng.normal(size=(m, 2)), np.ones(m))
    nu_pts = np.vstack([mu.points[:shared], rng.normal(size=(n - shared, 2))])
    nu = DiscreteMeasure(nu_pts, np.ones(n))
    twin = np.array(
        [np.flatnonzero((nu.points == x).all(axis=1))[0] for x in mu.points[:shared]],
        dtype=np.int64,
    )
    size = draw(st.integers(0, 120))
    src = rng.integers(0, m, size)
    tgt = rng.integers(0, n, size)
    # a few sources send everything to their own diagonal atom
    diag = (rng.random(m) < 0.3)[src] & (src < shared)
    tgt[diag] = twin[src[diag]]
    # tied masses, and masses under the split tolerance
    mass = rng.choice([0.25, 0.25, 0.5, 1.0, 1e-10, 0.0], size)
    return TransportPlan(source=mu, target=nu, src_idx=src, tgt_idx=tgt, mass=mass)


class TestExtractMapReference:
    @settings(max_examples=150, deadline=None)
    @given(plan=split_plans(), mass_tol=st.sampled_from([1e-9, 0.3]))
    def test_matches_dict_loop(self, plan, mass_tol):
        dec = decompose(plan)
        got = extract_map(dec, mass_tol=mass_tol)
        ref = extract_map_reference(dec, mass_tol=mass_tol)
        np.testing.assert_array_equal(got.assigned_sources, ref.assigned_sources)
        np.testing.assert_array_equal(got.assigned_targets, ref.assigned_targets)
        assert got.assigned_sources.dtype == got.assigned_targets.dtype == np.int64
        assert len(got.splits) == len(ref.splits)
        for a, b in zip(got.splits, ref.splits):
            assert a.source == b.source
            np.testing.assert_array_equal(a.targets, b.targets)
            np.testing.assert_array_equal(a.masses, b.masses)
        # group and split totals are numpy sums, not Python's running sum
        assert got.split_fraction == pytest.approx(ref.split_fraction, rel=1e-13, abs=0)

    def test_tie_keeps_first_in_plan_order(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0], [2.0], [3.0]], [1.0, 1.0, 1.0])
        plan = TransportPlan(
            source=mu, target=nu, src_idx=[0, 0, 0], tgt_idx=[2, 0, 1],
            mass=[0.5, 0.5, 1e-12],
        )
        got = extract_map(decompose(plan), mass_tol=0.6)
        np.testing.assert_array_equal(got.assigned_targets, [2])

    def test_no_off_diagonal_entries(self):
        mu = uniform_box(5, 2, seed=1)
        plan, _, _ = solve_exact(mu, mu, P05)
        got = extract_map(decompose(plan))
        assert got.assigned_sources.dtype == np.int64 and got.assigned_sources.size == 0
        assert got.splits == [] and got.split_fraction == 0.0


class TestReconstruction:
    def test_affine_potential_exact(self):
        cloud = uniform_box(200, 2, seed=3)
        g = np.array([0.3, 0.1])
        gn = np.linalg.norm(g)
        r0 = P05.inv_deriv(gn)
        pots = DualPotentials(phi=cloud.points @ g, psi=np.zeros(1))
        res = reconstruct_map_from_potential(
            pots, cloud, DiscreteMeasure([[0.0, 0.0]], [1.0]), P05, k_neighbors=8
        )
        expected = cloud.points - r0 * g / gn
        np.testing.assert_allclose(res.y_pred, expected, atol=1e-10)
        assert res.gap_count == 0
        assert not res.out_of_range.any()

    def test_gap_uses_kink_radius(self):
        pw = PiecewiseConcaveCost([1.0], [2.0, 0.5])
        cloud = uniform_box(50, 2, seed=4)
        g = np.array([1.0, 0.0])  # magnitude 1.0 sits inside the slope gap
        pots = DualPotentials(phi=cloud.points @ g, psi=np.zeros(1))
        res = reconstruct_map_from_potential(
            pots, cloud, DiscreteMeasure([[0.0, 0.0]], [1.0]), pw, k_neighbors=8
        )
        assert res.gap_count == len(cloud)
        np.testing.assert_allclose(res.radii, 1.0, atol=1e-9)

    def test_out_of_range_flagged(self):
        from concave_ot.costs import LogShiftCost

        ls = LogShiftCost(0.5)  # slopes bounded by 0.5
        cloud = uniform_box(50, 2, seed=5)
        pots = DualPotentials(phi=cloud.points @ np.array([2.0, 0.0]), psi=np.zeros(1))
        res = reconstruct_map_from_potential(
            pots, cloud, DiscreteMeasure([[0.0, 0.0]], [1.0]), ls, k_neighbors=8
        )
        assert res.out_of_range.all()
        assert np.isnan(res.y_pred).all()

    def test_flat_potential_near_diagonal(self):
        cloud = uniform_box(30, 2, seed=6)
        pots = DualPotentials(phi=np.zeros(30), psi=np.zeros(1))
        res = reconstruct_map_from_potential(
            pots, cloud, DiscreteMeasure([[0.0, 0.0]], [1.0]), P05, k_neighbors=8
        )
        assert res.near_diagonal.all()
        np.testing.assert_array_equal(res.y_pred, cloud.points)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_gradients_do_not_warn(self):
        # half the atoms sit on a flat potential; only moving atoms divide
        cloud = uniform_box(60, 2, seed=6)
        phi = np.maximum(cloud.points @ np.array([0.4, 0.0]) - 0.2, 0.0)
        pots = DualPotentials(phi=phi, psi=np.zeros(1))
        res = reconstruct_map_from_potential(
            pots, cloud, DiscreteMeasure([[0.0, 0.0]], [1.0]), P05, k_neighbors=8
        )
        assert res.near_diagonal.any() and not res.near_diagonal.all()
        np.testing.assert_array_equal(res.radii[res.near_diagonal], 0.0)

    def test_single_atom_rejected(self):
        tiny = DiscreteMeasure([[0.0, 0.0]], [1.0])
        pots = DualPotentials(phi=np.zeros(1), psi=np.zeros(1))
        with pytest.raises(ValueError, match="source atoms"):
            reconstruct_map_from_potential(pots, tiny, tiny, P05)

    def test_plan_diagnostics_on_separated_clouds(self):
        mu = uniform_box(400, 2, corner_lo=(0, 0), corner_hi=(1, 1), seed=7)
        nu = uniform_box(400, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=8)
        plan, pots, _ = solve_exact(mu, nu, P05)
        res = reconstruct_map_from_potential(pots, mu, nu, P05, k_neighbors=8, plan=plan)
        err = res.pred_error[~np.isnan(res.pred_error)]
        assert err.size == 400
        assert np.median(err) <= 0.1
        cos = res.direction_cosine[~np.isnan(res.direction_cosine)]
        assert (cos >= 0.9).mean() >= 0.9


RECON_COSTS = {
    "power": PowerCost(0.4),
    "logshift": LogShiftCost(4.0),
    "piecewise": PiecewiseConcaveCost([0.5, 1.5], [3.0, 1.0, 0.25]),
}
# Gradient magnitudes for affine potentials: exact piecewise slope hits
# (1.0 inside, 0.25 on the unbounded last segment), slopes inside a kink
# gap (2.0, 0.5) and outside the slope range (5.0, 0.1).  None lies
# within rounding of a boundary where the two fits could disagree.
RECON_SLOPES = (1.0, 0.25, 2.0, 0.5, 5.0, 0.1)


@st.composite
def reconstruct_cases(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(d + 1, 10))
    n = draw(st.integers(k + 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    if d == 2 and draw(st.booleans()):
        # collinear atoms: every neighbourhood fit is rank-deficient
        pts = rng.uniform(-1.0, 1.0, size=(n, 1)) * direction
    else:
        pts = rng.normal(size=(n, d))
    mu = DiscreteMeasure(pts, np.full(n, 1.0 / n))
    pts = mu.points  # in the measure's own atom order
    slope = draw(st.sampled_from(RECON_SLOPES))
    kind = draw(st.sampled_from(["random", "affine", "flat", "half flat"]))
    if kind == "random":
        phi = rng.normal(size=n)
    elif kind == "flat":
        phi = np.full(n, 0.75)
    else:
        phi = pts @ (slope * direction)
        if kind == "half flat":
            phi = np.maximum(phi, 0.0)
    cost = RECON_COSTS[draw(st.sampled_from(sorted(RECON_COSTS)))]
    return mu, phi, cost, k


class TestReconstructionReference:
    """The stacked fit and masked radii against the per-atom loop."""

    @settings(max_examples=200, deadline=None)
    @given(case=reconstruct_cases())
    def test_matches_loop(self, case):
        mu, phi, cost, k = case
        pots = DualPotentials(phi=phi, psi=np.zeros(1))
        nu = DiscreteMeasure([np.full(mu.dim, 5.0)], [1.0])
        got = reconstruct_map_from_potential(pots, mu, nu, cost, k_neighbors=k)
        ref = reconstruct_reference(pots, mu, nu, cost, k_neighbors=k)
        for mask in ("near_diagonal", "gap_event", "out_of_range"):
            np.testing.assert_array_equal(getattr(got, mask), getattr(ref, mask), mask)
        scale = 1.0 + np.abs(ref.gradients).max()
        np.testing.assert_allclose(got.gradients, ref.gradients, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(
            got.fit_residual, ref.fit_residual, rtol=0, atol=1e-10 * (1.0 + np.abs(phi).max())
        )
        np.testing.assert_allclose(got.radii, ref.radii, rtol=1e-8, atol=0)
        np.testing.assert_allclose(got.y_pred, ref.y_pred, rtol=1e-8, atol=1e-10)

    def test_matches_loop_with_plan(self):
        mu = uniform_box(120, 2, corner_lo=(0, 0), corner_hi=(1, 1), seed=30)
        nu = uniform_box(120, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=31)
        plan, pots, _ = solve_exact(mu, nu, P05)
        got = reconstruct_map_from_potential(pots, mu, nu, P05, plan=plan)
        ref = reconstruct_reference(pots, mu, nu, P05, plan=plan)
        np.testing.assert_array_equal(got.lp_targets, ref.lp_targets)
        np.testing.assert_allclose(got.pred_error, ref.pred_error, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(
            got.direction_cosine, ref.direction_cosine, rtol=0, atol=1e-13
        )


class TestKinkEvents:
    def test_smooth_cost_no_events(self):
        mu = uniform_box(20, 2, seed=9)
        nu = uniform_box(20, 2, seed=10)
        plan, _, _ = solve_exact(mu, nu, P05)
        rep = detect_kink_events(plan, P05, tol=0.1)
        assert rep.count == 0 and rep.mass == 0.0

    def test_engineered_kink_pair_counted(self):
        pw = PiecewiseConcaveCost([1.0], [2.0, 0.5])
        mu = DiscreteMeasure([[0.0, 0.0], [5.0, 0.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[1.0, 0.0], [8.0, 0.0]], [0.5, 0.5])
        plan = TransportPlan(
            source=mu, target=nu, src_idx=[0, 1], tgt_idx=[0, 1], mass=[0.5, 0.5]
        ).validate()
        rep = detect_kink_events(plan, pw, tol=1e-9)
        assert rep.count == 1 and rep.mass == pytest.approx(0.5)


class TestTranslationMass:
    def test_exact_translation_plan(self):
        mu = uniform_box(40, 2, seed=11)
        from concave_ot.measures import translate

        nu = translate(mu, [1.0, 0.0])
        order = {row.tobytes(): j for j, row in enumerate(nu.points)}
        tgt = [order[(x + np.array([1.0, 0.0])).tobytes()] for x in mu.points]
        plan = TransportPlan(
            source=mu, target=nu, src_idx=np.arange(40), tgt_idx=tgt, mass=mu.weights
        ).validate()
        assert translation_mass(plan, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert translation_mass(plan, [0.0, 1.0]) == 0.0

    def test_zero_vector_rejected(self):
        plan = limit_plan(1)
        with pytest.raises(ValueError, match="diagonal"):
            translation_mass(plan, [0.0, 0.0])

    def test_limit_plan_half_each_way(self):
        plan = limit_plan(3)
        assert translation_mass(plan, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)
        assert translation_mass(plan, [-1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_concave_optimum_sheds_translation_mass_with_n(self):
        from concave_ot.measures import translate

        e = [1.0, 0.0]
        masses = []
        for n in (200, 800):
            mu = uniform_box(n, 2, seed=14)
            plan, _, obj = solve_exact(mu, translate(mu, e), P05)
            assert obj < 1.0  # strictly cheaper than the translation
            masses.append(translation_mass(plan, e, tol=0.02))
        assert masses[0] < 1.0
        assert masses[1] <= masses[0]
