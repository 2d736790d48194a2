import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concave_ot import measures, solver, structure
from concave_ot.costs import LogShiftCost, PiecewiseConcaveCost, PowerCost
from concave_ot.measures import DiscreteMeasure, meet, three_segments, uniform_box
from concave_ot.solver import DualPotentials, TransportPlan, solve_exact, solve_with_meet
from concave_ot.structure import (
    decompose,
    detect_kink_events,
    extract_map,
    reconstruct_map_from_potential,
    translation_mass,
    verify_stay_at_rest,
)
from support import (
    KdTreeKernel,
    ReferenceKernel,
    extract_map_reference,
    lebesgue_grid_pair,
    on_both_kernel_paths,
    overlapping_instance,
    random_instance,
    reconstruct_reference,
    record_kernel_calls,
    verify_ccm_reference,
    verify_stay_at_rest_reference,
)

P05 = PowerCost(0.5)


@pytest.fixture
def sample_20k(monkeypatch):
    """``verify_ccm`` checks 20,000 cycles of a length, not 100,000."""
    monkeypatch.setattr(structure, "_SAMPLE_SIZE", 20_000)


def verify_ccm(plan, cost, **kwargs):
    """``structure.verify_ccm``, scored by the compiled kernel and by its
    numpy reference with the same report."""
    return on_both_kernel_paths(structure.verify_ccm, plan, cost, **kwargs)


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

    def test_marginals_built_when_read(self, monkeypatch):
        mu, nu = overlapping_instance(np.random.default_rng(4))
        plan, _, _ = solve_exact(mu, nu, P05)
        built, inner_init = [], DiscreteMeasure.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            inner_init(self, *args, **kwargs)

        monkeypatch.setattr(DiscreteMeasure, "__init__", counting_init)
        dec = decompose(plan)
        assert len(built) == 0
        assert dec.off_source_marginal.total_mass == pytest.approx(dec.off_diagonal_mass)
        assert len(built) == 1


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

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_bad_tol_rejected(self, tol):
        # a NaN tol would fail the audit of an optimal plan with zero deviation
        mu, nu = overlapping_instance(np.random.default_rng(7))
        plan, _, _ = solve_exact(mu, nu, P05)
        assert verify_stay_at_rest(mu, nu, plan).ok
        with pytest.raises(ValueError, match="tol must be >= 0"):
            verify_stay_at_rest(mu, nu, plan, tol=tol)

    def test_foreign_measures_rejected(self):
        mu, nu = overlapping_instance(np.random.default_rng(5))
        plan, _, _ = solve_exact(mu, nu, P05)
        other = DiscreteMeasure(mu.points, mu.weights[::-1])
        for args in ((other, nu), (mu, other), (nu, mu)):
            with pytest.raises(ValueError, match="must be the plan's source and target"):
                verify_stay_at_rest(*args, plan)
        # equal measures built apart are the plan's own
        copy = DiscreteMeasure(nu.points[::-1], nu.weights[::-1])
        assert verify_stay_at_rest(mu, copy, plan) == verify_stay_at_rest(mu, nu, plan)

    def test_one_atom_matching_and_no_measure_built(self, monkeypatch):
        mu, nu = overlapping_instance(np.random.default_rng(6))
        plan, _, _, _, _ = solve_with_meet(mu, nu, P05)
        sorts, inner_sort = [], measures._lex_order
        built, inner_init = [], DiscreteMeasure.__init__

        def counting_sort(*args, **kwargs):
            sorts.append(1)
            return inner_sort(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            built.append(1)
            inner_init(self, *args, **kwargs)

        monkeypatch.setattr(measures, "_lex_order", counting_sort)
        monkeypatch.setattr(DiscreteMeasure, "__init__", counting_init)
        rep = verify_stay_at_rest(mu, nu, plan)
        assert (len(sorts), len(built)) == (1, 0)
        assert rep.ok and rep.diag_mass == rep.meet_mass > 0.0


def _stay_at_rest_plans(rng, d):
    """Plans on one seeded overlapping pair in dimension ``d``: the
    optimal plan, the same entries shuffled, the presolved plan of
    ``solve_with_meet``, the optimal plan with masses nudged by up to
    1e-3 and repeated entries of mass up to 1e-4 (zero for some), and a
    random plan whose entries repeat, include diagonal pairs and have
    masses of zero or of a common weight."""
    shared, extra_mu, extra_nu = rng.integers(0, 7, size=3)
    if shared + extra_mu == 0 or shared + extra_nu == 0:
        shared = 1
    mu, nu = overlapping_instance(rng, shared, extra_mu, extra_nu, d)
    plan, _, _ = solve_exact(mu, nu, P05)
    order = rng.permutation(plan.n_entries)
    shuffled = TransportPlan(source=mu, target=nu, src_idx=plan.src_idx[order],
                             tgt_idx=plan.tgt_idx[order], mass=plan.mass[order])
    again = rng.integers(0, plan.n_entries, plan.n_entries)
    extra = rng.uniform(0.0, 1e-4, len(again)) * (rng.random(len(again)) < 0.8)
    nudged = TransportPlan(
        source=mu, target=nu,
        src_idx=np.concatenate([plan.src_idx, plan.src_idx[again]]),
        tgt_idx=np.concatenate([plan.tgt_idx, plan.tgt_idx[again]]),
        mass=np.concatenate([plan.mass * rng.uniform(0.999, 1.001, plan.n_entries), extra]),
    )
    k = int(rng.integers(1, 3 * (len(mu) + len(nu))))
    src, tgt = rng.integers(0, len(mu), k), rng.integers(0, len(nu), k)
    mass = rng.uniform(0.0, 2.0 / k, k)
    split = meet(mu, nu)
    i, j, common = split.mu_idx, split.nu_idx, split.shared
    if len(i):  # some entries on the diagonal, some of them repeated
        pick = rng.integers(0, len(i), k)
        diag = rng.random(k) < 0.5
        src[diag], tgt[diag] = i[pick[diag]], j[pick[diag]]
        exact = diag & (rng.random(k) < 0.5)
        mass[exact] = common[pick[exact]]
    mass[rng.random(k) < 0.2] = 0.0
    random_plan = TransportPlan(source=mu, target=nu, src_idx=src, tgt_idx=tgt, mass=mass)
    return mu, nu, [plan, shuffled, solve_with_meet(mu, nu, P05)[0], nudged, random_plan]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_stay_at_rest_matches_meet_reference(d):
    # 4 x 30 pairs x 5 plans x 2 tolerances = 1,200 audits, each report
    # identical to the meet-based reference's in every bit
    rng = np.random.default_rng(100 + d)
    for _ in range(30):
        mu, nu, plans = _stay_at_rest_plans(rng, d)
        for plan in plans:
            for tol in (1e-9, 1e-2):
                got = verify_stay_at_rest(mu, nu, plan, tol=tol)
                assert repr(got) == repr(verify_stay_at_rest_reference(mu, nu, plan, tol=tol))


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

    @pytest.mark.usefixtures("sample_20k")
    def test_sampled_length3_on_large_support(self):
        mu = uniform_box(500, 2, seed=10)
        nu = uniform_box(500, 2, seed=11)
        plan, _, _ = solve_exact(mu, nu, P05)
        rep = verify_ccm(plan, P05, max_cycle_len=3, seed=1)
        assert rep.ok

    def test_cycle_len_bounds(self):
        plan = limit_plan(1)
        with pytest.raises(ValueError):
            verify_ccm(plan, P05, max_cycle_len=5)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_bad_tol_rejected(self, tol):
        # no value exceeds a NaN tol, so the planted cycle would go unreported
        plan = permutation_plan(12, seed=24)
        rotated = retarget(plan, (2, 5, 9), plan.tgt_idx[[5, 9, 2]])
        assert not verify_ccm(rotated, P05).ok
        with pytest.raises(ValueError, match="tol must be >= 0"):
            verify_ccm(rotated, P05, tol=tol)


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


@st.composite
def small_plans(draw):
    """Plans of at most 20 entries: optimal, or with a planted cycle.

    Uniform weights give permutation plans, into which the targets of up
    to four entries are rotated; other weights give optimal plans with
    split sources.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uniform = draw(st.booleans())
    n = draw(st.integers(2, 20 if uniform else 10))
    shared = draw(st.integers(0, n // 2))
    mu_w, nu_w = (np.ones(n), np.ones(n)) if uniform else rng.uniform(0.5, 1.5, (2, n))
    mu = DiscreteMeasure(rng.normal(size=(n, 2)), mu_w)
    nu_pts = np.vstack([mu.points[:shared], rng.normal(size=(n - shared, 2))])
    nu = DiscreteMeasure(nu_pts, nu_w * mu_w.sum() / nu_w.sum())
    plan, _, _ = solve_exact(mu, nu, P05)
    planted = draw(st.integers(0, min(4, plan.n_entries))) if uniform else 0
    if planted >= 2:
        entries = rng.choice(plan.n_entries, planted, replace=False)
        plan = retarget(plan, entries, plan.tgt_idx[np.roll(entries, -1)])
    return plan


def assert_matches_reference(got, want):
    """Same count, worst value to the last bits, and the same witness
    read as a map from each entry to the entry whose target it takes."""
    assert got.cycles_checked == want.cycles_checked
    w = want.worst_violation
    assert abs(got.worst_violation - w) <= 1e-12 * (1 + abs(w))
    got_map, want_map = (
        r.violating_cycle and dict(zip(*r.violating_cycle)) for r in (got, want)
    )
    assert got_map == want_map


class TestCcmCycles:
    """Each length checks all its cycles up to ``_SAMPLE_SIZE`` of them, else a sample."""

    @settings(max_examples=150, deadline=None)
    @given(plan=small_plans(), length=st.sampled_from([3, 4]))
    def test_matches_reference(self, plan, length):
        assert plan.n_entries <= 20  # every cycle is enumerated
        got = verify_ccm(plan, P05, max_cycle_len=length)
        assert_matches_reference(got, verify_ccm_reference(plan, P05, max_cycle_len=length))

    def test_sample_size_boundary(self, monkeypatch):
        plan = permutation_plan(12, seed=24)
        rotated = retarget(plan, (2, 5, 9), plan.tgt_idx[[5, 9, 2]])
        monkeypatch.setattr(structure, "_SAMPLE_SIZE", 440)
        every = verify_ccm(rotated, P05, max_cycle_len=3)
        assert_matches_reference(every, verify_ccm_reference(rotated, P05, max_cycle_len=3))
        assert every.cycles_checked == 132 + 440
        monkeypatch.setattr(structure, "_SAMPLE_SIZE", 439)
        sampled = verify_ccm(rotated, P05, max_cycle_len=3)
        assert sampled.cycles_checked == 132 + 439

    @pytest.mark.parametrize("length, S, enumerated", [
        (3, 67, True), (3, 68, False), (4, 26, True), (4, 27, False),
    ])
    def test_switch_at_the_sample_size(self, monkeypatch, length, S, enumerated):
        # the real sample size of 100,000: 95,810 3-cycles of 67 entries and
        # 89,700 4-cycles of 26 are enumerated, more are sampled; either
        # way no array of cycles has more rows than the first sampled draw
        plan = permutation_plan(S, seed=20)
        assert plan.n_entries == S
        rows = record_kernel_calls(monkeypatch, "cycle_scores", lambda cycles, *rest: len(cycles))
        rep = structure.verify_ccm(plan, P05, max_cycle_len=length)
        counts = [math.comb(S, L) * math.factorial(L - 1) for L in range(3, length + 1)]
        assert (counts[-1] <= 100_000) == enumerated
        counts[-1] = min(counts[-1], 100_000)
        assert rep.cycles_checked == S * (S - 1) + sum(counts)
        assert rep.ok
        assert max(rows) <= int(1.3 * 100_000) + 8
        assert (rows[-1] == counts[-1]) == enumerated

    @pytest.mark.usefixtures("sample_20k")
    def test_sampled_above_sample_size(self):
        plan = permutation_plan(300, seed=20)
        S = plan.n_entries
        rep = verify_ccm(plan, P05, max_cycle_len=3)
        assert rep.cycles_checked == S * (S - 1) + 20_000
        assert rep.ok

    def test_all_four_cycles_of_four_entries(self):
        plan = permutation_plan(4, seed=20)
        rep = verify_ccm(plan, P05, max_cycle_len=4)
        assert rep.cycles_checked == 12 + 8 + 6  # pairs, 3-cycles, 4-cycles

    def test_witness_entries_are_ints(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.3], [1.5]], [0.5, 0.5])
        crossed = TransportPlan(
            source=mu, target=nu, src_idx=[0, 1], tgt_idx=[1, 0], mass=[0.5, 0.5]
        ).validate()
        plan = permutation_plan(12, seed=24)
        rotated = retarget(plan, (2, 5, 9), plan.tgt_idx[[5, 9, 2]])
        plan = permutation_plan(40, seed=22)
        shuffled = retarget(
            plan, range(plan.n_entries), np.random.default_rng(0).permutation(plan.tgt_idx)
        )
        for bad, length, cycle_len in ((crossed, 2, 2), (rotated, 3, 3), (shuffled, 4, 4)):
            entries, permuted = verify_ccm(bad, P05, max_cycle_len=length).violating_cycle
            assert len(entries) == cycle_len
            assert all(type(e) is int for e in entries + permuted)


class TestCcmPaths:
    """The compiled scorers and their numpy references give one report on
    enumerated and sampled cycles (the module's ``verify_ccm`` runs both
    and asserts that they agree)."""

    def test_optimal_exhaustive(self):
        mu, nu = overlapping_instance(np.random.default_rng(7))
        plan, _, _ = solve_exact(mu, nu, P05)
        assert verify_ccm(plan, P05, max_cycle_len=4, seed=3).ok

    @pytest.mark.usefixtures("sample_20k")
    def test_optimal_sampled(self):
        plan = permutation_plan(480, seed=20)
        assert plan.n_entries > 450  # more 3-cycles than _SAMPLE_SIZE: sampled
        assert verify_ccm(plan, P05, max_cycle_len=4, seed=5).ok

    @pytest.mark.usefixtures("sample_20k")
    def test_shuffled_plan_worst_is_sampled(self):
        # every target reassigned at random: the worst cycle found is one of
        # the sampled 4-cycles, so the report shows their gathered costs
        plan = permutation_plan(480, seed=22)
        shuffled = retarget(
            plan, range(plan.n_entries), np.random.default_rng(0).permutation(plan.tgt_idx)
        )
        rep = verify_ccm(shuffled, P05, max_cycle_len=4)
        assert len(rep.violating_cycle[0]) == 4

    def test_sampled_report_pinned(self):
        # at the real sample size the 3-cycles of 40 entries are enumerated
        # and their 4-cycles sampled; the worst is a sampled 4-cycle, so
        # other draws would change the report that both paths agree on
        plan = permutation_plan(40, seed=22)
        shuffled = retarget(
            plan, range(plan.n_entries), np.random.default_rng(0).permutation(plan.tgt_idx)
        )
        rep = verify_ccm(shuffled, P05, max_cycle_len=4)
        assert rep.cycles_checked == 40 * 39 + 2 * math.comb(40, 3) + 100_000
        assert rep.worst_violation.hex() == "0x1.7047eede0f5a0p-3"
        assert rep.violating_cycle == ((7, 23, 4, 32), (23, 4, 32, 7))

    @pytest.mark.usefixtures("sample_20k")
    @pytest.mark.parametrize("n", [40, 480])
    def test_planted_pair_swap(self, n):
        plan = permutation_plan(n, seed=22)
        swapped = retarget(plan, (3, 17), plan.tgt_idx[[17, 3]])
        assert not verify_ccm(swapped, P05).ok

    @pytest.mark.usefixtures("sample_20k")
    @pytest.mark.parametrize("n", [40, 480])
    def test_planted_three_cycle(self, n):
        plan = permutation_plan(n, seed=24)
        rotated = retarget(plan, (2, 11, 29), plan.tgt_idx[[11, 29, 2]])
        assert not verify_ccm(rotated, P05, max_cycle_len=3).ok


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestAuditScorers:
    """The kernel's scorers return numpy's argmax, the first of tied values
    or else the first NaN, and verify_ccm the same report on the kernel and
    on its reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_pair_scores_match_numpy(self, seed):
        kernel = solver._compiled_kernel()
        rng = np.random.default_rng(seed)
        S = int(rng.integers(1, 150))
        m, n = (int(rng.integers(1, 40)) for _ in range(2))
        # small integers: every value is exact and many tie; atoms repeat
        # across entries, and m != n as a rule
        src, tgt = rng.integers(0, m, S), rng.integers(0, n, S)
        C = rng.integers(0, 4, (m, n)).astype(float)
        if seed % 4 == 1:
            C[rng.integers(0, m, 3), rng.integers(0, n, 3)] = np.nan
        if seed % 4 == 2:
            k = rng.integers(0, S)
            C[src[k], tgt[k]] = np.inf  # b_k = inf, and inf - inf is NaN
        if seed % 4 == 3:
            C[:] = np.inf  # every value is -inf or NaN
        want = ReferenceKernel().pair_scores(src, tgt, C)
        got = kernel.pair_scores(src, tgt, C)
        assert got[1:] == want[1:] and same_float(got[0], want[0])
        assert all(type(e) is int for e in got[1:] + want[1:])

    @pytest.mark.parametrize("length", [3, 4])
    def test_cycle_scores_match_numpy(self, length):
        kernel = solver._compiled_kernel()
        rng = np.random.default_rng(length)
        S, m, n = 9, 4, 6
        for bad in ("none", "cost", "base"):
            src, tgt = rng.integers(0, m, S), rng.integers(0, n, S)
            C = rng.integers(0, 4, (m, n)).astype(float)
            if bad == "cost":
                C[rng.integers(0, m, 2), rng.integers(0, n, 2)] = np.nan
            if bad == "base":
                C[src[3], tgt[3]] = np.nan
            # rows with a repeated entry are skipped
            cycles = rng.integers(0, S, (300, length))
            for limit in (1, 40, 300, 10**6):
                want = ReferenceKernel().cycle_scores(cycles, limit, src, tgt, C)
                got = kernel.cycle_scores(cycles, limit, src, tgt, C)
                assert got[0] == want[0] and same_float(got[1], want[1])
                assert np.array_equal(got[2], want[2])

    def test_scorers_reject_indices_outside_the_costs(self):
        kernel = solver._compiled_kernel()
        C = np.zeros((3, 4))
        for src, tgt in (([0, 3], [0, 1]), ([0, 1], [4, 1]), ([-1, 0], [0, 1]), ([0], [0, 1])):
            with pytest.raises(ValueError, match="support indices"):
                kernel.pair_scores(np.array(src), np.array(tgt), C)
            with pytest.raises(ValueError, match="support indices"):
                kernel.cycle_scores(np.zeros((1, 3), dtype=np.int64), 1, np.array(src),
                                    np.array(tgt), C)
        with pytest.raises(ValueError, match="cycles do not match"):
            kernel.cycle_scores(np.array([[0, 1, 2]]), 1, np.zeros(2, np.int64),
                                np.zeros(2, np.int64), C)

    @pytest.mark.parametrize(
        "layout", [lambda v: v.astype(np.float32), np.asfortranarray], ids=["float32", "fortran"]
    )
    def test_duck_typed_cost_arrays(self, layout):
        # a cost with its own value may return float32 or a Fortran-ordered
        # matrix; the kernel and its reference audit it in float64, in one report
        class Duck:
            def value(self, r):
                return layout(np.asarray(P05.value(r)))

        duck = Duck()
        mu = uniform_box(12, 2, seed=24)
        nu = uniform_box(12, 2, corner_lo=(2, 0), corner_hi=(3, 1), seed=25)
        plan, pots, _ = solve_exact(mu, nu, duck)
        rotated = retarget(plan, (1, 4, 7), plan.tgt_idx[[4, 7, 1]])
        for length in (2, 3, 4):
            assert not verify_ccm(rotated, duck, max_cycle_len=length).ok
        cert = on_both_kernel_paths(solver.certify, plan, pots, duck)
        assert cert.feasible_dual and cert.slack_ok

    def test_tied_pair_swaps_first_wins(self):
        # six entries from atom 0 to atom 1 and six back: 72 pair swaps
        # tie for the worst value, and numpy's first is (0, 6)
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0, 1.0], [1.0, 1.0]], [0.5, 0.5])
        src = np.repeat([0, 1], 6)
        crossed = TransportPlan(
            source=mu, target=nu, src_idx=src, tgt_idx=1 - src, mass=np.full(12, 1 / 12)
        ).validate()
        rep = verify_ccm(crossed, P05, max_cycle_len=2)
        assert rep.violating_cycle == ((0, 6), (6, 0))
        b = P05.value(np.sqrt(2.0))
        assert rep.worst_violation == (b + b - 1.0) - 1.0
        # the cycles of each length tie too, and the longest win by rounding
        for length in (3, 4):
            assert len(verify_ccm(crossed, P05, max_cycle_len=length).violating_cycle[0]) == length

    @pytest.mark.usefixtures("sample_20k")
    @pytest.mark.parametrize("length", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_small_supports_and_every_length(self, n, length):
        plan = permutation_plan(n, seed=22)
        shuffled = retarget(
            plan, range(plan.n_entries), np.random.default_rng(1).permutation(plan.tgt_idx)
        )
        S = shuffled.n_entries
        assert S == n
        whole = verify_ccm(shuffled, P05, max_cycle_len=length)
        if S == 1:
            assert whole == structure.CcmReport(0, 0.0, None)
        if S == 2:
            assert whole.cycles_checked == 2

    def test_nan_in_a_later_cycle_block(self):
        # entry 3 runs between coordinates near 1e308, so each cost it
        # enters overflows to inf, and each pair swap or cycle through it
        # would be NaN (inf - inf) and hide the scores of the others: the
        # audit refuses the cost matrix before scoring any cycle
        xs = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1e308, 0.0]]
        ys = [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [-1e308, 1.0]]
        mu, nu = DiscreteMeasure(xs, np.ones(4)), DiscreteMeasure(ys, np.ones(4))

        def atoms(measure, points):
            return [int(np.flatnonzero((measure.points == q).all(axis=1))[0]) for q in points]

        plan = TransportPlan(
            source=mu, target=nu, src_idx=atoms(mu, xs), tgt_idx=atoms(nu, ys), mass=np.ones(4)
        )
        with pytest.raises(solver.SolverError, match="^non-finite cost matrix entries: 7 of 4x4,"):
            verify_ccm(plan, P05, max_cycle_len=4)

    def test_no_support_sized_matrix(self, monkeypatch):
        # a plan with split sources has S = m + n - 1 entries, so its S x S
        # matrix would be about four times the m x n one the kernel reads
        mu, nu = random_instance(np.random.default_rng(5), 300, 260, 2)
        plan, _, _ = solve_exact(mu, nu, P05)
        S = plan.n_entries
        assert S == 300 + 260 - 1
        monkeypatch.setattr(structure, "_SAMPLE_SIZE", 2_000)  # cycles far below the matrix
        tracemalloc.start()
        try:
            structure.verify_ccm(plan, P05, max_cycle_len=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 300 * 260 * 8 < peak < S * S * 8


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

    @pytest.mark.parametrize("mass_tol", [math.nan, -1.0])
    def test_bad_mass_tol_rejected(self, mass_tol):
        # a NaN mass_tol would report every source of a permutation as split
        mu = uniform_box(20, 2, seed=14)
        nu = uniform_box(20, 2, seed=15)
        dec = decompose(solve_exact(mu, nu, P05)[0])
        assert extract_map(dec).split_fraction == 0.0
        with pytest.raises(ValueError, match="mass_tol must be >= 0"):
            extract_map(dec, mass_tol=mass_tol)

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

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_k_below_d_plus_one_rejected(self, d):
        cloud = uniform_box(40, d, seed=0)
        pots = DualPotentials(phi=np.zeros(40), psi=np.zeros(1))
        for k in (-3, 0, d):
            with pytest.raises(ValueError, match=f"k >= d \\+ 1 = {d + 1}, got k = {k}"):
                reconstruct_map_from_potential(pots, cloud, cloud, P05, k_neighbors=k)
        res = reconstruct_map_from_potential(pots, cloud, cloud, P05, k_neighbors=d + 1)
        assert res.near_diagonal.all()

    def test_plan_of_other_measures_rejected(self):
        # the plan's entries index its own source and target: read as atoms
        # of other measures they would give predictions for the wrong atoms
        mu = uniform_box(30, 2, seed=7)
        nu = uniform_box(30, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=8)
        _, pots, _ = solve_exact(mu, nu, P05)
        foreign = uniform_box(30, 2, corner_lo=(5, 0), corner_hi=(6, 1), seed=9)
        smaller = solve_exact(uniform_box(20, 2, seed=7), nu, P05)[0]
        for other in (smaller, solve_exact(mu, foreign, P05)[0]):
            with pytest.raises(ValueError, match="^mu and nu must be the plan's source and target$"):
                reconstruct_map_from_potential(pots, mu, nu, P05, plan=other)

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
    layout = draw(st.sampled_from(["cloud", "lattice"] + ["collinear"] * (d == 2)))
    if layout == "collinear":
        # every neighbourhood fit is rank-deficient
        pts = rng.uniform(-1.0, 1.0, size=(n, 1)) * direction
    elif layout == "lattice":
        # n atoms of an integer grid: neighbours tie at equal distances
        side = math.ceil(n ** (1.0 / d) - 1e-9) + draw(st.integers(0, 2))
        grid = np.indices((side,) * d).reshape(d, -1).T
        pts = grid[rng.permutation(len(grid))[:n]].astype(float)
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

    def test_matches_loop_with_plan(self, monkeypatch):
        mu = uniform_box(120, 2, corner_lo=(0, 0), corner_hi=(1, 1), seed=30)
        nu = uniform_box(120, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=31)
        plan, pots, _ = solve_exact(mu, nu, P05)
        ref = reconstruct_reference(pots, mu, nu, P05, plan=plan)
        # the plan's off-diagonal entries come from decompose, with none
        # of its marginal measures built
        monkeypatch.setattr(structure, "_marginal", None)
        got = reconstruct_map_from_potential(pots, mu, nu, P05, plan=plan)
        np.testing.assert_array_equal(got.lp_targets, ref.lp_targets)
        np.testing.assert_allclose(got.pred_error, ref.pred_error, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(
            got.direction_cosine, ref.direction_cosine, rtol=0, atol=1e-13
        )


class TestNeighboursWithoutTies:
    """Where no two distances tie, the compiled kernel's neighbours are
    those scipy's k-d tree gave, so the outputs keep their bits."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_reconstruction_matches_kd_tree(self, d, monkeypatch):
        mu = uniform_box(300, d, seed=40 + d)
        nu = uniform_box(300, d, corner_lo=[2.0] * d, corner_hi=[3.0] * d, seed=50 + d)
        plan, pots, _ = solve_exact(mu, nu, P05)
        got = reconstruct_map_from_potential(pots, mu, nu, P05, k_neighbors=8, plan=plan)
        monkeypatch.setattr(solver, "_compiled_kernel", KdTreeKernel)
        tree = reconstruct_map_from_potential(pots, mu, nu, P05, k_neighbors=8, plan=plan)
        assert not np.isnan(got.y_pred).any()
        for name in ("y_pred", "gradients", "radii", "fit_residual", "gap_event",
                     "out_of_range", "near_diagonal", "lp_targets", "pred_error",
                     "direction_cosine"):
            assert getattr(got, name).tobytes() == getattr(tree, name).tobytes(), name

    @pytest.mark.parametrize("d", [2, 3])
    def test_snap_matches_kd_tree(self, d, monkeypatch):
        mu = uniform_box(2000, d, seed=60 + d)
        nu = uniform_box(2000, d, seed=70 + d)
        got = measures.snap(mu, nu, tol=0.02)
        assert 0 < len(measures.match_atoms(mu, got)[0]) < len(nu)
        monkeypatch.setattr(solver, "_compiled_kernel", KdTreeKernel)
        assert measures.snap(mu, nu, tol=0.02) == got


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
            masses.append(translation_mass(plan, e))
        assert masses[0] < 1.0
        assert masses[1] <= masses[0]
