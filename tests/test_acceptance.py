"""Acceptance suite.

One test per criterion; each prints a ``[PASS]``/``[FAIL]`` line with its
headline numbers and asserts both the quantitative thresholds and the
stated runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they appear.
"""

import time

import numpy as np
import pytest

from concave_ot.cli import QuadraticCost, limit_plan_pair
from concave_ot.costs import (
    LogShiftCost,
    DerivativeGap,
    PiecewiseConcaveCost,
    PowerCost,
    check_strict_subadditivity,
)
from concave_ot.geometry import (
    halfspace_equivalence,
    isotropy_audit,
    k_delta,
    resolution_scale,
)
from concave_ot.measures import (
    DiscreteMeasure,
    hyperplane_sample,
    three_segments,
    translate,
    uniform_box,
)
from concave_ot.solver import TransportPlan, certify, solve_exact
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
    assignment_oracle,
    lebesgue_grid_pair,
    overlapping_instance,
    random_instance,
)

P05 = PowerCost(0.5)
# the canonical three-kink piecewise cost of the acceptance suite; the
# first kink sits far below the sampling box so margins stay strict
THREE_KINK = PiecewiseConcaveCost([0.02, 0.5, 2.0], [2.0, 1.0, 0.45, 0.2])


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def overlap_plans():
    """Criterion 4 instances (solve time charged to criterion 4), reused by 5."""
    t0 = time.time()
    rng = np.random.default_rng(44)
    plans = []
    for _ in range(100):
        mu, nu = overlapping_instance(
            rng,
            shared=int(rng.integers(2, 10)),
            extra_mu=int(rng.integers(5, 20)),
            extra_nu=int(rng.integers(5, 20)),
        )
        plan, _, _ = solve_exact(mu, nu, P05)
        plans.append((mu, nu, plan))
    gm, gn = lebesgue_grid_pair(1000)
    gplan, _, _ = solve_exact(gm, gn, P05)
    return plans, gplan, time.time() - t0


def test_criterion_1_strict_subadditivity():
    t0 = time.time()
    rng = np.random.default_rng(20260810)
    samples = 10.0 * (1.0 - rng.random((100_000, 2)))  # (0, 10]^2
    costs = [PowerCost(0.3), PowerCost(0.5), PowerCost(0.8), LogShiftCost(1.0), THREE_KINK]
    worst = np.inf
    violations = 0
    for cost in costs:
        rep = check_strict_subadditivity(cost, samples)
        worst = min(worst, rep.min_margin)
        violations += rep.violations
    elapsed = time.time() - t0
    ok = worst > 1e-12 and violations == 0 and elapsed < 1.0
    _line(
        1,
        ok,
        f"min margin {worst:.3e} > 1e-12, {violations} violations over "
        f"5x100000 samples, {elapsed:.2f}s",
    )


def test_criterion_2_lp_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    alphas = (0.3, 0.5, 0.8)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        mu, nu = random_instance(rng, n, n, 2, uniform_weights=True)
        cost = PowerCost(alphas[trial % 3])
        _, _, obj = solve_exact(mu, nu, cost)
        worst = max(worst, abs(obj - assignment_oracle(mu, nu, cost)))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _line(2, ok, f"max |LP - assignment| = {worst:.2e} over 200 instances, {elapsed:.1f}s")


def test_criterion_3_duality_certificates():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_feas = worst_slack = worst_gap = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 201))
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 4))
        mu, nu = random_instance(rng, m, n, d)
        plan, pots, obj = solve_exact(mu, nu, P05)
        cert = certify(plan, pots, P05)
        worst_feas = max(worst_feas, cert.max_feasibility_violation)
        worst_slack = max(worst_slack, cert.max_slack_residual)
        worst_gap = max(worst_gap, abs(cert.gap) / (1.0 + obj))
    elapsed = time.time() - t0
    ok = worst_feas <= 1e-9 and worst_slack <= 1e-9 and worst_gap <= 1e-8 and elapsed < 60.0
    _line(
        3,
        ok,
        f"feas {worst_feas:.1e} <= 1e-9, slack {worst_slack:.1e} <= 1e-9, "
        f"rel gap {worst_gap:.1e} <= 1e-8, 100 instances, {elapsed:.1f}s",
    )


def test_criterion_4_stay_at_rest(overlap_plans):
    t0 = time.time()
    plans, gplan, solve_time = overlap_plans
    worst_dev = 0.0
    singular_ok = True
    for mu, nu, plan in plans:
        rep = verify_stay_at_rest(mu, nu, plan, tol=1e-9)
        worst_dev = max(worst_dev, rep.max_diag_deviation)
        singular_ok &= rep.off_marginals_singular
    diag_mass = decompose(gplan).diagonal_mass
    elapsed = time.time() - t0 + solve_time
    ok = (
        worst_dev <= 1e-9
        and singular_ok
        and abs(diag_mass - 0.5) <= 1e-9
        and elapsed < 120.0
    )
    _line(
        4,
        ok,
        f"max diag deviation {worst_dev:.1e} <= 1e-9 on 100 instances, "
        f"grid diag mass {diag_mass:.12f} = 0.5 +- 1e-9, {elapsed:.1f}s",
    )


def test_criterion_5_ccm_audit(overlap_plans):
    t0 = time.time()
    plans, gplan, _ = overlap_plans
    worst = -np.inf
    checked = 0
    for _, _, plan in plans:
        rep = verify_ccm(plan, P05, max_cycle_len=3, tol=1e-9, seed=5)
        worst = max(worst, rep.worst_violation)
        checked += rep.cycles_checked
    grid_rep = verify_ccm(gplan, P05, max_cycle_len=3, tol=1e-9, seed=5)
    worst = max(worst, grid_rep.worst_violation)
    checked += grid_rep.cycles_checked

    bad = TransportPlan(
        source=DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5]),
        target=DiscreteMeasure([[0.3], [1.5]], [0.5, 0.5]),
        src_idx=[0, 1],
        tgt_idx=[1, 0],
        mass=[0.5, 0.5],
    )
    adversarial = verify_ccm(bad, P05, tol=1e-9)
    elapsed = time.time() - t0
    ok = (
        worst <= 1e-9
        and grid_rep.cycles_checked >= 100_000
        and adversarial.violating_cycle is not None
        and elapsed < 60.0
    )
    _line(
        5,
        ok,
        f"worst violation {worst:.1e} <= 1e-9 over {checked} cycles, "
        f"adversarial witness {adversarial.violating_cycle}, {elapsed:.1f}s",
    )


def test_criterion_6_counterexample_reproduction():
    t0 = time.time()
    ns = [1, 2, 4, 8, 16, 32]
    objs = []
    env_ok = True
    for n in ns:
        mu, nu = three_segments(n)
        _, _, obj = solve_exact(mu, nu, P05)
        env_ok &= 1.0 - 1e-12 <= obj <= float(P05.value(1.0 + 1.0 / n)) + 1e-12
        objs.append(obj)
    monotone = all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    tail_gap = objs[-1] - 1.0
    tail_bound = float(P05.value(1.0 + 1.0 / 32)) - 1.0  # ~0.0155
    limit_cost = limit_plan_pair(8).transport_cost(P05)
    elapsed = time.time() - t0
    ok = (
        env_ok
        and monotone
        and tail_gap <= tail_bound
        and abs(limit_cost - 1.0) <= 1e-12
        and elapsed < 60.0
    )
    _line(
        6,
        ok,
        f"objectives {['%.6f' % o for o in objs]} in envelopes, non-increasing, "
        f"obj(32)-1 = {tail_gap:.4f} <= {tail_bound:.4f}, limit plan cost "
        f"{limit_cost} = f(1), {elapsed:.1f}s",
    )


def test_criterion_7_translation_non_optimality():
    t0 = time.time()
    mu = uniform_box(2000, 2, seed=0)
    e = np.array([1.0, 0.0])
    nu = translate(mu, e)
    plan_c, _, obj_c = solve_exact(mu, nu, P05)
    mass_c = translation_mass(plan_c, e)
    plan_q, _, obj_q = solve_exact(mu, nu, QuadraticCost())
    mass_q = translation_mass(plan_q, e)
    elapsed = time.time() - t0
    ok = (
        obj_c <= 0.995
        and mass_c <= 0.05
        and abs(obj_q - 1.0) <= 1e-6
        and mass_q >= 0.999
        and elapsed < 120.0
    )
    _line(
        7,
        ok,
        f"concave obj {obj_c:.4f} <= 0.995 < f(1), translation mass {mass_c:.4f}"
        f" <= 0.05; quadratic obj {obj_q:.8f} = 1 +- 1e-6 with mass {mass_q:.4f}"
        f" >= 0.999, {elapsed:.1f}s",
    )


def test_criterion_8_map_reconstruction():
    t0 = time.time()
    medians = {}
    ok = True
    detail = []
    for n in (500, 2000):
        mu = uniform_box(n, 2, corner_lo=(0, 0), corner_hi=(1, 1), seed=10)
        nu = uniform_box(n, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=11)
        plan, pots, _ = solve_exact(mu, nu, P05)
        split = extract_map(decompose(plan)).split_fraction
        res = reconstruct_map_from_potential(pots, mu, nu, P05, k_neighbors=8, plan=plan)
        err = res.pred_error[~np.isnan(res.pred_error)]
        cos = res.direction_cosine[~np.isnan(res.direction_cosine)]
        medians[n] = float(np.median(err))
        spacing = resolution_scale(nu)
        cos_mass = float(
            mu.weights[~np.isnan(res.direction_cosine)][
                cos >= 0.9
            ].sum()
        )
        ok &= split == 0.0 and cos_mass >= 0.9
        if n == 2000:
            ok &= medians[n] <= 3.0 * spacing
            detail.append(
                f"median {medians[n]:.4f} <= 3x spacing {3 * spacing:.4f}"
            )
        detail.append(f"n={n}: cos>=0.9 mass {cos_mass:.3f}")
    ok &= medians[2000] < medians[500]
    elapsed = time.time() - t0
    ok &= elapsed < 180.0
    _line(
        8,
        ok,
        f"split 0 at both sizes, medians {medians[500]:.4f} -> {medians[2000]:.4f} "
        f"decreasing, {'; '.join(detail)}, {elapsed:.1f}s",
    )


def test_criterion_9_cone_geometry():
    t0 = time.time()
    rng = np.random.default_rng(909)
    disagreements = 0
    tested = 0
    for _ in range(100_000):
        d = int(rng.integers(2, 6))
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        dl = float(rng.uniform(0.01, 0.99))
        w = y - x
        margin = abs(-w[-1] - k_delta(dl) * np.linalg.norm(w[:-1]))
        if margin < 1e-12 * max(1.0, np.linalg.norm(w)):
            continue
        a, b = halfspace_equivalence(x, dl, y)
        tested += 1
        disagreements += a != b

    ident = max(
        abs(k_delta(dl) ** 2 * dl * (2 - dl) - (1 - dl) ** 2)
        for dl in np.linspace(0.001, 0.999, 999)
    )

    box = uniform_box(5000, 2, seed=9)
    rep_box = isotropy_audit(box, point_sample=500, seed=9)
    w = box.weights[rep_box.sampled_atoms]
    interior = rep_box.distance_to_boundary >= min(rep_box.epsilons)
    interior_fail = float(
        w[rep_box.atom_failed & interior].sum() / max(w[interior].sum(), 1e-300)
    )
    hp = hyperplane_sample(5000, 2, seed=9)
    rep_hp = isotropy_audit(hp, point_sample=500, seed=9)
    elapsed = time.time() - t0
    ok = (
        disagreements == 0
        and tested > 99_000
        and ident <= 1e-12
        and interior_fail <= 0.05
        and rep_hp.failing_mass_fraction >= 0.95
        and elapsed < 120.0
    )
    _line(
        9,
        ok,
        f"halfspace agreement {tested - disagreements}/{tested}, k-identity "
        f"{ident:.1e} <= 1e-12, box interior failing {interior_fail:.4f} <= 0.05, "
        f"hyperplane failing {rep_hp.failing_mass_fraction:.3f} >= 0.95, {elapsed:.1f}s",
    )


def test_criterion_10_kink_handling():
    t0 = time.time()
    masses = []
    for n in (100, 400, 1600):
        mu = uniform_box(n, 2, corner_lo=(0, 0), corner_hi=(1, 1), seed=100 + n)
        nu = uniform_box(n, 2, corner_lo=(2.5, 0), corner_hi=(3.5, 1), seed=200 + n)
        plan, _, _ = solve_exact(mu, nu, THREE_KINK)
        rep = detect_kink_events(plan, THREE_KINK, tol=resolution_scale(nu))
        masses.append(rep.mass)
    non_increasing = all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))

    gaps_ok = True
    # probes strictly inside each slope gap must return the kink radius
    for p, kink, left, right in (
        (1.5, 0.02, 2.0, 1.0),
        (0.7, 0.5, 1.0, 0.45),
        (0.3, 2.0, 0.45, 0.2),
    ):
        got = THREE_KINK.inv_deriv(p)
        gaps_ok &= got == DerivativeGap(point=kink, left_slope=left, right_slope=right)
    elapsed = time.time() - t0
    ok = non_increasing and gaps_ok and elapsed < 120.0
    _line(
        10,
        ok,
        f"kink mass {['%.5f' % m for m in masses]} non-increasing in n, "
        f"all gap probes return the kink radius, {elapsed:.1f}s",
    )
