import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concave_ot import _kernel, solver
from concave_ot._kernel import _build_pivot_kernel, _compiled_kernel
from concave_ot.cli import main
from concave_ot.costs import LogShiftCost, PiecewiseConcaveCost, PowerCost, cost_matrix
from concave_ot.geometry import isotropy_audit
from concave_ot.measures import (
    DiscreteMeasure, save_measure, three_segments, translate, uniform_box,
)
from concave_ot.structure import CcmReport, StayAtRestReport, verify_ccm, verify_stay_at_rest
from concave_ot.solver import (
    MARGINAL_TOL,
    Certificate,
    DualPotentials,
    SolverError,
    TransportPlan,
    _network_simplex,
    load_plan,
    save_plan,
    save_potentials,
    solve_exact,
)
from support import (
    ReferenceKernel,
    _least_cost_basis,
    assignment_oracle,
    basis_enumeration_oracle,
    lebesgue_grid_pair,
    linprog_oracle,
    on_both_kernel_paths,
    overflowing_potentials_instance,
    random_instance,
    record_kernel_calls,
    verify_stay_at_rest_reference,
)

P05 = PowerCost(0.5)


def certify(plan, potentials, cost):
    """``solver.certify``, with its maxima taken by the compiled kernel and
    by its numpy reference, with the same certificate."""
    return on_both_kernel_paths(solver.certify, plan, potentials, cost)


class ScaledCost:
    """a * f(t); used only to test scale equivariance of the LP."""

    def __init__(self, base, a):
        self.base = base
        self.a = a

    def value(self, t):
        return self.a * self.base.value(t)


class TestSolveExactBasics:
    def test_delta_to_delta(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
        nu = DiscreteMeasure([[3.0, 4.0]], [1.0])
        plan, pots, obj = solve_exact(mu, nu, P05)
        assert plan.n_entries == 1 and plan.mass[0] == 1.0
        assert obj == pytest.approx(5.0**0.5, rel=1e-14)

    def test_identical_measures_cost_zero(self):
        mu = uniform_box(40, 2, seed=0)
        plan, pots, obj = solve_exact(mu, mu, P05)
        assert obj == 0.0
        assert np.all(plan.src_idx == plan.tgt_idx)

    def test_three_segments_envelope(self):
        mu, nu = three_segments(4)
        _, _, obj = solve_exact(mu, nu, P05)
        assert 1.0 <= obj <= float(P05.value(1.25))

    def test_phi_normalized_at_first_atom(self):
        mu, nu = random_instance(np.random.default_rng(0), 7, 9, 2)
        _, pots, _ = solve_exact(mu, nu, P05)
        assert pots.phi[0] == 0.0

    def test_marginals_and_entry_bound(self):
        rng = np.random.default_rng(3)
        mu, nu = random_instance(rng, 23, 17, 3)
        plan, _, _ = solve_exact(mu, nu, P05)
        plan.validate(basic=True)
        np.testing.assert_allclose(plan.row_marginals(), mu.weights, atol=1e-12)
        np.testing.assert_allclose(plan.col_marginals(), nu.weights, atol=1e-12)


class TestOracles:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_assignment_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        mu, nu = random_instance(rng, n, n, 2, uniform_weights=True)
        _, _, obj = solve_exact(mu, nu, P05)
        assert obj == pytest.approx(assignment_oracle(mu, nu, P05), abs=1e-10)

    @pytest.mark.parametrize("corner", [3.0, 0.0], ids=["separated", "overlapping"])
    def test_matches_assignment_oracle_at_300(self, corner):
        # 2,812 and 1,584 pivots, the last to move mass 17 and 29 before the
        # end (the rest only move potentials): a loop that stops before it
        # misses the optimum by 2e-8 or more
        mu = uniform_box(300, 2, seed=20)
        nu = uniform_box(300, 2, corner_lo=(corner, corner),
                         corner_hi=(corner + 1.0, corner + 1.0), seed=21)
        _, _, obj = solve_exact(mu, nu, P05)
        assert obj == pytest.approx(assignment_oracle(mu, nu, P05), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_basis_enumeration(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        mu, nu = random_instance(rng, m, n, 2)
        _, _, obj = solve_exact(mu, nu, P05)
        assert obj == pytest.approx(basis_enumeration_oracle(mu, nu, P05), abs=1e-10)

    def test_never_beaten_by_feasible_plans(self):
        mu = uniform_box(30, 2, seed=7)
        nu = translate(mu, [0.5, 0.0])
        _, _, obj = solve_exact(mu, nu, P05)
        # the translation coupling is feasible
        translation_cost = float(np.sum(mu.weights * P05.value(0.5)))
        assert obj <= translation_cost + 1e-12


def _unit_grid_pair(k, e):
    g = np.arange(float(k))
    mu = DiscreteMeasure(np.array([(x, y) for x in g for y in g]), np.full(k * k, 1.0 / k**2))
    return mu, translate(mu, e)


PINNED_PIVOTS = [
    pytest.param(three_segments(16), P05, 30, 1.0000610295691101, id="three_segments16"),
    pytest.param(
        (
            uniform_box(200, 2, corner_lo=(0, 0), corner_hi=(1, 1), seed=10),
            uniform_box(200, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=11),
        ),
        P05, 1942, 2.0455727930561447, id="separated_clouds200",
    ),
    pytest.param(
        _unit_grid_pair(12, (1.0, 0.0)),
        PiecewiseConcaveCost([0.5, 1.5], [2, 1, 0.25]),
        10, 0.38541666666666663, id="grid12_translated",
    ),
]


def _start_violations(a, b, arcs, flows):
    """Ways in which (arcs, flows) fails to be a strongly feasible start.

    Checks m+n-1 arcs, a spanning tree, exact marginals, and, with the
    tree hung from source 0, that every zero-flow arc has a source child.
    """
    m, n = len(a), len(b)
    problems = []
    if len(arcs) != m + n - 1:
        problems.append(f"{len(arcs)} arcs, expected {m + n - 1}")
    src, tgt = arcs // n, arcs % n
    if not np.array_equal(np.bincount(src, flows, minlength=m), a):
        problems.append("row sums differ from the source weights")
    if not np.array_equal(np.bincount(tgt, flows, minlength=n), b):
        problems.append("column sums differ from the target weights")
    adj = [[] for _ in range(m + n)]
    for i, j, f in zip(src.tolist(), tgt.tolist(), flows.tolist()):
        adj[i].append((m + j, f))
        adj[m + j].append((i, f))
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v, f in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
                if f == 0.0 and v >= m:
                    problems.append(f"zero-flow arc hangs target {v - m}")
    if len(seen) != m + n:
        problems.append(f"tree reaches {len(seen)} of {m + n} nodes")
    return problems


STARTS = [
    pytest.param(
        uniform_box(200, 2, seed=10),
        uniform_box(200, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=11),
        P05, id="separated_clouds200",
    ),
    pytest.param(uniform_box(200, 2, seed=0), uniform_box(200, 2, seed=1), P05,
                 id="overlapping_clouds200"),
    pytest.param(*three_segments(16), P05, id="three_segments16"),
    pytest.param(*_unit_grid_pair(12, (1.0, 0.0)),
                 PiecewiseConcaveCost([0.5, 1.5], [2, 1, 0.25]), id="grid12_translated"),
    pytest.param(DiscreteMeasure([[0.0]], [1.0]),
                 DiscreteMeasure([[1.0], [2.0], [3.0], [4.0]], [0.125, 0.375, 0.25, 0.25]),
                 P05, id="m1"),
    pytest.param(DiscreteMeasure([[1.0], [2.0], [3.0], [4.0]], [0.25, 0.25, 0.375, 0.125]),
                 DiscreteMeasure([[0.0]], [1.0]), P05, id="n1"),
]


# (costs, arcs, flows) of the least-cost start between two half-half measures
SCANS = [
    ([[3.0, 1.0], [2.0, 4.0]], [1, 2, 3], [0.5, 0.5, 0.0]),
    ([[1.0, 1.0], [1.0, 1.0]], [0, 2, 3], [0.5, 0.0, 0.5]),  # ties by arc id
]


class TestStartingBasis:
    """The least-cost start is a strongly feasible spanning tree, which
    the leaving rule needs to rule out cycling on degenerate instances."""

    @pytest.mark.parametrize("mu, nu, cost", STARTS)
    def test_strongly_feasible_tree(self, mu, nu, cost):
        arcs, flows = _least_cost_basis(mu.weights, nu.weights, cost_matrix(mu, nu, cost))
        assert _start_violations(mu.weights, nu.weights, arcs, flows) == []

    @pytest.mark.parametrize("C, arcs, flows", SCANS)
    def test_scans_by_cost_then_arc_id(self, C, arcs, flows):
        half = np.array([0.5, 0.5])
        got_arcs, got_flows = _least_cost_basis(half, half, np.array(C))
        assert got_arcs.tolist() == arcs and got_flows.tolist() == flows


class TestPivotSequence:
    """The pivot rule is deterministic: these counts and objectives are
    the solver's own, so any change to pricing, the leaving rule or the
    tree updates that alters the pivot sequence shows up here."""

    @pytest.mark.parametrize("pair, cost, pivots, objective", PINNED_PIVOTS)
    def test_pinned(self, pair, cost, pivots, objective):
        mu, nu = pair
        flows, arcs, _, count = _network_simplex(
            mu.weights, nu.weights, cost_matrix(mu, nu, cost)
        )
        keep = flows > 0.0
        n = len(nu)
        plan = TransportPlan(mu, nu, arcs[keep] // n, arcs[keep] % n, flows[keep])
        assert count == pivots
        assert plan.transport_cost(cost) == objective


# Lattice supports (distances hit the piecewise kinks exactly) and
# duplicate-heavy ones (few distinct points drawn many times), which
# DiscreteMeasure merges: up to 12 atoms per side, d in {1, 2, 3}.
@st.composite
def lp_instances(draw):
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        pool = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    else:
        pool = st.sampled_from(draw(st.lists(
            st.floats(-2.0, 2.0, allow_subnormal=False), min_size=1, max_size=3)))

    def measure():
        k = draw(st.integers(1, 12))
        pts = draw(st.lists(st.lists(pool, min_size=d, max_size=d), min_size=k, max_size=k))
        wts = np.array(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)), float)
        return DiscreteMeasure(np.reshape(pts, (k, d)), wts / wts.sum(), dim=d)

    return measure(), measure(), draw(concave_costs([0.5, 1.0, 1.5, 2.0]))


@st.composite
def concave_costs(draw, kink_pool):
    kinks = sorted(draw(st.sets(st.sampled_from(kink_pool), min_size=1, max_size=3)))
    return draw(st.sampled_from([
        PowerCost(0.5),
        PowerCost(0.2),
        LogShiftCost(2.0),
        PiecewiseConcaveCost(kinks, [2.0 ** -k for k in range(len(kinks) + 1)]),
    ]))


# Tie-heavy instances, where a start or a pivot rule could cycle or
# stall: three_segments(k), whose source atoms all sit at horizontal
# distance 1 from the targets, and k x k unit grids translated by a
# lattice vector.  The piecewise kinks sit at lattice distances.
@st.composite
def tie_heavy_instances(draw):
    if draw(st.booleans()):
        mu, nu = three_segments(draw(st.integers(1, 8)))
    else:
        mu, nu = _unit_grid_pair(
            draw(st.integers(1, 5)),
            draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (0.5, 0.0)])),
        )
    return mu, nu, draw(concave_costs([0.5, 1.0, 1.5, 2.0, math.sqrt(2.0), math.sqrt(5.0)]))


class TestLinprogOracle:
    @settings(max_examples=250, deadline=None)
    @given(instance=st.one_of(lp_instances(), tie_heavy_instances()))
    def test_matches_highs(self, instance):
        mu, nu, cost = instance
        plan, pots, obj = solve_exact(mu, nu, cost)
        assert abs(obj - linprog_oracle(mu, nu, cost)) <= 1e-9 * (1.0 + abs(obj))
        assert certify(plan, pots, cost).ok


def _copy(tree):
    return tree._replace(**{
        k: v.copy() for k, v in tree._asdict().items() if isinstance(v, np.ndarray)
    })


def _run_both_loops(mu, nu, cost, pivot_budget=10**9):
    """The pivot count and the bytes of every array of the tree (parent,
    parc, flow, size, last, next_, prev_ and pi) from the Python loop and
    from the compiled one, each run on a copy of the same start."""
    tree = ReferenceKernel().start(mu.weights, nu.weights, cost_matrix(mu, nu, cost)).tree
    return _both_loops(tree, pivot_budget)


def _both_loops(tree, pivot_budget=10**9):
    """:func:`_run_both_loops` from a given tree."""
    out = []
    for loop in (ReferenceKernel().pivot_loop, _compiled_kernel().pivot_loop):
        t = _copy(tree)
        pivots = loop(t, pivot_budget)
        out.append({
            "pivots": pivots,
            **{name: getattr(t, name).tobytes() for name in (*_kernel._TREE_LISTS, "pi")},
        })
    return out


def _both_starts(a, b, C):
    """The Python and the compiled start of the same instance, each as
    the bytes of the arc ids, the flows and every array of the tree."""
    out = []
    for start in (ReferenceKernel().start, _compiled_kernel().start):
        arcs, flows, tree = start(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                                  np.asarray(C, dtype=float))
        out.append({
            "arcs": arcs.tobytes(), "flows": flows.tobytes(), "opt_tol": tree.opt_tol,
            **{name: getattr(tree, name).tobytes()
               for name in ("cost", *_kernel._TREE_LISTS, "pi")},
        })
    return out


# (pair, cost, pivots): pricing blocks of several 64-arc chunks.  The
# 20 x 20 grids have 400 atoms a side, so a block of 400 arcs spans 7
# chunks, and their lattice distances tie many reduced costs; the 100-arc
# blocks of the 30 x 333 pair cross row ends.
LOOP_INSTANCES = [
    pytest.param(_unit_grid_pair(20, (2.0, 1.0)), PiecewiseConcaveCost([0.5, 1.5], [2, 1, 0.25]),
                 1806, id="grid20_tied"),
    pytest.param(
        (
            uniform_box(30, 2, seed=10),
            uniform_box(333, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=11),
        ),
        P05, 1149, id="separated_30x333",
    ),
]


@pytest.fixture
def fresh_kernel_loader():
    _compiled_kernel.cache_clear()
    yield
    _compiled_kernel.cache_clear()


class TestCompiledPivotLoop:
    """The C pivot loop is a port of the Python one: from the same tree
    it must make the same pivots and return the same bits."""

    @pytest.mark.parametrize("pair, cost", [
        *(pytest.param(*p.values[:2], id=p.id) for p in PINNED_PIVOTS),
        *(pytest.param(p.values[:2], p.values[2], id=p.id) for p in STARTS[-2:]),
    ])
    def test_matches_python_loop(self, pair, cost):
        python, compiled = _run_both_loops(*pair, cost)
        assert compiled == python

    @pytest.mark.parametrize("pair, cost, pivots", LOOP_INSTANCES)
    def test_matches_python_loop_over_chunks(self, pair, cost, pivots):
        python, compiled = _run_both_loops(*pair, cost)
        assert compiled == python
        assert python["pivots"] == pivots

    @settings(max_examples=100, deadline=None)
    @given(instance=st.one_of(lp_instances(), tie_heavy_instances()))
    def test_matches_python_loop_on_drawn_instances(self, instance):
        python, compiled = _run_both_loops(*instance)
        assert compiled == python

    def test_priced_arc_at_every_lane_and_in_the_tail_matches_python_loop(self):
        # 35 x 35 arcs price in blocks of 35, each one row from its first
        # arc: 32 arcs in steps of four vectors (one step of 8-lane
        # vectors, two of 4-lane, four of 2-lane), then a scalar tail of 3.
        # At each column in turn, an arc off the start tree gets the
        # finite cost that gives it reduced cost -1, on the first row where
        # the reference loop then runs otherwise: a kernel that skipped the
        # arc's lane, or the tail, would not price it in there.
        mu, nu = random_instance(np.random.default_rng(8), 35, 35, 2)
        tree = ReferenceKernel().start(mu.weights, nu.weights, cost_matrix(mu, nu, P05)).tree
        m = n = tree.n
        assert _kernel._pricing_block(n * n) == n
        plain = _both_loops(tree)[0]
        outside = np.setdiff1d(np.arange(n * n), tree.parc[1:])
        for j in range(n):
            for arc in outside[outside % n == j]:
                t = _copy(tree)
                t.cost[arc] = tree.pi[arc // n] - tree.pi[m + j] - 1.0
                python, compiled = _both_loops(t)
                if python != plain:
                    break
            else:
                raise AssertionError(f"no priced arc in column {j} changes the loop")
            assert compiled == python, (j, arc // n)

    def test_broken_thread_raises(self):
        # A last entry pointed outside its subtree breaks the thread once a
        # pivot splices at it; the potential update, which walks a subtree
        # along the thread, stops after the subtree's size and says so.
        (mu, nu), cost = PINNED_PIVOTS[1].values[:2]
        tree = _compiled_kernel().start(mu.weights, nu.weights, cost_matrix(mu, nu, cost)).tree
        tree.last[1] = tree.next_[tree.last[1]]
        with pytest.raises(SolverError, match=r"^the tree's thread .* \(internal error\)$"):
            _compiled_kernel().pivot_loop(tree, 10**9)

    def test_same_pivot_budget_error(self):
        mu, nu = random_instance(np.random.default_rng(6), 10, 10, 2)
        tree = ReferenceKernel().start(mu.weights, nu.weights, cost_matrix(mu, nu, P05)).tree
        messages = []
        for loop in (ReferenceKernel().pivot_loop, _compiled_kernel().pivot_loop):
            with pytest.raises(SolverError, match="pivot budget") as err:
                loop(_copy(tree), 1)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "pivot budget 1 exhausted (numeric degeneracy?)"

    def test_solver_runs_the_compiled_loop(self, monkeypatch):
        nodes = record_kernel_calls(monkeypatch, "pivot_loop", lambda tree, _: len(tree.pi))
        mu, nu = three_segments(16)
        _, _, obj = solve_exact(mu, nu, P05)
        assert obj == 1.0000610295691101
        assert nodes == [len(mu) + len(nu)]

    def test_compiled_once_per_cache(self, tmp_path, monkeypatch):
        # -march=native builds for the host CPU, so each CPU gets its own
        # library and no CPU loads one built for another
        paths = {}
        for cpu in ("flags\t: fpu sse2", "flags\t: fpu sse2 avx2"):
            monkeypatch.setattr(_kernel, "_host_cpu", lambda cpu=cpu: cpu)
            paths[cpu] = _build_pivot_kernel(tmp_path)
        assert len(set(paths.values())) == 2

        def no_compiler(*args, **kwargs):
            raise AssertionError("compiled a second time")

        monkeypatch.setattr(_kernel.subprocess, "run", no_compiler)
        for cpu, path in paths.items():
            monkeypatch.setattr(_kernel, "_host_cpu", lambda cpu=cpu: cpu)
            assert _build_pivot_kernel(tmp_path) == path
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths.values())


def _tied_costs(m, n):
    """Weights and an m x n matrix of costs in {0, 1, 2}: long runs of
    ties in every row."""
    rng = np.random.default_rng(m * n)
    a, b = rng.integers(1, 5, m).astype(float), rng.integers(1, 5, n).astype(float)
    return a / a.sum(), b / b.sum(), rng.integers(0, 3, size=(m, n)).astype(float)


# (a, b, C) instances of the start
START_INSTANCES = [
    *(pytest.param(mu.weights, nu.weights, cost_matrix(mu, nu, cost), id=f"pinned_{p.id}")
      for p in [*PINNED_PIVOTS, *LOOP_INSTANCES] for (mu, nu), cost in [p.values[:2]]),
    *(pytest.param(mu.weights, nu.weights, cost_matrix(mu, nu, cost), id=p.id)
      for p in STARTS for mu, nu, cost in [p.values]),
    *(pytest.param([0.5, 0.5], [0.5, 0.5], C, id=f"scan{k}") for k, (C, _, _) in enumerate(SCANS)),
    *(pytest.param(*_tied_costs(m, n), id=f"tied_{m}x{n}")
      for m, n in [(40, 90), (90, 40), (1, 200), (200, 1), (5, 400), (3, 1000)]),
    # far fewer rows than columns: each row's run holds many arcs
    *(pytest.param(mu.weights, nu.weights, cost_matrix(mu, nu, P05), id=f"separated_{m}x{n}")
      for m, n in [(1, 3000), (20, 3000), (3000, 20)]
      for mu, nu in [(uniform_box(m, 2, seed=10),
                      uniform_box(n, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=11))]),
]


class TestCompiledStart:
    """The C start is a port of the Python one: on the same instance it
    must take the same arcs with the same flows and build the same tree,
    bit for bit."""

    @pytest.mark.parametrize("a, b, C", START_INSTANCES)
    def test_matches_python_start(self, a, b, C):
        python, compiled = _both_starts(a, b, C)
        assert compiled == python

    @settings(max_examples=100, deadline=None)
    @given(instance=st.one_of(lp_instances(), tie_heavy_instances()))
    def test_matches_python_start_on_drawn_instances(self, instance):
        mu, nu, cost = instance
        python, compiled = _both_starts(mu.weights, nu.weights, cost_matrix(mu, nu, cost))
        assert compiled == python

    def test_solver_runs_the_compiled_start(self, monkeypatch):
        nodes = record_kernel_calls(monkeypatch, "start", lambda a, b, C: len(a) + len(b))
        mu, nu = three_segments(16)
        _, _, obj = solve_exact(mu, nu, P05)
        assert obj == 1.0000610295691101
        assert nodes == [len(mu) + len(nu)]


def test_solver_error_when_build_fails(tmp_path, monkeypatch, fresh_kernel_loader, capsys):
    # no compiler and no cached kernel: every solve, cost matrix and audit
    # needs the kernel, and fails naming the compiler command
    mu, nu = random_instance(np.random.default_rng(3), 30, 25, 2)
    cache = tmp_path / "cache"
    monkeypatch.setattr(_kernel, "_KERNEL_CACHE", cache)
    monkeypatch.setattr(_kernel, "_CC", ("no-such-cc", *_kernel._CC[1:]))
    message = ("cannot build the compiled kernel with"
               " `no-such-cc -O2 -march=native -ffp-contract=off -fno-math-errno -shared -fPIC`: ")
    for run in (lambda: solve_exact(mu, nu, P05), lambda: cost_matrix(mu, nu, P05),
                lambda: isotropy_audit(mu, point_sample=10)):
        with pytest.raises(SolverError, match=f"^{re.escape(message)}.*no-such-cc"):
            run()
    mu_path, nu_path, out = tmp_path / "mu.csv", tmp_path / "nu.csv", tmp_path / "out"
    save_measure(mu, mu_path)
    save_measure(nu, nu_path)
    assert main(["solve", "--mu", str(mu_path), "--nu", str(nu_path),
                 "--cost", '{"kind":"power","alpha":0.5}', "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"solver error: {message}")
    assert not out.exists()
    iso = tmp_path / "iso"
    assert main(["isotropy", "--generator", "uniform_box:n=200,dim=2", "--out", str(iso)]) == 3
    assert capsys.readouterr().err.startswith(f"solver error: {message}")
    assert not iso.exists()
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("d", [8, 9, 17])
def test_plan_distances_round_as_the_cost_matrix(d):
    # numpy's norm sums 8 or more squares pairwise; the plan's distances,
    # hence transport_cost and the certificate's gap, take the rounding of
    # the distances every cost matrix is made of
    mu, nu = random_instance(np.random.default_rng(d), 60, 50, d)
    src, tgt = np.divmod(np.arange(60 * 50), 50)
    plan = TransportPlan(source=mu, target=nu, src_idx=src, tgt_idx=tgt, mass=np.ones(3000))
    want = _kernel._compiled_kernel().distances(mu.points, nu.points)[src, tgt]
    assert plan.distances().tobytes() == want.tobytes()
    reference = ReferenceKernel().distances(mu.points, nu.points)
    assert plan.distances().tobytes() == reference.ravel().tobytes()


def test_map_regime_seed_0_pinned(monkeypatch):
    # the separated n = 1000 clouds of the benchmark's map_regime workload
    mu = uniform_box(1000, 2, corner_lo=(0, 0), corner_hi=(1, 1), seed=10)
    nu = uniform_box(1000, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=11)
    pivots = []
    inner = solver._network_simplex

    def counting(*args, **kwargs):
        out = inner(*args, **kwargs)
        pivots.append(out[3])
        return out

    monkeypatch.setattr(solver, "_network_simplex", counting)
    plan, pots, obj = solve_exact(mu, nu, P05)
    assert obj == 2.051390006533048 == assignment_oracle(mu, nu, P05)
    assert pivots == [15_233]
    assert certify(plan, pots, P05) == Certificate(
        feasible_dual=True,
        slack_ok=True,
        gap=0.0,
        max_feasibility_violation=3.552713678800501e-15,
        max_slack_residual=3.552713678800501e-15,
        tolerance=2.3624917840420882e-09,
    )
    ccm = on_both_kernel_paths(verify_ccm, plan, P05, max_cycle_len=3, seed=0)
    assert ccm == CcmReport(1_099_000, -3.3788566833337086e-08, None)
    rest = verify_stay_at_rest(mu, nu, plan)
    assert rest == StayAtRestReport(True, True, 0.0, 0.0, 0.0, 0.0)
    assert repr(rest) == repr(verify_stay_at_rest_reference(mu, nu, plan))


STARTUP_SCRIPT = textwrap.dedent("""
    import sys

    sys.modules["scipy"] = None  # any import of scipy or its submodules fails

    import concave_ot.cli  # noqa: F401
    from concave_ot import (
        PowerCost, certify, decompose, extract_map, hyperplane_sample, isotropy_audit,
        reconstruct_map_from_potential, resolution_scale, snap, solve_exact, uniform_box,
        verify_ccm, verify_stay_at_rest,
    )

    mu = uniform_box(12, 2, seed=0)
    nu = uniform_box(12, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=1)
    cost = PowerCost(0.5)
    plan, pots, _ = solve_exact(mu, nu, cost)
    assert certify(plan, pots, cost).ok
    assert verify_stay_at_rest(mu, nu, plan).ok
    assert verify_ccm(plan, cost).ok
    extract_map(decompose(plan))
    assert resolution_scale(nu) > 0.0
    for dim in (2, 3, 5):
        assert isotropy_audit(hyperplane_sample(300, dim, seed=0), point_sample=50).worst_witness
    reconstruct_map_from_potential(pots, mu, nu, cost, k_neighbors=8)
    reconstruct_map_from_potential(pots, mu, nu, cost, k_neighbors=8, plan=plan)
    assert snap(mu, nu, tol=10.0) != nu
    loaded = [name for name, m in sys.modules.items() if name.startswith("scipy") and m]
    assert loaded == [], loaded
""")


def test_exact_pipeline_loads_no_scipy():
    """With scipy blocked, the package imports, and solving and auditing
    a plan, the resolution scale, isotropy audits in d = 2, 3 and 5,
    rebuilding the map (with and without a plan) and snapping all run:
    none of them imports a scipy module."""
    src = Path(solver.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def _maxima_instances(seed):
    """(phi, psi, C) inputs of ``certify_maxima``, every C finite as the
    solver's cost matrices are: one drawn from an int seed; zero maxima
    met as -0.0 and +0.0 in either order, in a vector lane or the odd
    tail of a row; or a NaN potential at each position of rows of 9
    columns, so in each lane of a 2-, 4- or 8-lane vector and in the
    tail (the violation NaN); or the solver's potentials on the
    instances of ``PINNED_PIVOTS`` and ``LOOP_INSTANCES``."""
    if seed == "pinned":
        for p in [*PINNED_PIVOTS, *LOOP_INSTANCES]:
            (mu, nu), cost = p.values[:2]
            _, pots, _ = solve_exact(mu, nu, cost)
            yield pots.phi, pots.psi, cost_matrix(mu, nu, cost)
        return
    if seed == "signed_zeros":
        for psi in ([-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0, 0.0, -0.0]):
            yield np.array([-0.0]), np.array(psi), np.zeros((1, len(psi)))
        return
    if seed == "nan_lanes":
        m, n = 3, 9
        for i, j in np.ndindex(m, n):
            phi, psi, C = np.linspace(-1, 1, m), np.linspace(0, 1, n), np.ones((m, n))
            psi[j] = np.nan
            yield phi, psi, C
            psi[j], phi[i] = 0.5, np.nan
            yield phi, psi, C
        return
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(1, 40, 2))
    phi, psi = rng.normal(size=m), rng.normal(size=n)
    C = rng.exponential(size=(m, n))
    if seed == 1:
        phi[rng.integers(0, m)] = np.nan
    if seed == 2:
        psi[rng.integers(0, n)] = np.nan
    if seed == 3:  # costs up to the greatest float
        C *= np.finfo(float).max / C.max()
    if seed == 4:
        C = -C  # |C| is not C
    yield phi, psi, C


class TestDuality:
    @pytest.mark.parametrize("seed", range(10))
    def test_certificate_on_solver_output(self, seed):
        rng = np.random.default_rng(seed)
        mu, nu = random_instance(rng, int(rng.integers(2, 40)), int(rng.integers(2, 40)), 2)
        plan, pots, obj = solve_exact(mu, nu, P05)
        cert = certify(plan, pots, P05)
        assert cert.feasible_dual and cert.slack_ok
        assert abs(cert.gap) <= 1e-8 * (1.0 + abs(obj))

    def test_perturbed_phi_breaks_feasibility(self):
        rng = np.random.default_rng(1)
        mu, nu = random_instance(rng, 10, 10, 2)
        plan, pots, _ = solve_exact(mu, nu, P05)
        bad = DualPotentials(phi=pots.phi.copy(), psi=pots.psi.copy())
        bad.phi[3] += 10 * MARGINAL_TOL
        cert = certify(plan, bad, P05)
        assert not cert.feasible_dual

    def test_tolerance_scales_with_costs(self):
        # costs around 1e8: the optimal potentials carry rounding of about
        # 2e-7, far above an absolute 1e-9, yet a real violation shows
        mu, nu = random_instance(np.random.default_rng(1), 100, 100, 2)
        mu = DiscreteMeasure(mu.points * 1e16, mu.weights)
        nu = DiscreteMeasure(nu.points * 1e16, nu.weights)
        plan, pots, obj = solve_exact(mu, nu, P05)
        cert = certify(plan, pots, P05)
        assert cert.ok and abs(cert.gap) <= 1e-8 * (1.0 + abs(obj))
        bad = DualPotentials(phi=pots.phi + 1e-6 * obj, psi=pots.psi)
        assert not certify(plan, bad, P05).feasible_dual

    def test_heavy_measures_solve_and_certify(self):
        # weights of about 1e6 per atom: the flows carry rounding relative
        # to the total mass (2e8), far above an absolute 1e-9, so the
        # marginal check scales with the mass as the balance check does
        a, b = np.random.default_rng(7).uniform(0.5, 1.5, (2, 200)) * 1e6
        mu = DiscreteMeasure(uniform_box(200, 2, seed=10).points, a)
        nu = DiscreteMeasure(
            uniform_box(200, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=11).points,
            b * (a.sum() / b.sum()),
        )
        plan, pots, obj = solve_exact(mu, nu, P05)
        cert = certify(plan, pots, P05)
        assert cert.ok and abs(cert.gap) <= 1e-8 * abs(obj)
        tol = MARGINAL_TOL * mu.total_mass
        moved = TransportPlan(source=mu, target=nu, src_idx=plan.src_idx,
                              tgt_idx=plan.tgt_idx, mass=plan.mass.copy())
        moved.mass[0] += 0.5 * tol
        moved.validate()
        moved.mass[0] += tol
        with pytest.raises(ValueError, match=f"violate tolerance {tol:g} "):
            moved.validate()

    def test_certificate_records_tolerance(self, monkeypatch):
        mu, nu = random_instance(np.random.default_rng(1), 100, 100, 2)
        mu = DiscreteMeasure(mu.points * 1e16, mu.weights)
        nu = DiscreteMeasure(nu.points * 1e16, nu.weights)
        plan, pots, _ = solve_exact(mu, nu, P05)
        cert = certify(plan, pots, P05)
        max_cost = cost_matrix(mu, nu, P05).max()
        assert cert.tolerance == MARGINAL_TOL * max_cost
        assert 1e-9 < cert.max_feasibility_violation <= cert.tolerance
        monkeypatch.setattr(solver, "MARGINAL_TOL", 1e-6)
        assert certify(plan, pots, P05).tolerance == 1e-6 * max_cost

    def test_zero_potentials(self):
        rng = np.random.default_rng(2)
        mu, nu = random_instance(rng, 8, 8, 2)
        plan, _, _ = solve_exact(mu, nu, P05)
        cert = certify(plan, DualPotentials(np.zeros(8), np.zeros(8)), P05)
        assert cert.feasible_dual  # costs are nonnegative
        assert not cert.slack_ok  # generic instance has no zero-cost support

    def test_nan_potentials_fail_feasibility(self, monkeypatch):
        # as solve_with_meet writes for atoms without residual mass
        mu, nu = random_instance(np.random.default_rng(4), 9, 7, 2)
        plan, pots, _ = solve_exact(mu, nu, P05)
        pots.phi[4] = np.nan
        certs = [solver.certify(plan, pots, P05)]
        monkeypatch.setattr(_kernel, "_compiled_kernel", ReferenceKernel)
        certs.append(solver.certify(plan, pots, P05))
        for cert in certs:
            assert not cert.feasible_dual
            assert math.isnan(cert.max_feasibility_violation)
            assert cert.tolerance == certs[0].tolerance
        assert repr(certs[0]) == repr(certs[1])

    @pytest.mark.parametrize("seed", [*range(6), "signed_zeros", "nan_lanes", "pinned"])
    def test_kernel_maxima_match_numpy(self, seed):
        for phi, psi, C in _maxima_instances(seed):
            got = _compiled_kernel().certify_maxima(phi, psi, C)
            want = ReferenceKernel().certify_maxima(phi, psi, C)
            assert repr(got) == repr(want)
            if seed == "signed_zeros":
                assert repr(got) == "(0.0, 0.0)"

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        mu, nu = random_instance(rng, 5, 6, 2)
        plan, pots, _ = solve_exact(mu, nu, P05)
        with pytest.raises(ValueError):
            certify(plan, DualPotentials(np.zeros(4), pots.psi), P05)


class TestInvariances:
    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        mu, nu = random_instance(rng, 15, 12, 2)
        _, _, obj = solve_exact(mu, nu, P05)
        _, _, obj_scaled = solve_exact(mu, nu, ScaledCost(P05, 3.5))
        assert obj_scaled == pytest.approx(3.5 * obj, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        mu, nu = random_instance(rng, 14, 11, 3)
        _, _, ab = solve_exact(mu, nu, P05)
        _, _, ba = solve_exact(nu, mu, P05)
        assert ab == pytest.approx(ba, rel=1e-12)

    def test_stay_at_rest_on_grid(self):
        mu, nu = lebesgue_grid_pair(100)
        plan, _, _ = solve_exact(mu, nu, P05)
        diag = np.all(mu.points[plan.src_idx] == nu.points[plan.tgt_idx], axis=1)
        assert plan.mass[diag].sum() == pytest.approx(0.5, abs=1e-12)


class TestValidation:
    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            solve_exact(
                DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[0.0, 0.0]], [1.0]), P05
            )

    def test_unbalanced_mass(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0], [2.0]], [0.5, 0.4])
        with pytest.raises(ValueError, match="unbalanced"):
            solve_exact(mu, nu, P05)

    def test_empty_measure(self):
        with pytest.raises(ValueError):
            solve_exact(DiscreteMeasure.empty(2), uniform_box(3, 2, seed=0), P05)

    def test_size_guard_states_the_cap(self):
        mu = uniform_box(8000, 2, seed=0)
        nu = uniform_box(8000, 2, seed=1)
        with pytest.raises(SolverError, match="512,000,000 bytes") as err:
            solve_exact(mu, nu, P05)
        assert "5e7 entries (400 MB)" in str(err.value)
        assert "smaller or subsampled instance" in str(err.value)

    def test_one_dense_cap_before_allocating(self, monkeypatch):
        # solve_exact, certify and verify_ccm read the same m x n matrix,
        # and each refuses it over the cap before building it
        mu, nu = random_instance(np.random.default_rng(2), 6, 5, 2)
        plan, pots, _ = solve_exact(mu, nu, P05)

        def no_matrix(*args):
            raise AssertionError("the cost matrix was built")

        monkeypatch.setattr(solver, "MAX_DENSE_ENTRIES", 29)
        monkeypatch.setattr(solver, "cost_matrix", no_matrix)
        for run in (
            lambda: solve_exact(mu, nu, P05),
            lambda: solver.certify(plan, pots, P05),
            lambda: verify_ccm(plan, P05),
        ):
            with pytest.raises(SolverError, match=r"^the 6x5 cost matrix needs 240 bytes, over"
                               r" the dense cap of 3e1 entries \(0 MB\);"):
                run()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cost_rejected(self, bad):
        class BadAt3(PowerCost):
            """alpha = 0.5, but ``bad`` at distance 3."""

            def value(self, t):
                return np.where(np.asarray(t) == 3.0, bad, super().value(t))

        mu = DiscreteMeasure([[0.0], [1.0], [2.0]], [1 / 3] * 3)
        nu = DiscreteMeasure([[4.0], [5.0]], [0.5, 0.5])
        # distance 3 occurs at (1, 0) and (2, 1)
        with pytest.raises(SolverError, match=r"^non-finite cost matrix entries: 2 of 3x2,"
                           rf" the first at \(i, j\) = \(1, 0\): {bad}$"):
            solve_exact(mu, nu, BadAt3(0.5))

    def test_overflowing_distance_rejected(self):
        # finite coordinates whose distances overflow to inf (both do, as
        # the distance squares the 1e308 coordinate differences); no plan
        # can be priced on them, so the audits refuse them too
        mu = DiscreteMeasure([[-1e308, 0.0], [0.0, 0.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[1e308, 0.0]], [1.0])
        plan = TransportPlan(source=mu, target=nu, src_idx=[0, 1], tgt_idx=[0, 0],
                             mass=[0.5, 0.5])
        pots = DualPotentials(phi=np.zeros(2), psi=np.zeros(1))
        for run in (
            lambda: solve_exact(mu, nu, P05),
            lambda: solver.certify(plan, pots, P05),
            lambda: verify_ccm(plan, P05),
        ):
            with pytest.raises(SolverError, match=r"^non-finite cost matrix entries: 2 of 2x1,"
                               r" the first at \(i, j\) = \(0, 0\): inf$"):
                run()

    def test_overflowing_potentials_rejected(self):
        # every cost is finite, below 1.7e308, but the potentials, sums of
        # costs along tree paths, overflow: no certificate can be read
        # from them
        mu, nu, cost = overflowing_potentials_instance()
        assert np.isfinite(cost_matrix(mu, nu, cost)).all()
        with pytest.raises(SolverError, match=r"^the dual potentials overflow: \d+ of 13 are"
                           r" not finite; scale the costs down$"):
            solve_exact(mu, nu, cost)

    def test_default_pivot_budget_is_linear(self, monkeypatch):
        budgets = record_kernel_calls(monkeypatch, "pivot_loop", lambda _, budget: budget)
        mu, nu = random_instance(np.random.default_rng(7), 7, 9, 2)
        _network_simplex(mu.weights, nu.weights, cost_matrix(mu, nu, P05))
        assert budgets == [16_000]

    def test_pivot_budget_exhaustion(self):
        rng = np.random.default_rng(6)
        mu, nu = random_instance(rng, 10, 10, 2)
        with pytest.raises(SolverError, match="pivot budget"):
            solve_exact(mu, nu, P05, pivot_budget=1)

    def test_plan_validate_rejects_bad_marginals(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [1.0])
        plan = TransportPlan(source=mu, target=nu, src_idx=[0], tgt_idx=[0], mass=[0.5])
        with pytest.raises(ValueError, match="marginals"):
            plan.validate()

    def test_plan_rejects_negative_mass(self):
        # a NaN mass fails no comparison with 0, and would pass validate
        mu = DiscreteMeasure([[0.0]], [1.0])
        for mass in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="entry masses must be finite and >= 0"):
                TransportPlan(source=mu, target=mu, src_idx=[0], tgt_idx=[0], mass=[mass])


class TestExport:
    def test_plan_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        mu, nu = random_instance(rng, 12, 9, 2)
        plan, pots, obj = solve_exact(mu, nu, P05)
        csv_path, json_path = save_plan(plan, tmp_path / "plan", objective=obj, gap=0.0)
        back, header = load_plan(json_path)
        assert header["objective"] == obj
        assert back.source == mu and back.target == nu
        np.testing.assert_array_equal(back.src_idx, plan.src_idx)
        np.testing.assert_array_equal(back.mass, plan.mass)
        back.validate(basic=True)

    def test_potentials_csv(self, tmp_path):
        pots = DualPotentials(phi=np.array([0.0, 1.5]), psi=np.array([-0.25]))
        phi_path, psi_path = save_potentials(pots, tmp_path / "pot")
        lines = phi_path.read_text().strip().splitlines()
        assert lines[0] == "index,value" and lines[2].startswith("1,1.5")
        assert psi_path.read_text().strip().splitlines()[1] == "0,-0.25"

    def test_load_plan_rejects_other_files(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_plan(path)

    @pytest.mark.parametrize(
        "path", [("mu",), ("nu",), ("entries_csv",), ("nu", "points")],
        ids=["mu", "nu", "entries_csv", "nu.points"],
    )
    def test_load_plan_names_missing_key(self, tmp_path, path):
        mu, nu = random_instance(np.random.default_rng(3), 4, 3, 2)
        plan, _, _ = solve_exact(mu, nu, P05)
        _, json_path = save_plan(plan, tmp_path / "plan")
        header = json.loads(json_path.read_text())
        doc = header
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
        json_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match=f"missing key '{path[-1]}'") as info:
            load_plan(json_path)
        assert str(json_path) in str(info.value)

    @pytest.mark.parametrize("row, problem", [
        ("0.5,0,1.0", "i and j must be integers"),
        ("nan,0,1.0", "i and j must be integers"),
        ("0,0", "line 2: expected 3 columns, got 2"),
        ("0,0,heavy", "line 2: could not convert"),
    ])
    def test_load_plan_rejects_a_bad_entry_row(self, tmp_path, row, problem):
        mu = DiscreteMeasure([[0.0]], [1.0])
        plan = TransportPlan(source=mu, target=mu, src_idx=[0], tgt_idx=[0], mass=[1.0])
        csv_path, json_path = save_plan(plan, tmp_path / "plan")
        csv_path.write_text(f"i,j,mass\n{row}\n")
        with pytest.raises(ValueError, match=problem) as info:
            load_plan(json_path)
        assert str(csv_path) in str(info.value)

    @pytest.mark.parametrize("points, weights", [
        ([[0.0], [0.0], [1.0]], [0.25, 0.25, 0.5]),
        ([[0.0], [0.5], [1.0]], [0.5, 0.0, 0.5]),
    ], ids=["repeated", "zero_weight"])
    def test_load_plan_reads_atoms_as_listed(self, tmp_path, points, weights):
        # a repeated atom or one of zero weight would shift the atoms after
        # it, so that entry i = 1 named the atom listed third
        nu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        plan = TransportPlan(source=nu, target=nu, src_idx=[0, 1], tgt_idx=[1, 0],
                             mass=[0.5, 0.5])
        _, json_path = save_plan(plan, tmp_path / "plan")
        header = json.loads(json_path.read_text())
        header["mu"].update(points=points, weights=weights)
        json_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="mu: atoms must be listed once each"):
            load_plan(json_path)
        # -0.0 is listed where the measure stores 0.0, and reads back
        header["mu"].update(points=[[-0.0], [1.0]], weights=[0.5, 0.5])
        json_path.write_text(json.dumps(header))
        assert load_plan(json_path)[0].source == nu

    def test_load_plan_rejects_a_json_list(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="not a transport-plan header"):
            load_plan(path)
