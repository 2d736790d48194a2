import hashlib
import io
import json
import logging
import re

import numpy as np
import pytest

from concave_ot import measures, solver, structure
from concave_ot.cli import limit_plan_pair, main, run_isotropy, solve_with_meet
from concave_ot.costs import PowerCost, cost_matrix
from concave_ot.measures import DiscreteMeasure, load_measure, save_measure, uniform_box
from concave_ot.solver import TransportPlan, load_plan, save_plan
from concave_ot.structure import decompose
from support import overflowing_potentials_instance, overlapping_instance, random_instance

COST = '{"kind":"power","alpha":0.5}'
OVERLAP_WARNING = "warning: measures share atoms; reconstructing on the residuals\n"


@pytest.fixture
def measure_files(tmp_path):
    mu = uniform_box(30, 2, seed=0)
    nu = uniform_box(30, 2, seed=1)
    mu_path, nu_path = tmp_path / "mu.csv", tmp_path / "nu.csv"
    save_measure(mu, mu_path)
    save_measure(nu, nu_path)
    return mu_path, nu_path


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestSolveCommand:
    def test_pass_and_artifacts(self, tmp_path, measure_files):
        mu_path, nu_path = measure_files
        out = tmp_path / "out"
        rc = main(["solve", "--mu", str(mu_path), "--nu", str(nu_path),
                   "--cost", COST, "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["pass"] is True
        assert report["metrics"]["gap"] <= 1e-8
        for name in ("plan.csv", "plan.json", "potentials_phi.csv",
                     "potentials_psi.csv", "certificate.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "report.json" in manifest["files"]

    def test_identical_files_objective_zero(self, tmp_path, measure_files):
        mu_path, _ = measure_files
        out = tmp_path / "out"
        rc = main(["solve", "--mu", str(mu_path), "--nu", str(mu_path),
                   "--cost", COST, "--out", str(out)])
        assert rc == 0
        assert read_report(out)["metrics"]["objective"] == 0.0

    def test_single_atom_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(DiscreteMeasure([[0.0, 0.0]], [1.0]), a)
        save_measure(DiscreteMeasure([[3.0, 4.0]], [1.0]), b)
        out = tmp_path / "out"
        assert main(["solve", "--mu", str(a), "--nu", str(b), "--cost", COST,
                     "--out", str(out)]) == 0
        assert read_report(out)["metrics"]["objective"] == pytest.approx(5.0**0.5)

    def test_overflowing_costs_exit_3(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("-1e308,0.0,0.5\n0.0,0.0,0.5\n")
        b.write_text("1e308,0.0,1.0\n")
        assert main(["solve", "--mu", str(a), "--nu", str(b), "--cost", COST,
                     "--out", str(tmp_path / "out")]) == 3
        assert "non-finite cost matrix entries: 2 of 2x1" in capsys.readouterr().err

    def test_overflowing_potentials_exit_3(self, tmp_path, capsys):
        # finite costs whose dual potentials overflow: no certificate is
        # written, where a NaN gap, violation and slack would fail it
        mu, nu, cost = overflowing_potentials_instance()
        a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "out"
        save_measure(mu, a)
        save_measure(nu, b)
        assert main(["solve", "--mu", str(a), "--nu", str(b), "--cost",
                     json.dumps(cost.to_dict()), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("solver error: the dual potentials overflow: ")
        assert not out.exists()

    def test_parse_error_exit_2(self, tmp_path, measure_files):
        mu_path, _ = measure_files
        assert main(["solve", "--mu", str(mu_path), "--nu", "missing.csv",
                     "--cost", COST, "--out", str(tmp_path / "o")]) == 2
        assert main(["solve", "--mu", str(mu_path), "--nu", str(mu_path),
                     "--cost", '{"kind":"bogus"}', "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("spec, problem", [
        ('{"kind":"power"}', "missing 1 required positional argument: 'alpha'"),
        ('{"kind":"piecewise","breakpoints":[1]}', "argument: 'slopes'"),
        ('{"kind":"power","alpha":0.5,"beta":1}', "unexpected keyword argument 'beta'"),
        ('{"kind":"power","alpha":"0.5"}', "alpha must be a finite number"),
        ('{"kind":"logshift","a":"2"}', "a must be a finite number"),
        ('{"kind":"piecewise","breakpoints":["1"],"slopes":["2",1]}',
         "breakpoints must be a list of numbers"),
        # 1e999 parses as inf: an infinite or NaN breakpoint leaves the
        # linear cost 2t, which the paper excludes
        ('{"kind":"piecewise","breakpoints":[1e999],"slopes":[2,1]}',
         "breakpoints must be a list of numbers, each finite"),
        ('{"kind":"piecewise","breakpoints":[NaN],"slopes":[2,1]}',
         "breakpoints must be a list of numbers, each finite"),
        ('{"kind":"logshift","a":1e999}', "a must be a finite number"),
        ('{"kind":"logshift","a":true}', "a must be a finite number"),
    ], ids=["missing", "piecewise-missing", "unknown-key", "string-alpha", "string-a",
            "string-breakpoints", "inf-breakpoint", "nan-breakpoint", "inf-a", "bool-a"])
    def test_bad_cost_parameters_exit_2(self, tmp_path, capsys, measure_files, spec, problem):
        mu_path, nu_path = measure_files
        out = tmp_path / "o"
        assert main(["solve", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--cost", spec, "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_presolve_potentials_indexed_by_atom(self, tmp_path):
        # atoms 0 and 2 are shared with equal weight; only 1 and 3 move
        q = [0.25] * 4
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], q)
        nu = DiscreteMeasure([[0.0, 0.0], [1.0, 5.0], [2.0, 0.0], [3.0, 7.0]], q)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(mu, a)
        save_measure(nu, b)
        out = tmp_path / "out"
        assert main(["solve", "--mu", str(a), "--nu", str(b), "--cost", COST,
                     "--out", str(out)]) == 0
        assert read_report(out)["metrics"]["preprocessed_meet"] is True

        def values(name):
            rows = [line.split(",") for line in (out / name).read_text().splitlines()[1:]]
            assert [int(k) for k, _ in rows] == list(range(4))
            return np.array([float(v) for _, v in rows])

        phi, psi = values("potentials_phi.csv"), values("potentials_psi.csv")
        np.testing.assert_array_equal(np.isnan(phi), [True, False, True, False])
        np.testing.assert_array_equal(np.isnan(psi), [True, False, True, False])
        plan, _ = load_plan(out / "plan.json")
        C = cost_matrix(mu, nu, PowerCost(0.5))
        moved = (mu.points[plan.src_idx] != nu.points[plan.tgt_idx]).any(axis=1)
        i, j = plan.src_idx[moved], plan.tgt_idx[moved]
        assert sorted(i) == [1, 3]
        np.testing.assert_allclose(phi[i] + psi[j], C[i, j], rtol=0, atol=1e-12)
        # the presolved plan keeps the common mass at rest
        audit = tmp_path / "audit"
        assert main(["decompose", "--plan", str(out / "plan.json"), "--cost", COST,
                     "--out", str(audit)]) == 0
        metrics = read_report(audit)["metrics"]
        assert metrics["diag_matches_meet"] and metrics["off_marginals_singular"], metrics

    def test_saved_three_segments_instance(self, tmp_path):
        from concave_ot.measures import three_segments

        mu, nu = three_segments(4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(mu, a)
        save_measure(nu, b)
        out = tmp_path / "out"
        assert main(["solve", "--mu", str(a), "--nu", str(b), "--cost", COST,
                     "--out", str(out)]) == 0
        obj = read_report(out)["metrics"]["objective"]
        assert 1.0 <= obj <= 1.25**0.5

    def test_one_residual_empty_solves_diagonal(self, tmp_path):
        # mu exceeds nu by 1e-12 at one shared atom: load_measure accepts
        # both, and only mu has a (rounding-level) residual left
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(f"0.0,0.0,0.5\n1.0,0.0,{0.5 + 1e-12!r}\n")
        b.write_text("0.0,0.0,0.5\n1.0,0.0,0.5\n")
        for flags, presolved in (([], True), (["--no-meet"], False)):
            out = tmp_path / f"out{len(flags)}"
            assert main(["solve", "--mu", str(a), "--nu", str(b), "--cost", COST,
                         "--out", str(out), *flags]) == 0
            metrics = read_report(out)["metrics"]
            assert metrics["objective"] == 0.0
            assert metrics["preprocessed_meet"] is presolved

    def test_any_two_files_that_load_are_a_balanced_pair(self, tmp_path, capsys):
        # load_measure allows each file MASS_TOL from mass 1, half of what
        # _check_pair allows a pair, so a file 9e-10 heavy is refused as a
        # file, not as half of an unbalanced pair
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("0,0,0.5000000009\n1,0,0.5\n")
        b.write_text("0,2,0.4999999991\n1,3,0.5\n")
        out = tmp_path / "out"
        assert main(["solve", "--mu", str(a), "--nu", str(b), "--cost", COST,
                     "--out", str(out)]) == 2
        assert "weights must sum to 1, got 1.0000000009" in capsys.readouterr().err
        assert not out.exists()
        # the heaviest and the lightest one-atom files that load solve
        # together; the next double past either is refused
        tol = measures.MASS_TOL
        heavy, light = 1.0 + tol, 1.0 - tol
        heavy = heavy if heavy - 1.0 <= tol else np.nextafter(heavy, 0.0)
        light = light if 1.0 - light <= tol else np.nextafter(light, 2.0)
        for w_mu, w_nu, rc in ((heavy, light, 0), (light, heavy, 0),
                               (np.nextafter(heavy, 2.0), light, 2),
                               (heavy, np.nextafter(light, 0.0), 2)):
            a.write_text(f"0.0,0.0,{float(w_mu)!r}\n")
            b.write_text(f"0.0,2.0,{float(w_nu)!r}\n")
            assert main(["solve", "--mu", str(a), "--nu", str(b), "--cost", COST,
                         "--out", str(out)]) == rc
            assert ("weights must sum to 1" in capsys.readouterr().err) == (rc == 2)

    def test_certificate_records_tolerance(self, tmp_path):
        # costs around 1e8: the plan certifies within 1e-9 * max cost, not
        # within an absolute 1e-9, and certificate.json says so
        mu, nu = random_instance(np.random.default_rng(1), 100, 100, 2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(DiscreteMeasure(mu.points * 1e16, mu.weights), a)
        save_measure(DiscreteMeasure(nu.points * 1e16, nu.weights), b)
        out = tmp_path / "out"
        assert main(["solve", "--mu", str(a), "--nu", str(b), "--cost", COST,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "certificate.json").read_text())
        max_cost = cost_matrix(load_measure(a), load_measure(b), PowerCost(0.5)).max()
        assert doc["tolerance"] == 1e-9 * max_cost
        assert 1e-9 < doc["max_slack_residual"] <= doc["tolerance"]
        assert "tolerance" not in json.dumps(read_report(out))

    def test_presolve_is_the_library_one(self):
        from concave_ot import solver

        assert solve_with_meet is solver.solve_with_meet

    def test_no_meet_matches_no_atoms(self, monkeypatch):
        mu, nu = overlapping_instance(np.random.default_rng(5))
        calls, inner = [], measures.match_atoms

        def counting_match(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(measures, "match_atoms", counting_match)
        solve_with_meet(mu, nu, PowerCost(0.5), no_meet=True)
        assert len(calls) == 0
        solve_with_meet(mu, nu, PowerCost(0.5))
        assert len(calls) == 1

    def test_meet_preprocessing_matches_plain_lp(self, tmp_path):
        mu, nu = overlapping_instance(np.random.default_rng(5))
        plan1, _, obj1, cert1, pre = solve_with_meet(mu, nu, PowerCost(0.5), no_meet=False)
        plan2, _, obj2, cert2, _ = solve_with_meet(mu, nu, PowerCost(0.5), no_meet=True)
        assert pre is True
        # same transport cost either way (the diagonal is free)
        assert plan1.transport_cost(PowerCost(0.5)) == pytest.approx(
            plan2.transport_cost(PowerCost(0.5)), abs=1e-10
        )
        d1 = decompose(plan1).diagonal_mass
        d2 = decompose(plan2).diagonal_mass
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_identical_measures_certify_without_a_cost_matrix(self, tmp_path, monkeypatch):
        # with one file as both --mu and --nu every atom stays at rest and
        # the residual problem is empty: its certificate needs no m x n
        # cost matrix, which over the dense cap would end the solve
        def over_the_cap(mu, nu, cost):
            raise solver.SolverError(f"the {len(mu)}x{len(nu)} cost matrix is over the cap")

        monkeypatch.setattr(solver, "_dense_cost_matrix", over_the_cap)
        mu = uniform_box(300, 2, seed=1)
        plan, pots, obj, cert, pre = solve_with_meet(mu, mu, PowerCost(0.5))
        assert pre and obj == 0.0
        np.testing.assert_array_equal(plan.src_idx, plan.tgt_idx)
        assert cert == solver.Certificate(feasible_dual=True, slack_ok=True, gap=0.0,
                                          max_feasibility_violation=0.0,
                                          max_slack_residual=0.0, tolerance=1e-9)
        path, out = tmp_path / "mu.csv", tmp_path / "out"
        save_measure(mu, path)
        assert main(["solve", "--mu", str(path), "--nu", str(path), "--cost", COST,
                     "--out", str(out)]) == 0
        assert json.loads((out / "certificate.json").read_text())["tolerance"] == 1e-9


class TestDecomposeCommand:
    def test_plan_header_out_of_canonical_order_exit_2(self, tmp_path, capsys):
        # mu lists its atoms as (1.0), (0.0), and a measure stores them as
        # (0.0), (1.0): read through the measure, entry i = 0 would name
        # the atom at 0.0, and a plan that moves all its mass would audit
        # as all diagonal
        def measure(points):
            return {"dim": 1, "points": points, "weights": [0.5, 0.5]}

        header = {"format": "transport-plan", "entries_csv": "plan.csv",
                  "objective": None, "gap": None,
                  "mu": measure([[1.0], [0.0]]), "nu": measure([[0.0], [1.0]])}
        json_path = tmp_path / "plan.json"
        json_path.write_text(json.dumps(header))
        (tmp_path / "plan.csv").write_text("i,j,mass\n0,0,0.5\n1,1,0.5\n")
        out = tmp_path / "o"
        assert main(["decompose", "--plan", str(json_path), "--cost", COST,
                     "--out", str(out)]) == 2
        assert "mu: atoms must be listed once each" in capsys.readouterr().err
        assert not out.exists()

    # Two overlapping 30-atom boxes in d = 2, and two separated 12-atom
    # boxes in d = 9, where numpy's norm would round the distances
    # otherwise than the cost matrix: their plan of 12 entries is audited
    # by its 132 pair swaps and all 440 3-cycles.
    @pytest.mark.parametrize("n, dim, corner, cycles", [
        (30, 2, 0.0, None),
        (12, 9, 3.0, 132 + 440),
    ], ids=["box30-d2", "separated12-d9"])
    def test_optimal_plan_passes(self, tmp_path, n, dim, corner, cycles):
        mu_path, nu_path = tmp_path / "mu.csv", tmp_path / "nu.csv"
        save_measure(uniform_box(n, dim, seed=0), mu_path)
        save_measure(uniform_box(n, dim, corner_lo=[corner] * dim,
                                 corner_hi=[corner + 1.0] * dim, seed=1), nu_path)
        out1 = tmp_path / "solve"
        assert main(["solve", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--cost", COST, "--out", str(out1)]) == 0
        certificate = json.loads((out1 / "certificate.json").read_text())
        assert certificate["feasible_dual"] and certificate["slack_ok"], certificate
        out2 = tmp_path / "dec"
        rc = main(["decompose", "--plan", str(out1 / "plan.json"),
                   "--cost", COST, "--out", str(out2)])
        assert rc == 0
        report = read_report(out2)
        assert report["metrics"]["ccm_worst_violation"] <= 1e-9
        if cycles is not None:
            assert report["metrics"]["ccm_cycles_checked"] == cycles
        for name in ("decomposition.json", "stay_at_rest.json", "ccm.json", "map.json"):
            assert (out2 / name).exists()

    def test_adversarial_plan_fails_with_witness(self, tmp_path):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.3], [1.5]], [0.5, 0.5])
        crossed = TransportPlan(source=mu, target=nu, src_idx=[0, 1],
                                tgt_idx=[1, 0], mass=[0.5, 0.5])
        _, json_path = save_plan(crossed, tmp_path / "plan")
        out = tmp_path / "dec"
        rc = main(["decompose", "--plan", str(json_path), "--cost", COST,
                   "--out", str(out)])
        assert rc == 1
        ccm = json.loads((out / "ccm.json").read_text())
        assert ccm["violating_cycle"] is not None
        assert ccm["worst_violation"] > 0

    def test_diagonal_only_plan_passes(self, tmp_path):
        mu = uniform_box(12, 2, seed=3)
        diag = TransportPlan(source=mu, target=mu, src_idx=np.arange(12),
                             tgt_idx=np.arange(12), mass=mu.weights)
        _, json_path = save_plan(diag, tmp_path / "plan")
        out = tmp_path / "dec"
        assert main(["decompose", "--plan", str(json_path), "--cost", COST,
                     "--out", str(out)]) == 0
        report = read_report(out)
        assert report["metrics"]["off_diagonal_mass"] == 0.0
        assert report["metrics"]["diag_matches_meet"] is True

    def test_plan_over_dense_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        # verify_ccm reads the plan's m x n cost matrix, under solve's cap
        _, json_path = save_plan(limit_plan_pair(2), tmp_path / "plan")
        monkeypatch.setattr(solver, "MAX_DENSE_ENTRIES", 7)
        out = tmp_path / "dec"
        assert main(["decompose", "--plan", str(json_path), "--cost", COST,
                     "--out", str(out)]) == 3
        assert "over the dense cap of 7e0 entries" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_plan_exit_2(self, tmp_path):
        assert main(["decompose", "--plan", str(tmp_path / "nope.json"),
                     "--cost", COST, "--out", str(tmp_path / "o")]) == 2

    def test_plan_header_without_measure_exit_2(self, tmp_path, capsys):
        _, json_path = save_plan(limit_plan_pair(1), tmp_path / "plan")
        header = json.loads(json_path.read_text())
        del header["mu"]
        json_path.write_text(json.dumps(header))
        out = tmp_path / "o"
        assert main(["decompose", "--plan", str(json_path), "--cost", COST,
                     "--out", str(out)]) == 2
        assert "missing key 'mu'" in capsys.readouterr().err
        assert not out.exists()

    def test_plan_of_two_dimensions_exit_2(self, tmp_path, capsys):
        _, json_path = save_plan(limit_plan_pair(1), tmp_path / "plan")
        header = json.loads(json_path.read_text())
        header["nu"]["dim"] = 3
        header["nu"]["points"] = [p + [0.0] for p in header["nu"]["points"]]
        json_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="source and target dimensions differ: 2 vs 3"):
            load_plan(json_path)
        out = tmp_path / "o"
        assert main(["decompose", "--plan", str(json_path), "--cost", COST,
                     "--out", str(out)]) == 2
        assert "dimensions differ: 2 vs 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_exit_2(self, tmp_path, capsys, tol):
        # checked before the plan is read: the plan path does not exist
        out = tmp_path / "o"
        assert main(["decompose", "--plan", str(tmp_path / "nope.json"), "--cost", COST,
                     "--tol", tol, "--out", str(out)]) == 2
        assert "tol must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_mass_exit_2(self, tmp_path, capsys):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        plan = TransportPlan(source=mu, target=mu, src_idx=[0, 1], tgt_idx=[0, 1],
                             mass=[0.5, 0.5])
        csv_path, json_path = save_plan(plan, tmp_path / "plan")
        csv_path.write_text("i,j,mass\n0,0,nan\n1,1,0.5\n")
        out = tmp_path / "o"
        assert main(["decompose", "--plan", str(json_path), "--cost", COST,
                     "--out", str(out)]) == 2
        assert "entry masses must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()


def no_marginals(monkeypatch):
    """Makes building a marginal measure of a decomposition fail: the
    split fractions of counterexample and reconstruct read the entries
    of decompose's off-diagonal sub-plan and build no measure of it."""
    monkeypatch.setattr(structure, "_marginal", None)


class TestCounterexampleCommand:
    def test_envelope_and_monotonicity(self, tmp_path, monkeypatch):
        no_marginals(monkeypatch)
        out = tmp_path / "ce"
        rc = main(["counterexample", "--n", "1,2,4", "--alpha", "0.5",
                   "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        objs = report["metrics"]["objectives"]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert report["metrics"]["limit_plan_cost"] == 1.0
        csv_text = (out / "objective_vs_n.csv").read_text()
        assert csv_text.startswith("n,objective,lower,upper,split_fraction")

    def test_n_swept_in_increasing_order(self, tmp_path):
        # the objectives fall as n grows, whatever order --n lists it in
        out = tmp_path / "ce"
        assert main(["counterexample", "--n", "4,2", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["parameters"]["n"] == [2, 4]
        assert report["metrics"]["monotone"] is True
        rows = (out / "objective_vs_n.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "4"]

    def test_limit_plan_cost_exact_for_any_alpha(self):
        plan = limit_plan_pair(3)
        for alpha in (0.3, 0.5, 0.8):
            assert plan.transport_cost(PowerCost(alpha)) == pytest.approx(1.0, abs=1e-15)

    def test_serial_only_parameters(self, tmp_path):
        # the sweep runs in one process: there is no --jobs option and the
        # report records no worker count
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "--n", "1,2", "--jobs", "2", "--out", str(tmp_path / "p")])
        assert exc.value.code == 2
        out = tmp_path / "s"
        assert main(["counterexample", "--n", "1,2", "--out", str(out)]) == 0
        assert sorted(read_report(out)["parameters"]) == ["alpha", "n", "seed"]

    def test_bad_n_exit_2(self, tmp_path):
        assert main(["counterexample", "--n", "0", "--out", str(tmp_path / "o")]) == 2

    def test_empty_n_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["counterexample", "--n", ",", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: n must list at least one value\n"
        assert not out.exists()


class TestTranslationCommand:
    def test_small_instance(self, tmp_path):
        out = tmp_path / "tr"
        rc = main(["translation", "--n", "200", "--e", "1.0,0.0",
                   "--alpha", "0.5", "--out", str(out)])
        assert rc == 0
        m = read_report(out)["metrics"]
        assert m["concave_objective"] < 1.0
        assert m["quadratic_objective"] == pytest.approx(1.0, abs=1e-6)
        assert m["quadratic_translation_mass"] >= 0.999

    def test_zero_vector_exit_2(self, tmp_path):
        assert main(["translation", "--n", "50", "--e", "0,0",
                     "--out", str(tmp_path / "o")]) == 2


class TestIsotropyCommand:
    def test_uniform_generator_passes(self, tmp_path):
        out = tmp_path / "iso"
        rc = main(["isotropy", "--generator", "uniform_box:n=2000,dim=2",
                   "--point-sample", "300", "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "per_atom.csv",
                                                         "report.json"]

    # in d = 3 most apices are rescanned over the sorted atoms; the
    # benchmark's inputs are in d = 2
    @pytest.mark.parametrize("spec, sample", [
        ("hyperplane:n=2000,dim=2", "200"),
        ("hyperplane:n=2000,dim=3", "100"),
    ], ids=["d2", "d3"])
    def test_hyperplane_negative_control_passes(self, tmp_path, spec, sample):
        out = tmp_path / "isoh"
        rc = main(["isotropy", "--generator", spec,
                   "--point-sample", sample, "--out", str(out)])
        assert rc == 0
        assert read_report(out)["metrics"]["failing_mass_fraction"] >= 0.95

    # The metrics of report.json and the sha256 of per_atom.csv for the
    # cone_audit benchmark's inputs (seed 9, 500 sampled atoms).
    @pytest.mark.parametrize("spec, metrics, per_atom_sha", [
        ("uniform_box:n=5000,dim=2", {
            "deltas": [0.2, 0.5, 0.8],
            "epsilons": [0.06778029400690588, 0.20334088202071768, 0.6778029400690588],
            "failing_mass_fraction": 0.05999999999999996,
            "interior_failing_mass_fraction": 0.0,
            "n_directions": 16,
            "resolution": 0.006778029400690589,
            "worst_witness": {"apex": [0.00265928178722874, 0.8934720637438538],
                              "delta": 0.2,
                              "direction": [-0.7071067811865475, 0.7071067811865476],
                              "eps": 0.06778029400690588},
        }, "8da40f22862713258c955a0dde8d86aaaccd2fcb5fde02c575f18bcbb6f46599"),
        ("hyperplane:n=5000,dim=2", {
            "deltas": [0.2, 0.5, 0.8],
            "epsilons": [0.0006896815583412597, 0.002069044675023779, 0.006896815583412597],
            "failing_mass_fraction": 1.0,
            "interior_failing_mass_fraction": 0.0,
            "n_directions": 16,
            "resolution": 6.896815583412597e-05,
            "worst_witness": {"apex": [0.00265928178722874, 0.0], "delta": 0.2,
                              "direction": [1.0, 0.0], "eps": 0.0006896815583412597},
        }, "4c782efd3b4d1410dbfc0e463d695a069955012cfa0d8154c9f5e916c838ed81"),
    ], ids=["box", "hyperplane"])
    def test_benchmark_inputs_pinned(self, tmp_path, spec, metrics, per_atom_sha):
        run_isotropy(tmp_path, generator=spec, seed=9, point_sample=500)
        assert repr(read_report(tmp_path)["metrics"]) == repr(metrics)
        digest = hashlib.sha256((tmp_path / "per_atom.csv").read_bytes()).hexdigest()
        assert digest == per_atom_sha

    def test_single_atom_degenerate_fails(self, tmp_path):
        path = tmp_path / "one.csv"
        save_measure(DiscreteMeasure([[0.0, 0.0]], [1.0]), path)
        out = tmp_path / "iso1"
        rc = main(["isotropy", "--measure", str(path), "--point-sample", "7",
                   "--out", str(out)])
        assert rc == 1
        report = read_report(out)
        assert "degenerate" in report["metrics"]["reason"]
        # the same parameters as every other isotropy report
        assert report["parameters"] == {"measure": str(path), "seed": 0, "point_sample": 7}

    @pytest.mark.parametrize("sample", ["0", "-3"])
    def test_point_sample_below_one_exit_2(self, tmp_path, capsys, sample):
        one = tmp_path / "one.csv"
        save_measure(DiscreteMeasure([[0.0, 0.0]], [1.0]), one)
        out = tmp_path / "o"
        for source in (["--generator", "uniform_box:n=300,dim=2"], ["--measure", str(one)]):
            assert main(["isotropy", *source, "--point-sample", sample,
                         "--out", str(out)]) == 2
            assert f"point_sample must be at least 1, got {sample}" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_generator_exit_2(self, tmp_path):
        assert main(["isotropy", "--generator", "gauss:n=10",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("spec, problem", [
        ("uniform_box:n=50", "missing ['dim']; it takes n and dim"),
        ("uniform_box:n=50,dim=2,bogus=1", "unknown ['bogus']; it takes n and dim"),
        ("uniform_box:n=50,dim=0", "dim must be >= 1"),
        ("uniform_box:n=300,n=5,dim=2", "repeated ['n']"),
    ])
    def test_bad_generator_parameters_exit_2(self, tmp_path, capsys, spec, problem):
        assert main(["isotropy", "--generator", spec, "--out", str(tmp_path / "o")]) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestReconstructCommand:
    def test_separated_clouds(self, tmp_path, monkeypatch):
        no_marginals(monkeypatch)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(uniform_box(300, 2, corner_lo=(0, 0), corner_hi=(1, 1), seed=7), a)
        save_measure(uniform_box(300, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=8), b)
        out = tmp_path / "rec"
        rc = main(["reconstruct", "--mu", str(a), "--nu", str(b),
                   "--cost", COST, "--out", str(out)])
        assert rc == 0
        m = read_report(out)["metrics"]
        assert m["split_fraction"] == 0.0
        assert m["median_pred_error"] <= 3 * m["target_resolution"]
        assert (out / "reconstruction.csv").exists()

    def test_overlap_reduced_with_warning(self, tmp_path, capsys):
        mu, nu = overlapping_instance(np.random.default_rng(6), shared=5,
                                      extra_mu=40, extra_nu=40)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_measure(mu, a)
        save_measure(nu, b)
        out = tmp_path / "rec"
        rc = main(["reconstruct", "--mu", str(a), "--nu", str(b),
                   "--cost", COST, "--out", str(out)])
        assert rc in (0, 1)  # thresholds may fail on a rough instance
        assert read_report(out)["metrics"]["overlap_reduced"] is True
        assert "residuals" in capsys.readouterr().err

    @staticmethod
    def _reconstruct_overlapping(tmp_path):
        """Runs reconstruct on two measures that share atoms; returns the
        --mu and --nu files and the output directory."""
        mu, nu = overlapping_instance(np.random.default_rng(6), shared=5,
                                      extra_mu=40, extra_nu=40)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(mu, a)
        save_measure(nu, b)
        out = tmp_path / "rec"
        rc = main(["reconstruct", "--mu", str(a), "--nu", str(b),
                   "--cost", COST, "--out", str(out)])
        assert rc in (0, 1)
        return a, b, out

    def test_overlap_warning_once_under_configured_logging(self, tmp_path, capsys):
        root_log = io.StringIO()
        handler = logging.StreamHandler(root_log)
        logging.getLogger().addHandler(handler)
        try:
            self._reconstruct_overlapping(tmp_path)
        finally:
            logging.getLogger().removeHandler(handler)
        assert capsys.readouterr().err == OVERLAP_WARNING
        assert root_log.getvalue() == ""
        assert logging.getLogger("concave_ot").propagate

    def test_overlap_sources_index_the_input(self, tmp_path, capsys):
        a, b, out = self._reconstruct_overlapping(tmp_path)
        assert capsys.readouterr().err == OVERLAP_WARNING
        # the rows of a.csv whose weight exceeds the same point's weight in b.csv
        rows_a = np.loadtxt(a, delimiter=",", ndmin=2)
        weight_b = {tuple(r[:-1]): r[-1] for r in np.loadtxt(b, delimiter=",", ndmin=2).tolist()}
        moving = [k for k, r in enumerate(rows_a.tolist()) if r[-1] > weight_b.get(tuple(r[:-1]), 0.0)]
        assert len(moving) == len(rows_a) - 2  # atoms 0 and 29 stay at rest
        source = np.loadtxt(out / "reconstruction.csv", delimiter=",", skiprows=1, usecols=0)
        assert source.tolist() == moving

    @pytest.mark.parametrize("k", ["0", "2"])
    def test_k_below_d_plus_one_exit_2(self, tmp_path, capsys, measure_files, k):
        mu_path, nu_path = measure_files  # d = 2
        out = tmp_path / "o"
        assert main(["reconstruct", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--cost", COST, "--k", k, "--out", str(out)]) == 2
        assert f"needs k >= d + 1 = 3, got k = {k}" in capsys.readouterr().err
        assert not out.exists()

    # k against d + 1, and against the 30 source atoms, or the 28 left
    # when two of them are shared with nu and removed by the meet
    @pytest.mark.parametrize("k, shared, problem", [
        ("0", 0, "needs k >= d + 1 = 3, got k = 0"),
        ("30", 0, "needs at least 31 source atoms, got 30"),
        ("28", 2, "needs at least 29 source atoms, got 28"),
    ], ids=["below-d-plus-1", "all-atoms", "atoms-after-meet"])
    def test_k_checked_before_the_solve(self, tmp_path, monkeypatch, capsys, measure_files,
                                        k, shared, problem):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_exact ran before --k was checked")

        monkeypatch.setattr("concave_ot.cli.solve_exact", no_solve)
        mu_path, nu_path = measure_files
        mu, nu = load_measure(mu_path), load_measure(nu_path)
        save_measure(DiscreteMeasure(np.vstack([mu.points[:shared], nu.points[shared:]]),
                                     nu.weights), nu_path)
        out = tmp_path / "o"
        assert main(["reconstruct", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--cost", COST, "--k", k, "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_single_atom_exit_2(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(DiscreteMeasure([[0.0, 0.0]], [1.0]), a)
        save_measure(DiscreteMeasure([[5.0, 5.0]], [1.0]), b)
        out = tmp_path / "o"
        # a one-atom pair, and a pair that coincides
        for mu, nu in ((a, b), (a, a)):
            assert main(["reconstruct", "--mu", str(mu), "--nu", str(nu),
                         "--cost", COST, "--out", str(out)]) == 2
            assert not out.exists()

    def test_single_target_atom_exit_2(self, tmp_path, monkeypatch, capsys):
        # one target atom has no resolution scale: with tol = inf every
        # entry was a kink event and any error passed against 3 * inf
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_exact ran before the target was checked")

        monkeypatch.setattr("concave_ot.cli.solve_exact", no_solve)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(uniform_box(20, 2, seed=1), a)
        save_measure(DiscreteMeasure([[3.0, 3.0]], [1.0]), b)
        cost = '{"kind":"piecewise","breakpoints":[1.0],"slopes":[2.0,0.5]}'
        out = tmp_path / "o"
        assert main(["reconstruct", "--mu", str(a), "--nu", str(b),
                     "--cost", cost, "--out", str(out)]) == 2
        assert "needs at least 2 target atoms, got 1" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def strip_timestamp(self, text):
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)

    def test_reports_byte_identical_modulo_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["counterexample", "--n", "1,2,4", "--seed", "3", "--out", str(out1)])
        main(["counterexample", "--n", "1,2,4", "--seed", "3", "--out", str(out2)])
        t1 = self.strip_timestamp((out1 / "report.json").read_text())
        t2 = self.strip_timestamp((out2 / "report.json").read_text())
        assert t1 == t2
        assert (out1 / "objective_vs_n.csv").read_bytes() == (
            out2 / "objective_vs_n.csv"
        ).read_bytes()


class TestSnapFlag:
    def test_snap_bridges_rounding_gap(self, tmp_path):
        mu = DiscreteMeasure([[0.0, 0.0], [2.0, 0.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[1e-13, 0.0], [3.0, 0.0]], [0.5, 0.5])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        from concave_ot.measures import save_measure as sm
        sm(mu, a)
        sm(nu, b)
        out1, out2 = tmp_path / "plain", tmp_path / "snapped"
        main(["solve", "--mu", str(a), "--nu", str(b), "--cost", COST,
              "--out", str(out1)])
        main(["solve", "--mu", str(a), "--nu", str(b), "--cost", COST,
              "--snap-tol", "1e-9", "--out", str(out2)])
        m1 = read_report(out1)["metrics"]
        m2 = read_report(out2)["metrics"]
        assert m1["preprocessed_meet"] is False   # no exact overlap
        assert m2["preprocessed_meet"] is True    # snapping created one
        assert m2["objective"] < m1["objective"]

    def test_nan_snap_tol_exit_2(self, tmp_path, capsys, measure_files):
        mu_path, nu_path = measure_files
        out = tmp_path / "o"
        assert main(["solve", "--mu", str(mu_path), "--nu", str(nu_path), "--cost", COST,
                     "--snap-tol", "nan", "--out", str(out)]) == 2
        assert "tol must be positive, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol, problem", [
        ("inf", "tol must be finite, got inf"),
        ("0", "tol must be positive, got 0.0"),
    ], ids=["inf", "zero"])
    def test_infinite_or_zero_snap_tol_exit_2(self, tmp_path, capsys, measure_files,
                                              tol, problem):
        mu_path, nu_path = measure_files
        out = tmp_path / "o"
        assert main(["solve", "--mu", str(mu_path), "--nu", str(nu_path), "--cost", COST,
                     "--snap-tol", tol, "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()


def key_paths(doc, prefix=""):
    """Dotted path of every key in a JSON document; list items share ``[]``."""
    paths = set()
    if isinstance(doc, dict):
        for k, v in doc.items():
            paths |= {prefix + k} | key_paths(v, f"{prefix}{k}.")
    elif isinstance(doc, list):
        for v in doc:
            paths |= key_paths(v, f"{prefix}[].")
    return paths


def measure_keys(name):
    return {name, f"{name}.dim", f"{name}.points", f"{name}.weights"}


class TestArtifactFormats:
    def test_keys_of_every_artifact(self, tmp_path, measure_files):
        mu_path, nu_path = measure_files
        solve_out, split_out, iso_out = tmp_path / "s", tmp_path / "d", tmp_path / "i"
        assert main(["solve", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--cost", COST, "--out", str(solve_out)]) == 0
        # half of every source atom goes to each of two targets: map.json has splits
        _, plan_path = save_plan(limit_plan_pair(2), tmp_path / "split")
        assert main(["decompose", "--plan", str(plan_path), "--cost", COST,
                     "--out", str(split_out)]) == 0
        # a flat sample fails its normal cones: report.json has a witness
        assert main(["isotropy", "--generator", "hyperplane:n=300,dim=2",
                     "--point-sample", "20", "--out", str(iso_out)]) == 0

        def keys(path):
            return key_paths(json.loads(path.read_text()))

        assert keys(solve_out / "report.json") == {
            "experiment", "parameters", "metrics", "artifacts", "pass", "timestamp",
        } | {f"parameters.{k}" for k in ("mu", "nu", "cost", "no_meet", "snap_tol", "seed")} | {
            "parameters.cost.kind", "parameters.cost.alpha",
        } | {f"metrics.{k}" for k in ("objective", "gap", "dual_feasibility_violation",
                                      "slack_residual", "n_entries", "preprocessed_meet")}
        assert keys(solve_out / "certificate.json") == {
            "feasible_dual", "slack_ok", "gap", "max_feasibility_violation",
            "max_slack_residual", "tolerance", "preprocessed_meet",
        }
        for plan_json in (solve_out / "plan.json", plan_path):
            assert keys(plan_json) == {
                "format", "entries_csv", "objective", "gap",
            } | measure_keys("mu") | measure_keys("nu")
        assert keys(split_out / "decomposition.json") == {
            "diagonal_mass", "off_diagonal_mass",
        } | measure_keys("diag_source_marginal") | measure_keys(
            "off_source_marginal") | measure_keys("off_target_marginal")
        assert keys(split_out / "stay_at_rest.json") == {
            "diag_matches_meet", "off_marginals_singular", "diag_mass", "meet_mass",
            "max_diag_deviation", "max_shared_off_mass",
        }
        assert keys(split_out / "ccm.json") == {
            "cycles_checked", "worst_violation", "violating_cycle",
        }
        split_map = json.loads((split_out / "map.json").read_text())
        assert len(split_map["splits"]) == 4
        assert key_paths(split_map) == {
            "assigned_sources", "assigned_targets", "split_fraction", "splits",
            "splits.[].source", "splits.[].targets", "splits.[].masses",
        }
        iso = json.loads((iso_out / "report.json").read_text())
        assert iso["metrics"]["worst_witness"] is not None
        assert iso["artifacts"] == ["per_atom.csv"]
        assert key_paths(iso["metrics"]) == {
            "failing_mass_fraction", "interior_failing_mass_fraction", "resolution", "deltas",
            "epsilons", "n_directions", "worst_witness", "worst_witness.apex",
            "worst_witness.direction", "worst_witness.delta", "worst_witness.eps",
        }

    def test_tables_of_every_artifact(self, tmp_path, measure_files):
        mu_path, nu_path = measure_files
        outs = {name: tmp_path / name for name in ("s", "c", "i", "r")}
        assert main(["solve", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--cost", COST, "--out", str(outs["s"])]) == 0
        assert main(["counterexample", "--n", "1,2", "--out", str(outs["c"])]) == 0
        assert main(["isotropy", "--generator", "hyperplane:n=300,dim=2",
                     "--point-sample", "20", "--out", str(outs["i"])]) == 0
        assert main(["reconstruct", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--cost", COST, "--out", str(outs["r"])]) in (0, 1)
        headers = {
            outs["s"] / "plan.csv": "i,j,mass",
            outs["s"] / "potentials_phi.csv": "index,value",
            outs["s"] / "potentials_psi.csv": "index,value",
            outs["c"] / "objective_vs_n.csv": "n,objective,lower,upper,split_fraction",
            outs["i"] / "per_atom.csv": "atom,weight,fail_count,distance_to_boundary",
            outs["r"] / "reconstruction.csv": "source,pred_error,direction_cosine,fit_residual",
        }
        for path, header in headers.items():
            text = path.read_bytes().decode()
            assert text.split("\n", 1)[0] == header, path.name
            assert "\r" not in text and text.endswith("\n"), path.name
        assert b"\r" not in mu_path.read_bytes()
        mu, nu = load_measure(mu_path), load_measure(nu_path)
        plan, _, _, _, _ = solve_with_meet(mu, nu, PowerCost(0.5))
        back, _ = load_plan(outs["s"] / "plan.json")
        np.testing.assert_array_equal(back.src_idx, plan.src_idx)
        np.testing.assert_array_equal(back.tgt_idx, plan.tgt_idx)
        assert back.mass.tobytes() == plan.mass.tobytes()
        # a plan.csv with \r\n line ends, as older versions wrote, still loads
        csv_path = outs["s"] / "plan.csv"
        csv_path.write_bytes(csv_path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_plan(outs["s"] / "plan.json")[0].mass.tobytes() == plan.mass.tobytes()

    def test_measure_of_a_plan_header_is_a_measure_file(self, tmp_path, measure_files):
        mu_path, nu_path = measure_files
        solve_out, again = tmp_path / "s", tmp_path / "again"
        assert main(["solve", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--cost", COST, "--out", str(solve_out)]) == 0
        cut = tmp_path / "mu.json"
        cut.write_text(json.dumps(json.loads((solve_out / "plan.json").read_text())["mu"]))
        assert load_measure(cut) == load_measure(mu_path)
        assert main(["solve", "--mu", str(cut), "--nu", str(nu_path),
                     "--cost", COST, "--out", str(again)]) == 0
        assert read_report(again)["metrics"]["objective"] == read_report(solve_out)["metrics"][
            "objective"]
