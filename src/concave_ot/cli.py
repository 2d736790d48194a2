"""Experiment runner and command-line interface.

Subcommands
-----------
solve           solve one instance from measure files, certify, export
decompose       split a saved plan and audit its structure
counterexample  three-parallel-segments sweep: objectives vs the analytic envelope
translation     concave vs quadratic cost on a translated cloud
isotropy        cone-positivity audit of a measure
reconstruct     solve, then rebuild the map from the dual potential

Every command writes ``report.json`` plus artifacts and a
``manifest.json`` under ``--out``.  Reports are deterministic for a
fixed seed up to their timestamp field.  Exit codes: 0 pass, 1
threshold fail, 2 input error, 3 solver failure.

Unless ``--no-meet`` is given, ``solve`` runs the library presolve
:func:`concave_ot.solver.solve_with_meet`: it subtracts the common mass
of the two measures before solving and re-adds it as diagonal entries
afterwards; with ``--no-meet`` the LP is left to find the same diagonal
structure on its own.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .costs import PowerCost, cost_from_json
from .geometry import _check_point_sample, isotropy_audit, resolution_scale
from .measures import (
    DiscreteMeasure,
    MeasureFormatError,
    _jsonable,
    _write_table,
    hyperplane_sample,
    load_measure,
    match_atoms,
    meet,
    snap,
    three_segments,
    translate,
    uniform_box,
)
from .solver import (
    SolverError,
    TransportPlan,
    load_plan,
    save_plan,
    save_potentials,
    solve_exact,
    solve_with_meet,
)
from .structure import (
    _TRANSLATION_TOL,
    _check_k_neighbors,
    decompose,
    detect_kink_events,
    extract_map,
    reconstruct_map_from_potential,
    translation_mass,
    verify_ccm,
    verify_stay_at_rest,
)

__all__ = [
    "ExperimentReport",
    "QuadraticCost",
    "run_solve",
    "run_decompose",
    "run_counterexample",
    "run_translation",
    "run_isotropy",
    "run_reconstruct",
    "limit_plan_pair",
    "main",
]

GAP_PASS = 1e-8

_log = logging.getLogger("concave_ot")


class QuadraticCost:
    """Squared-distance contrast cost for the translation experiment.

    Not a concave cost: under it equal displacements are optimal, which
    is exactly the behavior the concave solver must *not* show.
    """

    kind = "quadratic"

    def value(self, t):
        return np.asarray(t, dtype=float) ** 2

    def to_dict(self):
        return {"kind": "quadratic"}


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    metrics: dict
    artifacts: list = field(default_factory=list)
    passed: bool = False

    def to_dict(self):
        doc = _jsonable(self)
        doc["pass"] = doc.pop("passed")
        return doc


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _finish(report, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = report.to_dict()
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _write_json(out / "report.json", doc)
    report.artifacts.append("report.json")
    files = sorted(set(report.artifacts) | {"manifest.json"})
    _write_json(out / "manifest.json", {"experiment": report.experiment, "files": files})
    return report


def run_solve(mu_path, nu_path, cost_spec, out_dir, no_meet=False, snap_tol=None, seed=0):
    """Solve one instance from files; writes plan, potentials, certificate."""
    mu = load_measure(mu_path)
    nu = load_measure(nu_path)
    cost = cost_from_json(cost_spec)
    if snap_tol is not None:
        nu = snap(mu, nu, snap_tol)
    params = {
        "mu": str(mu_path),
        "nu": str(nu_path),
        "cost": cost.to_dict(),
        "no_meet": bool(no_meet),
        "snap_tol": snap_tol,
        "seed": seed,
    }
    plan, pots, obj, cert, preprocessed = solve_with_meet(mu, nu, cost, no_meet)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = save_plan(plan, out / "plan", objective=obj, gap=cert.gap)
    phi_path, psi_path = save_potentials(pots, out / "potentials")
    _write_json(out / "certificate.json", {**_jsonable(cert), "preprocessed_meet": preprocessed})
    metrics = {
        "objective": obj,
        "gap": cert.gap,
        "dual_feasibility_violation": cert.max_feasibility_violation,
        "slack_residual": cert.max_slack_residual,
        "n_entries": plan.n_entries,
        "preprocessed_meet": preprocessed,
    }
    passed = cert.ok and abs(cert.gap) <= GAP_PASS * (1.0 + abs(obj))
    artifacts = [csv_path.name, json_path.name, phi_path.name, psi_path.name, "certificate.json"]
    report = ExperimentReport(
        experiment="solve",
        parameters=params,
        metrics=metrics,
        artifacts=artifacts,
        passed=passed,
    )
    return _finish(report, out)


def run_decompose(plan_path, cost_spec, out_dir, tol=1e-9, seed=0):
    """Audit a saved plan: decomposition, stay-at-rest, cyclical monotonicity."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    cost = cost_from_json(cost_spec)
    plan, header = load_plan(plan_path)
    plan.validate()
    dec = decompose(plan)
    rest = verify_stay_at_rest(plan.source, plan.target, plan, tol=tol)
    ccm = verify_ccm(plan, cost, max_cycle_len=3, tol=tol, seed=seed)
    extract = extract_map(dec, mass_tol=tol)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "decomposition.json",
        {
            "diagonal_mass": dec.diagonal_mass,
            "off_diagonal_mass": dec.off_diagonal_mass,
            "diag_source_marginal": dec.diag_source_marginal,
            "off_source_marginal": dec.off_source_marginal,
            "off_target_marginal": dec.off_target_marginal,
        },
    )
    _write_json(out / "stay_at_rest.json", rest)
    _write_json(out / "ccm.json", ccm)
    _write_json(out / "map.json", extract)
    passed = rest.ok and ccm.ok
    report = ExperimentReport(
        experiment="decompose",
        parameters={"plan": str(plan_path), "cost": cost.to_dict(), "tol": tol, "seed": seed},
        metrics={
            "diagonal_mass": dec.diagonal_mass,
            "off_diagonal_mass": dec.off_diagonal_mass,
            "diag_matches_meet": rest.diag_matches_meet,
            "off_marginals_singular": rest.off_marginals_singular,
            "ccm_worst_violation": ccm.worst_violation,
            "ccm_cycles_checked": ccm.cycles_checked,
            "split_fraction": extract.split_fraction,
        },
        artifacts=["decomposition.json", "stay_at_rest.json", "ccm.json", "map.json"],
        passed=passed,
    )
    return _finish(report, out)


def limit_plan_pair(n):
    """Matched-grid limit coupling for the three-segments instance.

    Splits every source atom half-and-half between its two horizontal
    translates, so each displacement has length exactly 1 and the cost
    equals the unit-displacement cost for any cost function.
    """
    mu, _ = three_segments(n)
    half = mu.weights / 2.0
    # translating by (+-1, 0) keeps the order of these atoms, so atom k
    # of each image is the image of atom k of mu
    images = [translate(mu, e) for e in ([1.0, 0.0], [-1.0, 0.0])]
    nu = DiscreteMeasure(np.vstack([im.points for im in images]), np.tile(half, 2), dim=2)
    tgt = np.column_stack([match_atoms(im, nu)[1] for im in images]).ravel()
    plan = TransportPlan(source=mu, target=nu, src_idx=np.repeat(np.arange(len(mu)), 2),
                         tgt_idx=tgt, mass=np.repeat(half, 2))
    return plan.validate()


def run_counterexample(n_values, alpha, out_dir, seed=0):
    """Objective sweep on the three-segments instance vs its envelope.

    The n values are swept in increasing order, whatever order they are
    given in.  For each n the LP objective must lie in [f(1), f(1 + 1/n)]
    and the sequence must be non-increasing; the analytic half/half limit
    plan costs exactly f(1).
    """
    n_values = sorted(int(n) for n in n_values)
    if not n_values or min(n_values) < 1:
        raise ValueError("all n must be >= 1" if n_values else "n must list at least one value")
    cost = PowerCost(alpha)
    objs, splits = [], []
    for n in n_values:
        plan, _, obj = solve_exact(*three_segments(n), cost)
        objs.append(obj)
        splits.append(extract_map(decompose(plan)).split_fraction)
    f1 = float(cost.value(1.0))
    lim_cost = float(limit_plan_pair(max(n_values)).transport_cost(cost))
    uppers = [float(cost.value(1.0 + 1.0 / n)) for n in n_values]
    ok_env = all(f1 - 1e-12 <= obj <= upper + 1e-12 for obj, upper in zip(objs, uppers))
    monotone = all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(
        out / "objective_vs_n.csv",
        ("n", "objective", "lower", "upper", "split_fraction"),
        [n_values, objs, [f1] * len(n_values), uppers, splits],
    )
    passed = ok_env and monotone and abs(lim_cost - f1) <= 1e-12
    report = ExperimentReport(
        experiment="counterexample",
        parameters={"n": n_values, "alpha": alpha, "seed": seed},
        metrics={
            "objectives": objs,
            "lower": f1,
            "limit_plan_cost": lim_cost,
            "envelope_ok": ok_env,
            "monotone": monotone,
        },
        artifacts=["objective_vs_n.csv"],
        passed=passed,
    )
    return _finish(report, out)


def run_translation(n, e, alpha, out_dir, seed=0):
    """Concave vs quadratic transport of a cloud onto its translate.

    The quadratic control reproduces the translation (objective |e|^2,
    translation mass 1); the concave cost must beat the translation
    strictly and spread displacements away from e.
    """
    e = np.asarray(e, dtype=float)
    if np.linalg.norm(e) == 0.0:
        raise ValueError("translation vector e must be nonzero")
    cost = PowerCost(alpha)
    mu = uniform_box(int(n), len(e), seed=seed)
    nu = translate(mu, e)
    plan_c, pots_c, obj_c = solve_exact(mu, nu, cost)
    mass_c = translation_mass(plan_c, e)
    quad = QuadraticCost()
    plan_q, _, obj_q = solve_exact(mu, nu, quad)
    mass_q = translation_mass(plan_q, e)
    enorm = float(np.linalg.norm(e))
    f_e = float(cost.value(enorm))
    passed = (
        obj_c < f_e
        and mass_q >= 0.999
        and abs(obj_q - enorm**2) <= 1e-6 * max(1.0, enorm**2)
    )
    report = ExperimentReport(
        experiment="translation",
        parameters={
            "n": int(n),
            "e": e.tolist(),
            "alpha": alpha,
            "seed": seed,
            "tol": _TRANSLATION_TOL,
        },
        metrics={
            "concave_objective": obj_c,
            "translation_cost": f_e,
            "concave_margin": f_e - obj_c,
            "concave_translation_mass": mass_c,
            "quadratic_objective": obj_q,
            "quadratic_translation_mass": mass_q,
        },
        passed=passed,
    )
    return _finish(report, out_dir)


_GENERATORS = {"uniform_box": uniform_box, "hyperplane": hyperplane_sample}


def _parse_generator(spec):
    """``name:n=N,dim=D[,seed=S]`` -> (name, kwargs) with integer values;
    a key given twice is an error."""
    name, _, rest = spec.partition(":")
    if name not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r}; choose from {sorted(_GENERATORS)}")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if not val:
                raise ValueError(f"bad generator parameter {item!r}")
            if key in kwargs:
                raise ValueError(f"generator {name!r}: repeated [{key!r}]")
            kwargs[key] = int(val)
    unknown = sorted(kwargs.keys() - {"n", "dim", "seed"})
    missing = [key for key in ("n", "dim") if key not in kwargs]
    if unknown or missing:
        problem = f"unknown {unknown}" if unknown else f"missing {missing}"
        raise ValueError(
            f"generator {name!r}: {problem}; it takes n and dim (required) and seed"
        )
    return name, kwargs


def run_isotropy(out_dir, measure_path=None, generator=None, seed=0, point_sample=500):
    """Cone-positivity audit on the fixed direction/opening/radius grid.

    ``report.json`` holds the audit's summary, grid and first missed cone
    (``worst_witness``, or null); ``per_atom.csv`` holds one row per
    sampled atom, which failed if its ``fail_count`` is above zero.
    """
    if (measure_path is None) == (generator is None):
        raise ValueError("need exactly one of measure_path or generator")
    _check_point_sample(point_sample)
    gen_name = None
    if generator is not None:
        gen_name, kwargs = _parse_generator(generator)
        kwargs.setdefault("seed", seed)
        measure = _GENERATORS[gen_name](**kwargs)
        source = generator
    else:
        measure = load_measure(measure_path)
        source = str(measure_path)
    params = {"measure": source, "seed": seed, "point_sample": point_sample}
    if len(measure) < 2:
        report = ExperimentReport(
            experiment="isotropy",
            parameters=params,
            metrics={"reason": "degenerate measure: fewer than 2 atoms"},
            passed=False,
        )
        return _finish(report, out_dir)
    audit = isotropy_audit(measure, point_sample=point_sample, seed=seed)
    worst = audit.worst_witness
    interior = audit.distance_to_boundary >= min(audit.epsilons)
    w = measure.weights[audit.sampled_atoms]
    interior_mass = float(w[interior].sum())
    interior_failing = (
        float(w[audit.atom_failed & interior].sum() / interior_mass)
        if interior_mass > 0
        else 0.0
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(
        out / "per_atom.csv",
        ("atom", "weight", "fail_count", "distance_to_boundary"),
        [audit.sampled_atoms, w, audit.fail_counts, audit.distance_to_boundary],
    )
    if gen_name == "hyperplane":
        passed = audit.failing_mass_fraction >= 0.95
    else:
        passed = interior_failing <= 0.05
    report = ExperimentReport(
        experiment="isotropy",
        parameters=params,
        metrics={
            "failing_mass_fraction": audit.failing_mass_fraction,
            "interior_failing_mass_fraction": interior_failing,
            "resolution": audit.resolution,
            "deltas": audit.deltas,
            "epsilons": audit.epsilons,
            "n_directions": audit.n_directions,
            "worst_witness": worst and dict(zip(("apex", "direction", "delta", "eps"), worst)),
        },
        artifacts=["per_atom.csv"],
        passed=passed,
    )
    return _finish(report, out)


def run_reconstruct(mu_path, nu_path, cost_spec, out_dir, k_neighbors=8, seed=0):
    """Solve, then rebuild targets from the potential and compare to the LP.

    Overlapping inputs are reduced to the mutually singular residuals of
    their :func:`~concave_ot.measures.meet` first (with a warning),
    mirroring the diagonal/off-diagonal split of optimal plans; the
    ``source`` column of ``reconstruction.csv`` still indexes the atoms
    of ``--mu``.  ``k_neighbors`` below d + 1, or not below the number
    of source atoms left after that reduction, is an input error, as is a
    target of fewer than 2 atoms left, which has no resolution scale to
    judge the errors and kinks by.
    """
    mu = load_measure(mu_path)
    nu = load_measure(nu_path)
    cost = cost_from_json(cost_spec)
    split = meet(mu, nu)
    rows = np.arange(len(mu))
    warned_overlap = len(split.mu_idx) > 0
    if warned_overlap:
        _log.warning("measures share atoms; reconstructing on the residuals")
        if not split.mu_rest.any() or not split.nu_rest.any():
            raise ValueError("measures coincide; nothing to reconstruct")
        rows, mu, nu = np.flatnonzero(split.mu_rest), split.mu_residual, split.nu_residual
    _check_k_neighbors(k_neighbors, mu.dim, len(mu))  # before the solve, not after it
    if len(nu) < 2:
        raise ValueError(f"reconstruct needs at least 2 target atoms, got {len(nu)}")
    plan, pots, obj = solve_exact(mu, nu, cost)
    recon = reconstruct_map_from_potential(
        pots, mu, nu, cost, k_neighbors=k_neighbors, plan=plan
    )
    split = extract_map(decompose(plan)).split_fraction
    res_nu = resolution_scale(nu)
    kinks = detect_kink_events(plan, cost, tol=res_nu)
    err = recon.pred_error[~np.isnan(recon.pred_error)]
    median_err = float(np.median(err)) if err.size else float("nan")
    p90_err = float(np.percentile(err, 90)) if err.size else float("nan")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(
        out / "reconstruction.csv",
        ("source", "pred_error", "direction_cosine", "fit_residual"),
        [rows, recon.pred_error, recon.direction_cosine, recon.fit_residual],
    )
    passed = err.size > 0 and median_err <= 3.0 * res_nu and split <= 1e-9
    report = ExperimentReport(
        experiment="reconstruct",
        parameters={
            "mu": str(mu_path),
            "nu": str(nu_path),
            "cost": cost.to_dict(),
            "k": int(k_neighbors),
            "seed": seed,
        },
        metrics={
            "objective": obj,
            "median_pred_error": median_err,
            "p90_pred_error": p90_err,
            "target_resolution": res_nu,
            "split_fraction": split,
            "kink_event_count": kinks.count,
            "kink_event_mass": kinks.mass,
            "gap_events": recon.gap_count,
            "out_of_range": int(recon.out_of_range.sum()),
            "overlap_reduced": warned_overlap,
        },
        artifacts=["reconstruction.csv"],
        passed=passed,
    )
    return _finish(report, out)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="concave-ot",
        description="Discrete optimal transport with strictly concave costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="solve one instance from measure files")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--cost", required=True, help='cost JSON, e.g. {"kind":"power","alpha":0.5}')
    p.add_argument("--no-meet", action="store_true")
    p.add_argument("--snap-tol", type=float, default=None,
                   help="merge nu-atoms onto mu-atoms closer than this before solving")
    common(p)
    p.set_defaults(run=lambda a: run_solve(
        a.mu, a.nu, a.cost, a.out, no_meet=a.no_meet, snap_tol=a.snap_tol, seed=a.seed))

    p = sub.add_parser("decompose", help="audit a saved plan")
    p.add_argument("--plan", required=True, help="plan .json header path")
    p.add_argument("--cost", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(run=lambda a: run_decompose(a.plan, a.cost, a.out, tol=a.tol, seed=a.seed))

    p = sub.add_parser("counterexample", help="three-segments sweep")
    p.add_argument("--n", required=True, help="comma list, e.g. 1,2,4,8")
    p.add_argument("--alpha", type=float, default=0.5)
    common(p)
    p.set_defaults(run=lambda a: run_counterexample(
        [int(v) for v in a.n.split(",") if v.strip()], a.alpha, a.out, seed=a.seed))

    p = sub.add_parser("translation", help="translation non-optimality experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", required=True, help="comma vector, e.g. 1.0,0.0")
    p.add_argument("--alpha", type=float, default=0.5)
    common(p)
    p.set_defaults(run=lambda a: run_translation(
        a.n, [float(v) for v in a.e.split(",") if v.strip()], a.alpha, a.out, seed=a.seed))

    p = sub.add_parser("isotropy", help="cone-positivity audit")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--measure")
    group.add_argument(
        "--generator",
        help="uniform_box or hyperplane with n, dim and optional seed,"
        " e.g. uniform_box:n=5000,dim=2",
    )
    p.add_argument("--point-sample", type=int, default=500)
    common(p)
    p.set_defaults(run=lambda a: run_isotropy(
        a.out, measure_path=a.measure, generator=a.generator, seed=a.seed,
        point_sample=a.point_sample))

    p = sub.add_parser("reconstruct", help="map reconstruction from potentials")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--k", type=int, default=8)
    common(p)
    p.set_defaults(run=lambda a: run_reconstruct(
        a.mu, a.nu, a.cost, a.out, k_neighbors=a.k, seed=a.seed))
    return parser


class _LevelPrefix(logging.Formatter):
    """``warning: <message>``, as the CLI prints its errors."""

    def format(self, record):
        return f"{record.levelname.lower()}: {record.getMessage()}"


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the package's warnings go to stderr for the length of the command,
    # and only there, even if the host process has configured logging
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LevelPrefix())
    _log.addHandler(handler)
    propagate, _log.propagate = _log.propagate, False
    try:
        return _run(args)
    finally:
        _log.removeHandler(handler)
        _log.propagate = propagate


def _run(args):
    try:
        report = args.run(args)  # each subparser's entry, set in _build_parser
    except (MeasureFormatError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
