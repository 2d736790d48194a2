"""One workload of the benchmark, run in its own process by run.py.

Usage: ``python3 perfbench/workload.py JOB_JSON RESULT_JSON`` runs the
operations the job names for the job's time budget and writes the
result; ``python3 perfbench/workload.py --probe`` imports the package and
solves a 3x3 instance, which run.py times as part of set-up.

An operation is one instance pipeline (map_regime), one CLI command
(stay_at_rest) or one audit (cone_audit).  Each iteration runs every
operation of the workload once; an operation that raises or whose output
fails a check is counted as failed and the run goes on.  The reference
kernel of perfbench/reference.py runs after each operation, and the
median iteration times are also reported scaled by its median time.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference
from reference import NOMINAL_S
from tracer import SELF_METRICS, PivotCounter, Tracer, layer_metrics, median_metrics

ROOT = Path(__file__).resolve().parent.parent
GAP_REL = 1e-8  # |gap| <= GAP_REL * (1 + |objective|)
REF_REL = 1e-9  # checked value vs stored reference
COST_SPEC = '{"kind": "power", "alpha": 0.5}'
# After each operation the reference kernel runs for about this share of
# the operation's time, and at least once.
KERNEL_SHARE = 0.15


def _import_program():
    import concave_ot

    src = (ROOT / "src").resolve()
    if src not in Path(concave_ot.__file__).resolve().parents:
        raise ImportError(f"concave_ot imported from {concave_ot.__file__}, not from {src}")
    import concave_ot.cli  # noqa: F401  (loads every module of the package)

    return concave_ot


def probe():
    ot = _import_program()
    mu = ot.DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], [0.5, 0.25, 0.25])
    nu = ot.translate(mu, [0.5, 0.5])
    cost = ot.PowerCost(0.5)
    plan, pots, _ = ot.solve_exact(mu, nu, cost)
    if not ot.certify(plan, pots, cost).ok:
        raise RuntimeError("probe instance did not certify")


class Check:
    """Outcome of one operation: failed unless every condition held."""

    def __init__(self, op):
        self.op = op
        self.problems = []
        self.value = None  # the objective, or an audit's failing mass

    def require(self, condition, message):
        if not condition:
            self.problems.append(message)

    def gap(self, objective, gap):
        self.value = float(objective)
        self.require(
            abs(gap) <= GAP_REL * (1.0 + abs(objective)),
            f"duality gap {gap!r} above {GAP_REL:g} * (1 + |objective|)",
        )

    def reference(self, value, ref):
        if ref is not None:
            self.require(
                abs(value - ref) <= REF_REL * abs(ref),
                f"{value!r} differs from reference {ref!r}",
            )

    def to_dict(self):
        return {"op": self.op, "ok": not self.problems, "problems": self.problems,
                "value": self.value}


def map_regime(ot, job):
    """solve -> certify -> audits -> map extraction and reconstruction."""
    mu = ot.load_measure(job["inputs"]["mu"])
    nu = ot.load_measure(job["inputs"]["nu"])
    cost = ot.PowerCost(0.5)
    ref = job["references"].get("objective")

    def pipeline():
        plan, pots, obj = ot.solve_exact(mu, nu, cost)
        cert = ot.certify(plan, pots, cost)
        dec = ot.decompose(plan)
        rest = ot.verify_stay_at_rest(mu, nu, plan)
        ccm = ot.verify_ccm(plan, cost, max_cycle_len=3, seed=job["seed"])
        extract = ot.extract_map(dec)
        recon = ot.reconstruct_map_from_potential(pots, mu, nu, cost, k_neighbors=8, plan=plan)
        return obj, cert, rest, ccm, extract, recon

    def check(out):
        obj, cert, rest, ccm, extract, recon = out
        c = Check("pipeline")
        c.require(cert.ok, f"certificate fails: {cert}")
        c.gap(obj, cert.gap)
        c.reference(obj, ref)
        c.require(rest.ok, "stay-at-rest audit fails")
        c.require(ccm.ok, f"cyclical monotonicity fails: {ccm.worst_violation!r}")
        c.require(extract.split_fraction == 0.0, "optimal plan splits mass")
        cos = recon.direction_cosine
        known = ~np.isnan(cos)
        aligned = float(mu.weights[known][cos[known] >= 0.9].sum())
        c.require(aligned >= 0.9, f"only {aligned:.3f} of the mass has direction cosine >= 0.9")
        return c

    return [(pipeline, check)]


def stay_at_rest(ot, job):
    """cli.run_solve then cli.run_decompose on each measure pair."""
    cli = ot.cli
    work = Path(job["work"])
    ops = []
    for pair, files in job["inputs"].items():
        out = work / f"out_{pair}"
        ref = job["references"].get(pair)

        def solve(files=files, out=out):
            return cli.run_solve(files["mu"], files["nu"], COST_SPEC, out / "solve",
                                 seed=job["seed"])

        def decompose(out=out):
            return cli.run_decompose(out / "solve" / "plan.json", COST_SPEC, out / "decompose",
                                     seed=job["seed"])

        def check_solve(report, pair=pair, ref=ref):
            c = Check(f"solve_{pair}")
            m = report.metrics
            c.require(report.passed, "solve report has pass: false")
            c.gap(m["objective"], m["gap"])
            c.reference(m["objective"], ref)
            return c

        def check_decompose(report, pair=pair):
            c = Check(f"decompose_{pair}")
            c.require(report.passed, "decompose report has pass: false")
            return c

        ops += [(solve, check_solve), (decompose, check_decompose)]
    return ops


def cone_audit(ot, job):
    """cli.run_isotropy on a box sample and a hyperplane sample."""
    cli = ot.cli
    work = Path(job["work"])
    ops = []
    for name, spec in job["inputs"].items():
        def audit(name=name, spec=spec):
            return cli.run_isotropy(work / f"out_{name}", generator=spec,
                                    seed=job["seed"], point_sample=job["samples"])

        def check(report, name=name):
            c = Check(name)
            m = report.metrics
            c.require(report.passed, "isotropy report has pass: false")
            if name == "box":
                c.require(m["interior_failing_mass_fraction"] <= 0.05,
                          "box interior failing mass above 5%")
            else:
                c.require(m["failing_mass_fraction"] >= 0.95,
                          "hyperplane failing mass below 95%")
            c.value = m["failing_mass_fraction"]
            c.reference(c.value, job["references"].get(name))
            return c

        ops.append((audit, check))
    return ops


WORKLOADS = {"map_regime": map_regime, "stay_at_rest": stay_at_rest, "cone_audit": cone_audit}


def run(job):
    ot = _import_program()
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    pivots = PivotCounter(ot.solver)
    ops = WORKLOADS[job["workload"]](ot, job)

    iterations = []
    layer_rows = []
    spans_log = []
    reference.kernel()  # warm-up
    ref_walls, ref_cpus = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(iterations) % 2 == 1
        if tracer:
            tracer.enabled = traced
        began = time.perf_counter()
        wall = cpu = 0.0
        results = []
        for fn, _ in ops:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                results.append(fn())
            except Exception:  # counted as a failed operation; the run goes on
                results.append(traceback.format_exc())
            op_wall, op_cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            wall += op_wall
            cpu += op_cpu
            # The kernel calls nothing the tracer wraps.
            for _ in range(max(1, round(op_wall * KERNEL_SHARE / NOMINAL_S))):
                ref_wall, ref_cpu = reference.kernel()
                ref_walls.append(ref_wall)
                ref_cpus.append(ref_cpu)
        n_pivots = pivots.take()
        if traced:
            tracer.enabled = False
            spans, counts = tracer.take()
            layer_rows.append(layer_metrics(spans, counts, n_pivots))
            spans_log.append({"iteration": len(iterations), "spans": spans, "counts": counts})
        checks = []
        for (fn, check), result in zip(ops, results):
            if isinstance(result, str):
                c = Check(fn.__name__)
                c.problems.append(result)
            else:
                c = check(result)
            checks.append(c.to_dict())
        iterations.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                           "span_s": time.perf_counter() - began, "pivots": n_pivots,
                           "outputs": checks})
        elapsed = time.perf_counter() - start
        typical = statistics.median(it["span_s"] for it in iterations)
        # A traced run needs one untraced and one traced iteration at least.
        if elapsed + typical > job["seconds"] and (tracer is None or len(iterations) >= 2):
            break

    outputs = [o for it in iterations for o in it["outputs"]]
    untraced = [it for it in iterations if not it["traced"]]
    result = {
        "iterations": iterations,
        "attempted": len(outputs),
        "failed": sum(not o["ok"] for o in outputs),
        "failures": [o for o in outputs if not o["ok"]][:20],
        "wall_s": statistics.median(it["wall_s"] for it in untraced),
        "cpu_s": statistics.median(it["cpu_s"] for it in untraced),
        "ref_s": statistics.median(ref_walls),
        "ref_cpu_s": statistics.median(ref_cpus),
        "samples": len(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["wall_norm_s"] = result["wall_s"] * NOMINAL_S / result["ref_s"]
    result["cpu_norm_s"] = result["cpu_s"] * NOMINAL_S / result["ref_cpu_s"]
    if tracer:
        traced_wall = statistics.median(it["wall_s"] for it in iterations if it["traced"])
        layers = median_metrics(layer_rows)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - result["wall_s"]
        layers["trace.coverage"] = sum(layers[k] for k in SELF_METRICS) / traced_wall
        layers["ref.kernel_s"] = result["ref_s"]
        result["layers"] = layers
        trace_file = Path(job["trace_file"])
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"layers": layers, "iterations": spans_log}))
    return result


def main(argv):
    if argv == ["--probe"]:
        probe()
        return 0
    job_path, result_path = argv
    job = json.loads(Path(job_path).read_text())
    result = run(job)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
