"""Benchmark of concave-ot: three workloads from the paper's toolchain.

Run from the root of the repository:

    python3 perfbench/run.py --workload map_regime --seed 0 --seconds 30 --trace 0

This process is the generator: it makes the workload's inputs from
``--seed`` (numpy only, written as measure CSV files), times the set-up,
then runs the workload in a child process (perfbench/workload.py) with
``src`` on its path and BLAS/OpenMP pinned to one thread.  The child
repeats the workload's operations for ``--seconds`` and checks every
output.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``wall_norm_s`` and
  ``cpu_norm_s`` (medians per iteration), ``setup_s`` (median of three
  set-ups: input generation, file writes, and a fresh process that
  imports the package and solves a 3x3 instance) and ``peak_rss_mb`` of
  the workload process.  The first two are scaled to a host on which
  the reference kernel of perfbench/reference.py takes 0.2 s, which
  cancels the drift of a shared host's speed; the unscaled times are
  printed too.  ``setup_s`` is not scaled: the kernel does not track
  the cost of starting a process and importing numpy;
* ``--trace 1``: per-layer self times and counts from span wrappers
  around the package's public functions (perfbench/tracer.py); traced and
  untraced iterations alternate, and ``trace.overhead_s`` is their
  difference.

``error_rate`` is ``failed / attempted``; it is printed but is not a
metric, because a metric must never be 0.  Objectives at seed 0 are
checked against perfbench/references.json.

Workloads (the why of each declared one is in BENCHMARK.json):

* ``map_regime``: separated uniform clouds, n = 1000, d = 2,
  PowerCost(0.5): solve_exact, certify, decompose, verify_stay_at_rest,
  verify_ccm, extract_map, reconstruct_map_from_potential.  Seed 0 uses
  the clouds of acceptance criterion 8 (uniform_box seeds 10 and 11).
* ``cone_audit``: cli.run_isotropy on uniform_box and hyperplane samples,
  n = 5000, 500 sampled atoms.  No solve runs.
* ``stay_at_rest``: cli.run_solve then cli.run_decompose on two pairs of
  n = 4000 measure files: (a) identical measures, (b) measures sharing
  95% of their atoms with 10% of the shared weights perturbed in pairs.
  It runs on request but is not declared in BENCHMARK.json: its
  iterations (about 8 s, mostly the presolve's quadratic rebuild of
  small dicts) spread by 15-30% between runs on a shared host even after
  the kernel scaling, more than a regression bound may allow.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)  # before numpy is imported

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUPS = 3
DEADLINE_S = 170.0  # the whole run, set-up included

FULL = {
    "map_regime": {"n": 1000},
    "stay_at_rest": {"n": 4000},
    "cone_audit": {"n": 5000, "samples": 500},
}
# Reduced sizes for perfbench/selftest.py.
SMALL = {
    "map_regime": {"n": 150},
    "stay_at_rest": {"n": 400},
    "cone_audit": {"n": 600, "samples": 40},
}


def _write_measure(path, points, weights):
    """Measure CSV as concave_ot.load_measure reads it: x_1, ..., x_d, weight."""
    with open(path, "w") as fh:
        for x, w in zip(points.tolist(), weights.tolist()):
            fh.write(",".join(map(repr, [*x, w])) + "\n")
    return str(path)


def make_inputs(workload, seed, size, work):
    """Write the inputs of one workload under ``work``; return (inputs, program seed)."""
    if workload == "map_regime":
        n = size["n"]
        w = np.full(n, 1.0 / n)
        # Same draws as uniform_box(n, 2, corner_lo, corner_hi, seed=10 + 2 * seed).
        mu = np.random.default_rng(10 + 2 * seed).uniform([0.0, 0.0], [1.0, 1.0], size=(n, 2))
        nu = np.random.default_rng(11 + 2 * seed).uniform([3.0, 3.0], [4.0, 4.0], size=(n, 2))
        inputs = {"mu": _write_measure(work / "mu.csv", mu, w),
                  "nu": _write_measure(work / "nu.csv", nu, w)}
        return inputs, seed
    if workload == "stay_at_rest":
        n = size["n"]
        rng = np.random.default_rng(1000 + seed)
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        w = np.full(n, 1.0 / n)
        # Pair (b): 5% of the atoms move, and 10% of the shared atoms trade
        # weight in pairs, so the total stays 1 and both residuals hold
        # about n/10 atoms interleaved with the common part.
        moved = rng.choice(n, size=n // 20, replace=False)
        shared = np.setdiff1d(np.arange(n), moved)
        traded = rng.choice(shared, size=2 * (len(shared) // 20), replace=False)
        up, down = np.split(traded, 2)
        delta = rng.uniform(0.2, 0.5, size=len(up)) / n
        pts_b, w_b = pts.copy(), w.copy()
        pts_b[moved] = rng.uniform(0.0, 1.0, size=(len(moved), 2))
        w_b[up] += delta
        w_b[down] -= delta
        mu = _write_measure(work / "mu.csv", pts, w)
        inputs = {"a": {"mu": mu, "nu": _write_measure(work / "nu_a.csv", pts, w)},
                  "b": {"mu": mu, "nu": _write_measure(work / "nu_b.csv", pts_b, w_b)}}
        return inputs, seed
    if workload == "cone_audit":
        n = size["n"]
        inputs = {"box": f"uniform_box:n={n},dim=2", "hyperplane": f"hyperplane:n={n},dim=2"}
        return inputs, 9 + seed  # seed 0 is acceptance criterion 9's seed
    raise ValueError(f"unknown workload {workload!r}")


def _child_env():
    env = dict(os.environ, **THREAD_PINS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, seconds, trace):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "thread_pins": THREAD_PINS,
    }


def _references(workload, seed):
    table = json.loads((HERE / "references.json").read_text())
    return table.get(workload, {}).get(str(seed), {})


def benchmark(workload, seed, seconds, trace, sizes=FULL, references=None):
    """Set up and run one workload; returns the result line as a dict.

    ``references`` overrides the stored references (which exist for the
    full sizes only); None means "use references.json".
    """
    started = time.perf_counter()
    if not (ROOT / "src" / "concave_ot" / "__init__.py").is_file():
        raise FileNotFoundError(f"no concave_ot package under {ROOT / 'src'}")
    if references is None:
        references = _references(workload, seed) if sizes is FULL else {}
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    env = _child_env()
    try:
        setup_times = []
        for _ in range(1 if trace else SETUPS):
            t0 = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            inputs, program_seed = make_inputs(workload, seed, sizes[workload], work)
            if not trace:
                subprocess.run([sys.executable, str(HERE / "workload.py"), "--probe"],
                               env=env, cwd=ROOT, check=True, timeout=60)
            setup_times.append(time.perf_counter() - t0)
        job = {
            "workload": workload,
            "seed": program_seed,
            "seconds": seconds,
            "trace": bool(trace),
            "inputs": inputs,
            "samples": sizes[workload].get("samples"),
            "references": references,
            "work": str(work),
            "trace_file": str(OUT / f"trace_{workload}_seed{seed}.json"),
        }
        (work / "job.json").write_text(json.dumps(job))
        remaining = DEADLINE_S - (time.perf_counter() - started)
        subprocess.run(
            [sys.executable, str(HERE / "workload.py"), str(work / "job.json"),
             str(work / "result.json")],
            env=env, cwd=ROOT, check=True, timeout=max(remaining, 1.0), stdout=sys.stderr,
        )
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for failure in result["failures"]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    if trace:
        values = result["layers"]
    else:
        values = {
            "wall_norm_s": result["wall_norm_s"],
            "cpu_norm_s": result["cpu_norm_s"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values.pop(m["name"]), "unit": m["unit"]}
        else:
            print(f"{m['name']}: missing", file=sys.stderr)
    if values:
        raise ValueError(f"metrics not declared in BENCHMARK.json: {sorted(values)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "samples": result["samples"],
        "setups": len(setup_times),
        "raw": {"wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
                "kernel_s": result["ref_s"]},
        "iterations": result["iterations"],
    }


def report(out, prov):
    """Print provenance, one line per metric, and the result line last."""
    print("provenance " + json.dumps(prov))
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"samples = {out['samples']} untraced iterations, {out['setups']} set-ups")
    print("unscaled: " + ", ".join(f"{k} = {v:.6g} s" for k, v in out["raw"].items()))
    print(f"error_rate = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} failed of {out['attempted']} operations)")
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = benchmark(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    report(out, provenance(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
