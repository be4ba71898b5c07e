"""Step benchmark for rodfem: milliseconds per step on three workloads.

Usage, from the repository root:

    python3 perfbench/run.py                       # all workloads, summary table
    python3 perfbench/run.py --workload relax3d-n512 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --write-reference     # re-record reference.json

Each measurement runs in fresh worker processes (worker.py), one at a time,
with the BLAS thread count pinned to one.  A run first starts a few
set-up-only workers, which give the ``setup_s`` samples, and then one
worker that sets the workload up, makes one warm-up call and times calls
into rodfem for the rest of ``--seconds``, timing a fixed reference kernel
after every call.  ``ref_ms_per_step`` is the median over all timed calls
of the step time scaled by the kernel time around the call; the raw
wall-clock ``ms_per_step`` is printed beside it.  ``setup_s`` is the median
over all workers.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced and then a traced worker and reports the per-layer metrics of the
traced calls, plus the cost of the trace itself.  The last line of standard
output is one JSON object; the lines before it are a readable summary.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKER = HERE / "worker.py"

WORKLOADS = ("relax3d-n512", "worm3d-n32-cli", "worm2d-n128")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 40
#: set-up-only workers started before the timing worker
SETUP_WORKERS = 5
WORKER_TIMEOUT = 150
#: worker.ReferenceKernel's median time, in ms, on the host the benchmark
#: was written on (a 2-vCPU KVM guest on a Xeon, CPU model 143).
#: ref_ms_per_step is in milliseconds of a host running at that speed.
REF_KERNEL_MS = 280.0
MODULES = ("cli", "engine3d", "solver2d", "assembly3d", "linsolve", "frame",
           "geometry", "scenarios", "materials", "diagnostics")


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload, seed, budget, trace, index, setup_only=False):
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--budget", str(budget),
           "--trace", str(trace), "--index", str(index)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker for {workload} exited with {proc.returncode}:\n"
            f"{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def run_workers(workload, seed, seconds, trace):
    """Set-up-only workers, then timing workers for the rest of `seconds`.

    Returns (setups, workers).  The timing budget excludes each worker's
    set-up and warm-up call, so a run overshoots `seconds` by about one
    set-up, one warm-up and one timed call per timing worker.  With trace=1
    the time is split between an untraced and a traced worker.
    """
    t0 = time.perf_counter()
    setups = [run_worker(workload, seed, 0.0, 0, i, setup_only=True)
              for i in range(SETUP_WORKERS)]
    left = max(0.0, seconds - (time.perf_counter() - t0))
    if not trace:
        return setups, [run_worker(workload, seed, left, 0, SETUP_WORKERS)]
    return setups, [run_worker(workload, seed, left / 2, t, SETUP_WORKERS + t)
                    for t in (0, 1)]


def timed_calls(workers):
    """The calls that were timed: every call but each worker's warm-up."""
    return [c for w in workers for c in w["calls"]
            if not c["warmup"] and c["steps"] > 0]


def ms_per_step(call):
    return call["wall_ns"] / 1e6 / max(call["steps"], 1)


def ref_ms_per_step(call):
    """Step time scaled by the kernel time measured around the same call.

    This cancels the host's speed drift, which the kernel's time follows.
    """
    return ms_per_step(call) * REF_KERNEL_MS / (call["kernel_ns"] / 1e6)


def check_counts(workers):
    attempted = failed = checks = checks_failed = 0
    for w in workers:
        for call in w["calls"]:
            attempted += 1
            bad = sum(not ok for ok in call["checks"].values())
            failed += bad > 0
            checks += len(call["checks"])
            checks_failed += bad
    return attempted, failed, checks, checks_failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(setups, workers):
    """The JSON metrics, and the readable lines' (median, unit, n, q1, q3).

    Raw wall-clock ``ms_per_step`` and the kernel time go only on the
    readable lines: on a host whose speed drifts, only the scaled step time
    repeats within the benchmark's bound.
    """
    calls = timed_calls(workers)
    _, _, checks, checks_failed = check_counts(workers)
    samples = {
        "ref_ms_per_step": ("ms", [ref_ms_per_step(c) for c in calls]),
        "ms_per_step": ("ms", [ms_per_step(c) for c in calls]),
        "kernel_ms": ("ms", [c["kernel_ns"] / 1e6 for c in calls]),
        "setup_s": ("s", [w["setup_s"] for w in setups + workers]),
        "peak_rss_mb": ("MB", [w["peak_rss_mb"] for w in workers]),
    }
    metrics, notes = {}, {}
    for name, (unit, values) in samples.items():
        if values:
            median = statistics.median(values)
            notes[name] = (median, unit, len(values), *quartiles(values))
            if name not in ("ms_per_step", "kernel_ms"):
                metrics[name] = {"value": median, "unit": unit}
    metrics["check_pass_ratio"] = {
        "value": (checks - checks_failed) / checks, "unit": "ratio"}
    return metrics, notes, (checks_failed, checks)


def per_layer(workers):
    """Per-layer metrics from the traced calls, pooled over traced workers."""
    plain = [ref_ms_per_step(c) for c in timed_calls(
        [w for w in workers if not w["trace"]])]
    traced_calls = timed_calls([w for w in workers if w["trace"]])
    band_bytes = max(w["band_bytes"] or 0 for w in workers)
    steps = sum(c["steps"] for c in traced_calls)
    ncalls = len(traced_calls)
    by_name = {}
    top_ns = solves = refine2 = 0
    for c in traced_calls:
        t = c["trace"]
        top_ns += t["top_ns"]
        solves += t["solves"]
        refine2 += t["refine2"]
        for name, vals in t["by_name"].items():
            acc = by_name.setdefault(name, [0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
    wall_ns = sum(c["wall_ns"] for c in traced_calls)

    def get(name, field):
        return by_name.get(name, [0, 0, 0])[field]

    def ms(name):
        return get(name, 1) / 1e6 / steps

    def self_ms(name):
        return get(name, 2) / 1e6 / steps

    def per_step(name):
        return get(name, 0) / steps

    def per_call_s(name):
        return get(name, 1) / 1e9 / ncalls

    module_self = {m: sum(v[2] for k, v in by_name.items()
                          if k.split(".", 1)[0] == m) / 1e6 / steps
                   for m in MODULES}
    traced_ms = wall_ns / 1e6 / steps
    m = {
        "traced_ms_per_step": (traced_ms, "ms"),
        "trace_overhead_ms_per_step": (
            statistics.median([ref_ms_per_step(c) for c in traced_calls])
            - statistics.median(plain), "ms"),
        "unattributed.ms_per_step": ((wall_ns - top_ns) / 1e6 / steps, "ms"),
        "assembly3d.assemble_step.ms_per_step": (ms("assembly3d.assemble_step"), "ms"),
        "assembly3d.solve_step.self_ms_per_step": (self_ms("assembly3d.solve_step"), "ms"),
        "solver2d.solve_step_2d.self_ms_per_step": (self_ms("solver2d.solve_step_2d"), "ms"),
        "linsolve.factorize.ms_per_step": (ms("linsolve.factorize"), "ms"),
        "linsolve.matvec.ms_per_step": (ms("linsolve.matvec"), "ms"),
        "linsolve.matvec.calls_per_step": (per_step("linsolve.matvec"), "count"),
        "linsolve.add_entries.ms_per_step": (ms("linsolve.add_entries"), "ms"),
        "linsolve.solve.self_ms_per_step": (self_ms("linsolve.solve"), "ms"),
        "linsolve.backsolve.ms_per_step": (ms("linsolve.backsolve"), "ms"),
        "linsolve.backsolve.calls_per_step": (per_step("linsolve.backsolve"), "count"),
        "linsolve.refine2_ratio": (refine2 / solves if solves else 0.0, "ratio"),
        "linsolve.relative_residual.ms_per_step": (ms("linsolve.relative_residual"), "ms"),
        "linsolve.band_bytes": (band_bytes, "B"),
        "linsolve.share_pct": (100.0 * module_self["linsolve"] / traced_ms, "%"),
        "frame.transport_frame.ms_per_step": (ms("frame.transport_frame"), "ms"),
        "frame.transport_frame.calls_per_step": (per_step("frame.transport_frame"), "count"),
        "frame.frame_error.ms_per_step": (ms("frame.frame_error"), "ms"),
        "geometry.element_tangents.calls_per_step": (per_step("geometry.element_tangents"), "count"),
        "scenarios.evaluate_field.calls_per_step": (per_step("scenarios.evaluate_field"), "count"),
        "scenarios.evaluate_field.ms_per_step": (ms("scenarios.evaluate_field"), "ms"),
        "materials.element_matrices.ms_per_step": (ms("materials.element_matrices"), "ms"),
        "engine3d.run.self_ms_per_step": (self_ms("engine3d.run"), "ms"),
        "solver2d.run2d.self_ms_per_step": (self_ms("solver2d.run2d"), "ms"),
        "diagnostics.write_snapshot.s": (per_call_s("diagnostics.write_snapshot"), "s"),
        "diagnostics.write_kymograph.s": (per_call_s("diagnostics.write_kymograph"), "s"),
        "diagnostics.write_diagnostics.s": (per_call_s("diagnostics.write_diagnostics"), "s"),
        "output.bytes_written": (statistics.median(
            [c.get("bytes_written", 0) for c in traced_calls]), "B"),
    }
    for mod, value in module_self.items():
        m[f"{mod}.self_ms_per_step"] = (value, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def environment(workers):
    """Commit, library versions and cache sizes, recorded with every run."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {"commit": commit, "python": platform.python_version(),
            **workers[0]["libraries"], "cpu_count": os.cpu_count(),
            "caches": caches, "blas_threads": 1}


def report(workload, seed, seconds, trace):
    setups, workers = run_workers(workload, seed, seconds, trace)
    env = environment(workers)
    print(f"{workload}  environment: {json.dumps(env)}")
    attempted, failed, _, _ = check_counts(workers)
    notes = {}
    if trace:
        metrics = per_layer(workers)
        for name, mv in metrics.items():
            print(f"{workload}  {name:44s} {mv['value']:14.6g} {mv['unit']}")
    else:
        metrics, notes, (bad, total) = end_to_end(setups, workers)
        for name, (median, unit, count, lo, hi) in notes.items():
            print(f"{workload}  {name:16s} {median:10.4f} {unit:3s} "
                  f"(median of {count}; quartiles {lo:.4f}..{hi:.4f})")
        print(f"{workload}  {'check_fail_ratio':16s} {bad / total:10.4f}     "
              f"({bad} of {total} checks failed)")
    for w in workers:
        for call in w["calls"]:
            if call["error"]:
                print(f"{workload}  error: {call['error']}")
            failing = [k for k, ok in call["checks"].items() if not ok]
            if failing:
                print(f"{workload}  failed checks: {', '.join(failing)}")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "seconds": seconds, "trace": trace,
                             "environment": env, "metrics": metrics,
                             "medians_quartiles": notes,
                             "workers": len(setups) + len(workers)}) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_reference():
    ref = {}
    for workload in WORKLOADS:
        worker = run_worker(workload, DEFAULT_SEED, 0.0, 0, 0)
        ref[workload] = worker["calls"][0]["summary"]
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, **ref}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {HERE / 'reference.json'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record reference.json from the current sources")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rodfem" / "__init__.py").is_file():
        print(f"perfbench: no rodfem sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0

    if args.workload != "all":
        result = report(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    results = {w: report(w, args.seed, args.seconds, args.trace)
               for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
