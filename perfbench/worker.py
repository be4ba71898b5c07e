"""One fresh benchmark process: set up a workload, time calls into rodfem.

Started by run.py with ``src`` on PYTHONPATH and the BLAS thread count
pinned.  The process

1. builds the workload's inputs from the seed (``setup_s`` runs from before
   ``import rodfem`` to the first call into the solver);
2. with ``--setup-only``, prints ``setup_s`` and stops there;
3. optionally installs the outside-in tracer;
4. makes one warm-up call, then calls the workload's public entry point
   until its budget is spent, timing each call and checking every result
   (the warm-up's too) against the paper's invariants and, for the default
   seed, against reference.json;
5. times the reference kernel after every call, so each timed call has the
   kernel's time just before and just after it;
6. prints one JSON object as the last line of standard output.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_build") / "perfbench"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
#: final-state values must match reference.json to within
#: REF_TOL * (1 + |reference value|)
REF_TOL = 1e-8
DT = 1.0 / 16.0

# the worms' drive with a seed-chosen phase shift (radians) appended
WORM_ALPHA = "(10*u + 8*(1 - u))*sin(2*pi*u/0.65 - 0.6*pi*t + {phase!r})"


def worm_phase(seed):
    return random.Random(seed).uniform(-0.25, 0.25)


class Workload:
    """Inputs built from a seed, one timed call, and the call's checks."""

    three_d = energy_decays = False

    def hook(self):
        """Runs once, after the tracer is installed."""

    def prepare(self):
        """Runs before each timed call, outside the timing."""

    def call(self):
        raise NotImplementedError

    def output_checks(self, result):
        return {}

    def bytes_written(self):
        return 0


class Relax3D(Workload):
    """3-D relaxation from a seed-chosen circular arc, via rodfem.run."""

    three_d, energy_decays = True, True
    n_vertices, t_final = 512, 4.0

    def __init__(self, seed):
        import rodfem

        angle = random.Random(seed).uniform(0.1, 0.3)
        scn = rodfem.builtin_scenario("relaxation")
        self.config = rodfem.SimConfig(
            scenario=scn, n_vertices=self.n_vertices, dt=DT,
            t_final=self.t_final,
        )
        mesh = rodfem.uniform_mesh(self.n_vertices)
        self.initial = rodfem.circle_arc(mesh, scn.length / angle, angle)

    def call(self):
        import rodfem

        return rodfem.run(self.config, initial=self.initial)


class Worm2D(Workload):
    """Planar worm with a seed-chosen drive phase, via rodfem.run2d."""

    n_vertices = 128

    def __init__(self, seed):
        import rodfem

        scn = rodfem.builtin_scenario("worm2d")
        alpha = rodfem.compile_expr(WORM_ALPHA.format(phase=worm_phase(seed)))
        self.config = rodfem.SimConfig(
            scenario=dataclasses.replace(scn, kappa1_pref=alpha),
            n_vertices=self.n_vertices, dt=DT, dimension=2,
        )

    def call(self):
        import rodfem

        return rodfem.run2d(self.config)


class Worm3DCli(Workload):
    """Full ``rodfem run`` on a generated worm3d config, via rodfem.cli.main.

    The RunResult the CLI computes is captured by rebinding ``cli.run``
    (after the tracer, when there is one), so the invariants can be
    checked next to the files the run wrote.
    """

    three_d = True
    n_vertices, snapshot_stride = 32, 4

    def __init__(self, seed):
        import rodfem.cli

        self.work = OUT / "worm3d-n32-cli"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "run.cfg"
        self.out = self.work / "out"
        self.config.write_text(
            "scenario.name = worm3d\n"
            f"scenario.alpha0 = {WORM_ALPHA.format(phase=worm_phase(seed))}\n"
            f"run.n_vertices = {self.n_vertices}\n"
            f"run.dt = {DT!r}\n"
            f"output.snapshot_stride = {self.snapshot_stride}\n"
            "output.kymograph = true\n",
            encoding="utf-8",
        )
        self.captured = []
        self._cli = rodfem.cli

    def hook(self):
        inner = self._cli.run

        def capture(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.captured.append(result)
            return result

        self._cli.run = capture

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self.captured.clear()

    def call(self):
        import rodfem.cli

        status = rodfem.cli.main(
            ["run", "--config", str(self.config), "--out", str(self.out)]
        )
        if status != 0:
            raise RuntimeError(f"rodfem run exited with code {status}")
        return self.captured[-1]

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.out.iterdir())

    def output_checks(self, result):
        files = {p.name for p in self.out.iterdir()}
        snaps = sorted(result.snapshots)
        want = {"diagnostics.csv", "manifest.json", "kymograph_vertices.csv",
                "kymograph_elements.csv"}
        for step in snaps:
            want |= {f"snap_{step}.csv", f"snapel_{step}.csv"}
        with open(self.out / "diagnostics.csv") as fh:
            diag_rows = sum(1 for _ in fh) - 1
        with open(self.out / "kymograph_vertices.csv") as fh:
            kymo_rows = sum(1 for _ in fh) - 1
        manifest = json.loads((self.out / "manifest.json").read_text())
        return {
            "output_files": files == want,
            "diagnostics_rows": diag_rows == len(result.records),
            "kymograph_rows": kymo_rows == len(snaps) * self.n_vertices,
            "snapshot_stride": all(
                s % self.snapshot_stride == 0 for s in snaps[1:-1]),
            "manifest": len(manifest["outputs"]["snapshots"]) == 2 * len(snaps),
        }


class ReferenceKernel:
    """Fixed work, independent of rodfem, timed between the workload's calls.

    The host's speed drifts by a third over minutes, and the kernel's time
    drifts with it, so run.py divides each call's step time by the kernel
    time measured around that call.  Half of the kernel is LAPACK band LU
    and back-solve on a band the size of relax3d-n512's (85 rows x 6641
    columns, 4.5 MB); the other half is a Python loop of 3-vector numpy
    operations, the kind of work in assembly and frame transport.  Its
    inputs come from a fixed seed, never the workload's.
    """

    kl, n, factorizations, loops, vectors = 28, 6641, 16, 3000, 64

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20260101)
        self.ab = rng.standard_normal((3 * self.kl + 1, self.n))
        self.ab[2 * self.kl] += 100.0  # diagonally dominant
        self.b = rng.standard_normal(self.n)
        self.vs = [rng.standard_normal(3) for _ in range(self.vectors)]

    def time_ns(self):
        import numpy as np
        from scipy.linalg import lapack

        t0 = time.perf_counter_ns()
        for _ in range(self.factorizations):
            lu, piv, _ = lapack.dgbtrf(self.ab, self.kl, self.kl)
            lapack.dgbtrs(lu, self.kl, self.kl, self.b, piv)
        acc = np.zeros(3)
        for i in range(self.loops):
            v = self.vs[i % self.vectors]
            acc = acc + np.cross(v, acc) * 1e-3 + v
            float(acc @ v)
        return time.perf_counter_ns() - t0


WORKLOADS = {
    "relax3d-n512": Relax3D,
    "worm3d-n32-cli": Worm3DCli,
    "worm2d-n128": Worm2D,
}


def summary(result):
    """Final-state values compared against the reference."""
    x = result.final_state.x
    last = result.records[-1]
    return {
        "steps": result.stats.steps,
        "t": float(last.t),
        "energy": float(last.energy),
        "total_length": float(last.total_length),
        "com": [float(v) for v in last.com],
        "x_first": [float(v) for v in x[0]],
        "x_mid": [float(v) for v in x[len(x) // 2]],
        "x_last": [float(v) for v in x[-1]],
    }


def _flat(v):
    return [float(a) for a in v] if isinstance(v, list) else [float(v)]


def matches_reference(got, ref):
    for key, want in ref.items():
        for a, b in zip(_flat(got[key]), _flat(want), strict=True):
            if not abs(a - b) <= REF_TOL * (1.0 + abs(b)):
                return False
    return True


def invariant_checks(workload, result):
    """The acceptance-gate invariants, at the gates' tolerances."""
    st = result.stats
    checks = {
        "min_stretch": st.min_stretch >= 1.0 - 1e-12,
        "length_identity": st.max_length_identity_error <= 1e-9,
    }
    if workload.three_d:
        checks["frame_defect"] = st.max_f2 <= 1e-12
        checks["frame_growth"] = st.max_f2_increment <= 1e-14
    if workload.energy_decays:
        energy = [r.energy for r in result.records]
        checks["energy_decays"] = all(b <= a for a, b in zip(energy, energy[1:]))
    return checks


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--budget", type=float, default=4.0,
                    help="seconds of timed calls and kernels after the "
                         "warm-up call (at least one timed call runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--index", type=int, default=0,
                    help="names this process's span file")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after setting the workload up")
    args = ap.parse_args(argv)

    import rodfem  # noqa: F401  (setup_s covers the import)

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload.hook()
    kernel = ReferenceKernel()
    kernel_ns = None
    reference = None
    if args.seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(args.workload)

    calls = []
    timing_start = None  # set once the warm-up call and its kernel are done
    while len(calls) < 2 or time.perf_counter() - timing_start < args.budget:
        workload.prepare()
        first = len(tracer.spans) if tracer else 0
        error = None
        t0 = time.perf_counter_ns()
        try:
            result = workload.call()
        except Exception:  # a raising run is a failed run, not a crash
            result, error = None, traceback.format_exc()
        wall_ns = time.perf_counter_ns() - t0
        warmup = not calls
        call = {"wall_ns": wall_ns, "warmup": warmup, "error": error}
        if result is None:
            call["steps"] = 0
            call["checks"] = {"completed": False}
        else:
            call["steps"] = result.stats.steps
            call["summary"] = summary(result)
            checks = {"completed": True}
            checks.update(invariant_checks(workload, result))
            try:
                checks.update(workload.output_checks(result))
            except (OSError, ValueError, KeyError):
                checks["outputs_readable"] = False
            if reference is not None:
                checks["reference"] = matches_reference(call["summary"], reference)
            call["checks"] = checks
            call["bytes_written"] = workload.bytes_written()
        after_ns = kernel.time_ns()
        if not warmup:
            call["kernel_ns"] = (kernel_ns + after_ns) / 2
        kernel_ns = after_ns
        if warmup:
            timing_start = time.perf_counter()
        if tracer is not None:
            by_name, top_ns, solves, refine2 = tracer.totals(first, len(tracer.spans))
            call["trace"] = {"by_name": by_name, "top_ns": top_ns,
                             "solves": solves, "refine2": refine2}
        calls.append(call)

    import numpy
    import scipy

    def blas(module):
        return module.__config__.CONFIG["Build Dependencies"]["blas"].get("version")

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "band_bytes": tracer.band_bytes if tracer else None,
        "calls": calls,
        "libraries": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                      "numpy_openblas": blas(numpy),
                      "scipy_openblas": blas(scipy)},
    }
    if tracer is not None:
        span_dir = OUT / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(span_dir / f"{args.workload}-{args.index}.csv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
