#!/usr/bin/env python3
"""Fingerprint a fixed set of trajectories, one SHA-256 per case.

Each library case is a short run of the library.  Its digest covers the
dtype, shape and bytes of every `final_state` array, every
`DiagnosticsRecord` field and every `RunStats` field.  Each CLI case is one
`rodfem run` into a temporary directory; its digest covers the name and
bytes of every output file except `manifest.json`, whose timings vary.  Each
study case is one `rodfem converge` or `rodfem compare2d3d` at levels 0..1;
its digest covers every cell of the study's table except the wall-time
columns.  Two source trees that print the same lines produced bit-identical
trajectories, output files and study tables.  Run it on both trees of a
change that must not move any number and compare the output:

    PYTHONPATH=src python3 scripts/trajectory_digest.py > after.txt

BLAS runs on one thread: the band product's rounding depends on the thread
count, and the digest must depend on the code only.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from rodfem import (SimConfig, builtin_scenario, circle_arc,  # noqa: E402
                    embed_in_space, run, spun_up_state_2d, uniform_mesh)
from rodfem.cli import main as rodfem_main  # noqa: E402

DT = 1.0 / 16.0
T_FINAL = 1.0
ARC_ANGLE = 0.2

#: (case name, scenario, n_vertices, dimension, start).  start is "fresh",
#: "resumed" (from the state at t = T_FINAL / 2), "embedded": the spatial
#: run from the spun-up planar state lifted into space, the path of
#: `rodfem compare2d3d`, where both assemblers see the same geometry, or
#: "arc": the spatial run from a circular arc of central angle ARC_ANGLE
#: passed as `initial`, the path of perfbench's relax3d workload.
CASES = (
    ("relaxation-n4", "relaxation", 4, 3, "fresh"),
    ("relaxation-n16", "relaxation", 16, 3, "fresh"),
    ("relaxation-n128", "relaxation", 128, 3, "fresh"),
    ("worm3d-n3", "worm3d", 3, 3, "fresh"),
    ("worm3d-n32", "worm3d", 32, 3, "fresh"),
    ("worm2d-n3", "worm2d", 3, 2, "fresh"),
    ("worm2d-n64", "worm2d", 64, 2, "fresh"),
    ("worm3d-n32-resumed", "worm3d", 32, 3, "resumed"),
    ("worm2d-n64-resumed", "worm2d", 64, 2, "resumed"),
    ("worm2d-n32-embedded", "worm2d", 32, 3, "embedded"),
    ("relaxation-n64-arc", "relaxation", 64, 3, "arc"),
)

#: (case name, scenario, dimension) of the `rodfem run` cases: n = 32 with
#: snapshots every 4 steps and the kymograph tables.
CLI_CASES = (
    ("cli-worm2d-n32", "worm2d", 2),
    ("cli-worm3d-n32", "worm3d", 3),
)

#: (case name, subcommand, scenario, table, wall-time columns left out) of
#: the refinement-study cases, levels 0..1 with run.t_final = 2.
STUDY_CASES = (
    ("cli-converge", "converge", "relaxation", "converge.csv", ()),
    ("cli-compare", "compare2d3d", "worm2d", "compare.csv",
     ("time_2d", "time_3d", "time_ratio")),
)


def _feed(h, name, value):
    a = np.asarray(value)
    h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
    h.update(np.ascontiguousarray(a).tobytes())


def digest(result) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(result.final_state):
        _feed(h, f"state.{f.name}", getattr(result.final_state, f.name))
    for i, rec in enumerate(result.records):
        for f in dataclasses.fields(rec):
            _feed(h, f"record{i}.{f.name}", getattr(rec, f.name))
    for f in dataclasses.fields(result.stats):
        _feed(h, f"stats.{f.name}", getattr(result.stats, f.name))
    return h.hexdigest()


def run_case(scenario, n_vertices, dimension, start):
    def config(t_final, dimension=dimension):
        return SimConfig(builtin_scenario(scenario), n_vertices=n_vertices,
                         dt=DT, t_final=t_final, dimension=dimension)

    if start == "fresh":
        return run(config(T_FINAL))
    if start == "arc":
        mesh = uniform_mesh(n_vertices)
        length = builtin_scenario(scenario).length
        return run(config(T_FINAL),
                   initial=circle_arc(mesh, length / ARC_ANGLE, ARC_ANGLE))
    if start == "embedded":
        planar = spun_up_state_2d(config(T_FINAL, dimension=2))
        return run(config(T_FINAL),
                   state=embed_in_space(uniform_mesh(n_vertices), planar))
    half = run(config(T_FINAL / 2.0))
    return run(config(T_FINAL), state=half.final_state)


def rodfem_cli(tmp, argv, config_text):
    """Run `rodfem <argv>` on a config file into tmp/out; returns tmp/out."""
    config = tmp / "run.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = rodfem_main([*argv, "--config", str(config), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"rodfem {' '.join(argv)} exited {code}")
    return out


def cli_digest(scenario, dimension) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = rodfem_cli(
            Path(tmp), ["run"],
            f"scenario.name = {scenario}\n"
            f"run.dimension = {dimension}\n"
            "run.n_vertices = 32\n"
            f"run.dt = {DT!r}\n"
            f"run.t_final = {T_FINAL!r}\n"
            "output.snapshot_stride = 4\n"
            "output.kymograph = true\n",
        )
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                h.update(f"{path.name}|".encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def study_digest(command, scenario, table, timed) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = rodfem_cli(
            Path(tmp), [command, "--levels", "0..1"],
            f"scenario.name = {scenario}\nrun.t_final = 2\n",
        )
        with open(out / table, newline="") as fh:
            rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in timed]
    for row in rows:
        h.update((",".join(row[i] for i in keep) + "\n").encode())
    return h.hexdigest()


def main():
    for name, scenario, n_vertices, dimension, start in CASES:
        print(f"{name:<20} {digest(run_case(scenario, n_vertices, dimension, start))}")
    for name, scenario, dimension in CLI_CASES:
        print(f"{name:<20} {cli_digest(scenario, dimension)}")
    for name, command, scenario, table, timed in STUDY_CASES:
        print(f"{name:<20} {study_digest(command, scenario, table, timed)}")


if __name__ == "__main__":
    main()
