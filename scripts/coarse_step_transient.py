#!/usr/bin/env python3
"""Probe the coarse-time-step transient of the spatial swimmer.

With time steps of 1/4 or 1/8 the spatial swimmer over-rotates: the
semi-implicit step freezes the geometry of the previous instant, so per-step
frame rotations (dt * max |spin|) of 2-3.5 radians alias the drive and the
length error saturates at order one regardless of mesh resolution.  The
effect never ignites for dt <= 1/16, where the rotation stays below ~0.2
radians and the error scales like dt^2.  This is what distorts the measured
convergence rate between the two coarsest refinement levels of the coupled
study.  This script tabulates the evidence.
"""

import argparse

import numpy as np

from rodfem import SimConfig, builtin_scenario, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-final", type=float, default=6.0)
    ap.add_argument("--split", type=float, default=2.0,
                    help="boundary between the early and late error windows")
    args = ap.parse_args()
    if not 0.0 <= args.split < args.t_final:
        # otherwise the early or the late window is empty
        ap.error(f"--split must satisfy 0 <= split < t-final "
                 f"({args.t_final:g}), got {args.split:g}")

    scenario = builtin_scenario("worm3d")
    print(f"{'dt':>10} {'n':>5} {'max step rot':>13} {'max F1 early':>13} "
          f"{'max F1 late':>12}")
    for dt in (0.25, 0.125, 0.0625, 0.03125):
        for n in (16, 32, 64):
            cfg = SimConfig(scenario, n_vertices=n, dt=dt,
                            t_final=args.t_final, snapshot_stride=1)
            res = run(cfg)
            rot = dt * max(float(np.abs(s.spin).max())
                           for s in res.snapshots.values())
            early = max(r.f1 for r in res.records if r.t <= args.split)
            late = max(r.f1 for r in res.records if r.t > args.split)
            print(f"{dt:>10.5f} {n:>5} {rot:>13.3f} {early:>13.5e} "
                  f"{late:>12.5e}")


if __name__ == "__main__":
    main()
