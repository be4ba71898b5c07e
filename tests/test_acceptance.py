"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Each test emits a single ``[criterion NN] PASS/FAIL`` line — printed inline
and repeated in an end-of-run summary section so output capture cannot hide
it — and then asserts.  Expensive trajectory sets are computed once per
module and shared.  Reference error columns and rate targets are regression
anchors for the bundled studies; tolerances are part of the criterion and
must not be retuned to force a verdict.
"""

import dataclasses

import numpy as np
import pytest

from rodfem.engine3d import SimConfig, run, spun_up_state_2d
from rodfem.geometry import (Mesh, frozen_geometry, uniform_mesh,
                             vertex_curvature)
from rodfem.initial import straight_rod
from rodfem.materials import IsotropicDrag, ResistiveForceDrag
from rodfem.scenarios import Scenario, builtin_scenario, compile_expr
from rodfem.solver2d import embed_in_space
from rodfem.engine3d import RunStats

LEVELS = range(5)

#: measured greatest length error per refinement level of the straightening
#: study, used as a factor-of-three anchor
RELAX_MAX_F1 = [3.46788e-2, 5.64486e-3, 4.89655e-4, 3.34948e-5, 2.14247e-6]

#: convergence-rate anchors (level -> expected rate between level-1 and level)
RELAX_EOC = {2: 1.76355, 3: 1.93488, 4: 1.98330}
WORM2D_EOC = {2: 2.12695, 3: 1.98220, 4: 1.99616}
WORM3D_EOC = {2: 2.45101, 3: 1.97157, 4: 1.97295}

EOC_SLACK = {"relaxation": 0.2, "worm2d": 0.2, "worm3d": 0.25}

#: verdict lines collected for the end-of-run summary (see conftest)
CRITERION_LINES = []


def level_config(scenario, level, **kw):
    return SimConfig(scenario, n_vertices=2 ** (4 + level),
                     dt=4.0 ** (-level), **kw)


def rates_of(results):
    """Convergence rates of max length error between consecutive levels."""
    f1 = [results[l].stats.max_f1 for l in LEVELS]
    return {
        l: float(np.log(f1[l] / f1[l - 1]) / np.log(4.0 ** (-l) / 4.0 ** (1 - l)))
        for l in range(1, 5)
    }


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}"
    CRITERION_LINES.append(line)
    print(line)


# --- shared trajectory sets ---------------------------------------------------


@pytest.fixture(scope="module")
def relax_results():
    scn = builtin_scenario("relaxation")
    return {l: run(level_config(scn, l)) for l in LEVELS}


@pytest.fixture(scope="module")
def worm2d_results():
    scn = builtin_scenario("worm2d")
    return {l: run(level_config(scn, l, dimension=2)) for l in LEVELS}


@pytest.fixture(scope="module")
def worm3d_results():
    scn = builtin_scenario("worm3d")
    return {l: run(level_config(scn, l)) for l in LEVELS}


@pytest.fixture(scope="module")
def planar_in_space_level3():
    scn = builtin_scenario("worm2d")
    return run(level_config(scn, 3))


@pytest.fixture(scope="module")
def compare_results():
    """Both solvers advanced from one shared developed planar state."""
    scn = builtin_scenario("worm2d")
    out = {}
    for level in range(4):
        cfg2 = level_config(scn, level, dimension=2)
        cfg3 = dataclasses.replace(cfg2, dimension=3)
        mesh = uniform_mesh(cfg2.n_vertices)
        spin_stats = RunStats()
        planar0 = spun_up_state_2d(cfg2, spin_stats)
        spatial0 = embed_in_space(mesh, planar0)
        res2 = run(cfg2, state=planar0)
        res3 = run(cfg3, state=spatial0)
        com2 = np.zeros(3)
        com2[:2] = res2.records[-1].com[:2]
        diff = float(np.linalg.norm(np.asarray(res3.records[-1].com) - com2))
        out[level] = {"res2": res2, "res3": res3, "diff": diff,
                      "spin_stats": spin_stats}
    return out


def all_stats(relax_results, worm2d_results, worm3d_results,
              planar_in_space_level3, compare_results):
    pairs = []
    for l, r in relax_results.items():
        pairs.append((f"relaxation level {l}", r.stats))
    for l, r in worm2d_results.items():
        pairs.append((f"worm2d level {l}", r.stats))
    for l, r in worm3d_results.items():
        pairs.append((f"worm3d level {l}", r.stats))
    pairs.append(("worm2d level 3 in the spatial solver",
                  planar_in_space_level3.stats))
    for l, c in compare_results.items():
        pairs.append((f"comparison level {l} planar", c["res2"].stats))
        pairs.append((f"comparison level {l} spatial", c["res3"].stats))
        pairs.append((f"comparison level {l} spin-up", c["spin_stats"]))
    return pairs


# --- criteria -----------------------------------------------------------------


def test_01_straight_rest_rod_is_stationary():
    zero = compile_expr("0")
    drags = [
        IsotropicDrag(),
        IsotropicDrag(np.array([[2.0, 0.3, 0.0],
                                [0.3, 1.5, 0.2],
                                [0.0, 0.2, 3.0]])),
        ResistiveForceDrag(40.0),
    ]
    worst_move, worst_aux, wall = 0.0, 0.0, 0.0
    x0 = straight_rod(uniform_mesh(16)).x
    for drag in drags:
        scn = Scenario(name="rest", kappa1_pref=zero, kappa2_pref=zero,
                       twist_pref=zero, drag=drag)
        res = run(SimConfig(scn, n_vertices=16, dt=0.1, t_final=10.0,
                            snapshot_stride=1))
        wall += res.wall_time
        for st in res.snapshots.values():
            worst_move = max(worst_move, float(np.abs(st.x - x0).max()))
            worst_aux = max(
                worst_aux,
                float(np.abs(st.tension).max()),
                float(np.abs(st.bend_moment).max()),
                float(np.abs(st.twist_moment).max()),
                float(np.abs(st.spin).max()),
                float(np.abs(st.twist).max()),
            )
    ok = worst_move <= 1e-9 and worst_aux <= 1e-9 and wall < 1.0
    report(1, ok, f"100 rest steps, 3 drag models: max displacement "
                  f"{worst_move:.2e}, max auxiliary {worst_aux:.2e}, "
                  f"{wall:.2f}s total")
    assert worst_move <= 1e-9
    assert worst_aux <= 1e-9
    assert wall < 1.0


def test_02_length_never_shrinks_anywhere(relax_results, worm2d_results,
                                          worm3d_results,
                                          planar_in_space_level3,
                                          compare_results):
    pairs = all_stats(relax_results, worm2d_results, worm3d_results,
                      planar_in_space_level3, compare_results)
    worst_stretch = min(s.min_stretch for _, s in pairs)
    worst_identity = max(s.max_length_identity_error for _, s in pairs)
    ok = worst_stretch >= 1.0 - 1e-12 and worst_identity <= 1e-9
    report(2, ok, f"{len(pairs)} runs: min density ratio - 1 = "
                  f"{worst_stretch - 1.0:.2e}, "
                  f"max length-identity defect {worst_identity:.2e}")
    assert worst_stretch >= 1.0 - 1e-12
    assert worst_identity <= 1e-9


def test_03_relaxation_error_levels_and_rates(relax_results):
    t0 = sum(r.wall_time for r in relax_results.values())
    factors = [
        max(relax_results[l].stats.max_f1 / RELAX_MAX_F1[l],
            RELAX_MAX_F1[l] / relax_results[l].stats.max_f1)
        for l in LEVELS
    ]
    rates = rates_of(relax_results)
    rate_err = {l: abs(rates[l] - RELAX_EOC[l]) for l in RELAX_EOC}
    ok = max(factors) <= 3.0 and max(rate_err.values()) <= 0.2
    report(3, ok, f"error within x{max(factors):.3f} of the anchors, "
                  f"rates {[f'{rates[l]:.4f}' for l in sorted(RELAX_EOC)]} vs "
                  f"{[RELAX_EOC[l] for l in sorted(RELAX_EOC)]} "
                  f"(slack 0.2); {t0:.0f}s of trajectories")
    assert max(factors) <= 3.0
    for l in RELAX_EOC:
        assert rate_err[l] <= 0.2, f"rate at level {l}: {rates[l]}"


def test_04_frame_orthogonality_drift(relax_results):
    worst = max(r.stats.max_f2 for r in relax_results.values())
    worst_inc = max(r.stats.max_f2_increment for r in relax_results.values())
    ok = worst <= 1e-12 and worst_inc <= 1e-14
    report(4, ok, f"max frame defect {worst:.2e}, "
                  f"max per-step growth {worst_inc:.2e}")
    assert worst <= 1e-12
    assert worst_inc <= 1e-14


def test_05_energy_decays_under_autonomous_drive(relax_results):
    # the straightening drive is time-independent, so the discrete energy
    # must never increase between steps
    worst = -np.inf
    for level in range(1, 5):
        E = np.array([r.energy for r in relax_results[level].records])
        worst = max(worst, float(np.diff(E).max()))
    ok = worst <= 0.0
    report(5, ok, f"levels 1-4: max energy increment {worst:.2e}")
    assert worst <= 0.0


def test_06_spatial_solver_keeps_planar_drive_planar(planar_in_space_level3):
    st = planar_in_space_level3.stats
    ok = (st.max_abs_x3 <= 1e-10 and st.max_abs_beta <= 1e-10
          and st.max_abs_twist <= 1e-10)
    report(6, ok, f"out-of-plane position {st.max_abs_x3:.2e}, "
                  f"second curvature component {st.max_abs_beta:.2e}, "
                  f"twist {st.max_abs_twist:.2e}")
    assert st.max_abs_x3 <= 1e-10
    assert st.max_abs_beta <= 1e-10
    assert st.max_abs_twist <= 1e-10


def test_07_planar_and_spatial_centers_agree(compare_results):
    diffs = {l: c["diff"] for l, c in compare_results.items()}
    ratios = {
        l: c["res3"].wall_time / max(c["res2"].wall_time, 1e-9)
        for l, c in compare_results.items()
    }
    ok = max(diffs.values()) <= 1e-9
    report(7, ok, f"center-of-mass gap per level "
                  f"{[f'{diffs[l]:.1e}' for l in sorted(diffs)]}; "
                  f"cost ratio 3d/2d "
                  f"{[f'{ratios[l]:.2f}' for l in sorted(ratios)]} "
                  f"(reported, not asserted)")
    for l, d in diffs.items():
        assert d <= 1e-9, f"level {l}: center difference {d}"


@pytest.mark.parametrize("name", ["worm2d", "worm3d"])
def test_08_swimmer_convergence_rates(name, worm2d_results, worm3d_results):
    results = worm2d_results if name == "worm2d" else worm3d_results
    targets = WORM2D_EOC if name == "worm2d" else WORM3D_EOC
    slack = EOC_SLACK[name]
    rates = rates_of(results)
    errs = {l: abs(rates[l] - targets[l]) for l in targets}
    ok = max(errs.values()) <= slack
    report(8, ok, f"{name}: rates "
                  f"{[f'{rates[l]:.4f}' for l in sorted(targets)]} vs "
                  f"{[targets[l] for l in sorted(targets)]} "
                  f"(slack {slack})")
    for l in targets:
        assert errs[l] <= slack, (
            f"{name} rate between levels {l-1} and {l}: {rates[l]:.5f}, "
            f"target {targets[l]} within {slack}"
        )


def test_09_spatial_swimmer_leaves_the_plane(worm3d_results):
    res = worm3d_results[3]
    span = float(np.ptp(res.final_state.x[:, 2]))
    twist = res.stats.max_abs_twist
    ok = span > 1e-2 and twist > 1e-3
    report(9, ok, f"final out-of-plane span {span:.3f} (> 0.01), "
                  f"peak twist {twist:.3f} (> 0.001)")
    assert span > 1e-2 * res.config.scenario.length
    assert twist > 1e-3


def test_10_initial_curvature_of_a_circular_arc():
    R, angle = 0.5, 1.6

    def arc_error(u):
        th = angle * u
        x = R * np.column_stack([np.sin(th), 1.0 - np.cos(th),
                                 np.zeros(len(u))])
        mags = np.linalg.norm(vertex_curvature(frozen_geometry(Mesh(u), x))[1:-1], axis=1)
        return float(np.abs(mags - 1.0 / R).max())

    # uniform chords reproduce 1/R exactly (the chord factors cancel) ...
    mesh = uniform_mesh(64)
    exact_defect = arc_error(mesh.u) * R
    # ... so the rate is measured on a rough mesh with alternating step sizes
    errs = []
    for n in (32, 64, 128):
        steps = np.where(np.arange(n - 1) % 2 == 0, 1.0, 2.0)
        u = np.concatenate([[0.0], np.cumsum(steps)])
        errs.append(arc_error(u / u[-1]))
    r1 = float(np.log2(errs[0] / errs[1]))
    r2 = float(np.log2(errs[1] / errs[2]))
    ok = exact_defect <= 1e-12 and min(r1, r2) >= 1.9
    report(10, ok, f"uniform-mesh defect {exact_defect:.1e} (exact), "
                   f"rough-mesh rates {r1:.3f}, {r2:.3f} (>= 1.9)")
    assert exact_defect <= 1e-12
    assert r1 >= 1.9 and r2 >= 1.9


def test_11_restart_reproduces_the_uninterrupted_run():
    scn = builtin_scenario("relaxation")
    pin = dict(n_vertices=32, dt=0.25)
    full = run(SimConfig(scn, t_final=25.0, **pin))
    head = run(SimConfig(scn, t_final=10.0, **pin))
    tail = run(SimConfig(scn, t_final=25.0, **pin), state=head.final_state)
    a, b = full.final_state, tail.final_state
    gaps = {
        "x": np.abs(a.x - b.x).max(),
        "e1": np.abs(a.e1 - b.e1).max(),
        "e2": np.abs(a.e2 - b.e2).max(),
        "kappa": np.abs(a.kappa - b.kappa).max(),
        "twist": np.abs(a.twist - b.twist).max(),
        "bend_moment": np.abs(a.bend_moment - b.bend_moment).max(),
        "spin": np.abs(a.spin - b.spin).max(),
        "twist_moment": np.abs(a.twist_moment - b.twist_moment).max(),
        "tension": np.abs(a.tension - b.tension).max(),
        "rest_density": np.abs(a.rest_density - b.rest_density).max(),
    }
    worst = max(gaps.values())
    ok = worst <= 1e-12 and a.t == b.t
    report(11, ok, f"interrupted run re-joins the one-shot run: "
                   f"largest field gap {worst:.2e}")
    assert a.t == b.t
    for field, gap in gaps.items():
        assert gap <= 1e-12, f"{field} differs by {gap}"
