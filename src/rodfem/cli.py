"""Command-line front end.

Three subcommands cover the standard studies:

* ``run`` — advance one simulation and export per-step diagnostics plus
  state snapshots;
* ``converge`` — the coupled refinement study (time step divided by four,
  vertex count doubled per level) with a length-error convergence table;
* ``compare2d3d`` — drive the planar solver and the spatial solver from the
  same developed planar state and report how far their centers of mass
  drift apart, along with the cost ratio.

Runs are described by a flat, UTF-8 text config of ``section.key = value``
lines ('#' starts a comment).  Unknown keys are rejected by name so typos
fail loudly rather than silently running defaults.

Exit codes: 0 on success, 2 for configuration problems (the message names
the offending field), 3 when the linear algebra or the geometry breaks down
mid-run.
"""

import argparse
import ast
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .diagnostics import (
    curvature_components,
    eoc,
    write_diagnostics,
    write_kymograph,
    write_snapshot,
    write_table,
)
from .engine3d import SimConfig, run, spun_up_state_2d, step_count
from .errors import (
    ConfigError,
    InvalidMeshError,
    InvalidParameterError,
    RodfemError,
)
from .geometry import frozen_geometry, perp, uniform_mesh
from .materials import IsotropicDrag, ResistiveForceDrag
from .scenarios import Scenario, builtin_scenario, compile_expr
from .solver2d import embed_in_space


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

_PRESET_NAMES = ("relaxation", "worm2d", "worm3d")

# key -> parser tag: str / expr (kept raw), float, int, bool, profile
_KNOWN_KEYS = {
    "scenario.name": "str",
    "scenario.alpha0": "expr",
    "scenario.beta0": "expr",
    "scenario.gamma0": "expr",
    "scenario.spin_up": "float",
    "scenario.length": "float",
    "material.epsilon": "float",
    "material.bend_stiffness": "profile",
    "material.bend_viscosity": "profile",
    "material.twist_stiffness": "profile",
    "material.twist_viscosity": "profile",
    "material.rotary_drag": "float",
    "drag.kind": "str",
    "drag.k": "float",
    "run.dt": "float",
    "run.n_vertices": "int",
    "run.t_final": "float",
    "run.dimension": "int",
    "output.snapshot_stride": "int",
    "output.kymograph": "bool",
}


def parse_config(path) -> dict:
    """Read a flat dotted-key config file into {key: raw string value}."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"--config: cannot read '{path}' ({exc})") from exc

    cfg = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got '{body}'"
            )
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: duplicate config key '{key}'")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for '{key}'")
        cfg[key] = value
    return cfg


def _get(cfg, key, default=None):
    """Typed lookup of a config value; errors name the key."""
    if key not in cfg:
        return default
    raw = cfg[key]
    tag = _KNOWN_KEYS[key]
    try:
        if tag == "float":
            return float(raw)
        if tag == "int":
            return int(raw)
        if tag == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        if tag == "profile":
            return _profile_of(cfg, key)
        return raw  # str / expr stay raw here
    except ValueError:
        raise ConfigError(f"{key}: cannot parse '{raw}' as {tag}") from None


def _profile_of(cfg, key):
    """A material profile: plain number, or an expression in u (not t)."""
    raw = cfg[key]
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        f = compile_expr(raw)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if any(isinstance(node, ast.Name) and node.id == "t"
           for node in ast.walk(ast.parse(raw, mode="eval"))):
        raise ConfigError(
            f"{key}: a material profile depends on u only, got '{raw}'")
    return lambda u, _f=f: _f(u, 0.0)


def build_scenario(cfg) -> Scenario:
    """Construct the scenario a config describes, overrides applied."""
    name = _get(cfg, "scenario.name")
    if name is None:
        raise ConfigError("scenario.name is required")

    if name in _PRESET_NAMES:
        try:
            scn = builtin_scenario(name,
                                   eps=_get(cfg, "material.epsilon", 0.05))
        except InvalidParameterError as exc:
            raise ConfigError(f"material.epsilon: {exc}") from None
    elif name == "custom":
        if "scenario.alpha0" not in cfg:
            raise ConfigError(
                "scenario.alpha0 is required when scenario.name = custom"
            )
        zero = compile_expr("0")
        scn = Scenario(name="custom", kappa1_pref=zero, kappa2_pref=zero,
                       twist_pref=zero)
    else:
        raise ConfigError(
            f"scenario.name: unknown scenario '{name}' "
            f"(expected one of {', '.join(_PRESET_NAMES)}, or custom)"
        )

    replaced = {"material.bend_stiffness", "material.twist_stiffness"}
    if "material.epsilon" in cfg and (name not in ("worm2d", "worm3d")
                                      or replaced <= cfg.keys()):
        raise ConfigError(
            f"material.epsilon: scenario {name} samples no tapered stiffness "
            f"profile (worm2d and worm3d do, unless both stiffness profiles "
            f"are given)"
        )

    # the fields of a custom scenario, and overrides of a preset's, so
    # small variations of the bundled studies need no custom scenario
    for key, attr in (("scenario.alpha0", "kappa1_pref"),
                      ("scenario.beta0", "kappa2_pref"),
                      ("scenario.gamma0", "twist_pref")):
        if key in cfg:
            try:
                scn = dataclasses.replace(scn, **{attr: compile_expr(cfg[key])})
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from None

    # every material key but epsilon sets the field of the same name
    updates = {key.split(".")[1]: _get(cfg, key) for key in cfg
               if key.startswith("material.") and key != "material.epsilon"}
    if updates:
        try:
            scn = dataclasses.replace(
                scn, material=dataclasses.replace(scn.material, **updates)
            )
        except InvalidParameterError as exc:
            raise ConfigError(f"material: {exc}") from None

    if "drag.kind" in cfg or "drag.k" in cfg:
        kind = _get(cfg, "drag.kind")
        if kind is None:
            kind = "rft" if isinstance(scn.drag, ResistiveForceDrag) else "isotropic"
        try:
            if kind == "rft":
                drag = ResistiveForceDrag(_get(cfg, "drag.k", 40.0))
            elif kind == "isotropic":
                drag = IsotropicDrag(_get(cfg, "drag.k", 1.0) * np.eye(3))
            else:
                raise ConfigError(
                    f"drag.kind: expected 'isotropic' or 'rft', got '{kind}'"
                )
        except InvalidParameterError as exc:
            raise ConfigError(f"drag.k: {exc}") from None
        scn = dataclasses.replace(scn, drag=drag)

    for key, attr in (("scenario.spin_up", "spin_up"),
                      ("scenario.length", "length")):
        if key in cfg:
            scn = dataclasses.replace(scn, **{attr: _get(cfg, key)})
    return scn


def build_sim_config(cfg, scenario, **levels) -> SimConfig:
    """SimConfig from the run and output sections (levels may override).

    Each run.* key and output.snapshot_stride set the SimConfig field of the
    same name; a key the config leaves out keeps the field's default.
    SimConfig itself rejects a bad horizon, spin-up or rod length, as it
    does for library callers, in a message that names the field.
    """
    fields = {key.split(".")[1]: _get(cfg, key) for key in cfg
              if key.startswith("run.") or key == "output.snapshot_stride"}
    return SimConfig(scenario=scenario, **{**fields, **levels})


# ---------------------------------------------------------------------------
# shared output helpers
# ---------------------------------------------------------------------------


def _then_create_out(args, work):
    """work()'s value and --out: rejected before work if it is or lies under
    a non-directory, created after work so a rejected run leaves none."""
    out_dir = Path(args.out)
    nearest = next(p for p in (out_dir, *out_dir.parents)
                   if p.exists() or p.is_symlink())
    if not nearest.is_dir():
        raise ConfigError(f"--out: '{nearest}' exists and is not a directory")
    value = work()
    out_dir.mkdir(parents=True, exist_ok=True)
    return value, out_dir


def _snapshot_files(out_dir, mesh, step, state):
    """Write snap_<step>.csv / snapel_<step>.csv; returns their names."""
    vname, ename = f"snap_{step}.csv", f"snapel_{step}.csv"
    if state.x.shape[1] == 2:
        state = embed_in_space(mesh, state)
    write_snapshot(out_dir / vname, out_dir / ename, mesh, state.x, state.e1,
                   state.e2, state.kappa, state.spin, state.twist,
                   state.twist_moment, state.tension)
    return vname, ename


def _kymograph_samples(mesh, snapshots):
    samples = []
    for step in sorted(snapshots):
        st = snapshots[step]
        if st.x.shape[1] == 2:
            nu = perp(frozen_geometry(mesh, st.x).ttau)
            alpha = np.einsum("nd,nd->n", st.kappa, nu)
            samples.append({"t": st.t, "alpha": alpha,
                            "beta": np.zeros_like(alpha), "gamma": None})
        else:
            alpha, beta = curvature_components(st.kappa, st.e1, st.e2)
            samples.append({"t": st.t, "alpha": alpha, "beta": beta,
                            "gamma": st.twist})
    return samples


def _write_manifest(out_dir, args, cfg, outputs, timings) -> None:
    manifest = {
        "command": f"rodfem {args.command}",
        "version": __version__,
        "platform": {
            "python": platform.python_version(),
            "system": platform.platform(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "config_file": str(args.config),
        "config": dict(cfg),
        "outputs": outputs,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _parse_levels(text: str):
    """Parse --levels 'L0..L1' (or a single 'L') into an inclusive range."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ConfigError(
            f"--levels: expected 'L0..L1' with integers, got '{text}'"
        ) from None
    if lo < 0 or hi < lo:
        raise ConfigError(f"--levels: need 0 <= L0 <= L1, got '{text}'")
    return lo, hi


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    scenario = build_scenario(cfg)
    sim = build_sim_config(cfg, scenario)
    kymograph = _get(cfg, "output.kymograph", False)

    result, out_dir = _then_create_out(args, lambda: run(sim))
    mesh = uniform_mesh(sim.n_vertices)

    write_diagnostics(out_dir / "diagnostics.csv", result.records)
    outputs = {"diagnostics": "diagnostics.csv", "snapshots": []}
    for step in sorted(result.snapshots):
        names = _snapshot_files(out_dir, mesh, step, result.snapshots[step])
        outputs["snapshots"].extend(names)
    if kymograph:
        write_kymograph(
            out_dir / "kymograph_vertices.csv",
            out_dir / "kymograph_elements.csv",
            mesh, _kymograph_samples(mesh, result.snapshots),
        )
        outputs["kymograph"] = ["kymograph_vertices.csv",
                                "kymograph_elements.csv"]
    _write_manifest(out_dir, args, cfg, outputs,
                    {"run": result.wall_time})

    last = result.records[-1]
    print(
        f"{scenario.name}: {result.stats.steps} steps to t = {last.t:g} "
        f"({sim.dimension}-d, n = {sim.n_vertices}, dt = {sim.dt:g}); "
        f"max length error {result.stats.max_f1:.3e}, "
        f"max frame defect {result.stats.max_f2:.3e}; "
        f"outputs in {out_dir}"
    )
    return 0


def _refinement_study(args, table, level_row):
    """Preamble, level loop and manifest of `converge` and `compare2d3d`.

    level_row(sim, level, timings) runs one level, adds its wall times to
    timings and returns its row of `table`, which the caller writes.
    Returns the last level's SimConfig, the level range, the output
    directory and the rows.
    """
    cfg = parse_config(args.config)
    scenario = build_scenario(cfg)
    lo, hi = _parse_levels(args.levels)
    # coupled refinement: quarter the step and double the vertex count per
    # level; neither study writes snapshots, so no level keeps state copies
    sims = [build_sim_config(cfg, scenario, dt=4.0 ** (-level),
                             n_vertices=2 ** (4 + level), snapshot_stride=0)
            for level in range(lo, hi + 1)]
    timings = {}
    rows, out_dir = _then_create_out(args, lambda: [
        level_row(sim, level, timings)
        for level, sim in enumerate(sims, start=lo)])
    _write_manifest(out_dir, args, cfg, {"table": table}, timings)
    return sims[-1], f"{lo}..{hi}", out_dir, rows


def cmd_converge(args) -> int:
    def level_row(sim, level, timings):
        result = run(sim)
        timings[f"level_{level}"] = result.wall_time
        stats = result.stats
        return {
            "dt": sim.dt, "n_vertices": sim.n_vertices,
            "max_f1": stats.max_f1, "eoc": None, "max_f2": stats.max_f2,
            "max_f2_increment": stats.max_f2_increment,
        }

    sim, levels, out_dir, rows = _refinement_study(
        args, "converge.csv", level_row)
    # two levels whose errors are both 0 (or one is) have no rate
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = eoc([r["max_f1"] for r in rows], [r["dt"] for r in rows])
    for r, rate in zip(rows[1:], rates):
        r["eoc"] = float(rate) if np.isfinite(rate) else None
    header = ["dt", "n_vertices", "max_f1", "eoc", "max_f2",
              "max_f2_increment"]
    write_table(out_dir / "converge.csv", header,
                [[r[k] for r in rows] for k in header])

    print(f"{sim.scenario.name}: refinement levels {levels} "
          f"({sim.dimension}-d)")
    print(f"{'dt':>12} {'n':>6} {'max_f1':>13} {'eoc':>9} {'max_f2':>13}")
    for r in rows:
        eoc_txt = "" if r["eoc"] is None else f"{r['eoc']:.5f}"
        print(f"{r['dt']:>12.6g} {r['n_vertices']:>6d} {r['max_f1']:>13.6e} "
              f"{eoc_txt:>9} {r['max_f2']:>13.6e}")
    return 0


def cmd_compare2d3d(args) -> int:
    def level_row(sim, level, timings):
        sim2 = dataclasses.replace(sim, dimension=2)
        sim3 = dataclasses.replace(sim, dimension=3)

        # both solvers launch from the same developed planar state, so any
        # drift between their trajectories is solver-induced
        t0 = time.perf_counter()
        planar0 = spun_up_state_2d(sim2)
        timings[f"level_{level}_spin_up"] = time.perf_counter() - t0
        spatial0 = embed_in_space(uniform_mesh(sim.n_vertices), planar0)

        res2 = run(sim2, state=planar0)
        res3 = run(sim3, state=spatial0)
        timings[f"level_{level}_2d"] = res2.wall_time
        timings[f"level_{level}_3d"] = res3.wall_time

        com2 = np.append(res2.records[-1].com, 0.0)
        diff = float(np.linalg.norm(res3.records[-1].com - com2))
        return {
            "dt": sim.dt, "n_vertices": sim.n_vertices,
            "com_difference": diff,
            "com_difference_per_step": diff / step_count(sim.t_final, sim.dt),
            "time_2d": res2.wall_time, "time_3d": res3.wall_time,
            "time_ratio": res3.wall_time / max(res2.wall_time, 1e-12),
        }

    sim, levels, out_dir, rows = _refinement_study(
        args, "compare.csv", level_row)
    header = ["dt", "n_vertices", "com_difference", "com_difference_per_step",
              "time_2d", "time_3d", "time_ratio"]
    write_table(out_dir / "compare.csv", header,
                [[r[k] for r in rows] for k in header])

    print(f"{sim.scenario.name}: planar vs spatial, levels {levels}")
    print(f"{'dt':>12} {'n':>6} {'com diff':>13} {'per step':>13} {'ratio':>7}")
    for r in rows:
        print(f"{r['dt']:>12.6g} {r['n_vertices']:>6d} "
              f"{r['com_difference']:>13.6e} "
              f"{r['com_difference_per_step']:>13.6e} "
              f"{r['time_ratio']:>7.2f}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--config", required=True,
                     help="path to the flat key = value run description")
    sub.add_argument("--out", default="out",
                     help="output directory (created if missing)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rodfem",
        description="mixed finite elements for driven inextensible rods",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_run = subparsers.add_parser(
        "run", help="advance one simulation and export diagnostics")
    _add_common(p_run)

    p_conv = subparsers.add_parser(
        "converge", help="refinement study with a convergence table")
    _add_common(p_conv)
    p_conv.add_argument("--levels", default="0..3",
                        help="inclusive refinement range L0..L1")

    p_cmp = subparsers.add_parser(
        "compare2d3d", help="planar vs spatial solver cross-check")
    _add_common(p_cmp)
    p_cmp.add_argument("--levels", default="0..3",
                       help="inclusive refinement range L0..L1")

    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "converge": cmd_converge,
               "compare2d3d": cmd_compare2d3d}[args.command]
    try:
        return handler(args)
    except (ConfigError, InvalidParameterError, InvalidMeshError) as exc:
        print(f"rodfem: config error: {exc}", file=sys.stderr)
        return 2
    except RodfemError as exc:
        print(f"rodfem: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
