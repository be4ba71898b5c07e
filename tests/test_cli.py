"""Command-line interface: config parsing, outputs, exit codes."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from rodfem import cli
from rodfem.cli import build_scenario, build_sim_config, main, parse_config
from rodfem.engine3d import run, step_count
from rodfem.errors import ConfigError
from rodfem.geometry import uniform_mesh
from rodfem.materials import IsotropicDrag, ResistiveForceDrag
from rodfem.scenarios import builtin_scenario


README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
README_CONFIGS = re.findall(r"```ini\n(.*?)```", README, re.S)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# --- config parsing ---------------------------------------------------------


def test_parse_config_comments_and_whitespace(tmp_path):
    path = write_cfg(tmp_path, """
        # a comment line
        scenario.name = relaxation   # trailing comment

        run.dt = 0.5
    """)
    cfg = parse_config(path)
    assert cfg == {"scenario.name": "relaxation", "run.dt": "0.5"}


@pytest.mark.parametrize("body,needle", [
    ("scenario.nam = relaxation", "scenario.nam"),
    ("scenario.name = relaxation\nscenario.name = worm2d", "duplicate"),
    ("scenario.name relaxation", "key = value"),
    ("scenario.name =", "empty value"),
    ("frame.renormalize_every = 1", "unknown config key"),
    ("material.epsilon = 0.1", "unknown config key 'material.epsilon'"),
])
def test_parse_config_rejections_name_the_problem(tmp_path, body, needle):
    path = write_cfg(tmp_path, body)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert needle in str(err.value)


def test_missing_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.cfg")


# --- scenario construction --------------------------------------------------


def test_build_scenario_presets_and_overrides(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
        scenario.name = worm2d
        material.bend_stiffness = 8*((0.1 + u)*(1.1 - u))**1.5 / 1.2**3
        drag.k = 20
        scenario.spin_up = 2.5
    """))
    scn = build_scenario(cfg)
    assert isinstance(scn.drag, ResistiveForceDrag) and scn.drag.k == 20.0
    assert scn.spin_up == 2.5
    u = np.array([0.5])
    expected = 8.0 * ((0.6 * 0.6) ** 1.5) / 1.2**3
    assert scn.material.bend_stiffness_at(u)[0] == pytest.approx(expected)


@pytest.mark.parametrize("n", [16, 17, 128, 1025])
def test_readme_taper_expression_samples_the_preset_profiles(tmp_path, n):
    taper = re.search(r"material\.bend_stiffness = (.*)", README).group(1)
    scn = build_scenario(parse_config(write_cfg(tmp_path, f"""
        scenario.name = worm2d
        material.bend_stiffness = {taper}
        material.twist_stiffness = {taper}
    """)))
    preset = builtin_scenario("worm2d").material
    mesh = uniform_mesh(n)
    for u in (mesh.u, mesh.midpoints):
        np.testing.assert_array_equal(scn.material.bend_stiffness_at(u),
                                      preset.bend_stiffness_at(u))
        np.testing.assert_array_equal(scn.material.twist_stiffness_at(u),
                                      preset.twist_stiffness_at(u))


def test_readme_shows_configs():
    assert len(README_CONFIGS) >= 2


@pytest.mark.parametrize("text", README_CONFIGS, ids=lambda text: (
    "readme-" + re.search(r"scenario\.name\s*=\s*(\w+)", text).group(1)))
def test_readme_config_parses_builds_and_runs(tmp_path, text):
    # the documented configs stay valid; t_final = 1 keeps each run short
    cfg = parse_config(write_cfg(tmp_path, text))
    sim = build_sim_config(cfg, build_scenario(cfg), t_final=1.0)
    res = run(sim)
    assert res.stats.steps == step_count(sim.scenario.spin_up + 1.0, sim.dt)


def test_build_scenario_custom_fields(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
        scenario.name = custom
        scenario.alpha0 = sin(pi*u)*t
        scenario.gamma0 = 0.5
        drag.kind = isotropic
        drag.k = 2
    """))
    scn = build_scenario(cfg)
    u = np.linspace(0, 1, 5)
    np.testing.assert_allclose(
        scn.kappa1_pref(u, 2.0), 2.0 * np.sin(np.pi * u), atol=1e-14)
    np.testing.assert_allclose(scn.kappa2_pref(u, 1.0), 0.0)
    np.testing.assert_allclose(scn.twist_pref(u, 1.0), 0.5)
    assert isinstance(scn.drag, IsotropicDrag)
    np.testing.assert_allclose(scn.drag.matrix, 2.0 * np.eye(3))


def test_build_scenario_requires_name_and_fields(tmp_path):
    with pytest.raises(ConfigError) as err:
        build_scenario(parse_config(write_cfg(tmp_path, "run.dt = 1")))
    assert "scenario.name" in str(err.value)
    with pytest.raises(ConfigError) as err:
        build_scenario(parse_config(write_cfg(
            tmp_path, "scenario.name = custom")))
    assert "scenario.alpha0" in str(err.value)


@pytest.mark.parametrize("key", ["alpha0", "beta0", "gamma0"])
def test_custom_scenario_expression_errors_name_their_key(tmp_path, key,
                                                          capsys):
    fields = {"alpha0": "0", key: "sin("}
    cfg = write_cfg(tmp_path, "scenario.name = custom\n" + "".join(
        f"scenario.{k} = {v}\n" for k, v in fields.items()))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"scenario.{key}: could not parse expression 'sin('" in err


def test_build_scenario_material_profile_expression(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
        scenario.name = custom
        scenario.alpha0 = 0
        material.bend_stiffness = 1 + u
    """))
    scn = build_scenario(cfg)
    u = np.array([0.0, 1.0])
    np.testing.assert_allclose(scn.material.bend_stiffness_at(u), [1.0, 2.0])


# --- subcommands end to end ---------------------------------------------------


def test_run_writes_diagnostics_snapshots_manifest(tmp_path):
    cfg = write_cfg(tmp_path, "scenario.name = relaxation\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "diagnostics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 26  # initial record plus 25 unit steps
    assert (out / "snap_0.csv").exists() and (out / "snap_25.csv").exists()
    assert (out / "snapel_25.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "rodfem run"
    assert manifest["config"]["scenario.name"] == "relaxation"
    assert "version" in manifest and "platform" in manifest
    assert "diagnostics" in manifest["outputs"]
    assert manifest["timings_s"]["run"] > 0.0


def test_run_planar_engine_and_kymograph(tmp_path):
    cfg = write_cfg(tmp_path, """
        scenario.name = worm2d
        run.dimension = 2
        run.t_final = 2
        run.dt = 0.5
        scenario.spin_up = 1
        output.snapshot_stride = 1
        output.kymograph = true
    """)
    out = tmp_path / "out2d"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "kymograph_vertices.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 5 * 16  # five stored steps, sixteen vertices
    with open(out / "snap_0.csv", newline="") as fh:
        head = next(csv.reader(fh))
    assert head[:4] == ["u", "x", "y", "z"]


def test_exit_codes(tmp_path, monkeypatch):
    bad_key = write_cfg(tmp_path, "scenario.nam = relaxation", "a.cfg")
    assert main(["run", "--config", bad_key, "--out", str(tmp_path)]) == 2
    bad_name = write_cfg(tmp_path, "scenario.name = squid", "b.cfg")
    assert main(["run", "--config", bad_name, "--out", str(tmp_path)]) == 2
    # the residual tolerance is no config key
    tol_key = write_cfg(tmp_path, "scenario.name = relaxation\n"
                        "run.residual_tol = 1e-8", "e.cfg")
    assert main(["run", "--config", tol_key, "--out", str(tmp_path)]) == 2
    # impossible residual demand -> numerical failure
    doomed = write_cfg(tmp_path, """
        scenario.name = relaxation
        run.t_final = 2
    """, "c.cfg")
    with monkeypatch.context() as patch:
        patch.setattr("rodfem.assembly3d.RESIDUAL_TOL", 1e-30)
        assert main(["run", "--config", doomed, "--out", str(tmp_path)]) == 3
    missing = str(tmp_path / "none.cfg")
    assert main(["run", "--config", missing, "--out", str(tmp_path)]) == 2
    good = write_cfg(tmp_path, "scenario.name = relaxation\nrun.t_final = 2",
                     "d.cfg")
    assert main(["converge", "--config", good, "--out", str(tmp_path / "x"),
                 "--levels", "3..1"]) == 2


def test_converge_writes_table_with_rates(tmp_path):
    cfg = write_cfg(tmp_path, "scenario.name = relaxation\n")
    out = tmp_path / "conv"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--levels", "0..1"]) == 0
    with open(out / "converge.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dt", "n_vertices", "max_f1", "eoc", "max_f2",
                       "max_f2_increment"]
    assert rows[1][3] == ""  # first level carries no rate
    assert float(rows[2][3]) == pytest.approx(1.30952, abs=1e-4)
    assert rows[1][1] == "16" and rows[2][1] == "32"
    assert float(rows[2][0]) == 0.25


def test_converge_single_level_has_empty_rate_column(tmp_path):
    cfg = write_cfg(tmp_path, "scenario.name = relaxation\nrun.t_final = 5")
    out = tmp_path / "conv1"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--levels", "0"]) == 0
    with open(out / "converge.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][3] == ""


@pytest.mark.filterwarnings("error")
def test_converge_leaves_an_undefined_rate_empty(tmp_path, capsys):
    # an undriven straight rod keeps its length exactly at every level, so
    # no two levels have a rate: 0 / 0 errors give none, not nan
    cfg = write_cfg(tmp_path, "scenario.name = custom\nscenario.alpha0 = 0\n"
                              "run.t_final = 1\n")
    out = tmp_path / "conv0"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--levels", "0..2"]) == 0
    with open(out / "converge.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[2] for r in rows[1:]] == ["0", "0", "0"]
    assert [r[3] for r in rows[1:]] == ["", "", ""]
    printed = capsys.readouterr()
    assert "nan" not in printed.out and printed.err == ""


def test_compare_table_columns_and_agreement(tmp_path):
    cfg = write_cfg(tmp_path, "scenario.name = worm2d\nrun.t_final = 5\n")
    out = tmp_path / "cmp"
    assert main(["compare2d3d", "--config", cfg, "--out", str(out),
                 "--levels", "0..0"]) == 0
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dt", "n_vertices", "com_difference",
                       "com_difference_per_step", "time_2d", "time_3d",
                       "time_ratio"]
    assert float(rows[1][2]) < 1e-9
    assert float(rows[1][6]) > 0.0


@pytest.mark.parametrize("command", ["converge", "compare2d3d"])
def test_refinement_studies_keep_no_snapshots(tmp_path, monkeypatch, command):
    # neither study writes snapshots, so a snapshot stride in the config
    # must not make its levels keep state copies; compare2d3d runs both
    # models per level
    kept = []
    inner = cli.run

    def counting_run(*args, **kwargs):
        result = inner(*args, **kwargs)
        kept.append(len(result.snapshots))
        return result

    monkeypatch.setattr(cli, "run", counting_run)
    cfg = write_cfg(tmp_path, "scenario.name = worm2d\nrun.dimension = 2\n"
                    "run.t_final = 2\noutput.snapshot_stride = 1\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--levels", "0..1"]) == 0
    assert kept == [2] * (2 if command == "converge" else 4)


@pytest.mark.parametrize("command, out", [
    ("run", "taken"),
    ("run", "dangling"),
    ("converge", "taken/sub"),
])
def test_out_that_cannot_be_a_directory_is_rejected_before_any_step(
        tmp_path, monkeypatch, capsys, command, out):
    calls = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(1))
    (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    cfg = write_cfg(tmp_path, "scenario.name = relaxation\n")
    levels = [] if command == "run" else ["--levels", "0..1"]
    assert main([command, "--config", cfg, "--out", str(tmp_path / out),
                 *levels]) == 2
    assert "--out" in capsys.readouterr().err
    assert calls == []
    assert (tmp_path / "taken").read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("command", ["converge", "compare2d3d"])
def test_rejected_study_leaves_no_output_directory(tmp_path, command):
    cfg = write_cfg(tmp_path, "scenario.name = relaxation\n"
                    "scenario.alpha0 = 1/u\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--levels", "0..1"]) == 2
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,dimension,expr", [
    pytest.param(name, dimension, expr, id=f"{name}-{dimension}"
                 + ("" if expr == "1/u" else f"-{expr}"))
    for name, dimension in (("worm2d", 2), ("relaxation", 3))
    for expr in ("1/u", "u + 1/t", "10**400")
])
def test_non_finite_preferred_curvature_is_a_config_error(tmp_path, name,
                                                          dimension, expr,
                                                          capsys):
    cfg = write_cfg(tmp_path, f"""
        scenario.name = {name}
        run.dimension = {dimension}
        run.dt = 0.25
        run.t_final = 1
        scenario.spin_up = 0
        scenario.alpha0 = {expr}
    """)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "scenario.alpha0" in err and "t=0" in err and "vertex 0" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_non_finite_material_profile_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.name = relaxation\n"
                    "material.bend_stiffness = 1/0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "bend_stiffness" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["bend_stiffness", "twist_viscosity"])
def test_time_dependent_material_profile_is_a_config_error(tmp_path, key,
                                                           capsys):
    cfg = write_cfg(tmp_path, "scenario.name = relaxation\n"
                    f"material.{key} = 1 + t\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"material.{key}" in err and "u only" in err
    assert not out.exists()


def test_bad_kymograph_flag_is_rejected_before_the_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
        scenario.name = worm2d
        run.n_vertices = 8
        run.dt = 0.25
        run.t_final = 1
        output.kymograph = maybe
    """)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "output.kymograph" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,key", [
    ("run.t_final = nan", "t_final"),
    ("run.t_final = inf", "t_final"),
    ("scenario.spin_up = nan", "spin_up"),
    *(pytest.param(f"run.dimension = {dimension}\nscenario.length = {length}",
                   "scenario.length",
                   id=f"scenario.length = {length}-{dimension}d")
      for length in ("nan", "inf", "0", "-1") for dimension in (2, 3)),
    # duration / dt overflows to inf, so no step count exists
    pytest.param("run.dt = 1e-320", "t_final", id="subnormal-dt"),
    pytest.param("run.dt = 0.0009765625\nscenario.spin_up = 1e306",
                 "scenario.spin_up", id="uncountable-spin_up"),
])
def test_non_finite_horizon_or_spin_up_is_a_config_error(tmp_path, line, key,
                                                         capsys):
    cfg = write_cfg(tmp_path, f"scenario.name = worm2d\n{line}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "run: scenario." not in err  # scenario fields keep their section
    assert not out.exists()  # rejected before any step or output


def test_overriding_a_preset_field_changes_the_run(tmp_path):
    # worm3d without its out-of-plane drive stays in the plane it starts in
    def max_abs_z(override):
        cfg = write_cfg(tmp_path, "scenario.name = worm3d\n"
                        "run.n_vertices = 8\nrun.dt = 0.25\nrun.t_final = 1\n"
                        f"output.snapshot_stride = 1\n{override}")
        out = tmp_path / f"out{len(override)}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        snaps = sorted(out.glob("snap_*.csv"))
        assert len(snaps) == 5
        return max(np.abs(np.genfromtxt(p, delimiter=",", names=True)["z"])
                   .max() for p in snaps)

    assert max_abs_z("scenario.beta0 = 0\n") <= 1e-10
    assert max_abs_z("") > 1e-3
