"""Actuation presets and the preferred-field expression language."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodfem.engine3d import SimConfig
from rodfem.errors import ConfigError
from rodfem.materials import IsotropicDrag, ResistiveForceDrag
from rodfem.scenarios import (
    builtin_scenario,
    compile_expr,
    evaluate_field,
)


def test_relaxation_preset_fields():
    scn = builtin_scenario("relaxation")
    u = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(
        evaluate_field(scn.kappa1_pref, u, 3.0), 2.0 * np.sin(1.5 * np.pi * u))
    np.testing.assert_allclose(
        evaluate_field(scn.kappa2_pref, u, 3.0), 3.0 * np.cos(1.5 * np.pi * u))
    np.testing.assert_allclose(
        evaluate_field(scn.twist_pref, u, 3.0), 5.0 * np.cos(2.0 * np.pi * u))
    assert scn.spin_up == 0.0
    assert SimConfig(scn).t_final == 25.0
    assert isinstance(scn.drag, IsotropicDrag)
    np.testing.assert_allclose(scn.drag.matrix, np.eye(3))
    np.testing.assert_allclose(scn.material.bend_stiffness_at(u), 1.0)


def test_swimmer_preset_traveling_wave():
    scn = builtin_scenario("worm2d")
    # hand evaluation of the modulated traveling wave at two points
    for u, t in ((0.25, 0.0), (0.5, 1.5)):
        expected = (10.0 * u + 8.0 * (1.0 - u)) * math.sin(
            2.0 * math.pi * u / 0.65 - 0.6 * math.pi * t)
        got = evaluate_field(scn.kappa1_pref, np.array([u]), t)[0]
        assert got == pytest.approx(expected, rel=1e-14)
    np.testing.assert_allclose(
        evaluate_field(scn.kappa2_pref, np.linspace(0, 1, 5), 2.0), 0.0)
    np.testing.assert_allclose(
        evaluate_field(scn.twist_pref, np.linspace(0, 1, 5), 2.0), 0.0)
    assert scn.spin_up == 5.0
    assert isinstance(scn.drag, ResistiveForceDrag) and scn.drag.k == 40.0


def test_spatial_swimmer_adds_a_plane_breaking_window():
    scn = builtin_scenario("worm3d")
    u = np.array([0.0, 1.0 / 3.0, 0.34, 1.0])
    np.testing.assert_allclose(
        evaluate_field(scn.kappa2_pref, u, 0.7), [6.0, 6.0, 0.0, 0.0])
    # the in-plane wave is shared with the planar swimmer
    planar = builtin_scenario("worm2d")
    uu = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(
        evaluate_field(scn.kappa1_pref, uu, 1.2),
        evaluate_field(planar.kappa1_pref, uu, 1.2))


def test_swimmer_presets_taper_with_epsilon():
    scn = builtin_scenario("worm2d", eps=0.1)
    u = np.array([0.0, 0.5])
    expected = 8.0 * ((0.1 + u) * (0.1 + 1.0 - u)) ** 1.5 / 1.2**3
    np.testing.assert_allclose(scn.material.bend_stiffness_at(u), expected)
    np.testing.assert_allclose(scn.material.twist_stiffness_at(u), expected)
    np.testing.assert_allclose(scn.material.bend_viscosity_at(u), 0.0)
    assert scn.material.rotary_drag == 1.0


def test_unknown_preset_is_rejected():
    with pytest.raises(ConfigError):
        builtin_scenario("squid")


# --- expression language ----------------------------------------------------


def test_expression_matches_manual_evaluation():
    f = compile_expr("2*sin(3*pi*u/2) + t*u**2")
    u = np.linspace(0.0, 1.0, 6)
    np.testing.assert_allclose(
        f(u, 2.0), 2.0 * np.sin(1.5 * np.pi * u) + 2.0 * u**2)


def test_expression_operators():
    u = np.array([0.25])
    assert compile_expr("-u + 3")(u, 0.0)[0] == pytest.approx(2.75)
    assert compile_expr("8/(u+0.75)")(u, 0.0)[0] == pytest.approx(8.0)
    assert compile_expr("2**u**2")(u, 0.0)[0] == pytest.approx(2.0 ** 0.0625)
    # unary minus binds looser than ** on its right, as in Python
    assert compile_expr("-u**2")(u, 0.0)[0] == -0.0625
    assert compile_expr("-2**2")(u, 0.0)[0] == -4.0
    assert compile_expr("2**-u**2")(u, 0.0)[0] == pytest.approx(2.0 ** -0.0625)
    assert compile_expr("abs(0-u)")(u, 0.0)[0] == pytest.approx(0.25)
    assert compile_expr("exp(u)*cos(0)")(u, 0.0)[0] == pytest.approx(
        math.exp(0.25))


def test_window_function_is_closed_at_both_ends():
    f = compile_expr("step(u, 0.25, 0.5)")
    u = np.array([0.2, 0.25, 0.4, 0.5, 0.51])
    np.testing.assert_allclose(f(u, 0.0), [0.0, 1.0, 1.0, 1.0, 0.0])


def test_constant_expressions_broadcast():
    f = compile_expr("1.5")
    u = np.linspace(0, 1, 4)
    out = evaluate_field(f, u, 0.0)
    assert out.shape == u.shape
    np.testing.assert_allclose(out, 1.5)


@pytest.mark.parametrize("src", [
    "2*",             # dangling operator
    "sin(u",          # unbalanced parenthesis
    "foo(u)",         # unknown function
    "u $ t",          # stray character
    "step(u, 1)",     # wrong arity
    "q + 1",          # unknown name
    "u 2",            # trailing input
    "u\x00",          # NUL byte
    "True",           # bool literal
    "1j",             # complex literal
    "u < 1",          # comparison
    "u.real",         # attribute
    "u[0]",           # subscript
    "sin(x=u)",       # keyword argument
    pytest.param("-" * 100000 + "u", id="100000 unary minuses"),
    pytest.param("+".join(["u"] * 3000), id="3000-term sum"),
    # parses, but would nest the closures too deep to evaluate in a run
    pytest.param("-" * 990 + "u", id="990 unary minuses"),
])
def test_malformed_expressions_raise(src):
    with pytest.raises(ConfigError):
        compile_expr(src)


# each expression tree is rendered twice: as the text compile_expr reads, and
# with every number wrapped as F(...), for Python to evaluate as the oracle
F = np.float64
_ORACLE_NAMES = {"F": F, "pi": F(math.pi), "sin": np.sin, "cos": np.cos,
                 "exp": np.exp, "abs": np.abs}


def _binary(args):
    (a, a_f), op, (b, b_f), parenthesize = args
    fmt = "({}) {} ({})" if parenthesize else "{} {} {}"
    return fmt.format(a, op, b), fmt.format(a_f, op, b_f)


def _unary(args):
    op, (a, a_f) = args
    return op + a, op + a_f


def _call(args):
    name, (a, a_f) = args
    return f"{name}({a})", f"{name}({a_f})"


_expressions = st.recursive(
    st.one_of(
        st.integers(0, 9).map(lambda i: (str(i), f"F({i})")),
        st.floats(0.0, 4.0).map(lambda x: (repr(x), f"F({x!r})")),
        st.sampled_from(["u", "t", "pi"]).map(lambda name: (name, name)),
    ),
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", "**"]),
                  children, st.booleans()).map(_binary),
        st.tuples(st.sampled_from(["+", "-"]), children).map(_unary),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]),
                  children).map(_call),
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(_expressions, st.sampled_from([0.0, 1.0 / 16.0, 1.3, 17.25]))
def test_expressions_evaluate_as_python_float64_arithmetic(expr, t):
    text, oracle_text = expr
    u = np.linspace(0.0, 1.0, 5)
    with np.errstate(all="ignore"):
        got = compile_expr(text)(u, t)
        expected = eval(oracle_text, {"__builtins__": {}},  # test oracle only
                        {**_ORACLE_NAMES, "u": u, "t": F(t)})
    assert np.array_equal(got, np.broadcast_to(expected, u.shape),
                          equal_nan=True), text
