"""Driving scenarios: preferred curvature/twist programs plus presets.

A scenario bundles the three preferred fields (two bending components in the
director frame and one twist density), the material, the drag model, and the
protocol constants (spin-up time, rod length).

Fields are written as strings in u and t and compiled by compile_expr:
polynomial amplitudes, travelling sinusoids, window indicators.  The presets
are data in the same language, their moduli too (compile_profile compiles an
expression in u alone), and FIELD_KEYS names each field's config key.
Python's `ast` module parses them, so grammar and precedence are Python's;
closures built over a whitelist of node types (numbers, u, t, pi, + - * / **,
unary + and -, calls of the named functions) evaluate them, and no user code
is ever executed.
Numbers, pi and t are float64 scalars, so 1/t at t = 0 is inf, not an error.
"""

import ast
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import ConfigError
from .materials import IsotropicDrag, MaterialParams, ResistiveForceDrag

FieldFunc = Callable[[np.ndarray, float], np.ndarray]


@dataclass
class Scenario:
    name: str
    kappa1_pref: FieldFunc  # preferred curvature along director 1
    kappa2_pref: FieldFunc  # preferred curvature along director 2
    twist_pref: FieldFunc   # preferred twist density
    material: MaterialParams = field(default_factory=MaterialParams)
    drag: Union[IsotropicDrag, ResistiveForceDrag] = field(default_factory=IsotropicDrag)
    spin_up: float = 0.0
    length: float = 1.0


#: the config key of each preferred field: scenario.alpha0 sets kappa1_pref
FIELD_KEYS = {"kappa1_pref": "alpha0", "kappa2_pref": "beta0",
              "twist_pref": "gamma0"}

_WORM_WAVE = "(10*u + 8*(1 - u))*sin(2*pi*u/0.65 - 0.6*pi*t)"

#: each preset's preferred fields in FIELD_KEYS' order, as expressions;
#: worm3d's window is closed, so a vertex sitting exactly on 1/3 is inside
_PRESET_FIELDS = {
    "relaxation": ("2*sin(1.5*pi*u)", "3*cos(1.5*pi*u)", "5*cos(2*pi*u)"),
    "worm2d": (_WORM_WAVE, "0", "0"),
    "worm3d": (_WORM_WAVE, "6*step(u, 0, 1/3)", "0"),
}

#: the worms' bending and twisting moduli: 1 at the midpoint, thin at the ends
_WORM_TAPER = "8*((0.05 + u)*(1.05 - u))**1.5 / 1.1**3"

#: the names `builtin_scenario` takes
PRESET_NAMES = tuple(_PRESET_FIELDS)


def builtin_scenario(name: str) -> Scenario:
    """One of the library presets named in PRESET_NAMES.

    The two worms share the in-plane wave, the tapered moduli and the drag;
    worm3d adds a preferred curvature of 6 along the second director on
    u <= 1/3.  The fields are compiled anew on each call.
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown scenario preset {name!r} (expected one "
                          f"of {', '.join(PRESET_NAMES)})")
    fields = dict(zip(FIELD_KEYS, map(compile_expr, _PRESET_FIELDS[name])))
    if name == "relaxation":
        return Scenario(name=name, **fields, material=MaterialParams(
            1.0, 1.0, 1.0, 1.0, rotary_drag=1.0))
    taper = compile_profile(_WORM_TAPER)
    return Scenario(name=name, **fields, material=MaterialParams(
        taper, 0.0, taper, 0.0, rotary_drag=1.0),
        drag=ResistiveForceDrag(40.0), spin_up=5.0)


# ---------------------------------------------------------------------------
# expression language for custom preferred fields
# ---------------------------------------------------------------------------

_FUNCTIONS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "exp": (np.exp, 1),
    "abs": (np.abs, 1),
    # step(x, lo, hi): 1 on the closed window [lo, hi], 0 outside
    "step": (lambda x, lo, hi: np.where((x >= lo) & (x <= hi), 1.0, 0.0), 3),
}

_CONSTANTS = {"pi": math.pi}

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: operator.pow, ast.UAdd: operator.pos,
              ast.USub: operator.neg}


def _closure(node):
    """The closure over (u, t) that evaluates one whitelisted ast node."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        c = np.float64(node.value)
        return lambda u, t: c
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return _closure(ast.Constant(_CONSTANTS[node.id]))
    if isinstance(node, ast.Name):
        if node.id in ("u", "t"):
            return (lambda u, t: u) if node.id == "u" else (lambda u, t: t)
        raise ConfigError(f"unknown name {node.id!r} in expression")
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        a, b = _closure(node.left), _closure(node.right)
        op = _OPERATORS[type(node.op)]
        return lambda u, t: op(a(u, t), b(u, t))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        op, a = _OPERATORS[type(node.op)], _closure(node.operand)
        return lambda u, t: op(a(u, t))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and not node.keywords):
        name = node.func.id
        if name not in _FUNCTIONS:
            raise ConfigError(f"unknown function {name!r} in expression")
        func, arity = _FUNCTIONS[name]
        if len(node.args) != arity:
            raise ConfigError(
                f"{name} takes {arity} argument(s), got {len(node.args)}")
        args = tuple(_closure(a) for a in node.args)  # a *x argument fails
        return lambda u, t: func(*(g(u, t) for g in args))
    raise SyntaxError("not in the expression language")


def compile_expr(src: str) -> FieldFunc:
    """Compile an expression in u and t into a vectorized field function."""
    try:
        tree = ast.parse(src, mode="eval")
        if sum(1 for _ in ast.walk(tree)) > 1000:  # bounds the call depth
            raise RecursionError
        body = _closure(tree.body)
    except (SyntaxError, ValueError, OverflowError, RecursionError,
            MemoryError):
        # NUL byte: ValueError; huge integer: OverflowError; deep nesting: rest
        raise ConfigError(f"could not parse expression {src!r}") from None

    def fn(u, t):
        out = body(np.asarray(u, dtype=float), np.float64(t))
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(u)).copy()

    return fn


def compile_profile(src: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression in u alone into a material profile of u."""
    f = compile_expr(src)
    if any(isinstance(node, ast.Name) and node.id == "t"
           for node in ast.walk(ast.parse(src, mode="eval"))):
        raise ConfigError(
            f"a material profile depends on u only, got '{src}'")
    return lambda u: f(u, 0.0)


def evaluate_field(f: FieldFunc, u: np.ndarray, t: float) -> np.ndarray:
    """Evaluate a field function, broadcasting constants to u's shape."""
    out = np.asarray(f(np.asarray(u, dtype=float), float(t)), dtype=float)
    if out.shape != np.shape(u):
        out = np.broadcast_to(out, np.shape(u)).copy()
    return out
