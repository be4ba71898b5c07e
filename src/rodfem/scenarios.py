"""Driving scenarios: preferred curvature/twist programs plus presets.

A scenario bundles the three preferred fields (two bending components in the
director frame and one twist density), the material, the drag model, and the
protocol constants (spin-up time, rod length).

Custom scenarios are definable from plain strings in u and t through a small
arithmetic expression language (see compile_expr) — enough for polynomial
amplitudes, travelling sinusoids, and window indicators; no user code is ever
executed.
"""

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import ConfigError
from .materials import IsotropicDrag, MaterialParams, ResistiveForceDrag, taper_profile

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


def _const(c: float) -> FieldFunc:
    return lambda u, t: np.full(np.shape(u), float(c))


def _relaxation_kappa1(u, t):
    return 2.0 * np.sin(1.5 * np.pi * np.asarray(u))


def _relaxation_kappa2(u, t):
    return 3.0 * np.cos(1.5 * np.pi * np.asarray(u))


def _relaxation_twist(u, t):
    return 5.0 * np.cos(2.0 * np.pi * np.asarray(u))


def _worm_kappa1(u, t):
    u = np.asarray(u)
    amplitude = 10.0 * u + 8.0 * (1.0 - u)
    return amplitude * np.sin(2.0 * np.pi * u / 0.65 - 0.6 * np.pi * t)


def _worm3d_kappa2(u, t):
    # window closed at the jump: the vertex sitting exactly on 1/3 is inside
    u = np.asarray(u)
    return np.where(u <= 1.0 / 3.0, 6.0, 0.0)


def builtin_scenario(name: str, eps: float = 0.05) -> Scenario:
    """One of the three library presets: relaxation, worm2d, worm3d."""
    if name == "relaxation":
        return Scenario(
            name="relaxation",
            kappa1_pref=_relaxation_kappa1,
            kappa2_pref=_relaxation_kappa2,
            twist_pref=_relaxation_twist,
            material=MaterialParams(1.0, 1.0, 1.0, 1.0, rotary_drag=1.0),
            drag=IsotropicDrag(),
            spin_up=0.0,
        )
    taper = lambda u: taper_profile(u, eps)  # noqa: E731
    worm_material = MaterialParams(
        bend_stiffness=taper,
        bend_viscosity=0.0,
        twist_stiffness=taper,
        twist_viscosity=0.0,
        rotary_drag=1.0,
    )
    if name == "worm2d":
        return Scenario(
            name="worm2d",
            kappa1_pref=_worm_kappa1,
            kappa2_pref=_const(0.0),
            twist_pref=_const(0.0),
            material=worm_material,
            drag=ResistiveForceDrag(40.0),
            spin_up=5.0,
        )
    if name == "worm3d":
        return Scenario(
            name="worm3d",
            kappa1_pref=_worm_kappa1,
            kappa2_pref=_worm3d_kappa2,
            twist_pref=_const(0.0),
            material=worm_material,
            drag=ResistiveForceDrag(40.0),
            spin_up=5.0,
        )
    raise ConfigError(f"unknown scenario preset {name!r}")


# ---------------------------------------------------------------------------
# expression language for custom preferred fields
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/(),]))"
)

_FUNCTIONS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "exp": (np.exp, 1),
    "abs": (np.abs, 1),
    # step(x, lo, hi): 1 on the closed window [lo, hi], 0 outside
    "step": (lambda x, lo, hi: np.where((x >= lo) & (x <= hi), 1.0, 0.0), 3),
}

_CONSTANTS = {"pi": math.pi}


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip() == "":
                break
            raise ConfigError(f"bad character in expression at {src[pos:]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive-descent parser producing a closure over (u, t)."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ConfigError(f"expected {op!r} in expression {self.src!r}")

    def parse(self):
        fn = self.expr()
        if self.peek()[0] != "end":
            raise ConfigError(f"trailing input in expression {self.src!r}")
        return fn

    def expr(self):
        fn = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.next()[1]
            rhs = self.term()
            lhs = fn
            if op == "+":
                fn = lambda env, a=lhs, b=rhs: a(env) + b(env)
            else:
                fn = lambda env, a=lhs, b=rhs: a(env) - b(env)
        return fn

    def term(self):
        fn = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.next()[1]
            rhs = self.factor()
            lhs = fn
            if op == "*":
                fn = lambda env, a=lhs, b=rhs: a(env) * b(env)
            else:
                fn = lambda env, a=lhs, b=rhs: a(env) / b(env)
        return fn

    def factor(self):
        fn = self.unary()
        if self.peek() == ("op", "**"):
            self.next()
            rhs = self.factor()  # right-associative
            lhs = fn
            fn = lambda env, a=lhs, b=rhs: a(env) ** b(env)
        return fn

    def unary(self):
        if self.peek() == ("op", "-"):
            self.next()
            inner = self.unary()
            return lambda env, a=inner: -a(env)
        if self.peek() == ("op", "+"):
            self.next()
            return self.unary()
        return self.atom()

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return lambda env, c=val: c
        if kind == "name":
            if self.peek() == ("op", "("):
                if val not in _FUNCTIONS:
                    raise ConfigError(f"unknown function {val!r} in expression")
                func, arity = _FUNCTIONS[val]
                self.next()
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != arity:
                    raise ConfigError(
                        f"{val} takes {arity} argument(s), got {len(args)}"
                    )
                return lambda env, f=func, a=tuple(args): f(*(g(env) for g in a))
            if val in _CONSTANTS:
                return lambda env, c=_CONSTANTS[val]: c
            if val in ("u", "t"):
                return lambda env, k=val: env[k]
            raise ConfigError(f"unknown name {val!r} in expression")
        if kind == "op" and val == "(":
            fn = self.expr()
            self.expect_op(")")
            return fn
        raise ConfigError(f"could not parse expression {self.src!r}")


def compile_expr(src: str) -> FieldFunc:
    """Compile an expression in u and t into a vectorized field function."""
    body = _Parser(src).parse()

    def fn(u, t):
        out = body({"u": np.asarray(u, dtype=float), "t": float(t)})
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(u)).copy()

    return fn


def evaluate_field(f: FieldFunc, u: np.ndarray, t: float) -> np.ndarray:
    """Evaluate a field function, broadcasting constants to u's shape."""
    out = np.asarray(f(np.asarray(u, dtype=float), float(t)), dtype=float)
    if out.shape != np.shape(u):
        out = np.broadcast_to(out, np.shape(u)).copy()
    return out
