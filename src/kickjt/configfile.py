"""Flat key/value scenario configuration files.

Grammar: one `section.key = value` per line; `#` starts a comment; blank
lines ignored.  Values are numbers or arithmetic expressions (int and float
literals, `+ - * / **`, unary `+ -`, parentheses) over the constants pi and
e and positional calls to sqrt, sin, cos, tan, atan, acos, asin and acot
(so `2*acot(2)` is exact to double precision), comma-separated lists of
such expressions, or inclusive grids written `start:stop:step`.
Expressions are evaluated by walking their syntax tree, never by `eval`.

:func:`read_entries` evaluates no value; each kind (:func:`number`,
:func:`integer`, :func:`number_list`, :func:`grid`) evaluates one entry.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, replace

from .errors import ConfigError
from .model import acot

# the most points a start:stop:step grid may hold; the scale of
# quantum_floquet.MAX_TRACK_STEPS
MAX_GRID_POINTS = 100_000
# Each of these keeps the largest array of a run within 1 GiB at 16 bytes a
# value: the portrait cloud of (q_x, q_y) points, couplings x radii x angles
# x (iterations + 1), and the complex projections of the 2D Husimi grid,
# the square of the section points.
MAX_PORTRAIT_POINTS = 2 ** 26
MAX_SECTION_POINTS = 2 ** 13

_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS = {
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "atan": math.atan,
    "asin": math.asin,
    "acos": math.acos,
    "acot": acot,
}
_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    # float base: an overflowing power raises instead of building a huge int
    ast.Pow: lambda a, b: float(a) ** b,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _evaluate(node: ast.AST):
    """Value of an expression tree made only of whitelisted nodes."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return _CONSTANTS[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_evaluate(node.operand))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and not node.keywords):
        return _FUNCTIONS[node.func.id](*(_evaluate(arg) for arg in node.args))
    raise ValueError(f"{ast.unparse(node)!r} is not allowed")


@dataclass(frozen=True)
class Entry:
    """One `key = value` line of a file: the key, its value text, its line."""

    key: str
    value: str
    line: int


def read_entries(text: str) -> dict[str, Entry]:
    """The entries of a config file by key, in file order; no value is
    evaluated here."""
    entries: dict[str, Entry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        entries[key] = Entry(key, value, lineno)
    return entries


def number(entry: Entry) -> float:
    """One finite numeric expression."""
    try:
        value = float(_evaluate(ast.parse(entry.value.strip(), mode="eval").body))
    except Exception as exc:
        raise ConfigError(f"cannot evaluate {entry.value!r}: {exc}", line=entry.line)
    if not math.isfinite(value):
        raise ConfigError(f"{entry.value!r} is not finite", line=entry.line)
    return value


def integer(entry: Entry) -> int:
    """A numeric expression with an integer value."""
    value = number(entry)
    if value != int(value):
        raise ConfigError(f"{entry.key} must be an integer, got {entry.value!r}", line=entry.line)
    return int(value)


def number_list(entry: Entry) -> list[float]:
    """Comma-separated list of numeric expressions."""
    parts = [p.strip() for p in entry.value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{entry.key} is an empty list", line=entry.line)
    return [number(replace(entry, value=p)) for p in parts]


def grid(entry: Entry) -> list[float]:
    """Inclusive grid 'start:stop:step' of at most MAX_GRID_POINTS points;
    values rounded to 12 decimals."""
    parts = entry.value.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{entry.key} must look like start:stop:step", line=entry.line)
    start, stop, step = (number(replace(entry, value=p)) for p in parts)
    if step <= 0:
        raise ConfigError(f"{entry.key} step must be > 0", line=entry.line)
    if stop < start:
        raise ConfigError(f"{entry.key} has stop < start", line=entry.line)
    # counted before any point is built: a huge grid is refused, not expanded
    intervals = (stop - start) / step + 1e-9
    if intervals >= MAX_GRID_POINTS:
        raise ConfigError(f"{entry.key} has {intervals + 1:.6g} points, more than "
                          f"{MAX_GRID_POINTS}", line=entry.line)
    values = [round(start + k * step, 12) for k in range(math.floor(intervals) + 1)]
    return [v for v in values if v <= stop + 1e-12]
