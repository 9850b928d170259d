"""Flat key/value scenario configuration files.

Grammar: one `section.key = value` per line; `#` starts a comment; blank
lines ignored.  Values are numbers or arithmetic expressions (int and float
literals, `+ - * / **`, unary `+ -`, parentheses) over the constants pi and
e and positional calls to sqrt, sin, cos, tan, atan, acos, asin and acot
(so `2*acot(2)` is exact to double precision), comma-separated lists of
such expressions, or inclusive grids written `start:stop:step`.
Expressions are evaluated by walking their syntax tree, never by `eval`.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass

from .errors import ConfigError
from .model import acot

# the most points a start:stop:step grid may hold; the scale of
# quantum_floquet.MAX_TRACK_STEPS
MAX_GRID_POINTS = 100_000

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
class _Entry:
    value: str
    line: int


class ScenarioConfig:
    """Parsed configuration with typed, validating accessors.

    Every accessor records the key it looks up, so after a run
    :meth:`unread` names the keys the file sets that nothing read."""

    def __init__(self, entries: dict[str, _Entry]):
        self._entries = entries
        self._read: set[str] = set()

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        entries: dict[str, _Entry] = {}
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
            entries[key] = _Entry(value=value, line=lineno)
        return cls(entries)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        return cls.from_text(text)

    def _lookup(self, key: str) -> _Entry | None:
        """The entry of key, None when the file does not set it; either way
        key now counts as read."""
        self._read.add(key)
        return self._entries.get(key)

    def unread(self) -> list[tuple[str, int]]:
        """(key, line) of every key set in the file that no accessor has
        looked up, in file order."""
        return [(key, entry.line) for key, entry in self._entries.items()
                if key not in self._read]

    def _eval_number(self, expr: str, line: int) -> float:
        try:
            value = float(_evaluate(ast.parse(expr.strip(), mode="eval").body))
        except Exception as exc:
            raise ConfigError(f"cannot evaluate {expr!r}: {exc}", line=line)
        if not math.isfinite(value):
            raise ConfigError(f"{expr!r} is not finite", line=line)
        return value

    def get_float(self, key: str, default: float | None = None) -> float | None:
        entry = self._lookup(key)
        return default if entry is None else self._eval_number(entry.value, entry.line)

    def require_float(self, key: str) -> float:
        value = self.get_float(key)
        if value is None:
            raise ConfigError(f"missing required key {key!r}")
        return value

    def get_int(self, key: str, default: int | None = None) -> int | None:
        entry = self._lookup(key)
        if entry is None:
            return default
        value = self._eval_number(entry.value, entry.line)
        if value != int(value):
            raise ConfigError(f"{key} must be an integer, got {entry.value!r}", line=entry.line)
        return int(value)

    def get_floats(self, key: str, default=None) -> list[float] | None:
        """Comma-separated list of numeric expressions."""
        entry = self._lookup(key)
        if entry is None:
            return default
        parts = [p.strip() for p in entry.value.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{key} is an empty list", line=entry.line)
        return [self._eval_number(p, entry.line) for p in parts]

    def get_grid(self, key: str) -> list[float] | None:
        """Inclusive grid 'start:stop:step' of at most MAX_GRID_POINTS
        points; values rounded to 12 decimals."""
        entry = self._lookup(key)
        if entry is None:
            return None
        parts = entry.value.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{key} must look like start:stop:step", line=entry.line)
        start, stop, step = (self._eval_number(p, entry.line) for p in parts)
        if step <= 0:
            raise ConfigError(f"{key} step must be > 0", line=entry.line)
        if stop < start:
            raise ConfigError(f"{key} has stop < start", line=entry.line)
        # counted before any point is built: a huge grid is refused, not expanded
        intervals = (stop - start) / step + 1e-9
        if intervals >= MAX_GRID_POINTS:
            raise ConfigError(f"{key} has {intervals + 1:.6g} points, more than "
                              f"{MAX_GRID_POINTS}", line=entry.line)
        values = [round(start + k * step, 12) for k in range(math.floor(intervals) + 1)]
        return [v for v in values if v <= stop + 1e-12]

    def lambda_values(self) -> list[float]:
        """Coupling values from model.lambda_grid or model.lambda_list;
        ascending and non-empty."""
        values = self.get_grid("model.lambda_grid")
        if values is None:
            values = self.get_floats("model.lambda_list")
        if not values:
            raise ConfigError("no coupling values: set model.lambda_grid or "
                              "model.lambda_list")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("coupling values must be strictly ascending")
        if values[0] < 0:
            raise ConfigError("couplings must be >= 0")
        return values
