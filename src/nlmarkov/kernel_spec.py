"""Load nonlinear kernels from a small text format.

A kernel file is JSON:

    {
      "space_size": 2,
      "label": "my-kernel",
      "entries": [["max(min(nu(2), 0.75), 0.25)", "..."],
                  ["...", "..."]]
    }

``entries[i][j]`` is an arithmetic expression for the transition
probability from state i+1 to state j+1, evaluated against the current
measure.  The expression grammar (states are 1-based in ``nu(k)``):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := NUMBER | "nu" "(" INT ")"
            | "min" "(" expr "," expr ")" | "max" "(" expr "," expr ")"
            | "(" expr ")" | "-" factor

No division, no exponentiation, no free variables, and at most
``MAX_NESTING`` levels of nesting.  The n^2 entries compile into one
program of numpy ufuncs over a batch of measures, with each repeated
subexpression evaluated once.  ``kernels.validate`` then checks the
kernel on a simplex grid and rejects it if any row fails to be a
probability vector there.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .kernels import NonlinearKernel

__all__ = ["compile_kernel_spec", "KernelSpecError"]


class KernelSpecError(ValueError):
    """Malformed kernel file or expression."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<word>nu|min|max|[(),+*-]))"
)


def _tokenize(text: str) -> list:
    """Numbers as floats, names and punctuation as strings."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise KernelSpecError(f"bad character at {text[pos:pos + 8]!r}")
        tokens.append(m.group("word") or float(m.group("num")))
        pos = m.end()
    return tokens


MAX_NESTING = 100

_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply,
           "min": np.minimum, "max": np.maximum}


class _Compiler:
    """Recursive descent over the grammar above into straight-line code
    shared by every expression it compiles.  ``code`` maps each
    instruction ``(op, a, b)`` to its position, in emission order:
    ``("num", value, None)`` and ``("nu", state, None)`` are leaves, the
    ops of ``_BINARY`` take their operands' positions.  An instruction is
    emitted once, so a repeated subexpression is evaluated once."""

    def __init__(self, space_size: int):
        self.n = space_size
        self.code: dict = {}

    def compile(self, text) -> int:
        """Compile one expression; return the position of its value."""
        if not isinstance(text, str) or not text.strip():
            raise KernelSpecError("entry expression must be a nonempty string")
        self.tokens, self.i, self.depth = _tokenize(text), 0, 0
        root = self.expr()
        if self.peek() is not None:
            raise KernelSpecError(f"trailing input at {self.peek()!r}")
        return root

    def emit(self, op, a, b=None) -> int:
        return self.code.setdefault((op, a, b), len(self.code))

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise KernelSpecError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise KernelSpecError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def expr(self) -> int:
        left = self.term()
        while self.peek() in ("+", "-"):
            left = self.emit(self.take(), left, self.term())
        return left

    def term(self) -> int:
        left = self.factor()
        while self.peek() == "*":
            left = self.emit(self.take(), left, self.factor())
        return left

    def factor(self) -> int:
        self.depth += 1  # every nesting passes through here
        if self.depth > MAX_NESTING:
            raise KernelSpecError(f"expression nests deeper than {MAX_NESTING} levels")
        tok = self.take()
        if isinstance(tok, float):
            pos = self.emit("num", tok)
        elif tok == "-":  # multiplying by -1 negates exactly
            pos = self.emit("*", self.emit("num", -1.0), self.factor())
        elif tok == "(":
            pos = self.expr()
            self.take(")")
        elif tok == "nu":
            self.take("(")
            k = self.take()
            self.take(")")
            if not isinstance(k, float) or not k.is_integer() or not 1 <= k <= self.n:
                raise KernelSpecError(f"nu({k}) is not one of the {self.n} states")
            pos = self.emit("nu", int(k) - 1)
        elif tok in ("min", "max"):
            self.take("(")
            a = self.expr()
            self.take(",")
            pos = self.emit(tok, a, self.expr())
            self.take(")")
        else:
            raise KernelSpecError(f"unexpected token {tok!r}")
        self.depth -= 1
        return pos


def _run(code: dict, w: np.ndarray) -> list:
    """Values, of shape w.shape[:-1], of every instruction at weights w."""
    vals = []
    for op, a, b in code:
        if op == "nu":
            vals.append(w[..., a])
        elif op == "num":
            vals.append(np.full(w.shape[:-1], a))
        else:
            vals.append(_BINARY[op](vals[a], vals[b]))
    return vals


def compile_kernel_spec(text: str) -> NonlinearKernel:
    """Build a NonlinearKernel from the JSON text of a kernel file,
    without validating its rows: the caller validates it on its own grid.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise KernelSpecError(f"not valid JSON: {exc}") from exc
    try:
        n = int(doc["space_size"])
        entries = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise KernelSpecError(f"missing or malformed field: {exc}") from exc
    label = str(doc.get("label", "custom"))
    if n < 1:
        raise KernelSpecError("space_size must be positive")
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or any(not isinstance(row, list) or len(row) != n for row in entries)
    ):
        raise KernelSpecError(f"entries must be an {n} x {n} matrix of strings")

    compiler = _Compiler(n)
    roots = [compiler.compile(entry) for row in entries for entry in row]

    def rows(w: np.ndarray) -> np.ndarray:
        # past the float range, an infinity or a NaN that the row checks name
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _run(compiler.code, w)
        return np.array([vals[r] for r in roots]).T.reshape(-1, n, n)

    return NonlinearKernel(n, rows, label)
