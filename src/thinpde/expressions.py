"""Closed-form scalar expressions: parsing, evaluation, derivatives.

Every coefficient and geometry function of a thin-domain problem is given as
an expression string over the variables ``x1 .. xN`` and ``y`` (``y`` is the
vertical coordinate and, by convention, the last slot of an evaluation
point).  Expressions are parsed once into an immutable AST; evaluation is
pure, so a parsed expression may be shared freely between threads.

Evaluation is array-valued: one point (1-D, giving a float) and an (m, d)
array of points (giving (m,)) run the same interpreter over numpy arrays.
Domain errors (sqrt of a negative, 1/0, pow undefined or overflowing, exp
overflow, sin/cos of an infinity, a non-finite result) raise
:class:`EvalDomainError` with the error that pointwise evaluation would stop
at on the first offending point, even where a later min/max hides the value.

Analytic first/second derivatives may be registered per variable; anything
not registered falls back to central finite differences.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "parse",
    "ScalarField",
    "VectorField",
    "FD_STEP_ORDER1",
    "FD_STEP_ORDER2",
]

FD_STEP_ORDER1 = 1e-5
FD_STEP_ORDER2 = 1e-4

_FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "sqrt": (1, np.sqrt),
    "abs": (1, np.abs),
    "min": (2, None),
    "max": (2, None),
    "pow": (2, np.power),
}

_CONSTANTS = {"pi": math.pi}

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")
_NUM_RE = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class ExprError(ValueError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    """Malformed input; carries the byte offset and what was expected."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at offset {offset}: expected {expected}")


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, offset: int = -1):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier '{name}'")


class EvalDomainError(ExprError):
    """Evaluation left the expression's domain (sqrt of a negative, 1/0)."""


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x1".."xK" or "y"


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    fname: str
    args: tuple


def _var_position(name: str, npoint: int) -> int:
    """Map a variable name to its slot in an evaluation point.

    ``y`` always denotes the last slot; ``xk`` is slot ``k-1``.
    """
    if name == "y":
        return npoint - 1
    k = int(name[1:])
    if k > npoint:
        raise EvalDomainError(f"variable {name} needs a point with >= {k} coordinates, got {npoint}")
    return k - 1


class _Faults:
    """The first domain error of each evaluated row; the lowest row's is raised, as a row-by-row loop would."""

    def __init__(self, rows: int):
        self.failed = np.zeros(rows, dtype=bool)
        self.first: tuple[int, str] | None = None

    def check(self, bad: np.ndarray, message) -> None:
        """Record the rows flagged in ``bad``; ``message(i)`` describes row i."""
        new = bad & ~self.failed
        if new.any():
            i = int(np.flatnonzero(new)[0])
            if self.first is None or i < self.first[0]:
                self.first = (i, message(i))
            self.failed |= new


def _eval_node(node, points: np.ndarray, faults: _Faults) -> np.ndarray:
    """Value of ``node`` at every row of ``points`` (shape (m, d)); shape (m,)."""
    if isinstance(node, Const):
        return np.full(len(points), node.value)
    if isinstance(node, Var):
        return points[:, _var_position(node.name, points.shape[1])].copy()
    if isinstance(node, Neg):
        return -_eval_node(node.operand, points, faults)
    if isinstance(node, Bin):
        a = _eval_node(node.lhs, points, faults)
        b = _eval_node(node.rhs, points, faults)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        faults.check(b == 0.0, lambda i: "division by zero")
        return a / b
    args = [_eval_node(a, points, faults) for a in node.args]
    x = args[0]
    f = node.fname
    # Python's min/max: the second argument wins only on a strict comparison
    if f == "min":
        return np.where(args[1] < x, args[1], x)
    if f == "max":
        return np.where(args[1] > x, args[1], x)
    if f == "sqrt":
        faults.check(x < 0.0, lambda i: f"sqrt of negative value {x[i]}")
    if f in ("sin", "cos"):
        faults.check(np.isinf(x), lambda i: f"{f} of infinite argument {x[i]}")
    out = _FUNCTIONS[f][1](*args)
    # math.pow/math.exp semantics: finite arguments must give a finite value
    if f == "pow":
        bad = np.isfinite(x) & np.isfinite(args[1]) & ~np.isfinite(out)
        faults.check(bad, lambda i: f"pow({x[i]}, {args[1][i]}) undefined")
    if f == "exp":
        faults.check(np.isfinite(x) & ~np.isfinite(out), lambda i: f"exp overflow at argument {[float(x[i])]}")
    return out


def _collect_vars(node, out: set):
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_vars(node.operand, out)
    elif isinstance(node, Bin):
        _collect_vars(node.lhs, out)
        _collect_vars(node.rhs, out)
    elif isinstance(node, Call):
        for a in node.args:
            _collect_vars(a, out)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _print_node(node) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _print_node(node.operand)
        if isinstance(node.operand, (Const, Var, Call)):
            return "-" + inner
        return "-(" + inner + ")"
    if isinstance(node, Bin):
        p = _PREC[node.op]
        lhs = _print_node(node.lhs)
        rhs = _print_node(node.rhs)
        # left-associative grammar: right operands of equal precedence keep parens
        if isinstance(node.lhs, Bin) and _PREC[node.lhs.op] < p or isinstance(node.lhs, Neg):
            lhs = "(" + lhs + ")"
        if isinstance(node.rhs, (Bin, Neg)) and (isinstance(node.rhs, Neg) or _PREC[node.rhs.op] <= p):
            rhs = "(" + rhs + ")"
        return f"{lhs} {node.op} {rhs}"
    return node.fname + "(" + ", ".join(_print_node(a) for a in node.args) + ")"


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ExprSyntaxError(self.pos, f"'{ch}'")
        self.pos += 1

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        m = _NUM_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Const(float(m.group()))
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if self.peek() == "(":
                if name not in _FUNCTIONS:
                    raise UnknownIdentifierError(name, start)
                arity = _FUNCTIONS[name][0]
                self.pos += 1
                args = [self.parse_expr()]
                while self.peek() == ",":
                    self.pos += 1
                    args.append(self.parse_expr())
                self.expect(")")
                if len(args) != arity:
                    raise ExprSyntaxError(start, f"{arity} argument(s) to {name}")
                return Call(name, tuple(args))
            if name == "y" or _VAR_RE.match(name):
                return Var(name)
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            raise UnknownIdentifierError(name, start)
        raise ExprSyntaxError(self.pos, "expression")


class Expr:
    """Parsed expression with an optional registry of analytic derivatives.

    The AST is immutable; the derivative registry is meant to be filled at
    setup time (e.g. while loading a problem config) and treated as frozen
    afterwards, keeping evaluation thread-safe.
    """

    def __init__(self, root, source: str | None = None):
        self.root = root
        self.source = source
        self._derivs: dict[tuple[str, ...], Expr] = {}

    @property
    def derivatives(self) -> dict[tuple[str, ...], "Expr"]:
        return self._derivs

    def register_derivative(self, variables: str | Sequence[str], expr: "Expr | str") -> None:
        """Attach an analytic derivative w.r.t. the given variable(s).

        ``variables`` is one name for d/dv, a pair for a second derivative
        (pure or mixed, order-insensitive).
        """
        key = (variables,) if isinstance(variables, str) else tuple(variables)
        if len(key) not in (1, 2):
            raise ValueError("only first and second derivatives can be registered")
        if isinstance(expr, str):
            expr = parse(expr)
        self._derivs[key] = expr
        if len(key) == 2 and key[0] != key[1]:
            self._derivs[(key[1], key[0])] = expr

    def registered(self, variables: Sequence[str]) -> "Expr | None":
        return self._derivs.get(tuple(variables))

    def evaluate(self, point):
        """Value at one point (1-D, a float) or at each row of an (m, d) array, shape (m,)."""
        pts = np.asarray(point, dtype=float)
        rows = pts.reshape(1, -1) if pts.ndim == 1 else pts
        faults = _Faults(len(rows))
        with np.errstate(all="ignore"):
            v = _eval_node(self.root, rows, faults)
        faults.check(~np.isfinite(v), lambda i: f"non-finite value {v[i]}")
        if faults.first is not None:
            i, message = faults.first
            raise EvalDomainError(f"{message} at {tuple(float(c) for c in rows[i])}")
        return float(v[0]) if pts.ndim == 1 else v

    def free_variables(self) -> set[str]:
        out: set = set()
        _collect_vars(self.root, out)
        return out

    def to_string(self) -> str:
        return _print_node(self.root)

    def __repr__(self) -> str:
        return f"Expr({self.to_string()!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.root == other.root

    def __hash__(self):
        return hash(repr(self.root))


def parse(text: str) -> Expr:
    """Parse an expression string.

    Grammar: standard precedence (unary minus > ``* /`` > ``+ -``),
    parentheses, call syntax for sin, cos, exp, sqrt, abs, min, max, pow.
    ``pi`` is a built-in constant.
    """
    if not text or not text.strip():
        raise ExprSyntaxError(0, "nonempty expression")
    p = _Parser(text)
    node = p.parse_expr()
    p.skip_ws()
    if p.pos != len(text):
        raise ExprSyntaxError(p.pos, "end of input")
    return Expr(node, source=text)


def _quotients():
    """Difference quotients combine values as float arithmetic does: an overflow
    gives inf or nan without a numpy warning, for one point as for many."""
    return np.errstate(over="ignore", invalid="ignore")


def _fd1(e: Expr, pos: int, point, step: float):
    p = np.array(point, dtype=float)
    p[..., pos] += step
    hi = e.evaluate(p)
    p[..., pos] -= 2 * step
    lo = e.evaluate(p)
    return (hi - lo) / (2 * step)


def _fd2(e: Expr, pos: int, point, step: float):
    p = np.array(point, dtype=float)
    mid = e.evaluate(p)
    p[..., pos] += step
    hi = e.evaluate(p)
    p[..., pos] -= 2 * step
    lo = e.evaluate(p)
    return (hi - 2 * mid + lo) / (step * step)


# --- differentiable fields -------------------------------------------------


class ScalarField:
    """Expression over a fixed tuple of variables, with gradient and Hessian.

    ``var_names`` fixes the meaning of each point slot, e.g. ``("x1", "y")``
    for a field on a strip or ``("x1",)`` for a field on the base domain.
    Analytic derivatives registered on the expression are used when present;
    mixed second derivatives fall back to differencing a registered first
    derivative before resorting to a full finite-difference stencil.
    """

    def __init__(self, expr: Expr | str, var_names: Sequence[str]):
        self.expr = parse(expr) if isinstance(expr, str) else expr
        self.var_names = tuple(var_names)

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def value(self, point):
        return self.expr.evaluate(point)

    def _d1(self, j: int, point):
        reg = self.expr.registered((self.var_names[j],))
        if reg is not None:
            return reg.evaluate(point)
        return _fd1(self.expr, j, point, FD_STEP_ORDER1)

    def grad(self, point) -> np.ndarray:
        """Gradient at one point, shape (n,), or at each row of an (m, n) array, shape (m, n)."""
        with _quotients():
            return np.stack([self._d1(j, point) for j in range(self.nvars)], axis=-1)

    def hess(self, point) -> np.ndarray:
        """Hessian at one point, shape (n, n), or at each row of an (m, n) array, shape (m, n, n)."""
        n = self.nvars
        h = np.empty(np.shape(point)[:-1] + (n, n))
        with _quotients():
            for i in range(n):
                for j in range(i, n):
                    h[..., i, j] = h[..., j, i] = self._d2(i, j, point)
        return h

    def _d2(self, i: int, j: int, point):
        reg = self.expr.registered((self.var_names[i], self.var_names[j]))
        if reg is not None:
            return reg.evaluate(point)
        if i == j:
            d1 = self.expr.registered((self.var_names[i],))
            if d1 is not None:
                return _fd1(d1, i, point, FD_STEP_ORDER1)
            return _fd2(self.expr, i, point, FD_STEP_ORDER2)
        for a, b in ((i, j), (j, i)):
            d1 = self.expr.registered((self.var_names[a],))
            if d1 is not None:
                return _fd1(d1, b, point, FD_STEP_ORDER1)
        # mixed second difference
        s = FD_STEP_ORDER2
        p = np.asarray(point, dtype=float)
        val = 0.0
        for si in (1.0, -1.0):
            for sj in (1.0, -1.0):
                q = p.copy()
                q[..., i] += si * s
                q[..., j] += sj * s
                val += si * sj * self.expr.evaluate(q)
        return val / (4 * s * s)

    def __repr__(self):
        return f"ScalarField({self.expr.to_string()!r}, vars={self.var_names})"


class VectorField:
    """Tuple of scalar fields sharing one variable list."""

    def __init__(self, components: Iterable[ScalarField]):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("vector field needs at least one component")
        names = {f.var_names for f in self.components}
        if len(names) != 1:
            raise ValueError("vector field components must share variables")
        self.var_names = self.components[0].var_names

    def __len__(self):
        return len(self.components)

    def value(self, point) -> np.ndarray:
        """Components at one point, shape (k,), or at each row of an (m, n) array, shape (m, k)."""
        return np.stack([f.value(point) for f in self.components], axis=-1)

    def jacobian(self, point) -> np.ndarray:
        """Rows are components, columns derivative directions; a leading m axis for point arrays."""
        return np.stack([f.grad(point) for f in self.components], axis=-2)


def strip_vars(n: int) -> tuple[str, ...]:
    """Variable names for a field on the N+1 dimensional strip."""
    return tuple(f"x{k}" for k in range(1, n + 1)) + ("y",)


def base_vars(n: int) -> tuple[str, ...]:
    """Variable names for a field on the N dimensional base domain."""
    return tuple(f"x{k}" for k in range(1, n + 1))
