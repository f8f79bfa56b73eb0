"""Closed-form scalar expressions: parsing, evaluation, derivatives.

Every coefficient and geometry function of a thin-domain problem is given as
an expression string over the variables ``x1 .. xN`` and ``y`` (``y`` is the
vertical coordinate and, by convention, the last slot of an evaluation
point).  Expressions are parsed once into an immutable AST; evaluation is
pure, so a parsed expression may be shared freely between threads.

Evaluation takes (m, d) point arrays only, one point per row (a single
point is a one-row array), and gives shape (m,) from one interpreter over
numpy arrays.  A tree of constants, negations and ``+ - * /`` skips the
interpreter: its value is computed once, in Python floats (IEEE arithmetic,
as numpy's), and returned as a fresh array; a division by zero or a
non-finite value among such trees is left to the interpreter, which raises.
Domain errors (sqrt of a negative, 1/0, pow undefined or overflowing, exp
overflow, sin/cos of an infinity, a non-finite result) raise
:class:`EvalDomainError` with the error that pointwise evaluation would stop
at on the first offending point, even where a later min/max hides the value.

Derivatives are exact: :meth:`Expr.derivative` differentiates the AST,
folding constants, into an expression for the same interpreter.  Where a
derivative does not exist (a kink of abs/min/max, sqrt at 0, pow with a
varying exponent and a base <= 0) its evaluation raises
:class:`EvalDomainError` at that point.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

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
    if f == "kink":
        faults.check(x == args[1], lambda i: f"no derivative at a kink of abs/min/max (both sides {x[i]})")
        return np.where(x < args[1], args[2], args[3])
    if f == "log":
        faults.check(x <= 0.0, lambda i: f"no derivative of pow with a varying exponent at base {x[i]}")
        return np.log(x)
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


# --- symbolic derivatives ------------------------------------------------------
#
# Derivative trees may hold two calls the parser rejects: kink (see _kink),
# and log, which raises where its argument is <= 0.  A folded constant that
# vanishes is +0.0, whatever sign the arithmetic left.

_ZERO = Const(0.0)
_ONE = Const(1.0)

_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _const_value(node) -> float | None:
    """Value of a tree of Const, Neg and + - * / nodes; None for any other tree, a division by zero or a non-finite value."""
    if isinstance(node, Const):
        value = node.value
    elif isinstance(node, Neg):
        value = _const_value(node.operand)
        return None if value is None else -value
    elif isinstance(node, Bin):
        a, b = _const_value(node.lhs), _const_value(node.rhs)
        if a is None or b is None or node.op == "/" and b == 0.0:
            return None
        value = _FOLD[node.op](a, b)
    else:
        return None
    return value if math.isfinite(value) else None


def _is_const(node, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def _neg(a):
    if isinstance(a, Const):
        return Const(-a.value or 0.0)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _bin(op: str, a, b):
    """Bin(op, a, b) with constant operands folded and the 0/1 identities applied."""
    if isinstance(a, Const) and isinstance(b, Const) and not (op == "/" and b.value == 0.0):
        return Const(_FOLD[op](a.value, b.value) or 0.0)
    if op == "*" and (_is_const(a, 0.0) or _is_const(b, 0.0)):
        return _ZERO
    if op == "+" and _is_const(a, 0.0) or op == "*" and _is_const(a, 1.0):
        return b
    if op in "+-" and _is_const(b, 0.0) or op in "*/" and _is_const(b, 1.0) or op == "/" and _is_const(a, 0.0):
        return a
    if op == "-" and _is_const(a, 0.0):
        return _neg(b)
    return Bin(op, a, b)


def _kink(u, v, below, above):
    """``below`` where u < v and ``above`` where u > v; undefined at u == v unless the two agree."""
    return below if below == above else Call("kink", (u, v, below, above))


def _derive(node, var: str):
    """Derivative of ``node`` with respect to the variable ``var``, as a folded AST."""
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Neg):
        return _neg(_derive(node.operand, var))
    if isinstance(node, Bin):
        a, b = node.lhs, node.rhs
        da, db = _derive(a, var), _derive(b, var)
        if node.op in "+-":
            return _bin(node.op, da, db)
        if node.op == "*":
            return _bin("+", _bin("*", da, b), _bin("*", a, db))
        # (da - (a/b) db) / b is undefined exactly where a/b is
        return _bin("/", _bin("-", da, _bin("*", node, db)), b)
    x = node.args[0]
    dx = _derive(x, var)
    f = node.fname
    if f == "sin":
        return _bin("*", Call("cos", (x,)), dx)
    if f == "cos":
        return _bin("*", _neg(Call("sin", (x,))), dx)
    if f == "exp":
        return _bin("*", node, dx)
    if f == "sqrt":
        # infinite, so a division by zero, where sqrt meets 0
        return _bin("/", dx, _bin("*", Const(2.0), node))
    if f == "abs":
        return _kink(x, _ZERO, _neg(dx), dx)
    if f == "log":
        return _bin("/", dx, x)
    if f == "kink":
        # left unfolded: a derivative of a derivative is undefined where the first one is
        return Call("kink", node.args[:2] + tuple(_derive(a, var) for a in node.args[2:]))
    y = node.args[1]
    dy = _derive(y, var)
    if f == "min":
        return _kink(x, y, dx, dy)
    if f == "max":
        return _kink(x, y, dy, dx)
    # pow: d(a^b) = b a^(b-1) da + a^b log(a) db
    return _bin(
        "+",
        _bin("*", _bin("*", y, Call("pow", (x, _bin("-", y, _ONE)))), dx),
        _bin("*", dy, _bin("*", node, Call("log", (x,)))),
    )


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
    """Parsed expression (an immutable AST).

    Its derivatives are the exact ones that :meth:`derivative` builds from the
    AST; no other derivative can be attached to it.
    """

    def __init__(self, root):
        self.root = root

    def derivative(self, var: str) -> "Expr":
        """The exact derivative with respect to the variable ``var``, as a new expression."""
        return Expr(_derive(self.root, var))

    @cached_property
    def _constant(self) -> float | None:
        """The value of a constant tree that needs no interpreter (see :func:`_const_value`), else None."""
        return _const_value(self.root)

    def evaluate(self, points) -> np.ndarray:
        """Value at each row of an (m, d) point array (point arrays only), shape (m,)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be an (m, d) array, got shape {pts.shape}")
        value = self._constant
        if value is not None:
            return np.full(len(pts), value)
        faults = _Faults(len(pts))
        with np.errstate(all="ignore"):
            v = _eval_node(self.root, pts, faults)
        faults.check(~np.isfinite(v), lambda i: f"non-finite value {v[i]}")
        if faults.first is not None:
            i, message = faults.first
            raise EvalDomainError(f"{message} at {tuple(float(c) for c in pts[i])}")
        return v

    def to_string(self) -> str:
        return _print_node(self.root)

    def __repr__(self) -> str:
        return f"Expr({self.to_string()!r})"


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
    return Expr(node)


# --- differentiable fields -------------------------------------------------


class ScalarField:
    """Expression over a fixed tuple of variables, with gradient and Hessian.

    ``var_names`` fixes the meaning of each point slot, e.g. ``("x1", "y")``
    for a field on a strip or ``("x1",)`` for a field on the base domain.
    The gradient and Hessian evaluate the exact derivative trees, built on
    first use and kept on the field.
    """

    def __init__(self, expr: Expr | str, var_names: Sequence[str]):
        self.expr = parse(expr) if isinstance(expr, str) else expr
        self.var_names = tuple(var_names)

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def value(self, points) -> np.ndarray:
        """Value at each row of an (m, n) point array (point arrays only), shape (m,)."""
        return self.expr.evaluate(points)

    @cached_property
    def _first(self) -> tuple[Expr, ...]:
        return tuple(self.expr.derivative(v) for v in self.var_names)

    @property
    def is_constant(self) -> bool:
        """Whether every exact first derivative folds to zero (``0*x1`` does; ``pow(sin(x1), 2) + pow(cos(x1), 2)`` does not)."""
        return all(d.root == _ZERO for d in self._first)

    @cached_property
    def _second(self) -> dict[tuple[int, int], Expr]:
        n = self.nvars
        return {(i, j): self._first[i].derivative(self.var_names[j]) for i in range(n) for j in range(i, n)}

    def grad(self, points) -> np.ndarray:
        """Gradient at each row of an (m, n) point array (point arrays only), shape (m, n)."""
        return np.stack([d.evaluate(points) for d in self._first], axis=-1)

    def hess(self, points) -> np.ndarray:
        """Hessian at each row of an (m, n) point array (point arrays only), shape (m, n, n)."""
        h = np.empty((len(points), self.nvars, self.nvars))
        for (i, j), d in self._second.items():
            h[:, i, j] = h[:, j, i] = d.evaluate(points)
        return h

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

    @property
    def is_constant(self) -> bool:
        """Whether every component is constant (see :attr:`ScalarField.is_constant`)."""
        return all(f.is_constant for f in self.components)

    def value(self, points) -> np.ndarray:
        """Components at each row of an (m, n) point array (point arrays only), shape (m, k)."""
        return np.stack([f.value(points) for f in self.components], axis=-1)

    def jacobian(self, points) -> np.ndarray:
        """Jacobian at each row of an (m, n) point array (point arrays only), shape (m, k, n)."""
        return np.stack([f.grad(points) for f in self.components], axis=-2)


def strip_vars(n: int) -> tuple[str, ...]:
    """Variable names for a field on the N+1 dimensional strip."""
    return tuple(f"x{k}" for k in range(1, n + 1)) + ("y",)


def base_vars(n: int) -> tuple[str, ...]:
    """Variable names for a field on the N dimensional base domain."""
    return tuple(f"x{k}" for k in range(1, n + 1))
