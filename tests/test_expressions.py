import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinpde import expressions
from thinpde.expressions import (
    EvalDomainError,
    ExprSyntaxError,
    ScalarField,
    UnknownIdentifierError,
    VectorField,
    parse,
)


def test_basic_evaluation():
    assert parse("x1 + 2*exp(0)").evaluate([[1.0]])[0] == pytest.approx(3.0)
    assert parse("x1*y").evaluate([[2.0, 0.5]])[0] == pytest.approx(1.0)
    assert parse("sin(0)").evaluate([[0.0]])[0] == 0.0
    assert parse("pow(x1, 2)").evaluate([[3.0]])[0] == pytest.approx(9.0)
    assert parse("min(x1, 2)").evaluate([[5.0]])[0] == 2.0
    assert parse("max(abs(x1), 1)").evaluate([[-3.0]])[0] == 3.0
    assert parse("pi").evaluate([[0.0]])[0] == pytest.approx(math.pi)


def test_precedence_and_unary():
    assert parse("2 + 3*4").evaluate([[0.0]])[0] == 14.0
    assert parse("-x1*2").evaluate([[3.0]])[0] == -6.0
    assert parse("(2 + 3)*4").evaluate([[0.0]])[0] == 20.0
    assert parse("2 - 3 - 4").evaluate([[0.0]])[0] == -5.0
    assert parse("12/3/2").evaluate([[0.0]])[0] == 2.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + * 2")
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("sin(x1")
    with pytest.raises(ExprSyntaxError):
        parse("x1 x2")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("foo(x1)")
    assert err.value.name == "foo"
    with pytest.raises(UnknownIdentifierError):
        parse("x1 + bogus")


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        parse("1/x1").evaluate([[0.0]])
    with pytest.raises(EvalDomainError):
        parse("sqrt(x1)").evaluate([[-1.0]])


def test_y_is_last_slot():
    e = parse("x1 + 2*y")
    assert e.evaluate([[1.0, 3.0]])[0] == 7.0
    assert e.evaluate([[1.0, 0.0, 3.0]])[0] == 7.0  # y tracks the last coordinate


def test_derivative_examples():
    e = parse("pow(x1, 2)")
    assert ScalarField(e, ("x1",)).grad([[3.0]])[0, 0] == pytest.approx(6.0, abs=1e-8)
    assert ScalarField(parse("exp(x1)"), ("x1",)).hess([[0.0]])[0, 0, 0] == pytest.approx(1.0, abs=1e-6)
    assert ScalarField(parse("x1"), ("x1", "y")).grad([[1.0, 0.3]])[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_exact_gradient_is_not_differenced():
    assert ScalarField(parse("pow(x1, 3)"), ("x1",)).grad([[2.0]])[0, 0] == 12.0


def test_exact_hessian_of_a_polynomial():
    # within the tolerance kept from the differenced version
    rng = np.random.default_rng(3)
    fld = ScalarField(parse("pow(x1, 3) + 2*pow(x1, 2)*y - y*y*x1"), ("x1", "y"))
    for _ in range(25):
        p = rng.uniform(-1, 1, size=2)
        h = fld.hess([p])[0]
        assert h[0, 0] == pytest.approx(6 * p[0] + 4 * p[1], abs=1e-4)
        assert h[0, 1] == pytest.approx(4 * p[0] - 2 * p[1], abs=1e-4)


def test_scalar_field_grad_hess():
    fld = ScalarField(parse("sin(x1)*y"), ("x1", "y"))
    p = [0.3, 2.0]
    g = fld.grad([p])[0]
    assert g[0] == pytest.approx(2 * math.cos(0.3), abs=1e-8)
    assert g[1] == pytest.approx(math.sin(0.3), abs=1e-10)
    h = fld.hess([p])[0]
    assert h[0, 0] == pytest.approx(-2 * math.sin(0.3), abs=1e-5)
    assert h[0, 1] == pytest.approx(math.cos(0.3), abs=1e-6)
    assert h[1, 1] == pytest.approx(0.0, abs=1e-6)


# --- round-trip property ------------------------------------------------------

_leaf = st.one_of(
    st.sampled_from(["x1", "x2", "y"]),
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(lambda v: repr(round(v, 3))),
)


def _wrap(children):
    binop = st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"
    )
    unary = children.map(lambda s: f"-({s})")
    call1 = st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), children).map(
        lambda t: f"{t[0]}({t[1]})"
    )
    call2 = st.tuples(st.sampled_from(["min", "max", "pow"]), children, children).map(
        lambda t: f"{t[0]}({t[1]}, {t[2]})"
    )
    paren = children.map(lambda s: f"({s})")
    return st.one_of(binop, unary, call1, call2, paren)


_expr_text = st.recursive(_leaf, _wrap, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_expr_text)
def test_parse_print_parse_fixed_point(text):
    ast = parse(text)
    printed = ast.to_string()
    again = parse(printed)
    assert again.root == ast.root
    assert parse(again.to_string()).root == again.root


# --- array evaluation against the pointwise interpreter -----------------------

from thinpde.expressions import Bin, Call, Const, Neg, Var, _var_position  # noqa: E402

_REF_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs, "min": min, "max": max}


def _ref_eval_node(node, point) -> float:
    """Reference: the pointwise interpreter that array evaluation replaced."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(point[_var_position(node.name, len(point))])
    if isinstance(node, Neg):
        return -_ref_eval_node(node.operand, point)
    if isinstance(node, Bin):
        a = _ref_eval_node(node.lhs, point)
        b = _ref_eval_node(node.rhs, point)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise EvalDomainError("division by zero")
        return a / b
    assert isinstance(node, Call)
    args = [_ref_eval_node(a, point) for a in node.args]
    f = node.fname
    if f == "sqrt":
        if args[0] < 0.0:
            raise EvalDomainError(f"sqrt of negative value {args[0]}")
        return math.sqrt(args[0])
    if f == "pow":
        try:
            return float(math.pow(args[0], args[1]))
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(f"pow({args[0]}, {args[1]}) undefined") from exc
    try:
        return float(_REF_FUNCTIONS[f](*args))
    except OverflowError as exc:
        raise EvalDomainError(f"{f} overflow at argument {args}") from exc


def _ref_evaluate(e, point) -> float:
    v = _ref_eval_node(e.root, point)
    if not math.isfinite(v):
        raise EvalDomainError(f"non-finite value {v} at {tuple(point)}")
    return v


def _ref_rows(e, points):
    """Per-row reference values, or (row, error) of the first row that fails."""
    values = []
    for i, row in enumerate(points):
        try:
            values.append(_ref_evaluate(e, [float(v) for v in row]))
        except ValueError as exc:  # EvalDomainError, or math's own domain error for sin/cos(inf)
            return None, (i, exc)
    return np.array(values), None


_arr_leaf = st.one_of(
    st.sampled_from(["x1", "x2", "y", "pi"]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 1000.0, 1e308]).map(repr),
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(lambda v: repr(round(v, 3))),
)


def _arr_wrap(children):
    binop = st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children).map(
        lambda t: f"({t[0]}) {t[1]} ({t[2]})"
    )
    unary = children.map(lambda s: f"-({s})")
    call1 = st.tuples(st.sampled_from(["sin", "cos", "exp", "abs", "sqrt"]), children).map(
        lambda t: f"{t[0]}({t[1]})"
    )
    call2 = st.tuples(st.sampled_from(["min", "max", "pow"]), children, children).map(
        lambda t: f"{t[0]}({t[1]}, {t[2]})"
    )
    return st.one_of(binop, unary, call1, call2)


_arr_text = st.recursive(_arr_leaf, _arr_wrap, max_leaves=10)
_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1000.0, -1000.0, 1e308]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)


def _points(rows: int):
    return st.lists(st.lists(_coord, min_size=3, max_size=3), min_size=rows, max_size=rows).map(np.array)


@settings(max_examples=400, deadline=None)
@given(_arr_text, st.integers(1, 6).flatmap(_points))
def test_array_evaluation_matches_pointwise(text, points):
    e = parse(text)
    want, fault = _ref_rows(e, points)
    if fault is None:
        got = e.evaluate(points)
        assert got.shape == (len(points),)
        if "exp" not in text and "pow" not in text:
            # the same IEEE operations in the same order: equal to the bit, signed zeros included
            assert got.tobytes() == want.tobytes()
        assert e.evaluate(points[:1])[0] == got[0]
        return
    row, exc = fault
    with pytest.raises(EvalDomainError) as err:
        e.evaluate(points)
    point = f" at {tuple(float(v) for v in points[row])}"
    assert str(err.value).endswith(point), (str(err.value), point)
    if isinstance(exc, EvalDomainError):
        # the pointwise message, completed with the first offending point
        want_msg = str(exc) if str(exc).startswith("non-finite") else f"{exc}{point}"
        if "exp" not in text and "pow" not in text:
            assert str(err.value) == want_msg


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-700.0, max_value=700.0), min_size=1, max_size=50))
def test_exp_within_one_ulp(xs):
    got = parse("exp(x1)").evaluate(np.array(xs)[:, None])
    want = np.array([math.exp(x) for x in xs])
    assert (np.abs(got - want) <= np.spacing(want)).all()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=1e-3, max_value=50.0), st.floats(min_value=-20.0, max_value=20.0)),
        min_size=1,
        max_size=50,
    )
)
def test_pow_within_one_ulp(pairs):
    pts = np.array(pairs)
    got = parse("pow(x1, x2)").evaluate(pts)
    want = np.array([math.pow(a, b) for a, b in pairs])
    assert (np.abs(got - want) <= np.spacing(want)).all()


def test_domain_error_cases_name_first_bad_row():
    cases = [
        ("min(exp(1000), 1)", [[0.0]], "exp overflow at argument [1000.0] at (0.0,)"),
        ("min(exp(x1), 1)", [[1.0], [1000.0], [2000.0]], "exp overflow at argument [1000.0] at (1000.0,)"),
        ("1/x1", [[1.0], [2.0], [0.0]], "division by zero at (0.0,)"),
        ("sqrt(x1)", [[1.0], [-4.0]], "sqrt of negative value -4.0 at (-4.0,)"),
        ("pow(x1, 0.5)", [[1.0], [-1.0]], "pow(-1.0, 0.5) undefined at (-1.0,)"),
        ("pow(x1, 2)", [[1e200]], "pow(1e+200, 2.0) undefined at (1e+200,)"),
        ("x1*1e308*10", [[0.0], [1.0]], "non-finite value inf at (1.0,)"),
        # the row that fails first wins, not the node that fails first
        ("1/x1 + sqrt(x1 - 2)", [[1.0], [0.0]], "sqrt of negative value -1.0 at (1.0,)"),
    ]
    for text, pts, message in cases:
        with pytest.raises(EvalDomainError) as err:
            parse(text).evaluate(np.array(pts))
        assert str(err.value) == message
    with pytest.raises(EvalDomainError):
        parse("sin(x1*1e308*10)").evaluate(np.array([[1.0]]))


@settings(max_examples=150, deadline=None)
@given(_arr_text, st.integers(1, 5).flatmap(_points))
def test_field_derivatives_match_per_point(text, points):
    fld = ScalarField(parse(text), ("x1", "x2", "y"))
    try:
        rows = [(fld.grad(p[None])[0], fld.hess(p[None])[0]) for p in points]
    except EvalDomainError:
        with pytest.raises(EvalDomainError):
            fld.grad(points), fld.hess(points)
        return
    grad, hess = fld.grad(points), fld.hess(points)
    assert grad.tobytes() == np.array([g for g, _ in rows]).tobytes()
    assert hess.tobytes() == np.array([h for _, h in rows]).tobytes()


# --- exact derivatives against differences -------------------------------------

import itertools  # noqa: E402

_smooth_leaf = st.one_of(
    st.sampled_from(["x1", "x2", "y", "pi"]),
    st.floats(min_value=0.1, max_value=3.0).map(lambda v: repr(round(v, 2))),
)
_tree_text = st.recursive(_smooth_leaf, _arr_wrap, max_leaves=6)
_tree_point = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, -1.0]), st.floats(min_value=-2.0, max_value=2.0)),
    min_size=3,
    max_size=3,
).map(np.array)

# fourth-order central first difference: offsets (in steps) and weights
_W1 = ((-2, 1.0 / 12), (-1, -2.0 / 3), (1, 2.0 / 3), (2, -1.0 / 12))
_STEP = 1e-3


def _differences(e, p, h):
    """Gradient and Hessian of e at p from the fourth-order first difference, applied once and twice."""
    n = len(p)
    steps = np.eye(n) * h
    w = np.array([c for _, c in _W1])
    once = np.array([p + a * steps[i] for i in range(n) for a, _ in _W1])
    offsets = [(i, j, a, b) for i in range(n) for j in range(n) for a, _ in _W1 for b, _ in _W1]
    twice = np.array([p + a * steps[i] + b * steps[j] for i, j, a, b in offsets])
    grad = e.evaluate(once).reshape(n, 4) @ w / h
    hess = np.einsum("ijab,a,b->ij", e.evaluate(twice).reshape(n, n, 4, 4), w, w) / h**2
    return grad, hess


def _smooth_near(fld, p, h) -> bool:
    """The exact gradient and Hessian exist on the stencil's box and vary there as a smooth field's do."""
    box = p + h * np.array(list(itertools.product(range(-4, 5, 2), repeat=len(p))))
    try:
        derivs = (fld.grad(box), fld.hess(box))
    except EvalDomainError:
        return False
    return all(np.ptp(d, axis=0).max() <= 0.05 * (1.0 + np.abs(d).max()) for d in derivs)


@settings(max_examples=400, deadline=None)
@given(_tree_text, _tree_point)
def test_exact_derivatives_match_differences(text, p):
    fld = ScalarField(parse(text), ("x1", "x2", "y"))
    try:
        value = fld.value(p[None])[0]
    except EvalDomainError:
        return
    outcomes = []
    for pts in (p[None], np.stack([p, p])):
        try:
            outcomes.append((fld.grad(pts)[0], fld.hess(pts)[0]))
        except EvalDomainError as exc:
            outcomes.append(str(exc))
    single, batch = outcomes
    if isinstance(single, str) or isinstance(batch, str):
        # a kink (or a pole of the derivative): the same error per point and over an array
        assert single == batch
        return
    assert all(np.array_equal(s, b) for s, b in zip(single, batch))
    if not _smooth_near(fld, p, _STEP):
        return
    try:
        coarse, fine = _differences(fld.expr, p, 2 * _STEP), _differences(fld.expr, p, _STEP)
    except EvalDomainError:
        return
    tol = 1e-5 * (1.0 + abs(value) + max(np.abs(d).max() for d in fine))
    for exact, c, f in zip(single, coarse, fine):
        if np.abs(c - f).max() <= tol:  # the differences have converged
            assert np.abs(exact - f).max() <= tol, (text, p, exact, f)


_POW_LOG = "no derivative of pow with a varying exponent at base {}"


@pytest.mark.parametrize(
    "text, point, message",
    [
        ("abs(x1)", [0.0, 0.5, 0.0], "no derivative at a kink of abs/min/max (both sides 0.0) at (0.0, 0.5, 0.0)"),
        ("min(x1, x2)", [0.5, 0.5, 1.0], "no derivative at a kink of abs/min/max (both sides 0.5) at (0.5, 0.5, 1.0)"),
        ("max(x1*y, 1)", [2.0, 1.0, 0.5], "no derivative at a kink of abs/min/max (both sides 1.0) at (2.0, 1.0, 0.5)"),
        ("sqrt(x2)", [1.0, 0.0, 1.0], "division by zero at (1.0, 0.0, 1.0)"),
        ("pow(x1, y)", [0.0, 1.0, 2.5], _POW_LOG.format(0.0) + " at (0.0, 1.0, 2.5)"),
        ("pow(x1, y)", [-2.0, 1.0, 2.0], _POW_LOG.format(-2.0) + " at (-2.0, 1.0, 2.0)"),
    ],
)
def test_derivatives_raise_where_undefined(text, point, message):
    fld = ScalarField(parse(text), ("x1", "x2", "y"))
    fld.value([point])  # the value itself exists
    for pts in (np.array([point]), np.array([[0.3, 0.7, 0.2], point])):
        with pytest.raises(EvalDomainError) as err:
            fld.grad(pts)
        assert str(err.value) == message


def test_derivative_is_one_sided_only_where_the_sides_agree():
    fld = ScalarField(parse("min(x1, 2) + abs(y)"), ("x1", "y"))
    assert fld.grad([[1.0, 0.5]]).tolist() == [[1.0, 1.0]]
    assert fld.grad([[3.0, -0.5]]).tolist() == [[0.0, -1.0]]
    # along y the kink of min(x1, 2) is invisible
    assert fld.expr.derivative("y").evaluate([[2.0, 0.5]])[0] == 1.0


@pytest.mark.parametrize("text", ["log(x1)", "kink(x1, 0, 1, 2)"])
def test_internal_derivative_calls_do_not_parse(text):
    with pytest.raises(UnknownIdentifierError):
        parse(text)


def test_constant_folding_keeps_trees_small():
    assert parse("0.2*x1").derivative("x1").to_string() == "0.2"
    assert parse("x1*(1 - x1)").derivative("x1").derivative("x1").to_string() == "-2.0"
    assert parse("sin(x1) + y").derivative("y").to_string() == "1.0"
    assert parse("exp(x1)").derivative("y").to_string() == "0.0"


@pytest.mark.parametrize(
    "text, constant",
    [
        ("2", True),
        ("0*x1", True),
        ("x1 - x1", True),
        ("x1*0 + sin(pi)", True),
        ("pow(2, 3) - 1", True),
        ("x1", False),
        ("0.3*sin(16*pi*x1)", False),
        ("1e-300*x1", False),
        ("y", False),
    ],
)
def test_is_constant_folds_the_derivatives(text, constant):
    fld = ScalarField(text, ("x1", "y"))
    assert fld.is_constant is constant
    assert VectorField([ScalarField("0*x1", ("x1", "y")), fld]).is_constant is constant


_POINT = np.array([[0.25, -0.5]])
_ROWS = np.array([[1.0, 2.0], [3.0, 4.0], [-5.0, 0.0]])


@pytest.mark.parametrize("text", ["0", "-0", "-1", "0*-1", "-(1-1)", "0.1+0.2", "1/3", "0.5*(1 + -1)"])
def test_constant_trees_match_the_interpreter_byte_for_byte(text):
    expr = parse(text)
    assert expr._constant is not None  # the interpreter is skipped
    with np.errstate(all="raise"):
        want = expressions._eval_node(expr.root, _ROWS, expressions._Faults(len(_ROWS)))
    one = expr.evaluate(_POINT)
    assert one.tobytes() == want[:1].tobytes()
    many = expr.evaluate(_ROWS)
    assert many.dtype == np.float64 and many.shape == (len(_ROWS),)
    assert many.tobytes() == want.tobytes()
    # each call returns a fresh array
    many[:] = 7.0
    assert expr.evaluate(_ROWS).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0", "division by zero"),
        ("0/0", "division by zero"),
        ("1e308*10", "non-finite value inf"),
        ("1e999", "non-finite value inf"),
        ("sqrt(-1)", "sqrt of negative value -1.0"),
    ],
)
def test_undefined_constant_trees_raise_at_the_first_point(text, message):
    assert parse(text)._constant is None  # left to the interpreter
    with pytest.raises(EvalDomainError) as err:
        parse(text).evaluate(_POINT)
    assert str(err.value) == f"{message} at (0.25, -0.5)"
    with pytest.raises(EvalDomainError) as err:
        parse(text).evaluate(_ROWS)
    assert str(err.value) == f"{message} at (1.0, 2.0)"


@pytest.mark.parametrize("text", ["x1 + 1", "2.5"])
@pytest.mark.parametrize("points", [[0.25, -0.5], 0.25, [[[0.25, -0.5]]]], ids=["1-D", "0-D", "3-D"])
def test_evaluate_rejects_points_that_are_not_an_m_by_d_array(text, points):
    # a 1-D point once gave IndexError for x1 + 1 and an array of length d for the constant 2.5
    want = f"points must be an (m, d) array, got shape {np.shape(points)}"
    with pytest.raises(ValueError, match=re.escape(want)):
        parse(text).evaluate(points)
