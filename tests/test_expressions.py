import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinpde.expressions import (
    EvalDomainError,
    ExprSyntaxError,
    ScalarField,
    UnknownIdentifierError,
    derivative,
    evaluate,
    parse,
)


def test_basic_evaluation():
    assert evaluate(parse("x1 + 2*exp(0)"), [1.0]) == pytest.approx(3.0)
    assert evaluate(parse("x1*y"), [2.0, 0.5]) == pytest.approx(1.0)
    assert evaluate(parse("sin(0)"), [0.0]) == 0.0
    assert evaluate(parse("pow(x1, 2)"), [3.0]) == pytest.approx(9.0)
    assert evaluate(parse("min(x1, 2)"), [5.0]) == 2.0
    assert evaluate(parse("max(abs(x1), 1)"), [-3.0]) == 3.0
    assert evaluate(parse("pi"), [0.0]) == pytest.approx(math.pi)


def test_precedence_and_unary():
    assert evaluate(parse("2 + 3*4"), [0.0]) == 14.0
    assert evaluate(parse("-x1*2"), [3.0]) == -6.0
    assert evaluate(parse("(2 + 3)*4"), [0.0]) == 20.0
    assert evaluate(parse("2 - 3 - 4"), [0.0]) == -5.0
    assert evaluate(parse("12/3/2"), [0.0]) == 2.0


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
        evaluate(parse("1/x1"), [0.0])
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x1)"), [-1.0])


def test_y_is_last_slot():
    e = parse("x1 + 2*y")
    assert evaluate(e, [1.0, 3.0]) == 7.0
    assert evaluate(e, [1.0, 0.0, 3.0]) == 7.0  # y tracks the last coordinate


def test_derivative_examples():
    e = parse("pow(x1, 2)")
    assert derivative(e, 1, 1, [3.0]) == pytest.approx(6.0, abs=1e-8)
    assert derivative(parse("exp(x1)"), 1, 2, [0.0]) == pytest.approx(1.0, abs=1e-6)
    assert derivative(parse("x1"), 2, 1, [1.0, 0.3]) == pytest.approx(0.0, abs=1e-12)


def test_registered_derivative_wins():
    e = parse("pow(x1, 3)")
    e.register_derivative("x1", "3*pow(x1, 2)")
    assert derivative(e, 1, 1, [2.0]) == 12.0  # exact, not differenced


def test_fd_of_registered_first_matches_second():
    # differencing an analytic first derivative reproduces the second
    # derivative of polynomials within 1e-4
    rng = np.random.default_rng(3)
    e = parse("pow(x1, 3) + 2*pow(x1, 2)*y - y*y*x1")
    e.register_derivative("x1", "3*pow(x1, 2) + 4*x1*y - y*y")
    fld = ScalarField(e, ("x1", "y"))
    for _ in range(25):
        p = rng.uniform(-1, 1, size=2)
        h = fld.hess(p)
        assert h[0, 0] == pytest.approx(6 * p[0] + 4 * p[1], abs=1e-4)
        assert h[0, 1] == pytest.approx(4 * p[0] - 2 * p[1], abs=1e-4)


def test_scalar_field_grad_hess():
    fld = ScalarField(parse("sin(x1)*y"), ("x1", "y"))
    p = [0.3, 2.0]
    g = fld.grad(p)
    assert g[0] == pytest.approx(2 * math.cos(0.3), abs=1e-8)
    assert g[1] == pytest.approx(math.sin(0.3), abs=1e-10)
    h = fld.hess(p)
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
    assert again == ast
    assert parse(again.to_string()) == again


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
        assert e.evaluate(points[0]) == e.evaluate(points[:1])[0]
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
@given(_arr_text, st.one_of(st.none(), _arr_text), st.integers(1, 5).flatmap(_points))
def test_field_derivatives_match_per_point(text, d1_text, points):
    fld = ScalarField(parse(text), ("x1", "x2", "y"))
    if d1_text is not None:
        fld.expr.register_derivative("x1", d1_text)
    try:
        rows = [(fld.grad(p), fld.hess(p)) for p in points]
    except EvalDomainError:
        with pytest.raises(EvalDomainError):
            fld.grad(points), fld.hess(points)
        return
    grad, hess = fld.grad(points), fld.hess(points)
    assert grad.tobytes() == np.array([g for g, _ in rows]).tobytes()
    assert hess.tobytes() == np.array([h for _, h in rows]).tobytes()
