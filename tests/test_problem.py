from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinpde.config import load_problem
from thinpde.expressions import Expr, VectorField, base_vars, strip_vars
from problems import reference_problem
from thinpde.presets import _entry, _scalar, rich_problem
from thinpde.problem import (
    BoundaryData,
    CoefficientFamily,
    ControlSet,
    GeometrySpec,
    ThinProblem,
    inf_sup,
    operator_infsup,
    strip_lattice,
    validate,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _failing(name, report):
    return [c.name for c in report.checks if not c.passed]


def test_validate_passes_reference(reference):
    report = validate(reference)
    assert report.passed
    assert "ALL ASSUMPTIONS HOLD" in report.format()


def test_negative_c_fails():
    p = reference_problem(c="-1")
    report = validate(p)
    assert not report.passed
    names = _failing("", report)
    assert "NonNegativity" in names
    diag = [c for c in report.checks if c.name == "NonNegativity"][0]
    assert diag.worst == -1.0
    assert diag.witness is not None


def test_strict_ordering():
    p = reference_problem()
    good = validate(p)
    assert all(c.passed for c in good.checks if c.name == "StrictOrdering")
    bad = reference_problem()
    bv = base_vars(1)
    bad.geom.g_minus = _scalar("x1", bv)
    bad.geom.g_plus = _scalar("x1", bv)
    report = validate(bad)
    assert "StrictOrdering" in _failing("", report)


def test_bound_violation_reported():
    p = reference_problem(f="100")  # above the declared C_F = 50
    report = validate(p)
    assert "CoefficientBound" in _failing("", report)


def test_coefficient_bound_names_its_first_node_on_all_zero_coefficients():
    # every |sigma|, |b|, |c| and |f| is 0, so the largest is 0 at the first slab node under the first control pair
    p = reference_problem()
    p.coeffs.entries[("1", "1")] = _entry(1, [["0", "0"], ["0", "0"]], ["0", "0"], "0", "0")
    diag = next(c for c in validate(p).checks if c.name == "CoefficientBound")
    assert diag.passed
    assert diag.worst == 0.0
    assert diag.witness == ((0.0, -1.0), "1", "1")
    assert diag.format() == "PASS CoefficientBound  worst=0  witness=((0.0, -1.0), '1', '1')  declared C_F=50.0"


def test_never_aborts_on_domain_error():
    p = reference_problem(f="1/x1")  # blows up at x1 = 0
    report = validate(p)
    assert not report.passed
    assert "ExpressionsFinite" in _failing("", report)


def test_non_finite_derivative_fails_validation():
    # sqrt(x1) is finite at 0, but its exact derivative is not
    report = validate(reference_problem(s="sqrt(x1)"))
    assert _failing("", report) == ["ExpressionsFinite"]
    assert report.checks[0].note == "s.grad: division by zero at (0.0,)"


@pytest.mark.parametrize("sign, k, l", [(1.0, 0.3, 1.0), (-1.0, -0.1, 5.0)], ids=["top", "bottom"])
def test_oblique_is_the_closed_form(sign, k, l):
    # rich_problem: gamma0 = 0.2 x1, beta0 = x1 (1 - x1), (k+, l+) = (0.3, 1), (k-, l-) = (-0.1, 5)
    bd = rich_problem().bdata
    x = np.linspace(0.0, 1.0, 9)
    y = np.linspace(-0.2, 0.3, 9)
    want_gamma = np.stack([sign * (0.2 * x) + k * y, np.full(9, sign)], axis=1)
    want_beta = sign * (x * (1 - x)) + l * y
    gamma, beta = bd.oblique(sign, x[:, None], y)
    assert np.array_equal(gamma, want_gamma) and np.array_equal(beta, want_beta)
    for i in range(9):
        gamma, beta = bd.oblique(sign, x[i : i + 1, None], y[i : i + 1])
        assert gamma.shape == (1, 2) and np.array_equal(gamma[0], want_gamma[i]) and beta[0] == want_beta[i]


def _operator(problem, X, p, r, z) -> float:
    """The operator's value at one strip point, from the coefficient bundle there."""
    return float(operator_infsup(problem.coefficients(np.array([z], dtype=float)), X, p, r)[0][0])


def test_operator_examples(reference):
    # single control, sigma = I2, rest zero: F = -tr X
    out = _operator(reference, np.eye(2), np.zeros(2), 0.0, [0.5, 0.0])
    f_val = reference.coefficients(np.array([[0.5, 0.0]])).f[0, 0, 0]
    assert out == pytest.approx(-2.0 - f_val)

    p = reference_problem(c="1", f="0")
    out = _operator(p, np.zeros((2, 2)), np.zeros(2), 5.0, [0.5, 0.0])
    assert out == pytest.approx(5.0)


def test_operator_sup_over_constants():
    bv = base_vars(1)
    entries = {
        ("1", "1"): _entry(1, [["0", "0"], ["0", "0"]], ["0", "0"], "0", "2"),
        ("1", "2"): _entry(1, [["0", "0"], ["0", "0"]], ["0", "0"], "0", "4"),
    }
    p = ThinProblem(
        controls=ControlSet(("1",), ("1", "2")),
        coeffs=CoefficientFamily(entries=entries, bound=50.0),
        geom=GeometrySpec((0.0,), (1.0,), _scalar("-1", bv), _scalar("1", bv), 0.25),
        bdata=BoundaryData(
            gamma0=VectorField([_scalar("0", bv)]),
            beta0=_scalar("0", bv),
            k_plus=VectorField([_scalar("0", bv)]),
            k_minus=VectorField([_scalar("0", bv)]),
            l_plus=_scalar("0", bv),
            l_minus=_scalar("0", bv),
            beta_lateral=_scalar("0", strip_vars(1)),
            s_candidate=_scalar("x1", bv),
        ),
    )
    value, _, mu_idx = operator_infsup(p.coefficients(np.array([[0.5, 0.0]])), np.zeros((2, 2)), np.zeros(2), 0.0)
    assert value[0] == pytest.approx(-2.0)  # sup(-2, -4)
    assert p.controls.max_labels[mu_idx[0]] == "1"


def test_operator_matches_bruteforce(rich):
    rng = np.random.default_rng(0)
    for _ in range(50):
        raw = rng.uniform(-1, 1, size=(2, 2))
        X = 0.5 * (raw + raw.T)
        p = rng.uniform(-1, 1, size=2)
        r = float(rng.uniform(-1, 1))
        z = np.array([rng.uniform(0, 1), rng.uniform(-1, 1)])
        out = _operator(rich, X, p, r, z)
        co = rich.coefficients(z[None])
        brute = min(
            max(
                -np.sum(co.a[0, il, im] * X) - co.b[0, il, im] @ p + co.c[0, il, im] * r - co.f[0, il, im]
                for im in range(len(rich.controls.max_labels))
            )
            for il in range(len(rich.controls.min_labels))
        )
        assert out == brute


def test_operator_monotone_in_r(rich):
    rng = np.random.default_rng(1)
    for _ in range(30):
        raw = rng.uniform(-1, 1, size=(2, 2))
        X = 0.5 * (raw + raw.T)
        p = rng.uniform(-1, 1, size=2)
        z = np.array([rng.uniform(0, 1), rng.uniform(-1, 1)])
        r1, r2 = sorted(rng.uniform(-1, 1, size=2))
        assert _operator(rich, X, p, r1, z) <= _operator(rich, X, p, r2, z) + 1e-12


def test_operator_degenerate_elliptic(rich):
    rng = np.random.default_rng(2)
    for _ in range(30):
        raw = rng.uniform(-1, 1, size=(2, 2))
        X1 = 0.5 * (raw + raw.T)
        v = rng.uniform(-1, 1, size=2)
        X2 = X1 + rng.uniform(0, 1) * np.outer(v, v)  # X2 >= X1 in the PSD order
        p = rng.uniform(-1, 1, size=2)
        z = np.array([rng.uniform(0, 1), rng.uniform(-1, 1)])
        assert _operator(rich, X1, p, 0.0, z) >= _operator(rich, X2, p, 0.0, z) - 1e-12


def test_control_set_validation():
    with pytest.raises(ValueError):
        ControlSet((), ("1",))
    with pytest.raises(ValueError):
        ControlSet(("1", "1"), ("1",))


def test_samples_per_axis_floor(reference):
    with pytest.raises(ValueError):
        validate(reference, samples_per_axis=3)


def _infsup_by_loops(table):
    """Reference: the per-control double loop, strict comparisons so the lowest index wins ties."""
    best_val = best_pair = None
    for il, row in enumerate(table):
        inner_val = inner_mu = None
        for im, v in enumerate(row):
            if inner_val is None or v > inner_val:
                inner_val, inner_mu = v, im
        if best_val is None or inner_val < best_val:
            best_val, best_pair = inner_val, (il, inner_mu)
    return best_val, best_pair


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_inf_sup_matches_double_loop(data):
    nl = data.draw(st.integers(1, 3))
    nm = data.draw(st.integers(1, 3))
    lead = data.draw(st.integers(1, 4))
    # a few repeated levels force ties in rows, across rows and between row maxima
    entry = st.one_of(st.sampled_from([-1.0, 0.0, 0.5]), st.floats(-10.0, 10.0))
    flat = data.draw(st.lists(entry, min_size=lead * nl * nm, max_size=lead * nl * nm))
    values = np.array(flat).reshape(lead, nl, nm)
    value, lam_idx, mu_idx = inf_sup(values)
    assert value.shape == lam_idx.shape == mu_idx.shape == (lead,)
    for k in range(lead):
        best, (il, im) = _infsup_by_loops(values[k])
        assert value[k] == best
        assert (lam_idx[k], mu_idx[k]) == (il, im)
    one_value, one_lam, one_mu = inf_sup(values[0])
    assert (one_value, one_lam, one_mu) == (value[0], lam_idx[0], mu_idx[0])


def test_strip_lattice_spaces_each_node_between_its_own_heights():
    base = np.array([[0.0], [0.5], [1.0]])
    bottom, top = np.array([-1.0, -0.3, 0.2]), np.array([1.0, 0.7, 0.2])
    x_idx, ys = strip_lattice(base, bottom, top, 4)
    assert x_idx.tolist() == [0] * 5 + [1] * 5 + [2] * 5
    want = np.concatenate([np.linspace(b, t, 5) for b, t in zip(bottom, top)])
    assert ys.tobytes() == want.tobytes()
    # a height shared by every node
    assert strip_lattice(base, -1.0, 1.0, 4)[1].tobytes() == np.tile(np.linspace(-1.0, 1.0, 5), 3).tobytes()


def _every_field(problem):
    """The geometry and boundary fields, then every coefficient field of every control pair, each once."""
    fields = list(problem.fields().values())
    for e in problem.coeffs.entries.values():
        fields += [fld for row in e.sigma for fld in row] + list(e.b) + [e.c, e.f]
    return list({id(fld): fld for fld in fields}.values())


@pytest.mark.parametrize(
    "make", [lambda: load_problem(CONFIGS / "reference.cfg"), rich_problem], ids=["reference.cfg", "rich"]
)
def test_validate_evaluates_each_field_once(monkeypatch, make):
    problem = make()
    calls = Counter()
    evaluate = Expr.evaluate

    def counted(self, points):
        calls[id(self)] += 1
        return evaluate(self, points)

    monkeypatch.setattr(Expr, "evaluate", counted)
    assert validate(problem).passed
    fields = _every_field(problem)
    assert len({id(fld.expr) for fld in fields}) == len(fields)
    assert [calls[id(fld.expr)] for fld in fields] == [1] * len(fields)


@pytest.mark.parametrize(
    "edits, want",
    [
        ({"f = sin(pi*x1) + y": "f = 1/x1"}, "division by zero at (0.0, -1.0)"),
        ({"beta = 0": "beta = sqrt(x1 - 0.5)"}, "sqrt of negative value -0.5 at (0.0, -1.0)"),
        ({"c = 0": "c = sqrt(y)"}, "sqrt of negative value -1.0 at (0.0, -1.0)"),
        ({"g_plus = 1": "g_plus = 1/(x1 - 0.5)"}, "division by zero at (0.5,)"),
        ({"beta0 = 0": "beta0 = abs(x1 - 0.5)"}, "beta0.grad: no derivative at a kink of abs/min/max (both sides 0.0) at (0.5,)"),
        # a boundary field is named before a coefficient field, and c before f
        ({"f = sin(pi*x1) + y": "f = 1/x1", "beta = 0": "beta = sqrt(x1 - 0.5)"}, "sqrt of negative value -0.5 at (0.0, -1.0)"),
        ({"f = sin(pi*x1) + y": "f = 1/x1", "c = 0": "c = sqrt(y)"}, "sqrt of negative value -1.0 at (0.0, -1.0)"),
    ],
    ids=["f", "beta", "c", "g_plus", "beta0", "beta_and_f", "c_and_f"],
)
def test_validate_names_the_first_undefined_field(tmp_path, edits, want):
    text = (CONFIGS / "reference.cfg").read_text()
    for old, new in edits.items():
        assert text.count(f"\n{old}\n") == 1
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    report = validate(load_problem(cfg))
    assert report.format().splitlines() == [f"FAIL ExpressionsFinite  {want}", "ASSUMPTION VIOLATIONS FOUND"]
