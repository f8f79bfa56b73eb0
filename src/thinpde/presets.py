"""Built-in problem families used by the test suite, docs, and demos."""

from __future__ import annotations

from .expressions import ScalarField, VectorField, base_vars, strip_vars
from .problem import (
    BoundaryData,
    CoefficientEntry,
    CoefficientFamily,
    ControlSet,
    GeometrySpec,
    ThinProblem,
)


_scalar = ScalarField  # every preset field is an expression string over its variables


def _entry(n: int, sigma_rows, b, c, f) -> CoefficientEntry:
    sv = strip_vars(n)
    return CoefficientEntry(
        sigma=tuple(tuple(_scalar(cell, sv) for cell in row) for row in sigma_rows),
        b=tuple(_scalar(cell, sv) for cell in b),
        c=_scalar(c, sv),
        f=_scalar(f, sv),
    )


def reference_problem(
    c: str = "0",
    f: str = "sin(pi*x1) + y",
    gamma0: str = "0",
    beta: str = "0",
    s: str = "x1",
    b1: str = "0",
    epsilon0: float = 0.25,
) -> ThinProblem:
    """Flat strip over (0,1) with identity diffusion and a single control.

    The default source carries a vertical component, so the eps-solutions
    genuinely depend on eps; set ``gamma0="0.2*x1"`` for the distorted
    variant and ``c="1"`` for the strictly monotone one.
    """
    bv = base_vars(1)
    return ThinProblem(
        controls=ControlSet(("1",), ("1",)),
        coeffs=CoefficientFamily(entries={("1", "1"): _entry(1, [["1", "0"], ["0", "1"]], [b1, "0"], c, f)}, bound=50.0),
        geom=GeometrySpec(
            n=1,
            lower=(0.0,),
            upper=(1.0,),
            g_minus=_scalar("-1", bv),
            g_plus=_scalar("1", bv),
            epsilon0=epsilon0,
        ),
        bdata=BoundaryData(
            gamma0=VectorField([_scalar(gamma0, bv)]),
            beta0=_scalar("0", bv),
            k_plus=VectorField([_scalar("0", bv)]),
            k_minus=VectorField([_scalar("0", bv)]),
            l_plus=_scalar("0", bv),
            l_minus=_scalar("0", bv),
            beta_lateral=_scalar(beta, strip_vars(1)),
            s_candidate=_scalar(s, bv),
        ),
    )


def slice_exact_problem() -> ThinProblem:
    """y-independent coefficients and zero oblique data.

    Every horizontal slice of the eps-solution solves the limit problem, so
    the measured eps-to-limit gap is pure discretization noise.
    """
    return reference_problem(f="sin(pi*x1)")


def rich_problem() -> ThinProblem:
    """Two-by-two control set with nonzero gamma0, beta0, k+-, l+-.

    The exact derivatives pin the representation identity down to float
    roundoff.
    """
    bv = base_vars(1)
    gamma0 = _scalar("0.2*x1", bv)
    beta0 = _scalar("x1*(1 - x1)", bv)
    entries = {
        ("a", "1"): _entry(1, [["1", "0.2*y"], ["0", "0.8"]], ["0.5", "-0.3"], "0.5", "1"),
        ("a", "2"): _entry(1, [["0.9", "0.1*x1"], ["0.1", "1"]], ["0.1*x1", "0.2"], "0.2 + 0.1*x1", "x1*y"),
        ("b", "1"): _entry(1, [["1.1", "0"], ["0.2*x1*y", "0.7"]], ["-0.4", "0.1*y"], "0", "-0.5"),
        ("b", "2"): _entry(1, [["1", "0.3"], ["0", "0.6 + 0.2*x1"]], ["0.2", "0.3*x1"], "1", "sin(x1)"),
    }
    return ThinProblem(
        controls=ControlSet(("a", "b"), ("1", "2")),
        coeffs=CoefficientFamily(entries=entries, bound=50.0),
        geom=GeometrySpec(
            n=1,
            lower=(0.0,),
            upper=(1.0,),
            g_minus=_scalar("-1", bv),
            g_plus=_scalar("1 + 0.5*x1", bv),
            epsilon0=0.25,
        ),
        bdata=BoundaryData(
            gamma0=VectorField([gamma0]),
            beta0=beta0,
            k_plus=VectorField([_scalar("0.3", bv)]),
            k_minus=VectorField([_scalar("-0.1", bv)]),
            l_plus=_scalar("1", bv),
            l_minus=_scalar("5", bv),
            beta_lateral=_scalar("x1", strip_vars(1)),
            s_candidate=_scalar("x1", bv),
        ),
    )


def transform_demo_problem() -> ThinProblem:
    """Nonzero distortion field with a sloped top profile.

    The implicit top boundary then genuinely differs from eps*g+, giving
    the quadratic-in-eps profile gap its expected order.
    """
    bv = base_vars(1)
    gamma0 = _scalar("0.2*x1", bv)
    return ThinProblem(
        controls=ControlSet(("1",), ("1",)),
        coeffs=CoefficientFamily(entries={("1", "1"): _entry(1, [["1", "0"], ["0", "1"]], ["0.3", "0.1"], "0", "1")}, bound=50.0),
        geom=GeometrySpec(
            n=1,
            lower=(0.0,),
            upper=(1.0,),
            g_minus=_scalar("-1", bv),
            g_plus=_scalar("1 + 0.5*x1", bv),
            epsilon0=0.2,
        ),
        bdata=BoundaryData(
            gamma0=VectorField([gamma0]),
            beta0=_scalar("0", bv),
            k_plus=VectorField([_scalar("0", bv)]),
            k_minus=VectorField([_scalar("0", bv)]),
            l_plus=_scalar("0", bv),
            l_minus=_scalar("0", bv),
            beta_lateral=_scalar("0", strip_vars(1)),
            s_candidate=_scalar("x1", bv),
        ),
    )
