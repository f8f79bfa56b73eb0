"""The problem families that the tests build in code: the flat reference strip and its variants."""

from __future__ import annotations

from thinpde.expressions import VectorField, base_vars, strip_vars
from thinpde.presets import _entry, _scalar
from thinpde.problem import BoundaryData, CoefficientFamily, ControlSet, GeometrySpec, ThinProblem


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
