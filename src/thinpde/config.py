"""Problem configuration files (INI-style, expression-valued fields).

Sections: [controls], [geometry], [boundary], one [coefficients.<lam>.<mu>]
per control pair (optionally a [coefficients] section with the declared
uniform bound), and an optional [experiment] section with the run settings
of the convergence experiment, read into an :class:`ExperimentPlan`.
Gradients and Hessians are always the exact derivatives of the expressions,
so no section supplies them.  The loader records each key it asks for, and
any other section or key is a ConfigError naming it.
The full schema is documented in docs/config.md.
"""

from __future__ import annotations

import argparse
import configparser
import math
import operator
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .expressions import ScalarField, VectorField, base_vars, strip_vars
from .problem import (
    BoundaryData,
    CoefficientEntry,
    CoefficientFamily,
    ControlSet,
    GeometrySpec,
    ThinProblem,
)


class ConfigError(ValueError):
    pass


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep at parenthesis depth zero (expression-safe)."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return [p for p in parts if p]


class _OutOfRange(argparse.ArgumentTypeError, ValueError):
    """A value that parses but lies outside its range.

    In a config file it becomes a ConfigError naming the key; as the type of
    a command-line option it is a usage error (exit 2).
    """


def int_at_least(low: int):
    """Parser of an int >= ``low``, from text or an integer."""

    def parse(text) -> int:
        value = int(text) if isinstance(text, str) else operator.index(text)
        if value < low:
            raise _OutOfRange(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def positive_float(text) -> float:
    """Parser of a finite float > 0, from text or a number."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise _OutOfRange(f"must be a finite number > 0, got {text}")
    return value


positive_float.__name__ = "float"  # argparse names the type in "invalid float value"


def _decreasing_eps(text) -> tuple[float, ...]:
    """Parser of a strictly decreasing list of finite floats > 0, from comma-separated text or a sequence."""
    values = tuple(positive_float(p) for p in (_split_top(text, ",") if isinstance(text, str) else text))
    if not values or any(b >= a for a, b in zip(values, values[1:])):
        raise _OutOfRange(f"must be a non-empty, strictly decreasing list, got {text}")
    return values


def _labels(value: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in value.split(",") if p.strip())


def _floats(value: str) -> tuple[float, ...]:
    return tuple(float(p) for p in _split_top(value, ","))


# The range of each run setting, written once: ExperimentPlan, the [experiment]
# keys, the command-line options, policy_iteration and make_eps_grid all parse with these.
SETTING_RANGES = {
    "eps_list": _decreasing_eps,
    # a grid of one interval has no interior column, so its error is 0 and any verdict vacuous
    "nx": int_at_least(2),
    "ny": int_at_least(7),  # the strip needs 8 vertical nodes
    "limit_resolution": int_at_least(2),
    "tol": positive_float,  # Howard's residual tolerance
    "max_iter": int_at_least(1),  # Howard's iteration cap
}


def in_range(name: str, value):
    """``value`` parsed by the range of setting ``name``; a ValueError out of range names the setting."""
    try:
        return SETTING_RANGES[name](value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


# the [experiment] key of each run setting: its name, but for eps and limit_nx
_RENAMED = {"eps_list": "eps", "limit_resolution": "limit_nx"}
_EXPERIMENT_KEYS = {name: _RENAMED.get(name, name) for name in SETTING_RANGES}


@dataclass(frozen=True)
class ExperimentPlan:
    """The run settings of a convergence experiment, range-checked on construction.

    A strip grid of ``nx`` x ``ny`` intervals at each eps of the strictly
    decreasing ``eps_list``, the limit grid at ``limit_resolution`` and twice
    that, and Howard's ``tol`` and ``max_iter`` for every solve.  A value out
    of its range in ``SETTING_RANGES`` raises a ValueError naming the field.
    """

    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    nx: int = 64
    ny: int = 16
    limit_resolution: int = 64
    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        for name in SETTING_RANGES:
            object.__setattr__(self, name, in_range(name, getattr(self, name)))


class _ConfigFile(configparser.ConfigParser):
    """A config file that records each (section, key) the loader asks for, present or not."""

    def __init__(self):
        # default_section "" matches no header, so [DEFAULT] is one more (unknown) section, not inherited by all
        super().__init__(interpolation=None, comment_prefixes=("#", ";"), default_section="")
        self.optionxform = str
        self.asked: set[tuple[str, str]] = set()


_REQUIRED = object()  # the default of a key that must be present


def _value(cp: _ConfigFile, sec: str, key: str, parse=str, default=_REQUIRED):
    """``parse(cp[sec][key])``, or ``default`` if the key (or its section) is absent.

    A missing key without a default, or an unparsable value, is a ConfigError naming both.
    """
    cp.asked.add((sec, key))
    if sec not in cp or key not in cp[sec]:
        if default is _REQUIRED:
            raise ConfigError(f"[{sec}] {key}: missing")
        return default
    try:
        return parse(cp[sec][key])
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key}: {exc}") from exc


def _reject_unasked(cp: _ConfigFile, sections) -> None:
    """A ConfigError naming the first of ``sections``, or of their keys, that the loader never asked for."""
    for sec in sections:
        asked = {key for s, key in cp.asked if s == sec}
        if not asked:
            raise ConfigError(f"[{sec}]: unknown section")
        for key in cp[sec]:
            if key not in asked:
                raise ConfigError(f"[{sec}] {key}: unknown key")


def _read(path) -> _ConfigFile:
    cp = _ConfigFile()
    try:
        read = cp.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return cp


def _checked(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose ValueError (a broken invariant) becomes a ConfigError naming ``section``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def load_problem(path: str | Path) -> ThinProblem:
    cp = _read(path)
    for sec in ("controls", "geometry", "boundary"):
        if sec not in cp:
            raise ConfigError(f"missing [{sec}] section")

    min_labels = _value(cp, "controls", "L", _labels)
    max_labels = _value(cp, "controls", "M", _labels)
    controls = _checked("controls", ControlSet, min_labels, max_labels)

    lower = _value(cp, "geometry", "lower", _floats)
    upper = _value(cp, "geometry", "upper", _floats)
    n = len(lower)
    bvars = base_vars(n)
    svars = strip_vars(n)

    def scalar(name: str, text: str, variables) -> ScalarField:
        try:
            return ScalarField(text, variables)
        except Exception as exc:
            raise ConfigError(f"field {name}: {exc}") from exc

    def vector(name: str, text: str, variables) -> VectorField:
        parts = _split_top(text, ",")
        if len(parts) != n:
            raise ConfigError(f"field {name} needs {n} comma-separated expressions")
        comps = [scalar(f"{name}_{i + 1}", p, variables) for i, p in enumerate(parts)]
        return VectorField(comps)

    geom = _checked(
        "geometry",
        GeometrySpec,
        lower=lower,
        upper=upper,
        g_minus=scalar("g_minus", _value(cp, "geometry", "g_minus"), bvars),
        g_plus=scalar("g_plus", _value(cp, "geometry", "g_plus"), bvars),
        epsilon0=_value(cp, "geometry", "epsilon0", float, 0.25),
    )

    h = _value(cp, "geometry", "h", default=None)
    boundary = partial(_value, cp, "boundary")
    bdata = BoundaryData(
        gamma0=vector("gamma0", boundary("gamma0"), bvars),
        beta0=scalar("beta0", boundary("beta0"), bvars),
        k_plus=vector("k_plus", boundary("k_plus"), bvars),
        k_minus=vector("k_minus", boundary("k_minus"), bvars),
        l_plus=scalar("l_plus", boundary("l_plus"), bvars),
        l_minus=scalar("l_minus", boundary("l_minus"), bvars),
        beta_lateral=scalar("beta", boundary("beta"), svars),
        s_candidate=scalar("s", boundary("s"), bvars),
        h=None if h is None else scalar("h", h, bvars),
    )

    bound = _value(cp, "coefficients", "bound", float, None)
    entries = {}
    for lam in min_labels:
        for mu in max_labels:
            sec = f"coefficients.{lam}.{mu}"
            if sec not in cp:
                raise ConfigError(f"missing [{sec}] section")
            rows = _split_top(_value(cp, sec, "sigma"), ";")
            sigma = []
            for i, row in enumerate(rows):
                cells = _split_top(row, ",")
                if len(cells) != n + 1:
                    raise ConfigError(f"[{sec}] sigma rows need {n + 1} columns")
                sigma.append(
                    tuple(scalar(f"sigma[{lam}.{mu}][{i}][{j}]", c, svars) for j, c in enumerate(cells))
                )
            bcells = _split_top(_value(cp, sec, "b"), ",")
            if len(bcells) != n + 1:
                raise ConfigError(f"[{sec}] b needs {n + 1} entries")
            entries[(lam, mu)] = CoefficientEntry(
                sigma=tuple(sigma),
                b=tuple(scalar(f"b[{lam}.{mu}][{j}]", c, svars) for j, c in enumerate(bcells)),
                c=scalar(f"c[{lam}.{mu}]", _value(cp, sec, "c"), svars),
                f=scalar(f"f[{lam}.{mu}]", _value(cp, sec, "f"), svars),
            )

    _experiment_settings(cp)  # a malformed run setting stops every subcommand, not only those that run the plan
    _reject_unasked(cp, cp.sections())
    return ThinProblem(
        controls=controls,
        # an absent bound keeps the family's default
        coeffs=CoefficientFamily(entries) if bound is None else CoefficientFamily(entries, bound),
        geom=geom,
        bdata=bdata,
    )


def _experiment_settings(cp: _ConfigFile) -> dict:
    """The run settings that the [experiment] section sets, each parsed by its range; a malformed one is a ConfigError."""
    values = {name: _value(cp, "experiment", key, SETTING_RANGES[name], None) for name, key in _EXPERIMENT_KEYS.items()}
    return {name: value for name, value in values.items() if value is not None}


def load_experiment_settings(path: str | Path) -> ExperimentPlan:
    """The plan of a config's [experiment] section; an absent key keeps its default."""
    cp = _read(path)
    settings = _experiment_settings(cp)
    if "experiment" in cp:
        _reject_unasked(cp, ["experiment"])
    return ExperimentPlan(**settings)
