"""Random configs around ``configs/distorted.cfg``, and where the pipeline stops on them.

Each drawn config keeps distorted.cfg's layout, control set, grids and eps
list.  Each of gamma0, g+-, beta0, k+, l+, the lateral beta, every sigma entry,
b, c, f and s keeps its distorted.cfg value, or with probability 1/4 becomes a
constant, ``x1`` (or ``y`` in a strip field), or a tree of ``+ - *``, ``sin``,
``cos`` and ``abs`` at most two deep.  The weights are arbitrary: the counts
profile where the pipeline stops, not rates over any natural distribution.

Run as a script to print the count of runs by exit code and stopping stage,
for 150 configs drawn from seed 0 (about 10 s)::

    PYTHONPATH=src python -m tests.configgen
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np

from thinpde import cli

BASE_LEAVES = ("0", "1", "-1", "0.5", "2", "x1")
STRIP_LEAVES = BASE_LEAVES + ("y",)

# each drawn field: its distorted.cfg value and the variables it may use
FIELDS = {
    "g_minus": ("-1", BASE_LEAVES),
    "g_plus": ("1", BASE_LEAVES),
    "gamma0": ("0.2*x1", BASE_LEAVES),
    "beta0": ("0", BASE_LEAVES),
    "k_plus": ("0", BASE_LEAVES),
    "l_plus": ("0", BASE_LEAVES),
    "beta": ("0", STRIP_LEAVES),
    "s": ("x1", BASE_LEAVES),
    "a11": ("1", STRIP_LEAVES),
    "a12": ("0", STRIP_LEAVES),
    "a21": ("0", STRIP_LEAVES),
    "a22": ("1", STRIP_LEAVES),
    "b1": ("0", STRIP_LEAVES),
    "b2": ("0", STRIP_LEAVES),
    "c": ("0", STRIP_LEAVES),
    "f": ("sin(pi*x1) + y", STRIP_LEAVES),
}

TEMPLATE = """\
[controls]
L = 1
M = 1

[geometry]
lower = 0
upper = 1
g_minus = {g_minus}
g_plus = {g_plus}
epsilon0 = 0.25

[boundary]
gamma0 = {gamma0}
beta0 = {beta0}
k_plus = {k_plus}
k_minus = 0
l_plus = {l_plus}
l_minus = 0
beta = {beta}
s = {s}

[coefficients]
bound = 50

[coefficients.1.1]
sigma = {a11}, {a12}; {a21}, {a22}
b = {b1}, {b2}
c = {c}
f = {f}

[experiment]
eps = 0.2, 0.1, 0.05, 0.025
nx = 128
ny = 32
limit_nx = 128
"""


def _pick(rng: np.random.Generator, options: Sequence):
    return options[int(rng.integers(len(options)))]


def expression(rng: np.random.Generator, leaves: Sequence[str], depth: int = 2) -> str:
    """A leaf, or a tree of ``+ - *``, ``sin``, ``cos`` and ``abs`` at most ``depth`` deep."""
    kind = _pick(rng, ("leaf", "unary", "binary")) if depth else "leaf"
    if kind == "leaf":
        return _pick(rng, leaves)
    if kind == "unary":
        return f"{_pick(rng, ('sin', 'cos', 'abs'))}({expression(rng, leaves, depth - 1)})"
    left, op, right = expression(rng, leaves, depth - 1), _pick(rng, "+-*"), expression(rng, leaves, depth - 1)
    return f"({left} {op} {right})"


def config_text(rng: np.random.Generator) -> str:
    """One config drawn from ``rng``."""
    fields = {}
    for name, (kept, leaves) in FIELDS.items():
        fields[name] = expression(rng, leaves) if rng.random() < 0.25 else kept
    return TEMPLATE.format(**fields)


def run_pipeline(text: str) -> tuple[int, str, str]:
    """``thinpde pipeline`` in this process, warnings as errors: (exit code, stopping stage, stderr).

    The stage is the one the report's last line names, ``done`` on success,
    or ``error`` when the command stops before the pipeline (one ``error:`` line).
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.cfg"
        path.write_text(text)
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(["pipeline", "--config", str(path)])
    last = (out.getvalue().strip().splitlines() or [""])[-1]
    if last == "pipeline: SUCCESS":
        stage = "done"
    elif last.startswith("pipeline: FAILED at stage "):
        stage = last.split()[4]
    else:
        stage = "error"
    return code, stage, err.getvalue()


def reach_table(seed: int, count: int) -> Counter:
    """Runs of ``count`` configs drawn from ``default_rng(seed)``, counted by (exit code, stopping stage)."""
    rng = np.random.default_rng(seed)
    return Counter(run_pipeline(config_text(rng))[:2] for _ in range(count))


if __name__ == "__main__":
    seed, count = 0, 150
    print(f"seed {seed}, {count} configs")
    print("| exit | stage | count |")
    print("|---|---|---|")
    for (code, stage), n in sorted(reach_table(seed, count).items()):
        print(f"| {code} | {stage} | {n} |")
