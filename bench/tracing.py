"""Per-layer tracing, installed from the benchmark by wrapping thinpde's public functions.

Every public module-level function of the traced modules records a span
(name, start, end, parent span, pass id) in memory. Per-point methods
(``Expr.evaluate``, ``DistortionMap.inverse``, ``DistortionMap.d2q``) would
cost more as spans than the work they do, so they only add to a call count
and a summed time. ``splu`` as seen from ``thinpde.solver`` is wrapped too,
so factorizations show as spans of their own.

A span's self time is its duration minus the durations of its direct child
spans. ``Tracer.pass_metrics`` turns one pass's spans and counters into the
per-layer metrics that ``run.py`` reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = (
    "config",
    "cli",
    "expressions",
    "problem",
    "ellipticity",
    "reduction",
    "distortion",
    "barriers",
    "solver",
    "harness",
)

# (module, class, method) -> counter prefix
PER_POINT = {
    ("expressions", "Expr", "evaluate"): "expressions.evaluate",
    ("distortion", "DistortionMap", "inverse"): "distortion.inverse",
    ("distortion", "DistortionMap", "d2q"): "distortion.d2q",
}

# metric -> (how, span names): "incl" sums outermost span durations,
# "self" sums self times, "calls" counts spans
SPAN_METRICS = {
    "config.load_s": ("incl", ("config.load_problem", "config.load_experiment_settings")),
    "cli.self_s": ("self", ("cli.*",)),
    "problem.validate_s": ("incl", ("problem.validate",)),
    "ellipticity.certify_s": (
        "incl",
        ("ellipticity.interior_certificate", "ellipticity.boundary_certificate", "ellipticity.equivalence_check"),
    ),
    "reduction.representation_check_s": ("incl", ("reduction.representation_check",)),
    "barriers.search_parameters_calls": ("calls", ("barriers.search_parameters",)),
    "barriers.search_parameters_s": ("incl", ("barriers.search_parameters",)),
    "harness.sandwich_margins_s": ("self", ("harness.sandwich_margins",)),
    "harness.convergence_experiment_s": ("self", ("harness.convergence_experiment",)),
    "solver.assemble_s": ("incl", ("solver.discretize_eps", "solver.discretize_limit")),
    "solver.factorizations": ("calls", ("solver.splu",)),
    "solver.factor_s": ("incl", ("solver.splu",)),
    "solver.howard_s": ("self", ("solver.policy_iteration",)),
}

COUNTER_METRICS = (
    "expressions.evaluate_calls",
    "expressions.evaluate_s",
    "distortion.inverse_calls",
    "distortion.inverse_s",
    "distortion.d2q_calls",
    "distortion.d2q_s",
    "solver.assembled_nodes",
    "solver.howard_iterations",
    "solver.policy_switches",
)

UNITS = {
    **{m: "count" if how == "calls" else "s" for m, (how, _) in SPAN_METRICS.items()},
    **{m: "s" if m.endswith("_s") else "count" for m in COUNTER_METRICS},
    "trace.unattributed_s": "s",
}


class Tracer:
    """Spans and counters of the traced calls; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        # one span: [pass_id, parent index or -1, name, start, end]
        self.spans: list[list] = []
        self.counters: dict[object, Counter] = defaultdict(Counter)
        self.pass_id: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        import scipy.sparse.linalg as spla

        modules = {name: importlib.import_module(f"thinpde.{name}") for name in TRACED_MODULES}
        replacements = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                replacements[id(fn)] = self._span(f"{short}.{attr}", fn, _OBSERVERS.get(f"{short}.{attr}"))
        package = [m for n, m in list(sys.modules.items()) if n == "thinpde" or n.startswith("thinpde.")]
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    self._patch(mod, attr, replacements[id(value)])
        # factorizations as seen from the solver, whether it holds the module or the function
        splu = self._span("solver.splu", spla.splu)
        for attr, value in list(vars(modules["solver"]).items()):
            if value is spla:
                self._patch(modules["solver"], attr, _ModuleView(spla, splu=splu))
            elif value is spla.splu:
                self._patch(modules["solver"], attr, splu)
        for (short, cls, meth), prefix in PER_POINT.items():
            klass = getattr(modules[short], cls, None)
            if klass is None or meth not in vars(klass):
                print(f"# warning: thinpde.{short}.{cls}.{meth} not found; {prefix}_* read 0", flush=True)
                continue
            self._patch(klass, meth, self._count(prefix, vars(klass)[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _span(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.pass_id, stack[-1] if stack else -1, name, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(self.counters[self.pass_id], None, exc)
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counters[self.pass_id], result, None)
            return result

        return wrapper

    def _count(self, prefix: str, fn):
        calls, seconds = f"{prefix}_calls", f"{prefix}_s"
        depth = [0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = self.counters[self.pass_id]
            counter[calls] += 1
            if depth[0]:  # re-entrant call: its time is inside the outer one
                return fn(*args, **kwargs)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[seconds] += clock() - t0
                depth[0] -= 1

        return wrapper

    # -- reading ------------------------------------------------------------

    def pass_metrics(self, pass_id, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass whose operations took ``wall`` seconds."""
        index = [i for i, s in enumerate(self.spans) if s[0] == pass_id]
        child_time = Counter()
        for i in index:
            span = self.spans[i]
            if span[1] >= 0:
                child_time[span[1]] += span[4] - span[3]
        out = {}
        for metric, (how, names) in SPAN_METRICS.items():
            chosen = [i for i in index if _matches(self.spans[i][2], names)]
            durations = [self.spans[i][4] - self.spans[i][3] for i in chosen]
            if how == "calls":
                out[metric] = float(len(chosen))
            elif how == "self":
                out[metric] = float(sum(d - child_time[i] for d, i in zip(durations, chosen)))
            else:
                out[metric] = float(sum(d for d, i in zip(durations, chosen) if not self._inside(i, names)))
        counter = self.counters[pass_id]
        for metric in COUNTER_METRICS:
            out[metric] = float(counter[metric])
        self_total = sum(self.spans[i][4] - self.spans[i][3] - child_time[i] for i in index)
        out["trace.unattributed_s"] = wall - self_total
        return out

    def _inside(self, i: int, names) -> bool:
        parent = self.spans[i][1]
        while parent >= 0:
            if _matches(self.spans[parent][2], names):
                return True
            parent = self.spans[parent][1]
        return False

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        names = sorted({s[2] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        return {
            "span_fields": ["pass", "parent", "name", "start_s", "end_s"],
            "names": names,
            "spans": [[s[0], s[1], code[s[2]], s[3], s[4]] for s in self.spans],
            "counters": {str(k): dict(v) for k, v in self.counters.items()},
        }


def _matches(name: str, names) -> bool:
    return any(name == n or (n.endswith(".*") and name.startswith(n[:-1])) for n in names)


def _assembled(counter, system, exc) -> None:
    if system is not None:
        counter["solver.assembled_nodes"] += system.grid.size


def _howard(counter, field, exc) -> None:
    source = field if field is not None else exc
    counter["solver.howard_iterations"] += getattr(source, "iterations", 0)
    counter["solver.policy_switches"] += getattr(source, "policy_switch_count", 0)


_OBSERVERS = {
    "solver.discretize_eps": _assembled,
    "solver.discretize_limit": _assembled,
    "solver.policy_iteration": _howard,
}


class _ModuleView:
    """A module seen through a few replaced attributes; everything else is the module's own."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, attr):
        return getattr(self._module, attr)
