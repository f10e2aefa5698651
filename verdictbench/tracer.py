"""Per-layer spans for the benchmark's traced run, installed from outside.

The tracer wraps public functions of polcheck's modules in place (every
module-level binding of the function, and methods on their classes) and
restores them afterwards; nothing inside ``src/`` changes.  A call is a
span only when it enters a layer from another module: a wrapper whose
caller lives in the layer's own module passes straight through, so
recursion and helper calls inside a layer stay part of that layer.

For each layer the tracer keeps aggregates rather than a span list:
``calls``, inclusive seconds ``s`` (outermost entries only) and
``self_s``, the inclusive time minus the time of child spans.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import update_wrapper

PACKAGE = "polcheck"

#: Engine functions that happen to live in ``polcheck.oracle`` but draw
#: the seeded samples of ordinary checks; they are not part of the audit.
ORACLE_SAMPLING = frozenset({"random_element", "sample_elements", "_rng"})

_FIELD_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                    "__truediv__", "__rtruediv__", "__pow__", "__neg__")


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    target: str  # "function" or "Class.method"


def engine_hooks() -> list[Hook]:
    hooks = [
        Hook("session.parse_session", "session", "parse_session"),
        Hook("funceq.check_symmetrized", "funceq", "check_symmetrized"),
        Hook("funceq.classify_quadratic_square", "funceq", "classify_quadratic_square"),
        Hook("funceq.check_pointwise", "funceq", "check_pointwise"),
        Hook("genpoly.degree_estimate", "genpoly", "degree_estimate"),
        Hook("genpoly.variety_rank", "genpoly", "variety_rank"),
        Hook("maps.verify_map_laws", "maps", "verify_map_laws"),
        Hook("forms.polarize", "forms", "polarize"),
        Hook("forms.eval_form", "forms", "eval_form"),
        Hook("forms.trace", "forms", "GenMonomial.__call__"),
        Hook("forms.delta_many", "forms", "delta_many"),
        Hook("maps.apply_map", "maps", "apply_map"),
        Hook("maps.apply_map", "maps", "AdditiveMap.__call__"),
        Hook("fields.field_arith", "fields", "field_arith"),
        Hook("fields.substitute", "fields", "substitute"),
        Hook("polys.poly_gcd", "polys", "poly_gcd"),
        Hook("polys.exact_div", "polys", "exact_div"),
        Hook("linalg.rank", "linalg", "rank"),
    ]
    hooks += [Hook("fields.field_arith", "fields", f"FieldElement.{op}")
              for op in _FIELD_OPERATORS]
    return hooks


def oracle_hooks(oracle_module) -> list[Hook]:
    """Every function and ``Oracle`` method of the oracle module, each
    its own layer ``oracle.<name>``, except the sampling helpers."""
    hooks = []
    for name, value in vars(oracle_module).items():
        if (callable(value) and getattr(value, "__module__", None) == oracle_module.__name__
                and not isinstance(value, type) and name not in ORACLE_SAMPLING):
            hooks.append(Hook(f"oracle.{name}", "oracle", name))
    oracle_class = getattr(oracle_module, "Oracle", None)
    if oracle_class is not None:
        for name, value in vars(oracle_class).items():
            if callable(value):
                hooks.append(Hook(f"oracle.{name}", "oracle", f"Oracle.{name}"))
    return hooks


#: (layer, metrics) as reported; ``oracle.self_s`` sums every oracle layer.
REPORTED = (
    ("session.parse_session", ("calls", "s")),
    ("funceq.check_symmetrized", ("calls", "s")),
    ("funceq.classify_quadratic_square", ("calls", "s")),
    ("funceq.check_pointwise", ("calls", "s", "points")),
    ("genpoly.degree_estimate", ("s",)),
    ("genpoly.variety_rank", ("s",)),
    ("maps.verify_map_laws", ("s",)),
    ("forms.polarize", ("s",)),
    ("forms.eval_form", ("calls", "self_s")),
    ("forms.trace", ("calls", "self_s")),
    ("forms.delta_many", ("calls",)),
    ("maps.apply_map", ("calls", "self_s", "distinct", "distinct_ratio")),
    ("fields.field_arith", ("calls", "self_s")),
    ("fields.substitute", ("calls", "self_s")),
    ("polys.poly_gcd", ("calls", "self_s")),
    ("polys.exact_div", ("calls",)),
    ("linalg.rank", ("calls", "self_s")),
    ("oracle.eval_form", ("calls",)),
    ("oracle.eval_genpoly", ("calls",)),
    ("oracle.apply_map", ("calls",)),
)


def unit(metric: str) -> str:
    """Unit of a reported metric, from the last part of its name."""
    kind = metric.rsplit(".", 1)[1]
    return {"calls": "count", "points": "count", "distinct": "count",
            "distinct_ratio": "ratio"}.get(kind, "s")


class _Layer:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Installs wrappers around the loaded polcheck modules; use a new
    tracer as a context manager around each traced pass, then read
    ``metrics()``."""

    def __init__(self):
        self.layers: dict[str, _Layer] = {}
        self.stack: list[list[float]] = []
        self.patches: list[tuple[object, str, object]] = []
        self.pairs: set = set()
        self.points = 0

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {name: module for name, module in list(sys.modules.items())
                   if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        hooks = engine_hooks()
        oracle_module = modules.get(f"{PACKAGE}.oracle")
        if oracle_module is not None:
            hooks += oracle_hooks(oracle_module)
        for hook in hooks:
            self._install(hook, modules)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        self.stack.clear()

    def _install(self, hook: Hook, modules: dict) -> None:
        home = f"{PACKAGE}.{hook.module}"
        module = modules.get(home)
        if module is None:
            return
        if "." in hook.target:
            class_name, attr = hook.target.split(".", 1)
            owner = getattr(module, class_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
        else:
            original = getattr(module, hook.target, None)
        if not callable(original):
            return
        layer = self.layers.setdefault(hook.layer, _Layer())
        wrapper = self._wrap(original, layer, home, self._on_enter(hook.layer))
        if "." in hook.target:
            self.patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for namespace in modules.values():
            for name, value in list(vars(namespace).items()):
                if value is original:
                    self.patches.append((namespace, name, original))
                    setattr(namespace, name, wrapper)

    def _on_enter(self, layer: str):
        if layer == "maps.apply_map":
            def record_pair(args, kwargs):
                if len(args) >= 2:
                    self.pairs.add((id(args[0]), args[1]))
            return record_pair
        if layer == "funceq.check_pointwise":
            def record_points(args, kwargs):
                samples = args[3] if len(args) > 3 else kwargs.get("samples", ())
                self.points += len(samples)
            return record_points
        return None

    def _wrap(self, original, layer: _Layer, home: str, on_enter):
        stack = self.stack
        caller = sys._getframe
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if caller(1).f_globals.get("__name__") == home:
                return original(*args, **kwargs)
            layer.calls += 1
            if on_enter is not None:
                on_enter(args, kwargs)
            layer.depth += 1
            span = [clock(), 0.0]
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - span[0]
                stack.pop()
                layer.self_s += elapsed - span[1]
                layer.depth -= 1
                if not layer.depth:
                    layer.s += elapsed
                if stack:
                    stack[-1][1] += elapsed

        update_wrapper(wrapper, original)
        return wrapper

    # -- results -------------------------------------------------------

    def absent(self) -> list[str]:
        """Reported layers whose function was not found in polcheck."""
        return [name for name, _ in REPORTED if name not in self.layers]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass just traced.  A layer whose
        function no longer exists is left out rather than reported 0."""
        out: dict[str, float] = {}
        for name, fields in REPORTED:
            layer = self.layers.get(name)
            if layer is None:
                continue
            for metric in fields:
                if metric == "points":
                    value = self.points
                elif metric == "distinct":
                    value = len(self.pairs)
                elif metric == "distinct_ratio":
                    value = len(self.pairs) / layer.calls if layer.calls else 0.0
                else:
                    value = getattr(layer, metric)
                out[f"{name}.{metric}"] = value
        out["oracle.self_s"] = sum(layer.self_s for name, layer in self.layers.items()
                                   if name.startswith("oracle."))
        return out
