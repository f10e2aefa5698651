"""The benchmark's per-layer tracer wraps polcheck functions by name;
every name it hooks must still exist, or its traced run loses layers."""

import importlib
import importlib.util
import sys
from pathlib import Path

from polcheck import oracle as oracle_module

TRACER = Path(__file__).resolve().parent.parent / "verdictbench" / "tracer.py"


def load_tracer(monkeypatch):
    """``verdictbench/tracer.py`` as a module, read as it is on disk; no
    bytecode is written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("verdictbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def resolve(hook):
    module = importlib.import_module(f"polcheck.{hook.module}")
    if "." in hook.target:
        class_name, attr = hook.target.split(".", 1)
        return vars(getattr(module, class_name)).get(attr)
    return getattr(module, hook.target, None)


def test_every_traced_layer_resolves_in_polcheck(monkeypatch):
    tracer = load_tracer(monkeypatch)
    oracle_hooks = tracer.oracle_hooks(oracle_module)
    hooks = tracer.engine_hooks() + oracle_hooks
    assert [h.target for h in hooks if not callable(resolve(h))] == []
    oracle_layers = {h.layer for h in oracle_hooks}
    assert {"oracle.eval_form", "oracle.eval_genpoly", "oracle.apply_map"} <= oracle_layers
    # so every reported layer has a hooked function
    assert {name for name, _ in tracer.REPORTED} <= {h.layer for h in hooks}
