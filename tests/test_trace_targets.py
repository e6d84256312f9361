"""The benchmark's tracer wraps package names it finds by string; a rename
in the package must fail here rather than turn a per-layer metric absent."""

import importlib
import importlib.util
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def _load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child_under_test", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_trace_child().TARGETS
    assert targets
    missing = []
    for span, modname, attr, only in targets:
        owner = importlib.import_module(modname)
        for rebind in only or ():
            importlib.import_module(rebind)
        if "." in attr:  # a method, looked up on its class as the tracer does
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = isinstance(cls, type) and callable(getattr(cls, meth, None)) and meth in vars(cls)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append((span, f"{modname}.{attr}"))
    assert missing == []
