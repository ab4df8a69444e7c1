"""The benchmark's tracer wraps package functions by name (bench/tracing.py,
TARGETS): each entry must name a function or a class method that exists,
so that a change which deletes or renames a traced binding fails here and
not only in a traced benchmark run.  The tracer module is loaded from its
file and only read."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(mod_name: str, qualname: str):
    """What the tracer would wrap for (module, qualified name), or None."""
    mod = importlib.import_module(f"multiplex.{mod_name}")
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        cls = getattr(mod, cls_name, None)
        # the tracer patches the class's own attribute, not an inherited one
        if not inspect.isclass(cls) or meth not in vars(cls):
            return None
        fn = vars(cls)[meth]
    else:
        fn = getattr(mod, qualname, None)
    return fn if callable(fn) else None


def test_every_traced_target_resolves():
    tracing = _tracing()
    targets = [t for group in tracing.TARGETS.values() for t in group]
    assert len(targets) > 40
    missing = [t for t in targets if _resolve(*t) is None]
    assert missing == []
    # hooks and predictions refer to traced targets and groups
    assert set(tracing.HOOKS) <= set(targets)
    assert set(tracing.PREDICTIONS) <= set(tracing.TARGETS)


def test_resolve_rejects_missing_bindings():
    assert _resolve("bigraded", "tree_iso") is not None
    assert _resolve("linalg", "Matrix._echelon") is not None
    for target in [("bigraded", "no_such_function"),
                   ("linalg", "Matrix.no_such_method"),
                   ("linalg", "NoSuchClass.solve"),
                   ("linalg", "DEFAULT_PRIME")]:
        assert _resolve(*target) is None
