"""perfbench's tracer wraps library names from the outside; every one must exist.

The tracer lives outside the package, so a rename or deletion in ``src``
would otherwise only surface when a traced benchmark run fails.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict:
    """Attribute dicts of every loaded injectstream module and of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "injectstream" or name.startswith("injectstream."):
            out[name] = dict(vars(module))
            for cls_name, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == name:
                    out[f"{name}.{cls_name}"] = dict(vars(cls))
    return out


def test_tracer_install_wraps_existing_names_and_uninstall_restores_them():
    import injectstream.cli  # noqa: F401 - loads every module the tracer patches

    before = _namespaces()
    tracer = _load_tracer().Tracer("t")
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert _namespaces() == before
