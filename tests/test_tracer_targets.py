"""Guard for the benchmark tracer: every library name it wraps must exist.

``perfbench/tracing.py`` patches the functions and methods listed in its
``TARGETS`` by name. A simplification that drops or renames one of them
would break ``perfbench/run.py --trace 1`` without failing any library
test, so this test loads the tracer by file path (it is not a package
module) and resolves every target the way its ``install`` does.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    for target in targets:
        module_name, _, class_name = target.owner.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, target.attr, None)), target.name
