"""Every entry point the benchmark's layer tracer wraps still exists.

``perfbench/tracer.py`` patches functions by name; a renamed or removed
entry point only prints a warning there and drops its layer from the trace.
The tracer is loaded from its file, not installed, and nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves():
    missing = []
    for _, module_name, path in _load_tracer().ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name, None)
        # the tracer looks the name up in the owner's own namespace
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module_name}.{path}")
    assert not missing, f"trace hooks without a target: {missing}"
