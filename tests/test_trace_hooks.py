"""The benchmark's layer tracer still finds and reads what it wraps.

``perfbench/tracer.py`` patches functions by name; a renamed or removed
entry point only prints a warning there and drops its layer from the trace,
and a renamed attribute that a span reads off its call breaks traced runs
alone.  The tracer is loaded from its file, not installed as a package.
"""

import importlib
import importlib.util
import json
import time
from pathlib import Path

from test_cli import SMALL_CONVERGE

from bergman_heat.cli import EXIT_OK, run
from bergman_heat.config import DEFAULTS

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


def test_traced_run_reads_its_guards(tmp_path):
    # zonal forms take the per-order block path, so the non-zonal form is
    # the one that exercises Q assembly
    cfg = dict(SMALL_CONVERGE, volume_forms=SMALL_CONVERGE["volume_forms"]
               + [{"id": "tilted", "coefficients": {"1,1": 0.1, "2,1": 0.05}}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    untraced, traced = tmp_path / "untraced", tmp_path / "traced"
    assert run(["converge", "--config", str(path),
                "--out", str(untraced)]) == EXIT_OK
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        code = run(["converge", "--config", str(path), "--out", str(traced)])
        wall = time.perf_counter() - start
    finally:
        tracer.remove()
    assert code == EXIT_OK
    assert tracer.missing == []
    layers = tracer.metrics(wall)
    # one Q assembly per non-zonal (form, p) cell
    assert layers["bench.q_assembly_calls"] == len(cfg["p_list"])
    assert layers["sections.gram_cond_max"] >= 1.0
    assert layers["bench.tail_max"] <= DEFAULTS["converge"]["tail_bound"]
    assert ((traced / "converge.csv").read_bytes()
            == (untraced / "converge.csv").read_bytes())
