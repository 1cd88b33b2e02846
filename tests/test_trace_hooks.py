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

from bergman_heat.bench import _turned
from bergman_heat.cli import EXIT_OK, run
from bergman_heat.config import DEFAULTS
from bergman_heat.geometry import VolumeForm, build_grid
from bergman_heat.heat import SphericalHarmonicTransform

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


# the assembled routes next to the small config's zonal forms: tilted is
# mirror-symmetric, tilted-mirror has the equator flip, which a sweep turns
# onto the mirror route, sectoral both, and the generic form neither
ROUTE_FORMS = [
    {"id": "tilted", "coefficients": {"1,1": 0.1, "2,1": 0.05}},
    {"id": "tilted-mirror", "coefficients": {"1,-1": -0.1, "2,-2": 0.05}},
    {"id": "sectoral", "coefficients": {"2,2": 0.04, "3,1": 0.02}},
    {"id": "generic", "coefficients": {"1,1": 0.1, "2,-1": 0.05}},
]


def test_traced_run_reads_its_guards(tmp_path):
    cfg = dict(SMALL_CONVERGE,
               volume_forms=SMALL_CONVERGE["volume_forms"] + ROUTE_FORMS)
    sht = SphericalHarmonicTransform(build_grid(cfg["n_theta"], cfg["n_phi"]),
                                     cfg["l_max"])
    routes = set()
    for spec in cfg["volume_forms"]:
        coefficients = {tuple(map(int, key.split(","))): value
                        for key, value in spec["coefficients"].items()}
        form, _ = _turned(VolumeForm(sht.grid, coefficients, spec["id"]),
                          sht)
        routes.add("zonal" if form.is_zonal else
                   (form.is_mirror_symmetric, form.is_flip_symmetric))
    # zonal, mirror (tilted and tilted-mirror), mirror and flip, complex
    assert len(routes) == 4
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
    # every (form, p) cell, zonal or not, makes one Q assembly, one heat
    # side and one call per norm, and every form one eta matrix
    cells = len(cfg["volume_forms"]) * len(cfg["p_list"])
    assert layers["bench.q_assembly_calls"] == cells
    assert layers["bench.norm1_calls"] == layers["bench.norm2_calls"] == cells
    assert layers["bench.heat_side_calls"] == cells
    assert layers["bench.eta_mult_calls"] == len(cfg["volume_forms"])
    assert layers["sections.gram_cond_max"] >= 1.0
    assert layers["bench.tail_max"] <= DEFAULTS["converge"]["tail_bound"]
    assert ((traced / "converge.csv").read_bytes()
            == (untraced / "converge.csv").read_bytes())
