"""Tests of the benchmark itself.

Run from the root of a checkout with

    python3 -m pytest -q perfbench/selftest.py

(the file is not named ``test_*.py``, so the package's own test run does not
collect it).  They check that a traced run writes the same bytes as an
untraced one and leaves no wrapper behind, that the oracle counts a
perturbed output as a failed op, and that ``BENCHMARK.json`` names exactly
the workloads and metrics the runner reports.
"""

import csv
import importlib
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from bergman_heat import cli  # noqa: E402
from bergman_heat.geometry import VolumeForm, build_grid  # noqa: E402

# tests/test_cli.py's SMALL_CONVERGE
SMALL_CONVERGE = {
    "p_list": [4, 8, 12, 16],
    "n_theta": 48,
    "n_phi": 96,
    "l_max": 12,
    "volume_forms": [
        {"id": "fs", "coefficients": {}},
        {"id": "zonal-half", "coefficients": {"1,0": -0.15}},
        {"id": "zonal-full", "coefficients": {"1,0": -0.3}},
    ],
    "slope_threshold": -0.5,
}


def _run_calls(calls, out_dir, trace):
    """Run argvs written for ``out_dir``; returns exit codes and the tracer."""
    active = tracer.Tracer() if trace else None
    if active is not None:
        active.install()
    try:
        codes = [cli.run(argv) for argv in calls]
    finally:
        if active is not None:
            active.remove()
    return codes, active


def _files(out_dir):
    return {path.name: path.read_bytes()
            for path in sorted(Path(out_dir).iterdir())}


def _assert_traced_matches_untraced(tmp_path, write):
    plain_calls = write(tmp_path / "plain")
    traced_calls = write(tmp_path / "traced")
    plain_codes, _ = _run_calls(plain_calls, tmp_path / "plain", False)
    traced_codes, active = _run_calls(traced_calls, tmp_path / "traced", True)
    assert plain_codes == traced_codes
    assert all(code == 0 for code in plain_codes)
    plain, traced = _files(tmp_path / "plain"), _files(tmp_path / "traced")
    assert sorted(plain) == sorted(traced)
    for name in plain:
        assert plain[name] == traced[name], name
    assert active.missing == []
    return active


def test_traced_small_converge_is_byte_identical(tmp_path):
    def write(out_dir):
        out_dir.mkdir()
        config = out_dir / "small.json"
        config.write_text(json.dumps(SMALL_CONVERGE))
        return [["converge", "--config", str(config), "--out", str(out_dir)]]

    active = _assert_traced_matches_untraced(tmp_path, write)
    layers = active.metrics(wall_s=1.0)
    assert layers["bench.q_assembly_calls"] == 12
    assert layers["bench.norm1_calls"] == layers["bench.norm2_calls"] == 12
    assert layers["bench.eta_mult_calls"] == 3
    assert layers["sections.gram_calls"] == 12
    assert 0.0 < layers["bench.tail_max"] <= workloads.TAIL_BOUND


def test_traced_probes_are_byte_identical(tmp_path):
    active = _assert_traced_matches_untraced(
        tmp_path, lambda out_dir: workloads.write_calls("probes", 3, out_dir))
    layers = active.metrics(wall_s=1.0)
    assert layers["bergman.weight_change_calls"] == 12
    assert layers["bergman.pairs_per_s"] > 0.0
    assert layers["bench.q_assembly_calls"] == 0


def test_self_times_sum_to_wall_and_nest(tmp_path):
    out_dir = tmp_path / "out"
    calls = workloads.write_calls("probes", 0, out_dir)[3:4]  # heat-check
    _, active = _run_calls(calls, out_dir, True)
    layers = active.metrics(wall_s=10.0)
    self_sum = sum(layers[f"{stem}_s"] for stem in tracer._stems())
    assert math.isclose(self_sum + layers["cli.self_s"], 10.0)
    ids = {span["id"] for span in active.spans}
    assert all(span["parent"] in ids for span in active.spans
               if span["parent"] is not None)
    assert all(0.0 <= span["self"] <= span["end"] - span["start"]
               for span in active.spans)


def test_every_wrapper_is_removed():
    originals = {}
    for _, module_name, path in tracer.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        originals[(module_name, path)] = (owner, attr, vars(owner)[attr])
    active = tracer.Tracer()
    active.install()
    assert active.missing == []
    for owner, attr, original in originals.values():
        assert vars(owner)[attr] is not original
    active.remove()
    for owner, attr, original in originals.values():
        assert vars(owner)[attr] is original


def _copy_reference(workload, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in workloads.reference_files(workload):
        shutil.copyfile(workloads.REFERENCE_DIR / workload / name,
                        out_dir / name)


def _perturb(path, row_index, column, factor):
    rows = list(csv.reader(path.open(newline="")))
    rows[row_index][column] = repr(float(rows[row_index][column]) * factor)
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("workload", ["converge-default", "converge-nonzonal"])
def test_perturbed_converge_cell_is_one_failed_op(tmp_path, workload):
    _copy_reference(workload, tmp_path)
    n_cells = len(list(csv.reader((tmp_path / "converge.csv").open()))) - 1
    assert workloads.check_outputs(workload, tmp_path, [0]) == (n_cells, 0)
    assert workloads.check_outputs(workload, tmp_path, [4]) == (n_cells,
                                                               n_cells)
    _perturb(tmp_path / "converge.csv", 3, 3, 1.0 + 1e-8)
    assert workloads.check_outputs(workload, tmp_path, [0]) == (n_cells, 1)


def test_perturbed_probe_output_is_one_failed_op(tmp_path):
    _copy_reference("probes", tmp_path)
    (tmp_path / "identities.csv").write_text(
        "form_id,p,identity,residual\nfs,4,kernel_eta,1e-14\n")
    (tmp_path / "model_check_summary.json").write_text(json.dumps(
        {"criteria": [{"measured": 1e-10, "threshold": 1e-8}]}))
    codes = [0] * 5
    assert workloads.check_outputs("probes", tmp_path, codes) == (5, 0)
    _perturb(tmp_path / "decay.csv", 2, 2, 1.0 + 1e-8)
    assert workloads.check_outputs("probes", tmp_path, codes) == (5, 1)
    (tmp_path / "identities.csv").write_text(
        "form_id,p,identity,residual\nfs,4,kernel_eta,1e-6\n")
    assert workloads.check_outputs("probes", tmp_path, codes) == (5, 2)
    assert workloads.check_outputs("probes", tmp_path, codes[:3]) == (5, 4)


@pytest.mark.parametrize("alpha", [0.7, 2.3])
def test_rotation_shifts_the_density_in_longitude(alpha):
    grid = build_grid(24, 48)
    for spec in workloads.NONZONAL_FORMS + workloads.DEFAULT_FORMS:
        rotated = workloads.rotate_form(spec, alpha)

        def form(s):
            return VolumeForm(grid, {tuple(map(int, k.split(","))): v
                                     for k, v in s["coefficients"].items()})
        theta, phi = grid.theta_mesh, grid.phi_mesh
        np.testing.assert_allclose(
            form(rotated).log_density_at(theta, phi),
            form(spec).log_density_at(theta, phi - alpha), atol=1e-15)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracer.layer_metric_units()
