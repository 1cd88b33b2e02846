"""Outside-in layer trace of the ``bergman_heat`` package.

The tracer wraps the public entry points of each module in the namespace of
the caller that looks them up (``bergman_heat.cli.*`` for the names ``cli``
imports, ``bergman_heat.bench.*`` for the names ``comparison_norms`` calls,
class attributes for methods).  Each call becomes a span with its start,
end, CPU time and parent; the per-layer metric of an entry point is its self
time: span duration minus the part its child spans cover.  Time outside
every span is reported as ``cli.self_s``, so the self times sum to the traced
wall time.  ``remove()`` puts every original object back.
"""

import functools
import importlib
import sys
import time

# (layer stem, module of the caller's namespace, attribute path)
ENTRY_POINTS = [
    ("bench.q_assembly", "bergman_heat.bench", "smoothing_operator_matrix"),
    ("bench.norm1", "bergman_heat.bench", "spectral_norm_with_mode"),
    ("bench.norm2", "bergman_heat.bench", "spectral_norm"),
    ("bench.eta_mult", "bergman_heat.bench", "fast_multiplication_matrix"),
    ("bench.heat_side", "bergman_heat.bench", "heat_side_matrix"),
    ("bench.sweep_form", "bergman_heat.cli", "sweep_form"),
    ("sections.gram", "bergman_heat.bench", "bergman_evaluator"),
    ("sections.gram", "bergman_heat.cli", "bergman_evaluator"),
    ("sections.section_matrix", "bergman_heat.sections",
     "BergmanEvaluator.section_matrix"),
    ("sections.reproduce_sections", "bergman_heat.sections",
     "BergmanEvaluator.reproduce_sections"),
    ("sections.diagonal_on_grid", "bergman_heat.sections",
     "BergmanEvaluator.diagonal_on_grid"),
    ("bergman.weight_change", "bergman_heat.cli", "weight_change_residuals"),
    ("bergman.off_diagonal", "bergman_heat.cli", "off_diagonal_sup"),
    ("bergman.near_diagonal", "bergman_heat.cli", "near_diagonal_residual"),
    ("bergman.smoother_apply", "bergman_heat.bergman",
     "SmoothingOperator.apply"),
    ("heat.sht_tables", "bergman_heat.heat",
     "SphericalHarmonicTransform.__init__"),
    ("geometry.build_grid", "bergman_heat.cli", "grid_for"),
    ("geometry.volume_form", "bergman_heat.cli", "parse_form_spec"),
    ("config.load_config", "bergman_heat.cli", "load_config"),
    ("flat_model.landau_symbolic", "bergman_heat.flat_model",
     "landau_operator_symbolic"),
    ("heat.heat_diagonal", "bergman_heat.cli", "heat_diagonal"),
]

Q_ASSEMBLY_P = (8, 16, 32, 64, 128)


def _stems():
    return list(dict.fromkeys(stem for stem, _, _ in ENTRY_POINTS))


def layer_metric_units():
    """Every per-layer metric the tracer reports, name -> unit, in order."""
    units = {}
    for stem in _stems():
        units[f"{stem}_s"] = "s"
        units[f"{stem}_calls"] = "count"
    for p in Q_ASSEMBLY_P:
        units[f"bench.q_assembly_s.p{p}"] = "s"
    units.update({
        "bench.q_assembly_cpu_s": "s",
        "bench.norm_cpu_s": "s",
        "bergman.weight_change_cpu_s": "s",
        "bergman.pairs_per_s": "1/s",
        "sections.gram_cond_max": "1",
        "bench.tail_max": "1",
        "cli.self_s": "s",
        "trace.wall_s": "s",
    })
    return units


def _span_attrs(stem, args, result):
    """Work counts and guard values read off a call's arguments or result."""
    if stem == "bench.q_assembly":
        return {"p": args[0].p}
    if stem == "sections.gram":
        return {"cond": result.gram.condition_estimate}
    if stem == "bench.sweep_form":
        return {"tail": max(result.tails)}
    if stem == "bergman.weight_change":
        grid = args[0].grid
        return {"pairs": (grid.n_theta * grid.n_phi) ** 2}
    return None


class Tracer:
    """Spans kept in memory; one tracer per traced process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._next_id = 0
        self._stack = []
        self._patches = []

    def install(self):
        for stem, module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(stem, original))
            self._patches.append((owner, attr, original))
        if self.missing:
            print(f"tracer: entry points not found: {self.missing}",
                  file=sys.stderr)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, stem, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # frame: [wall start, cpu start, child wall, child cpu, span id]
            frame = [time.perf_counter(), time.process_time(), 0.0, 0.0,
                     self._next_id]
            self._next_id += 1
            parent = self._stack[-1][4] if self._stack else None
            self._stack.append(frame)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                wall = time.perf_counter() - frame[0]
                cpu = time.process_time() - frame[1]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][2] += wall
                    self._stack[-1][3] += cpu
                self.spans.append({
                    "id": frame[4], "parent": parent, "name": stem,
                    "start": frame[0], "end": frame[0] + wall,
                    "self": wall - frame[2], "self_cpu": cpu - frame[3],
                    "attrs": (_span_attrs(stem, args, result)
                              if result is not None else None)})
        return wrapper

    def metrics(self, wall_s):
        """Aggregate the spans into the per-layer metrics."""
        out = {name: 0.0 for name in layer_metric_units()}
        for stem in _stems():
            out[f"{stem}_calls"] = 0
        cond_max = tail_max = 0.0
        pairs = 0
        for span in self.spans:
            stem = span["name"]
            out[f"{stem}_s"] += span["self"]
            out[f"{stem}_calls"] += 1
            attrs = span["attrs"] or {}
            if stem == "bench.q_assembly":
                out["bench.q_assembly_cpu_s"] += span["self_cpu"]
                key = f"bench.q_assembly_s.p{attrs.get('p')}"
                if key in out:
                    out[key] += span["self"]
            elif stem in ("bench.norm1", "bench.norm2"):
                out["bench.norm_cpu_s"] += span["self_cpu"]
            elif stem == "bergman.weight_change":
                out["bergman.weight_change_cpu_s"] += span["self_cpu"]
                pairs += attrs.get("pairs", 0)
            cond_max = max(cond_max, attrs.get("cond", 0.0))
            tail_max = max(tail_max, attrs.get("tail", 0.0))
        if out["bergman.weight_change_s"] > 0.0:
            out["bergman.pairs_per_s"] = pairs / out["bergman.weight_change_s"]
        out["sections.gram_cond_max"] = cond_max
        out["bench.tail_max"] = tail_max
        out["trace.wall_s"] = wall_s
        out["cli.self_s"] = wall_s - sum(out[f"{stem}_s"] for stem in _stems())
        return out
