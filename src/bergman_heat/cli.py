"""Non-interactive command-line entry point.

Each subcommand runs one probe family from a JSON config, writes a CSV
table plus a JSON summary with every threshold next to its measured value,
and exits 0 (pass), 2 (usage/config error), 3 (invalid numerical run) or
4 (acceptance failure).  A command holds every OpenBLAS library in the
process to one thread while it runs, so the same config and build give
byte-identical output whatever ``OPENBLAS_NUM_THREADS`` says; under another
BLAS, at the same BLAS thread count only.
"""

import argparse
import contextlib
import ctypes
import functools
import json
import math
import operator
import os
import sys

import numpy as np

from . import flat_model
from .bench import in_order, rate_fit, sweep_form
from .bergman import (near_diagonal_residual, off_diagonal_sup,
                      weight_change_residuals)
from .config import (DEFAULTS, grid_for, load_config, parse_form_spec,
                     sample_strides)
from .errors import ConfigError, InvalidRunError
from .geometry import SpherePoint
from .heat import (SphericalHarmonicTransform, heat_diagonal,
                   semigroup_derivative_residual)
from .sections import bergman_evaluator

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVALID_RUN = 3
EXIT_ACCEPTANCE = 4


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(c) if isinstance(c, (int, str))
                                  else _fmt(c) for c in row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


_COMPARISONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
                "in": lambda measured, bounds: bounds[0] <= measured <= bounds[1]}


def _criterion(name, measured, threshold, comparison):
    passed = _COMPARISONS[comparison](measured, threshold)
    return {"name": name, "measured": measured, "threshold": threshold,
            "comparison": comparison, "pass": bool(passed)}


def _finish(out_dir, name, criteria, extra=None, exit_code=None):
    code = exit_code
    if code is None:
        code = EXIT_OK if all(c["pass"] for c in criteria) else EXIT_ACCEPTANCE
    payload = {"command": name, "criteria": criteria, "exit_code": code}
    payload.update(extra or {})
    _write_json(os.path.join(out_dir, f"{name.replace('-', '_')}_summary.json"),
                payload)
    return code


def cmd_converge(cfg, out_dir):
    p_list = cfg["p_list"]
    l_max = cfg["l_max"]
    family_ids = cfg["uniformity_family"]
    grid = grid_for(cfg)
    forms = [parse_form_spec(spec, grid) for spec in cfg["volume_forms"]]
    sht = SphericalHarmonicTransform(grid, l_max)
    for form in forms:
        if (form.form_id in family_ids
                and form.density_inf < cfg["density_floor"]):
            raise ConfigError(
                f"form {form.form_id} density {form.density_inf:.3e} below "
                f"floor {cfg['density_floor']:.3e}")

    reports = {}
    rows = []
    for form in forms:
        report = sweep_form(form, p_list, sht, tail_bound=cfg["tail_bound"])
        reports[form.form_id] = report
        for i, p in enumerate(p_list):
            rows.append((p, form.form_id, report.norms1[i], report.norms2[i],
                         report.tails[i]))
    _write_csv(os.path.join(out_dir, "converge.csv"),
               ["p", "form_id", "norm1", "norm2", "tail_residual"], rows)

    criteria = []
    slope_thr = cfg["slope_threshold"]
    ratio_thr = cfg["max_median_ratio"]
    for form_id, rep in sorted(reports.items()):
        for line, slope, norms in (("line1", rep.slope1, rep.norms1),
                                   ("line2", rep.slope2, rep.norms2)):
            criteria.append(_criterion(
                f"slope-{line}-{form_id}", slope, slope_thr, "<="))
            ratio = rep.bounded_ratio(norms)
            criteria.append(_criterion(
                f"bounded-{line}-{form_id}", ratio, ratio_thr, "<="))
    fam_reports = [reports[fid] for fid in family_ids]
    fs_rep = reports["fs"]
    factor = cfg["uniformity_max_factor"]
    for line, base, pick in (("line1", fs_rep.c_hat1, lambda r: r.c_hat1),
                             ("line2", fs_rep.c_hat2, lambda r: r.c_hat2)):
        worst = max(pick(r) for r in fam_reports)
        criteria.append(_criterion(
            f"uniformity-{line}", worst / base, factor, "<="))
    extra = {
        "p_list": p_list,
        "l_max": l_max,
        "grid": [grid.n_theta, grid.n_phi],
        "forms": {
            fid: {"slope1": rep.slope1, "slope2": rep.slope2,
                  "c_hat1": rep.c_hat1, "c_hat2": rep.c_hat2,
                  "norms1": rep.norms1, "norms2": rep.norms2,
                  "tails": rep.tails,
                  "argmax_degrees": rep.argmax_degrees}
            for fid, rep in sorted(reports.items())},
        "uniformity": {
            "family": family_ids,
            "c_hat1": [pick.c_hat1 for pick in fam_reports],
            "c_hat2": [pick.c_hat2 for pick in fam_reports],
            "ratio1": max(r.c_hat1 for r in fam_reports)
            / min(r.c_hat1 for r in fam_reports),
            "ratio2": max(r.c_hat2 for r in fam_reports)
            / min(r.c_hat2 for r in fam_reports)},
    }
    return _finish(out_dir, "converge", criteria, extra)


def cmd_decay(cfg, out_dir):
    p_list = cfg["p_list"]
    grid = grid_for(cfg)
    form = parse_form_spec(cfg["form"], grid)
    stride_t, stride_p = sample_strides(cfg)
    rows = []
    sups = []
    for p in p_list:
        ev = bergman_evaluator(p, form, grid)
        probe = off_diagonal_sup(ev, cfg["eps"], theta_stride=stride_t,
                                 phi_stride=stride_p)
        rows.append((p, cfg["eps"], probe.sup))
        sups.append(probe.sup)
    _write_csv(os.path.join(out_dir, "decay.csv"), ["p", "eps", "sup"], rows)
    sqrt_p = np.sqrt(np.asarray(p_list, dtype=float))
    logs = np.log(np.asarray(sups))
    slope, intercept = np.polyfit(sqrt_p, logs, 1)
    fitted = slope * sqrt_p + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    weighted = np.asarray(p_list, dtype=float) ** cfg["power_weight"] \
        * np.asarray(sups)
    criteria = [
        _criterion("decay-slope-negative", float(slope), 0.0, "<"),
        _criterion("decay-linear-in-sqrt-p-r2", r2, cfg["r2_threshold"], ">="),
        _criterion(f"p{cfg['power_weight']}-weighted-decreasing",
                   float(np.max(np.diff(weighted))), 0.0, "<"),
    ]
    extra = {"p_list": p_list, "sups": sups, "slope_vs_sqrt_p": float(slope),
             "r2": r2, "weighted": [float(w) for w in weighted]}
    return _finish(out_dir, "decay", criteria, extra)


def cmd_near_diagonal(cfg, out_dir):
    p_list = cfg["p_list"]
    grid = grid_for(cfg)
    form = parse_form_spec(cfg["form"], grid)
    x0 = SpherePoint(cfg["x0"][0], cfg["x0"][1])
    rows = []
    residuals = []
    for p in p_list:
        ev = bergman_evaluator(p, form, grid)
        probe = near_diagonal_residual(ev, x0, cfg["window_constant"],
                                       cfg["n_radial"], cfg["n_angular"])
        rows.append((p, probe.sup_residual))
        residuals.append(probe.sup_residual)
    _write_csv(os.path.join(out_dir, "near_diagonal.csv"),
               ["p", "residual"], rows)
    slope, _ = rate_fit(p_list, residuals)
    criteria = [_criterion("near-diagonal-slope", slope, cfg["slope_range"],
                           "in")]
    extra = {"p_list": p_list, "residuals": residuals,
             "window_constant": cfg["window_constant"]}
    return _finish(out_dir, "near-diagonal", criteria, extra)


def cmd_model_check(cfg, out_dir):
    rng = np.random.default_rng(cfg["seed"])
    window = cfg["window"]
    n = cfg["n_random"]

    zs = (rng.uniform(-window, window, n)
          + 1j * rng.uniform(-window, window, n))
    ws = (rng.uniform(-window, window, n)
          + 1j * rng.uniform(-window, window, n))
    repro = max(flat_model.reproducing_residual(z, w, cfg["quad_order"])
                for z, w in zip(zs, ws))
    modulus = max(
        abs(abs(flat_model.bargmann_kernel(z, w)) ** 2
            - math.exp(-math.pi * abs(z - w) ** 2))
        for z, w in zip(zs, ws))
    probe = np.linspace(-1.0, 1.0, 5)
    probe_z = (probe[:, None] + 1j * probe[None, :]).ravel()
    sym_resid = flat_model.landau_kernel_residual(probe_z, ws)
    vals = flat_model.landau_operator_apply(
        lambda z: flat_model.bargmann_kernel(z, ws[None, :5]),
        probe_z[:, None])
    fd_resid = float(np.abs(vals).max())
    lap = 0.0
    for w in ws:
        computed, closed = flat_model.gaussian_laplacian_identity(4, 0.3 * w)
        lap = max(lap, abs(computed - closed))
    criteria = [
        _criterion("reproducing-residual", repro, cfg["reproducing_tol"], "<="),
        _criterion("modulus-law", modulus, cfg["modulus_tol"], "<="),
        _criterion("annihilation-symbolic", sym_resid,
                   cfg["annihilation_tol"], "<="),
        _criterion("annihilation-fd", fd_resid, cfg["annihilation_fd_tol"],
                   "<="),
        _criterion("gaussian-laplacian", lap, cfg["laplacian_tol"], "<="),
    ]
    return _finish(out_dir, "model-check", criteria)


def cmd_heat_check(cfg, out_dir):
    grid = grid_for(cfg)
    sht = SphericalHarmonicTransform(grid, cfg["l_max"])
    us = np.exp(np.linspace(math.log(cfg["u_min"]), math.log(cfg["u_max"]),
                            cfg["n_u"]))
    diag = np.array([heat_diagonal(u) for u in us])
    y = 4.0 * math.pi * us * diag - 1.0
    # quadratic fit in u isolates the linear heat coefficient
    coeffs = np.polyfit(us, y, 2)
    linear = float(coeffs[1])
    target = 4.0 * math.pi / 3.0
    rel_err = abs(linear - target) / target
    rows = [(float(u), float(d), float(v)) for u, d, v in zip(us, diag, y)]
    _write_csv(os.path.join(out_dir, "heat_check.csv"),
               ["u", "heat_diag", "scaled_minus_one"], rows)

    rng = np.random.default_rng(3)
    c = rng.normal(size=sht.n_coeffs) / (1.0 + sht.degrees) ** 2
    u1, u2 = 0.03, 0.05
    semi = np.max(np.abs(sht.heat_factors(u2) * (sht.heat_factors(u1) * c)
                         - sht.heat_factors(u1 + u2) * c))
    f = sht.synthesize(c)
    g = sht.synthesize(rng.normal(size=sht.n_coeffs)
                       / (1.0 + sht.degrees) ** 2)
    hf = sht.synthesize(sht.heat_factors(u1) * sht.analyze(f))
    hg = sht.synthesize(sht.heat_factors(u1) * sht.analyze(g))
    w = grid.node_weights
    self_adj = abs(float(np.sum(w * hf * g) - np.sum(w * f * hg)))
    mass = abs(float(np.sum(w * hf) - np.sum(w * f)))
    contraction = float(np.sqrt(np.sum(w * hf * hf))
                        - np.sqrt(np.sum(w * f * f)))
    deriv = semigroup_derivative_residual(sht.eigenvalues, c, u=0.2, h=1e-4)
    norm_f = math.sqrt(np.sum(c ** 2))
    tol = cfg["invariant_tol"]
    criteria = [
        _criterion("heat-trace-linear-coefficient", rel_err,
                   cfg["coefficient_rtol"], "<="),
        _criterion("semigroup-law", float(semi), tol, "<="),
        _criterion("self-adjointness", self_adj, tol, "<="),
        _criterion("mass-conservation", mass, tol, "<="),
        _criterion("l2-contraction", contraction, 1e-12, "<="),
        _criterion("derivative-identity", deriv / norm_f, 1e-6, "<="),
    ]
    extra = {"linear_coefficient": linear, "target": target}
    return _finish(out_dir, "heat-check", criteria, extra)


def _weight_change_cell(p, form, grid):
    return weight_change_residuals(bergman_evaluator(p, form, grid))


def cmd_identities(cfg, out_dir):
    grid = grid_for(cfg)
    forms = [parse_form_spec(spec, grid) for spec in cfg["volume_forms"]]
    tol = cfg["tolerance"]
    cells = [(form, p) for form in forms for p in cfg["p_list"]]
    residuals = in_order([
        functools.partial(_weight_change_cell, p, form, grid)
        for form, p in cells])
    rows = []
    worst = 0.0
    first_violation = None
    for (form, p), res in zip(cells, residuals):
        for key in sorted(res):
            rows.append((form.form_id, p, key, res[key]))
            worst = max(worst, res[key])
            if res[key] > tol and first_violation is None:
                first_violation = f"{form.form_id}/p={p}/{key}"
    _write_csv(os.path.join(out_dir, "identities.csv"),
               ["form_id", "p", "identity", "residual"], rows)
    criteria = [_criterion("weight-change-identities", worst, tol, "<=")]
    extra = {"first_violation": first_violation}
    return _finish(out_dir, "identities", criteria, extra)


_COMMANDS = {
    "converge": cmd_converge,
    "decay": cmd_decay,
    "near-diagonal": cmd_near_diagonal,
    "model-check": cmd_model_check,
    "heat-check": cmd_heat_check,
    "identities": cmd_identities,
}


# spellings of OpenBLAS's thread-count functions: plain builds export
# openblas_*, the scipy-openblas wheels scipy_openblas_*, and their 64-bit
# integer builds add the suffix 64_
_OPENBLAS_SPELLINGS = [(prefix, suffix)
                       for prefix in ("openblas_", "scipy_openblas_")
                       for suffix in ("", "64_")]


def _openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS library mapped
    into this process, found through ``/proc/self/maps``; none without
    ``/proc`` or without an OpenBLAS."""
    try:
        with open("/proc/self/maps") as handle:
            # the sixth field of a line is the mapped file, if any
            mapped = {line.split(None, 5)[-1].strip() for line in handle}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SPELLINGS:
            get = getattr(library, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(library, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every mapped OpenBLAS to one thread, and put back each one's
    previous count on leaving.  Every BLAS call here is small: a second
    thread makes none faster, and it changes the reduction order."""
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bergman-heat",
        description="Kernel smoothing vs heat flow benchmarks on the sphere")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON config path")
        cmd.add_argument("--out", default=".", help="output directory")
        # an override is offered only to the commands that read its key
        if "p_list" in DEFAULTS[name]:
            cmd.add_argument("--p", type=int, nargs="+", default=None,
                             help="override p_list")
        if "l_max" in DEFAULTS[name]:
            cmd.add_argument("--lmax", type=int, default=None,
                             help="override harmonic truncation")
    return parser


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    overrides = {"p_list": getattr(args, "p", None),
                 "l_max": getattr(args, "lmax", None)}
    try:
        cfg = load_config(args.command, args.config, overrides)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {args.out}: {exc}") from exc
        with _one_blas_thread():
            return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "exit_code": EXIT_CONFIG}),
              file=sys.stderr)
        return EXIT_CONFIG
    except InvalidRunError as exc:
        payload = {"error": str(exc), "exit_code": EXIT_INVALID_RUN}
        _finish(args.out, args.command, [], payload, EXIT_INVALID_RUN)
        print(json.dumps(payload), file=sys.stderr)
        return EXIT_INVALID_RUN


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
