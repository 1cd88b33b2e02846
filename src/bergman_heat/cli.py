"""Non-interactive command-line entry point.

Each subcommand runs one probe family from a JSON config, writes a CSV
table plus a JSON summary with every threshold next to its measured value,
and exits 0 (pass), 2 (usage/config error), 3 (invalid numerical run) or
4 (acceptance failure).  Same config, build and BLAS thread count give
byte-identical output.
"""

import argparse
import json
import math
import operator
import os
import sys

import numpy as np
import sympy as sp

from . import flat_model
from .bench import rate_fit, sweep_form
from .bergman import (near_diagonal_residual, off_diagonal_sup,
                      weight_change_residuals)
from .config import default_l_max, grid_for, load_config, parse_form_spec
from .errors import ConfigError, IllConditionedGramError, InvalidRunError
from .geometry import SpherePoint
from .heat import (HarmonicCoeffs, SphericalHarmonicTransform, heat_apply,
                   heat_diagonal, semigroup_derivative_residual)
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
    l_max = cfg.get("l_max") or default_l_max(max(p_list))
    grid = grid_for(cfg, max(p_list), l_max)
    sht = SphericalHarmonicTransform(grid, l_max)
    forms = [parse_form_spec(spec, grid) for spec in cfg["volume_forms"]]
    by_id = {form.form_id: form for form in forms}
    if "fs" not in by_id:
        raise ConfigError("converge requires the 'fs' form in volume_forms")
    family_ids = cfg["uniformity_family"]
    missing = [fid for fid in family_ids if fid not in by_id]
    if missing:
        raise ConfigError(f"uniformity family members missing: {missing}")
    for fid in family_ids:
        if by_id[fid].density_inf < cfg["density_floor"]:
            raise ConfigError(
                f"form {fid} density {by_id[fid].density_inf:.3e} below "
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
    grid = grid_for(cfg, max(p_list))
    form = parse_form_spec(cfg["form"], grid)
    stride_t = max(1, grid.n_theta // cfg["max_sample_per_axis"])
    stride_p = max(1, grid.n_phi // cfg["max_sample_per_axis"])
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
    grid = grid_for(cfg, max(p_list))
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
    sym_resid = 0.0
    probe = np.linspace(-1.0, 1.0, 5)
    probe_z = (probe[:, None] + 1j * probe[None, :]).ravel()
    for w in ws:
        expr, (x, y) = flat_model.bargmann_kernel_expr(w)
        applied = sp.expand(flat_model.landau_operator_symbolic(expr, x, y))
        func = sp.lambdify((x, y), applied, modules="numpy")
        vals = np.asarray(func(probe_z.real, probe_z.imag), dtype=complex)
        sym_resid = max(sym_resid, float(np.abs(vals).max()))
    fd_resid = 0.0
    for w in ws[:5]:
        vals, _ = flat_model.landau_operator_apply(
            lambda z, w=w: flat_model.bargmann_kernel(z, w), probe_z)
        fd_resid = max(fd_resid, float(np.abs(vals).max()))
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

    grid = grid_for({"n_theta": cfg["n_theta"], "n_phi": cfg["n_phi"]}, 16)
    sht = SphericalHarmonicTransform(grid, cfg["l_max"])
    rng = np.random.default_rng(3)
    c = HarmonicCoeffs(cfg["l_max"],
                       rng.normal(size=(cfg["l_max"] + 1) ** 2)
                       / (1.0 + sht.degrees) ** 2)
    u1, u2 = 0.03, 0.05
    semi = np.max(np.abs(heat_apply(heat_apply(c, u1), u2).values
                         - heat_apply(c, u1 + u2).values))
    f = sht.synthesize(c)
    g = sht.synthesize(HarmonicCoeffs(
        cfg["l_max"], rng.normal(size=(cfg["l_max"] + 1) ** 2)
        / (1.0 + sht.degrees) ** 2))
    hf = sht.synthesize(heat_apply(sht.analyze(f), u1))
    hg = sht.synthesize(heat_apply(sht.analyze(g), u1))
    w = grid.node_weights
    self_adj = abs(float(np.sum(w * hf * g) - np.sum(w * f * hg)))
    mass = abs(float(np.sum(w * hf) - np.sum(w * f)))
    contraction = float(np.sqrt(np.sum(w * hf * hf))
                        - np.sqrt(np.sum(w * f * f)))
    deriv = semigroup_derivative_residual(c, u=0.2, h=1e-4)
    norm_f = math.sqrt(c.norm_sq())
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


def cmd_identities(cfg, out_dir):
    grid = grid_for(cfg, max(cfg["p_list"]))
    forms = [parse_form_spec(spec, grid) for spec in cfg["volume_forms"]]
    tol = cfg["tolerance"]
    rows = []
    worst = 0.0
    first_violation = None
    for form in forms:
        for p in cfg["p_list"]:
            ev = bergman_evaluator(p, form, grid)
            res = weight_change_residuals(ev)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bergman-heat",
        description="Kernel smoothing vs heat flow benchmarks on the sphere")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON config path")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--p", type=int, nargs="+", default=None,
                         help="override p_list")
        cmd.add_argument("--lmax", type=int, default=None,
                         help="override harmonic truncation")
    return parser


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    overrides = {}
    if args.p is not None:
        overrides["p_list"] = args.p
    if args.lmax is not None:
        overrides["l_max"] = args.lmax
    try:
        cfg = load_config(args.command, args.config, overrides)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "exit_code": EXIT_CONFIG}),
              file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "exit_code": EXIT_CONFIG}),
              file=sys.stderr)
        return EXIT_CONFIG
    except (InvalidRunError, IllConditionedGramError) as exc:
        payload = {"error": str(exc), "exit_code": EXIT_INVALID_RUN}
        _write_json(os.path.join(
            args.out, f"{args.command.replace('-', '_')}_summary.json"),
            {"command": args.command, "criteria": [], **payload})
        print(json.dumps(payload), file=sys.stderr)
        return EXIT_INVALID_RUN


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
