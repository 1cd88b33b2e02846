"""Run configuration: defaults, JSON loading, and the one gate before the
grid.

Every subcommand owns a flat JSON config; user files override defaults key
by key.  ``load_config`` resolves every derived run parameter into the
config (converge's default ``l_max``, every command's grid size) and
applies every rule that needs no grid: value types and ranges, each volume
form spec, converge's 'fs' form, uniformity family and cost budget, the
grid axis limit, and the probes' separations, windows, pair counts and heat
times.  A command starts at its grid.  Volume forms are specified as
``{"id": ..., "coefficients": {"l,m": value}}`` where the density is ``exp``
of the listed harmonic combination.
"""

import json
import math
import sys

from .bench import check_sweep_cost
from .errors import ConfigError, count_text, value_text
from .flat_model import MAX_QUAD_ORDER
from .geometry import INJECTIVITY_RADIUS, SpherePoint, VolumeForm, build_grid
from .heat import MAX_L_MAX, MIN_HEAT_TIME
from .sections import MAX_GRID_AXIS, check_pair_count

_BASE_FORMS = [
    {"id": "fs", "coefficients": {}},
    {"id": "zonal-half", "coefficients": {"1,0": -0.15}},
    {"id": "zonal-full", "coefficients": {"1,0": -0.3}},
    {"id": "tilted", "coefficients": {"1,1": 0.1, "2,1": 0.05}},
]

DEFAULTS = {
    "converge": {
        "p_list": [8, 16, 32, 64, 128],
        "l_max": None,
        "n_theta": None,
        "n_phi": None,
        "volume_forms": _BASE_FORMS,
        "tail_bound": 1e-3,
        "slope_threshold": -0.75,
        "max_median_ratio": 3.0,
        "uniformity_family": ["fs", "zonal-half", "zonal-full"],
        "uniformity_max_factor": 5.0,
        "density_floor": 0.05,
    },
    "decay": {
        # the p grid starts high enough that the p^5-weighted sup is already
        # in its decreasing regime for the default separation
        "p_list": [64, 96, 128, 192, 256],
        "eps": 0.2,
        "form": {"id": "fs", "coefficients": {}},
        "n_theta": None,
        "n_phi": None,
        # sets a stride: an axis keeps up to 2 * 36 - 1 nodes (sample_strides)
        "max_sample_per_axis": 36,
        "r2_threshold": 0.95,
        "power_weight": 5,
    },
    "near-diagonal": {
        "p_list": [16, 32, 64, 128, 256],
        "window_constant": 3.0,
        "x0": [1.05, 0.4],
        "n_radial": 17,
        "n_angular": 17,
        "form": {"id": "fs", "coefficients": {}},
        "n_theta": None,
        "n_phi": None,
        "slope_range": [-1.4, -0.75],
    },
    "identities": {
        "p_list": [4, 8, 16],
        "volume_forms": _BASE_FORMS,
        "n_theta": 40,
        "n_phi": 80,
        "tolerance": 1e-8,
    },
    "model-check": {
        "quad_order": 48,
        "window": 2.0,
        "n_random": 20,
        "seed": 7,
        "reproducing_tol": 1e-8,
        "annihilation_tol": 1e-8,
        "annihilation_fd_tol": 1e-6,
        "laplacian_tol": 1e-6,
        "modulus_tol": 1e-12,
    },
    "heat-check": {
        "u_min": 1e-3,
        "u_max": 1e-2,
        "n_u": 9,
        "coefficient_rtol": 0.01,
        "l_max": 48,
        "n_theta": 96,
        "n_phi": 192,
        "invariant_tol": 1e-10,
    },
}


# smallest accepted value of each count-valued key (a truncation at l_max 0
# holds only constants, where converge's norm2 and five of heat-check's six
# invariants are 0 whatever the code computes; one radius is the window's
# centre alone; heat-check fits a quadratic through the n_u points; a
# quadrature grid needs two nodes per axis; the flat model's Gauss-Hermite
# rule needs order 40)
_MINIMUMS = {"l_max": 1, "max_sample_per_axis": 1, "n_random": 1,
             "n_angular": 1, "n_radial": 2, "n_u": 3, "seed": 0,
             "n_theta": 2, "n_phi": 2, "quad_order": 40}

# largest accepted value of each work-sizing key: at the bound model-check runs
# 13 s (1.3 ms per random pair) and heat-check 3 s (25 us per heat time) on 2
# cores; quad_order bounds the flat model's Gauss-Hermite rule.  model-check
# draws its points from the square of half-width `window`, whose farthest
# pair has kernel modulus squared exp(-8 pi window^2): a normal double while
# 8 pi window^2 < 708, i.e. window < 5.3.  Past that kernel values underflow
# and the checks pass vacuously (at window 30 every one does)
_MAXIMUMS = {"n_random": 10 ** 4, "n_u": 10 ** 5, "quad_order": MAX_QUAD_ORDER,
             "window": 5.0}

# fewest p values of each fitting command (a line through two points always
# has R^2 = 1, so decay's R^2 criterion needs three)
_MIN_P_VALUES = {"converge": 4, "near-diagonal": 4, "decay": 3}


def default_l_max(p_max):
    """Truncation default: spectral content of the smoothing operator sits
    at degrees of order sqrt(p), with heat damping beyond."""
    return max(40, math.ceil(4.0 * math.sqrt(p_max)))


def load_config(command, path, overrides):
    """Merge defaults, an optional JSON file and CLI overrides; validate,
    resolve the auto values and apply every rule that needs no grid."""
    if command not in DEFAULTS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = json.loads(json.dumps(DEFAULTS[command]))
    if path is not None:
        try:
            with open(path) as handle:
                user = json.load(handle, object_pairs_hook=_unique_keys)
        except ConfigError:
            raise
        except (OSError, ValueError) as exc:  # bad JSON, UTF-8 or int digits
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {value_text(key)} "
                                  f"for {command}")
            cfg[key] = value
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    _validate(command, cfg)
    _check_run(command, cfg)
    return cfg


def _unique_keys(pairs):
    """A JSON object's (key, value) pairs as a dict; a repeated key, which
    ``json`` would resolve silently to its last value, is refused."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"config repeats the key {value_text(key)}")
        out[key] = value
    return out


def _is_number(value, kinds=(int, float)):
    # finite: NaN fails the comparison, and so does an int past the floats
    return (not isinstance(value, bool) and isinstance(value, kinds)
            and abs(value) <= sys.float_info.max)


def _validate(command, cfg):
    # scalar keys: float defaults take any real, int and auto (None) ones ints
    for key, default in DEFAULTS[command].items():
        value = cfg[key]
        if isinstance(default, float):
            kinds, what = (int, float), "a finite number"
        elif isinstance(default, int) or (default is None and value is not None):
            kinds, what = int, "an integer"
        else:
            continue
        if not _is_number(value, kinds):
            raise ConfigError(f"{key} must be {what}, got {value_text(value)}")
    for key in [k for k in ("x0", "slope_range") if k in cfg]:
        pair = cfg[key]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(_is_number(v) for v in pair)):
            raise ConfigError(f"{key} must be two finite numbers, "
                              f"got {value_text(pair)}")
    for key in [k for k in ("volume_forms", "uniformity_family") if k in cfg]:
        if not isinstance(cfg[key], list) or not cfg[key]:
            raise ConfigError(f"{key} must be a nonempty list, "
                              f"got {value_text(cfg[key])}")
    ids = [_form_id(spec) for spec in cfg.get("volume_forms", [])
           if isinstance(spec, dict)]
    repeated = sorted({fid for fid in ids if ids.count(fid) > 1})
    if repeated:
        raise ConfigError(
            f"volume_forms repeat the form id(s) {value_text(repeated)}")
    if not all(isinstance(fid, str) for fid in cfg.get("uniformity_family", [])):
        raise ConfigError("uniformity_family must list form ids")
    for key, minimum in _MINIMUMS.items():
        if cfg.get(key) is not None and cfg[key] < minimum:
            raise ConfigError(f"{key} must be at least {minimum}, "
                              f"got {value_text(cfg[key])}")
    for key, maximum in _MAXIMUMS.items():
        if key in cfg and cfg[key] > maximum:
            raise ConfigError(f"{key} must be at most {maximum}, "
                              f"got {value_text(cfg[key])}")
    if "p_list" in cfg:
        ps = cfg["p_list"]
        if (not isinstance(ps, list) or not ps
                or any(not _is_number(p, int) or p < 1 for p in ps)):
            raise ConfigError("p_list must be a nonempty list of positive ints")
        if any(a >= b for a, b in zip(ps, ps[1:])):
            raise ConfigError("p_list must be strictly increasing")
        if len(ps) < _MIN_P_VALUES.get(command, 1):
            raise ConfigError(
                f"insufficient points: {command} needs >= "
                f"{_MIN_P_VALUES[command]} p values")
    if "l_max" in cfg:
        note = ""
        if cfg["l_max"] is None:  # converge's default grows with p
            cfg["l_max"] = default_l_max(max(cfg["p_list"]))
            note = f" (the default at p {max(cfg['p_list'])})"
        if cfg["l_max"] > MAX_L_MAX:
            raise ConfigError(
                f"l_max {count_text(cfg['l_max'])}{note} is over the limit "
                f"{MAX_L_MAX}, past which the Legendre tables are not checked "
                "against lpmv")
    for key in ("tolerance", "tail_bound", "eps", "coefficient_rtol", "u_min",
                "reproducing_tol", "annihilation_tol", "laplacian_tol",
                "invariant_tol", "modulus_tol", "annihilation_fd_tol",
                "window_constant", "window"):
        if key in cfg and not cfg[key] > 0:
            raise ConfigError(f"{key} must be positive")
    if "u_min" in cfg and not cfg["u_min"] < cfg["u_max"]:
        raise ConfigError("u_min must be below u_max")


def _check_run(command, cfg):
    """Read each form spec once, size the grid, and apply the rules that
    need the forms, the grid size or the p values, but not the grid."""
    specs = cfg.get("volume_forms", [cfg["form"]] if "form" in cfg else [])
    coefficients = dict(read_form_spec(spec) for spec in specs)
    if command == "converge":
        if "fs" not in coefficients:
            raise ConfigError("converge requires the 'fs' form in volume_forms")
        missing = [fid for fid in cfg["uniformity_family"]
                   if fid not in coefficients]
        if missing:
            raise ConfigError(
                f"uniformity family members missing: {value_text(missing)}")
        check_sweep_cost(max(cfg["p_list"]), cfg["l_max"],
                         coefficients.values())
    if "n_theta" in cfg:
        # auto sizes n_theta = max(p_max + 24, 2 l_max + 10), n_phi =
        # 2 n_theta; heat-check and identities pin both
        n_theta = max(max(cfg.get("p_list", [0])) + 24,
                      2 * cfg.get("l_max", 0) + 10)
        cfg["n_phi"] = 2 * n_theta if cfg["n_phi"] is None else cfg["n_phi"]
        cfg["n_theta"] = n_theta if cfg["n_theta"] is None else cfg["n_theta"]
        if max(cfg["n_theta"], cfg["n_phi"]) > MAX_GRID_AXIS:
            raise ConfigError(f"grid {count_text(cfg['n_theta'])}x"
                              f"{count_text(cfg['n_phi'])} is over "
                              f"the limit of {MAX_GRID_AXIS} nodes per axis; "
                              "pin a smaller grid or lower p")
    # the probes' own guards, which library callers reach directly
    if "eps" in cfg and cfg["eps"] >= INJECTIVITY_RADIUS:
        raise ConfigError(f"eps must lie in (0, {INJECTIVITY_RADIUS:.6f})")
    if "x0" in cfg:
        SpherePoint(*cfg["x0"])  # refuses a colatitude outside [0, pi]
    if "window_constant" in cfg:
        # the window is widest at the smallest p
        radius = cfg["window_constant"] / math.sqrt(cfg["p_list"][0])
        if radius >= INJECTIVITY_RADIUS:
            raise ConfigError(
                f"window {radius:.4g} reaches the injectivity radius; raise p")
    # the points that each pair pass compares pairwise
    if command == "identities":
        check_pair_count(cfg["n_theta"] * cfg["n_phi"])
    if "max_sample_per_axis" in cfg:
        stride_t, stride_p = sample_strides(cfg)
        check_pair_count(len(range(0, cfg["n_theta"], stride_t))
                         * len(range(0, cfg["n_phi"], stride_p)))
    if "n_radial" in cfg:
        check_pair_count(1 + (cfg["n_radial"] - 1) * cfg["n_angular"])
    if "u_min" in cfg and cfg["u_min"] < MIN_HEAT_TIME:
        raise ConfigError("heat_diagonal supports u >= 1e-4")
    if "slope_range" in cfg and cfg["slope_range"][0] > cfg["slope_range"][1]:
        # the `in` criterion could never pass
        raise ConfigError(f"slope_range must list its lower bound first, "
                          f"got {value_text(cfg['slope_range'])}")


def sample_strides(cfg):
    """decay's node strides (theta, phi): n // max_sample_per_axis on an axis
    of n nodes, at least 1; the axis keeps up to 2 max_sample_per_axis - 1."""
    return tuple(max(1, cfg[key] // cfg["max_sample_per_axis"])
                 for key in ("n_theta", "n_phi"))


def _form_id(spec):
    form_id = spec.get("id", "custom")
    if not (isinstance(form_id, str) and form_id):
        raise ConfigError(
            f"form id must be a nonempty string, got {value_text(form_id)}")
    return form_id


def read_form_spec(spec):
    """The id and the coefficient map {(l, m): c} of a volume form spec.

    A key is written "l,m" exactly as ``f"{l},{m}"`` writes it: no spaces,
    signs on l or zero, leading zeros or underscores, which ``int`` would
    let two keys spell one pair; and it names a harmonic, |m| <= l."""
    if not (isinstance(spec, dict)
            and isinstance(spec.get("coefficients"), dict)):
        raise ConfigError("volume form spec needs a 'coefficients' map")
    coeffs = {}
    for key, value in spec["coefficients"].items():
        try:
            l, m = (int(part) for part in str(key).split(","))
        except ValueError as exc:
            raise ConfigError(f"bad coefficient key {value_text(key)}") from exc
        if key != f"{l},{m}":
            raise ConfigError(f"bad coefficient key {value_text(key)}; "
                              f"write it {value_text(f'{l},{m}')}")
        # the upper bound on l is the grid's, checked by ``VolumeForm``
        if not abs(m) <= l:
            raise ConfigError(f"bad harmonic index ({value_text(l)},"
                              f"{value_text(m)}): needs |m| <= l")
        if not _is_number(value):
            raise ConfigError(f"bad coefficient value {value_text(value)} "
                              f"for {value_text(key)}")
        coeffs[(l, m)] = float(value)
    return _form_id(spec), coeffs


def parse_form_spec(spec, grid):
    form_id, coeffs = read_form_spec(spec)
    return VolumeForm(grid, coeffs, form_id=form_id)


def grid_for(cfg):
    """Build the run grid at the size ``load_config`` resolved."""
    return build_grid(cfg["n_theta"], cfg["n_phi"])
