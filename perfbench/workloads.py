"""Workloads of the benchmark: seeded inputs and the output oracle.

A workload is a list of ``bergman-heat`` commands run in sequence in one
process.  An operation (op) is one ``(form, p)`` cell of a ``converge``
table, or one whole command of ``probes``.  An op fails when its command
exits non-zero or when one of its values misses the oracle.

The seed rotates every non-zonal volume form about the pole by an angle
drawn from it, and sets ``model-check``'s ``seed`` key.  The converge norms
are invariant under that rotation (measured differences stay below 1e-13
relative), so every seed checks against the same stored reference.
"""

import csv
import json
import math
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance of every value compared with the stored reference.
# Reruns differ by about 6e-16 between 1 and 2 BLAS threads, and by less
# than 1e-13 between longitude rotations; a real change of the numerics
# moves the norms far more than 1e-10.
RTOL = 1e-10

# converge's tail_bound and identities' tolerance at their built-in
# defaults.  Tail residuals and identity residuals are rounding-level
# numbers, so they are held to these bounds rather than compared.
TAIL_BOUND = 1e-3
IDENTITY_TOLERANCE = 1e-8

DEFAULT_FORMS = [
    {"id": "fs", "coefficients": {}},
    {"id": "zonal-half", "coefficients": {"1,0": -0.15}},
    {"id": "zonal-full", "coefficients": {"1,0": -0.3}},
    {"id": "tilted", "coefficients": {"1,1": 0.1, "2,1": 0.05}},
]

NONZONAL_FORMS = [
    {"id": "fs", "coefficients": {}},
    {"id": "tilted", "coefficients": {"1,1": 0.1, "2,1": 0.05}},
    {"id": "tilted-mirror", "coefficients": {"1,-1": -0.1, "2,-2": 0.05}},
    {"id": "sectoral", "coefficients": {"2,2": 0.04, "3,1": 0.02}},
]

WORKLOADS = {
    # `bergman-heat converge` at its built-in defaults: 4 forms x 5 p
    "converge-default": {
        "converge": {"config": {"volume_forms": DEFAULT_FORMS}, "args": []},
    },
    # three of four forms non-zonal, p up to 64, auto grid 102x204
    "converge-nonzonal": {
        "converge": {
            "config": {
                "volume_forms": NONZONAL_FORMS,
                "uniformity_family": ["fs", "tilted", "tilted-mirror",
                                      "sectoral"],
                "p_list": [8, 16, 32, 64],
            },
            "args": ["--lmax", "46"],
        },
    },
    # the five probe commands at their built-in defaults
    "probes": {
        "identities": {"config": None, "args": []},
        "decay": {"config": None, "args": []},
        "near-diagonal": {"config": None, "args": []},
        "heat-check": {"config": None, "args": []},
        "model-check": {"config": {}, "args": []},
    },
}

# the table each command is compared on against the stored reference
_COMPARED = {"converge": "converge.csv", "decay": "decay.csv",
             "near-diagonal": "near_diagonal.csv",
             "heat-check": "heat_check.csv"}


def rotate_form(spec, alpha):
    """The volume form rotated about the pole by ``alpha``.

    Real harmonics pair cos(m phi) at +m with sin(m phi) at -m, so
    ``f(phi - alpha)`` mixes each pair by the angle ``m * alpha``.
    """
    coeffs = {}
    for key, value in spec["coefficients"].items():
        l, m = (int(part) for part in key.split(","))
        coeffs[(l, m)] = float(value)
    rotated = {}
    for (l, m) in coeffs:
        if m == 0:
            rotated[(l, 0)] = coeffs[(l, 0)]
            continue
        k = abs(m)
        c_cos = coeffs.get((l, k), 0.0)
        c_sin = coeffs.get((l, -k), 0.0)
        cos_a, sin_a = math.cos(k * alpha), math.sin(k * alpha)
        rotated[(l, k)] = c_cos * cos_a - c_sin * sin_a
        rotated[(l, -k)] = c_cos * sin_a + c_sin * cos_a
    return {"id": spec["id"],
            "coefficients": {f"{l},{m}": c
                             for (l, m), c in sorted(rotated.items())}}


def seeded_inputs(seed):
    """Rotation angle and model-check seed drawn from the workload seed."""
    rng = random.Random(seed)
    return rng.uniform(0.0, 2.0 * math.pi), rng.randrange(2 ** 31)


def command_configs(workload, seed):
    """``{command: (config dict or None, extra args)}`` for one seed.

    ``seed=None`` gives the unrotated inputs the reference was made from.
    """
    alpha, model_seed = seeded_inputs(seed) if seed is not None else (0.0, 7)
    out = {}
    for command, entry in WORKLOADS[workload].items():
        config = entry["config"]
        if config is not None:
            config = dict(config)
            if "volume_forms" in config and seed is not None:
                config["volume_forms"] = [rotate_form(spec, alpha)
                                          for spec in config["volume_forms"]]
            if command == "model-check":
                config["seed"] = model_seed
        out[command] = (config, list(entry["args"]))
    return out


def write_calls(workload, seed, out_dir):
    """Write the config files into ``out_dir``; return the cli.run argvs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    calls = []
    for command, (config, args) in command_configs(workload, seed).items():
        argv = [command, "--out", str(out_dir)] + args
        if config is not None:
            path = out_dir / f"{command}_config.json"
            path.write_text(json.dumps(config, indent=2, sort_keys=True))
            argv += ["--config", str(path)]
        calls.append(argv)
    return calls


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _close(value, reference):
    try:
        a, b = float(value), float(reference)
    except ValueError:
        return value == reference
    return abs(a - b) <= RTOL * abs(b)


def _check_converge(out_dir, reference_dir):
    """Failed-op count of one converge table: one op per (p, form) cell."""
    ref = _read_csv(reference_dir / "converge.csv")
    header, ref_rows = ref[0], ref[1:]
    try:
        got = _read_csv(out_dir / "converge.csv")
    except OSError:
        return len(ref_rows), len(ref_rows)
    if not got or got[0] != header:
        return len(ref_rows), len(ref_rows)
    by_cell = {tuple(row[:2]): row for row in got[1:]}
    failed = 0
    for ref_row in ref_rows:
        failed += not _cell_ok(by_cell.get(tuple(ref_row[:2])), ref_row)
    return len(ref_rows), failed


def _cell_ok(row, ref_row):
    """p, form_id, norm1, norm2 against the reference; tail against bound."""
    if row is None or len(row) != len(ref_row):
        return False
    try:
        tail_ok = 0.0 <= float(row[4]) <= TAIL_BOUND
    except ValueError:
        return False
    return tail_ok and all(_close(a, b) for a, b in zip(row[:4], ref_row[:4]))


def _table_matches(out_dir, reference_dir, name):
    try:
        got = _read_csv(out_dir / name)
    except OSError:
        return False
    ref = _read_csv(reference_dir / name)
    return (len(got) == len(ref)
            and all(len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
                    for a, b in zip(got, ref)))


def _identities_pass(out_dir):
    try:
        rows = _read_csv(out_dir / "identities.csv")[1:]
    except OSError:
        return False
    try:
        return bool(rows) and all(float(row[3]) <= IDENTITY_TOLERANCE
                                  for row in rows)
    except (ValueError, IndexError):
        return False


def _model_check_pass(out_dir):
    try:
        summary = json.loads((out_dir / "model_check_summary.json").read_text())
    except (OSError, ValueError):
        return False
    criteria = summary.get("criteria") or []
    return bool(criteria) and all(
        c["measured"] <= c["threshold"] for c in criteria)


def check_outputs(workload, out_dir, exit_codes):
    """``(attempted, failed)`` ops of one repetition's outputs."""
    out_dir = Path(out_dir)
    reference_dir = REFERENCE_DIR / workload
    commands = list(WORKLOADS[workload])
    # a command that never returned counts as failed
    codes = list(exit_codes) + [None] * (len(commands) - len(exit_codes))
    attempted = failed = 0
    for command, code in zip(commands, codes):
        if command == "converge":
            n, bad = _check_converge(out_dir, reference_dir)
            attempted += n
            failed += n if code != 0 else bad
            continue
        if command in _COMPARED:
            ok = _table_matches(out_dir, reference_dir, _COMPARED[command])
        elif command == "identities":
            ok = _identities_pass(out_dir)
        else:
            ok = _model_check_pass(out_dir)
        attempted += 1
        failed += code != 0 or not ok
    return attempted, failed


def reference_files(workload):
    return [_COMPARED[command] for command in WORKLOADS[workload]
            if command in _COMPARED]
