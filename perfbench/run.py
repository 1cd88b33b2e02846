"""Benchmark runner: one workload, one seed, end-to-end or traced metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload converge-nonzonal --seed 1 \\
        --seconds 40 --trace 0

Each repetition runs the workload's ``bergman-heat`` commands through
``bergman_heat.cli.run`` in a fresh child process, with the BLAS thread
count pinned through the child's environment.  One client in a closed loop:
repetitions run one at a time until ``--seconds`` is used up, and at least
once.  Every output is checked against the stored reference.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the outside-in trace with ``--trace 1``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".bench_out"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}

# set-up-only children per untraced run, after one uncounted warm-up
SETUP_SAMPLES = 5
# a run ends within this many seconds, whatever --seconds says
DEADLINE_S = 170.0


def _child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = str(threads)
    return env


def run_child(work_dir, calls, trace, env, deadline):
    """Run one child to completion; its result record plus resource usage.

    Returns None when the child fails or is killed at the deadline.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    spec_path = work_dir / "spec.json"
    result_path = work_dir / "result.json"
    spec_path.write_text(json.dumps({"calls": calls, "trace": trace}))
    with open(work_dir / "child.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path),
             str(result_path)],
            cwd=work_dir, env=env, stdout=log, stderr=subprocess.STDOUT)
        # kill at the deadline; os.wait4 gives this child's own rusage
        timer = threading.Timer(max(deadline - t_spawn, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        print(f"child in {work_dir} ended with {proc.returncode}; see "
              "child.log", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["t_ready"] - t_spawn
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    return result


def _median_metrics(records, units):
    return {name: {"value": statistics.median(r[name] for r in records),
                   "unit": unit}
            for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS threads (default: the usable cores)")
    args = parser.parse_args(argv)

    if not (SRC / "bergman_heat" / "cli.py").is_file():
        print(f"no bergman_heat package under {SRC}", file=sys.stderr)
        return 2
    reference_dir = workloads.REFERENCE_DIR / args.workload
    for name in workloads.reference_files(args.workload):
        if not (reference_dir / name).is_file():
            print(f"missing reference {reference_dir / name}", file=sys.stderr)
            return 2

    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    threads = args.threads or len(os.sched_getaffinity(0))
    env = _child_env(threads)
    base = OUT_BASE / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)

    setups = []
    if not args.trace:
        for k in range(SETUP_SAMPLES + 1):
            record = run_child(base / f"setup{k}", [], False, env, deadline)
            if record is None:
                return 1
            if k > 0:
                setups.append(record["setup_s"])

    reps = []
    attempted = failed = 0
    t_begin = time.monotonic()
    while True:
        t_rep = time.monotonic()
        rep_dir = base / f"rep{len(reps)}"
        calls = workloads.write_calls(args.workload, args.seed, rep_dir)
        record = run_child(rep_dir, calls, bool(args.trace), env, deadline)
        n, bad = workloads.check_outputs(
            args.workload, rep_dir, record["exit_codes"] if record else [])
        attempted += n
        failed += bad
        if record is None:
            break
        reps.append(record)
        setups.append(record["setup_s"])
        took = time.monotonic() - t_rep
        now = time.monotonic()
        if now - t_begin + took > args.seconds or now + took > deadline:
            break

    if reps:
        facts = dict(reps[0]["machine"], blas_threads=threads)
        print("machine " + json.dumps(facts, sort_keys=True))
        for k, rep in enumerate(reps):
            print(f"rep {k}: wall {rep['wall_s']:.3f} s, setup "
                  f"{rep['setup_s']:.3f} s, cpu {rep['cpu_s']:.3f} s, "
                  f"rss {rep['peak_rss_mb']:.1f} MB, "
                  f"exit codes {rep['exit_codes']}")
            if rep.get("missing_entry_points"):
                print(f"rep {k}: untraced entry points "
                      f"{rep['missing_entry_points']}")
    metrics = {}
    if reps:
        if args.trace:
            metrics = _median_metrics([rep["layers"] for rep in reps],
                                      tracer.layer_metric_units())
        else:
            metrics = _median_metrics(reps, END_TO_END_UNITS)
            metrics["setup_s"]["value"] = statistics.median(setups)
    if failed or not reps:
        print(f"outputs kept in {base}", file=sys.stderr)
    else:
        shutil.rmtree(base, ignore_errors=True)
    print(json.dumps({"correct": bool(reps) and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if reps else 1


if __name__ == "__main__":
    sys.exit(main())
