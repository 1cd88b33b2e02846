"""One workload repetition in a fresh process.

Usage: ``python3 perfbench/child.py SPEC.json RESULT.json``.  The spec holds
the ``cli.run`` argument lists to run in order and whether to trace.  The
result records, on the system-wide monotonic clock, when
``import bergman_heat.cli`` finished and when the first call started and the
last call returned, the exit code of every call, the machine facts and, for
a traced run, the per-layer metrics.  With no calls the process only
measures set-up.
"""

import json
import os
import sys
import time

import bergman_heat.cli as cli

T_READY = time.monotonic()


def machine_facts():
    import numpy
    import scipy
    import sympy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
    }


def main(spec_path, result_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    result = {"t_ready": T_READY, "exit_codes": []}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        t_first = time.monotonic()
        for argv in spec["calls"]:
            result["exit_codes"].append(cli.run(argv))
        t_last = time.monotonic()
    finally:
        if tracer is not None:
            tracer.remove()
    result["wall_s"] = t_last - t_first
    if tracer is not None:
        result["layers"] = tracer.metrics(result["wall_s"])
        result["missing_entry_points"] = tracer.missing
    if spec["calls"]:
        result["machine"] = machine_facts()
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
