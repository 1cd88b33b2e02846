"""Regenerate the stored reference outputs of every workload.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python3 perfbench/make_reference.py

Runs each workload once on its unrotated inputs and copies the compared
CSV files into ``perfbench/reference/<workload>/``.  Regenerate only when
the program's numbers are meant to change, and say so where the change is
described.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from bergman_heat.cli import run

import workloads


def main():
    scratch = Path(__file__).resolve().parent.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            for argv in workloads.write_calls(workload, None, tmp):
                code = run(argv)
                if code != 0:
                    print(f"{workload}: {argv[0]} exited {code}",
                          file=sys.stderr)
                    return 1
            target = workloads.REFERENCE_DIR / workload
            target.mkdir(parents=True, exist_ok=True)
            for name in workloads.reference_files(workload):
                shutil.copyfile(Path(tmp) / name, target / name)
            print(f"{workload}: wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
