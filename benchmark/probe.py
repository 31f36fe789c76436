"""Set-up probe: time importing arl, parsing the configs and building the data.

    python3 benchmark/probe.py <workload> <seed>

``run.py`` starts it in a fresh interpreter with ``src`` on PYTHONPATH, so
the import is a real one. It prints the seconds as its only line.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main():
    ops = workloads.make_round(sys.argv[1], int(sys.argv[2]))
    start = time.perf_counter()
    import arl.cli  # pulls in every arl module and numpy

    workloads.setup(arl, ops)
    print(f"{time.perf_counter() - start:.9f}")


if __name__ == "__main__":
    main()
