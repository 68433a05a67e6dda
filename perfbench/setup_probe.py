"""Set-up cost of a fresh interpreter: python3 perfbench/setup_probe.py WORKLOAD

Run from the root of a checkout.  Times the import of weylheat (from ./src)
and Runner.warm(): the heat contexts of the workload's ranks, the permutation
tables, the Gauss-Legendre rules and, for oracle_certify, the Fourier
constant.  Prints the seconds on its last line.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402  (imports weylheat)

workloads.Runner(sys.argv[1]).warm()
print(time.perf_counter() - T0)
