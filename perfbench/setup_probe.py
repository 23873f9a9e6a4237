"""Time the benchmark's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Does what a benchmark run does before its first timed job -- start the
interpreter, import the library and the benchmark, make the workload's
inputs from the seed and load the recorded digests -- then prints the
system-wide monotonic clock in nanoseconds.  The parent subtracts the clock
it read just before starting this process.
"""

import sys
import time

import workloads

workloads.jobs(sys.argv[1], int(sys.argv[2]))
workloads.load_digests()
print(time.monotonic_ns())
