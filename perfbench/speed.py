"""Host-speed sampler, run as a side process for one timed region.

    python3 perfbench/speed.py 0 1

Pins itself in turn to each CPU named on the command line and, every
``PERIOD_S``, runs a fixed micro-probe there and records when it ended
(``time.perf_counter_ns``, comparable across processes) and the CPU
seconds it took.  It prints ``ready`` once warm, samples until its
stdin is closed, then prints the samples as one JSON list and exits.

On a shared VM each core's speed swings by up to 2x within a second,
and the cores swing apart, so a probe run before and after a region,
or on another core, tracks the region's speed worse than not
normalizing at all.  Sampling all through the region, on the cores
the workload is pinned to, tracks it.  CPU time rather than wall time
is recorded, so a sample that waits behind the workload for its core
still measures how fast the core runs, not how busy it is.
"""

import json
import os
import select
import sys
import time

import numpy as np

#: Seconds between the starts of two samples.
PERIOD_S = 0.1
#: Seconds the micro-probe takes on the host that ``setup_s`` is
#: scaled to (roughly a quiet 2-vCPU cloud VM).
NOMINAL_PROBE_S = 0.005


def micro_probe() -> float:
    """CPU seconds of a fixed ~5 ms probe: dict/tuple work like the
    simulator's event loops plus small numpy calls like its kernels."""
    start = time.thread_time()
    table: dict = {}
    for i in range(10_000):
        key = (i & 255, (i >> 8) & 15)
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
    x = np.linspace(0.0, 1.0, 4096)
    for _ in range(20):
        x = np.sort(np.tanh(x * 1.7 - 0.3))[::-1].copy()
    if not np.isfinite(x).all() or not table:
        raise RuntimeError("host-speed probe corrupted")
    return time.thread_time() - start


def main(argv: list[str]) -> int:
    cpus = [int(cpu) for cpu in argv]
    micro_probe()
    print("ready", flush=True)
    samples = []
    while True:
        begin = time.monotonic()
        os.sched_setaffinity(0, {cpus[len(samples) % len(cpus)]})
        cpu_s = micro_probe()
        samples.append((time.perf_counter_ns(), cpu_s))
        wait = max(PERIOD_S - (time.monotonic() - begin), 0.0)
        if select.select([sys.stdin], [], [], wait)[0]:
            break
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
