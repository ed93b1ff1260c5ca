"""Reference kernel that scales the benchmark's times, and the set-up probe.

The machine the benchmark runs on is shared: the same pure-Python loop runs
up to twice as slow for tens of seconds at a time when neighbours are busy.
The benchmark therefore times this fixed kernel, which never calls
``liegen``, next to every measurement, and scales each time by
``REFERENCE_NS`` over the kernel's time.

Run as a script in a fresh interpreter, the module is the set-up probe:

    python3 -I bench/bench_reference.py SRC

times the kernel, then the import of ``liegen.cli`` from ``SRC`` and the
building of its parser, and prints both in nanoseconds.  It imports nothing
but built-in modules first, so the import it times starts cold.
"""

import gc
import sys
import time

#: Time of ``reference_kernel`` at reference speed; every time is scaled to it.
REFERENCE_NS = 300_000


def reference_kernel() -> int:
    """Fixed pure-Python work on integer lists, dicts and strings."""
    v = list(range(1, 65))
    for _ in range(40):
        v = [(a * 3 - b) % 1000003 for a, b in zip(v, reversed(v))]
    d = {(i, i % 7): str(i) for i in range(300)}
    return sum(len(x) for x in d.values())


def reference_ns() -> int:
    """One timed run of the kernel, with garbage collection off so that its
    time does not depend on how much memory the program under test holds."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        reference_kernel()
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


def _probe(src: str) -> None:
    before = [reference_ns() for _ in range(2)]
    start = time.perf_counter_ns()
    sys.path.insert(0, src)
    import liegen.cli

    liegen.cli.build_parser()
    elapsed = time.perf_counter_ns() - start
    ref = sorted(before + [reference_ns()])[1]
    print(elapsed, ref)


if __name__ == "__main__":
    _probe(sys.argv[1])
