"""A fixed slice of pure-Python work that measures how fast the machine runs.

The VM's speed wanders by up to 2x for tens of seconds at a time and drifts
over minutes, and coarsehom's large reductions swing more than a simple
arithmetic loop does.  So the worker runs reference slices between
requests, off the clock, and the end-to-end times are reported in units of
the slice's mean time measured over the same stretch of the run, converted
to seconds on a machine where a slice takes NOMINAL_S.  A slice is
a sparse elimination modulo a prime over dict columns, the kind of work that
dominates coarsehom's reductions, but written here and fixed: a change to the
program cannot change it.  See README.md, "Noise".
"""

import os
import random
import subprocess
import sys
import time

PRIME = 32003
SIZE = 400
RANK = 400  # what every slice must find
NOMINAL_S = 0.003  # a slice's typical time on a 2-vCPU VM; fixes the unit of *_ref_s
# Cold processes (cli_cold requests, set-up) follow the machine less than slices
# in a running process do; their reference is a cold process running COLD_SLICES slices.
COLD_SLICES = 30
COLD_NOMINAL_S = 0.2  # such a process's typical time on the same VM
LAUNCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")


def run_slice():
    """One slice (3 to 5 ms on a 2-vCPU VM): draw a fixed sparse matrix, eliminate; returns its rank."""
    rng = random.Random(11)
    columns = [{(rng.randrange(SIZE), rng.randrange(3)): rng.randrange(1, PRIME) for _ in range(3)}
               for _ in range(SIZE)]
    pivots = {}
    for c in columns:
        while c:
            r = max(c)
            if r not in pivots:
                pivots[r] = c
                break
            p = pivots[r]
            f = c[r] * pow(p[r], -1, PRIME) % PRIME
            c = {k: (c.get(k, 0) - f * p.get(k, 0)) % PRIME for k in c.keys() | p.keys()}
            c = {k: v for k, v in c.items() if v}
    return len(pivots)


def timed_slices(n):
    """Run n slices; return their total time in seconds."""
    total = 0.0
    for _ in range(n):
        start = time.perf_counter()
        rank = run_slice()
        total += time.perf_counter() - start
        if rank != RANK:
            raise RuntimeError(f"reference slice found rank {rank}, not {RANK}")
    return total


def timed_cold_process(cwd, timeout):
    """Start one process that runs only COLD_SLICES slices; return its seconds, start to exit."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, LAUNCH, "reference"], cwd=cwd, capture_output=True,
                          timeout=timeout)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"reference process failed: {proc.stderr.decode()[-2000:]}")
    return elapsed


def at_nominal(seconds, ref_s, nominal_s=NOMINAL_S):
    """A time measured while the reference took ref_s, in seconds at the nominal speed."""
    return seconds * nominal_s / ref_s
