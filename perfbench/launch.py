"""One cold process of the cli_cold workload.

    python3 perfbench/launch.py [--trace-out FILE] cli <subcommand> [args...]
    python3 perfbench/launch.py [--trace-out FILE] walkthrough
    python3 perfbench/launch.py reference

`cli` runs the command line exactly as the `coarsehom` console script does
(`coarsehom.cli_io.main`).  `walkthrough` runs the hexagon walkthrough and
prints its summary as JSON.  `reference` runs reference slices and nothing
of coarsehom: the machine-speed reference for cold processes.  With
--trace-out, spans and counts measured in this process are written to FILE
as JSON.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(args):
    trace_out = None
    if args[:1] == ["--trace-out"]:
        trace_out, args = args[1], args[2:]
    kind, rest = args[0], args[1:]
    if kind == "reference":
        import reference
        reference.timed_slices(reference.COLD_SLICES)
        return 0
    spans, counts = [], []
    if kind == "cli":
        from coarsehom.cli_io import main as cli_main
        start = time.perf_counter_ns()
        code = cli_main(rest)
        spans.append(("cli_io.run", start, time.perf_counter_ns()))
    else:
        from spans import NullTracer, Tracer
        import workloads
        T = Tracer() if trace_out else NullTracer()
        print(json.dumps(workloads.walkthrough(T), sort_keys=True))
        code = 0
        if trace_out:
            spans = [(name, start, end) for _, name, start, end in T.spans]
            counts = [(name, n) for _, name, n in T.counts]
    sys.stdout.flush()
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
