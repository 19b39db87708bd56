"""The child process that serves one workload (or only times its set-up).

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir D
    python3 perfbench/worker.py --setup --workload W --seed N --workdir D

run.py starts it with an address-space limit.  It writes its result as
JSON to D/result.json (or D/setup.json).
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FROZEN_PATH = os.path.join(HERE, "frozen.json")

# No request starts once the run has lasted this long; the rest count as failed.
HARD_STOP_S = 90
# After each request, off the clock, one reference slice per this much request
# time (at least one), so the slices sample the machine's speed in proportion
# to where the time went; after a cold process, one cold reference process.
REF_EVERY_S = 0.05

SUM_COUNTS = ("core_spaces.closure_pairs", "homology_engine.basis_tuples",
              "homology_engine.boundary_nnz", "homology_engine.rips_simplices")
# Per-pass span totals; the metric is the span name plus "_s".
PASS_SPANS = (
    "core_spaces.build", "core_spaces.closure", "core_spaces.stabilization",
    "homology_engine.complex", "homology_engine.colimit", "homology_engine.rips",
    "homology_engine.snf", "homology_engine.presentation", "homology_engine.induced_map",
    "homology_engine.prism", "homology_engine.swindle", "homology_engine.mv_check",
    "morphisms.flasque", "morphisms.check_morphism", "morphisms.are_close",
    "coarsification.cover", "coarsification.anti_cech", "coarsification.telescope",
    "coarsification.qhomology", "coarsification.asdim", "coarsification.hybrid",
)


class RequestTimeout(BaseException):
    """Raised by the alarm; a BaseException so the program's own handlers let it through."""


def import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import coarsehom  # noqa: F401  (timed: this is what every user pays)
    return time.perf_counter() - start


def setup(args):
    import_s = import_program()
    start = time.perf_counter()
    import workloads
    workloads.plan(args.workload, args.seed, args.workdir)
    return {"import_s": import_s, "setup_s": import_s + time.perf_counter() - start}


def serve(args):
    import_program()
    import workloads
    from spans import NullTracer, Tracer

    plan = workloads.plan(args.workload, args.seed, args.workdir)
    cold = args.workload == "cli_cold"
    T = Tracer() if args.trace else NullTracer()
    armed = False

    def on_alarm(signum, frame):
        if armed:
            raise RequestTimeout()

    signal.signal(signal.SIGALRM, on_alarm)
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        frozen = json.load(fh)
    walls, refs, latencies, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    p = 0
    while True:
        pass_start, served_s, ref_s, ref_n = time.perf_counter(), 0.0, 0.0, 0
        for i, req in enumerate(plan(p)):
            attempted += 1
            if time.perf_counter() - start > HARD_STOP_S:
                failures.append(f"{req.name}: not started, the run's {HARD_STOP_S} s budget is spent")
                continue
            T.request = (p, i)
            t0 = time.perf_counter()
            try:
                armed = True
                signal.setitimer(signal.ITIMER_REAL, workloads.REQUEST_LIMIT_S)
                value = req.fn(T)
                armed = False
                outcome = ("ok", value)
            except (RequestTimeout, subprocess.TimeoutExpired):
                outcome = ("limit", "time")
            except MemoryError:
                outcome = ("limit", "memory")
            except Exception as e:  # a refusal or a crash of the program: judged below
                outcome = ("error", type(e).__name__)
            finally:
                armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0
            served_s += dt
            latencies.append(dt)
            if cold:
                ref_s += reference.timed_cold_process(args.workdir, workloads.REQUEST_LIMIT_S)
                ref_n += 1
            else:
                n = max(1, round(dt / REF_EVERY_S))
                ref_s += reference.timed_slices(n)
                ref_n += n
            # the client checks each answer before sending the next request, off the clock
            if not judge(req, outcome, frozen):
                failures.append(f"{req.name}: {describe(req, outcome)}")
        walls.append(served_s)
        refs.append(ref_s / ref_n)
        # stop at the pass boundary nearest to the requested duration
        if time.perf_counter() - start + (time.perf_counter() - pass_start) / 2 > args.seconds:
            break
        p += 1
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    result = {
        "walls": walls,
        "refs": refs,
        "ref_nominal_s": reference.COLD_NOMINAL_S if cold else reference.NOMINAL_S,
        "elapsed_s": time.perf_counter() - start,
        "latencies": latencies,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
    }
    if args.trace:
        T.dump(os.path.join(args.workdir, "trace.jsonl"))
        result["layers"] = layer_metrics(T, len(walls))
    return result


def judge(req, outcome, frozen):
    """True when the request's answer is right; runs outside the timed region."""
    if req.expect:
        return outcome == ("error", req.expect)
    if outcome[0] != "ok":
        return False
    if req.check is None:
        return req.name in frozen and json.loads(json.dumps(outcome[1])) == frozen[req.name]
    try:
        return bool(req.check(outcome[1]))
    except Exception:
        return False


def describe(req, outcome):
    kind, detail = outcome
    if kind == "ok":
        return f"did not raise {req.expect}" if req.expect else "wrong answer"
    if kind == "error":
        return f"raised {detail}" + (f", expected {req.expect}" if req.expect else "")
    return f"over the {detail} limit"


def layer_metrics(T, n_passes):
    """Per-layer metrics: span seconds and counts per pass (median over passes),
    cli_io figures per call (median over calls)."""
    secs = [defaultdict(float) for _ in range(n_passes)]
    counts = [defaultdict(int) for _ in range(n_passes)]
    run_calls, report_sizes, bits = [], [], [0] * n_passes
    for (p, _), name, s, e in T.spans:
        secs[p][name] += (e - s) / 1e9
        if name == "cli_io.run":
            run_calls.append((e - s) / 1e9)
    for (p, _), name, n in T.counts:
        if name == "homology_engine.snf_max_bits":
            bits[p] = max(bits[p], n)
        elif name == "cli_io.report_bytes":
            report_sizes.append(n)
        else:
            counts[p][name] += n

    def med(f):
        return statistics.median(f(p) for p in range(n_passes))

    out = {f"{name}_s": med(lambda p: secs[p][name]) for name in PASS_SPANS}
    out["homology_engine.reduce_s"] = med(
        lambda p: secs[p]["homology_engine.at_scale"] - secs[p]["homology_engine.complex"])
    for name in SUM_COUNTS:
        out[name] = med(lambda p: counts[p][name])
    out["homology_engine.snf_max_bits"] = med(lambda p: bits[p])
    out["coarsification.lebesgue_ball_ratio"] = med(
        lambda p: counts[p]["coarsification.lebesgue_ball"]
        / max(counts[p]["coarsification.lebesgue_verified"], 1))
    out["cli_io.run_s"] = statistics.median(run_calls)
    out["cli_io.report_bytes"] = statistics.median(report_sizes)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    result = setup(args) if args.setup else serve(args)
    name = "setup.json" if args.setup else "result.json"
    with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
