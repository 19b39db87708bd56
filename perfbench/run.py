"""coarsehom benchmark: one closed-loop client, one request at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload is served by a child process
under an address-space limit; set-up is timed in separate fresh processes.
Every answer is checked after timing.  The last line of standard output is
one JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  See perfbench/README.md.
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

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tuple_ladder", "certificate_chain", "coarsify_windows", "cli_cold")

ADDRESS_SPACE_LIMIT = 2 << 30  # bytes, for the serving child only
SERVE_TIMEOUT_S = 140
SETUP_TIMEOUT_S = 10
SETUP_RUNS = 5


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def calibrate():
    """A fixed pure-Python loop, timed, to show how fast the machine ran during the run."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def worker(args, workdir, extra, timeout, **kw):
    """Run worker.py in its own process group; on timeout the whole group is killed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, **kw)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"worker failed with exit code {proc.returncode}")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def high_percentile(xs):
    """The highest of p99/p90/p75 with at least ten samples beyond it, or None."""
    for q in (99, 90, 75):
        if len(xs) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(xs, n=100, method="inclusive")[q - 1]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "coarsehom", "__init__.py")):
        print(f"no coarsehom sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}")
    calib_s = calibrate()
    setup_dir = os.path.join(workdir, "setup")
    setups = []
    try:
        worker(args, workdir, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
               SERVE_TIMEOUT_S, preexec_fn=limit_address_space)
        for _ in range(SETUP_RUNS):
            worker(args, setup_dir, ["--setup"], SETUP_TIMEOUT_S)
            setup = read_json(os.path.join(setup_dir, "setup.json"))
            # a set-up process is a cold process: its reference is a cold one, run right after
            setup["ref_s"] = reference.timed_cold_process(setup_dir, SETUP_TIMEOUT_S)
            setups.append(setup)
    except subprocess.TimeoutExpired as e:
        print(f"a worker ran past {e.timeout} s and was stopped", file=sys.stderr)
        return 1
    res = read_json(os.path.join(workdir, "result.json"))

    attempted, failed = res["attempted"], len(res["failures"])
    lat = res["latencies"]
    walls, refs, nominal_s = res["walls"], res["refs"], res["ref_nominal_s"]
    ref_s = statistics.fmean(refs)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)}  requests {attempted}  served for {res['elapsed_s']:.1f} s")
    print("  pass times: " + " ".join(f"{w:.3f}" for w in walls))
    if args.trace:
        metrics = dict(res["layers"])
        metrics["cli_io.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["machine.calib_s"] = calib_s
        metrics["machine.ref_s"] = ref_s
        metrics["trace.wall_s"] = statistics.fmean(walls)
    else:
        # times at the reference speed measured alongside them: the machine's speed
        # wanders more than any bound a raw time could carry (see README.md, "Noise")
        metrics = {
            "wall_ref_s": statistics.fmean(reference.at_nominal(w, r, nominal_s) for w, r in zip(walls, refs)),
            "setup_s": statistics.median(reference.at_nominal(s["setup_s"], s["ref_s"], reference.COLD_NOMINAL_S)
                                         for s in setups),
            "peak_rss_mib": res["peak_rss_mib"],
        }
    declared = read_json(os.path.join(ROOT, "BENCHMARK.json"))["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:14.6f} {units[name]}")
    tail = high_percentile(lat)
    print(f"  measured: wall_s {statistics.fmean(walls):.6f} s (mean pass), query_p50_s "
          f"{statistics.median(lat):.6f} s" + (f", p{tail[0]} {tail[1]:.6f} s" if tail else "")
          + f" over {len(lat)} requests, setup_s {statistics.median(s['setup_s'] for s in setups):.6f} s")
    # the median request is printed, not bounded: it falls among the seeded
    # families, whose structure moves it by up to 0.3 of itself (README.md, "Noise")
    print(f"  query_p50_ref_s {reference.at_nominal(statistics.median(lat), ref_s, nominal_s):.6f} s")
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted})")
    if not args.trace:
        print(f"  machine.calib_s {calib_s:.4f} s, machine.ref_s {ref_s:.6f} s")
    for line in res["failures"][:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
