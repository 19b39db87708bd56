"""The four workloads, each a list of requests.

A request is one library call sequence (or, for cli_cold, one process) that
builds its space from generated data inside the timed region, as a user
would, and returns a JSON-able summary.  Its check runs after timing: the
summary is compared with a frozen value, or with an independent route.

Every pass includes the hexagon walkthrough, one request that takes a few
small spaces through every layer, so each layer's span is measured on
every workload.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from coarsehom import (
    anti_cech, are_close, asdim_upper_bound, big_family_generated, certify_flasque,
    chain_complex, check_morphism, coarsening_space, coarsify_homology, cover_from_net,
    from_metric, greedy_net, homology_at_scale, homology_colimit, homology_presentation,
    hybrid_entourage, induced_map, make_big_family, make_explicit_space, mv_check, prism,
    relative_homology, rips_complex, smith_normal_form, swindle_identity_check,
    uniform_decomposition_check, windowed_builtin,
)
from coarsehom.cli_io import run as cli_run
from coarsehom.morphisms import SpaceMap, identity_map

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")

# A request past either limit counts as failed and the run goes on.
REQUEST_LIMIT_S = 30


@dataclass
class Request:
    name: str
    fn: Callable  # fn(tracer) -> answer (JSON-able unless the request has its own check)
    check: Optional[Callable] = None  # check(answer) -> bool; None compares with frozen[name]
    expect: Optional[str] = None  # name of the exception type the request must raise


def groups(gs):
    return [[g.free_rank, list(g.torsion)] for g in gs]


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def nnz(m):
    if m is None:
        return 0
    if hasattr(m, "nnz"):
        return int(m.nnz)
    return sum(len(col) for col in m)


# ------------------------------------------------- spans around layer calls


def build(T, make, *args):
    with T.span("core_spaces.build"):
        return make(*args)


def homology(T, X, k, d):
    """homology_at_scale; traced runs also build the complex first to split complex from reduction."""
    if T.enabled:
        with T.span("homology_engine.complex"):
            cc = chain_complex(X, k, d + 1)
        T.count("homology_engine.basis_tuples", sum(len(b) for b in cc.bases))
        T.count("homology_engine.boundary_nnz", sum(nnz(m) for m in cc.boundaries))
        del cc
    with T.span("homology_engine.at_scale"):
        return groups(homology_at_scale(X, k, d))


def rips(T, X, k, d):
    with T.span("homology_engine.rips"):
        K = rips_complex(X, k, d + 1)
        out = groups(K.homology(d))
    T.count("homology_engine.rips_simplices", sum(len(s) for s in K.simplices))
    return out


def snf(T, A):
    with T.span("homology_engine.snf"):
        res = smith_normal_form(A)
    if T.enabled:
        bits = max(abs(v).bit_length() for M in (res.U, res.S, res.V) for row in M for v in row)
        T.count("homology_engine.snf_max_bits", bits)
    return res


def cover(T, X, k):
    with T.span("coarsification.cover"):
        net = greedy_net(X, k)
        c = cover_from_net(X, k)
    if c.lebesgue_scale is not None:
        T.count("coarsification.lebesgue_verified", 1)
        T.count("coarsification.lebesgue_ball", int(any("ball containment" in n for n in c.notes)))
    return net, c


def cli_report(T, argv):
    """One in-process CLI call; the report text is captured, not printed."""
    buf = io.StringIO()
    with T.span("cli_io.run"), contextlib.redirect_stdout(buf):
        _, code = cli_run(argv)
    text = buf.getvalue().encode()
    T.count("cli_io.report_bytes", len(text))
    return [code, hashlib.sha256(text).hexdigest()[:16]]


# ------------------------------------------------------------- spaces


def cycle_space(n):
    pts = list(range(n))
    return make_explicit_space(pts, [[(i, (i + 1) % n) for i in pts]], [pts])


def shift_map(X, top):
    return SpaceMap(X, X, {p: min(p + 1, top) for p in X.points})


SNF_EXAMPLE = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]


def walkthrough(T):
    """The hexagon (plus a 12-gon and two short windows) through every layer once."""
    X = build(T, cycle_space, 6)
    X12 = build(T, cycle_space, 12)
    H = build(T, windowed_builtin, "half_line", 12)
    W = build(T, windowed_builtin, "int_window", 8)
    out = {}
    with T.span("core_spaces.closure"):
        sizes = [len(X.closure_at(k)) for k in (1, 2)]
    T.count("core_spaces.closure_pairs", sum(sizes))
    with T.span("core_spaces.stabilization"):
        out["stabilization"] = X.coarse.stabilization()
    out["homology"] = [homology(T, X, k, 2) for k in (1, 2)]
    with T.span("homology_engine.colimit"):
        g, st = homology_colimit(X, 1)
    out["colimit"] = [groups(g), st.stable_scale]
    out["rips"] = rips(T, X, 2, 2)
    out["snf"] = snf(T, SNF_EXAMPLE).invariant_factors
    rot = SpaceMap(X, X, {p: (p + 1) % 6 for p in X.points})
    ident = identity_map(X)
    with T.span("morphisms.check_morphism"):
        rep = check_morphism(rot)
    out["morphism"] = [rep.controlled, rep.proper]
    with T.span("morphisms.are_close"):
        out["close"] = are_close(ident, rot)
    with T.span("homology_engine.presentation"):
        out["presentation"] = groups([homology_presentation(X, 1, 1).group])
    with T.span("homology_engine.induced_map"):
        out["induced"] = induced_map(rot, 1, 1).matrix
    with T.span("homology_engine.prism"):
        out["prism"] = prism(ident, rot, 1, 1).verified
    sh = shift_map(H, 12)
    with T.span("morphisms.flasque"):
        out["flasque"] = type(certify_flasque(H, sh)).__name__
    with T.span("homology_engine.swindle"):
        out["swindle"] = swindle_identity_check(H, sh, [0, 1, 2], 6)
    with T.span("homology_engine.mv_check"):
        out["mv_check"] = mv_check(W, list(range(2, 9)), big_family_generated(W, [-8], 16), 1, 1).all_iso
    net, c = cover(T, X12, 1)
    out["cover"] = [net, c.bound_scale, c.lebesgue_scale]
    with T.span("coarsification.anti_cech"):
        pre = anti_cech(H, [1, 2, 4])
    with T.span("coarsification.telescope"):
        out["telescope"] = groups(coarsening_space(pre, 1)[1])
    with T.span("coarsification.qhomology"):
        q = coarsify_homology(X, [1], 1)
    out["qhomology"] = [groups(q.table[1]), groups(q.terminal)]
    with T.span("coarsification.asdim"):
        out["asdim"] = asdim_upper_bound(W, [2, 4]).upper_bound
    with T.span("coarsification.hybrid"):
        out["hybrid"] = len(hybrid_entourage(X, make_big_family(X, [X.points]), [0], 1))
    out["cli"] = cli_report(T, ["homology", "--space", "hexagon", "--scale", "1",
                                "--max-dim", "2", "--format", "json"])
    return out


# ------------------------------------------------------------ tuple_ladder


def tuple_ladder(seed):
    def at_scale(name, r, k):
        return Request(f"{name}({r}) k={k}", lambda T: homology(T, build(T, windowed_builtin, name, r), k, 2))

    def colimit(r):
        def fn(T):
            X = build(T, windowed_builtin, "half_line", r)
            with T.span("homology_engine.colimit"):
                g, st = homology_colimit(X, 2)
            return [groups(g), st.stable_scale, {s: groups(v) for s, v in st.per_scale.items()}]
        return Request(f"colimit half_line({r})", fn)

    def battery(i, doc):
        points, gens, born = doc

        def fn(T):
            return homology(T, build(T, make_explicit_space, points, gens, born), 1, 2)

        def check(out):
            X = make_explicit_space(points, gens, born)
            pairs = [p for g in gens for p in g]
            return (out == groups(rips_complex(X, 1, 3).homology(2))
                    and out[0] == [checks.component_count(points, pairs), []])
        return Request(f"random space {i}", fn, check)

    def refused(T):
        return groups(homology_at_scale(build(T, windowed_builtin, "int_window", 10), 3, 2, basis_cap=500))

    rng = random.Random(seed)
    docs = [gen.explicit_space_doc(rng) for _ in range(40)]
    return ([Request("walkthrough", walkthrough)]
            + [at_scale("int_window", r, 3) for r in (10, 14, 18)]
            + [at_scale("grid2_window", r, 1) for r in (2, 3, 4, 5)]
            + [Request(f"hexagon k={k}", lambda T, k=k: homology(T, build(T, cycle_space, 6), k, 2))
               for k in (1, 2)]
            + [colimit(r) for r in (3, 4)]
            + [battery(i, doc) for i, doc in enumerate(docs)]
            + [Request("degree cap refusal", refused, expect="DegreeCapExceeded")])


# -------------------------------------------------------- certificate_chain


def certificate_chain(seed):
    def presentation(r):
        def fn(T):
            X = build(T, windowed_builtin, "grid2_window", r)
            with T.span("homology_engine.presentation"):
                P = homology_presentation(X, 1, 1)
            return [groups([P.group]), digest(P.generator_chains())]
        return Request(f"presentation grid2_window({r})", fn)

    def induced(r):
        def fn(T):
            X = build(T, windowed_builtin, "grid2_window", r)
            f = SpaceMap(X, X, {(a, b): (min(a + 1, r), b) for a, b in X.points})
            with T.span("homology_engine.induced_map"):
                m = induced_map(f, 1, 1).matrix
            return digest(m)
        return Request(f"induced shift grid2_window({r})", fn)

    def close_pair(i, item):
        (points, gens, born), ft, gt = item

        def fn(T):
            X = build(T, make_explicit_space, points, gens, born)
            f, g = SpaceMap(X, X, ft), SpaceMap(X, X, gt)
            with T.span("morphisms.check_morphism"):
                rf, rg = check_morphism(f), check_morphism(g)
            with T.span("morphisms.are_close"):
                c = are_close(f, g)
            with T.span("homology_engine.prism"):
                pr = prism(f, g, 1, 1)
            with T.span("homology_engine.induced_map"):
                mf = induced_map(f, 1, 1, target_scale=pr.target_scale).matrix
                mg = induced_map(g, 1, 1, target_scale=pr.target_scale).matrix
            return [rf.is_morphism and rg.is_morphism, c, pr.verified, mf, mg]

        def check(out):
            morphisms, c, verified, mf, mg = out
            return morphisms and c is not None and c <= 2 and verified and mf == mg
        return Request(f"close pair {i}", fn, check)

    def half_line_shift(label, call):
        def fn(T):
            X = build(T, windowed_builtin, "half_line", 100)
            return call(T, X, shift_map(X, 100))
        return Request(label, fn)

    def swindle(T, X, f):
        with T.span("homology_engine.swindle"):
            return swindle_identity_check(X, f, list(range(11)), 16)

    def flasque(T, X, f):
        with T.span("morphisms.flasque"):
            cert = certify_flasque(X, f)
        return [type(cert).__name__, cert.window, cert.scale_cap, cert.iter_cap]

    def excision(name, r, Z, base, depth):
        def fn(T):
            X = build(T, windowed_builtin, name, r)
            fam = big_family_generated(X, base, depth)
            with T.span("homology_engine.mv_check"):
                rep = mv_check(X, Z, fam, 1, 2)
            return [rep.all_iso, groups(relative_homology(X, fam, 1, 2).groups)]
        return Request(f"excision {name}({r})", fn)

    def smith(i, mats):
        def fn(T):
            return [snf(T, A) for A in mats]
        return Request(f"smith forms {i}", fn,
                       lambda out: all(checks.smith_form_ok(A, res) for A, res in zip(mats, out)))

    g3 = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    rng = random.Random(seed)
    pairs = [gen.close_map_pair(rng) for _ in range(25)]
    # 20x20: at 24 the cost per matrix is heavy-tailed (one in 150 took 17x the
    # mean), so a seed's total moved by a third; at 20 it moves by a twentieth
    mats = [[gen.dense_matrix(rng, 20) for _ in range(12)] for _ in range(5)]
    return ([Request("walkthrough", walkthrough)]
            + [req for r in (2, 3, 4) for req in (presentation(r), induced(r))]
            + [close_pair(i, item) for i, item in enumerate(pairs)]
            + [half_line_shift("swindle half_line(100)", swindle),
               half_line_shift("flasque half_line(100)", flasque)]
            + [excision("int_window", 16, list(range(3, 17)), [-16], 32),
               excision("grid2_window", 3, [p for p in g3 if p[0] >= -1], [p for p in g3 if p[0] == -3], 14)]
            + [smith(i, group) for i, group in enumerate(mats)])


# --------------------------------------------------------- coarsify_windows


def coarsify_windows(seed):
    def stabilize(name, r):
        def fn(T):
            X = build(T, windowed_builtin, name, r)
            with T.span("core_spaces.stabilization"):
                s = X.coarse.stabilization()
            with T.span("core_spaces.closure"):
                sizes = [len(X.closure_at(k)) for k in (1, s)]
            T.count("core_spaces.closure_pairs", sum(sizes))
            return [s, sizes]
        return Request(f"stabilize {name}({r})", fn)

    def net_cover(name, r, k):
        def fn(T):
            net, c = cover(T, build(T, windowed_builtin, name, r), k)
            return [len(net), len(c), c.bound_scale, c.lebesgue_scale, list(c.notes)]
        return Request(f"cover {name}({r}) k={k}", fn)

    def prefix(name, r, scales, telescope=False, expect=None):
        def fn(T):
            X = build(T, windowed_builtin, name, r)
            with T.span("coarsification.anti_cech"):
                pre = anti_cech(X, scales)
            out = [list(pre.certificates), [list(k) for k in pre.refinements]]
            if telescope:
                with T.span("coarsification.telescope"):
                    out.append(groups(coarsening_space(pre, 1)[1]))
            return out
        return Request(f"anti_cech {name}({r})" + (" refusal" if expect else ""), fn, expect=expect)

    def asdim(name, r, scales):
        def fn(T):
            X = build(T, windowed_builtin, name, r)
            with T.span("coarsification.asdim"):
                rep = asdim_upper_bound(X, scales)
            return [sorted(rep.per_scale.items()), rep.upper_bound]
        return Request(f"asdim {name}({r})", fn)

    def hybrid(T):
        X = build(T, windowed_builtin, "int_window", 30)
        with T.span("coarsification.hybrid"):
            return len(hybrid_entourage(X, big_family_generated(X, [0], 10), [3] * 11, 4))

    def udecomp(T):
        X = build(T, windowed_builtin, "int_window", 30)
        rep = uniform_decomposition_check(X, range(-30, 1), range(0, 31), ["3", "2", "1"])
        return [rep.ok, [[str(r), str(s)] for r, s in rep.assignments]]

    def qhomology(r):
        def fn(T):
            X = build(T, windowed_builtin, "half_line", r)
            with T.span("coarsification.qhomology"):
                rep = coarsify_homology(X, [1, 2], 1)
            return [{k: groups(v) for k, v in rep.table.items()}, rep.stable_scale, groups(rep.terminal)]
        return Request(f"qhomology half_line({r})", fn)

    def metric(i, doc):
        points, dist, scales = doc

        def fn(T):
            X = build(T, from_metric, points, dist, scales)
            net, c = cover(T, X, 1)
            with T.span("coarsification.qhomology"):
                rep = coarsify_homology(X, [1], 1)
            return [net, [sorted(m) for m in c.members], c.lebesgue_scale, groups(rep.table[1])]

        def check(out):
            net, members, lebesgue, table = out
            balls = checks.metric_balls(points, dist, scales, 1)
            want_net = checks.greedy_net(points, balls)
            X = from_metric(points, dist, scales)
            return (net == want_net and members == [sorted(balls[p]) for p in net]
                    and lebesgue is not None and table == groups(rips_complex(X, 1, 2).homology(1)))
        return Request(f"metric space {i}", fn, check)

    rng = random.Random(seed)
    docs = [gen.metric_doc(rng) for _ in range(24)]
    return ([Request("walkthrough", walkthrough)]
            + [stabilize("int_window", 100), stabilize("grid2_window", 8), stabilize("half_line", 160)]
            + [net_cover("grid2_window", 3, 1), net_cover("grid2_window", 4, 1),
               net_cover("int_window", 40, 2)]
            + [prefix("half_line", 30, [1, 2, 4], telescope=True),
               prefix("int_window", 40, [1, 2, 4, 8]),
               prefix("grid2_window", 4, [1, 2, 4], expect="CertificateFailed")]
            + [asdim("int_window", 100, [2, 4, 8]), asdim("grid2_window", 5, [1, 2])]
            + [Request("hybrid int_window(30)", hybrid), Request("udecomp int_window(30)", udecomp)]
            + [qhomology(r) for r in (12, 14, 16, 18, 20)]
            + [metric(i, doc) for i, doc in enumerate(docs)])


# ---------------------------------------------------------------- cli_cold

# Small documents written into the work directory; paths stay relative so
# the report bytes do not depend on where the checkout lives.
CLI_FILES = {
    "hl30.json": json.dumps({"kind": "builtin", "name": "half_line", "radius": 30}),
    "iw20.json": json.dumps({"kind": "builtin", "name": "int_window", "radius": 20}),
    "iw100.json": json.dumps({"kind": "builtin", "name": "int_window", "radius": 100}),
    "shift.map": "\n".join(["hl30.json", "hl30.json"]
                           + [f"{i} -> {min(i + 1, 30)}" for i in range(31)]) + "\n",
    "ident.map": "\n".join(["hl30.json", "hl30.json"] + [f"{i} -> {i}" for i in range(31)]) + "\n",
    "mat.json": "[[2, 4, 4], [-6, 6, 12], [10, 4, 16]]",
}

CLI_COMMANDS = [
    ["components", "--space", "hexagon"],
    ["homology", "--space", "hexagon", "--scale", "1", "--max-dim", "2"],
    ["qhomology", "--space", "hexagon", "--scales", "1", "--max-dim", "1"],
    ["nerve", "--space", "hexagon", "--scale", "1", "--max-dim", "1"],
    ["anti-cech", "--space", "hl30.json", "--scales", "1,2,4"],
    ["telescope", "--space", "hl30.json", "--scales", "1,2,4", "--max-dim", "1"],
    ["asdim", "--space", "iw100.json", "--scales", "2,4,8"],
    ["check-morphism", "--map", "shift.map"],
    ["close", "--map", "shift.map", "--map", "ident.map"],
    ["equivalence", "--map", "shift.map", "--map", "ident.map"],
    ["flasque", "--space", "hl30.json", "--map", "shift.map"],
    ["mv-check", "--space", "iw20.json", "--subset", json.dumps(list(range(8, 21))),
     "--family-base", "[-20]", "--family-depth", "32", "--scale", "1", "--max-dim", "1"],
    ["hybrid", "--space", "hexagon", "--family", json.dumps([[str(i) for i in range(6)]]),
     "--phi", "[0]", "--scale", "1"],
    ["udecomp", "--space", "iw20.json", "--part-y", json.dumps(list(range(-20, 1))),
     "--part-z", json.dumps(list(range(0, 21))), "--radii", '["3", "2", "1"]'],
    ["snf", "--matrix", "mat.json"],
]


def write_cli_files(workdir):
    os.makedirs(workdir, exist_ok=True)
    for name, text in CLI_FILES.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def cold_process(T, workdir, args):
    """Start one process and wait for it; traced runs collect its spans from a side file."""
    cmd = [sys.executable, LAUNCH]
    trace_file = None
    if T.enabled:
        trace_file = os.path.join(workdir, "launch.trace")
        cmd += ["--trace-out", trace_file]
    proc = subprocess.run(cmd + args, cwd=workdir, capture_output=True, timeout=REQUEST_LIMIT_S)
    if trace_file:
        with open(trace_file, encoding="utf-8") as fh:
            side = json.load(fh)
        for name, start, end in side["spans"]:
            T.add_span(name, start, end)
        for name, n in side["counts"]:
            T.count(name, n)
        if args[0] == "cli":
            T.count("cli_io.report_bytes", len(proc.stdout))
    return proc


def cli_cold(seed, workdir):
    """One cold process per request: the 15 subcommands, then the walkthrough.

    The seed and the pass index pick each subcommand's output format, so
    every pass covers both formats and every (subcommand, format) pair
    comes round across passes and seeds.
    """
    write_cli_files(workdir)

    def cli(argv, fmt):
        name = f"{argv[0]} {fmt}"

        def fn(T):
            proc = cold_process(T, workdir, ["cli"] + argv + ["--format", fmt])
            return [proc.returncode, hashlib.sha256(proc.stdout).hexdigest()[:16]]
        return Request(name, fn)

    def cold_walkthrough(T):
        proc = cold_process(T, workdir, ["walkthrough"])
        return [proc.returncode, json.loads(proc.stdout) if proc.returncode == 0 else None]

    def plan(p):
        return ([cli(argv, ("text", "json")[(i + p + seed) % 2]) for i, argv in enumerate(CLI_COMMANDS)]
                + [Request("cold walkthrough", cold_walkthrough)])
    return plan


WORKLOADS = {
    "tuple_ladder": tuple_ladder,
    "certificate_chain": certificate_chain,
    "coarsify_windows": coarsify_windows,
}


def plan(name, seed, workdir):
    """Generate a workload's inputs; returns pass index -> list of requests."""
    if name == "cli_cold":
        return cli_cold(seed, workdir)
    requests = WORKLOADS[name](seed)
    return lambda p: requests

