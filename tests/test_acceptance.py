"""Acceptance battery: the engine's headline guarantees on fixed instances.

Twelve criteria, one test each, so the verbose run shows one pass/fail line
per criterion.  Every comparison is exact; stated time budgets are asserted.
Expected values are frozen from independent routes (union-find, minor-gcd
ladders, clique-complex homology, hand computation on the hexagon and the
twelve-gon circle model).
"""

import json
import random
import time

import pytest

from coarsehom import (
    big_family_generated,
    make_explicit_space,
    windowed_builtin,
)
from coarsehom.cli_io import run
from coarsehom.chain_maps import (
    chain_complex,
    induced_map,
    prism,
    swindle_identity_check,
    verify_complex_identity,
)
from coarsehom.coarsification import nerve
from coarsehom.covers import (
    asdim_upper_bound,
    cover_from_net,
    greedy_net,
)
from coarsehom.homology_engine import (
    FGAbGroup,
    PrefixTooShort,
    homology_at_scale,
    homology_colimit,
    mv_check,
    rips_complex,
    smith_normal_form,
)
from coarsehom.morphisms import FlasqueCertificate, SpaceMap, certify_flasque

import oracles
from genspaces import random_capped_space

BATTERY_SEED = 20260825


def battery(seed=BATTERY_SEED, count=50, **kw):
    rng = random.Random(seed)
    return [random_capped_space(rng, **kw) for _ in range(count)]


def report_pass(n, text):
    print(f"[PASS] criterion {n:02d}: {text}")


# ---------------------------------------------------------------------------


def test_criterion_01_point_axiom(capsys):
    t0 = time.monotonic()
    rep, code = run(["homology", "--space", "point", "--colimit", "--max-dim", "4"])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    assert code == 0
    groups = rep.results["groups"]
    assert [g["free_rank"] for g in groups] == [1, 0, 0, 0, 0]
    assert all(g["torsion"] == [] for g in groups)
    assert elapsed < 1.0
    report_pass(1, f"point colimit H_0 = Z, H_1..H_4 = 0 in {elapsed:.3f}s")


def test_criterion_02_components_law():
    t0 = time.monotonic()
    for X, pairs in battery():
        rank = homology_colimit(X, 0)[0][0].free_rank
        assert rank == len(oracles.union_find_components(X.points, pairs))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report_pass(2, f"50 spaces, H_0 colimit rank = union-find count, {elapsed:.2f}s")


def test_criterion_03_complex_identity():
    checked = 0
    for X, _ in battery():
        stab = X.coarse.stabilization()
        for k in sorted({1, 2, stab}):
            assert verify_complex_identity(X, k, 3)
            checked += 1
    report_pass(3, f"boundary squared vanished at {checked} space/scale combinations")


# --- criterion 4 helpers: an independent prism-identity verification -------


def _col_dicts_from_sparse(M):
    cols = [{} for _ in range(M.shape[1])]
    for i, row in enumerate(M.rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def _boundary_cols(src_basis, dst_index):
    cols = []
    for t in src_basis:
        col = {}
        for i in range(len(t)):
            face = t[:i] + t[i + 1:]
            if any(face[j] == face[j + 1] for j in range(len(face) - 1)):
                continue
            r = dst_index[face]
            col[r] = col.get(r, 0) + (1 if i % 2 == 0 else -1)
        cols.append({r: v for r, v in col.items() if v})
    return cols


def _chain_map_cols(fmap, src_basis, dst_index):
    cols = []
    for t in src_basis:
        img = tuple(fmap(x) for x in t)
        if any(img[i] == img[i + 1] for i in range(len(img) - 1)):
            cols.append({})
        else:
            cols.append({dst_index[img]: 1})
    return cols


def _compose(A_cols, B_cols):
    out = []
    for col in B_cols:
        acc = {}
        for r, v in col.items():
            for i, w in A_cols[r].items():
                acc[i] = acc.get(i, 0) + v * w
        out.append({i: v for i, v in acc.items() if v})
    return out


def _add(A_cols, B_cols, sign=1):
    out = []
    for a, b in zip(A_cols, B_cols):
        acc = dict(a)
        for i, v in b.items():
            acc[i] = acc.get(i, 0) + sign * v
        out.append({i: v for i, v in acc.items() if v})
    return out


def test_criterion_04_coarse_invariance_shadow():
    t0 = time.monotonic()
    rng = random.Random(411)
    for _ in range(25):
        X, _ = random_capped_space(rng, max_points=18, max_pairs=40, comp_cap=10)
        order = {p: i for i, p in enumerate(X.points)}
        nbr = {p: sorted({b for a, b in X.closure_at(1).pairs if a == p}, key=order.get)
               for p in X.points}
        draw = lambda p: rng.choice(nbr[p]) if rng.random() < 0.5 else p
        f = SpaceMap(X, X, {p: draw(p) for p in X.points})
        g = SpaceMap(X, X, {p: draw(p) for p in X.points})
        pr = prism(f, g, 1, 1)
        assert pr.verified

        # re-derive the prism identity from scratch at degrees 0 and 1
        src = chain_complex(X, 1, 2)
        tgt = chain_complex(X, pr.target_scale, 2)
        tidx = [{t: i for i, t in enumerate(b)} for b in tgt.bases]
        d_src1 = _boundary_cols(src.bases[1], {t: i for i, t in enumerate(src.bases[0])})
        d_tgt1 = _boundary_cols(tgt.bases[1], tidx[0])
        d_tgt2 = _boundary_cols(tgt.bases[2], tidx[1])
        h0 = _col_dicts_from_sparse(pr.h[0])
        h1 = _col_dicts_from_sparse(pr.h[1])
        for n, lhs in ((0, _compose(d_tgt1, h0)),
                       (1, _add(_compose(d_tgt2, h1), _compose(h0, d_src1)))):
            cf = _chain_map_cols(f, src.bases[n], tidx[n])
            cg = _chain_map_cols(g, src.bases[n], tidx[n])
            assert lhs == _add(cg, cf, sign=-1), f"prism identity failed in degree {n}"

        for n in (0, 1):
            same = (induced_map(f, 1, n, target_scale=pr.target_scale).matrix
                    == induced_map(g, 1, n, target_scale=pr.target_scale).matrix)
            assert same, f"induced maps differ in degree {n}"
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0
    report_pass(4, f"25 close pairs: prism identity and induced maps agree, {elapsed:.2f}s")


def test_criterion_05_excision_shadow():
    rng = random.Random(55)
    verified = skipped = 0
    cases = []
    for _ in range(14):
        r = rng.randint(12, 20)
        cut, ov = rng.randint(-5, 5), rng.randint(2, 5)
        X = windowed_builtin("int_window", r)
        Z = list(range(cut - ov, r + 1))
        cases.append((X, Z, [-r], 2 * r))
    for _ in range(6):
        cut, ov = rng.randint(-1, 1), rng.randint(1, 2)
        G = windowed_builtin("grid2_window", 3)
        Z = [p for p in G.points if p[0] >= cut - ov]
        base = [p for p in G.points if p[0] == -3]
        cases.append((G, Z, base, 14))
    for X, Z, base, depth in cases:
        fam = big_family_generated(X, base, depth)
        try:
            rep = mv_check(X, Z, fam, 1, 2)
        except PrefixTooShort:
            skipped += 1
            continue
        assert rep.all_iso, (rep.iso, rep.warnings)
        verified += 1
    assert verified + skipped == 20 and verified >= 18
    report_pass(5, f"{verified} complementary pairs isomorphic in degrees <= 2"
                   f" ({skipped} prefix-limited)")


def test_criterion_06_flasque_and_swindle():
    X = windowed_builtin("half_line", 100)
    shift = SpaceMap(X, X, {p: min(p + 1, 100) for p in X.points})
    cert = certify_flasque(X, shift)
    assert isinstance(cert, FlasqueCertificate)
    assert cert.window == 100 and cert.scale_cap == 4 and cert.iter_cap == 64
    assert swindle_identity_check(X, shift, list(range(11)), 16) is True
    report_pass(6, "half_line(100) shift certified flasque; swindle exact on B = [0..10]")


def test_criterion_07_backend_agreement():
    rng = random.Random(77)
    for _ in range(30):
        X, _ = random_capped_space(rng, max_points=25, max_pairs=60, comp_cap=9)
        cc = chain_complex(X, 1, 3, None)
        tuple_route = [FGAbGroup(f, tuple(t)) for f, t in oracles.sparse_chain_homology(
            cc.dims(), [None] + [b.rows for b in cc.boundaries[1:]], 2)]
        clique_route = rips_complex(X, 1, 3).homology(2)
        assert tuple_route == clique_route
        assert homology_at_scale(X, 1, 2) == tuple_route
    report_pass(7, "tuple and clique-complex homology agree in degrees <= 2 on 30 spaces")


def test_criterion_08_snf_correctness():
    rng = random.Random(88)
    for idx in range(100):
        A = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)]
        res = smith_normal_form(A)
        m, n = res.shape
        prod = [[sum(res.U[i][a] * res.S[a][b] * res.V[b][j]
                     for a in range(m) for b in range(n))
                 for j in range(n)] for i in range(m)]
        assert prod == A
        assert abs(oracles.bareiss_det(res.U)) == 1
        assert abs(oracles.bareiss_det(res.V)) == 1
        diag = res.invariant_factors
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
        if idx < 20:
            assert diag == oracles.minor_gcd_invariant_factors(A)
    report_pass(8, "100 exact Smith forms; 20 matched the minor-gcd ladder")


def test_criterion_09_coarsification_values(capsys):
    t0 = time.monotonic()
    rep, code = run(["qhomology", "--space", "hexagon", "--scales", "1", "--max-dim", "1"])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    assert code == 0
    adjacent = [g["free_rank"] for g in rep.results["table"]["1"]]
    terminal = [g["free_rank"] for g in rep.results["terminal"]]
    assert adjacent == [1, 1] and terminal == [1, 0]
    assert all(g["torsion"] == [] for g in rep.results["table"]["1"] + rep.results["terminal"])
    assert elapsed < 1.0
    report_pass(9, f"hexagon Betti (1,1) at the edge scale, (1,0) stabilized, {elapsed:.3f}s")


def test_criterion_10_coarsening_space_shadow():
    X12 = make_explicit_space(list(range(12)),
                              [[(i, (i + 1) % 12) for i in range(12)]],
                              [list(range(12))])
    net = greedy_net(X12, 1)
    assert net == [0, 2, 4, 6, 8, 10]
    net_betti = rips_complex(X12, 2, 3, points=net).betti(2)
    circle_betti = rips_complex(X12, 1, 3).betti(2)
    assert net_betti == circle_betti == [1, 1, 0]
    # nerve route through the ball cover of the same net
    assert nerve(cover_from_net(X12, 1), 3).betti(2) == circle_betti
    report_pass(10, "hexagon net in the 12-gon matches the circle complex in degrees <= 2")


def test_criterion_11_asdim_smoke():
    rep = asdim_upper_bound(windowed_builtin("int_window", 100), [2, 4, 8])
    assert rep.per_scale == {2: 1, 4: 1, 8: 1}
    assert rep.upper_bound == 1
    assert rep.budget == 8
    report_pass(11, "int_window(100) reaches upper bound 1 at scales (2,4,8)")


def _determinism_fixtures(tmp_path):
    hl30 = tmp_path / "hl30.json"
    hl30.write_text(json.dumps({"kind": "builtin", "name": "half_line", "radius": 30}))
    iw20 = tmp_path / "iw20.json"
    iw20.write_text(json.dumps({"kind": "builtin", "name": "int_window", "radius": 20}))
    iw100 = tmp_path / "iw100.json"
    iw100.write_text(json.dumps({"kind": "builtin", "name": "int_window", "radius": 100}))
    shift = tmp_path / "shift.map"
    shift.write_text("\n".join([str(hl30), str(hl30)]
                               + [f"{i} -> {min(i + 1, 30)}" for i in range(31)]) + "\n")
    ident = tmp_path / "ident.map"
    ident.write_text("\n".join([str(hl30), str(hl30)]
                               + [f"{i} -> {i}" for i in range(31)]) + "\n")
    mat = tmp_path / "mat.json"
    mat.write_text("[[2, 4, 4], [-6, 6, 12], [10, 4, 16]]")
    return [
        ["components", "--space", "hexagon"],
        ["homology", "--space", "point", "--colimit", "--max-dim", "4"],
        ["homology", "--space", "hexagon", "--scale", "1", "--max-dim", "2"],
        ["qhomology", "--space", "hexagon", "--scales", "1", "--max-dim", "1"],
        ["nerve", "--space", "hexagon", "--scale", "1", "--max-dim", "1"],
        ["anti-cech", "--space", str(hl30), "--scales", "1,2,4"],
        ["telescope", "--space", str(hl30), "--scales", "1,2,4", "--max-dim", "1"],
        ["asdim", "--space", str(iw100), "--scales", "2,4,8"],
        ["check-morphism", "--map", str(shift)],
        ["close", "--map", str(shift), "--map", str(ident)],
        ["equivalence", "--map", str(shift), "--map", str(ident)],
        ["flasque", "--space", str(hl30), "--map", str(shift)],
        ["mv-check", "--space", str(iw20), "--subset", json.dumps(list(range(8, 21))),
         "--family-base", "[-20]", "--family-depth", "32", "--scale", "1", "--max-dim", "1"],
        ["hybrid", "--space", "hexagon",
         "--family", json.dumps([[str(i) for i in range(6)]]), "--phi", "[0]", "--scale", "1"],
        ["udecomp", "--space", str(iw20),
         "--part-y", json.dumps(list(range(-20, 1))),
         "--part-z", json.dumps(list(range(0, 21))),
         "--radii", '["3", "2", "1"]'],
        ["snf", "--matrix", str(mat)],
    ]


def test_criterion_12_cli_determinism(tmp_path, capsys):
    commands = _determinism_fixtures(tmp_path)
    for argv in commands:
        for fmt in ("text", "json"):
            full = argv + ["--format", fmt]
            _, code1 = run(full)
            out1 = capsys.readouterr().out
            _, code2 = run(full)
            out2 = capsys.readouterr().out
            assert code1 == code2 == 0, (argv, code1, code2)
            assert out1.encode() == out2.encode(), argv
    report_pass(12, f"{len(commands)} commands byte-identical across double runs,"
                    " both formats")
