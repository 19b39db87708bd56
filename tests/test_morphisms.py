"""Morphism layer: controlled/proper reports, closeness, equivalence and
flasqueness certificates."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import genspaces
import oracles

from coarsehom import (
    CoarseError,
    Entourage,
    coarse_components,
    from_metric,
    make_explicit_space,
    product_p,
    subspace,
    windowed_builtin,
)
from coarsehom.chain_maps import _controlled_shift, _shift_at, induced_map, prism, swindle_identity_check
from coarsehom.core_spaces import (BornCoarseSpace, Bornology, ClosureView, CoarseStructure, GroundSet,
                                   UnknownPoint, WindowTag)
from coarsehom.morphisms import (
    FlasqueCertificate,
    FlasqueRefusal,
    SourceTargetMismatch,
    SpaceMap,
    are_close,
    certify_flasque,
    check_equivalence,
    check_morphism,
    identity_map,
    inclusion_map,
)
from coarsehom.morphisms import _margin_generators


def path_space(n):
    pts = list(range(n + 1))
    return make_explicit_space(pts, [[(i, i + 1) for i in range(n)]], [pts])


def two_clusters():
    pts = [0, 1, 10, 11]
    dist = [[abs(a - b) for b in pts] for a in pts]
    return from_metric(pts, dist, [2])


POINT = make_explicit_space(["*"], [], [["*"]])


# ---------------------------------------------------------------- check_morphism

def test_identity_report():
    X = path_space(4)
    rep = check_morphism(identity_map(X))
    assert rep.controlled and rep.proper
    for k, kp in rep.scale_shift.items():
        assert kp == k


def test_constant_map_report():
    X = two_clusters()
    rep = check_morphism(SpaceMap(X, POINT, {x: "*" for x in X.points}))
    assert rep.controlled
    assert rep.proper  # finite source, maximal bornology


def test_inclusion_into_half_line():
    X = windowed_builtin("half_line", 10)
    A = subspace(X, {0})
    rep = check_morphism(inclusion_map(A, X))
    assert rep.is_morphism


def test_scale_shift_monotone():
    X = path_space(6)
    # squash the path onto its even points
    f = SpaceMap(X, X, {x: x - (x % 2) for x in X.points})
    rep = check_morphism(f)
    assert rep.controlled
    ks = sorted(rep.scale_shift)
    assert all(rep.scale_shift[a] <= rep.scale_shift[b] for a, b in zip(ks, ks[1:]))


def test_improper_map_detectable():
    # a hand-built source bornology that does not cover keeps properness falsifiable
    from coarsehom.core_spaces import BornCoarseSpace, Bornology, CoarseStructure, GroundSet

    g = GroundSet([0, 1, 2])
    X = BornCoarseSpace(g, CoarseStructure(g, []), Bornology(g, [[0]]))
    rep = check_morphism(SpaceMap(X, POINT, {x: "*" for x in X.points}))
    assert not rep.proper
    assert rep.proper_witness == frozenset({"*"})


def test_proper_witness_is_the_first_generator_with_an_unbounded_preimage():
    """Properness tests the preimage of the target's bounded union first; the witness is
    still the first target generator, in order, whose preimage is unbounded."""
    def generator_scan(f):
        return next((B for B in f.target.bornology.generators
                     if not f.source.bornology.bounded([x for x in f.source.points if f(x) in B])), None)

    def space(rng, n):  # point n - 1 lies in no generator, so the bornology never covers
        g = GroundSet(range(n))
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        born = [rng.sample(range(n - 1), rng.randint(0, n - 1)) for _ in range(rng.randint(1, 4))]
        return BornCoarseSpace(g, CoarseStructure(g, [Entourage(g, edges)]), Bornology(g, born))

    rng, verdicts = random.Random(41), Counter()
    for _ in range(80):
        X, Y = space(rng, rng.randint(2, 9)), space(rng, rng.randint(2, 9))
        table = {x: rng.randrange(len(Y) - 1) if X.bornology.bounded([x]) else len(Y) - 1 for x in X.points}
        if rng.random() < 0.6:  # planted: an unbounded point lands in a bounded generator
            table[len(X) - 1] = rng.choice(sorted(rng.choice(Y.bornology.generators) or [0]))
        f = SpaceMap(X, Y, table)
        rep = check_morphism(f)
        assert rep.proper_witness == generator_scan(f) and rep.proper == (rep.proper_witness is None), table
        verdicts[rep.proper] += 1
    assert verdicts[True] > 10 and verdicts[False] > 10, verdicts


def test_controlled_witness_is_least_failing_pair():
    # string points iterate in a different order under every hash seed
    pts = list("abcdef")
    X = make_explicit_space(pts, [[("c", "d"), ("e", "f"), ("b", "a")]], [pts])
    D = make_explicit_space(pts, [], [pts])
    rep = check_morphism(SpaceMap(X, D, {p: p for p in pts}))
    assert not rep.controlled
    assert rep.controlled_witness == ("a", "b")


# ------------------------------------------- one-pass shift table vs closure scan

def as_data(X):
    return (list(X.points), [pair for E in X.coarse.generators for pair in E.pairs],
            list(X.bornology.generators))


def assert_matches_closure_scan(f):
    """check_morphism and _shift_at at every scale agree with scanning each closure."""
    src, tgt = as_data(f.source), as_data(f.target)
    rep = check_morphism(f)
    got = (rep.controlled, rep.proper, rep.scale_shift, rep.controlled_witness, rep.proper_witness)
    assert got == oracles.closure_scan_morphism(src, tgt, f.table), f.table
    for k in range(f.source.coarse.stabilization() + 3):
        assert _shift_at(f, k) == oracles.closure_scan_shift_at(src, tgt, f.table, k), (f.table, k)
    return rep


def shift_table_sweep(rng):
    """Self-maps, maps across components, inclusions, constant maps, product projections and sections."""
    for _ in range(25):
        X = genspaces.random_explicit_space(rng, max_points=14, max_pairs=20)
        Y = genspaces.random_explicit_space(rng, max_points=14, max_pairs=20)
        pts = list(X.points)
        yield SpaceMap(X, X, {x: rng.choice(pts) for x in pts})
        yield SpaceMap(X, X, {x: rng.choice(sorted(X.coarse.ball(1, x))) for x in pts})
        yield SpaceMap(X, Y, {x: rng.choice(Y.points) for x in pts})
        y = rng.choice(Y.points)
        yield SpaceMap(X, Y, {x: y for x in pts})
        A = subspace(X, rng.sample(pts, rng.randint(1, len(pts))))
        yield inclusion_map(A, X)
    for r in (3, 6, 10):
        H = windowed_builtin("half_line", r)
        W = windowed_builtin("int_window", r + 4)
        yield genspaces.shift(H)
        yield genspaces.shift(H, -2)
        yield inclusion_map(H, W)
        yield SpaceMap(H, W, {x: -x if x % 3 else x for x in H.points})
        yield SpaceMap(H, W, {x: min(x * x, r + 4) for x in H.points})
        yield SpaceMap(W, H, {x: r for x in W.points})
    G = windowed_builtin("grid2_window", 2)
    yield SpaceMap(G, G, {(a, b): (min(a + 1, 2), b) for a, b in G.points})
    yield SpaceMap(G, G, {(a, b): (b, a) for a, b in G.points})
    for _ in range(6):  # X x [0, n]: the projection to X and the sections at its two ends
        X = genspaces.random_explicit_space(rng, max_points=6, max_pairs=8)
        n = rng.randint(0, 3)
        P = product_p(X, path_space(n))
        yield SpaceMap(P, X, {(x, t): x for x, t in P.points})
        yield SpaceMap(X, P, {x: (x, 0) for x in X.points})
        yield SpaceMap(X, P, {x: (x, n) for x in X.points})
    # source bornologies that do not cover keep properness falsifiable
    g = GroundSet(range(6))
    thin = BornCoarseSpace(g, CoarseStructure(g, []), Bornology(g, [[0, 1]]))
    thin_line = BornCoarseSpace(g, CoarseStructure(g, [Entourage(g, [(i, i + 1) for i in range(5)])]),
                                Bornology(g, [[0, 1]]))
    dots = make_explicit_space(list(range(6)), [], [[i] for i in range(6)])
    yield SpaceMap(thin_line, dots, {x: x for x in range(6)})  # neither controlled nor proper
    yield SpaceMap(thin, dots, {x: x // 2 for x in range(6)})  # controlled, not proper


def test_one_pass_shift_table_matches_closure_scan():
    verdicts = Counter()
    for f in shift_table_sweep(random.Random(23)):
        rep = assert_matches_closure_scan(f)
        verdicts[rep.controlled, rep.proper] += 1
    assert len(verdicts) == 4 and verdicts[False, True] > 10, verdicts


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_pass_shift_table_matches_closure_scan_on_random_maps(data):
    def space(tag):
        n = data.draw(st.integers(1, 9), label=f"{tag} points")
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=12), label=f"{tag} edges")
        born = data.draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=3),
                         label=f"{tag} bornology")
        g = GroundSet(range(n))
        return BornCoarseSpace(g, CoarseStructure(g, [Entourage(g, edges)]), Bornology(g, born))

    X = space("source")
    Y = X if data.draw(st.booleans(), label="self-map") else space("target")
    table = {x: data.draw(st.integers(0, len(Y) - 1), label=f"f({x})") for x in X.points}
    assert_matches_closure_scan(SpaceMap(X, Y, table))


def test_check_morphism_never_builds_a_closure(monkeypatch):
    maps = list(shift_table_sweep(random.Random(5)))  # products are built before the patch

    def refuse(self):
        raise AssertionError("a closure's pair set was built")

    monkeypatch.setattr(ClosureView, "pairs", property(refuse))
    for f in maps:
        check_morphism(f)
        _shift_at(f, 2)


def test_controlled_shift_grows_the_target_table_only_to_the_answer():
    f = inclusion_map(windowed_builtin("int_window", 5), windowed_builtin("int_window", 200))
    assert _controlled_shift(f, 1) == 1
    assert f.target.coarse._depth <= 2


def test_check_morphism_grows_the_target_table_only_past_its_largest_shift():
    f = inclusion_map(windowed_builtin("int_window", 5), windowed_builtin("int_window", 200))
    rep = check_morphism(f)
    assert rep.is_morphism and rep.scale_shift == {d: d for d in range(11)}
    assert f.target.coarse._depth <= max(rep.scale_shift.values()) + 1


def test_no_map_route_reads_a_whole_target_table(monkeypatch):
    read = []
    hop_rows = CoarseStructure.hop_rows
    monkeypatch.setattr(CoarseStructure, "hop_rows", lambda self: read.append(self) or hop_rows(self))
    H, W = windowed_builtin("half_line", 8), windowed_builtin("int_window", 30)
    f, shift = inclusion_map(H, W), genspaces.shift(H)
    check_morphism(f)
    _shift_at(f, 2)
    induced_map(f, 1, 1)
    prism(f, f, 1, 1)
    assert read and all(c is H.coarse for c in read)  # only check_morphism's walk over its source
    read.clear()
    are_close(shift, identity_map(H))
    swindle_identity_check(H, shift, [0, 1], 6)
    certify_flasque(H, shift)
    assert read == []


# ---------------------------------------------------------------- closeness

def test_close_to_self_at_zero():
    X = path_space(5)
    f = identity_map(X)
    assert are_close(f, f) == 0


def test_shift_close_to_identity():
    X = windowed_builtin("half_line", 10)
    assert are_close(genspaces.shift(X), identity_map(X)) == 1


def test_are_close_grows_the_table_only_to_the_answer():
    X = windowed_builtin("int_window", 200)
    assert are_close(identity_map(X), genspaces.shift(X)) == 1
    assert X.coarse._depth <= 1


@st.composite
def sparse_spaces(draw, max_points=14):
    """A space on 0..n-1 with at most n generator pairs, so usually several components."""
    n = draw(st.integers(1, max_points))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    return make_explicit_space(list(range(n)), [edges], [list(range(n))]), edges


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_are_close_matches_bfs_oracle(data):
    X, _ = data.draw(sparse_spaces())
    Y, edges = data.draw(sparse_spaces())
    image = st.lists(st.integers(0, len(Y) - 1), min_size=len(X), max_size=len(X))
    f, g = (SpaceMap(X, Y, dict(zip(X.points, data.draw(image)))) for _ in range(2))
    hops = oracles.hop_distances(Y.points, edges)
    dists = [hops[f(x)].get(g(x)) for x in X.points]
    assert are_close(f, g) == (None if None in dists else max(dists))


def test_far_constants_not_close():
    Y = two_clusters()
    f = SpaceMap(POINT, Y, {"*": 0})
    g = SpaceMap(POINT, Y, {"*": 10})
    assert are_close(f, g) is None


def test_close_requires_same_ends():
    X, Y = path_space(2), path_space(3)
    with pytest.raises(SourceTargetMismatch):
        are_close(identity_map(X), identity_map(Y))


def test_closeness_triangle_inequality():
    rng = random.Random(3)
    X = path_space(12)
    pts = X.points
    f = SpaceMap(X, X, {x: x for x in pts})
    g = SpaceMap(X, X, {x: min(x + rng.randint(0, 1), 12) for x in pts})
    h = SpaceMap(X, X, {x: max(g(x) - rng.randint(0, 2), 0) for x in pts})
    k1, k2, k3 = are_close(f, g), are_close(g, h), are_close(f, h)
    assert k3 <= k1 + k2


# ---------------------------------------------------------------- equivalence

def test_identity_equivalence():
    X = path_space(4)
    rep = check_equivalence(identity_map(X), identity_map(X))
    assert rep
    assert (rep.k_source, rep.k_target) == (0, 0)


def test_round_to_even_equivalence():
    pts = list(range(11))
    dist = [[abs(a - b) for b in pts] for a in pts]
    X = from_metric(pts, dist, [2])
    evens = [p for p in pts if p % 2 == 0]
    dist_e = [[abs(a - b) for b in evens] for a in evens]
    Xp = from_metric(evens, dist_e, [3])
    f = SpaceMap(X, Xp, {x: x - (x % 2) for x in pts})
    g = SpaceMap(Xp, X, {e: e for e in evens})
    rep = check_equivalence(f, g)
    assert rep.equivalence
    assert rep.k_source is not None and rep.k_target == 0
    # equivalence matches component counts
    assert len(coarse_components(X)) == len(coarse_components(Xp))


def test_component_count_obstruction():
    X = two_clusters()
    f = SpaceMap(X, POINT, {x: "*" for x in X.points})
    g = SpaceMap(POINT, X, {"*": 0})
    rep = check_equivalence(f, g)
    assert not rep.equivalence


# ---------------------------------------------------------------- flasqueness

def test_flasque_half_line_shift():
    X = windowed_builtin("half_line", 100)
    f = genspaces.shift(X)
    cert = certify_flasque(X, f)
    assert isinstance(cert, FlasqueCertificate)
    assert cert.cond1_scale == 1
    assert cert.window == 100
    for B, j in cert.cond3_table.items():
        assert j == max(B) + 1
    assert all(kp <= k for k, kp in cert.cond2_table.items())
    assert cert.warnings == ("window-relative: all statements hold on the half_line(100) window only",)


def test_flasque_refuses_finite_space():
    X = make_explicit_space([0, 1, 2], [[(0, 1)]], [[0, 1, 2]])
    out = certify_flasque(X, identity_map(X))
    assert isinstance(out, FlasqueRefusal)
    assert out.condition == "NotWindowed"


@pytest.mark.parametrize("name, radius", [("int_window", 6), ("half_line", 6), ("grid2_window", 2)])
def test_cylinder_keeps_the_window_tag_but_not_its_points(name, radius):
    # the cylinder X x [0, 1], built as a product and given X's tag: a public constructor
    # accepts a tag whose window's points the space does not hold
    X = windowed_builtin(name, radius)
    P = product_p(X, path_space(1))
    C = BornCoarseSpace(P.ground, P.coarse, P.bornology, window_tag=X.window_tag)
    corner = f"{C.points[0]!r} is not one: this space carries only the window's tag"
    with pytest.raises(CoarseError, match=re.escape(f"a flasqueness margin needs points of the "
                                                    f"{name}({radius}) window, and {corner}")):
        certify_flasque(C, identity_map(C))
    # a subspace keeps window points, so its margins are read as before
    S = subspace(X, X.points[:len(X.points) // 2])
    assert isinstance(certify_flasque(S, identity_map(S)), FlasqueRefusal)


def test_flasque_refuses_identity_on_window():
    X = windowed_builtin("half_line", 100)
    out = certify_flasque(X, identity_map(X))
    assert isinstance(out, FlasqueRefusal)
    assert out.condition == "condition 3"


def test_flasque_rejects_negative_caps():
    X = windowed_builtin("half_line", 10)
    f = genspaces.shift(X)
    for caps in ({"scale_cap": -1}, {"iter_cap": -1}):
        with pytest.raises(CoarseError, match="must be >= 0"):
            certify_flasque(X, f, **caps)
    assert isinstance(certify_flasque(X, f, scale_cap=0, iter_cap=20), FlasqueCertificate)


def flasque_verdict(X, f, scale_cap, iter_cap):
    out = certify_flasque(X, f, scale_cap=scale_cap, iter_cap=iter_cap)
    if isinstance(out, FlasqueRefusal):
        return (out.condition, out.explanation, out.witness)
    return ("certificate", out.cond1_scale, out.cond2_table, out.cond3_table)


def windowed_cycle(n):
    C = make_explicit_space(list(range(n)), [[(i, (i + 1) % n) for i in range(n)]],
                            [[i] for i in range(n)])
    return BornCoarseSpace(C.ground, C.coarse, C.bornology, window_tag=WindowTag("cycle", n))


def flasque_sweep(rng):
    """(space, self-map) pairs: shifts, clamped doubling, rotations, random near-identities."""
    for r in (5, 8, 13):
        for name in ("half_line", "int_window"):
            X = windowed_builtin(name, r)
            lo = min(X.points)
            for d in (1, 2, -1):
                yield X, genspaces.shift(X, d)
            for b in (0, 1):  # x -> 2x + b keeps adding pairs until the clamp
                yield X, SpaceMap(X, X, {x: max(min(2 * x + b, r), lo) for x in X.points})
            yield X, SpaceMap(X, X, {x: max(min(x + rng.randint(-2, 2), r), lo) for x in X.points})
    H = windowed_cycle(6)
    for d in range(6):
        yield H, SpaceMap(H, H, {x: (x + d) % 6 for x in H.points})
    G = windowed_builtin("grid2_window", 2)
    yield G, SpaceMap(G, G, {(a, b): (min(a + 1, 2), b) for a, b in G.points})
    yield G, SpaceMap(G, G, {(a, b): (max(min(a + rng.randint(-1, 1), 2), -2), b)
                             for a, b in G.points})


def test_flasque_orbit_walk_matches_union_over_all_powers():
    rng = random.Random(71)
    verdicts = Counter()
    for X, f in flasque_sweep(rng):
        edges = [pair for E in X.coarse.generators for pair in E.pairs]
        tested = _margin_generators(X)
        # the long caps let the shifts escape every tested generator, so they give the certificates
        for scale_cap, iter_cap in ((4, 64), (3, 0), (2, 1), (4, 2), (1, 3), (4, 5), (0, 64), (2, 32), (3, 16),
                                    (1, 8)):
            want = oracles.flasque_reference(list(X.points), edges, f.table, tested, scale_cap, iter_cap)
            got = flasque_verdict(X, f, scale_cap, iter_cap)
            assert got == want, (X, f.table, iter_cap)
            verdicts[want[0]] += 1
    assert verdicts["certificate"] > 100 and verdicts["condition 3"] > 100


def two_window_ends():
    """int_window(10) kept at its two ends: window points in two coarse components."""
    return subspace(windowed_builtin("int_window", 10), [-10, -9, 9, 10])


def test_flasque_refuses_a_map_far_from_the_identity():
    S = two_window_ends()
    out = certify_flasque(S, SpaceMap(S, S, {x: 10 for x in S.points}))
    assert isinstance(out, FlasqueRefusal)
    assert (out.condition, out.explanation, out.witness) == (
        "condition 1", "f is not close to the identity on the window", None)


def empty_space():
    g = GroundSet([])
    return BornCoarseSpace(g, CoarseStructure(g, []), Bornology(g, []))


def test_flasque_certifies_the_empty_space():
    E = empty_space()
    cert = certify_flasque(E, identity_map(E))
    assert isinstance(cert, FlasqueCertificate)
    assert (cert.window, cert.cond1_scale, cert.cond2_table, cert.cond3_table, cert.tested_generators,
            cert.warnings) == (None, 0, {}, {}, (), ("empty space",))


# ------------------------------------------------------- map-layer refusals

def test_space_map_refusals():
    X, Y = path_space(2), path_space(3)
    with pytest.raises(UnknownPoint, match="source point 9 unknown"):
        SpaceMap(X, Y, {9: 0})
    with pytest.raises(UnknownPoint, match="target point 9 unknown"):
        SpaceMap(X, Y, {0: 9})
    with pytest.raises(CoarseError, match="point 0 assigned twice"):
        SpaceMap(X, Y, [(0, 0), (0, 1)])
    with pytest.raises(CoarseError, match="map not total; first missing point 1"):
        SpaceMap(X, Y, {0: 0, 2: 2})


def test_compose_and_equivalence_refuse_mismatched_ends():
    f = inclusion_map(path_space(2), path_space(3))
    with pytest.raises(SourceTargetMismatch, match="compose: inner target differs from outer source"):
        f.compose(f)
    with pytest.raises(SourceTargetMismatch, match=re.escape("check_equivalence needs f: X -> X'")):
        check_equivalence(f, f)


def test_flasque_refuses_a_map_that_is_no_self_map():
    X = path_space(3)
    with pytest.raises(SourceTargetMismatch, match="flasqueness needs a self-map of X"):
        certify_flasque(X, inclusion_map(X, path_space(4)))
