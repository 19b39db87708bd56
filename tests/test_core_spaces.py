"""Core space model: construction, closures, thickenings, components, unions."""

import gc
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coarsehom import (
    BadScales,
    Bornology,
    BornologyDoesNotCover,
    CoarseError,
    CoarseStructure,
    Entourage,
    FGAbGroup,
    GroundSet,
    IncompatibleStructures,
    InvalidMetric,
    NonSymmetricMatrix,
    PrefixTooShort,
    UnknownPoint,
    WindowTag,
    anti_cech,
    asdim_upper_bound,
    big_family_generated,
    coarse_components,
    coarsify_homology,
    coproduct,
    from_metric,
    homology_at_scale,
    is_U_bounded,
    make_big_family,
    make_explicit_space,
    mv_check,
    product_p,
    rips_complex,
    subspace,
    thicken,
    windowed_builtin,
)

import oracles
from genspaces import moore_space, random_explicit_space, random_metric_document
from oracles import bfs_distance_pairs, union_find_components


def path_space(n):
    pts = list(range(n + 1))
    return make_explicit_space(pts, [[(i, i + 1) for i in range(n)]], [pts])


# ---------------------------------------------------------------- construction

def test_one_point_space():
    X = make_explicit_space(["a"], [], [["a"]])
    assert X.closure_at(0).pairs == frozenset({("a", "a")})
    assert X.closure_at(5).pairs == frozenset({("a", "a")})
    assert X.coarse.stabilization() == 0


def test_explicit_symmetric_diagonal_closure():
    X = make_explicit_space([0, 1, 2], [[(0, 1)]], [[0, 1, 2]])
    expected = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}
    assert X.closure_at(1).pairs == frozenset(expected)


def test_incompatible_structures():
    with pytest.raises(IncompatibleStructures):
        make_explicit_space([0, 1], [[(0, 1)]], [[0]])


def test_bornology_must_cover():
    with pytest.raises(BornologyDoesNotCover):
        make_explicit_space([0, 1], [], [[0]])


def test_unknown_point_in_generator():
    with pytest.raises(UnknownPoint):
        make_explicit_space([0, 1], [[(0, 7)]], [[0, 1]])


def test_duplicate_points_rejected():
    with pytest.raises(UnknownPoint):
        make_explicit_space([0, 0], [], [[0]])


# ---------------------------------------------------------------- from_metric

def test_metric_two_points_one_component():
    X = from_metric(["a", "b"], [[0, 1], [1, 0]], [2])
    assert ("a", "b") in X.coarse.generators[0].pairs
    assert len(coarse_components(X)) == 1


def test_metric_strict_inequality():
    X = from_metric(["a", "b"], [[0, 1], [1, 0]], [1])
    # d = 1 is not < 1, so the generator is empty and the points stay apart
    assert X.coarse.generators[0].pairs == frozenset()
    assert len(coarse_components(X)) == 2


def test_metric_empty_scales():
    X = from_metric([0, 1, 2], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [])
    for k in (0, 1, 4):
        assert X.closure_at(k).pairs == frozenset({(p, p) for p in (0, 1, 2)})


def test_metric_validation():
    with pytest.raises(NonSymmetricMatrix):
        from_metric([0, 1], [[0, 1], [2, 0]], [1])
    with pytest.raises(CoarseError):
        from_metric([0, 1], [[0, -1], [-1, 0]], [1])
    with pytest.raises(BadScales):
        from_metric([0, 1], [[0, 1], [1, 0]], [2, 2])
    for rows in ([[0, 1]], [[0, 1], [1]], [[0, 1, 2], [1, 0, 1]]):
        with pytest.raises(InvalidMetric, match="distance matrix must be 2x2"):
            from_metric([0, 1], rows, [1])


def test_coarse_structure_refuses_a_generator_over_another_ground():
    ground = GroundSet([0, 1])
    other = Entourage(GroundSet([0, 1, 2]), [(0, 1)])
    with pytest.raises(UnknownPoint, match="generator defined over a different ground set"):
        CoarseStructure(ground, [other])


def test_metric_rational_scales():
    X = from_metric([0, 1], [[0, Fraction(3, 2)], [Fraction(3, 2), 0]], ["3/2"])
    assert X.coarse.generators[0].pairs == frozenset()
    Y = from_metric([0, 1], [[0, Fraction(3, 2)], [Fraction(3, 2), 0]], ["7/4"])
    assert (0, 1) in Y.coarse.generators[0].pairs


@pytest.mark.parametrize("bad", ["x", "1/0", " ", True, False])
def test_metric_refuses_malformed_and_boolean_entries(bad):
    # a malformed string or a boolean is no distance and no scale
    with pytest.raises(InvalidMetric, match=f"cannot interpret {bad!r} as a rational number"):
        from_metric([0, 1], [[0, bad], [bad, 0]], [2])
    with pytest.raises(InvalidMetric, match=f"cannot interpret {bad!r} as a rational number"):
        from_metric([0, 1], [[0, 1], [1, 0]], [bad])


def test_metric_equal_values_in_other_spellings_are_symmetric():
    X = from_metric(["a", "b"], [[0, "3/6"], [Fraction(1, 2), "0/4"]], ["2/4", 1])
    assert [g.pairs for g in X.coarse.generators] == [frozenset(), frozenset({("a", "b"), ("b", "a")})]
    assert X.metric("a", "b") == Fraction(1, 2) and type(X.metric("b", "a")) is Fraction


def test_from_metric_matches_the_fraction_oracle():
    # seeded differential sweep; a quarter of the cases are valid, the rest
    # carry planted defects whose first one (row by row) must be the one named
    rng = random.Random(18)
    plans = ((), ("negative",), ("asymmetric",), ("diagonal",), ("negative", "asymmetric", "diagonal"))
    outcomes, ties = set(), 0
    for case in range(300):
        points, dist, scales = random_metric_document(rng, plans[case % len(plans)])
        want = oracles.metric_space_reference(points, dist, scales)
        outcomes.add(want[0])
        try:
            X = from_metric(points, dist, scales)
        except CoarseError as e:
            assert (type(e).__name__, str(e)) == want, (points, dist, scales)
            continue
        assert want[0] == "space", (points, dist, scales)
        assert [g.pairs for g in X.coarse.generators] == want[1]
        for (x, y), d in want[2].items():
            assert type(X.metric(x, y)) is Fraction and X.metric(x, y) == d
        ties += sum(d == r for d in want[2].values() for r in map(Fraction, scales))
    assert outcomes == {"space", "NegativeDistance", "NonSymmetricMatrix", "InvalidMetric"}
    assert ties > 100  # entries equal to a scale, where d < r is decided by the strict inequality


# ---------------------------------------------------------------- builtins

def test_half_line_builtin():
    X = windowed_builtin("half_line", 3)
    assert X.points == (0, 1, 2, 3)
    expected = {(t, t) for t in range(4)} | {(t, t + 1) for t in range(3)} | {(t + 1, t) for t in range(3)}
    assert X.closure_at(1).pairs == frozenset(expected)
    assert X.window_tag.name == "half_line"
    assert X.window_tag.radius == 3


def test_int_window_builtin():
    X = windowed_builtin("int_window", 1)
    assert X.points == (-1, 0, 1)


def test_grid2_builtin():
    X = windowed_builtin("grid2_window", 1)
    assert len(X.points) == 9
    # unit l^1 steps only
    assert ((0, 0), (1, 0)) in X.closure_at(1).pairs
    assert ((0, 0), (1, 1)) not in X.closure_at(1).pairs
    assert ((0, 0), (1, 1)) in X.closure_at(2).pairs


def test_builtin_bad_radius():
    with pytest.raises(CoarseError):
        windowed_builtin("half_line", 0)
    with pytest.raises(CoarseError):
        windowed_builtin("no_such", 2)


@pytest.mark.parametrize("radius, text", [(True, "radius must be an int, got True"),
                                          (0, "radius must be >= 1, got 0"),
                                          (2.5, "radius must be an int, got 2.5")])
def test_window_tag_refuses_a_radius_that_is_no_count(radius, text):
    # a tag of radius True once listed the points (0, 1) under a radius no document can name;
    # the tag itself refuses it, whether or not its name is a builtin's
    for name in ("half_line", "cycle"):
        with pytest.raises(CoarseError) as e:
            WindowTag(name, radius)
        assert type(e.value) is CoarseError and str(e.value) == text
    assert WindowTag("cycle", 2).points == ()


# ---------------------------------------------------------------- thicken / closure

def test_thicken_examples():
    X = make_explicit_space([0, 1, 2], [[(0, 1)]], [[0, 1, 2]])
    assert thicken(X, 0, {1}) == {1}
    assert thicken(X, 1, {0}) == {0, 1}
    assert thicken(X, 1, set()) == set()
    with pytest.raises(UnknownPoint):
        thicken(X, 1, {9})


def test_space_thicken_is_the_structure_thickening():
    X = windowed_builtin("int_window", 6)
    for k, B in ((0, {0}), (1, {0}), (2, {-6, 6}), (9, {3})):
        assert X.coarse.thicken(k, B) == thicken(X, k, B)
    assert thicken(X, 2, {-6, 6}) == {-6, -5, -4, 4, 5, 6}
    with pytest.raises(BadScales, match="got -1"):
        thicken(X, -1, {0})
    with pytest.raises(UnknownPoint):
        thicken(X, 1, {99})


def test_scale_queries_refuse_bad_input():
    X = windowed_builtin("int_window", 3)
    with pytest.raises(CoarseError, match="scale-index must be >= 0"):
        X.closure_at(-1)
    with pytest.raises(UnknownPoint):
        X.coarse.ball(1, 99)
    # membership answers as a frozenset of pairs does: a point off the ground is in no pair
    assert (99, 0) not in X.closure_at(1) and (0, 1) in X.closure_at(1)


@pytest.mark.parametrize("k", [-1, -7])
def test_negative_scale_refusal_names_the_value(k):
    X = windowed_builtin("int_window", 3)
    # Y_3 = -3..0 completes Z to X; no member completes Z_far
    family, Z, Z_far = big_family_generated(X, {-3}, 3), range(0, 4), range(2, 4)
    calls = {"ball": lambda: X.coarse.ball(k, 0), "closure_at": lambda: X.closure_at(k),
             "thicken": lambda: thicken(X, k, {0}), "mv_check": lambda: mv_check(X, Z, family, k, 1),
             "mv_check far": lambda: mv_check(X, Z_far, family, k, 1)}
    for name, call in calls.items():
        with pytest.raises(BadScales) as e:
            call()
        assert str(e.value) == f"scale-index must be >= 0, got {k}", name


W5 = windowed_builtin("int_window", 5)
W5_FAMILY, W5_Z = big_family_generated(W5, {-5}, 5), range(0, 6)

# every entry that takes a scale index, as a call with that index
SCALE_ENTRIES = {
    "ball": lambda k: W5.coarse.ball(k, 0),
    "thicken": lambda k: thicken(W5, k, {0}),
    "homology_at_scale": lambda k: homology_at_scale(W5, k, 1),
    "rips_complex": lambda k: rips_complex(W5, k, 1),
    "mv_check": lambda k: mv_check(W5, W5_Z, W5_FAMILY, k, 1),
    "coarsify_homology": lambda k: coarsify_homology(W5, [k], 1),
    "anti_cech": lambda k: anti_cech(W5, iter([k])),
    "asdim_upper_bound": lambda k: asdim_upper_bound(W5, iter([k])),
}


@pytest.mark.parametrize("k", [1.9, 1.0, True, "1"])
@pytest.mark.parametrize("entry", SCALE_ENTRIES)
def test_scale_index_that_is_no_int_is_refused(entry, k):
    call = SCALE_ENTRIES[entry]
    call(1)  # the same call answers at scale 1, and leaves its closure cached
    with pytest.raises(BadScales) as e:
        call(k)
    assert str(e.value) == f"scale-index must be an int, got {k!r}"


def test_stabilization_memory_stays_small():
    # the bound searches hold a few rows at a time; the full hop table of
    # either window takes several MiB
    for name, r, stab in (("int_window", 100, 200), ("grid2_window", 8, 32)):
        X = windowed_builtin(name, r)
        tracemalloc.start()
        try:
            s = X.coarse.stabilization()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s == stab
        assert peak < 2**20, name
        assert X.closure_at(s).pairs == frozenset((a, b) for a in X.points for b in X.points)


def test_closure_memory_stays_small():
    # a stabilized closure answers its size and a membership from the components;
    # the pair set of grid2_window(12) alone takes about 40 MiB
    for r in (12, 8):
        X = windowed_builtin("grid2_window", r)
        s = X.coarse.stabilization()
        tracemalloc.start()
        try:
            U = X.closure_at(s)
            size, corners = len(U), ((-r, -r), (r, r)) in U
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, r
        assert size == len(X.points) ** 2 and corners
    full = frozenset((a, b) for comp in coarse_components(X) for a in comp for b in comp)
    edges = [pair for g in X.coarse.generators for pair in g.pairs]
    assert U.pairs == full == frozenset(bfs_distance_pairs(X.points, edges, s))


def test_a_space_whose_closures_were_asked_is_freed_by_reference_counting():
    # a closure view holds the structure's lists, not the structure: no reference cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        X = windowed_builtin("int_window", 5)
        for k in (1, 2, 12):  # two table views, then (stabilized at 10) a component view
            U = X.closure_at(k)
            assert len(U) == len(U.pairs) and (0, 1) in U
        structure = weakref.ref(X.coarse)
        del X, U
        assert structure() is None
    finally:
        if enabled:
            gc.enable()


class PairSubclass(tuple):
    pass


def answer(container, value):
    """value in container, or the type of the error it raises."""
    try:
        return value in container
    except Exception as e:
        return type(e)


def test_closure_view_answers_as_its_pair_set():
    # seeded: len and membership on the view equal the same questions on its pair
    # set, at every scale through s + 1, asked before and after stabilization()
    rng = random.Random(1717)
    for _ in range(40):
        seed = rng.randrange(2**32)
        X = random_explicit_space(random.Random(seed), max_points=14, max_pairs=30)
        s = X.coarse.stabilization()
        pts = X.points
        edges = [pair for g in X.coarse.generators for pair in g.pairs]
        others = [(len(pts), 0), (0, -1), ("a", "b"), (0,), (0, 0, 0), PairSubclass((0, 0)),
                  PairSubclass((0, len(pts))), [0, 0], ([0], 0), 0, None, "00"]
        for stabilized_first in (False, True):
            Y = random_explicit_space(random.Random(seed), max_points=14, max_pairs=30)
            if stabilized_first:
                Y.coarse.stabilization()
            for k in range(s + 2):
                U = Y.closure_at(k)
                values = [(x, y) for x in pts for y in pts] + others
                seen = (len(U), [answer(U, v) for v in values])
                pairs = frozenset(U.pairs)
                assert seen == (len(pairs), [answer(pairs, v) for v in values]), (seed, k)
                assert answer(U, [0, 0]) is TypeError
                assert pairs == bfs_distance_pairs(pts, edges, k), (seed, k)


def test_path_closure_stabilizes():
    X = path_space(3)
    full = {(a, b) for a in range(4) for b in range(4)}
    assert X.closure_at(3).pairs == frozenset(full)
    X.coarse.stabilization()
    assert X.coarse.stabilized_at == 3


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_matches_bfs_oracle(data):
    n = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(0, 20))
    edges = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=m, max_size=m)
    )
    X = make_explicit_space(list(range(n)), [edges], [list(range(n))])
    B = data.draw(st.sets(st.integers(0, n - 1)))
    pts = range(n)
    # points are their own indices here, so index-space answers compare directly
    oracle = [frozenset(bfs_distance_pairs(pts, edges, k)) for k in range(n + 2)]
    for k in range(6):
        rel = oracle[min(k, n + 1)]
        view = X.closure_at(k)
        assert view.pairs == rel
        for x in pts:
            for y in pts:
                assert view.related(x, y) == ((x, y) in view) == ((x, y) in rel)
        for y in pts:
            assert X.coarse.ball(k, y) == {x for x in pts if (x, y) in rel}
        assert thicken(X, k, B) == {x for x in pts if any((x, b) in rel for b in B)}
        assert view.row_sets() == [{x for x in pts if (x, y) in rel} for y in pts]
    stab = next(s for s in range(n + 1) if oracle[s] == oracle[s + 1])
    assert X.coarse.stabilization() == stab
    rows, index = X.coarse.hop_rows(), X.ground.index
    for x in pts:
        for y in pts:
            hops = next((s for s in range(stab + 1) if (x, y) in oracle[s]), None)
            assert rows[index(y)].get(index(x)) == hops


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_induced_rips_complex_is_the_closure_restricted(data):
    # rips_complex(points=S) restricts the closure's rows to S inline: its vertices are S in
    # ambient order and its edges the closure pairs inside S, renumbered in that order
    n = data.draw(st.integers(1, 12))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    X = make_explicit_space(list(range(n)), [edges], [list(range(n))])
    S = data.draw(st.sets(st.integers(0, n - 1)))
    kept = sorted(S)
    for k in range(4):
        rel = frozenset(bfs_distance_pairs(range(n), edges, k))
        complex_ = rips_complex(X, k, 1, points=S)
        assert complex_.vertices == kept
        assert complex_.simplices[0] == [(i,) for i in range(len(kept))]
        assert complex_.simplices[1] == [(i, j) for i in range(len(kept)) for j in range(i + 1, len(kept))
                                         if (kept[i], kept[j]) in rel]


@st.composite
def small_spaces(draw, max_points):
    n = draw(st.integers(1, max_points))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return make_explicit_space(list(range(n)), [edges], [list(range(n))])


stabilizing_spaces = st.one_of(
    small_spaces(16),
    st.integers(0, 2**32).map(lambda seed: random_explicit_space(random.Random(seed))),
    small_spaces(40),
    st.lists(small_spaces(10), min_size=1, max_size=3).map(coproduct),
    st.tuples(small_spaces(6), small_spaces(6)).map(lambda xy: product_p(*xy)),
    st.builds(windowed_builtin, st.just("int_window"), st.integers(1, 60)),
    st.builds(windowed_builtin, st.just("grid2_window"), st.integers(1, 5)),
    st.builds(windowed_builtin, st.just("half_line"), st.integers(1, 60)),
)


@settings(max_examples=150, deadline=None)
@given(stabilizing_spaces)
def test_bound_stabilization_matches_lockstep_and_bfs(X):
    edges = [pair for g in X.coarse.generators for pair in g.pairs]
    stab = X.coarse.stabilization()
    assert stab == oracles.largest_eccentricity(X.points, edges)
    # the same structure grown in lockstep until a layer adds nothing
    table = CoarseStructure(X.ground, X.coarse.generators)
    rows = table.hop_rows()
    assert table._depth - 1 == stab == max(d for row in rows for d in row.values())
    # from stabilization on, the components answer, and they agree with the table
    pts = X.points
    for k in range(stab, stab + 3):
        near = [{j for j, d in row.items() if d <= k} for row in rows]
        assert X.closure_at(k).pairs == {(pts[j], pts[i]) for i, nb in enumerate(near) for j in nb}
        for i, x in enumerate(pts):
            assert X.coarse.ball(k, x) == {pts[j] for j in near[i]}
            assert [(x, y) in X.closure_at(k) for y in pts] == [j in near[i] for j in range(len(pts))]
        sets = X.closure_at(k).row_sets()
        # the rows of one component share one set
        assert sets == near and len({id(row) for row in sets}) == len(coarse_components(X))
    assert {frozenset(c) for c in coarse_components(X)} == union_find_components(pts, edges)
    assert X.coarse._depth == 0  # no query above grew the table


def test_components_and_stabilization_grow_no_table():
    # the components come from one search each, stabilization from the bounds
    cases = [(lambda: windowed_builtin("int_window", 200), 1, 400),
             (lambda: windowed_builtin("grid2_window", 6), 1, 24),
             (lambda: coproduct([path_space(4), path_space(7)]), 2, 7)]
    for make, count, stab in cases:
        X = make()
        assert len(coarse_components(X)) == count and X.coarse._depth == 0
        assert X.coarse.stabilization() == stab and X.coarse._depth == 0
        X = make()
        assert X.coarse.stabilization() == stab and X.coarse._depth == 0


def test_stabilization_reuses_the_component_search(monkeypatch):
    # the first bounded search starts from the least member, as the component
    # pass's search does, so it is taken over: per component one search fewer
    # than searching again (path: 2 -> 1; cliques of 1, 3, 5 points: 2 + 4 + 6 -> 1 + 3 + 5)
    calls = []
    bfs = CoarseStructure._bfs
    monkeypatch.setattr(CoarseStructure, "_bfs", lambda self, *a: calls.append(a) or bfs(self, *a))
    cliques = [make_explicit_space(list(range(m)), [[(a, b) for a in range(m) for b in range(a)]],
                                   [list(range(m))]) for m in (1, 3, 5)]
    for X, searches, stab in [(path_space(9), 1, 9), (coproduct(cliques), 9, 1)]:
        calls.clear()
        assert X.coarse.stabilization() == stab
        assert len(calls) == searches
        assert X.coarse.stabilization() == stab and len(calls) == searches
        assert X.coarse._opening is None  # the opening searches are not kept past stabilization


@pytest.mark.parametrize("off", [-1, 1])
def test_hop_table_refuses_a_planted_bound_fault(monkeypatch, off):
    diameter = CoarseStructure._diameter
    monkeypatch.setattr(CoarseStructure, "_diameter", lambda self, members: diameter(self, members) + off)
    X = path_space(5)
    assert X.coarse.stabilization() == 5 + off
    with pytest.raises(CoarseError) as e:
        X.coarse.hop_rows()
    assert str(e.value) == ("the hop table stabilizes at scale 5, but the eccentricity "
                            f"bounds give {5 + off}")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_thickening_laws(data):
    n = data.draw(st.integers(1, 10))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=15))
    X = make_explicit_space(list(range(n)), [edges], [list(range(n))])
    B1 = data.draw(st.sets(st.integers(0, n - 1)))
    B2 = data.draw(st.sets(st.integers(0, n - 1)))
    k = data.draw(st.integers(0, 4))
    assert thicken(X, k, B1 | B2) == thicken(X, k, B1) | thicken(X, k, B2)
    if B1 <= B2:
        assert thicken(X, k, B1) <= thicken(X, k, B2)
    assert thicken(X, 0, B1) == frozenset(B1)
    # monotone in the scale
    assert thicken(X, k, B1) <= thicken(X, k + 1, B1)


def test_closure_monotone_symmetric_reflexive():
    rng = random.Random(7)
    for _ in range(10):
        X = random_explicit_space(rng, max_points=15, max_pairs=30)
        s = X.coarse.stabilization()
        for k in range(s + 1):
            U = X.closure_at(k)
            assert U.pairs <= X.closure_at(k + 1).pairs
            assert all((y, x) in U for x, y in U.pairs)
            assert all((p, p) in U for p in X.points)


# ---------------------------------------------------------------- entourages

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_entourage_is_its_pair_set(data):
    n = data.draw(st.integers(1, 6))
    # integer points and tuple points, as windows and products have
    pts = data.draw(st.sampled_from([list(range(n)), [(i, -i) for i in range(n)]]))
    ground = GroundSet(pts)
    pair_sets = st.sets(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=2 * n)
    P, Q = data.draw(pair_sets), data.draw(pair_sets)
    U, V = Entourage(ground, P), Entourage(ground, Q)
    assert U.pairs == frozenset(P) and len(U) == len(P)
    assert all(((x, y) in U) == ((x, y) in P) for x in pts for y in pts)
    assert (U == V) == (P == Q) and hash(U) == hash(frozenset(P))


def test_entourage_refuses_pairs_off_the_ground():
    ground = GroundSet([(0, 0), (0, 1)])
    with pytest.raises(UnknownPoint, match="leaves the ground set"):
        Entourage(ground, [((0, 0), (0, 1)), ((0, 1), (1, 1))])


# ---------------------------------------------------------------- boundedness

def test_is_U_bounded():
    X = path_space(3)
    assert is_U_bounded(X, 0, {2})
    assert not is_U_bounded(X, 1, {0, 2})
    assert is_U_bounded(X, 2, {0, 2})
    assert is_U_bounded(X, 0, set())


def test_is_U_bounded_matches_pairwise_oracle():
    rng = random.Random(31)
    for _ in range(20):
        X = random_explicit_space(rng, max_points=15, max_pairs=30)
        pts = X.points
        edges = [pair for g in X.coarse.generators for pair in g.pairs]
        for k in range(X.coarse.stabilization() + 2):
            rel = bfs_distance_pairs(pts, edges, k)
            for _ in range(6):
                B = set(rng.sample(pts, rng.randint(0, len(pts))))
                assert is_U_bounded(X, k, B) == all((x, y) in rel for x in B for y in B)
    # windows and explicit spaces asked on a fresh structure, where the table answers
    # through the stabilization scale s, and after stabilization(), where the components
    # answer from s on; components and the whole space are among the subsets
    spaces = [random_explicit_space(rng, max_points=14, max_pairs=30) for _ in range(20)]
    spaces += [windowed_builtin("int_window", 5), windowed_builtin("grid2_window", 2),
               coproduct([path_space(3), windowed_builtin("half_line", 4)])]
    for X in spaces:
        pts = X.points
        edges = [pair for g in X.coarse.generators for pair in g.pairs]
        dist, s = oracles.hop_distances(pts, edges), oracles.largest_eccentricity(pts, edges)
        subsets = [set(rng.sample(pts, rng.randint(0, len(pts)))) for _ in range(6)]
        subsets += [set(c) for c in union_find_components(pts, edges)] + [set(pts)]
        for stabilized_first in (False, True):
            Y = subspace(X, pts)
            if stabilized_first:
                assert Y.coarse.stabilization() == s
            for k in range(s + 3):
                for B in subsets:
                    assert is_U_bounded(Y, k, B) == all(dist[x].get(y, k + 1) <= k for x in B for y in B)
                with pytest.raises(UnknownPoint) as e:
                    is_U_bounded(Y, k, subsets[0] | {-1, "zz", 999})
                assert str(e.value) == "point 'zz' is not in the ground set"
    # one member far from the rest: bounded without it, unbounded with it
    X = path_space(6)
    assert is_U_bounded(X, 2, {0, 1, 2})
    assert not is_U_bounded(X, 2, {0, 1, 2, 6})
    assert not is_U_bounded(X, 5, {0, 6}) and is_U_bounded(X, 6, {0, 6})
    with pytest.raises(UnknownPoint):
        is_U_bounded(X, 1, {0, 99})


def test_compatibility_invariant_on_random_spaces():
    rng = random.Random(11)
    for _ in range(10):
        X = random_explicit_space(rng, max_points=12, max_pairs=25)
        s = X.coarse.stabilization()
        for k in range(s + 1):
            for B in X.bornology.generators:
                assert X.bornology.bounded(thicken(X, k, B))


# ---------------------------------------------------------------- components

def test_components_metric_clusters():
    pts = [0, 1, 2, 10, 11]
    dist = [[abs(a - b) for b in pts] for a in pts]
    X = from_metric(pts, dist, [2])
    assert coarse_components(X) == [[0, 1, 2], [10, 11]]


def test_components_trivial_cases():
    X = make_explicit_space([0, 1, 2], [], [[0, 1, 2]])
    assert coarse_components(X) == [[0], [1], [2]]
    full = [(a, b) for a in range(3) for b in range(3)]
    Y = make_explicit_space([0, 1, 2], [full], [[0, 1, 2]])
    assert coarse_components(Y) == [[0, 1, 2]]


def test_components_match_union_find_oracle():
    rng = random.Random(23)
    for _ in range(25):
        X = random_explicit_space(rng, max_points=30, max_pairs=60)
        edges = [p for g in X.coarse.generators for p in g.pairs]
        expect = union_find_components(X.points, edges)
        comps = coarse_components(X)
        assert {frozenset(c) for c in comps} == expect
        # canonical order: each class in point order, classes by least member
        assert all(c == X.ground.sorted(c) for c in comps)
        assert [c[0] for c in comps] == X.ground.sorted(c[0] for c in comps)
        assert X.coarse._components()[0] == [
            next(n for n, c in enumerate(comps) if x in c) for x in X.points]
        assert X.coarse._depth == 0


# ---------------------------------------------------------------- constructions

def test_product_with_point_is_unit():
    P = make_explicit_space(["*"], [], [["*"]])
    X = path_space(4)
    prod = product_p(P, X)
    assert len(prod) == len(X)
    comps = coarse_components(prod)
    assert len(comps) == 1
    # scale-k closures agree with X's through the relabeling
    for k in (0, 1, 2):
        relabeled = {((("*",) + (a,))[1], (("*",) + (b,))[1]) for (_, a), (_, b) in prod.closure_at(k).pairs}
        assert relabeled == {(a, b) for a, b in X.closure_at(k).pairs}


def test_product_closure_is_product_of_closures():
    X = path_space(3)
    Y = path_space(2)
    prod = product_p(X, Y)
    for k in (0, 1, 2):
        expected = {
            ((a, c), (b, d))
            for a, b in X.closure_at(k).pairs
            for c, d in Y.closure_at(k).pairs
        }
        assert prod.closure_at(k).pairs == expected


def test_coproduct_of_points():
    P = make_explicit_space(["*"], [], [["*"]])
    U = coproduct([P] * 4)
    assert len(U) == 4
    assert len(coarse_components(U)) == 4
    assert U.bornology.bounded(U.points)


def eager_window_balls(name, r):
    """The graded balls around the origin as windowed_builtin once stored them, one frozenset each."""
    if name == "half_line":
        return tuple(frozenset(range(n + 1)) for n in range(r + 1))
    if name == "int_window":
        return tuple(frozenset(range(-n, n + 1)) for n in range(r + 1))
    pts = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)]
    return tuple(frozenset(p for p in pts if abs(p[0]) + abs(p[1]) <= n) for n in range(2 * r + 1))


@pytest.mark.parametrize("name", ["half_line", "int_window", "grid2_window"])
def test_window_generators_read_back_the_eager_balls(name):
    for r in range(1, 13):
        assert windowed_builtin(name, r).bornology.generators == eager_window_balls(name, r), r


def test_window_reads_answer_without_building_generators(monkeypatch):
    made = []
    balls = Bornology._balls
    monkeypatch.setattr(Bornology, "_balls", lambda self: made.append(self) or balls(self))
    for name, r, diameter in (("half_line", 40, 40), ("int_window", 30, 60), ("grid2_window", 6, 24)):
        X = windowed_builtin(name, r)
        assert X.coarse.stabilization() == diameter
        assert X.bornology.covers() and X.bornology.bounded(X.points)
        assert not X.bornology.bounded([X.points[0], "outside"])
        assert X == X and not X != X
    assert made == []
    # the probe sees a read: == between two distinct windows compares their generators
    assert windowed_builtin("int_window", 3) == windowed_builtin("int_window", 3)
    assert len(made) == 2


def test_coproduct_of_a_torsion_fixture_with_a_window():
    M, W = moore_space(3), windowed_builtin("int_window", 6)
    C = coproduct([M, W])
    hm, hw = homology_at_scale(M, 1, 2), homology_at_scale(W, 1, 2)
    assert hm == [FGAbGroup(1), FGAbGroup(0, (3,)), FGAbGroup(0)]
    assert hw == [FGAbGroup(1), FGAbGroup(0), FGAbGroup(0)]
    assert homology_at_scale(C, 1, 2) == [FGAbGroup(a.free_rank + b.free_rank, a.torsion + b.torsion)
                                          for a, b in zip(hm, hw)]
    tagged = [frozenset((0, p) for p in B) for B in M.bornology.generators]
    tagged += [frozenset((1, p) for p in B) for B in eager_window_balls("int_window", 6)]
    assert C.bornology.generators == tuple(tagged)
    assert coarse_components(C) == [[(0, p) for p in M.points], [(1, p) for p in W.points]]


def test_subspace():
    X = path_space(4)
    A = {0, 1, 4}
    S = subspace(X, A)
    assert S.points == (0, 1, 4)
    assert {frozenset(c) for c in coarse_components(S)} == {frozenset({0, 1}), frozenset({4})}
    full = subspace(X, X.points)
    assert full == X
    empty = subspace(X, set())
    assert len(empty) == 0
    assert coarse_components(empty) == []


def test_subspace_keeps_the_first_of_equal_bornology_generators():
    X = windowed_builtin("int_window", 5)  # generators [-i, i] for i = 0..5
    S = subspace(X, [2, 0, 1])
    assert S.bornology.generators == (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}))
    assert subspace(X, [5]).bornology.generators == (frozenset({5}),)  # empty meets are dropped


# ---------------------------------------------------------------- big families

def test_big_family_generated_path():
    X = path_space(4)
    fam = big_family_generated(X, {0}, 2)
    assert fam.members == (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}))
    assert least_member(X, fam, 0, 1) == 1
    assert least_member(X, fam, 1, 1) == 2
    assert least_member(X, fam, 2, 1) is None  # thickening leaves the prefix


def test_big_family_empty_and_zero_depth():
    X = path_space(3)
    fam = big_family_generated(X, set(), 2)
    assert all(m == frozenset() for m in fam.members)
    fam0 = big_family_generated(X, {1}, 0)
    assert fam0.members == (frozenset({1}),)
    with pytest.raises(CoarseError, match="depth must be >= 0"):
        big_family_generated(X, {1}, -1)


def least_member(X, family, i, k):
    """The member mv_check takes as Y_m for Z = X minus Y_i at scale k, or None where it
    refuses PrefixTooShort; Y_i completes Z to X, and so does each equal member before it."""
    Z = [p for p in X.points if p not in family.members[i]]
    try:
        rep = mv_check(X, Z, family, k, 0)
    except PrefixTooShort as e:
        assert family.members[e.member_index] == family.members[i] and e.scale == k
        return None
    assert family.members[rep.complement_index] == family.members[i]
    return rep.prefix_index


def big_family_mismatch(X, A, depth):
    """big_family_generated and mv_check's member search against the brute-force oracle:
    None when they agree on the members and, for every i, k <= depth, on the least member
    holding closure_at(k)[Y_i] or on there being none."""
    edges = [pair for E in X.coarse.generators for pair in E.pairs]
    fam = big_family_generated(X, A, depth)
    members, least = oracles.big_family_reference(list(X.points), edges, frozenset(A), depth)
    got = {(i, k): least_member(X, fam, i, k) for i in range(depth + 1) for k in range(depth + 1)}
    want = {(i, k): least.get((i, k)) for i in range(depth + 1) for k in range(depth + 1)}
    return None if (fam.members, got) == (members, want) else (fam.members, got, members, want)


def test_mv_check_member_matches_the_least_member_oracle():
    # at depth 14 the thickenings of the column a = -3 cover grid2_window(3) from index 6,
    # so (0, 10) and (5, 12) both name the least member holding everything, 6
    G = windowed_builtin("grid2_window", 3)
    column = [p for p in G.points if p[0] == -3]
    fam = big_family_generated(G, column, 14)
    assert least_member(G, fam, 0, 10) == least_member(G, fam, 5, 12) == 6
    cases = [(G, column, 14), (path_space(4), set(), 3), (path_space(4), {2}, 0),
             (path_space(6), {0}, 3), (path_space(6), {0}, 6), (path_space(6), {0}, 9)]
    rng = random.Random(20)
    for _ in range(20):
        X = windowed_builtin(rng.choice(["half_line", "int_window", "grid2_window"]), rng.randint(1, 3))
        cases.append((X, rng.sample(X.points, rng.randint(0, 2)), rng.randint(0, 8)))
    for _ in range(20):
        X = random_explicit_space(rng, max_points=12, max_pairs=16)
        cases.append((X, rng.sample(X.points, rng.randint(0, min(3, len(X)))), rng.randint(0, 6)))
    for X, A, depth in cases:
        assert big_family_mismatch(X, A, depth) is None, (X.points, A, depth)


def test_windowed_metrics_are_exact_integer_distances():
    for name in ("half_line", "int_window", "grid2_window"):
        X = windowed_builtin(name, 3)
        for x in X.points:
            for y in X.points:
                d = X.metric(x, y)
                want = abs(x[0] - y[0]) + abs(x[1] - y[1]) if name == "grid2_window" else abs(x - y)
                assert type(d) is Fraction and d == want, (name, x, y, d)


def test_make_big_family_validates_nesting():
    X = path_space(3)
    with pytest.raises(CoarseError):
        make_big_family(X, [{0, 1}, {0}])
    fam = make_big_family(X, [{0}, {0, 1, 2}])
    assert fam.members == (frozenset({0}), frozenset({0, 1, 2}))
    assert least_member(X, fam, 0, 1) == 1


# ---------------------------------------------------------------- determinism

def test_component_output_is_deterministic():
    rng = random.Random(99)
    X = random_explicit_space(rng, max_points=20, max_pairs=40)
    first = coarse_components(X)
    second = coarse_components(X)
    assert first == second
