"""Covers and nets, nerve and measure complexes, anti-Cech prefixes,
coarsified homology, telescopes, asymptotic-dimension search, hybrid
relations, and uniform decompositions.

Cross-checks: brute-force intersection nerves, union-find components, the
sympy simplicial oracle, and a definitional-scan oracle for hybrid relations.
"""

import builtins
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coarsehom import (
    BadScales,
    CoarseError,
    InvalidMetric,
    UnknownPoint,
    from_metric,
    make_big_family,
    make_explicit_space,
    windowed_builtin,
)
from coarsehom import chain_maps, covers, homology_engine
from coarsehom.coarsification import coarsening_space, coarsify_homology, nerve
from coarsehom.core_spaces import BigFamilyPrefix, ClosureView
from coarsehom.covers import (
    AntiCechPrefix,
    CertificateFailed,
    Cover,
    CoverError,
    NotACover,
    NotADecomposition,
    PhiNotDecreasing,
    anti_cech,
    asdim_upper_bound,
    check_cover,
    cover_from_net,
    greedy_net,
    hybrid_entourage,
    uniform_decomposition_check,
)
from coarsehom.homology_engine import DegreeCapExceeded, FGAbGroup, SimplicialComplex, rips_complex
from genspaces import RATIONAL_GRID, random_explicit_space, random_metric_document, spell_rational

Z = FGAbGroup(1)
ZERO = FGAbGroup(0)


def path_space(n):
    pts = list(range(n + 1))
    return make_explicit_space(pts, [[(i, i + 1) for i in range(n)]], [pts])


def cycle_space(n):
    pts = list(range(n))
    return make_explicit_space(pts, [[(i, (i + 1) % n) for i in range(n)]], [pts])


POINT = make_explicit_space(["*"], [], [["*"]])
HEX = cycle_space(6)


def related_to(X, k):
    rel = {p: {p} for p in X.points}
    for a, b in X.closure_at(k).pairs:
        rel[a].add(b)
    return rel


# ------------------------------------------------------------- greedy_net

def test_net_on_path():
    assert greedy_net(path_space(10), 1) == [0, 2, 4, 6, 8, 10]


def test_net_trivial_scales():
    X = path_space(5)
    assert greedy_net(X, 0) == list(X.points)
    K = make_explicit_space([0, 1, 2], [[(0, 1), (1, 2), (0, 2)]], [[0, 1, 2]])
    assert greedy_net(K, 1) == [0]


def test_net_separated_and_covering_random():
    rng = random.Random(13)
    for _ in range(8):
        X = random_explicit_space(rng, max_points=20, max_pairs=40)
        k = rng.randint(1, 3)
        rel = related_to(X, k)
        net = greedy_net(X, k)
        for a, b in combinations(net, 2):
            assert b not in rel[a]
        covered = set()
        for d in net:
            covered |= rel[d]
        assert covered == set(X.points)


def test_net_separation_refusal_names_the_first_related_pair(monkeypatch):
    # a planted net that is not separated: (3, 4) is the first related pair, (4, 5) the second
    monkeypatch.setattr(covers, "_net_over_order", lambda order, sets: [0, 3, 4, 5])
    with pytest.raises(CoverError) as e:
        greedy_net(path_space(6), 1)
    assert str(e.value) == "net separation violated by 3, 4"


def test_covers_never_sort_neighbour_lists(monkeypatch):
    # covers read a closure's row sets as sets, so none of them is ever sorted
    row_sets, real_sorted, handed = ClosureView.row_sets, builtins.sorted, []

    def recording(view):
        handed.extend(sets := row_sets(view))
        return sets

    def refusing(values, *args, **kwargs):
        if any(values is s for s in handed):
            pytest.fail("a row set was sorted")
        return real_sorted(values, *args, **kwargs)

    monkeypatch.setattr(ClosureView, "row_sets", recording)
    monkeypatch.setattr(builtins, "sorted", refusing)
    X = windowed_builtin("int_window", 30)
    assert greedy_net(X, 2) == list(range(-30, 31, 3))
    cover_from_net(X, 2)
    anti_cech(X, [1, 2, 4])
    asdim_upper_bound(X, [1, 2])
    assert handed


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_covered_set_net_matches_the_scan(data):
    n = data.draw(st.integers(1, 14))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    X = make_explicit_space(list(range(n)), [edges], [list(range(n))])
    pts, sets = X.points, X.closure_at(data.draw(st.integers(0, 4))).row_sets()
    r = data.draw(st.integers(0, n - 1))
    order = list(range(r, n)) + list(range(r))
    got = [pts[i] for i in covers._net_over_order(order, sets)]
    assert got == oracles.net_over_order_scan([pts[i] for i in order], pts, sets)


# --------------------------------------------------------- cover_from_net

def test_point_cover():
    cov = cover_from_net(POINT, 1)
    assert cov.members == (frozenset({"*"}),)
    assert cov.lebesgue_scale == 0


def test_path_ball_cover_certificates():
    cov = cover_from_net(path_space(10), 1)
    assert len(cov.members) == 6
    assert all(len(m) <= 3 for m in cov.members)
    assert cov.bound_scale == 2
    assert cov.lebesgue_scale == 1


def test_cover_members_are_balls_in_net_order():
    X = path_space(8)
    rel = related_to(X, 2)
    net = greedy_net(X, 2)
    cov = cover_from_net(X, 2)
    assert cov.members == tuple(frozenset(rel[d]) for d in net)


def test_cover_never_mixes_far_components():
    pts = list(range(5)) + list(range(100, 105))
    edges = [(i, i + 1) for i in range(4)] + [(i, i + 1) for i in range(100, 104)]
    X = make_explicit_space(pts, [edges], [pts])
    comp = {}
    for cid, c in enumerate(oracles.union_find_components(pts, edges)):
        for p in c:
            comp[p] = cid
    for m in cover_from_net(X, 1).members:
        assert len({comp[p] for p in m}) == 1


# ------------------------------------------------------ uncovered cliques

@st.composite
def graphs_with_members(draw):
    n = draw(st.integers(1, 10))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.one_of(st.just(pairs), st.lists(st.sampled_from(pairs), unique=True)
                           if pairs else st.just([])))
    members = draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=6))
    return n, edges, members


COMPLETE_5 = list(combinations(range(5), 2))


@settings(max_examples=200, deadline=None)
@given(graphs_with_members())
@example((0, [], []))  # no vertices: nothing to hold
@example((4, [], [frozenset({0, 1}), frozenset({2, 3})]))  # isolated vertices only, all held
@example((5, COMPLETE_5, [frozenset(range(5))]))  # complete graph, held whole
@example((5, COMPLETE_5, [frozenset(range(4)), frozenset(range(1, 5))]))  # complete graph, no member holds it
@example((4, [(0, 1), (1, 2)], [frozenset({0, 1}), frozenset({1, 2})]))  # vertex 3 in no member
# 3 is a later neighbour of 1 but not of 0: (0, 1) has no candidates, and (0, 1, 3) is no clique
@example((4, [(0, 1), (0, 2), (1, 3)], [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 3})]))
def test_uncovered_clique_matches_maximal_cliques(case):
    n, edges, members = case
    later = [set() for _ in range(n)]
    for a, b in edges:
        later[a].add(b)
    got = covers._uncovered_clique(later, [[m for m in members if v in m] for v in range(n)])
    held = all(any(c <= m for m in members) for c in oracles.maximal_cliques(range(n), edges))
    assert (got is None) == held
    if got is not None:
        assert len(got) > 0 and all(b in later[a] for a, b in combinations(got, 2))
        assert not any(set(got) <= m for m in members)


def test_lebesgue_matches_the_bounded_set_scan():
    # a scale is a Lebesgue scale of a family exactly when every scale-k clique lies in a member;
    # the family is the maximal cliques with a point dropped from a few, so both routes and both
    # answers occur
    rng = random.Random(29)
    for _ in range(40):
        X = random_explicit_space(rng, max_points=10, max_pairs=14)
        pts = list(X.points)
        k = rng.randint(1, 2)
        edges = [(a, b) for a, b in X.closure_at(k).pairs if a != b]
        family = [set(c) for c in sorted(map(sorted, oracles.maximal_cliques(pts, edges)))]
        for m in family:
            if len(m) > 1 and rng.random() < 0.15:
                m.discard(rng.choice(sorted(m)))
        family += [{p} for p in pts if not any(p in m for m in family)]
        cov = check_cover(X, family, 0, k)
        want = all(any(c <= m for m in family) for c in oracles.clique_complex(pts, edges, len(pts)))
        assert (cov.lebesgue_scale == k) == want


def test_exact_route_certifies_what_balls_cannot():
    # inner scale-1 balls of the path 0-1-2-3-4 have three points, each edge member two
    cov = check_cover(path_space(4), [[0, 1], [1, 2], [2, 3], [3, 4]], 1, 1)
    assert cov.lebesgue_scale == 1
    assert cov.notes == ("lebesgue verified via maximal bounded-set enumeration",)
    cov = check_cover(path_space(4), [[0, 1], [1, 2], [2, 3], [3, 4]], 1, 2)
    assert cov.lebesgue_scale is None
    assert cov.notes[-1] == "some scale-2 bounded set fits in no member"


# ------------------------------------------------------------ check_cover

def test_singleton_cover_certificates():
    X = path_space(10)
    cov = check_cover(X, [[x] for x in X.points], 0, 0)
    assert cov.bound_scale == 0 and cov.lebesgue_scale == 0


def test_check_cover_refusals():
    X = path_space(4)
    with pytest.raises(NotACover):
        check_cover(X, [[0, 1, 2]], 1, 0)
    with pytest.raises(NotACover):
        check_cover(X, [list(X.points), []], 1, 0)
    # a Cover's members go through check_subset, as a list's members do
    whole = frozenset(X.points) | {99}
    for cover in (Cover((whole,), None, None), [sorted(whole)]):
        with pytest.raises(UnknownPoint, match="point 99 is not in the ground set"):
            check_cover(X, cover, 1, 0)


def test_check_cover_reverifies_ball_cover():
    X = path_space(10)
    cov = check_cover(X, cover_from_net(X, 1), 2, 1)
    assert cov.bound_scale == 2 and cov.lebesgue_scale == 1


def test_failed_certificates_become_none_with_notes():
    X = path_space(10)
    cov = check_cover(X, [list(X.points)], 1, 0)
    assert cov.bound_scale is None
    assert cov.lebesgue_scale == 0
    assert any("not bounded" in n for n in cov.notes)


# -------------------------------------------------------------- anti_cech

def test_anti_cech_path_prefix():
    pre = anti_cech(path_space(20), [1, 3])
    assert pre.scales == (1, 3)
    assert pre.certificates == (2,)
    assert len(pre.covers) == 2 and len(pre.refinements) == 1
    for j, m in enumerate(pre.covers[0].members):
        assert m <= pre.covers[1].members[pre.refinements[0][j]]


def test_anti_cech_refuses_non_increasing_scales():
    X = path_space(20)
    with pytest.raises(CertificateFailed) as e:
        anti_cech(X, [3, 1])
    assert e.value.pair_index == 0
    with pytest.raises(CertificateFailed):
        anti_cech(X, [2, 2])


@pytest.mark.parametrize("scales, text", [
    ([1, "a"], "scale-index must be an int, got 'a'"),
    ([2, 1.5], "scale-index must be an int, got 1.5"),
    ([2, -1], "scale-index must be >= 0, got -1"),
])
def test_anti_cech_checks_each_scale_before_their_order(scales, text):
    # a string or a float is refused as a scale, not compared; a decreasing list that
    # holds a negative scale is refused for the negative scale
    with pytest.raises(BadScales) as e:
        anti_cech(windowed_builtin("int_window", 5), scales)
    assert str(e.value) == text


def test_anti_cech_refuses_a_ball_cover_with_no_lebesgue_scale():
    # on grid2_window(4) the scale-1 balls are bounded at scale 2, but scale 2 is not a
    # Lebesgue scale of the scale-2 ball cover
    with pytest.raises(CertificateFailed) as e:
        anti_cech(windowed_builtin("grid2_window", 4), [1, 2, 4])
    assert e.value.pair_index == 0
    assert str(e.value) == ("anti-Cech certificate failed at pair 0: scale 2 is not a "
                            "Lebesgue scale of the cover at scale 2")


def test_anti_cech_needs_a_scale():
    with pytest.raises(CoverError, match="at least one scale is required"):
        anti_cech(path_space(4), [])


def test_anti_cech_single_scale():
    pre = anti_cech(path_space(6), [2])
    assert pre.certificates == () and pre.refinements == ()


def test_anti_cech_longer_chain_containments():
    pre = anti_cech(windowed_builtin("half_line", 30), [1, 2, 4])
    assert pre.certificates == (2, 4)
    for i, kappa in enumerate(pre.refinements):
        for j, m in enumerate(pre.covers[i].members):
            assert m <= pre.covers[i + 1].members[kappa[j]]


def test_anti_cech_refinement_is_the_least_containing_member():
    # kappa scans only the members holding one point of m: the full scan must agree
    for X, scales in [(windowed_builtin("int_window", 100), [1, 2, 4, 8, 16]),
                      (windowed_builtin("half_line", 30), [1, 2, 4]), (path_space(20), [1, 3])]:
        pre = anti_cech(X, scales)
        for i, kappa in enumerate(pre.refinements):
            bigs = pre.covers[i + 1].members
            assert list(kappa) == [min(t for t, big in enumerate(bigs) if m <= big)
                                   for m in pre.covers[i].members]


# ------------------------------------------------------------------ nerve

def test_nerve_of_disjoint_cover_is_discrete():
    X = make_explicit_space([0, 1, 2, 3], [[(0, 1), (2, 3)]], [[0, 1, 2, 3]])
    nv = nerve(Cover((frozenset({0, 1}), frozenset({2, 3}))), 2)
    assert nv.simplices[0] == [(0,), (1,)]
    assert nv.simplices[1] == []


def test_nerve_of_two_overlapping_members():
    nv = nerve(Cover((frozenset({0, 1}), frozenset({1, 2}))), 1)
    assert nv.simplices[1] == [(0, 1)]


def test_hexagon_nerve_is_a_circle():
    nv = nerve(cover_from_net(HEX, 1), 2)
    assert [len(s) for s in nv.simplices] == [3, 3, 0]
    assert nv.betti(1) == [1, 1]


def test_nerve_matches_brute_force_and_is_closed():
    rng = random.Random(19)
    for _ in range(6):
        X = random_explicit_space(rng, max_points=14, max_pairs=25)
        cov = cover_from_net(X, 1)
        nv = nerve(cov, 3)
        want = set()
        for size in range(1, 5):
            for combo in combinations(range(len(cov.members)), size):
                inter = set(cov.members[combo[0]])
                for i in combo[1:]:
                    inter &= cov.members[i]
                if inter:
                    want.add(combo)
        got = {s for dim_list in nv.simplices for s in dim_list}
        assert got == want
        for s in got:
            for a in range(len(s)):
                assert len(s) == 1 or s[:a] + s[a + 1:] in got


def test_nerve_cap():
    members = tuple(frozenset({0}) for _ in range(12))
    with pytest.raises(DegreeCapExceeded) as e:
        nerve(Cover(members), 5, basis_cap=50)
    assert str(e.value) == ("basis in degree 5 exceeds the cap of 50 nerve simplices; "
                            "raise basis_cap to proceed")


def test_planted_boundary_sign_fault_is_refused(monkeypatch):
    # five members around the hexagon, consecutive triples sharing a point: the nerve has 2-simplices
    around = Cover(tuple(frozenset((i + j) % 6 for j in range(3)) for i in range(5)))
    half_line = anti_cech(windowed_builtin("half_line", 12), [1, 2, 4])
    rips, nv = rips_complex(HEX, 2, 2), nerve(around, 2)
    tele, _ = coarsening_space(half_line, 1)
    for K in (rips, nv, tele):
        assert K.simplices[2] and K.homology(1)
    build = homology_engine._boundary_from_lists

    def flips_one_sign(basis_n, index_prev, n):
        # the first edge lies on a triangle in each complex, so d_1 d_2 = 0 fails
        d = build(basis_n, index_prev, n)
        if n == 1:
            d.rows[0][0] = -d.rows[0][0]
        return d

    monkeypatch.setattr(homology_engine, "_boundary_from_lists", flips_one_sign)
    for answer in (lambda: rips.homology(1), lambda: nv.homology(1), lambda: coarsening_space(half_line, 1)):
        with pytest.raises(homology_engine.HomologyError, match="complex identity"):
            answer()


def test_uncapped_nerve_and_telescope_match_the_default_cap():
    X = windowed_builtin("half_line", 6)
    cover = cover_from_net(X, 1)
    capped, uncapped = nerve(cover, 2), nerve(cover, 2, None)
    assert uncapped.simplices == capped.simplices
    assert uncapped.homology(1) == capped.homology(1)
    pre = anti_cech(X, [1, 2])
    tele, groups = coarsening_space(pre, 1)
    tele_none, groups_none = coarsening_space(pre, 1, None)
    assert tele_none.simplices == tele.simplices and groups_none == groups


def test_coarsify_homology_cap_counts_simplices():
    pts = list(range(8))
    X = make_explicit_space(pts, [[(a, b) for a in pts for b in pts if a < b]], [pts])
    with pytest.raises(DegreeCapExceeded) as e:
        coarsify_homology(X, [1], 1, basis_cap=20)
    assert str(e.value) == ("basis in degree 1 at scale 1 exceeds the cap of 20 simplices; "
                            "raise basis_cap to proceed")


# --------------------------------------------------------- measure_complex

def measure_complex(X, k, d_max):
    """The oracle's measure complex of the scale-k closure, wrapped for its homology."""
    return SimplicialComplex(list(X.points),
                             oracles.measure_complex(X.points, X.closure_at(k).pairs, d_max))


def test_measure_complex_point():
    mc = measure_complex(POINT, 1, 2)
    assert mc.simplices == [[(0,)], [], []]
    assert mc.betti(2) == [1, 0, 0]


def test_measure_complex_full_relation():
    X = make_explicit_space([0, 1, 2, 3], [[(a, b) for a in range(4) for b in range(4) if a < b]], [[0, 1, 2, 3]])
    mc = measure_complex(X, 1, 3)
    assert [len(s) for s in mc.simplices] == [4, 6, 4, 1]
    assert mc.betti(2) == [1, 0, 0]


def test_measure_complex_equals_clique_backend():
    rng = random.Random(31)
    spaces = [HEX] + [random_explicit_space(rng, max_points=12, max_pairs=24) for _ in range(5)]
    for X in spaces:
        for k in (1, 2):
            mc = measure_complex(X, k, 3)
            rc = rips_complex(X, k, 3)
            assert [sorted(a) for a in mc.simplices] == [sorted(b) for b in rc.simplices]
            assert mc.homology(2) == rc.homology(2)


# -------------------------------------------------------- coarsify_homology

def test_coarsified_point():
    rep = coarsify_homology(POINT, [1, 2], 2)
    for groups in rep.table.values():
        assert groups == [Z, ZERO, ZERO]
    assert rep.terminal == [Z, ZERO, ZERO]
    assert any("unreduced homology" in n for n in rep.notes)


def test_coarsified_hexagon_collapse():
    rep = coarsify_homology(HEX, [1], 1)
    assert rep.table[1] == [Z, Z]
    assert rep.terminal == [Z, ZERO]
    assert rep.stable_scale == 3


def test_coarsified_terminal_counts_components():
    rng = random.Random(37)
    for _ in range(5):
        X = random_explicit_space(rng, max_points=14, max_pairs=20)
        stab = max(X.coarse.stabilization(), 1)
        pairs = [(a, b) for a, b in X.closure_at(stab).pairs if a != b]
        want = len(oracles.union_find_components(X.points, pairs))
        rep = coarsify_homology(X, [], 1)
        assert rep.terminal[0] == FGAbGroup(want)
        assert rep.terminal[1].trivial


@pytest.mark.parametrize("name, radius", [
    ("grid2_window", 3), ("grid2_window", 5), ("grid2_window", 8),
    ("int_window", 30), ("int_window", 100), ("int_window", 200),
])
def test_coarsified_terminal_enumerates_nothing(name, radius, monkeypatch):
    # the stabilized clique complex is a full simplex: grid2_window(3) alone
    # has C(49, 4) tetrahedra, past the default cap
    X = windowed_builtin(name, radius)

    def refuse(*args, **kwargs):
        raise AssertionError("the terminal value enumerated a complex")

    monkeypatch.setattr(homology_engine, "_clique_chains", refuse)
    monkeypatch.setattr(chain_maps, "_iter_controlled", refuse)
    rep = coarsify_homology(X, [], 2)
    assert rep.terminal == [Z, ZERO, ZERO]


def test_coarsified_windowed_note():
    rep = coarsify_homology(windowed_builtin("half_line", 6), [1], 0)
    assert any(n.startswith("window-relative") for n in rep.notes)


# --------------------------------------------------------- coarsening_space

def test_length_one_telescope_is_the_nerve():
    pre = anti_cech(HEX, [1])
    tele, groups = coarsening_space(pre, 1)
    assert groups == nerve(pre.covers[0], 2).homology(1)


def test_identity_refinement_telescope_keeps_the_nerve():
    c = cover_from_net(HEX, 1)
    pre = AntiCechPrefix((1, 1), (c, c), (2,), (tuple(range(len(c.members))),))
    tele, groups = coarsening_space(pre, 1)
    assert groups == [Z, Z]


def test_hexagon_telescope_fills_the_circle():
    tele, groups = coarsening_space(anti_cech(HEX, [1, 3]), 1)
    assert groups == [Z, ZERO]


def test_half_line_telescope_contractible():
    tele, groups = coarsening_space(anti_cech(windowed_builtin("half_line", 30), [1, 2, 4]), 1)
    assert groups == [Z, ZERO]


def test_telescope_slices_are_subcomplexes():
    pre = anti_cech(path_space(12), [1, 2])
    tele, _ = coarsening_space(pre, 1)
    vindex = {v: a for a, v in enumerate(tele.vertices)}
    have = {s for dim_list in tele.simplices for s in dim_list}
    for i, cov in enumerate(pre.covers):
        nv = nerve(cov, 2)
        for dim_list in nv.simplices:
            for s in dim_list:
                assert tuple(vindex[(i, j)] for j in s) in have
    for s in have:
        for a in range(len(s)):
            assert len(s) == 1 or s[:a] + s[a + 1:] in have


# ------------------------------------------------------------------- asdim

def test_asdim_integer_window():
    rep = asdim_upper_bound(windowed_builtin("int_window", 100), [2, 4, 8])
    assert rep.per_scale == {2: 1, 4: 1, 8: 1}
    assert rep.upper_bound == 1


def test_asdim_point():
    rep = asdim_upper_bound(POINT, [1, 2])
    assert rep.upper_bound == 0


def test_asdim_refuses_an_empty_scale_list():
    for scales in ([], iter([])):
        with pytest.raises(CoverError) as e:
            asdim_upper_bound(HEX, scales)
        assert str(e.value) == "at least one scale is required"


@pytest.mark.parametrize("budget", [0, -3])
def test_asdim_refuses_a_budget_below_one(budget):
    with pytest.raises(CoverError) as e:
        asdim_upper_bound(HEX, [1], search_budget=budget)
    assert str(e.value) == f"search_budget must be >= 1, got {budget}"


def test_asdim_grid_reports_search_result():
    rep = asdim_upper_bound(windowed_builtin("grid2_window", 4), [1, 2])
    assert rep.upper_bound == max(rep.per_scale.values())
    assert all(v >= 1 for v in rep.per_scale.values())
    assert any("not a certificate" in n for n in rep.notes)


# ------------------------------------------------------------------ hybrid

def test_hybrid_whole_space_member_gives_closure():
    X = windowed_builtin("half_line", 50)
    fam = make_big_family(X, [list(X.points)])
    U = hybrid_entourage(X, fam, [3], 2)
    assert set(U.pairs) == set(X.closure_at(2).pairs)


def test_hybrid_empty_member_zero_phi_gives_diagonal():
    X = windowed_builtin("half_line", 30)
    fam = make_big_family(X, [[]])
    U = hybrid_entourage(X, fam, [0], 2)
    assert set(U.pairs) == {(p, p) for p in X.points}


def test_hybrid_matches_definitional_scan():
    X = windowed_builtin("half_line", 50)
    fam = make_big_family(X, [range(0, 10 * i + 1) for i in range(6)])
    phi = [5, 4, 3, 2, 1, 0]
    U = hybrid_entourage(X, fam, phi, 3)
    expect = {
        (a, b)
        for a in X.points
        for b in X.points
        if abs(a - b) <= 3
        and all((a <= 10 * i and b <= 10 * i) or abs(a - b) <= phi[i] for i in range(6))
    }
    assert set(U.pairs) == expect
    assert (45, 46) in expect and (35, 37) in expect
    assert (45, 47) not in set(U.pairs)


def test_hybrid_monotone_and_contained():
    X = windowed_builtin("half_line", 40)
    fam = make_big_family(X, [range(0, 11), range(0, 21)])
    lo = hybrid_entourage(X, fam, [2, 1], 3)
    hi = hybrid_entourage(X, fam, [3, 2], 3)
    assert set(lo.pairs) <= set(hi.pairs)
    assert set(hi.pairs) <= set(X.closure_at(3).pairs)


def test_hybrid_on_index_rows_matches_the_definitional_scan():
    # seeded explicit spaces and windows, nested members (one with a point outside the
    # ground, which no pair reaches), phi and base scales through s + 2, so that table
    # rows and component rows both answer
    rng = random.Random(29)
    spaces = [random_explicit_space(rng, max_points=12, max_pairs=24) for _ in range(30)]
    spaces += [windowed_builtin("int_window", 5), windowed_builtin("grid2_window", 2)]
    for X in spaces:
        pts = X.points
        dist = oracles.hop_distances(pts, [pair for g in X.coarse.generators for pair in g.pairs])
        s = max((d for row in dist.values() for d in row.values()), default=0)
        near = {(a, b): dist[a].get(b, s + 3) for a in pts for b in pts}
        for _ in range(4):
            members, grown = [], set()
            for _ in range(rng.randint(1, 4)):
                grown |= set(rng.sample(pts, rng.randint(0, len(pts))))
                members.append(frozenset(grown))
            members[0] |= {"outside"}
            phi = sorted((rng.randint(0, s + 2) for _ in members), reverse=True)
            base = rng.randint(0, s + 2)
            U = hybrid_entourage(X, BigFamilyPrefix(tuple(members)), phi, base)
            assert U.pairs == {(a, b) for (a, b), d in near.items() if d <= base
                               and all((a in Y and b in Y) or d <= v for Y, v in zip(members, phi))}


def test_hybrid_refusals():
    X = windowed_builtin("half_line", 20)
    fam = make_big_family(X, [range(0, 5), range(0, 9)])
    with pytest.raises(PhiNotDecreasing):
        hybrid_entourage(X, fam, [1, 2], 2)
    with pytest.raises(CoarseError):
        hybrid_entourage(X, fam, [1], 2)


@pytest.mark.parametrize("value, text", [
    (1.9, "scale-index must be an int, got 1.9"),
    ("1", "scale-index must be an int, got '1'"),
    (True, "scale-index must be an int, got True"),
    ("a", "scale-index must be an int, got 'a'"),
    (-1, "scale-index must be >= 0, got -1"),
])
def test_hybrid_checks_each_phi_entry_as_a_scale(value, text):
    # int() read 1.9 as 1 and "1" as 1; each entry is now a scale index or a BadScales
    X = windowed_builtin("half_line", 20)
    fam = make_big_family(X, [range(0, 5), range(0, 9)])
    with pytest.raises(BadScales) as e:
        hybrid_entourage(X, fam, [3, value], 2)
    assert str(e.value) == text


# ----------------------------------------------------------------- udecomp

def test_udecomp_whole_space_part():
    X = windowed_builtin("half_line", 20)
    rep = uniform_decomposition_check(X, range(0, 11), X.points, [3, 2, 1])
    assert rep.ok
    assert all(s == r for r, s in rep.assignments)


def test_udecomp_split_path():
    X = windowed_builtin("half_line", 20)
    rep = uniform_decomposition_check(X, range(0, 11), range(10, 21), [3, 2, 1])
    assert rep.ok
    assert rep.assignments == ((Fraction(3), Fraction(3)), (Fraction(2), Fraction(2)), (Fraction(1), Fraction(1)))
    assert any("finite-prefix" in n for n in rep.notes)


def test_udecomp_thickens_each_set_once_per_radius(monkeypatch):
    # U_s[Y n Z] does not depend on r: three meets and three (Y, Z) pairs, none twice
    calls = []
    thicken = covers._metric_thicken
    monkeypatch.setattr(covers, "_metric_thicken",
                        lambda X, S, r: calls.append((frozenset(S), r)) or thicken(X, S, r))
    X = windowed_builtin("int_window", 30)
    rep = uniform_decomposition_check(X, range(-30, 1), range(0, 31), [3, 2, 1])
    assert rep.ok and rep.assignments == tuple((Fraction(r), Fraction(r)) for r in (3, 2, 1))
    assert len(calls) == len(set(calls)) == 9


def test_udecomp_empty_meet_fails():
    X = windowed_builtin("half_line", 20)
    rep = uniform_decomposition_check(X, range(0, 11), range(11, 21), [2, 1])
    assert not rep.ok
    assert all(s is None for _, s in rep.assignments)


def test_udecomp_refusals():
    X = windowed_builtin("half_line", 20)
    with pytest.raises(NotADecomposition):
        uniform_decomposition_check(X, range(0, 9), range(11, 21), [1])
    with pytest.raises(CoarseError):
        uniform_decomposition_check(X, range(0, 11), range(10, 21), [1, 2])
    Y = make_explicit_space([0, 1], [[(0, 1)]], [[0, 1]])
    with pytest.raises(CoarseError):
        uniform_decomposition_check(Y, [0], [1], [1])


def test_udecomp_refuses_float_radii():
    # exact rational input is the contract: 0.1 is no radius, 1/10 is
    X = windowed_builtin("half_line", 20)
    with pytest.raises(InvalidMetric):
        uniform_decomposition_check(X, range(0, 11), range(10, 21), [0.1])
    rep = uniform_decomposition_check(X, range(0, 11), range(10, 21), ["3/2", Fraction(1), "1/10"])
    assert rep.radii == (Fraction(3, 2), Fraction(1), Fraction(1, 10))


@pytest.mark.parametrize("bad", ["x", "1/0", True])
def test_udecomp_refuses_malformed_and_boolean_radii(bad):
    X = windowed_builtin("half_line", 20)
    with pytest.raises(InvalidMetric, match=f"cannot interpret {bad!r} as a rational number"):
        uniform_decomposition_check(X, range(0, 11), range(10, 21), [2, bad])


def _random_parts(rng, points):
    """Two parts covering points: a scatter (each point in Y, Z or both) or an overlapping split."""
    if rng.random() < 0.5:
        c = [rng.randrange(3) for _ in points]
        return [p for p, k in zip(points, c) if k != 1], [p for p, k in zip(points, c) if k != 0]
    b = rng.randrange(len(points))
    a = rng.randrange(b, len(points))
    return points[:a + 1], points[b:]


def test_udecomp_matches_the_fraction_oracle():
    # seeded differential sweep on windows (integer distances, so integral
    # radii land on them) and on rational metric spaces with denominators 1..6
    rng = random.Random(18)
    found = {True: 0, False: 0}
    for case in range(240):
        if case % 2:
            points, dist, scales = random_metric_document(rng)
            X = from_metric(points, dist, scales)
            lookup = oracles.metric_space_reference(points, dist, scales)[2]
            d = lambda x, y: lookup[(x, y)]
        else:
            name = rng.choice(["half_line", "int_window", "grid2_window"])
            X = windowed_builtin(name, rng.randint(1, 2 if name == "grid2_window" else 8))
            if name == "grid2_window":
                d = lambda x, y: Fraction(abs(x[0] - y[0]) + abs(x[1] - y[1]))
            else:
                d = lambda x, y: Fraction(abs(x - y))
        Y, Zp = _random_parts(rng, X.points)
        radii = sorted(rng.sample(RATIONAL_GRID, rng.randint(1, 4)), reverse=True)
        rep = uniform_decomposition_check(X, Y, Zp, [spell_rational(rng, r) for r in radii])
        want = oracles.uniform_assignments_reference(X.points, d, Y, Zp, radii)
        assert rep.radii == tuple(radii) and rep.assignments == want, (X, Y, Zp, radii)
        for _, s in want:
            found[s is not None] += 1
    assert min(found.values()) > 50
