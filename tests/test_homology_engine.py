"""Homology engine and chain maps: tuple bases, exact Smith forms, homology
groups and presentations, induced maps, prisms, the shift swindle, relative
and two-set comparison reports, and the clique-complex backend.

Expected values come from independent routes: sympy Smith forms on
oracle-built complexes, union-find component counts, minor-gcd invariant
factors, and hand-computed small cases frozen below.
"""

import gc
import hashlib
import json
import random
import time
import tracemalloc
import weakref
from functools import partial
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coarsehom import (
    anti_cech,
    big_family_generated,
    coarsening_space,
    coarsify_homology,
    coproduct,
    cover_from_net,
    make_big_family,
    make_explicit_space,
    nerve,
    subspace,
    windowed_builtin,
)
from coarsehom import chain_maps, homology_engine
from coarsehom.chain_maps import (
    NotClose,
    WindowTooSmall,
    boundary_matrix,
    chain_complex,
    controlled_tuples,
    homology_presentation,
    induced_map,
    prism,
    swindle_identity_check,
    verify_complex_identity,
)
from coarsehom.homology_engine import (
    DegreeCapExceeded,
    FGAbGroup,
    HomologyError,
    IntMatrix,
    NotComplementary,
    PrefixTooShort,
    homology_at_scale,
    homology_colimit,
    mv_check,
    relative_homology,
    rips_complex,
    smith_normal_form,
)
from coarsehom.core_spaces import BigFamilyPrefix, CoarseStructure
from coarsehom.morphisms import SpaceMap, are_close, constant_map, identity_map, translate_map
from genspaces import (
    klein_bottle, klein_bottle_triangles, moore_space, random_explicit_space, subdivision, suspension,
)

Z = FGAbGroup(1)
ZERO = FGAbGroup(0)


def path_space(n):
    pts = list(range(n + 1))
    return make_explicit_space(pts, [[(i, i + 1) for i in range(n)]], [pts])


def cycle_space(n):
    pts = list(range(n))
    return make_explicit_space(pts, [[(i, (i + 1) % n) for i in range(n)]], [pts])


def clique_space(n):
    pts = list(range(n))
    return make_explicit_space(pts, [[(a, b) for a in pts for b in pts if a < b]], [pts])


POINT = make_explicit_space(["*"], [], [["*"]])
HEX = cycle_space(6)
DEFAULT_CAP = homology_engine.DEFAULT_BASIS_CAP


def groups_via_oracle(X, k, d_max):
    """Clique-complex homology of the scale-k relation, by sympy Smith forms."""
    pairs = [(a, b) for a, b in X.closure_at(k).pairs if a != b]
    simplices = oracles.clique_complex(X.points, pairs, d_max + 1)
    order = {p: i for i, p in enumerate(X.points)}
    raw = oracles.simplicial_homology(simplices, d_max, point_order=order.get)
    return [FGAbGroup(f, tuple(t)) for f, t in raw]


def tuple_groups_via_oracle(X, k, d_max):
    """Groups of the controlled-tuple complex itself: its boundaries, reduced by the oracle."""
    cc = chain_complex(X, k, d_max + 1, None)
    raw = oracles.sparse_chain_homology(cc.dims(), [None] + [b.rows for b in cc.boundaries[1:]], d_max)
    return [FGAbGroup(f, tuple(t)) for f, t in raw]


# ---------------------------------------------------------- controlled_tuples

def test_point_tuple_bases():
    assert controlled_tuples(POINT, 1, 0) == [("*",)]
    assert controlled_tuples(POINT, 1, 1) == []
    assert controlled_tuples(POINT, 1, 2) == []


def test_isolated_points_have_no_pairs():
    X = make_explicit_space([0, 1], [], [[0, 1]])
    assert controlled_tuples(X, 3, 0) == [(0,), (1,)]
    assert controlled_tuples(X, 3, 1) == []


def test_triangle_pairs_in_lex_order():
    T = clique_space(3)
    assert controlled_tuples(T, 1, 1) == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
    ]


def test_adjacent_repeats_dropped_others_kept():
    E = make_explicit_space([0, 1], [[(0, 1)]], [[0, 1]])
    assert controlled_tuples(E, 1, 2) == [(0, 1, 0), (1, 0, 1)]
    for t in controlled_tuples(E, 1, 3):
        assert all(a != b for a, b in zip(t, t[1:]))


def test_basis_cap_refusal():
    with pytest.raises(DegreeCapExceeded) as e:
        controlled_tuples(clique_space(6), 1, 3, basis_cap=10)
    assert e.value.degree == 3 and e.value.scale == 1 and e.value.cap == 10


def test_cap_refusal_counts_tuples_on_tuple_routes():
    X = clique_space(6)
    want = "basis in degree 2 at scale 1 exceeds the cap of 40 tuples; raise basis_cap to proceed"
    for call in (lambda: controlled_tuples(X, 1, 2, basis_cap=40),
                 lambda: chain_complex(X, 1, 2, basis_cap=40),
                 lambda: homology_at_scale(X, 1, 2, basis_cap=40)):
        with pytest.raises(DegreeCapExceeded) as e:
            call()
        assert str(e.value) == want


def test_tuple_enumeration_deterministic():
    rng = random.Random(7)
    X = random_explicit_space(rng, max_points=15, max_pairs=30)
    for n in range(3):
        assert controlled_tuples(X, 2, n) == controlled_tuples(X, 2, n)
        assert controlled_tuples(X, 2, n) == sorted(controlled_tuples(X, 2, n))


# ----------------------------------------------------------------- boundaries

def test_edge_boundary_is_difference():
    E = make_explicit_space([0, 1], [[(0, 1)]], [[0, 1]])
    D = boundary_matrix(E, 1, 1)
    # basis order: vertices [(0,), (1,)], pairs [(0, 1), (1, 0)]
    assert D.tolist() == [[-1, 1], [1, -1]]
    assert D.nnz == 4


def test_degenerate_faces_contribute_zero():
    E = make_explicit_space([0, 1], [[(0, 1)]], [[0, 1]])
    D = boundary_matrix(E, 1, 2).tolist()
    # d(0,1,0) = (1,0) - (0,0) + (0,1) and the middle face is dropped
    assert [row[0] for row in D] == [1, 1]
    assert [row[1] for row in D] == [1, 1]


def test_triangle_vertex_boundary_rank():
    D = boundary_matrix(clique_space(3), 1, 1)
    import sympy
    assert sympy.Matrix(D.tolist()).rank() == 2


def test_dd_zero_on_fixed_spaces():
    for k in (1, 2, 3):
        chain_complex(HEX, k, 3)
        assert verify_complex_identity(HEX, k, 3)


def test_dd_zero_on_random_spaces():
    rng = random.Random(41)
    for _ in range(8):
        X = random_explicit_space(rng, max_points=14, max_pairs=28)
        stab = X.coarse.stabilization()
        for k in {1, 2, max(stab, 1)}:
            assert verify_complex_identity(X, k, 3)


def test_tuple_order_matches_brute_force_oracle():
    rng = random.Random(67)
    cases = [(clique_space(6), 1), (HEX, 3), (coproduct([clique_space(m) for m in (1, 3, 5)]), 1)]
    for _ in range(8):
        X = random_explicit_space(rng, max_points=9, max_pairs=16)
        cases.append((X, rng.randint(1, 2)))
    for X, k in cases:
        pts = list(X.points)
        edges = [pair for E in X.coarse.generators for pair in E.pairs]
        Y = frozenset(pts[::2])
        relative = ground_cliques(X.coarse.graph(k), 3, [p in Y for p in pts])
        for n in range(4):
            want = oracles.controlled_tuples_reference(pts, edges, k, n)
            assert controlled_tuples(X, k, n) == want, (pts, edges, k, n)
            # the relative n-simplices are the quotient's increasing tuples, named in
            # ground order, and their counts give the quotient's tuple count
            quotient = oracles.quotient_tuples_reference(pts, edges, k, n, Y)
            increasing = [t for t in quotient if all(pts.index(a) < pts.index(b) for a, b in zip(t, t[1:]))]
            assert [tuple(pts[i] for i in s) for s in relative[n]] == increasing, (pts, edges, k, n)
            assert homology_engine._tuple_count([len(lv) for lv in relative], n) == len(quotient)


def test_relative_cliques_grow_only_from_points_outside_y():
    # relative to all points but a corner, only the simplices through the corner are built;
    # every simplex the enumerator grows is one it keeps, so its levels are its work, a small
    # share of the full build's
    g = windowed_builtin("grid2_window", 4).coarse.graph(3)
    inside = [i != 0 for i in range(len(g.points))]
    full = homology_engine._clique_chains(g.sets, 3, None, 3, True)[0]
    relative = homology_engine._clique_chains(g.sets, 3, None, 3, True, inside)[0]
    assert [len(level) for level in relative] == [1, 9, 28, 42]
    assert relative == [[s for s in level if 0 in s] for level in full]
    assert sum(map(len, relative)) * 20 < sum(map(len, full))


def chain_order(n, inside=None, alive=None):
    """The points _clique_chains numbers 0..m-1, in order: those alive, the ones outside the
    mask inside first."""
    keep = [v for v in range(n) if alive is None or alive[v]]
    return keep if inside is None else [v for v in keep if not inside[v]] + [v for v in keep if inside[v]]


def ground_cliques(g, top, inside=None):
    """The simplices of _clique_chains named by the indices of g, as increasing tuples in lex order."""
    order = chain_order(len(g.sets), inside)
    return [sorted(tuple(sorted(order[v] for v in s)) for s in level)
            for level in homology_engine._clique_chains(g.sets, top, inside=inside)[0]]


def renumbered(g, inside=None, alive=None):
    """The neighbour sets of the graph g induces on the points alive and the mask inside, both in
    the numbering of _clique_chains."""
    order = chain_order(len(g.sets), inside, alive)
    new = {v: r for r, v in enumerate(order)}
    sets = [{new[u] for u in g.sets[v] if u in new} for v in order]
    return sets, None if inside is None else [inside[v] for v in order]


def enumerator_cases():
    """(name, scale graph) pairs: the seeded battery, windows at k = 1..3 and the torsion fixtures."""
    rng = random.Random(211)
    for i in range(12):
        X = random_explicit_space(rng, max_points=14, max_pairs=32)
        yield f"random {i}", X.coarse.graph(rng.randint(1, 2))
    for name, r in (("int_window", 6), ("grid2_window", 3)):
        X = windowed_builtin(name, r)
        for k in (1, 2, 3):
            yield f"{name}({r}) k={k}", X.coarse.graph(k)
    for name, make in TORSION_SPACES.items():
        yield name, make().coarse.graph(1)


def test_clique_chains_match_the_set_oracle():
    # the same simplices in the same order as the set-membership enumeration, on the whole
    # graph, under random masks and on random induced subgraphs
    rng = random.Random(223)
    masked = 0
    for name, g in enumerator_cases():
        n = len(g.sets)
        top = 3 if n < 60 else 2
        assert homology_engine._clique_chains(g.sets, top)[0] == oracles.set_cliques(g.sets, top), name
        for _ in range(3):
            inside = [rng.random() < 0.4 for _ in range(n)]
            alive = [rng.random() < 0.8 for _ in range(n)]
            for mask, keep in ((inside, None), (None, alive), (inside, alive)):
                sets, relabelled = renumbered(g, mask, keep)
                got = homology_engine._clique_chains(g.sets, top, inside=mask, alive=keep)[0]
                assert got == oracles.set_cliques(sets, top, relabelled), (name, mask, keep)
                masked += mask is not None and any(got[1:])
    assert masked > 50


def test_facet_boundaries_match_the_list_boundaries():
    # read off the recorded facets, each boundary equals the one built from the simplex lists;
    # relative to a mask, the one built with each face wholly in the mask dropped
    rng = random.Random(227)
    for name, g in enumerator_cases():
        n = len(g.sets)
        top = 3 if n < 60 else 2
        simplices, facets = homology_engine._clique_chains(g.sets, top)
        built = homology_engine._facet_boundaries(facets)
        for d in range(1, top + 1):
            want = homology_engine._boundary_from_lists(simplices[d], simplices[d - 1], d)
            assert (built[d].shape, built[d].rows) == (want.shape, want.rows), (name, d)
        inside = [rng.random() < 0.4 for _ in range(n)]
        simplices, facets = homology_engine._clique_chains(g.sets, top, inside=inside)
        built = homology_engine._facet_boundaries(facets)
        mask = renumbered(g, inside)[1]
        want = oracles.relative_boundaries(simplices, top - 1, mask)
        assert [d.rows for d in built[1:]] == want[1:], name
        got = homology_engine._chain_groups(built, [len(level) for level in facets], top - 1)
        full = oracles.full_boundary_groups(simplices, top - 1, homology_engine._sparse_invariants, mask)
        assert [(group.free_rank, list(group.torsion)) for group in got] == full, name


def test_planted_sign_flip_fails_the_complex_identity(monkeypatch):
    build = chain_maps._boundary_from_lists

    def flipped(basis_n, index_prev, n, *rest):
        M = build(basis_n, index_prev, n, *rest)
        if n == 1:  # a lower boundary in every check below
            row = next(r for r in M.rows if r)
            j = next(iter(row))
            row[j] = -row[j]
        return M

    # a hexagon of its own: complexes stored on HEX by earlier tests never
    # reach the patched builder
    hexagon = cycle_space(6)
    monkeypatch.setattr(chain_maps, "_boundary_from_lists", flipped)
    for d_max in (2, 3):  # d_1 d_2 is the first product either check takes
        assert not verify_complex_identity(hexagon, 1, d_max)
    with pytest.raises(HomologyError, match="complex identity"):
        chain_complex(hexagon, 1, 2)


# ------------------------------------------------------------------ SNF

def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col, strict=True)) for col in zip(*B)] for row in A]


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def assert_snf_contract(A):
    res = smith_normal_form(A)
    A = A.tolist() if isinstance(A, IntMatrix) else [list(row) for row in A]
    m, n = res.shape
    U, S, V = res.U, res.S, res.V
    assert matmul(matmul(U, S), V) == A
    assert abs(oracles.bareiss_det(U)) == 1
    assert abs(oracles.bareiss_det(V)) == 1
    assert matmul(U, res.U_inv) == eye(m)
    assert matmul(res.V_inv, V) == eye(n)
    diag = res.invariant_factors
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    # S vanishes off the pivot diagonal
    for i in range(m):
        for j in range(n):
            if i != j:
                assert S[i][j] == 0
    return res


def test_snf_zero_matrix():
    res = assert_snf_contract([[0, 0, 0], [0, 0, 0]])
    assert res.rank == 0 and res.invariant_factors == []


def test_snf_identity():
    res = assert_snf_contract(eye(3))
    assert res.invariant_factors == [1, 1, 1]


def test_snf_two_by_two_divisor_chain():
    res = assert_snf_contract([[2, 4], [6, 8]])
    assert res.invariant_factors == [2, 4]


def test_snf_degenerate_shapes():
    # lists cannot carry (0, 3) or (3, 0); the matrix type has a shape
    for shape in [(0, 0), (0, 3), (3, 0)]:
        res = smith_normal_form(IntMatrix(shape, [{} for _ in range(shape[0])]))
        assert res.shape == shape
        assert len(res.S) == shape[0]
        assert all(len(row) == shape[1] for row in res.S)
        assert res.rank == 0 and res.invariant_factors == []


def test_snf_sparse_input():
    A = IntMatrix((3, 2), [{1: 2}, {0: 3}, {}])
    res = assert_snf_contract(A)
    assert res.rank == 2
    assert res.invariant_factors == [1, 6]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_snf_contract_random(rows, cols, seed):
    rng = random.Random(seed)
    A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    assert_snf_contract(A)


def test_snf_rejects_ragged_rows():
    for A in ([[1, 2], [3]], [[1], [3, 4]]):
        with pytest.raises(ValueError):
            smith_normal_form(A)


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(5)
    for _ in range(20):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        res = smith_normal_form(A)
        assert res.invariant_factors == oracles.minor_gcd_invariant_factors(A)


# ------------------------------------------------- sparse elimination kernel

SPARSE_ENTRY = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6])


@st.composite
def sparse_int_matrices(draw, max_side=10):
    m, n = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    return [draw(st.lists(SPARSE_ENTRY, min_size=n, max_size=n)) for _ in range(m)]


@st.composite
def planted_torsion_matrices(draw):
    """diag(factors) padded with zeros, mixed by unimodular +-1 row and column operations."""
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    factors = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 12]), max_size=min(m, n)))
    A = [[factors[i] if i == j and i < len(factors) else 0 for j in range(n)] for i in range(m)]
    for by_row, a, b, sign in draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 9), st.integers(0, 9), st.sampled_from([1, -1])),
            max_size=12)):
        size = m if by_row else n
        a, b = a % size, b % size
        if a == b:
            continue
        if by_row:
            A[a] = [x + sign * y for x, y in zip(A[a], A[b])]
        else:
            for row in A:
                row[a] += sign * row[b]
    return A


def assert_kernel_matches_sympy(A):
    rank, facs, pivots = homology_engine._sparse_invariants(
        [{j: v for j, v in enumerate(row) if v} for row in A])
    expected = oracles.smith_invariant_factors(A)
    assert (rank, facs) == (len(expected), expected)
    # unit pivots sit in distinct columns, one factor 1 each
    assert len(set(pivots)) == len(pivots) <= facs.count(1)


@settings(max_examples=80, deadline=None)
@given(sparse_int_matrices())
def test_sparse_kernel_matches_sympy_on_mixed_entries(A):
    assert_kernel_matches_sympy(A)


@settings(max_examples=80, deadline=None)
@given(planted_torsion_matrices())
def test_sparse_kernel_matches_sympy_on_planted_torsion(A):
    assert_kernel_matches_sympy(A)


@settings(max_examples=80, deadline=None)
@given(sparse_int_matrices(max_side=12))
@example([[2, 0], [0, 3]])  # 3 is not a multiple of the pivot 2: the divisibility repair runs
def test_snf_bit_identical_to_reference(A):
    # not just a valid Smith form: frozen generator chains follow from these exact U and V
    for track_U, track_V in [(True, True), (False, True), (True, False)]:
        want = oracles.reference_smith_normal_form(A, track_U, track_V)
        sparse = IntMatrix((len(A), len(A[0])), [{j: v for j, v in enumerate(row) if v} for row in A])
        for M in (A, sparse):
            res = smith_normal_form(M, track_U, track_V)
            assert (res.U, res.S, res.V, res.U_inv, res.V_inv) == want


def test_homology_reduces_each_boundary_once(monkeypatch):
    kernel, forest = homology_engine._sparse_invariants, homology_engine._forest_columns
    rows_reduced, forests = [], []
    monkeypatch.setattr(homology_engine, "_sparse_invariants",
                        lambda rows: rows_reduced.append(len(rows)) or kernel(rows))
    monkeypatch.setattr(homology_engine, "_forest_columns", lambda d: forests.append(d.shape) or forest(d))
    # d_1 by the forest, d_2 and d_3 by the kernel, each less the rows at the pivots below:
    # the hexagon's 6 edges less a 5-edge spanning tree; at k = 2 the octahedron's
    # 12 edges less 5, then its 8 triangles less the 7 unit pivots of d_2
    for k, groups, shape, rows in [(1, [Z, Z, ZERO], (6, 6), [1, 0]), (2, [Z, ZERO, Z], (6, 12), [7, 1])]:
        rows_reduced.clear()
        forests.clear()
        assert homology_at_scale(HEX, k, 2) == groups
        assert forests == [shape] and rows_reduced == rows


def assert_groups_match_full_boundaries(simplices, d_max, inside=None):
    """The reduction (forest, compression, kernel) against every full boundary reduced."""
    want = oracles.full_boundary_groups(simplices, d_max, homology_engine._sparse_invariants, inside)
    levels = list(simplices) + [[]] * (d_max + 2 - len(simplices))
    boundaries = [None] + [IntMatrix((len(levels[n - 1]), len(levels[n])), rows)
                           for n, rows in enumerate(oracles.relative_boundaries(simplices, d_max, inside)[1:], 1)]
    got = homology_engine._chain_groups(boundaries, [len(level) for level in levels], d_max)
    assert [(g.free_rank, list(g.torsion)) for g in got] == want
    if inside is None:
        assert homology_engine.SimplicialComplex([], simplices).homology(d_max) == got


@st.composite
def flag_complexes(draw):
    """Cliques of a random graph through dimension d_max + 1, each level in a random order;
    with a random point mask, less the cliques wholly in it."""
    n, d_max = draw(st.integers(1, 9)), draw(st.integers(0, 3))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    inside = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    cliques = oracles.clique_complex(range(n), edges, d_max + 1)
    levels = [sorted(tuple(sorted(c)) for c in cliques if len(c) == dim + 1
                     and (inside is None or not all(inside[v] for v in c))) for dim in range(d_max + 2)]
    return [draw(st.permutations(level)) for level in levels], d_max, inside


@settings(max_examples=150, deadline=None)
@given(flag_complexes())
def test_forest_and_compression_match_full_boundaries_on_flag_complexes(case):
    assert_groups_match_full_boundaries(*case)


def test_planted_late_row_of_a_product_is_refused():
    # d_1..d_4 of the 4-simplex; one entry planted in the last row of d_2 makes only the
    # last row of d_2 d_3 nonzero
    simplices = rips_complex(clique_space(5), 1, 4).simplices
    boundaries = [None] + [homology_engine._boundary_from_lists(simplices[n], simplices[n - 1], n)
                           for n in range(1, 5)]
    assert homology_engine._is_complex(boundaries)
    last = boundaries[2].rows[-1]
    column = next(j for j in range(boundaries[2].shape[1]) if j not in last and boundaries[3].rows[j])
    last[column] = 1
    product = boundaries[2] @ boundaries[3]
    assert [i for i, row in enumerate(product.rows) if row] == [len(product.rows) - 1]
    assert not homology_engine._is_complex(boundaries)


def test_matrix_shapes_are_checked():
    A, B = IntMatrix((2, 3), [{0: 1}, {2: -1}]), IntMatrix((2, 2), [{}, {1: 1}])
    with pytest.raises(ValueError, match=r"1 rows for shape \(2, 3\)"):
        IntMatrix((2, 3), [{0: 1}])
    with pytest.raises(ValueError, match=r"cannot multiply \(2, 3\) by \(2, 2\)"):
        A @ B
    with pytest.raises(ValueError, match=r"cannot add \(2, 3\) and \(2, 2\)"):
        A + B
    with pytest.raises(ValueError, match=r"cannot multiply \(2, 3\) by \(2, 2\)"):
        homology_engine._is_complex([None, A, B])


def test_boundaries_refuse_a_degree_out_of_range():
    with pytest.raises(ValueError, match="boundary matrices start at degree 1"):
        boundary_matrix(path_space(3), 1, 0)
    K = rips_complex(path_space(3), 1, 1)
    for n in (0, 2):
        with pytest.raises(ValueError, match="degree out of the built range"):
            K.boundary(n)


# six-vertex real projective plane: every edge lies on exactly two triangles
RP2_TRIANGLES = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
                 (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]


def rp2_subdivision():
    """Barycentric subdivision of RP^2, 31 points."""
    return subdivision([tuple(map(str, t)) for t in RP2_TRIANGLES])


def test_rp2_subdivision_has_two_torsion(monkeypatch):
    X = rp2_subdivision()
    assert len(X.points) == 31
    residual = homology_engine._residual_pivots
    residual_sizes = []
    monkeypatch.setattr(homology_engine, "_residual_pivots",
                        lambda rows: residual_sizes.append(len(rows)) or residual(rows))
    expected = [Z, FGAbGroup(0, (2,)), ZERO]
    assert homology_at_scale(X, 1, 2) == expected
    assert rips_complex(X, 1, 3).homology(2) == expected
    assert any(residual_sizes)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_moore_space_has_p_torsion(p, monkeypatch):
    X = moore_space(p)
    assert len(X.points) == 24 * p + 7
    residual = homology_engine._residual_pivots
    residual_sizes = []
    monkeypatch.setattr(homology_engine, "_residual_pivots",
                        lambda rows: residual_sizes.append(len(rows)) or residual(rows))
    expected = [Z, FGAbGroup(0, (p,)), ZERO]
    assert homology_at_scale(X, 1, 2) == expected
    assert any(residual_sizes)  # the unit phase alone never yields a factor p
    assert [homology_presentation(X, 1, n).group for n in range(3)] == expected


def test_klein_bottle_has_a_free_and_a_two_torsion_one_cycle(monkeypatch):
    X = klein_bottle()
    assert len(X.points) == 54
    # the independent route: sympy's Smith form on the triangles that X subdivides
    assert oracles.simplicial_homology(klein_bottle_triangles(), 2) == [(1, []), (1, [2]), (0, [])]
    residual = homology_engine._residual_pivots
    residual_sizes = []
    monkeypatch.setattr(homology_engine, "_residual_pivots",
                        lambda rows: residual_sizes.append(len(rows)) or residual(rows))
    expected = [Z, FGAbGroup(1, (2,)), ZERO]
    assert homology_at_scale(X, 1, 2) == expected
    assert rips_complex(X, 1, 3).homology(2) == expected
    assert any(residual_sizes)  # the unit phase alone never yields the factor 2
    assert [homology_presentation(X, 1, n).group for n in range(3)] == expected


@pytest.mark.parametrize("p", [2, 3])
def test_suspended_moore_space_has_p_torsion_one_degree_up(p):
    X = suspension(moore_space(p))
    assert len(X.points) == len(moore_space(p).points) + 2
    assert homology_at_scale(X, 1, 3) == [Z, ZERO, FGAbGroup(0, (p,)), ZERO]


@pytest.mark.parametrize("p", [2, 3])
def test_planted_face_sign_flip_changes_a_moore_group(p, monkeypatch):
    def flip_first_edge(d):
        # one face of the first edge: its boundary becomes v + w
        row = next(r for r in d.rows if 0 in r)
        row[0] = -row[0]
        return d

    build, read = chain_maps._boundary_from_lists, homology_engine._facet_boundaries

    def flipped_lists(basis_n, index_prev, n):
        d = build(basis_n, index_prev, n)
        return flip_first_edge(d) if n == 1 else d

    def flipped_facets(facets):
        ds = read(facets)
        flip_first_edge(ds[1])
        return ds

    X = moore_space(p)
    monkeypatch.setattr(chain_maps, "_boundary_from_lists", flipped_lists)
    monkeypatch.setattr(homology_engine, "_facet_boundaries", flipped_facets)
    # through degree 0 the complex ends at d_1, so no d∘d product sees the fault: H_0 = Z/2, not Z
    assert homology_at_scale(X, 1, 0) == [FGAbGroup(0, (2,))]
    assert homology_presentation(X, 1, 0).group == FGAbGroup(0, (2,))
    # one degree up, d_1 d_2 sees it
    with pytest.raises(HomologyError, match="complex identity"):
        homology_at_scale(X, 1, 1)


TORSION_SPACES = {"rp2": rp2_subdivision, "klein": klein_bottle,
                  **{f"moore{p}": partial(moore_space, p) for p in (2, 3, 5)},
                  **{f"suspended moore{p}": lambda p=p: suspension(moore_space(p)) for p in (2, 3)}}


@pytest.mark.parametrize("name", TORSION_SPACES)
def test_forest_and_compression_match_full_boundaries_with_torsion(name):
    X = TORSION_SPACES[name]()
    g = X.coarse.graph(1)
    rng = random.Random(name)
    for d_max in range(4):
        assert_groups_match_full_boundaries(rips_complex(X, 1, d_max + 1).simplices, d_max)
        inside = [rng.random() < 0.3 for _ in X.points]
        assert_groups_match_full_boundaries(ground_cliques(g, d_max + 1, inside), d_max, inside)


# -------------------------------------------------------- homology_at_scale

def test_point_homology():
    assert homology_at_scale(POINT, 1, 3) == [Z, ZERO, ZERO, ZERO]


def test_hexagon_homology_per_scale():
    assert homology_at_scale(HEX, 1, 2) == [Z, Z, ZERO]
    # at scale 2 the relation is the octahedron graph, a two-sphere
    assert homology_at_scale(HEX, 2, 2) == [Z, ZERO, Z]
    assert homology_at_scale(HEX, 3, 2) == [Z, ZERO, ZERO]


def test_two_far_points_rank_two():
    X = make_explicit_space([0, 1], [], [[0, 1]])
    assert homology_at_scale(X, 1, 1) == [FGAbGroup(2), ZERO]


def test_clique_space_contractible():
    assert homology_at_scale(clique_space(5), 1, 3) == [Z, ZERO, ZERO, ZERO]


def test_matches_simplicial_oracle_on_random_spaces():
    rng = random.Random(11)
    for _ in range(8):
        X = random_explicit_space(rng, max_points=11, max_pairs=22)
        for k in {1, max(X.coarse.stabilization(), 1)}:
            expected = groups_via_oracle(X, k, 2)
            assert homology_at_scale(X, k, 2) == expected
            assert tuple_groups_via_oracle(X, k, 2) == expected


def test_unnormalized_complex_same_groups():
    # repeats allowed, no degeneracy dropping; sympy route on every degree
    rng = random.Random(23)
    for _ in range(6):
        X = random_explicit_space(rng, max_points=4, max_pairs=6)
        nb = {p: {p} for p in X.points}
        for a, b in X.closure_at(1).pairs:
            nb[a].add(b)
        bases = [[(p,) for p in X.points]]
        for n in range(3):
            bases.append([
                t + (q,) for t in bases[n] for q in X.points
                if all(q in nb[x] for x in t)
            ])
        dims = [len(b) for b in bases]
        mats = [None]
        for n in range(1, 4):
            idx = {t: i for i, t in enumerate(bases[n - 1])}
            rows = [[0] * dims[n] for _ in range(dims[n - 1])]
            for j, t in enumerate(bases[n]):
                for i in range(n + 1):
                    rows[idx[t[:i] + t[i + 1:]]][j] += (-1) ** i
            mats.append(rows)
        expected = [
            FGAbGroup(f, tuple(t))
            for f, t in oracles.chain_homology(dims, mats, 2)
        ]
        assert homology_at_scale(X, 1, 2) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_h0_rank_is_component_count(seed, k):
    rng = random.Random(seed)
    X = random_explicit_space(rng, max_points=12, max_pairs=24)
    pairs = [(a, b) for a, b in X.closure_at(k).pairs if a != b]
    comps = oracles.union_find_components(X.points, pairs)
    h0 = homology_at_scale(X, k, 0)[0]
    assert h0 == FGAbGroup(len(comps))


# ---------------------------------------------------------- homology_colimit

def test_point_colimit():
    groups, rep = homology_colimit(POINT, 3)
    assert groups == [Z, ZERO, ZERO, ZERO]
    assert rep.stable_scale == 0 and list(rep.per_scale) == [0]


def test_hexagon_colimit_table():
    groups, rep = homology_colimit(HEX, 2)
    assert groups == [Z, ZERO, ZERO]
    assert rep.stable_scale == 3
    assert rep.per_scale[1] == [Z, Z, ZERO]
    assert rep.per_scale[2] == [Z, ZERO, Z]
    assert rep.per_scale[3] == groups


def test_colimit_rank_matches_union_find():
    rng = random.Random(3)
    for _ in range(6):
        X = random_explicit_space(rng, max_points=20, max_pairs=30)
        stab = X.coarse.stabilization()
        pairs = [(a, b) for a, b in X.closure_at(max(stab, 1)).pairs if a != b]
        want = len(oracles.union_find_components(X.points, pairs))
        groups, rep = homology_colimit(X, 0)
        assert groups[0] == FGAbGroup(want)
        for s, gs in rep.per_scale.items():
            at_s = [(a, b) for a, b in X.closure_at(s).pairs if a != b]
            assert gs[0].free_rank == len(oracles.union_find_components(X.points, at_s))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10 ** 6), st.integers(0, 2))
def test_closed_form_colimit_matches_full_reduction(n, seed, d):
    rng = random.Random(seed)
    pts = list(range(n))
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    X = make_explicit_space(pts, [pairs], [pts])
    stab = X.coarse.stabilization()
    groups = homology_engine._colimit_groups(X, d)
    assert groups == homology_at_scale(X, stab, d, None)
    assert groups == rips_complex(X, stab, d + 1, None).homology(d)
    comps = oracles.union_find_components(pts, [p for p in pairs if p[0] != p[1]])
    assert groups == [FGAbGroup(len(comps))] + [ZERO] * d
    assert homology_colimit(X, d)[0] == groups


def test_closed_form_refuses_a_stabilization_fault(monkeypatch):
    X = path_space(5)
    stabilization = CoarseStructure.stabilization
    monkeypatch.setattr(CoarseStructure, "stabilization", lambda self: stabilization(self) - 1)
    for call in (lambda: homology_engine._colimit_groups(X, 2), lambda: homology_colimit(X, 2)):
        with pytest.raises(HomologyError) as e:
            call()
        assert str(e.value) == ("0 and 5 share a component but are unrelated at the "
                                "stabilization scale 4")


@pytest.mark.parametrize("short, pair", [(1, "5 and 7"), (2, "3 and 7")])
def test_closed_form_refuses_a_non_clique_component(monkeypatch, short, pair):
    # an edge {0, 1}, then the path 5-3-2-4-6-7 of diameter 5: with the
    # stabilization scale planted short, the second component is no clique
    # and the refusal names its least unrelated pair in ground order
    edges = [(0, 1), (5, 3), (3, 2), (2, 4), (4, 6), (6, 7)]
    X = make_explicit_space(list(range(8)), [edges], [list(range(8))])
    assert X.coarse.stabilization() == 5
    stabilization = CoarseStructure.stabilization
    monkeypatch.setattr(CoarseStructure, "stabilization", lambda self: stabilization(self) - short)
    with pytest.raises(HomologyError) as e:
        homology_engine._colimit_groups(X, 1)
    assert str(e.value) == (f"{pair} share a component but are unrelated at the "
                            f"stabilization scale {5 - short}")


def _plant_in_searches(monkeypatch, X, fault):
    """Run X's stabilization with every breadth-first search passed through fault."""
    bfs = CoarseStructure._bfs
    with monkeypatch.context() as m:
        m.setattr(CoarseStructure, "_bfs", lambda self, *a: fault(bfs(self, *a)))
        return X.coarse.stabilization()


def _lowered(dist):
    """The farthest entry one hop nearer than it is."""
    dist[next(reversed(dist))] -= 1
    return dist


def _farthest_second(dist):
    """The same distances, the farthest moved next to the source, so the last entry is no
    longer the eccentricity."""
    src, far = next(iter(dist)), max(dist, key=dist.get)
    return {src: 0, far: dist[far], **dist}


# the path 2-0-3-1 (diameter 3, least member inside it), the path 0-..-5, and an edge {0, 1}
# beside the path 5-3-2-4-6-7 (diameter 5, least member 2 of eccentricity 3)
FAULT_SPACES = {"2031": ([0, 1, 2, 3], [(0, 2), (3, 1), (3, 0)]),
                "path5": (list(range(6)), [(i, i + 1) for i in range(5)]),
                "path8": (list(range(8)), [(0, 1), (5, 3), (3, 2), (2, 4), (4, 6), (6, 7)])}


@pytest.mark.parametrize("fault, space, planted, pair", [
    ("lowered", "2031", 2, "1 and 2"),
    ("lowered", "path5", 4, "0 and 5"),
    ("lowered", "path8", 4, "5 and 7"),
    ("misread", "2031", 2, "1 and 2"),
    ("dropped", "path8", 3, "3 and 7"),
])
def test_colimit_certificate_refuses_planted_search_faults(monkeypatch, fault, space, planted, pair):
    # each fault makes stabilization() answer below the true scale; the certificate reads
    # the searches it was given, so it must not trust them: a lowered distance has no
    # neighbour one nearer, a misread eccentricity is not the largest distance, and a
    # dropped search leaves bounds that only an exact search can settle
    pts, edges = FAULT_SPACES[space]
    X = make_explicit_space(pts, [edges], [pts])
    if fault == "dropped":  # every search after the opening one dropped
        monkeypatch.setattr(CoarseStructure, "_diameter",
                            lambda self, dist: self._fold(dist) or max(dist.values()))
        stab = X.coarse.stabilization()
    else:
        stab = _plant_in_searches(monkeypatch, X, _lowered if fault == "lowered" else _farthest_second)
    assert stab == planted < oracles.largest_eccentricity(pts, edges)
    want = oracles.colimit_reference(pts, edges, stab, 1)
    assert f"{want[0]} and {want[1]}" == pair
    with pytest.raises(HomologyError) as e:
        homology_engine._colimit_groups(X, 1)
    assert str(e.value) == f"{pair} share a component but are unrelated at the stabilization scale {planted}"


def test_colimit_certificate_settles_dropped_searches_exactly(monkeypatch):
    # with only each component's opening search kept in the bounds, the scale is still
    # right: the points whose bound exceeds it are searched exactly and the answer stands
    fold, bfs, searched = CoarseStructure._fold, CoarseStructure._bfs, []
    monkeypatch.setattr(CoarseStructure, "_fold", lambda self, dist: next(iter(dist)) == min(dist) and fold(self, dist))
    for X, want in [(windowed_builtin("grid2_window", 3), [Z]),
                    (coproduct([path_space(4), windowed_builtin("grid2_window", 2)]), [FGAbGroup(2)])]:
        stab = X.coarse.stabilization()
        assert stab == oracles.largest_eccentricity(X.points, [p for g in X.coarse.generators for p in g.pairs])
        with monkeypatch.context() as m:
            m.setattr(CoarseStructure, "_bfs", lambda self, *a: searched.append(a) or bfs(self, *a))
            assert homology_engine._colimit_groups(X, 0) == want
    assert searched  # the weaker bounds left points to search exactly


def _colimit_cases(seed, count):
    """Seeded explicit spaces (points, generator pairs) and small windows."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 14)
        pts = list(range(n))
        cases.append((pts, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]))
    for name, r in [("int_window", 6), ("half_line", 9), ("grid2_window", 2), ("grid2_window", 3)]:
        X = windowed_builtin(name, r)
        cases.append((list(X.points), [p for g in X.coarse.generators for p in g.pairs]))
    return cases


def test_colimit_certificate_matches_the_all_pairs_reference(monkeypatch):
    # against BFS from every point: at the true scale the groups and no exact search (the
    # stored bounds settle every point); planted one and two short, the least pair
    answers = refusals = 0
    for pts, pairs in _colimit_cases(29, 100):
        X = make_explicit_space(pts, [pairs], [pts])
        stab = X.coarse.stabilization()
        bfs, searched = CoarseStructure._bfs, []
        with monkeypatch.context() as m:
            m.setattr(CoarseStructure, "_bfs", lambda self, *a: searched.append(a) or bfs(self, *a))
            groups = homology_engine._colimit_groups(X, 2)
        assert searched == []
        assert [g.free_rank for g in groups] == oracles.colimit_reference(pts, pairs, stab, 2)
        assert all(not g.torsion for g in groups)
        answers += 1
        for short in (1, 2):
            if stab - short < 0:
                continue
            with monkeypatch.context() as m:
                m.setattr(CoarseStructure, "stabilization", lambda self, s=stab - short: s)
                want = oracles.colimit_reference(pts, pairs, stab - short, 2)
                with pytest.raises(HomologyError) as e:
                    homology_engine._colimit_groups(X, 2)
            assert str(e.value) == (f"{want[0]!r} and {want[1]!r} share a component but are "
                                    f"unrelated at the stabilization scale {stab - short}")
            refusals += 1
    assert answers == 104 and refusals == 147


@pytest.mark.parametrize("name, r", [("int_window", 200), ("grid2_window", 8)])
def test_colimit_needs_no_hop_table(name, r):
    # the certificate reads the stabilization searches, so a fresh window answers fast
    # and the hop table is not grown past depth 1
    X = windowed_builtin(name, r)
    start = time.perf_counter()
    groups = homology_engine._colimit_groups(X, 1)
    elapsed = time.perf_counter() - start
    assert groups == [Z, ZERO] and X.coarse._depth <= 1
    assert elapsed < 0.1, f"{name}({r}) colimit took {elapsed:.3f}s"


def test_windowed_colimit_warns():
    _, rep = homology_colimit(windowed_builtin("half_line", 10), 0)
    assert any(w.startswith("window-relative") for w in rep.warnings)


# ---------------------------------------------------------- presentations

def test_hexagon_cycle_generator():
    pres = homology_presentation(HEX, 1, 1)
    assert pres.group == Z and pres.generator_count == 1
    gen = pres.generator_chains()[0]
    D = boundary_matrix(HEX, 1, 1)
    assert all(sum(v * gen[j] for j, v in row.items()) == 0 for row in D.rows)
    coord = pres.class_coordinates(gen)
    assert coord in [(1,), (-1,)]
    assert pres.class_coordinates([2 * v for v in gen]) == (2 * coord[0],)


def test_trivial_class_has_empty_coordinates():
    T = clique_space(3)
    pres = homology_presentation(T, 1, 1)
    assert pres.group.trivial
    z = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    assert pres.class_coordinates(z) == ()


def test_non_cycle_rejected():
    pres = homology_presentation(clique_space(3), 1, 1)
    with pytest.raises(HomologyError):
        pres.class_coordinates({(0, 1): 1})


def test_class_coordinates_rejects_foreign_chains():
    pres = homology_presentation(windowed_builtin("half_line", 6), 1, 1)
    with pytest.raises(HomologyError, match=r"\(0, 3\)"):
        pres.class_coordinates({(0, 3): 1})
    for chain in ([], [0] * (len(pres.basis) + 1)):
        with pytest.raises(HomologyError, match=f"chain has {len(chain)} coefficients"):
            pres.class_coordinates(chain)


def test_large_presentation_memory_stays_small():
    # 1,236 one-tuples and 6,984 two-tuples: the transforms and the image
    # matrix must stay sparse to fit
    X = windowed_builtin("grid2_window", 5)
    chain_complex(X, 2, 2)
    tracemalloc.start()
    try:
        pres = homology_presentation(X, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pres.group == ZERO and len(pres.basis) == 1236
    assert peak < 64 * 2**20
    edge = pres.basis[0]
    with pytest.raises(HomologyError, match="^chain is not a cycle at this scale$"):
        pres.class_coordinates({edge: 1})
    foreign = ((-5, -5), (5, 5))
    with pytest.raises(HomologyError) as e:
        pres.class_coordinates({edge: 1, foreign: 1})
    assert str(e.value) == f"{foreign!r} is not a degree-1 basis tuple at scale 2"


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def test_grid_generators_and_shift_matrix_keep_their_bytes():
    # the digests perfbench/frozen.json holds for grid2_window(2): a kernel
    # that picks other pivots gives another valid basis and fails here
    X = windowed_builtin("grid2_window", 2)
    assert digest(homology_presentation(X, 1, 1).generator_chains()) == "09e3cd6cd9861b70"
    f = SpaceMap(X, X, {(a, b): (min(a + 1, 2), b) for a, b in X.points})
    assert digest(induced_map(f, 1, 1).matrix) == "87b429308b71cd1e"


def test_presentation_consistent_with_groups():
    rng = random.Random(17)
    for _ in range(5):
        X = random_explicit_space(rng, max_points=9, max_pairs=18)
        groups = homology_at_scale(X, 1, 2)
        for n in range(3):
            pres = homology_presentation(X, 1, n)
            assert pres.group == groups[n]
            for i, gen in enumerate(pres.generator_chains()):
                coord = pres.class_coordinates(gen)
                assert all(c == 0 for j, c in enumerate(coord) if j != i)
                assert coord[i] in (1, -1, coord[i])  # torsion coords live mod d_i
                assert coord[i] != 0


def assert_presentation_matches_reference(X, k, n, rng, monkeypatch):
    """The sparse presentation against the dense one of oracles.reference_presentation."""
    cc = chain_complex(X, k, n + 1)
    d_n, d_next = cc.boundaries[n] if n else None, cc.boundaries[n + 1]
    free, torsion, factors, rank_dn, chains, coordinates, image_columns = (
        oracles.reference_presentation(len(cc.bases[n]), d_n.tolist() if n else None,
                                       d_next.tolist()))
    widths = []
    smith = chain_maps._smith
    monkeypatch.setattr(chain_maps, "_smith",
                        lambda S, width, **track: widths.append(width) or smith(S, width, **track))
    P = chain_maps._presentation_from_complex(cc.bases[n], d_n, d_next, n, k)
    monkeypatch.undo()
    # the image is reduced with each distinct nonzero column once
    assert widths[-1] == image_columns
    assert (P.group.free_rank, list(P.group.torsion)) == (free, torsion)
    assert (P.factors, P.rank_dn) == (factors, rank_dn)
    assert P.generator_chains() == chains
    for gen in chains:
        assert P.class_coordinates(gen) == coordinates(gen)
    # seeded integer combinations of generators plus boundaries
    boundaries = [list(col) for col in zip(*d_next.tolist())]
    for _ in range(4):
        chain = [0] * len(P.basis)
        for vec in chains + rng.sample(boundaries, min(3, len(boundaries))):
            a = rng.randint(-3, 3)
            chain = [x + a * v for x, v in zip(chain, vec)]
        assert P.class_coordinates(chain) == coordinates(chain)
    return P


@pytest.mark.parametrize("case", ["hexagon", "grid2_window", "int_window", "rp2"])
def test_presentation_matches_dense_reference(case, monkeypatch):
    rng = random.Random(41)
    if case == "hexagon":
        runs = [(HEX, k, n) for k in (1, 2) for n in range(3)]
    elif case == "grid2_window":
        runs = [(windowed_builtin("grid2_window", r), 1, 1) for r in (2, 3)]
    elif case == "int_window":
        runs = [(windowed_builtin("int_window", 10), 3, n) for n in range(3)]
    else:
        P = assert_presentation_matches_reference(rp2_subdivision(), 1, 1, rng, monkeypatch)
        assert P.group == FGAbGroup(0, (2,))
        gen = P.generator_chains()[0]
        assert P.class_coordinates(gen) == (1,)
        assert P.class_coordinates([2 * x for x in gen]) == (0,)
        assert P.class_coordinates([-3 * x for x in gen]) == (1,)
        return
    for X, k, n in runs:
        assert_presentation_matches_reference(X, k, n, rng, monkeypatch)


def test_presentation_matches_dense_reference_on_random_spaces(monkeypatch):
    rng = random.Random(43)
    for _ in range(40):
        X = random_explicit_space(rng, max_points=10, max_pairs=18)
        for k, n in [(1, 0), (1, 1), (1, 2), (2, 1)]:
            assert_presentation_matches_reference(X, k, n, rng, monkeypatch)


# ------------------------------------------------------------- induced maps

def test_identity_induces_identity():
    im = induced_map(identity_map(HEX), 1, 1)
    assert im.matrix == [[1]] or im.matrix == [[-1]]
    n_chains = len(controlled_tuples(HEX, 1, 1))
    assert im.chain_matrix.tolist() == eye(n_chains)


def test_self_map_at_its_own_scale_builds_one_presentation(monkeypatch):
    build = chain_maps._presentation_from_complex
    scales = []
    monkeypatch.setattr(chain_maps, "_presentation_from_complex",
                        lambda *args: scales.append(args[4]) or build(*args))
    hexagon = cycle_space(6)  # fresh, so no presentation is stored on it yet
    rotate = SpaceMap(hexagon, hexagon, {i: (i + 1) % 6 for i in hexagon.points})
    im = induced_map(rotate, 1, 1)
    assert scales == [1] and im.target is im.source
    assert im.matrix == [[1]]
    scales.clear()
    assert induced_map(rotate, 1, 1, target_scale=2).matrix == []
    assert scales == [2]  # the scale-1 source is the one already built


def test_constant_map_kills_degree_one():
    f = constant_map(HEX, POINT, "*")
    im1 = induced_map(f, 1, 1)
    assert im1.matrix == []
    assert im1.chain_matrix.nnz == 0
    im0 = induced_map(f, 1, 0)
    assert im0.matrix == [[1]]


def test_collapse_to_evens_is_h0_iso():
    X = windowed_builtin("half_line", 12)
    f = SpaceMap(X, X, {x: x - x % 2 for x in X.points})
    im = induced_map(f, 1, 0)
    assert im.matrix == [[1]]
    assert im.source_scale == 1 and im.target_scale >= 1


def test_functoriality_chain_and_homology():
    X = windowed_builtin("half_line", 8)
    f = translate_map(X, 1)
    g = SpaceMap(X, X, {x: x - x % 2 for x in X.points})
    imf = induced_map(f, 1, 0)
    img = induced_map(g, imf.target_scale, 0)
    comp = induced_map(g.compose(f), 1, 0, target_scale=img.target_scale)
    assert comp.chain_matrix.tolist() == (img.chain_matrix @ imf.chain_matrix).tolist()
    assert comp.matrix == matmul(img.matrix, imf.matrix)


def test_uncontrolled_witness_is_least_failing_pair():
    pts = list("abcdef")
    X = make_explicit_space(pts, [[("e", "f"), ("d", "c"), ("a", "b")]], [pts])
    D = make_explicit_space(pts, [], [pts])
    with pytest.raises(chain_maps.NotControlledAtScale) as e:
        induced_map(SpaceMap(X, D, {p: p for p in pts}), 1, 0)
    assert e.value.witness == ("a", "b")


def test_refusals_name_the_witness_pair_and_the_scales():
    Y = make_explicit_space([0, 1, 2], [[(0, 1)]], [[0, 1, 2]])
    g = SpaceMap(Y, Y, {0: 0, 1: 2, 2: 2})  # (0, 1) goes to the unrelated (0, 2)
    for call in (lambda: prism(g, g, 1, 0), lambda: swindle_identity_check(Y, g, [], 1, k=1, n=0)):
        with pytest.raises(chain_maps.NotControlledAtScale) as e:
            call()
        assert e.value.witness == (0, 1)
        assert str(e.value) == "map is not controlled at scale 1; witness pair (0, 1)"
    P = path_space(4)
    double = SpaceMap(P, P, {x: min(2 * x, 4) for x in P.points})  # a step becomes two
    assert induced_map(double, 1, 0, target_scale=2).target_scale == 2
    with pytest.raises(HomologyError) as e:
        induced_map(double, 1, 0, target_scale=1)
    assert str(e.value) == ("target scale 1 does not hold the image of closure_at(1); "
                            "the least scale that does is 2")


# ------------------------------------------------------------------- prisms

def test_prism_of_equal_maps():
    f = identity_map(HEX)
    pr = prism(f, f, 1, 1)
    assert pr.verified and pr.closeness == 0


def test_prism_shift_versus_identity():
    X = windowed_builtin("half_line", 20)
    pr = prism(identity_map(X), translate_map(X, 1), 1, 1)
    assert pr.verified
    assert pr.closeness == 1
    assert pr.source_scale == 1 and pr.target_scale == 2
    assert sorted(pr.h) == [0, 1]


def test_prism_block_shapes():
    X = windowed_builtin("half_line", 10)
    pr = prism(identity_map(X), translate_map(X, 2), 1, 1)
    for n, H in pr.h.items():
        rows = len(controlled_tuples(X, pr.target_scale, n + 1))
        cols = len(controlled_tuples(X, pr.source_scale, n))
        assert H.shape == (rows, cols)


def test_prism_refuses_far_maps():
    X = make_explicit_space([0, 50], [], [[0, 50]])
    with pytest.raises(NotClose):
        prism(constant_map(X, X, 0), constant_map(X, X, 50), 1, 1)


def test_prism_refuses_maps_that_are_not_parallel():
    X, Y = windowed_builtin("half_line", 6), windowed_builtin("half_line", 7)
    with pytest.raises(NotClose, match="prism needs a parallel pair of maps"):
        prism(identity_map(X), identity_map(Y), 1, 1)


def test_prism_accepts_a_parallel_pair_on_equal_spaces_built_apart():
    # ends are compared by value, as are_close and compose do: two builds of half_line(6) are one space
    X, X2 = windowed_builtin("half_line", 6), windowed_builtin("half_line", 6)
    f, g = identity_map(X), translate_map(X2, 1)
    assert X is not X2 and are_close(f, g) == 1
    assert prism(f, g, 1, 1).verified


def test_prism_with_a_planted_sign_flip_is_not_verified(monkeypatch):
    X = windowed_builtin("half_line", 10)
    f, g = identity_map(X), translate_map(X, 1)
    assert prism(f, g, 1, 1).verified
    build, planted = chain_maps._tuple_map, []

    def flip_one_prism_term(basis_src, index_tgt, images):
        def terms(t):
            out = images(t)
            for i, (img, sign) in enumerate(out):
                # a prism term is one entry longer than its tuple; chain-map terms are not
                if not planted and len(img) == len(t) + 1 and img[0] != img[1]:
                    planted.append(img)
                    out[i] = (img, -sign)
            return out
        return build(basis_src, index_tgt, terms)

    monkeypatch.setattr(chain_maps, "_tuple_map", flip_one_prism_term)
    assert prism(f, g, 1, 1).verified is False
    assert planted == [(0, 1)]


def test_close_maps_agree_on_homology():
    X = windowed_builtin("half_line", 12)
    f, g = identity_map(X), translate_map(X, 1)
    pr = prism(f, g, 1, 1)
    for n in (0, 1):
        mf = induced_map(f, 1, n, target_scale=pr.target_scale).matrix
        mg = induced_map(g, 1, n, target_scale=pr.target_scale).matrix
        assert mf == mg


# ------------------------------------------------------ per-space store

def test_repeated_presentation_is_the_same_object():
    X = windowed_builtin("half_line", 8)
    P = homology_presentation(X, 1, 1)
    assert homology_presentation(X, 1, 1) is P
    assert homology_presentation(X, 2, 1) is not P
    assert homology_presentation(X, 1, 1, basis_cap=10_000) is not P
    assert homology_presentation(X, 1, 0) is not P


def test_other_scale_or_cap_builds_anew(monkeypatch):
    build = chain_maps._presentation_from_complex
    calls = []
    monkeypatch.setattr(chain_maps, "_presentation_from_complex",
                        lambda *args: calls.append(args[3:]) or build(*args))
    X = cycle_space(7)
    for k, cap in ((1, DEFAULT_CAP), (1, DEFAULT_CAP), (2, DEFAULT_CAP), (1, 500), (2, DEFAULT_CAP)):
        homology_presentation(X, k, 1, cap)
    assert calls == [(1, 1), (1, 2), (1, 1)]  # (degree, scale) of each build


def test_refused_call_refuses_again():
    X = clique_space(6)
    for _ in range(2):
        with pytest.raises(DegreeCapExceeded) as e:
            homology_presentation(X, 1, 1, basis_cap=40)
        assert (e.value.degree, e.value.cap) == (2, 40)
    with pytest.raises(DegreeCapExceeded):
        chain_complex(X, 1, 2, basis_cap=40)
    assert chain_maps._store(X).complexes == {}
    assert chain_complex(X, 1, 1, basis_cap=40).dims() == [6, 30]
    with pytest.raises(DegreeCapExceeded):
        chain_complex(X, 1, 2, basis_cap=40)


def same_complex(a, b):
    return (a.d_max == b.d_max and a.bases == b.bases
            and [m and m.tolist() for m in a.boundaries] == [m and m.tolist() for m in b.boundaries])


def test_prefix_of_a_stored_complex_equals_a_fresh_build():
    rng = random.Random(83)
    for _ in range(6):
        X = random_explicit_space(rng, max_points=9, max_pairs=16)
        deep = chain_complex(X, 1, 3)
        for d in (0, 1, 2):
            fresh = chain_complex(subspace(X, X.points), 1, d)
            assert same_complex(chain_complex(X, 1, d), fresh)
        Y = subspace(X, X.points)  # grown one degree at a time instead
        for d in (0, 1, 2, 3):
            grown = chain_complex(Y, 1, d)
        assert same_complex(grown, deep)


def test_close_pair_builds_two_presentations(monkeypatch):
    build = chain_maps._presentation_from_complex
    calls = []
    monkeypatch.setattr(chain_maps, "_presentation_from_complex",
                        lambda *args: calls.append(args[3:]) or build(*args))
    X = windowed_builtin("half_line", 12)
    f, g = identity_map(X), translate_map(X, 1)
    pr = prism(f, g, 1, 1)
    mf = induced_map(f, 1, 1, target_scale=pr.target_scale).matrix
    mg = induced_map(g, 1, 1, target_scale=pr.target_scale).matrix
    assert pr.verified and mf == mg
    assert calls == [(1, 1), (1, 2)]
    assert sorted(chain_maps._store(X).complexes) == [(1, DEFAULT_CAP), (2, DEFAULT_CAP)]


def test_store_goes_with_its_space():
    gc.disable()
    try:
        X = windowed_builtin("half_line", 10)
        f, g = identity_map(X), translate_map(X, 1)
        prism(f, g, 1, 1)
        induced_map(g, 1, 1)
        alive = weakref.ref(X)
        del X, f, g
        assert alive() is None  # by reference count alone
    finally:
        gc.enable()


# ------------------------------------------------------------------ swindle

def test_swindle_shift_escapes_bounded_set():
    X = windowed_builtin("half_line", 100)
    assert swindle_identity_check(X, translate_map(X, 1), range(11), J=12)


def test_swindle_window_too_small():
    X = windowed_builtin("half_line", 100)
    with pytest.raises(WindowTooSmall) as e:
        swindle_identity_check(X, translate_map(X, 1), range(11), J=5)
    assert e.value.iterate == 5


def test_swindle_empty_bounded_set_vacuous():
    X = windowed_builtin("half_line", 30)
    assert swindle_identity_check(X, translate_map(X, 1), [], J=3)


def test_swindle_identity_never_escapes():
    X = windowed_builtin("half_line", 30)
    with pytest.raises(WindowTooSmall):
        swindle_identity_check(X, identity_map(X), [0], J=8)


def test_swindle_past_the_refusal_always_holds():
    # S - C(f)S - id telescopes to -C(f^(J+1)), which misses B once f^J(X) does
    rng = random.Random(41)
    seen = set()
    for _ in range(100):
        X = windowed_builtin(rng.choice(["half_line", "int_window"]), rng.randint(3, 6))
        pts = list(X.points)
        f = SpaceMap(X, X, {p: rng.choice(pts) for p in pts})
        B = rng.sample(pts, rng.randint(0, 3))
        J, k, n = rng.randint(1, 6), rng.randint(0, 2), rng.randint(0, 2)
        outcome = swindle_outcome(swindle_identity_check, X, f, B, J, k=k, n=n)
        seen.add(outcome if outcome is True else outcome[0])
    assert seen == {True, "WindowTooSmall"}


def summed_swindle(X, f, B, J, k=1, n=1):
    """swindle_identity_check's verdict with S summed one chain map at a time, S = S + M."""
    B = set(B)
    powers = [identity_map(X)]
    for _ in range(J):
        powers.append(f.compose(powers[-1]))
    hit = B & powers[J].image()
    if hit:
        raise WindowTooSmall(J, min(hit))
    K0 = max([k] + [chain_maps._controlled_shift(p, k) for p in powers])
    K1 = max(K0, chain_maps._controlled_shift(f, K0))

    def chain(p, src, tgt):
        index = {t: i for i, t in enumerate(tgt)}
        rows = [{} for _ in tgt]
        for c, t in enumerate(src):
            img = tuple(map(p, t))
            if all(a != b for a, b in zip(img, img[1:])):
                rows[index[img]][c] = 1
        return IntMatrix((len(tgt), len(src)), rows)

    for deg in range(n + 1):
        Bk, B0, B1 = (controlled_tuples(X, s, deg) for s in (k, K0, K1))
        S = chain(powers[0], Bk, B0)
        for p in powers[1:]:
            S = S + chain(p, Bk, B0)
        lhs = chain(powers[0], B0, B1) @ S - chain(f, B0, B1) @ S - chain(powers[0], Bk, B1)
        if any(row and B & set(t) for row, t in zip(lhs.rows, B1)):
            return False
    return True


def swindle_outcome(check, *args, **kw):
    try:
        return check(*args, **kw)
    except WindowTooSmall as e:
        return ("WindowTooSmall", e.iterate, e.witness)


@pytest.mark.parametrize("radius, delta, B, J, k, n", [
    (30, 1, range(6), 8, 1, 1),
    (30, 2, range(6), 3, 1, 2),
    (30, 2, [4, 9], 6, 2, 1),
    (20, 3, [0, 1], 1, 0, 2),
    (20, 1, range(6), 4, 1, 1),  # f^4 still meets B at 4
    (20, 1, [], 2, 1, 1),
])
def test_swindle_matches_the_summed_form(radius, delta, B, J, k, n):
    X = windowed_builtin("half_line", radius)
    f = translate_map(X, delta)
    got = swindle_outcome(swindle_identity_check, X, f, B, J, k=k, n=n)
    assert got == swindle_outcome(summed_swindle, X, f, B, J, k=k, n=n)
    assert got in (True, ("WindowTooSmall", 4, 4))


def test_summed_chain_map_counts_every_power():
    # the clamped shift fixes the window edge, so powers f^j, j >= 10 - x, all send x there
    X = windowed_builtin("half_line", 10)
    powers = [translate_map(X, 1).power(j) for j in range(13)]
    for deg in range(3):
        basis = controlled_tuples(X, 1, deg)
        index = {t: i for i, t in enumerate(basis)}
        S = chain_maps._chain_map_matrix(basis, index, *powers)
        summed = chain_maps._chain_map_matrix(basis, index, powers[0])
        for p in powers[1:]:
            summed = summed + chain_maps._chain_map_matrix(basis, index, p)
        assert (S.shape, S.rows) == (summed.shape, summed.rows)
        if deg == 0:
            assert [S.rows[10][x] for x in range(11)] == [min(13, 3 + x) for x in range(11)]


def test_swindle_false_verdict_matches_the_summed_form(monkeypatch):
    # past the refusal the identity always holds: the sum telescopes to -f^(J+1),
    # whose tuples lie in f^J(X); powers that skip every other iterate break it
    X = windowed_builtin("half_line", 30)
    f = translate_map(X, 1)

    def skipping_compose(self, first):
        return SpaceMap(first.source, self.target,
                        {x: self.table[self.table[y]] for x, y in first.table.items()})

    monkeypatch.setattr(SpaceMap, "compose", skipping_compose)
    assert swindle_identity_check(X, f, range(11), J=6) is False
    assert summed_swindle(X, f, range(11), J=6) is False


# -------------------------------------------------------- relative homology

def test_relative_to_whole_space_vanishes():
    X = path_space(6)
    fam = make_big_family(X, [X.points])
    rel = relative_homology(X, fam, 1, 2)
    assert all(g.trivial for g in rel.groups)
    assert rel.prefix_index == 0


def test_relative_to_empty_member_is_absolute():
    X = path_space(6)
    fam = make_big_family(X, [[]])
    rel = relative_homology(X, fam, 1, 2)
    assert rel.groups == homology_at_scale(X, 1, 2)


def test_relative_kills_thickened_ray():
    X = windowed_builtin("half_line", 20)
    fam = big_family_generated(X, [0], 10)
    rel = relative_homology(X, fam, 1, 1)
    # every class retracts into the quotiented prefix member one step at a time
    assert all(g.trivial for g in rel.groups)
    assert rel.prefix_index == 10
    assert rel.member == frozenset(range(11))
    assert any("window" in w for w in rel.warnings)


def test_relative_sees_untouched_component():
    pts = [0, 1, 2, 10, 11, 12]
    X = make_explicit_space(
        pts, [[(0, 1), (1, 2), (10, 11), (11, 12)]], [pts]
    )
    fam = make_big_family(X, [[0, 1, 2]])
    rel = relative_homology(X, fam, 1, 1)
    assert rel.groups == [Z, ZERO]


# ------------------------------------------------------------------ mv_check

def test_mv_path_window_report():
    X = path_space(20)
    Z_part = list(range(8, 21))
    fam = big_family_generated(X, [0], 12)
    rep = mv_check(X, Z_part, fam, 1, 2)
    assert rep.all_iso and rep.basis_bijection
    assert rep.iso == [True, True, True]
    assert rep.complement_index == 7 and rep.prefix_index == 8
    assert rep.groups_sub == rep.groups_full


def test_mv_whole_space_complement():
    X = path_space(10)
    fam = big_family_generated(X, [0], 4)
    rep = mv_check(X, X.points, fam, 1, 1)
    assert rep.complement_index == 0 and rep.all_iso


def test_mv_grid_half_planes():
    X = windowed_builtin("grid2_window", 2)
    left = [p for p in X.points if p[0] <= 0]
    right = [p for p in X.points if p[0] >= 0]
    fam = big_family_generated(X, left, 3)
    rep = mv_check(X, right, fam, 1, 2)
    assert rep.all_iso and rep.basis_bijection


def test_mv_not_complementary():
    X = path_space(20)
    fam = big_family_generated(X, [0], 8)
    with pytest.raises(NotComplementary):
        mv_check(X, list(range(6)), fam, 1, 1)


def test_mv_prefix_too_short():
    X = path_space(20)
    fam = make_big_family(X, [list(range(9))], scale_cap=0)
    with pytest.raises(PrefixTooShort) as e:
        mv_check(X, list(range(6, 21)), fam, 1, 1)
    assert e.value.member_index == 0 and e.value.scale == 1


def test_mv_refuses_a_false_witness_with_the_simplex_outside_Z():
    # closure_at(1)[Y_0] = -5..1 is not in Y_0, so the witness (0, 1) -> 0 is false
    X = windowed_builtin("int_window", 5)
    members = (frozenset(range(-5, 1)), frozenset(range(-5, 2)))
    fam = BigFamilyPrefix(members, {(0, 1): 0})
    with pytest.raises(HomologyError, match=r"simplex \(0, 1\) of the relative complex"):
        mv_check(X, range(1, 6), fam, 1, 1)
    # with 0 in Z the two relative complexes are still equal, so it answers
    rep = mv_check(X, range(0, 6), fam, 1, 1)
    assert rep.iso == [True, True] and rep.basis_bijection
    assert rep.groups_sub == rep.groups_full == [ZERO, ZERO]


def test_mv_reads_the_groups_without_presentations(monkeypatch):
    def no_presentation(*args):
        raise AssertionError("a presentation or a pushforward was built")

    monkeypatch.setattr(chain_maps, "_presentation_from_complex", no_presentation)
    monkeypatch.setattr(chain_maps, "_on_homology", no_presentation)
    X = path_space(20)
    rep = mv_check(X, list(range(8, 21)), big_family_generated(X, [0], 12), 1, 2)
    assert rep.iso == [True, True, True] and rep.basis_bijection
    X, _, fam, Z = rp2_excision_case()
    rep = mv_check(X, Z, fam, 1, 1)
    assert rep.groups_full == rep.groups_sub == [ZERO, FGAbGroup(0, (2,))] and rep.all_iso


def test_empty_family_is_refused():
    X = path_space(6)
    fam = make_big_family(X, [])
    with pytest.raises(NotComplementary, match=r"sample uncovered points \[0, 1, 2\]"):
        mv_check(X, [3, 4, 5, 6], fam, 1, 1)
    with pytest.raises(HomologyError, match="no member"):
        relative_homology(X, fam, 1, 1)


def test_mv_one_skeleton_check_matches_the_whole_complex_scan():
    # hand-built two-member families: Y_0 completes Z to X and the witness (0, k) -> 1 is
    # true when Y_1 holds closure_at(k)[Y_0], false otherwise; Y_1 need not hold Y_0, so a
    # vertex outside Y_1 can miss Z too
    rng = random.Random(131)
    seen = {"vertex": 0, "edge": 0, "higher": 0, "answered": 0}
    for _ in range(60):
        X = random_explicit_space(rng, max_points=9, max_pairs=20)
        pts = list(X.points)
        edges = [pair for E in X.coarse.generators for pair in E.pairs]
        k, d_max = rng.randint(1, 2), rng.randint(1, 2)
        Y0 = frozenset(p for p in pts if rng.random() < 0.4)
        Z = frozenset(p for p in pts if p not in Y0 or rng.random() < 0.3)
        grown = X.coarse.thicken(k, Y0) if rng.random() < 0.5 else Y0
        Y1 = frozenset(p for p in pts if (p in grown) != (rng.random() < 0.15))
        fam = BigFamilyPrefix((Y0, Y1), {(0, k): 1})
        want = oracles.first_simplex_outside(pts, edges, k, d_max, Y1, Z)
        if want is None:
            rep = mv_check(X, Z, fam, k, d_max)
            assert rep.groups_full == rep.groups_sub == relative_reference(X, k, d_max, Y1)[0]
            seen["answered"] += 1
            continue
        with pytest.raises(HomologyError) as e:
            mv_check(X, Z, fam, k, d_max)
        assert str(e.value).startswith(f"simplex {want} of the relative complex of X at scale {k} "), (pts, Y1, Z)
        seen[["vertex", "edge"][len(want) - 1] if len(want) <= 2 else "higher"] += 1
    # a check that reads only the vertices answers where the scan names an edge
    assert seen["vertex"] > 5 and seen["edge"] > 5 and seen["answered"] > 5 and seen["higher"] == 0, seen


# ------------------------------------ relative routes against the tuple quotient

def relative_reference(X, k, d_max, Y, Z=None):
    """The oracle's quotient groups as FGAbGroups, and its named quotient bases."""
    edges = [pair for E in X.coarse.generators for pair in E.pairs]
    raw, bases = oracles.relative_homology_reference(list(X.points), edges, k, d_max, Y, Z)
    return [FGAbGroup(f, tuple(t)) for f, t in raw], bases


def relative_mismatches(X, k, d_max, Y, fam, Z):
    """What relative_homology(X, Y) and mv_check(X, Z, fam) get wrong against the oracle."""
    wrong = []
    if relative_homology(X, make_big_family(X, [Y]), k, d_max).groups != relative_reference(X, k, d_max, Y)[0]:
        wrong.append("relative")
    rep = mv_check(X, Z, fam, k, d_max)
    Ym = fam.members[rep.prefix_index]
    full, full_bases = relative_reference(X, k, d_max, Ym)
    sub, sub_bases = relative_reference(X, k, d_max, Ym, Z)
    if (rep.groups_full, rep.groups_sub) != (full, sub):
        wrong.append("mv groups")
    # a quotient tuple lies in Z exactly when its simplex does
    if rep.basis_bijection != (full_bases == sub_bases):
        wrong.append("mv bijection")
    # equal complexes make the inclusion the identity; an isomorphism keeps the group
    if (rep.basis_bijection and not rep.all_iso) or any(iso and a != b for iso, a, b in zip(rep.iso, sub, full)):
        wrong.append("mv iso")
    return wrong


def rp2_excision_case():
    X = rp2_subdivision()
    v = X.points[0]
    return X, frozenset([v]), big_family_generated(X, [v], 2), X.points


def test_relative_routes_match_quotient_oracle():
    rng = random.Random(83)
    X = path_space(6)
    cases = [(X, 1, 2, frozenset({0, 1}), big_family_generated(X, [0], 6), list(range(2, 7)))]
    while len(cases) < 30:
        X = random_explicit_space(rng, max_points=9, max_pairs=16)
        pts = list(X.points)
        A = [p for p in pts if rng.random() < 0.4]
        Z = [p for p in pts if p not in A or rng.random() < 0.3]
        cases.append((X, rng.randint(1, 2), rng.randint(1, 2), frozenset(p for p in pts if rng.random() < 0.5),
                      big_family_generated(X, A, len(pts) + 2), Z))
    for X, k, d_max, Y, fam, Z in cases:
        assert relative_mismatches(X, k, d_max, Y, fam, Z) == [], (list(X.points), k, d_max, Y, Z)
    # torsion: RP^2 relative to one vertex, and to the star of that vertex
    X, Y, fam, Z = rp2_excision_case()
    assert relative_mismatches(X, 1, 1, Y, fam, Z) == []
    assert relative_homology(X, make_big_family(X, [Y]), 1, 1).groups == [ZERO, FGAbGroup(0, (2,))]
    rep = mv_check(X, Z, fam, 1, 1)
    assert rep.groups_full == rep.groups_sub == [ZERO, FGAbGroup(0, (2,))] and rep.all_iso


def test_relative_routes_enumerate_no_tuple(monkeypatch):
    def no_tuples(*args):
        raise AssertionError("a controlled tuple was enumerated")

    monkeypatch.setattr(chain_maps, "_iter_controlled", no_tuples)
    X = path_space(20)
    fam = big_family_generated(X, [0], 12)
    assert all(g.trivial for g in relative_homology(X, fam, 1, 2).groups)
    rep = mv_check(X, list(range(8, 21)), fam, 1, 2)
    assert rep.iso == [True, True, True] and rep.basis_bijection
    X, Y, fam, Z = rp2_excision_case()
    assert relative_homology(X, make_big_family(X, [Y]), 1, 1).groups == [ZERO, FGAbGroup(0, (2,))]
    assert mv_check(X, Z, fam, 1, 1).all_iso


def quotient_refusal(X, k, top, cap, Y):
    """(degree, message) of the least degree through top whose quotient tuples pass cap, by the oracle."""
    edges = [pair for E in X.coarse.generators for pair in E.pairs]
    for n in range(top + 1):
        if len(oracles.quotient_tuples_reference(list(X.points), edges, k, n, Y)) > cap:
            return n, (f"basis in degree {n} at scale {k} exceeds the cap of {cap} tuples; "
                       "raise basis_cap to proceed")
    return None


def lollipop(m, tail):
    """A clique on 0..m-1 with a path from m-1 out to m-1+tail."""
    pts = list(range(m + tail))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)] + [(i, i + 1) for i in range(m - 1, m + tail - 1)]
    return make_explicit_space(pts, [pairs], [pts])


def test_relative_cap_refusal_matches_quotient_count():
    # Y_1 holds the clique and one path point: almost all of X's tuples, few of the quotient's
    X = lollipop(7, 8)
    fam = big_family_generated(X, range(7), 1)
    Z = list(range(6, 15))
    assert fam.witness[(0, 1)] == 1
    # the quotient has 7, 14, 14, 14 tuples in degrees 0..3, X itself 15, 58, 268, 1528
    for cap, degree in ((5, 0), (10, 1), (14, None), (50, None), (1527, None)):
        want = quotient_refusal(X, 1, 3, cap, fam.members[1])
        assert (want and want[0]) == degree
        assert cap_outcome(lambda: relative_homology(X, fam, 1, 2, cap)) == want
        assert cap_outcome(lambda: mv_check(X, Z, fam, 1, 2, cap)) == want
        # a cap on X's own tuples would refuse every one
        assert cap_outcome(lambda: chain_complex(X, 1, 3, cap)) is not None
    # seeded sweep: both routes refuse where the oracle's quotient count does, or answer
    rng = random.Random(89)
    refused = answered = 0
    for _ in range(16):
        X = random_explicit_space(rng, max_points=9, max_pairs=18)
        pts = list(X.points)
        A = [p for p in pts if rng.random() < 0.3]
        fam = big_family_generated(X, A, len(pts) + 2)
        k, d_max = rng.randint(1, 2), rng.randint(1, 2)
        rep = mv_check(X, pts, fam, k, d_max, None)  # the member mv_check quotients by
        rel_fam = make_big_family(X, [fam.members[rep.prefix_index]])
        for cap in (0, 4, 12, 40, 150):
            want = quotient_refusal(X, k, d_max + 1, cap, fam.members[rep.prefix_index])
            assert cap_outcome(lambda: relative_homology(X, rel_fam, k, d_max, cap)) == want
            assert cap_outcome(lambda: mv_check(X, pts, fam, k, d_max, cap)) == want
            refused += want is not None
            answered += want is None
    assert refused > 15 and answered > 15


def test_planted_relative_face_faults_are_caught(monkeypatch):
    chains = homology_engine._clique_chains
    X = path_space(4)
    assert relative_mismatches(X, 1, 1, frozenset({0}), big_family_generated(X, [0], 4), list(range(1, 5))) == []
    # the path collapses to the point of Y, so its relative complex is empty and no face fault
    # reaches a boundary; the hexagon relative to one vertex keeps its whole core
    X = HEX
    fam = big_family_generated(X, [0], 6)
    Y, Z = frozenset({0}), list(range(1, 6))
    assert homology_engine._core(X.coarse.graph(1), [p in Y for p in X.points])[1] == []
    assert relative_mismatches(X, 1, 1, Y, fam, Z) == []

    def plant(fault):
        def planted(sets, top, cap=None, scale=None, tuples=False, inside=None, alive=None):
            simplices, facets = chains(sets, top, cap, scale, tuples, inside, alive)
            order = chain_order(len(sets), inside, alive)
            for n in range(1, len(facets)):
                facets[n] = [fault(simplices[n - 1], s, fs, order, inside) for s, fs in zip(simplices[n], facets[n])]
            return simplices, facets
        monkeypatch.setattr(homology_engine, "_clique_chains", planted)

    # a face wholly in Y kept, as the first simplex of its level: at scale 2 the hexagon is the
    # octahedron, with no domination, and Y_m = {4, 5, 0, 1, 2}; each triangle on 3 has an edge
    # wholly in Y_m, so its boundary no longer bounds and the d∘d check refuses it
    def keeps_faces_in_y(below, s, fs, order, inside):
        return tuple(0 if f is None else f for f in fs)

    rep = mv_check(X, Z, fam, 2, 1)
    Ym = fam.members[rep.prefix_index]
    assert Ym == frozenset({4, 5, 0, 1, 2}) and homology_engine._core(X.coarse.graph(2))[1] == []
    assert relative_mismatches(X, 2, 1, Ym, fam, Z) == []
    plant(keeps_faces_in_y)
    with pytest.raises(HomologyError, match="complex identity"):
        relative_homology(X, make_big_family(X, [Ym]), 2, 1)
    with pytest.raises(HomologyError, match="complex identity"):
        mv_check(X, Z, fam, 2, 1)

    # a face outside Y dropped: the vertex at index 2, outside Y and Y_m = {5, 0, 1}, is
    # masked in boundaries only
    def drops_vertex_2(below, s, fs, order, inside):
        masked = [inside is not None and (order[v] == 2 or inside[order[v]]) for v in s]
        return tuple(None if all(masked[:i] + masked[i + 1:]) else f for i, f in enumerate(fs))

    plant(drops_vertex_2)
    wrong = relative_mismatches(X, 1, 1, Y, fam, Z)
    assert "relative" in wrong and "mv groups" in wrong


# ------------------------------------------------------------ clique backend

def test_rips_point():
    C = rips_complex(POINT, 1, 2)
    assert C.vertices == ["*"]
    assert C.simplices[0] == [(0,)]
    assert C.betti(2) == [1, 0, 0]


def test_rips_hexagon_scales():
    assert rips_complex(HEX, 1, 3).betti(2) == [1, 1, 0]
    assert rips_complex(HEX, 2, 3).betti(2) == [1, 0, 1]
    assert rips_complex(HEX, 3, 3).betti(2) == [1, 0, 0]


def test_rips_full_clique_counts():
    C = rips_complex(clique_space(5), 1, 4)
    assert [len(s) for s in C.simplices] == [5, 10, 10, 5, 1]
    assert C.betti(3) == [1, 0, 0, 0]


def test_rips_induced_on_subset():
    X12 = cycle_space(12)
    C = rips_complex(X12, 2, 3, points=[0, 2, 4, 6, 8, 10])
    assert C.vertices == [0, 2, 4, 6, 8, 10]
    assert C.betti(2) == [1, 1, 0]


def test_backends_and_oracle_agree():
    rng = random.Random(29)
    for _ in range(8):
        X = random_explicit_space(rng, max_points=11, max_pairs=20)
        tuple_route = tuple_groups_via_oracle(X, 1, 2)
        clique_route = rips_complex(X, 1, 3).homology(2)
        assert tuple_route == clique_route == groups_via_oracle(X, 1, 2)
        assert homology_at_scale(X, 1, 2) == tuple_route


def test_rips_respects_cap():
    with pytest.raises(DegreeCapExceeded) as e:
        rips_complex(clique_space(8), 1, 3, basis_cap=20)
    assert str(e.value) == ("basis in degree 1 at scale 1 exceeds the cap of 20 simplices; "
                            "raise basis_cap to proceed")


# ------------------------------------------------ tuple/clique comparison

def comparison_maps(X, k, top):
    """Both complexes of X at scale k through degree top, and the maps between them.

    phi_n sends an n-simplex to its increasing tuple; psi_n sends a tuple with
    distinct entries to the sorted simplex, signed by the parity of the
    sorting permutation, and any other tuple to 0.
    """
    cc = chain_complex(X, k, top, None)
    K = rips_complex(X, k, top, basis_cap=None)
    pts = list(X.points)
    order = {p: i for i, p in enumerate(pts)}
    phi, psi = [], []
    for n in range(top + 1):
        tuples, simplices = cc.bases[n], K.simplices[n]
        t_index = {t: i for i, t in enumerate(tuples)}
        s_index = {s: i for i, s in enumerate(simplices)}
        rows = [{} for _ in tuples]
        for col, s in enumerate(simplices):
            rows[t_index[tuple(pts[i] for i in s)]][col] = 1
        phi.append(IntMatrix((len(tuples), len(simplices)), rows))
        rows = [{} for _ in simplices]
        for col, t in enumerate(tuples):
            idx = [order[p] for p in t]
            if len(set(idx)) == len(idx):
                inversions = sum(a > b for a, b in combinations(idx, 2))
                rows[s_index[tuple(sorted(idx))]][col] = -1 if inversions % 2 else 1
        psi.append(IntMatrix((len(simplices), len(tuples)), rows))
    d_simplex = [None] + [K.boundary(n) for n in range(1, top + 1)]
    return cc.boundaries, d_simplex, phi, psi


def comparison_failures(d_tuple, d_simplex, phi, psi):
    """The identities d phi = phi d, d psi = psi d and psi phi = id that fail, by degree."""
    failed = []
    for n in range(len(phi)):
        size = phi[n].shape[1]
        if psi[n] @ phi[n] - IntMatrix((size, size), [{i: 1} for i in range(size)]):
            failed.append(("psi phi", n))
        if n and d_tuple[n] @ phi[n] - phi[n - 1] @ d_simplex[n]:
            failed.append(("d phi", n))
        if n and d_simplex[n] @ psi[n] - psi[n - 1] @ d_tuple[n]:
            failed.append(("d psi", n))
    return failed


def test_comparison_maps_are_chain_maps():
    rng = random.Random(41)
    cases = [(HEX, 1), (HEX, 2), (windowed_builtin("int_window", 10), 3),
             (windowed_builtin("grid2_window", 3), 2), (rp2_subdivision(), 1)]
    cases += [(random_explicit_space(rng, max_points=9, max_pairs=16), k) for k in (1, 2, 3)]
    for X, k in cases:
        maps = comparison_maps(X, k, 3)
        assert comparison_failures(*maps) == []


def test_comparison_map_sign_flip_fails():
    d_tuple, d_simplex, phi, psi = comparison_maps(HEX, 1, 2)
    # the tuple (1, 0) goes to -[0, 1]; flipping it breaks d psi = psi d in degree 1
    col = chain_complex(HEX, 1, 1, None).bases[1].index((1, 0))
    row = next(r for r, entries in enumerate(psi[1].rows) if col in entries)
    assert psi[1].rows[row][col] == -1
    psi[1].rows[row][col] = 1
    assert ("d psi", 1) in comparison_failures(d_tuple, d_simplex, phi, psi)


# --------------------------------------------------- basis_cap on cliques

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_tuple_count_from_clique_counts(seed, k):
    X = random_explicit_space(random.Random(seed), max_points=10, max_pairs=18)
    levels = homology_engine._clique_chains(X.coarse.graph(k).sets, 3)[0]
    counts = [len(level) for level in levels]
    for n in range(4):
        assert homology_engine._tuple_count(counts, n) == len(controlled_tuples(X, k, n, None))


def cap_outcome(call):
    try:
        call()
    except DegreeCapExceeded as e:
        return e.degree, str(e)
    return None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(0, 2), st.integers(0, 1200))
def test_cap_refusal_matches_tuple_route(seed, k, d_max, cap):
    X = random_explicit_space(random.Random(seed), max_points=10, max_pairs=18)
    assert (cap_outcome(lambda: homology_at_scale(X, k, d_max, cap))
            == cap_outcome(lambda: chain_complex(X, k, d_max + 1, cap)))


def test_cap_refusal_sweep_matches_tuple_route():
    rng = random.Random(53)
    spaces = [HEX, rp2_subdivision(), windowed_builtin("int_window", 10),
              windowed_builtin("grid2_window", 3), windowed_builtin("half_line", 6)]
    spaces += [random_explicit_space(rng, max_points=14, max_pairs=30) for _ in range(6)]
    refused = 0
    for X in spaces:
        for k in (1, 2, 3):
            for cap in (50, 200, 1000):
                want = cap_outcome(lambda: chain_complex(X, k, 3, cap))
                assert cap_outcome(lambda: homology_at_scale(X, k, 2, cap)) == want
                refused += want is not None
    assert refused > 10


def test_homology_at_scale_enumerates_no_tuple(monkeypatch):
    def no_tuples(*args):
        raise AssertionError("a controlled tuple was enumerated")

    monkeypatch.setattr(chain_maps, "_iter_controlled", no_tuples)
    assert homology_at_scale(HEX, 2, 2) == [Z, ZERO, Z]
    assert homology_colimit(windowed_builtin("half_line", 4), 2)[0] == [Z, ZERO, ZERO]
    with pytest.raises(DegreeCapExceeded) as e:
        homology_at_scale(windowed_builtin("int_window", 10), 3, 2, basis_cap=500)
    assert (e.value.degree, e.value.scale, e.value.cap) == (3, 3, 500)


# ------------------------------------------------------- strong-collapse core

def full_clique_groups(g, d_max, inside=None):
    """Groups of the whole clique complex of g (relative to the mask inside), every full
    boundary reduced: no collapse, no spanning forest, no row dropped."""
    cliques = ground_cliques(g, d_max + 1, inside)
    raw = oracles.full_boundary_groups(cliques, d_max, homology_engine._sparse_invariants, inside)
    return [FGAbGroup(f, tuple(t)) for f, t in raw]


def core_route_mismatches(X, k, d_max, Y):
    """What homology_at_scale and relative_homology to Y get wrong against the whole complex,
    and the deletions of the absolute and the relative collapse."""
    g = X.coarse.graph(k)
    inside = [p in Y for p in g.points]
    wrong = []
    if homology_at_scale(X, k, d_max) != full_clique_groups(g, d_max):
        wrong.append("absolute")
    if relative_homology(X, make_big_family(X, [Y]), k, d_max).groups != full_clique_groups(g, d_max, inside):
        wrong.append("relative")
    return wrong, len(homology_engine._core(g)[1]), len(homology_engine._core(g, inside)[1])


def with_hairs(X, rng, hairs=8):
    """X with points that collapse away: each hair is related to a point and to one of that
    point's neighbours, or to the point alone, so its closed neighbourhood lies in the
    point's, and hairs grow on hairs; the scale-1 groups do not change."""
    pts = list(X.points)
    pairs = [pair for E in X.coarse.generators for pair in E.pairs]
    nbrs = {p: set() for p in pts}
    for a, b in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    for i in range(hairs):
        h, v = f"hair{i}", rng.choice(pts)
        ends = [v] + ([rng.choice(sorted(nbrs[v], key=str))] if nbrs[v] and rng.random() < 0.7 else [])
        nbrs[h] = set(ends)
        for u in ends:
            nbrs[u].add(h)
            pairs.append((h, u))
        pts.append(h)
    return make_explicit_space(pts, [pairs], [pts])


def test_core_matches_full_complex_on_random_spaces():
    rng = random.Random(97)
    collapsed = pair_blocked = 0
    for _ in range(40):
        X = random_explicit_space(rng, max_points=12, max_pairs=26)
        Y = frozenset(p for p in X.points if rng.random() < 0.4)
        k, d_max = rng.randint(1, 2), rng.randint(1, 3)
        wrong, absolute, relative = core_route_mismatches(X, k, d_max, Y)
        assert wrong == [], (list(X.points), [sorted(E.pairs) for E in X.coarse.generators], k, d_max, Y)
        collapsed += relative > 0
        pair_blocked += relative < absolute
    # the pair rule leaves more points than the absolute rule in some of them
    assert collapsed > 20 and pair_blocked > 0


@pytest.mark.parametrize("name", TORSION_SPACES)
def test_core_matches_full_complex_with_torsion(name):
    X = TORSION_SPACES[name]()
    rng = random.Random(name)
    hairy = with_hairs(X, rng)
    d_max = 3 if name.startswith("suspended") else 2
    assert homology_at_scale(hairy, 1, d_max) == rips_complex(X, 1, d_max + 1).homology(d_max)
    for _ in range(3):
        Y = frozenset(p for p in hairy.points if rng.random() < 0.3)
        wrong, absolute, relative = core_route_mismatches(hairy, 1, d_max, Y)
        assert wrong == [] and absolute >= 8 and relative > 0


def coarsify_outcome(X, k, d_max, cap=DEFAULT_CAP):
    """coarsify_homology's groups at k, against rips_complex(X, k, d_max + 1).homology(d_max):
    each as the groups, or as (degree, message) of a refusal."""
    def outcome(call):
        try:
            return call()
        except DegreeCapExceeded as e:
            return e.degree, str(e)

    return (outcome(lambda: coarsify_homology(X, [k], d_max, cap).table[k]),
            outcome(lambda: rips_complex(X, k, d_max + 1, cap).homology(d_max)))


@pytest.mark.parametrize("name", ["rp2", "klein", "moore2", "moore3", "moore5"])
def test_coarsified_table_matches_the_reference_with_torsion(name):
    hairy = with_hairs(TORSION_SPACES[name](), random.Random(name))
    assert homology_engine._core(hairy.coarse.graph(1))[1]  # the core is not the whole complex
    table, reference = coarsify_outcome(hairy, 1, 2)
    assert table == reference and reference[1].torsion
    total = sum(map(len, rips_complex(hairy, 1, 3).simplices))
    assert coarsify_outcome(hairy, 1, 2, total) == (reference, reference)
    table, reference = coarsify_outcome(hairy, 1, 2, total - 1)
    assert table == reference == (2, f"basis in degree 2 at scale 1 exceeds the cap of {total - 1} simplices; "
                                     "raise basis_cap to proceed")


def test_coarsified_table_matches_the_reference_under_a_cap_sweep():
    rng = random.Random(137)
    refused = room_answered = 0
    for _ in range(40):
        X = random_explicit_space(rng, max_points=11, max_pairs=24)
        k, d_max = rng.randint(1, 2), rng.randint(0, 2)
        g = X.coarse.graph(k)
        total = sum(map(len, rips_complex(X, k, d_max + 1, None).simplices))
        for cap in (None, 0, total // 2, total - 1, total, total + 3, DEFAULT_CAP):
            table, reference = coarsify_outcome(X, k, d_max, cap)
            assert table == reference, (list(X.points), k, d_max, cap)
            refused += isinstance(reference, tuple)
            room = cap is not None and not homology_engine._cap_cannot_refuse(g, d_max + 1, cap, False)
            room_answered += room and not isinstance(reference, tuple)
    # caps where only the whole count decides: refusals, and answers the bound alone could not give
    assert refused > 60 and room_answered > 12, (refused, room_answered)


def star_and_cone():
    """Two pairs whose points of Y are each dominated by a point outside Y only: a star
    relative to its leaves, and the cone over the hexagon relative to the hexagon."""
    star = make_explicit_space(list(range(5)), [[(0, i) for i in range(1, 5)]], [list(range(5))])
    pts = list(range(6)) + ["apex"]
    cone = make_explicit_space(pts, [[(i, (i + 1) % 6) for i in range(6)] + [(i, "apex") for i in range(6)]], [pts])
    return [(star, frozenset(range(1, 5)), [ZERO, FGAbGroup(3)]),
            (cone, frozenset(range(6)), [ZERO, ZERO, Z])]


def test_pair_rule_keeps_the_relative_groups():
    for X, Y, want in star_and_cone():
        g = X.coarse.graph(1)
        inside = [p in Y for p in g.points]
        assert homology_engine._core(g)[1] and homology_engine._core(g, inside)[1] == []
        assert core_route_mismatches(X, 1, len(want) - 1, Y)[0] == []
        assert relative_homology(X, make_big_family(X, [Y]), 1, len(want) - 1).groups == want


def test_planted_false_domination_is_refused_by_the_replay(monkeypatch):
    core = homology_engine._core

    def corrupt(fault):
        monkeypatch.setattr(homology_engine, "_core",
                            lambda g, inside=None: (lambda alive, d: (alive, fault(d)))(*core(g, inside)))

    X = path_space(4)
    assert core(X.coarse.graph(1)) == ([False] * 4 + [True], [(0, 1), (1, 2), (2, 3), (3, 4)])
    # 0 under 2, which is not related to it
    corrupt(lambda d: [(0, 2)] + d[1:])
    with pytest.raises(HomologyError, match="deletes 0 under 2, which does not dominate it"):
        homology_at_scale(X, 1, 1)
    # 1 under 0, deleted just before
    corrupt(lambda d: [(0, 1), (1, 0)] + d[2:])
    with pytest.raises(HomologyError, match="deletes 1 under 0, which does not dominate it"):
        homology_at_scale(X, 1, 1)
    # a deletion left out of the record
    corrupt(lambda d: d[:-1])
    with pytest.raises(HomologyError, match="not the points its deletions leave"):
        homology_at_scale(X, 1, 1)
    # the absolute rule on a pair: a leaf of Y deleted under the centre, outside Y
    monkeypatch.setattr(homology_engine, "_core", lambda g, inside=None: core(g))
    X, Y, _ = star_and_cone()[0]
    with pytest.raises(HomologyError, match="deletes 1, a point of Y, under 0, a point outside Y"):
        relative_homology(X, make_big_family(X, [Y]), 1, 1)


def test_cap_past_the_degree_bound_checks_the_whole_complex(monkeypatch):
    chains = homology_engine._clique_chains
    built = []  # (vertices enumerated, cap) per enumeration

    def recording(sets, top, cap=None, *rest, alive=None, **kw):
        built.append((len(sets) if alive is None else sum(alive), cap))
        return chains(sets, top, cap, *rest, alive=alive, **kw)

    monkeypatch.setattr(homology_engine, "_clique_chains", recording)
    # the 12-cycle through degree 2: 24 tuples in degrees 1 and 2, but its degrees bound
    # 12 edges and 4 triangles, so 48 tuples in degree 2
    X = cycle_space(12)
    g = X.coarse.graph(1)
    assert [homology_engine._tuple_count([12, 12, 0], n) for n in range(3)] == [12, 24, 24]
    assert [homology_engine._tuple_count([12, 12, 4], n) for n in range(3)] == [12, 24, 48]
    assert not homology_engine._cap_cannot_refuse(g, 2, 30) and homology_engine._cap_cannot_refuse(g, 2, 48)
    assert homology_at_scale(X, 1, 1, basis_cap=30) == [Z, Z]
    assert built == [(12, 30)]  # nothing collapses, so the checked complex is the one reduced
    assert cap_outcome(lambda: chain_complex(X, 1, 2, 30)) is None
    assert cap_outcome(lambda: homology_at_scale(X, 1, 1, basis_cap=23)) == cap_outcome(
        lambda: chain_complex(X, 1, 2, 23)) == (1, "basis in degree 1 at scale 1 exceeds the cap of 23 tuples; "
                                                   "raise basis_cap to proceed")
    # within the bound only the core is enumerated: a path collapses to one point
    built.clear()
    assert homology_at_scale(path_space(30), 1, 2) == [Z, ZERO, ZERO]
    assert built == [(1, None)]


def test_a_level_stops_growing_once_past_the_cap():
    # the complete graph on 400 points under a cap of 450 simplices: the vertices fit, and the
    # edges stop just past the 50 left (the 399 of the first vertex), not all 79,800 built first
    sets = [set(range(400))] * 400
    tracemalloc.start()
    try:
        with pytest.raises(DegreeCapExceeded, match="basis in degree 1 exceeds the cap of 450 simplices"):
            homology_engine._clique_chains(sets, 2, 450)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ------------------------------------------------------------------ degrees

PATH8 = path_space(8)
PATH8_FAMILY = big_family_generated(PATH8, [0], 6)
HALF30 = windowed_builtin("half_line", 30)

# every entry that takes a degree, as a call with that degree
DEGREE_ENTRIES = {
    "controlled_tuples": lambda n: controlled_tuples(PATH8, 1, n),
    "chain_complex": lambda n: chain_complex(PATH8, 1, n),
    "verify_complex_identity": lambda n: verify_complex_identity(PATH8, 1, n),
    "homology_presentation": lambda n: homology_presentation(PATH8, 1, n),
    "induced_map": lambda n: induced_map(identity_map(HEX), 1, n),
    "prism": lambda n: prism(identity_map(HEX), identity_map(HEX), 1, n),
    "swindle_identity_check": lambda n: swindle_identity_check(HALF30, translate_map(HALF30, 1), [], J=3, n=n),
    "homology_at_scale": lambda n: homology_at_scale(PATH8, 1, n),
    "homology_colimit": lambda n: homology_colimit(PATH8, n),
    "relative_homology": lambda n: relative_homology(PATH8, PATH8_FAMILY, 1, n),
    "mv_check": lambda n: mv_check(PATH8, range(4, 9), PATH8_FAMILY, 1, n),
    "rips_complex": lambda n: rips_complex(PATH8, 1, n),
    "SimplicialComplex.homology": lambda n: rips_complex(PATH8, 1, 1).homology(n),
    "nerve": lambda n: nerve(cover_from_net(PATH8, 1), n),
    "coarsify_homology": lambda n: coarsify_homology(PATH8, [1], n),
    "coarsening_space": lambda n: coarsening_space(anti_cech(PATH8, [1, 2]), n),
}


@pytest.mark.parametrize("entry", DEGREE_ENTRIES)
def test_negative_degree_is_refused(entry):
    call = DEGREE_ENTRIES[entry]
    call(0)  # the same call answers in degree 0
    with pytest.raises(ValueError, match="degree must be >= 0"):
        call(-1)
