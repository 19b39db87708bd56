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
import tracemalloc
import weakref
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
from coarsehom.morphisms import SpaceMap, constant_map, identity_map, translate_map
from genspaces import moore_space, random_explicit_space

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
        cc = chain_complex(HEX, k, 3)
        cc.verify_dd()
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
        relative = homology_engine._cliques(X.coarse.graph(k), 3, None, k, inside=[p in Y for p in pts])
        for n in range(4):
            want = oracles.controlled_tuples_reference(pts, edges, k, n)
            assert controlled_tuples(X, k, n) == want, (pts, edges, k, n)
            # the relative n-simplices are the quotient's increasing tuples, named in
            # ground order, and their counts give the quotient's tuple count
            quotient = oracles.quotient_tuples_reference(pts, edges, k, n, Y)
            increasing = [t for t in quotient if all(pts.index(a) < pts.index(b) for a, b in zip(t, t[1:]))]
            assert [tuple(pts[i] for i in s) for s in relative[n]] == increasing, (pts, edges, k, n)
            assert homology_engine._tuple_count([len(lv) for lv in relative], n) == len(quotient)


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
    rank, facs = homology_engine._sparse_invariants(
        [{j: v for j, v in enumerate(row) if v} for row in A])
    expected = oracles.smith_invariant_factors(A)
    assert (rank, facs) == (len(expected), expected)


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
    kernel = homology_engine._sparse_invariants
    calls = []
    monkeypatch.setattr(homology_engine, "_sparse_invariants",
                        lambda rows: calls.append(len(rows)) or kernel(rows))
    assert homology_at_scale(HEX, 1, 2) == [Z, Z, ZERO]
    assert len(calls) == 3


# six-vertex real projective plane: every edge lies on exactly two triangles
RP2_TRIANGLES = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
                 (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]


def rp2_subdivision():
    """Barycentric subdivision of RP^2: one point per face, a pair per proper face inclusion."""
    faces = sorted({f for t in RP2_TRIANGLES for size in (1, 2, 3)
                    for f in combinations(sorted(t), size)})
    names = ["".join(map(str, f)) for f in faces]
    pairs = [(names[a], names[b]) for a, fa in enumerate(faces) for b, fb in enumerate(faces)
             if len(fa) < len(fb) and set(fa) <= set(fb)]
    return make_explicit_space(names, [pairs], [names])


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


@pytest.mark.parametrize("p", [2, 3])
def test_moore_space_has_p_torsion(p, monkeypatch):
    X = moore_space(p)
    residual = homology_engine._residual_pivots
    residual_sizes = []
    monkeypatch.setattr(homology_engine, "_residual_pivots",
                        lambda rows: residual_sizes.append(len(rows)) or residual(rows))
    expected = [Z, FGAbGroup(0, (p,)), ZERO]
    assert homology_at_scale(X, 1, 2) == expected
    assert any(residual_sizes)  # the unit phase alone never yields a factor p
    assert [homology_presentation(X, 1, n).group for n in range(3)] == expected


@pytest.mark.parametrize("p", [2, 3])
def test_planted_face_sign_flip_changes_a_moore_group(p, monkeypatch):
    def flip_first_edge(build):
        def flipped(basis_n, index_prev, n, *rest):
            d = build(basis_n, index_prev, n, *rest)
            if n == 1:  # one face of the first edge: its boundary becomes v + w
                row = next(r for r in d.rows if 0 in r)
                row[0] = -row[0]
            return d
        return flipped

    X = moore_space(p)
    for module in (homology_engine, chain_maps):
        monkeypatch.setattr(module, "_boundary_from_lists", flip_first_edge(module._boundary_from_lists))
    # through degree 0 the complex ends at d_1, so no d∘d product sees the fault: H_0 = Z/2, not Z
    assert homology_at_scale(X, 1, 0) == [FGAbGroup(0, (2,))]
    assert homology_presentation(X, 1, 0).group == FGAbGroup(0, (2,))
    # one degree up, d_1 d_2 sees it
    with pytest.raises(HomologyError, match="complex identity"):
        homology_at_scale(X, 1, 1)


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
    build = homology_engine._boundary_from_lists
    X = path_space(4)
    fam = big_family_generated(X, [0], 4)
    Y, Z = frozenset({0}), list(range(1, 5))
    assert relative_mismatches(X, 1, 1, Y, fam, Z) == []

    # a face wholly in Y kept: it is neither indexed nor masked, so the lookup refuses it
    monkeypatch.setattr(homology_engine, "_boundary_from_lists",
                        lambda basis_n, index_prev, n, inside=None: build(basis_n, index_prev, n))
    with pytest.raises(KeyError):
        relative_homology(X, make_big_family(X, [Y]), 1, 1)
    with pytest.raises(KeyError):
        mv_check(X, Z, fam, 1, 1)

    # a face outside Y dropped: the vertex at index 2, outside Y and Y_m = {0, 1}, is masked
    # in boundaries only
    def drops_vertex_2(basis_n, index_prev, n, inside=None):
        if inside is not None:
            inside = [True if i == 2 else x for i, x in enumerate(inside)]
        return build(basis_n, index_prev, n, inside)

    monkeypatch.setattr(homology_engine, "_boundary_from_lists", drops_vertex_2)
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
    levels = homology_engine._cliques(X.coarse.graph(k), 3, None, k)
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
