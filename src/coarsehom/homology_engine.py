"""Coarse ordinary homology groups over exact integers.

Coarse homology at a scale is the homology of the controlled-tuple complex,
which `chain_maps` builds for the certificates that need a basis.  The
groups need none, so they come from the clique complex of the same scale
graph, chain-equivalent to the tuple complex (Munkres, Elements of
Algebraic Topology, section 13: a simplex maps to its increasing tuple, a
tuple with distinct entries to its sorted simplex with the sign of the sort)
and far smaller.  Relative to Y the complex loses the simplices wholly in Y,
as the quotient loses the tuples whose vertex sets are.

Every group of a scale graph takes one route, `_clique_groups`: that of
`homology_at_scale` (hence the per-scale colimit table), `relative_homology`,
the excision check `mv_check` and the table of `coarsify_homology`.  It reads
the groups off the strong-collapse core of the scale graph: a vertex v with
N[v] ⊆ N[w] for a neighbour w is deleted until none is left, a homotopy
equivalence of flag complexes (Barmak and Minian, Strong homotopy types,
nerves and collapses, 2012).  Relative to Y, v goes only when it is outside
Y or w is inside, so X and Y both keep their homotopy types and the relative
groups stay.  A replay of the deletions on the whole graph refuses a false
domination or a broken pair rule.  The collapse stays on the neighbour sets,
since a bitmask over the whole graph is as wide as its point's index, which
made it quadratic in a window.  The survivors' cliques are grown on
vertex-relative bitmasks (San Segundo et al., bit-parallel cliques, 2011, in
the lex order of Boissonnat and Maria's simplex tree, 2014): numbered
outside Y first, bit t of later[v] stands for v+1+t, so a mask is as wide as
a neighbourhood's span.  Each simplex records its facets as it grows, so the
boundaries are read off the enumeration with no face lookup, a face wholly
in Y being 0.  The cap still counts the whole complex: its (quotient's)
tuples per degree, or for `coarsify_homology` its simplices.  When the
degree bound m·c_m <= Σ_v C(deg v, m-1) on the m-cliques leaves no room for
a refusal, only the core is enumerated; otherwise the whole complex is
enumerated under the cap first.  Only `rips_complex` and
`SimplicialComplex.homology`, the reference route the tests compare
against, reduce a whole clique complex, with boundaries built from the
simplex lists as for nerves and telescopes.  Every complex takes one
reduction, which checks d∘d = 0 exactly on the matrices it reduces.  At
stabilization each coarse component is a clique, hence a cone: the colimit
is Z^(components) in degree 0 and 0 above, each component certified a
clique from the searches of `stabilization()`; nothing is built.

Boundaries are `IntMatrix` values: a shape and one dict {column: int} per
row, with Python ints, so no entry can overflow.  Each boundary of a complex
is reduced once, by one sparse elimination kernel: ±1 pivots first, from a
heap of rows keyed on length, then the Smith form, without transforms, on
the rows that never offer a unit.  Its rank serves H_{n-1} and H_n, and its
invariant factors give the torsion of H_{n-1}.  A d_1 that is an incidence
matrix is read by a union-find spanning forest instead, with no torsion.
Each higher d_n drops the rows at the unit-pivot columns of d_{n-1} before
it is reduced: the pivot block is unimodular and d_{n-1} d_n = 0, so rank
and torsion do not change (the compression of Bauer, Kerber and
Reininghaus, Clear and Compress, 2014).  d∘d is checked on the full
matrices, a row of the product at a time, never stored.

The `snf` command and the presentations of `chain_maps` share one Smith
form with transforms, whose pivot is the least |nonzero| entry, ties
row-major; generator chains follow from that order, so it is kept exactly.
It runs on sparse rows with sparse transforms, and swaps only permute
positions; `smith_normal_form` makes its result dense.  Excision needs no
presentation: the two relative clique complexes `mv_check` compares are
equal, so it reads the groups once and checks that equality on the
1-skeleton.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .core_spaces import (BigFamilyPrefix, CoarseError, FrozenRecord, Record, check_count, check_degree, check_scale,
                          coarse_components)

DEFAULT_BASIS_CAP = 200_000
DEFAULT_DEGREE_CAP = 3


class HomologyError(CoarseError):
    pass


class DegreeCapExceeded(HomologyError):
    """A basis past basis_cap; unit names what the cap counts (tuples, simplices, ...)."""

    def __init__(self, degree, scale, cap, unit="tuples"):
        self.degree = degree
        self.scale = scale
        self.cap = cap
        where = f" at scale {scale}" if scale is not None else ""
        super().__init__(
            f"basis in degree {degree}{where} exceeds the cap of {cap} {unit}; "
            "raise basis_cap to proceed"
        )


def _check_degree_cap(d, basis_cap):
    """check_degree(d), then refuse a basis_cap that is no count; None is no cap."""
    check_degree(d)
    if basis_cap is not None:
        check_count(basis_cap, "basis_cap", 0, HomologyError)


class NotComplementary(HomologyError):
    pass


class PrefixTooShort(HomologyError):
    def __init__(self, member_index, scale):
        self.member_index = member_index
        self.scale = scale
        super().__init__(
            f"no family member absorbs closure_at({scale})[Y_{member_index}]; "
            "extend the prefix"
        )


# --------------------------------------------------------------------- matrix


class IntMatrix:
    """Exact sparse integer matrix: a shape and one dict {column: value} per row.

    Rows hold no zeros, so the matrix is zero exactly when every row is empty.
    """

    __slots__ = ("shape", "rows")

    def __init__(self, shape: Tuple[int, int], rows: List[Dict[int, int]]):
        if len(rows) != shape[0]:
            raise ValueError(f"{len(rows)} rows for shape {shape}")
        self.shape = shape
        self.rows = rows

    @property
    def nnz(self):
        return sum(map(len, self.rows))

    def __bool__(self):
        return any(self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        out = []
        for row in self.rows:
            acc: Dict[int, int] = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return IntMatrix((self.shape[0], other.shape[1]), out)

    def _plus(self, other: "IntMatrix", sign: int) -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"cannot add {self.shape} and {other.shape}")
        out = []
        for a, b in zip(self.rows, other.rows):
            acc = dict(a)
            for j, v in b.items():
                acc[j] = acc.get(j, 0) + sign * v
            out.append({j: v for j, v in acc.items() if v})
        return IntMatrix(self.shape, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)


# ----------------------------------------------------------------- boundaries


def _faces(t, n):
    """(face, sign) pairs of the boundary of an n-tuple, without faces that repeat an entry.

    Two deletions give the same face only across equal adjacent entries, so the
    faces of a normalized tuple are distinct.
    """
    for i in range(n + 1):
        if 0 < i < n and t[i - 1] == t[i + 1]:
            continue
        yield t[:i] + t[i + 1:], 1 if i % 2 == 0 else -1


def _boundary_from_lists(basis_n, basis_prev, n):
    """Matrix of the alternating face sum on normalized index tuples, from basis_n to basis_prev."""
    index_prev = {t: i for i, t in enumerate(basis_prev)}
    rows: List[Dict[int, int]] = [{} for _ in basis_prev]
    for col, t in enumerate(basis_n):
        for face, sign in _faces(t, n):
            rows[index_prev[face]][col] = sign
    return IntMatrix((len(basis_prev), len(basis_n)), rows)


def _facet_boundaries(facets):
    """[None, d_1, d_2, ...] read off the recorded facets of _clique_chains: column s of d_n
    holds (-1)^i at the i-th facet of n-simplex s, and nothing at a face wholly in the mask."""
    out = [None]
    for n in range(1, len(facets)):
        rows: List[Dict[int, int]] = [{} for _ in facets[n - 1]]
        signs = [(-1) ** i for i in range(n + 1)]
        for col, fs in enumerate(facets[n]):
            for f, sign in zip(fs, signs):
                if f is not None:
                    rows[f][col] = sign
        out.append(IntMatrix((len(rows), len(facets[n])), rows))
    return out


def _is_complex(boundaries: Sequence[Optional[IntMatrix]]):
    """Whether d_{n-1} d_n = 0 exactly for boundaries[n] = d_n, n >= 1.

    Each row of a product is summed and tested, never stored; the first
    nonzero row settles it.
    """
    for n in range(2, len(boundaries)):
        below, rows = boundaries[n - 1], boundaries[n].rows
        if below.shape[1] != len(rows):
            raise ValueError(f"cannot multiply {below.shape} by {boundaries[n].shape}")
        for row in below.rows:
            acc: Dict[int, int] = {}
            for k, a in row.items():
                for j, b in rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            if any(acc.values()):
                return False
    return True


# ------------------------------------------------------------ exact SNF


def _axpy(dst: Dict[int, int], src: Dict[int, int], q: int):
    """dst += q*src over the support of src; q != 0, so a new key is never 0."""
    for j, x in src.items():
        v = dst.get(j, 0) + q * x
        if v:
            dst[j] = v
        else:
            del dst[j]


def _dense(vecs: List[Dict[int, int]], size: int, columns=False):
    """The size x size list rows of sparse rows, or of sparse columns."""
    out = [[0] * size for _ in range(size)]
    for a, vec in enumerate(vecs):
        for b, x in vec.items():
            if columns:
                out[b][a] = x
            else:
                out[a][b] = x
    return out


def _swap(at, pos, a, b):
    """Swap positions a and b of the permutation at, whose inverse is pos."""
    x, y = at[a], at[b]
    at[a], at[b] = y, x
    pos[x], pos[y] = b, a


def _least_entry(S, rowat, colpos, d):
    """Position (row, column) of the least |nonzero| from position d on, ties row-major.

    A ±1 is the least possible value, so the first row holding one ends the search.
    """
    best = None
    for p in range(d, len(rowat)):
        row = S[rowat[p]]
        if row:
            a = min(map(abs, row.values()))
            if best is None or a < best[0]:
                best = (a, p, min(colpos[j] for j, v in row.items() if abs(v) == a))
                if a == 1:
                    break
    return None if best is None else best[1:]


def _smith(S: List[Dict[int, int]], n: int, track_U=True, track_V=True):
    """Smith form of the matrix with sparse rows S (dicts {column: int}) and n columns.

    Destructive on S.  The pivot is the least |nonzero| entry not yet reduced,
    ties row-major; row operations clear its column, then column operations
    its row, and a remainder becomes the new pivot.  A pivot that fails to
    divide a later row gets that row added to its own.  Rows and columns keep
    their ids while swaps permute their positions.  Returns the pivots in
    order and, by position, the rows of U⁻¹, the columns of U, the rows of V
    and the columns of V⁻¹ (dicts over the rows of A for U, its columns for
    V; None when not tracked), so that A = U S V.
    """
    m = len(S)
    rowat, rowpos, colat, colpos = list(range(m)), list(range(m)), list(range(n)), list(range(n))
    # Ui: rows of U⁻¹, Uc: columns of U; Vr: rows of V, Vic: columns of V⁻¹; all by id
    Ui, Uc = ([{i: 1} for i in range(m)], [{i: 1} for i in range(m)]) if track_U else (None, None)
    Vr, Vic = ([{j: 1} for j in range(n)], [{j: 1} for j in range(n)]) if track_V else (None, None)

    def row_op(dst, src, q):
        # row_dst += q*row_src, q != 0; keeps A = U S V
        _axpy(S[dst], S[src], q)
        if track_U:
            _axpy(Ui[dst], Ui[src], q)
            _axpy(Uc[src], Uc[dst], -q)

    def negate_row(r):
        Sr = S[r]
        for j in Sr:
            Sr[j] = -Sr[j]
        if track_U:
            Ui[r] = {j: -x for j, x in Ui[r].items()}
            Uc[r] = {i: -x for i, x in Uc[r].items()}

    d = 0
    while d < m and d < n:
        best = _least_entry(S, rowat, colpos, d)
        if best is None:
            break
        _swap(rowat, rowpos, d, best[0])
        _swap(colat, colpos, d, best[1])
        if S[rowat[d]][colat[d]] < 0:
            negate_row(rowat[d])
        while True:
            pr, pc = rowat[d], colat[d]
            Sp = S[pr]
            pivot = Sp[pc]
            # Clear the pivot column by row operations, rows in position order,
            # until a row is left with a remainder: it becomes the pivot row.  A
            # remainder is positive, so a new pivot needs no sign change.
            moved = False
            for p in range(d + 1, m):
                i = rowat[p]
                x = S[i].get(pc)
                if x:
                    q = x // pivot
                    if q:
                        row_op(i, pr, -q)
                    if pc in S[i]:
                        _swap(rowat, rowpos, d, p)
                        moved = True
                        break
            if moved:
                continue
            # then the pivot row by column operations, columns in position order;
            # the pivot is the only nonzero of its column, so each changes one entry of S
            for p in sorted(colpos[j] for j in Sp if j != pc):
                j = colat[p]
                q = Sp[j] // pivot
                if q:
                    Sp[j] -= q * pivot
                    if not Sp[j]:
                        del Sp[j]
                    if track_V:
                        _axpy(Vr[pc], Vr[j], q)
                        _axpy(Vic[j], Vic[pc], -q)
                if j in Sp:
                    _swap(colat, colpos, d, p)
                    moved = True
                    break
            if moved:
                continue
            if pivot == 1:
                break  # a unit divides every entry
            fix = next((rowat[p] for p in range(d + 1, m)
                        if any(v % pivot for v in S[rowat[p]].values())), None)
            if fix is None:
                break
            row_op(pr, fix, 1)
        d += 1

    def by_position(vecs, at):
        return None if vecs is None else [vecs[i] for i in at]

    return ([S[rowat[p]][colat[p]] for p in range(d)], by_position(Ui, rowat),
            by_position(Uc, rowat), by_position(Vr, colat), by_position(Vic, colat))


class SNFResult(Record):
    """A = U @ S @ V with unimodular U, V and a divisibility chain on diag(S).

    Matrices are lists of Python-int rows so entries never overflow; shape
    records the dimensions of S even when a side is zero.
    """

    def __init__(self, U, S, V, U_inv, V_inv, shape):
        self.U = U
        self.S = S
        self.V = V
        self.U_inv = U_inv
        self.V_inv = V_inv
        self.shape = shape

    @property
    def invariant_factors(self):
        m = min(self.shape)
        return [self.S[i][i] for i in range(m) if self.S[i][i] != 0]

    @property
    def rank(self):
        return len(self.invariant_factors)


def smith_normal_form(A) -> SNFResult:
    """Exact Smith normal form of the int-list rows A; pivot is the least |nonzero| entry,
    ties row-major.

    The pivot order and every row and column operation are fixed by that
    rule (frozen generator chains depend on them).  The elimination runs on
    sparse rows with sparse transforms; only the result is made dense: S, U,
    V, U⁻¹ and V⁻¹ as lists of rows.
    """
    m, n = len(A), len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix rows have unequal lengths")
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"matrix entry ({i}, {j}) must be an int, got {x!r}")
    diag, Ui, Uc, Vr, Vic = _smith([{j: x for j, x in enumerate(row) if x} for row in A], n)
    S = [[0] * n for _ in range(m)]
    for d, x in enumerate(diag):
        S[d][d] = x
    return SNFResult(_dense(Uc, m, columns=True), S, _dense(Vr, n), _dense(Ui, m), _dense(Vic, n, columns=True),
                     (m, n))


def _sparse_invariants(rows: List[Dict[int, int]]):
    """Rank, invariant factors (with 1s) and unit-pivot columns of a sparse integer matrix,
    destructive on rows.

    Unit phase: rows wait in a heap keyed on (length, generation); a popped
    row whose generation is current offers its ±1 entry in the sparsest
    column.  That column is cleared by exact row operations and the pivot row
    is dropped with factor 1 (column operations would clear the rest of the
    row without touching any other).  Every row the operation changed gets a
    new generation and goes back on the heap, so stale entries are skipped.
    Residual phase: the rows that never offered a unit go to the Smith form.
    The pivot rows and columns of the unit phase meet in a triangular block
    with ±1 diagonal, so that block of the input is unimodular.
    """
    col_index: Dict[int, set] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_index.setdefault(j, set()).add(i)
    gen = [0] * len(rows)
    heap = [(len(row), 0, i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, g, r = heapq.heappop(heap)
        if g != gen[r] or length == 0:
            continue
        prow = rows[r]
        best = None
        for j, v in prow.items():
            if v == 1 or v == -1:
                key = (len(col_index[j]), j)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        c = best[1]
        v = prow.pop(c)
        for i in col_index.pop(c):
            if i == r:
                continue
            row = rows[i]
            q = row.pop(c) * v
            for j, x in prow.items():
                w = row.get(j, 0) - q * x
                if w:
                    if j not in row:
                        col_index[j].add(i)
                    row[j] = w
                else:
                    del row[j]
                    col_index[j].discard(i)
            gen[i] += 1
            heapq.heappush(heap, (len(row), gen[i], i))
        for j in prow:
            s = col_index[j]
            s.discard(r)
            if not s:
                del col_index[j]
        rows[r] = {}
        pivots.append(c)
    rest = [row for row in rows if row]
    facs = _residual_pivots(rest) if rest else []
    return len(pivots) + len(facs), [1] * len(pivots) + facs, pivots


def _residual_pivots(rows: List[Dict[int, int]]):
    """Invariant factors of the rows that never offered a unit, by the Smith form."""
    ids = {j: c for c, j in enumerate(sorted({j for row in rows for j in row}))}
    return _smith([{ids[j]: v for j, v in row.items()} for row in rows], len(ids), False, False)[0]


# --------------------------------------------------------------- groups


class FGAbGroup(FrozenRecord):
    """Finitely generated abelian group Z^free_rank + sum of Z/d with d_1 | d_2 | ..."""

    def __init__(self, free_rank, torsion=()):
        check_count(free_rank, "free rank", 0, ValueError)
        torsion = tuple(torsion)
        prev = None
        for d in torsion:
            check_count(d, "torsion order", 2, ValueError)
            if prev is not None and d % prev:
                raise ValueError("torsion orders must form a divisibility chain")
            prev = d
        vars(self).update(free_rank=free_rank, torsion=torsion)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _forest_columns(d: IntMatrix) -> Optional[List[int]]:
    """The columns of d_1 that a spanning forest takes, or None when d_1 is no incidence matrix.

    Each column must be -1, +1 (an edge) or a single ±1 (an edge to a masked
    vertex, joined at one root past the last row).  Then the edges that
    union-find merges number rank d_1, with no torsion, and they and the
    non-root vertex of each tree meet in a unimodular block.
    """
    m, n = d.shape
    plus, minus = [m] * n, [m] * n  # per column, the row of its +1 and of its -1
    for i, row in enumerate(d.rows):
        for j, v in row.items():
            if v == 1 and plus[j] == m:
                plus[j] = i
            elif v == -1 and minus[j] == m:
                minus[j] = i
            else:
                return None
    parent = list(range(m + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    forest = []
    for j, a, b in zip(range(n), plus, minus):
        if a == b:  # an empty column
            return None
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
            forest.append(j)
    return forest


def _chain_groups(boundaries: Sequence[Optional[IntMatrix]], dims, d_max):
    """Groups 0..d_max of the complex with boundaries [None, d_1, ...] and chain ranks dims
    (0 past either): the one reduction.  The boundaries are checked to compose to zero and
    each is reduced once: d_1 by a spanning forest when it is an incidence matrix, every
    other one by the kernel, less the rows at the unit-pivot columns of the boundary below.
    H_n = Z^(c_n - rank d_n - rank d_{n+1}) + the torsion of d_{n+1}.
    """
    if not _is_complex(boundaries):
        raise HomologyError("boundary matrices fail the complex identity")
    ranks, torsion = [0] * (d_max + 2), [()] * (d_max + 2)
    pivots, start = [], 1  # unit-pivot columns of the boundary below, first boundary to reduce
    if len(boundaries) > 1 and (forest := _forest_columns(boundaries[1])) is not None:
        ranks[1], pivots, start = len(forest), forest, 2
    for n in range(start, len(boundaries)):
        drop = set(pivots)  # the rows built here are reduced in place
        ranks[n], facs, pivots = _sparse_invariants([row for i, row in enumerate(boundaries[n].rows)
                                                     if i not in drop])
        torsion[n] = tuple(f for f in facs if f >= 2)
    dims = list(dims[:d_max + 1]) + [0] * (d_max + 1 - len(dims))
    return [FGAbGroup(c - ranks[n] - ranks[n + 1], torsion[n + 1]) for n, c in enumerate(dims)]


def _core(sets, inside=None):
    """The strong-collapse core of the graph with neighbour sets sets: (survivor flags, the
    deletions as (v, w) index pairs).

    A vertex v goes when some neighbour w != v has N[v] ⊆ N[w] among the vertices left, and
    with a point mask only when v is outside it or w inside; the neighbours of each deleted
    vertex are tested again.  The caller's list and sets never change: the list is copied at
    the first deletion and a set when a deletion first removes a vertex from it (own); the
    others, among them the one set the rows of a component share from the stabilization
    scale on, are read in place.
    """
    n = len(sets)
    alive, queued = [True] * n, [True] * n
    todo, deleted, own = list(range(n - 1, -1, -1)), [], None
    while todo:
        v = todo.pop()
        queued[v] = False
        near = sets[v]
        for w in near:
            if w != v and near <= sets[w] and (inside is None or inside[w] or not inside[v]):
                break
        else:
            continue
        if own is None:
            sets, own = list(sets), [False] * n
        alive[v] = False
        deleted.append((v, w))
        for u in near:
            if u != v:
                if not own[u]:
                    sets[u], own[u] = set(sets[u]), True
                sets[u].discard(v)
                if not queued[u]:
                    queued[u] = True
                    todo.append(u)
    return alive, deleted


def _check_collapse(points, sets, inside, deleted, alive):
    """Replays the deletions on the neighbour sets of points: each v must be dominated by w
    among the points left, under the pair rule with a mask, and the survivors must be those
    flagged alive."""
    left = [True] * len(sets)
    for v, w in deleted:
        pv, pw = points[v], points[w]
        if v == w or not (left[v] and left[w]) or any(map(left.__getitem__, sets[v] - sets[w])):
            raise HomologyError(f"the strong collapse deletes {pv!r} under {pw!r}, which does not dominate it")
        if inside is not None and inside[v] and not inside[w]:
            raise HomologyError(f"the strong collapse deletes {pv!r}, a point of Y, under {pw!r}, "
                                "a point outside Y")
        left[v] = False
    if left != alive:
        raise HomologyError("the strong-collapse core is not the points its deletions leave")


def _cap_cannot_refuse(sets, top, cap, tuples=True):
    """Whether _clique_chains(sets, top, cap, .., tuples) cannot refuse: an m-clique lies in
    the neighbourhood of each of its m vertices, so m·c_m <= Σ_v C(deg v, m-1).  Tuples are
    capped per degree, c_1 in degree 0, and from degree 1 on _tuple_count grows with the
    degree and the clique counts; simplices are capped over degrees 0..top together."""
    sizes = Counter(map(len, sets))  # closed neighbourhoods: deg v + 1
    bounds = [sum(c * comb(d - 1, m - 1) for d, c in sizes.items()) // m for m in range(1, top + 2)]
    return bounds[0] <= cap and _tuple_count(bounds, top) <= cap if tuples else sum(bounds) <= cap


def _clique_groups(X, k, d_max, basis_cap, Y=None, tuples=True):
    """Groups 0..d_max of the scale-k clique complex (relative to Y when given), built through
    d_max + 1 on its strong-collapse core: the one route from a scale graph to its groups.

    basis_cap counts what _clique_chains counts on the whole complex: the (quotient's) tuples
    of each degree, or with tuples false the simplices of degrees 0..d_max + 1 together.
    When the degree bound leaves room for a refusal, the whole complex is enumerated under
    the cap first, and its chains are reduced when nothing collapses.
    """
    pts, sets = X.points, X.coarse.closure_at(k).row_sets()
    inside = None if Y is None else [p in Y for p in pts]
    facets = None
    if basis_cap is not None and not _cap_cannot_refuse(sets, d_max + 1, basis_cap, tuples):
        facets = _clique_chains(sets, d_max + 1, basis_cap, k, tuples, inside)[1]
    alive, deleted = _core(sets, inside)
    _check_collapse(pts, sets, inside, deleted, alive)
    if facets is None or deleted:
        facets = _clique_chains(sets, d_max + 1, inside=inside, alive=alive)[1]
    return _chain_groups(_facet_boundaries(facets), [len(level) for level in facets], d_max)


def homology_at_scale(X, k, d_max, basis_cap=DEFAULT_BASIS_CAP):
    """Homology groups of the controlled-tuple complex, degrees 0..d_max.

    Computed on the strong-collapse core of the chain-equivalent clique
    complex, built through d_max + 1 and checked to be a complex exactly; no
    tuple is enumerated.  basis_cap bounds the tuple basis of each degree of
    the whole complex, as in chain_complex, and is refused at the same degree
    with the same message.
    """
    _check_degree_cap(d_max, basis_cap)
    return _clique_groups(X, k, d_max, basis_cap)


def _colimit_groups(X, d_max):
    """Groups 0..d_max at stabilization, where each coarse component is a clique, so a
    cone: Z^(components) in degree 0 and 0 above, counted off the stored components.

    A component is a clique at the stabilization scale when each of its points has
    eccentricity at most that scale.  The searches of stabilization() certify it with no
    table: a search from v, checked to be one, bounds each w by e(w) <= e(v) + d(v, w),
    the triangle inequality through v.  Only a point whose least bound exceeds the scale
    is searched exactly, in ground order.  A component that is not a clique means a
    fault in stabilization: refused, naming the least unrelated pair.
    """
    stab = X.coarse.stabilization()
    far = X.coarse._far_pair(stab)
    if far is not None:
        pts = X.points
        raise HomologyError(f"{pts[far[0]]!r} and {pts[far[1]]!r} share a component but "
                            f"are unrelated at the stabilization scale {stab}")
    components = len(coarse_components(X))
    return [FGAbGroup(0 if n else components) for n in range(d_max + 1)]


class StabilizationReport(Record):
    def __init__(self, stable_scale, per_scale, warnings=None):
        self.stable_scale = stable_scale
        self.per_scale = per_scale
        self.warnings = [] if warnings is None else warnings


def homology_colimit(X, d_max, basis_cap=DEFAULT_BASIS_CAP):
    """Homology at the stabilized closure plus a per-scale table up to stabilization.

    The stabilized value is read off the scale graph and builds no complex.
    """
    _check_degree_cap(d_max, basis_cap)
    groups = _colimit_groups(X, d_max)
    stab = X.coarse.stabilization()
    warnings = []
    if X.window_tag is not None:
        warnings.append(
            f"window-relative: colimit taken over the {X.window_tag.name} window of "
            f"radius {X.window_tag.radius}"
        )
    table = {s: homology_at_scale(X, s, d_max, basis_cap) for s in range(min(1, stab), stab)}
    table[stab] = groups
    return groups, StabilizationReport(stab, table, warnings)


# ------------------------------------------------- relative homology


class RelativeHomology(Record):
    def __init__(self, groups, prefix_index, member, scale, warnings=None):
        self.groups = groups
        self.prefix_index = prefix_index
        self.member = member
        self.scale = scale
        self.warnings = [] if warnings is None else warnings


def relative_homology(X, family: BigFamilyPrefix, k, d_max, basis_cap=DEFAULT_BASIS_CAP):
    """Homology of C(X)/C(Y_m) for the last family member Y_m (finite-prefix stand-in), on
    relative clique chains of the pair's strong-collapse core; basis_cap bounds the
    quotient's tuples in each degree."""
    _check_degree_cap(d_max, basis_cap)
    if not family.members:
        raise HomologyError("the big family has no member to take homology relative to")
    m = len(family.members) - 1
    Y = family.members[m]
    groups = _clique_groups(X, k, d_max, basis_cap, Y)
    warnings = [f"relative to prefix member Y_{m} (finite-prefix stand-in for the colimit)"]
    if X.window_tag is not None:
        warnings.append("window-relative values")
    return RelativeHomology(groups, m, Y, k, warnings)


# ------------------------------------------------------------ mv_check


class ExcisionReport(Record):
    def __init__(self, scale, d_max, complement_index, prefix_index, groups_sub, groups_full, iso,
                 basis_bijection, warnings=None):
        self.scale = scale
        self.d_max = d_max
        self.complement_index = complement_index
        self.prefix_index = prefix_index
        self.groups_sub = groups_sub
        self.groups_full = groups_full
        self.iso = iso
        self.basis_bijection = basis_bijection
        self.warnings = [] if warnings is None else warnings

    @property
    def all_iso(self):
        return all(self.iso)


def _least_member(X, family: BigFamilyPrefix, i, k):
    """The least j with closure_at(k)[Y_i] inside Y_j, or None when no member holds it."""
    grown = X.coarse.thicken(k, family.members[i])
    return next((j for j, Y in enumerate(family.members) if grown <= Y), None)


def mv_check(X, Z, family: BigFamilyPrefix, k, d_max, basis_cap=DEFAULT_BASIS_CAP):
    """Excision shadow: compare H(Z, Z∩Y_m) with H(X, Y_m) through the inclusion.

    With Z ∪ Y_i0 = X and closure_at(k)[Y_i0] ⊆ Y_m, a scale-k simplex of X with a
    vertex v outside Y_m has v in Z, and a vertex w outside Z would lie in Y_i0 and
    put v in Y_m; so both relative clique complexes hold the same simplices and the
    inclusion is the identity.  Y_m is the least member holding closure_at(k)[Y_i0];
    with no such member the prefix is too short.  The groups are read once, on the
    strong-collapse core as in relative_homology, and the equality is checked on the
    1-skeleton: a simplex not wholly in Y_m lies in N[v] for a vertex v of it outside
    Y_m, so it lies in Z when every such v and every edge at one does.  A Y_m that
    does not hold closure_at(k)[Y_i0] is refused with the first simplex of X's
    relative complex (by dimension, then in lex order) missing from Z's, always a
    vertex or an edge.
    """
    check_scale(k)
    _check_degree_cap(d_max, basis_cap)
    Zset = X.ground.check_subset(Z)
    i0 = next((i for i, Y in enumerate(family.members) if Zset | Y == frozenset(X.points)), None)
    if i0 is None:
        missing = X.ground.sorted(frozenset(X.points) - Zset.union(*family.members[-1:]))[:3]
        raise NotComplementary(f"no family member completes Z to X; sample uncovered points {missing}")
    m = _least_member(X, family, i0, k)
    if m is None:
        raise PrefixTooShort(i0, k)
    Ym = family.members[m]
    groups = _clique_groups(X, k, d_max, basis_cap, Ym)
    pts, view = X.points, X.coarse.closure_at(k)
    outside = [i for i, p in enumerate(pts) if p not in Ym]
    first = next(((i,) for i in outside if pts[i] not in Zset), None)
    if first is None:  # each vertex outside Y_m is in Z, so an edge leaves Z only at its other end
        first = min(((min(i, j), max(i, j)) for i in outside for j in view.row(i) if pts[j] not in Zset),
                    default=None)
    if first is not None:
        s = tuple(pts[i] for i in first)
        raise HomologyError(f"simplex {s} of the relative complex of X at scale {k} does not lie "
                            f"in Z, so Y_{m} does not hold closure_at({k})[Y_{i0}]")
    warnings = [f"complementary member index {i0}, quotient taken at prefix index {m}"]
    if X.window_tag is not None:
        warnings.append("window-relative values")
    return ExcisionReport(k, d_max, i0, m, groups, list(groups), [True] * (d_max + 1), True, warnings)


# ----------------------------------------------------- rips backend


class SimplicialComplex(Record):
    """Finite simplicial complex; simplices are index tuples, strictly increasing."""

    def __init__(self, vertices, simplices):
        self.vertices = vertices
        self.simplices = simplices

    def boundary(self, n):
        if not 1 <= n < len(self.simplices):
            raise ValueError("degree out of the built range")
        # increasing simplices never repeat an entry, so every face is kept
        return _boundary_from_lists(self.simplices[n], self.simplices[n - 1], n)

    def homology(self, d_max):
        """Groups in degrees 0..d_max.

        Degree d is exact for the complex as built; build through d+1 when the
        complex is a truncation of something deeper (skeleton homology otherwise).
        """
        check_degree(d_max)
        built = range(1, min(d_max + 2, len(self.simplices)))
        return _chain_groups([None] + [self.boundary(n) for n in built], list(map(len, self.simplices)), d_max)


@lru_cache(maxsize=1024)
def _words(m, L):
    """The words of length L over m letters, each used, without adjacent repeats, by
    inclusion-exclusion over the letters left out."""
    return sum((-1) ** j * comb(m, j) * (m - j) * (m - j - 1) ** (L - 1) for j in range(m + 1))


def _tuple_count(clique_counts, n):
    """Number of degree-n controlled tuples, from clique_counts[m - 1] = number of m-cliques:
    the tuples of length L whose entries are exactly a given m-clique number _words(m, L).
    _words(m, m) = m! >= 1, so more than cap (n+1)-cliques mean more than cap tuples in degree n.
    """
    return sum(c * _words(m, n + 1) for m, c in enumerate(clique_counts[:n + 1], 1) if c)


def _clique_chains(sets, top, cap=None, scale=None, tuples=False, inside=None, alive=None):
    """(simplices, facets): the cliques of dimension 0..top of the graph with neighbour sets
    sets, each level in lex order, and the faces of each by their index in the level below.

    The points alive (all by default) are renumbered 0..m-1, those outside the mask inside
    first, and only simplices not wholly inside are grown.  Bit t of later[v] stands for
    v+1+t; s carries its candidates c relative to its first vertex v0, s+(j) carries
    c & (later[j] << (j - v0)), bits taken in increasing order.  Face i of s+(j) is the
    extension by j of face i of s, None when wholly inside (only ever face 0), and its last
    face is s.  cap bounds the simplices kept so far, and a level stops growing once past it;
    with tuples, each level and the controlled tuples of each degree not wholly inside,
    refused at the least degree past it.
    """
    order = [v for v in range(len(sets)) if alive is None or alive[v]]
    if inside is not None:
        order.sort(key=inside.__getitem__)  # stable: the points outside first, each in ground order
    starts = len(order) - (0 if inside is None else sum(map(inside.__getitem__, order)))
    pos = [-1] * len(sets)
    for r, v in enumerate(order):
        pos[v] = r
    later = []
    for r, v in enumerate(order):
        c = 0
        for q in map(pos.__getitem__, sets[v]):
            if q > r:
                c |= 1 << (q - r - 1)
        later.append(c)
    # level 0 extends the empty simplex, whose extensions are the starts
    level, cands, facets = [(v,) for v in range(starts)], later[:starts], [(0,)] * starts
    kids = [{v: v for v in range(starts)}]
    simplices, faces = [], []
    for dim in range(top + 1):
        room = None if cap is None else cap - (0 if tuples else sum(map(len, simplices)))
        if dim:
            grown, grown_cands, grown_facets, grown_kids = [], [], [], []
            for s, t in enumerate(level):
                c, mine = cands[s], {}
                grown_kids.append(mine)
                if not c:
                    continue
                v0, fs = t[0], facets[s]
                first = {} if fs[0] is None else kids[fs[0]]
                rest = [kids[f] for f in fs[1:]]
                while c:
                    c ^= (low := c & -c)
                    j = v0 + low.bit_length()
                    mine[j] = len(grown)
                    grown.append(t + (j,))
                    grown_cands.append(cands[s] & (later[j] << (j - v0)))
                    grown_facets.append((first.get(j), *[kid[j] for kid in rest], s))
                if room is not None and len(grown) > room:
                    break
            level, cands, facets, kids = grown, grown_cands, grown_facets, grown_kids
        simplices.append(level)
        faces.append(facets)
        if cap is not None and (len(level) > room or tuples and _tuple_count(list(map(len, simplices)), dim) > cap):
            raise DegreeCapExceeded(dim, scale, cap, "tuples" if tuples else "simplices")
    return simplices, faces


def rips_complex(X, k, d_max, basis_cap=DEFAULT_BASIS_CAP, points=None):
    """Clique complex of the symmetrized relation at scale k.

    With points given, uses the relation induced on that subset (in ambient order).
    """
    _check_degree_cap(d_max, basis_cap)
    pts, sets = X.points, X.coarse.closure_at(k).row_sets()
    if points is not None:
        S = X.ground.check_subset(points)
        keep = [i for i, p in enumerate(pts) if p in S]
        new = {old: i for i, old in enumerate(keep)}
        pts, sets = [pts[i] for i in keep], [{new[j] for j in sets[i] if j in new} for i in keep]
    return SimplicialComplex(list(pts), _clique_chains(sets, d_max, basis_cap, k)[0])
