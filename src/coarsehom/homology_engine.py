"""Coarse ordinary homology groups over exact integers.

Coarse homology at a scale is the homology of the controlled-tuple complex,
which `chain_maps` builds for the certificates that need a basis.  The
groups need none, so they come from the clique complex of the same scale
graph, chain-equivalent to the tuple complex (Munkres, Elements of
Algebraic Topology, section 13: a simplex maps to its increasing tuple, a
tuple with distinct entries to its sorted simplex with the sign of the sort)
and far smaller.  That serves `homology_at_scale`, hence the per-scale
colimit table, `relative_homology` and the excision check `mv_check`;
relative to Y the complex loses the simplices wholly in Y, as the quotient
loses the tuples whose vertex sets are.  `basis_cap` still bounds the
(quotient's) tuples per degree, read off the clique counts.  Clique,
relative, excision, Rips, nerve and telescope complexes take one route from
a simplex list to groups, which checks d∘d = 0 exactly.  At stabilization
each coarse component is a clique, hence a cone: the colimit is
Z^(components) in degree 0 and 0 above, counted off the stored coarse
components once the hop-distance table confirms each is a clique; nothing
is built.

Boundaries are `IntMatrix` values: a shape and one dict {column: int} per
row, with Python ints, so no entry can overflow.  Groups are read off one
sparse elimination kernel in two phases.  The unit phase takes ±1 pivots
from a heap of rows keyed on length, each in its sparsest column, and clears
that column with exact row operations; only the rows that never offer a
unit reach the residual phase, the Smith form that presentations use, run
without transforms.  Each boundary of a complex is reduced once: its rank
serves H_{n-1} and H_n, and its invariant factors give the torsion of
H_{n-1}.

The `snf` command and the presentations of `chain_maps` share one Smith
form with transforms, whose pivot is the least |nonzero| entry, ties
row-major; generator chains follow from that order, so it is kept exactly.
It runs on sparse rows with sparse transforms, and swaps only permute
positions; `smith_normal_form` makes its result dense.  Excision needs no
presentation: when Z and a family member Y_i0 cover X and
closure_at(k)[Y_i0] lies in Y_m, every scale-k simplex not wholly in Y_m
lies in Z, so the relative clique complexes of (X, Y_m) and (Z, Z∩Y_m) are
equal and the inclusion is the identity; `mv_check` checks that equality
and reads the groups once.
"""

from __future__ import annotations

import heapq
from itertools import islice
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .core_spaces import (BigFamilyPrefix, CoarseError, FrozenRecord, Record, ScaleGraph, check_degree, check_scale,
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

    def tolist(self) -> List[List[int]]:
        return [[row.get(j, 0) for j in range(self.shape[1])] for row in self.rows]


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


def _boundary_from_lists(basis_n, index_prev, n, inside=None):
    """Matrix of the alternating face sum on normalized index tuples; with a point mask
    inside, a face wholly in it is 0, and any other face must be in index_prev."""
    rows: List[Dict[int, int]] = [{} for _ in index_prev]
    for col, t in enumerate(basis_n):
        for face, sign in _faces(t, n):
            if inside is None or not all(inside[i] for i in face):
                rows[index_prev[face]][col] = sign
    return IntMatrix((len(index_prev), len(basis_n)), rows)


def _is_complex(boundaries: Sequence[Optional[IntMatrix]]):
    """Whether d_{n-1} d_n = 0 exactly for boundaries[n] = d_n, n >= 1."""
    return not any(boundaries[n - 1] @ boundaries[n] for n in range(2, len(boundaries)))


# ------------------------------------------------------------ exact SNF


def _shape_of(A):
    if isinstance(A, IntMatrix):
        return A.shape
    n = len(A[0]) if len(A) else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix rows have unequal lengths")
    return (len(A), n)


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


def smith_normal_form(A, track_U=True, track_V=True) -> SNFResult:
    """Exact Smith normal form; pivot is the least |nonzero| entry, ties row-major.

    The pivot order and every row and column operation are fixed by that
    rule (frozen generator chains depend on them).  The elimination runs on
    sparse rows with sparse transforms; only the result is made dense: S, U,
    V, U⁻¹ and V⁻¹ as lists of rows.
    """
    m, n = _shape_of(A)
    if isinstance(A, IntMatrix):
        rows = [dict(row) for row in A.rows]
    else:
        rows = [{j: x for j, x in enumerate(map(int, row)) if x} for row in A]
    diag, Ui, Uc, Vr, Vic = _smith(rows, n, track_U, track_V)
    S = [[0] * n for _ in range(m)]
    for d, x in enumerate(diag):
        S[d][d] = x
    U, U_inv = (_dense(Uc, m, columns=True), _dense(Ui, m)) if track_U else (None, None)
    V, V_inv = (_dense(Vr, n), _dense(Vic, n, columns=True)) if track_V else (None, None)
    return SNFResult(U, S, V, U_inv, V_inv, (m, n))


def _sparse_invariants(rows: List[Dict[int, int]]):
    """Rank and invariant factors (with 1s) of a sparse integer matrix, destructive on rows.

    Unit phase: rows wait in a heap keyed on (length, generation); a popped
    row whose generation is current offers its ±1 entry in the sparsest
    column.  That column is cleared by exact row operations and the pivot row
    is dropped with factor 1 (column operations would clear the rest of the
    row without touching any other).  Every row the operation changed gets a
    new generation and goes back on the heap, so stale entries are skipped.
    Residual phase: the rows that never offered a unit go to the Smith form.
    """
    col_index: Dict[int, set] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_index.setdefault(j, set()).add(i)
    gen = [0] * len(rows)
    heap = [(len(row), 0, i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    units = 0
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
        units += 1
    rest = [row for row in rows if row]
    facs = _residual_pivots(rest) if rest else []
    return units + len(facs), [1] * units + facs


def _residual_pivots(rows: List[Dict[int, int]]):
    """Invariant factors of the rows that never offered a unit, by the Smith form."""
    ids = {j: c for c, j in enumerate(sorted({j for row in rows for j in row}))}
    return _smith([{ids[j]: v for j, v in row.items()} for row in rows], len(ids), False, False)[0]


# --------------------------------------------------------------- groups


class FGAbGroup(FrozenRecord):
    """Finitely generated abelian group Z^free_rank + sum of Z/d with d_1 | d_2 | ..."""

    def __init__(self, free_rank, torsion=()):
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for d in torsion:
            if d < 2:
                raise ValueError("torsion orders must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("torsion orders must form a divisibility chain")
            prev = d
        vars(self).update(free_rank=free_rank, torsion=torsion)

    @property
    def trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _simplicial_groups(simplices: Sequence[List[tuple]], d_max, inside=None):
    """Groups 0..d_max from simplices by dimension (increasing index tuples; relative chains,
    less those wholly in the point mask inside, when given): the one route to groups.

    Boundaries are built through d_max + 1, or as far as the complex reaches, 0 past
    that, checked to compose to zero and each reduced once.
    H_n = Z^(c_n - rank d_n - rank d_{n+1}) + the torsion of d_{n+1}.
    """
    boundaries = [None] + [_boundary_from_lists(simplices[n], {s: i for i, s in enumerate(simplices[n - 1])},
                                                n, inside) for n in range(1, min(d_max + 2, len(simplices)))]
    if not _is_complex(boundaries):
        raise HomologyError("boundary matrices fail the complex identity")
    ranks, torsion = [0] * (d_max + 2), [()] * (d_max + 2)
    for n, d in enumerate(boundaries[1:], 1):
        ranks[n], facs = _sparse_invariants(d.rows)  # built here, so reduced in place
        torsion[n] = tuple(f for f in facs if f >= 2)
    dims = [len(level) for level in simplices[:d_max + 1]] + [0] * (d_max + 1 - len(simplices))
    return [FGAbGroup(c - ranks[n] - ranks[n + 1], torsion[n + 1]) for n, c in enumerate(dims)]


def _clique_groups(X, k, d_max, basis_cap, Y=None):
    """Groups 0..d_max of the scale-k clique complex (relative to Y when given), built through
    d_max + 1 with basis_cap counting the (quotient's) tuples of each degree."""
    g = X.coarse.graph(k)
    inside = None if Y is None else [p in Y for p in g.points]
    return _simplicial_groups(_cliques(g, d_max + 1, basis_cap, k, True, inside), d_max, inside)


def homology_at_scale(X, k, d_max, basis_cap=DEFAULT_BASIS_CAP):
    """Homology groups of the controlled-tuple complex, degrees 0..d_max.

    Computed on the chain-equivalent clique complex, built through d_max + 1
    and checked to be a complex exactly; no tuple is enumerated.  basis_cap
    bounds the tuple basis of each degree, as in chain_complex, and is
    refused at the same degree with the same message.
    """
    check_degree(d_max)
    return _clique_groups(X, k, d_max, basis_cap)


def _colimit_groups(X, d_max):
    """Groups 0..d_max at stabilization, where each coarse component is a clique, so a
    cone: Z^(components) in degree 0 and 0 above, counted off the stored components.

    Grown to stabilization, row i of the hop table holds the whole component
    of i, so a component is a clique when no row reaches past the
    stabilization scale.  A component that is not a clique means a fault in
    stabilization: refused, naming the least unrelated pair.
    """
    stab = X.coarse.stabilization()
    pts = X.points
    for i, row in enumerate(X.coarse.hop_rows()):
        if next(reversed(row.values())) > stab:  # distances never decrease along a row
            j = min(j for j, dist in row.items() if dist > stab)
            raise HomologyError(f"{pts[i]!r} and {pts[j]!r} share a component but "
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
    check_degree(d_max)
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
    relative clique chains; basis_cap bounds the quotient's tuples in each degree."""
    check_degree(d_max)
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


def mv_check(X, Z, family: BigFamilyPrefix, k, d_max, basis_cap=DEFAULT_BASIS_CAP):
    """Excision shadow: compare H(Z, Z∩Y_m) with H(X, Y_m) through the inclusion.

    With Z ∪ Y_i0 = X and closure_at(k)[Y_i0] ⊆ Y_m, a scale-k simplex of X with a
    vertex v outside Y_m has v in Z, and a vertex w outside Z would lie in Y_i0 and
    put v in Y_m; so both relative clique complexes hold the same simplices and the
    inclusion is the identity.  A false witness that breaks this is refused with the
    first simplex of X's complex, in its order, that is missing from Z's.
    """
    check_scale(k)
    check_degree(d_max)
    Zset = X.ground.check_subset(Z)
    i0 = next((i for i, Y in enumerate(family.members) if Zset | Y == frozenset(X.points)), None)
    if i0 is None:
        missing = sorted(frozenset(X.points) - Zset.union(*family.members[-1:]))[:3]
        raise NotComplementary(f"no family member completes Z to X; sample uncovered points {missing}")
    m = family.witness.get((i0, k))
    if m is None:
        raise PrefixTooShort(i0, k)
    Ym = family.members[m]
    g = X.coarse.graph(k)
    inside = [p in Ym for p in g.points]
    # Z's relative complex is the subcomplex of X's on the simplices in Z, so the two are
    # equal, and so are their groups, when every simplex of X's is in Z
    simplices = _cliques(g, d_max + 1, basis_cap, k, True, inside)
    for level in simplices:
        for t in level:
            s = tuple(g.points[i] for i in t)
            if not Zset.issuperset(s):
                raise HomologyError(f"simplex {s} of the relative complex of X at scale {k} does not lie "
                                    f"in Z; the witness ({i0}, {k}) -> {m} is false")
    groups = _simplicial_groups(simplices, d_max, inside)
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

    @property
    def dim_built(self):
        return len(self.simplices) - 1

    def boundary(self, n):
        if n < 1 or n > self.dim_built:
            raise ValueError("degree out of the built range")
        # increasing simplices never repeat an entry, so every face is kept
        index_prev = {s: i for i, s in enumerate(self.simplices[n - 1])}
        return _boundary_from_lists(self.simplices[n], index_prev, n)

    def homology(self, d_max):
        """Groups in degrees 0..d_max.

        Degree d is exact for the complex as built; build through d+1 when the
        complex is a truncation of something deeper (skeleton homology otherwise).
        """
        check_degree(d_max)
        return _simplicial_groups(self.simplices, d_max)

    def betti(self, d_max):
        return [g.free_rank for g in self.homology(d_max)]


def _tuple_count(clique_counts, n):
    """Number of degree-n controlled tuples, from clique_counts[m - 1] = number of m-cliques.

    The entries of a tuple span a clique, and the tuples of length L whose
    entries are exactly a given m-clique number w(m, L): the words without
    adjacent repeats over m letters, by inclusion-exclusion over the letters
    left out.  w(m, m) = m! >= 1, so more than cap (n+1)-cliques already mean
    more than cap tuples in degree n.
    """
    L = n + 1
    return sum(c * sum((-1) ** j * comb(m, j) * (m - j) * (m - j - 1) ** (L - 1)
                       for j in range(m + 1))
               for m, c in enumerate(clique_counts[:L], 1))


def _cliques(g: ScaleGraph, d_max, cap, scale, tuples=False, inside=None):
    """Strictly increasing index tuples spanning cliques, by dimension, each in lex order.

    Built one dimension at a time, each simplex extended by the later common
    neighbours of its vertices; with a point mask inside, those wholly in it are
    grown from but neither kept nor counted.  cap bounds the simplices kept so
    far; with tuples it bounds instead the controlled tuples of each degree not
    wholly inside (_tuple_count of the kept cliques), refused at the least
    degree past it before the next dimension is built.  Without a mask a level
    stops growing once it alone is past the cap.
    """
    # a negative cap refuses the first simplex, as a cap of 0 does
    limit = None if cap is None else max(cap, 0)
    unit = "tuples" if tuples else "simplices"
    sets = g.sets
    later = [[j for j in nb if j > i] for i, nb in enumerate(g.nbrs)]
    out: List[List[tuple]] = []
    built = 0
    for dim in range(d_max + 1):
        if dim == 0:
            grown = ((i,) for i in range(len(sets)))
        else:
            grown = (s + (j,) for s in level for j in later[s[-1]]
                     if all(j in sets[i] for i in s[:-1]))
        room = None if limit is None else limit - (0 if tuples else built)
        level = list(grown if room is None or inside is not None else islice(grown, room + 1))
        kept = level if inside is None else [s for s in level if not all(inside[i] for i in s)]
        if room is not None and len(kept) > room:
            raise DegreeCapExceeded(dim, scale, cap, unit)
        out.append(kept)
        built += len(kept)
        if tuples and limit is not None and _tuple_count([len(lv) for lv in out], dim) > limit:
            raise DegreeCapExceeded(dim, scale, cap, unit)
    return out


def rips_complex(X, k, d_max, basis_cap=DEFAULT_BASIS_CAP, points=None):
    """Clique complex of the symmetrized relation at scale k.

    With points given, uses the relation induced on that subset (in ambient order).
    """
    check_degree(d_max)
    g = X.coarse.graph(k)
    if points is not None:
        g = g.restrict(X.ground.check_subset(points))
    return SimplicialComplex(list(g.points), _cliques(g, d_max, basis_cap, k))
