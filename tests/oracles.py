"""Independent oracles used to freeze expected values.

Everything here is implemented from first principles (BFS, union-find,
itertools enumeration, sympy Smith form) without importing the package under
test, so oracle agreement is a genuine cross-check and not a tautology.
Spaces reach an oracle as plain data: points in ground order, generator
pairs, bornology generators.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import sympy
from sympy.matrices.normalforms import smith_normal_form


def bfs_distance_pairs(points, edges, k):
    """All ordered pairs at graph distance <= k in the undirected graph."""
    adj = {p: set() for p in points}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = set()
    for src in points:
        dist = {src: 0}
        q = deque([src])
        while q:
            v = q.popleft()
            if dist[v] == k:
                continue
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        out.update((v, src) for v in dist)
        out.update((src, v) for v in dist)
    return out


def union_find_components(points, edges):
    """Connected components as a set of frozensets."""
    parent = {p: p for p in points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for p in points:
        groups.setdefault(find(p), set()).add(p)
    return {frozenset(g) for g in groups.values()}


def clique_complex(points, edges, max_dim):
    """All cliques of size <= max_dim + 1, as a set of frozensets."""
    adj = {p: set() for p in points}
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    simplices = set()
    pts = list(points)
    for size in range(1, max_dim + 2):
        for combo in combinations(pts, size):
            if all(b in adj[a] for a, b in combinations(combo, 2)):
                simplices.add(frozenset(combo))
    return simplices


def set_cliques(sets, d_max, inside=None):
    """Strictly increasing index tuples spanning cliques of the graph with neighbour sets
    sets (i in sets[i]), by dimension through d_max, each level in lex order.

    Built one dimension at a time, each simplex extended by the later common
    neighbours of its vertices, one set membership test each; with a point mask
    inside, the points outside it come first in that order, so only simplices
    not wholly inside are grown, each from its first point outside, and each
    level is sorted back into increasing tuples.
    """
    n = len(sets)
    nbrs = [sorted(s) for s in sets]
    if inside is None:
        starts, later = range(n), [[j for j in nb if j > i] for i, nb in enumerate(nbrs)]
    else:
        key, starts = [i + n * x for i, x in enumerate(inside)], [i for i in range(n) if not inside[i]]
        later = [[j for j in nb if key[j] > key[i]] for i, nb in enumerate(nbrs)]
    out, level = [], [(i,) for i in starts]
    for dim in range(d_max + 1):
        if dim:
            level = [s + (j,) for s in level for j in later[s[-1]] if all(j in sets[i] for i in s[:-1])]
        out.append(level if inside is None else sorted(tuple(sorted(s)) for s in level))
    return out


def relative_boundaries(simplices, d_max, inside=None):
    """[None, d_1, ..., d_{d_max+1}] of a simplicial complex as lists of row dicts
    {column: value}, from the alternating face sum; with a point mask inside, the
    relative chains, so a face wholly in it is dropped.  Levels past the list are empty."""
    levels = list(simplices) + [[]] * (d_max + 2 - len(simplices))
    out = [None]
    for n in range(1, d_max + 2):
        index = {s: i for i, s in enumerate(levels[n - 1])}
        rows = [{} for _ in levels[n - 1]]
        for j, s in enumerate(levels[n]):
            for i in range(n + 1):
                face = s[:i] + s[i + 1:]
                if inside is None or not all(inside[v] for v in face):
                    rows[index[face]][j] = (-1) ** i
        out.append(rows)
    return out


def maximal_cliques(points, edges):
    """Maximal cliques as a set of frozensets, by testing every subset of points.

    A subset is a maximal clique when its pairs are all edges and no other
    point is adjacent to all of it; an isolated point is a singleton clique.
    """
    adj = {p: set() for p in points}
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    pts = list(points)
    out = set()
    for size in range(1, len(pts) + 1):
        for combo in combinations(pts, size):
            if (all(b in adj[a] for a, b in combinations(combo, 2))
                    and not any(all(c in adj[q] for c in combo) for q in pts if q not in combo)):
                out.add(frozenset(combo))
    return out


def simplicial_homology(simplices, max_degree, point_order=None):
    """Integer homology of an abstract simplicial complex via sympy's Smith form.

    simplices: iterable of vertex collections (downward closure taken here).
    Returns [(free_rank, [torsion coefficients >= 2]), ...] for degrees
    0..max_degree.
    """
    closed = set()
    for s in simplices:
        s = tuple(s)
        for size in range(1, len(s) + 1):
            for face in combinations(sorted(s, key=point_order) if point_order else sorted(s), size):
                closed.add(frozenset(face))
    key = point_order if point_order else (lambda v: v)
    by_dim = {}
    for s in closed:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s, key=key)))
    for d in by_dim:
        by_dim[d].sort()
    index = {d: {s: i for i, s in enumerate(by_dim[d])} for d in by_dim}

    def boundary(d):
        rows = len(by_dim.get(d - 1, [])) if d >= 1 else 0
        cols = len(by_dim.get(d, []))
        M = sympy.zeros(rows, cols)
        if d == 0:
            return M
        for j, s in enumerate(by_dim.get(d, [])):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                M[index[d - 1][face], j] += (-1) ** i
        return M

    out = []
    for n in range(max_degree + 1):
        cn = len(by_dim.get(n, []))
        if cn == 0:
            out.append((0, []))
            continue
        dn = boundary(n)
        dn1 = boundary(n + 1)
        rank_dn = dn.rank() if dn.rows and dn.cols else 0
        rank_dn1 = dn1.rank() if dn1.rows and dn1.cols else 0
        free = cn - rank_dn - rank_dn1
        torsion = []
        if dn1.rows and dn1.cols:
            snf = smith_normal_form(sympy.Matrix(dn1), domain=sympy.ZZ)
            diag = [abs(int(snf[i, i])) for i in range(min(snf.rows, snf.cols))]
            torsion = [d for d in diag if d >= 2]
        out.append((free, sorted(torsion)))
    return out


def bareiss_det(M):
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(map(int, row)) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def minor_gcd_invariant_factors(M):
    """Invariant factors via gcds of k x k minors; exact, small matrices only."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    factors = []
    prev_gcd = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                minor = [[M[i][j] for j in csel] for i in rsel]
                g = gcd(g, abs(bareiss_det(minor)))
        if g == 0:
            break
        factors.append(g // prev_gcd)
        prev_gcd = g
    return factors


def chain_homology(dims, boundaries, max_degree):
    """Homology of an integer chain complex from dense boundary matrices.

    dims[n] = number of n-chains, boundaries[n] = matrix sending n-chains to
    (n-1)-chains as a list of rows.  Degrees beyond the supplied data count as
    zero.  Returns [(free_rank, [torsion coefficients >= 2]), ...].
    """

    def mat(n):
        if n <= 0 or n >= len(dims) or n >= len(boundaries):
            return None
        rows = boundaries[n]
        if not rows or not rows[0]:
            return None
        return sympy.Matrix(rows)

    out = []
    for n in range(max_degree + 1):
        cn = dims[n] if n < len(dims) else 0
        if cn == 0:
            out.append((0, []))
            continue
        dn = mat(n)
        dn1 = mat(n + 1)
        rank_dn = dn.rank() if dn is not None else 0
        rank_dn1 = dn1.rank() if dn1 is not None else 0
        torsion = []
        if dn1 is not None:
            snf = smith_normal_form(dn1, domain=sympy.ZZ)
            diag = [abs(int(snf[i, i])) for i in range(min(snf.rows, snf.cols))]
            torsion = [d for d in diag if d >= 2]
        out.append((cn - rank_dn - rank_dn1, sorted(torsion)))
    return out


def measure_complex(points, pairs, d_max):
    """Supports of bounded probability measures, by dimension, as index tuples into points.

    A support is a set S of points with S x S inside the relation given by
    pairs (the scale-k closure of a space), so these are the cliques of that
    relation; each is grown by testing every later point against all of it.
    """
    points = list(points)
    related = set(pairs)
    simplices = [[] for _ in range(d_max + 1)]

    def grow(s):
        simplices[len(s) - 1].append(s)
        if len(s) > d_max:
            return
        for j in range(s[-1] + 1, len(points)):
            if all((points[i], points[j]) in related for i in s):
                grow(s + (j,))

    for i in range(len(points)):
        grow((i,))
    return simplices


def sparse_invariant_factors(rows):
    """Nonzero invariant factors, 1s included, ascending, of a matrix given as sparse rows.

    rows: a list of dicts {column: value}.  A row with a ±1 entry, taken in
    row order, clears that entry's column by row operations and then drops
    out with factor 1 (column operations would clear the rest of it without
    touching any other row).  The rows that never offer a unit go whole, as
    a dense matrix, to reference_smith_normal_form.
    """
    rows = [dict(r) for r in rows if r]
    units = 0
    changed = True
    while changed:
        changed = False
        for r in range(len(rows)):
            prow = rows[r]
            c = next((j for j, v in prow.items() if v in (1, -1)), None)
            if c is None:
                continue
            v = prow[c]
            for i, row in enumerate(rows):
                if i != r and c in row:
                    q = row[c] * v
                    for j, x in prow.items():
                        w = row.get(j, 0) - q * x
                        if w:
                            row[j] = w
                        else:
                            del row[j]
            rows[r] = {}
            units += 1
            changed = True
        rows = [row for row in rows if row]
    cols = sorted({j for row in rows for j in row})
    dense = [[row.get(j, 0) for j in cols] for row in rows]
    _, S, _, _, _ = reference_smith_normal_form(dense, track_U=False, track_V=False)
    rest = [abs(S[i][i]) for i in range(min(len(rows), len(cols))) if S[i][i]]
    return sorted([1] * units + rest)


def sparse_chain_homology(dims, boundaries, max_degree):
    """chain_homology for boundaries given as sparse rows: boundaries[n] holds d_n's rows.

    boundaries[0] is ignored; a missing or None boundary is zero.  Returns
    [(free_rank, [torsion coefficients >= 2]), ...] for degrees 0..max_degree.
    """
    facs = [[]]
    for n in range(1, max_degree + 2):
        rows = boundaries[n] if n < len(boundaries) else None
        facs.append(sparse_invariant_factors(rows) if rows else [])
    return [((dims[n] if n < len(dims) else 0) - len(facs[n]) - len(facs[n + 1]),
             [d for d in facs[n + 1] if d >= 2])
            for n in range(max_degree + 1)]


def full_boundary_groups(simplices, d_max, kernel, inside=None):
    """Groups 0..d_max of a simplicial complex with every full boundary reduced by kernel.

    simplices: increasing index tuples by dimension; with a point mask inside,
    the relative chains, so none lies wholly in it.  Each boundary comes from
    relative_boundaries, a face wholly in inside dropped, and is handed whole
    to kernel(rows) -> (rank, invariant factors, ...), rows a
    list of dicts {column: value}: no spanning forest and no row dropped.
    Returns [(free_rank, [torsion coefficients >= 2]), ...].
    """
    levels = list(simplices) + [[]] * (d_max + 2 - len(simplices))
    ranks, torsion = [0] * (d_max + 2), [[]] * (d_max + 2)
    for n, rows in enumerate(relative_boundaries(simplices, d_max, inside)[1:], 1):
        ranks[n], facs = kernel(rows)[:2]
        torsion[n] = [f for f in facs if f >= 2]
    return [(len(levels[n]) - ranks[n] - ranks[n + 1], torsion[n + 1]) for n in range(d_max + 1)]


def smith_invariant_factors(rows):
    """Nonzero invariant factors, 1s included, ascending, via sympy's Smith form."""
    if not rows or not rows[0]:
        return []
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    return sorted(abs(int(snf[i, i])) for i in range(min(snf.rows, snf.cols)) if snf[i, i] != 0)


def reference_smith_normal_form(A, track_U=True, track_V=True):
    """The dense Smith normal form as first written: (U, S, V, U_inv, V_inv).

    Pivot is the least |nonzero| entry, ties row-major, found by a full scan;
    every row and column operation runs over whole rows and columns.  The
    package's kernel must produce these exact matrices, not merely a valid
    Smith form, because frozen generator chains follow from the pivot order.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    S = [[int(x) for x in row] for row in A]

    def eye(k):
        return [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    U, Ui = (eye(m), eye(m)) if track_U else (None, None)
    V, Vi = (eye(n), eye(n)) if track_V else (None, None)

    def swap_rows(a, b):
        if a == b:
            return
        S[a], S[b] = S[b], S[a]
        if track_U:
            Ui[a], Ui[b] = Ui[b], Ui[a]
            for r in U:
                r[a], r[b] = r[b], r[a]

    def swap_cols(a, b):
        if a == b:
            return
        for r in S:
            r[a], r[b] = r[b], r[a]
        if track_V:
            V[a], V[b] = V[b], V[a]
            for r in Vi:
                r[a], r[b] = r[b], r[a]

    def row_sub(i, d, q):
        # S: row_i -= q*row_d; keeps A = U S V
        if q == 0:
            return
        Si, Sd = S[i], S[d]
        for j in range(n):
            Si[j] -= q * Sd[j]
        if track_U:
            UIi, UId = Ui[i], Ui[d]
            for j in range(m):
                UIi[j] -= q * UId[j]
            for r in U:
                r[d] += q * r[i]

    def col_sub(j, d, q):
        # S: col_j -= q*col_d
        if q == 0:
            return
        for r in S:
            r[j] -= q * r[d]
        if track_V:
            Vd, Vj = V[d], V[j]
            for t in range(n):
                Vd[t] += q * Vj[t]
            for r in Vi:
                r[j] -= q * r[d]

    def negate_row(d):
        S[d] = [-x for x in S[d]]
        if track_U:
            Ui[d] = [-x for x in Ui[d]]
            for r in U:
                r[d] = -r[d]

    def row_add(d, i):
        # S: row_d += row_i
        Sd, Si = S[d], S[i]
        for j in range(n):
            Sd[j] += Si[j]
        if track_U:
            UId, UIi = Ui[d], Ui[i]
            for j in range(m):
                UId[j] += UIi[j]
            for r in U:
                r[i] -= r[d]

    d = 0
    while d < m and d < n:
        best = None
        for i in range(d, m):
            Si = S[i]
            for j in range(d, n):
                v = Si[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        swap_rows(d, best[1])
        swap_cols(d, best[2])
        if S[d][d] < 0:
            negate_row(d)
        while True:
            restart = False
            for i in range(d + 1, m):
                if S[i][d]:
                    q = S[i][d] // S[d][d]
                    row_sub(i, d, q)
                    if S[i][d]:
                        swap_rows(d, i)
                        if S[d][d] < 0:
                            negate_row(d)
                        restart = True
                        break
            if restart:
                continue
            for j in range(d + 1, n):
                if S[d][j]:
                    q = S[d][j] // S[d][d]
                    col_sub(j, d, q)
                    if S[d][j]:
                        swap_cols(d, j)
                        if S[d][d] < 0:
                            negate_row(d)
                        restart = True
                        break
            if restart:
                continue
            pivot = S[d][d]
            fix = None
            for i in range(d + 1, m):
                Si = S[i]
                for j in range(d + 1, n):
                    if Si[j] % pivot:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            row_add(d, fix)
        d += 1
    return U, S, V, Ui, Vi


def reference_presentation(c, d_n, d_next):
    """The dense presentation of H_n as first written, on reference_smith_normal_form.

    c is the size of the degree-n basis; d_n (None in degree 0) and d_next
    are the boundaries into and out of degree n as dense list rows.  V and
    V⁻¹ come from the Smith form of d_n, the image of d_next in kernel
    coordinates (each distinct nonzero column once) is reduced again, and
    generators and coordinates follow as the package first computed them.
    Returns (free_rank, torsion, factors, rank_dn, generator_chains,
    class_coordinates, image_columns): class_coordinates maps a dense chain
    to its coordinates, or to None when the chain is not a cycle, and
    image_columns counts the distinct nonzero image columns reduced.
    """
    def eye(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    if d_n:
        _, S, V, _, Vi = reference_smith_normal_form(d_n, track_U=False)
        r = sum(1 for i in range(min(len(S), c)) if S[i][i])
    else:
        r, V, Vi = 0, eye(c), eye(c)
    t = c - r
    kernel_cols = [list(col) for col in zip(*Vi)][r:]
    wcols, seen = [], set()
    for dcol in zip(*d_next):
        nz = [(rr, x) for rr, x in enumerate(dcol) if x]
        col = [sum(V[r + i][rr] * x for rr, x in nz) for i in range(t)]
        if any(col) and tuple(col) not in seen:
            seen.add(tuple(col))
            wcols.append(col)
    if wcols:
        U, S, _, Ui, _ = reference_smith_normal_form([list(row) for row in zip(*wcols)],
                                                     track_V=False)
        factors = [S[i][i] for i in range(min(t, len(wcols))) if S[i][i]]
    else:
        factors, U, Ui = [], eye(t), eye(t)
    gens = [i for i in range(len(factors)) if factors[i] >= 2] + list(range(len(factors), t))
    chains = [[sum(U[a][i] * kernel_cols[a][b] for a in range(t)) for b in range(c)]
              for i in gens]

    def class_coordinates(chain):
        y = [sum(row[i] * x for i, x in enumerate(chain)) for row in V]
        if any(y[:r]):
            return None
        a = [sum(Ui[i][j] * x for j, x in enumerate(y[r:])) for i in gens]
        return tuple(x % factors[i] if i < len(factors) else x for i, x in zip(gens, a))

    return (t - len(factors), [d for d in factors if d >= 2], factors, r, chains,
            class_coordinates, len(wcols))


def hop_distances(points, edges):
    """{p: {q: hop distance}} in the symmetrized generator graph, by BFS from every point."""
    adj = {p: set() for p in points}
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    dist = {}
    for src in points:
        seen = {src: 0}
        q = deque([src])
        while q:
            v = q.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen[w] = seen[v] + 1
                    q.append(w)
        dist[src] = seen
    return dist


def big_family_reference(points, edges, A, depth):
    """Members Y_i = {x : d(x, A) <= i} for i = 0..depth, and witness[(i, k)] = least j with
    {x : d(x, Y_i) <= k} inside Y_j, absent when there is none, for i, k = 0..depth; every
    thickening taken from the hop distances, every witness found by scanning j."""
    dist = hop_distances(points, edges)

    def thicken(B, k):
        return frozenset(x for x in points if any(dist[b].get(x, k + 1) <= k for b in B))

    members = [thicken(A, i) for i in range(depth + 1)]
    witness = {}
    for i in range(depth + 1):
        for k in range(depth + 1):
            target = thicken(members[i], k)
            j = next((j for j, Y in enumerate(members) if target <= Y), None)
            if j is not None:
                witness[(i, k)] = j
    return tuple(members), witness


def colimit_reference(points, edges, scale, d_max):
    """The colimit at a claimed stabilization scale, by BFS from every point: the least
    pair (p, q) in point order of one component more than scale hops apart, or, when each
    component is a clique at that scale, the free ranks per degree (one per component in
    degree 0, none above)."""
    dist = hop_distances(points, edges)
    for p in points:
        far = [q for q in points if dist[p].get(q, -1) > scale]
        if far:
            return p, far[0]
    return [len(union_find_components(points, edges))] + [0] * d_max


def largest_eccentricity(points, edges):
    """Largest hop distance between two points of one component, by BFS from every point."""
    return max((d for row in hop_distances(points, edges).values() for d in row.values()), default=0)


def net_over_order_scan(order, g):
    """A greedy net by scanning the net taken so far: x joins unless some earlier
    net point d has x in g.sets[d].  g is any object with .points and .sets."""
    index = {p: i for i, p in enumerate(g.points)}
    net = []
    for x in order:
        i = index[x]
        if all(i not in g.sets[index[d]] for d in net):
            net.append(x)
    return net


def controlled_tuples_reference(points, edges, k, n):
    """Degree-n controlled tuples at scale k by brute force, in lex order of ground indices.

    Every (n+1)-tuple of point indices is tried in product order; it is kept
    when no two adjacent entries are equal and every two entries are within
    hop distance k in the symmetrized generator graph.
    """
    dist = hop_distances(points, edges)
    out = []
    for t in product(range(len(points)), repeat=n + 1):
        if any(a == b for a, b in zip(t, t[1:])):
            continue
        named = tuple(points[i] for i in t)
        if all(dist[a].get(b, k + 1) <= k for a in named for b in named):
            out.append(named)
    return out


def quotient_tuples_reference(points, edges, k, n, Y, Z=None):
    """Degree-n basis of C(Z)/C(Z ∩ Y) at scale k, in lex order of ground indices.

    The controlled tuples of the whole space (by brute force) with every
    entry in Z (all points when Z is None), less those with every entry in Y.
    """
    Y = set(Y)
    return [t for t in controlled_tuples_reference(points, edges, k, n)
            if (Z is None or set(Z).issuperset(t)) and not Y.issuperset(t)]


def quotient_boundary_reference(basis_n, basis_prev, Y):
    """Sparse rows of the alternating face sum from basis_n to basis_prev, by brute force.

    Every deletion is tried; a face with two equal adjacent entries or with
    every entry in Y is zero in the quotient.
    """
    Y = set(Y)
    index = {t: i for i, t in enumerate(basis_prev)}
    rows = [{} for _ in basis_prev]
    for col, t in enumerate(basis_n):
        for i in range(len(t)):
            face = t[:i] + t[i + 1:]
            if any(a == b for a, b in zip(face, face[1:])) or Y.issuperset(face):
                continue
            row = rows[index[face]]
            row[col] = row.get(col, 0) + (-1) ** i
    return [{j: v for j, v in row.items() if v} for row in rows]


def relative_homology_reference(points, edges, k, d_max, Y, Z=None):
    """H_0..H_d_max of the quotient tuple complex C(Z)/C(Z ∩ Y) at scale k, built through
    d_max + 1.  Returns (groups as [(free_rank, [torsion])], bases by degree)."""
    bases = [quotient_tuples_reference(points, edges, k, n, Y, Z) for n in range(d_max + 2)]
    boundaries = [None] + [quotient_boundary_reference(bases[n], bases[n - 1], Y)
                           for n in range(1, d_max + 2)]
    return sparse_chain_homology([len(b) for b in bases], boundaries, d_max), bases


def first_simplex_outside(points, edges, k, d_max, Y, Z):
    """The first simplex of the scale-k clique complex relative to Y, built through d_max + 1,
    that does not lie in Z, as a tuple of points, or None when every one does.

    The whole-complex scan: simplices by dimension, each dimension in lex order of
    ground indices, none wholly in Y; a simplex is a set of points pairwise within
    hop distance k.
    """
    related = bfs_distance_pairs(points, edges, k)
    for size in range(1, d_max + 3):
        for combo in combinations(range(len(points)), size):
            s = tuple(points[i] for i in combo)
            if (not Y.issuperset(s) and not Z.issuperset(s)
                    and all((a, b) in related for a, b in combinations(s, 2))):
                return s
    return None


def flasque_reference(points, edges, table, tested, scale_cap, iter_cap):
    """The flasqueness verdict on a window, with condition 2 as a union over all powers.

    points in ground order, edges the generator pairs, table the self-map as
    a dict, tested the bornology generators to test.  Returns
    ("certificate", cond1_scale, cond2_table, cond3_table), or the refusal as
    (condition, explanation, witness).
    """
    order = {p: i for i, p in enumerate(points)}
    dist = hop_distances(points, edges)

    def least_scale(pairs):
        worst = 0
        for x, y in pairs:
            d = dist[x].get(y)
            if d is None:
                return None
            worst = max(worst, d)
        return worst

    cond1 = least_scale((table[x], x) for x in points)
    if cond1 is None:
        return ("condition 1", "f is not close to the identity on the window", None)
    powers = [{p: p for p in points}]
    for _ in range(iter_cap):
        powers.append({p: table[powers[-1][p]] for p in points})
    cond2 = {}
    for k in range(scale_cap + 1):
        # pairs in ground order of the first point, then of the second
        closure = [(x, y) for x in points for y in sorted(dist[x], key=order.get)
                   if dist[x][y] <= k]
        found = least_scale({(fj[x], fj[y]) for fj in powers for x, y in closure})
        if found is None:
            for fj in powers:
                bad = [(x, y) for x, y in closure if fj[y] not in dist[fj[x]]]
                if bad:
                    x, y = bad[0]
                    return ("condition 2",
                            f"iterated images of closure_at({k}) escape every window closure",
                            (fj[x], fj[y]))
        cond2[k] = found
    cond3 = {}
    for B in tested:
        escaped = [j for j, fj in enumerate(powers) if not set(fj.values()) & B]
        if not escaped:
            return ("condition 3", f"no iterate up to {iter_cap} leaves the bounded generator", B)
        cond3[B] = escaped[0]
    return ("certificate", cond1, cond2, cond3)


def _closure_scan(source, target, table, k):
    """(largest target distance or None, least escaping pair) over closure_at(k) of source."""
    points, edges, _ = source
    order = {p: i for i, p in enumerate(points)}
    dsrc, dtgt = hop_distances(points, edges), hop_distances(target[0], target[1])
    pairs = sorted(((x, y) for x in points for y, d in dsrc[x].items() if d <= k),
                   key=lambda xy: (order[xy[0]], order[xy[1]]))
    worst = 0
    for x, y in pairs:
        d = dtgt[table[x]].get(table[y])
        if d is None:
            return None, (x, y)
        worst = max(worst, d)
    return worst, None


def closure_scan_shift_at(source, target, table, k):
    """Least target scale holding the image of closure_at(k), or None: the scan of one closure."""
    return _closure_scan(source, target, table, k)[0]


def closure_scan_morphism(source, target, table):
    """The morphism verdict by scanning closure_at(k) for every k up to stabilization.

    source and target are (points, edges, bornology generators), table the
    map as a dict.  Returns (controlled, proper, scale_shift,
    controlled_witness, proper_witness), the witness being the least
    escaping pair in ground order of the first point, then of the second,
    at the least scale that has one.
    """
    points, edges, bounded = source
    stable = max((d for row in hop_distances(points, edges).values() for d in row.values()),
                 default=0)
    shift, witness = {}, None
    for k in range(stable + 1):
        found, witness = _closure_scan(source, target, table, k)
        if found is None:
            break
        shift[k] = found
    covered = set().union(*bounded)
    proper_witness = next((B for B in target[2] if not {x for x in points if table[x] in B} <= covered),
                          None)
    return witness is None, proper_witness is None, shift, witness, proper_witness


def _rational_reference(value):
    """A rational as from_metric reads it, or the error it raises, as (name, message)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(value, float):
        return ("InvalidMetric",
                "distances and scales must be rational (int, Fraction or 'p/q'), not float")
    return ("InvalidMetric", f"cannot interpret {value!r} as a rational number")


def metric_space_reference(points, dist, scales):
    """from_metric by Fraction operators over every entry, row by row.

    Returns ("space", generator pair sets, distance lookup), or the first
    error as (error name, message), found in the order the rules are stated:
    entries, shape, then each row's diagonal, signs and symmetry, then scales.
    """
    n = len(points)
    rows = []
    for row in dist:
        rows.append([])
        for v in row:
            fr = _rational_reference(v)
            if isinstance(fr, tuple):
                return fr
            rows[-1].append(fr)
    if len(rows) != n or any(len(r) != n for r in rows):
        return ("InvalidMetric", f"distance matrix must be {n}x{n}")
    for i in range(n):
        if rows[i][i] != 0:
            return ("InvalidMetric", "distance matrix must have zero diagonal")
        for j in range(n):
            if rows[i][j] < 0:
                return ("NegativeDistance", f"d({points[i]!r},{points[j]!r}) = {rows[i][j]} < 0")
            if rows[i][j] != rows[j][i]:
                return ("NonSymmetricMatrix",
                        f"d({points[i]!r},{points[j]!r}) != d({points[j]!r},{points[i]!r})")
    rs = []
    for r in scales:
        fr = _rational_reference(r)
        if isinstance(fr, tuple):
            return fr
        rs.append(fr)
    if any(r <= 0 for r in rs) or any(b <= a for a, b in zip(rs, rs[1:])):
        return ("BadScales", "scales must be positive and strictly increasing")
    gens = [frozenset((points[i], points[j]) for i in range(n) for j in range(n)
                      if i != j and rows[i][j] < r) for r in rs]
    lookup = {(points[i], points[j]): rows[i][j] for i in range(n) for j in range(n)}
    return ("space", gens, lookup)


def uniform_assignments_reference(points, d, Y, Z, radii):
    """For each radius r, the least listed s with U_r[Y] & U_r[Z] <= U_s[Y & Z], or None.

    d is the distance as a function returning Fractions, radii Fractions in
    decreasing order, U_r[S] = {x : d(x, s) <= r for some s in S}.
    """
    def ball(S, r):
        return {x for x in points if any(d(x, s) <= r for s in S)}

    meet = set(Y) & set(Z)
    out = []
    for r in radii:
        overlap = ball(Y, r) & ball(Z, r)
        out.append((r, next((s for s in sorted(radii) if overlap <= ball(meet, s)), None)))
    return tuple(out)
