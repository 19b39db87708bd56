"""Independent oracles used to freeze expected values.

Everything here is implemented from first principles (BFS, union-find,
itertools enumeration, sympy Smith form) without importing the package under
test, so oracle agreement is a genuine cross-check and not a tautology.
"""

from collections import deque
from itertools import combinations
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


def smith_invariant_factors(rows):
    """Nonzero invariant factors, 1s included, ascending, via sympy's Smith form."""
    if not rows or not rows[0]:
        return []
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    return sorted(abs(int(snf[i, i])) for i in range(min(snf.rows, snf.cols)) if snf[i, i] != 0)
