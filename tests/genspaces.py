"""Deterministic pseudo-random space generator shared by the test suite."""

import random
from fractions import Fraction
from itertools import combinations

from coarsehom import make_explicit_space


def random_explicit_space(rng: random.Random, max_points=40, max_pairs=120):
    """A valid explicit space: random generator pairs, maximal bornology.

    Half of the draws stay sparse (at most 2n pairs) so stabilized closures
    keep a mix of clique sizes.
    """
    n = rng.randint(1, max_points)
    points = list(range(n))
    if rng.random() < 0.5:
        m = rng.randint(0, min(max_pairs, 2 * n))
    else:
        m = rng.randint(0, max_pairs)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    n_gens = rng.randint(1, 3)
    gens = [[] for _ in range(n_gens)]
    for i, pair in enumerate(pairs):
        gens[i % n_gens].append(pair)
    return make_explicit_space(points, gens, [points])


def random_capped_space(rng: random.Random, max_points=40, max_pairs=120, comp_cap=12):
    """Random space whose coarse components stay at or below comp_cap points.

    Pairs that would merge two components past the cap are skipped, so the
    stabilized closure is a disjoint union of cliques of at most comp_cap
    points and degree-3 tuple bases stay inside the default basis cap.
    Returns the space together with the accepted generator pairs.
    """
    n = rng.randint(1, max_points)
    points = list(range(n))
    m = rng.randint(0, min(max_pairs, 3 * n))
    parent = list(range(n))
    size = [1] * n

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = []
    for _ in range(m):
        a, b = rng.randrange(n), rng.randrange(n)
        ra, rb = find(a), find(b)
        if ra != rb:
            if size[ra] + size[rb] > comp_cap:
                continue
            parent[rb] = ra
            size[ra] += size[rb]
        pairs.append((a, b))
    n_gens = rng.randint(1, 2)
    gens = [[] for _ in range(n_gens)]
    for i, pair in enumerate(pairs):
        gens[i % n_gens].append(pair)
    gens = [g for g in gens if g]
    return make_explicit_space(points, gens, [points]), pairs


# rationals in (0, 4] with denominators 1..6
RATIONAL_GRID = sorted({Fraction(a, q) for q in range(1, 7) for a in range(1, 4 * q + 1)})


def spell_rational(rng: random.Random, v: Fraction):
    """v as a Fraction, an int (when integral) or a 'p/q' string, often not in lowest terms."""
    c = rng.randrange(3)
    if c == 0:
        return v
    if c == 1 and v.denominator == 1:
        return int(v)
    m = rng.randint(1, 3)
    return f"{v.numerator * m}/{v.denominator * m}"


def random_metric_document(rng: random.Random, faults=(), max_points=7):
    """(points, dist, scales) for from_metric: a symmetric rational matrix and scales.

    Entries have denominators 1..6; about a third equal a scale, so the
    strict d < r decides them.  Each entry is spelled independently of its
    mirror, so equal values arrive as e.g. '3/6' and Fraction(1, 2).  Each
    name in faults plants one defect at a random place: "negative" (both
    sides of a pair), "asymmetric" (one side of a pair), "diagonal".
    """
    n = rng.randint(2 if faults else 1, max_points)
    points = rng.sample(range(100), n)
    scales = sorted(rng.sample(RATIONAL_GRID, rng.randint(1, 3)))
    vals = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vals[i][j] = vals[j][i] = rng.choice(scales) if rng.random() < 0.35 else rng.choice(RATIONAL_GRID)
    for fault in faults:
        i, j = rng.sample(range(n), 2)
        if fault == "negative":
            vals[i][j] = vals[j][i] = -rng.choice(RATIONAL_GRID)
        elif fault == "asymmetric":
            vals[i][j] = vals[j][i] + Fraction(1, rng.randint(1, 6))
        else:
            vals[i][i] = rng.choice(RATIONAL_GRID)
    dist = [[spell_rational(rng, v) for v in row] for row in vals]
    return points, dist, [spell_rational(rng, r) for r in scales]


def moore_space(p):
    """Flag-complex Moore space M(Z/p, 1), p >= 2, with H = [Z, Z/p, 0] at scale 1.

    A disk: a centre c, a ring r_0..r_{3p-1} around it and a 3p-gon rim whose
    vertex i is glued to a_(i mod 3), so the rim wraps p times onto the
    triangle a_0 a_1 a_2.  The two rim neighbours of each ring vertex go to
    distinct a's, so the glued triangles form a simplicial complex.  It is not
    a flag complex (a_0 a_1 a_2 is an empty triangle), so the space is its
    barycentric subdivision: one point per face and a pair per proper face
    inclusion, whose scale-1 clique complex is the subdivision.
    """
    n = 3 * p
    ring = [f"r{i}" for i in range(n)]
    rim = [f"a{i % 3}" for i in range(n)]
    triangles = []
    for i in range(n):
        j = (i + 1) % n
        triangles += [(rim[i], rim[j], ring[i]), (rim[j], ring[i], ring[j]), ("c", ring[i], ring[j])]
    return subdivision(triangles)


def klein_bottle_triangles():
    """A Klein bottle as 18 triangles on 9 vertices v_ij.

    A 3 x 3 grid of squares, each cut along a diagonal into two triangles.
    Columns close up as a circle; the top row is glued to the bottom one with
    the columns reversed (i -> -i), which makes the surface non-orientable.
    Distinct triangles have distinct vertex sets and each edge lies on
    exactly two.
    """
    def v(i, j):
        return f"v{(-i if j >= 3 else i) % 3}{j % 3}"

    triangles = []
    for i in range(3):
        for j in range(3):
            triangles += [(v(i, j), v(i + 1, j), v(i + 1, j + 1)), (v(i, j), v(i, j + 1), v(i + 1, j + 1))]
    return triangles


def klein_bottle():
    """Flag-complex Klein bottle, 54 points, with H = [Z, Z + Z/2, 0] at scale 1: the
    barycentric subdivision of klein_bottle_triangles(), as in moore_space."""
    return subdivision(klein_bottle_triangles())


def subdivision(triangles):
    """Barycentric subdivision of the simplicial complex the triangles span (vertices are
    strings): one point per face, named by its vertices, and a pair per proper face inclusion."""
    faces = sorted({f for t in triangles for size in (1, 2, 3) for f in combinations(sorted(t), size)})
    names = ["-".join(f) for f in faces]
    pairs = [(names[a], names[b]) for a, fa in enumerate(faces) for b, fb in enumerate(faces)
             if len(fa) < len(fb) and set(fa) <= set(fb)]
    return make_explicit_space(names, [pairs], [names])


def suspension(X):
    """The suspension of X's scale-1 clique complex: two apexes, each related to every point
    of X and not to each other, so reduced H_(n+1) of the suspension is reduced H_n of X."""
    pts = list(X.points)
    apexes = [("apex", 0), ("apex", 1)]
    pairs = [pair for E in X.coarse.generators for pair in E.pairs]
    pairs += [(a, p) for a in apexes for p in pts]
    return make_explicit_space(pts + apexes, [pairs], [pts + apexes])
