"""Seeded input generators.

Everything here is plain data (point lists, pair lists, rational distance
rows, integer rows, map tables); the program only ever sees these generated
inputs.  The same seed gives the same inputs.
"""

import random
from fractions import Fraction


def capped_pairs(rng: random.Random, n, m, comp_cap):
    """Points 0..n-1 and m random generator pairs whose components stay <= comp_cap.

    Sizes are fixed and components small, so the work per space varies
    little from seed to seed while the shapes (and groups) do.
    """
    parent = list(range(n))
    size = [1] * n

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = []
    while len(pairs) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        ra, rb = find(a), find(b)
        if ra != rb:
            if size[ra] + size[rb] > comp_cap:
                continue
            parent[rb] = ra
            size[ra] += size[rb]
        pairs.append((a, b))
    return list(range(n)), pairs


def explicit_space_doc(rng: random.Random, n=48, m=48, comp_cap=4):
    """Arguments for make_explicit_space: points, one or two generator lists, bornology."""
    points, pairs = capped_pairs(rng, n, m, comp_cap)
    n_gens = rng.randint(1, 2)
    return points, [pairs[i::n_gens] for i in range(n_gens)], [points]


def neighbours(points, pairs):
    """Scale-1 neighbour lists (including the point itself), in point order."""
    nb = {p: {p} for p in points}
    for a, b in pairs:
        nb[a].add(b)
        nb[b].add(a)
    return {p: sorted(s) for p, s in nb.items()}


def close_map_pair(rng: random.Random):
    """A capped explicit space and two self-maps, each within one step of the identity.

    Both maps move every point to itself or to a scale-1 neighbour, so the
    pair is close and each map is controlled: prism() must verify.
    """
    points, pairs = capped_pairs(rng, 14, 16, 6)
    nb = neighbours(points, pairs)

    def draw():
        return {p: (rng.choice(nb[p]) if rng.random() < 0.5 else p) for p in points}

    return (points, [pairs], [points]), draw(), draw()


def metric_doc(rng: random.Random, n=12):
    """Points on a rational grid in the plane with the l1 metric, and scales.

    Coordinates are multiples of 1/2 or 1/3, so distances are exact
    rationals; ball covers of such clouds sometimes need the clique route
    to verify their Lebesgue scale.
    """
    den = rng.choice((2, 3))
    coords = set()
    while len(coords) < n:
        coords.add((Fraction(rng.randint(0, 6 * den), den), Fraction(rng.randint(0, 6 * den), den)))
    coords = sorted(coords)
    dist = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in coords] for a in coords]
    scales = [Fraction(3, 2), Fraction(5, 2), Fraction(4)]
    return list(range(n)), dist, scales


def dense_matrix(rng: random.Random, n=24, lo=-3, hi=3):
    """An n x n integer matrix with entries in [lo, hi]."""
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
