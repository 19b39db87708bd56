"""Finite and windowed bornological coarse spaces.

A space is a ground set together with a coarse structure (given by entourage
generators and their scale filtration) and a bornology (given by generators of
the bounded sets).  Everything here is exact and deterministic: points carry a
total order fixed at construction, and every derived object (closures,
components, thickenings) is reported in that order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional, Sequence


class CoarseError(Exception):
    """Base class for domain errors raised by this package."""


class UnknownPoint(CoarseError):
    pass


class BornologyDoesNotCover(CoarseError):
    pass


class IncompatibleStructures(CoarseError):
    """A controlled thickening of a bounded set escaped the bornology."""


class InvalidMetric(CoarseError):
    pass


class NonSymmetricMatrix(InvalidMetric):
    pass


class NegativeDistance(InvalidMetric):
    pass


class BadScales(CoarseError):
    pass


def check_scale(k: int):
    """Refuse a negative scale index."""
    if k < 0:
        raise BadScales(f"scale-index must be >= 0, got {k}")


def check_degree(n: int):
    """Refuse a negative degree."""
    if n < 0:
        raise ValueError("degree must be >= 0")


class Record:
    """Equality and repr over the fields that __init__ sets, in that order.

    Records of one class with equal fields are equal, and a record is
    unhashable.  Fields named in _hidden stay out of the repr.
    """

    _hidden = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        shown = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if k not in self._hidden)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record that hashes by value and refuses assignment; __init__ fills vars(self) directly."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __hash__(self):
        return hash(tuple(vars(self).values()))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # 'x', '1/0'
            pass
    elif isinstance(value, float):
        # floats are rejected: exact rational input is part of the contract
        raise InvalidMetric("distances and scales must be rational (int, Fraction or 'p/q'), not float")
    raise InvalidMetric(f"cannot interpret {value!r} as a rational number")


class GroundSet:
    """Ordered set of opaque point identifiers.

    The construction order is the canonical total order used for all
    tie-breaking (component representatives, tuple enumeration, output order).
    """

    __slots__ = ("points", "_index")

    def __init__(self, points: Iterable):
        pts = tuple(points)
        index = {}
        for i, p in enumerate(pts):
            if p in index:
                raise UnknownPoint(f"duplicate point identifier {p!r}")
            index[p] = i
        self.points = pts
        self._index = index

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return p in self._index

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def index(self, p):
        try:
            return self._index[p]
        except KeyError:
            raise UnknownPoint(f"point {p!r} is not in the ground set") from None

    def check_subset(self, B: Iterable) -> frozenset:
        B = frozenset(B)
        unknown = [p for p in B if p not in self._index]
        if unknown:
            # the least by repr, so the message does not follow set iteration order
            raise UnknownPoint(f"point {min(unknown, key=repr)!r} is not in the ground set")
        return B

    def sorted(self, B: Iterable):
        """Points of B in canonical order."""
        return sorted(B, key=self._index.__getitem__)


class Entourage:
    """A finite set of ordered point pairs over a ground set.

    The frozenset of pairs is the whole representation; compose builds the
    left-neighbour index it needs for that one call.  A closure of a
    CoarseStructure is a ClosureView, which answers len and membership
    without the pair set and builds it on the first read of pairs.
    """

    __slots__ = ("ground", "pairs")

    def __init__(self, ground: GroundSet, pairs: Iterable):
        self.ground = ground
        index = ground._index
        ps = set()
        for x, y in pairs:
            if x not in index or y not in index:
                raise UnknownPoint(f"pair ({x!r}, {y!r}) leaves the ground set")
            ps.add((x, y))
        self.pairs = frozenset(ps)

    def __contains__(self, pair):
        return pair in self.pairs

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return isinstance(other, Entourage) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __le__(self, other: "Entourage"):
        return self.pairs <= other.pairs

    def inverse(self) -> "Entourage":
        return Entourage(self.ground, ((y, x) for x, y in self.pairs))

    def union(self, other: "Entourage") -> "Entourage":
        return Entourage(self.ground, self.pairs | other.pairs)

    def compose(self, other: "Entourage") -> "Entourage":
        """U o V = {(x, z) : (x, y) in U and (y, z) in V for some y}."""
        left = {}
        for x, y in self.pairs:
            left.setdefault(y, []).append(x)
        return Entourage(self.ground, [(x, z) for y, z in other.pairs for x in left.get(y, ())])

    def is_symmetric(self) -> bool:
        return all((y, x) in self.pairs for x, y in self.pairs)

    def contains_diagonal(self) -> bool:
        return all((p, p) in self.pairs for p in self.ground)

    def restrict(self, A: frozenset) -> "Entourage":
        return Entourage(self.ground, (p for p in self.pairs if p[0] in A and p[1] in A))


class ClosureView(Entourage):
    """A read-only closure_at(k) of a CoarseStructure, answered from what the structure stores.

    Below the stabilization scale rows is the hop table (dist, ends) and k the scale:
    (x, y) is a pair when y's row reaches x within k hops, and the size is the sum of
    the rows' ball sizes ends[i][k].  From the stabilization scale on rows is the
    components (comp, members) and k is None: (x, y) is a pair when x and y share a
    component, and the size is the sum of |C|^2.  The pair frozenset is built once, on
    the first read of pairs, and so also by ==, hash, <=, compose and the rest.

    The view holds the structure's lists but never the structure, so a structure and
    its cached closures make no reference cycle, and reference counting frees them.
    """

    __slots__ = ("_k", "_rows", "_built")

    def __init__(self, ground: GroundSet, k: Optional[int], rows: tuple):
        self.ground, self._k, self._rows, self._built = ground, k, rows, None

    @property
    def pairs(self) -> frozenset:
        if self._built is None:
            pts = self.ground.points
            if self._k is None:
                comps = [[pts[i] for i in c] for c in self._rows[1]]
                pairs = itertools.chain.from_iterable(itertools.product(c, c) for c in comps)
            else:
                pairs = [(pts[j], y) for y, dist, ends in zip(pts, *self._rows)
                         for j in itertools.islice(dist, ends[self._k])]
            self._built = frozenset(pairs)
        return self._built

    def __len__(self):
        if self._k is None:
            return sum(len(c) ** 2 for c in self._rows[1])
        return sum(ends[self._k] for ends in self._rows[1])

    def __contains__(self, pair):
        hash(pair)  # an unhashable value raises TypeError, as it does in a frozenset
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        index = self.ground._index
        i, j = index.get(pair[0]), index.get(pair[1])
        if i is None or j is None:
            return False
        if self._k is None:
            return self._rows[0][i] == self._rows[0][j]
        d = self._rows[0][j].get(i)
        return d is not None and d <= self._k


def diagonal(ground: GroundSet) -> Entourage:
    return Entourage(ground, ((p, p) for p in ground))


class ScaleGraph:
    """The scale-k relation as an index-space graph over a ground order.

    nbrs[i] is the sorted list of the points related to point i (i itself
    included), sets[i] the same as a set.
    """

    __slots__ = ("points", "nbrs", "sets")

    def __init__(self, points: Sequence, sets: list):
        self.points = tuple(points)
        self.sets = sets
        self.nbrs = [sorted(s) for s in sets]

    def restrict(self, subset) -> "ScaleGraph":
        """The induced graph on the points in subset, in ambient order."""
        keep = [i for i, p in enumerate(self.points) if p in subset]
        new = {old: i for i, old in enumerate(keep)}
        return ScaleGraph([self.points[i] for i in keep],
                          [{new[j] for j in self.nbrs[i] if j in new} for i in keep])


class CoarseStructure:
    """Generated coarse structure, represented by its scale filtration.

    closure_at(k) is the k-fold composition of diag u G u G^-1 with itself,
    where G is the union of the generators; equivalently all pairs at hop
    distance <= k in the symmetrized generator graph.

    The filtration is a hop-distance table in index space: for each point a
    dict {index: hop distance} in breadth-first order, plus the offsets where
    each breadth-first layer ends, so the ball of radius k is a prefix of the
    dict.  closure_at(k) is a ClosureView over the table: its size and
    membership are read off the rows, and its pair set is built (one pair per
    prefix entry, no ball sets) only when a caller reads pairs.  The table
    grows in place one layer at a time, only as deep as the largest scale
    asked for so far.

    The coarse components are found once, by one breadth-first search per
    component, and stored.  stabilized_at, where the filtration stops
    growing, is the largest eccentricity of a component; only
    stabilization() sets it, from a few breadth-first searches per component
    under eccentricity bounds, and only when asked.  From a known
    stabilized_at on each component is a clique, so closure_at (a view over
    the components), ball, related_at and graph read the components there.
    When the table stops growing (hop_rows() and distance() grow all of it),
    its depth is checked against stabilized_at, and a mismatch is refused.
    """

    def __init__(self, ground: GroundSet, generators: Sequence[Entourage]):
        self.ground = ground
        self.generators = tuple(generators)
        for g in self.generators:
            if g.ground is not ground and g.ground != ground:
                raise UnknownPoint("generator defined over a different ground set")
        self.cached_closures: dict[int, ClosureView] = {}
        self.stabilized_at: Optional[int] = None
        adj = [set() for _ in ground]
        for g in self.generators:
            for x, y in g.pairs:
                i, j = ground.index(x), ground.index(y)
                if i != j:
                    adj[i].add(j)
                    adj[j].add(i)
        # scale-1 adjacency without self-loops, each list sorted
        self._adj = [sorted(s) for s in adj]
        self._dist = [{i: 0} for i in range(len(ground))]
        self._ends = [[1] for _ in ground]
        self._front = [[i] for i in range(len(ground))]
        self._depth = 0
        # (comp, members) of the coarse components, once _components() has found them, and
        # the search that found each, until stabilization() opens _diameter with it
        self._comps = self._opening = None

    def _bfs(self, sources, k: Optional[int] = None) -> dict:
        """{index: hops from the nearest source} out to k hops (all the way when k is None),
        in breadth-first order."""
        adj = self._adj
        dist = dict.fromkeys(sources, 0)
        front, d = list(dist), 0
        while front and d != k:
            d, nxt = d + 1, []
            for v in front:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            front = nxt
        return dist

    def _components(self):
        """(comp, members): members[c] lists the c-th coarse component in index order,
        components ordered by least member, and comp[i] is the component of i."""
        if self._comps is None:
            comp, members, self._opening = [-1] * len(self._adj), [], []
            for start in range(len(comp)):
                if comp[start] < 0:
                    dist = self._bfs([start])
                    found = sorted(dist)
                    for i in found:
                        comp[i] = len(members)
                    members.append(found)
                    self._opening.append(dist)
            self._comps = comp, members
        return self._comps

    def _grow(self, k: int):
        """Extend every breadth-first search to depth k, or until a layer adds nothing."""
        adj = self._adj
        while self._depth < k and self._front is not None:
            d = self._depth + 1
            grew = False
            for i, front in enumerate(self._front):
                dist = self._dist[i]
                nxt = []
                for v in front:
                    for w in adj[v]:
                        if w not in dist:
                            dist[w] = d
                            nxt.append(w)
                self._front[i] = nxt
                self._ends[i].append(len(dist))
                grew = grew or bool(nxt)
            self._depth = d
            if not grew:
                self._front = None
                self.stabilization()
                if self.stabilized_at != d - 1:
                    raise CoarseError(f"the hop table stabilizes at scale {d - 1}, but the "
                                      f"eccentricity bounds give {self.stabilized_at}")

    def _scale(self, k: int) -> Optional[int]:
        """Validate k; None from a known stabilization scale up, where the components
        answer, else k with the table grown to it."""
        check_scale(k)
        if self.stabilized_at is None or k < self.stabilized_at:
            self._grow(k)  # a table that stops growing below k has set stabilized_at
        return None if self.stabilized_at is not None and k >= self.stabilized_at else k

    def closure_at(self, k: int) -> ClosureView:
        """The scale-k closure as a view over the table, or over the components from the
        stabilization scale on; one view per scale, cached."""
        k = self._scale(k)
        key = self.stabilized_at if k is None else k
        if key not in self.cached_closures:
            rows = self._components() if k is None else (self._dist, self._ends)
            self.cached_closures[key] = ClosureView(self.ground, k, rows)
        return self.cached_closures[key]

    def ball(self, k: int, x) -> frozenset:
        i = self.ground.index(x)
        k = self._scale(k)
        if k is None:
            comp, members = self._components()
            found = members[comp[i]]
        else:
            found = itertools.islice(self._dist[i], self._ends[i][k])
        pts = self.ground.points
        return frozenset([pts[j] for j in found])

    def thicken(self, k: int, B: Iterable) -> frozenset:
        """closure_at(k)[B]: a breadth-first search of k steps from all of B at once."""
        check_scale(k)
        index, pts = self.ground.index, self.ground.points
        return frozenset([pts[i] for i in self._bfs({index(b) for b in B}, k)])

    def graph(self, k: int) -> ScaleGraph:
        """The scale-k relation as an index-space graph, built afresh from the table or the components."""
        k = self._scale(k)
        if k is None:
            comp, members = self._components()
            return ScaleGraph(self.ground.points, [set(members[c]) for c in comp])
        return ScaleGraph(self.ground.points, [set(itertools.islice(dist, ends[k]))
                                               for dist, ends in zip(self._dist, self._ends)])

    def stabilization(self) -> int:
        """Least s with closure_at(s) == closure_at(s+1): the largest eccentricity of a coarse component.

        Found once, from eccentricity bounds (_diameter); finite spaces always stabilize.
        """
        if self.stabilized_at is None:
            self._components()
            self.stabilized_at = max(map(self._diameter, self._opening), default=0)
            self._opening = None
        return self.stabilized_at

    def _diameter(self, dist: dict) -> int:
        """The largest eccentricity e in one component (Takes & Kosters, BoundingDiameters),
        given dist, the component pass's search from its least member.

        A search from v bounds every w by max(d(v,w), e(v) - d(v,w)) <= e(w) <= e(v) + d(v,w).
        Searches alternate between the candidate with the largest upper and the smallest lower
        bound, ties to the least index; a candidate whose upper bound is at most the largest
        lower bound (a known e among them) is dropped, and the bounds meet when none is left.
        All upper bounds start equal, so the first search is from the least member: dist.
        """
        cand = {w: (0, len(dist) - 1) for w in sorted(dist)}
        best, high = 0, False
        while True:
            e = next(reversed(dist.values()))  # breadth-first order: the last is the farthest
            cand = {w: (max(lo, dist[w], e - dist[w]), min(hi, e + dist[w]))
                    for w, (lo, hi) in cand.items()}
            best = max(best, *(lo for lo, _ in cand.values()))
            cand = {w: b for w, b in cand.items() if b[1] > best}
            if not cand:
                return best
            v = max(cand, key=lambda w: cand[w][1]) if high else min(cand, key=lambda w: cand[w][0])
            high = not high
            dist = self._bfs([v])

    def hop_rows(self, k: Optional[int] = None) -> list:
        """The table itself, grown to scale k, or until a layer adds nothing when k is None
        or at least the stabilization scale.

        Row i is {j: hop distance} in breadth-first order, so distances never
        decrease along a row; it may run past k.  Callers must not change it.
        """
        if k is None or self._scale(k) is None:
            # every hop distance is < |X|, so layer |X| adds nothing
            self._grow(len(self.ground) + 1)
        return self._dist

    def distance(self, x, y) -> Optional[int]:
        """Hop distance between x and y in the generator graph; None across components."""
        i, j = self.ground.index(x), self.ground.index(y)
        self.hop_rows()
        return self._dist[j].get(i)

    def component(self, x) -> int:
        """The index of the coarse component of x, components ordered by least member."""
        return self._components()[0][self.ground.index(x)]

    def related_at(self, k: int, x, y) -> bool:
        i, j = self.ground.index(x), self.ground.index(y)
        k = self._scale(k)
        if k is None:
            comp = self._components()[0]
            return comp[i] == comp[j]
        d = self._dist[j].get(i)
        return d is not None and d <= k


class Bornology:
    """Bounded sets generated by a finite list of subsets.

    B is bounded iff B is contained in the union of the generators; with a
    finite generator list this is the downward closed, union closed family
    they generate.
    """

    __slots__ = ("ground", "generators", "_union")

    def __init__(self, ground: GroundSet, generators: Sequence[Iterable]):
        self.ground = ground
        self.generators = tuple(ground.check_subset(g) for g in generators)
        u = set()
        for g in self.generators:
            u |= g
        self._union = frozenset(u)

    def bounded(self, B: Iterable) -> bool:
        return frozenset(B) <= self._union

    def covers(self) -> bool:
        return self._union >= frozenset(self.ground.points)

    def __eq__(self, other):
        return isinstance(other, Bornology) and set(self.generators) == set(other.generators)

    def __hash__(self):
        return hash(frozenset(self.generators))


class WindowTag(FrozenRecord):
    """Marks a space as a finite window into an infinite ambient space.

    Every statement about such a space is window-relative; reports must carry
    this tag through to their warnings.
    """

    def __init__(self, name, radius):
        vars(self).update(name=name, radius=radius)


class UniformMetric(FrozenRecord):
    """Rational point metric backing the uniform (small-scale) structure."""

    def __init__(self, dist, description=""):
        vars(self).update(dist=dist, description=description)

    def __call__(self, x, y) -> Fraction:
        return self.dist(x, y)


class BornCoarseSpace:
    """Ground set + coarse structure + bornology (+ optional window/metric)."""

    def __init__(
        self,
        ground: GroundSet,
        coarse: CoarseStructure,
        bornology: Bornology,
        window_tag: Optional[WindowTag] = None,
        metric: Optional[UniformMetric] = None,
    ):
        self.ground = ground
        self.coarse = coarse
        self.bornology = bornology
        self.window_tag = window_tag
        self.metric = metric

    # -- convenience delegates -------------------------------------------
    def closure_at(self, k: int) -> Entourage:
        return self.coarse.closure_at(k)

    def thicken(self, k: int, B: Iterable) -> frozenset:
        return thicken(self, k, B)

    @property
    def points(self):
        return self.ground.points

    def __len__(self):
        return len(self.ground)

    def __eq__(self, other):
        if not isinstance(other, BornCoarseSpace):
            return NotImplemented
        return (
            self.ground == other.ground
            and tuple(g.pairs for g in self.coarse.generators) == tuple(g.pairs for g in other.coarse.generators)
            and self.bornology == other.bornology
            and self.window_tag == other.window_tag
        )

    def __repr__(self):
        tag = f", window={self.window_tag.name}({self.window_tag.radius})" if self.window_tag else ""
        return f"<BornCoarseSpace |X|={len(self.ground)}, {len(self.coarse.generators)} generators{tag}>"


def _check_compatibility(ground: GroundSet, coarse: CoarseStructure, bornology: Bornology):
    """Scale-1 compatibility: controlled thickenings of bounded sets stay bounded."""
    for B in bornology.generators:
        thick = coarse.thicken(1, B)
        if not bornology.bounded(thick):
            raise IncompatibleStructures(
                f"thickening of bounded generator {sorted(B, key=ground.index)} at scale 1 "
                f"gives {sorted(thick, key=ground.index)}, which is not bounded"
            )


def make_explicit_space(points, entourage_gens, bornology_gens) -> BornCoarseSpace:
    """Space generated by explicit entourage pair sets and bornology subsets.

    Validation order: unknown points, then scale-1 compatibility, then
    bornology coverage.
    """
    ground = GroundSet(points)
    gens = [Entourage(ground, pairs) for pairs in entourage_gens]
    coarse = CoarseStructure(ground, gens)
    bornology = Bornology(ground, bornology_gens)
    _check_compatibility(ground, coarse, bornology)
    if not bornology.covers():
        missing = ground.sorted(set(ground.points) - bornology._union)
        raise BornologyDoesNotCover(f"bornology generators do not cover points {missing}")
    return BornCoarseSpace(ground, coarse, bornology)


def from_metric(points, dist, scales) -> BornCoarseSpace:
    """Metric space with entourage generators U_r = {(x, y) : d(x, y) < r}.

    The inequality is strict.  The bornology is maximal (every subset is
    bounded), recorded as the single generator X.  Each rational is read once
    as (numerator, denominator); the zero, sign and symmetry checks and d < r
    (as dn*rd < rn*dd) are exact integer comparisons.
    """
    ground = GroundSet(points)
    n = len(ground)
    rows = [[_as_fraction(v) for v in row] for row in dist]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidMetric(f"distance matrix must be {n}x{n}")
    nd = [[(v.numerator, v.denominator) for v in row] for row in rows]
    # row-major; an entry left of the diagonal was checked as its mirror
    for i in range(n):
        row = nd[i]
        if row[i][0]:
            raise InvalidMetric("distance matrix must have zero diagonal")
        for j in range(i + 1, n):
            if row[j][0] < 0:
                raise NegativeDistance(f"d({points[i]!r},{points[j]!r}) = {rows[i][j]} < 0")
            if row[j] != nd[j][i]:
                raise NonSymmetricMatrix(f"d({points[i]!r},{points[j]!r}) != d({points[j]!r},{points[i]!r})")
    rs = [_as_fraction(r) for r in scales]
    if any(r <= 0 for r in rs) or any(b <= a for a, b in zip(rs, rs[1:])):
        raise BadScales("scales must be positive and strictly increasing")
    pts = ground.points
    gens = []
    for r in rs:
        rn, rd = r.numerator, r.denominator
        gens.append(Entourage(ground, [
            (pts[i], pts[j])
            for i in range(n)
            for j, (dn, dd) in enumerate(nd[i])
            if i != j and dn * rd < rn * dd
        ]))
    coarse = CoarseStructure(ground, gens)
    bornology = Bornology(ground, [frozenset(pts)] if n else [])
    lookup = {(pts[i], pts[j]): rows[i][j] for i in range(n) for j in range(n)}
    metric = UniformMetric(lambda x, y: lookup[(x, y)], "explicit rational matrix")
    return BornCoarseSpace(ground, coarse, bornology, metric=metric)


def windowed_builtin(name: str, radius: int) -> BornCoarseSpace:
    """Finite windows into the standard infinite examples.

    half_line(N) is {0..N} with unit-step generators, int_window(N) is {-N..N},
    grid2_window(N) is {-N..N}^2 with the l^1 metric.  Bornology generators are
    the graded metric balls around the origin clipped to the window, so bounded
    sets of every size up to the window are representable.
    """
    if radius < 1:
        raise CoarseError("radius must be >= 1")
    frac = [Fraction(d) for d in range(4 * radius + 1)]  # every distance in the window, made once
    if name == "half_line":
        pts = list(range(radius + 1))
        adj = [(t, t + 1) for t in range(radius)]
        born = [frozenset(range(n + 1)) for n in range(radius + 1)]
        metric = UniformMetric(lambda x, y: frac[abs(x - y)], "unit metric on the half line")
    elif name == "int_window":
        pts = list(range(-radius, radius + 1))
        adj = [(t, t + 1) for t in range(-radius, radius)]
        born = [frozenset(range(-n, n + 1)) for n in range(radius + 1)]
        metric = UniformMetric(lambda x, y: frac[abs(x - y)], "unit metric on the integers")
    elif name == "grid2_window":
        pts = [(a, b) for a in range(-radius, radius + 1) for b in range(-radius, radius + 1)]
        adj = []
        for a, b in pts:
            if a + 1 <= radius:
                adj.append(((a, b), (a + 1, b)))
            if b + 1 <= radius:
                adj.append(((a, b), (a, b + 1)))
        born = [
            frozenset(p for p in pts if abs(p[0]) + abs(p[1]) <= n)
            for n in range(2 * radius + 1)
        ]
        metric = UniformMetric(
            lambda x, y: frac[abs(x[0] - y[0]) + abs(x[1] - y[1])], "l1 metric on the plane grid"
        )
    else:
        raise CoarseError(f"unknown builtin {name!r}; expected half_line, int_window or grid2_window")
    ground = GroundSet(pts)
    coarse = CoarseStructure(ground, [Entourage(ground, adj)])
    bornology = Bornology(ground, born)
    return BornCoarseSpace(ground, coarse, bornology, window_tag=WindowTag(name, radius), metric=metric)


def thicken(space: BornCoarseSpace, k: int, B: Iterable) -> frozenset:
    """closure_at(k)[B] = {x : (x, b) in closure_at(k) for some b in B}."""
    return space.coarse.thicken(k, B)


def closure_at(space: BornCoarseSpace, k: int) -> Entourage:
    return space.coarse.closure_at(k)


def is_U_bounded(space: BornCoarseSpace, k: int, B: Iterable) -> bool:
    """True iff B x B is contained in closure_at(k): B lies in the ball around each of its points."""
    B = space.ground.check_subset(B)
    return all(B <= space.coarse.ball(k, x) for x in B)


def coarse_components(space: BornCoarseSpace) -> list:
    """Partition of the ground set by the union of all entourages.

    Classes come back in canonical order (least member first), each class
    sorted by the point order.
    """
    pts = space.points
    return [[pts[i] for i in members] for members in space.coarse._components()[1]]


def product_p(X: BornCoarseSpace, Y: BornCoarseSpace) -> BornCoarseSpace:
    """Product space on X x Y: coarse generator closure_X(1) x closure_Y(1),
    bornology generators B x B'."""
    pts = [(x, y) for x in X.ground.points for y in Y.ground.points]
    ground = GroundSet(pts)
    ux, uy = X.closure_at(1), Y.closure_at(1)
    pairs = [((a, c), (b, d)) for a, b in ux.pairs for c, d in uy.pairs]
    coarse = CoarseStructure(ground, [Entourage(ground, pairs)])
    born_gens = [
        frozenset((x, y) for x in B for y in Bp)
        for B in X.bornology.generators
        for Bp in Y.bornology.generators
    ]
    bornology = Bornology(ground, born_gens)
    return BornCoarseSpace(ground, coarse, bornology)


def semidirect(X: BornCoarseSpace, Y: BornCoarseSpace) -> BornCoarseSpace:
    """Product coarse structure with bornology generated by X x B'."""
    prod = product_p(X, Y)
    all_x = frozenset(X.ground.points)
    born_gens = [frozenset((x, y) for x in all_x for y in Bp) for Bp in Y.bornology.generators]
    bornology = Bornology(prod.ground, born_gens)
    return BornCoarseSpace(prod.ground, prod.coarse, bornology)


def _tagged_union_points(spaces: Sequence[BornCoarseSpace]):
    pts = []
    for i, S in enumerate(spaces):
        pts.extend((i, p) for p in S.ground.points)
    return pts


def _tagged_bornology(ground: GroundSet, spaces: Sequence[BornCoarseSpace]) -> Bornology:
    return Bornology(ground, [frozenset((i, p) for p in B)
                              for i, S in enumerate(spaces) for B in S.bornology.generators])


def coproduct(spaces: Sequence[BornCoarseSpace]) -> BornCoarseSpace:
    """Disjoint union; per-factor generators, bounded iff bounded in each factor."""
    spaces = list(spaces)
    ground = GroundSet(_tagged_union_points(spaces))
    gens = []
    for i, S in enumerate(spaces):
        for g in S.coarse.generators:
            gens.append(Entourage(ground, (((i, x), (i, y)) for x, y in g.pairs)))
    return BornCoarseSpace(ground, CoarseStructure(ground, gens), _tagged_bornology(ground, spaces))


def free_union(spaces: Sequence[BornCoarseSpace]) -> BornCoarseSpace:
    """Disjoint union with one generator per family of factor entourages.

    On finitely many factors the coarse structure agrees with the coproduct;
    the distinction only matters for infinite families, which are out of reach
    here anyway.
    """
    spaces = list(spaces)
    ground = GroundSet(_tagged_union_points(spaces))
    pairs = []
    for i, S in enumerate(spaces):
        pairs.extend(((i, x), (i, y)) for x, y in S.closure_at(1).pairs)
    coarse = CoarseStructure(ground, [Entourage(ground, pairs)] if pairs else [])
    return BornCoarseSpace(ground, coarse, _tagged_bornology(ground, spaces))


def mixed_union(spaces: Sequence[BornCoarseSpace]) -> BornCoarseSpace:
    """Coarse structure of the coproduct with the free-union bornology."""
    cp = coproduct(spaces)
    fu = free_union(spaces)
    return BornCoarseSpace(cp.ground, cp.coarse, fu.bornology)


def subspace(X: BornCoarseSpace, A: Iterable) -> BornCoarseSpace:
    """Generators restricted to A x A, bornology generators intersected with A."""
    A = X.ground.check_subset(A)
    pts = [p for p in X.ground.points if p in A]
    ground = GroundSet(pts)
    gens = [
        Entourage(ground, (pair for pair in g.pairs if pair[0] in A and pair[1] in A))
        for g in X.coarse.generators
    ]
    born_gens = [B & A for B in X.bornology.generators if B & A]
    return BornCoarseSpace(
        ground, CoarseStructure(ground, gens), Bornology(ground, born_gens), window_tag=X.window_tag, metric=X.metric
    )


class BigFamilyPrefix(Record):
    """Finite prefix Y_0 subset ... subset Y_m of a big family.

    witness[(i, k)] = least j <= m with closure_at(k)[Y_i] subset Y_j (in closed
    form for a generated family); pairs with no such j are absent, never guessed.
    """

    def __init__(self, members, witness):
        self.members = members
        self.witness = witness

    def __len__(self):
        return len(self.members)


def big_family_generated(X: BornCoarseSpace, A: Iterable, depth: int) -> BigFamilyPrefix:
    """Members Y_i = closure_at(i)[A] for i = 0..depth, each one step thicker than the last.

    closure_at(k)[Y_i] = Y_{i+k}, and the members grow strictly up to the least s with
    Y_s = Y_{s+1}, so the witness is min(i + k, s); with no s <= depth it is i + k,
    kept where i + k <= depth.
    """
    if depth < 0:
        raise CoarseError("depth must be >= 0")
    Y = [X.ground.check_subset(A)]
    while len(Y) < depth + 2 and (len(Y) < 2 or Y[-1] != Y[-2]):
        Y.append(thicken(X, 1, Y[-1]))
    s = len(Y) - 2 if Y[-1] == Y[-2] else None
    Y += Y[-1:] * (depth + 1 - len(Y))
    witness = {(i, k): min(i + k, depth if s is None else s)
               for i in range(depth + 1) for k in range(depth + 1) if s is not None or i + k <= depth}
    return BigFamilyPrefix(tuple(Y[:depth + 1]), witness)


def make_big_family(X: BornCoarseSpace, members: Sequence[Iterable], scale_cap: int = 4) -> BigFamilyPrefix:
    """Wrap explicit nested subsets as a big-family prefix, filling witnesses by search."""
    ms = tuple(X.ground.check_subset(m) for m in members)
    for a, b in zip(ms, ms[1:]):
        if not a <= b:
            raise CoarseError("big family members must be nested")
    witness = {}
    for i in range(len(ms)):
        for k in range(scale_cap + 1):
            target = thicken(X, k, ms[i])
            for j in range(len(ms)):
                if target <= ms[j]:
                    witness[(i, k)] = j
                    break
    return BigFamilyPrefix(ms, witness)
