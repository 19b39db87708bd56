"""Finite and windowed bornological coarse spaces.

A space is a ground set together with a coarse structure (given by entourage
generators and their scale filtration) and a bornology (given by generators of
the bounded sets).  Everything here is exact and deterministic: points carry a
total order fixed at construction, and every derived object (closures,
components, thickenings) is reported in that order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence


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


def check_count(value, name: str, least: int = 0, error=CoarseError):
    """Refuse a count (a radius, depth, cap, budget, iterate, scale or degree) that is not
    an int (a bool, a float, a string, None) or is below least, as error naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an int, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")


def check_scale(k: int):
    check_count(k, "scale-index", 0, BadScales)


def check_degree(n: int):
    check_count(n, "degree", 0, ValueError)


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
        index = dict(zip(pts, range(len(pts))))
        if len(index) != len(pts):
            seen = set()
            for p in pts:  # the first point that repeats an earlier one
                if p in seen:
                    raise UnknownPoint(f"duplicate point identifier {p!r}")
                seen.add(p)
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
        if not self._index.keys() >= B:
            unknown = [p for p in B if p not in self._index]
            # the least by repr, so the message does not follow set iteration order
            raise UnknownPoint(f"point {min(unknown, key=repr)!r} is not in the ground set")
        return B

    def sorted(self, B: Iterable):
        """Points of B in canonical order."""
        return sorted(B, key=self._index.__getitem__)


class Entourage:
    """A finite set of ordered point pairs over a ground set, held as one frozenset.

    A closure of a CoarseStructure is a ClosureView, which answers len and
    membership without the pair set and builds it on the first read of pairs.
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


class ClosureView(Entourage):
    """The scale-k entourage closure_at(k) of a CoarseStructure, read-only: the one reading
    of a scale.  row(i), rows(), row_sets(), related(i, j), square and len read what the
    structure stores, in index space; the complexes, covers and map routes take row_sets()
    or rows() beside the ground's points.

    Below the stabilization scale rows is the hop table (dist, ends) and k the scale: row i
    is the prefix of dist[i] within k hops.  From it on rows is the components (comp,
    members) and k is None: row i is the component of i, and the row sets of one component
    are one set, which callers must not change.  The pair frozenset is built from the rows
    once, on the first read of pairs, and so also by == and hash.

    The view holds the structure's lists but never the structure, so a structure and
    its cached closures make no reference cycle, and reference counting frees them.
    """

    __slots__ = ("_k", "_rows", "_built")

    def __init__(self, ground: GroundSet, k: Optional[int], rows: tuple):
        self.ground, self._k, self._rows, self._built = ground, k, rows, None

    def row(self, i: int):
        """The indices related to point i."""
        if self._k is None:
            comp, members = self._rows
            return members[comp[i]]
        dist, ends = self._rows
        return islice(dist[i], ends[i][self._k])

    def rows(self):
        """Every row, in index order."""
        if self._k is None:
            comp, members = self._rows
            return map(members.__getitem__, comp)
        dist, ends = self._rows
        return map(islice, dist, map(itemgetter(self._k), ends))

    def related(self, i: int, j: int) -> bool:
        """Whether points i and j are related."""
        if self._k is None:
            return self._rows[0][i] == self._rows[0][j]
        return self._rows[0][j].get(i, self._k + 1) <= self._k

    def row_sets(self) -> list:
        """Every row as a set of indices, in index order; from the stabilization scale on the
        rows of one component share one set, which callers must not change."""
        if self._k is None:
            comp, members = self._rows
            return list(map(list(map(set, members)).__getitem__, comp))
        return list(map(set, self.rows()))

    def square(self, idx: set) -> bool:
        """Whether idx x idx lies in the closure: idx lies within k hops in the table row of
        each of its points, or from the stabilization scale on, in one component."""
        if self._k is None:
            comp = self._rows[0]
            return len({comp[i] for i in idx}) <= 1
        dist, far = self._rows[0], self._k + 1
        return all(max(map(dist[i].get, idx, repeat(far))) < far for i in idx)

    @property
    def pairs(self) -> frozenset:
        if self._built is None:
            pts = self.ground.points
            self._built = frozenset([(pts[j], y) for y, row in zip(pts, self.rows()) for j in row])
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
        return i is not None and j is not None and self.related(i, j)


class CoarseStructure:
    """Generated coarse structure, represented by its scale filtration.

    closure_at(k) is the k-fold composition of diag u G u G^-1 with itself,
    where G is the union of the generators; equivalently all pairs at hop
    distance <= k in the symmetrized generator graph.

    The filtration is a hop-distance table in index space: for each point a
    dict {index: hop distance} in breadth-first order, plus the offsets where
    each breadth-first layer ends, so the ball of radius k is a prefix of the
    dict.  The table grows in place one layer at a time, only as deep as the
    largest scale asked for so far.

    The coarse components are found once, by one breadth-first search per
    component, and stored.  stabilized_at, where the filtration stops
    growing, is the largest eccentricity of a component; only
    stabilization() sets it, from a few breadth-first searches per component
    under eccentricity bounds, and only when asked; the searches leave an
    eccentricity bound per point (_fold), which _far_pair reads.  From a known
    stabilized_at on each component is a clique, so closure_at (a view over
    the components) reads them there.  The view is the one reading of a
    scale: ball, the complexes, the covers and the map routes read it, so a
    map grows its target's table only to its scale shift.  hop_rows() grows
    all of it; when it stops growing, its depth is checked against
    stabilized_at, and a mismatch is refused.

    Each generator has checked its pairs against the ground, so the scale-1
    adjacency reads their endpoints straight from the ground's index.
    """

    def __init__(self, ground: GroundSet, generators: Sequence[Entourage]):
        self.ground = ground
        self.generators = tuple(generators)
        for g in self.generators:
            if g.ground is not ground and g.ground != ground:
                raise UnknownPoint("generator defined over a different ground set")
        self.cached_closures: dict[int, ClosureView] = {}
        self.stabilized_at: Optional[int] = None
        index = ground._index
        adj = [set() for _ in ground]
        for g in self.generators:
            for x, y in g.pairs:
                i, j = index[x], index[y]
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
        # per point, an upper bound on its eccentricity from the searches of stabilization()
        self._reach = None

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
        """None from a known stabilization scale up, where the components answer, else k
        with the table grown to it."""
        if self.stabilized_at is None or k < self.stabilized_at:
            self._grow(k)  # a table that stops growing below k has set stabilized_at
        return None if self.stabilized_at is not None and k >= self.stabilized_at else k

    def closure_at(self, k: int) -> ClosureView:
        """The scale-k closure as a view over the table, or over the components from the
        stabilization scale on; one view per scale, cached under every k that asked for it."""
        check_scale(k)  # before the lookup, where 1.0 and True would find the view of 1
        view = self.cached_closures.get(k)
        if view is None:
            s = self._scale(k)
            key = self.stabilized_at if s is None else s
            view = self.cached_closures.get(key)
            if view is None:
                view = ClosureView(self.ground, s, self._components() if s is None else (self._dist, self._ends))
            self.cached_closures[k] = self.cached_closures[key] = view
        return view

    def ball(self, k: int, x) -> frozenset:
        i = self.ground.index(x)
        pts = self.ground.points
        return frozenset([pts[j] for j in self.closure_at(k).row(i)])

    def thicken(self, k: int, B: Iterable) -> frozenset:
        """closure_at(k)[B]: a breadth-first search of k steps from all of B at once."""
        check_scale(k)
        index, pts = self.ground.index, self.ground.points
        return frozenset([pts[i] for i in self._bfs({index(b) for b in B}, k)])

    def stabilization(self) -> int:
        """Least s with closure_at(s) == closure_at(s+1): the largest eccentricity of a coarse component.

        Found once, from eccentricity bounds (_diameter); finite spaces always stabilize.
        Every point's eccentricity bound starts at the size of its component less one, the
        most hops a shortest path in it can take, and each search lowers it (_fold).
        """
        if self.stabilized_at is None:
            comp, members = self._components()
            self._reach = [len(members[c]) - 1 for c in comp]
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
        Each search is kept beside the answer as the upper bounds it gives (_fold), so when
        the bounds meet, every point's stored bound is at most the answer.
        """
        cand = {w: (0, len(dist) - 1) for w in sorted(dist)}
        best, high = 0, False
        while True:
            self._fold(dist)
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

    def _fold(self, dist: dict):
        """Lower each point's stored eccentricity bound to e(v) + d(v, w) through the search
        dist from its first key v, once dist is checked to be such a search.

        The check: v is at 0, every other point is at least 1 with a neighbour one nearer,
        and dist holds as many points as v's component.  Following nearer neighbours from w
        then reaches v in dist[w] hops, so dist[w] >= d(v, w), dist is v's component, and
        max(dist) >= e(v); by the triangle inequality through v, e(w) <= dist[w] + max(dist).
        A search that fails the check, or whose max(dist) is at least the size less one
        that every bound starts at, lowers nothing.
        """
        comp, members = self._comps
        items = iter(dist.items())
        v, d0 = next(items)
        e, size = max(dist.values()), len(members[comp[v]])
        if d0 != 0 or len(dist) != size or e >= size - 1:
            return
        adj, get = self._adj, dist.get
        for w, d in items:
            if d < 1 or d - 1 not in map(get, adj[w]):
                return
        reach = self._reach
        for w, d in dist.items():
            if e + d < reach[w]:
                reach[w] = e + d

    def _far_pair(self, s: int) -> Optional[tuple]:
        """The least pair (i, j) in ground order of one component more than s hops apart, or None.

        A point whose stored bound is at most s has eccentricity at most s, so only the
        others are searched, exactly and in ground order; when stabilization() is right,
        its searches leave no bound above it and none is.
        """
        self.stabilization()
        for i, bound in enumerate(self._reach):
            if bound > s:
                far = [j for j, d in self._bfs([i]).items() if d > s]
                if far:
                    return i, min(far)
        return None

    def hop_rows(self) -> list:
        """The whole table, grown until a layer adds nothing (every hop distance is < |X|).

        Row i is {j: hop distance} in breadth-first order, so distances never
        decrease along a row.  Callers must not change it.
        """
        self._grow(len(self.ground) + 1)
        return self._dist


class Bornology:
    """Bounded sets generated by a finite list of subsets.

    B is bounded iff B is contained in the union of the generators; with a
    finite generator list this is the downward closed, union closed family
    they generate.  The union is what bounded and covers read.  A nested
    bornology B_0 <= B_1 <= ... is given instead by rank, the least n with p in
    B_n as a function of the point p, and the whole ground is its union; its
    generators are made from the ground's points on their first read.
    """

    __slots__ = ("ground", "_union", "_rank", "_generators")

    def __init__(self, ground: GroundSet, generators: Sequence[Iterable] = (), rank=None):
        self.ground, self._rank = ground, rank
        if rank is None:
            self._generators = tuple(ground.check_subset(g) for g in generators)
            self._union = frozenset().union(*self._generators)
        else:
            self._generators, self._union = None, frozenset(ground.points)

    @property
    def generators(self) -> tuple:
        if self._generators is None:
            self._generators = self._balls()
        return self._generators

    def _balls(self) -> tuple:
        """B_n = {p : rank(p) <= n} for n = 0 up to the largest rank."""
        layers = {}
        for p in self.ground.points:
            layers.setdefault(self._rank(p), []).append(p)
        balls, ball = [], set()
        for n in range(max(layers, default=-1) + 1):
            ball.update(layers.get(n, ()))
            balls.append(frozenset(ball))
        return tuple(balls)

    def bounded(self, B: Iterable) -> bool:
        return frozenset(B) <= self._union

    def covers(self) -> bool:
        return len(self._union) == len(self.ground)  # the union lies in the ground

    def __eq__(self, other):
        return isinstance(other, Bornology) and set(self.generators) == set(other.generators)

    def __hash__(self):
        return hash(frozenset(self.generators))


class WindowTag(FrozenRecord):
    """Marks a space as a finite window into an infinite ambient space.

    Every statement about such a space is window-relative; reports must carry
    this tag through to their warnings.  The radius is an int >= 1.
    """

    def __init__(self, name, radius):
        check_count(radius, "radius", 1)
        vars(self).update(name=name, radius=radius)

    @property
    def points(self) -> tuple:
        """The points of the builtin window the tag names, in its order; () for no builtin.
        A subspace keeps its window's tag, for its reports, but not these points, and so may
        any space built with the tag."""
        span = range(-self.radius, self.radius + 1)
        if self.name == "grid2_window":
            return tuple((a, b) for a in span for b in span)
        return {"half_line": tuple(span[self.radius:]), "int_window": tuple(span)}.get(self.name, ())

    def rank(self, p) -> int:
        """The least n with p in the graded ball B_n around the origin: |a| + |b| on the grid,
        |p| on a line (a half line's points are >= 0, so |p| = p)."""
        return abs(p[0]) + abs(p[1]) if self.name == "grid2_window" else abs(p)


class BornCoarseSpace:
    """Ground set + coarse structure + bornology (+ optional window tag and metric, the
    rational distance function (x, y) -> Fraction backing the uniform structure)."""

    def __init__(
        self,
        ground: GroundSet,
        coarse: CoarseStructure,
        bornology: Bornology,
        window_tag: Optional[WindowTag] = None,
        metric: Optional[Callable[[object, object], Fraction]] = None,
    ):
        self.ground = ground
        self.coarse = coarse
        self.bornology = bornology
        self.window_tag = window_tag
        self.metric = metric

    def closure_at(self, k: int) -> ClosureView:
        return self.coarse.closure_at(k)

    @property
    def points(self):
        return self.ground.points

    def __len__(self):
        return len(self.ground)

    def __eq__(self, other):
        if not isinstance(other, BornCoarseSpace):
            return NotImplemented
        return self is other or (
            self.ground == other.ground
            and tuple(g.pairs for g in self.coarse.generators) == tuple(g.pairs for g in other.coarse.generators)
            and self.bornology == other.bornology
            and self.window_tag == other.window_tag
        )

    def __repr__(self):
        tag = f", window={self.window_tag.name}({self.window_tag.radius})" if self.window_tag else ""
        return f"<BornCoarseSpace |X|={len(self.ground)}, {len(self.coarse.generators)} generators{tag}>"


def _check_compatibility(ground: GroundSet, coarse: CoarseStructure, bornology: Bornology):
    """Scale-1 compatibility: controlled thickenings of bounded sets stay bounded.  A bornology
    that covers the ground bounds every subset of it, so then no thickening is searched."""
    if bornology.covers():
        return
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
    return BornCoarseSpace(ground, coarse, bornology, metric=lambda x, y: lookup[(x, y)])


def windowed_builtin(name: str, radius: int) -> BornCoarseSpace:
    """Finite windows into the standard infinite examples.

    half_line(N) is {0..N} with unit-step generators, int_window(N) is {-N..N},
    grid2_window(N) is {-N..N}^2 with the l^1 metric.  The bornology is the graded
    metric balls B_n around the origin clipped to the window, so bounded sets of
    every size up to the window are representable.  It is held as one rank per
    point, the least n with p in B_n (p, |p| or |a| + |b|), so a window builds in
    time and memory linear in its points.  The balls themselves are made on the
    first read of bornology.generators, which only emission, product_p,
    coproduct, subspace, flasqueness margins and == between distinct spaces
    ask for.  Each distance's Fraction is made on its first use.
    """
    tag = WindowTag(name, radius)
    pts = tag.points
    if not pts:
        raise CoarseError(f"unknown builtin {name!r}; expected half_line, int_window or grid2_window")
    frac = lru_cache(maxsize=None)(Fraction)
    if name == "grid2_window":
        adj = [((a, b), (a + 1, b)) for a, b in pts if a < radius]
        adj += [((a, b), (a, b + 1)) for a, b in pts if b < radius]
        metric = lambda x, y: frac(abs(x[0] - y[0]) + abs(x[1] - y[1]))  # the l1 metric
    else:
        adj = list(zip(pts, pts[1:]))
        metric = lambda x, y: frac(abs(x - y))
    ground = GroundSet(pts)
    coarse = CoarseStructure(ground, [Entourage(ground, adj)])
    return BornCoarseSpace(ground, coarse, Bornology(ground, rank=tag.rank), window_tag=tag, metric=metric)


def thicken(space: BornCoarseSpace, k: int, B: Iterable) -> frozenset:
    """closure_at(k)[B] = {x : (x, b) in closure_at(k) for some b in B}."""
    return space.coarse.thicken(k, B)


def is_U_bounded(space: BornCoarseSpace, k: int, B: Iterable) -> bool:
    """True iff B x B is contained in closure_at(k): B lies in the ball around each of its points,
    checked on index rows."""
    B = space.ground.check_subset(B)
    return space.coarse.closure_at(k).square(set(map(space.ground._index.__getitem__, B)))


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


def coproduct(spaces: Sequence[BornCoarseSpace]) -> BornCoarseSpace:
    """Disjoint union of the points (i, p) of factor i; per-factor generators, bounded iff
    bounded in each factor."""
    spaces = list(spaces)
    ground = GroundSet([(i, p) for i, S in enumerate(spaces) for p in S.ground.points])
    gens = [Entourage(ground, (((i, x), (i, y)) for x, y in g.pairs))
            for i, S in enumerate(spaces) for g in S.coarse.generators]
    born = [frozenset((i, p) for p in B) for i, S in enumerate(spaces) for B in S.bornology.generators]
    return BornCoarseSpace(ground, CoarseStructure(ground, gens), Bornology(ground, born))


def subspace(X: BornCoarseSpace, A: Iterable) -> BornCoarseSpace:
    """Generators restricted to A x A; bornology generators met with A, each distinct nonempty one once."""
    A = X.ground.check_subset(A)
    pts = [p for p in X.ground.points if p in A]
    ground = GroundSet(pts)
    gens = [
        Entourage(ground, (pair for pair in g.pairs if pair[0] in A and pair[1] in A))
        for g in X.coarse.generators
    ]
    born_gens = [C for C in dict.fromkeys(B & A for B in X.bornology.generators) if C]
    return BornCoarseSpace(
        ground, CoarseStructure(ground, gens), Bornology(ground, born_gens), window_tag=X.window_tag, metric=X.metric
    )


class BigFamilyPrefix(Record):
    """Finite prefix Y_0 subset ... subset Y_m of a big family, held as its members.

    The family is big when each closure_at(k)[Y_i] lies in some member; the least
    such member is searched where it is needed (mv_check), never tabulated.
    """

    def __init__(self, members):
        self.members = members

    def __len__(self):
        return len(self.members)


def big_family_generated(X: BornCoarseSpace, A: Iterable, depth: int) -> BigFamilyPrefix:
    """Members Y_i = closure_at(i)[A] for i = 0..depth, each one step thicker than the last.

    closure_at(k)[Y_i] = Y_{i+k}, and the members grow strictly up to the least s with
    Y_s = Y_{s+1}, so the least member holding it is min(i + k, s); with no s <= depth
    there is one only where i + k <= depth.
    """
    check_count(depth, "depth")
    Y = [X.ground.check_subset(A)]
    while len(Y) <= depth and (len(Y) < 2 or Y[-1] != Y[-2]):
        Y.append(thicken(X, 1, Y[-1]))
    return BigFamilyPrefix(tuple(Y + Y[-1:] * (depth + 1 - len(Y))))


def make_big_family(X: BornCoarseSpace, members: Sequence[Iterable]) -> BigFamilyPrefix:
    """Wrap explicit nested subsets as a big-family prefix."""
    ms = tuple(X.ground.check_subset(m) for m in members)
    for a, b in zip(ms, ms[1:]):
        if not a <= b:
            raise CoarseError("big family members must be nested")
    return BigFamilyPrefix(ms)
