"""Maps between coarse spaces and their certificates.

Controlled/proper validation, closeness indices, coarse equivalences and
flasqueness certification.  Certificates on windowed spaces are always
window-relative and say so.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .core_spaces import BornCoarseSpace, CoarseError, Record, UnknownPoint, check_count


class SourceTargetMismatch(CoarseError):
    pass


class SpaceMap:
    """A total function between ground sets, given by an assignment table."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: BornCoarseSpace, target: BornCoarseSpace, table):
        if isinstance(table, Mapping):
            items = table.items()
        else:
            items = list(table)
        tbl = {}
        for x, y in items:
            if x not in source.ground:
                raise UnknownPoint(f"source point {x!r} unknown")
            if y not in target.ground:
                raise UnknownPoint(f"target point {y!r} unknown")
            if x in tbl and tbl[x] != y:
                raise CoarseError(f"point {x!r} assigned twice")
            tbl[x] = y
        missing = [p for p in source.ground.points if p not in tbl]
        if missing:
            raise CoarseError(f"map not total; first missing point {missing[0]!r}")
        self.source = source
        self.target = target
        self.table = tbl

    def __call__(self, x):
        return self.table[x]

    def __eq__(self, other):
        return (
            isinstance(other, SpaceMap)
            and self.source == other.source
            and self.target == other.target
            and self.table == other.table
        )

    def image(self, B=None) -> frozenset:
        pts = self.source.ground.points if B is None else B
        return frozenset(self.table[x] for x in pts)

    def compose(self, first: "SpaceMap") -> "SpaceMap":
        """self o first."""
        if first.target != self.source:
            raise SourceTargetMismatch("compose: inner target differs from outer source")
        return SpaceMap(first.source, self.target, {x: self.table[y] for x, y in first.table.items()})


def identity_map(X: BornCoarseSpace) -> SpaceMap:
    return SpaceMap(X, X, {p: p for p in X.ground.points})


def inclusion_map(A: BornCoarseSpace, X: BornCoarseSpace) -> SpaceMap:
    return SpaceMap(A, X, {p: p for p in A.ground.points})


# ------------------------------------------------------------------ reports

class MorphismReport(Record):
    def __init__(self, controlled, proper, scale_shift, controlled_witness=None,
                 proper_witness=None):
        self.controlled = controlled
        self.proper = proper
        self.scale_shift = scale_shift
        self.controlled_witness = controlled_witness
        self.proper_witness = proper_witness

    @property
    def is_morphism(self) -> bool:
        return self.controlled and self.proper


def _least_containing_scale(space: BornCoarseSpace, pairs, k: int = 0) -> Optional[int]:
    """Least scale from k on whose closure holds every index pair of pairs, or None when a
    pair spans two coarse components: the one route from pairs to a containing scale.

    Each pair asks the scale view's related(i, j); a refused pair compares the stored
    component ids, then raises the scale until it is related.  So the table grows only as
    deep as the answer; as a view's rows grow with it, pairs read off one are listed first.
    """
    coarse = space.coarse
    comp = coarse._components()[0]
    related = coarse.closure_at(k).related
    for i, j in pairs:
        while not related(i, j):
            if comp[i] != comp[j]:
                return None
            k += 1
            related = coarse.closure_at(k).related
    return k


def _images(f: SpaceMap) -> list:
    """The target index of f's image of each source point, in source index order."""
    index = f.target.ground.index
    return [index(y) for y in map(f.table.__getitem__, f.source.ground.points)]


def _image_pairs(img: list, view) -> list:
    """The images under img of the index pairs i < j of a closure view, listed: closures are
    symmetric and hold the diagonal, so these decide a containing scale."""
    return [(img[i], img[j]) for i, row in enumerate(view.rows()) for j in row if j > i]


def _uncontrolled_pair(f: SpaceMap, k) -> Optional[tuple]:
    """The least pair of the source's closure_at(k) whose image is related at no scale.

    Pairs are scanned in ground-index order of the first point, then of the
    second, so the witness does not depend on how rows happen to iterate.
    """
    img, comp, pts = _images(f), f.target.coarse._components()[0], f.source.points
    return next(((pts[i], pts[j]) for i, row in enumerate(f.source.coarse.closure_at(k).rows())
                 for j in sorted(row) if comp[img[i]] != comp[img[j]]), None)


def _shift_table(f: SpaceMap):
    """One walk over the source's whole hop-distance table, one hop layer at a time.

    Returns (shift, fail).  shift[d] is the least target scale holding the image of
    closure_at(d): layer d's image pairs raise it from shift[d - 1], so the target's
    table grows only as deep as the largest shift.  fail is the least hop distance of a
    source pair whose images lie in two components, or None; shift stops below it.
    """
    coarse, img = f.source.coarse, _images(f)
    rows = coarse.hop_rows()  # grown whole, so it has stabilization() + 1 layers
    layers = [[] for _ in range(coarse.stabilization() + 1)]
    for i, row in enumerate(rows):
        a = img[i]
        for j, d in row.items():
            if j > i:  # the table and every closure are symmetric
                layers[d].append((a, img[j]))
    shift, k = {}, 0
    for d, pairs in enumerate(layers):
        k = _least_containing_scale(f.target, pairs, k)
        if k is None:
            return shift, d
        shift[d] = k
    return shift, None


def check_morphism(f: SpaceMap) -> MorphismReport:
    """Decide controlled and proper against the target's stabilized filtration.

    Controlledness takes one walk over the source's hop-distance table
    (`_shift_table`): the image pairs of hop layer d raise the target scale from
    scale_shift[d - 1] to scale_shift[d], for every d up to the source's
    stabilization scale.  The least d with an image pair related at no scale is
    the first failing scale: the map is not controlled, the witness is the least
    such pair of closure_at(d), and scale_shift holds the scales below d.

    Properness first tests the preimage of the target's bounded union.  Bounded sets
    are closed under subsets and finite unions, so that preimage is bounded iff every
    generator's is; only when it is not are the generators scanned for the first one
    whose preimage is unbounded, the witness.
    """
    src, tgt = f.source, f.target
    shift, fail = _shift_table(f)
    controlled = fail is None
    witness = None if controlled else _uncontrolled_pair(f, fail)
    preimage = lambda B: [x for x in src.ground.points if f(x) in B]
    proper_witness = None
    if not src.bornology.bounded(preimage(tgt.bornology._union)):
        proper_witness = next(B for B in tgt.bornology.generators if not src.bornology.bounded(preimage(B)))
    return MorphismReport(controlled, proper_witness is None, shift, witness, proper_witness)


def are_close(f: SpaceMap, g: SpaceMap) -> Optional[int]:
    """Least k with (f(x), g(x)) in the target's closure_at(k) for all x."""
    if f.source != g.source or f.target != g.target:
        raise SourceTargetMismatch("closeness needs equal sources and targets")
    return _least_containing_scale(f.target, zip(_images(f), _images(g)))


class EquivalenceReport(Record):
    _hidden = ("f_report", "g_report")

    def __init__(self, equivalence, k_source, k_target, f_report=None, g_report=None):
        self.equivalence = equivalence
        self.k_source = k_source  # closeness index of g o f to id_X
        self.k_target = k_target  # closeness index of f o g to id_X'
        self.f_report = f_report
        self.g_report = g_report

    def __bool__(self):
        return self.equivalence


def check_equivalence(f: SpaceMap, g: SpaceMap) -> EquivalenceReport:
    """f: X -> X' and g: X' -> X invert each other up to closeness."""
    if f.source != g.target or f.target != g.source:
        raise SourceTargetMismatch("check_equivalence needs f: X -> X' and g: X' -> X")
    rf, rg = check_morphism(f), check_morphism(g)
    k1 = are_close(g.compose(f), identity_map(f.source))
    k2 = are_close(f.compose(g), identity_map(f.target))
    ok = rf.is_morphism and rg.is_morphism and k1 is not None and k2 is not None
    return EquivalenceReport(ok, k1, k2, rf, rg)


# ------------------------------------------------------------------ flasqueness

class FlasqueCertificate(Record):
    """Window-relative witness for the three flasqueness conditions.

    cond2_table maps each tested scale k to the least k' bounding every
    iterate's image of closure_at(k); cond3_table maps each tested bornology
    generator to the first iterate whose image avoids it.
    """

    def __init__(self, map, window, cond1_scale, cond2_table, cond3_table, iter_cap, scale_cap,
                 tested_generators, warnings):
        self.map = map
        self.window = window
        self.cond1_scale = cond1_scale
        self.cond2_table = cond2_table
        self.cond3_table = cond3_table
        self.iter_cap = iter_cap
        self.scale_cap = scale_cap
        self.tested_generators = tested_generators
        self.warnings = warnings


class FlasqueRefusal(Record):
    def __init__(self, condition, explanation, witness=None):
        self.condition = condition
        self.explanation = explanation
        self.witness = witness

    def __bool__(self):
        return False


def _margin_generators(X: BornCoarseSpace):
    """Bornology generators of a windowed X within half the window radius of the origin, so
    small enough to escape within the window; every generator under a tag that names no
    builtin.  X's points must be points of the builtin window its tag names."""
    tag = X.window_tag
    window = frozenset(tag.points)
    if not window:
        return tuple(X.bornology.generators)
    bad = next((p for p in X.ground.points if p not in window), None)
    if bad is not None:
        raise CoarseError(f"a flasqueness margin needs points of the {tag.name}({tag.radius}) "
                          f"window, and {bad!r} is not one: this space carries only the window's tag")
    margin = tag.radius // 2
    return tuple(B for B in X.bornology.generators if all(tag.rank(p) <= margin for p in B))


def _orbit(img: list, view, steps: int) -> set:
    """The index pairs (f^m x, f^m y) for x < y related in view and m <= steps, img holding f
    on indices: the half of the orbit that decides its containing scale, walked breadth-first.

    Each step maps only the pairs first reached by the one before, and the
    walk stops early once a step reaches nothing new.
    """
    seen = set(_image_pairs(range(len(img)), view))
    front = seen
    for _ in range(steps):
        front = {(img[x], img[y]) for x, y in front} - seen
        if not front:
            break
        seen |= front
    return seen


def certify_flasque(
    X: BornCoarseSpace,
    f: SpaceMap,
    scale_cap: int = 4,
    iter_cap: int = 64,
):
    """Certificate or refusal for the three flasqueness conditions.

    1. f is close to the identity.
    2. The union over iterates f^j, j <= iter_cap, of (f^j x f^j)(closure_at(k))
       stays inside a single closure, for each tested k <= scale_cap.
    3. Iterates eventually leave every tested bounded generator.

    Condition 2 never refuses once condition 1 holds: f moves no point out
    of its coarse component, so no iterate does, and iterates of a related
    pair stay related.

    The union of condition 2 is the orbit of closure_at(k) under f x f,
    walked breadth-first: step j maps only the pairs first reached at step
    j - 1, so the pairs reached within j steps are exactly the images under
    f^0..f^j, and the walk ends early when a step reaches no new pair.  The
    iterate images of condition 3 are likewise f applied to the last one,
    computed only as far as some tested generator needs.

    Finite spaces without a window are refused: their ground set is bounded,
    so condition 3 cannot hold.  On windowed spaces only generators within
    half the window radius of the origin are tested, and the result is
    explicitly window-relative.
    """
    if f.source != X or f.target != X:
        raise SourceTargetMismatch("flasqueness needs a self-map of X")
    check_count(scale_cap, "scale_cap")
    check_count(iter_cap, "iter_cap")
    if len(X) == 0:
        return FlasqueCertificate(f, None, 0, {}, {}, iter_cap, scale_cap, (), ("empty space",))
    if X.window_tag is None:
        return FlasqueRefusal(
            "NotWindowed",
            "condition 3 impossible: a finite space with covering bornology is bounded, "
            "so no iterate can leave it; flasqueness only makes sense window-relatively",
        )
    tested = _margin_generators(X)

    k1 = are_close(f, identity_map(X))
    if k1 is None:
        return FlasqueRefusal("condition 1", "f is not close to the identity on the window")

    img = _images(f)
    cond2 = {k: _least_containing_scale(X, _orbit(img, X.closure_at(k), iter_cap))
             for k in range(scale_cap + 1)}

    images = [frozenset(X.points)]  # images[j] = f^j(X), grown as the generators need
    cond3 = {}
    for B in tested:
        j = 0
        while images[j] & B:
            if j >= iter_cap:
                return FlasqueRefusal(
                    "condition 3",
                    f"no iterate up to {iter_cap} leaves the bounded generator",
                    B,
                )
            j += 1
            if j == len(images):
                images.append(f.image(images[-1]))
        cond3[B] = j

    return FlasqueCertificate(
        f,
        X.window_tag.radius,
        k1,
        cond2,
        cond3,
        iter_cap,
        scale_cap,
        tested,
        (f"window-relative: all statements hold on the {X.window_tag.name}({X.window_tag.radius}) window only",),
    )
