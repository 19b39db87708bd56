"""Covers, nerves, anti-Cech prefixes, coarsified homology on measure (clique)
complexes, truncated coarsening telescopes, asymptotic-dimension upper
bounds, and the hybrid/uniform-decomposition constructions.

Certificates on covers are verified, never trusted: a bound scale means every
member was checked to be bounded at that scale, and a Lebesgue scale means
every bounded subset at that scale was checked to land inside some member.
"""

from fractions import Fraction
from typing import List, Optional, Sequence

from .core_spaces import (
    BigFamilyPrefix, BornCoarseSpace, CoarseError, Entourage, FrozenRecord, Record, _as_fraction, is_U_bounded,
)
from .homology_engine import (
    DEFAULT_BASIS_CAP,
    DegreeCapExceeded,
    SimplicialComplex,
    _clique_groups,
    _colimit_groups,
)


class CoverError(CoarseError):
    pass


class NotACover(CoverError):
    pass


class CertificateFailed(CoverError):
    def __init__(self, pair_index, detail=""):
        self.pair_index = pair_index
        extra = f": {detail}" if detail else ""
        super().__init__(f"anti-Cech certificate failed at pair {pair_index}{extra}")


class PhiNotDecreasing(CoarseError):
    pass


class NotADecomposition(CoarseError):
    pass


# ---------------------------------------------------------------- covers


class Cover(FrozenRecord):
    """Indexed cover with verified (optional) bound and Lebesgue certificates.

    bound_scale k: every member M satisfies M x M <= closure_at(k).
    lebesgue_scale k: every closure_at(k)-bounded subset lies in some member.
    """

    def __init__(self, members, bound_scale=None, lebesgue_scale=None, notes=()):
        vars(self).update(members=members, bound_scale=bound_scale, lebesgue_scale=lebesgue_scale,
                          notes=notes)

    def __len__(self):
        return len(self.members)


def greedy_net(X: BornCoarseSpace, k: int) -> list:
    """Separated covering subset, grown greedily in canonical point order."""
    net = _net_over_order(X.points, X.coarse.graph(k))
    # both halves of the net contract are cheap to re-check exactly
    for i, d in enumerate(net):
        ball = X.coarse.ball(k, d)
        for e in net[i + 1:]:
            if e in ball:
                raise CoverError(f"net separation violated by {d!r}, {e!r}")
    if X.coarse.thicken(k, net) != frozenset(X.points):
        raise CoverError("net fails to cover the space")
    return net


def _ball_lebesgue(X, s, members) -> Optional[str]:
    """Ball route: every scale-s ball inside some member certifies the scale.

    Sufficient because a bounded set lies in the ball around any of its points;
    failure is not conclusive (balls are twice as wide as bounded sets).
    """
    for x in X.points:
        ball = X.coarse.ball(s, x)
        if not any(ball <= m for m in members):
            return None
    return "lebesgue verified via ball containment (sufficient for symmetric relations)"


def _maximal_cliques(adj):
    """Maximal cliques of the graph on 0..len(adj)-1 with neighbour sets adj (no self-loops).

    Bron–Kerbosch with Tomita pivoting on an explicit stack of (clique,
    candidates, excluded); an isolated vertex is a singleton clique.
    """
    stack = [([], set(range(len(adj))), set())] if adj else []
    while stack:
        clique, cand, excl = stack.pop()
        if not cand:
            if not excl:
                yield clique
            continue
        pivot = max(cand | excl, key=lambda u: len(cand & adj[u]))
        for v in cand - adj[pivot]:
            stack.append((clique + [v], cand & adj[v], excl & adj[v]))
            cand.remove(v)
            excl.add(v)


def _exact_lebesgue(X, s, members) -> Optional[str]:
    """Exact route: maximal bounded sets are maximal cliques of the scale-s graph."""
    pts = X.points
    for clique in _maximal_cliques([nb - {v} for v, nb in enumerate(X.coarse.graph(s).sets)]):
        cset = frozenset(pts[i] for i in clique)
        if not any(cset <= m for m in members):
            return None
    return "lebesgue verified via maximal bounded-set enumeration"


def _verify_lebesgue(X, s, members) -> Optional[str]:
    return _ball_lebesgue(X, s, members) or _exact_lebesgue(X, s, members)


def cover_from_net(X: BornCoarseSpace, k: int) -> Cover:
    """Cover by scale-k balls around greedy-net points.

    The bound certificate 2k always verifies (two ball members share the
    center); the Lebesgue scale is the largest verified value up to the
    stabilization scale.
    """
    members = tuple(X.coarse.ball(k, d) for d in greedy_net(X, k))
    bound = 2 * k if all(is_U_bounded(X, 2 * k, m) for m in members) else None
    notes = []
    stab = X.coarse.stabilization()
    lebesgue = None
    for s in range(stab + 1):
        note = _verify_lebesgue(X, s, members)
        if note is None:
            break
        lebesgue, last_note = s, note
    if lebesgue is not None:
        notes.append(last_note)
    return Cover(members, bound, lebesgue, tuple(notes))


def check_cover(X: BornCoarseSpace, cover, k_bound: int, k_lebesgue: int) -> Cover:
    """Re-verify both certificates on an explicit cover.

    Failed certificates come back as None with a witness note; a non-cover is
    refused outright.
    """
    members = cover.members if isinstance(cover, Cover) else tuple(
        frozenset(X.ground.check_subset(m)) for m in cover
    )
    if any(not m for m in members):
        raise NotACover("cover members must be nonempty")
    union = set()
    for m in members:
        union |= m
    if union != set(X.points):
        missing = X.ground.sorted(set(X.points) - union)[0]
        raise NotACover(f"point {missing!r} is not covered")
    notes = []
    bound: Optional[int] = k_bound
    for i, m in enumerate(members):
        if not is_U_bounded(X, k_bound, m):
            bound = None
            notes.append(f"member {i} is not bounded at scale {k_bound}")
            break
    note = _verify_lebesgue(X, k_lebesgue, members)
    lebesgue: Optional[int] = k_lebesgue if note else None
    if note:
        notes.append(note)
    else:
        notes.append(f"some scale-{k_lebesgue} bounded set fits in no member")
    return Cover(members, bound, lebesgue, tuple(notes))


# ---------------------------------------------------------- anti-Cech


class AntiCechPrefix(FrozenRecord):
    """Ball covers at increasing scales with verified pairwise certificates.

    certificates[i] is a scale bounding every member of covers[i] and, at the
    same time, a verified Lebesgue scale of covers[i+1]; refinements[i] sends
    each member of covers[i] to the least member of covers[i+1] containing it.
    """

    def __init__(self, scales, covers, certificates, refinements):
        vars(self).update(scales=scales, covers=covers, certificates=certificates,
                          refinements=refinements)


def anti_cech(X: BornCoarseSpace, scale_list: Sequence[int]) -> AntiCechPrefix:
    scales = tuple(int(k) for k in scale_list)
    if not scales:
        raise CoverError("at least one scale is required")
    for i, (a, b) in enumerate(zip(scales, scales[1:])):
        if b <= a:
            raise CertificateFailed(i, f"scales must increase, got {a} then {b}")
    covers = []
    for k in scales:
        members = tuple(X.coarse.ball(k, d) for d in greedy_net(X, k))
        covers.append(Cover(members, 2 * k, None, ("ball cover; bound scale is twice the radius",)))
    certificates = []
    refinements = []
    for i in range(len(scales) - 1):
        s = 2 * scales[i]
        if not all(is_U_bounded(X, s, m) for m in covers[i].members):
            raise CertificateFailed(i, f"a member of cover {i} is not bounded at scale {s}")
        if _verify_lebesgue(X, s, covers[i + 1].members) is None:
            raise CertificateFailed(
                i, f"scale {s} is not a Lebesgue scale of the cover at scale {scales[i + 1]}"
            )
        certificates.append(s)
        kappa = []
        for j, m in enumerate(covers[i].members):
            target = next(
                (t for t, big in enumerate(covers[i + 1].members) if m <= big), None
            )
            if target is None:
                raise CertificateFailed(i, f"member {j} fits in no member of the next cover")
            kappa.append(target)
        refinements.append(tuple(kappa))
    return AntiCechPrefix(scales, tuple(covers), tuple(certificates), tuple(refinements))


# ------------------------------------------------------------- nerves


class NerveComplex(SimplicialComplex):
    """Nerve of a cover; vertices are member indices."""

    def __init__(self, vertices, simplices, cover):
        super().__init__(vertices, simplices)
        self.cover = cover


def nerve(cover: Cover, d_max: int, basis_cap: int = DEFAULT_BASIS_CAP) -> NerveComplex:
    members = cover.members
    simplices: List[List[tuple]] = [[] for _ in range(d_max + 1)]
    total = 0

    def grow(s, inter):
        nonlocal total
        dim = len(s) - 1
        simplices[dim].append(s)
        total += 1
        if basis_cap is not None and total > basis_cap:
            raise DegreeCapExceeded(dim, None, basis_cap, "nerve simplices")
        if dim == d_max:
            return
        for j in range(s[-1] + 1, len(members)):
            nxt = inter & members[j]
            if nxt:
                grow(s + (j,), nxt)

    for i in range(len(members)):
        grow((i,), members[i])
    return NerveComplex(list(range(len(members))), simplices, cover)


# -------------------------------------------------- coarsified homology


class CoarsificationReport(Record):
    """Per-scale homology of the clique (measure) complex plus the stabilized value."""

    def __init__(self, d_max, table, stable_scale, terminal, notes=()):
        self.d_max = d_max
        self.table = table
        self.stable_scale = stable_scale
        self.terminal = terminal
        self.notes = notes


def coarsify_homology(X: BornCoarseSpace, scale_list: Sequence[int], d_max: int,
                      basis_cap: int = DEFAULT_BASIS_CAP) -> CoarsificationReport:
    """Homology of the measure complex at each listed scale and at stabilization.

    The measure complex at scale k has a simplex for each support S of a
    bounded probability measure, i.e. each S with S x S inside closure_at(k):
    it is the clique complex rips_complex(X, k, ...), built through degree
    d_max + 1 under basis_cap simplices.  For a finite space the exhaustion
    over bounded subsets collapses at the whole space, so the value at a scale
    is the plain unreduced homology of that complex; no cofiber towers are
    involved.  The terminal value comes from the scale graph as in
    homology_colimit, with no complex built, so it is never capped.
    """
    notes = ["bounded exhaustion collapses at the whole finite space; "
             "values are unreduced homology of the measure complex"]
    if X.window_tag is not None:
        notes.append(
            f"window-relative: computed over the {X.window_tag.name} window "
            f"of radius {X.window_tag.radius}"
        )
    table = {int(k): _clique_groups(X, int(k), d_max, basis_cap) for k in scale_list}
    terminal = _colimit_groups(X, d_max)
    return CoarsificationReport(d_max, table, X.coarse.stabilization(), terminal, tuple(notes))


# ------------------------------------------------------------ telescope


class TelescopeComplex(SimplicialComplex):
    """Mapping telescope of the nerves along the refinement maps.

    Vertices are (slice, member-index) pairs; each slice spans its nerve as a
    subcomplex and consecutive slices are joined by prism blocks.
    """

    def __init__(self, vertices, simplices, prefix):
        super().__init__(vertices, simplices)
        self.prefix = prefix


def coarsening_space(prefix: AntiCechPrefix, d_max: int,
                     basis_cap: int = DEFAULT_BASIS_CAP):
    """Truncated coarsening telescope and its homology up to d_max.

    Prism blocks use the standard ordered triangulation: a nerve simplex
    (v_0 < ... < v_n) in slice i contributes the pieces
    {(i, v_0..v_l), (i+1, kappa v_l .. kappa v_n)} for l = 0..n, with repeats
    collapsed; the block list is closed downward afterwards.
    """
    build_dim = d_max + 1
    nerves = [nerve(c, build_dim, basis_cap) for c in prefix.covers]
    vertices = [(i, j) for i, c in enumerate(prefix.covers) for j in range(len(c.members))]
    vindex = {v: a for a, v in enumerate(vertices)}
    seen = set()
    for i, nv in enumerate(nerves):
        for dim_list in nv.simplices:
            for s in dim_list:
                seen.add(tuple(vindex[(i, j)] for j in s))
    for i, kappa in enumerate(prefix.refinements):
        for dim_list in nerves[i].simplices:
            for s in dim_list:
                if len(s) - 1 >= build_dim:
                    continue
                for l in range(len(s)):
                    labels = [(i, j) for j in s[: l + 1]]
                    labels += [(i + 1, kappa[j]) for j in s[l:]]
                    piece = tuple(sorted({vindex[v] for v in labels}))
                    if len(piece) - 1 <= build_dim:
                        seen.add(piece)
    # downward closure over the prism pieces
    stack = list(seen)
    while stack:
        s = stack.pop()
        if len(s) == 1:
            continue
        for a in range(len(s)):
            face = s[:a] + s[a + 1:]
            if face not in seen:
                seen.add(face)
                stack.append(face)
    simplices: List[List[tuple]] = [[] for _ in range(build_dim + 1)]
    for s in seen:
        simplices[len(s) - 1].append(s)
    for dim_list in simplices:
        dim_list.sort()
    tele = TelescopeComplex(vertices, simplices, prefix)
    return tele, tele.homology(d_max)


# ----------------------------------------------------------------- asdim


class AsdimReport(Record):
    """Heuristic upper bound for asymptotic dimension on a finite window."""

    def __init__(self, per_scale, upper_bound, budget, notes=()):
        self.per_scale = per_scale
        self.upper_bound = upper_bound
        self.budget = budget
        self.notes = notes


def _net_over_order(order, g):
    """Points of order not related at the scale of g to any point taken before them.

    The relation is symmetric, so a point is related to an earlier net point
    exactly when it lies in that point's neighbour set: the union of those
    sets is kept as the covered set.
    """
    index = {p: i for i, p in enumerate(g.points)}
    net, covered = [], set()
    for x in order:
        i = index[x]
        if i not in covered:
            net.append(x)
            covered.update(g.sets[i])
    return net


def asdim_upper_bound(X: BornCoarseSpace, scale_list: Sequence[int],
                      search_budget: int = 8) -> AsdimReport:
    """Least nerve dimension of a ball cover found within the search budget.

    The search rotates the greedy net's start point; the nerve dimension of a
    cover is one less than the largest number of members through a single
    point.  The value is a search result, not a certificate, and is relative
    to the window.  An empty scale list and a budget below 1 are refused.
    """
    scales = [int(k) for k in scale_list]
    if not scales:
        raise CoverError("at least one scale is required")
    if search_budget < 1:
        raise CoverError(f"search_budget must be >= 1, got {search_budget}")
    points = list(X.points)
    per_scale = {}
    for k in scales:
        g = X.coarse.graph(k)
        best = None
        for r in range(max(1, min(search_budget, len(points)))):
            order = points[r:] + points[:r]
            net = _net_over_order(order, g)
            depth = {p: 0 for p in points}
            for d in net:
                for p in X.coarse.ball(k, d):
                    depth[p] += 1
            dim = max(depth.values()) - 1
            best = dim if best is None else min(best, dim)
            if best == 0:
                break
        per_scale[k] = best
    notes = ["search result, not a certificate; lower bounds are out of scope"]
    if X.window_tag is not None:
        notes.append("window-relative")
    return AsdimReport(per_scale, max(per_scale.values()), search_budget, tuple(notes))


# ------------------------------------------------------ hybrid structures


def hybrid_entourage(X: BornCoarseSpace, family: BigFamilyPrefix,
                     phi: Sequence[int], base_k: int) -> Entourage:
    """Definitional scan for the hybrid relation inside the scale-base_k closure.

    A pair survives when, for every family index i, both entries lie in Y_i or
    the pair is phi(i)-small; phi stands in for a cofinal decreasing function
    into the metric filtration, so it must be non-increasing.
    """
    if len(phi) != len(family.members):
        raise CoarseError(
            f"phi has {len(phi)} entries for {len(family.members)} family members"
        )
    phi = [int(v) for v in phi]
    for i, (a, b) in enumerate(zip(phi, phi[1:])):
        if b > a:
            raise PhiNotDecreasing(f"phi({i}) = {a} < phi({i + 1}) = {b}")
    if any(v < 0 for v in phi):
        raise CoarseError("phi entries must be nonnegative scale indices")
    pairs = [
        (a, b) for a, b in X.closure_at(base_k).pairs
        if all((a in Y and b in Y) or X.coarse.related_at(v, a, b) for Y, v in zip(family.members, phi))
    ]
    return Entourage(X.ground, pairs)


# ------------------------------------------------ uniform decompositions


class UniformDecompositionReport(Record):
    """Finite-prefix certificate for a uniform two-set decomposition."""

    def __init__(self, radii, assignments, ok, notes=()):
        self.radii = radii
        self.assignments = assignments
        self.ok = ok
        self.notes = notes


def _metric_thicken(X, S, r: Fraction):
    m = X.metric
    rn, rd = r.numerator, r.denominator
    thick = set()
    for x in X.points:
        for s in S:
            d = m(x, s)
            if d.numerator * rd <= rn * d.denominator:
                thick.add(x)
                break
    return thick


def uniform_decomposition_check(X: BornCoarseSpace, Y, Z,
                                radii: Sequence) -> UniformDecompositionReport:
    """For each listed radius r, the least listed s with
    U_r[Y] n U_r[Z] <= U_s[Y n Z], or a recorded failure at r.

    Only the listed radii are inspected, so success certifies a finite prefix
    of the decreasing filtration, nothing more.  In U_r[S] = {x : d(x, s) <= r
    for some s in S}, d <= r is the integer cross-product dn*rd <= rn*dd.
    """
    if X.metric is None:
        raise CoarseError("a metric filtration is required for uniform checks")
    Y = X.ground.check_subset(Y)
    Z = X.ground.check_subset(Z)
    if Y | Z != frozenset(X.points):
        raise NotADecomposition("the two parts must cover the space")
    rs = [_as_fraction(r) for r in radii]
    if any(r <= 0 for r in rs) or any(b >= a for a, b in zip(rs, rs[1:])):
        raise CoarseError("radii must be positive and strictly decreasing")
    meet = Y & Z
    meets = [(s, _metric_thicken(X, meet, s)) for s in sorted(rs)]
    rows = []
    ok = True
    for r in rs:
        overlap = _metric_thicken(X, Y, r) & _metric_thicken(X, Z, r)
        found = next((s for s, thick in meets if overlap <= thick), None)
        rows.append((r, found))
        ok = ok and found is not None
    notes = ["finite-prefix certificate over the listed radii only"]
    if X.window_tag is not None:
        notes.append("window-relative")
    return UniformDecompositionReport(tuple(rs), tuple(rows), ok, tuple(notes))
