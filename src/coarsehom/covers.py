"""Nets, covers, anti-Cech prefixes, asymptotic-dimension upper bounds, and
the hybrid/uniform-decomposition constructions: the coarse geometry of
covers, which needs no homology.

Certificates on covers are verified, never trusted: a bound scale means every
member was checked to be bounded at that scale, and a Lebesgue scale means
every bounded subset at that scale was checked to land inside some member.
That check has two routes on the scale graph (_verify_lebesgue): every ball
inside a member suffices, and otherwise a search for a clique in no member
decides.  The exact route keeps its note "lebesgue verified via maximal
bounded-set enumeration", since every maximal bounded set lying in a member
is what it certifies, so reports do not change with the search.
"""

from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .core_spaces import (
    BigFamilyPrefix, BornCoarseSpace, CoarseError, Entourage, FrozenRecord, Record, _as_fraction, check_count,
    check_scale, is_U_bounded,
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
    pts, sets = X.points, X.coarse.closure_at(k).row_sets()
    taken = _net_over_order(range(len(pts)), sets)
    # both halves of the net contract are cheap to re-check exactly; the net is in
    # increasing index order, so a later net point is a larger net index in the ball
    in_net = set(taken)
    for i in taken:
        later = [j for j in sets[i] if j > i and j in in_net]
        if later:
            raise CoverError(f"net separation violated by {pts[i]!r}, {pts[min(later)]!r}")
    net = [pts[i] for i in taken]
    if X.coarse.thicken(k, net) != frozenset(pts):
        raise CoverError("net fails to cover the space")
    return net


def _uncovered_clique(later, owners) -> Optional[tuple]:
    """The first clique of a graph that no member holds, or None when every clique lies in one.

    later[v] is the set of neighbours of v with a larger index, and owners[v]
    the members (index sets) that hold v.  Cliques grow in increasing index
    order over later neighbours, carrying the members that hold the clique so
    far; a branch is skipped when one of them holds the clique and all its
    candidates, since a member that holds a clique holds all its subsets.
    """
    stack = [((v,), later[v], owners[v]) for v in reversed(range(len(later)))]
    while stack:
        clique, cand, holders = stack.pop()
        if not holders:
            return clique
        if any(cand <= m for m in holders):
            continue
        stack.extend((clique + (w,), cand & later[w], [m for m in holders if w in m])
                     for w in sorted(cand, reverse=True))
    return None


def _verify_lebesgue(X, s, members) -> Optional[str]:
    """A note naming the route that certified s as a Lebesgue scale of members, or None.

    Both routes read the scale-s graph in index space.  The ball route runs
    first: every scale-s ball inside some member suffices, because a bounded
    set lies in the ball around any of its points, but its failure is not
    conclusive (balls are twice as wide as bounded sets).  The exact route
    decides: a scale-s bounded set is a clique of the graph, so s is a
    Lebesgue scale exactly when _uncovered_clique finds none.
    """
    index = X.ground._index.__getitem__
    sets = X.coarse.closure_at(s).row_sets()
    owners = [[] for _ in sets]
    for m in members:
        held = set(map(index, m))
        for v in held:
            owners[v].append(held)
    if all(any(ball <= m for m in owners[v]) for v, ball in enumerate(sets)):
        return "lebesgue verified via ball containment (sufficient for symmetric relations)"
    later = [{j for j in nb if j > v} for v, nb in enumerate(sets)]
    if _uncovered_clique(later, owners) is None:
        return "lebesgue verified via maximal bounded-set enumeration"
    return None


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
    refused outright, and so is a member, of a Cover or of a list, that holds a
    point outside the ground (UnknownPoint, from check_subset).
    """
    members = tuple(map(X.ground.check_subset, cover.members if isinstance(cover, Cover) else cover))
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
    scales = tuple(scale_list)
    if not scales:
        raise CoverError("at least one scale is required")
    for k in scales:  # before their order is compared, which a string or a float would break
        check_scale(k)
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
        # the first member of the next cover that holds m holds any one point of m, so
        # only the members holding that point are scanned, in increasing index
        bigs, owners = covers[i + 1].members, {}
        for t, big in enumerate(bigs):
            for p in big:
                owners.setdefault(p, []).append(t)
        kappa = []
        for j, m in enumerate(covers[i].members):
            target = next((t for t in owners.get(next(iter(m)), ()) if m <= bigs[t]), None)
            if target is None:
                raise CertificateFailed(i, f"member {j} fits in no member of the next cover")
            kappa.append(target)
        refinements.append(tuple(kappa))
    return AntiCechPrefix(scales, tuple(covers), tuple(certificates), tuple(refinements))


# ----------------------------------------------------------------- asdim


class AsdimReport(Record):
    """Heuristic upper bound for asymptotic dimension on a finite window."""

    def __init__(self, per_scale, upper_bound, budget, notes=()):
        self.per_scale = per_scale
        self.upper_bound = upper_bound
        self.budget = budget
        self.notes = notes


def _net_over_order(order, sets):
    """Indices of order not related at the scale of the neighbour sets to any index taken before them.

    The relation is symmetric, so an index is related to an earlier net index
    exactly when it lies in that index's neighbour set: the union of those
    sets is kept as the covered set.
    """
    net, covered = [], set()
    for i in order:
        if i not in covered:
            net.append(i)
            covered.update(sets[i])
    return net


def asdim_upper_bound(X: BornCoarseSpace, scale_list: Sequence[int],
                      search_budget: int = 8) -> AsdimReport:
    """Least nerve dimension of a ball cover found within the search budget.

    The search rotates the greedy net's start point; the nerve dimension of a
    cover is one less than the largest number of members through a single
    point.  The value is a search result, not a certificate, and is relative
    to the window.  An empty scale list and a budget below 1 or no int are refused.
    """
    scales = list(scale_list)
    if not scales:
        raise CoverError("at least one scale is required")
    check_count(search_budget, "search_budget", 1, CoverError)
    n = len(X.points)
    per_scale = {}
    for k in scales:
        sets = X.coarse.closure_at(k).row_sets()
        best = None
        for r in range(max(1, min(search_budget, n))):
            depth = [0] * n
            for d in _net_over_order(chain(range(r, n), range(r)), sets):
                for j in sets[d]:
                    depth[j] += 1
            dim = max(depth) - 1
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
    into the metric filtration, so its entries must be scale indices
    (check_scale) and non-increasing.  The scan runs in index space, on the
    members as index sets and on the row sets of one closure per distinct phi
    scale.
    """
    if len(phi) != len(family.members):
        raise CoarseError(
            f"phi has {len(phi)} entries for {len(family.members)} family members"
        )
    for v in phi:
        check_scale(v)
    for i, (a, b) in enumerate(zip(phi, phi[1:])):
        if b > a:
            raise PhiNotDecreasing(f"phi({i}) = {a} < phi({i + 1}) = {b}")
    index, pts = X.ground._index, X.points
    rows = {v: X.coarse.closure_at(v).row_sets() for v in dict.fromkeys(phi)}
    tests = [({index[p] for p in Y if p in index}, rows[v]) for Y, v in zip(family.members, phi)]
    pairs = [
        (pts[j], pts[i]) for i, row in enumerate(X.closure_at(base_k).rows()) for j in row
        if all((i in inside and j in inside) or j in near[i] for inside, near in tests)
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
