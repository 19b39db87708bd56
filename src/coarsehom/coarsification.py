"""Nerves of covers, coarsified homology on measure (clique) complexes, and
truncated coarsening telescopes.

Covers and anti-Cech prefixes come from `covers`, which loads no homology;
the complexes here subclass `SimplicialComplex` and take its one checked
route from simplices to groups.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from .core_spaces import BornCoarseSpace, Record, check_degree
from .homology_engine import (
    DEFAULT_BASIS_CAP,
    DegreeCapExceeded,
    SimplicialComplex,
    _colimit_groups,
    rips_complex,
)

if TYPE_CHECKING:  # annotations only: whoever holds a cover has loaded `covers`
    from .covers import AntiCechPrefix, Cover


# ------------------------------------------------------------- nerves


class NerveComplex(SimplicialComplex):
    """Nerve of a cover; vertices are member indices."""

    def __init__(self, vertices, simplices, cover):
        super().__init__(vertices, simplices)
        self.cover = cover


def nerve(cover: Cover, d_max: int, basis_cap: int = DEFAULT_BASIS_CAP) -> NerveComplex:
    check_degree(d_max)
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
    check_degree(d_max)
    notes = ["bounded exhaustion collapses at the whole finite space; "
             "values are unreduced homology of the measure complex"]
    if X.window_tag is not None:
        notes.append(
            f"window-relative: computed over the {X.window_tag.name} window "
            f"of radius {X.window_tag.radius}"
        )
    table = {int(k): rips_complex(X, int(k), d_max + 1, basis_cap).homology(d_max) for k in scale_list}
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
    check_degree(d_max)
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
