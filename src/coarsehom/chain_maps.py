"""Chain-level certificates on the controlled-tuple complex.

Chains in degree n are Z-linear combinations of (n+1)-tuples of points whose
entries are pairwise related at a chosen scale; tuples with two equal adjacent
entries are normalized away.  This controlled-tuple complex is the definition,
and every certificate that needs a basis works on it: presentations with class
coordinates, induced maps, prisms between close maps and the truncated
swindle.  One builder makes it: one depth-first enumerator gives each basis in
lex order, and one loop grows bases and boundaries a degree at a time.  Chain
maps and prism blocks are `IntMatrix` values, and every identity claimed here
(complex identity, prism identity, swindle identity) is verified as an exact
matrix equation, never numerically.  A space keeps the tuple complexes and
presentations built on it, so each is built once per scale (and degree) and
shared read-only by later callers.

Presentations read the Smith form with transforms of `homology_engine`, whose
pivot is the least |nonzero| entry, ties row-major; generator chains follow
from that order.  A presentation keeps its transforms sparse, each in the
orientation it is read in, so class coordinates cost in proportion to the
nonzeros a chain touches.  One pushforward carries generator chains along a
chain map onto homology for induced maps.

Groups alone need no tuple basis: `homology_engine` reads them off the
chain-equivalent clique complex, and no subcommand loads this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from .core_spaces import Record, check_count
from .homology_engine import (DEFAULT_BASIS_CAP, DEFAULT_DEGREE_CAP, DegreeCapExceeded, FGAbGroup, HomologyError,
                              IntMatrix, _axpy, _boundary_from_lists, _check_degree_cap, _is_complex, _smith)

if TYPE_CHECKING:  # annotations only: `morphisms` loads when a map is first used
    from .morphisms import SpaceMap


class NotControlledAtScale(HomologyError):
    def __init__(self, scale, witness):
        self.scale = scale
        self.witness = witness
        super().__init__(f"map is not controlled at scale {scale}; witness pair {witness}")


class NotClose(HomologyError):
    pass


class WindowTooSmall(HomologyError):
    def __init__(self, iterate, witness):
        self.iterate = iterate
        self.witness = witness
        super().__init__(
            f"iterate {iterate} still meets the bounded set at {witness}; "
            "increase J or shrink B"
        )


# --------------------------------------------------------------------- tuples


def _iter_controlled(sets, nbrs, n):
    """Yield index tuples of length n+1, pairwise related, no adjacent repeats, lex order.

    sets[i] holds the indices related to i and nbrs[i] the same, sorted.  Depth first:
    each entry is drawn, in order, from the points related to all before it.
    """

    def grow(prefix, cand):
        last = prefix[-1]
        for j in cand:
            if j != last:
                t = prefix + (j,)
                if len(t) > n:
                    yield t
                else:
                    sj = sets[j]
                    yield from grow(t, [c for c in cand if c in sj])

    for i, nb in enumerate(nbrs):
        if n:
            yield from grow((i,), nb)
        else:
            yield (i,)


def _controlled_basis(sets, nbrs, n, basis_cap, scale):
    """Degree-n index tuples in lex order."""
    basis = []
    for t in _iter_controlled(sets, nbrs, n):
        if basis_cap is not None and len(basis) >= basis_cap:
            raise DegreeCapExceeded(n, scale, basis_cap)
        basis.append(t)
    return basis


def controlled_tuples(X, k, n, basis_cap=DEFAULT_BASIS_CAP):
    """All nondegenerate (n+1)-tuples pairwise related at scale k, lex order."""
    _check_degree_cap(n, basis_cap)
    pts, sets = X.points, X.coarse.closure_at(k).row_sets()
    return [tuple(pts[i] for i in t) for t in _controlled_basis(sets, list(map(sorted, sets)), n, basis_cap, k)]


def _extend(sets, bases, boundaries, d_max, basis_cap, scale):
    """Grow index bases and boundaries (boundaries[n] = d_n, [0] None) in place through d_max,
    over the neighbour sets sets, sorted once: the one builder of tuple complexes."""
    nbrs = list(map(sorted, sets))
    for n in range(len(bases), d_max + 1):
        basis = _controlled_basis(sets, nbrs, n, basis_cap, scale)
        if n:
            boundaries.append(_boundary_from_lists(basis, bases[n - 1], n))
        bases.append(basis)


def boundary_matrix(X, k, n, basis_cap=DEFAULT_BASIS_CAP):
    """Matrix of the degree-n boundary at scale k (rows: degree n-1, cols: degree n)."""
    _check_degree_cap(n, basis_cap)
    if n < 1:
        raise ValueError("boundary matrices start at degree 1")
    bases, boundaries = [], [None]
    _extend(X.coarse.closure_at(k).row_sets(), bases, boundaries, n, basis_cap, k)
    return boundaries[n]


class ChainComplexAtScale(Record):
    """Normalized controlled-tuple complex of a space at one scale."""

    def __init__(self, space, scale, d_max, bases, boundaries):
        self.space = space
        self.scale = scale
        self.d_max = d_max
        self.bases = bases
        self.boundaries = boundaries

    def dims(self):
        return [len(b) for b in self.bases]


class _SpaceStore:
    """The tuple complexes and presentations of one space, each built once.

    complexes maps (scale, basis_cap) to (index bases, named bases,
    boundaries) through the deepest degree asked for; presentations maps
    (scale, degree, basis_cap) to a HomologyPresentation.  The space holds its
    store and the store holds nothing of the space, so both go together.  A
    refusal is never stored.
    """

    __slots__ = ("complexes", "presentations")

    def __init__(self):
        self.complexes: Dict[tuple, Tuple[list, list, list]] = {}
        self.presentations: Dict[tuple, "HomologyPresentation"] = {}


def _store(X) -> _SpaceStore:
    return vars(X).setdefault("_homology_store", _SpaceStore())


def chain_complex(X, k, d_max, basis_cap=DEFAULT_BASIS_CAP):
    """The normalized tuple complex at scale k through degree d_max.

    Built once per space and (k, basis_cap) and grown to the deepest degree
    asked for; a shallower call gets a prefix.  Bases and boundaries are
    shared with every other caller, read-only.  Growth works on copies of the
    stored lists, and only the new d∘d products are checked.
    """
    _check_degree_cap(d_max, basis_cap)
    complexes = _store(X).complexes
    key = (k, basis_cap)
    index_bases, bases, boundaries = complexes.get(key, ([], [], [None]))
    built = len(bases)
    if built <= d_max:
        index_bases, boundaries = list(index_bases), list(boundaries)
        _extend(X.coarse.closure_at(k).row_sets(), index_bases, boundaries, d_max, basis_cap, k)
        if not _is_complex(boundaries[max(built - 2, 0):]):
            raise HomologyError("boundary matrices fail the complex identity")
        pts = X.points
        bases = bases + [[tuple(pts[i] for i in t) for t in b] for b in index_bases[built:]]
        complexes[key] = (index_bases, bases, boundaries)
    return ChainComplexAtScale(X, k, d_max, bases[:d_max + 1], boundaries[:d_max + 1])


def verify_complex_identity(X, k, d_max=DEFAULT_DEGREE_CAP, basis_cap=None):
    """Exact check that consecutive boundaries compose to zero through degree d_max.

    The complex comes fresh from the builder every tuple complex shares; nothing is stored.
    """
    _check_degree_cap(d_max, basis_cap)
    if d_max < 2:
        return True
    bases, boundaries = [], [None]
    _extend(X.coarse.closure_at(k).row_sets(), bases, boundaries, d_max, basis_cap, k)
    return _is_complex(boundaries)


# ------------------------------------------------------- presentations


def _columns(M: IntMatrix) -> List[Dict[int, int]]:
    """The columns of M as dicts {row: value}."""
    cols: List[Dict[int, int]] = [{} for _ in range(M.shape[1])]
    for i, row in enumerate(M.rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


class HomologyPresentation(Record):
    """H_n at a scale with enough bookkeeping to take class coordinates of cycles.

    The sparse fields are stored in the orientation they are read in.  With
    d_n = U S V (rank rank_dn): V holds the columns of V, one dict {row: value}
    per basis tuple; kernel_basis the columns rank_dn.. of V⁻¹, a basis of the
    cycles, each a dict {basis index: value}.  The image of d_{n+1} in those
    kernel coordinates has Smith form U' S' V' with invariant factors factors
    (1s included); Uprime holds the columns of U', Uprime_inv the rows of
    U'⁻¹, each a dict over the kernel coordinates.
    """

    def __init__(self, degree, scale, group, basis, index, rank_dn, V, kernel_basis, factors,
                 Uprime, Uprime_inv):
        self.degree = degree
        self.scale = scale
        self.group = group
        self.basis = basis
        self.index = index
        self.rank_dn = rank_dn
        self.V = V
        self.kernel_basis = kernel_basis
        self.factors = factors
        self.Uprime = Uprime
        self.Uprime_inv = Uprime_inv

    @property
    def generator_count(self):
        return len(self.group.torsion) + self.group.free_rank

    def _generator_columns(self):
        # positions in kernel coordinates of the torsion, then the free generators
        s = len(self.factors)
        return [i for i in range(s) if self.factors[i] >= 2] + list(range(s, len(self.kernel_basis)))

    def generator_chains(self):
        # generator i mixes the kernel columns with the weights of column i of U'
        out = []
        for i in self._generator_columns():
            vec = [0] * len(self.basis)
            for a, coeff in self.Uprime[i].items():
                for r, x in self.kernel_basis[a].items():
                    vec[r] += coeff * x
            out.append(vec)
        return out

    def class_coordinates(self, chain):
        """Coordinates (torsion parts reduced mod their orders, then free parts)."""
        if isinstance(chain, dict):
            coeffs: Dict[int, int] = {}
            for t, c in chain.items():
                i = self.index.get(t)
                if i is None:
                    raise HomologyError(
                        f"{t!r} is not a degree-{self.degree} basis tuple at scale {self.scale}"
                    )
                coeffs[i] = coeffs.get(i, 0) + c
            nz = [(i, c) for i, c in coeffs.items() if c]
        else:
            vec = list(chain)
            if len(vec) != len(self.basis):
                raise HomologyError(
                    f"chain has {len(vec)} coefficients; the degree-{self.degree} basis has {len(self.basis)}"
                )
            nz = [(i, c) for i, c in enumerate(vec) if c]
        # V @ chain, as the sum of the columns of V the chain touches
        y: Dict[int, int] = {}
        for i, c in nz:
            for p, x in self.V[i].items():
                y[p] = y.get(p, 0) + c * x
        r = self.rank_dn
        if any(v for p, v in y.items() if p < r):
            raise HomologyError("chain is not a cycle at this scale")
        a0 = [(p - r, v) for p, v in y.items() if v]
        coords = []
        for i in self._generator_columns():
            row = self.Uprime_inv[i]
            a = sum(row.get(j, 0) * c for j, c in a0)
            coords.append(a % self.factors[i] if i < len(self.factors) else a)
        return tuple(coords)


def homology_presentation(X, k, n, basis_cap=DEFAULT_BASIS_CAP) -> HomologyPresentation:
    """H_n at scale k with class coordinates; built once per space, shared read-only."""
    _check_degree_cap(n, basis_cap)
    presentations = _store(X).presentations
    key = (k, n, basis_cap)
    if key not in presentations:
        cc = chain_complex(X, k, n + 1, basis_cap)
        presentations[key] = _presentation_from_complex(
            cc.bases[n], cc.boundaries[n] if n else None, cc.boundaries[n + 1], n, k)
    return presentations[key]


def _presentation_from_complex(basis, d_n, d_next, degree, scale):
    c = len(basis)
    # degree 0 has no d_n: a 0 x c matrix, whose Smith form is the identity
    rows = [dict(row) for row in d_n.rows] if d_n is not None else []
    diag, _, _, Vr, Vic = _smith(rows, c, track_U=False)
    r = len(diag)
    V: List[Dict[int, int]] = [{} for _ in range(c)]
    kernel_rows: List[Dict[int, int]] = [{} for _ in range(c)]  # V's rows r.., by column
    for p, row in enumerate(Vr):
        for b, x in row.items():
            V[b][p] = x
            if p >= r:
                kernel_rows[b][p - r] = x
    # W: the image of d_next in kernel coordinates, each distinct nonzero column once
    W: List[Dict[int, int]] = [{} for _ in range(c - r)]
    seen = set()
    for dcol in _columns(d_next):
        col: Dict[int, int] = {}
        for rr, vv in dcol.items():
            _axpy(col, kernel_rows[rr], vv)
        key = frozenset(col.items())
        if col and key not in seen:
            for i, x in col.items():
                W[i][len(seen)] = x
            seen.add(key)
    factors, Uprime_inv, Uprime, _, _ = _smith(W, len(seen), track_V=False)
    group = FGAbGroup(c - r - len(factors), tuple(d for d in factors if d >= 2))
    index = {tp: i for i, tp in enumerate(basis)}
    return HomologyPresentation(degree, scale, group, list(basis), index, r, V,
                                Vic[r:], factors, Uprime, Uprime_inv)


# ------------------------------------------------------- induced maps


def _shift_at(f: SpaceMap, k):
    """Least target scale holding the image of closure_at(k), or None if there is none: one
    rising pass over the image pairs of the source's closure rows, listed before it rises."""
    from .morphisms import _image_pairs, _images, _least_containing_scale

    return _least_containing_scale(f.target, _image_pairs(_images(f), f.source.closure_at(k)))


def _controlled_shift(f: SpaceMap, k):
    """_shift_at(f, k), refusing an uncontrolled map with its least failing pair."""
    from .morphisms import _uncontrolled_pair

    shift = _shift_at(f, k)
    if shift is None:
        raise NotControlledAtScale(k, _uncontrolled_pair(f, k))
    return shift


def _tuple_map(basis_src, index_tgt, images):
    """The one builder of chain-level maps: column t, from basis_src into the basis indexed by
    index_tgt, sums the (image tuple, sign) terms images(t).  An image with two equal adjacent
    entries is 0, and terms that land on one tuple add up, so they can cancel."""
    rows: List[Dict[int, int]] = [{} for _ in index_tgt]
    for col, t in enumerate(basis_src):
        for img, sign in images(t):
            if all(a != b for a, b in zip(img, img[1:])):
                row = rows[index_tgt[img]]
                row[col] = v = row.get(col, 0) + sign
                if not v:
                    del row[col]
    return IntMatrix((len(index_tgt), len(basis_src)), rows)


def _chain_map_matrix(basis_src, index_tgt, *maps: SpaceMap):
    """The sum of the chain maps of maps, from basis_src into the basis indexed by index_tgt."""
    tables = [f.table.__getitem__ for f in maps]
    return _tuple_map(basis_src, index_tgt, lambda t: [(tuple(map(get, t)), 1) for get in tables])


class InducedMap(Record):
    def __init__(self, map, degree, source_scale, target_scale, source, target, chain_matrix,
                 matrix):
        self.map = map
        self.degree = degree
        self.source_scale = source_scale
        self.target_scale = target_scale
        self.source = source
        self.target = target
        self.chain_matrix = chain_matrix
        self.matrix = matrix  # columns = images of source generators in target coordinates


def _on_homology(chain: IntMatrix, src: HomologyPresentation, tgt: HomologyPresentation):
    """A chain map on homology: column j is src's generator j pushed along chain, in tgt coordinates."""
    chain_cols = _columns(chain)
    cols = []
    for gen in src.generator_chains():
        img = [0] * chain.shape[0]
        for c, x in enumerate(gen):
            if x:
                for r, v in chain_cols[c].items():
                    img[r] += v * x
        cols.append(tgt.class_coordinates(img))
    return [[col[i] for col in cols] for i in range(tgt.generator_count)]


def induced_map(f: SpaceMap, k_source, n, target_scale=None, basis_cap=DEFAULT_BASIS_CAP):
    """Chain-level and homology-level matrices of a controlled map at a scale."""
    _check_degree_cap(n, basis_cap)
    shift = _controlled_shift(f, k_source)
    kt = shift if target_scale is None else target_scale
    if kt < shift:
        raise HomologyError(
            f"target scale {kt} does not hold the image of closure_at({k_source}); "
            f"the least scale that does is {shift}"
        )
    src = homology_presentation(f.source, k_source, n, basis_cap)
    tgt = homology_presentation(f.target, kt, n, basis_cap)
    chain = _chain_map_matrix(src.basis, tgt.index, f)
    return InducedMap(f, n, k_source, kt, src, tgt, chain, _on_homology(chain, src, tgt))


# ------------------------------------------------------------ prism


class PrismResult(Record):
    def __init__(self, source_scale, target_scale, closeness, h, verified):
        self.source_scale = source_scale
        self.target_scale = target_scale
        self.closeness = closeness
        self.h = h
        self.verified = verified


def prism(f: SpaceMap, g: SpaceMap, k, n, basis_cap=DEFAULT_BASIS_CAP):
    """Chain homotopy between C(f) and C(g) with the prism identity checked exactly."""
    from .morphisms import are_close

    _check_degree_cap(n, basis_cap)
    if f.source != g.source or f.target != g.target:
        raise NotClose("prism needs a parallel pair of maps")
    c = are_close(f, g)
    if c is None:
        raise NotClose("maps are not close at any scale up to stabilization")
    sf = _controlled_shift(f, k)
    sg = _controlled_shift(g, k)
    # closures agree past stabilization, so capping keeps the same complex
    kt = min(max(sf, sg) + c, f.target.coarse.stabilization())
    src_cc = chain_complex(f.source, k, n, basis_cap)
    tgt_cc = chain_complex(f.target, kt, n + 1, basis_cap)
    tgt_index = [{t: i for i, t in enumerate(b)} for b in tgt_cc.bases]

    def terms(t):  # h(t) = sum over i of (-1)^i (f t_0, ..., f t_i, g t_i, ..., g t_m)
        fx, gx = tuple(map(f, t)), tuple(map(g, t))
        return [(fx[:i + 1] + gx[i:], -1 if i % 2 else 1) for i in range(len(t))]

    hmats = {m: _tuple_map(src_cc.bases[m], tgt_index[m + 1], terms) for m in range(n + 1)}
    verified = True
    for m in range(n + 1):
        F = _chain_map_matrix(src_cc.bases[m], tgt_index[m], f)
        G = _chain_map_matrix(src_cc.bases[m], tgt_index[m], g)
        lhs = tgt_cc.boundaries[m + 1] @ hmats[m]
        if m >= 1:
            lhs = lhs + hmats[m - 1] @ src_cc.boundaries[m]
        if lhs - (G - F):
            verified = False
    return PrismResult(k, kt, c, hmats, verified)


# ----------------------------------------------------------- swindle


def swindle_identity_check(X, f: SpaceMap, B, J, k=1, n=1, basis_cap=DEFAULT_BASIS_CAP):
    """Truncated Eilenberg-swindle identity, exact on chains seen by the bounded set B.

    With S_J the sum of the chain maps of f^0..f^J, the identity S - C(f)S = id
    holds after projecting onto tuples that meet B, provided f^J(X) misses B (else
    WindowTooSmall).  It then holds by telescoping to -C(f^(J+1)), so the exact
    matrix equation checks the chain-map code: False means a fault there.
    """
    from .morphisms import identity_map

    _check_degree_cap(n, basis_cap)
    check_count(J, "J")
    Bset = X.ground.check_subset(B)
    ident = identity_map(X)
    powers = [ident]
    for _ in range(J):
        powers.append(f.compose(powers[-1]))
    if Bset:
        img = {powers[J](p) for p in X.points}
        hit = img & Bset
        if hit:
            raise WindowTooSmall(J, sorted(hit)[0])
    K0 = max([k] + [_controlled_shift(p, k) for p in powers])
    K1 = max(K0, _controlled_shift(f, K0))
    for deg in range(n + 1):
        basis_k, basis_K0, basis_K1 = (chain_complex(X, s, deg, basis_cap).bases[deg] for s in (k, K0, K1))
        idx_K0 = {t: i for i, t in enumerate(basis_K0)}
        idx_K1 = {t: i for i, t in enumerate(basis_K1)}
        S = _chain_map_matrix(basis_k, idx_K0, *powers)
        E = _chain_map_matrix(basis_K0, idx_K1, ident)
        Phi = _chain_map_matrix(basis_K0, idx_K1, f)
        incl = _chain_map_matrix(basis_k, idx_K1, ident)
        lhs = E @ S - Phi @ S - incl
        if any(row and any(x in Bset for x in t) for row, t in zip(lhs.rows, basis_K1)):
            return False
    return True
