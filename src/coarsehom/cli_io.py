"""Space documents, map files, the command-line surface, and reports.

Documents are JSON text; rationals travel as "p/q" strings (or integers, or
decimal literals, all converted exactly) so no float ever reaches a
comparison.  An explicit document names its points by strings: every
entourage pair is two of them and every bornology member a list of them, and
a document that breaks this is a ParseError naming the field.  A map file's
lines go to SpaceMap in file order, so its own checks refuse a point mapped
to two targets.  Reports render as sorted-key JSON or as flat deterministic
text; two runs over the same inputs produce identical bytes.

Parsing and emitting need only `core_spaces`; each subcommand imports the
layer it calls inside its handler, so a cold process loads nothing more.
"""

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .core_spaces import (
    BornCoarseSpace,
    CoarseError,
    Record,
    coarse_components,
    big_family_generated,
    from_metric,
    make_big_family,
    make_explicit_space,
    windowed_builtin,
)


class ParseError(Exception):
    """Malformed document, map file, or flag value; names the failing field."""

    def __init__(self, message, field_name=None):
        self.field_name = field_name
        where = f" (field {field_name})" if field_name else ""
        super().__init__(f"{message}{where}")


# ------------------------------------------------------------ rationals


def _as_rational(value, field_name) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("booleans are not rationals", field_name)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            # a float (JSON also reads NaN and Infinity) by its shortest decimal repr, then exactly
            return Fraction(repr(value) if isinstance(value, float) else value)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad rational {value!r}: {e}", field_name)
    raise ParseError(f"bad rational {value!r}", field_name)


def _rational_token(fr: Fraction) -> str:
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


# ------------------------------------------------------- space documents


def parse_space(document) -> BornCoarseSpace:
    """Build a space from a JSON document (text or already-parsed object)."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as e:
            raise ParseError(f"not valid JSON: {e}")
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    kind = doc.get("kind")
    if kind == "explicit":
        return _parse_explicit(doc)
    if kind == "metric":
        return _parse_metric(doc)
    if kind == "builtin":
        return _parse_builtin(doc)
    raise ParseError(f"kind must be explicit, metric or builtin, got {kind!r}", "kind")


def _string_points(doc):
    pts = doc.get("points")
    if not isinstance(pts, list) or not pts:
        raise ParseError("points must be a nonempty list", "points")
    for p in pts:
        if not isinstance(p, str):
            raise ParseError(f"point {p!r} is not a string", "points")
    if len(set(pts)) != len(pts):
        raise ParseError("points contain a duplicate", "points")
    return pts


def _parse_explicit(doc) -> BornCoarseSpace:
    pts = _string_points(doc)
    known = set(pts)
    ents = doc.get("entourages")
    if not isinstance(ents, list):
        raise ParseError("entourages must be a list of pair lists", "entourages")
    gens = []
    for gi, pairs in enumerate(ents):
        if not isinstance(pairs, list):
            raise ParseError(f"entourage {gi} is not a pair list", "entourages")
        out = []
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError(f"entourage {gi} holds a non-pair {pair!r}", "entourages")
            if not all(isinstance(p, str) for p in pair):
                raise ParseError(f"entourage {gi} holds a pair {pair!r} whose entries are not both strings",
                                 "entourages")
            if not known.issuperset(pair):
                raise ParseError(f"entourage {gi} holds a pair {pair!r} naming a point not in points", "entourages")
            out.append(tuple(pair))
        gens.append(out)
    born = doc.get("bornology")
    if not isinstance(born, list):
        raise ParseError("bornology must be a list of subsets", "bornology")
    for bi, member in enumerate(born):
        if not (isinstance(member, list) and all(isinstance(p, str) for p in member)):
            raise ParseError(f"bornology member {bi} is not a list of strings: {member!r}", "bornology")
        if not known.issuperset(member):
            raise ParseError(f"bornology member {bi} names a point not in points: {member!r}", "bornology")
    return make_explicit_space(pts, gens, born)


def _parse_metric(doc) -> BornCoarseSpace:
    pts = _string_points(doc)
    rows = doc.get("distances")
    if not isinstance(rows, list) or len(rows) != len(pts):
        raise ParseError("distances must have one lower-triangular row per point", "distances")
    n = len(pts)
    full = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != i:
            raise ParseError(f"row {i} must have exactly {i} entries", "distances")
        for j, v in enumerate(row):
            d = _as_rational(v, "distances")
            full[i][j] = full[j][i] = d
    scales = doc.get("scales")
    if not isinstance(scales, list) or not scales:
        raise ParseError("scales must be a nonempty list", "scales")
    return from_metric(pts, full, [_as_rational(s, "scales") for s in scales])


def _parse_builtin(doc) -> BornCoarseSpace:
    name = doc.get("name")
    radius = doc.get("radius")
    if not isinstance(name, str):
        raise ParseError("builtin name must be a string", "name")
    if not isinstance(radius, int) or isinstance(radius, bool):
        raise ParseError("radius must be an integer", "radius")
    return windowed_builtin(name, radius)


def emit_space(X: BornCoarseSpace) -> dict:
    """Canonical document for a space.  A builtin document is written only for a space on
    all the points of its window, in order.  Explicit and metric documents name each point p
    by str(p), so parse_space(emit_space(X)) rebuilds X on those tokens as its points:
    subspace(int_window(5), [0, 1, 2]) comes back on ('0', '1', '2').  Two points that
    share a token are refused, naming both."""
    tag = X.window_tag
    if tag is not None and X.points == tag.points:
        return {"kind": "builtin", "name": tag.name, "radius": tag.radius}
    first = {}
    for p in X.points:
        if first.setdefault(str(p), p) is not p:
            raise CoarseError(f"points {first[str(p)]!r} and {p!r} are both written {str(p)!r} in a document")
    metric_doc = _try_emit_metric(X)
    if metric_doc is not None:
        return metric_doc
    pts = list(X.points)
    return {
        "kind": "explicit",
        "points": [str(p) for p in pts],
        "entourages": [
            sorted([str(a), str(b)] for a, b in e.pairs) for e in X.coarse.generators
        ],
        "bornology": [sorted(str(p) for p in b) for b in X.bornology.generators],
    }


def _try_emit_metric(X) -> Optional[dict]:
    if X.metric is None:
        return None
    pts = list(X.points)
    if X.bornology.generators != (frozenset(pts),):
        return None
    dist = {(a, b): X.metric(a, b) for a in pts for b in pts}
    realized = sorted({d for d in dist.values() if d > 0})
    scales = []
    for e in X.coarse.generators:
        worst = max((dist[p] for p in e.pairs), default=Fraction(0))
        above = [d for d in realized if d > worst]
        r = above[0] if above else worst + 1
        if {(a, b) for a, b in dist if a != b and dist[(a, b)] < r} != {
            (a, b) for a, b in e.pairs if a != b
        }:
            return None
        scales.append(r)
    if scales != sorted(set(scales)):
        return None
    return {
        "kind": "metric",
        "points": [str(p) for p in pts],
        "distances": [
            [_rational_token(dist[(pts[i], pts[j])]) for j in range(i)] for i in range(len(pts))
        ],
        "scales": [_rational_token(s) for s in scales],
    }


def emit_space_text(X: BornCoarseSpace) -> str:
    return json.dumps(emit_space(X), sort_keys=True, indent=2) + "\n"


# -------------------------------------------------- builtin conveniences


def _convenience_document(name) -> Optional[dict]:
    if name == "point":
        return {"kind": "explicit", "points": ["*"], "entourages": [], "bornology": [["*"]]}
    if name == "hexagon":
        pts = [str(i) for i in range(6)]
        edges = [[str(i), str((i + 1) % 6)] for i in range(6)]
        return {"kind": "explicit", "points": pts, "entourages": [edges], "bornology": [pts]}
    return None


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _resolve_space(ref: str) -> Tuple[BornCoarseSpace, str]:
    """Space plus input digest, from a file path or a convenience name."""
    doc = _convenience_document(ref)
    if doc is not None:
        blob = json.dumps(doc, sort_keys=True).encode()
        return parse_space(doc), _digest(blob)
    try:
        with open(ref, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read space {ref!r}: {e.strerror}")
    return parse_space(blob.decode("utf-8")), _digest(blob)


def _match_subset(X, raw_list, field_name):
    """The points raw_list names, each by itself or by its token; the token map is built on the first miss."""
    if not isinstance(raw_list, list):
        raise ParseError(f"{field_name} must be a JSON list", field_name)
    out, by_token = [], None
    for raw in raw_list:
        cand = tuple(raw) if isinstance(raw, list) else raw  # JSON spells a grid point as a list
        try:
            if cand in X.ground:
                out.append(cand)
                continue
        except TypeError:  # unhashable: a JSON object, or a list holding one
            pass
        if by_token is None:
            by_token = {str(p): p for p in X.points}
        if str(raw) not in by_token:
            raise ParseError(f"{raw!r} names no point of the space", field_name)
        out.append(by_token[str(raw)])
    return out


def _json_flag(text, field_name):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON in --{field_name}: {e}", field_name)


def _int_list(vals, field_name):
    """vals, refused unless it is a list of integers (booleans, floats and strings are not)."""
    if not isinstance(vals, list) or any(type(v) is not int for v in vals):
        raise ParseError(f"{field_name} needs a JSON list of integers, got {json.dumps(vals)}",
                         field_name)
    return vals


# -------------------------------------------------------------- map files


def parse_map_file(path: str) -> Tuple["SpaceMap", Dict[str, str]]:
    """Two space references, then one 'source -> target' line per point.

    The pairs go to SpaceMap in file order, so a point given two targets is
    refused there (CoarseError, exit 1), naming the point.
    """
    import os

    from .morphisms import SpaceMap

    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read map {path!r}: {e.strerror}")
    lines = [ln.strip() for ln in blob.decode("utf-8").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise ParseError("map file needs two space references before the pair lines")
    base = os.path.dirname(path)

    def ref(token):
        if _convenience_document(token) is not None:
            return token
        return token if os.path.isabs(token) or os.path.exists(token) else os.path.join(base, token)

    src, d_src = _resolve_space(ref(lines[0]))
    tgt, d_tgt = _resolve_space(ref(lines[1]))
    src_tokens = {str(p): p for p in src.points}
    tgt_tokens = {str(p): p for p in tgt.points}
    pairs = []
    for ln in lines[2:]:
        arrow = "->" if "->" in ln else ("→" if "→" in ln else None)
        if arrow is None:
            raise ParseError(f"map line {ln!r} has no '->'")
        a, b = (part.strip() for part in ln.split(arrow, 1))
        if a not in src_tokens:
            raise ParseError(f"{a!r} names no source point")
        if b not in tgt_tokens:
            raise ParseError(f"{b!r} names no target point")
        pairs.append((src_tokens[a], tgt_tokens[b]))
    digests = {"map": _digest(blob), "map.source": d_src, "map.target": d_tgt}
    return SpaceMap(src, tgt, pairs), digests


# ---------------------------------------------------------------- reports


class Report(Record):
    def __init__(self, command, input_digest=None, results=None, warnings=None, refusals=None):
        self.command = command
        self.input_digest = {} if input_digest is None else input_digest
        self.results = {} if results is None else results
        self.warnings = [] if warnings is None else warnings
        self.refusals = [] if refusals is None else refusals

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "input_digest": self.input_digest,
            "refusals": self.refusals,
            "results": self.results,
            "warnings": self.warnings,
        }
        return json.dumps(body, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for label in sorted(self.input_digest):
            lines.append(f"input digest [{label}]: {self.input_digest[label]}")
        lines.extend(_flatten("results", self.results))
        for w in self.warnings:
            lines.append(f"warning: {w}")
        for r in self.refusals:
            lines.append(f"refusal [{r['error']}]: {r['detail']}")
        return "\n".join(lines) + "\n"


def _flatten(prefix, obj):
    if isinstance(obj, dict):
        out = []
        for k in sorted(obj, key=str):
            out.extend(_flatten(f"{prefix}.{k}", obj[k]))
        return out
    if isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            return [f"{prefix}: [{', '.join(str(v) for v in obj)}]"]
        out = []
        for i, v in enumerate(obj):
            out.extend(_flatten(f"{prefix}[{i}]", v))
        return out
    return [f"{prefix}: {obj}"]


def _group_json(g, degree) -> dict:
    return {"degree": degree, "free_rank": g.free_rank, "torsion": list(g.torsion)}


def _groups_json(groups) -> list:
    return [_group_json(g, i) for i, g in enumerate(groups)]


def _tokens(points, X) -> list:
    return [str(p) for p in X.ground.sorted(points)]


# ----------------------------------------------------------- CLI plumbing


def _count(text) -> int:
    """argparse type of a flag that counts something: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.

    Help, usage lines and errors of one subcommand are the same bytes either
    way; a run registers only the subcommand it names, which builds in about
    a tenth of the time of all fifteen.
    """
    top = argparse.ArgumentParser(
        prog="coarsehom",
        description="Exact computations on finite bornological coarse spaces.",
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="|".join(COMMANDS))
    for name in (command,) if command else COMMANDS:
        _, help_text, space, extra = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if space:
            p.add_argument("--space", required=True,
                           help="space document file, or a builtin name (point, hexagon)")
        p.add_argument("--out", help="write the report to this file instead of stdout")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
    return top


def _parse_scales(text, field_name="scales"):
    raw = text.strip()
    if raw.startswith("["):
        vals = _int_list(_json_flag(raw, field_name), field_name)
    else:
        vals = [tok for tok in raw.split(",") if tok.strip()]
    out = []
    for v in vals:
        try:
            out.append(int(v))
        except (TypeError, ValueError):
            raise ParseError(f"scale {v!r} is not an integer", field_name)
    if not out:
        raise ParseError("at least one scale is required", field_name)
    return out


# ----------------------------------------------------------- subcommands


def _cmd_components(args, rep: Report, X):
    comps = coarse_components(X)
    rep.results = {
        "count": len(comps),
        "components": [[str(p) for p in c] for c in comps],
        "scale": "stabilized",
    }


def _window_warning(X, rep):
    if X.window_tag is not None:
        rep.warnings.append(
            f"window-relative: {X.window_tag.name} window of radius {X.window_tag.radius}"
        )


def _cmd_homology(args, rep: Report, X):
    from .homology_engine import (DEFAULT_BASIS_CAP, DEFAULT_DEGREE_CAP, homology_at_scale,
                                  homology_colimit)

    max_dim = DEFAULT_DEGREE_CAP if args.max_dim is None else args.max_dim
    basis_cap = DEFAULT_BASIS_CAP if args.basis_cap is None else args.basis_cap
    if args.colimit == (args.scale is not None):
        raise ParseError("give exactly one of --scale or --colimit", "scale")
    if args.colimit:
        groups, stab = homology_colimit(X, max_dim, basis_cap)
        rep.results = {
            "mode": "colimit",
            "stable_scale": stab.stable_scale,
            "groups": _groups_json(groups),
            "per_scale": {str(k): _groups_json(v) for k, v in stab.per_scale.items()},
        }
        rep.warnings.extend(stab.warnings)
    else:
        groups = homology_at_scale(X, args.scale, max_dim, basis_cap)
        rep.results = {
            "mode": "at-scale",
            "scale": args.scale,
            "groups": _groups_json(groups),
        }
        _window_warning(X, rep)


def _cmd_qhomology(args, rep: Report, X):
    from .coarsification import coarsify_homology

    scales = _parse_scales(args.scales) if args.scales.strip() else []
    out = coarsify_homology(X, scales, args.max_dim)
    rep.results = {
        "table": {str(k): _groups_json(v) for k, v in out.table.items()},
        "stable_scale": out.stable_scale,
        "terminal": _groups_json(out.terminal),
    }
    rep.warnings.extend(out.notes)


def _cmd_nerve(args, rep: Report, X):
    from .coarsification import nerve
    from .covers import cover_from_net

    cov = cover_from_net(X, args.scale)
    nv = nerve(cov, args.max_dim + 1)
    rep.results = {
        "scale": args.scale,
        "members": [_tokens(m, X) for m in cov.members],
        "bound_scale": cov.bound_scale,
        "lebesgue_scale": cov.lebesgue_scale,
        "simplex_counts": [len(s) for s in nv.simplices],
        "groups": _groups_json(nv.homology(args.max_dim)),
    }
    rep.warnings.extend(cov.notes)
    _window_warning(X, rep)


def _cmd_anti_cech(args, rep: Report, X):
    from .covers import anti_cech

    pre = anti_cech(X, _parse_scales(args.scales))
    rep.results = {
        "scales": list(pre.scales),
        "member_counts": [len(c.members) for c in pre.covers],
        "certificates": list(pre.certificates),
        "refinements": [list(k) for k in pre.refinements],
    }
    _window_warning(X, rep)


def _cmd_telescope(args, rep: Report, X):
    from .coarsification import coarsening_space
    from .covers import anti_cech

    pre = anti_cech(X, _parse_scales(args.scales))
    tele, groups = coarsening_space(pre, args.max_dim)
    rep.results = {
        "scales": list(pre.scales),
        "vertices": len(tele.vertices),
        "simplex_counts": [len(s) for s in tele.simplices],
        "groups": _groups_json(groups),
    }
    _window_warning(X, rep)


def _cmd_asdim(args, rep: Report, X):
    from .covers import asdim_upper_bound

    out = asdim_upper_bound(X, _parse_scales(args.scales), args.budget)
    rep.results = {
        "per_scale": {str(k): v for k, v in out.per_scale.items()},
        "upper_bound": out.upper_bound,
        "budget": out.budget,
    }
    rep.warnings.extend(out.notes)


def _cmd_check_morphism(args, rep: Report):
    from .morphisms import check_morphism

    f, digs = parse_map_file(args.map)
    rep.input_digest.update(digs)
    verdict = check_morphism(f)
    rep.results = {
        "controlled": verdict.controlled,
        "proper": verdict.proper,
        "morphism": verdict.is_morphism,
        "scale_shift": {str(k): v for k, v in sorted(verdict.scale_shift.items())},
        "controlled_witness": list(map(str, verdict.controlled_witness))
        if verdict.controlled_witness else None,
        "proper_witness": sorted(map(str, verdict.proper_witness))
        if verdict.proper_witness else None,
    }


def _two_maps(args, rep):
    if len(args.map) != 2:
        raise ParseError("give --map exactly twice", "map")
    f, d1 = parse_map_file(args.map[0])
    g, d2 = parse_map_file(args.map[1])
    rep.input_digest.update({f"f.{k}" if k != "map" else "map.f": v for k, v in d1.items()})
    rep.input_digest.update({f"g.{k}" if k != "map" else "map.g": v for k, v in d2.items()})
    return f, g


def _cmd_close(args, rep: Report):
    from .morphisms import are_close

    f, g = _two_maps(args, rep)
    k = are_close(f, g)
    rep.results = {"close": k is not None, "closeness": k}


def _cmd_equivalence(args, rep: Report):
    from .morphisms import check_equivalence

    f, g = _two_maps(args, rep)
    verdict = check_equivalence(f, g)
    rep.results = {
        "equivalence": verdict.equivalence,
        "k_source": verdict.k_source,
        "k_target": verdict.k_target,
        "f_morphism": verdict.f_report.is_morphism,
        "g_morphism": verdict.g_report.is_morphism,
    }


def _cmd_flasque(args, rep: Report, X):
    from .morphisms import FlasqueRefusal, certify_flasque

    f, digs = parse_map_file(args.map)
    rep.input_digest.update(digs)
    if f.source is not X and f.source != X:
        raise CoarseError("the map's source differs from --space")
    out = certify_flasque(X, f, scale_cap=args.scale_cap, iter_cap=args.iter_cap)
    if isinstance(out, FlasqueRefusal):
        detail = f"{out.condition}: {out.explanation}"
        if out.witness is not None:  # condition 3's bounded generator, in ground order
            detail += f"; witness [{', '.join(map(str, X.ground.sorted(out.witness)))}]"
        rep.refusals.append({"error": "FlasqueRefusal", "detail": detail})
        return
    rep.results = {
        "window": out.window,
        "cond1_scale": out.cond1_scale,
        "cond2_table": {str(k): v for k, v in sorted(out.cond2_table.items())},
        "cond3_table": [
            {"generator_size": len(B), "escapes_at_iterate": j}
            for B, j in sorted(out.cond3_table.items(), key=lambda kv: (len(kv[0]), kv[1]))
        ],
        "iter_cap": out.iter_cap,
        "scale_cap": out.scale_cap,
        "clamp_count": out.clamp_count,
    }
    rep.warnings.extend(out.warnings)


def _cmd_mv_check(args, rep: Report, X):
    from .homology_engine import mv_check

    Z = _match_subset(X, _json_flag(args.subset, "subset"), "subset")
    base = _match_subset(X, _json_flag(args.family_base, "family-base"), "family-base")
    fam = big_family_generated(X, base, args.family_depth)
    out = mv_check(X, Z, fam, args.scale, args.max_dim)
    rep.results = {
        "scale": out.scale,
        "complement_index": out.complement_index,
        "prefix_index": out.prefix_index,
        "iso": out.iso,
        "all_iso": out.all_iso,
        "basis_bijection": out.basis_bijection,
        "groups_subset": _groups_json(out.groups_sub),
        "groups_space": _groups_json(out.groups_full),
    }
    rep.warnings.extend(out.warnings)


def _cmd_hybrid(args, rep: Report, X):
    from .covers import hybrid_entourage

    if (args.family is None) == (args.family_base is None):
        raise ParseError("give exactly one of --family or --family-base", "family")
    if args.family is not None:
        members = [_match_subset(X, m, "family") for m in _json_flag(args.family, "family")]
        fam = make_big_family(X, members, scale_cap=0)
    else:
        base = _match_subset(X, _json_flag(args.family_base, "family-base"), "family-base")
        fam = big_family_generated(X, base, args.family_depth)
    phi = _int_list(_json_flag(args.phi, "phi"), "phi")
    U = hybrid_entourage(X, fam, phi, args.scale)
    index = X.ground.index
    pairs = sorted(U.pairs, key=lambda ab: (index(ab[0]), index(ab[1])))
    rep.results = {
        "base_scale": args.scale,
        "pair_count": len(pairs),
        "pairs": [[str(a), str(b)] for a, b in pairs],
    }
    _window_warning(X, rep)


def _cmd_udecomp(args, rep: Report, X):
    from .covers import uniform_decomposition_check

    Y = _match_subset(X, _json_flag(args.part_y, "part-y"), "part-y")
    Z = _match_subset(X, _json_flag(args.part_z, "part-z"), "part-z")
    radii = _json_flag(args.radii, "radii")
    if not isinstance(radii, list):
        raise ParseError("radii must be a JSON list", "radii")
    out = uniform_decomposition_check(X, Y, Z, [_as_rational(r, "radii") for r in radii])
    rep.results = {
        "ok": out.ok,
        "assignments": [
            {"r": _rational_token(r), "s": _rational_token(s) if s is not None else None}
            for r, s in out.assignments
        ],
    }
    rep.warnings.extend(out.notes)


def _cmd_snf(args, rep: Report):
    from .homology_engine import smith_normal_form

    try:
        with open(args.matrix, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read matrix {args.matrix!r}: {e.strerror}")
    rep.input_digest["matrix"] = _digest(blob)
    rows = _json_flag(blob.decode("utf-8"), "matrix")
    if not isinstance(rows, list):
        raise ParseError("matrix must be a JSON list of rows", "matrix")
    for r in rows:
        _int_list(r, "matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("matrix rows have unequal lengths", "matrix")
    res = smith_normal_form(rows)
    m, n = res.shape
    S = res.S
    diagonal = all(not S[a][b] for a in range(m) for b in range(n) if a != b)
    recon = diagonal and [
        [sum(res.U[i][a] * S[a][a] * res.V[a][j] for a in range(min(m, n))) for j in range(n)]
        for i in range(m)
    ] == rows
    rep.results = {
        "shape": [m, n],
        "rank": res.rank,
        "invariant_factors": res.invariant_factors,
        "torsion": [d for d in res.invariant_factors if d >= 2],
        "reconstruction_verified": recon,
    }


# command -> (handler, help, takes --space, its own flags as (flag, add_argument keywords));
# run resolves --space and passes the space to the handler after the report
_SUBCOMMANDS = {
    "components": (_cmd_components, "coarse components at the stabilized scale", True, ()),
    "homology": (_cmd_homology, "homology at a scale or at the colimit", True, (
        ("--scale", dict(type=int)),
        ("--colimit", dict(action="store_true")),
        ("--max-dim", dict(type=_count)),  # defaults live in homology_engine
        ("--basis-cap", dict(type=_count)),
    )),
    "qhomology": (_cmd_qhomology, "coarsified homology over measure complexes", True, (
        ("--scales", dict(default="", help="comma-separated scale list")),
        ("--max-dim", dict(type=_count, default=2)),
    )),
    "nerve": (_cmd_nerve, "nerve of the greedy ball cover at a scale", True, (
        ("--scale", dict(type=int, required=True)),
        ("--max-dim", dict(type=_count, default=2)),
    )),
    "anti-cech": (_cmd_anti_cech, "anti-Cech prefix over increasing scales", True, (
        ("--scales", dict(required=True)),
    )),
    "telescope": (_cmd_telescope, "coarsening telescope over an anti-Cech prefix", True, (
        ("--scales", dict(required=True)),
        ("--max-dim", dict(type=_count, default=1)),
    )),
    "asdim": (_cmd_asdim, "asymptotic dimension upper-bound search", True, (
        ("--scales", dict(required=True)),
        ("--budget", dict(type=_count, default=8)),
    )),
    "check-morphism": (_cmd_check_morphism, "controlled/proper verdict for a map", False, (
        ("--map", dict(required=True)),
    )),
    "close": (_cmd_close, "closeness verdict for two maps", False, (
        ("--map", dict(action="append", required=True, help="give twice: the two maps to compare")),
    )),
    "equivalence": (_cmd_equivalence, "coarse-equivalence verdict for f and g", False, (
        ("--map", dict(action="append", required=True, help="give twice: f then its candidate inverse g")),
    )),
    "flasque": (_cmd_flasque, "flasqueness certificate for a self-map", True, (
        ("--map", dict(required=True)),
        ("--scale-cap", dict(type=_count, default=4)),
        ("--iter-cap", dict(type=_count, default=64)),
    )),
    "mv-check": (_cmd_mv_check, "two-set excision comparison", True, (
        ("--subset", dict(required=True, help="JSON list naming the complementary subset")),
        ("--family-base", dict(required=True, help="JSON list naming the thickening base")),
        ("--family-depth", dict(type=_count, required=True)),
        ("--scale", dict(type=int, default=1)),
        ("--max-dim", dict(type=_count, default=2)),
    )),
    "hybrid": (_cmd_hybrid, "hybrid relation from a family and phi", True, (
        ("--family", dict(help="JSON list of nested member lists")),
        ("--family-base", dict(help="JSON list; thickenings up to --family-depth")),
        ("--family-depth", dict(type=_count, default=0)),
        ("--phi", dict(required=True, help="JSON list, one scale per member, non-increasing")),
        ("--scale", dict(type=int, required=True, help="base closure scale")),
    )),
    "udecomp": (_cmd_udecomp, "uniform decomposition certificate over listed radii", True, (
        ("--part-y", dict(required=True, help="JSON list")),
        ("--part-z", dict(required=True, help="JSON list")),
        ("--radii", dict(required=True, help="JSON list of decreasing positive rationals")),
    )),
    "snf": (_cmd_snf, "Smith normal form of an integer matrix file", False, (
        ("--matrix", dict(required=True, help="JSON file: list of integer rows")),
    )),
}
COMMANDS = tuple(_SUBCOMMANDS)


def _scales_words(argv):
    """(command words, parser words) of argv, alike for `--scales V` and `--scales=V`.

    The command words give V as a word of its own; the parser gets
    `--scales=V`, so a list that starts with a negative scale is read as the
    value and not as an option.
    """
    words, parse = [], []
    for tok in argv:
        flag, eq, value = tok.partition("=")
        if flag == "--scales" and eq:
            words += [flag, value]
            parse.append(tok)
            continue
        words.append(tok)
        if parse and parse[-1] == "--scales" and not tok.startswith("--"):
            parse[-1] += "=" + tok
        else:
            parse.append(tok)
    return words, parse


def run(argv: Sequence[str]) -> Tuple[Report, int]:
    """Execute one command line; returns the report and the exit code.

    0 success, 1 refusal or domain error, 2 usage or parse error.  The
    formatted report goes to --out or stdout; parse errors go to stderr.
    """
    argv, parse = _scales_words(list(argv))
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(f"unknown command {argv[0]!r}; expected one of {', '.join(COMMANDS)}",
              file=sys.stderr)
        return Report(command=" ".join(argv)), 2
    parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(parse)
    except SystemExit as e:
        return Report(command=" ".join(argv)), e.code
    rep = Report(command=" ".join(argv))
    code = 0
    try:
        handler, _, space, _ = _SUBCOMMANDS[args.command]
        if space:
            X, rep.input_digest["space"] = _resolve_space(args.space)
            handler(args, rep, X)
        else:
            handler(args, rep)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return rep, 2
    except CoarseError as e:
        rep.refusals.append({"error": type(e).__name__, "detail": str(e)})
    if rep.refusals:
        code = 1
    text = rep.to_json() if args.format == "json" else rep.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return rep, code


def main(argv=None) -> int:
    _, code = run(sys.argv[1:] if argv is None else argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
