"""Document parsing, report rendering, and the command-line surface."""

import json
import re
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from coarsehom import core_spaces as cs
from coarsehom import cli_io
from coarsehom.cli_io import (
    ParseError,
    emit_space,
    emit_space_text,
    parse_map_file,
    parse_space,
    run,
)


def closure_pairs(X, k):
    return {(str(a), str(b)) for a, b in X.closure_at(k).pairs}


# ---------------------------------------------------------------- parsing


def test_parse_minimal_point_document():
    X = parse_space('{"kind": "explicit", "points": ["*"], "entourages": [], "bornology": [["*"]]}')
    assert X.points == ("*",)
    assert len(X.coarse.generators) == 0
    assert X.bornology.generators == (frozenset({"*"}),)


def test_parse_accepts_dict_and_text():
    doc = {"kind": "explicit", "points": ["a", "b"], "entourages": [[["a", "b"]]],
           "bornology": [["a", "b"]]}
    X = parse_space(doc)
    Y = parse_space(json.dumps(doc))
    assert X == Y


def test_parse_metric_hexagon_matches_explicit_hexagon():
    # ring metric, one scale strictly between 1 and 2
    pts = [str(i) for i in range(6)]
    rows = [[min(abs(i - j), 6 - abs(i - j)) for j in range(i)] for i in range(6)]
    doc = {"kind": "metric", "points": pts, "distances": rows, "scales": ["3/2"]}
    X = parse_space(json.dumps(doc))
    H = parse_space(cli_io._convenience_document("hexagon"))
    assert closure_pairs(X, 1) == closure_pairs(H, 1)


def test_parse_metric_rational_forms():
    doc = {"kind": "metric", "points": ["a", "b"], "distances": [[], ["1/2"]],
           "scales": [0.75, "2"]}
    X = parse_space(doc)
    assert X.metric("a", "b") == Fraction(1, 2)
    assert ("a", "b") in X.closure_at(1).pairs


def test_parse_builtin():
    X = parse_space({"kind": "builtin", "name": "half_line", "radius": 9})
    assert X.window_tag.name == "half_line"
    assert len(X.points) == 10


@pytest.mark.parametrize("doc,needle", [
    ({"kind": "explicit", "points": ["a"], "entourages": []}, "bornology"),
    ({"kind": "explicit", "points": [], "entourages": [], "bornology": []}, "points"),
    ({"kind": "explicit", "points": ["a", "a"], "entourages": [], "bornology": [["a"]]}, "duplicate"),
    ({"kind": "explicit", "points": [1], "entourages": [], "bornology": [[1]]}, "string"),
    ({"kind": "metric", "points": ["a", "b"], "distances": [[]], "scales": [1]}, "row"),
    ({"kind": "metric", "points": ["a", "b"], "distances": [[], ["x"]], "scales": [1]}, "rational"),
    ({"kind": "metric", "points": ["a", "b"], "distances": [[], [1]], "scales": []}, "scales"),
    ({"kind": "builtin", "name": "half_line", "radius": True}, "integer"),
    ({"kind": "nonsense"}, "kind"),
])
def test_parse_rejections(doc, needle):
    with pytest.raises(ParseError) as exc:
        parse_space(doc)
    assert needle in str(exc.value)


@pytest.mark.parametrize("field,doc,radii", [
    ("distances", {"kind": "metric", "points": ["a", "b"], "distances": [[], [float("nan")]], "scales": [1]},
     None),
    ("scales", {"kind": "metric", "points": ["a", "b"], "distances": [[], [1]], "scales": [float("inf")]}, None),
    ("scales", {"kind": "metric", "points": ["a", "b"], "distances": [[], [1]], "scales": [-float("inf")]}, None),
    ("radii", {"kind": "builtin", "name": "int_window", "radius": 3}, "[NaN]"),
])
def test_non_finite_json_numbers_are_parse_errors(tmp_path, capsys, field, doc, radii):
    # JSON text may spell NaN and Infinity; they are no rationals
    sp = write_space(tmp_path, "s.json", doc)
    argv = (["components", "--space", str(sp)] if radii is None else
            ["udecomp", "--space", str(sp), "--part-y", "[-3, -2, -1, 0]", "--part-z", "[0, 1, 2, 3]",
             "--radii", radii])
    _, code = run(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("parse error: bad rational") and f"(field {field})" in err


@pytest.mark.parametrize("radii", ["3", '"32"', "{}"])
def test_udecomp_radii_must_be_a_list(capsys, radii):
    # a JSON string would otherwise be read as one radius per character
    _, code = run(["udecomp", "--space", "hexagon", "--part-y", "[]", "--part-z", "[]", "--radii", radii])
    assert code == 2 and "parse error: radii must be a JSON list (field radii)" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"kind": "metric", "points": ["a", "b"], "distances": [[], [True]], "scales": [1]},
     "booleans are not rationals (field distances)"),
    ([["a"]], "document must be a JSON object"),
    ({"kind": "explicit", "points": ["a"], "entourages": {}, "bornology": [["a"]]},
     "entourages must be a list of pair lists (field entourages)"),
    ({"kind": "explicit", "points": ["a"], "entourages": ["a"], "bornology": [["a"]]},
     "entourage 0 is not a pair list (field entourages)"),
    ({"kind": "explicit", "points": ["a"], "entourages": [[["a"]]], "bornology": [["a"]]},
     "entourage 0 holds a non-pair ['a'] (field entourages)"),
    ({"kind": "metric", "points": ["a", "b", "c"], "distances": [[], [1], [1]], "scales": [1]},
     "row 2 must have exactly 2 entries (field distances)"),
    ({"kind": "builtin", "name": 3, "radius": 2}, "builtin name must be a string (field name)"),
    ({"kind": "explicit", "points": ["0", "1"], "entourages": [[[["0"], "1"]]], "bornology": [["0", "1"]]},
     "entourage 0 holds a pair [['0'], '1'] whose entries are not both strings (field entourages)"),
    ({"kind": "explicit", "points": ["0", "1"], "entourages": [], "bornology": ["01"]},
     "bornology member 0 is not a list of strings: '01' (field bornology)"),
    ({"kind": "explicit", "points": ["0", "1"], "entourages": [], "bornology": [["0", "1"], 5]},
     "bornology member 1 is not a list of strings: 5 (field bornology)"),
    ({"kind": "explicit", "points": ["0", "1"], "entourages": [], "bornology": [[["0"]]]},
     "bornology member 0 is not a list of strings: [['0']] (field bornology)"),
    ({"kind": "explicit", "points": ["0", "1"], "entourages": [[["0", "1"]], [["0", "z"]]], "bornology": [["0"]]},
     "entourage 1 holds a pair ['0', 'z'] naming a point not in points (field entourages)"),
    ({"kind": "explicit", "points": ["0", "1"], "entourages": [], "bornology": [["0", "1"], ["0", "z"]]},
     "bornology member 1 names a point not in points: ['0', 'z'] (field bornology)"),
])
def test_malformed_document_exits_two_naming_the_field(doc, message, tmp_path, capsys):
    rep, code = run(["components", "--space", str(write_space(tmp_path, "s.json", doc))])
    captured = capsys.readouterr()
    assert (code, captured.out, rep.results) == (2, "", {})
    assert captured.err == f"parse error: {message}\n"


@pytest.mark.parametrize("case", ["subset not a list", "bad flag JSON", "unreadable map", "unknown source token",
                                  "unreadable matrix", "matrix not a list", "hybrid without a family",
                                  "no scale", "radius not a rational"])
def test_malformed_flag_or_file_exits_two_naming_the_field(case, tmp_path, capsys):
    sp = str(write_space(tmp_path, "iw.json", {"kind": "builtin", "name": "int_window", "radius": 5}))
    mv = ["mv-check", "--space", sp, "--family-base", "[-5]", "--family-depth", "8"]
    missing = str(tmp_path / "missing")
    bad_map, matrix = tmp_path / "bad.map", tmp_path / "m.json"
    bad_map.write_text(f"{sp}\n{sp}\n99 -> 0\n")
    matrix.write_text('{"rows": [[1]]}')
    argv, message = {
        "subset not a list": (mv + ["--subset", '{"a": 1}'], "subset must be a JSON list (field subset)"),
        "bad flag JSON": (mv + ["--subset", "[1"], "bad JSON in --subset: Expecting ',' delimiter: "
                                                     "line 1 column 3 (char 2) (field subset)"),
        "unreadable map": (["check-morphism", "--map", missing], f"cannot read map {missing!r}: "),
        "unknown source token": (["check-morphism", "--map", str(bad_map)], "'99' names no source point"),
        "unreadable matrix": (["snf", "--matrix", missing], f"cannot read matrix {missing!r}: "),
        "matrix not a list": (["snf", "--matrix", str(matrix)], "matrix must be a JSON list of rows (field matrix)"),
        "hybrid without a family": (["hybrid", "--space", sp, "--phi", "[0]", "--scale", "1"],
                                    "give exactly one of --family or --family-base (field family)"),
        "no scale": (["anti-cech", "--space", sp, "--scales", ","], "at least one scale is required (field scales)"),
        "radius not a rational": (["udecomp", "--space", sp, "--part-y", "[]", "--part-z", "[]", "--radii", "[[1, 2]]"],
                                  "bad rational [1, 2] (field radii)"),
    }[case]
    rep, code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, rep.results) == (2, "", {})
    assert captured.err.startswith(f"parse error: {message}")
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1


def test_parse_rejects_bad_json_text():
    with pytest.raises(ParseError):
        parse_space("{not json")


# ------------------------------------------------------------ round-trips


def same_shape(X, Y):
    pts_ok = [str(p) for p in X.points] == [str(p) for p in Y.points]
    gens_ok = [frozenset((str(a), str(b)) for a, b in e.pairs) for e in X.coarse.generators] == \
              [frozenset((str(a), str(b)) for a, b in e.pairs) for e in Y.coarse.generators]
    born_ok = [frozenset(map(str, b)) for b in X.bornology.generators] == \
              [frozenset(map(str, b)) for b in Y.bornology.generators]
    return pts_ok and gens_ok and born_ok


@pytest.mark.parametrize("make", [
    lambda: cs.make_explicit_space(["a", "b", "c"],
                                   [[("a", "b")], [("b", "c"), ("a", "c")]],
                                   [["a"], ["b", "c"]]),
    lambda: cs.from_metric(["p", "q", "r"],
                           [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                           [Fraction(3, 2), Fraction(3)]),
    lambda: cs.windowed_builtin("grid2_window", 2),
    lambda: cs.windowed_builtin("half_line", 7),
    lambda: cs.windowed_builtin("int_window", 5),
])
def test_round_trip_preserves_structure(make):
    X = make()
    Y = parse_space(emit_space_text(X))
    assert same_shape(X, Y)
    if X.window_tag is not None:
        assert X == Y


def test_emit_is_canonical():
    X = cs.from_metric(["p", "q"], [[0, Fraction(5, 3)], [Fraction(5, 3), 0]], [2])
    doc = emit_space(X)
    assert doc["kind"] == "metric"
    assert doc["distances"] == [[], ["5/3"]]
    again = emit_space(parse_space(doc))
    assert again == doc


def test_emit_explicit_when_bornology_is_not_maximal():
    X = cs.make_explicit_space(["a", "b"], [[("a", "b")]], [["a"], ["b"]])
    assert emit_space(X)["kind"] == "explicit"


def test_derived_window_spaces_emit_their_own_points():
    X = cs.windowed_builtin("int_window", 5)
    assert emit_space(cs.subspace(X, X.points)) == {"kind": "builtin", "name": "int_window", "radius": 5}
    S = cs.subspace(X, [0, 1, 2])
    assert emit_space(S)["kind"] == "explicit"
    assert parse_space(emit_space_text(S)).points == ("0", "1", "2")
    from coarsehom.morphisms import cylinder

    C = cylinder(X, lambda x: 0, lambda x: 1).space
    assert emit_space(C)["kind"] == "explicit"
    assert len(parse_space(emit_space_text(C)).points) == len(C.points) == 22


def test_emit_names_points_by_their_tokens():
    S = cs.subspace(cs.windowed_builtin("int_window", 5), [0, 1, 2])
    doc = emit_space(S)
    assert doc["bornology"] == [["0"], ["0", "1"], ["0", "1", "2"]]
    back = parse_space(doc)
    assert back.points == ("0", "1", "2") and back.bornology.generators == tuple(
        frozenset(B) for B in doc["bornology"])


@pytest.mark.parametrize("make", [
    lambda: cs.make_explicit_space([1, "1"], [[(1, "1")]], [[1, "1"]]),
    lambda: cs.from_metric([1, "1"], [[0, 1], [1, 0]], [2]),
], ids=["explicit", "metric"])
def test_emit_refuses_two_points_written_alike(make):
    with pytest.raises(cs.CoarseError, match=re.escape("points 1 and '1' are both written '1'")):
        emit_space(make())


# ---------------------------------------------------------------- map files


def write_space(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_parse_map_file(tmp_path):
    write_space(tmp_path, "hl.json", {"kind": "builtin", "name": "half_line", "radius": 3})
    mp = tmp_path / "f.map"
    mp.write_text("hl.json\nhl.json\n# clamped successor\n0 -> 1\n1 -> 2\n2 → 3\n3 -> 3\n")
    f, digests = parse_map_file(str(mp))
    assert f.table == {0: 1, 1: 2, 2: 3, 3: 3}
    assert set(digests) == {"map", "map.source", "map.target"}


def test_map_file_accepts_convenience_names(tmp_path):
    mp = tmp_path / "id.map"
    lines = ["hexagon", "hexagon"] + [f"{i} -> {i}" for i in range(6)]
    mp.write_text("\n".join(lines) + "\n")
    f, _ = parse_map_file(str(mp))
    assert f.table["3"] == "3"


def test_map_file_rejections(tmp_path):
    write_space(tmp_path, "hl.json", {"kind": "builtin", "name": "half_line", "radius": 2})
    bad = tmp_path / "bad.map"
    bad.write_text("hl.json\nhl.json\n0 -> 99\n")
    with pytest.raises(ParseError):
        parse_map_file(str(bad))
    bad.write_text("hl.json\nhl.json\n0 1\n")
    with pytest.raises(ParseError):
        parse_map_file(str(bad))
    bad.write_text("hl.json\n")
    with pytest.raises(ParseError):
        parse_map_file(str(bad))


# --------------------------------------------------------------- commands


def run_quiet(argv, capsys):
    rep, code = run(argv)
    out = capsys.readouterr().out
    return rep, code, out


def test_components_hexagon(capsys):
    rep, code, _ = run_quiet(["components", "--space", "hexagon"], capsys)
    assert code == 0
    assert rep.results["count"] == 1
    assert rep.results["components"] == [["0", "1", "2", "3", "4", "5"]]


def test_homology_point_colimit(capsys):
    rep, code, _ = run_quiet(
        ["homology", "--space", "point", "--colimit", "--max-dim", "4"], capsys)
    assert code == 0
    assert rep.results["stable_scale"] == 0
    ranks = [g["free_rank"] for g in rep.results["groups"]]
    assert ranks == [1, 0, 0, 0, 0]
    assert all(g["torsion"] == [] for g in rep.results["groups"])


def test_homology_hexagon_at_scales(capsys):
    rep, code, _ = run_quiet(
        ["homology", "--space", "hexagon", "--scale", "1", "--max-dim", "2"], capsys)
    assert code == 0
    assert [g["free_rank"] for g in rep.results["groups"]] == [1, 1, 0]
    rep, code, _ = run_quiet(
        ["homology", "--space", "hexagon", "--scale", "2", "--max-dim", "2"], capsys)
    assert [g["free_rank"] for g in rep.results["groups"]] == [1, 0, 1]


def test_homology_needs_exactly_one_mode(capsys):
    _, code, _ = run_quiet(["homology", "--space", "point"], capsys)
    assert code == 2
    _, code, _ = run_quiet(
        ["homology", "--space", "point", "--scale", "1", "--colimit"], capsys)
    assert code == 2


def test_qhomology_hexagon(capsys):
    rep, code, _ = run_quiet(
        ["qhomology", "--space", "hexagon", "--scales", "1", "--max-dim", "1"], capsys)
    assert code == 0
    assert [g["free_rank"] for g in rep.results["table"]["1"]] == [1, 1]
    assert [g["free_rank"] for g in rep.results["terminal"]] == [1, 0]


def test_nerve_hexagon(capsys):
    rep, code, _ = run_quiet(
        ["nerve", "--space", "hexagon", "--scale", "1", "--max-dim", "1"], capsys)
    assert code == 0
    assert [g["free_rank"] for g in rep.results["groups"]] == [1, 1]
    assert rep.results["lebesgue_scale"] == 1


def test_anti_cech_and_telescope(tmp_path, capsys):
    sp = write_space(tmp_path, "hl.json", {"kind": "builtin", "name": "half_line", "radius": 30})
    rep, code, _ = run_quiet(["anti-cech", "--space", str(sp), "--scales", "1,2,4"], capsys)
    assert code == 0
    assert rep.results["certificates"] == [2, 4]
    rep, code, _ = run_quiet(
        ["telescope", "--space", str(sp), "--scales", "1,2,4", "--max-dim", "1"], capsys)
    assert code == 0
    assert [g["free_rank"] for g in rep.results["groups"]] == [1, 0]


def test_anti_cech_refuses_non_increasing(tmp_path, capsys):
    sp = write_space(tmp_path, "hl.json", {"kind": "builtin", "name": "half_line", "radius": 10})
    rep, code, _ = run_quiet(["anti-cech", "--space", str(sp), "--scales", "3,1"], capsys)
    assert code == 1
    assert rep.refusals and rep.refusals[0]["error"] == "CertificateFailed"


def test_asdim_command(tmp_path, capsys):
    sp = write_space(tmp_path, "iw.json", {"kind": "builtin", "name": "int_window", "radius": 40})
    rep, code, _ = run_quiet(["asdim", "--space", str(sp), "--scales", "2,4"], capsys)
    assert code == 0
    assert rep.results["upper_bound"] == 1
    assert rep.results["per_scale"] == {"2": 1, "4": 1}


@pytest.mark.parametrize("command", ["anti-cech", "telescope", "asdim", "qhomology"])
def test_scales_value_reads_alike_in_both_spellings(command, tmp_path, capsys):
    sp = write_space(tmp_path, "hl30.json", {"kind": "builtin", "name": "half_line", "radius": 30})
    for scales, want in (("-1,2", 1), ("1,2", 0)):
        seen = []
        for spelling in (["--scales", scales], [f"--scales={scales}"]):
            for fmt in ("text", "json"):
                code = run([command, "--space", str(sp)] + spelling + ["--format", fmt])[1]
                seen.append((fmt, code) + tuple(capsys.readouterr()))
        assert seen[:2] == seen[2:]
        assert [entry[1] for entry in seen] == [want] * 4
        if want:  # the bad scale reaches the refusal that names it
            assert "refusal [BadScales]: scale-index must be >= 0, got -1" in seen[0][2]


@pytest.mark.parametrize("value", ["[2.7]", "[true,2]", '["2"]', "[[1]]", "1.5"])
def test_scales_must_be_integers(value, capsys):
    rep, code = run(["anti-cech", "--space", "hexagon", "--scales", value])
    captured = capsys.readouterr()
    assert code == 2 and rep.results == {} and captured.out == ""
    assert captured.err.startswith("parse error: ") and "(field scales)" in captured.err


@pytest.mark.parametrize("value", ["3", '["a"]', "[2.5]", "[true]", '{"0": 1}', "[null]"])
def test_phi_must_be_a_list_of_integers(value, capsys):
    rep, code = run(["hybrid", "--space", "hexagon", "--family", '[["0", "1"]]',
                     "--phi", value, "--scale", "1"])
    captured = capsys.readouterr()
    assert code == 2 and rep.results == {} and captured.out == ""
    assert captured.err.startswith("parse error: ") and "(field phi)" in captured.err


def test_qhomology_terminal_past_the_simplex_cap(tmp_path, capsys):
    # the stabilized complex of 49 points has C(49, 4) tetrahedra; the terminal builds none
    sp = write_space(tmp_path, "g3.json", {"kind": "builtin", "name": "grid2_window", "radius": 3})
    rep, code, _ = run_quiet(["qhomology", "--space", str(sp), "--max-dim", "2"], capsys)
    assert code == 0 and rep.results["table"] == {}
    assert [g["free_rank"] for g in rep.results["terminal"]] == [1, 0, 0]


def shift_fixture(tmp_path, radius=20):
    sp = write_space(tmp_path, "hl.json",
                     {"kind": "builtin", "name": "half_line", "radius": radius})
    mp = tmp_path / "shift.map"
    lines = [str(sp), str(sp)] + [f"{i} -> {min(i + 1, radius)}" for i in range(radius + 1)]
    mp.write_text("\n".join(lines) + "\n")
    idp = tmp_path / "id.map"
    lines = [str(sp), str(sp)] + [f"{i} -> {i}" for i in range(radius + 1)]
    idp.write_text("\n".join(lines) + "\n")
    return sp, mp, idp


def test_check_morphism_close_equivalence(tmp_path, capsys):
    sp, mp, idp = shift_fixture(tmp_path)
    rep, code, _ = run_quiet(["check-morphism", "--map", str(mp)], capsys)
    assert code == 0 and rep.results["morphism"] is True
    rep, code, _ = run_quiet(["close", "--map", str(mp), "--map", str(idp)], capsys)
    assert code == 0 and rep.results == {"close": True, "closeness": 1}
    rep, code, _ = run_quiet(["equivalence", "--map", str(mp), "--map", str(idp)], capsys)
    assert code == 0 and rep.results["equivalence"] is True


def test_map_file_giving_a_point_two_targets_is_refused_naming_it(tmp_path, capsys):
    # the pairs reach SpaceMap in file order, so the last line no longer silently wins
    mp = tmp_path / "twice.map"
    mp.write_text("hexagon\nhexagon\n0 -> 1\n0 -> 2\n" + "".join(f"{i} -> {i}\n" for i in range(1, 6)))
    with pytest.raises(cs.CoarseError, match="point '0' assigned twice"):
        parse_map_file(str(mp))
    rep, code, _ = run_quiet(["check-morphism", "--map", str(mp)], capsys)
    assert (code, rep.results) == (1, {})
    assert rep.refusals == [{"error": "CoarseError", "detail": "point '0' assigned twice"}]


def test_close_needs_two_maps(tmp_path, capsys):
    _, mp, _ = shift_fixture(tmp_path)
    _, code, _ = run_quiet(["close", "--map", str(mp)], capsys)
    assert code == 2


def test_flasque_certificate_and_refusal(tmp_path, capsys):
    sp, mp, idp = shift_fixture(tmp_path)
    rep, code, _ = run_quiet(["flasque", "--space", str(sp), "--map", str(mp)], capsys)
    assert code == 0
    assert rep.results["window"] == 20
    assert rep.results["cond2_table"]["4"] == 4
    assert rep.refusals == []
    rep, code, _ = run_quiet(["flasque", "--space", str(sp), "--map", str(idp)], capsys)
    assert code == 1
    assert rep.refusals[0]["error"] == "FlasqueRefusal"


def test_flasque_refusal_detail_names_condition_once_with_witness(tmp_path, capsys):
    sp, _, idp = shift_fixture(tmp_path, radius=30)
    rep, code, _ = run_quiet(["flasque", "--space", str(sp), "--map", str(idp)], capsys)
    assert code == 1
    assert rep.refusals == [{
        "error": "FlasqueRefusal",
        "detail": "condition 3: no iterate up to 64 leaves the bounded generator; witness [0]",
    }]
    _, _, out = run_quiet(["flasque", "--space", str(sp), "--map", str(idp), "--iter-cap", "2"],
                          capsys)
    assert ("refusal [FlasqueRefusal]: condition 3: no iterate up to 2 leaves the bounded "
            "generator; witness [0]") in out.splitlines()


def assert_flag_refused(argv, flag, capsys):
    """A negative count is a usage error at parse time: exit 2, the flag named, no report."""
    rep, code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert f"argument {flag}: must be >= 0, got -1" in captured.err
    assert captured.out == "" and rep.results == {}


def test_negative_max_dim_is_refused(capsys):
    for cmd in (["homology", "--scale", "1"], ["qhomology", "--scales", "1"],
                ["nerve", "--scale", "1"]):
        assert_flag_refused(cmd + ["--space", "hexagon", "--max-dim", "-1"], "--max-dim", capsys)
    assert_flag_refused(["homology", "--space", "hexagon", "--scale", "1", "--basis-cap", "-1"],
                        "--basis-cap", capsys)
    _, code, out = run_quiet(["homology", "--space", "hexagon", "--scale", "1", "--max-dim", "0"],
                             capsys)
    assert code == 0 and "results.groups[0].degree: 0" in out


def test_negative_scale_cap_is_refused(tmp_path, capsys):
    sp, mp, _ = shift_fixture(tmp_path)
    assert_flag_refused(["flasque", "--space", str(sp), "--map", str(mp), "--scale-cap", "-1"],
                        "--scale-cap", capsys)


def test_negative_iter_cap_is_refused(tmp_path, capsys):
    sp, mp, _ = shift_fixture(tmp_path)
    assert_flag_refused(["flasque", "--space", str(sp), "--map", str(mp), "--iter-cap", "-1"],
                        "--iter-cap", capsys)


def test_negative_budget_is_refused(capsys):
    assert_flag_refused(["asdim", "--space", "hexagon", "--scales", "1", "--budget", "-1"],
                        "--budget", capsys)


def test_negative_family_depth_is_refused(capsys):
    for cmd in (["mv-check", "--space", "hexagon", "--subset", '["0"]', "--family-base", '["1"]'],
                ["hybrid", "--space", "hexagon", "--family-base", '["0"]', "--phi", "[0]",
                 "--scale", "1"]):
        assert_flag_refused(cmd + ["--family-depth", "-1"], "--family-depth", capsys)


def test_mv_check_command(tmp_path, capsys):
    sp = write_space(tmp_path, "iw.json", {"kind": "builtin", "name": "int_window", "radius": 20})
    rep, code, _ = run_quiet([
        "mv-check", "--space", str(sp),
        "--subset", json.dumps(list(range(8, 21))),
        "--family-base", "[-20]", "--family-depth", "32",
        "--scale", "1", "--max-dim", "1"], capsys)
    assert code == 0
    assert rep.results["iso"] == [True, True]
    assert rep.results["basis_bijection"] is True


def test_hybrid_command_whole_space_member(capsys):
    rep, code, _ = run_quiet([
        "hybrid", "--space", "hexagon",
        "--family", json.dumps([[str(i) for i in range(6)]]),
        "--phi", "[0]", "--scale", "1"], capsys)
    assert code == 0
    assert rep.results["pair_count"] == 18  # closure at 1: diagonal plus oriented edges


def test_hybrid_command_from_a_family_base(capsys):
    # Y_0 = {0}, Y_1 = its 1-thickening {5, 0, 1}; phi(0) = 1 keeps every closure pair,
    # phi(1) = 0 keeps only the diagonal and the pairs inside Y_1
    rep, code, _ = run_quiet(["hybrid", "--space", "hexagon", "--family-base", '["0"]',
                              "--family-depth", "1", "--phi", "[1, 0]", "--scale", "1"], capsys)
    assert code == 0 and rep.refusals == []
    assert rep.results["pair_count"] == 10
    assert [p for p in rep.results["pairs"] if p[0] != p[1]] == [["0", "1"], ["0", "5"], ["1", "0"], ["5", "0"]]


def test_hybrid_refuses_increasing_phi(tmp_path, capsys):
    sp = write_space(tmp_path, "hl.json", {"kind": "builtin", "name": "half_line", "radius": 10})
    rep, code, _ = run_quiet([
        "hybrid", "--space", str(sp),
        "--family", json.dumps([[0, 1], [0, 1, 2, 3]]),
        "--phi", "[1, 2]", "--scale", "1"], capsys)
    assert code == 1
    assert rep.refusals[0]["error"] == "PhiNotDecreasing"


def test_udecomp_command(tmp_path, capsys):
    sp = write_space(tmp_path, "iw.json", {"kind": "builtin", "name": "int_window", "radius": 20})
    rep, code, _ = run_quiet([
        "udecomp", "--space", str(sp),
        "--part-y", json.dumps(list(range(-20, 1))),
        "--part-z", json.dumps(list(range(0, 21))),
        "--radii", '["3", "2", "1"]'], capsys)
    assert code == 0
    assert rep.results["ok"] is True
    assert rep.results["assignments"][0] == {"r": "3", "s": "3"}


def test_snf_command(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text("[[2, 4, 4], [-6, 6, 12], [10, 4, 16]]")
    rep, code, _ = run_quiet(["snf", "--matrix", str(mat)], capsys)
    assert code == 0
    assert rep.results["invariant_factors"] == [2, 2, 156]
    assert rep.results["reconstruction_verified"] is True
    assert rep.results["shape"] == [3, 3]


def test_snf_rejects_non_integer_entries(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text("[[1.5]]")
    _, code, _ = run_quiet(["snf", "--matrix", str(mat)], capsys)
    assert code == 2


@pytest.mark.parametrize("text", ["[[1, 2], [3]]", "[[1], [3, 4]]"])
def test_snf_rejects_ragged_rows(tmp_path, capsys, text):
    mat = tmp_path / "m.json"
    mat.write_text(text)
    _, code, _ = run_quiet(["snf", "--matrix", str(mat)], capsys)
    assert code == 2


# ------------------------------------------------------------ exit codes


def grid_points(radius):
    return [[a, b] for a in range(-radius, radius + 1) for b in range(-radius, radius + 1)]


def test_grid_points_given_as_json_lists(tmp_path, capsys):
    sp = write_space(tmp_path, "g2.json", {"kind": "builtin", "name": "grid2_window", "radius": 2})
    pts = grid_points(2)
    rep, code, _ = run_quiet([
        "mv-check", "--space", str(sp),
        "--subset", json.dumps([p for p in pts if p[0] >= 0]),
        "--family-base", json.dumps([p for p in pts if p[0] < 0]), "--family-depth", "4",
        "--max-dim", "1"], capsys)
    assert code == 0
    assert (rep.results["complement_index"], rep.results["prefix_index"]) == (0, 1)
    assert rep.results["iso"] == [True, True]
    rep, code, _ = run_quiet(["hybrid", "--space", str(sp), "--family", json.dumps([pts]),
                              "--phi", "[0]", "--scale", "1"], capsys)
    assert code == 0
    assert rep.results["pair_count"] == 25 + 2 * 40  # the diagonal and both orientations of 40 edges
    assert rep.results["pairs"][:2] == [["(-2, -2)", "(-2, -2)"], ["(-2, -2)", "(-2, -1)"]]


def test_points_given_as_string_tokens(tmp_path, capsys):
    sp = write_space(tmp_path, "iw.json", {"kind": "builtin", "name": "int_window", "radius": 5})

    def mv(subset, base):
        return run_quiet(["mv-check", "--space", str(sp), "--subset", json.dumps(subset),
                          "--family-base", json.dumps(base), "--family-depth", "8", "--max-dim", "1"],
                         capsys)

    by_value, by_token = mv(list(range(6)), [-5]), mv([str(i) for i in range(6)], ["-5"])
    assert by_value[1] == by_token[1] == 0
    assert by_value[0].results == by_token[0].results
    assert by_token[0].results["complement_index"] == 4


class PointReadCounter:
    """A space whose reads of .points are counted; _match_subset reads only .ground and .points."""

    def __init__(self, X):
        self.ground, self._points, self.reads = X.ground, X.points, 0

    @property
    def points(self):
        self.reads += 1
        return self._points


def test_every_point_of_a_large_window_matched_by_token():
    X = cs.windowed_builtin("int_window", 1000)
    counted = PointReadCounter(X)
    assert cli_io._match_subset(counted, [str(p) for p in X.points], "subset") == list(X.points)
    assert counted.reads == 1  # one token map for 2,001 tokens
    counted = PointReadCounter(X)
    assert cli_io._match_subset(counted, list(X.points), "subset") == list(X.points)
    assert counted.reads == 0  # no entry missed, so no token map


@pytest.mark.parametrize("flag, value, point", [
    ("--subset", "[99]", "99"), ("--family-base", "[[1, 2]]", "[1, 2]"),
    ("--family", '[[{"a": 1}]]', "{'a': 1}")])
def test_unknown_point_is_a_parse_error_naming_the_field(flag, value, point, tmp_path, capsys):
    sp = write_space(tmp_path, "iw.json", {"kind": "builtin", "name": "int_window", "radius": 5})
    if flag == "--family":
        argv = ["hybrid", "--space", str(sp), "--family", value, "--phi", "[0]", "--scale", "1"]
    else:
        argv = ["mv-check", "--space", str(sp), "--subset", "[1]", "--family-base", "[-5]",
                "--family-depth", "8", flag, value]
    rep, code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and rep.results == {}
    assert captured.err == f"parse error: {point} names no point of the space (field {flag[2:]})\n"


def test_flasque_refuses_a_map_on_another_space(tmp_path, capsys):
    _, mp, _ = shift_fixture(tmp_path)
    rep, code, out = run_quiet(["flasque", "--space", "hexagon", "--map", str(mp)], capsys)
    assert code == 1
    assert rep.refusals == [{"error": "CoarseError", "detail": "the map's source differs from --space"}]
    assert "refusal [CoarseError]: the map's source differs from --space" in out.splitlines()


def test_non_integer_count_is_a_usage_error(capsys):
    rep, code = run(["homology", "--space", "hexagon", "--scale", "1", "--max-dim", "x"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and rep.results == {}
    assert "argument --max-dim: invalid int value: 'x'" in captured.err


def test_unknown_command_is_usage_error(capsys):
    _, code, _ = run_quiet(["frobnicate", "--space", "hexagon"], capsys)
    assert code == 2


def test_missing_bornology_is_parse_error(tmp_path, capsys):
    sp = tmp_path / "bad.json"
    sp.write_text('{"kind": "explicit", "points": ["a"], "entourages": []}')
    _, code, _ = run_quiet(["components", "--space", str(sp)], capsys)
    assert code == 2


def test_missing_space_file_is_parse_error(capsys):
    _, code, _ = run_quiet(["components", "--space", "/nonexistent/space.json"], capsys)
    assert code == 2


# ------------------------------------------------------------ parser


TOP_HELP_COMMANDS = [
    ("components", "coarse components at the stabilized scale"),
    ("homology", "homology at a scale or at the colimit"),
    ("qhomology", "coarsified homology over measure complexes"),
    ("nerve", "nerve of the greedy ball cover at a scale"),
    ("anti-cech", "anti-Cech prefix over increasing scales"),
    ("telescope", "coarsening telescope over an anti-Cech prefix"),
    ("asdim", "asymptotic dimension upper-bound search"),
    ("check-morphism", "controlled/proper verdict for a map"),
    ("close", "closeness verdict for two maps"),
    ("equivalence", "coarse-equivalence verdict for f and g"),
    ("flasque", "flasqueness certificate for a self-map"),
    ("mv-check", "two-set excision comparison"),
    ("hybrid", "hybrid relation from a family and phi"),
    ("udecomp", "uniform decomposition certificate over listed radii"),
    ("snf", "Smith normal form of an integer matrix file"),
]


def test_top_level_help_lists_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    run(["--help"])
    out = capsys.readouterr().out
    assert out == cli_io._build_parser().format_help()
    assert out.startswith("usage: coarsehom [-h]\n                 " + "|".join(cli_io.COMMANDS))
    assert "\n".join(f"    {name:<20}{text}" for name, text in TOP_HELP_COMMANDS) in out


@pytest.mark.parametrize("command", cli_io.COMMANDS)
def test_one_subcommand_parser_speaks_like_the_full_parser(command, monkeypatch, capsys):
    # run() registers only the named subcommand; its help and usage errors
    # must be the bytes the parser of all fifteen prints
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    build = cli_io._build_parser
    monkeypatch.setattr(cli_io, "_build_parser", lambda command=None: built.append(command) or build(command))
    for tail in (["--help"], ["--format", "xml"], ["--no-such-flag"]):
        with pytest.raises(SystemExit) as e:
            build().parse_args([command, *tail])
        want = capsys.readouterr()
        _, code = run([command, *tail])
        assert capsys.readouterr() == want and code == e.value.code
    assert built == [command] * 3


def test_help_exits_zero_and_a_usage_error_two(capsys):
    assert run(["--help"])[1] == 0
    assert run(["homology", "--help"])[1] == 0
    assert run(["homology", "--format", "xml"])[1] == 2
    capsys.readouterr()


# ------------------------------------------------------------ determinism


DOUBLE_RUN_CASES = [
    ["components", "--space", "hexagon"],
    ["homology", "--space", "hexagon", "--scale", "1", "--max-dim", "2"],
    ["homology", "--space", "point", "--colimit"],
    ["qhomology", "--space", "hexagon", "--scales", "1,3", "--max-dim", "1"],
    ["nerve", "--space", "hexagon", "--scale", "1"],
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", DOUBLE_RUN_CASES, ids=lambda a: a[0])
def test_double_runs_are_byte_identical(argv, fmt, capsys):
    full = argv + ["--format", fmt]
    _, code1, out1 = run_quiet(full, capsys)
    _, code2, out2 = run_quiet(full, capsys)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    assert out1.endswith("\n")


def test_json_output_has_sorted_keys(capsys):
    _, _, out = run_quiet(
        ["homology", "--space", "hexagon", "--scale", "1", "--format", "json"], capsys)
    parsed = json.loads(out)
    assert out == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert set(parsed) == {"command", "input_digest", "refusals", "results", "warnings"}


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rep, code = run(["components", "--space", "hexagon",
                     "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["results"]["count"] == 1


def test_command_echo_matches_argv(capsys):
    rep, _, _ = run_quiet(["components", "--space", "hexagon"], capsys)
    assert rep.command == "components --space hexagon"


def test_console_module_entry():
    # the child imports the same package this process imports, installed or not
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coarsehom.cli_io", "components", "--space", "point"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "results.count: 1" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_reports_do_not_depend_on_hash_seed(tmp_path):
    # string points hash differently in every process unless the hash seed is fixed
    points = list("abcdef")
    write_space(tmp_path, "pairs.json", {"kind": "explicit", "points": points,
                                         "entourages": [[["a", "b"], ["c", "d"], ["e", "f"]]],
                                         "bornology": [points]})
    write_space(tmp_path, "discrete.json", {"kind": "explicit", "points": points,
                                            "entourages": [], "bornology": [points]})

    def map_file(name, source, target, image):
        lines = [source, target] + [f"{p} -> {image(p)}" for p in points]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        return name

    ident = map_file("ident.map", "pairs.json", "discrete.json", lambda p: p)
    back = map_file("back.map", "discrete.json", "pairs.json", lambda p: p)
    flip = map_file("flip.map", "pairs.json", "discrete.json", lambda p: points[-1 - points.index(p)])
    self_map = map_file("self.map", "pairs.json", "pairs.json", lambda p: p)
    commands = [["check-morphism", "--map", ident], ["close", "--map", ident, "--map", flip],
                ["equivalence", "--map", ident, "--map", back],
                ["flasque", "--space", "pairs.json", "--map", self_map]]
    argvs = [argv + ["--format", fmt] for argv in commands for fmt in ("text", "json")]
    code = ("import json, sys\n"
            "from coarsehom.cli_io import run\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    run(argv)\n")
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in range(6):
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], cwd=tmp_path,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    report = outputs.pop()
    assert "results.controlled_witness: [a, b]" in report


def test_import_pulls_in_no_third_party_numerics():
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, coarsehom, coarsehom.cli_io; "
            "print(sorted(m for m in ('numpy', 'scipy', 'networkx') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def loaded_modules(code):
    """The coarsehom modules, and dataclasses or inspect, a fresh interpreter has loaded after code."""
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += ("\nprint(json.dumps([m for m in sys.modules"
             " if m.startswith('coarsehom') or m in ('dataclasses', 'inspect')]))")
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_layer():
    assert loaded_modules("import coarsehom") == {"coarsehom"}


def test_homology_layers_load_no_maps():
    # morphisms loads inside the functions that take a map, on their first call
    base = {"coarsehom", "coarsehom.core_spaces", "coarsehom.homology_engine"}
    assert loaded_modules("import coarsehom.homology_engine") == base
    assert loaded_modules("import coarsehom.chain_maps") == base | {"coarsehom.chain_maps"}
    assert loaded_modules("import coarsehom.coarsification") == base | {"coarsehom.coarsification"}


def test_covers_load_no_homology():
    assert loaded_modules("import coarsehom.covers") == {"coarsehom", "coarsehom.core_spaces", "coarsehom.covers"}


def test_each_subcommand_loads_only_its_layer(tmp_path):
    sp, mp, idp = shift_fixture(tmp_path)
    mat = tmp_path / "m.json"
    mat.write_text("[[2, 4], [-6, 6]]")
    hl = ["--space", str(sp)]
    hom, maps, covers = {"homology_engine"}, {"morphisms"}, {"covers"}
    coars = hom | {"coarsification"}
    runs = {  # argv, and the layers it loads besides cli_io and core_spaces
        "components": (["components", "--space", "hexagon"], set()),
        "homology": (["homology", "--space", "hexagon", "--scale", "1"], hom),
        "snf": (["snf", "--matrix", str(mat)], hom),
        "mv-check": (["mv-check", *hl, "--subset", json.dumps(list(range(8, 21))),
                      "--family-base", "[0]", "--family-depth", "10", "--scale", "1"], hom),
        "qhomology": (["qhomology", "--space", "hexagon", "--scales", "1"], coars),
        "nerve": (["nerve", "--space", "hexagon", "--scale", "1"], covers | coars),
        "anti-cech": (["anti-cech", *hl, "--scales", "1,2"], covers),
        "telescope": (["telescope", *hl, "--scales", "1,2"], covers | coars),
        "asdim": (["asdim", *hl, "--scales", "2"], covers),
        "hybrid": (["hybrid", *hl, "--family", "[[0, 1, 2, 3]]", "--phi", "[0]", "--scale", "1"],
                   covers),
        "udecomp": (["udecomp", *hl, "--part-y", json.dumps(list(range(11))),
                     "--part-z", json.dumps(list(range(10, 21))), "--radii", '["2", "1"]'], covers),
        "check-morphism": (["check-morphism", "--map", str(mp)], maps),
        "close": (["close", "--map", str(mp), "--map", str(idp)], maps),
        "equivalence": (["equivalence", "--map", str(mp), "--map", str(idp)], maps),
        "flasque": (["flasque", *hl, "--map", str(mp)], maps),
    }
    assert set(runs) == set(cli_io.COMMANDS)
    for name, (argv, extra) in runs.items():
        code = f"from coarsehom.cli_io import main\nassert main({argv!r}) == 0"
        loaded = loaded_modules(code)
        assert not loaded & {"dataclasses", "inspect"}, name
        layers = {m.split(".")[-1] for m in loaded} - {"coarsehom"}
        assert layers == {"cli_io", "core_spaces"} | extra, name


def test_public_names_resolve_on_first_use():
    code = "\n".join([
        "import coarsehom",
        "names = {}",
        "exec('from coarsehom import *', names)",
        "assert set(coarsehom.__all__) <= names.keys() & set(dir(coarsehom))",
        "assert names['check_morphism'] is coarsehom.morphisms.check_morphism",
        "assert 'cli_io' in dir(coarsehom) and not hasattr(coarsehom, 'no_such_name')",
    ])
    # the star import binds every name, so it loads every layer and the command line
    assert loaded_modules(code) == {"coarsehom"} | {f"coarsehom.{m}" for m in (
        "core_spaces", "morphisms", "covers", "homology_engine", "chain_maps", "coarsification", "cli_io")}
