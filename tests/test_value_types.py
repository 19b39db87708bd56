"""Value semantics of the result and value classes of every layer.

Each class is built from its fields in positional order, compares equal to
another instance of the same class with equal fields, and shows its fields
in a `Name(field=...)` repr.  The four value types hash by value and refuse
assignment; every other class is unhashable.
"""

import pytest

import coarsehom

# class name, its fields in positional order, the defaults of the trailing ones
RECORDS = [
    ("WindowTag", "name radius", {}),
    ("BigFamilyPrefix", "members", {}),
    ("Report", "command input_digest results warnings refusals",
     {"input_digest": {}, "results": {}, "warnings": [], "refusals": []}),
    ("MorphismReport", "controlled proper scale_shift controlled_witness proper_witness",
     {"controlled_witness": None, "proper_witness": None}),
    ("EquivalenceReport", "equivalence k_source k_target f_report g_report",
     {"f_report": None, "g_report": None}),
    ("FlasqueCertificate", "map window cond1_scale cond2_table cond3_table iter_cap scale_cap "
                           "tested_generators warnings", {}),
    ("FlasqueRefusal", "condition explanation witness", {"witness": None}),
    ("ChainComplexAtScale", "space scale d_max bases boundaries", {}),
    ("SNFResult", "U S V U_inv V_inv shape", {}),
    ("FGAbGroup", "free_rank torsion", {"torsion": ()}),
    ("StabilizationReport", "stable_scale per_scale warnings", {"warnings": []}),
    ("HomologyPresentation", "degree scale group basis index rank_dn V kernel_basis factors "
                             "Uprime Uprime_inv", {}),
    ("InducedMap", "map degree source_scale target_scale source target chain_matrix matrix", {}),
    ("PrismResult", "source_scale target_scale closeness h verified", {}),
    ("RelativeHomology", "groups prefix_index member scale warnings", {"warnings": []}),
    ("ExcisionReport", "scale d_max complement_index prefix_index groups_sub groups_full iso "
                       "basis_bijection warnings", {"warnings": []}),
    ("SimplicialComplex", "vertices simplices", {}),
    ("Cover", "members bound_scale lebesgue_scale notes",
     {"bound_scale": None, "lebesgue_scale": None, "notes": ()}),
    ("AntiCechPrefix", "scales covers certificates refinements", {}),
    ("CoarsificationReport", "d_max table stable_scale terminal notes", {"notes": ()}),
    ("AsdimReport", "per_scale upper_bound budget notes", {"notes": ()}),
    ("UniformDecompositionReport", "radii assignments ok notes", {"notes": ()}),
]
VALUE_TYPES = {"WindowTag", "FGAbGroup", "Cover", "AntiCechPrefix"}
HIDDEN = {"EquivalenceReport": {"f_report", "g_report"}}


def sample(name, fields):
    """Distinct field values, and the same values with the last one changed."""
    if name == "FGAbGroup":
        return [3, (2, 4)], [3, (2,)]
    if name == "WindowTag":  # a radius is an int >= 1
        return ["name-value", 2], ["name-value", 3]
    values = [f"{f}-value" for f in fields]
    return values, values[:-1] + ["other"]


CASES = [pytest.param(name, fields.split(), defaults, id=name)
         for name, fields, defaults in RECORDS]


def test_every_class_is_listed_once():
    assert len({name for name, _, _ in RECORDS}) == len(RECORDS) == 22
    assert VALUE_TYPES <= {name for name, _, _ in RECORDS}


@pytest.mark.parametrize("name, fields, defaults", CASES)
def test_constructor_order_and_defaults(name, fields, defaults):
    cls = getattr(coarsehom, name)
    values, _ = sample(name, fields)
    obj = cls(*values)
    assert [getattr(obj, f) for f in fields] == values
    assert cls(**dict(zip(fields, values))) == obj
    required = values[:len(fields) - len(defaults)]
    a, b = cls(*required), cls(*required)
    assert {f: getattr(a, f) for f in defaults} == defaults
    for f, default in defaults.items():
        if isinstance(default, (list, dict)):  # a fresh one per instance
            assert getattr(a, f) is not getattr(b, f)
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])


@pytest.mark.parametrize("name, fields, defaults", CASES)
def test_equality_is_by_class_and_fields(name, fields, defaults):
    cls = getattr(coarsehom, name)
    values, changed = sample(name, fields)
    obj = cls(*values)
    assert obj == cls(*values) and not obj != cls(*values)
    assert obj != cls(*changed) and not obj == cls(*changed)
    assert obj != tuple(values)
    assert (obj == object()) is False


def test_subclasses_never_equal_their_base():
    class Sub(coarsehom.SimplicialComplex):
        pass

    parts = (["v"], [[(0,)]])
    assert coarsehom.SimplicialComplex(*parts) != Sub(*parts)


@pytest.mark.parametrize("name, fields, defaults", CASES)
def test_repr_names_the_class_and_its_fields(name, fields, defaults):
    values, _ = sample(name, fields)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)
                      if f not in HIDDEN.get(name, ()))
    assert repr(getattr(coarsehom, name)(*values)) == f"{name}({shown})"


def test_equivalence_report_hides_the_morphism_reports():
    rep = coarsehom.EquivalenceReport(True, 1, 2, "f", "g")
    assert repr(rep) == "EquivalenceReport(equivalence=True, k_source=1, k_target=2)"
    assert rep != coarsehom.EquivalenceReport(True, 1, 2, "f", "other")


@pytest.mark.parametrize("name, fields, defaults", CASES)
def test_value_types_hash_and_refuse_assignment(name, fields, defaults):
    cls = getattr(coarsehom, name)
    values, changed = sample(name, fields)
    obj = cls(*values)
    if name not in VALUE_TYPES:
        with pytest.raises(TypeError):
            hash(obj)
        setattr(obj, fields[0], "new")
        assert getattr(obj, fields[0]) == "new"
        return
    assert hash(obj) == hash(cls(*values))
    assert len({obj, cls(*values), cls(*changed)}) == 2
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(obj, f, "new")
        with pytest.raises(AttributeError):
            delattr(obj, f)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert [getattr(obj, f) for f in fields] == values


@pytest.mark.parametrize("args, message", [
    ((-1,), "free rank must be >= 0, got -1"),
    ((0, (1,)), "torsion order must be >= 2, got 1"),
    ((0, (0,)), "torsion order must be >= 2, got 0"),
    ((1, (2, 3)), "torsion orders must form a divisibility chain"),
    ((1, (4, 2)), "torsion orders must form a divisibility chain"),
    # a bool is an int to Python, but no rank or order
    ((1.5,), "free rank must be an int, got 1.5"),
    ((True,), "free rank must be an int, got True"),
    (("a",), "free rank must be an int, got 'a'"),
    ((0, (2.5,)), "torsion order must be an int, got 2.5"),
    ((0, (2, True)), "torsion order must be an int, got True"),
])
def test_fgab_group_validates_its_fields(args, message):
    with pytest.raises(ValueError) as e:
        coarsehom.FGAbGroup(*args)
    assert str(e.value) == message


def test_fgab_group_accepts_a_divisibility_chain():
    g = coarsehom.FGAbGroup(2, (2, 4, 12))
    assert (g.free_rank, g.torsion, str(g)) == (2, (2, 4, 12), "Z^2 + Z/2 + Z/4 + Z/12")
    assert g == coarsehom.FGAbGroup(free_rank=2, torsion=(2, 4, 12))
    assert {g: 1}[coarsehom.FGAbGroup(2, (2, 4, 12))] == 1


def test_fgab_group_stores_its_torsion_as_a_tuple():
    g = coarsehom.FGAbGroup(0, [2])
    assert g.torsion == (2,) and str(g) == "Z/2"
    assert g == coarsehom.FGAbGroup(0, (2,)) and hash(g) == hash(coarsehom.FGAbGroup(0, (2,)))
