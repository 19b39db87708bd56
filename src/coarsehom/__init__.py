"""coarsehom: exact computational coarse geometry on finite and windowed spaces.

Layers load on first use: `import coarsehom` runs none of them, and each
public name is imported from its layer when it is first asked for (PEP 562).
The command line follows suit: each subcommand imports only the layer it
calls, so a cold process compiles and runs only what its command needs.
"""

# layer -> the public names it provides; `cli_io` is reachable but, being the
# command line rather than a layer, stays out of `from coarsehom import *`
_LAYERS = {
    "core_spaces": (
        "BadScales", "BigFamilyPrefix", "BornCoarseSpace", "Bornology", "BornologyDoesNotCover",
        "CoarseError", "CoarseStructure", "Entourage", "GroundSet", "IncompatibleStructures",
        "InvalidMetric", "NegativeDistance", "NonSymmetricMatrix", "UnknownPoint", "WindowTag",
        "big_family_generated", "coarse_components", "coproduct", "from_metric", "is_U_bounded",
        "make_big_family", "make_explicit_space", "product_p", "subspace", "thicken", "windowed_builtin",
    ),
    "morphisms": (
        "EquivalenceReport", "FlasqueCertificate", "FlasqueRefusal", "MorphismReport",
        "SourceTargetMismatch", "SpaceMap", "are_close", "certify_flasque", "check_equivalence",
        "check_morphism", "constant_map", "identity_map", "inclusion_map", "translate_map",
    ),
    "covers": (
        "AntiCechPrefix", "AsdimReport", "CertificateFailed", "Cover", "CoverError", "NotACover",
        "NotADecomposition", "PhiNotDecreasing", "UniformDecompositionReport", "anti_cech",
        "asdim_upper_bound", "check_cover", "cover_from_net", "greedy_net", "hybrid_entourage",
        "uniform_decomposition_check",
    ),
    "homology_engine": (
        "DEFAULT_BASIS_CAP", "DEFAULT_DEGREE_CAP", "DegreeCapExceeded", "ExcisionReport", "FGAbGroup",
        "HomologyError", "IntMatrix", "NotComplementary", "PrefixTooShort", "RelativeHomology",
        "SNFResult", "SimplicialComplex", "StabilizationReport", "homology_at_scale",
        "homology_colimit", "mv_check", "relative_homology", "rips_complex", "smith_normal_form",
    ),
    "chain_maps": (
        "ChainComplexAtScale", "HomologyPresentation", "InducedMap", "NotClose",
        "NotControlledAtScale", "PrismResult", "WindowTooSmall", "boundary_matrix", "chain_complex",
        "controlled_tuples", "homology_presentation", "induced_map", "prism",
        "swindle_identity_check", "verify_complex_identity",
    ),
    "coarsification": (
        "CoarsificationReport", "coarsening_space", "coarsify_homology", "nerve",
    ),
    "cli_io": (
        "ParseError", "Report", "emit_space", "emit_space_text",
        "parse_map_file", "parse_space", "run",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted([*_HOME, *_LAYERS.keys() - {"cli_io"}])

__version__ = "0.1.0"


def __getattr__(name):
    layer = name if name in _LAYERS else _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{layer}", __name__)
    value = globals()[name] = module if name == layer else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_LAYERS})
