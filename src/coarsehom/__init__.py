"""coarsehom: exact computational coarse geometry on finite and windowed spaces."""

from .core_spaces import (
    BadScales,
    BigFamilyPrefix,
    BornCoarseSpace,
    Bornology,
    BornologyDoesNotCover,
    CoarseError,
    CoarseStructure,
    Entourage,
    GroundSet,
    IncompatibleStructures,
    InvalidMetric,
    NegativeDistance,
    NonSymmetricMatrix,
    ScaleGraph,
    UnknownPoint,
    WindowTag,
    big_family_generated,
    closure_at,
    coarse_components,
    coproduct,
    free_union,
    from_metric,
    is_U_bounded,
    make_big_family,
    make_explicit_space,
    mixed_union,
    product_p,
    semidirect,
    subspace,
    thicken,
    windowed_builtin,
)
from .morphisms import (
    Cylinder,
    CylinderMismatch,
    EquivalenceReport,
    FlasqueCertificate,
    FlasqueRefusal,
    GeneralizedFlasqueCertificate,
    MorphismReport,
    PNotBornological,
    PNotControlled,
    SourceTargetMismatch,
    SpaceMap,
    are_close,
    certify_flasque,
    certify_flasque_generalized,
    check_equivalence,
    check_homotopy,
    check_morphism,
    constant_map,
    cylinder,
    identity_map,
    inclusion_map,
    translate_map,
)
from .homology_engine import (
    DEFAULT_BASIS_CAP,
    DEFAULT_DEGREE_CAP,
    ChainComplexAtScale,
    DegreeCapExceeded,
    ExcisionReport,
    FGAbGroup,
    HomologyError,
    HomologyPresentation,
    InducedMap,
    IntMatrix,
    NotClose,
    NotComplementary,
    NotControlledAtScale,
    PrefixTooShort,
    PrismResult,
    RelativeHomology,
    SNFResult,
    SimplicialComplex,
    StabilizationReport,
    WindowTooSmall,
    boundary_matrix,
    chain_complex,
    controlled_tuples,
    homology_at_scale,
    homology_colimit,
    homology_presentation,
    induced_map,
    mv_check,
    prism,
    relative_homology,
    rips_complex,
    smith_normal_form,
    swindle_identity_check,
    verify_complex_identity,
)
from .coarsification import (
    AntiCechPrefix,
    AsdimReport,
    CertificateFailed,
    CoarsificationReport,
    Cover,
    CoverError,
    NerveComplex,
    NotACover,
    NotADecomposition,
    PhiNotDecreasing,
    TelescopeComplex,
    UniformDecompositionReport,
    anti_cech,
    asdim_upper_bound,
    check_cover,
    coarsening_space,
    coarsify_homology,
    cover_from_net,
    greedy_net,
    hybrid_entourage,
    nerve,
    uniform_decomposition_check,
)

# The command line is imported on first use, so that `python -m coarsehom.cli_io`
# runs the module once, as __main__, and importing the library skips argparse.
_CLI_NAMES = ("ParseError", "Report", "UnknownCommand", "emit_space", "emit_space_text",
              "parse_map_file", "parse_space", "run")


def __getattr__(name):
    if name != "cli_io" and name not in _CLI_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    cli_io = importlib.import_module(".cli_io", __name__)
    return cli_io if name == "cli_io" else getattr(cli_io, name)


__all__ = [name for name in dir() if not name.startswith("_")] + list(_CLI_NAMES)

__version__ = "0.1.0"
