"""orbitscope: dual-orbit structure, integrability verdicts, and admissible
wavelets for abelian matrix dilation groups.

The public names resolve lazily (PEP 562): `orbitscope.cwt` imports
`orbitscope.wavelet` on first use.  Importing the package loads nothing,
not even numpy, and importing a submodule loads only what it imports.  The
CLI depends on this: it sets its BLAS thread default before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "DilationAlgebra", "RootDecomposition", "check_commuting", "mat_exp",
        "rank_tol", "roots_decompose",
    ), "linalg"),
    **dict.fromkeys((
        "StratumReport", "is_admissible", "orbit_dim", "orbit_dims", "stratify",
    ), "orbits"),
    **dict.fromkeys((
        "LayeredFamily", "SectionBatch", "normal_form", "section_batch",
    ), "sections"),
    **dict.fromkeys((
        "ClassificationVerdict", "classify3", "classify_diag_nilpotent",
        "classify_dispatch", "classify_one_param",
    ), "classify"),
    **dict.fromkeys((
        "BoxSet", "DiagonalizedAction", "ParamInequalitySystem", "c_i_box",
        "diagonal_action", "is_relatively_compact", "meeting_system",
        "quasi_section_verdict", "shell_box",
    ), "quasisection"),
    **dict.fromkeys((
        "BumpFunction", "CalderonReport", "TransformGrid", "WaveletSpec", "bump",
        "calderon_check", "cwt", "l1_estimate", "synth_wavelet",
    ), "wavelet"),
}
_SUBMODULES = ("classify", "cli", "errors", "families", "groupspec", "linalg",
               "orbits", "quasisection", "sections", "wavelet")

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
