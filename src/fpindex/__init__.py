"""fpindex: exact fixed-point indices of boundary correspondences.

The package computes the winding-number index of orientation-preserving,
fixed-point-free correspondences between polygonal Jordan curve boundaries,
represents transverse curve pairs as combinatorial torus diagrams, constructs
boundary maps realizing three prescribed point pairs with nonnegative index,
and checks the resulting incompatibility statement on finite packings of
topological rectangles.

The names below load on first use (PEP 562), so `import fpindex.jordan`
compiles only `jordan` and what it imports.

The package attribute `prescribe` is the function, not the module of the
same name, so `import fpindex.prescribe as P` binds the function. Import
the module's other names from it directly, as in
`from fpindex.prescribe import oracle_enumerate`.
"""
import sys
from importlib import import_module
from types import ModuleType

# each exported name and the submodule it lives in
_EXPORTS = {
    "ContactGraph": "packing",
    "Fraction": "exact_geom",
    "MeetKind": "exact_geom",
    "PLCorrespondence": "plmap",
    "PLLoop": "exact_geom",
    "PackingSpec": "packing",
    "PointLocation": "exact_geom",
    "PolyJordanCurve": "jordan",
    "RatPoint": "exact_geom",
    "Segment": "exact_geom",
    "SegmentMeeting": "exact_geom",
    "TheoremCertificate": "packing",
    "TopoRectangle": "packing",
    "assemble_theorem_certificate": "packing",
    "build_diagram": "torus",
    "canonical_noncut_pair": "jordan",
    "check_overlay_transverse": "packing",
    "check_transverse": "jordan",
    "cuts_each_other": "jordan",
    "find_cutting_pair": "packing",
    "fixed_point_index": "plmap",
    "glue": "plmap",
    "index_from_torus": "torus",
    "isomorphic_contact": "packing",
    "oracle_enumerate": "prescribe",
    "orient2d": "exact_geom",
    "path_of_correspondence": "torus",
    "point_in_polygon": "exact_geom",
    "prescribe": "prescribe",
    "pt": "exact_geom",
    "rat": "exact_geom",
    "realize_path": "torus",
    "segment_intersection": "exact_geom",
    "signed_area": "exact_geom",
    "translate_packing": "packing",
    "validate_curve": "jordan",
    "validate_packing": "packing",
    "winding_number": "exact_geom",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """Loading a submodule binds it on its package under its own name. The
    function `prescribe` shares its module's name, so that binding keeps the
    function, as `from fpindex import prescribe` promises."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and _EXPORTS.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
