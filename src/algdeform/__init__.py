"""algdeform: exact arithmetic for finite-dimensional associative algebras.

Everything runs over the Gaussian rationals, each an exact int triple
(p + q*i)/d; there is no floating point anywhere.  The pieces:

``linalg``
    Exact scalars, dense matrices, subspaces stored as their sparse reduced
    echelon, and the sparse echelon kernel that every elimination runs through.
``ncpoly``
    Noncommutative polynomials with t-polynomial coefficients, and the
    relation parser.
``algebra``
    Structure-constant algebras, validation, ideals, quotients.
``presentation``
    Degree-truncated construction of an algebra from generators and
    relations.
``analysis``
    Jacobson radical, standard-identity spans and ideals, Wedderburn block
    profiles from the centre, semisimple-type enumeration.
``deformation``
    Polynomial-type deformation families, exact specialization, schedule
    scans.
``obstruction``
    Power-tower spans, the certified tower bound, deformation-target filtering.

The ``algdeform`` command line (or ``python -m algdeform``) exposes build,
analyze, scan, obstruct, enumerate, and identity-span over JSON files; the
``demos/`` directory of the repository walks each capability.
"""

import importlib

# Public name -> defining module.  Submodules are imported on first access
# (PEP 562), so ``import algdeform.cli`` loads only what a subcommand uses.
_EXPORTS = {
    "algebra": ("Element", "StructureAlgebra", "ideal_closure", "quotient"),
    "analysis": (
        "BlockProfile",
        "block_profile",
        "enumerate_semisimple_types",
        "identity_ideal",
        "identity_span",
        "is_semisimple",
        "radical",
    ),
    "deformation": (
        "DeformationFamily",
        "SampledFamily",
        "ScanResult",
        "constant_family",
        "scan",
        "trace_form_determinant",
    ),
    "linalg": ("GaussianRational", "Matrix", "Subspace", "parse_scalar"),
    "ncpoly": ("NcPoly", "TPoly", "parse_ncpoly"),
    "obstruction": (
        "ObstructionReport",
        "admissible_targets",
        "family_span_dim",
        "sampled_lower_bound",
        "tower_bound",
    ),
    "presentation": ("BuildResult", "Presentation", "build"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
