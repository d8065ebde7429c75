"""specrig: projective joint spectra of matrix triples and spectral
rigidity for deformed su(2) / sl(2) ladder generators.

The public names load their defining module on first use (PEP 562), so
``import specrig`` and each CLI command compile only the modules they run.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "exceptional": ("CorollaryCheck", "ExceptionalRoot", "corollary_check", "exceptional_set",
                    "is_exceptional", "multiplicity_profile", "z_root"),
    "generators": ("GeneratorTuple", "RelationResidual", "c_coeff", "counterexample_tuple",
                   "fundamental_generators", "h_coeff", "one_dim_rep", "relation_residuals",
                   "sl2_generators", "snu2_generators", "tuple_from_json", "tuple_to_json"),
    "linalg": ("DEFAULT_TOL", "as_matrix", "commutator", "hs_norm", "matrix_from_json",
               "matrix_to_json", "spectral_projection"),
    "poly": ("MultiPoly", "poly_to_json"),
    "rigidity": ("EQUIVALENT", "HYPOTHESIS_FAILED", "RECONSTRUCTION_FAILED", "RigidityReport",
                 "certify_equivalence", "compression_check", "sl2_rigidity", "snu2_rigidity"),
    "spectrum": ("Line", "det_pencil", "lines_of_pair", "parse_pencil", "spectra_equal",
                 "x2_dependence"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # bound, so the next lookup skips this hook
    return value


def __dir__():
    return list(__all__)
