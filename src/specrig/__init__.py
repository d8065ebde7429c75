"""specrig: projective joint spectra of matrix triples and spectral
rigidity for deformed su(2) / sl(2) ladder generators."""

from .exceptional import (CorollaryCheck, ExceptionalRoot, corollary_check,
                          exceptional_nus, exceptional_set, is_exceptional,
                          multiplicity_profile, root_polynomial, z_root)
from .generators import (GeneratorTuple, RelationResidual, c_coeff,
                         counterexample_tuple, fundamental_generators,
                         h_coeff, one_dim_rep, relation_residuals,
                         sl2_generators, snu2_generators, structural_matrices,
                         tuple_from_json, tuple_to_json)
from .linalg import (DEFAULT_TOL, EigenDecomposition, MatrixFlags, as_matrix,
                     classify, commutator, hermitian_eig, hs_norm,
                     matrix_from_json, matrix_to_json, spectral_projection)
from .poly import (LinearForm, MultiPoly, divide_linear, poly_equal,
                   poly_from_json, poly_to_json)
from .rigidity import (EQUIVALENT, HYPOTHESIS_FAILED, RECONSTRUCTION_FAILED,
                       RigidityReport, certify_equivalence, compression_check,
                       sl2_rigidity, snu2_rigidity)
from .spectrum import (Line, LineArrangement, det_pencil, lines_of_pair,
                       parse_pencil, spectra_equal, x2_dependence)

__version__ = "0.1.0"
