"""Bergman projection kernels, kernel smoothing and heat flow on the sphere.

Desk-scale numerical machinery for comparing the normalized Bergman-kernel
smoothing operator of a positive line bundle over the projective line with
the heat semigroup at time 1/(4 pi p), including rate benchmarks, kernel
identities, off/near-diagonal probes and the flat Bargmann-Fock model.
"""

from .bench import (ComparisonResult, FormReport, OperatorMatrix,
                    comparison_norms, matrix_free_norm, multiplication_matrix,
                    operator_matrix, rate_fit, spectral_norm, sweep_form)
from .bergman import (DecayProbe, NearDiagonalProbe, SmoothingOperator,
                      near_diagonal_residual, off_diagonal_sup, rank_ratio,
                      weight_change_residuals)
from .errors import (ConfigError, DifferentiationError,
                     IllConditionedGramError, InvalidRunError)
from .flat_model import (FlatPoint, bargmann_kernel, bargmann_kernel_expr,
                         gaussian_laplacian_identity, landau_operator_apply,
                         landau_operator_symbolic, reproducing_residual)
from .geometry import (INJECTIVITY_RADIUS, RADIUS, QuadratureGrid,
                       SpherePoint, VolumeForm, build_grid, exp_map,
                       fubini_study_form, geodesic_distance, integrate,
                       log_map, normal_volume_density)
from .harmonics import real_sph_harm
from .heat import (HarmonicCoeffs, SphericalHarmonicTransform, heat_apply,
                   heat_diagonal, laplacian_apply, sh_analyze,
                   semigroup_derivative_residual)
from .sections import (BergmanEvaluator, GramMatrix, KernelBlock, SectionBasis,
                       bergman_evaluator, gram_matrix, section_basis,
                       write_kernel_slice)

__version__ = "0.1.0"
