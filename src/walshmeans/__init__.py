"""Walsh-Paley summability toolkit.

Dyadic-grid Walsh analysis: the fast Paley-ordered transform, matrix
transformation means and their kernels, maximal operators with weak-type
functionals, tensor-product means on the square, Walsh-Lebesgue point
diagnostics, and an exact rational divergence example.
"""

from .dyadic import (
    DyadicInterval,
    DyadicRational,
    GridSpec,
    prefix,
)
from .exact import (
    SparseStepFunction,
    build_example1,
    divergence_report,
    exact_avg_at_zero,
    exact_fejer_at_zero,
    validate_nseq,
)
from .lebesgue import (
    classify_wlp,
    h0,
    h1,
    mt2_convergence_experiment,
    w2d,
)
from .maximal import (
    IndexSubsequence,
    dyadic_maximal,
    llogl_norm,
    maximal_abs_mean,
    maximal_mean,
    random_test_function,
    subsequence_from_spec,
    weak_quasinorm,
    weak_type_experiment,
)
from .summability import (
    MatrixValidationError,
    TransformationMatrix,
    apply_mean,
    builtin_matrix,
    c2_quantity,
    kernel_V,
    kernel_decomposition,
    matrix_from_spec,
    upsilon,
)
from .tensor import (
    apply_axis,
    hybrid_maximal,
    iterated_majorant,
    llogl_weak_type_experiment,
    load_grid2d,
    random_test_function_2d,
    save_grid2d,
    tensor_maximal,
    tensor_mean,
)
from .transform import (
    GridFunction,
    dyadic_convolve,
    load_grid1d,
    save_grid1d,
    walsh_sample,
)

__version__ = "0.1.0"
