"""levsketch: fast randomized leverage scores, coherence, and friends."""

from . import errors
from ._kernels import backend_name
from .crosslev import HeavyPairSet, approx_cross_leverage, heavy_pairs
from .levscore import (Orthogonalizer, SketchedBasis, approx_leverage,
                       build_orthogonalizer, mi_estimate)
from .matcore import (LeverageReport, ThinSVD, exact_cross_leverage,
                      exact_leverage, pseudoinverse, thin_svd)
from .rankklev import (NormalizedLevReport, frobenius_rankk,
                       frobenius_sketch_matrix, power_q, spectral_rankk,
                       spectral_sketch_matrix)
from .sketch import (SketchOperator, SketchPlan, apply_sparse_jlt,
                     apply_srht, fjlt_dim, fwht, hadamard_matrix, jlt_dim,
                     make_plan)
from .underls import (SamplingMatrix, SamplingProbabilities,
                      draw_sampling_matrix, leverage_probs_for_columns,
                      sample_size, underls_solve)

__version__ = "0.1.0"

__all__ = [
    "errors", "backend_name",
    "HeavyPairSet", "approx_cross_leverage", "heavy_pairs",
    "Orthogonalizer", "SketchedBasis", "approx_leverage",
    "build_orthogonalizer", "mi_estimate",
    "LeverageReport", "ThinSVD", "exact_cross_leverage", "exact_leverage",
    "pseudoinverse", "thin_svd",
    "NormalizedLevReport", "frobenius_rankk", "frobenius_sketch_matrix",
    "power_q", "spectral_rankk", "spectral_sketch_matrix",
    "SketchOperator", "SketchPlan", "apply_sparse_jlt", "apply_srht",
    "fjlt_dim", "fwht", "hadamard_matrix", "jlt_dim", "make_plan",
    "SamplingMatrix", "SamplingProbabilities", "draw_sampling_matrix",
    "leverage_probs_for_columns", "sample_size", "underls_solve",
]
