"""Weighted average multiplicity of factorizations, as a function of s.

For n = prod p_k^{e_k}, wam(n, s) interpolates between the average
multiplicity Omega/omega (s = 0), ln n / ln rad n (s = 1), and the top
multiplicity e_m (Re s -> +inf).  The package evaluates wam for complex
s over the integers and over F_q[x], locates the poles (zeros of the
denominator), computes the critical abscissa bounding their real parts,
and reproduces ABC-triple statistics at desk scale.
"""

__version__ = "0.1.0"

import os as _os

# No product here needs more than one OpenBLAS thread (wamcore._serial_product), and a pool
# spins 50-120 ms of CPU a process: unless a thread count is set, numpy loads with one
# thread.  The variable goes once numpy has loaded, so child processes get the caller's.
_ONE_BLAS_THREAD = not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys()
if _ONE_BLAS_THREAD:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .arith import (
        Factorization,
        FactorizationBudgetExceeded,
        factor,
        is_prime,
        mobius,
        radical,
    )
    from .critical import (
        BelowCritical,
        CriticalProfile,
        critical_abscissa,
        critical_abscissae,
        wam_upper,
    )
    from .ffpoly import (
        FpPoly,
        PolyAbcTriple,
        PolyFactorization,
        count_irreducibles,
        cyclotomic_wam_formula,
        mason_stothers_check,
        pigeonhole_triple,
        poly_factor,
        poly_wam,
        validate_poly_triple,
    )
    from .triples import (
        AbcTriple,
        DatasetParse,
        HeatmapGrid,
        em_histogram,
        generate_triples,
        max_wam_heatmap,
        mersenne_family,
        validate_triple,
    )
    from .wamcore import (
        EmptyFactorization,
        WamEvaluation,
        mersenne_lower_bound_check,
        wam,
        wam_at,
    )
    from .zeros import (
        SearchRegion,
        ZeroRecord,
        argument_principle_count,
        critical_line_probe,
        find_zeros,
    )
finally:
    if _ONE_BLAS_THREAD:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "__version__",
    "Factorization",
    "FactorizationBudgetExceeded",
    "factor",
    "is_prime",
    "mobius",
    "radical",
    "BelowCritical",
    "CriticalProfile",
    "critical_abscissa",
    "critical_abscissae",
    "wam_upper",
    "FpPoly",
    "PolyAbcTriple",
    "PolyFactorization",
    "count_irreducibles",
    "cyclotomic_wam_formula",
    "mason_stothers_check",
    "pigeonhole_triple",
    "poly_factor",
    "poly_wam",
    "validate_poly_triple",
    "AbcTriple",
    "DatasetParse",
    "HeatmapGrid",
    "em_histogram",
    "generate_triples",
    "max_wam_heatmap",
    "mersenne_family",
    "validate_triple",
    "EmptyFactorization",
    "WamEvaluation",
    "mersenne_lower_bound_check",
    "wam",
    "wam_at",
    "SearchRegion",
    "ZeroRecord",
    "argument_principle_count",
    "critical_line_probe",
    "find_zeros",
]
