"""Hereditary kernel identification for nonlinear viscoelastic materials.

The package approximates discrete creep/relaxation kernel data with a
bespoke quadratic segment scheme, estimates the hereditary intensity by a
weighted-residual closed form and the power-law exponent by a Lambert-W
closed form per (strain level, knot) pair, and ships a forward constitutive
simulator that doubles as the synthetic-data oracle for round-trip
validation.
"""

__version__ = "0.1.0"

from .kernels import (
    KernelParams,
    SeriesSum,
    creep_kernel,
    creep_kernel_integral,
    relaxation_kernel,
)
from .material import (
    KIND_CREEP,
    KIND_RELAXATION,
    KIND_STRESS_PROGRAM,
    PowerLaw,
    ResponseHistory,
    hereditary_convolution,
    phi0,
    phi0_inverse,
    resolvent_mismatch,
    simulate_creep,
    simulate_relaxation,
)
from .residual import (
    IdentificationResult,
    WeightConfig,
    eta,
    identify,
    lambda_closed_form,
    lambda_gamma_form,
    omega,
    segment_eval_times,
    select_moment_order,
    solve_q,
    stage1_weights,
)
from .spline import (
    IsochroneDataset,
    KernelSamples,
    Spline,
    compare_table1,
    eval_kernel_spline,
    fit_kernel_spline,
    integrate_segment_from_zero,
    relaxation_kernel_from_history,
    similarity_means,
    table1_fixture,
)

__all__ = [name for name in dir() if not name.startswith("_")]
