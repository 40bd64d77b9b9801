"""Time-dependent metric operators for non-Hermitian quantum systems.

The package simulates metrics that restore probability conservation when
the generator of time evolution is not Hermitian: it integrates the metric
flow equation, builds static metrics from biorthogonal eigensystems,
computes adiabatically defined S-matrices through Moller operators, and
ships two fully worked models (a Pauli-parametrized two-level system and
a cubic anharmonic oscillator treated with an exact phase-space star
product).
"""

from . import errors
from .operator_core import (
    BiorthogonalSystem,
    biorthogonal_decompose,
    continued_eigensystems,
    eigenframe,
    hermitian_sqrt,
    hermiticity_defect,
    positivity_check,
    propagator,
    spectrum_reality_check,
)
from .metric_flow import (
    MetricTrajectory,
    adiabatic_transport_prediction,
    SolverConfig,
    eigenbasis_coefficients,
    evolve_metric,
    evolve_metric_via_propagator,
    flow_rhs,
    hermitian_representation,
    metric_from_eigenbasis,
    observable_hamiltonian,
    quasi_hermiticity_residual,
    static_metric,
    transition_probability,
)
from .switching import (
    Constant,
    ExponentialSwitch,
    LinearRamp,
    SmoothSwitch,
    adiabatic_sweep,
    extrapolate_to_zero,
)
from .scattering import (
    ScatteringConfig,
    ScatteringResult,
    adiabatic_metric,
    moller_minus,
    moller_plus,
    s_matrix,
)
from .two_level import (
    MetricComponents,
    TwoLevelParams,
    classify_regime,
    component_generator,
    pauli_compose,
    pauli_decompose,
    ramp_experiment,
    static_solution,
)
from .moyal import (
    PhasePolynomial,
    cubic_linear_switch_evolve,
    cubic_static_first_order,
    harmonic_transport_check,
    linear_switch_closed_form,
    moyal_product,
    star_flow_rhs,
)

__version__ = "0.1.0"
