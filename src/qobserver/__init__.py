"""Design and verification toolkit for direct-coupled coherent quantum
observers of closed linear quantum systems."""

__version__ = "0.1.0"

from .core import (
    LinearQuantumSystem,
    QuadraticHamiltonian,
    SymplecticSpace,
    generator_from_hamiltonian,
    maxabs,
    realizability_defect,
)
from .dynamics import (
    CheckResult,
    ConvergenceReport,
    Trajectory,
    ccr_defect,
    coefficient_trajectory,
    propagator,
    verify_convergence,
)
from .errors import (
    ConsistencyError,
    DesignError,
    DimensionError,
    FactorizationError,
    InputError,
    NonFiniteError,
    PipelineError,
    QObserverError,
    StructureError,
    ZeroCouplingError,
)
from .ndpa import (
    DesignReport,
    DesignResult,
    NdpaDesign,
    NdpaParams,
    design_ndpa,
    wrap_angle,
)
from .observer import (
    ObserverDesign,
    ObserverDiagnostics,
    PlantSpec,
    augment,
    synthesize_observer,
    validate_observer,
)

__all__ = [
    "__version__",
    "CheckResult",
    "ConsistencyError",
    "ConvergenceReport",
    "DesignError",
    "DesignReport",
    "DesignResult",
    "DimensionError",
    "FactorizationError",
    "InputError",
    "LinearQuantumSystem",
    "NdpaDesign",
    "NdpaParams",
    "NonFiniteError",
    "ObserverDesign",
    "ObserverDiagnostics",
    "PipelineError",
    "PlantSpec",
    "QObserverError",
    "QuadraticHamiltonian",
    "StructureError",
    "SymplecticSpace",
    "Trajectory",
    "ZeroCouplingError",
    "augment",
    "ccr_defect",
    "coefficient_trajectory",
    "design_ndpa",
    "generator_from_hamiltonian",
    "maxabs",
    "propagator",
    "realizability_defect",
    "synthesize_observer",
    "validate_observer",
    "verify_convergence",
    "wrap_angle",
]
