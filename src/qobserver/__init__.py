"""Design and verification toolkit for direct-coupled coherent quantum
observers of closed linear quantum systems.

The package loads without numpy.  The names of `dynamics`, which runs on
numpy, resolve on first use through the module `__getattr__` (PEP 562).
"""

__version__ = "0.1.0"

from .core import LinearQuantumSystem, SymplecticSpace, maxabs
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
    Design,
    DesignReport,
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

# Package-level names of `dynamics`, imported with it on first use.
_DYNAMICS = (
    "CheckResult",
    "ConvergenceReport",
    "Trajectory",
    "ccr_defect",
    "coefficient_trajectory",
    "propagator",
    "verify_convergence",
)


def __getattr__(name: str):
    if name in _DYNAMICS:
        from . import dynamics

        value = globals()[name] = getattr(dynamics, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "CheckResult",
    "ConsistencyError",
    "ConvergenceReport",
    "Design",
    "DesignError",
    "DesignReport",
    "DimensionError",
    "FactorizationError",
    "InputError",
    "LinearQuantumSystem",
    "NdpaParams",
    "NonFiniteError",
    "ObserverDesign",
    "ObserverDiagnostics",
    "PipelineError",
    "PlantSpec",
    "QObserverError",
    "StructureError",
    "SymplecticSpace",
    "Trajectory",
    "ZeroCouplingError",
    "augment",
    "ccr_defect",
    "coefficient_trajectory",
    "design_ndpa",
    "maxabs",
    "propagator",
    "synthesize_observer",
    "validate_observer",
    "verify_convergence",
    "wrap_angle",
]
