"""Exception types shared across the toolkit."""

from __future__ import annotations


class QObserverError(Exception):
    """Base class for all toolkit errors."""


class InputError(QObserverError, ValueError):
    """An input breaks a rule: carries the input's name (a config key of the command
    line: cp, omega_o, gamma, eps_ratio, delta or horizons, or else the library
    parameter, such as t, c_row or beta), the rule and the value."""

    def __init__(self, name: str, rule: str, value=None):
        self.name, self.rule, self.value = name, rule, value
        super().__init__(f"{name}: {rule}" + ("" if value is None else f", got {value!r}"))


class DimensionError(QObserverError, ValueError):
    """Array shapes or mode counts do not match what an operation expects."""


class DesignError(QObserverError, ValueError):
    """Requested observer or amplifier parameters admit no valid design."""


class ZeroCouplingError(DesignError):
    """The plant-observer coupling vanishes, so no observer output exists."""


class FactorizationError(DesignError):
    """A coupling block is not rank-one along the plant output selector."""


class StructureError(QObserverError, ValueError):
    """A matrix violates the structure required by the transformation."""


class NonFiniteError(QObserverError, ValueError):
    """A matrix holds inf or nan: an input, or a result that overflowed and cannot be reported."""


class PipelineError(QObserverError, RuntimeError):
    """A stage of the design pipeline failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


class ConsistencyError(PipelineError):
    """The physically mapped Hamiltonian disagrees with the abstract design."""

    def __init__(self, message: str):
        super().__init__("cross_check", message)
