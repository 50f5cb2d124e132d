"""Exception types shared across the solver suite."""


class ScatterError(Exception):
    """Base class for all errors raised by scatter_swarm."""


class ParameterError(ScatterError, ValueError):
    """A physical or numerical parameter is outside its admissible range."""


class SingularityError(ScatterError, ValueError):
    """A kernel was evaluated at a coincident source/target pair."""


class OverlapError(ScatterError, ValueError):
    """Requested particle placement would make spheres touch or overlap."""


class DataError(ScatterError, ValueError):
    """Input data (e.g. a voxel grid) contains invalid entries."""


class PoleError(ScatterError, ArithmeticError):
    """The medium response function vanishes at a voxel, so 1/Psi blows up."""

    def __init__(self, message, voxel=None):
        super().__init__(message)
        self.voxel = voxel


class StencilError(ScatterError, ValueError):
    """A finite-difference grid is too coarse for the requested stencil."""


class ConvergenceError(ScatterError, RuntimeError):
    """An iterative solve failed to reach the requested tolerance."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = tuple(residual_history)


class MemoryBudgetError(ScatterError, MemoryError):
    """A dense allocation would exceed the memory available to the process."""


class SolveSingularError(ScatterError, RuntimeError):
    """A discrete system is singular.

    The continuous scattering problems solved here are uniquely solvable,
    so a singular discrete system signals an invalid mesh or parameters.
    """


class IllConditionedWarning(UserWarning):
    """The assembled system is close to singular; results may be unreliable."""
