"""Exception hierarchy shared by all loopvertex modules."""


class LoopVertexError(Exception):
    """Base class for all errors raised by this package."""


class CutProximityError(LoopVertexError):
    """Evaluation point is too close to a branch cut."""


class CutCrossingError(LoopVertexError):
    """An integration path or quadrature node crosses a branch cut."""


class NonConvergenceError(LoopVertexError):
    """An iterative solver exhausted its budget without converging."""


class BranchPointProximityError(LoopVertexError):
    """Evaluation too close to the branch point of the generating function."""


class BranchViolationError(LoopVertexError):
    """Argument of a principal square root is on the negative real axis."""


class CutCollisionError(LoopVertexError):
    """No keyhole geometry with positive clearance from the cut rays exists."""


class ContourClearanceError(LoopVertexError):
    """A spectrum sits closer to the keyhole than its clearance floor."""


class SpectrumTooLargeError(LoopVertexError):
    """Eigenvalues exceed the radius the contour was built for."""


class QuadratureDivergenceError(LoopVertexError):
    """Contour quadrature failed its Cauchy self-test."""


class QuadratureUnderResolvedError(LoopVertexError):
    """Node doubling did not reach the requested quadrature tolerance."""


class NonHermitianError(LoopVertexError):
    """Input matrix violates the hermiticity invariant."""


class NotPSDError(LoopVertexError):
    """Interpolation matrix is not positive semidefinite."""


class PoleCollisionError(LoopVertexError):
    """Contour point coincides with an eigenvalue."""


class LogBranchAmbiguityError(LoopVertexError):
    """A logarithm argument reached the negative real axis; branch undecided."""


class VarianceBlowupError(LoopVertexError):
    """Monte Carlo relative standard error exceeded its ceiling."""


class OutOfRangeError(LoopVertexError):
    """Argument outside the supported desk-scale range."""


class BudgetExceededError(LoopVertexError):
    """Requested tree amplitude exceeds the numerical-derivative budget."""


class StepInstabilityError(LoopVertexError):
    """Finite-difference step failed its Richardson consistency check."""


class ConfigError(LoopVertexError):
    """Invalid run configuration."""
