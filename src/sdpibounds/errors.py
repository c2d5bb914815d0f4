"""Exception types shared across the package.

The split matters for the command line front end: input files that do not
parse are reported differently from files that parse but violate a model
invariant, and both differ from plain I/O failures.
"""


class ProbabilityError(ValueError):
    """A probability object violates one of its invariants.

    Raised for negative masses, sums that are not close enough to one to
    renormalize, zero marginals where full support is required, and
    queries outside an operation's domain.
    """


class DimensionMismatchError(ProbabilityError):
    """Two objects that must share an alphabet do not."""


class DegenerateRatioError(ProbabilityError):
    """Divergence ratio queried inside the ball around the input marginal.

    The ball holds the laws q with max_x |ln q(x) - ln p(x)| <= 1e-3 for
    the input marginal p: the ratio is 0/0 at p, and every s* search skips
    the ball.
    """


class InfeasibleDistortionError(ValueError):
    """Requested average distortion below the minimum any code can achieve."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations before meeting its tolerance."""

    def __init__(self, message: str, gap: float | None = None):
        super().__init__(message)
        self.gap = gap
