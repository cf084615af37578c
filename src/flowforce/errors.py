"""Exception types shared across the toolkit."""


class FlowForceError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidSamples(FlowForceError):
    """Sample data is unusable (wrong shape, too short, or non-finite)."""


class MeanNotZero(FlowForceError):
    """An operator defined on the zero-mean space received data with a mean."""


class SingularExpression(FlowForceError):
    """A pointwise expression hit a denominator below its floor.

    Carries the grid location of the offending node when known.
    """

    def __init__(self, message, node_x=None, value=None):
        super().__init__(message)
        self.node_x = node_x
        self.value = value


class NoConvergence(FlowForceError):
    """Newton iteration stopped without meeting the tolerance.

    Either it stalled on the residual's rounding floor or it used up
    max_iter updates; iterations counts the updates done and
    last_residual is the residual max-norm where it stopped.
    """

    def __init__(self, message, iterations=None, last_residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_residual = last_residual


class SingularJacobian(FlowForceError):
    """Newton system conditioning exceeded the trust threshold."""


class InadmissibleIterate(FlowForceError):
    """An iterate violated a physical admissibility guard."""


class KernelNotSimple(FlowForceError):
    """Branch tracing refused: the linearization kernel is not one-dimensional."""


class SurfaceInversionFailed(FlowForceError):
    """The monotone surface abscissa map could not be inverted to tolerance."""


class ConfigError(FlowForceError):
    """Run configuration is malformed or contains unknown keys."""


class InputFileError(ConfigError):
    """A branch file given to the command line cannot be read or rebuilt."""
