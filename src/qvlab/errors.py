"""Package exception types."""


class ConfigurationError(ValueError):
    """Invalid generator or experiment configuration."""


class GenerationError(RuntimeError):
    """Path generation failed (non-finite coefficient, bad tabulation, ...)."""


class UnsupportedFunctionError(LookupError):
    """A path function lacks the metadata required by the operation."""


class NonFiniteError(ValueError):
    """A computed path or statistic is not finite; the message names the
    seed and path index that replay it.

    A kernel, which knows no seed, sets `row` to the row of its block
    instead, for the caller to name the path.
    """

    row = None
