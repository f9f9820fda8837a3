"""Package exception types, and the field type checks that raise
ConfigurationError."""

from numbers import Integral, Real


class ConfigurationError(ValueError):
    """Invalid generator or experiment configuration."""


class GenerationError(RuntimeError):
    """Path generation failed (non-finite coefficient, bad tabulation, ...)."""


class NonFiniteError(ValueError):
    """A computed path or statistic is not finite; the message names the
    seed and path index that replay it.

    A kernel, which knows no seed, sets `row` to the row of its block
    instead, for the caller to name the path.
    """

    row = None


def check_numbers(record, ints=(), reals=()) -> None:
    """Raise ConfigurationError naming the first field of `record` that is
    not a number of its kind: the fields in `ints` must be integers, those in
    `reals` integers or floats.  A bool is neither, though Python counts it
    as an int."""
    for names, kind, what in ((ints, Integral, "an integer"), (reals, Real, "a number")):
        for name in names:
            value = getattr(record, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigurationError(f"{name} must be {what}, got {value!r}")
