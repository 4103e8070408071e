"""Exception types shared across the package.

A class exists only if it sets a CLI exit code or some code in the
package catches it by class. Every other failure raises its category,
and its message says which condition failed.
"""


class HocdvsError(Exception):
    """Base class for all package-specific errors, and the library's own
    error: exit 1.

    The CLI exits with `exit_code` and prefixes stderr with `label`; the
    three categories below set their own.
    """

    exit_code = 1
    label = "error"


class ConfigError(HocdvsError):
    """Invalid configuration or usage: exit 2."""

    exit_code = 2
    label = "config error"


class NoDetectionError(HocdvsError):
    """The data holds no usable detection: exit 3."""

    exit_code = 3
    label = "no detection"


class PersistenceError(HocdvsError):
    """A file could not be read or written, or is corrupt: exit 4."""

    exit_code = 4
    label = "i/o error"


class NoEdgeError(HocdvsError):
    """No rising edge with both 10% and 90% crossings was found.

    experiments.analyze_traces catches it to report no resolution.
    """
