"""Exception types shared across the package."""


class HocdvsError(Exception):
    """Base class for all package-specific errors.

    The CLI exits with `exit_code` and prefixes stderr with `label`; the
    three categories below set both for their subclasses.
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


# --- sequence / estimator errors ---------------------------------------------

class EmptySequenceError(HocdvsError):
    """A sample sequence with zero length was supplied."""


class LengthMismatchError(HocdvsError):
    """Sequences that must share a length do not."""


class NotCenteredError(HocdvsError):
    """An operation requiring zero-mean input received uncentered data."""


class LagTooLargeError(HocdvsError):
    """A requested lag is not smaller than the sequence length."""


class ZeroSignalError(HocdvsError):
    """Signal power is zero where a positive power is required."""


class PowerMismatchError(HocdvsError):
    """Two sequences that must be power-matched differ by more than 1%."""


class DegenerateNoiseReferenceError(HocdvsError):
    """The noise reference is too symmetric for a stable cumulant ratio."""


class BadRangeError(HocdvsError):
    """Invalid histogram range or bin count."""


# --- synthesis errors ---------------------------------------------------------

class EmptyRequestError(HocdvsError):
    """A generator was asked for zero samples."""


class BadIntervalError(HocdvsError):
    """An asymmetry interval is empty or outside the truncation window."""


class BadConfigError(ConfigError):
    """A simulation config is invalid, incomplete, or unparseable."""


# --- detection errors ---------------------------------------------------------

class TooFewTracesError(ConfigError):
    """At least two traces are needed to remove the static trend."""


class WindowExceedsTracesError(ConfigError):
    """The requested window is larger than the number of traces."""


class WindowTooSmallError(ConfigError):
    """The requested window holds fewer than two traces."""


class BadAverageLengthError(ConfigError):
    """Block-average length does not leave at least two blocks to difference."""


class NoPeakError(NoDetectionError):
    """The profile contains no usable peak (all zero or non-finite)."""


class BadGuardError(ConfigError):
    """The guard band leaves no background samples."""


class ZeroBackgroundError(NoDetectionError):
    """Background power is exactly zero; the SNR ratio is undefined."""


class NoEdgeError(HocdvsError):
    """No rising edge with both 10% and 90% crossings was found."""


# --- persistence errors -------------------------------------------------------

class IoError(PersistenceError):
    """An underlying file operation failed; message carries the path."""


class NotATraceFileError(PersistenceError):
    """The file does not start with the trace-file magic tag."""


class CorruptHeaderError(PersistenceError):
    """Trace-file header fields are inconsistent with the payload."""


class TruncatedPayloadError(PersistenceError):
    """The file ends before the advertised payload is complete."""


# --- experiment runner errors --------------------------------------------------

class UnknownPresetError(ConfigError):
    """The requested experiment preset name is not recognized."""
