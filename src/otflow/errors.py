"""Exception types shared across the package."""


class OTFlowError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(OTFlowError):
    """Two fields or series that must share a grid do not."""


class OutsideDomainError(OTFlowError):
    """A point lies outside the closed grid domain."""


class EmptySeedsError(OTFlowError):
    """Seeding produced no points."""


class ConfigError(OTFlowError, ValueError):
    """An input is missing, malformed, out of range, or carries unknown keys;
    `key` names the key at fault. Also a `ValueError`, as a bad argument is."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def require(holds: bool, key: str, requirement: str, value) -> None:
    """Raise `ConfigError` keyed `key` unless `holds`, in the form
    `key '<key>' must be <requirement>, got <value>`."""
    if not holds:
        raise ConfigError(f"key {key!r} must be {requirement}, got {value!r}", key)


class VolumeFormatError(OTFlowError):
    """Base class for problems with a volume file."""


class HeaderError(VolumeFormatError):
    """Volume header is malformed or unsupported."""


class BadMagicError(VolumeFormatError):
    """File is not a single-file NIfTI-1 volume."""


class UnsupportedDatatypeError(VolumeFormatError):
    """Volume stores a datatype this reader does not handle."""


class TruncatedDataError(VolumeFormatError):
    """Volume data section is shorter than the header promises."""
