"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract: configuration problems
exit 2, I/O and parse problems exit 1, incompatible data exits 3.
"""


class NlispecError(Exception):
    """Base class for all toolkit errors."""


class ValidityRangeError(NlispecError, ValueError):
    """A wavelength, grid or beam fell outside a model's validity range."""


class ConfigError(NlispecError, ValueError):
    """Invalid run configuration; `key` holds the offending key path."""

    def __init__(self, message, key=None):
        super().__init__(message if key is None else f"{key}: {message}")
        self.key = key


class LineParseError(NlispecError, ValueError):
    """Unparseable line-list input; carries the record/row location."""

    def __init__(self, message, record=None, columns=None):
        loc = []
        if record is not None:
            loc.append(f"record {record}")
        if columns is not None:
            loc.append(f"columns {columns[0]}-{columns[1]}")
        prefix = ", ".join(loc)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.record = record
        self.columns = columns


class MapFormatError(NlispecError, ValueError):
    """Corrupt or unsupported interferogram map container."""


class AxisMismatchError(NlispecError, ValueError):
    """Two maps that must share axes/config do not."""
